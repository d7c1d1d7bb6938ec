//! Self-adjusted multi-table window union (paper Section 5.2).
//!
//! Tuples from several stream tables are matched over a shared time window,
//! partitioned by common keys. Two scheduling strategies are implemented:
//!
//! * **StaticHash** — the Flink-style baseline: a tuple's key hashes to a
//!   fixed worker. Skewed key distributions starve all but one worker.
//! * **SelfAdjusting** — a dynamic scheduler gathers per-key processing
//!   counts and periodically remaps the hottest keys from the most-loaded
//!   worker to the least-loaded one ("on-the-fly load balancing").
//!
//! Orthogonally, a key's window is the aggregates' compiled
//! [`WindowProgram`] run as a [`Sweep`] fed one tuple at a time
//! ([`Sweep::push`]). With `incremental` the kernels whose fold is exactly
//! invertible (`count`, integer `sum`, the count maps behind
//! `distinct_count`) subtract and evict while the rest re-fold the frame;
//! without it every tuple re-folds its whole frame (the paper's description
//! of Flink's eviction behaviour). Either way a key's answer is the one a
//! request anchored at its newest tuple gets, bit for bit. Both knobs exist
//! so the Section 9.3.2 ablation can isolate each effect.
//!
//! Per-key state lives in a shared concurrent map (the two-level skiplist),
//! guarded per key — so remapping a key to another worker migrates no state,
//! and "multiple workers can collaborate on the same key subset".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};

use openmldb_exec::{Sweep, SweepState, WindowProgram};
use openmldb_sql::ast::Frame;
use openmldb_sql::plan::{BoundAggregate, BoundWindow};
use openmldb_storage::SkipMap;
use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, Schema, Value};

/// Worker scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Key-hash routing fixed at startup (the baseline).
    StaticHash,
    /// Dynamic key→worker remapping every `rebalance_every` tuples.
    SelfAdjusting { rebalance_every: usize },
}

/// Window-union executor configuration.
#[derive(Debug, Clone)]
pub struct UnionConfig {
    pub workers: usize,
    pub frame: Frame,
    pub scheduling: Scheduling,
    /// true = subtract-and-evict where exact; false = re-fold every frame.
    pub incremental: bool,
}

enum Task {
    Tuple { key: KeyValue, ts: i64, row: Row },
    Barrier(Sender<()>),
    Stop,
}

/// One key's window: the sweep's retained rows and fold state, and the
/// answer of its newest tuple.
struct KeyState {
    window: SweepState,
    latest: Vec<Value>,
}

type States = SkipMap<KeyValue, Mutex<KeyState>>;

/// The union executor: N workers over a shared per-key state map.
pub struct WindowUnion {
    senders: Vec<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    states: Arc<States>,
    /// The first error a tuple's fold met, kept for [`WindowUnion::flush`].
    error: Arc<Mutex<Option<Error>>>,
    /// Per-worker tuples processed (load metric).
    loads: Arc<Vec<AtomicU64>>,
    /// Dynamic routing table (None for static hashing).
    routes: Option<Arc<RwLock<HashMap<KeyValue, usize>>>>,
    /// Per-key traffic since the last rebalance.
    key_traffic: Arc<Mutex<HashMap<KeyValue, u64>>>,
    config: UnionConfig,
    pushed: u64,
    rebalances: u64,
}

fn hash_key(key: &KeyValue) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl WindowUnion {
    /// A union folding `specs` over tuples of `schema`. A spec that does
    /// not compile is the typed error here, before any worker starts.
    pub fn new(config: UnionConfig, schema: Schema, specs: Vec<BoundAggregate>) -> Result<Self> {
        let workers_n = config.workers.max(1);
        let codec = Arc::new(CompactCodec::new(schema));
        // A tuple's timestamp rides beside its row, so no column orders it.
        let window = BoundWindow {
            name: "union".into(),
            merged_names: vec!["union".into()],
            partition_cols: Vec::new(),
            order_col: 0,
            order_desc: false,
            frame: config.frame,
            maxsize: None,
            exclude_current_row: false,
            instance_not_in_window: false,
            union_tables: Vec::new(),
        };
        let refs: Vec<&BoundAggregate> = specs.iter().collect();
        let program = WindowProgram::compile(&window, &refs, &codec)?;
        let sweep: Arc<Sweep> = Arc::new(program.sweep(&window, !config.incremental)?);
        let states: Arc<States> = Arc::new(SkipMap::new());
        let error = Arc::new(Mutex::new(None));
        let loads: Arc<Vec<AtomicU64>> =
            Arc::new((0..workers_n).map(|_| AtomicU64::new(0)).collect());
        let mut senders = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for worker_id in 0..workers_n {
            let (tx, rx) = bounded::<Task>(4_096);
            let (states, error, loads) = (states.clone(), error.clone(), loads.clone());
            let (sweep, codec) = (sweep.clone(), codec.clone());
            workers.push(std::thread::spawn(move || {
                let mut bytes = Vec::new();
                while let Ok(task) = rx.recv() {
                    match task {
                        Task::Tuple { key, ts, row } => {
                            let (state, _) = states.get_or_insert_with(key, || {
                                Mutex::new(KeyState {
                                    window: sweep.new_state(),
                                    latest: Vec::new(),
                                })
                            });
                            let mut guard = state.lock();
                            let KeyState { window, latest } = &mut *guard;
                            latest.clear();
                            let folded = codec
                                .encode_into(row.values(), &mut bytes)
                                .and_then(|()| sweep.push(window, ts, &bytes, &codec, latest));
                            if let Err(e) = folded {
                                latest.clear();
                                error.lock().get_or_insert(e);
                            }
                            loads[worker_id].fetch_add(1, Ordering::Relaxed);
                        }
                        Task::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                        Task::Stop => return,
                    }
                }
            }));
            senders.push(tx);
        }
        let routes = match config.scheduling {
            Scheduling::SelfAdjusting { .. } => Some(Arc::new(RwLock::new(HashMap::new()))),
            Scheduling::StaticHash => None,
        };
        Ok(WindowUnion {
            senders,
            workers,
            states,
            error,
            loads,
            routes,
            key_traffic: Arc::new(Mutex::new(HashMap::new())),
            config,
            pushed: 0,
            rebalances: 0,
        })
    }

    /// Route one stream tuple (from any of the unioned tables) to a worker.
    pub fn push(&mut self, key: KeyValue, ts: i64, row: Row) {
        // Chaos hook: latency-only (a slow dispatch). Worker kills are
        // deliberately not modelled here — a dead worker would wedge the
        // flush barrier, which is a different failure class than this
        // crate's bounded-latency contract covers.
        let _ = openmldb_chaos::inject(openmldb_chaos::InjectionPoint::UnionDispatch);
        let worker = match &self.routes {
            None => (hash_key(&key) % self.senders.len() as u64) as usize,
            Some(routes) => {
                let assigned = routes.read().get(&key).copied();
                match assigned {
                    Some(w) => w,
                    None => {
                        let w = (hash_key(&key) % self.senders.len() as u64) as usize;
                        routes.write().insert(key.clone(), w);
                        w
                    }
                }
            }
        };
        *self.key_traffic.lock().entry(key.clone()).or_insert(0) += 1;
        let _ = self.senders[worker].send(Task::Tuple { key, ts, row });
        self.pushed += 1;
        crate::metrics::union_tuples().inc();
        if let Scheduling::SelfAdjusting { rebalance_every } = self.config.scheduling {
            if self.pushed.is_multiple_of(rebalance_every as u64) {
                self.rebalance();
            }
        }
    }

    /// Periodic load balancing: move the hottest keys off the most-loaded
    /// worker onto the least-loaded one.
    fn rebalance(&mut self) {
        let Some(routes) = &self.routes else { return };
        self.rebalances += 1;
        // Estimate per-worker load from key traffic × current routing.
        let mut per_worker = vec![0u64; self.senders.len()];
        let traffic = std::mem::take(&mut *self.key_traffic.lock());
        let mut routing = routes.write();
        for (key, count) in &traffic {
            if let Some(&w) = routing.get(key) {
                per_worker[w] += count;
            }
        }
        #[expect(clippy::expect_used, reason = "workers_n is clamped to >= 1")]
        let (hot, _) = per_worker
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .expect("non-empty workers");
        #[expect(clippy::expect_used, reason = "workers_n is clamped to >= 1")]
        let (cold, _) = per_worker
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .expect("non-empty workers");
        if hot == cold || per_worker[hot] == 0 {
            return;
        }
        // Move the hot worker's heaviest keys until loads would roughly even
        // out. State lives in the shared map, so only routing changes.
        let mut hot_keys: Vec<(&KeyValue, &u64)> = traffic
            .iter()
            .filter(|(k, _)| routing.get(k) == Some(&hot))
            .collect();
        hot_keys.sort_by(|a, b| b.1.cmp(a.1));
        let mut moved = 0u64;
        let target = (per_worker[hot] - per_worker[cold]) / 2;
        for (key, count) in hot_keys {
            if moved >= target {
                break;
            }
            routing.insert(key.clone(), cold);
            moved += count;
        }
    }

    /// Wait until every worker has drained its queue, then publish this
    /// union's per-worker loads and imbalance ratio to the global registry
    /// (last flushed union wins — the gauges describe the most recent
    /// quiescent state). Returns the first error a tuple's fold met, on
    /// this flush and every later one.
    pub fn flush(&self) -> Result<()> {
        let (ack_tx, ack_rx) = bounded(self.senders.len());
        for s in &self.senders {
            let _ = s.send(Task::Barrier(ack_tx.clone()));
        }
        for _ in 0..self.senders.len() {
            let _ = ack_rx.recv();
        }
        for (worker, load) in self.worker_loads().into_iter().enumerate() {
            crate::metrics::union_worker_load(worker).set(load as f64);
        }
        crate::metrics::union_imbalance().set(self.imbalance());
        match self.error.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The aggregates of `key`'s newest tuple, in spec order — as a request
    /// anchored there answers (`None`: no tuple of `key` folded yet, or its
    /// last fold failed with the error [`flush`](Self::flush) returns).
    /// After a flush every pushed tuple is folded.
    pub fn latest(&self, key: &KeyValue) -> Option<Vec<Value>> {
        let state = self.states.get(key)?.lock();
        (!state.latest.is_empty()).then(|| state.latest.clone())
    }

    /// Per-worker tuples processed — the imbalance diagnostic.
    pub fn worker_loads(&self) -> Vec<u64> {
        self.loads
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    /// Ratio max/mean worker load (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let loads = self.worker_loads();
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }
}

impl Drop for WindowUnion {
    fn drop(&mut self) {
        for s in &self.senders {
            let _ = s.send(Task::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;
    use openmldb_types::{ColumnDef, DataType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spec(func: &str, arg: PhysExpr) -> BoundAggregate {
        BoundAggregate {
            window_id: 0,
            func: lookup(func).unwrap(),
            args: vec![arg],
            output_type: DataType::Bigint,
        }
    }

    fn schema(cols: &[(&str, DataType)]) -> Schema {
        Schema::new(cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect()).unwrap()
    }

    fn run(config: UnionConfig, tuples: usize, distinct_keys: u64) -> WindowUnion {
        let schema = schema(&[("v", DataType::Bigint)]);
        let sum = vec![spec("sum", PhysExpr::Column(0))];
        let mut u = WindowUnion::new(config, schema, sum).unwrap();
        for i in 0..tuples {
            // Zipf-ish: key 0 gets half the traffic.
            let key = if i % 2 == 0 {
                0
            } else {
                (i as u64) % distinct_keys
            };
            u.push(
                KeyValue::Int(key as i64),
                i as i64,
                Row::new(vec![Value::Bigint(1)]),
            );
        }
        u.flush().unwrap();
        u
    }

    #[test]
    fn all_tuples_processed_static_and_dynamic() {
        for scheduling in [
            Scheduling::StaticHash,
            Scheduling::SelfAdjusting {
                rebalance_every: 500,
            },
        ] {
            let u = run(
                UnionConfig {
                    workers: 4,
                    frame: Frame::RowsRange { preceding_ms: 100 },
                    scheduling,
                    incremental: true,
                },
                4_000,
                8,
            );
            assert_eq!(u.worker_loads().iter().sum::<u64>(), 4_000);
            // Key 1 gets every eighth tuple: 13 of them in the last 100 ms.
            assert_eq!(u.latest(&KeyValue::Int(1)), Some(vec![Value::Bigint(13)]));
        }
    }

    #[test]
    fn dynamic_scheduling_rebalances() {
        let u = run(
            UnionConfig {
                workers: 4,
                frame: Frame::RowsRange { preceding_ms: 100 },
                scheduling: Scheduling::SelfAdjusting {
                    rebalance_every: 200,
                },
                incremental: true,
            },
            4_000,
            8,
        );
        assert!(u.rebalances() > 0);
    }

    /// Subtract-and-evict and per-tuple recomputation answer every tuple
    /// alike, bit for bit, over random doubles arriving out of order and
    /// tied, on every frame shape.
    #[test]
    fn incremental_equals_recompute() {
        let schema = schema(&[("v", DataType::Double), ("n", DataType::Bigint)]);
        let (v, n) = (PhysExpr::Column(0), PhysExpr::Column(1));
        let specs = vec![
            spec("count", v.clone()),
            spec("sum", v.clone()),
            spec("max", v),
            spec("sum", n.clone()),
            spec("distinct_count", n),
        ];
        let frames = [
            Frame::RowsRange { preceding_ms: 40 },
            Frame::Rows { preceding: 6 },
            Frame::Unbounded,
        ];
        for frame in frames {
            let union = |incremental| {
                let config = UnionConfig {
                    workers: 2,
                    frame,
                    scheduling: Scheduling::StaticHash,
                    incremental,
                };
                WindowUnion::new(config, schema.clone(), specs.clone()).unwrap()
            };
            let (mut slide, mut refold) = (union(true), union(false));
            let mut rng = StdRng::seed_from_u64(11);
            for i in 0..400i64 {
                let key = KeyValue::Int(rng.gen_range(0i64..3));
                let ts = i * 3 + rng.gen_range(-12i64..4);
                let row = Row::new(vec![
                    Value::Double(rng.gen_range(-1e6..1e6)),
                    Value::Bigint(rng.gen_range(-5i64..5)),
                ]);
                slide.push(key.clone(), ts, row.clone());
                refold.push(key.clone(), ts, row);
                slide.flush().unwrap();
                refold.flush().unwrap();
                let (a, b) = (slide.latest(&key), refold.latest(&key));
                assert!(a.is_some(), "{frame:?}: tuple {i} has an answer");
                assert_eq!(a, b, "{frame:?}: tuple {i}");
            }
        }
    }

    /// A fold error is no longer dropped by the worker: `flush` returns the
    /// expression kernel's typed overflow error.
    #[test]
    fn fold_errors_surface_at_flush() {
        let overflow = PhysExpr::Binary {
            op: openmldb_sql::BinaryOp::Mul,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Value::Bigint(i64::MAX))),
        };
        for incremental in [true, false] {
            let config = UnionConfig {
                workers: 2,
                frame: Frame::RowsRange { preceding_ms: 10 },
                scheduling: Scheduling::StaticHash,
                incremental,
            };
            let schema = schema(&[("c", DataType::Bigint)]);
            let sum = vec![spec("sum", overflow.clone())];
            let mut u = WindowUnion::new(config, schema, sum).unwrap();
            u.push(KeyValue::Int(1), 1, Row::new(vec![Value::Bigint(1)]));
            u.flush().unwrap();
            assert_eq!(
                u.latest(&KeyValue::Int(1)),
                Some(vec![Value::Bigint(i64::MAX)])
            );
            u.push(KeyValue::Int(1), 2, Row::new(vec![Value::Bigint(2)]));
            let want = Error::Eval("integer overflow in *".into());
            assert_eq!(u.flush(), Err(want.clone()));
            assert_eq!(u.latest(&KeyValue::Int(1)), None);
            // The error stays for every later flush.
            u.push(KeyValue::Int(2), 30, Row::new(vec![Value::Bigint(1)]));
            assert_eq!(u.flush(), Err(want));
        }
    }

    #[test]
    fn loads_published_to_registry_on_flush() {
        let u = run(
            UnionConfig {
                workers: 4,
                frame: Frame::RowsRange { preceding_ms: 100 },
                scheduling: Scheduling::StaticHash,
                incremental: true,
            },
            4_000,
            8,
        );
        // the per-instance counters stay exact regardless of other tests
        assert_eq!(u.worker_loads().iter().sum::<u64>(), 4_000);
        // ... and flush() published them as labeled gauges plus the
        // imbalance ratio (values are last-writer-wins across unions, so
        // only presence and the >= 1.0 invariant are asserted here)
        let names = openmldb_obs::Registry::global().metric_names();
        for worker in 0..4 {
            let series = format!("openmldb_online_union_worker_load_rows{{worker=\"{worker}\"}}");
            assert!(names.contains(&series), "missing {series}");
        }
        assert!(names.contains(&"openmldb_online_union_imbalance_ratio".to_string()));
        if openmldb_obs::enabled() {
            assert!(crate::metrics::union_imbalance().value() >= 1.0);
        }
    }

    #[test]
    fn skewed_static_routing_is_imbalanced() {
        // With one dominant key, static hashing pins half the load on one
        // worker; the self-adjusting scheduler cannot split a single key's
        // serial stream, but spreads the remaining keys.
        let static_u = run(
            UnionConfig {
                workers: 4,
                frame: Frame::RowsRange { preceding_ms: 100 },
                scheduling: Scheduling::StaticHash,
                incremental: true,
            },
            8_000,
            64,
        );
        assert!(
            static_u.imbalance() > 1.3,
            "imbalance {}",
            static_u.imbalance()
        );
    }
}
