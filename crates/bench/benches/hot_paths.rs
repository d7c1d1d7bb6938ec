//! Criterion micro-benchmarks over the hot paths behind the paper's
//! figures, including the ablations DESIGN.md calls out:
//!
//! * compact vs UnsafeRow codec (encode/decode) — §7.1;
//! * skiplist insert/scan/latest — §7.2;
//! * incremental (subtract-and-evict) vs recompute sliding windows — §5.2;
//! * cyclic binding (shared state) vs independent aggregates — §4.2;
//! * pre-aggregated vs raw long-window queries — §5.1;
//! * SQL parse + plan, with and without the compilation cache — §4.2;
//! * observability overhead: the fig06-style request loop plus raw metric
//!   primitives. Run once with default features and once with
//!   `--features obs-off`; the `obs_overhead/request` delta between the two
//!   runs is the instrumentation cost of this ~60-row request. The budget
//!   check is `scripts/obs_overhead.sh`: the on/off ratio of the benchmark's
//!   short-window workload, where the fixed per-request cost is largest.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use openmldb_exec::{SlidingWindow, WindowAggSet};
use openmldb_online::PreAggregator;
use openmldb_sql::ast::Frame;
use openmldb_sql::functions::lookup;
use openmldb_sql::plan::{BoundAggregate, BoundWindow, PhysExpr};
use openmldb_sql::{Catalog, PlanCache};
use openmldb_storage::TimeList;
use openmldb_types::{
    CompactCodec, DataType, KeyValue, Row, RowCodec, Schema, UnsafeRowCodec, Value,
};

fn bench_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Bigint),
        ("k", DataType::Bigint),
        ("v", DataType::Double),
        ("cat", DataType::String),
        ("q", DataType::Int),
        ("ts", DataType::Timestamp),
    ])
    .unwrap()
}

fn bench_row(i: i64) -> Row {
    Row::new(vec![
        Value::Bigint(i),
        Value::Bigint(i % 10),
        Value::Double(i as f64 * 0.5),
        Value::string("category"),
        Value::Int((i % 5) as i32),
        Value::Timestamp(i),
    ])
}

fn spec(func: &str, col: usize) -> BoundAggregate {
    BoundAggregate {
        window_id: 0,
        func: lookup(func).unwrap(),
        args: vec![PhysExpr::Column(col)],
        output_type: DataType::Double,
    }
}

fn codecs(c: &mut Criterion) {
    let schema = bench_schema();
    let compact = CompactCodec::new(schema.clone());
    let unsafe_row = UnsafeRowCodec::new(schema);
    let row = bench_row(42);
    let compact_buf = compact.encode(&row).unwrap();
    let unsafe_buf = unsafe_row.encode(&row).unwrap();

    let mut g = c.benchmark_group("codec");
    g.bench_function("compact_encode", |b| {
        b.iter(|| compact.encode(&row).unwrap())
    });
    g.bench_function("unsafe_encode", |b| {
        b.iter(|| unsafe_row.encode(&row).unwrap())
    });
    g.bench_function("compact_decode", |b| {
        b.iter(|| compact.decode(&compact_buf).unwrap())
    });
    g.bench_function("unsafe_decode", |b| {
        b.iter(|| unsafe_row.decode(&unsafe_buf).unwrap())
    });
    g.finish();
}

/// Pins the borrowed `RowView` read path against the owning decoders: a
/// full-row scan through `get_value` versus materializing every column via
/// `decode` / `decode_projected`. The view reads fields in place from the
/// encoded buffer, so this group is the per-row cost the streaming
/// scan→aggregate pipeline saves.
fn rowview_decode(c: &mut Criterion) {
    let schema = bench_schema();
    let width = schema.len();
    let compact = CompactCodec::new(schema);
    let row = bench_row(42);
    let buf = compact.encode(&row).unwrap();
    let wanted = vec![true; width];

    let mut g = c.benchmark_group("rowview_decode");
    g.bench_function("view_all_columns", |b| {
        b.iter(|| {
            let view = compact.view(&buf).unwrap();
            let mut acc = 0i64;
            for i in 0..width {
                match view.get_value(i).unwrap() {
                    Value::Bigint(v) | Value::Timestamp(v) => acc += v,
                    Value::Int(v) => acc += v as i64,
                    Value::Double(v) => acc += v as i64,
                    Value::Str(s) => acc += s.len() as i64,
                    _ => {}
                }
            }
            acc
        })
    });
    g.bench_function("owning_decode", |b| {
        b.iter(|| compact.decode(&buf).unwrap())
    });
    g.bench_function("owning_decode_projected", |b| {
        b.iter(|| compact.decode_projected(&buf, Some(&wanted)).unwrap())
    });
    g.finish();
}

fn skiplist(c: &mut Criterion) {
    let mut g = c.benchmark_group("skiplist");
    g.bench_function("timelist_insert_inorder", |b| {
        b.iter_batched(
            TimeList::new,
            |list| {
                for i in 0..1_000i64 {
                    list.insert(i, Arc::from(vec![0u8; 32].into_boxed_slice()));
                }
                list
            },
            BatchSize::SmallInput,
        )
    });
    let list = TimeList::new();
    for i in 0..10_000i64 {
        list.insert(i, Arc::from(vec![0u8; 32].into_boxed_slice()));
    }
    g.bench_function("timelist_latest", |b| b.iter(|| list.latest().unwrap()));
    g.bench_function("timelist_range_1000", |b| {
        b.iter(|| list.range(9_000, 9_999))
    });
    g.finish();
}

fn sliding_windows(c: &mut Criterion) {
    let specs = [spec("sum", 2), spec("count", 2), spec("max", 2)];
    let refs: Vec<&BoundAggregate> = specs.iter().collect();
    let rows: Vec<Row> = (0..2_000).map(bench_row).collect();

    let mut g = c.benchmark_group("sliding_window");
    g.bench_function("incremental_2k_rows", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::new(Frame::RowsRange { preceding_ms: 200 }, &refs).unwrap();
            for (i, row) in rows.iter().enumerate() {
                w.push(i as i64, row.values()).unwrap();
            }
            w.len()
        })
    });
    g.bench_function("recompute_2k_rows", |b| {
        b.iter(|| {
            // The baseline: rebuild the aggregate set per tuple.
            let mut buffer: Vec<(i64, &Row)> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let ts = i as i64;
                buffer.push((ts, row));
                let cut = buffer.partition_point(|(t, _)| ts - t > 200);
                buffer.drain(..cut);
                let mut set = WindowAggSet::new(&refs).unwrap();
                for (_, r) in &buffer {
                    set.update(r.values()).unwrap();
                }
                std::hint::black_box(set.outputs());
            }
        })
    });
    g.finish();
}

fn cyclic_binding(c: &mut Criterion) {
    // sum/avg/count/min/max over the same column: shared state vs five
    // independent aggregators.
    let shared_specs: Vec<BoundAggregate> = ["sum", "avg", "count", "min", "max"]
        .iter()
        .map(|f| spec(f, 2))
        .collect();
    let refs: Vec<&BoundAggregate> = shared_specs.iter().collect();
    let rows: Vec<Row> = (0..1_000).map(bench_row).collect();

    let mut g = c.benchmark_group("cyclic_binding");
    g.bench_function("shared_state_5aggs", |b| {
        b.iter(|| {
            let mut set = WindowAggSet::new(&refs).unwrap();
            for row in &rows {
                set.update(row.values()).unwrap();
            }
            set.outputs()
        })
    });
    g.bench_function("independent_5aggs", |b| {
        b.iter(|| {
            let mut aggs: Vec<Box<dyn openmldb_exec::Aggregator>> = shared_specs
                .iter()
                .map(|s| openmldb_exec::create_aggregator(s.func, &s.args).unwrap())
                .collect();
            for row in &rows {
                for (a, s) in aggs.iter_mut().zip(&shared_specs) {
                    let v = openmldb_exec::evaluate(&s.args[0], row.values(), &[]).unwrap();
                    a.update(&[v]).unwrap();
                }
            }
            aggs.iter().map(|a| a.output()).collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn preagg_query(c: &mut Criterion) {
    let window = BoundWindow {
        name: "w".into(),
        merged_names: vec!["w".into()],
        partition_cols: vec![1],
        order_col: 5,
        order_desc: false,
        frame: Frame::RowsRange {
            preceding_ms: 100_000,
        },
        maxsize: None,
        exclude_current_row: false,
        instance_not_in_window: false,
        union_tables: vec![],
    };
    let specs = vec![spec("sum", 2), spec("count", 2)];
    let preagg = PreAggregator::new(&window, &specs, vec![1_000, 10_000]).unwrap();
    let rows: Vec<Row> = (0..100_000)
        .map(|i| {
            Row::new(vec![
                Value::Bigint(i),
                Value::Bigint(0),
                Value::Double(1.0),
                Value::string("c"),
                Value::Int(1),
                Value::Timestamp(i),
            ])
        })
        .collect();
    for row in &rows {
        preagg.ingest(row).unwrap();
    }
    let key = vec![KeyValue::Int(0)];

    let mut g = c.benchmark_group("long_window");
    g.bench_function("preagg_query_100k_window", |b| {
        b.iter(|| {
            preagg
                .query(&key, 0, 99_999, |_l, _h| Ok(Vec::new()))
                .unwrap()
        })
    });
    g.bench_function("raw_scan_100k_window", |b| {
        let refs: Vec<&BoundAggregate> = specs.iter().collect();
        b.iter(|| {
            let mut set = WindowAggSet::new(&refs).unwrap();
            for row in &rows {
                set.update(row.values()).unwrap();
            }
            set.outputs()
        })
    });
    g.finish();
}

fn plan_compilation(c: &mut Criterion) {
    struct Cat(Schema);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            (name == "t1").then(|| self.0.clone())
        }
    }
    let cat = Cat(bench_schema());
    let sql = "SELECT id, sum(v) OVER w1 AS s, avg(v) OVER w1 AS a, \
               count_where(v, q > 1) OVER w2 AS cw FROM t1 \
               WINDOW w1 AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 10s PRECEDING AND CURRENT ROW), \
                      w2 AS (PARTITION BY k ORDER BY ts ROWS BETWEEN 100 PRECEDING AND CURRENT ROW)";

    let mut g = c.benchmark_group("plan");
    g.bench_function("parse_and_compile", |b| {
        b.iter(|| {
            let stmt = openmldb_sql::parse_select(sql).unwrap();
            openmldb_sql::compile_select(&stmt, &cat).unwrap()
        })
    });
    let cache = PlanCache::new();
    cache.compile(sql, &cat).unwrap();
    g.bench_function("plan_cache_hit", |b| {
        b.iter(|| cache.compile(sql, &cat).unwrap())
    });
    g.finish();
}

fn obs_overhead(c: &mut Criterion) {
    use openmldb_bench::scenarios::{micro_db, micro_request, micro_sql};

    let mut g = c.benchmark_group("obs_overhead");

    // End-to-end: the fig06-style request loop the obs/obs-off comparison
    // targets — requests anchored at the end of the generated history
    // (ts_step_ms = 10) so every window scan covers real rows. All
    // instrumentation (request counter, duration histogram, spans,
    // seek/scan/aggregate metrics) sits inside this call.
    let db = micro_db(20_000, 20, 0.0, 1);
    db.deploy(&format!("DEPLOY hp AS {}", micro_sql(1, 1, 60_000, false)))
        .unwrap();
    let mut i = 0i64;
    g.bench_function("request", |b| {
        b.iter(|| {
            i += 1;
            db.request_readonly(
                "hp",
                &micro_request(1_000_000 + i, i % 20, 200_000 + i % 100),
            )
            .unwrap()
        })
    });

    // Raw primitive costs: what one increment / one record / one sampled-out
    // span costs on the hot path (all no-ops under obs-off).
    let counter = openmldb_obs::Registry::global().counter(
        "openmldb_bench_hot_ops_total",
        "hot-path counter cost probe",
    );
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = openmldb_obs::Registry::global().histogram(
        "openmldb_bench_hot_record_ns",
        "hot-path histogram cost probe",
    );
    let mut v = 0u64;
    g.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_add(977);
            hist.record(v % 1_000_000);
        })
    });
    g.bench_function("span_untraced", |b| {
        // No active trace on this thread: the common fast path.
        b.iter(|| openmldb_obs::span(openmldb_obs::Stage::Aggregate, || std::hint::black_box(1)))
    });

    // Workload-attribution primitives: one labeled increment, one whole
    // request record (enter + a count-only event + finish) folded into the
    // per-deployment store, one heavy-hitter offer. All no-ops under obs-off.
    let labeled = openmldb_obs::Registry::global().labeled_counter(
        "openmldb_bench_hot_labeled_total",
        "hot-path labeled-counter cost probe",
    );
    let label = openmldb_obs::LabelRegistry::deployments().resolve("hp");
    g.bench_function("labeled_counter_inc", |b| b.iter(|| labeled.inc(label)));
    let mut rec = openmldb_obs::Recorder::new();
    g.bench_function("request_record", |b| {
        b.iter(|| {
            let scope = openmldb_obs::FlightScope::enter(&mut rec);
            openmldb_obs::flight::event(openmldb_obs::FlightEventKind::ScanRows, 0, 1);
            let summary = scope.finish();
            openmldb_obs::ProfileStore::global().fold(label, &summary.cost);
        })
    });
    g.bench_function("spacesaving_offer", |b| {
        b.iter(|| openmldb_obs::SpaceSaving::hot_keys().offer("hp"))
    });
    g.finish();
}

fn chaos_overhead(c: &mut Criterion) {
    use openmldb_bench::scenarios::{micro_db, micro_request, micro_sql};
    use openmldb_core::RequestOptions;

    let mut g = c.benchmark_group("chaos_overhead");

    // The resilient request path with a deadline budget and the default
    // retry policy, against the same fig06-style loop `obs_overhead`
    // measures. Run once with default features and once with
    // `--features chaos` (no plan installed): the delta between the two is
    // the cost of compiled-in injection points plus deadline checks on the
    // hot path — the zero-overhead-when-off contract.
    let db = micro_db(20_000, 20, 0.0, 1);
    db.deploy(&format!("DEPLOY hc AS {}", micro_sql(1, 1, 60_000, false)))
        .unwrap();
    let mut i = 0i64;
    g.bench_function("request_with_deadline", |b| {
        b.iter(|| {
            i += 1;
            // The deadline anchors when the options are built, so they must
            // be rebuilt per request — a single long bench run would
            // otherwise outlive one shared 250 ms budget and time out.
            let opts = RequestOptions::with_deadline(std::time::Duration::from_millis(250));
            db.request_readonly_with(
                "hc",
                &micro_request(2_000_000 + i, i % 20, 200_000 + i % 100),
                &opts,
            )
            .unwrap()
        })
    });

    // Raw cost of one injection-point crossing: a compiled-out no-op
    // without the feature, one unarmed-state load with it.
    g.bench_function("inject_unarmed", |b| {
        b.iter(|| openmldb_chaos::inject(openmldb_chaos::InjectionPoint::SkiplistSeek))
    });
    g.finish();
}

/// The deploy-time program, isolated and end to end: one warm window fold
/// over pre-scanned, pre-sorted entries through the compiled kernels
/// (raw-byte reads, monomorphized accumulators, hoisted frame guards), then
/// the full request path.
fn compiled_eval(c: &mut Criterion) {
    use openmldb_bench::scenarios::{micro_db, micro_request, micro_sql};
    use openmldb_exec::{EntryOrder, ScanEntry};
    use openmldb_online::TableProvider;

    let db = micro_db(20_000, 20, 0.0, 0);
    db.deploy(&format!("DEPLOY ce AS {}", micro_sql(1, 0, 60_000, false)))
        .unwrap();
    let dep = db.deployment("ce").unwrap();
    assert_eq!(dep.program().compiled_windows(), 1, "plan must specialize");
    let codec = CompactCodec::new(dep.query.base_schema.clone());

    // Pre-scan one key's frame into an arena so the fold benches measure
    // only per-row aggregate work, not the shared scan.
    let table = db.table("t1").unwrap();
    let index = table.find_index(&[1], Some(5)).unwrap();
    let max_ts = 20_000i64 * 10;
    let mut arena: Vec<u8> = Vec::new();
    let mut entries: Vec<ScanEntry> = Vec::new();
    let mut seq = 0usize;
    table
        .scan_window(
            index,
            &[KeyValue::Int(0)],
            max_ts - 60_000,
            max_ts,
            None,
            &mut |ts, data| {
                let start = arena.len();
                arena.extend_from_slice(data);
                entries.push(ScanEntry {
                    ts,
                    seq,
                    start,
                    len: data.len(),
                });
                seq += 1;
                true
            },
        )
        .unwrap();
    entries.sort_unstable_by_key(|e| (e.ts, e.seq));
    assert!(!entries.is_empty(), "fold benches need real rows");

    let mut g = c.benchmark_group("compiled_eval");
    let wp = dep.program().window(0).unwrap();
    let mut state = wp.new_state();
    let first = wp.first_in_frame(entries.len());
    let mut out: Vec<Value> = Vec::new();
    g.bench_function("window_fold_compiled", |b| {
        b.iter(|| {
            wp.run(
                &mut state,
                &entries,
                first,
                EntryOrder::Ascending,
                &arena,
                None,
                &codec,
                &mut || Ok(()),
            )
            .unwrap();
            out.clear();
            wp.outputs_into(&state, &arena, None, &mut out).unwrap();
            out.len()
        })
    });

    let mut i = 0i64;
    g.bench_function("request_compiled", |b| {
        b.iter(|| {
            i += 1;
            openmldb_online::execute_request(
                &db,
                &dep,
                &micro_request(5_000_000 + i, i % 20, max_ts + i % 100),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    codecs,
    rowview_decode,
    skiplist,
    sliding_windows,
    cyclic_binding,
    preagg_query,
    plan_compilation,
    compiled_eval,
    obs_overhead,
    chaos_overhead
);
criterion_main!(benches);
