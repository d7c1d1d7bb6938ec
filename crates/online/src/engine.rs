//! Online request-mode execution (paper Section 3.2, mode 3).
//!
//! Each incoming request tuple is *virtually inserted* into its table: the
//! deployed plan runs against the stored stream with the request row as the
//! window anchor, and exactly one feature row comes back. The fast paths:
//!
//! * window scans read the pre-ranked two-level skiplist (Section 7.2) —
//!   no sorting at request time, one scan for all windows of a partition;
//! * the request row is encoded once, into the pooled scratch, and every
//!   window folds it as its last row with the code that folds stored rows;
//! * LAST JOINs are head reads on the join key's time list;
//! * long windows route through the pre-aggregation hierarchy when one is
//!   deployed (Section 5.1);
//! * every table handle and index id is bound into the [`Deployment`] at
//!   DEPLOY — the request path consults no name map.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use openmldb_exec::{
    evaluate, BaseRow, EntryOrder, Program, RequestScratch, RowSource, WindowAggSet, WindowState,
};
use openmldb_obs::{
    flight, span, FlightEventKind, FlightScope, FlightSummary, Fnv, LabelId, LabelRegistry,
    Outcome, ProfileStore, Recorder, ScanDigest, SpaceSaving, Stage,
};
use openmldb_sql::ast::Frame;
use openmldb_sql::plan::{BoundWindow, CompiledQuery};
use openmldb_types::codec::RowCodec;
use openmldb_types::{CompactCodec, Error, KeyValue, Result, Row, Value};

use openmldb_storage::sync::epoch::{self, Guard};
use openmldb_storage::{DataTable, MemTable, PinnedScan, ScanRow};

use crate::preagg::PreAggregator;
use crate::readplan::{BoundRead, ReadPlan};
use crate::resilience::{resilient_read, retry_transient, Ctx, RequestOptions, RequestOutput};

/// Resolves table names to live storage (either backend, Section 8.1).
/// Implemented by the database facade. Consulted when a deployment is bound,
/// on failover and by the materializing oracle — not by steady-state serving.
pub trait TableProvider: Send + Sync {
    fn table(&self, name: &str) -> Option<Arc<dyn DataTable>>;

    /// A caught-up replica to read from when the primary keeps faulting
    /// (the ZooKeeper-failover stand-in of Section 3.1). `None` means no
    /// replica is deployed and persistent faults surface to the caller.
    fn fallback_table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        let _ = name;
        None
    }
}

/// A trivial provider over a map (used by tests and examples).
#[derive(Default)]
pub struct MapProvider {
    tables: HashMap<String, Arc<dyn DataTable>>,
}

impl MapProvider {
    pub fn insert(&mut self, table: Arc<MemTable>) {
        self.tables
            .insert(DataTable::name(&*table).to_string(), table);
    }
}

impl TableProvider for MapProvider {
    fn table(&self, name: &str) -> Option<Arc<dyn DataTable>> {
        self.tables.get(name).cloned()
    }
}

/// A deployed feature script: the compiled plan, per-window pre-aggregators
/// (None = scan path) and the read plan.
///
/// Request-invariant plan state — the window → aggregate mapping, the
/// base-schema codec, the table handle and index id behind every read, and
/// which windows share a scan — is hoisted here at deployment time so the
/// per-request path never rebuilds or re-resolves it. A deployment reads
/// the tables it was bound to ([`Deployment::rebind`] follows a replaced one).
pub struct Deployment {
    pub name: String,
    pub query: Arc<CompiledQuery>,
    pub preaggs: Vec<Option<Arc<PreAggregator>>>,
    /// Aggregate indices per window (`aggregates_by_window`, hoisted).
    by_window: Vec<Vec<usize>>,
    /// Base-schema codec: the streaming scan reads stored rows in place
    /// through [`RowView`](openmldb_types::RowView) instead of decoding,
    /// and the request row is encoded with it once per request — the last
    /// row of every window fold, and the sentinel's capture.
    pub(crate) codec: CompactCodec,
    /// The bound handles behind every table the plan reads, and the scan
    /// groups.
    pub(crate) reads: ReadPlan,
    /// The deploy-time specialized bytecode program — per-window aggregate
    /// kernels plus the row stage. Shared across deployments of the same
    /// cached plan.
    program: Arc<Program>,
    /// Warm [`RequestScratch`] buffers of this deployment. A thread keeps
    /// the scratch of the deployment it served last in [`LAST_SCRATCH`];
    /// the pool holds the rest (from threads that switched deployments, or
    /// requests nested on one thread). The `Arc`'s address is the
    /// deployment's identity there: each bind (and so each rebind) makes a
    /// new one, and a scratch only ever serves the program it was warmed on.
    scratch_pool: Arc<ScratchPool>,
    /// Slot in the process-wide deployment label registry, resolved once at
    /// deployment time. All per-deployment attribution (the profile store
    /// and the labeled series read from it) keys off this fixed-cardinality
    /// id; deployments past the slot budget share the `__other` slot.
    label: LabelId,
}

impl Deployment {
    /// Compile `query` and bind every read of it through `provider`. A
    /// window or expression that does not compile, or a table or index the
    /// plan needs and the provider lacks, is refused here with a typed
    /// [`Error::Deployment`] — never at serve time.
    pub fn new(
        name: impl Into<String>,
        query: Arc<CompiledQuery>,
        provider: &dyn TableProvider,
    ) -> Result<Self> {
        let name = name.into();
        let program = Self::compile(&name, &query)?;
        let preaggs = vec![None; query.windows.len()];
        Self::bind(name, query, program, preaggs, provider)
    }

    /// The program deployment `name` would serve `query` with (compiled once
    /// per plan, cached on it) — or the refusal, naming the window, select
    /// column or WHERE clause that does not lower and why. Needs no catalog:
    /// the database asks before it builds an index for the plan.
    pub fn compile(name: &str, query: &CompiledQuery) -> Result<Arc<Program>> {
        let program = openmldb_exec::specialize(query);
        program.accept(name)?;
        Ok(program)
    }

    /// This deployment — same plan, (accepted) program and pre-aggregators —
    /// bound to the tables `provider` resolves now (one it reads was
    /// replaced).
    pub fn rebind(&self, provider: &dyn TableProvider) -> Result<Self> {
        Self::bind(
            self.name.clone(),
            self.query.clone(),
            self.program.clone(),
            self.preaggs.clone(),
            provider,
        )
    }

    fn bind(
        name: String,
        query: Arc<CompiledQuery>,
        program: Arc<Program>,
        preaggs: Vec<Option<Arc<PreAggregator>>>,
        provider: &dyn TableProvider,
    ) -> Result<Self> {
        let label = LabelRegistry::deployments().resolve(&name);
        crate::metrics::register_deployment_views();
        let by_window = query.aggregates_by_window();
        Ok(Deployment {
            reads: ReadPlan::bind(&query, &by_window, &preaggs, provider)?,
            codec: CompactCodec::new(query.base_schema.clone()),
            name,
            query,
            preaggs,
            by_window,
            program,
            scratch_pool: Arc::default(),
            label,
        })
    }

    /// The specialized bytecode program this deployment executes with.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// This deployment's slot in the global label registry (the key under
    /// which its workload attribution accumulates).
    pub fn label(&self) -> LabelId {
        self.label
    }

    /// Every table this deployment reads, each once
    /// ([`CompiledQuery::read_tables`]) — what the database matches a
    /// replaced table against.
    pub fn read_tables(&self) -> &[String] {
        self.query.read_tables()
    }

    /// The scan groups: window ids that are folded off one scan per request
    /// (a request seeks once per group and once per LAST JOIN).
    pub fn scan_groups(&self) -> &[Vec<usize>] {
        &self.reads.groups
    }

    pub fn with_preagg(mut self, window_id: usize, preagg: Arc<PreAggregator>) -> Self {
        self.preaggs[window_id] = Some(preagg);
        self.reads
            .regroup(&self.query, &self.by_window, &self.preaggs);
        self
    }

    /// Run `serve` with this thread's scratch for this deployment. A thread
    /// keeps the scratch of the deployment it served last in place, so the
    /// steady state takes no lock and moves nothing. Serving another
    /// deployment hands that scratch back to its own deployment's pool and
    /// takes one from this one's; a request nested in another on the same
    /// thread serves from the pool.
    fn with_scratch<R>(&self, serve: impl FnOnce(&mut RequestScratch) -> R) -> R {
        LAST_SCRATCH.with(|cell| {
            let Ok(mut last) = cell.try_borrow_mut() else {
                let mut scratch = self.pooled();
                let out = serve(&mut scratch);
                pool_put(&self.scratch_pool, scratch);
                return out;
            };
            let last = &mut *last;
            if !last
                .pool
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, &self.scratch_pool))
            {
                let own = self.pooled();
                let pool = last.pool.replace(Arc::clone(&self.scratch_pool));
                if let (Some(pool), Some(theirs)) = (pool, last.scratch.replace(own)) {
                    pool_put(&pool, theirs);
                }
            }
            serve(last.scratch.get_or_insert_with(RequestScratch::default))
        })
    }

    /// A scratch from this deployment's pool, or a new one.
    fn pooled(&self) -> RequestScratch {
        self.scratch_pool
            .lock()
            .map(|mut pool| pool.pop().unwrap_or_default())
            .unwrap_or_default()
    }
}

/// A deployment's pooled request scratches.
type ScratchPool = Mutex<Vec<RequestScratch>>;

fn pool_put(pool: &ScratchPool, scratch: RequestScratch) {
    if let Ok(mut pool) = pool.lock() {
        pool.push(scratch);
    }
}

/// The scratch a thread served its last request with, and the pool of the
/// deployment it belongs to.
struct LastScratch {
    pool: Option<Arc<ScratchPool>>,
    scratch: Option<RequestScratch>,
}

thread_local! {
    /// One [`LastScratch`] per serving thread.
    static LAST_SCRATCH: std::cell::RefCell<LastScratch> = const {
        std::cell::RefCell::new(LastScratch {
            pool: None,
            scratch: None,
        })
    };
}

/// Execute one request tuple through a deployment, producing one feature
/// row (online request mode).
///
/// Each call is one per-request record (`openmldb_obs::flight`), published
/// into the per-deployment store and latency histogram when the request
/// ends (the `openmldb_online_requests_total` /
/// `openmldb_online_request_duration_ns` metrics are read from those). Runs
/// with [`RequestOptions::default()`]: no deadline, default transient-fault
/// retries — see [`execute_request_with`] for budgeted serving.
pub fn execute_request(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
) -> Result<Row> {
    execute_request_with(provider, dep, request, &RequestOptions::default()).map(|out| out.row)
}

/// [`execute_request`] with explicit resilience options: a [`Deadline`]
/// budget checked at every pipeline stage (`Error::Timeout` instead of a
/// hang), bounded retry-with-backoff on transient storage faults, read
/// failover to [`TableProvider::fallback_table`], and — when the budget
/// runs out on a pre-aggregated window and `allow_degraded` is set — a
/// buckets-only answer flagged `degraded`.
///
/// [`Deadline`]: openmldb_types::Deadline
pub fn execute_request_with(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
    opts: &RequestOptions,
) -> Result<RequestOutput> {
    // One epoch pin for the whole request: the seeks and scans below pin
    // again, but nested pins are counter bumps — the fences run once, here.
    // The window scans borrow the rows they fold under it.
    let pin = epoch::pin();
    dep.with_scratch(|scratch| serve(provider, dep, request, opts, &pin, scratch))
}

/// One request through `scratch`, this thread's for `dep`.
fn serve(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
    opts: &RequestOptions,
    pin: &Guard,
    scratch: &mut RequestScratch,
) -> Result<RequestOutput> {
    scratch.reset();
    // Consistency sentinel: 1-in-N sampling decision, taken before the
    // pipeline runs so the scan pass can fold per-window input digests.
    // HOT: unsampled requests pay two loads and a branch.
    let audit_sig = crate::sentinel::should_sample().then(|| {
        scratch.audit.arm();
        crate::sentinel::deployment_signature(dep)
    });
    // The record moves out of the scratch for the duration of the scope so
    // the pipeline below can borrow the scratch mutably. `Recorder` is a
    // pooled `Option<Box<_>>`; the take/put pair moves a pointer, it does
    // not allocate.
    let mut flight = std::mem::take(&mut scratch.flight);
    let ctx = Ctx::new(opts);
    let scope = FlightScope::enter(&mut flight);
    let out = execute_streaming(provider, dep, request, &ctx, pin, scratch);
    let mut summary = scope.finish();
    summary.cost.scratch_high_water_bytes = scratch.scan.retained_bytes() as u64;
    let result = publish_request(dep, &flight, &summary, &ctx, out);
    // Heavy-hitter partition keys, fed from the sampled requests only, each
    // standing for `sampled` requests: render `dep:key` into the pooled
    // scratch string so a warm offer allocates nothing.
    if summary.sampled > 0 && !scratch.key.is_empty() {
        use std::fmt::Write as _;
        scratch.key_repr.clear();
        let _ = write!(scratch.key_repr, "{}:{:?}", dep.name, scratch.key);
        SpaceSaving::hot_keys().offer_weighted(&scratch.key_repr, summary.sampled);
    }
    if let Some(pre_sig) = audit_sig {
        let bucketed = summary.cost.preagg_hits > 0;
        crate::sentinel::capture(dep, request, scratch, &result, pre_sig, bucketed);
    }
    scratch.flight = flight;
    result
}

/// Publish one closed request record — once, after its end-of-request clock
/// reading — with one write per signal: its profile into the per-deployment
/// store, its `cost.total_ns` into the per-deployment latency histogram, and,
/// for an anomalous or slow request, its post-mortem. The labeled series,
/// EXPLAIN ANALYZE, and the global request counters and duration histogram
/// are all read from those two at exposition time
/// ([`crate::metrics::register_deployment_views`]), so the globals equal the
/// per-deployment sums — `__other` included — by construction. A passive
/// (nested) scope has no record of its own and publishes nothing.
fn publish_request(
    dep: &Deployment,
    flight: &Recorder,
    summary: &FlightSummary,
    ctx: &Ctx,
    out: Result<Row>,
) -> Result<RequestOutput> {
    use crate::metrics as m;
    let result = out.map(|row| RequestOutput {
        row,
        degraded: ctx.degraded(),
        retries: ctx.retries(),
        failovers: ctx.failovers(),
        trace_id: summary.trace_id,
    });
    if matches!(result, Err(Error::Timeout { .. })) {
        m::timeouts().inc();
    }
    if !summary.active {
        return result;
    }
    let cost = &summary.cost;
    m::deployment_duration().record(dep.label, cost.total_ns);
    ProfileStore::global().fold(dep.label, cost);

    // Post-mortem dump decision: anomalous outcomes (timeout, error,
    // degraded answer, failover) always dump; clean successes dump only when
    // they crossed the slow-query threshold. The fast path pays one branch
    // and leaves the ring to be overwritten by the next request.
    let outcome = match &result {
        Err(Error::Timeout { .. }) => Some(Outcome::Timeout),
        Err(_) => Some(Outcome::Failed),
        Ok(o) if o.degraded => Some(Outcome::Degraded),
        Ok(o) if o.failovers > 0 => Some(Outcome::Failover),
        Ok(_) if cost.total_ns >= flight::slow_query_threshold_ns() => Some(Outcome::Slow),
        Ok(_) => None,
    };
    if let Some(pm) = outcome.and_then(|o| flight.post_mortem(o, summary)) {
        flight::publish(pm);
    }
    result
}

/// Perturb aggregate outputs in place for the `compiled_kernel` chaos
/// point: numeric values shift by one, booleans flip; nulls and strings
/// stay intact so every downstream encoding still round-trips and the only
/// observable fault is a silently wrong answer — exactly what the
/// consistency sentinel exists to catch.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
fn corrupt_values(out: &mut [Value]) {
    for v in out.iter_mut() {
        match v {
            Value::Int(x) => *x = x.wrapping_add(1),
            Value::Bigint(x) => *x = x.wrapping_add(1),
            Value::Timestamp(x) => *x = x.wrapping_add(1),
            Value::Float(x) => *x += 1.0,
            Value::Double(x) => *x += 1.0,
            Value::Bool(b) => *b = !*b,
            Value::Null | Value::Str(_) => {}
        }
    }
}

/// Serving found `what` of the deployment's program missing. DEPLOY refuses
/// a program with a refusal, so this names a broken invariant, not a plan.
#[cold]
fn not_compiled(dep: &Deployment, what: &str) -> Error {
    Error::Deployment(format!("`{}`: {what} was not compiled at DEPLOY", dep.name))
}

/// The typed error of a scan or fold the deadline cut short.
fn timed_out(ctx: &Ctx, stage: &'static str) -> Error {
    Error::Timeout {
        stage,
        budget_ms: ctx.opts.deadline.budget_ms(),
    }
}

/// What a window's frame asks of a newest-first scan anchored at
/// `anchor_ts`: every row down to a timestamp, or a number of rows (one
/// more when the request row takes no slot of a `ROWS` frame).
fn frame_reach(window: &BoundWindow, anchor_ts: i64) -> (i64, Option<usize>) {
    match window.frame {
        Frame::Rows { preceding } => (
            i64::MAX,
            Some(preceding as usize + usize::from(window.exclude_current_row)),
        ),
        Frame::RowsRange { preceding_ms } => (anchor_ts.saturating_sub(preceding_ms), None),
        Frame::Unbounded => (i64::MIN, None),
    }
}

/// One window of a request, as the pre-aggregation tiers see it. Shared by
/// the streaming path and the oracle, which read raw frame edges their way.
struct BucketTier<'a> {
    wid: usize,
    window: &'a BoundWindow,
    preagg: Option<&'a PreAggregator>,
    /// Where the window's aggregate values go in the request's.
    slots: &'a [usize],
    request: &'a Row,
    key: &'a [KeyValue],
    ctx: &'a Ctx<'a>,
}

impl BucketTier<'_> {
    /// The window's pre-aggregator and the frame length it covers, when it
    /// can answer: only pure range frames merge buckets, and not under
    /// INSTANCE_NOT_IN_WINDOW (buckets cannot exclude the base rows).
    fn buckets(&self) -> Option<(&PreAggregator, i64)> {
        match (self.preagg, self.window.frame) {
            (Some(preagg), Frame::RowsRange { preceding_ms })
                if !self.window.instance_not_in_window =>
            {
                Some((preagg, preceding_ms))
            }
            _ => None,
        }
    }

    /// Merge the buckets of the request's frame, reading its raw edges
    /// through `edges`. The request row, not yet in storage, is folded in
    /// after the merge unless the window excludes it.
    fn answer(
        &self,
        (preagg, preceding_ms): (&PreAggregator, i64),
        edges: impl FnMut(i64, i64) -> Result<Vec<Row>>,
    ) -> Result<Vec<Value>> {
        let anchor_ts = self.request.ts_at(self.window.order_col);
        let extra = (!self.window.exclude_current_row).then_some(self.request);
        let lower = anchor_ts.saturating_sub(preceding_ms);
        preagg.query_with_extra_row(self.key, lower, anchor_ts, extra, edges)
    }

    /// Put the window's aggregate values into their slots of the request's.
    fn store(&self, outs: impl IntoIterator<Item = Value>, agg_values: &mut [Value]) {
        for (slot, v) in self.slots.iter().zip(outs) {
            if let Some(value) = agg_values.get_mut(*slot) {
                *value = v;
            }
        }
    }

    /// Pre-aggregation fast path: whether the window was answered from its
    /// buckets. `Ok(false)` sends the caller to its raw scan — no buckets for
    /// this frame, or a lookup that kept faulting past its retry budget.
    fn serve(
        &self,
        agg_values: &mut [Value],
        mut edges: impl FnMut(i64, i64) -> Result<Vec<Row>>,
    ) -> Result<bool> {
        if self.preagg.is_none() {
            return Ok(false);
        }
        let served = self.buckets().map(|buckets| {
            span(Stage::Aggregate, || {
                retry_transient(self.ctx, || self.answer(buckets, &mut edges))
            })
        });
        let hit = match served {
            Some(Ok(outs)) => {
                self.store(outs, agg_values);
                true
            }
            Some(Err(e)) if !e.is_transient() => return Err(e),
            _ => false,
        };
        let (counter, kind) = if hit {
            (crate::metrics::preagg_hits(), FlightEventKind::PreaggHit)
        } else {
            (crate::metrics::preagg_skips(), FlightEventKind::PreaggSkip)
        };
        counter.inc();
        flight::event(kind, self.wid as u32, 0);
        Ok(hit)
    }

    /// Degradation tier: the full path failed with `e`. If that was the
    /// budget running out, a pre-aggregated window can still answer from
    /// buckets alone — raw edge reads skipped, result flagged `degraded`.
    fn degrade(&self, e: Error, agg_values: &mut [Value]) -> Result<()> {
        let out_of_budget = self.ctx.opts.allow_degraded && matches!(e, Error::Timeout { .. });
        let Some(buckets) = self.buckets().filter(|_| out_of_budget) else {
            return Err(e);
        };
        let outs = self.answer(buckets, |_, _| Ok(Vec::new()))?;
        self.store(outs, agg_values);
        self.ctx.note_degraded();
        Ok(())
    }
}

// HOT: the steady-state request path — every buffer comes from `scratch`
// and is reused across requests; a warm request must not allocate before
// the final output row.
fn execute_streaming(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
    ctx: &Ctx,
    pin: &Guard,
    scratch: &mut RequestScratch,
) -> Result<Row> {
    let q = &dep.query;
    ctx.check("validate")?;
    let stage = dep.program.stage()?;

    let RequestScratch {
        request_row,
        row,
        agg_values,
        key,
        scan,
        prefixes,
        out,
        compiled,
        // The record was moved out by `execute_request_with` before this
        // borrow; the field is empty here.
        flight: _,
        key_repr: _,
        audit,
    } = scratch;
    // Encoding validates the request row. A plan with a scan group that is
    // not pre-aggregated encodes it here, once: the last row of its folds.
    // One whose every group may be bucket-served only validates it; a group
    // that falls back to its scan encodes it then.
    if dep.reads.groups.iter().any(|g| dep.preaggs[g[0]].is_none()) {
        dep.codec.encode_into(request.values(), request_row)?;
    } else {
        q.base_schema.validate_row(request.values())?;
    }

    // 1. LAST JOINs, through the row stage: each candidate the join's index
    // offers newest first, its bytes checked once, as capture checks each
    // row offline.
    stage.base(BaseRow::Values(request.values()), row)?;
    // (A plan without joins has no seek stage here: nothing to time.)
    if !q.joins.is_empty() {
        // A request's first stage opens on its start reading: the
        // validation and encode above are charged to it.
        flight::abut();
        span(Stage::StorageSeek, || {
            stage.join(row, key, &mut |j, key, accept| {
                resilient_read(ctx, provider, &dep.reads.joins[j], |table, index| {
                    table.latest_visit(index, key, &mut |data| {
                        stage.check(j, data)?;
                        accept(data)
                    })
                })
            })
        })?;
    }

    // 2. WHERE filter (a request failing the predicate yields an all-NULL
    // feature row rather than an error).
    if !stage.filter(row)? {
        return Ok(stage.nulls());
    }

    // 3. Windows: one scan per group, one streaming fold per member.
    agg_values.resize(q.aggregates.len(), Value::Null);
    if compiled.len() < q.windows.len() {
        compiled.resize_with(q.windows.len(), || None);
    }
    // Whether a stage closed before the next dispatch opens. A dispatch
    // opens on the reading before it — the start, or the previous stage's
    // closing one — and so does its scan, unless the dispatch is the
    // request's first stage: then the validation and encode lie between
    // the two, and the scan's enter reads the clock so that they stay the
    // dispatch's.
    let mut after_stage = !q.joins.is_empty();
    for members in &dep.reads.groups {
        // What a group shares — partition key, anchor, sources — is read
        // off its first member; a pre-aggregated window is a group of one.
        let lead = members[0];
        let window = &q.windows[lead];
        let anchor_ts = request.ts_at(window.order_col);
        key.clear();
        for &c in &window.partition_cols {
            key.push(KeyValue::from(&request.values()[c]));
        }
        let tier = BucketTier {
            wid: lead,
            window,
            preagg: dep.preaggs[lead].as_deref(),
            slots: &dep.by_window[lead],
            request,
            key,
            ctx,
        };
        // After an earlier window degraded, `ctx.check` is lenient so the
        // request can still finish — but later windows must not start an
        // unbudgeted full scan. Send them straight to their own degraded
        // path (or a plain Timeout if they have no pre-aggregation).
        let full = if ctx.degraded() && ctx.deadline_expired() {
            Err(timed_out(ctx, "window_dispatch"))
        } else {
            let scan_abuts = std::mem::replace(&mut after_stage, true);
            flight::abut();
            span(Stage::WindowDispatch, || -> Result<()> {
                ctx.check("window_dispatch")?;
                let edges =
                    |lo, hi| raw_window_rows(provider, &dep.reads.windows[lead], key, lo, hi, ctx);
                if tier.serve(agg_values, edges)? {
                    return Ok(());
                }
                if request_row.is_empty() {
                    dep.codec.encode_into(request.values(), request_row)?;
                }

                // Scan path (streaming): keep the group's rows where the
                // skiplist holds them, newest first — down to the oldest
                // timestamp any member's range frame reaches *and* as many
                // rows as its longest ROWS frame counts.
                let (mut reach_ts, mut reach_rows) = (i64::MAX, 0usize);
                for &wid in members {
                    let (lower, rows) = frame_reach(&q.windows[wid], anchor_ts);
                    reach_ts = reach_ts.min(lower);
                    reach_rows = reach_rows.max(rows.unwrap_or(0));
                }
                // Storage itself stops a scan only one kind of frame bounds;
                // a mixed group's visitor stops past both reaches.
                let lower = if reach_rows == 0 { reach_ts } else { i64::MIN };
                let limit = (reach_ts == i64::MAX).then_some(reach_rows);
                let mixed = limit.is_none() && reach_rows > 0;

                let mut scan = scan.pin_scan(pin);
                let mut deadline_hit = false;
                // Whether every timestamp so far arrived strictly below the
                // one before it, across tables — decides the fold order.
                let mut descending = true;
                if scan_abuts {
                    // Only routing ran since the dispatch opened.
                    flight::abut();
                }
                span(Stage::StorageSeek, || -> Result<()> {
                    for read in &dep.reads.windows[lead] {
                        // Retries re-run this table's scan from the top: rewind
                        // so a fault mid-scan cannot duplicate entries.
                        let mark = scan.mark();
                        let mark_descending = descending;
                        resilient_read(ctx, provider, read, |table, index| {
                            scan.rewind(mark);
                            descending = mark_descending;
                            deadline_hit = false;
                            let (mut scanned, mut taken) = (0u32, 0usize);
                            let mut take = scan_visitor(|ts, row| {
                                if mixed {
                                    if ts < reach_ts && taken >= reach_rows {
                                        return false;
                                    }
                                    taken += 1;
                                }
                                // Deadline probe every 64 rows so a long
                                // scan cannot blow the budget unnoticed.
                                scanned += 1;
                                if scanned & 63 == 0 && !ctx.degraded() && ctx.deadline_expired() {
                                    deadline_hit = true;
                                    flight::event(FlightEventKind::DeadlineProbe, scanned, 0);
                                    return false;
                                }
                                if let Some(prev) = scan.entries().last() {
                                    descending &= prev.ts > ts;
                                }
                                scan.keep(ts, row);
                                true
                            });
                            // The bound table lends its rows for the pin; a
                            // failover replica is held for this read only,
                            // so its rows are copied.
                            if std::ptr::addr_eq(table, &*read.table) {
                                let t = &*read.table;
                                t.scan_window_pinned(
                                    pin, index, key, lower, anchor_ts, limit, &mut take,
                                )
                            } else {
                                table.scan_window(
                                    index,
                                    key,
                                    lower,
                                    anchor_ts,
                                    limit,
                                    &mut |ts, data| take(ts, ScanRow::Transient(data)),
                                )
                            }
                        })?;
                        if deadline_hit {
                            // Typed timeout, never a partial aggregate.
                            return Err(timed_out(ctx, "window_scan"));
                        }
                    }
                    Ok(())
                })?;

                // Each member folds a newest-first prefix of the scan: all of
                // it for a group of one, else the rows its own frame reaches.
                let entries = scan.entries();
                prefixes.clear();
                for &wid in members {
                    let rows = match frame_reach(&q.windows[wid], anchor_ts) {
                        _ if members.len() == 1 => entries.len(),
                        (_, Some(rows)) => rows.min(entries.len()),
                        (lower, None) => entries.partition_point(|e| e.ts >= lower),
                    };
                    prefixes.push((rows, wid));
                }
                if !descending {
                    // A ts tie or union interleave: members sort their
                    // prefix in place, so the shortest goes first — sorted,
                    // it is still the same rows to every longer one.
                    prefixes.sort_unstable();
                }
                // Consistency-sentinel scan digest: fold each member's
                // rows in pre-sort scan order (deterministic for a fixed
                // table state — retries rewind to a checkpoint) so the audit
                // replay can verify the oracle saw the same window inputs.
                // Preagg-served windows leave their slot unset.
                // HOT: a single bool test per group when sampling is off.
                if audit.armed() {
                    for &(rows, wid) in prefixes.iter() {
                        let mut f = Fnv::new();
                        let lent = scan.prefix(rows);
                        for (i, e) in entries.iter().take(rows).enumerate() {
                            f.write_u64(e.ts as u64);
                            f.write(lent.row_at(i)?);
                        }
                        // (Path form: the lint resolves a `.record(..)` call
                        // by name, to every `record` there is.)
                        ScanDigest::record(audit, wid, f.finish());
                    }
                } else {
                    // Nothing ran since the scan stage closed: the
                    // aggregate stage opens on the same clock reading.
                    flight::abut();
                }

                span(Stage::Aggregate, || -> Result<()> {
                    ctx.check("aggregate")?;
                    let fold = GroupFold {
                        dep,
                        request: request_row,
                        ctx,
                        descending,
                    };
                    for &(rows, wid) in prefixes.iter() {
                        let state = &mut compiled[wid];
                        fold.window(wid, &mut scan, rows, state, out)?;
                        for (slot, v) in dep.by_window[wid].iter().zip(out.drain(..)) {
                            agg_values[*slot] = v;
                        }
                    }
                    Ok(())
                })?;
                // The dispatch stage ends where its aggregate stage did.
                flight::abut();
                Ok(())
            })
        };
        if let Err(e) = full {
            tier.degrade(e, agg_values)?;
            continue;
        }
        // The next stage — the next group's dispatch, or the projection —
        // starts where this group's dispatch ended.
        flight::abut();
    }

    // 4. Project the select list through the row stage's copy plan: the
    // output row is the one allocation a warm request makes.
    let row = span(Stage::Encode, || -> Result<Row> {
        ctx.check("encode")?;
        stage.project(row, agg_values)
    })?;
    // The request ends where its projection stage did.
    flight::abut();
    Ok(row)
}

/// Pins down a scan visitor's signature: rows lent for the pin `'g`, or
/// for one visit.
fn scan_visitor<'g, F: FnMut(i64, ScanRow<'g, '_>) -> bool>(f: F) -> F {
    f
}

/// What every member of a scan group folds against.
struct GroupFold<'a> {
    dep: &'a Deployment,
    /// The encoded request row.
    request: &'a [u8],
    ctx: &'a Ctx<'a>,
    /// The scan arrived strictly newest-first: members replay it in
    /// reverse instead of sorting.
    descending: bool,
}

impl GroupFold<'_> {
    /// One member's fold — window `wid` — over the first `n` rows of the
    /// scan (in scan order on entry), leaving its aggregate values in
    /// `out`: the deploy-time kernels fold the encoded bytes where the
    /// scan holds them, in one pass, unsorted when they can.
    fn window(
        &self,
        wid: usize,
        scan: &mut PinnedScan<'_>,
        n: usize,
        state: &mut Option<WindowState>,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        let GroupFold {
            dep,
            request,
            ctx,
            descending,
        } = *self;
        let wp = dep.program.window(wid);
        let wp = wp.ok_or_else(|| not_compiled(dep, "window"))?;
        let mut probe = || -> Result<()> {
            if !ctx.degraded() && ctx.deadline_expired() {
                flight::event(FlightEventKind::DeadlineProbe, 0, 0);
                return Err(timed_out(ctx, "window_agg"));
            }
            Ok(())
        };
        out.clear();
        // Storage yields newest-first per table: a strictly descending
        // scan replays ascending order in reverse with no sort. Any ts tie
        // or union interleave takes the stable `(ts, seq)` sort — the
        // ascending-ts order of the materializing reference.
        let order = if descending {
            EntryOrder::ReversedScan
        } else {
            scan.sort_prefix(n);
            EntryOrder::Ascending
        };
        let bytes = scan.prefix_bytes(n);
        flight::event(FlightEventKind::CompiledWindow, wid as u32, bytes);
        let rows = scan.prefix(n);
        let n = rows.n_rows();
        let total = n + usize::from(wp.include_request);
        let first = wp.first_in_frame(total);
        let state = state.get_or_insert_with(|| wp.new_state());
        // The request row sorts last (anchor ts, max seq); it joins the
        // fold only when the frame reaches it.
        let req = (wp.include_request && first < total).then_some(request);
        let codec = &dep.codec;
        wp.fold_rows(state, &rows, first.min(n), order, req, codec, &mut probe)?;
        wp.outputs_into(state, &[], None, out)?;
        // Chaos: a kill at `compiled_kernel` models a miscompiled program
        // — aggregate values silently perturbed (types and nulls kept) so
        // the consistency sentinel has a real fault to catch.
        if openmldb_chaos::inject_kill(openmldb_chaos::InjectionPoint::CompiledKernel) {
            corrupt_values(out);
        }
        Ok(())
    }
}

/// [`execute_request`] through the reference pipeline, deliberately naive:
/// every window row is materialized as decoded `Value`s and folded by
/// [`WindowAggSet`], expressions are tree-walked by [`evaluate`], joins clone
/// the combined row per probed candidate, and every read resolves its table
/// and index by name — one scan per window, nothing shared with the read
/// plan or the compiled program. The one oracle the differential tests, the
/// sentinel and the benchmark check the served answer against.
pub fn execute_request_materialized(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
) -> Result<Row> {
    execute_request_materialized_with(provider, dep, request, &RequestOptions::default())
        .map(|out| out.row)
}

/// [`execute_request_with`] through the materializing reference pipeline.
pub fn execute_request_materialized_with(
    provider: &dyn TableProvider,
    dep: &Deployment,
    request: &Row,
    opts: &RequestOptions,
) -> Result<RequestOutput> {
    // No pooled scratch on this path: the record is allocated per request,
    // like every other buffer here.
    let mut flight = Recorder::default();
    let ctx = Ctx::new(opts);
    let scope = FlightScope::enter(&mut flight);
    let out = materialized(provider, &dep.query, &dep.preaggs, request, &ctx, None);
    let summary = scope.finish();
    publish_request(dep, &flight, &summary, &ctx, out)
}

/// The reference pipeline over plan `q`. `preaggs` is indexed by window id
/// (a missing entry is a raw scan); `audit`, when given, receives a digest
/// per raw-scanned window of the `(ts, bytes)` this pipeline read for it —
/// what the sentinel compares with the digests the served scan took.
pub(crate) fn materialized(
    provider: &dyn TableProvider,
    q: &CompiledQuery,
    preaggs: &[Option<Arc<PreAggregator>>],
    request: &Row,
    ctx: &Ctx,
    mut audit: Option<&mut ScanDigest>,
) -> Result<Row> {
    ctx.check("validate")?;
    q.base_schema.validate_row(request.values())?;

    // 1. LAST JOINs: build the combined row.
    let mut combined: Vec<Value> = request.values().to_vec();
    span(Stage::StorageSeek, || -> Result<()> {
        for join in &q.joins {
            let key: Vec<KeyValue> = join
                .eq_pairs
                .iter()
                .map(|&(l, _)| KeyValue::from(&combined[l]))
                .collect();
            let right_keys: Vec<usize> = join.eq_pairs.iter().map(|&(_, r)| r).collect();
            let read = BoundRead::resolve(provider, &join.table, &right_keys, join.order_col)?;
            // The newest candidate, decoded whole, whose residual accepts
            // the combined row so far extended by a clone of it.
            let matched = resilient_read(ctx, provider, &read, |table, index| {
                let mut hit = None;
                table.latest_visit(index, &key, &mut |data| {
                    let row = table.codec().decode(data)?;
                    let mut probe = combined.clone();
                    probe.extend(row.values().iter().cloned());
                    let accepts = join.residual.as_ref().map_or(Ok(true), |pred| {
                        evaluate(pred, &probe, &[]).and_then(|v| v.as_bool())
                    });
                    hit = Some(row).filter(|_| accepts.unwrap_or(false));
                    Ok(hit.is_some())
                })?;
                Ok(hit)
            })?;
            match matched {
                Some(row) => combined.extend(row.values().iter().cloned()),
                None => combined.extend((0..join.schema.len()).map(|_| Value::Null)),
            }
        }
        Ok(())
    })?;

    // 2. WHERE filter (a request failing the predicate yields an all-NULL
    // feature row rather than an error).
    if let Some(pred) = &q.where_clause {
        if !evaluate(pred, &combined, &[])?.as_bool()? {
            let nulls = vec![Value::Null; q.output_schema.len()];
            return Ok(Row::new(nulls));
        }
    }

    // 3. Windows: compute every aggregate.
    let by_window = q.aggregates_by_window();
    let mut agg_values = vec![Value::Null; q.aggregates.len()];
    for (wid, window) in q.windows.iter().enumerate() {
        if by_window[wid].is_empty() {
            continue;
        }
        let key = request.key_for(&window.partition_cols);
        let tier = BucketTier {
            wid,
            window,
            preagg: preaggs.get(wid).and_then(|p| p.as_deref()),
            slots: &by_window[wid],
            request,
            key: &key,
            ctx,
        };
        // (As on the streaming path: once degraded, no unbudgeted scan.)
        let full = if ctx.degraded() && ctx.deadline_expired() {
            Err(timed_out(ctx, "window_dispatch"))
        } else {
            span(Stage::WindowDispatch, || -> Result<()> {
                ctx.check("window_dispatch")?;
                let edges = |lo, hi| {
                    let reads = window_reads_by_name(provider, q, window, true)?;
                    raw_window_rows(provider, &reads, &key, lo, hi, ctx)
                };
                if tier.serve(&mut agg_values, edges)? {
                    return Ok(());
                }

                // Scan path: gather window rows (request row is the anchor).
                let rows = span(Stage::StorageSeek, || {
                    let audit = audit.as_deref_mut();
                    collect_window_rows(provider, q, wid, request, ctx, audit)
                })?;
                span(Stage::Aggregate, || -> Result<()> {
                    ctx.check("aggregate")?;
                    let agg_refs: Vec<_> =
                        by_window[wid].iter().map(|&i| &q.aggregates[i]).collect();
                    let mut set = WindowAggSet::new(&agg_refs)?;
                    for r in &rows {
                        set.update(r.values())?;
                    }
                    tier.store(set.outputs(), &mut agg_values);
                    Ok(())
                })?;
                Ok(())
            })
        };
        if let Err(e) = full {
            tier.degrade(e, &mut agg_values)?;
        }
    }

    // 4. Project the select list, every NaN canonical as a served row's.
    span(Stage::Encode, || -> Result<Row> {
        ctx.check("encode")?;
        let mut out = Vec::with_capacity(q.select.len());
        for col in &q.select {
            out.push(evaluate(&col.expr, &combined, &agg_values)?.canonical_nan());
        }
        Ok(Row::new(out))
    })
}

/// Raw rows for a window's key within `[lo, hi]` from every source of the
/// window (in no particular order — pre-agg aggregates are order-free).
fn raw_window_rows(
    provider: &dyn TableProvider,
    reads: &[BoundRead],
    key: &[KeyValue],
    lo: i64,
    hi: i64,
    ctx: &Ctx,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for read in reads {
        let rows = resilient_read(ctx, provider, read, |table, index| {
            table.range_projected(index, key, lo, hi, None)
        })?;
        out.extend(rows.into_iter().map(|(_ts, row)| row));
    }
    Ok(out)
}

/// A window's sources resolved by name — the materializing oracle's way;
/// the streaming path reads the handles its deployment bound at DEPLOY.
fn window_reads_by_name(
    provider: &dyn TableProvider,
    q: &CompiledQuery,
    window: &BoundWindow,
    with_base: bool,
) -> Result<Vec<BoundRead>> {
    with_base
        .then_some(&q.base_table)
        .into_iter()
        .chain(&window.union_tables)
        .map(|t| BoundRead::resolve(provider, t, &window.partition_cols, Some(window.order_col)))
        .collect()
}

/// Collect the window's rows for a request: stored rows from the base table
/// and union tables, plus the request row itself (subject to the window
/// attributes), fully decoded, in chronological order, capped by MAXSIZE —
/// every table read under the resilience ladder. `audit` receives window
/// `wid`'s digest of each stored row as read — per source newest first,
/// before the sort — as `(ts, row re-encoded from its decoded values)`: the
/// bytes the served scan digests, reached by name-resolved reads and a
/// decode/encode round trip.
fn collect_window_rows(
    provider: &dyn TableProvider,
    q: &CompiledQuery,
    wid: usize,
    request: &Row,
    ctx: &Ctx,
    audit: Option<&mut ScanDigest>,
) -> Result<Vec<Row>> {
    let window = &q.windows[wid];
    let mut digest = Fnv::new();
    let anchor_ts = request.ts_at(window.order_col);
    let key = request.key_for(&window.partition_cols);
    let mut stamped: Vec<(i64, Row)> = Vec::new();

    // EXCLUDE CURRENT_ROW drops the request tuple from the aggregates;
    // INSTANCE_NOT_IN_WINDOW keeps the request tuple but drops the *other*
    // rows of the instance's (base) table — the window then aggregates the
    // union tables' data anchored at the request (OpenMLDB semantics).
    let include_request = !window.exclude_current_row;
    let per_table_limit = match window.frame {
        // +1 row budget: the request row occupies one slot if included.
        Frame::Rows { preceding } => Some(preceding as usize + usize::from(!include_request)),
        _ => None,
    };
    let lower = match window.frame {
        Frame::RowsRange { preceding_ms } => anchor_ts.saturating_sub(preceding_ms),
        _ => i64::MIN,
    };
    for read in window_reads_by_name(provider, q, window, !window.instance_not_in_window)? {
        let rows = resilient_read(ctx, provider, &read, |table, index| match per_table_limit {
            Some(n) => table.latest_n_projected(index, &key, anchor_ts, n, None),
            None => table.range_projected(index, &key, lower, anchor_ts, None),
        })?;
        if audit.is_some() {
            let codec = CompactCodec::new(read.table.schema().clone());
            let mut bytes = Vec::new();
            for (ts, row) in &rows {
                codec.encode_into(row.values(), &mut bytes)?;
                digest.write_u64(*ts as u64);
                digest.write(&bytes);
            }
        }
        stamped.extend(rows);
    }
    if let Some(audit) = audit {
        audit.record(wid, digest.finish());
    }
    if include_request {
        stamped.push((anchor_ts, request.clone()));
    }

    // Chronological order; newest entries win the per-frame caps.
    stamped.sort_by_key(|(ts, _)| *ts);
    if let Frame::Rows { preceding } = window.frame {
        let keep = preceding as usize + 1;
        if stamped.len() > keep {
            stamped.drain(..stamped.len() - keep);
        }
    }
    if let Some(maxsize) = window.maxsize {
        if stamped.len() > maxsize {
            stamped.drain(..stamped.len() - maxsize);
        }
    }
    Ok(stamped.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_storage::{IndexSpec, Ttl};
    use openmldb_types::{DataType, Schema};

    struct Cat(HashMap<String, Schema>);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            self.0.get(name).cloned()
        }
    }

    fn action_schema() -> Schema {
        Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("category", DataType::String),
            ("price", DataType::Double),
            ("quantity", DataType::Int),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn profile_schema() -> Schema {
        Schema::from_pairs(&[
            ("userid", DataType::Bigint),
            ("age", DataType::Int),
            ("updated", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn setup() -> (MapProvider, Cat) {
        let mut cat = HashMap::new();
        cat.insert("actions".to_string(), action_schema());
        cat.insert("orders".to_string(), action_schema());
        cat.insert("profiles".to_string(), profile_schema());
        let mut provider = MapProvider::default();
        for name in ["actions", "orders"] {
            provider.insert(Arc::new(
                MemTable::new(
                    name,
                    action_schema(),
                    vec![IndexSpec {
                        name: "by_user".into(),
                        key_cols: vec![0],
                        ts_col: Some(4),
                        ttl: Ttl::Unlimited,
                    }],
                )
                .unwrap(),
            ));
        }
        provider.insert(Arc::new(
            MemTable::new(
                "profiles",
                profile_schema(),
                vec![IndexSpec {
                    name: "by_user".into(),
                    key_cols: vec![0],
                    ts_col: Some(2),
                    ttl: Ttl::Unlimited,
                }],
            )
            .unwrap(),
        ));
        (provider, Cat(cat))
    }

    fn action(user: i64, cat: &str, price: f64, qty: i32, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(user),
            Value::string(cat),
            Value::Double(price),
            Value::Int(qty),
            Value::Timestamp(ts),
        ])
    }

    #[test]
    fn request_window_aggregation() {
        let (provider, cat) = setup();
        let actions = provider.table("actions").unwrap();
        for i in 0..5 {
            actions
                .put(&action(1, "a", i as f64, 1, 1_000 + i * 100))
                .unwrap();
        }
        actions.put(&action(2, "b", 99.0, 1, 1_200)).unwrap();
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT userid, sum(price) OVER w AS total, count(price) OVER w AS cnt \
                     FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts \
                     ROWS_RANGE BETWEEN 250 PRECEDING AND CURRENT ROW)",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        // Request at ts=1450 for user 1: stored rows in [1200, 1450] are
        // ts 1200(2.0), 1300(3.0), 1400(4.0) + request row 7.0.
        let out = execute_request(&provider, &dep, &action(1, "a", 7.0, 1, 1_450)).unwrap();
        assert_eq!(out[0], Value::Bigint(1));
        assert_eq!(out[1], Value::Double(16.0));
        assert_eq!(out[2], Value::Bigint(4));
    }

    #[test]
    fn request_rows_frame_counts_request_row() {
        let (provider, cat) = setup();
        let actions = provider.table("actions").unwrap();
        for i in 0..10 {
            actions.put(&action(1, "a", 1.0, 1, 1_000 + i)).unwrap();
        }
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT count(price) OVER w AS cnt FROM actions WINDOW w AS \
                     (PARTITION BY userid ORDER BY ts ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &action(1, "a", 1.0, 1, 2_000)).unwrap();
        assert_eq!(out[0], Value::Bigint(3), "2 preceding + current");
    }

    #[test]
    fn window_union_merges_tables() {
        let (provider, cat) = setup();
        provider
            .table("actions")
            .unwrap()
            .put(&action(1, "a", 1.0, 1, 100))
            .unwrap();
        provider
            .table("orders")
            .unwrap()
            .put(&action(1, "o", 10.0, 1, 150))
            .unwrap();
        provider
            .table("orders")
            .unwrap()
            .put(&action(1, "o", 20.0, 1, 10_000))
            .unwrap(); // outside
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(price) OVER w AS total FROM actions WINDOW w AS \
                     (UNION orders PARTITION BY userid ORDER BY ts \
                     ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW)",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &action(1, "a", 5.0, 1, 200)).unwrap();
        assert_eq!(
            out[0],
            Value::Double(16.0),
            "action 1.0 + order 10.0 + request 5.0"
        );
    }

    #[test]
    fn last_join_picks_latest_match() {
        let (provider, cat) = setup();
        let profiles = provider.table("profiles").unwrap();
        profiles
            .put(&Row::new(vec![
                Value::Bigint(1),
                Value::Int(20),
                Value::Timestamp(100),
            ]))
            .unwrap();
        profiles
            .put(&Row::new(vec![
                Value::Bigint(1),
                Value::Int(21),
                Value::Timestamp(200),
            ]))
            .unwrap();
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT actions.userid, profiles.age FROM actions \
                     LAST JOIN profiles ORDER BY profiles.updated \
                     ON actions.userid = profiles.userid",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &action(1, "a", 0.0, 1, 500)).unwrap();
        assert_eq!(out[1], Value::Int(21), "latest profile row wins");
        // No match → NULL-padded.
        let out = execute_request(&provider, &dep, &action(9, "a", 0.0, 1, 500)).unwrap();
        assert_eq!(out[1], Value::Null);
    }

    #[test]
    fn last_join_residual_predicate() {
        let (provider, cat) = setup();
        let profiles = provider.table("profiles").unwrap();
        profiles
            .put(&Row::new(vec![
                Value::Bigint(1),
                Value::Int(15),
                Value::Timestamp(100),
            ]))
            .unwrap();
        profiles
            .put(&Row::new(vec![
                Value::Bigint(1),
                Value::Int(30),
                Value::Timestamp(50),
            ]))
            .unwrap();
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT profiles.age FROM actions \
                     LAST JOIN profiles ON actions.userid = profiles.userid \
                     AND profiles.age > 18",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &action(1, "a", 0.0, 1, 500)).unwrap();
        assert_eq!(
            out[0],
            Value::Int(30),
            "newest row failing the predicate is skipped"
        );
    }

    #[test]
    fn a_join_residual_that_does_not_lower_is_refused_at_deploy() {
        use openmldb_sql::plan::PhysExpr;
        use openmldb_sql::BinaryOp;
        let (provider, cat) = setup();
        let stmt = parse_select(
            "SELECT profiles.age FROM actions \
             LAST JOIN profiles ON actions.userid = profiles.userid AND profiles.age > 18",
        )
        .unwrap();
        let mut q = compile_select(&stmt, &cat).unwrap();
        // A CASE wide enough to leave the 16-bit jump range.
        let branch = (
            PhysExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(PhysExpr::Column(6)),
                right: Box::new(PhysExpr::Literal(Value::Int(18))),
            },
            PhysExpr::Literal(Value::Bool(true)),
        );
        q.joins[0].residual = Some(PhysExpr::Case {
            branches: vec![branch; 12_000],
            else_expr: None,
        });
        let refused = Deployment::new("wide_residual", Arc::new(q), &provider).err();
        let Some(Error::Deployment(reason)) = refused else {
            panic!("expected a deployment error, got {refused:?}");
        };
        assert!(
            reason.contains("LAST JOIN `profiles` condition"),
            "{reason}"
        );
        assert!(reason.contains("expression program too long"), "{reason}");
    }

    /// The cost ledger's `bytes_decoded` is the encoded length of every row
    /// a compiled fold reads — per member of a shared scan, sorted or not.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn bytes_decoded_is_the_sum_of_folded_row_lengths() {
        use openmldb_types::RowCodec;
        let (provider, cat) = setup();
        let actions = provider.table("actions").unwrap();
        let stored = [
            action(1, "a", 1.0, 1, 100),
            action(1, "bbbbbbbb", 2.0, 1, 900),
            action(1, "cc", 3.0, 1, 1_000),
            // A ts tie: the scan is not strictly descending, so each
            // member sorts its prefix.
            action(1, "dddd", 4.0, 1, 1_000),
        ];
        for r in &stored {
            actions.put(r).unwrap();
        }
        let codec = CompactCodec::new(action_schema());
        let len = |i: usize| codec.encode(&stored[i]).unwrap().len() as u64;
        let q = compile_select(
            &parse_select(
                "SELECT count(price) OVER w1 AS a, max(category) OVER w2 AS b FROM actions \
                 WINDOW w1 AS (PARTITION BY userid ORDER BY ts \
                 ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), \
                 w2 AS (PARTITION BY userid ORDER BY ts \
                 ROWS_RANGE BETWEEN 500 PRECEDING AND CURRENT ROW)",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let dep = Deployment::new("bytes_decoded_ledger", Arc::new(q), &provider).unwrap();
        assert_eq!(dep.scan_groups(), [vec![0, 1]], "one shared scan");
        let out = execute_request(&provider, &dep, &action(1, "r", 0.0, 1, 1_200)).unwrap();
        assert_eq!(out.values(), &[Value::Bigint(3), Value::string("r")]);
        let (requests, cost) = ProfileStore::global().aggregate(dep.label());
        assert_eq!(requests, 1);
        // w1: the two newest stored rows; w2: every row at ts >= 700.
        assert_eq!(
            cost.bytes_decoded,
            (len(2) + len(3)) + (len(1) + len(2) + len(3))
        );
    }

    #[test]
    fn where_clause_filters_request() {
        let (provider, cat) = setup();
        let q = Arc::new(
            compile_select(
                &parse_select("SELECT userid FROM actions WHERE quantity > 5").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let hit = execute_request(&provider, &dep, &action(1, "a", 0.0, 9, 1)).unwrap();
        assert_eq!(hit[0], Value::Bigint(1));
        let miss = execute_request(&provider, &dep, &action(1, "a", 0.0, 1, 1)).unwrap();
        assert_eq!(miss[0], Value::Null);
    }

    #[test]
    fn exclude_current_row_attribute() {
        let (provider, cat) = setup();
        let actions = provider.table("actions").unwrap();
        actions.put(&action(1, "a", 10.0, 1, 100)).unwrap();
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(price) OVER w AS s FROM actions WINDOW w AS \
                     (PARTITION BY userid ORDER BY ts \
                     ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW EXCLUDE CURRENT_ROW)",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &action(1, "a", 99.0, 1, 200)).unwrap();
        assert_eq!(out[0], Value::Double(10.0), "request row excluded");
    }

    #[test]
    fn preagg_path_matches_scan_path() {
        let (provider, cat) = setup();
        let actions = provider.table("actions").unwrap();
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(price) OVER w AS s, count(price) OVER w AS c \
                     FROM actions WINDOW w AS (PARTITION BY userid ORDER BY ts \
                     ROWS_RANGE BETWEEN 100000 PRECEDING AND CURRENT ROW)",
                )
                .unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let preagg = PreAggregator::new(&q.windows[0], &q.aggregates, vec![1_000]).unwrap();
        preagg.attach(
            actions.replicator(),
            openmldb_types::CompactCodec::new(action_schema()),
        );
        for i in 0..500 {
            actions
                .put(&action(1, "a", (i % 10) as f64, 1, i * 37))
                .unwrap();
        }
        actions.replicator().flush();

        let scan_dep = Deployment::new("scan", q.clone(), &provider).unwrap();
        let preagg_dep = Deployment::new("fast", q, &provider)
            .unwrap()
            .with_preagg(0, preagg.clone());
        let request = action(1, "a", 3.0, 1, 500 * 37);
        let a = execute_request(&provider, &scan_dep, &request).unwrap();
        let b = execute_request(&provider, &preagg_dep, &request).unwrap();
        assert_eq!(a, b, "pre-aggregation must not change results");
        assert!(preagg.queries() > 0);
    }
}

#[cfg(test)]
mod instance_window_tests {
    use super::*;
    use openmldb_sql::{compile_select, parse_select, Catalog};
    use openmldb_storage::{IndexSpec, MemTable, Ttl};
    use openmldb_types::{DataType, Schema};

    struct Cat(Schema);
    impl Catalog for Cat {
        fn table_schema(&self, name: &str) -> Option<Schema> {
            matches!(name, "main" | "side").then(|| self.0.clone())
        }
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", DataType::Bigint),
            ("v", DataType::Double),
            ("ts", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn mk_table(name: &str) -> Arc<MemTable> {
        Arc::new(
            MemTable::new(
                name,
                schema(),
                vec![IndexSpec {
                    name: "i".into(),
                    key_cols: vec![0],
                    ts_col: Some(2),
                    ttl: Ttl::Unlimited,
                }],
            )
            .unwrap(),
        )
    }

    fn row(k: i64, v: f64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(k),
            Value::Double(v),
            Value::Timestamp(ts),
        ])
    }

    /// INSTANCE_NOT_IN_WINDOW: the main table's stored rows stay out; the
    /// union table's rows and the request row itself aggregate.
    #[test]
    fn instance_not_in_window_excludes_main_table_history() {
        let mut provider = MapProvider::default();
        let main = mk_table("main");
        let side = mk_table("side");
        main.put(&row(1, 100.0, 50)).unwrap(); // must NOT count
        side.put(&row(1, 10.0, 60)).unwrap(); // counts
        provider.insert(main);
        provider.insert(side);
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(v) OVER w AS s, count(v) OVER w AS c FROM main \
                     WINDOW w AS (UNION side PARTITION BY k ORDER BY ts \
                     ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW \
                     INSTANCE_NOT_IN_WINDOW)",
                )
                .unwrap(),
                &Cat(schema()),
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &row(1, 1.0, 100)).unwrap();
        assert_eq!(
            out[0],
            Value::Double(11.0),
            "side row + request, not main history"
        );
        assert_eq!(out[1], Value::Bigint(2));
    }

    /// EXCLUDE CURRENT_ROW composes with INSTANCE_NOT_IN_WINDOW: only the
    /// union rows remain.
    #[test]
    fn instance_not_in_window_with_exclude_current_row() {
        let mut provider = MapProvider::default();
        let main = mk_table("main");
        let side = mk_table("side");
        main.put(&row(1, 100.0, 50)).unwrap();
        side.put(&row(1, 10.0, 60)).unwrap();
        provider.insert(main);
        provider.insert(side);
        let q = Arc::new(
            compile_select(
                &parse_select(
                    "SELECT sum(v) OVER w AS s FROM main \
                     WINDOW w AS (UNION side PARTITION BY k ORDER BY ts \
                     ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW \
                     EXCLUDE CURRENT_ROW INSTANCE_NOT_IN_WINDOW)",
                )
                .unwrap(),
                &Cat(schema()),
            )
            .unwrap(),
        );
        let dep = Deployment::new("d", q, &provider).unwrap();
        let out = execute_request(&provider, &dep, &row(1, 1.0, 100)).unwrap();
        assert_eq!(out[0], Value::Double(10.0), "only the union row");
    }
}
