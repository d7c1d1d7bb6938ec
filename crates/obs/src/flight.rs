//! The per-request record: one pooled ring + stage ledger + cost counters
//! per served request, and the views published from it.
//!
//! **Every** request carries one [`Recorder`] (pooled in the engine's request
//! scratch, installed in one thread-local cell for the duration of a
//! [`FlightScope`]): a fixed-size binary event ring ([`RING_EVENTS`] entries,
//! last-N semantics), an exact per-stage self-time ledger, and the request's
//! [`CostProfile`] counters. Recording one event is a thread-local check plus
//! an array write, so the warm path performs **zero heap allocations**.
//! [`FlightScope::finish`] closes the record into a fixed-size
//! [`FlightSummary`]; everything else is a *view* over that one record:
//!
//! * the sampled span trace ([`crate::trace::Tracer`], 1 request in N per
//!   thread) is rebuilt from the ring's stage events;
//! * a request that times out, degrades, fails over, errors, or exceeds the
//!   slow-query threshold is *dumped* as a [`PostMortem`] into the bounded
//!   slow-query log ([`slow_log`], [`render_report`]);
//! * histogram exemplars, the per-deployment store
//!   ([`crate::profile::ProfileStore`]) and the engine's global counters are
//!   fed from the summary, once, when the request ends.
//!
//! # One clock
//!
//! The record reads the clock at request start, at request end, and at the
//! events for which [`FlightEventKind::is_timed`] holds: stage boundaries and
//! the rare anomaly events. Count-only events (seeks, scan lengths, pre-agg
//! hits, compiled windows, plan-cache probes) carry the ledger's cursor — the
//! timestamp of the timed event before them — and so does a stage boundary
//! the caller declared adjacent to the previous one ([`abut`]).
//!
//! # Exact attribution
//!
//! Per-stage self-times are maintained *incrementally* as events arrive (a
//! fixed stage stack plus a time cursor), not reconstructed from the ring —
//! so attribution stays exact even after the ring wraps. The invariant every
//! summary and post-mortem upholds: `sum(stage_ns) + other_ns == total_ns`,
//! where `other` is time outside any instrumented stage.
//!
//! Under the `obs-off` feature every record path in this module compiles to
//! an inlined no-op and [`Recorder`] carries no state.

use crate::profile::CostProfile;
use crate::trace::Stage;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Events retained per request. The ring keeps the **last** `RING_EVENTS`
/// events (older ones are overwritten and counted in `dropped_events`), since
/// the moments just before a deadline fires matter most.
pub const RING_EVENTS: usize = 64;

/// Post-mortems retained in the process-wide slow-query log (FIFO eviction).
pub const SLOW_LOG_CAPACITY: usize = 256;

/// Attribution slots: one per [`Stage`] (time outside every stage is
/// reported separately as "other").
pub const NUM_STAGES: usize = Stage::ALL.len();

/// Default slow-query threshold: the paper's 20 ms decision-serving budget.
pub const DEFAULT_SLOW_QUERY_THRESHOLD_NS: u64 = 20_000_000;

/// What happened inside a request, one event per record call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A pipeline stage began (`a` = [`Stage`] index).
    StageEnter,
    /// A pipeline stage ended (`a` = [`Stage`] index).
    StageExit,
    /// A storage index seek (`a` = index id).
    StorageSeek,
    /// One storage scan completed (`a` = index id, `b` = rows visited).
    ScanRows,
    /// Pre-aggregation served the window (`a` = window id).
    PreaggHit,
    /// Pre-aggregation could not serve the window (`a` = window id).
    PreaggSkip,
    /// A chaos fault fired (`a` = injection-point index, `b` = delay ns).
    FaultInjected,
    /// A transient error triggered a retry (`b` = attempt number).
    Retry,
    /// A read failed over to a replica.
    Failover,
    /// A deadline probe ran (`b` = remaining budget ns).
    DeadlineProbe,
    /// The request entered degraded mode.
    Degraded,
    /// Plan cache hit.
    PlanCacheHit,
    /// Plan cache miss (full plan build).
    PlanCacheMiss,
    /// A window was served by its compiled bytecode program (`a` = window
    /// id, `b` = encoded bytes it folds).
    CompiledWindow,
}

impl FlightEventKind {
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::StageEnter => "stage_enter",
            FlightEventKind::StageExit => "stage_exit",
            FlightEventKind::StorageSeek => "storage_seek",
            FlightEventKind::ScanRows => "scan_rows",
            FlightEventKind::PreaggHit => "preagg_hit",
            FlightEventKind::PreaggSkip => "preagg_skip",
            FlightEventKind::FaultInjected => "fault_injected",
            FlightEventKind::Retry => "retry",
            FlightEventKind::Failover => "failover",
            FlightEventKind::DeadlineProbe => "deadline_probe",
            FlightEventKind::Degraded => "degraded",
            FlightEventKind::PlanCacheHit => "plan_cache_hit",
            FlightEventKind::PlanCacheMiss => "plan_cache_miss",
            FlightEventKind::CompiledWindow => "compiled_window",
        }
    }

    /// Whether recording this kind reads the clock: stage boundaries (the
    /// ledger needs them) and the anomaly events a post-mortem is read for.
    /// Every other kind is count-only and is stamped with the time of the
    /// timed event before it.
    #[inline]
    pub fn is_timed(self) -> bool {
        matches!(
            self,
            FlightEventKind::StageEnter
                | FlightEventKind::StageExit
                | FlightEventKind::FaultInjected
                | FlightEventKind::Retry
                | FlightEventKind::Failover
                | FlightEventKind::DeadlineProbe
                | FlightEventKind::Degraded
        )
    }
}

/// One recorded event: a nanosecond timestamp relative to request start plus
/// two payload words whose meaning depends on the kind.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    pub t_ns: u64,
    pub kind: FlightEventKind,
    pub a: u32,
    pub b: u64,
}

#[cfg(not(feature = "obs-off"))]
const EMPTY_EVENT: FlightEvent = FlightEvent {
    t_ns: 0,
    kind: FlightEventKind::StageEnter,
    a: 0,
    b: 0,
};

/// Stage-stack depth tracked for attribution. Deeper nesting than this keeps
/// counting time against the deepest tracked stage.
#[cfg(not(feature = "obs-off"))]
const STACK_DEPTH: usize = 8;

#[cfg(not(feature = "obs-off"))]
struct Inner {
    t0: Instant,
    trace_id: u64,
    /// The tracer's sampling interval when this request is the sampled one
    /// in N, else 0.
    sampled: u64,
    ring: [FlightEvent; RING_EVENTS],
    /// Events currently held (`<= RING_EVENTS`).
    len: usize,
    /// Next write slot (== oldest event once the ring has wrapped).
    next: usize,
    dropped: u64,
    /// Counters and the stage ledger (`stage_ns`); `total_ns` is stamped by
    /// [`FlightScope::finish`].
    cost: CostProfile,
    stack: [u8; STACK_DEPTH],
    depth: usize,
    cursor_ns: u64,
    /// Set by [`abut`]: the next stage boundary reuses `cursor_ns`.
    abut: bool,
    faults: u32,
    /// Clock readings taken for this request, start and end included.
    #[cfg(test)]
    clock_reads: u32,
}

#[cfg(not(feature = "obs-off"))]
impl Inner {
    fn new() -> Box<Inner> {
        Box::new(Inner {
            t0: Instant::now(),
            trace_id: 0,
            sampled: 0,
            ring: [EMPTY_EVENT; RING_EVENTS],
            len: 0,
            next: 0,
            dropped: 0,
            cost: CostProfile::default(),
            stack: [0; STACK_DEPTH],
            depth: 0,
            cursor_ns: 0,
            abut: false,
            faults: 0,
            #[cfg(test)]
            clock_reads: 0,
        })
    }

    /// Start a new request: the one start-of-request clock reading.
    fn reset(&mut self, trace_id: u64, sampled: u64) {
        self.t0 = Instant::now();
        self.trace_id = trace_id;
        self.sampled = sampled;
        self.len = 0;
        self.next = 0;
        self.dropped = 0;
        self.cost = CostProfile::default();
        self.depth = 0;
        self.cursor_ns = 0;
        self.abut = false;
        self.faults = 0;
        #[cfg(test)]
        {
            self.clock_reads = 1;
        }
    }

    /// Read the clock and charge the interval since the cursor to the
    /// innermost open stage.
    #[inline]
    fn charge_now(&mut self) -> u64 {
        let t_ns = self.t0.elapsed().as_nanos() as u64;
        #[cfg(test)]
        {
            self.clock_reads += 1;
        }
        if self.depth > 0 {
            let top = self.stack[(self.depth - 1).min(STACK_DEPTH - 1)] as usize;
            if top < NUM_STAGES {
                self.cost.stage_ns[top] += t_ns.saturating_sub(self.cursor_ns);
            }
        }
        self.cursor_ns = t_ns;
        t_ns
    }

    // HOT: one event per scan/probe/stage transition — array writes only.
    // (Named apart from every other `push`: the call-graph lint resolves
    // methods by name.)
    #[inline]
    fn log_event(&mut self, kind: FlightEventKind, a: u32, b: u64) {
        let boundary = matches!(
            kind,
            FlightEventKind::StageEnter | FlightEventKind::StageExit
        );
        let t_ns = if kind.is_timed() && !(boundary && std::mem::take(&mut self.abut)) {
            self.charge_now()
        } else {
            self.cursor_ns
        };
        match kind {
            FlightEventKind::StageEnter => {
                if self.depth < STACK_DEPTH {
                    self.stack[self.depth] = a as u8;
                }
                self.depth += 1;
            }
            FlightEventKind::StageExit => self.depth = self.depth.saturating_sub(1),
            FlightEventKind::StorageSeek => self.cost.storage_seeks += 1,
            FlightEventKind::ScanRows => self.cost.rows_scanned += b,
            FlightEventKind::PreaggHit => self.cost.preagg_hits += 1,
            FlightEventKind::PreaggSkip => self.cost.preagg_skips += 1,
            FlightEventKind::CompiledWindow => self.cost.bytes_decoded += b,
            FlightEventKind::Retry => self.cost.retries += 1,
            FlightEventKind::Failover => self.cost.failovers += 1,
            FlightEventKind::Degraded => self.cost.degraded = 1,
            FlightEventKind::FaultInjected => self.faults += 1,
            FlightEventKind::DeadlineProbe
            | FlightEventKind::PlanCacheHit
            | FlightEventKind::PlanCacheMiss => {}
        }
        self.ring[self.next] = FlightEvent { t_ns, kind, a, b };
        self.next = (self.next + 1) % RING_EVENTS;
        if self.len < RING_EVENTS {
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let start = if self.len == RING_EVENTS {
            self.next
        } else {
            0
        };
        (0..self.len).map(move |i| self.ring[(start + i) % RING_EVENTS])
    }

    /// The sampled-trace view: stage spans rebuilt from the retained
    /// enter/exit events, in completion order. A span whose enter event was
    /// overwritten (more than [`RING_EVENTS`] events) is not reported.
    fn spans(&self) -> Vec<crate::trace::SpanRecord> {
        let mut open = [0u64; STACK_DEPTH];
        let mut depth = 0usize;
        let mut spans = Vec::with_capacity(self.len / 2);
        for e in self.events() {
            match e.kind {
                FlightEventKind::StageEnter => {
                    if depth < STACK_DEPTH {
                        open[depth] = e.t_ns;
                    }
                    depth += 1;
                }
                FlightEventKind::StageExit if depth > 0 => {
                    depth -= 1;
                    if let (Some(&start_ns), Some(&stage)) =
                        (open.get(depth), Stage::ALL.get(e.a as usize))
                    {
                        spans.push(crate::trace::SpanRecord {
                            stage,
                            start_ns,
                            dur_ns: e.t_ns.saturating_sub(start_ns),
                        });
                    }
                }
                _ => {}
            }
        }
        spans
    }
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    /// The one per-request cell: the record of the request this thread is
    /// serving, if any.
    static FLIGHT: std::cell::RefCell<Option<Box<Inner>>> =
        const { std::cell::RefCell::new(None) };
    /// Requests this thread has started. Trace ids, the tracer's 1-in-N
    /// sampling and the consistency sentinel's sampling all derive from this
    /// one sequence, so no request touches a process-wide sequence atomic.
    static THREAD_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many requests this thread has started a record for — the sequence
/// number the *next* [`FlightScope::enter`] on this thread will take. Always
/// 0 under `obs-off`.
#[inline]
pub fn thread_seq() -> u64 {
    #[cfg(not(feature = "obs-off"))]
    {
        THREAD_SEQ.with(std::cell::Cell::get)
    }
    #[cfg(feature = "obs-off")]
    0
}

// ---------------------------------------------------------------------------
// Recorder + scope
// ---------------------------------------------------------------------------

/// The pooled per-request record handle. Lives inside the engine's request
/// scratch so its one allocation happens when a pooled scratch is first
/// used (warm-up), never on the steady-state path. Under `obs-off` this is a
/// zero-sized no-op.
#[derive(Default)]
pub struct Recorder {
    #[cfg(not(feature = "obs-off"))]
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a full post-mortem dump from the events still held by this
    /// recorder. Cold path: allocates freely. Returns `None` when the
    /// summary does not belong to this recorder's last flight (or under
    /// `obs-off`).
    pub fn post_mortem(&self, outcome: Outcome, summary: &FlightSummary) -> Option<PostMortem> {
        #[cfg(not(feature = "obs-off"))]
        {
            if !summary.active {
                return None;
            }
            let inner = self.inner.as_ref()?;
            if inner.trace_id != summary.trace_id {
                return None;
            }
            Some(PostMortem {
                trace_id: summary.trace_id,
                outcome,
                culprit: summary.culprit(),
                total_ns: summary.cost.total_ns,
                stage_self_ns: summary.cost.stage_ns,
                other_ns: summary.other_ns(),
                retries: summary.cost.retries as u32,
                failovers: summary.cost.failovers as u32,
                faults: summary.faults,
                dropped_events: summary.dropped_events,
                events: inner.events().collect(),
                note: String::new(),
            })
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (outcome, summary);
            None
        }
    }
}

/// The closed record of one request, produced by [`FlightScope::finish`].
/// Fixed-size (no heap) so the engine can publish it on the warm path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightSummary {
    /// False when this scope was nested inside another (or under `obs-off`);
    /// all other fields are zero then.
    pub active: bool,
    /// Request id, unique in the process: joins the response to histogram
    /// exemplars, sampled traces and post-mortems.
    pub trace_id: u64,
    /// How many requests this one stands for in sampled views: the tracer's
    /// interval N when this was its thread's 1-in-N sampled request, else 0.
    pub sampled: u64,
    /// What the request did and where its time went: `cost.stage_ns` is the
    /// exact per-stage self time, `cost.total_ns` the one end-of-request
    /// clock reading.
    pub cost: CostProfile,
    pub faults: u32,
    pub dropped_events: u64,
}

impl FlightSummary {
    /// Time outside every instrumented stage:
    /// `cost.stage_sum_ns() + other_ns() == cost.total_ns`, exactly.
    pub fn other_ns(&self) -> u64 {
        self.cost.total_ns.saturating_sub(self.cost.stage_sum_ns())
    }

    /// The stage that consumed the most self-time, or `"other"` when
    /// un-instrumented time dominates.
    pub fn culprit(&self) -> &'static str {
        let (mut best, mut best_ns) = ("other", self.other_ns());
        for (i, &ns) in self.cost.stage_ns.iter().enumerate() {
            if ns > best_ns {
                best = Stage::ALL[i].name();
                best_ns = ns;
            }
        }
        best
    }
}

/// Installs a [`Recorder`] as the thread's active per-request record.
/// Panic-safe: dropping the scope (normally via [`finish`](Self::finish), or
/// by unwinding) uninstalls the record and returns it to the pooled handle. A
/// scope entered while another is active on the same thread is passive — its
/// events land in the outer request's record.
pub struct FlightScope<'a> {
    #[cfg(not(feature = "obs-off"))]
    rec: &'a mut Recorder,
    #[cfg(not(feature = "obs-off"))]
    armed: bool,
    #[cfg(feature = "obs-off")]
    _rec: std::marker::PhantomData<&'a mut Recorder>,
}

impl<'a> FlightScope<'a> {
    /// Begin recording into `rec`: takes the thread's next sequence number
    /// and the request's start-of-request clock reading. Allocates the record
    /// the first time a given recorder is used; warm reuse is
    /// allocation-free.
    #[inline]
    pub fn enter(rec: &'a mut Recorder) -> Self {
        #[cfg(not(feature = "obs-off"))]
        {
            let armed = FLIGHT.with(|f| {
                let mut active = f.borrow_mut();
                if active.is_some() {
                    return false;
                }
                let seq = THREAD_SEQ.with(|s| s.replace(s.get() + 1));
                let every = crate::trace::Tracer::global().sample_every();
                let sampled = if seq.is_multiple_of(every) { every } else { 0 };
                let mut inner = rec.inner.take().unwrap_or_else(Inner::new);
                // Unique and non-zero: the thread's ordinal above a sequence
                // that starts at 1.
                inner.reset(
                    ((crate::thread_ordinal() as u64) << 40) | (seq + 1),
                    sampled,
                );
                *active = Some(inner);
                true
            });
            FlightScope { rec, armed }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = rec;
            FlightScope {
                _rec: std::marker::PhantomData,
            }
        }
    }

    /// Stop recording: the one end-of-request clock reading closes the
    /// ledger and becomes `cost.total_ns` (a request declared to end where
    /// its last stage did — [`abut`] — reuses that stage's closing reading).
    /// A sampled request also pushes its span trace into the tracer's ring.
    /// The events stay inside the recorder (for [`Recorder::post_mortem`])
    /// until the next [`enter`](Self::enter) resets it.
    #[inline]
    #[cfg_attr(feature = "obs-off", allow(unused_mut))]
    pub fn finish(mut self) -> FlightSummary {
        #[cfg(not(feature = "obs-off"))]
        {
            if !self.armed {
                return FlightSummary::default();
            }
            self.armed = false;
            let Some(mut inner) = FLIGHT.with(|f| f.borrow_mut().take()) else {
                return FlightSummary::default();
            };
            // The end-of-request reading — or, when the caller declared the
            // request over where its last stage ended ([`abut`]), that
            // stage's own. A stage left open (panic inside a span, or a
            // timeout surfacing mid-stage) is charged through to the end.
            inner.cost.total_ns = if inner.abut && inner.depth == 0 {
                inner.cursor_ns
            } else {
                inner.charge_now()
            };
            let summary = FlightSummary {
                active: true,
                trace_id: inner.trace_id,
                sampled: inner.sampled,
                cost: inner.cost,
                faults: inner.faults,
                dropped_events: inner.dropped,
            };
            if inner.sampled > 0 {
                crate::trace::Tracer::global().push(crate::trace::Trace {
                    trace_id: inner.trace_id,
                    total_ns: inner.cost.total_ns,
                    spans: inner.spans(),
                });
            }
            self.rec.inner = Some(inner);
            summary
        }
        #[cfg(feature = "obs-off")]
        FlightSummary::default()
    }
}

impl Drop for FlightScope<'_> {
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        if self.armed {
            // Unwound without finish(): uninstall so a later request on this
            // thread cannot write into a dead record, and keep the allocation.
            if let Some(inner) = FLIGHT.with(|f| f.borrow_mut().take()) {
                self.rec.inner = Some(inner);
            }
        }
    }
}

/// Declare that the next stage boundary on this thread — or the end of the
/// request — happens where the last timed event did: it takes that event's
/// timestamp instead of reading the clock (an exit directly followed by an
/// enter, two nested stages ending together, a last stage that ends the
/// request). Only for two boundaries with no work worth timing
/// between them — whatever does run there is charged to the stage that is
/// innermost *after* the second boundary, and the ledger stays exact.
#[inline]
pub fn abut() {
    #[cfg(not(feature = "obs-off"))]
    FLIGHT.with(|f| {
        if let Some(inner) = f.borrow_mut().as_mut() {
            inner.abut = true;
        }
    });
}

/// Record one event into the thread's active request record, if any.
/// Outside a [`FlightScope`] this is a thread-local check and nothing else.
// HOT: called per scan / per probe / per stage transition, never per row.
#[inline]
pub fn event(kind: FlightEventKind, a: u32, b: u64) {
    #[cfg(not(feature = "obs-off"))]
    FLIGHT.with(|f| {
        if let Some(inner) = f.borrow_mut().as_mut() {
            inner.log_event(kind, a, b);
        }
    });
    #[cfg(feature = "obs-off")]
    let _ = (kind, a, b);
}

// ---------------------------------------------------------------------------
// Slow-query threshold
// ---------------------------------------------------------------------------

static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_QUERY_THRESHOLD_NS);

/// Requests at or above this duration dump a post-mortem even on success.
pub fn slow_query_threshold_ns() -> u64 {
    SLOW_THRESHOLD_NS.load(Ordering::Relaxed)
}

/// Change the slow-query threshold. `0` dumps every request (report tooling);
/// `u64::MAX` disables duration-triggered dumps.
pub fn set_slow_query_threshold_ns(ns: u64) {
    SLOW_THRESHOLD_NS.store(ns, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Post-mortems + slow-query log
// ---------------------------------------------------------------------------

/// Why a request was dumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The deadline budget was exhausted (`Error::Timeout`).
    Timeout,
    /// The request failed with a non-timeout error.
    Failed,
    /// The request succeeded but entered degraded mode.
    Degraded,
    /// The request succeeded but failed over to a replica.
    Failover,
    /// The request succeeded but exceeded the slow-query threshold.
    Slow,
    /// The consistency sentinel's oracle replay disagreed bit-for-bit with
    /// the row this request served.
    Divergence,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
            Outcome::Degraded => "degraded",
            Outcome::Failover => "failover",
            Outcome::Slow => "slow",
            Outcome::Divergence => "consistency_divergence",
        }
    }
}

/// A dumped request: exact per-stage attribution plus the retained event
/// ring. `sum(stage_self_ns) + other_ns == total_ns` always holds.
#[derive(Clone, Debug)]
pub struct PostMortem {
    pub trace_id: u64,
    pub outcome: Outcome,
    /// The stage that consumed the most self-time (or `"other"`).
    pub culprit: &'static str,
    pub total_ns: u64,
    pub stage_self_ns: [u64; NUM_STAGES],
    pub other_ns: u64,
    pub retries: u32,
    pub failovers: u32,
    pub faults: u32,
    /// Events overwritten after the ring filled.
    pub dropped_events: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Free-form annotation (empty for engine dumps). Consistency
    /// divergences carry both row encodings here so the mismatch is
    /// diagnosable straight from the log.
    pub note: String,
}

impl PostMortem {
    /// Human-readable dump, one attribution line per stage plus the ring.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "post-mortem trace={} outcome={} culprit={} total={:.3}ms \
             retries={} failovers={} faults={}",
            self.trace_id,
            self.outcome.name(),
            self.culprit,
            ms(self.total_ns),
            self.retries,
            self.failovers,
            self.faults,
        );
        if !self.note.is_empty() {
            let _ = writeln!(out, "  note: {}", self.note);
        }
        for (i, &ns) in self.stage_self_ns.iter().enumerate() {
            let pct = 100.0 * ns as f64 / self.total_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "  stage {:<16} {:>10.3}ms {:>5.1}%",
                Stage::ALL[i].name(),
                ms(ns),
                pct
            );
        }
        let pct = 100.0 * self.other_ns as f64 / self.total_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "  stage {:<16} {:>10.3}ms {:>5.1}%",
            "other",
            ms(self.other_ns),
            pct
        );
        let _ = writeln!(
            out,
            "  events ({} retained, {} dropped):",
            self.events.len(),
            self.dropped_events
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "    +{:>10.3}ms {:<14} a={} b={}",
                ms(e.t_ns),
                e.kind.name(),
                e.a,
                e.b
            );
        }
        out
    }

    /// JSON dump with the same fields as [`render_text`](Self::render_text).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"outcome\":\"{}\",\"culprit\":\"{}\",\"total_ns\":{},",
            self.trace_id,
            self.outcome.name(),
            self.culprit,
            self.total_ns
        );
        let _ = write!(out, "\"stages\":{{");
        for (i, &ns) in self.stage_self_ns.iter().enumerate() {
            let _ = write!(out, "\"{}\":{ns},", Stage::ALL[i].name());
        }
        let _ = write!(out, "\"other\":{}}},", self.other_ns);
        let _ = write!(
            out,
            "\"retries\":{},\"failovers\":{},\"faults\":{},\"dropped_events\":{},\"note\":\"{}\",\"events\":[",
            self.retries,
            self.failovers,
            self.faults,
            self.dropped_events,
            crate::escape_json_string(&self.note)
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.t_ns,
                e.kind.name(),
                e.a,
                e.b
            );
        }
        out.push_str("]}");
        out
    }
}

fn slow_log_ring() -> &'static Mutex<VecDeque<PostMortem>> {
    static RING: OnceLock<Mutex<VecDeque<PostMortem>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)))
}

static PUBLISHED: AtomicU64 = AtomicU64::new(0);

#[cfg(not(feature = "obs-off"))]
fn postmortems_counter() -> &'static std::sync::Arc<crate::Counter> {
    static C: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        crate::Registry::global().counter(
            "openmldb_obs_postmortems_total",
            "post-mortems dumped into the slow-query log",
        )
    })
}

/// Publish a post-mortem into the process-wide slow-query log (cold path).
pub fn publish(pm: PostMortem) {
    #[cfg(not(feature = "obs-off"))]
    {
        postmortems_counter().inc();
        PUBLISHED.fetch_add(1, Ordering::Relaxed);
        let mut ring = slow_log_ring().lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(pm);
    }
    #[cfg(feature = "obs-off")]
    let _ = pm;
}

/// Retained post-mortems, oldest first.
pub fn slow_log() -> Vec<PostMortem> {
    let ring = slow_log_ring().lock().unwrap_or_else(|p| p.into_inner());
    ring.iter().cloned().collect()
}

/// Total post-mortems ever published (survives ring eviction).
pub fn published_total() -> u64 {
    PUBLISHED.load(Ordering::Relaxed)
}

/// Drop all retained post-mortems (tests and bench harnesses).
pub fn clear_slow_log() {
    slow_log_ring()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clear();
}

/// Render the slow-query log as a report. Text mode leads with a one-line
/// summary; JSON mode emits `{"published_total":..,"slow_queries":[..]}`.
pub fn render_report(json: bool) -> String {
    let log = slow_log();
    if json {
        let items: Vec<String> = log.iter().map(PostMortem::render_json).collect();
        return format!(
            "{{\"published_total\":{},\"retained\":{},\"slow_queries\":[{}]}}",
            published_total(),
            log.len(),
            items.join(",")
        );
    }
    let mut out = format!(
        "slow-query log: {} retained of {} published (threshold {:.3}ms)\n",
        log.len(),
        published_total(),
        slow_query_threshold_ns() as f64 / 1e6
    );
    for pm in &log {
        out.push_str(&pm.render_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    fn sleep_us(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[cfg(not(feature = "obs-off"))]
    fn clock_reads() -> u32 {
        FLIGHT.with(|f| f.borrow().as_ref().map_or(0, |i| i.clock_reads))
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn attribution_sums_to_total_and_survives_ring_wrap() {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec);
        crate::trace::span(Stage::Plan, || sleep_us(200));
        // Flood the ring well past capacity: attribution must stay exact.
        for i in 0..(RING_EVENTS as u64 * 3) {
            event(FlightEventKind::PlanCacheHit, 0, i);
        }
        crate::trace::span(Stage::StorageSeek, || {
            event(FlightEventKind::ScanRows, 0, 123);
            sleep_us(200)
        });
        let summary = scope.finish();
        assert!(summary.active);
        assert!(summary.trace_id > 0);
        assert_eq!(
            summary.cost.stage_sum_ns() + summary.other_ns(),
            summary.cost.total_ns
        );
        assert!(summary.cost.stage_ns[Stage::Plan.index()] >= 200_000);
        assert!(summary.cost.stage_ns[Stage::StorageSeek.index()] >= 200_000);
        assert_eq!(summary.cost.rows_scanned, 123);
        assert!(summary.dropped_events > 0);

        let pm = rec.post_mortem(Outcome::Slow, &summary).unwrap();
        assert_eq!(pm.trace_id, summary.trace_id);
        assert_eq!(
            pm.stage_self_ns.iter().sum::<u64>() + pm.other_ns,
            pm.total_ns
        );
        assert_eq!(pm.events.len(), RING_EVENTS);
        // last-N semantics: the newest event is the StorageSeek exit
        assert_eq!(pm.events.last().unwrap().kind, FlightEventKind::StageExit);
        let text = pm.render_text();
        assert!(text.contains("stage storage_seek"));
        let json = pm.render_json();
        assert!(json.contains("\"culprit\""));
    }

    /// The one-clock contract: request start, request end and the timed
    /// kinds read the clock; count-only events never do and carry the
    /// timestamp of the timed event before them.
    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn count_only_events_take_no_clock_reading() {
        use FlightEventKind::*;
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec);
        assert_eq!(clock_reads(), 1, "request start");
        for kind in [StorageSeek, ScanRows, PreaggHit, PreaggSkip] {
            event(kind, 0, 1);
        }
        for kind in [PlanCacheHit, PlanCacheMiss, CompiledWindow] {
            event(kind, 0, 1);
        }
        assert_eq!(clock_reads(), 1, "count-only events are free of the clock");
        crate::trace::span(Stage::StorageSeek, || {
            sleep_us(20);
            event(StorageSeek, 3, 0);
            event(ScanRows, 3, 16);
        });
        assert_eq!(clock_reads(), 3, "one reading per stage boundary");
        event(Retry, 0, 1);
        assert_eq!(clock_reads(), 4, "anomaly events are timed");
        // Two stages back to back, declared adjacent: exit and enter share
        // one reading, and the declaration is spent on the first boundary.
        crate::trace::span(Stage::Aggregate, || sleep_us(20));
        abut();
        crate::trace::span(Stage::Encode, || sleep_us(20));
        assert_eq!(clock_reads(), 7, "an abutting boundary reuses the cursor");
        abut();
        let summary = scope.finish();
        let reads = rec.inner.as_ref().map(|i| i.clock_reads);
        assert_eq!(
            reads,
            Some(7),
            "the request ends on its last stage's reading"
        );
        assert!(summary.cost.stage_ns[Stage::Aggregate.index()] >= 20_000);
        assert!(summary.cost.stage_ns[Stage::Encode.index()] >= 20_000);
        assert_eq!(
            summary.cost.stage_sum_ns() + summary.other_ns(),
            summary.cost.total_ns
        );
        assert_eq!(summary.cost.storage_seeks, 2);
        assert_eq!(summary.cost.rows_scanned, 17);
        assert_eq!(summary.cost.retries, 1);

        let pm = rec.post_mortem(Outcome::Slow, &summary).unwrap();
        let mut timed_ns = 0;
        for e in &pm.events {
            if e.kind.is_timed() {
                assert!(e.t_ns >= timed_ns, "timestamps never go back: {pm:?}");
                timed_ns = e.t_ns;
            } else {
                assert_eq!(e.t_ns, timed_ns, "count-only event off the cursor");
            }
        }
        let enter = pm.events.iter().find(|e| e.kind == StageEnter).unwrap();
        assert!(enter.t_ns > 0, "events before the first boundary read 0");
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn nested_stages_attribute_self_time_only() {
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec);
        crate::trace::span(Stage::WindowDispatch, || {
            sleep_us(150);
            crate::trace::span(Stage::Aggregate, || sleep_us(150));
        });
        let summary = scope.finish();
        let dispatch = summary.cost.stage_ns[Stage::WindowDispatch.index()];
        let agg = summary.cost.stage_ns[Stage::Aggregate.index()];
        assert!(dispatch >= 150_000, "dispatch self {dispatch}");
        assert!(agg >= 150_000, "agg self {agg}");
        // exclusive times: the parent does not also absorb the child
        assert!(
            summary.cost.stage_sum_ns() <= summary.cost.total_ns,
            "self-times exceed total"
        );
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn nested_scope_is_passive_and_events_land_in_outer_ring() {
        let mut outer = Recorder::new();
        let mut inner = Recorder::new();
        let scope = FlightScope::enter(&mut outer);
        let seq = thread_seq();
        let nested = FlightScope::enter(&mut inner);
        assert_eq!(
            thread_seq(),
            seq,
            "a passive scope takes no sequence number"
        );
        event(FlightEventKind::PreaggHit, 7, 0);
        let ns = nested.finish();
        assert!(!ns.active);
        let summary = scope.finish();
        assert_eq!(summary.cost.preagg_hits, 1);
        let pm = outer.post_mortem(Outcome::Slow, &summary).unwrap();
        assert!(pm
            .events
            .iter()
            .any(|e| e.kind == FlightEventKind::PreaggHit && e.a == 7));
        assert!(inner.post_mortem(Outcome::Slow, &ns).is_none());
    }

    /// Trace ids and the 1-in-N sampling decision both come from the
    /// per-thread sequence: ids are distinct and non-zero, and exactly one
    /// request in every N consecutive ones on a thread is sampled.
    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn ids_and_sampling_derive_from_the_thread_sequence() {
        let every = crate::trace::Tracer::global().sample_every();
        let mut rec = Recorder::new();
        let mut ids = Vec::new();
        let mut sampled = 0;
        for _ in 0..every * 2 {
            let seq = thread_seq();
            let summary = FlightScope::enter(&mut rec).finish();
            assert_eq!(thread_seq(), seq + 1);
            assert_eq!(summary.sampled > 0, seq.is_multiple_of(every));
            sampled += u64::from(summary.sampled > 0);
            ids.push(summary.trace_id);
        }
        assert_eq!(sampled, 2);
        assert!(ids.iter().all(|&id| id > 0));
        ids.dedup();
        assert_eq!(ids.len() as u64, every * 2);
        let other = std::thread::spawn(|| FlightScope::enter(&mut Recorder::new()).finish())
            .join()
            .unwrap();
        assert!(
            !ids.contains(&other.trace_id),
            "ids are unique across threads"
        );
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn unwinding_uninstalls_the_recorder() {
        let mut rec = Recorder::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = FlightScope::enter(&mut rec);
            panic!("boom");
        }));
        assert!(r.is_err());
        // the thread-local must be clean: a fresh scope arms normally
        let mut rec2 = Recorder::new();
        let scope = FlightScope::enter(&mut rec2);
        assert!(scope.finish().active);
    }

    #[test]
    fn events_outside_scope_are_noops() {
        event(FlightEventKind::ScanRows, 0, 99);
        let mut rec = Recorder::new();
        let scope = FlightScope::enter(&mut rec);
        let summary = scope.finish();
        if crate::enabled() {
            assert!(summary.active);
            assert_eq!(summary.cost.rows_scanned, 0);
            let pm = rec.post_mortem(Outcome::Slow, &summary).unwrap();
            assert!(pm.events.is_empty());
        } else {
            assert!(!summary.active);
            assert!(rec.post_mortem(Outcome::Slow, &summary).is_none());
        }
    }

    #[test]
    fn slow_log_publish_retain_and_render() {
        clear_slow_log();
        let before = published_total();
        let pm = PostMortem {
            trace_id: 99,
            outcome: Outcome::Timeout,
            culprit: "storage_seek",
            total_ns: 1_000_000,
            stage_self_ns: [0; NUM_STAGES],
            other_ns: 1_000_000,
            retries: 1,
            failovers: 0,
            faults: 2,
            dropped_events: 0,
            events: vec![],
            note: "served=[1] oracle=[2]".into(),
        };
        publish(pm.clone());
        if crate::enabled() {
            assert_eq!(published_total(), before + 1);
            let log = slow_log();
            assert_eq!(log.last().unwrap().trace_id, 99);
            let report = render_report(false);
            assert!(report.contains("outcome=timeout"));
            assert!(report.contains("note: served=[1] oracle=[2]"));
            let json = render_report(true);
            assert!(json.contains("\"outcome\":\"timeout\""));
            assert!(json.contains("\"note\":\"served=[1] oracle=[2]\""));
        } else {
            assert!(slow_log().is_empty());
        }
    }

    #[test]
    fn slow_log_is_bounded() {
        if !crate::enabled() {
            return;
        }
        clear_slow_log();
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            publish(PostMortem {
                trace_id: i as u64,
                outcome: Outcome::Slow,
                culprit: "other",
                total_ns: 1,
                stage_self_ns: [0; NUM_STAGES],
                other_ns: 1,
                retries: 0,
                failovers: 0,
                faults: 0,
                dropped_events: 0,
                events: vec![],
                note: String::new(),
            });
        }
        let log = slow_log();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY);
        assert_eq!(log[0].trace_id, 5);
        clear_slow_log();
    }

    #[test]
    fn threshold_roundtrip() {
        let orig = slow_query_threshold_ns();
        set_slow_query_threshold_ns(5);
        assert_eq!(slow_query_threshold_ns(), 5);
        set_slow_query_threshold_ns(orig);
    }
}
