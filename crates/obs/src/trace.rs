//! Pipeline stages and the sampled span-trace view.
//!
//! A trace decomposes one online request into pipeline stages
//! (plan → cache lookup → window dispatch → storage seek → aggregate →
//! encode) with nanosecond start/duration timestamps relative to the
//! request's arrival. [`span`] only marks the stage boundary in the thread's
//! per-request record ([`crate::flight`]); the record keeps the exact stage
//! ledger for **every** request, and for one request in
//! [`DEFAULT_SAMPLE_EVERY`] per thread its stage events are rebuilt into a
//! [`Trace`] when the request ends and retained in a bounded ring of
//! [`RING_CAPACITY`] entries. Deeply nested code (the SQL cache, the storage
//! layer) calls [`span`] without threading a context handle through every
//! signature: outside a request scope it runs the closure after one
//! thread-local check.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default sampling interval: one traced request per this many.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Maximum retained traces; older traces are dropped FIFO.
pub const RING_CAPACITY: usize = 128;

/// Pipeline stages a request moves through. Mirrors the execution order in
/// `online::engine::execute_request`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// SQL parsing and physical-plan construction.
    Plan,
    /// Plan-cache probe (hit or miss).
    CacheLookup,
    /// Choosing the window path (pre-aggregated vs. raw scan) and routing.
    WindowDispatch,
    /// Skiplist / disk seeks and row collection.
    StorageSeek,
    /// Window aggregate evaluation.
    Aggregate,
    /// Projecting and encoding the output row.
    Encode,
}

impl Stage {
    /// All stages in pipeline order; `ALL[s.index()] == s`.
    pub const ALL: [Stage; 6] = [
        Stage::Plan,
        Stage::CacheLookup,
        Stage::WindowDispatch,
        Stage::StorageSeek,
        Stage::Aggregate,
        Stage::Encode,
    ];

    /// Dense index of this stage, `0..Stage::ALL.len()` — the flight
    /// recorder's attribution slot.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::CacheLookup => "cache_lookup",
            Stage::WindowDispatch => "window_dispatch",
            Stage::StorageSeek => "storage_seek",
            Stage::Aggregate => "aggregate",
            Stage::Encode => "encode",
        }
    }
}

/// One timed stage within a trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub stage: Stage,
    /// Nanoseconds from the start of the request.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A completed request trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Id of the traced request — the same id its histogram exemplar and
    /// post-mortem carry.
    pub trace_id: u64,
    /// End-to-end request duration.
    pub total_ns: u64,
    /// Spans in completion order. A request with more events than the
    /// record retains ([`crate::flight::RING_EVENTS`]) keeps its newest spans.
    pub spans: Vec<SpanRecord>,
}

/// Global trace collector: the per-thread 1-in-N sampling interval and the
/// bounded ring of completed traces.
pub struct Tracer {
    sample_every: AtomicU64,
    ring: Mutex<VecDeque<Trace>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            sample_every: AtomicU64::new(DEFAULT_SAMPLE_EVERY),
            ring: Mutex::new(VecDeque::with_capacity(RING_CAPACITY)),
        }
    }

    /// The process-wide tracer the per-request record samples into.
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Change the sampling interval (`1` traces every request; `0` is
    /// clamped to `1`). Intended for tests, bench runs and report tooling.
    pub fn set_sample_every(&self, n: u64) {
        self.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// The sampling interval: each thread traces one request in this many.
    #[inline]
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Retain a completed trace, evicting the oldest past [`RING_CAPACITY`].
    pub fn push(&self, trace: Trace) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Completed traces, oldest first.
    pub fn recent(&self) -> Vec<Trace> {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.iter().cloned().collect()
    }

    /// JSON array of retained traces:
    /// `[{"trace_id":..,"total_ns":..,"spans":[{"stage":"plan",...}]}]`.
    pub fn render_json(&self) -> String {
        let traces = self.recent();
        let mut items = Vec::with_capacity(traces.len());
        for t in &traces {
            let spans: Vec<String> = t
                .spans
                .iter()
                .map(|s| {
                    format!(
                        "{{\"stage\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                        s.stage.name(),
                        s.start_ns,
                        s.dur_ns
                    )
                })
                .collect();
            items.push(format!(
                "{{\"trace_id\":{},\"total_ns\":{},\"spans\":[{}]}}",
                t.trace_id,
                t.total_ns,
                spans.join(",")
            ));
        }
        format!("[{}]", items.join(","))
    }
}

/// Run `f` as `stage`: mark the stage boundary on either side of it in the
/// thread's per-request record ([`crate::flight`]). Outside a request scope
/// this is two thread-local checks and nothing else.
#[inline]
pub fn span<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    use crate::flight::{event, FlightEventKind};
    event(FlightEventKind::StageEnter, stage.index() as u32, 0);
    let out = f();
    event(FlightEventKind::StageExit, stage.index() as u32, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightScope, Recorder};

    #[test]
    fn spans_outside_scope_are_noops() {
        let v = span(Stage::Plan, || 7);
        assert_eq!(v, 7);
    }

    /// Serve `n` scoped requests of three spans each on this thread and
    /// return the ids of the ones the record marked as sampled.
    fn serve(n: u64) -> Vec<u64> {
        let mut rec = Recorder::new();
        let mut sampled = Vec::new();
        for _ in 0..n {
            let scope = FlightScope::enter(&mut rec);
            span(Stage::Plan, || {
                std::thread::sleep(std::time::Duration::from_micros(50))
            });
            span(Stage::WindowDispatch, || span(Stage::StorageSeek, || ()));
            span(Stage::Encode, || ());
            let summary = scope.finish();
            if summary.sampled > 0 {
                sampled.push(summary.trace_id);
            }
        }
        sampled
    }

    #[test]
    fn sampled_request_becomes_a_trace_of_its_stage_events() {
        let every = Tracer::global().sample_every();
        let sampled = serve(every);
        if !crate::enabled() {
            assert!(sampled.is_empty() && Tracer::global().recent().is_empty());
            return;
        }
        assert_eq!(sampled.len(), 1, "one request in {every} per thread");
        let traces = Tracer::global().recent();
        let t = traces
            .iter()
            .find(|t| t.trace_id == sampled[0])
            .expect("the sampled request's trace is retained");
        // completion order: the nested seek closes before its dispatch
        assert_eq!(
            t.spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![
                Stage::Plan,
                Stage::StorageSeek,
                Stage::WindowDispatch,
                Stage::Encode
            ]
        );
        assert!(t.spans[0].dur_ns >= 50_000, "sleep span too short: {t:?}");
        assert!(t.total_ns >= t.spans[0].dur_ns);
        assert!(t.spans[1].start_ns >= t.spans[2].start_ns);
        assert!(t.spans[1].dur_ns <= t.spans[2].dur_ns);
        let json = Tracer::global().render_json();
        assert!(json.contains("\"stage\":\"storage_seek\""));
    }

    #[test]
    fn ring_is_bounded() {
        let tracer = Tracer::new();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            tracer.push(Trace {
                trace_id: i,
                total_ns: 1,
                spans: Vec::new(),
            });
        }
        let traces = tracer.recent();
        assert_eq!(traces.len(), RING_CAPACITY);
        // oldest were evicted
        assert_eq!(traces[0].trace_id, 10);
    }

    #[test]
    fn sample_interval_is_clamped() {
        let tracer = Tracer::new();
        assert_eq!(tracer.sample_every(), DEFAULT_SAMPLE_EVERY);
        tracer.set_sample_every(0);
        assert_eq!(tracer.sample_every(), 1);
    }
}
