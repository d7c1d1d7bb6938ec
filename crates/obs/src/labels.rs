//! Bounded-cardinality labeled metrics (per-deployment attribution).
//!
//! A process serves many concurrently deployed feature scripts; global
//! counters cannot say *which* deployment burned the budget. The classic
//! fix — one metric series per label value — melts down under unbounded
//! label churn (a misbehaving client deploying 10k uniquely-named scripts
//! must not allocate 10k histograms). This module bounds cardinality with a
//! fixed **label-slot registry**: the first [`MAX_LABEL_SLOTS`]` - 1`
//! distinct names each get a dedicated slot, everything after that shares
//! the [`OVERFLOW_LABEL`] slot (`__other`), so memory is a compile-time
//! constant no matter what the workload does.
//!
//! [`LabeledCounter`] and [`LabeledHistogram`] are thin slot arrays over the
//! existing sharded, cache-line-padded primitives — the record path is one
//! bounds-clamped array index plus the unlabeled primitive's relaxed atomic,
//! and per-slot metrics are allocated lazily so an idle slot costs one
//! `OnceLock` word. Under `obs-off` the underlying primitives already
//! compile every record to a no-op, so labeled metrics inherit the same
//! guarantee with no extra gating.
//!
//! Label *resolution* ([`LabelRegistry::resolve`]) takes a mutex and is
//! meant for deploy time (cold); the hot path carries the returned
//! [`LabelId`] — a `Copy` u16 — and never touches the registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::Counter;

/// Fixed number of label slots per labeled metric, including the overflow
/// slot. Deployments beyond `MAX_LABEL_SLOTS - 1` distinct names share
/// [`OVERFLOW_LABEL`].
pub const MAX_LABEL_SLOTS: usize = 64;

/// Name of the shared overflow slot that absorbs the cardinality tail.
pub const OVERFLOW_LABEL: &str = "__other";

/// A resolved label slot: a dense index into every labeled metric's slot
/// array. Resolve once at deploy time, carry by value on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelId(u16);

impl LabelId {
    /// The shared overflow slot (`__other`), always slot 0.
    pub const OVERFLOW: LabelId = LabelId(0);

    /// Dense slot index in `0..MAX_LABEL_SLOTS`.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 as usize).min(MAX_LABEL_SLOTS - 1)
    }

    /// Whether this label landed in the overflow bucket.
    #[inline]
    pub fn is_overflow(self) -> bool {
        self.0 == 0
    }

    /// A `LabelId` straight from a slot index, clamped to the slot range
    /// (render paths that iterate all slots).
    #[inline]
    pub fn from_index(i: usize) -> LabelId {
        LabelId(i.min(MAX_LABEL_SLOTS - 1) as u16)
    }
}

/// Fixed-capacity name → slot registry. Slot 0 is always
/// [`OVERFLOW_LABEL`]; names past capacity resolve to it (and are counted
/// in [`overflow_resolutions`](Self::overflow_resolutions)), so 10k
/// distinct deployment names still occupy `MAX_LABEL_SLOTS` slots.
pub struct LabelRegistry {
    names: Mutex<Vec<String>>,
    overflow: AtomicU64,
}

impl Default for LabelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LabelRegistry {
    pub fn new() -> Self {
        LabelRegistry {
            names: Mutex::new(vec![OVERFLOW_LABEL.to_string()]),
            overflow: AtomicU64::new(0),
        }
    }

    /// The process-wide deployment-name registry every engine crate labels
    /// against.
    pub fn deployments() -> &'static LabelRegistry {
        static GLOBAL: OnceLock<LabelRegistry> = OnceLock::new();
        GLOBAL.get_or_init(LabelRegistry::new)
    }

    /// Find or assign the slot for `name`. Cold path (deploy time): takes
    /// the registry mutex and may allocate the stored name. Once all slots
    /// are taken, unknown names resolve to [`LabelId::OVERFLOW`].
    pub fn resolve(&self, name: &str) -> LabelId {
        let mut names = lock(&self.names);
        if let Some(i) = names.iter().position(|n| n == name) {
            return LabelId(i as u16);
        }
        if names.len() < MAX_LABEL_SLOTS {
            names.push(name.to_string());
            return LabelId((names.len() - 1) as u16);
        }
        self.overflow.fetch_add(1, Ordering::Relaxed);
        LabelId::OVERFLOW
    }

    /// The slot already assigned to `name`, if any. Never assigns.
    pub fn lookup(&self, name: &str) -> Option<LabelId> {
        lock(&self.names)
            .iter()
            .position(|n| n == name)
            .map(|i| LabelId(i as u16))
    }

    /// The name registered at `id`'s slot.
    pub fn name_of(&self, id: LabelId) -> String {
        let names = lock(&self.names);
        names
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| OVERFLOW_LABEL.to_string())
    }

    /// All registered names, slot order (slot 0 = `__other` first).
    pub fn names(&self) -> Vec<String> {
        lock(&self.names).clone()
    }

    /// Slots assigned so far (including the overflow slot).
    pub fn len(&self) -> usize {
        lock(&self.names).len()
    }

    pub fn is_empty(&self) -> bool {
        false // slot 0 always exists
    }

    /// How many `resolve` calls fell into the overflow bucket because every
    /// slot was taken.
    pub fn overflow_resolutions(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }
}

fn lock(m: &Mutex<Vec<String>>) -> std::sync::MutexGuard<'_, Vec<String>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A counter with one [`Counter`] per label slot, allocated on first use.
/// Recording is `slots[id] += n` through the sharded primitive; under
/// `obs-off` the primitive itself is the no-op.
pub struct LabeledCounter {
    slots: [OnceLock<Counter>; MAX_LABEL_SLOTS],
}

impl Default for LabeledCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl LabeledCounter {
    pub fn new() -> Self {
        LabeledCounter {
            slots: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Add 1 to `id`'s slot.
    #[inline]
    pub fn inc(&self, id: LabelId) {
        self.add(id, 1);
    }

    /// Add `n` to `id`'s slot.
    // `LabelId` is only constructed through `resolve`/`from_index`, both of
    // which bound `index()` below `MAX_LABEL_SLOTS` (overflow clamps to slot
    // 0), so the slot index cannot be out of range.
    #[inline]
    pub fn add(&self, id: LabelId, n: u64) {
        self.slots[id.index()].get_or_init(Counter::new).add(n);
    }

    /// Current value of `id`'s slot.
    pub fn value(&self, id: LabelId) -> u64 {
        self.slots[id.index()].get().map_or(0, Counter::value)
    }

    /// Sum over every slot — must equal the matching global counter when
    /// both are fed the same increments (the reconciliation invariant
    /// `tests/request_record.rs` asserts).
    pub fn total(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.get())
            .map(Counter::value)
            .sum()
    }

    /// `(slot index, value)` for every slot that has recorded at least one
    /// add (allocation order, not value order).
    pub fn per_slot(&self) -> Vec<(usize, u64)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.get().map(|c| (i, c.value())))
            .collect()
    }
}

/// A histogram with one [`Histogram`] per label slot, allocated lazily
/// (an eager slot array would pin ~4 MB per metric; idle slots cost one
/// pointer-sized `OnceLock` instead).
pub struct LabeledHistogram {
    slots: [OnceLock<Box<Histogram>>; MAX_LABEL_SLOTS],
}

impl Default for LabeledHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LabeledHistogram {
    pub fn new() -> Self {
        LabeledHistogram {
            slots: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Record `v` into `id`'s slot.
    #[inline]
    pub fn record(&self, id: LabelId, v: u64) {
        self.slots[id.index()]
            .get_or_init(|| Box::new(Histogram::new()))
            .record(v);
    }

    /// Snapshot of `id`'s slot, `None` if it never recorded.
    pub fn snapshot(&self, id: LabelId) -> Option<HistogramSnapshot> {
        self.slots[id.index()].get().map(|h| h.snapshot())
    }

    /// Total samples across every slot.
    pub fn total_count(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.get())
            .map(|h| h.snapshot().count())
            .sum()
    }

    /// Exact total of recorded values across every slot.
    pub fn total_sum(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.get())
            .map(|h| h.snapshot().sum())
            .sum()
    }

    /// Every slot merged into one snapshot: what a single histogram fed
    /// every sample would hold.
    pub fn merged(&self) -> HistogramSnapshot {
        let mut all = HistogramSnapshot::default();
        for h in self.slots.iter().filter_map(|s| s.get()) {
            all.merge(&h.snapshot());
        }
        all
    }

    /// `(slot index, snapshot)` for every slot that has recorded.
    pub fn per_slot(&self) -> Vec<(usize, HistogramSnapshot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.get().map(|h| (i, h.snapshot())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled;

    #[test]
    fn registry_assigns_dense_slots_and_overflows() {
        let r = LabelRegistry::new();
        assert_eq!(r.resolve(OVERFLOW_LABEL), LabelId::OVERFLOW);
        let a = r.resolve("a");
        let b = r.resolve("b");
        assert_ne!(a, b);
        assert!(!a.is_overflow() && !b.is_overflow());
        assert_eq!(r.resolve("a"), a, "resolve is idempotent");
        assert_eq!(r.lookup("b"), Some(b));
        assert_eq!(r.lookup("nope"), None);
        assert_eq!(r.name_of(a), "a");

        // Exhaust the remaining slots, then overflow.
        for i in 0..MAX_LABEL_SLOTS {
            r.resolve(&format!("fill-{i}"));
        }
        assert_eq!(r.len(), MAX_LABEL_SLOTS);
        let over = r.resolve("one-too-many");
        assert!(over.is_overflow());
        assert!(r.overflow_resolutions() >= 1);
        assert_eq!(r.lookup("one-too-many"), None, "overflow names not stored");
    }

    #[test]
    fn labeled_counter_totals_reconcile() {
        let r = LabelRegistry::new();
        let c = LabeledCounter::new();
        let a = r.resolve("a");
        let b = r.resolve("b");
        c.add(a, 3);
        c.inc(b);
        c.add(LabelId::OVERFLOW, 10);
        if enabled() {
            assert_eq!(c.value(a), 3);
            assert_eq!(c.value(b), 1);
            assert_eq!(c.total(), 14);
            assert_eq!(c.per_slot().len(), 3);
        } else {
            assert_eq!(c.total(), 0);
        }
    }

    #[test]
    fn labeled_histogram_records_per_slot() {
        let r = LabelRegistry::new();
        let h = LabeledHistogram::new();
        let a = r.resolve("a");
        h.record(a, 100);
        h.record(a, 300);
        assert!(
            h.snapshot(LabelId::OVERFLOW).is_none(),
            "idle slot stays unallocated"
        );
        if enabled() {
            let snap = h.snapshot(a).unwrap();
            assert_eq!(snap.count(), 2);
            assert_eq!(snap.sum(), 400);
            assert_eq!(h.total_count(), 2);
            assert_eq!(h.total_sum(), 400);
        }
    }

    #[test]
    fn memory_stays_bounded_under_name_churn() {
        // 10k distinct names may not grow the registry or the metric past
        // the fixed slot count — the acceptance bound for label churn.
        let r = LabelRegistry::new();
        let c = LabeledCounter::new();
        for i in 0..10_000 {
            let id = r.resolve(&format!("deploy-{i}"));
            c.inc(id);
        }
        assert_eq!(r.len(), MAX_LABEL_SLOTS);
        assert!(r.overflow_resolutions() >= 10_000 - MAX_LABEL_SLOTS as u64);
        if enabled() {
            assert_eq!(c.total(), 10_000, "overflow slot absorbs the tail");
            assert!(c.value(LabelId::OVERFLOW) >= 10_000 - MAX_LABEL_SLOTS as u64);
        }
    }
}
