//! Per-request cost profiles and the per-deployment store.
//!
//! The per-request record ([`crate::flight`]) answers "where did *this*
//! request's time go" and "what did this request *do*" — its
//! [`CostProfile`] counts rows scanned, bytes decoded, storage seeks and
//! pre-aggregation hits next to the exact stage ledger. When the request
//! ends the engine folds that one profile into the [`ProfileStore`] under
//! the deployment's label slot, and every per-deployment surface is a read
//! of the store: the `openmldb_online_deployment_*` series, the hot
//! deployments ranking, and the `EXPLAIN ANALYZE`-style render.
//! [`CostProfile`] is `Copy` and fixed-size, so carrying it in the pooled
//! record keeps the warm path allocation-free. Under `obs-off`
//! [`ProfileStore::fold`] is an inlined no-op.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::flight::Stage;
use crate::flight::NUM_STAGES;
use crate::labels::{LabelId, LabelRegistry, MAX_LABEL_SLOTS};
use crate::topk::TopEntry;
use crate::SHARDS;

/// What one request did, in fixed-size counters. The `stage_ns` slots are
/// indexed by [`Stage::index`] and hold the record's exact self-time
/// attribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostProfile {
    /// Rows visited by window scans and seeks (storage-layer attribution).
    pub rows_scanned: u64,
    /// Encoded bytes copied into the scan arena and folded by a window.
    pub bytes_decoded: u64,
    /// Windows folded by their compiled program.
    pub compiled_windows: u64,
    /// Storage index seeks.
    pub storage_seeks: u64,
    /// Windows served by the pre-aggregation fast path.
    pub preagg_hits: u64,
    /// Windows that fell back to a raw scan despite a pre-aggregator.
    pub preagg_skips: u64,
    /// Transient-fault retries.
    pub retries: u64,
    /// Replica failovers.
    pub failovers: u64,
    /// 1 when the request returned a degraded (buckets-only) answer.
    pub degraded: u64,
    /// High-water mark of the request scratch arena, in bytes.
    pub scratch_high_water_bytes: u64,
    /// Exclusive per-stage self time, `sum + other == total_ns`.
    pub stage_ns: [u64; NUM_STAGES],
    /// End-to-end request time.
    pub total_ns: u64,
}

impl CostProfile {
    /// Sum of the per-stage self times.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Accumulate `other` into `self` (high-water fields take the max).
    pub fn merge(&mut self, other: &CostProfile) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_decoded += other.bytes_decoded;
        self.compiled_windows += other.compiled_windows;
        self.storage_seeks += other.storage_seeks;
        self.preagg_hits += other.preagg_hits;
        self.preagg_skips += other.preagg_skips;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.degraded += other.degraded;
        self.scratch_high_water_bytes = self
            .scratch_high_water_bytes
            .max(other.scratch_high_water_bytes);
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns.iter()) {
            *a += *b;
        }
        self.total_ns += other.total_ns;
    }
}

// ---------------------------------------------------------------------------
// Per-deployment aggregates
// ---------------------------------------------------------------------------

/// One thread shard of one deployment's running totals. Cache-line aligned
/// so neither two deployments nor two threads folding concurrently
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct SlotAgg {
    requests: AtomicU64,
    rows_scanned: AtomicU64,
    bytes_decoded: AtomicU64,
    compiled_windows: AtomicU64,
    storage_seeks: AtomicU64,
    preagg_hits: AtomicU64,
    preagg_skips: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    degraded: AtomicU64,
    scratch_high_water: AtomicU64,
    stage_ns: [AtomicU64; NUM_STAGES],
    total_ns: AtomicU64,
}

/// Add `v` to `cell`; most of a request's fields are zero (no retries, no
/// pre-aggregation, two idle stages) and cost no atomic.
#[cfg(not(feature = "obs-off"))]
#[inline]
fn add(cell: &AtomicU64, v: u64) {
    if v != 0 {
        cell.fetch_add(v, Ordering::Relaxed);
    }
}

/// Fixed-size per-deployment profile aggregates, indexed by [`LabelId`]
/// slot and sharded per thread like every other counter. Bounded memory by
/// construction: `MAX_LABEL_SLOTS * SHARDS` cache-line-aligned cells, no
/// maps.
pub struct ProfileStore {
    slots: Box<[SlotAgg]>,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileStore {
    pub fn new() -> Self {
        ProfileStore {
            slots: (0..MAX_LABEL_SLOTS * SHARDS)
                .map(|_| SlotAgg::default())
                .collect(),
        }
    }

    /// The process-wide store the online engine folds into.
    pub fn global() -> &'static ProfileStore {
        static GLOBAL: OnceLock<ProfileStore> = OnceLock::new();
        GLOBAL.get_or_init(ProfileStore::new)
    }

    /// Fold one finished request profile into `id`'s running totals, on the
    /// calling thread's shard.
    // HOT: once per request — one relaxed add per non-zero field.
    pub fn fold(&self, id: LabelId, p: &CostProfile) {
        #[cfg(not(feature = "obs-off"))]
        {
            // `index()` is clamped below `MAX_LABEL_SLOTS` and `shard_idx()`
            // is taken modulo `SHARDS`, so the cell index is below the
            // `MAX_LABEL_SLOTS * SHARDS` cells `new` allocates.
            let s = &self.slots[id.index() * SHARDS + crate::shard_idx()];
            s.requests.fetch_add(1, Ordering::Relaxed);
            add(&s.rows_scanned, p.rows_scanned);
            add(&s.bytes_decoded, p.bytes_decoded);
            add(&s.compiled_windows, p.compiled_windows);
            add(&s.storage_seeks, p.storage_seeks);
            add(&s.preagg_hits, p.preagg_hits);
            add(&s.preagg_skips, p.preagg_skips);
            add(&s.retries, p.retries);
            add(&s.failovers, p.failovers);
            add(&s.degraded, p.degraded);
            if p.scratch_high_water_bytes > s.scratch_high_water.load(Ordering::Relaxed) {
                s.scratch_high_water
                    .fetch_max(p.scratch_high_water_bytes, Ordering::Relaxed);
            }
            for (slot, v) in s.stage_ns.iter().zip(p.stage_ns.iter()) {
                add(slot, *v);
            }
            add(&s.total_ns, p.total_ns);
        }
        #[cfg(feature = "obs-off")]
        let _ = (id, p);
    }

    /// `(request count, accumulated profile)` for `id`'s slot, merged over
    /// its shards.
    pub fn aggregate(&self, id: LabelId) -> (u64, CostProfile) {
        let mut requests = 0u64;
        let mut total = CostProfile::default();
        let first = id.index() * SHARDS;
        for s in &self.slots[first..first + SHARDS] {
            let mut p = CostProfile {
                rows_scanned: s.rows_scanned.load(Ordering::Relaxed),
                bytes_decoded: s.bytes_decoded.load(Ordering::Relaxed),
                compiled_windows: s.compiled_windows.load(Ordering::Relaxed),
                storage_seeks: s.storage_seeks.load(Ordering::Relaxed),
                preagg_hits: s.preagg_hits.load(Ordering::Relaxed),
                preagg_skips: s.preagg_skips.load(Ordering::Relaxed),
                retries: s.retries.load(Ordering::Relaxed),
                failovers: s.failovers.load(Ordering::Relaxed),
                degraded: s.degraded.load(Ordering::Relaxed),
                scratch_high_water_bytes: s.scratch_high_water.load(Ordering::Relaxed),
                stage_ns: [0; NUM_STAGES],
                total_ns: s.total_ns.load(Ordering::Relaxed),
            };
            for (i, slot) in s.stage_ns.iter().enumerate() {
                p.stage_ns[i] = slot.load(Ordering::Relaxed);
            }
            requests += s.requests.load(Ordering::Relaxed);
            total.merge(&p);
        }
        (requests, total)
    }

    /// Sum `aggregate` over every slot (the reconciliation side of
    /// `tests/request_record.rs`: must match the global counters).
    pub fn aggregate_all(&self) -> (u64, CostProfile) {
        let mut requests = 0u64;
        let mut total = CostProfile::default();
        for i in 0..MAX_LABEL_SLOTS {
            let (r, p) = self.aggregate(LabelId::from_index(i));
            requests += r;
            total.merge(&p);
        }
        // merge() sums total_ns but maxes high-water; both are what the
        // reconciliation wants.
        (requests, total)
    }

    /// One per-deployment series read off the store: `(slot index,
    /// value(requests, profile))` for every slot that has served a request —
    /// what the labeled `openmldb_online_deployment_*` series render from at
    /// exposition time.
    pub fn per_slot(&self, value: impl Fn(u64, &CostProfile) -> u64) -> Vec<(usize, u64)> {
        (0..MAX_LABEL_SLOTS)
            .filter_map(|i| {
                let (requests, p) = self.aggregate(LabelId::from_index(i));
                (requests > 0).then(|| (i, value(requests, &p)))
            })
            .collect()
    }

    /// The `k` deployments that served the most requests, highest first
    /// (ties broken by name), names resolved against the process-wide
    /// deployment registry. Exact — the store has one slot per label, so
    /// `err` is always 0.
    pub fn hot_deployments(&self, k: usize) -> Vec<TopEntry> {
        let reg = LabelRegistry::deployments();
        let mut out: Vec<TopEntry> = self
            .per_slot(|requests, _| requests)
            .into_iter()
            .map(|(i, count)| TopEntry {
                key: reg.name_of(LabelId::from_index(i)),
                count,
                err: 0,
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        out.truncate(k);
        out
    }

    /// `EXPLAIN ANALYZE`-style render of one deployment's accumulated
    /// profile, resolved against the process-wide deployment registry.
    /// Renders a clean "no samples" section when the deployment never
    /// served a request (or is unknown).
    pub fn render_explain_analyze(&self, deployment: &str) -> String {
        let id = LabelRegistry::deployments().lookup(deployment);
        let (requests, p) = match id {
            Some(id) => self.aggregate(id),
            None => (0, CostProfile::default()),
        };
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE deployment \"{deployment}\"");
        if requests == 0 {
            let _ = writeln!(out, "  (no samples)");
            return out;
        }
        let avg_us = p.total_ns as f64 / requests as f64 / 1_000.0;
        let _ = writeln!(
            out,
            "  requests={requests}  total={:.2}ms  avg={avg_us:.1}us/req",
            p.total_ns as f64 / 1e6
        );
        let denom = p.total_ns.max(1) as f64;
        for stage in Stage::ALL {
            let ns = p.stage_ns[stage.index()];
            let _ = writeln!(
                out,
                "  stage {:<16} total={:>10.3}ms  avg={:>8.1}us  ({:>4.1}%)",
                stage.name(),
                ns as f64 / 1e6,
                ns as f64 / requests as f64 / 1e3,
                100.0 * ns as f64 / denom,
            );
        }
        let other = p.total_ns.saturating_sub(p.stage_sum_ns());
        let _ = writeln!(
            out,
            "  stage {:<16} total={:>10.3}ms  avg={:>8.1}us  ({:>4.1}%)",
            "other",
            other as f64 / 1e6,
            other as f64 / requests as f64 / 1e3,
            100.0 * other as f64 / denom,
        );
        let _ = writeln!(
            out,
            "  rows scanned      {}  ({:.1}/req)",
            p.rows_scanned,
            p.rows_scanned as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  bytes decoded     {}  ({:.1}/req)",
            p.bytes_decoded,
            p.bytes_decoded as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  compiled windows  {}  ({:.1}/req)",
            p.compiled_windows,
            p.compiled_windows as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  storage seeks     {}  ({:.1}/req)",
            p.storage_seeks,
            p.storage_seeks as f64 / requests as f64
        );
        let _ = writeln!(
            out,
            "  preagg            {} hits, {} skips",
            p.preagg_hits, p.preagg_skips
        );
        let _ = writeln!(
            out,
            "  resilience        {} retries, {} failovers, {} degraded",
            p.retries, p.failovers, p.degraded
        );
        let _ = writeln!(
            out,
            "  scratch high-water {} bytes",
            p.scratch_high_water_bytes
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled;

    #[test]
    fn store_folds_and_renders() {
        let store = ProfileStore::new();
        let reg = LabelRegistry::new();
        let id = reg.resolve("d1");
        let mut p = CostProfile {
            rows_scanned: 10,
            total_ns: 1_000_000,
            scratch_high_water_bytes: 64,
            ..Default::default()
        };
        p.stage_ns[Stage::StorageSeek.index()] = 600_000;
        store.fold(id, &p);
        p.scratch_high_water_bytes = 32;
        store.fold(id, &p);
        let (requests, agg) = store.aggregate(id);
        if enabled() {
            assert_eq!(requests, 2);
            assert_eq!(agg.rows_scanned, 20);
            assert_eq!(agg.scratch_high_water_bytes, 64);
            assert_eq!(agg.stage_ns[Stage::StorageSeek.index()], 1_200_000);
            let (all_req, all) = store.aggregate_all();
            assert_eq!(all_req, 2);
            assert_eq!(all.total_ns, 2_000_000);
            assert_eq!(
                store.per_slot(|_, p| p.rows_scanned),
                vec![(id.index(), 20)]
            );
        } else {
            assert_eq!(requests, 0);
            assert!(store.per_slot(|r, _| r).is_empty());
        }
    }

    /// Folds from several threads land on different shards and still merge
    /// to exact totals.
    #[test]
    fn shards_merge_exactly() {
        let store = std::sync::Arc::new(ProfileStore::new());
        let id = LabelId::from_index(3);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        store.fold(
                            id,
                            &CostProfile {
                                rows_scanned: t,
                                total_ns: 7,
                                ..Default::default()
                            },
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        if enabled() {
            let (requests, agg) = store.aggregate(id);
            assert_eq!(requests, 4_000);
            assert_eq!(agg.rows_scanned, 6_000);
            assert_eq!(agg.total_ns, 28_000);
        }
    }

    #[test]
    fn hot_deployments_rank_by_exact_request_count() {
        if !enabled() {
            return;
        }
        let store = ProfileStore::new();
        let reg = LabelRegistry::deployments();
        let (a, b) = (reg.resolve("hot_unit_a"), reg.resolve("hot_unit_b"));
        for _ in 0..3 {
            store.fold(a, &CostProfile::default());
        }
        store.fold(b, &CostProfile::default());
        let top = store.hot_deployments(5);
        let rank: Vec<(&str, u64, u64)> = top
            .iter()
            .map(|e| (e.key.as_str(), e.count, e.err))
            .collect();
        assert_eq!(rank, vec![("hot_unit_a", 3, 0), ("hot_unit_b", 1, 0)]);
        assert_eq!(store.hot_deployments(1).len(), 1);
    }

    #[test]
    fn explain_analyze_handles_no_samples() {
        let store = ProfileStore::new();
        let text = store.render_explain_analyze("never-deployed");
        assert!(text.contains("EXPLAIN ANALYZE deployment \"never-deployed\""));
        assert!(text.contains("(no samples)"));
    }
}
