//! Heavy-hitter tracking: the SpaceSaving top-K sketch.
//!
//! Hot partition keys must be identifiable without an unbounded map (a
//! per-key HashMap over partition keys is exactly the cardinality bomb the
//! labeled-metric registry avoids; hot *deployments* need no sketch — the
//! per-deployment store has one exact slot per label, see
//! [`crate::profile::ProfileStore::hot_deployments`]). SpaceSaving
//! (Metwally et al., "Efficient computation of frequent and top-k elements
//! in data streams") keeps a fixed set of `capacity` monitored keys; an
//! unmonitored arrival evicts the current minimum and inherits its count as
//! its error bound. The classic guarantees, checked by the proptest oracle
//! in `tests/workload_attribution.rs`:
//!
//! * `estimate - err <= true_count <= estimate` for every monitored key;
//! * any key whose true count exceeds `observed / capacity` is monitored.
//!
//! An offer takes a mutex and a string-keyed HashMap probe; offering on
//! every request (two sketches plus the key's format) measured 0.18 µs of a
//! 3.4 µs short-window request (EXPERIMENTS.md, "Observability overhead"),
//! so the serving path offers only its sampled requests (one in N per thread), each with weight N
//! ([`SpaceSaving::offer_weighted`]); the estimates stay unbiased. The
//! sketch allocates only when a *new* key enters the monitored set. Under
//! `obs-off`, [`SpaceSaving::offer`] compiles to a no-op.

#[cfg(not(feature = "obs-off"))]
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// One monitored heavy hitter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopEntry {
    pub key: String,
    /// Estimated count (an over-estimate: `count - err <= true <= count`).
    pub count: u64,
    /// Maximum over-estimation inherited from the evicted minimum.
    pub err: u64,
}

#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
struct Inner {
    /// Monitored entries, unordered; `index` maps key → position.
    entries: Vec<TopEntry>,
    index: HashMap<String, usize>,
    observed: u64,
}

/// A fixed-capacity SpaceSaving sketch over string keys.
pub struct SpaceSaving {
    capacity: usize,
    #[cfg(not(feature = "obs-off"))]
    inner: Mutex<Inner>,
    #[cfg(feature = "obs-off")]
    _inner: Mutex<()>,
}

impl SpaceSaving {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        SpaceSaving {
            capacity,
            #[cfg(not(feature = "obs-off"))]
            inner: Mutex::new(Inner::default()),
            #[cfg(feature = "obs-off")]
            _inner: Mutex::new(()),
        }
    }

    /// The process-wide sketch over `deployment:partition-key` strings, fed
    /// from the serving path's sampled requests.
    pub fn hot_keys() -> &'static SpaceSaving {
        static GLOBAL: OnceLock<SpaceSaving> = OnceLock::new();
        GLOBAL.get_or_init(|| SpaceSaving::new(64))
    }

    /// Count one arrival of `key`.
    #[inline]
    pub fn offer(&self, key: &str) {
        self.offer_weighted(key, 1);
    }

    /// Count `w` arrivals of `key` at once.
    pub fn offer_weighted(&self, key: &str, w: u64) {
        #[cfg(not(feature = "obs-off"))]
        {
            if w == 0 {
                return;
            }
            let mut inner = self.lock();
            inner.observed += w;
            if let Some(&i) = inner.index.get(key) {
                inner.entries[i].count += w;
                return;
            }
            if inner.entries.len() < self.capacity {
                let i = inner.entries.len();
                inner.entries.push(TopEntry {
                    key: key.to_string(),
                    count: w,
                    err: 0,
                });
                inner.index.insert(key.to_string(), i);
                return;
            }
            // Evict the minimum: the newcomer inherits its count as the
            // error bound (it may have arrived up to `min` times while the
            // slot belonged to someone else).
            let (mi, min) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.count)
                .map(|(i, e)| (i, e.count))
                .unwrap_or((0, 0));
            let old_key = std::mem::replace(&mut inner.entries[mi].key, key.to_string());
            inner.entries[mi].err = min;
            inner.entries[mi].count = min + w;
            inner.index.remove(&old_key);
            inner.index.insert(key.to_string(), mi);
        }
        #[cfg(feature = "obs-off")]
        let _ = (key, w);
    }

    /// The top `k` monitored keys, highest estimate first (ties broken by
    /// key for determinism).
    pub fn top(&self, k: usize) -> Vec<TopEntry> {
        #[cfg(not(feature = "obs-off"))]
        {
            let inner = self.lock();
            let mut out = inner.entries.clone();
            out.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
            out.truncate(k);
            out
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = k;
            Vec::new()
        }
    }

    /// The estimate for `key`, if monitored.
    pub fn estimate(&self, key: &str) -> Option<TopEntry> {
        #[cfg(not(feature = "obs-off"))]
        {
            let inner = self.lock();
            inner.index.get(key).map(|&i| inner.entries[i].clone())
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = key;
            None
        }
    }

    /// Total weight offered so far.
    pub fn observed(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.lock().observed
        }
        #[cfg(feature = "obs-off")]
        0
    }

    /// Monitored-set capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drop every monitored key and the observed count.
    pub fn reset(&self) {
        #[cfg(not(feature = "obs-off"))]
        {
            let mut inner = self.lock();
            inner.entries.clear();
            inner.index.clear();
            inner.observed = 0;
        }
    }

    #[cfg(not(feature = "obs-off"))]
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled;

    #[test]
    fn exact_within_capacity() {
        let s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.offer("a");
        }
        s.offer_weighted("b", 3);
        s.offer("c");
        if enabled() {
            let top = s.top(10);
            assert_eq!(top.len(), 3);
            assert_eq!(
                top[0],
                TopEntry {
                    key: "a".into(),
                    count: 5,
                    err: 0
                }
            );
            assert_eq!(
                top[1],
                TopEntry {
                    key: "b".into(),
                    count: 3,
                    err: 0
                }
            );
            assert_eq!(s.observed(), 9);
        } else {
            assert!(s.top(10).is_empty());
        }
    }

    #[test]
    fn eviction_keeps_heavy_hitter_with_error_bound() {
        let s = SpaceSaving::new(2);
        for _ in 0..100 {
            s.offer("heavy");
        }
        // 50 distinct light keys churn through the second slot.
        for i in 0..50 {
            s.offer(&format!("light-{i}"));
        }
        if enabled() {
            let heavy = s.estimate("heavy").expect("heavy key must stay monitored");
            assert!(heavy.count >= 100);
            assert!(heavy.count - heavy.err <= 100);
            assert_eq!(s.observed(), 150);
        }
    }

    #[test]
    fn reset_clears_state() {
        let s = SpaceSaving::new(2);
        s.offer("x");
        s.reset();
        assert_eq!(s.observed(), 0);
        assert!(s.top(5).is_empty());
    }
}
