//! Deterministic schedule exploration of the lock-free storage structures.
//!
//! Run with: `cargo test -p openmldb-storage --features model-check`
//!
//! Each test drives small thread scenarios through the cooperative
//! scheduler in `openmldb_storage::sync::model`: every access to a skiplist
//! link pointer (or shared counter) is a schedule point where a seeded RNG
//! picks the next thread, so one seed = one exact interleaving, replayable
//! forever. Invariants (no lost inserts, no torn prefix walks, exactly-once
//! flush claims) are asserted after every run, and the model's
//! use-after-evict detector screens every pointer load against nodes the
//! epoch scheme has reclaimed.

#![cfg(feature = "model-check")]

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize as RawUsize, Ordering as RawOrdering};
use std::sync::{Arc, Mutex};

use openmldb_storage::skiplist::{SkipMap, TimeList};
use openmldb_storage::sync::atomic::{AtomicUsize, Ordering};
use openmldb_storage::sync::model::explore;
use openmldb_storage::FlushTrigger;

fn payload(v: u8) -> Arc<[u8]> {
    Arc::from(vec![v].into_boxed_slice())
}

/// Two threads race `get_or_insert_with` on the same key: linearizability
/// demands exactly one creation and a single agreed value. Returns the
/// schedule trace.
fn run_skipmap_same_key(seed: u64) -> Vec<u8> {
    let map: Arc<SkipMap<u64, u64>> = Arc::new(SkipMap::new());
    let outcomes: Arc<Mutex<Vec<(u64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for t in 0..2u64 {
        let map = map.clone();
        let outcomes = outcomes.clone();
        threads.push(Box::new(move || {
            let (v, created) = map.get_or_insert_with(7, || 100 + t);
            outcomes.lock().unwrap().push((*v, created));
        }));
    }
    let trace = explore(seed, threads);

    let outcomes = outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 2);
    let created: usize = outcomes.iter().filter(|(_, c)| *c).count();
    assert_eq!(created, 1, "exactly one creation must win (seed {seed})");
    let winner = outcomes.iter().find(|(_, c)| *c).unwrap().0;
    for (v, _) in outcomes.iter() {
        assert_eq!(
            *v, winner,
            "all threads agree on the stored value (seed {seed})"
        );
    }
    assert_eq!(map.len(), 1, "lost insert or phantom key (seed {seed})");
    assert_eq!(map.get(&7), Some(&winner));
    trace
}

/// Three threads insert distinct keys; all must land, sorted and unique.
fn run_skipmap_distinct_keys(seed: u64) -> Vec<u8> {
    let map: Arc<SkipMap<u64, u64>> = Arc::new(SkipMap::new());
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for t in 0..3u64 {
        let map = map.clone();
        threads.push(Box::new(move || {
            map.get_or_insert_with(t * 10, || t);
        }));
    }
    let trace = explore(seed, threads);
    assert_eq!(map.len(), 3, "lost insert (seed {seed})");
    assert_eq!(map.keys(), vec![0, 10, 20], "order violated (seed {seed})");
    trace
}

/// Two threads insert distinct timestamps into a TimeList; both must be
/// visible afterwards, newest first.
fn run_timelist_concurrent_inserts(seed: u64) -> Vec<u8> {
    let list = Arc::new(TimeList::new());
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for t in 0..2i64 {
        let list = list.clone();
        threads.push(Box::new(move || {
            list.insert(10 + t, payload(t as u8));
        }));
    }
    let trace = explore(seed, threads);
    let mut seen = Vec::new();
    list.scan(|ts, _| {
        seen.push(ts);
        true
    });
    assert_eq!(
        seen,
        vec![11, 10],
        "lost insert or order violation (seed {seed})"
    );
    assert_eq!(list.len(), 2);
    trace
}

/// TTL suffix truncation racing a writer and a reader. The list starts as
/// [6,5,4,3,2,1]; one thread truncates everything below 4, one inserts a
/// fresh newest entry, one scans. Invariants:
/// * the reader's walk is never torn: timestamps strictly descend and every
///   element was genuinely inserted;
/// * entries at/above the cutoff survive;
/// * the use-after-evict detector (armed automatically) proves no walk
///   entered reclaimed memory even though eviction frees concurrently.
fn run_timelist_truncate_race(seed: u64) -> Vec<u8> {
    let list = Arc::new(TimeList::new());
    for ts in 1..=6i64 {
        list.insert(ts, payload(ts as u8));
    }
    let scanned: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let list = list.clone();
        threads.push(Box::new(move || {
            list.truncate(Some(4), None, false);
        }));
    }
    {
        let list = list.clone();
        threads.push(Box::new(move || {
            list.insert(9, payload(9));
        }));
    }
    {
        let list = list.clone();
        let scanned = scanned.clone();
        threads.push(Box::new(move || {
            let mut out = Vec::new();
            list.scan(|ts, data| {
                assert_eq!(data[0] as i64, ts, "payload torn from its timestamp");
                out.push(ts);
                true
            });
            *scanned.lock().unwrap() = out;
        }));
    }
    let trace = explore(seed, threads);

    let scanned = scanned.lock().unwrap();
    assert!(
        scanned.windows(2).all(|w| w[0] > w[1]),
        "torn prefix walk: {scanned:?} (seed {seed})"
    );
    for ts in scanned.iter() {
        assert!(
            (1..=6).contains(ts) || *ts == 9,
            "phantom entry {ts} (seed {seed})"
        );
    }
    // Post-conditions on the final list: 6,5,4 survive, 9 is present, and
    // anything below the cutoff is gone after a final truncation pass.
    list.truncate(Some(4), None, false);
    let mut final_view = Vec::new();
    list.scan(|ts, _| {
        final_view.push(ts);
        true
    });
    assert_eq!(
        final_view,
        vec![9, 6, 5, 4],
        "lost or resurrected entries (seed {seed})"
    );
    trace
}

/// A full-height insert of an already-expired timestamp races the
/// truncation that seals it: the insert publishes at level 0, then links
/// eleven upper levels from the search it did *before* the truncation ran —
/// most of them `head → null` edges that no truncation ever touches, so the
/// stale pair still passes its CAS. A second tall insert of a live
/// timestamp and a seeking reader share the run. Invariant: a sealed node
/// is never linked back into any level — checked structurally
/// (`check_levels` walks every level; with `hold_pin` the main thread's pin
/// keeps every retired node allocated so the walk can look at it) and, when
/// no pin is held, by the use-after-evict detector on the reader's seeks.
fn run_timelist_stale_link_vs_seal(seed: u64, hold_pin: bool) -> Vec<u8> {
    const TALLEST: usize = 12;
    let list = Arc::new(TimeList::new());
    for (ts, height) in [(1i64, 1usize), (2, 2), (3, 1), (4, 2)] {
        list.insert_with_height(ts, payload(ts as u8), height);
    }
    let pin = hold_pin.then(openmldb_storage::sync::epoch::pin);
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let list = list.clone();
        threads.push(Box::new(move || {
            list.truncate(Some(3), None, false);
        }));
    }
    for (ts, height) in [(2i64, TALLEST), (4, 3)] {
        let list = list.clone();
        threads.push(Box::new(move || {
            list.insert_with_height(ts, payload(ts as u8), height);
        }));
    }
    {
        let list = list.clone();
        threads.push(Box::new(move || {
            let mut prev = i64::MAX;
            list.range_visit(0, 3, |ts, data| {
                assert_eq!(data[0] as i64, ts, "payload torn from its timestamp");
                assert!(ts <= prev, "torn walk");
                prev = ts;
                true
            });
        }));
    }
    let trace = explore(seed, threads);

    let levels = list.check_levels();
    assert_eq!(levels[0], list.len(), "len drifted (seed {seed})");
    drop(pin);
    // The racing truncation may have stood down for a linking insert (or
    // run before the expired insert landed); a quiescent pass finishes it.
    list.truncate(Some(3), None, false);
    list.check_levels();
    let mut final_view = Vec::new();
    list.scan(|ts, _| {
        final_view.push(ts);
        true
    });
    assert_eq!(
        final_view,
        vec![4, 4, 3],
        "lost or resurrected entries (seed {seed})"
    );
    trace
}

/// ≥1,000 distinct interleavings of the stale-link/seal race, every one
/// leaving all levels free of sealed nodes.
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn sealed_node_is_never_republished_by_a_stale_upper_level_link() {
    let mut distinct: HashSet<Vec<u8>> = HashSet::new();
    let mut seed = 0u64;
    while distinct.len() < 1_000 {
        assert!(
            seed < 4_000,
            "only {} distinct interleavings over {seed} runs",
            distinct.len()
        );
        distinct.insert(run_timelist_stale_link_vs_seal(
            seed,
            seed.is_multiple_of(2),
        ));
        seed += 1;
    }
}

/// The request-long pin: a reader pins once, seeks and walks list `a`, then
/// list `b`, and only then unpins (the nested pins of the two walks are
/// counter bumps), while one thread truncates `a` below 4 and another
/// inserts into both lists. Invariants: neither walk is torn; the reader
/// sees every entry of `b` (nothing truncates it) in order; and once the
/// run quiesces the evicted payloads of `a` are reclaimed — the outer pin
/// delayed their frees, it did not leak them. The use-after-evict detector
/// screens both walks.
fn run_one_pin_across_two_lists(seed: u64) -> Vec<u8> {
    let lists: [Arc<TimeList>; 2] = [Arc::new(TimeList::new()), Arc::new(TimeList::new())];
    let payloads: Vec<Arc<[u8]>> = (1..=6u8).map(payload).collect();
    let evicted: Vec<std::sync::Weak<[u8]>> = payloads[..3].iter().map(Arc::downgrade).collect();
    for (i, p) in payloads.into_iter().enumerate() {
        lists[0].insert(i as i64 + 1, p);
        lists[1].insert(i as i64 + 1, payload(i as u8 + 1));
    }
    let walks: Arc<Mutex<[Vec<i64>; 2]>> = Arc::default();
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let a = lists[0].clone();
        threads.push(Box::new(move || {
            a.truncate(Some(4), None, false);
        }));
    }
    {
        let lists = lists.clone();
        threads.push(Box::new(move || {
            lists[0].insert(9, payload(9));
            lists[1].insert(9, payload(9));
        }));
    }
    {
        let lists = lists.clone();
        let walks = walks.clone();
        threads.push(Box::new(move || {
            let pin = openmldb_storage::sync::epoch::pin();
            let mut seen: [Vec<i64>; 2] = Default::default();
            for (list, out) in lists.iter().zip(seen.iter_mut()) {
                list.range_visit(2, 8, |ts, data| {
                    assert_eq!(data[0] as i64, ts, "payload torn from its timestamp");
                    out.push(ts);
                    true
                });
            }
            drop(pin);
            *walks.lock().unwrap() = seen;
        }));
    }
    let trace = explore(seed, threads);

    let walks = walks.lock().unwrap();
    for walk in walks.iter() {
        assert!(
            walk.windows(2).all(|w| w[0] > w[1]) && walk.iter().all(|ts| (2..=6).contains(ts)),
            "torn or out-of-range walk: {walk:?} (seed {seed})"
        );
    }
    assert_eq!(walks[1], [6, 5, 4, 3, 2], "`b` is never truncated");
    // (A truncation that met the linking insert left its suffix to this
    // next pass.)
    lists[0].truncate(Some(4), None, false);
    let mut survivors = Vec::new();
    lists[0].scan(|ts, _| {
        survivors.push(ts);
        true
    });
    assert_eq!(survivors, [9, 6, 5, 4], "lost entries (seed {seed})");
    // Other tests of this binary pin the same default collector, which can
    // hold one advance back; keep collecting until the evicted go.
    for _ in 0..1_000 {
        openmldb_storage::sync::epoch::force_collect();
        if evicted.iter().all(|w| w.upgrade().is_none()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        evicted.iter().all(|w| w.upgrade().is_none()),
        "the request-long pin leaked evicted payloads (seed {seed})"
    );
    trace
}

/// The paper-motivated core: ≥1,000 *distinct* interleavings across the
/// SkipMap/TimeList scenarios, every one passing its linearizability
/// assertions and the use-after-evict screen.
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn explorer_covers_1000_distinct_interleavings() {
    // Traces are tagged per scenario: two scenarios can legitimately yield
    // the same thread-id byte sequence without being the same interleaving.
    let mut distinct: HashSet<(u8, Vec<u8>)> = HashSet::new();
    let mut runs = 0usize;
    for seed in 0..400u64 {
        distinct.insert((0, run_skipmap_same_key(seed)));
        distinct.insert((1, run_skipmap_distinct_keys(seed)));
        distinct.insert((2, run_timelist_concurrent_inserts(seed)));
        distinct.insert((3, run_timelist_truncate_race(seed)));
        distinct.insert((4, run_one_pin_across_two_lists(seed)));
        runs += 5;
        if distinct.len() >= 1_000 && seed >= 99 {
            break;
        }
    }
    assert!(
        distinct.len() >= 1_000,
        "only {} distinct interleavings over {} runs",
        distinct.len(),
        runs
    );
}

/// Same seed ⇒ same schedule: failures replay exactly.
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn explorer_is_deterministic_per_seed() {
    for seed in [3u64, 17, 94] {
        let a = run_skipmap_same_key(seed);
        let b = run_skipmap_same_key(seed);
        assert_eq!(a, b, "seed {seed} must replay the same trace");
    }
}

/// Seeded-bug detection: the *old* flush-trigger pattern (check the counter
/// then reset it unconditionally) double-claims under the right
/// interleaving, and the reset loses counter updates. The explorer must
/// find such a schedule — proving the harness can actually catch the bug
/// class the `FlushTrigger` fix addresses.
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn explorer_detects_seeded_check_then_reset_bug() {
    struct BrokenTrigger {
        entries: AtomicUsize,
        threshold: usize,
    }
    impl BrokenTrigger {
        // Replica of the pre-fix logic in DiskEngine::put/flush.
        fn record(&self) -> bool {
            if self.entries.fetch_add(1, Ordering::AcqRel) + 1 >= self.threshold {
                self.entries.store(0, Ordering::Release);
                return true;
            }
            false
        }
    }

    let mut double_claim_seed = None;
    for seed in 0..2_000u64 {
        let trigger = Arc::new(BrokenTrigger {
            entries: AtomicUsize::new(0),
            threshold: 2,
        });
        let claims = Arc::new(RawUsize::new(0));
        let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for _ in 0..3 {
            let trigger = trigger.clone();
            let claims = claims.clone();
            threads.push(Box::new(move || {
                if trigger.record() {
                    claims.fetch_add(1, RawOrdering::SeqCst);
                }
            }));
        }
        explore(seed, threads);
        if claims.load(RawOrdering::SeqCst) >= 2 {
            double_claim_seed = Some(seed);
            break;
        }
    }
    assert!(
        double_claim_seed.is_some(),
        "explorer failed to find the double-flush schedule in the seeded-bug trigger"
    );
}

/// The fixed `FlushTrigger` claim is exclusive under *every* explored
/// schedule: one threshold crossing, one claimer, no lost counter updates.
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn flush_trigger_claim_is_exclusive_under_all_schedules() {
    for seed in 0..300u64 {
        let trigger = Arc::new(FlushTrigger::new(2));
        let claims = Arc::new(RawUsize::new(0));
        let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for _ in 0..3 {
            let trigger = trigger.clone();
            let claims = claims.clone();
            threads.push(Box::new(move || {
                if trigger.record() {
                    claims.fetch_add(1, RawOrdering::SeqCst);
                }
            }));
        }
        explore(seed, threads);
        assert!(
            claims.load(RawOrdering::SeqCst) <= 1,
            "double flush claim under seed {seed}"
        );
        assert_eq!(
            trigger.pending(),
            3,
            "counter update lost under seed {seed}"
        );
    }
}

/// Concurrent TTL eviction racing readers, with reclamation proof: the
/// evicted entries' payloads (tracked through `Weak`s) really are freed by
/// epoch collection once the run quiesces, and no reader ever followed an
/// edge into a freed node (the detector would have failed the run).
#[test]
#[cfg_attr(
    miri,
    ignore = "schedule exploration spawns many OS threads; run natively"
)]
fn ttl_eviction_reclaims_while_readers_race() {
    for seed in 0..60u64 {
        let list = Arc::new(TimeList::new());
        let payloads: Vec<Arc<[u8]>> = (1..=6u8).map(payload).collect();
        let weaks: Vec<std::sync::Weak<[u8]>> = payloads.iter().map(Arc::downgrade).collect();
        for (i, p) in payloads.into_iter().enumerate() {
            list.insert(i as i64 + 1, p);
        }
        let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let list = list.clone();
            threads.push(Box::new(move || {
                list.truncate(Some(4), None, false);
            }));
        }
        for _ in 0..2 {
            let list = list.clone();
            threads.push(Box::new(move || {
                let mut prev = i64::MAX;
                list.scan(|ts, data| {
                    assert_eq!(data[0] as i64, ts, "torn payload read");
                    assert!(ts < prev, "torn prefix walk");
                    prev = ts;
                    true
                });
            }));
        }
        explore(seed, threads);

        // After the run the quarantined nodes were freed for real; drive
        // the epoch collector and verify through the Weak handles. Other
        // tests of this binary pin the same default collector, which can
        // hold one advance back; keep collecting until the evicted go.
        for _ in 0..1_000 {
            openmldb_storage::sync::epoch::force_collect();
            if weaks[..3].iter().all(|w| w.upgrade().is_none()) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for (i, w) in weaks.iter().enumerate() {
            let ts = i as i64 + 1;
            if ts < 4 {
                assert!(
                    w.upgrade().is_none(),
                    "evicted payload ts={ts} not reclaimed (seed {seed})"
                );
            } else {
                assert!(
                    w.upgrade().is_some(),
                    "live payload ts={ts} freed (seed {seed})"
                );
            }
        }
    }
}
