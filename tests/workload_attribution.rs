//! Property-based checks for the workload-attribution primitives: the
//! SpaceSaving heavy-hitter sketch against an exact-count oracle, and the
//! bounded-cardinality label registry under fuzzed deployment churn. Plus the
//! serving path's feed into the process-wide hot-keys sketch — the only test
//! in this binary that serves requests, so the sketch holds its offers alone.

use std::collections::HashMap;

use openmldb_obs::{LabelRegistry, LabeledCounter, SpaceSaving, MAX_LABEL_SLOTS, OVERFLOW_LABEL};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// SpaceSaving's classic guarantees versus an exact HashMap count:
    /// `estimate - err <= true <= estimate` for every monitored key, and
    /// every key whose true count exceeds `observed / capacity` is
    /// monitored (top-K membership).
    #[test]
    fn spacesaving_tracks_exact_counts(
        // Key space deliberately larger than capacity; low ids are drawn
        // with the same probability as high ones, but the stream length
        // lets some keys dominate by chance.
        stream in proptest::collection::vec(0u32..40, 50..600),
        capacity in 4usize..16,
    ) {
        // Under obs-off the sketch is compiled to a no-op and observes
        // nothing; the guarantees below only apply with obs enabled.
        if !openmldb_obs::enabled() {
            return Ok(());
        }
        let sketch = SpaceSaving::new(capacity);
        let mut exact: HashMap<u32, u64> = HashMap::new();
        for k in &stream {
            sketch.offer(&k.to_string());
            *exact.entry(*k).or_insert(0) += 1;
        }
        prop_assert_eq!(sketch.observed(), stream.len() as u64);

        let monitored = sketch.top(capacity);
        prop_assert!(monitored.len() <= capacity);
        for e in &monitored {
            let true_count = exact.get(&e.key.parse::<u32>().unwrap()).copied().unwrap_or(0);
            prop_assert!(
                e.count >= true_count,
                "estimate {} underestimates true {} for {}", e.count, true_count, e.key
            );
            prop_assert!(
                e.count - e.err <= true_count,
                "lower bound {} exceeds true {} for {}", e.count - e.err, true_count, e.key
            );
        }
        // Guaranteed membership: anything heavier than observed/capacity
        // cannot have been evicted.
        let threshold = stream.len() as u64 / capacity as u64;
        for (k, &n) in &exact {
            if n > threshold {
                prop_assert!(
                    monitored.iter().any(|e| e.key == k.to_string()),
                    "key {k} with count {n} > {threshold} must be monitored"
                );
            }
        }
    }

    /// Label-registry overflow under deployment churn: the registry never
    /// exceeds its slot budget, every name past the budget resolves to the
    /// shared `__other` slot, and a labeled counter's per-slot totals still
    /// reconcile exactly with the number of increments.
    #[test]
    fn label_registry_overflow_reconciles(
        names in proptest::collection::vec("dep_[a-e]{1,6}", 1..300),
    ) {
        // Under obs-off resolution and counting are no-ops; the exact
        // reconciliation below only applies with obs enabled.
        if !openmldb_obs::enabled() {
            return Ok(());
        }
        // Fresh registry per case (the global one is shared process-wide).
        let reg = LabelRegistry::new();
        let counter = LabeledCounter::new();
        let mut distinct: Vec<String> = Vec::new();
        for name in &names {
            let id = reg.resolve(name);
            counter.inc(id);
            if !distinct.contains(name) {
                distinct.push(name.clone());
            }
            // Slot 0 is reserved for the overflow label; dense names start
            // at slot 1, so the budget admits MAX_LABEL_SLOTS - 1 names.
            let admitted = distinct
                .iter()
                .position(|n| n == name)
                .map(|p| p + 1 < MAX_LABEL_SLOTS)
                .unwrap_or(false);
            prop_assert_eq!(id.is_overflow(), !admitted, "name {}", name);
        }
        prop_assert!(reg.len() <= MAX_LABEL_SLOTS);
        // Exact reconciliation: nothing is lost to the overflow slot.
        prop_assert_eq!(counter.total(), names.len() as u64);
        let by_name: u64 = reg
            .names()
            .iter()
            .filter(|n| n.as_str() != OVERFLOW_LABEL)
            .filter_map(|n| reg.lookup(n))
            .map(|id| counter.value(id))
            .sum();
        let overflow = counter.value(openmldb_obs::LabelId::OVERFLOW);
        prop_assert_eq!(by_name + overflow, names.len() as u64);
    }
}

/// 10k distinct deployment names: memory stays bounded at the slot budget
/// and every post-budget increment lands in `__other` (the acceptance
/// bound from the issue, at integration level).
#[test]
fn ten_thousand_names_stay_bounded() {
    let reg = LabelRegistry::new();
    let counter = LabeledCounter::new();
    for i in 0..10_000 {
        let id = reg.resolve(&format!("churn_{i}"));
        counter.inc(id);
    }
    // The memory bound holds in every configuration; the exact counts
    // only exist when obs is compiled in.
    assert!(reg.len() <= MAX_LABEL_SLOTS);
    if openmldb_obs::enabled() {
        assert_eq!(counter.total(), 10_000);
        assert!(reg.overflow_resolutions() >= 10_000 - MAX_LABEL_SLOTS as u64);
    }
}

/// Serving feeds the process-wide hot-keys sketch with the one request in
/// `SAMPLE_EVERY` each thread samples, weighted by the interval: 2 × 64
/// requests on one partition key leave one entry for that deployment whose
/// count is a non-zero multiple of 64. Under `obs-off` nothing is offered.
#[test]
fn serving_feeds_the_hot_keys_sketch() {
    use openmldb::{Database, Row, Value};
    use openmldb_obs::flight::SAMPLE_EVERY;

    let db = Database::new();
    db.execute("CREATE TABLE hk (k BIGINT, v DOUBLE, ts TIMESTAMP, INDEX(KEY=k, TS=ts))")
        .unwrap();
    for i in 0..16i64 {
        let row = Row::new(vec![
            Value::Bigint(7),
            Value::Double(i as f64),
            Value::Timestamp(i * 10),
        ]);
        db.insert_row("hk", &row).unwrap();
    }
    db.deploy(
        "DEPLOY hot_keys_probe AS SELECT k, sum(v) OVER w AS s FROM hk \
         WINDOW w AS (PARTITION BY k ORDER BY ts ROWS_RANGE BETWEEN 1s PRECEDING AND CURRENT ROW)",
    )
    .unwrap();
    for i in 0..2 * SAMPLE_EVERY as i64 {
        let request = Row::new(vec![
            Value::Bigint(7),
            Value::Double(1.0),
            Value::Timestamp(200 + i),
        ]);
        db.request_readonly("hot_keys_probe", &request).unwrap();
    }

    let entries: Vec<_> = SpaceSaving::hot_keys()
        .top(usize::MAX)
        .into_iter()
        .filter(|e| e.key.starts_with("hot_keys_probe:"))
        .collect();
    if !openmldb_obs::enabled() {
        assert!(entries.is_empty(), "obs-off offers nothing: {entries:?}");
        return;
    }
    assert_eq!(entries.len(), 1, "one partition key served: {entries:?}");
    let e = &entries[0];
    assert!(
        e.count > 0 && e.count % SAMPLE_EVERY == 0 && e.err == 0,
        "sampled offers weigh {SAMPLE_EVERY} each: {e:?}"
    );
}
