//! Batched binlog delivery under injected `BinlogDelivery` kills: a kill
//! anywhere inside a delivered batch leaves the listener's cursor exactly
//! on the killed entry — everything before it applied once, nothing after
//! it applied — and `flush` heals the gap.
//!
//! This suite runs in its own process on purpose: the chaos plan is
//! global, and the test reconciles the injector's per-point counters with
//! what its one listener saw. Without the `chaos` cargo feature no kill
//! fires and the test checks the clean path.

use std::sync::Arc;

use openmldb_chaos::{InjectionPoint, Plan};
use openmldb_storage::{LogEntry, Replicator};
use openmldb_types::KeyValue;
use parking_lot::Mutex;

/// The CI seed triple, same as the workspace resilience suite.
const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

const N: u64 = 10_000;

#[test]
fn kills_inside_a_batch_leave_the_cursor_on_the_killed_entry() {
    for seed in SEEDS {
        openmldb_chaos::install(Plan::new(seed).kill_rate(InjectionPoint::BinlogDelivery, 0.01));
        let r = Replicator::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        r.subscribe(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));
        let key: Arc<[KeyValue]> = Arc::from(vec![KeyValue::Int(1)].into_boxed_slice());
        let data: Arc<[u8]> = Arc::from(vec![0u8; 8].into_boxed_slice());
        for i in 0..N {
            r.append_entry("t".into(), key.clone(), i as i64, data.clone());
        }
        // Quiesce the worker without healing: shutdown joins it once every
        // wake-up queued before the stop has had its delivery round.
        r.shutdown();
        let stats = openmldb_chaos::stats(InjectionPoint::BinlogDelivery);
        let applied = seen.lock().len() as u64;
        assert_eq!(
            *seen.lock(),
            (0..applied).collect::<Vec<u64>>(),
            "seed {seed:#x}: applied state is a contiguous prefix, each entry once"
        );
        assert_eq!(
            r.len() - r.undelivered(),
            applied,
            "seed {seed:#x}: the cursor sits on the first entry not applied"
        );
        if openmldb_chaos::enabled() {
            // Every attempt either applied the entry under the cursor or
            // was killed on it: a kill never moves the cursor, never skips.
            assert_eq!(stats.calls, applied + stats.kills, "seed {seed:#x}");
            assert!(
                stats.kills > 0,
                "seed {seed:#x}: 1% of 10k attempts must kill"
            );
        } else {
            assert_eq!(applied, N);
        }

        r.flush();
        openmldb_chaos::reset();
        assert_eq!(
            *seen.lock(),
            (0..N).collect::<Vec<u64>>(),
            "seed {seed:#x}: flush heals every gap, in order, exactly once"
        );
        assert_eq!(r.undelivered(), 0, "seed {seed:#x}");
    }
}
