//! Binlog-driven table replication — the availability substrate the paper
//! delegates to ZooKeeper-coordinated tablet replicas (Section 3.1, and the
//! `n_replica` factor of the Section 8.1 memory model).
//!
//! A [`ReplicaTable`] is a follower [`MemTable`] fed exactly-once from a
//! leader's binlog: `subscribe_with_catchup` replays the leader's history
//! synchronously and applies every later write asynchronously, in offset
//! order. Readers can be pointed at the replica at any time (eventual
//! consistency; [`ReplicaTable::sync`] blocks until it has caught up) — on
//! leader loss, the replica already holds the full dataset and serves reads
//! immediately, which is the failover behaviour the paper gets from its
//! ZooKeeper deployment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use openmldb_chaos::InjectionPoint;
use openmldb_types::{CompactCodec, Result, RowCodec, Schema};

use crate::disk_table::DataTable;
#[cfg(test)]
use crate::table::IndexSpec;
use crate::table::MemTable;

/// Bounded retries for an injected transient fault inside the apply
/// closure; a real (non-transient) failure is counted immediately.
const APPLY_RETRIES: u32 = 3;

/// A follower table kept in sync with a leader through its binlog.
pub struct ReplicaTable {
    follower: Arc<MemTable>,
    leader_replicator: Arc<crate::binlog::Replicator>,
    /// Entries whose decode or apply failed — surfaced instead of silently
    /// dropped, because a follower missing rows is not a replica.
    apply_errors: Arc<AtomicU64>,
}

impl ReplicaTable {
    /// Create a replica of `leader` and start following its binlog. The
    /// leader's current history is applied synchronously before this
    /// returns; later writes stream in asynchronously.
    pub fn follow(leader: &dyn DataTable) -> Result<Self> {
        let schema: Schema = leader.schema().clone();
        let follower = Arc::new(MemTable::new(
            format!("{}_replica", leader.name()),
            schema.clone(),
            leader.index_specs(),
        )?);
        let codec = CompactCodec::new(schema);
        let target = follower.clone();
        let apply_errors: Arc<AtomicU64> = Arc::default();
        let errors = apply_errors.clone();
        leader
            .replicator()
            .subscribe_with_catchup(Arc::new(move |entry| {
                let mut outcome = openmldb_chaos::inject(InjectionPoint::ReplicaApply)
                    .and_then(|()| codec.decode(&entry.data))
                    .and_then(|row| target.put(&row));
                // Injected transient faults get a bounded retry; rows the
                // leader accepted are decodable and the follower has no
                // memory cap, so persistent failure here is a real defect
                // worth surfacing, not noise.
                let mut attempts = 0;
                while attempts < APPLY_RETRIES && matches!(&outcome, Err(e) if e.is_transient()) {
                    attempts += 1;
                    outcome = codec.decode(&entry.data).and_then(|row| target.put(&row));
                }
                if outcome.is_err() {
                    // Never panic here: this runs on the binlog delivery
                    // worker, and tearing it down would stall every other
                    // subscriber. Count, expose, keep going.
                    // analysis:allow(relaxed-ordering): statistics counter.
                    errors.fetch_add(1, Ordering::Relaxed);
                    crate::metrics::replica_apply_errors().inc();
                }
            }));
        Ok(ReplicaTable {
            follower,
            leader_replicator: leader.replicator().clone(),
            apply_errors,
        })
    }

    /// Block until every write the leader has accepted so far is applied,
    /// then publish the remaining lag (0 on a healthy follower) to obs.
    pub fn sync(&self) {
        self.leader_replicator.flush();
        crate::metrics::replica_lag().set(self.lag() as f64);
    }

    /// The follower table, servable like any other table.
    pub fn table(&self) -> Arc<MemTable> {
        self.follower.clone()
    }

    /// Sync-then-promote: catch the follower up with the leader's full
    /// binlog and hand it out as the new serving table. This is the read
    /// failover path — after a leader fault the caller swaps this table in
    /// and keeps answering requests.
    pub fn promote(&self) -> Arc<MemTable> {
        self.sync();
        self.follower.clone()
    }

    /// Rows applied so far.
    pub fn applied_rows(&self) -> usize {
        self.follower.row_count()
    }

    /// Entries the apply closure failed on (decode or put), after retries.
    pub fn apply_errors(&self) -> u64 {
        self.apply_errors.load(Ordering::Acquire)
    }

    /// Entries the leader has accepted but the follower has not applied.
    /// Apply errors are counted as permanently lagged, never silently
    /// caught up.
    pub fn lag(&self) -> u64 {
        self.leader_replicator
            .len()
            .saturating_sub(self.applied_rows() as u64)
    }
}

/// Convenience: replicate a leader `n` times (the `n_replica` deployments of
/// Section 8.1 — each replica is a full data copy, which is exactly why the
/// memory model multiplies by it).
pub fn replicate(leader: &dyn DataTable, n: usize) -> Result<Vec<ReplicaTable>> {
    (0..n).map(|_| ReplicaTable::follow(leader)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Ttl;
    use openmldb_types::{DataType, KeyValue, Row, Value};

    fn leader() -> MemTable {
        MemTable::new(
            "events",
            Schema::from_pairs(&[
                ("k", DataType::Bigint),
                ("v", DataType::Double),
                ("ts", DataType::Timestamp),
            ])
            .unwrap(),
            vec![IndexSpec {
                name: "by_k".into(),
                key_cols: vec![0],
                ts_col: Some(2),
                ttl: Ttl::Unlimited,
            }],
        )
        .unwrap()
    }

    fn row(k: i64, v: f64, ts: i64) -> Row {
        Row::new(vec![
            Value::Bigint(k),
            Value::Double(v),
            Value::Timestamp(ts),
        ])
    }

    #[test]
    fn replica_catches_up_and_follows() {
        let leader = leader();
        // History before the replica exists...
        for i in 0..50 {
            leader.put(&row(i % 3, i as f64, i * 10)).unwrap();
        }
        let replica = ReplicaTable::follow(&leader).unwrap();
        // ...and writes after it attached.
        for i in 50..100 {
            leader.put(&row(i % 3, i as f64, i * 10)).unwrap();
        }
        replica.sync();
        assert_eq!(
            replica.applied_rows(),
            100,
            "catch-up + live stream, exactly once"
        );
        // Reads on the replica match the leader.
        let key = [KeyValue::Int(1)];
        assert_eq!(
            leader.range_projected(0, &key, 0, 10_000, None).unwrap(),
            replica
                .table()
                .range_projected(0, &key, 0, 10_000, None)
                .unwrap()
        );
    }

    #[test]
    fn failover_replica_serves_after_leader_drop() {
        let leader = leader();
        for i in 0..20 {
            leader.put(&row(1, i as f64, i)).unwrap();
        }
        let replica = ReplicaTable::follow(&leader).unwrap();
        replica.sync();
        let serving = replica.table();
        drop(leader); // the "tablet" dies
        let latest = serving.latest(0, &[KeyValue::Int(1)]).unwrap().unwrap();
        assert_eq!(latest[1], Value::Double(19.0), "replica keeps serving");
    }

    #[test]
    fn multiple_replicas_stay_identical() {
        let leader = leader();
        let replicas = replicate(&leader, 3).unwrap();
        for i in 0..200 {
            leader.put(&row(i % 5, i as f64, i)).unwrap();
        }
        for r in &replicas {
            r.sync();
            assert_eq!(r.applied_rows(), 200);
        }
        let key = [KeyValue::Int(2)];
        let reference = replicas[0]
            .table()
            .range_projected(0, &key, 0, 10_000, None)
            .unwrap();
        for r in &replicas[1..] {
            assert_eq!(
                r.table().range_projected(0, &key, 0, 10_000, None).unwrap(),
                reference
            );
        }
    }

    #[test]
    fn promote_syncs_then_serves() {
        let leader = leader();
        let replica = ReplicaTable::follow(&leader).unwrap();
        for i in 0..100 {
            leader.put(&row(2, i as f64, i)).unwrap();
        }
        // promote = sync + hand out the follower: no sleep, no flush by the
        // caller — the promoted table must already hold everything.
        let serving = replica.promote();
        drop(leader);
        assert_eq!(serving.row_count(), 100);
        let latest = serving.latest(0, &[KeyValue::Int(2)]).unwrap().unwrap();
        assert_eq!(latest[1], Value::Double(99.0));
        assert_eq!(replica.lag(), 0);
        assert_eq!(replica.apply_errors(), 0);
    }

    #[test]
    fn corrupt_entries_are_counted_not_silently_dropped() {
        let leader = leader();
        let replica = ReplicaTable::follow(&leader).unwrap();
        for i in 0..10 {
            leader.put(&row(1, i as f64, i)).unwrap();
        }
        // A payload the codec cannot decode: the apply must fail loudly
        // (counted in apply_errors + obs) instead of vanishing.
        leader.replicator().append_entry(
            "events".into(),
            Arc::from(vec![KeyValue::Int(1)].into_boxed_slice()),
            11,
            Arc::from(vec![0xFFu8; 2].into_boxed_slice()),
        );
        for i in 12..20 {
            leader.put(&row(1, i as f64, i)).unwrap();
        }
        replica.sync();
        assert_eq!(replica.applied_rows(), 18, "good rows all applied");
        assert_eq!(replica.apply_errors(), 1, "bad entry counted");
        assert_eq!(replica.lag(), 1, "lag exposes the unapplied entry");
    }

    #[test]
    fn replica_memory_matches_n_replica_model_intuition() {
        // Two replicas ≈ 2× the leader's memory — the n_replica factor.
        let leader = leader();
        for i in 0..500 {
            leader.put(&row(i % 7, i as f64, i)).unwrap();
        }
        let replica = ReplicaTable::follow(&leader).unwrap();
        replica.sync();
        let l = leader.mem_used() as f64;
        let r = replica.table().mem_used() as f64;
        assert!((r / l - 1.0).abs() < 0.05, "leader {l} vs replica {r}");
    }
}
