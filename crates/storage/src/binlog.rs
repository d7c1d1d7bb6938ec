//! Binlog / replicator (paper Section 5.1, "Aggregator Update").
//!
//! Every write is appended to a binlog whose `binlog_offset` increases
//! monotonically — appends happen under the replicator lock, so no
//! concurrent `Put` can interleave a conflicting offset. Subscribed update
//! closures (the pre-aggregation maintainers) run *asynchronously* on a
//! background worker, decoupling them from the data-insertion fast path.
//! `replay` re-applies entries from an offset for failure recovery.
//!
//! ## Batched delivery
//!
//! An append with a subscriber queues a wake-up, not a unit of work. The
//! worker drains every queued wake-up, then hands each listener the whole
//! range `[cursor, len)`: it copies the range out of the log one bounded
//! chunk per lock hold and applies the chunk with the lock released, so
//! appenders wait on a chunk copy, never on a closure. An append with no
//! subscriber queues nothing: that is decided under the log lock, where
//! `subscribe` fixes its boundary, so no listener is ever owed such an
//! entry.
//!
//! ## Delivery invariant
//!
//! Each listener owns a delivery cursor (`next_offset`) that only advances
//! after its closure ran: a subscriber's applied state is **always a
//! contiguous prefix of the log**, never a set with holes. A delivery the
//! fault injector kills ([`openmldb_chaos::InjectionPoint::BinlogDelivery`])
//! simply leaves the cursor behind; the gap is healed from the durable log
//! on the next delivery round or, at the latest, by [`Replicator::flush`].
//! Combined with offset-dense appends this gives exactly-once delivery even
//! under injected kills.
//!
//! ## Shutdown
//!
//! [`Replicator::shutdown`] stops the worker with a clean happens-before
//! edge: every append that raced *ahead* of the stop is delivered before
//! the worker exits; every append that arrived *after* is counted in
//! [`Replicator::undelivered`] — provably not acknowledged, but still
//! durable in the log for `replay`/`flush` recovery. No subscriber is ever
//! left half-applied. `undelivered` is computed from the listener cursors
//! themselves (log length minus the laggiest cursor), so once a heal —
//! `flush`, or a recovery replay into a fresh process — catches every
//! subscriber up, the count returns to zero instead of reporting phantom
//! entries forever.
//!
//! ## Durability
//!
//! The log itself is process memory; [`Replicator::attach_wal`] mirrors it
//! into a checksummed on-disk [`Wal`](crate::wal::Wal). The mirror append
//! (a record framed into the WAL's group-commit buffer, no syscall)
//! happens inside the same critical section that assigns the offset, so
//! WAL order is exactly binlog order and the on-disk log is always a dense
//! prefix of the in-memory one. A WAL failure sticks in the WAL and is
//! returned by every later [`Replicator::sync_wal`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use openmldb_chaos::InjectionPoint;
use openmldb_types::{KeyValue, Result};

use crate::wal::Wal;

/// One binlog record: a row insertion into a table.
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub offset: u64,
    pub table: Arc<str>,
    /// The primary index key of the inserted row.
    pub key: Arc<[KeyValue]>,
    pub ts: i64,
    /// Encoded row payload.
    pub data: Arc<[u8]>,
}

/// Closure invoked asynchronously for each appended entry.
pub type UpdateClosure = Arc<dyn Fn(&LogEntry) + Send + Sync>;

/// A subscriber plus its delivery cursor: the next offset it has not yet
/// applied. The cursor starts at the subscription boundary (asynchronous
/// delivery covers only entries appended *after* subscription; catch-up
/// replay covers the prefix) and only moves forward after the closure ran.
struct Listener {
    /// The cursor. Only the holder of `delivery` advances it, one entry
    /// at a time after the closure ran; readers load it without waiting
    /// on a delivery in progress.
    next_offset: AtomicU64,
    /// Serializes deliveries to this listener: a worker round and a
    /// `flush` heal never apply entries concurrently.
    delivery: Mutex<()>,
    f: UpdateClosure,
}

/// Entries one delivery copies out of the log per lock hold: bounds how
/// long an appender can wait on the log lock behind a delivery, and the
/// copy a delivery holds.
const DELIVERY_CHUNK: usize = 256;

impl Listener {
    /// Deliver log entries `[next_offset, upto)` in order, advancing the
    /// cursor after each successful application. The log lock is taken
    /// once per chunk of at most [`DELIVERY_CHUNK`] entries, which are
    /// cloned out and applied after the lock is released. An injected
    /// delivery kill drops the current attempt: with `retry_kills` the same
    /// entry is retried (flush-path healing must converge), without it the
    /// delivery ends with the cursor on the killed entry and the gap
    /// persists until the next round (worker path).
    fn deliver_up_to(&self, log: &Mutex<Vec<LogEntry>>, upto: u64, retry_kills: bool) {
        let _delivering = self.delivery.lock();
        let mut next = self.next_offset.load(Ordering::Acquire);
        let mut chunk: Vec<LogEntry> = Vec::new();
        while next < upto {
            chunk.clear();
            {
                let log = log.lock();
                let from = next as usize;
                let to = log.len().min(upto as usize).min(from + DELIVERY_CHUNK);
                match log.get(from..to) {
                    Some(entries) if !entries.is_empty() => chunk.extend_from_slice(entries),
                    _ => break,
                }
            }
            for entry in &chunk {
                while openmldb_chaos::inject_kill(InjectionPoint::BinlogDelivery) {
                    crate::metrics::faults_injected().inc();
                    if !retry_kills {
                        return;
                    }
                }
                (self.f)(entry);
                next += 1;
                self.next_offset.store(next, Ordering::Release);
            }
        }
    }
}

enum WorkerMsg {
    /// Entries were appended for at least one listener.
    Wake,
    Stop,
}

/// Take `first` and every wake-up queued behind it: the number of
/// wake-ups, and whether a `Stop` ended the drain (nothing is queued
/// behind a `Stop`).
fn drain_wakes(first: WorkerMsg, rx: &Receiver<WorkerMsg>) -> (u64, bool) {
    let mut wakes = 0;
    let mut msg = Some(first);
    while let Some(m) = msg {
        match m {
            WorkerMsg::Wake => wakes += 1,
            WorkerMsg::Stop => return (wakes, true),
        }
        msg = rx.try_recv().ok();
    }
    (wakes, false)
}

/// Count `n` appends as handled and wake `flush` waiters.
fn mark_processed(processed: &(Mutex<u64>, Condvar), n: u64) {
    let (lock, cv) = processed;
    *lock.lock() += n;
    cv.notify_all();
}

/// Append-only replicated log with asynchronous subscriber execution.
pub struct Replicator {
    /// The log itself; the lock also serializes offset assignment. Shared
    /// with the worker thread so delivery (and gap healing) reads entries
    /// straight from the durable log.
    log: Arc<Mutex<Vec<LogEntry>>>,
    listeners: Arc<RwLock<Vec<Arc<Listener>>>>,
    tx: Sender<WorkerMsg>,
    /// Kept so post-shutdown drains can observe what the worker never saw.
    rx: Receiver<WorkerMsg>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Entries appended (== log length once each append completes). Shared
    /// with the worker, which delivers up to it each round.
    appended: Arc<AtomicU64>,
    /// Appends handled: delivered by a worker round, owed to no listener,
    /// or accounted after shutdown. `flush` waits for it to reach `len`.
    processed: Arc<(Mutex<u64>, Condvar)>,
    /// Whether any listener is registered. Written by `subscribe` and read
    /// by `append_entry`, both under the log lock.
    subscribed: AtomicBool,
    /// Appends that arrived after shutdown while no listener was registered:
    /// acknowledged to nobody, and with no cursor to witness the lag.
    disowned: AtomicU64,
    /// Optional durable mirror; written under the log lock so the on-disk
    /// record order equals the binlog offset order.
    wal: Mutex<Option<Arc<Wal>>>,
    /// Guards the append→send window against `shutdown`: appenders hold a
    /// read lock around the send, shutdown flips the flag under the write
    /// lock, so every pre-stop send is in the channel before `Stop`.
    stopped: RwLock<bool>,
}

impl Default for Replicator {
    fn default() -> Self {
        Self::new()
    }
}

impl Replicator {
    pub fn new() -> Self {
        let (tx, rx) = channel::unbounded::<WorkerMsg>();
        let log: Arc<Mutex<Vec<LogEntry>>> = Arc::default();
        let listeners: Arc<RwLock<Vec<Arc<Listener>>>> = Arc::default();
        let processed: Arc<(Mutex<u64>, Condvar)> = Arc::new((Mutex::new(0), Condvar::new()));
        let appended: Arc<AtomicU64> = Arc::default();
        let worker = {
            let log = log.clone();
            let listeners = listeners.clone();
            let processed = processed.clone();
            let appended = appended.clone();
            let rx = rx.clone();
            std::thread::spawn(move || {
                while let Ok(first) = rx.recv() {
                    // One round: take every queued wake-up, deliver the
                    // whole log to every listener, count the drained
                    // appends handled at once.
                    let (wakes, stop) = drain_wakes(first, &rx);
                    if wakes > 0 {
                        // Each drained wake-up was sent after its append was
                        // counted, so `[cursor, upto)` covers them all.
                        let upto = appended.load(Ordering::Acquire);
                        // Snapshot the listener set first, then deliver
                        // without holding the registry lock: delivery takes
                        // listener → log locks, subscription takes log →
                        // registry, and keeping the registry out of the
                        // delivery section breaks any cycle between the two
                        // orders.
                        // analysis:allow(lock-order): the registry read guard is a
                        // temporary dropped at this statement, before delivery.
                        let snapshot: Vec<_> = listeners.read().iter().cloned().collect();
                        for l in snapshot {
                            l.deliver_up_to(&log, upto, false);
                        }
                        mark_processed(&processed, wakes);
                    }
                    if stop {
                        break;
                    }
                }
            })
        };
        Replicator {
            log,
            listeners,
            tx,
            rx,
            worker: Mutex::new(Some(worker)),
            appended,
            processed,
            subscribed: AtomicBool::new(false),
            disowned: AtomicU64::new(0),
            wal: Mutex::new(None),
            stopped: RwLock::new(false),
        }
    }

    /// Append an entry; the assigned offset is returned. When a listener is
    /// subscribed the worker is woken to deliver it asynchronously
    /// (`update_aggr` closures); otherwise nothing is queued.
    pub fn append_entry(
        &self,
        table: Arc<str>,
        key: Arc<[KeyValue]>,
        ts: i64,
        data: Arc<[u8]>,
    ) -> u64 {
        // Latency-only injection point: appends are infallible by contract
        // (the write is already accepted), so an injected error here is
        // deliberately discarded — plans should only arm latency.
        let _ = openmldb_chaos::inject(InjectionPoint::BinlogAppend);
        // Offset assignment and the append are one critical section —
        // the monotonic `binlog_offset` invariant of Section 5.1.
        let (offset, subscribed) = {
            let mut log = self.log.lock();
            let offset = log.len() as u64;
            let entry = LogEntry {
                offset,
                table,
                key,
                ts,
                data,
            };
            if let Some(wal) = self.wal.lock().as_ref() {
                // Durable mirror under the same critical section that
                // assigned the offset: WAL order == binlog order. A failure
                // is not surfaced here (the in-memory append is already
                // accepted): the WAL keeps it and returns it from every
                // later sync, so the next `sync_wal` reports it.
                let _ = wal.append(&entry);
            }
            log.push(entry);
            // Read where `subscribe` fixes its boundary: an entry appended
            // while nobody listens is owed to no listener, ever.
            (offset, self.subscribed.load(Ordering::Acquire))
        };
        if !subscribed {
            // Handled before it is counted appended, so a `flush` that sees
            // it in `len` never waits on it: no wake-up needed.
            *self.processed.0.lock() += 1;
            self.appended.fetch_add(1, Ordering::Release);
            if *self.stopped.read() {
                self.disowned.fetch_add(1, Ordering::Release);
                crate::metrics::binlog_undelivered().inc();
            }
            return offset;
        }
        self.appended.fetch_add(1, Ordering::Release);
        let stopped = self.stopped.read();
        if *stopped {
            // The worker is gone: the entry is durable in the log but will
            // not be acknowledged to any listener until a flush/replay.
            crate::metrics::binlog_undelivered().inc();
            mark_processed(&self.processed, 1);
        } else {
            // Wake the worker while holding the read lock: `shutdown`
            // cannot interleave its `Stop` before this send.
            let _ = self.tx.send(WorkerMsg::Wake);
        }
        offset
    }

    /// Subscribe an update closure, invoked asynchronously for every entry
    /// appended *from now on*. Entries already in the log (even if still in
    /// the delivery queue) are not delivered.
    pub fn subscribe(&self, f: UpdateClosure) {
        // Hold the log lock so no offset is assigned while the boundary is
        // read — the subscription point is exact.
        let log = self.log.lock();
        self.listeners.write().push(Arc::new(Listener {
            next_offset: AtomicU64::new(log.len() as u64),
            delivery: Mutex::new(()),
            f,
        }));
        self.subscribed.store(true, Ordering::Release);
    }

    /// Subscribe with catch-up: entries already in the log are replayed
    /// inline (synchronously, under the log lock) and every later entry is
    /// delivered asynchronously — each entry reaches `f` exactly once.
    /// This is the deploy-time aggregator bootstrap of Section 5.1.
    pub fn subscribe_with_catchup(&self, f: UpdateClosure) {
        let log = self.log.lock();
        for entry in log.iter() {
            f(entry);
        }
        self.listeners.write().push(Arc::new(Listener {
            next_offset: AtomicU64::new(log.len() as u64),
            delivery: Mutex::new(()),
            f,
        }));
        self.subscribed.store(true, Ordering::Release);
    }

    /// Number of appended entries (== next offset).
    pub fn len(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries durable in the log but not yet acknowledged by the laggiest
    /// subscriber — computed from the listener cursors, so a heal (`flush`,
    /// or a recovery replay into a fresh process followed by resubscribe)
    /// brings the count back to zero instead of leaving a phantom tally of
    /// long-since-recovered appends. With no listeners registered it falls
    /// back to the count of post-shutdown appends nobody ever witnessed.
    pub fn undelivered(&self) -> u64 {
        let len = self.len();
        // analysis:allow(lock-order): the registry read guard is a temporary
        // dropped at the snapshot statement, before any cursor lock.
        let snapshot: Vec<Arc<Listener>> = self.listeners.read().iter().cloned().collect();
        if snapshot.is_empty() {
            return self.disowned.load(Ordering::Acquire);
        }
        snapshot
            .iter()
            .map(|l| len.saturating_sub(l.next_offset.load(Ordering::Acquire)))
            .max()
            .unwrap_or(0)
    }

    /// Mirror the log into a durable WAL. Entries already in the log that
    /// the WAL does not hold (a recovery snapshot can cover more history
    /// than the surviving WAL suffix) are re-appended first, so the on-disk
    /// log is again a dense offset prefix of the binlog, then every future
    /// append is written through inside the offset-assignment critical
    /// section.
    pub fn attach_wal(&self, wal: Arc<Wal>) -> Result<()> {
        // analysis:allow(lock-order): `wal.sync()` below is `Wal::sync`,
        // which only takes the WAL's private state lock — the analyzer
        // resolves the method by name alone and conflates it with
        // `ReplicaTable::sync`, which does reach listener cursors.
        let log = self.log.lock();
        for entry in log.iter().skip(wal.next_offset() as usize) {
            wal.append(entry)?;
        }
        wal.sync()?;
        *self.wal.lock() = Some(wal);
        Ok(())
    }

    /// The attached durable mirror, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.lock().clone()
    }

    /// Force the attached WAL's group-commit buffer to disk. No-op without
    /// an attached WAL. Once the WAL has failed (an append or a sync), this
    /// returns that failure every time.
    pub fn sync_wal(&self) -> Result<()> {
        // analysis:allow(lock-order): the wal guard is a temporary dropped
        // at the clone statement, before the sync call — and `w.sync()` is
        // `Wal::sync` (private state lock), not `ReplicaTable::sync`.
        let wal = self.wal.lock().clone();
        match wal {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Block until every appended entry has been applied by all listeners.
    ///
    /// After the asynchronous pipeline has processed everything, any
    /// delivery gaps (injected kills, post-shutdown appends) are healed
    /// inline from the durable log, so on return every listener has applied
    /// the full prefix `[0, len)`. Under a kill rate of 1.0 healing cannot
    /// converge — chaos plans must keep `kill_rate < 1` when flushing.
    pub fn flush(&self) {
        let target = self.len();
        {
            let (lock, cv) = &*self.processed;
            let mut done = lock.lock();
            while *done < target {
                cv.wait(&mut done);
            }
        }
        // analysis:allow(lock-order): the registry read guard is a temporary
        // dropped at the snapshot statement, before delivery.
        let snapshot: Vec<Arc<Listener>> = self.listeners.read().iter().cloned().collect();
        for l in snapshot {
            l.deliver_up_to(&self.log, target, true);
        }
    }

    /// Stop the delivery worker and join it. Every entry whose append
    /// completed before this call is delivered to all listeners first;
    /// entries appended afterwards are counted in [`undelivered`]
    /// (provably not acknowledged) while staying durable in the log.
    /// Subscriber cursors remain valid: a later [`flush`] or [`replay`]
    /// can still catch them up. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut stopped = self.stopped.write();
            if *stopped {
                return;
            }
            *stopped = true;
            // Holding the write lock guarantees no append's send can land
            // after `Stop`: sends happen under the read lock, so they all
            // happen-before this critical section.
            let _ = self.tx.send(WorkerMsg::Stop);
        }
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        // Safety net: anything still queued (cannot normally happen given
        // the lock ordering above) is accounted rather than lost silently.
        while let Ok(msg) = self.rx.try_recv() {
            if let WorkerMsg::Wake = msg {
                crate::metrics::binlog_undelivered().inc();
                mark_processed(&self.processed, 1);
            }
        }
    }

    /// Re-apply entries from `from_offset` (inclusive) — failure recovery
    /// for aggregators whose state was lost.
    pub fn replay(&self, from_offset: u64, mut f: impl FnMut(&LogEntry)) {
        let log = self.log.lock();
        for entry in log.iter().skip(from_offset as usize) {
            f(entry);
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn entry_key() -> Arc<[KeyValue]> {
        Arc::from(vec![KeyValue::Int(1)].into_boxed_slice())
    }

    fn data() -> Arc<[u8]> {
        Arc::from(vec![0u8; 4].into_boxed_slice())
    }

    #[test]
    fn offsets_are_monotonic_under_concurrency() {
        let r = Arc::new(Replicator::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| r.append_entry("t".into(), entry_key(), i, data()))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4_000).collect();
        assert_eq!(all, expected, "offsets dense and unique");
    }

    #[test]
    fn catchup_subscription_sees_each_entry_exactly_once() {
        let r = Replicator::new();
        for i in 0..50 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        // Subscribe while the queue may still be draining.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        r.subscribe_with_catchup(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));
        for i in 50..80 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.flush();
        let seen = seen.lock();
        assert_eq!(
            *seen,
            (0..80).collect::<Vec<u64>>(),
            "exactly once, in order"
        );
    }

    #[test]
    fn plain_subscription_skips_existing_entries() {
        let r = Replicator::new();
        for i in 0..20 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        r.subscribe(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));
        for i in 20..30 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.flush();
        assert_eq!(*seen.lock(), (20..30).collect::<Vec<u64>>());
    }

    #[test]
    fn listeners_run_asynchronously_in_order() {
        let r = Replicator::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        r.subscribe(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));
        for i in 0..100 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.flush();
        let seen = seen.lock();
        assert_eq!(
            *seen,
            (0..100).collect::<Vec<u64>>(),
            "applied in offset order"
        );
    }

    #[test]
    fn replay_recovers_from_offset() {
        let r = Replicator::new();
        for i in 0..10 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        let sum = AtomicI64::new(0);
        r.replay(7, |e| {
            sum.fetch_add(e.ts, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 7 + 8 + 9);
    }

    #[test]
    fn flush_waits_for_slow_listener() {
        let r = Replicator::new();
        let counter = Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        r.subscribe(Arc::new(move |_e: &LogEntry| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            c.fetch_add(1, Ordering::SeqCst);
        }));
        for i in 0..20 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.flush();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    /// Satellite: entries appended concurrently with `shutdown` are either
    /// delivered to the subscriber or counted in `undelivered` — and the
    /// subscriber's applied state is always a contiguous prefix, never a
    /// set with holes.
    #[test]
    fn shutdown_delivers_or_disowns_every_concurrent_append() {
        for _ in 0..20 {
            let r = Arc::new(Replicator::new());
            let seen = Arc::new(Mutex::new(Vec::new()));
            let s = seen.clone();
            r.subscribe(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));

            let appenders: Vec<_> = (0..4)
                .map(|_| {
                    let r = r.clone();
                    std::thread::spawn(move || {
                        for i in 0..100 {
                            r.append_entry("t".into(), entry_key(), i, data());
                        }
                    })
                })
                .collect();
            // Race the shutdown against the appenders.
            std::thread::sleep(std::time::Duration::from_micros(200));
            r.shutdown();
            for a in appenders {
                a.join().unwrap();
            }

            let seen = seen.lock();
            // Prefix invariant: delivered offsets are exactly 0..seen.len().
            assert_eq!(
                *seen,
                (0..seen.len() as u64).collect::<Vec<u64>>(),
                "subscriber state must be a contiguous prefix"
            );
            // Every append is accounted: delivered or provably disowned.
            assert_eq!(r.len(), 400);
            assert!(
                seen.len() as u64 + r.undelivered() >= 400,
                "delivered {} + undelivered {} must cover all appends",
                seen.len(),
                r.undelivered()
            );
            // Post-shutdown appends are disowned, not lost: still durable.
            let mut logged = 0u64;
            r.replay(0, |_| logged += 1);
            assert_eq!(logged, 400, "every append durable in the log");
        }
    }

    /// Satellite regression: the shutdown→recover→resubscribe sequence must
    /// not report phantom undelivered entries. `undelivered` is derived
    /// from the listener cursors, so healing the gap (flush, or a replay
    /// into a fresh process) returns it to zero.
    #[test]
    fn recovered_process_reports_zero_phantom_undelivered() {
        // Original process: appends land after shutdown, leaving a gap.
        let r = Replicator::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        r.subscribe(Arc::new(move |e: &LogEntry| s.lock().push(e.offset)));
        for i in 0..30 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.shutdown();
        for i in 30..40 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        assert_eq!(r.undelivered(), 10, "post-shutdown gap is visible");
        // Healing from the durable log zeroes the count — no phantoms.
        r.flush();
        assert_eq!(r.undelivered(), 0, "flush heals, count returns to zero");
        assert_eq!(*seen.lock(), (0..40).collect::<Vec<u64>>());

        // Recovered process: rebuild a fresh replicator by replaying the
        // durable log, then resubscribe. Every entry is delivered exactly
        // once and nothing is reported undelivered.
        let r2 = Replicator::new();
        r.replay(0, |e| {
            r2.append_entry(e.table.clone(), e.key.clone(), e.ts, e.data.clone());
        });
        let seen2 = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen2.clone();
        r2.subscribe_with_catchup(Arc::new(move |e: &LogEntry| s2.lock().push(e.offset)));
        r2.flush();
        assert_eq!(r2.undelivered(), 0, "no phantom undelivered after recovery");
        assert_eq!(*seen2.lock(), (0..40).collect::<Vec<u64>>());
    }

    /// An attached WAL mirrors the binlog in offset order, and attaching
    /// over an existing log heals the missing prefix first.
    #[test]
    fn attached_wal_mirrors_log_and_heals_missing_prefix() {
        let dir = std::env::temp_dir().join(format!("openmldb_binlog_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, scan) = Wal::open(&dir, crate::wal::WalOptions::default()).unwrap();
        assert_eq!(scan.records.len(), 0);
        let r = Replicator::new();
        // Entries appended before attach: healed into the WAL at attach.
        for i in 0..10 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.attach_wal(Arc::new(wal)).unwrap();
        // Entries appended after attach: written through.
        for i in 10..25 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.sync_wal().unwrap();
        let on_disk = crate::wal::read_dir(&dir).unwrap();
        assert_eq!(on_disk.records.len(), 25, "WAL holds the full log");
        for (i, rec) in on_disk.records.iter().enumerate() {
            assert_eq!(rec.entry.offset, i as u64, "dense offset order");
            assert_eq!(rec.entry.ts, i as i64);
        }
        assert!(!on_disk.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Batched delivery: a listener held on a gate while 10k appends land
    /// gets every entry once released — in order, exactly once — and its
    /// applied state is a contiguous prefix at every step, as seen from the
    /// closure and from `undelivered` sampled while the batch drains.
    #[test]
    fn gated_listener_catches_up_in_order_exactly_once() {
        const N: u64 = 10_000;
        let r = Replicator::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let out_of_order = Arc::new(AtomicU64::new(0));
        {
            let (gate, seen, out_of_order) = (gate.clone(), seen.clone(), out_of_order.clone());
            r.subscribe(Arc::new(move |e: &LogEntry| {
                let (open, cv) = &*gate;
                let mut open = open.lock();
                while !*open {
                    cv.wait(&mut open);
                }
                drop(open);
                let mut seen = seen.lock();
                if e.offset != seen.len() as u64 {
                    out_of_order.fetch_add(1, Ordering::SeqCst);
                }
                seen.push(e.offset);
            }));
        }
        for i in 0..N {
            r.append_entry("t".into(), entry_key(), i as i64, data());
        }
        assert!(seen.lock().is_empty(), "the gate holds every delivery");
        assert_eq!(r.undelivered(), N, "the cursor reads without waiting");

        *gate.0.lock() = true;
        gate.1.notify_all();
        let mut last = N;
        loop {
            let owed = r.undelivered();
            assert!(owed <= last, "the cursor never moves back");
            assert!(
                seen.lock().len() as u64 >= N - owed,
                "the cursor never passes an entry the closure has not applied"
            );
            last = owed;
            if owed == 0 {
                break;
            }
            std::thread::yield_now();
        }
        r.flush();
        assert_eq!(*seen.lock(), (0..N).collect::<Vec<u64>>());
        assert_eq!(out_of_order.load(Ordering::SeqCst), 0);
        assert_eq!(r.undelivered(), 0);
    }

    /// With no listener an append is owed to nobody: it queues nothing and
    /// is counted handled inline, so `flush` has nothing to wait for.
    #[test]
    fn unsubscribed_appends_queue_nothing() {
        let r = Replicator::new();
        for i in 0..10_000 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        assert_eq!(r.undelivered(), 0);
        assert_eq!(*r.processed.0.lock(), 10_000, "handled without the worker");
        r.flush();
        assert_eq!(r.len(), 10_000);
    }

    #[test]
    fn shutdown_is_idempotent_and_flush_still_returns() {
        let r = Replicator::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        r.subscribe(Arc::new(move |_e: &LogEntry| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        for i in 0..10 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        r.shutdown();
        r.shutdown();
        // Appends after shutdown are disowned but flush must not hang —
        // and the flush-time heal applies them from the durable log.
        for i in 10..15 {
            r.append_entry("t".into(), entry_key(), i, data());
        }
        assert_eq!(r.undelivered(), 5);
        r.flush();
        assert_eq!(count.load(Ordering::SeqCst), 15, "heal applied the tail");
    }
}
