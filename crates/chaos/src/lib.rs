//! # openmldb-chaos
//!
//! Deterministic fault injection for the online serving path.
//!
//! Real deployments of the paper's system survive tablet loss and storage
//! stalls through replica failover (§3.1); this crate gives the
//! reproduction a way to *prove* those properties instead of assuming
//! them. Named [`InjectionPoint`]s are compiled into storage, online, and
//! core; a seeded [`Plan`] arms each point with an error rate, a latency
//! rate + duration, and (for subscriber delivery) a kill rate.
//!
//! Design rules:
//!
//! * **Zero overhead when off.** Without the `chaos` cargo feature every
//!   hook is an `#[inline]` constant (`Ok(())` / `false`), mirroring the
//!   `obs-off` pattern with inverted polarity.
//! * **Deterministic.** No wall-clock, no OS entropy. Each injection point
//!   owns a splitmix64 counter stream keyed by `(seed, point)`; every
//!   [`inject`] / [`inject_kill`] call consumes exactly one draw, so the
//!   multiset of outcomes for N calls at a point is a pure function of the
//!   seed — regardless of thread interleaving.
//! * **Typed transiency.** Injected errors are
//!   `Error::Storage("transient fault injected at <point>")`; the
//!   `transient` prefix is what `Error::is_transient` keys on, so the
//!   retry machinery in `openmldb-online` treats them as retryable.

use std::time::Duration;

#[cfg(feature = "chaos")]
use openmldb_types::Error;
use openmldb_types::Result;

/// Compile-time switch: true when the `chaos` feature is active.
pub const fn enabled() -> bool {
    cfg!(feature = "chaos")
}

/// Faults fired by the injector (errors + delays), visible on the shared
/// metric surface so chaos runs can be correlated with serving metrics.
#[cfg(feature = "chaos")]
fn injected_faults() -> &'static std::sync::Arc<openmldb_obs::Counter> {
    static C: std::sync::OnceLock<std::sync::Arc<openmldb_obs::Counter>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| {
        openmldb_obs::Registry::global().counter(
            "openmldb_chaos_injected_faults_total",
            "faults (transient errors + latency delays) fired by the chaos injector",
        )
    })
}

/// Named hooks compiled into the engine. The order defines the stable
/// index used by the per-point PRNG streams and counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// `MemTable` skiplist probes (`latest` / `range` / `latest_n`).
    SkiplistSeek,
    /// `Replicator::append_entry` (latency only — appends are infallible).
    BinlogAppend,
    /// Binlog worker → subscriber delivery (kill = dropped delivery).
    BinlogDelivery,
    /// `ReplicaTable` catch-up closure applying a decoded row.
    ReplicaApply,
    /// `DiskTable` read paths.
    DiskRead,
    /// `WindowUnion::push` worker dispatch.
    UnionDispatch,
    /// `PreAggregator` bucket lookup.
    PreaggLookup,
    /// `Database::insert_row` memory admission.
    MemoryAdmission,
    /// WAL group-commit fsync (kill = the sync never reached the platter:
    /// the durable watermark does not advance, modelling a crash window).
    WalFsync,
    /// Snapshot writer (kill = the process died mid-write: a partial temp
    /// file is left behind and never renamed into place).
    SnapshotWrite,
    /// Compiled window kernel outputs (kill = the specialized bytecode
    /// silently corrupts its aggregate outputs — types and nulls preserved,
    /// values perturbed). Exercises the consistency sentinel: only the
    /// compiled serving path is affected, so the materializing oracle
    /// replay must detect the divergence.
    CompiledKernel,
}

/// Number of injection points (array sizes below).
pub const POINTS: usize = 11;

impl InjectionPoint {
    /// Every point, in index order.
    pub const ALL: [InjectionPoint; POINTS] = [
        InjectionPoint::SkiplistSeek,
        InjectionPoint::BinlogAppend,
        InjectionPoint::BinlogDelivery,
        InjectionPoint::ReplicaApply,
        InjectionPoint::DiskRead,
        InjectionPoint::UnionDispatch,
        InjectionPoint::PreaggLookup,
        InjectionPoint::MemoryAdmission,
        InjectionPoint::WalFsync,
        InjectionPoint::SnapshotWrite,
        InjectionPoint::CompiledKernel,
    ];

    /// Stable index into per-point state arrays.
    pub const fn index(self) -> usize {
        match self {
            InjectionPoint::SkiplistSeek => 0,
            InjectionPoint::BinlogAppend => 1,
            InjectionPoint::BinlogDelivery => 2,
            InjectionPoint::ReplicaApply => 3,
            InjectionPoint::DiskRead => 4,
            InjectionPoint::UnionDispatch => 5,
            InjectionPoint::PreaggLookup => 6,
            InjectionPoint::MemoryAdmission => 7,
            InjectionPoint::WalFsync => 8,
            InjectionPoint::SnapshotWrite => 9,
            InjectionPoint::CompiledKernel => 10,
        }
    }

    /// Snake-case name used in error messages and the bench JSON.
    pub const fn name(self) -> &'static str {
        match self {
            InjectionPoint::SkiplistSeek => "skiplist_seek",
            InjectionPoint::BinlogAppend => "binlog_append",
            InjectionPoint::BinlogDelivery => "binlog_delivery",
            InjectionPoint::ReplicaApply => "replica_apply",
            InjectionPoint::DiskRead => "disk_read",
            InjectionPoint::UnionDispatch => "union_dispatch",
            InjectionPoint::PreaggLookup => "preagg_lookup",
            InjectionPoint::MemoryAdmission => "memory_admission",
            InjectionPoint::WalFsync => "wal_fsync",
            InjectionPoint::SnapshotWrite => "snapshot_write",
            InjectionPoint::CompiledKernel => "compiled_kernel",
        }
    }
}

/// Fault configuration for one injection point. Rates are probabilities in
/// `[0, 1]`; a single uniform draw per call selects at most one outcome:
/// `draw < error_rate` → error, else `draw < error_rate + latency_rate` →
/// sleep `latency`, else clean. Kill draws (where the hook supports kills)
/// come from the same per-point stream and compare against `kill_rate`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    pub error_rate: f64,
    pub latency_rate: f64,
    pub latency: Duration,
    pub kill_rate: f64,
}

impl FaultSpec {
    #[cfg(feature = "chaos")]
    fn is_armed(&self) -> bool {
        self.error_rate > 0.0 || self.latency_rate > 0.0 || self.kill_rate > 0.0
    }
}

/// A seeded fault plan: which points misbehave, how often, and how. Built
/// with the fluent setters and activated with [`install`].
#[derive(Clone, Debug)]
pub struct Plan {
    seed: u64,
    specs: [FaultSpec; POINTS],
}

impl Plan {
    /// A plan with every point clean; `seed` keys the PRNG streams.
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            specs: [FaultSpec::default(); POINTS],
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Inject `Error::Storage("transient …")` at `point` with probability
    /// `rate` per call.
    pub fn error_rate(mut self, point: InjectionPoint, rate: f64) -> Self {
        self.specs[point.index()].error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sleep `latency` at `point` with probability `rate` per call.
    pub fn latency(mut self, point: InjectionPoint, rate: f64, latency: Duration) -> Self {
        let spec = &mut self.specs[point.index()];
        spec.latency_rate = rate.clamp(0.0, 1.0);
        spec.latency = latency;
        self
    }

    /// Drop (kill) a delivery at `point` with probability `rate` per call.
    pub fn kill_rate(mut self, point: InjectionPoint, rate: f64) -> Self {
        self.specs[point.index()].kill_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The spec configured for `point`.
    pub fn spec(&self, point: InjectionPoint) -> FaultSpec {
        self.specs[point.index()]
    }
}

/// Counter snapshot for one injection point (all zero when chaos is off or
/// the point never fired).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PointStats {
    /// `inject` + `inject_kill` calls that consumed a draw.
    pub calls: u64,
    pub errors: u64,
    pub delays: u64,
    pub kills: u64,
}

/// splitmix64 finalizer: statistically strong mixing of a counter. Shared by
/// the per-point PRNG streams and the (always-compiled) crash schedule.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process-model crash harness: a seeded schedule of "the process died with
/// exactly `k` durable WAL bytes" points, plus seeded decisions about torn
/// snapshot files. Unlike the injection hooks this is compiled
/// unconditionally — it drives *offline* byte-level surgery on a copied
/// data directory, so it needs no in-process hook and must stay available
/// to the default-feature recovery tests.
#[derive(Clone, Copy, Debug)]
pub struct CrashSchedule {
    seed: u64,
}

impl CrashSchedule {
    pub fn new(seed: u64) -> Self {
        CrashSchedule { seed }
    }

    /// Byte length the WAL is severed at for the `k`-th crash, uniform over
    /// `[0, max_bytes]` — any offset, including mid-record torn writes.
    pub fn crash_bytes(&self, k: u64, max_bytes: u64) -> u64 {
        if max_bytes == 0 {
            return 0;
        }
        splitmix64(self.seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F)) % (max_bytes + 1)
    }

    /// Whether the `k`-th crash also tore the newest surviving snapshot
    /// mid-write (roughly one crash in four).
    pub fn tear_snapshot(&self, k: u64) -> bool {
        splitmix64(self.seed.rotate_left(17) ^ k).is_multiple_of(4)
    }
}

// ---------------------------------------------------------------------------
// Active implementation (feature = "chaos")
// ---------------------------------------------------------------------------

#[cfg(feature = "chaos")]
mod active {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::RwLock;

    pub(super) struct PointState {
        /// Draw counter: `fetch_add(1)` hands every call a unique index
        /// into the point's splitmix64 stream.
        pub draws: AtomicU64,
        pub calls: AtomicU64,
        pub errors: AtomicU64,
        pub delays: AtomicU64,
        pub kills: AtomicU64,
    }

    impl PointState {
        const fn new() -> Self {
            PointState {
                draws: AtomicU64::new(0),
                calls: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                delays: AtomicU64::new(0),
                kills: AtomicU64::new(0),
            }
        }

        fn reset(&self) {
            self.draws.store(0, Ordering::Relaxed);
            self.calls.store(0, Ordering::Relaxed);
            self.errors.store(0, Ordering::Relaxed);
            self.delays.store(0, Ordering::Relaxed);
            self.kills.store(0, Ordering::Relaxed);
        }
    }

    pub(super) static STATE: [PointState; POINTS] = [
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
        PointState::new(),
    ];

    pub(super) static PLAN: RwLock<Option<Plan>> = RwLock::new(None);

    /// The `k`-th uniform draw in `[0, 1)` of `point`'s stream under `seed`.
    fn uniform(seed: u64, point: InjectionPoint, k: u64) -> f64 {
        let stream = seed ^ (point.index() as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let bits = splitmix64(splitmix64(stream).wrapping_add(k));
        // 53 high-quality mantissa bits → uniform in [0, 1).
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One draw from `point`'s stream, or `None` when no plan is installed
    /// or the point is clean (clean points consume no draws, so arming one
    /// point does not perturb another's stream).
    pub(super) fn draw(point: InjectionPoint) -> Option<(FaultSpec, f64)> {
        let spec;
        let seed;
        {
            let guard = PLAN.read().unwrap_or_else(|p| p.into_inner());
            let plan = guard.as_ref()?;
            spec = plan.spec(point);
            seed = plan.seed;
        }
        if !spec.is_armed() {
            return None;
        }
        let st = &STATE[point.index()];
        let k = st.draws.fetch_add(1, Ordering::Relaxed);
        st.calls.fetch_add(1, Ordering::Relaxed);
        Some((spec, uniform(seed, point, k)))
    }

    pub(super) fn reset_state() {
        for st in &STATE {
            st.reset();
        }
    }
}

/// Install `plan`, resetting all per-point counters and PRNG streams.
/// Replaces any previously installed plan. No-op without the feature.
pub fn install(plan: Plan) {
    #[cfg(feature = "chaos")]
    {
        let mut guard = active::PLAN.write().unwrap_or_else(|p| p.into_inner());
        active::reset_state();
        *guard = Some(plan);
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = plan;
    }
}

/// Remove the installed plan and zero all counters.
pub fn reset() {
    #[cfg(feature = "chaos")]
    {
        let mut guard = active::PLAN.write().unwrap_or_else(|p| p.into_inner());
        *guard = None;
        active::reset_state();
    }
}

/// The fault hook. With the feature off this is a constant `Ok(())`; with
/// it on, consumes one draw from `point`'s stream and either returns a
/// transient storage error, sleeps the configured latency, or passes.
#[inline]
pub fn inject(point: InjectionPoint) -> Result<()> {
    #[cfg(feature = "chaos")]
    {
        use std::sync::atomic::Ordering;
        let Some((spec, r)) = active::draw(point) else {
            return Ok(());
        };
        let st = &active::STATE[point.index()];
        if r < spec.error_rate {
            st.errors.fetch_add(1, Ordering::Relaxed);
            injected_faults().inc();
            openmldb_obs::flight::event(
                openmldb_obs::FlightEventKind::FaultInjected,
                point.index() as u32,
                0,
            );
            return Err(Error::Storage(format!(
                "transient fault injected at {}",
                point.name()
            )));
        }
        if r < spec.error_rate + spec.latency_rate {
            st.delays.fetch_add(1, Ordering::Relaxed);
            injected_faults().inc();
            openmldb_obs::flight::event(
                openmldb_obs::FlightEventKind::FaultInjected,
                point.index() as u32,
                spec.latency.as_nanos() as u64,
            );
            std::thread::sleep(spec.latency);
        }
        Ok(())
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = point;
        Ok(())
    }
}

/// Kill hook for subscriber delivery: true means "drop this delivery".
/// Constant `false` without the feature.
#[inline]
pub fn inject_kill(point: InjectionPoint) -> bool {
    #[cfg(feature = "chaos")]
    {
        use std::sync::atomic::Ordering;
        let Some((spec, r)) = active::draw(point) else {
            return false;
        };
        if r < spec.kill_rate {
            active::STATE[point.index()]
                .kills
                .fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = point;
        false
    }
}

/// Counter snapshot for `point`. All zeros when chaos is off.
pub fn stats(point: InjectionPoint) -> PointStats {
    #[cfg(feature = "chaos")]
    {
        use std::sync::atomic::Ordering;
        let st = &active::STATE[point.index()];
        PointStats {
            calls: st.calls.load(Ordering::Relaxed),
            errors: st.errors.load(Ordering::Relaxed),
            delays: st.delays.load(Ordering::Relaxed),
            kills: st.kills.load(Ordering::Relaxed),
        }
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = point;
        PointStats::default()
    }
}

/// Total injected faults (errors + delays + kills) across all points.
pub fn total_faults() -> u64 {
    InjectionPoint::ALL
        .iter()
        .map(|p| {
            let s = stats(*p);
            s.errors + s.delays + s.kills
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the global plan.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn no_plan_means_no_faults() {
        let _g = lock();
        reset();
        for p in InjectionPoint::ALL {
            assert!(inject(p).is_ok());
            assert!(!inject_kill(p));
            assert_eq!(stats(p), PointStats::default());
        }
    }

    #[test]
    fn zero_rate_plan_is_clean_and_consumes_no_draws() {
        let _g = lock();
        install(Plan::new(7));
        for _ in 0..100 {
            assert!(inject(InjectionPoint::SkiplistSeek).is_ok());
        }
        assert_eq!(stats(InjectionPoint::SkiplistSeek).calls, 0);
        reset();
    }

    #[test]
    fn error_rate_one_always_fails_with_transient_error() {
        let _g = lock();
        install(Plan::new(1).error_rate(InjectionPoint::DiskRead, 1.0));
        let err = inject(InjectionPoint::DiskRead);
        if enabled() {
            let e = err.expect_err("rate 1.0 must fault");
            assert!(e.is_transient(), "{e}");
            assert!(e.to_string().contains("disk_read"), "{e}");
            assert_eq!(stats(InjectionPoint::DiskRead).errors, 1);
        } else {
            assert!(err.is_ok());
        }
        reset();
    }

    #[test]
    fn same_seed_same_outcomes() {
        let _g = lock();
        let run = |seed: u64| -> (Vec<bool>, u64) {
            install(
                Plan::new(seed)
                    .error_rate(InjectionPoint::SkiplistSeek, 0.3)
                    .kill_rate(InjectionPoint::BinlogDelivery, 0.5),
            );
            let outcomes: Vec<bool> = (0..200)
                .map(|_| inject(InjectionPoint::SkiplistSeek).is_err())
                .collect();
            let kills = (0..200)
                .filter(|_| inject_kill(InjectionPoint::BinlogDelivery))
                .count() as u64;
            reset();
            (outcomes, kills)
        };
        let (a1, k1) = run(42);
        let (a2, k2) = run(42);
        assert_eq!(a1, a2);
        assert_eq!(k1, k2);
        if enabled() {
            let (b, kb) = run(43);
            // Different seeds should give a different sequence (overwhelmingly).
            assert!(a1 != b || k1 != kb);
            assert!(a1.iter().any(|e| *e), "rate 0.3 over 200 draws must hit");
            assert!(a1.iter().any(|e| !*e), "rate 0.3 over 200 draws must miss");
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let _g = lock();
        if !enabled() {
            return;
        }
        install(Plan::new(9).error_rate(InjectionPoint::PreaggLookup, 0.2));
        let n = 5_000;
        let errors = (0..n)
            .filter(|_| inject(InjectionPoint::PreaggLookup).is_err())
            .count();
        let rate = errors as f64 / n as f64;
        assert!((0.15..0.25).contains(&rate), "observed {rate}");
        reset();
    }

    #[test]
    fn latency_injection_sleeps() {
        let _g = lock();
        if !enabled() {
            return;
        }
        install(Plan::new(3).latency(InjectionPoint::UnionDispatch, 1.0, Duration::from_millis(2)));
        let t0 = std::time::Instant::now();
        assert!(inject(InjectionPoint::UnionDispatch).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(stats(InjectionPoint::UnionDispatch).delays, 1);
        assert_eq!(total_faults(), 1);
        reset();
    }

    #[test]
    fn point_names_are_stable() {
        assert_eq!(InjectionPoint::ALL.len(), POINTS);
        let names: Vec<&str> = InjectionPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "skiplist_seek",
                "binlog_append",
                "binlog_delivery",
                "replica_apply",
                "disk_read",
                "union_dispatch",
                "preagg_lookup",
                "memory_admission",
                "wal_fsync",
                "snapshot_write",
                "compiled_kernel",
            ]
        );
        for (i, p) in InjectionPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn crash_schedule_is_seeded_and_bounded() {
        let s = CrashSchedule::new(42);
        let a: Vec<u64> = (0..64).map(|k| s.crash_bytes(k, 1_000)).collect();
        let b: Vec<u64> = (0..64)
            .map(|k| CrashSchedule::new(42).crash_bytes(k, 1_000))
            .collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().all(|&x| x <= 1_000), "points stay in range");
        let c: Vec<u64> = (0..64)
            .map(|k| CrashSchedule::new(43).crash_bytes(k, 1_000))
            .collect();
        assert_ne!(a, c, "different seeds diverge");
        assert_eq!(s.crash_bytes(7, 0), 0, "empty WAL crashes at zero");
        let tears = (0..1_000).filter(|&k| s.tear_snapshot(k)).count();
        assert!(
            (150..350).contains(&tears),
            "~25% of crashes tear a snapshot, got {tears}"
        );
    }
}
