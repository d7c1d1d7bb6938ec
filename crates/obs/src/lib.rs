//! Zero-overhead observability layer for the OpenMLDB reproduction.
//!
//! Three primitives, all lock-free on the record path:
//!
//! * [`Counter`] — monotonically increasing, sharded across cache-line-padded
//!   atomics so concurrent writers on different cores never contend.
//! * [`Gauge`] — an `f64` point-in-time value (memory watermarks, load ratios).
//! * [`Histogram`] — log-linear (HDR-style) latency histogram with mergeable
//!   per-thread shards and exact percentile extraction (see [`hist`]).
//!
//! Plus one pooled per-request record ([`flight`]): an event ring, an exact
//! per-stage ledger (plan → cache lookup → window dispatch → storage seek →
//! aggregate → encode) and the request's cost counters, written once per
//! request. The sampled span trace ([`trace`]), slow-query post-mortems,
//! histogram exemplars and the per-deployment store ([`profile`]) are views
//! published from it when the request ends.
//!
//! All metrics live in the process-wide [`Registry`] and are exposed through
//! [`Registry::render`] (Prometheus text format) and
//! [`Registry::render_json`]. There is deliberately no network listener —
//! exposition is a pure string API the embedding binary can serve however it
//! likes.
//!
//! # Naming convention
//!
//! Metric names must match `openmldb_<crate>_<name>_<unit>` where `<crate>`
//! is one of the instrumented crates (`online`, `core`, `storage`, `exec`,
//! `sql`, `bench`, `obs`, `chaos`) and `<unit>` is a unit suffix (`total`, `bytes`, `ns`,
//! `ms`, `seconds`, `ratio`, `rows`, `count`). [`validate_metric_name`]
//! enforces this at registration time and the `openmldb-analysis` lint
//! enforces it statically.
//!
//! # Feature gating
//!
//! The `obs-off` cargo feature compiles every record-path operation to an
//! inlined empty body. Registration and rendering keep working (values read
//! as zero) so instrumented call sites never need `cfg` gates of their own.

pub mod audit;
pub mod flight;
pub mod hist;
pub mod labels;
pub mod ops;
pub mod profile;
pub mod topk;
pub mod trace;

pub use audit::{DivergenceKind, DivergenceReport, Fnv, ScanDigest};
pub use flight::{
    FlightEvent, FlightEventKind, FlightScope, FlightSummary, Outcome, PostMortem, Recorder,
};
pub use hist::{Exemplar, Histogram, HistogramSnapshot};
pub use labels::{
    LabelId, LabelRegistry, LabeledCounter, LabeledHistogram, MAX_LABEL_SLOTS, OVERFLOW_LABEL,
};
pub use ops::{OpsHandler, OpsResponse, OpsServer};
pub use profile::{CostProfile, ProfileStore};
pub use topk::{SpaceSaving, TopEntry};
pub use trace::{span, SpanRecord, Stage, Trace, Tracer};

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of shards used by [`Counter`] and [`Histogram`]. Power of two.
pub const SHARDS: usize = 8;

/// One atomic on its own cache line, so shards never false-share.
#[cfg(not(feature = "obs-off"))]
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct PaddedU64(pub(crate) AtomicU64);

/// Returns this thread's ordinal: threads are numbered in order of first
/// use, and the number is cached in a thread-local so the hot path is a
/// single TLS read.
#[cfg(not(feature = "obs-off"))]
#[inline]
pub(crate) fn thread_ordinal() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|i| *i)
}

/// Returns a stable per-thread shard index in `0..SHARDS` (threads are
/// assigned round-robin).
#[cfg(not(feature = "obs-off"))]
#[inline]
pub(crate) fn shard_idx() -> usize {
    thread_ordinal() % SHARDS
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing counter, sharded to avoid write contention.
///
/// `inc`/`add` touch exactly one relaxed atomic on the caller's home shard;
/// `value` sums all shards (read path only, may race with writers — fine for
/// statistics).
#[derive(Default)]
pub struct Counter {
    #[cfg(not(feature = "obs-off"))]
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "obs-off"))]
        self.shards[shard_idx()].0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = n;
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.shards
                .iter()
                .map(|s| s.0.load(Ordering::Relaxed))
                .sum()
        }
        #[cfg(feature = "obs-off")]
        0
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time `f64` value stored as bits in a single atomic.
#[derive(Default)]
pub struct Gauge {
    #[cfg(not(feature = "obs-off"))]
    bits: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the gauge (last writer wins).
    #[inline]
    pub fn set(&self, v: f64) {
        #[cfg(not(feature = "obs-off"))]
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Raise the gauge to `v` if `v` is larger than the current value
    /// (high-watermark semantics).
    #[inline]
    pub fn set_max(&self, v: f64) {
        #[cfg(not(feature = "obs-off"))]
        {
            let mut cur = self.bits.load(Ordering::Relaxed);
            while v > f64::from_bits(cur) {
                match self.bits.compare_exchange_weak(
                    cur,
                    v.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = v;
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        #[cfg(not(feature = "obs-off"))]
        {
            f64::from_bits(self.bits.load(Ordering::Relaxed))
        }
        #[cfg(feature = "obs-off")]
        0.0
    }
}

// ---------------------------------------------------------------------------
// Name validation
// ---------------------------------------------------------------------------

/// Crate segments accepted in metric names.
pub const METRIC_CRATES: &[&str] = &[
    "online", "core", "storage", "exec", "sql", "bench", "obs", "chaos",
];

/// Unit suffixes accepted in metric names.
pub const METRIC_UNITS: &[&str] = &[
    "total", "bytes", "ns", "ms", "seconds", "ratio", "rows", "count",
];

/// Label keys accepted in a metric's `{key="value",...}` suffix. A fixed
/// vocabulary — like crate segments and units — so dashboards can rely on
/// a closed key set and the cardinality registry stays the only way to
/// mint label values. Mirrored by the `openmldb-analysis` lint.
pub const METRIC_LABEL_KEYS: &[&str] = &["deployment", "worker", "key", "quantile", "stage"];

/// Checks a metric name against the `openmldb_<crate>_<name>_<unit>`
/// convention. A `{key="value",...}` label suffix is allowed when every
/// key is in [`METRIC_LABEL_KEYS`] and every value is double-quoted.
pub fn validate_metric_name(name: &str) -> bool {
    let base = name.split('{').next().unwrap_or(name);
    let Some(rest) = base.strip_prefix("openmldb_") else {
        return false;
    };
    let Some((crate_seg, tail)) = rest.split_once('_') else {
        return false;
    };
    if !METRIC_CRATES.contains(&crate_seg) {
        return false;
    }
    let Some((stem, unit)) = tail.rsplit_once('_') else {
        return false;
    };
    if stem.is_empty() || !METRIC_UNITS.contains(&unit) {
        return false;
    }
    if !base
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return false;
    }
    validate_label_suffix(&name[base.len()..])
}

/// Checks a `{key="value",...}` label suffix (empty = no labels, valid).
/// Keys must come from [`METRIC_LABEL_KEYS`]; values must be double-quoted
/// and must not contain `"` or `,` (the exposition formats never escape).
pub fn validate_label_suffix(suffix: &str) -> bool {
    if suffix.is_empty() {
        return true;
    }
    let Some(inner) = suffix.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return false;
    };
    if inner.is_empty() {
        return false;
    }
    inner.split(',').all(|pair| {
        let Some((k, v)) = pair.split_once('=') else {
            return false;
        };
        METRIC_LABEL_KEYS.contains(&k)
            && v.len() >= 2
            && v.starts_with('"')
            && v.ends_with('"')
            && !v[1..v.len() - 1].contains('"')
    })
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Retained time-series samples per labeled metric (snapshot ticks).
pub const RING_SAMPLES: usize = 128;

enum LabeledMetric {
    Counter(Arc<LabeledCounter>),
    Histogram(Arc<LabeledHistogram>),
    /// A counter series computed at exposition time from another store
    /// (`(slot index, value)` per occupied slot) — nothing is written for it
    /// on the record path.
    View(fn() -> Vec<(usize, u64)>),
}

impl LabeledMetric {
    fn kind(&self) -> &'static str {
        match self {
            LabeledMetric::Counter(_) | LabeledMetric::View(_) => "labeled_counter",
            LabeledMetric::Histogram(_) => "labeled_histogram",
        }
    }

    /// `(slot index, value)` per occupied slot: counter value, or histogram
    /// sample count (the rate-able quantity for trends).
    fn per_slot(&self) -> Vec<(usize, u64)> {
        match self {
            LabeledMetric::Counter(c) => c.per_slot(),
            LabeledMetric::View(read) => read(),
            LabeledMetric::Histogram(h) => h
                .per_slot()
                .into_iter()
                .map(|(i, s)| (i, s.count()))
                .collect(),
        }
    }

    /// [`per_slot`](Self::per_slot) as a dense array, one cell per slot.
    fn sample(&self) -> Box<[u64]> {
        let mut out = vec![0u64; MAX_LABEL_SLOTS].into_boxed_slice();
        for (i, v) in self.per_slot() {
            out[i] = v;
        }
        out
    }
}

struct LabeledEntry {
    help: String,
    metric: LabeledMetric,
    /// Per-tick snapshots of the per-slot totals, oldest first, bounded at
    /// [`RING_SAMPLES`] — the fixed-size time-series ring `obs_report`
    /// turns into rates/trends.
    ring: VecDeque<Box<[u64]>>,
}

/// Process-wide metric registry.
///
/// Handles are registered lazily via [`Registry::counter`] /
/// [`Registry::gauge`] / [`Registry::histogram`]; repeated calls with the
/// same name return the same underlying metric. Call sites are expected to
/// cache the returned `Arc` (e.g. in a `OnceLock`) so the registry lock is
/// never on a hot path.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, (String, Metric)>>,
    labeled: Mutex<BTreeMap<String, LabeledEntry>>,
    ticks: AtomicU64,
}

fn registry_lock(
    m: &Mutex<BTreeMap<String, (String, Metric)>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, (String, Metric)>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Labeled metrics register under a bare series name — the
/// `{deployment="..."}` suffix is appended at render time.
fn assert_labeled_name(name: &str) {
    assert!(
        validate_metric_name(name) && !name.contains('{'),
        "invalid labeled metric name {name:?}: expected a bare openmldb_<crate>_<name>_<unit>"
    );
}

fn labeled_lock(
    m: &Mutex<BTreeMap<String, LabeledEntry>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, LabeledEntry>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry all engine crates record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or register a counter. Panics if `name` violates the naming
    /// convention or is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        assert!(
            validate_metric_name(name),
            "invalid metric name {name:?}: expected openmldb_<crate>_<name>_<unit>"
        );
        let mut map = registry_lock(&self.metrics);
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Counter(Arc::new(Counter::new()))));
        match &entry.1 {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Get or register a gauge. Panics on invalid name or kind mismatch.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        assert!(
            validate_metric_name(name),
            "invalid metric name {name:?}: expected openmldb_<crate>_<name>_<unit>"
        );
        let mut map = registry_lock(&self.metrics);
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Metric::Gauge(Arc::new(Gauge::new()))));
        match &entry.1 {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Get or register a histogram. Panics on invalid name or kind mismatch.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        assert!(
            validate_metric_name(name),
            "invalid metric name {name:?}: expected openmldb_<crate>_<name>_<unit>"
        );
        let mut map = registry_lock(&self.metrics);
        let entry = map.entry(name.to_string()).or_insert_with(|| {
            (
                help.to_string(),
                Metric::Histogram(Arc::new(Histogram::new())),
            )
        });
        match &entry.1 {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Get or register a labeled (per-deployment) counter. `name` is the
    /// bare series name — the `{deployment="..."}` suffix is appended at
    /// render time from the process-wide label registry. Panics on an
    /// invalid name, an explicit label suffix, or a kind mismatch.
    pub fn labeled_counter(&self, name: &str, help: &str) -> Arc<LabeledCounter> {
        assert_labeled_name(name);
        let mut map = labeled_lock(&self.labeled);
        let entry = map.entry(name.to_string()).or_insert_with(|| LabeledEntry {
            help: help.to_string(),
            metric: LabeledMetric::Counter(Arc::new(LabeledCounter::new())),
            ring: VecDeque::new(),
        });
        match &entry.metric {
            LabeledMetric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Register a labeled (per-deployment) counter series that is *read* from
    /// another store at exposition time instead of being written on the
    /// record path: `read` returns `(slot index, value)` per occupied slot.
    /// Renders, ticks and trends exactly like a [`LabeledCounter`]. Same name
    /// rules as [`Registry::labeled_counter`]; registering a name twice
    /// keeps the first reader.
    pub fn labeled_view(&self, name: &str, help: &str, read: fn() -> Vec<(usize, u64)>) {
        assert_labeled_name(name);
        let mut map = labeled_lock(&self.labeled);
        let entry = map.entry(name.to_string()).or_insert_with(|| LabeledEntry {
            help: help.to_string(),
            metric: LabeledMetric::View(read),
            ring: VecDeque::new(),
        });
        assert!(
            matches!(entry.metric, LabeledMetric::View(_)),
            "metric {name:?} already registered as {}",
            entry.metric.kind()
        );
    }

    /// Get or register a labeled (per-deployment) histogram. Same rules as
    /// [`Registry::labeled_counter`].
    pub fn labeled_histogram(&self, name: &str, help: &str) -> Arc<LabeledHistogram> {
        assert_labeled_name(name);
        let mut map = labeled_lock(&self.labeled);
        let entry = map.entry(name.to_string()).or_insert_with(|| LabeledEntry {
            help: help.to_string(),
            metric: LabeledMetric::Histogram(Arc::new(LabeledHistogram::new())),
            ring: VecDeque::new(),
        });
        match &entry.metric {
            LabeledMetric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Take one snapshot tick: sample every labeled metric's per-slot
    /// totals into its bounded time-series ring. Call on a periodic
    /// scrape/report cadence (cold path — locks the labeled map).
    pub fn tick(&self) {
        let mut map = labeled_lock(&self.labeled);
        for entry in map.values_mut() {
            let sample = entry.metric.sample();
            if entry.ring.len() == RING_SAMPLES {
                entry.ring.pop_front();
            }
            entry.ring.push_back(sample);
        }
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// The labeled metric's ring samples as totals across all slots,
    /// oldest first (at most [`RING_SAMPLES`] entries).
    pub fn trend(&self, name: &str) -> Vec<u64> {
        labeled_lock(&self.labeled)
            .get(name)
            .map(|e| e.ring.iter().map(|s| s.iter().sum()).collect())
            .unwrap_or_default()
    }

    /// The labeled metric's ring samples for one label value, oldest first.
    /// Empty when the metric or the label is unknown.
    pub fn trend_for(&self, name: &str, label: &str) -> Vec<u64> {
        let Some(id) = LabelRegistry::deployments().lookup(label) else {
            return Vec::new();
        };
        labeled_lock(&self.labeled)
            .get(name)
            .map(|e| e.ring.iter().map(|s| s[id.index()]).collect())
            .unwrap_or_default()
    }

    /// Current `(label value, value)` series of a labeled metric (counter
    /// value or histogram count), label names resolved against the
    /// process-wide deployment registry.
    pub fn labeled_series(&self, name: &str) -> Vec<(String, u64)> {
        let map = labeled_lock(&self.labeled);
        let Some(entry) = map.get(name) else {
            return Vec::new();
        };
        let reg = LabelRegistry::deployments();
        entry
            .metric
            .per_slot()
            .into_iter()
            .map(|(i, v)| (reg.name_of(LabelId::from_index(i)), v))
            .collect()
    }

    /// Names of all registered labeled metrics (sorted).
    pub fn labeled_metric_names(&self) -> Vec<String> {
        labeled_lock(&self.labeled).keys().cloned().collect()
    }

    /// Names of all registered metrics (sorted).
    pub fn metric_names(&self) -> Vec<String> {
        registry_lock(&self.metrics).keys().cloned().collect()
    }

    /// Prometheus text exposition.
    ///
    /// Histograms are rendered in summary style (`{quantile="..."}` series
    /// plus `_sum`/`_count`) because percentiles are extracted exactly from
    /// the log-linear buckets rather than re-estimated by the scraper.
    /// Counters are always exposed under a `_total`-suffixed name (appended
    /// when the registered name ends in a different unit), and HELP text is
    /// escaped (`\` → `\\`, newline → `\n`) so multi-line help cannot
    /// corrupt the line-oriented format.
    pub fn render(&self) -> String {
        let map = registry_lock(&self.metrics);
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, (help, metric)) in map.iter() {
            let raw_base = name.split('{').next().unwrap_or(name);
            let labels = &name[raw_base.len()..];
            let base = match metric {
                Metric::Counter(_) if !raw_base.ends_with("_total") => {
                    format!("{raw_base}_total")
                }
                _ => raw_base.to_string(),
            };
            if base != last_base {
                if !help.is_empty() {
                    out.push_str(&format!("# HELP {base} {}\n", escape_help(help)));
                }
                let ptype = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {base} {ptype}\n"));
                last_base = base.clone();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{base}{labels} {}\n", c.value())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.value())),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (q, label) in [
                        (0.50, "0.5"),
                        (0.90, "0.9"),
                        (0.99, "0.99"),
                        (0.999, "0.999"),
                    ] {
                        out.push_str(&format!(
                            "{base}{{quantile=\"{label}\"}} {}\n",
                            snap.percentile(q)
                        ));
                    }
                    out.push_str(&format!("{base}_sum {}\n", snap.sum()));
                    out.push_str(&format!("{base}_count {}\n", snap.count()));
                }
            }
        }
        // Labeled (per-deployment) series: one sample line per occupied
        // slot, label names resolved through the deployment registry.
        let labeled = labeled_lock(&self.labeled);
        let reg = LabelRegistry::deployments();
        for (name, entry) in labeled.iter() {
            match &entry.metric {
                LabeledMetric::Counter(_) | LabeledMetric::View(_) => {
                    let base = if name.ends_with("_total") {
                        name.clone()
                    } else {
                        format!("{name}_total")
                    };
                    if !entry.help.is_empty() {
                        out.push_str(&format!("# HELP {base} {}\n", escape_help(&entry.help)));
                    }
                    out.push_str(&format!("# TYPE {base} counter\n"));
                    for (i, v) in entry.metric.per_slot() {
                        let label = escape_label_value(&reg.name_of(LabelId::from_index(i)));
                        out.push_str(&format!("{base}{{deployment=\"{label}\"}} {v}\n"));
                    }
                }
                LabeledMetric::Histogram(h) => {
                    if !entry.help.is_empty() {
                        out.push_str(&format!("# HELP {name} {}\n", escape_help(&entry.help)));
                    }
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    for (i, snap) in h.per_slot() {
                        let label = escape_label_value(&reg.name_of(LabelId::from_index(i)));
                        for (q, qlabel) in [(0.50, "0.5"), (0.99, "0.99")] {
                            out.push_str(&format!(
                                "{name}{{deployment=\"{label}\",quantile=\"{qlabel}\"}} {}\n",
                                snap.percentile(q)
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{{deployment=\"{label}\"}} {}\n",
                            snap.sum()
                        ));
                        out.push_str(&format!(
                            "{name}_count{{deployment=\"{label}\"}} {}\n",
                            snap.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: `{"metrics":[...]}` with one object per metric.
    pub fn render_json(&self) -> String {
        let map = registry_lock(&self.metrics);
        let mut items = Vec::with_capacity(map.len());
        for (name, (_, metric)) in map.iter() {
            let item = match metric {
                Metric::Counter(c) => {
                    format!(
                        "{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{}}}",
                        c.value()
                    )
                }
                Metric::Gauge(g) => {
                    let v = g.value();
                    let v = if v.is_finite() { v } else { 0.0 };
                    format!("{{\"name\":\"{name}\",\"kind\":\"gauge\",\"value\":{v}}}")
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    format!(
                        "{{\"name\":\"{name}\",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                        s.count(),
                        s.sum(),
                        s.percentile(0.50),
                        s.percentile(0.90),
                        s.percentile(0.99),
                        s.percentile(0.999),
                    )
                }
            };
            items.push(item);
        }
        let labeled = labeled_lock(&self.labeled);
        let reg = LabelRegistry::deployments();
        for (name, entry) in labeled.iter() {
            let series: Vec<String> = match &entry.metric {
                LabeledMetric::Counter(_) | LabeledMetric::View(_) => entry
                    .metric
                    .per_slot()
                    .into_iter()
                    .map(|(i, v)| {
                        format!(
                            "{{\"deployment\":\"{}\",\"value\":{v}}}",
                            escape_json_string(&reg.name_of(LabelId::from_index(i)))
                        )
                    })
                    .collect(),
                LabeledMetric::Histogram(h) => h
                    .per_slot()
                    .into_iter()
                    .map(|(i, s)| {
                        format!(
                            "{{\"deployment\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{}}}",
                            escape_json_string(&reg.name_of(LabelId::from_index(i))),
                            s.count(),
                            s.sum(),
                            s.percentile(0.50),
                            s.percentile(0.99),
                        )
                    })
                    .collect(),
            };
            items.push(format!(
                "{{\"name\":\"{name}\",\"kind\":\"{}\",\"series\":[{}]}}",
                entry.metric.kind(),
                series.join(","),
            ));
        }
        format!("{{\"metrics\":[{}]}}", items.join(","))
    }

    /// Post-mortems retained in the slow-query flight-recorder log, oldest
    /// first. Like the metric surface itself, the log is process-wide, so
    /// this delegates to [`flight::slow_log`].
    pub fn slow_queries(&self) -> Vec<flight::PostMortem> {
        flight::slow_log()
    }

    /// Render the slow-query log as a post-mortem report (text or JSON) —
    /// the surface the `obs_report` tool prints.
    pub fn render_slow_query_report(&self, json: bool) -> String {
        flight::render_report(json)
    }
}

/// Escape HELP text for the Prometheus exposition format: a raw backslash
/// or newline in help would otherwise corrupt the line-oriented output.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a dynamic label *value* for the Prometheus exposition format
/// (`\` → `\\`, `"` → `\"`, newline → `\n`). Registered metric names are
/// validated up front, but deployment names flow in from user SQL and may
/// contain any of the three characters that would corrupt a quoted value.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Unescape a Prometheus label value (inverse of [`escape_label_value`]) —
/// used by the round-trip tests and by scrapers of the text format.
pub fn unescape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Escape a string for embedding in a JSON double-quoted literal. Covers
/// the same hostile deployment names as [`escape_label_value`] plus the
/// control characters JSON forbids raw.
pub fn escape_json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// Whether recording is compiled in (i.e. the `obs-off` feature is absent).
pub const fn enabled() -> bool {
    cfg!(not(feature = "obs-off"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        if enabled() {
            assert_eq!(c.value(), 42);
        } else {
            assert_eq!(c.value(), 0);
        }
    }

    #[test]
    fn counter_concurrent_increments_are_not_lost() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        if enabled() {
            assert_eq!(c.value(), 40_000);
        }
    }

    #[test]
    fn gauge_set_and_max() {
        let g = Gauge::new();
        g.set(3.5);
        g.set_max(2.0);
        if enabled() {
            assert_eq!(g.value(), 3.5);
            g.set_max(7.25);
            assert_eq!(g.value(), 7.25);
        } else {
            assert_eq!(g.value(), 0.0);
        }
    }

    #[test]
    fn metric_name_validation() {
        assert!(validate_metric_name("openmldb_online_requests_total"));
        assert!(validate_metric_name("openmldb_storage_scan_len_rows"));
        assert!(validate_metric_name("openmldb_core_memory_used_bytes"));
        assert!(validate_metric_name(
            "openmldb_online_union_worker_load_rows{worker=\"3\"}"
        ));
        // wrong prefix / crate / unit / casing
        assert!(!validate_metric_name("requests_total"));
        assert!(!validate_metric_name("openmldb_nosuch_requests_total"));
        assert!(!validate_metric_name("openmldb_online_requests"));
        assert!(!validate_metric_name("openmldb_online_requests_furlongs"));
        assert!(!validate_metric_name("openmldb_online_Requests_total"));
        assert!(!validate_metric_name("openmldb_online__total"));
    }

    #[test]
    fn registry_roundtrip_and_render() {
        let r = Registry::new();
        let c = r.counter("openmldb_online_requests_total", "requests served");
        c.add(5);
        let g = r.gauge("openmldb_core_memory_used_bytes", "resident bytes");
        g.set(1024.0);
        let h = r.histogram("openmldb_online_request_duration_ns", "request latency");
        h.record(1000);
        h.record(2000);

        // same-name lookup returns the same metric
        let c2 = r.counter("openmldb_online_requests_total", "");
        c2.inc();
        if enabled() {
            assert_eq!(c.value(), 6);
        }

        let text = r.render();
        assert!(text.contains("# TYPE openmldb_online_requests_total counter"));
        assert!(text.contains("# TYPE openmldb_core_memory_used_bytes gauge"));
        assert!(text.contains("# TYPE openmldb_online_request_duration_ns summary"));
        assert!(text.contains("openmldb_online_request_duration_ns_count"));

        let json = r.render_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.contains("\"kind\":\"histogram\""));
        assert_eq!(r.metric_names().len(), 3);
    }

    #[test]
    fn render_escapes_help_text() {
        let r = Registry::new();
        r.counter(
            "openmldb_online_requests_total",
            "line one\nline two with back\\slash",
        );
        let text = r.render();
        assert!(text.contains(
            "# HELP openmldb_online_requests_total line one\\nline two with back\\\\slash\n"
        ));
        assert!(
            !text.contains("\nline two"),
            "raw newline leaked into exposition: {text:?}"
        );
    }

    #[test]
    fn render_suffixes_counters_with_total() {
        let r = Registry::new();
        r.counter("openmldb_storage_scanned_rows", "rows visited by scans")
            .add(3);
        r.counter(
            "openmldb_online_union_tuples_rows{worker=\"1\"}",
            "tuples per worker",
        )
        .add(2);
        let text = r.render();
        assert!(text.contains("# TYPE openmldb_storage_scanned_rows_total counter"));
        assert!(text.contains("# TYPE openmldb_online_union_tuples_rows_total counter"));
        if enabled() {
            assert!(text.contains("openmldb_storage_scanned_rows_total 3"));
            assert!(text.contains("openmldb_online_union_tuples_rows_total{worker=\"1\"} 2"));
        }
        // the registered (unsuffixed) series name must not appear as a sample
        assert!(!text
            .lines()
            .any(|l| l.starts_with("openmldb_storage_scanned_rows ")));
        // already-_total names are not double-suffixed
        let r2 = Registry::new();
        r2.counter("openmldb_online_requests_total", "");
        assert!(!r2.render().contains("requests_total_total"));
    }

    #[test]
    fn registry_exposes_slow_query_log() {
        let text = Registry::global().render_slow_query_report(false);
        assert!(text.starts_with("slow-query log:"));
        let json = Registry::global().render_slow_query_report(true);
        assert!(json.starts_with("{\"published_total\":"));
        let _ = Registry::global().slow_queries();
    }

    #[test]
    fn registry_labeled_series_share_type_line() {
        let r = Registry::new();
        r.gauge(
            "openmldb_online_union_worker_load_rows{worker=\"0\"}",
            "load",
        )
        .set(10.0);
        r.gauge(
            "openmldb_online_union_worker_load_rows{worker=\"1\"}",
            "load",
        )
        .set(30.0);
        let text = r.render();
        let type_lines = text
            .lines()
            .filter(|l| l.starts_with("# TYPE openmldb_online_union_worker_load_rows"))
            .count();
        assert_eq!(type_lines, 1);
    }

    #[test]
    fn label_suffix_validation() {
        // known keys, quoted values: fine
        assert!(validate_metric_name(
            "openmldb_online_deployment_requests_total{deployment=\"fraud_v2\"}"
        ));
        assert!(validate_metric_name(
            "openmldb_online_x_total{deployment=\"a\",quantile=\"0.5\"}"
        ));
        // unknown key, unquoted value, malformed suffix: rejected
        assert!(!validate_metric_name(
            "openmldb_online_requests_total{tenant=\"x\"}"
        ));
        assert!(!validate_metric_name(
            "openmldb_online_requests_total{deployment=x}"
        ));
        assert!(!validate_metric_name("openmldb_online_requests_total{}"));
        assert!(!validate_metric_name("openmldb_online_requests_total{"));
        assert!(!validate_metric_name(
            "openmldb_online_requests_total{deployment=\"a\"b\"}"
        ));
    }

    #[test]
    fn registry_labeled_metrics_render_and_tick() {
        let r = Registry::new();
        let c = r.labeled_counter(
            "openmldb_online_deployment_requests_total",
            "per-dep requests",
        );
        let h = r.labeled_histogram("openmldb_online_deployment_duration_ns", "per-dep latency");
        let id = LabelRegistry::deployments().resolve("libtest_dep");
        c.add(id, 7);
        h.record(id, 1_000);

        // same-name lookup returns the same metric; kind mismatch panics
        let c2 = r.labeled_counter("openmldb_online_deployment_requests_total", "");
        c2.inc(id);
        if enabled() {
            assert_eq!(c.value(id), 8);
        }

        let text = r.render();
        assert!(text.contains("# TYPE openmldb_online_deployment_requests_total counter"));
        if enabled() {
            assert!(text.contains(
                "openmldb_online_deployment_requests_total{deployment=\"libtest_dep\"} 8"
            ));
            assert!(text.contains(
                "openmldb_online_deployment_duration_ns_count{deployment=\"libtest_dep\"} 1"
            ));
        }
        let json = r.render_json();
        assert!(json.contains("\"kind\":\"labeled_counter\""));

        // ticks fill the bounded trend ring
        for _ in 0..(RING_SAMPLES + 5) {
            r.tick();
        }
        assert_eq!(r.ticks(), (RING_SAMPLES + 5) as u64);
        let trend = r.trend("openmldb_online_deployment_requests_total");
        assert_eq!(trend.len(), RING_SAMPLES, "ring is bounded");
        if enabled() {
            assert_eq!(*trend.last().unwrap(), 8);
            let per = r.trend_for("openmldb_online_deployment_requests_total", "libtest_dep");
            assert_eq!(*per.last().unwrap(), 8);
            let series = r.labeled_series("openmldb_online_deployment_requests_total");
            assert!(series.iter().any(|(l, v)| l == "libtest_dep" && *v == 8));
        }
        assert_eq!(
            r.labeled_metric_names(),
            vec![
                "openmldb_online_deployment_duration_ns".to_string(),
                "openmldb_online_deployment_requests_total".to_string(),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "invalid labeled metric name")]
    fn registry_rejects_labeled_name_with_suffix() {
        Registry::new().labeled_counter("openmldb_online_x_total{deployment=\"a\"}", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_name() {
        Registry::new().counter("bad_name", "");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("openmldb_online_requests_total", "");
        r.gauge("openmldb_online_requests_total", "");
    }

    #[test]
    fn label_value_escaping_round_trips() {
        let hostile = "evil\"dep\\one\nline";
        let escaped = escape_label_value(hostile);
        assert!(!escaped.contains('\n'));
        assert_eq!(unescape_label_value(&escaped), hostile);
        // Plain names pass through untouched.
        assert_eq!(escape_label_value("f_short"), "f_short");
        assert_eq!(unescape_label_value("f_short"), "f_short");
    }

    #[test]
    fn render_escapes_hostile_deployment_names() {
        let hostile = "bad\"name\\with\nnewline";
        let id = LabelRegistry::deployments().resolve(hostile);
        let r = Registry::new();
        r.labeled_counter("openmldb_online_deployment_requests_total", "req")
            .inc(id);
        r.labeled_histogram("openmldb_online_deployment_duration_ns", "lat")
            .record(id, 100);
        let text = r.render();
        if !enabled() {
            return;
        }
        // Every exposition line must stay one line, and the quoted label
        // value must unescape back to the original deployment name.
        let mut seen = 0;
        for line in text.lines() {
            let Some(start) = line.find("deployment=\"") else {
                continue;
            };
            let rest = &line[start + "deployment=\"".len()..];
            // Find the closing unescaped quote.
            let mut end = None;
            let bytes = rest.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        end = Some(i);
                        break;
                    }
                    _ => i += 1,
                }
            }
            let value = &rest[..end.expect("unterminated label value")];
            if unescape_label_value(value) == hostile {
                seen += 1;
            }
        }
        assert!(seen >= 2, "expected escaped series lines, got:\n{text}");

        // The JSON render must stay parseable too: the raw quote and
        // newline never appear unescaped inside the document.
        let json = r.render_json();
        assert!(json.contains(&escape_json_string(hostile)), "{json}");
        assert!(!json.contains('\n'), "raw newline leaked into JSON");
    }
}
