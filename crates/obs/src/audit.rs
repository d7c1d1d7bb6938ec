//! Consistency-audit support: the FNV input digest folded on the warm
//! path by sampled requests, and the process-wide bounded divergence log
//! the background auditor publishes into.
//!
//! The sentinel itself (sampling, capture, replay) lives in
//! `openmldb-online`, next to the execution paths it compares; this module
//! holds only the dependency-free pieces every layer shares:
//!
//! * [`Fnv`] — the FNV-1a folder, the same oracle idiom the durability
//!   layer uses to digest recovered WAL entries;
//! * [`ScanDigest`] — a fixed-size per-window digest of the raw bytes a
//!   request's window scans consumed, armed only for sampled requests so
//!   the unsampled warm path pays a single `bool` test per window;
//! * [`DivergenceReport`] / the bounded divergence log — the audit trail a
//!   confirmed online/offline mismatch lands in.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// FNV-1a, 64-bit. Deterministic, allocation-free, order-sensitive — the
/// same digest idiom the durability oracle uses for WAL entries.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Per-window digest slots carried by a [`ScanDigest`]. Plans with more
/// windows fold the extras into the last slot.
pub const DIGEST_WINDOWS: usize = 8;

/// Digest of the raw window inputs one sampled request scanned, one slot
/// per window. The engine folds each window's arena bytes + entry
/// timestamps right after the scan completes (before any sort), so the
/// digest is a pure function of the stored rows the scan visited — the
/// background auditor replays the request through the materializing oracle,
/// which digests the rows it reads itself, and compares slot for slot.
///
/// A window served from the pre-aggregation fast path performs no raw scan
/// and leaves its slot unset (`mask` bit clear); the auditor skips it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanDigest {
    digests: [u64; DIGEST_WINDOWS],
    mask: u16,
    armed: bool,
}

impl ScanDigest {
    /// Arm digest capture for this request (sampled requests only).
    #[inline]
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Whether capture is armed — the only cost the unsampled warm path
    /// pays per window.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Disarm and clear all slots (between requests).
    #[inline]
    pub fn clear(&mut self) {
        *self = ScanDigest::default();
    }

    /// Record window `wid`'s input digest. Windows past the slot budget
    /// share the last slot (combined order-sensitively, and both serve and
    /// replay fold in the same window order).
    #[inline]
    pub fn record(&mut self, wid: usize, digest: u64) {
        let slot = wid.min(DIGEST_WINDOWS - 1);
        if let Some(d) = self.digests.get_mut(slot) {
            *d = d.rotate_left(1) ^ digest;
            self.mask |= 1 << slot;
        }
    }

    /// The digest recorded for slot `slot`, or `None` when that window was
    /// never raw-scanned (pre-aggregation fast path, or no aggregates).
    pub fn slot(&self, slot: usize) -> Option<u64> {
        if slot >= DIGEST_WINDOWS || self.mask & (1 << slot) == 0 {
            return None;
        }
        self.digests.get(slot).copied()
    }

    /// Bitmask of populated slots.
    pub fn mask(&self) -> u16 {
        self.mask
    }
}

/// How a confirmed divergence was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The served output row differs from the materialized-oracle replay.
    OutputMaterialized,
    /// Outputs agree but a window's scanned-input digest differs between
    /// serve time and replay with the table versions unchanged —
    /// nondeterministic scan behavior.
    ScanInput,
}

impl DivergenceKind {
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::OutputMaterialized => "output_materialized",
            DivergenceKind::ScanInput => "scan_input",
        }
    }
}

/// One confirmed online/offline divergence, with both encodings retained
/// so the mismatch can be diagnosed after the fact.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Deployment the diverging request was served through.
    pub deployment: String,
    /// Trace id of the originally served request (joins against the
    /// flight-recorder post-mortem published alongside).
    pub trace_id: u64,
    pub kind: DivergenceKind,
    /// Window id for [`DivergenceKind::ScanInput`] (digest slot index).
    pub window: Option<usize>,
    /// Rendering of the row the live path served.
    pub served: String,
    /// Rendering of the oracle replay's row (or its input digest for
    /// scan-input divergences).
    pub oracle: String,
}

impl DivergenceReport {
    /// One-line human rendering for reports and logs.
    pub fn render_text(&self) -> String {
        let win = self
            .window
            .map(|w| format!(" window={w}"))
            .unwrap_or_default();
        format!(
            "divergence deployment={} trace={} kind={}{} served={} oracle={}",
            self.deployment,
            self.trace_id,
            self.kind.name(),
            win,
            self.served,
            self.oracle,
        )
    }
}

/// Retained divergence reports (oldest evicted first).
pub const DIVERGENCE_LOG_CAPACITY: usize = 128;

struct DivergenceLog {
    ring: VecDeque<DivergenceReport>,
    total: u64,
}

fn divergence_log() -> &'static Mutex<DivergenceLog> {
    static LOG: OnceLock<Mutex<DivergenceLog>> = OnceLock::new();
    LOG.get_or_init(|| {
        Mutex::new(DivergenceLog {
            ring: VecDeque::with_capacity(DIVERGENCE_LOG_CAPACITY),
            total: 0,
        })
    })
}

/// Publish a confirmed divergence into the bounded process-wide audit log
/// (cold path — only ever runs on an actual mismatch).
pub fn publish_divergence(report: DivergenceReport) {
    #[cfg(not(feature = "obs-off"))]
    {
        let mut log = divergence_log().lock().unwrap_or_else(|p| p.into_inner());
        if log.ring.len() == DIVERGENCE_LOG_CAPACITY {
            log.ring.pop_front();
        }
        log.ring.push_back(report);
        log.total += 1;
    }
    #[cfg(feature = "obs-off")]
    let _ = report;
}

/// Retained divergence reports, oldest first.
pub fn divergences() -> Vec<DivergenceReport> {
    let log = divergence_log().lock().unwrap_or_else(|p| p.into_inner());
    log.ring.iter().cloned().collect()
}

/// Total divergences ever published (survives ring eviction).
pub fn divergences_total() -> u64 {
    divergence_log()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .total
}

/// Drop retained reports and the running total (tests and bench gates).
pub fn clear_divergences() {
    let mut log = divergence_log().lock().unwrap_or_else(|p| p.into_inner());
    log.ring.clear();
    log.total = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::new();
        a.write(b"ab");
        let mut b = Fnv::new();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write(b"ab");
        assert_eq!(a.finish(), c.finish());
        // Length-prefix-free but position-sensitive: u64 folding matches
        // its own little-endian byte fold.
        let mut d = Fnv::new();
        d.write_u64(7);
        let mut e = Fnv::new();
        e.write(&7u64.to_le_bytes());
        assert_eq!(d.finish(), e.finish());
    }

    #[test]
    fn scan_digest_slots_and_overflow() {
        let mut d = ScanDigest::default();
        assert!(!d.armed());
        d.arm();
        assert!(d.armed());
        d.record(0, 11);
        d.record(2, 22);
        // Windows past the slot budget share the last slot.
        d.record(9, 33);
        d.record(10, 44);
        assert_eq!(d.slot(0), Some(11));
        assert!(d.slot(1).is_none());
        assert_eq!(d.slot(2), Some(22));
        assert!(d.slot(DIGEST_WINDOWS - 1).is_some());
        assert_ne!(d.slot(DIGEST_WINDOWS - 1), Some(33));
        d.clear();
        assert!(!d.armed());
        assert_eq!(d.mask(), 0);
    }

    #[test]
    fn divergence_log_is_bounded_and_counts() {
        clear_divergences();
        for i in 0..(DIVERGENCE_LOG_CAPACITY + 5) as u64 {
            publish_divergence(DivergenceReport {
                deployment: "d".into(),
                trace_id: i,
                kind: DivergenceKind::OutputMaterialized,
                window: None,
                served: "[1]".into(),
                oracle: "[2]".into(),
            });
        }
        let log = divergences();
        if crate::enabled() {
            assert_eq!(log.len(), DIVERGENCE_LOG_CAPACITY);
            assert_eq!(divergences_total(), DIVERGENCE_LOG_CAPACITY as u64 + 5);
            // Oldest evicted first.
            assert_eq!(log[0].trace_id, 5);
            assert!(log[0].render_text().contains("output_materialized"));
        } else {
            assert!(log.is_empty());
        }
        clear_divergences();
        assert_eq!(divergences_total(), 0);
    }
}
