//! The host's speed during a run, from a reference kernel the benchmark owns.
//!
//! Some of what the shared host does to a run cannot be escaped inside the
//! run: for tens of seconds to minutes at a time everything a vCPU computes,
//! the fastest repeat of every operation included, runs 8-10% slower on the
//! sandbox, and a 10 s run sits wholly inside one such spell or outside it.
//! (Set-up, which is page faults and allocation, does not slow in them, and
//! `setup_s` is reported as measured.) A
//! register-only arithmetic loop timed beside the operations slows by the
//! same share in those spells (3,300 ns -> 3,600 ns while `serve_short` went
//! 3.62 us -> 3.95 us; their ratio held within 3% over fourteen runs whose
//! latencies ranged over 11%), so latency and throughput are reported at the
//! reference host speed: measured time x (the kernel's time on the quiet
//! sandbox / the kernel's time in this run).
//!
//! The kernel touches no memory, so it neither disturbs the caches of the
//! operations it sits between nor follows a spell in which only the memory
//! system is slow; the fastest-repeat estimators (`stats`) are what deals with
//! those. It runs twice about once a millisecond, ~3 us each: 0.7% of a run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// The kernel's undisturbed time on the sandbox this benchmark was written
/// on (Xeon @ 2.1 GHz guest, quiet host): the speed the metrics are scaled
/// to. A constant of the benchmark, not a measurement of the run.
pub const REFERENCE_NS: f64 = 3_300.0;

const ITERATIONS: usize = 2_000;
/// At most one sample per this much of the timed loop.
const EVERY: Duration = Duration::from_millis(1);
/// The samples are dealt round-robin into this many hands, each spread over
/// the whole run like the repeats of one operation; the index is the median
/// of the hands' fastest samples. Odd, so that the cold and the warm sample
/// of a pair do not always go to the same hands.
const HANDS: usize = 7;

/// Four multiply/shift/add chains, two of them fed by the others: the
/// arithmetic ports busy, nothing loaded or stored.
fn kernel() -> u64 {
    let mut a = black_box(0x1234_5678_9abc_def1u64);
    let mut b = black_box(0x2234_5678_9abc_def1u64);
    let mut c = black_box(0x3234_5678_9abc_def1u64);
    let mut d = black_box(0x4234_5678_9abc_def1u64);
    for _ in 0..ITERATIONS {
        a = (a ^ (a >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        b = (b ^ (b >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        c = (c ^ (c >> 27)).wrapping_add(a);
        d = (d ^ (d >> 25)).wrapping_add(b).rotate_left(7);
    }
    a ^ b ^ c ^ d
}

/// Reference-kernel timings taken between the operations of one thread.
pub struct HostRef {
    samples_ns: Vec<u32>,
    last: Instant,
}

impl HostRef {
    /// Starts with a sample, so that even the shortest loop has an index.
    pub fn start() -> HostRef {
        let mut host = HostRef {
            samples_ns: Vec::new(),
            last: Instant::now(),
        };
        host.sample();
        host
    }

    /// Two kernel runs back to back, each a sample: the first finds its
    /// code and the branch predictor cold after whatever ran before it, the
    /// second does not.
    fn sample(&mut self) {
        let mut t0 = Instant::now();
        for _ in 0..2 {
            black_box(kernel());
            let t1 = Instant::now();
            self.samples_ns
                .push((t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32);
            t0 = t1;
        }
        self.last = t0;
    }

    /// Call between two timed operations with the clock reading that ended
    /// the first: takes a sample if [`EVERY`] has passed.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if now - self.last >= EVERY {
            self.sample();
        }
    }

    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }

    /// The host's speed while the samples were taken: the kernel's
    /// undisturbed time here over [`REFERENCE_NS`]. 1.1 means ten percent
    /// slower than the reference; a time divided by it is that time at the
    /// reference speed.
    pub fn index(&self) -> f64 {
        let hands = stats::fastest_repeats(&self.samples_ns, HANDS);
        f64::from(stats::percentile(&hands, 50.0)) / REFERENCE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_median_hand_over_the_reference_time() {
        // Dealt into 7 hands; every hand's fastest sample is 3,630.
        let host = HostRef {
            samples_ns: (0..64)
                .map(|i| if i < 48 { 9_000 } else { 3_630 })
                .collect(),
            last: Instant::now(),
        };
        assert!((host.index() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn a_fresh_reference_has_a_sample_and_ticks_by_the_clock() {
        let mut host = HostRef::start();
        assert_eq!(host.samples(), 2);
        host.tick(host.last);
        assert_eq!(host.samples(), 2);
        host.tick(host.last + EVERY);
        assert_eq!(host.samples(), 4);
        assert!(host.index() > 0.0);
    }
}
