//! Percentile, fastest-repeat, quiet-slice and spread arithmetic shared by the
//! timed phase, the traced phase and `compare` / `calibrate`.
//!
//! The sandbox is a few cores of a shared host, and what the co-tenants do
//! shows in every wall-clock number. Recorded on `serve_short` (4 us
//! requests): for seconds to minutes at a time the median request takes
//! 1.2-1.4x as long, the 75th percentile 1.3x, the 25th 1.12x, the 10th
//! 1.07x and the fastest of a thousand 1.02x, while a dependent multiply
//! chain timed beside them does not move at all. The slow state is a mixture,
//! microsecond by microsecond, of operations that were disturbed and
//! operations that were not, and how much of a run it covers differs from
//! run to run and from machine to machine: pooled medians of runs of the same
//! code spread by 30-40%, and so did every estimator that needs tens of
//! milliseconds of undisturbed time in a row.
//!
//! The end-to-end estimators therefore repeat every distinct operation many
//! times, spread evenly over the run, and keep the **fastest repeat** of each:
//! what that operation costs when nothing else is in the way, which is what a
//! change to the program moves. The reported latency is the median of those
//! over the distinct operations; throughput is the inverse of their mean. An
//! operation needs one undisturbed repeat anywhere in the run, not an
//! undisturbed stretch. Operations that cannot be repeated (a put) are dealt
//! round-robin into hands, each standing for one operation. What slows even
//! the fastest repeats for a whole run is `hostref`'s business. The per-layer
//! numbers of the traced phase, which carry no bound, keep the older
//! quiet-slice estimators below.

/// Slices per client. A slice is the unit that must fall wholly into the
/// host's fast state; at 200, one lasts 30-40 ms of a default run.
pub const SLICES: usize = 200;
/// Shortest slice of the typical-latency and throughput estimators: with
/// a hundred or so long operations (a recovery, an offline batch) a single
/// operation that happened to run undisturbed is too lucky a sample.
pub const MIN_SLICE: usize = 3;
/// Shortest slice that reports a p99 as its tail.
pub const P99_MIN_SLICE: usize = 100;
/// A client with fewer operations than this reports p90s of
/// [`P90_SLICE`]-operation slices instead.
pub const P99_MIN_OPS: usize = 10 * P99_MIN_SLICE;
pub const P90_SLICE: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` percent of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[u32], p: f64) -> u32 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The quietest slice's statistic (lower is quieter).
pub fn quiet(per_slice: impl Iterator<Item = f64>) -> f64 {
    let best = per_slice.fold(f64::INFINITY, f64::min);
    assert!(best.is_finite(), "no slice to take a statistic from");
    best
}

/// Cut `samples` (arrival order) into at most `slices` consecutive
/// equal-count slices of at least `min_len` operations; a remainder shorter
/// than a slice is dropped. Fewer samples than `min_len` make one slice.
pub fn slices_of(
    samples: &[u32],
    slices: usize,
    min_len: usize,
) -> std::slice::ChunksExact<'_, u32> {
    let len = (samples.len() / slices)
        .max(min_len)
        .clamp(1, samples.len().max(1));
    samples.chunks_exact(len)
}

/// Typical latency (ns) of a workload's timed operations, one latency stream
/// per client: the median of each of up to [`SLICES`] slices per client, in
/// the quietest slice of any client.
pub fn typical_latency(clients: &[Vec<u32>]) -> f64 {
    quiet(
        clients
            .iter()
            .flat_map(|c| slices_of(c, SLICES, MIN_SLICE))
            .map(|slice| f64::from(percentile(slice, 50.0))),
    )
}

/// Whether a client with `n` timed operations reports p99 slices.
pub fn tail_is_p99(n: usize) -> bool {
    n >= P99_MIN_OPS
}

/// Tail latency (ns): the p99 of each of up to [`SLICES`] slices of at least
/// [`P99_MIN_SLICE`] operations per client, in the quietest slice. A pooled
/// p99 is decided by the few worst milliseconds of a run and moved 25-50% run
/// to run on the sandbox. Batch workloads time a hundred or so operations:
/// their slices hold [`P90_SLICE`] operations and report a p90.
pub fn tail_latency(clients: &[Vec<u32>]) -> f64 {
    quiet(clients.iter().flat_map(|c| {
        let (p, min_len) = if tail_is_p99(c.len()) {
            (99.0, P99_MIN_SLICE)
        } else {
            (90.0, P90_SLICE)
        };
        slices_of(c, SLICES, min_len).map(move |s| f64::from(percentile(s, p)))
    }))
}

/// Service time per operation (ns) in a client's quietest slice (the mean
/// of each slice). Throughput per client is its inverse.
pub fn quiet_ns_per_op(client: &[u32]) -> f64 {
    quiet(
        slices_of(client, SLICES, MIN_SLICE)
            .map(|s| s.iter().map(|&ns| f64::from(ns)).sum::<f64>() / s.len() as f64),
    )
}

/// Fastest repeat (ns) of each distinct operation of one client that cycles
/// through `distinct` operations: sample `i` is a repeat of operation
/// `i % distinct`.
pub fn fastest_repeats(samples: &[u32], distinct: usize) -> Vec<u32> {
    let distinct = distinct.clamp(1, samples.len().max(1));
    let mut fastest = vec![u32::MAX; distinct];
    for (i, &ns) in samples.iter().enumerate() {
        let slot = &mut fastest[i % distinct];
        *slot = (*slot).min(ns);
    }
    fastest.retain(|&ns| ns != u32::MAX);
    fastest
}

/// Operations per second of undisturbed service time: the inverse of the
/// mean of a client's fastest repeats.
pub fn undisturbed_rate(fastest: &[u32]) -> f64 {
    let total: f64 = fastest.iter().map(|&ns| f64::from(ns)).sum();
    1e9 * fastest.len() as f64 / total
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so `compare` and `calibrate` judge spread by the
/// same arithmetic as the driver that accepts the benchmark.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median;
/// 0 for fewer than two samples (nothing to judge a spread from).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_values() {
        let sorted: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 5);
        assert_eq!(percentile_sorted(&sorted, 90.0), 9);
        assert_eq!(percentile_sorted(&sorted, 99.0), 10);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile(&[30, 10, 20], 50.0), 20);
        assert_eq!(percentile_sorted(&[7u32], 99.0), 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slices_are_equal_count_and_drop_the_remainder() {
        let samples: Vec<u32> = (0..103).collect();
        let lens: Vec<usize> = slices_of(&samples, 10, 1).map(<[u32]>::len).collect();
        assert_eq!(lens, vec![10; 10]);
        // A minimum length makes fewer, longer slices.
        assert_eq!(slices_of(&samples, 50, 20).count(), 5);
        // Fewer samples than slices: every operation is its own slice.
        assert_eq!(slices_of(&samples[..7], 50, 1).count(), 7);
        // Fewer samples than the minimum: one slice.
        assert_eq!(slices_of(&samples[..7], 20, 10).count(), 1);
    }

    /// 200 slices of 20 operations; `slow` of them run at 60, the rest at 40.
    fn two_state(slow: usize) -> Vec<u32> {
        (0..200)
            .flat_map(|s| std::iter::repeat_n(if s < slow { 60 } else { 40 }, 20))
            .collect()
    }

    #[test]
    fn typical_latency_reads_the_quiet_state() {
        // The pooled median flips with the slow share; the estimator does not
        // while one slice of the run is quiet.
        assert_eq!(percentile(&two_state(40), 50.0), 40);
        assert_eq!(percentile(&two_state(120), 50.0), 60);
        for slow in [0, 40, 120, 199] {
            assert_eq!(
                typical_latency(&[two_state(slow)]),
                40.0,
                "{slow} slow slices"
            );
            assert_eq!(quiet_ns_per_op(&two_state(slow)), 40.0);
        }
        assert_eq!(typical_latency(&[two_state(200)]), 60.0);
        // Two clients pool their slices.
        assert_eq!(typical_latency(&[two_state(200), two_state(0)]), 40.0);
    }

    #[test]
    fn few_long_operations_are_judged_three_at_a_time() {
        // Slices [9,1,8] [2,7,3] [6,5,4]: medians 8, 3, 5; means 6, 4, 5.
        let samples = vec![9, 1, 8, 2, 7, 3, 6, 5, 4];
        assert_eq!(typical_latency(std::slice::from_ref(&samples)), 3.0);
        assert_eq!(quiet_ns_per_op(&samples), 4.0);
        // Fewer than a slice: one slice.
        assert_eq!(typical_latency(&[vec![5, 1]]), 1.0);
    }

    #[test]
    fn tail_is_the_quietest_slice_p99() {
        // 20 slices of 100: slice s holds 98 samples of s+1 and two of 1000+s,
        // so its p99 (rank 99) is 1000+s; slice 0 is all 9999.
        let mut samples = Vec::new();
        for s in 0..20u32 {
            for i in 0..100u32 {
                samples.push(if s == 0 {
                    9_999
                } else if i % 50 == 0 {
                    1_000 + s
                } else {
                    s + 1
                });
            }
        }
        assert!(tail_is_p99(samples.len()));
        assert_eq!(tail_latency(&[samples.clone()]), 1_001.0);
        // The pooled p99 would have been decided by the bad slice.
        assert_eq!(percentile(&samples, 99.0), 9_999);
    }

    #[test]
    fn batch_tails_are_p90s_of_ten_operation_slices() {
        // 30 operations: three slices of 10, p90 = rank 9 of each: 9, 19, 29.
        let samples: Vec<u32> = (1..=30).collect();
        assert!(!tail_is_p99(samples.len()));
        assert_eq!(tail_latency(&[samples]), 9.0);
    }

    #[test]
    fn fastest_repeats_keeps_the_minimum_per_distinct_operation() {
        // Three distinct operations, visited 0 1 2 0 1 2 0 1: mins 3, 2, 9.
        let samples = [5, 7, 9, 3, 2, 11, 4, 8];
        assert_eq!(fastest_repeats(&samples, 3), vec![3, 2, 9]);
        // Fewer samples than distinct operations: what was visited.
        assert_eq!(fastest_repeats(&[6, 4], 5), vec![6, 4]);
        assert_eq!(fastest_repeats(&samples, 1), vec![2]);
        // A disturbed stretch covering most of a run leaves it unmoved.
        let calm: Vec<u32> = (0..400).map(|i| 40 + i % 4).collect();
        let mut disturbed = calm.clone();
        disturbed[..380].iter_mut().for_each(|ns| *ns += 20);
        assert_eq!(fastest_repeats(&calm, 4), fastest_repeats(&disturbed, 4));
    }

    #[test]
    fn undisturbed_rate_is_the_inverse_of_the_mean() {
        // Mean of 250 ns and 750 ns is 500 ns: two million a second.
        assert_eq!(undisturbed_rate(&[250, 750]), 2e6);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
