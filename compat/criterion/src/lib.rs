//! Offline stand-in for the subset of `criterion` this workspace's benches
//! use: `Criterion::benchmark_group`, `bench_function`, `Bencher::{iter,
//! iter_batched}`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Like criterion, the first command-line argument that is not a flag
//! (`cargo bench --bench hot_paths -- sliding_window`) filters: only the
//! benchmarks whose `group/id` (or bare `id`) contains it run.
//!
//! Methodology is deliberately simple (no statistical analysis or HTML
//! reports): each benchmark warms up briefly, then runs batches until a
//! fixed measurement budget elapses and reports the median batch's
//! ns/iteration on stdout. Good enough to compare hot paths relative to one
//! another on one machine; not a replacement for real criterion's rigor.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(250);

/// How batched setup output is sized; only a hint in this stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark driver handed to `bench_function` closures.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled by `iter`/`iter_batched`.
    ns_per_iter: f64,
}

impl Bencher {
    fn time_batches(&mut self, mut run_batch: impl FnMut(u64) -> Duration) {
        // Warm up and size the batch so one batch is ~1ms.
        let mut batch: u64 = 1;
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            let took = run_batch(batch);
            if took < Duration::from_millis(1) && batch < 1 << 20 {
                batch *= 2;
            }
        }
        let mut samples: Vec<f64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE || samples.len() < 5 {
            let took = run_batch(batch);
            samples.push(took.as_nanos() as f64 / batch as f64);
            if samples.len() >= 1_000 {
                break;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.ns_per_iter = samples[samples.len() / 2];
    }

    /// Time a closure, reporting the median ns per call.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        self.time_batches(|batch| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed()
        });
    }

    /// Time `routine` on fresh `setup()` output, excluding setup time.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        self.time_batches(|batch| {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            start.elapsed()
        });
    }
}

/// Named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    /// Whether the group's header is printed: before its first benchmark
    /// that runs.
    headed: bool,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        if !self.criterion.selects(&format!("{}/{id}", self.name)) {
            return self;
        }
        if !std::mem::replace(&mut self.headed, true) {
            println!("== group {} ==", self.name);
        }
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        println!("{}/{:<28} {:>14.1} ns/iter", self.name, id, b.ns_per_iter);
        self
    }

    pub fn finish(&mut self) {}
}

/// Top-level benchmark context.
pub struct Criterion {
    /// Run only the benchmarks whose name contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    /// The filter is the first argument that is not a flag (cargo passes
    /// `--bench`).
    fn default() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Criterion { filter }
    }
}

impl Criterion {
    /// Whether the benchmark `name` (`group/id` or a bare `id`) runs.
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
            headed: false,
        }
    }

    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        if !self.selects(id) {
            return self;
        }
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        println!("{:<36} {:>14.1} ns/iter", id, b.ns_per_iter);
        self
    }
}

/// Collects benchmark functions under one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_reports_nonzero_time() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        b.iter(|| (0..100u64).sum::<u64>());
        assert!(b.ns_per_iter > 0.0);
    }

    #[test]
    fn filter_selects_names_that_contain_it() {
        let filtered = |f: Option<&str>| Criterion {
            filter: f.map(String::from),
        };
        let c = filtered(Some("sliding_window"));
        assert!(c.selects("sliding_window/slide_2k_rows"));
        assert!(!c.selects("compiled_eval/window_fold_expr_50"));
        let c = filtered(Some("fold_expr_5"));
        assert!(c.selects("compiled_eval/window_fold_expr_50"));
        assert!(c.selects("window_fold_expr_50"));
        assert!(!c.selects("compiled_eval/window_fold_expr_1"));
        assert!(filtered(None).selects("anything"));
        // A group whose benchmarks are all filtered out runs none.
        let (mut c, mut ran) = (filtered(Some("other")), false);
        c.benchmark_group("g").bench_function("id", |_| ran = true);
        c.bench_function("id", |_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn iter_batched_consumes_setup_output() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        b.iter_batched(|| vec![1u8, 2, 3], |v| v.len(), BatchSize::SmallInput);
        assert!(b.ns_per_iter > 0.0);
    }
}
