//! Offline API-compatible stand-in for the subset of `criterion` this
//! workspace's benches use.
//!
//! The build environment has no crates.io access. This shim keeps every
//! `benches/*.rs` file compiling and producing *useful* numbers under
//! `cargo bench`: each benchmark runs 2 unmeasured warm-up iterations,
//! collects 10 samples, and summarizes them with the robust
//! statistics in `stats` — MAD outlier rejection, mean, median, minimum
//! and a 95% confidence interval — a small, honest subset of criterion's
//! statistical machinery.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

mod stats {
    //! Robust summary statistics for timing samples.
    //!
    //! Wall-clock benchmark samples are contaminated by scheduler noise in
    //! one direction only — samples are occasionally *slow*, never
    //! impossibly fast — so a trimmed mean around the median is far more
    //! stable than the raw mean. The classic robust recipe used here:
    //! reject samples more than 3.5 scaled-MADs from the median (the MAD,
    //! scaled by 1.4826, estimates the standard deviation of the
    //! uncontaminated normal core), then report moments of the survivors.

    /// Factor that turns a median absolute deviation into a consistent
    /// estimate of the standard deviation for normally distributed data.
    const MAD_SCALE: f64 = 1.4826;
    /// Rejection threshold in scaled-MAD units (the conventional cutoff).
    const MAD_CUTOFF: f64 = 3.5;
    /// Two-sided 95% normal quantile for the confidence interval.
    const Z_95: f64 = 1.96;

    /// Summary of a set of timing samples, in nanoseconds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Stats {
        /// Raw sample count, before outlier rejection.
        pub samples: usize,
        /// Samples surviving MAD rejection (the basis of every moment).
        pub kept: usize,
        /// Samples rejected as outliers (`samples - kept`).
        pub outliers: usize,
        /// Mean of the kept samples.
        pub mean_ns: f64,
        /// Median of the kept samples.
        pub median_ns: f64,
        /// Minimum of the kept samples.
        pub min_ns: f64,
        /// Sample standard deviation of the kept samples (0 when `kept < 2`).
        pub std_ns: f64,
        /// Half-width of the 95% confidence interval on the mean:
        /// `1.96 * std / sqrt(kept)`.
        pub ci95_ns: f64,
    }

    fn median_of_sorted(sorted: &[f64]) -> f64 {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// Summarizes `samples_ns` (timings in nanoseconds, any order).
    ///
    /// Samples farther than 3.5 scaled-MADs from the median are rejected
    /// before the moments are computed. When the MAD is zero (at least half
    /// the samples are identical) rejection is skipped entirely — every
    /// deviation would otherwise be infinitely many MADs out.
    ///
    /// # Panics
    /// Panics when `samples_ns` is empty.
    pub fn summarize(samples_ns: &[f64]) -> Stats {
        assert!(!samples_ns.is_empty(), "cannot summarize zero samples");
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let raw_median = median_of_sorted(&sorted);
        let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - raw_median).abs()).collect();
        deviations.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mad = median_of_sorted(&deviations);
        let kept: Vec<f64> = if mad > 0.0 {
            let cutoff = MAD_CUTOFF * MAD_SCALE * mad;
            sorted
                .iter()
                .copied()
                .filter(|x| (x - raw_median).abs() <= cutoff)
                .collect()
        } else {
            sorted.clone()
        };
        debug_assert!(!kept.is_empty(), "the median always survives rejection");
        let n = kept.len();
        let mean = kept.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            let var = kept.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        } else {
            0.0
        };
        Stats {
            samples: sorted.len(),
            kept: n,
            outliers: sorted.len() - n,
            mean_ns: mean,
            median_ns: median_of_sorted(&kept),
            min_ns: kept[0],
            std_ns: std,
            ci95_ns: Z_95 * std / (n as f64).sqrt(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn identical_samples_have_zero_spread() {
            let s = summarize(&[5.0; 8]);
            assert_eq!(s.samples, 8);
            assert_eq!(s.kept, 8);
            assert_eq!(s.outliers, 0);
            assert_eq!(s.mean_ns, 5.0);
            assert_eq!(s.median_ns, 5.0);
            assert_eq!(s.min_ns, 5.0);
            assert_eq!(s.std_ns, 0.0);
            assert_eq!(s.ci95_ns, 0.0);
        }

        #[test]
        fn mad_rejection_drops_a_gross_outlier() {
            // Nine tight samples and one scheduler hiccup 100x out.
            let mut xs = vec![10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0];
            xs.push(1_000.0);
            let s = summarize(&xs);
            assert_eq!(s.samples, 10);
            assert_eq!(s.kept, 9);
            assert_eq!(s.outliers, 1);
            assert!((s.mean_ns - 10.0).abs() < 0.1, "mean {}", s.mean_ns);
            assert!(s.min_ns >= 9.7);
        }

        #[test]
        fn zero_mad_skips_rejection() {
            // More than half the samples identical: MAD = 0; the distant
            // sample must survive rather than trip a divide-by-zero cutoff.
            let s = summarize(&[7.0, 7.0, 7.0, 7.0, 7.0, 50.0]);
            assert_eq!(s.kept, 6);
            assert_eq!(s.outliers, 0);
        }

        #[test]
        fn ci_shrinks_with_sample_count() {
            let few: Vec<f64> = (0..5).map(|i| 100.0 + i as f64).collect();
            let many: Vec<f64> = (0..50).map(|i| 100.0 + (i % 5) as f64).collect();
            let s_few = summarize(&few);
            let s_many = summarize(&many);
            assert!(s_few.ci95_ns > 0.0);
            assert!(s_many.ci95_ns < s_few.ci95_ns);
        }

        #[test]
        fn single_sample_is_degenerate_but_defined() {
            let s = summarize(&[42.0]);
            assert_eq!(s.kept, 1);
            assert_eq!(s.mean_ns, 42.0);
            assert_eq!(s.median_ns, 42.0);
            assert_eq!(s.std_ns, 0.0);
            assert_eq!(s.ci95_ns, 0.0);
        }

        #[test]
        #[should_panic(expected = "zero samples")]
        fn empty_input_panics() {
            let _ = summarize(&[]);
        }
    }
}

/// How a batched input is sized; accepted for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Measurement state handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    warm_up: usize,
    results: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize, warm_up: usize) -> Self {
        Self {
            samples,
            warm_up,
            results: Vec::with_capacity(samples),
        }
    }

    /// Times `routine` over fresh inputs built by `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.warm_up {
            let input = setup();
            black_box(routine(input));
        }
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.results.push(start.elapsed());
        }
    }

    fn report(&mut self, name: &str) {
        if self.results.is_empty() {
            println!("{name}: no samples");
            return;
        }
        let ns: Vec<f64> = self.results.iter().map(|d| d.as_nanos() as f64).collect();
        let s = stats::summarize(&ns);
        println!(
            "{name}: mean {:?} ± {:?}  median {:?}  min {:?}  ({}/{} samples kept)",
            Duration::from_nanos(s.mean_ns as u64),
            Duration::from_nanos(s.ci95_ns as u64),
            Duration::from_nanos(s.median_ns as u64),
            Duration::from_nanos(s.min_ns as u64),
            s.kept,
            s.samples,
        );
        self.results.clear();
    }
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    warm_up: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            warm_up: 2,
        }
    }
}

impl Criterion {
    /// Accepts command-line configuration (ignored by the shim).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<S, F>(&mut self, name: S, mut f: F) -> &mut Self
    where
        S: AsRef<str>,
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size, self.warm_up);
        f(&mut b);
        b.report(name.as_ref());
        self
    }
}

/// Declares the benchmark entry list, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
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
    fn iter_batched_consumes_fresh_inputs() {
        let mut c = Criterion::default();
        let (mut built, mut runs) = (0, 0);
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    built += 1;
                    vec![0u8; 16]
                },
                |v| {
                    runs += 1;
                    v.len()
                },
                BatchSize::SmallInput,
            )
        });
        // 2 warm-up + 10 measured iterations, each on a fresh input.
        assert_eq!((built, runs), (12, 12));
    }
}
