//! Minimal offline stand-in for the `criterion` crate.
//!
//! Provides the benchmark-definition API this workspace's benches use
//! (`criterion_group!` / `criterion_main!`, `Criterion`, benchmark groups,
//! `BenchmarkId`, `Throughput`, `Bencher::iter`, `black_box`) with a
//! simple wall-clock sampler: after a short warm-up to estimate iteration
//! cost, it takes `sample_size` timed batches within `measurement_time`
//! and reports the median per-iteration time. No HTML reports, no
//! statistical regression analysis.
//!
//! As in `criterion`, the first argument that is not a flag filters the
//! benchmarks: only those whose `group/name` contains it run, so
//! `cargo bench --bench parsing -- load/shapes57` runs one case.
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver and configuration.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Runs only benchmarks whose full name contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            filter: None,
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Applies the command line: see [`Criterion::with_args`].
    pub fn configure_from_args(self) -> Self {
        self.with_args(std::env::args().skip(1))
    }

    /// Takes the first argument that is not a flag (`cargo bench` passes
    /// `--bench`) as a substring filter on `group/name`; other arguments
    /// are ignored.
    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.filter = args.into_iter().find(|a| !a.starts_with('-'));
        self
    }

    /// True iff the benchmark named `name` (`group/name`) is to run.
    fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            config: self.clone(),
            _parent: self,
        }
    }

    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let config = self.clone();
        run_benchmark(&name.into(), &config, f);
        self
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    config: Criterion,
    _parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.config.sample_size = n;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.config.measurement_time = d;
        self
    }

    /// Accepted for API compatibility; throughput rates are not reported.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().0);
        run_benchmark(&full, &self.config, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.into_benchmark_id().0);
        run_benchmark(&full, &self.config, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Anything usable as a benchmark id (a `BenchmarkId` or plain string).
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self.to_string())
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self)
    }
}

/// Input-size annotation (accepted, not reported).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Passed to benchmark closures; `iter` times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn time_one<F: FnMut(&mut Bencher)>(f: &mut F, iters: u64) -> Duration {
    let mut b = Bencher {
        iters,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    b.elapsed
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, config: &Criterion, mut f: F) {
    if !config.selects(name) {
        return;
    }
    // Warm up and estimate per-iteration cost, growing the batch until the
    // warm-up budget is spent.
    let mut iters: u64 = 1;
    let mut per_iter;
    let warm_up_start = Instant::now();
    loop {
        let elapsed = time_one(&mut f, iters);
        per_iter = elapsed.checked_div(iters as u32).unwrap_or(Duration::ZERO);
        if warm_up_start.elapsed() >= config.warm_up_time {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    if per_iter.is_zero() {
        per_iter = Duration::from_nanos(1);
    }

    // Size each sample so the full run fits the measurement budget.
    let budget_per_sample = config.measurement_time / config.sample_size as u32;
    let iters_per_sample = (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, u64::MAX as u128) as u64;

    let mut samples: Vec<Duration> = (0..config.sample_size)
        .map(|_| {
            let elapsed = time_one(&mut f, iters_per_sample);
            elapsed
                .checked_div(iters_per_sample as u32)
                .unwrap_or(Duration::ZERO)
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{name:<56} time: [{} {} {}]",
        format_duration(min),
        format_duration(median),
        format_duration(max),
    );
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Defines a benchmark group function; both the `name/config/targets` form
/// and the positional form are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Defines `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_without_panicking() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("smoke");
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, n| b.iter(|| n * 2));
        group.finish();
        c.bench_function("top-level", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn the_first_non_flag_argument_filters_by_substring() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let c = Criterion::default().with_args(args(&["--bench", "load/shapes57"]));
        assert!(c.selects("load/shapes57_gated"));
        assert!(!c.selects("load/turtle_frozen"));
        assert!(!c.selects("shapes_graph_translation"));
        let c = Criterion::default().with_args(args(&["--bench"]));
        assert!(c.selects("load/turtle_frozen"));

        // A filtered-out benchmark never runs its closure.
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
            .with_args(args(&["kept"]));
        let (mut kept, mut skipped) = (0, 0);
        let mut group = c.benchmark_group("g");
        group.bench_function("kept", |b| {
            kept += 1;
            b.iter(|| 1 + 1)
        });
        group.bench_function("other", |b| {
            skipped += 1;
            b.iter(|| 1 + 1)
        });
        group.finish();
        assert!(kept > 0);
        assert_eq!(skipped, 0);
    }
}
