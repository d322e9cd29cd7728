//! **cqapx-metrics** — zero-dependency observability primitives.
//!
//! The serving stack needs to answer "where did the time go" without
//! slowing down the path that produces the answer. Everything here is
//! hand-rolled on atomics (no external crates and no locks, like the
//! rest of the workspace's bottom layer):
//!
//! - [`MetricsLevel`] — whether to record the instruments of this crate
//!   (`None < Counters`). Instrumented code gates on
//!   [`MetricsLevel::at_least`], a single integer compare on a copied
//!   field. At `None` the engine skips its latency histograms and its
//!   per-database counters; its aggregate `EngineStats` are counted at
//!   every level.
//! - [`Histogram`] — an HDR-style log-bucketed latency histogram:
//!   power-of-two buckets (`value → 64 - leading_zeros`), lock-free
//!   recording on relaxed atomics, quantile estimates
//!   (`p50/p90/p99/max`) by linear interpolation inside the landing
//!   bucket. Relative quantile error is bounded by the bucket ratio
//!   (a factor of 2), which is what latency SLO math needs; exact
//!   `count`, `sum`, and `max` are kept on the side.
//! - [`Counter`] — a relaxed atomic event counter.
//!
//! # Examples
//!
//! ```
//! use cqapx_metrics::{Histogram, MetricsLevel};
//!
//! let level = MetricsLevel::Counters;
//! let h = Histogram::new();
//! if level.at_least(MetricsLevel::Counters) {
//!     h.record(1_300); // e.g. µs
//! }
//! let s = h.snapshot();
//! assert_eq!(s.count, 1);
//! assert!(s.p99 >= 1_024 && s.p99 <= 2_047);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicU64, Ordering};

/// How much instrumentation the stack records.
///
/// Levels are totally ordered; each includes everything below it.
/// Instrumented code asks [`MetricsLevel::at_least`] — one integer
/// compare — so the `None` path costs a single predictable branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum MetricsLevel {
    /// Skip the latency histograms and the per-database counters. The
    /// engine's aggregate `EngineStats` are still counted: they are kept
    /// at every level.
    None,
    /// Latency histograms and per-database cache outcomes. The default.
    #[default]
    Counters,
}

impl MetricsLevel {
    /// Whether this level records instrumentation gated at `gate`.
    #[inline(always)]
    pub fn at_least(self, gate: MetricsLevel) -> bool {
        self >= gate
    }

    /// The level's canonical name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetricsLevel::None => "none",
            MetricsLevel::Counters => "counters",
        }
    }
}

impl std::fmt::Display for MetricsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of power-of-two buckets: bucket 0 holds the value `0`,
/// bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`, bucket 63 additionally
/// absorbs everything above.
pub const BUCKETS: usize = 64;

/// The bucket index a value lands in (`0` for `0`, else
/// `64 - leading_zeros`, clamped to the last bucket).
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// The inclusive `[lo, hi]` range of values a bucket holds (the last
/// bucket's `hi` is `u64::MAX`).
fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < BUCKETS, "bucket out of range");
    match bucket {
        0 => (0, 0),
        b if b == BUCKETS - 1 => (1u64 << (b - 1), u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// A lock-free log-bucketed histogram (HDR-style, power-of-two
/// buckets). Values are dimensionless; the engine records
/// microseconds. Recording is wait-free (one relaxed `fetch_add`, one
/// relaxed `fetch_max`); quantiles are computed on demand from a
/// bucket snapshot with linear interpolation inside the landing
/// bucket, so their relative error is bounded by the bucket ratio.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: exact count/sum/max plus
/// interpolated quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact minimum recorded value (0 when empty).
    pub min: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Clears every bucket and scalar. Not atomic with respect to
    /// concurrent recorders; callers quiesce first (the engine resets
    /// between benchmark epochs, not mid-batch).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time snapshot with interpolated `p50/p90/p99`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed));
        // Derive the totals from the bucket snapshot so quantiles are
        // internally consistent even if recorders race the scalars.
        let count: u64 = buckets.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let min = match self.min.load(Ordering::Relaxed) {
            u64::MAX => 0,
            m => m,
        };
        // No recorded value lies outside [min, max], so clamping the
        // interpolated estimate into that range only improves it (and
        // makes single-sample quantiles exact).
        let snap = |q: f64| quantile_from_buckets(&buckets, count, q).clamp(min, max);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: snap(0.50),
            p90: snap(0.90),
            p99: snap(0.99),
        }
    }
}

/// Estimates the `q`-quantile (0 ≤ q ≤ 1) from a bucket-count vector:
/// walk to the bucket holding the `ceil(q·count)`-th smallest value,
/// then interpolate linearly inside its `[lo, hi]` range by the rank's
/// position among that bucket's values.
fn quantile_from_buckets(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            let (lo, hi) = bucket_bounds(i);
            let hi = hi.min(lo.saturating_mul(2)); // tame the open-ended last bucket
            let within = (rank - seen - 1) as f64 / n as f64;
            return lo + ((hi - lo) as f64 * within) as u64;
        }
        seen += n;
    }
    0
}

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Counter {
        /// A zeroed counter.
        pub(crate) fn new() -> Counter {
            Counter::default()
        }
    }

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(MetricsLevel::Counters.at_least(MetricsLevel::None));
        assert!(MetricsLevel::Counters.at_least(MetricsLevel::Counters));
        assert!(!MetricsLevel::None.at_least(MetricsLevel::Counters));
        assert_eq!(MetricsLevel::default(), MetricsLevel::Counters);
        assert_eq!(MetricsLevel::None.to_string(), "none");
        assert_eq!(MetricsLevel::Counters.to_string(), "counters");
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's bounds round-trip through bucket_of.
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            if b < BUCKETS - 1 {
                assert_eq!(bucket_of(hi), b, "hi of bucket {b}");
                assert_eq!(bucket_of(hi + 1), b + 1, "hi+1 of bucket {b}");
            }
        }
    }

    #[test]
    fn histogram_scalars_are_exact() {
        let h = Histogram::new();
        for v in [0, 1, 5, 100, 100, 7_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 7_206);
        assert_eq!(s.max, 7_000);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        // 89 fast (≈100µs bucket [64,127]), 10 medium ([1024,2047]),
        // 1 slow outlier.
        for _ in 0..89 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_500);
        }
        h.record(50_000);
        let s = h.snapshot();
        assert!(s.p50 >= 64 && s.p50 <= 127, "p50 = {}", s.p50);
        assert!(s.p90 >= 1_024 && s.p90 <= 2_047, "p90 = {}", s.p90);
        assert!(s.p99 >= 1_024 && s.p99 <= 2_047, "p99 = {}", s.p99);
        assert_eq!(s.max, 50_000);
    }

    #[test]
    fn quantiles_clamp_to_exact_max() {
        let h = Histogram::new();
        h.record(1_000);
        let s = h.snapshot();
        // A single sample: every quantile is that sample, not the
        // bucket's upper bound.
        assert_eq!(s.p50, 1_000);
        assert_eq!(s.p99, 1_000);
    }

    #[test]
    fn quantile_interpolation_is_monotone() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p50 of 1..=1000 is ~500; bucket [256,511] or [512,1023] is
        // acceptable at factor-2 resolution.
        assert!(s.p50 >= 256 && s.p50 <= 1_023, "p50 = {}", s.p50);
        assert!(s.p99 >= 512, "p99 = {}", s.p99);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }
}
