//! Lock-free log-bucketed latency histograms.
//!
//! A [`LatencyHistogram`] spreads microsecond values over power-of-two
//! buckets: value `v` lands in the bucket indexed by `v`'s bit length, so
//! bucket `i` (for `i ≥ 1`) covers `[2^(i-1), 2^i - 1]` and bucket 0 holds
//! exact zeros. Recording is two relaxed `fetch_add`s and one relaxed
//! `fetch_max` — cheap enough for a per-slot hot path — and never blocks a
//! concurrent [`LatencyHistogram::snapshot`].
//!
//! Quantiles come from the snapshot by walking cumulative bucket counts
//! and returning the crossing bucket's *upper* bound: the estimate is
//! always `≥` the true quantile and `< 2×` it (one bucket of resolution),
//! which the property tests in `tests/hist_props.rs` pin down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bit lengths 0 (zero) through 64 (`u64::MAX`).
const BUCKETS: usize = 65;

/// Bit length of `v` — the bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` in microseconds.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free latency histogram with logarithmic (power-of-two) buckets.
///
/// All counters are relaxed atomics: this is statistics, not
/// synchronization, and torn cross-counter reads only cost a snapshot a
/// sub-microsecond skew.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Records one observed duration (saturating to whole microseconds).
    pub fn record(&self, elapsed: Duration) {
        self.record_micros(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Times `f` and records its wall-clock latency.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = std::time::Instant::now();
        let out = f();
        self.record(started.elapsed());
        out
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
            count += *slot;
        }
        HistogramSnapshot {
            buckets,
            count,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub sum_micros: u64,
    /// Largest observation in microseconds (exact, not bucketed).
    pub max_micros: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The non-empty buckets as `(inclusive_upper_micros, count)` pairs in
    /// ascending bound order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in microseconds: the upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` observation, so the
    /// estimate is `≥` the true quantile and within one power-of-two of it.
    /// Returns 0 for an empty histogram.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper(i).min(self.max_micros);
            }
        }
        self.max_micros
    }

    /// Median estimate in microseconds.
    pub fn p50(&self) -> u64 {
        self.quantile_micros(0.50)
    }

    /// 90th-percentile estimate in microseconds.
    pub fn p90(&self) -> u64 {
        self.quantile_micros(0.90)
    }

    /// 99th-percentile estimate in microseconds.
    pub fn p99(&self) -> u64 {
        self.quantile_micros(0.99)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// Folds another snapshot into this one (aggregating nodes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

/// The slot loop's instrumented phases, in engine execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: block generation.
    Generate,
    /// Phase 2: cross-shard digest exchange (barrier wait on the wire).
    Exchange,
    /// Phase 3: digest gossip.
    Gossip,
    /// Phase 4: PoP verification workload.
    Verify,
    /// Phase 5: commit point (durability sync).
    Commit,
}

impl Phase {
    /// Every phase, in execution order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::Generate,
        Phase::Exchange,
        Phase::Gossip,
        Phase::Verify,
        Phase::Commit,
    ];

    /// The phase's label in metric names and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Exchange => "exchange",
            Phase::Gossip => "gossip",
            Phase::Verify => "verify",
            Phase::Commit => "commit",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Generate => 0,
            Phase::Exchange => 1,
            Phase::Gossip => 2,
            Phase::Verify => 3,
            Phase::Commit => 4,
        }
    }
}

/// One latency histogram per slot-loop phase, shareable behind an `Arc`.
#[derive(Debug, Default)]
pub struct PhaseTimings {
    hists: [LatencyHistogram; 5],
}

impl PhaseTimings {
    /// Empty timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram of one phase.
    pub fn phase(&self, phase: Phase) -> &LatencyHistogram {
        &self.hists[phase.index()]
    }

    /// Records one observation for `phase`.
    pub fn record(&self, phase: Phase, elapsed: Duration) {
        self.phase(phase).record(elapsed);
    }

    /// Snapshots every phase in execution order.
    pub fn snapshot(&self) -> Vec<(Phase, HistogramSnapshot)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phase(p).snapshot()))
            .collect()
    }
}

#[cfg(test)]
impl PhaseTimings {
    /// Times `f` under `phase`.
    fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.phase(phase).time(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.max_micros, 0);
        assert_eq!(s.buckets().count(), 0);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value is within its bucket's bounds.
        for v in [0u64, 1, 2, 5, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b));
            if b > 0 {
                assert!(v > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record_micros(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_micros, 1100);
        assert_eq!(s.max_micros, 1000);
        // p50's rank-3 observation is 30 → bucket upper 31.
        assert_eq!(s.p50(), 31);
        // The top quantile is clamped to the exact max.
        assert_eq!(s.quantile_micros(1.0), 1000);
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_micros(5);
        b.record_micros(500);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_micros, 505);
        assert_eq!(s.max_micros, 500);
    }

    #[test]
    fn phase_timings_round_trip() {
        let t = PhaseTimings::new();
        t.record(Phase::Verify, Duration::from_micros(250));
        let got = t.time(Phase::Commit, || 7);
        assert_eq!(got, 7);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 5);
        let verify = snap
            .iter()
            .find(|(p, _)| *p == Phase::Verify)
            .map(|(_, s)| *s)
            .unwrap();
        assert_eq!(verify.count, 1);
        assert_eq!(verify.max_micros, 250);
        assert_eq!(t.phase(Phase::Commit).snapshot().count, 1);
        assert_eq!(t.phase(Phase::Generate).snapshot().count, 0);
    }
}
