//! Slot-loop sharding and block-generation schedules.
//!
//! The paper divides time into slots; "each node generates at most one block
//! in each time slot" (Sec. VI), and for the consensus experiments "each node
//! has a random block generation rate of one block per {1, 2} time slots"
//! (Fig. 9 caption). [`GenerationSchedule`] captures both workloads.

use crate::rng::DetRng;
use crate::topology::NodeId;

/// A discrete time slot (0-based).
pub type Slot = u64;

/// How many threads a slotted simulation loop may use.
///
/// The engine runs its CPU-heavy slot phases on up to `threads` threads,
/// with a deterministic message exchange between phases. Results are
/// **identical for every thread count** given the same seed: all per-node
/// randomness is derived from `(seed, slot, node)` rather than drawn from
/// one shared stream, and per-thread results are merged in node-id order.
///
/// The default is one thread per core the process may run on
/// ([`std::thread::available_parallelism`], which honours CPU affinity and
/// cgroup quotas), and one when that is unknown.
///
/// [`Sharding::chunk_ranges`] splits `0..n` into `threads` contiguous
/// bands, for the work that is dealt out in chunks rather than claimed one
/// item at a time (the engine's commit point, group-commit shard logs).
///
/// # Example
///
/// ```
/// use tldag_sim::engine::Sharding;
///
/// let sharding = Sharding::threads(4);
/// let ranges = sharding.chunk_ranges(10);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
/// // Chunks cover every node exactly once, in order.
/// assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sharding {
    /// Number of threads (= shards). `1` runs the loop inline.
    pub threads: usize,
}

impl Default for Sharding {
    /// One thread per available core.
    fn default() -> Self {
        Sharding {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

impl Sharding {
    /// Single-threaded execution.
    pub fn single() -> Self {
        Sharding { threads: 1 }
    }

    /// Shard the loop across `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(threads: usize) -> Self {
        assert!(threads > 0, "sharding needs at least one thread");
        Sharding { threads }
    }

    /// The shard (chunk index) that `index` falls into when `0..n` is split
    /// by [`Sharding::chunk_ranges`], in O(1). Indices at or beyond `n`
    /// (e.g. nodes that joined after sizing) land in the last shard.
    /// Storage factories use this to map each node id to its shard log.
    pub fn shard_of(&self, n: usize, index: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let shards = self.threads.min(n).max(1);
        let base = n / shards;
        let extra = n % shards;
        // The first `extra` chunks hold `base + 1` items.
        let boundary = extra * (base + 1);
        if index >= n {
            shards - 1
        } else if index < boundary {
            index / (base + 1)
        } else {
            extra + (index - boundary) / base
        }
    }

    /// Splits `0..n` into at most `threads` contiguous, near-equal, non-empty
    /// ranges (fewer when `n < threads`). Concatenating the ranges in order
    /// visits every index exactly once in ascending order, which is what
    /// keeps shard-merge order equal to node-id order.
    pub fn chunk_ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let shards = self.threads.min(n).max(1);
        let base = n / shards;
        let extra = n % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

/// Per-node block-generation periods, in slots per block.
///
/// A node with period `p` generates a block in every slot `s` with
/// `s % p == phase`. The paper's storage experiments use `p = 1` for all
/// nodes; the consensus experiments draw `p` uniformly from `{1, 2}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenerationSchedule {
    periods: Vec<u64>,
    phases: Vec<u64>,
}

impl GenerationSchedule {
    /// Every node generates one block per slot (Figs. 7–8 workload).
    pub fn uniform(nodes: usize) -> Self {
        GenerationSchedule {
            periods: vec![1; nodes],
            phases: vec![0; nodes],
        }
    }

    /// Every node gets a fixed period drawn uniformly from `periods_choices`
    /// with a random phase (Fig. 9 workload uses `&[1, 2]`).
    ///
    /// # Panics
    ///
    /// Panics if `periods_choices` is empty or contains zero.
    pub fn random_periods(nodes: usize, periods_choices: &[u64], rng: &mut DetRng) -> Self {
        assert!(!periods_choices.is_empty(), "need at least one period");
        assert!(
            periods_choices.iter().all(|&p| p > 0),
            "periods must be positive"
        );
        let periods: Vec<u64> = (0..nodes)
            .map(|_| *rng.choose(periods_choices).expect("non-empty"))
            .collect();
        let phases = periods.iter().map(|&p| rng.next_below(p)).collect();
        GenerationSchedule { periods, phases }
    }

    /// Explicit per-node periods (phase 0), for targeted tests such as the
    /// micro-loop example of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if any period is zero.
    pub fn from_periods(periods: Vec<u64>) -> Self {
        assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
        let phases = vec![0; periods.len()];
        GenerationSchedule { periods, phases }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True if the schedule covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// Whether `node` generates a block in `slot`.
    pub fn generates(&self, node: NodeId, slot: Slot) -> bool {
        let p = self.periods[node.index()];
        slot % p == self.phases[node.index()]
    }

    /// The node's period in slots per block.
    pub fn period(&self, node: NodeId) -> u64 {
        self.periods[node.index()]
    }

    /// Blocks node will have generated during slots `0..=slot` (inclusive),
    /// i.e. the count of generation slots so far.
    pub fn blocks_by(&self, node: NodeId, slot: Slot) -> u64 {
        let p = self.periods[node.index()];
        let phase = self.phases[node.index()];
        // Count s in [0, slot] with s % p == phase.
        if slot < phase {
            0
        } else {
            (slot - phase) / p + 1
        }
    }

    /// Generation rate in blocks per slot (`1/p`).
    pub fn rate(&self, node: NodeId) -> f64 {
        1.0 / self.periods[node.index()] as f64
    }

    /// Extends the schedule with one more node generating every `period`
    /// slots starting at `phase`. Supports dynamic membership.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn push(&mut self, period: u64, phase: u64) {
        assert!(period > 0, "periods must be positive");
        self.periods.push(period);
        self.phases.push(phase % period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule_generates_every_slot() {
        let sched = GenerationSchedule::uniform(3);
        for slot in 0..10 {
            for node in 0..3u32 {
                assert!(sched.generates(NodeId(node), slot));
            }
        }
        assert_eq!(sched.blocks_by(NodeId(0), 9), 10);
    }

    #[test]
    fn period_two_generates_every_other_slot() {
        let sched = GenerationSchedule::from_periods(vec![2]);
        let slots: Vec<bool> = (0..6).map(|s| sched.generates(NodeId(0), s)).collect();
        assert_eq!(slots, vec![true, false, true, false, true, false]);
        assert_eq!(sched.blocks_by(NodeId(0), 5), 3);
    }

    #[test]
    fn random_periods_uses_choices() {
        let mut rng = DetRng::seed_from(1);
        let sched = GenerationSchedule::random_periods(100, &[1, 2], &mut rng);
        let ones = (0..100u32)
            .filter(|&i| sched.period(NodeId(i)) == 1)
            .count();
        assert!(ones > 20 && ones < 80, "roughly balanced: {ones}");
        for i in 0..100u32 {
            assert!(matches!(sched.period(NodeId(i)), 1 | 2));
        }
    }

    #[test]
    fn blocks_by_counts_generation_slots() {
        let mut rng = DetRng::seed_from(2);
        let sched = GenerationSchedule::random_periods(10, &[1, 2, 3], &mut rng);
        for node in 0..10u32 {
            let id = NodeId(node);
            for slot in 0..30 {
                let manual = (0..=slot).filter(|&s| sched.generates(id, s)).count() as u64;
                assert_eq!(sched.blocks_by(id, slot), manual, "node {node} slot {slot}");
            }
        }
    }

    #[test]
    fn rate_is_inverse_period() {
        let sched = GenerationSchedule::from_periods(vec![1, 2, 4]);
        assert_eq!(sched.rate(NodeId(0)), 1.0);
        assert_eq!(sched.rate(NodeId(1)), 0.5);
        assert_eq!(sched.rate(NodeId(2)), 0.25);
    }

    #[test]
    #[should_panic(expected = "periods must be positive")]
    fn zero_period_rejected() {
        GenerationSchedule::from_periods(vec![0]);
    }

    #[test]
    fn chunk_ranges_partition_in_order() {
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for threads in [1usize, 2, 3, 4, 7, 32] {
                let ranges = Sharding::threads(threads).chunk_ranges(n);
                assert!(ranges.len() <= threads);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty shard for n={n} t={threads}");
                    next = r.end;
                }
                assert_eq!(next, n, "covers all of 0..{n}");
                if n > 0 {
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "near-equal chunks: {sizes:?}");
                }
            }
        }
        assert!(Sharding::threads(4).chunk_ranges(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        Sharding::threads(0);
    }

    #[test]
    fn shard_of_matches_chunk_ranges() {
        for n in [1usize, 5, 16, 17, 100] {
            for threads in [1usize, 2, 3, 4, 7] {
                let sharding = Sharding::threads(threads);
                let ranges = sharding.chunk_ranges(n);
                for (shard, r) in ranges.iter().enumerate() {
                    for i in r.clone() {
                        assert_eq!(sharding.shard_of(n, i), shard, "n={n} t={threads} i={i}");
                    }
                }
                // Late joiners land in the last shard.
                assert_eq!(sharding.shard_of(n, n + 3), ranges.len() - 1);
            }
        }
        assert_eq!(Sharding::threads(4).shard_of(0, 9), 0);
    }
}
