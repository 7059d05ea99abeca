//! Deterministic, splittable PRNG (SplitMix64-seeded xoshiro256++).
//!
//! Every stochastic choice in the workspace — node placement, generation
//! schedules, malicious-node selection, WPS tie-breaks — draws from a
//! [`DetRng`] so a single `u64` seed reproduces an entire experiment. Streams
//! can be forked per subsystem ([`DetRng::fork`]) so adding draws in one
//! component does not perturb another.

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// xoshiro256++ deterministic random number generator.
///
/// # Example
///
/// ```
/// use tldag_sim::rng::DetRng;
///
/// let mut a = DetRng::seed_from(1);
/// let mut b = DetRng::seed_from(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent stream labelled by `stream`. Forking with the
    /// same label always yields the same child generator, so subsystems can be
    /// given stable streams regardless of draw order elsewhere.
    pub fn fork(&self, stream: u64) -> DetRng {
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xd1342543de82ef95);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's nearly-divisionless method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Chooses a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub(crate) fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(99);
        let mut b = DetRng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 10);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = DetRng::seed_from(5);
        let mut f1 = root.fork(1);
        let mut f1_again = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = DetRng::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn unit_f64_in_bounds_and_roughly_uniform() {
        let mut rng = DetRng::seed_from(4);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = DetRng::seed_from(7);
        let sample = rng.sample_indices(50, 25);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 25);
        assert!(sample.iter().all(|&i| i < 50));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversample_panics() {
        DetRng::seed_from(8).sample_indices(3, 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
