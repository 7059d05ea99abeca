//! Sweep sizing: paper-scale vs quick (CI-friendly) runs.

/// How big an experiment sweep should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's settings: 50 nodes, up to 200 slots, full parameter grids.
    Paper,
    /// Reduced settings for smoke tests and CI (`--quick`).
    Quick,
}

impl Scale {
    /// Number of IoT nodes.
    pub(crate) fn nodes(self) -> usize {
        match self {
            Scale::Paper => 50,
            Scale::Quick => 16,
        }
    }

    /// Horizon in slots for the storage/communication sweeps.
    pub(crate) fn slots(self) -> u64 {
        match self {
            Scale::Paper => 200,
            Scale::Quick => 60,
        }
    }

    /// Sampling interval in slots.
    pub(crate) fn sample_every(self) -> u64 {
        match self {
            Scale::Paper => 25,
            Scale::Quick => 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_sec_vi() {
        assert_eq!(Scale::Paper.nodes(), 50);
        assert_eq!(Scale::Paper.slots(), 200);
        assert_eq!(Scale::Paper.sample_every(), 25);
    }

    #[test]
    fn quick_is_smaller_everywhere() {
        assert!(Scale::Quick.nodes() < Scale::Paper.nodes());
        assert!(Scale::Quick.slots() < Scale::Paper.slots());
    }
}
