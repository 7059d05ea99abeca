//! Weighted Path Selection (Algorithm 1, Sec. IV-A).
//!
//! When the validator needs the next child of verifying block `b_v`, it picks
//! a neighbor of `v` whose *closed neighborhood* overlaps least with the set
//! `R_i` of nodes already on the proof path:
//!
//! ```text
//! w_v̂ = |R_i ∩ (N(v̂) ∪ {v̂})| / (|N(v̂)| + 1)          (Eq. 7)
//! ```
//!
//! The minimum-weight candidate is chosen (Eq. 8); ties are broken in favour
//! of candidates not already in `R_i`, then uniformly at random.

use tldag_sim::{DetRng, NodeId, Topology};

/// The owners of the blocks on a proof path, as a multiset; `R_i` is its
/// distinct-element view. Node ids index the topology, so the counts are a
/// dense vector: a weight is a handful of array reads, not hash probes. An
/// id past the end of the vector is simply not on the path.
#[derive(Clone, Debug, Default)]
pub struct OwnerMultiset {
    counts: Vec<u32>,
    distinct: usize,
}

impl OwnerMultiset {
    /// An empty multiset sized for a topology of `nodes` ids (it still
    /// grows for a later joiner's id).
    pub(crate) fn with_nodes(nodes: usize) -> Self {
        OwnerMultiset {
            counts: vec![0; nodes],
            distinct: 0,
        }
    }

    /// Adds one block of `owner` to the path.
    pub(crate) fn add(&mut self, owner: NodeId) {
        if self.counts.len() <= owner.index() {
            self.counts.resize(owner.index() + 1, 0);
        }
        let count = &mut self.counts[owner.index()];
        self.distinct += usize::from(*count == 0);
        *count += 1;
    }

    /// Removes one block of `owner` from the path (a rollback); removing an
    /// absent owner does nothing.
    pub(crate) fn remove(&mut self, owner: NodeId) {
        if let Some(count) = self.counts.get_mut(owner.index()).filter(|c| **c > 0) {
            *count -= 1;
            self.distinct -= usize::from(*count == 0);
        }
    }

    /// Whether `node` owns a block on the path (`node ∈ R_i`).
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.counts.get(node.index()).is_some_and(|&c| c > 0)
    }

    /// `|R_i|`: the number of distinct owners on the path.
    pub(crate) fn len_distinct(&self) -> usize {
        self.distinct
    }
}

impl FromIterator<NodeId> for OwnerMultiset {
    fn from_iter<I: IntoIterator<Item = NodeId>>(owners: I) -> Self {
        let mut set = OwnerMultiset::default();
        owners.into_iter().for_each(|owner| set.add(owner));
        set
    }
}

/// The WPS weight of `candidate` given the current path set `ri` (Eq. 7),
/// returned as the exact rational `(numerator, denominator)` to avoid
/// floating-point ties.
pub(crate) fn weight(topology: &Topology, candidate: NodeId, ri: &OwnerMultiset) -> (usize, usize) {
    let neighbors = topology.neighbors(candidate);
    let mut overlap = neighbors.iter().filter(|n| ri.contains(**n)).count();
    if ri.contains(candidate) {
        overlap += 1;
    }
    (overlap, neighbors.len() + 1)
}

/// Compares two rational weights `a = an/ad`, `b = bn/bd` exactly.
fn less(a: (usize, usize), b: (usize, usize)) -> bool {
    (a.0 * b.1) < (b.0 * a.1)
}

fn equal(a: (usize, usize), b: (usize, usize)) -> bool {
    (a.0 * b.1) == (b.0 * a.1)
}

/// Selects the next responder among `candidates` (Algorithm 1).
///
/// Sec. IV-A's case analysis: a candidate already in `R_i` "does not
/// contribute to the consensus", so **case 1** restricts the choice to
/// candidates outside `R_i`; only when every neighbor is already in `R_i`
/// (**case 2**, the micro-loop situation of Fig. 6) does the path revisit a
/// node. The minimum-weight candidate of the admissible pool wins (Eq. 8);
/// remaining ties break uniformly at random.
///
/// `candidates` should be the neighbors of the current verifying node that
/// have not been tried and are not excluded; the caller filters. Returns
/// `None` when no candidate remains.
///
/// # Example
///
/// ```
/// use tldag_core::pop::wps::{self, OwnerMultiset};
/// use tldag_sim::{DetRng, NodeId, Topology};
///
/// // Fig. 4: B-C, B-D, C-D, A-B, D-E (A=0, B=1, C=2, D=3, E=4).
/// let topo = Topology::from_edges(5, &[(1, 2), (1, 3), (2, 3), (0, 1), (3, 4)]);
/// let ri: OwnerMultiset = [NodeId(1)].into_iter().collect();
/// let mut rng = DetRng::seed_from(1);
/// // Verifying B1: the candidate with minimum weight is D.
/// let next = wps::select_next(&topo, &[NodeId(0), NodeId(2), NodeId(3)], &ri, &mut rng);
/// assert_eq!(next, Some(NodeId(3)));
/// ```
pub fn select_next(
    topology: &Topology,
    candidates: &[NodeId],
    ri: &OwnerMultiset,
    rng: &mut DetRng,
) -> Option<NodeId> {
    // Case 1: restrict to candidates that can still grow R_i.
    // Case 2: all neighbors already in R_i — any choice has the same effect.
    let any_fresh = candidates.iter().any(|&c| !ri.contains(c));
    let pool = candidates
        .iter()
        .copied()
        .filter(|&c| !(any_fresh && ri.contains(c)));

    // Z = argmin over the admissible pool (lines 1-4), in pool order, each
    // weight computed once.
    let mut z: Vec<NodeId> = Vec::new();
    let mut best = (0, 1);
    for c in pool {
        let w = weight(topology, c, ri);
        if z.is_empty() || less(w, best) {
            best = w;
            z.clear();
        }
        if equal(w, best) {
            z.push(c);
        }
    }
    if z.len() == 1 {
        return Some(z[0]); // lines 5-7
    }
    rng.choose(&z).copied() // lines 8-13
}

/// The WPS weight as an `f64`.
#[cfg(test)]
fn weight_f64(topology: &Topology, candidate: NodeId, ri: &OwnerMultiset) -> f64 {
    let (num, den) = weight(topology, candidate, ri);
    num as f64 / den as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tldag_sim::topology::TopologyConfig;

    fn path_of<const N: usize>(owners: [u32; N]) -> OwnerMultiset {
        owners.into_iter().map(NodeId).collect()
    }

    /// `select_next` as it was over a `HashSet<NodeId>` (pool, then argmin,
    /// then a filter that recomputes every weight): the reference the dense
    /// one must match in result *and* in draws.
    fn select_next_reference(
        topology: &Topology,
        candidates: &[NodeId],
        ri: &HashSet<NodeId>,
        rng: &mut DetRng,
    ) -> Option<NodeId> {
        let weight = |candidate: NodeId| {
            let neighbors = topology.neighbors(candidate);
            let mut overlap = neighbors.iter().filter(|n| ri.contains(n)).count();
            if ri.contains(&candidate) {
                overlap += 1;
            }
            (overlap, neighbors.len() + 1)
        };
        if candidates.is_empty() {
            return None;
        }
        let fresh: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|c| !ri.contains(c))
            .collect();
        let pool: &[NodeId] = if fresh.is_empty() { candidates } else { &fresh };
        let mut best = weight(pool[0]);
        for &c in &pool[1..] {
            let w = weight(c);
            if less(w, best) {
                best = w;
            }
        }
        let z: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&c| equal(weight(c), best))
            .collect();
        if z.len() == 1 {
            return Some(z[0]);
        }
        rng.choose(&z).copied()
    }

    #[test]
    fn dense_select_next_matches_the_hash_set_reference() {
        let mut gen = DetRng::seed_from(0x5e1ec7);
        for case in 0..400u64 {
            let nodes = 5 + gen.index(56);
            let topo = Topology::random_connected(
                &TopologyConfig {
                    nodes,
                    side_m: 150.0 + 250.0 * gen.unit_f64(),
                    ..TopologyConfig::paper_default()
                },
                &mut gen,
            );
            // A path multiset built the way a walk builds it: owners added
            // (some twice, a micro-loop), then some removed once (rollback).
            let mut dense = OwnerMultiset::with_nodes(if case % 2 == 0 { nodes } else { 0 });
            let mut counts = vec![0u32; nodes];
            for _ in 0..gen.index(nodes.min(20) + 1) {
                let owner = gen.index(nodes);
                for _ in 0..1 + gen.index(2) {
                    dense.add(NodeId(owner as u32));
                    counts[owner] += 1;
                }
            }
            for (owner, count) in counts.iter_mut().enumerate() {
                if gen.index(3) == 0 {
                    dense.remove(NodeId(owner as u32));
                    *count = count.saturating_sub(1);
                }
            }
            let sparse: HashSet<NodeId> = (0..nodes)
                .filter(|&n| counts[n] > 0)
                .map(|n| NodeId(n as u32))
                .collect();
            assert_eq!(dense.len_distinct(), sparse.len(), "case {case}");
            for n in 0..nodes as u32 + 3 {
                assert_eq!(dense.contains(NodeId(n)), sparse.contains(&NodeId(n)));
            }

            let tip = NodeId(gen.index(nodes) as u32);
            let candidates: Vec<NodeId> = topo
                .neighbors(tip)
                .iter()
                .copied()
                .filter(|_| gen.index(4) != 0)
                .collect();
            let seed = gen.next_u64();
            let (mut rng, mut rng_ref) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
            assert_eq!(
                select_next(&topo, &candidates, &dense, &mut rng),
                select_next_reference(&topo, &candidates, &sparse, &mut rng_ref),
                "case {case}: N {nodes}, tip {tip}, candidates {candidates:?}"
            );
            assert_eq!(rng.next_u64(), rng_ref.next_u64(), "case {case}: draws");
        }
    }

    /// The Fig. 4 topology: A=0, B=1, C=2, D=3, E=4.
    fn fig4() -> Topology {
        Topology::from_edges(5, &[(1, 2), (1, 3), (2, 3), (0, 1), (3, 4)])
    }

    #[test]
    fn fig4_weights_match_paper_step1() {
        // Verifying B1 with R_i = {B}: w_A = 1/2, w_C = 1/3, w_D = 1/4.
        let topo = fig4();
        let ri = path_of([1]);
        assert_eq!(weight(&topo, NodeId(0), &ri), (1, 2));
        assert_eq!(weight(&topo, NodeId(2), &ri), (1, 3));
        assert_eq!(weight(&topo, NodeId(3), &ri), (1, 4));
        assert!((weight_f64(&topo, NodeId(3), &ri) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fig4_selects_d_then_e() {
        let topo = fig4();
        let mut rng = DetRng::seed_from(7);

        // Step 1: verifying B1, R_i = {B}; candidates N(B) = {A, C, D} → D.
        let ri = path_of([1]);
        let step1 = select_next(&topo, &[NodeId(0), NodeId(2), NodeId(3)], &ri, &mut rng);
        assert_eq!(step1, Some(NodeId(3)), "paper: choose D1");

        // Step 2: verifying D1, R_i = {B, D}; candidates N(D) = {B, C, E}.
        // Paper: w_B = 1/2, w_C = 2/3, w_E = 1/2; tie {B, E}, B ∈ R_i → E.
        let ri = path_of([1, 3]);
        assert_eq!(weight(&topo, NodeId(1), &ri), (2, 4));
        assert_eq!(weight(&topo, NodeId(2), &ri), (2, 3));
        assert_eq!(weight(&topo, NodeId(4), &ri), (1, 2));
        let step2 = select_next(&topo, &[NodeId(1), NodeId(2), NodeId(4)], &ri, &mut rng);
        assert_eq!(step2, Some(NodeId(4)), "paper: choose E2 because B ∈ R_i");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let topo = fig4();
        let ri = path_of([]);
        assert_eq!(
            select_next(&topo, &[], &ri, &mut DetRng::seed_from(0)),
            None
        );
    }

    #[test]
    fn all_tied_all_in_ri_selects_any() {
        // Case 2 of Algorithm 1: every candidate in R_i — still returns one.
        let topo = Topology::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let ri = path_of([0, 1, 2]);
        let got = select_next(
            &topo,
            &[NodeId(1), NodeId(2)],
            &ri,
            &mut DetRng::seed_from(3),
        );
        assert!(matches!(got, Some(NodeId(1)) | Some(NodeId(2))));
    }

    #[test]
    fn single_candidate_returned_directly() {
        let topo = fig4();
        let ri = path_of([]);
        assert_eq!(
            select_next(&topo, &[NodeId(2)], &ri, &mut DetRng::seed_from(4)),
            Some(NodeId(2))
        );
    }

    #[test]
    fn tie_break_prefers_fresh_nodes() {
        // Star topology: center 0, leaves 1..=3 all weight-tied.
        let topo = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let ri = path_of([0, 1]);
        // leaves 1, 2, 3 have closed neighborhoods {1,0},{2,0},{3,0}:
        // w_1 = 2/2 = 1, w_2 = w_3 = 1/2 → Z = {2, 3}, both outside R_i.
        for seed in 0..10 {
            let got = select_next(
                &topo,
                &[NodeId(1), NodeId(2), NodeId(3)],
                &ri,
                &mut DetRng::seed_from(seed),
            );
            assert!(
                matches!(got, Some(NodeId(2)) | Some(NodeId(3))),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn weight_counts_candidate_itself() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let ri = path_of([1]);
        // Candidate 1: closed neighborhood {1, 0}; R_i ∩ = {1} → 1/2.
        assert_eq!(weight(&topo, NodeId(1), &ri), (1, 2));
        // Candidate 0: closed neighborhood {0, 1}; R_i ∩ = {1} → 1/2.
        assert_eq!(weight(&topo, NodeId(0), &ri), (1, 2));
    }
}
