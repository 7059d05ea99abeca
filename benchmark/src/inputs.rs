//! Inputs made from `--seed`: the deployment, audit targets, and where the
//! adversaries sit. The program receives only what is generated here.
//!
//! Every cost the benchmark reports depends first on how many neighbours a
//! node has: a block carries one digest per neighbour, so bytes stored,
//! bytes sent and hashing time all follow the deployment's edge count
//! (measured: mean degree 11.6–25.5 across 24 seeds moved `blocks_per_s`
//! by a factor of 1.7). The driver judges steadiness across seeds, and a
//! number that moves 25% with the seed cannot hold any bound, so the seed
//! picks *which* paper-scale deployment with a fixed edge count is used,
//! not how dense it is.
//!
//! The one condition on top of that is Proof-of-Path's own precondition,
//! tested directly by [`path_exists`]: an audit can only succeed where a
//! proof path exists. How many candidates each condition turned away is
//! returned with the inputs and printed with every run.

use tldag_core::block::BlockId;
use tldag_net::runtime::deployment_topology;
use tldag_sim::{DetRng, NodeId, Topology};

/// Deployment area side in meters (the paper's evaluation area).
pub const SIDE_M: f64 = 300.0;

/// Steps [`path_exists`] may take before it gives up and answers `false`:
/// far more than a search needs on a graph that has the path (a few
/// hundred at paper scale), and a bound on the rare one that has not.
const SEARCH_STEPS: u32 = 200_000;

/// Whether a simple path of `nodes` distinct nodes starts at `start` and
/// stays clear of every node marked in `excluded`.
///
/// That is the shape of a proof path: it needs γ+1 distinct owners and
/// moves from a block to one of its children, which live only at the
/// owner's neighbours. Depth-first, visiting the neighbour with the fewest
/// free neighbours of its own first, which keeps dead ends for last.
pub fn path_exists(topology: &Topology, excluded: &[bool], start: NodeId, nodes: usize) -> bool {
    fn extend(
        topology: &Topology,
        taken: &mut [bool],
        at: NodeId,
        left: usize,
        steps: &mut u32,
    ) -> bool {
        if left == 0 {
            return true;
        }
        let free = |taken: &[bool], id: NodeId| {
            topology
                .neighbors(id)
                .iter()
                .filter(|nb| !taken[nb.index()])
                .count()
        };
        let mut next: Vec<NodeId> = topology
            .neighbors(at)
            .iter()
            .copied()
            .filter(|nb| !taken[nb.index()])
            .collect();
        next.sort_by_key(|&nb| free(taken, nb));
        for nb in next {
            if *steps == 0 {
                return false;
            }
            *steps -= 1;
            taken[nb.index()] = true;
            if extend(topology, taken, nb, left - 1, steps) {
                return true;
            }
            taken[nb.index()] = false;
        }
        false
    }
    if nodes == 0 {
        return true;
    }
    if excluded[start.index()] {
        return false;
    }
    let mut taken = excluded.to_vec();
    taken[start.index()] = true;
    let mut steps = SEARCH_STEPS;
    extend(topology, &mut taken, start, nodes - 1, &mut steps)
}

/// Whether every node outside `excluded` owns blocks that can be audited:
/// a proof path of `gamma + 1` distinct nodes outside `excluded` starts at
/// it.
pub fn every_owner_auditable(topology: &Topology, excluded: &[bool], gamma: usize) -> bool {
    topology
        .node_ids()
        .filter(|id| !excluded[id.index()])
        .all(|id| path_exists(topology, excluded, id, gamma + 1))
}

/// The seeds the program is given, and what it took to find them.
pub struct Deployments {
    /// One program seed per deployment.
    pub seeds: Vec<u64>,
    /// Candidates drawn in all.
    pub drawn: usize,
    /// Candidates that had the edge count and were still turned away,
    /// because some node had no proof path to start.
    pub pathless: usize,
}

/// The first `count` values of the stream seeded by `seed` whose
/// `deployment_topology(_, nodes, SIDE_M)` has exactly `edges` edges and in
/// which [`every_owner_auditable`]. The wire runtime derives its topology
/// from its protocol seed, so one number has to fix both.
pub fn deployment_seeds(
    seed: u64,
    nodes: usize,
    edges: usize,
    gamma: usize,
    count: usize,
) -> Deployments {
    let mut stream = DetRng::seed_from(seed);
    let mut found = Deployments {
        seeds: Vec::with_capacity(count),
        drawn: 0,
        pathless: 0,
    };
    let nobody = vec![false; nodes];
    while found.seeds.len() < count {
        let candidate = stream.next_u64();
        found.drawn += 1;
        let topology = deployment_topology(candidate, nodes, SIDE_M);
        if topology.edge_count() != edges {
            continue;
        }
        if every_owner_auditable(&topology, &nobody, gamma) {
            found.seeds.push(candidate);
        } else {
            found.pathless += 1;
        }
    }
    found
}

/// Draws an operator audit: a validator, another node's block that is at
/// least `min_age` slots old at slot `now`, both from `among`.
pub fn audit_target(
    rng: &mut DetRng,
    among: &[NodeId],
    now: u64,
    min_age: u64,
) -> (NodeId, BlockId) {
    let validator = among[rng.index(among.len())];
    let owner = loop {
        let owner = among[rng.index(among.len())];
        if owner != validator {
            break owner;
        }
    };
    // One block per node per slot, so a block's sequence number is its slot.
    let seq = rng.index((now - min_age) as usize) as u32;
    (validator, BlockId::new(owner, seq))
}

/// Placements [`adversaries`] tries before it gives up.
const PLACEMENTS: usize = 4096;

/// Picks `count` adversaries uniformly at random among the placements
/// that leave every honest owner auditable, by drawing whole placements and
/// turning away the ones that do not; returns the placement (empty if none
/// of [`PLACEMENTS`] draws would do) and how many were turned away.
///
/// Proof-of-Path walks the DAG from child to child, and a block's children
/// live only at its owner's neighbours: an honest node with no honest way
/// out cannot be audited by anyone, whatever the program does. The paper's
/// 49% claim is about paths that exist, so the placement keeps them in
/// existence and the program has to find them.
pub fn adversaries(
    topology: &Topology,
    rng: &mut DetRng,
    count: usize,
    gamma: usize,
) -> (Vec<NodeId>, usize) {
    let mut order: Vec<NodeId> = topology.node_ids().collect();
    for turned_away in 0..PLACEMENTS {
        rng.shuffle(&mut order);
        let mut malicious = vec![false; topology.len()];
        for id in &order[..count] {
            malicious[id.index()] = true;
        }
        if every_owner_auditable(topology, &malicious, gamma) {
            return (order[..count].to_vec(), turned_away);
        }
    }
    (Vec::new(), PLACEMENTS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3-4 in a line, with 5 hanging off 2.
    fn line_with_spur() -> Topology {
        Topology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    }

    #[test]
    fn path_needs_distinct_nodes_and_avoids_the_excluded() {
        let t = line_with_spur();
        let nobody = vec![false; 6];
        assert!(path_exists(&t, &nobody, NodeId(0), 5));
        // The line is five long; the spur cannot lengthen it.
        assert!(!path_exists(&t, &nobody, NodeId(0), 6));
        // From the spur's tip the longest way out is 5-2-1-0 or 5-2-3-4.
        assert!(path_exists(&t, &nobody, NodeId(5), 4));
        assert!(!path_exists(&t, &nobody, NodeId(5), 5));
        let mut without_2 = nobody.clone();
        without_2[2] = true;
        assert!(path_exists(&t, &without_2, NodeId(0), 2));
        assert!(!path_exists(&t, &without_2, NodeId(0), 3));
        assert!(!path_exists(&t, &without_2, NodeId(2), 1));
        assert!(path_exists(&t, &without_2, NodeId(5), 1));
    }

    #[test]
    fn search_backtracks_out_of_a_dead_end() {
        // From 0 the spur (0-4) is a dead end; the cycle 0-1-2-3 is not.
        let t = Topology::from_edges(5, &[(0, 4), (0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(path_exists(&t, &[false; 5], NodeId(4), 5));
        assert!(path_exists(&t, &[false; 5], NodeId(0), 4));
        assert!(!path_exists(&t, &[false; 5], NodeId(0), 5));
    }

    #[test]
    fn auditable_means_every_honest_owner_has_a_path() {
        let t = line_with_spur();
        let nobody = vec![false; 6];
        // The junction has the shortest longest-path: 2-1-0, three nodes.
        assert!(every_owner_auditable(&t, &nobody, 2));
        assert!(!every_owner_auditable(&t, &nobody, 3));
        // With 2 gone, 5 is alone: fine for paths of one node, not two.
        let mut without_2 = nobody;
        without_2[2] = true;
        assert!(every_owner_auditable(&t, &without_2, 0));
        assert!(!every_owner_auditable(&t, &without_2, 1));
    }

    #[test]
    fn placements_keep_every_honest_owner_auditable() {
        for seed in [42, 43, 44] {
            let deployments = deployment_seeds(seed, 50, 450, 16, 1);
            assert!(deployments.drawn > deployments.pathless);
            let topology = deployment_topology(deployments.seeds[0], 50, SIDE_M);
            assert_eq!(topology.edge_count(), 450);
            let mut rng = DetRng::seed_from(seed);
            let (placement, _) = adversaries(&topology, &mut rng, 24, 16);
            assert_eq!(placement.len(), 24);
            let mut malicious = vec![false; 50];
            for id in &placement {
                assert!(!malicious[id.index()], "an adversary was placed twice");
                malicious[id.index()] = true;
            }
            assert!(every_owner_auditable(&topology, &malicious, 16));
            // Same seed, same placement.
            let mut again = DetRng::seed_from(seed);
            assert_eq!(adversaries(&topology, &mut again, 24, 16).0, placement);
        }
    }

    #[test]
    fn an_impossible_placement_is_reported_not_invented() {
        // Four nodes in a line cannot lose two and keep paths of three.
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = DetRng::seed_from(1);
        let (placement, turned_away) = adversaries(&t, &mut rng, 2, 2);
        assert!(placement.is_empty());
        assert_eq!(turned_away, PLACEMENTS);
    }

    #[test]
    fn audit_targets_are_old_enough_and_not_self_audits() {
        let among: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mut rng = DetRng::seed_from(7);
        for _ in 0..1000 {
            let (validator, target) = audit_target(&mut rng, &among, 60, 50);
            assert_ne!(validator, target.owner);
            assert!(u64::from(target.seq) < 10);
        }
    }
}
