//! Malicious-node selection and link fault injection.
//!
//! The consensus experiments (Figs. 8–9) place a configurable number of
//! malicious nodes in the network; PoP must route verification paths around
//! them (Fig. 5). [`FaultPlan`] chooses which nodes are malicious and exposes
//! membership tests; protocol-specific *behaviour* (unresponsive, corrupt
//! replies, tampered stores…) lives in `tldag-core::attack`.

use crate::rng::DetRng;
use crate::topology::{NodeId, Topology};

/// How malicious nodes are chosen from the deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaliciousPlacement {
    /// Uniformly at random (the paper's model).
    Uniform,
    /// Highest-degree nodes first — models the paper's observation that "a
    /// few nodes are important for forwarding data, which are vulnerable to
    /// attacks" (Sec. VI-B).
    HighestDegree,
    /// Lowest-degree (leaf) nodes first, a weak adversary for ablations.
    LowestDegree,
}

/// The set of malicious nodes for one experiment run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    malicious: Vec<bool>,
}

impl FaultPlan {
    /// Marks `count` nodes as malicious according to `placement`.
    ///
    /// # Panics
    ///
    /// Panics if `count > topology.len()`.
    pub fn select(
        topology: &Topology,
        count: usize,
        placement: MaliciousPlacement,
        rng: &mut DetRng,
    ) -> Self {
        assert!(
            count <= topology.len(),
            "cannot mark {count} of {} nodes malicious",
            topology.len()
        );
        let n = topology.len();
        let chosen: Vec<usize> = match placement {
            MaliciousPlacement::Uniform => rng.sample_indices(n, count),
            MaliciousPlacement::HighestDegree | MaliciousPlacement::LowestDegree => {
                let mut order: Vec<usize> = (0..n).collect();
                // Shuffle first so degree ties break randomly but deterministically.
                rng.shuffle(&mut order);
                order.sort_by_key(|&i| {
                    let d = topology.degree(NodeId(i as u32));
                    match placement {
                        MaliciousPlacement::HighestDegree => std::cmp::Reverse(d),
                        _ => std::cmp::Reverse(usize::MAX - d),
                    }
                });
                order.truncate(count);
                order
            }
        };
        let mut malicious = vec![false; n];
        for i in chosen {
            malicious[i] = true;
        }
        FaultPlan { malicious }
    }

    /// Whether `node` is malicious.
    pub fn is_malicious(&self, node: NodeId) -> bool {
        self.malicious[node.index()]
    }

    /// Ids of all malicious nodes.
    pub fn malicious_ids(&self) -> Vec<NodeId> {
        self.malicious
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Ids of all honest nodes.
    pub fn honest_ids(&self) -> Vec<NodeId> {
        self.malicious
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| (!m).then_some(NodeId(i as u32)))
            .collect()
    }
}

/// One node-restart fault: the node's process dies at `crash_slot` (losing
/// all volatile state) and comes back at `revive_slot`, recovering whatever
/// its storage backend persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// Slot at whose start the process dies.
    pub crash_slot: u64,
    /// Slot at whose start the process is back up (`> crash_slot`).
    pub revive_slot: u64,
}

/// A schedule of node crash/restart faults for one experiment run.
///
/// Placement mirrors [`FaultPlan`]: events can be listed explicitly or drawn
/// uniformly. The plan only *describes* the schedule; the protocol layer
/// executes it (dropping volatile state, reopening storage).
#[derive(Clone, Debug, Default)]
pub struct RestartPlan {
    events: Vec<RestartEvent>,
}

impl RestartPlan {
    /// Draws `count` distinct nodes uniformly and gives each one crash of
    /// `downtime_slots` slots, with crash slots uniform in `crash_window`.
    ///
    /// # Panics
    ///
    /// Panics if `count > topology.len()` or the window is empty.
    pub fn uniform(
        topology: &Topology,
        count: usize,
        crash_window: std::ops::Range<u64>,
        downtime_slots: u64,
        rng: &mut DetRng,
    ) -> Self {
        assert!(count <= topology.len(), "more restarts than nodes");
        assert!(!crash_window.is_empty(), "empty crash window");
        assert!(downtime_slots > 0, "restart needs positive downtime");
        let span = crash_window.end - crash_window.start;
        let events = rng
            .sample_indices(topology.len(), count)
            .into_iter()
            .map(|i| {
                let crash_slot = crash_window.start + rng.next_below(span);
                RestartEvent {
                    node: NodeId(i as u32),
                    crash_slot,
                    revive_slot: crash_slot + downtime_slots,
                }
            })
            .collect();
        RestartPlan { events }
    }

    /// All scheduled events.
    pub fn events(&self) -> &[RestartEvent] {
        &self.events
    }

    /// Nodes whose process dies at the start of `slot`.
    pub fn crashes_at(&self, slot: u64) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|e| e.crash_slot == slot)
            .map(|e| e.node)
            .collect()
    }

    /// Nodes whose process returns at the start of `slot`.
    pub fn revives_at(&self, slot: u64) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|e| e.revive_slot == slot)
            .map(|e| e.node)
            .collect()
    }
}

/// Link-level fault injection: independent message-drop probability.
#[derive(Clone, Debug)]
pub struct LinkFaults {
    drop_probability: f64,
    rng: DetRng,
}

impl LinkFaults {
    /// Perfect links.
    pub fn perfect() -> Self {
        LinkFaults {
            drop_probability: 0.0,
            rng: DetRng::seed_from(0),
        }
    }

    /// Drops each message independently with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn lossy(p: f64, rng: DetRng) -> Self {
        LinkFaults {
            drop_probability: p.clamp(0.0, 1.0),
            rng,
        }
    }

    /// Decides whether the next message is dropped.
    pub fn drops(&mut self) -> bool {
        self.drop_probability > 0.0 && self.rng.chance(self.drop_probability)
    }

    /// Derives an independent fault stream labelled by `stream`, keeping the
    /// drop probability. The shard-parallel engine forks one stream per
    /// (slot, validator) so loss decisions do not depend on the order PoP
    /// runs execute in — and therefore not on the thread count.
    pub fn fork(&self, stream: u64) -> LinkFaults {
        LinkFaults {
            drop_probability: self.drop_probability,
            rng: self.rng.fork(stream),
        }
    }
}

#[cfg(test)]
impl RestartPlan {
    /// An explicit schedule.
    ///
    /// # Panics
    ///
    /// Panics if any event revives no later than it crashes, or if one node
    /// has overlapping downtimes.
    fn explicit(events: Vec<RestartEvent>) -> Self {
        for e in &events {
            assert!(
                e.revive_slot > e.crash_slot,
                "{} revives at {} before/at its crash at {}",
                e.node,
                e.revive_slot,
                e.crash_slot
            );
        }
        for (i, a) in events.iter().enumerate() {
            for b in events.iter().skip(i + 1) {
                if a.node == b.node {
                    assert!(
                        a.revive_slot <= b.crash_slot || b.revive_slot <= a.crash_slot,
                        "{} has overlapping downtimes",
                        a.node
                    );
                }
            }
        }
        RestartPlan { events }
    }

    /// Whether `node` is down during `slot`.
    fn is_down(&self, node: NodeId, slot: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.node == node && (e.crash_slot..e.revive_slot).contains(&slot))
    }
}

#[cfg(test)]
impl FaultPlan {
    /// Number of malicious nodes.
    fn malicious_count(&self) -> usize {
        self.malicious.iter().filter(|&&m| m).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::random_connected(&TopologyConfig::small(20), &mut DetRng::seed_from(3))
    }

    #[test]
    fn uniform_selection_marks_exact_count() {
        let topo = topo();
        let mut rng = DetRng::seed_from(1);
        let plan = FaultPlan::select(&topo, 7, MaliciousPlacement::Uniform, &mut rng);
        assert_eq!(plan.malicious_count(), 7);
        assert_eq!(plan.malicious_ids().len(), 7);
        assert_eq!(plan.honest_ids().len(), 13);
    }

    #[test]
    fn highest_degree_targets_hubs() {
        let topo = topo();
        let mut rng = DetRng::seed_from(2);
        let plan = FaultPlan::select(&topo, 3, MaliciousPlacement::HighestDegree, &mut rng);
        let min_malicious_degree = plan
            .malicious_ids()
            .iter()
            .map(|&id| topo.degree(id))
            .min()
            .unwrap();
        // The chosen hubs must be at least as connected as the median node.
        let mut degrees: Vec<usize> = topo.node_ids().map(|id| topo.degree(id)).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        assert!(min_malicious_degree >= median.saturating_sub(1));
    }

    #[test]
    fn same_seed_same_plan() {
        let topo = topo();
        let p1 = FaultPlan::select(
            &topo,
            5,
            MaliciousPlacement::Uniform,
            &mut DetRng::seed_from(9),
        );
        let p2 = FaultPlan::select(
            &topo,
            5,
            MaliciousPlacement::Uniform,
            &mut DetRng::seed_from(9),
        );
        assert_eq!(p1.malicious_ids(), p2.malicious_ids());
    }

    #[test]
    fn restart_plan_schedules_and_queries() {
        let plan = RestartPlan::explicit(vec![
            RestartEvent {
                node: NodeId(2),
                crash_slot: 5,
                revive_slot: 9,
            },
            RestartEvent {
                node: NodeId(4),
                crash_slot: 7,
                revive_slot: 8,
            },
        ]);
        assert_eq!(plan.crashes_at(5), vec![NodeId(2)]);
        assert_eq!(plan.revives_at(9), vec![NodeId(2)]);
        assert!(plan.crashes_at(6).is_empty());
        assert!(plan.is_down(NodeId(2), 5));
        assert!(plan.is_down(NodeId(2), 8));
        assert!(!plan.is_down(NodeId(2), 9));
        assert!(!plan.is_down(NodeId(4), 6));
        assert!(plan.is_down(NodeId(4), 7));
    }

    #[test]
    #[should_panic(expected = "overlapping downtimes")]
    fn restart_plan_rejects_overlap_with_equal_crash_slot() {
        RestartPlan::explicit(vec![
            RestartEvent {
                node: NodeId(0),
                crash_slot: 5,
                revive_slot: 9,
            },
            RestartEvent {
                node: NodeId(0),
                crash_slot: 5,
                revive_slot: 7,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "revives at")]
    fn restart_plan_rejects_inverted_event() {
        RestartPlan::explicit(vec![RestartEvent {
            node: NodeId(0),
            crash_slot: 5,
            revive_slot: 5,
        }]);
    }

    #[test]
    fn uniform_restarts_are_deterministic_and_in_window() {
        let topo = topo();
        let p1 = RestartPlan::uniform(&topo, 4, 10..20, 3, &mut DetRng::seed_from(7));
        let p2 = RestartPlan::uniform(&topo, 4, 10..20, 3, &mut DetRng::seed_from(7));
        assert_eq!(p1.events(), p2.events());
        assert_eq!(p1.events().len(), 4);
        for e in p1.events() {
            assert!((10..20).contains(&e.crash_slot));
            assert_eq!(e.revive_slot, e.crash_slot + 3);
        }
        let nodes: std::collections::HashSet<NodeId> = p1.events().iter().map(|e| e.node).collect();
        assert_eq!(nodes.len(), 4, "distinct nodes");
    }

    #[test]
    fn perfect_links_never_drop() {
        let mut links = LinkFaults::perfect();
        assert!((0..100).all(|_| !links.drops()));
    }

    #[test]
    fn forked_links_are_stable_and_keep_rate() {
        let links = LinkFaults::lossy(0.3, DetRng::seed_from(11));
        let mut a = links.fork(7);
        let mut b = links.fork(7);
        let mut c = links.fork(8);
        let seq_a: Vec<bool> = (0..200).map(|_| a.drops()).collect();
        let seq_b: Vec<bool> = (0..200).map(|_| b.drops()).collect();
        let seq_c: Vec<bool> = (0..200).map(|_| c.drops()).collect();
        assert_eq!(seq_a, seq_b, "same label, same stream");
        assert_ne!(seq_a, seq_c, "labels are independent");
        let drops = seq_a.iter().filter(|&&d| d).count();
        assert!((20..100).contains(&drops), "rate preserved: {drops}");
    }

    #[test]
    fn lossy_links_drop_roughly_at_rate() {
        let mut links = LinkFaults::lossy(0.3, DetRng::seed_from(4));
        let drops = (0..10_000).filter(|_| links.drops()).count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }
}
