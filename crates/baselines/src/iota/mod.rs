//! Tokenless IOTA baseline (Sec. VI comparator).
//!
//! Per slot, every IoT node issues one transaction approving two tips of its
//! (full) tangle copy. The transaction floods the physical network so every
//! node can maintain the complete tangle — which is exactly why IOTA's
//! storage grows with the whole network's data rate while 2LDAG's grows only
//! with a node's own.
//!
//! Flooding model: a node forwards a new transaction to every neighbor except
//! the one it first received it from. Over the BFS tree rooted at the issuer
//! this makes tree edges carry one copy and every non-tree edge two, i.e.
//! `2|E| − (|V| − 1)` transmissions per transaction. Per-node totals are
//! derived from the BFS trees, which are precomputed once per topology.

pub(crate) mod tangle;
pub(crate) mod tips;

pub use tangle::{Tangle, Transaction, TxId};
pub use tips::{select_tips, TipSelection};

use crate::config::BaselineConfig;
use tldag_sim::bus::{Accounting, TrafficClass};
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, DetRng, NodeId, Topology};

/// Precomputed flooding profile for one issuer: per-node send/receive counts
/// for a single transaction.
#[derive(Clone, Debug)]
struct FloodProfile {
    /// Copies node v transmits when flooding from this source.
    sends: Vec<u64>,
    /// Copies node v receives.
    receives: Vec<u64>,
}

impl FloodProfile {
    /// Builds the profile for `source` by BFS over `topology`.
    fn build(topology: &Topology, source: NodeId) -> Self {
        let n = topology.len();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut order = std::collections::VecDeque::from([source]);
        visited[source.index()] = true;
        while let Some(u) = order.pop_front() {
            for &v in topology.neighbors(u) {
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    parent[v.index()] = Some(u);
                    order.push_back(v);
                }
            }
        }
        // v sends to all neighbors except its parent (the source to all).
        let sends: Vec<u64> = (0..n as u32)
            .map(|i| {
                let id = NodeId(i);
                if !visited[id.index()] {
                    return 0;
                }
                let deg = topology.degree(id) as u64;
                if id == source {
                    deg
                } else {
                    deg - 1
                }
            })
            .collect();
        // v receives a copy from every neighbor u that forwards to it, i.e.
        // every u whose own first-contact (BFS parent) is not v. The source
        // has no parent and therefore sends to all its neighbors.
        let receives: Vec<u64> = (0..n as u32)
            .map(|i| {
                let id = NodeId(i);
                if !visited[id.index()] {
                    return 0;
                }
                topology
                    .neighbors(id)
                    .iter()
                    .filter(|&&u| visited[u.index()] && parent[u.index()] != Some(id))
                    .count() as u64
            })
            .collect();
        FloodProfile { sends, receives }
    }
}

/// The IOTA network simulation.
#[derive(Clone, Debug)]
pub struct IotaNetwork {
    cfg: BaselineConfig,
    topology: Topology,
    tangle: Tangle,
    strategy: TipSelection,
    accounting: Accounting,
    rng: DetRng,
    slot: Slot,
    flood: Vec<FloodProfile>,
}

impl IotaNetwork {
    /// Creates the network with uniform-random tip selection (the storage
    /// and traffic profile does not depend on the strategy).
    pub fn new(cfg: BaselineConfig, topology: Topology, seed: u64) -> Self {
        let flood = topology
            .node_ids()
            .map(|id| FloodProfile::build(&topology, id))
            .collect();
        IotaNetwork {
            cfg,
            tangle: Tangle::new(cfg.iota_tx_bits()),
            strategy: TipSelection::UniformRandom,
            accounting: Accounting::new(topology.len()),
            rng: DetRng::seed_from(seed),
            slot: 0,
            topology,
            flood,
        }
    }

    /// Switches the tip-selection strategy.
    pub fn set_tip_selection(&mut self, strategy: TipSelection) {
        self.strategy = strategy;
    }

    /// The shared tangle (every node stores a copy).
    pub fn tangle(&self) -> &Tangle {
        &self.tangle
    }

    /// Executes one slot: every node issues one transaction and floods it.
    pub fn step(&mut self) {
        let slot = self.slot;
        for i in 0..self.topology.len() as u32 {
            let issuer = NodeId(i);
            let parents = select_tips(
                &self.tangle,
                self.strategy,
                self.cfg.iota_parents,
                &mut self.rng,
            );
            self.tangle
                .attach(issuer, slot, parents, self.cfg.iota_tx_bits());
            self.flood_tx(issuer);
        }
        self.slot += 1;
    }

    fn flood_tx(&mut self, issuer: NodeId) {
        let profile = &self.flood[issuer.index()];
        let tx_bits = self.cfg.iota_tx_bits();
        for i in 0..self.topology.len() as u32 {
            let id = NodeId(i);
            let sends = profile.sends[id.index()];
            let receives = profile.receives[id.index()];
            if sends > 0 {
                self.accounting
                    .record_tx_only(id, TrafficClass::IotaGossip, tx_bits * sends);
            }
            if receives > 0 {
                self.accounting
                    .record_rx_only(id, TrafficClass::IotaGossip, tx_bits * receives);
            }
        }
    }

    /// Current slot.
    pub(crate) fn slot(&self) -> Slot {
        self.slot
    }

    /// Per-node storage: the full tangle at every node.
    pub(crate) fn storage_bits_per_node(&self) -> Vec<Bits> {
        vec![self.tangle.total_bits(); self.topology.len()]
    }

    /// The accounting ledger.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }
}

#[cfg(test)]
impl IotaNetwork {
    /// The physical topology used for gossip.
    fn topology(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerSim;
    use tldag_sim::topology::TopologyConfig;

    fn net(n: usize, seed: u64) -> IotaNetwork {
        let topo =
            Topology::random_connected(&TopologyConfig::small(n), &mut DetRng::seed_from(seed));
        IotaNetwork::new(BaselineConfig::test_default(), topo, seed)
    }

    #[test]
    fn every_slot_adds_one_tx_per_node() {
        let mut net = net(6, 1);
        net.run_slots(3);
        // Genesis + 6 × 3.
        assert_eq!(net.tangle().len(), 19);
    }

    #[test]
    fn tangle_stays_consistent() {
        let mut net = net(6, 2);
        net.run_slots(5);
        assert!(net.tangle().all_reach_genesis());
    }

    #[test]
    fn storage_is_identical_at_every_node_and_grows() {
        let mut net = net(5, 3);
        net.step();
        let s1 = net.storage_bits_per_node();
        net.step();
        let s2 = net.storage_bits_per_node();
        assert!(s1.iter().all(|&b| b == s1[0]));
        assert!(s2[0] > s1[0]);
        // Whole-tangle storage: genesis + n·slots transactions.
        let expect = net.cfg.iota_tx_bits() * (1 + 5 * 2);
        assert_eq!(s2[0], expect);
    }

    #[test]
    fn flood_transmission_totals_match_closed_form() {
        let mut net = net(7, 4);
        let e = net.topology().edge_count() as u64;
        let n = net.topology().len() as u64;
        net.step();
        // Per tx: 2|E| − (n−1) transmissions; per slot: n txs. The accounting
        // counts each transmission at both endpoints (tx + rx)... rx side may
        // differ: every transmission is received by exactly one node.
        let sends_per_tx = 2 * e - (n - 1);
        let total = net.accounting().network_total(TrafficClass::IotaGossip);
        let expect = net.cfg.iota_tx_bits().bits() * sends_per_tx * 2 * n;
        assert_eq!(total.bits(), expect);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = net(6, 9);
        let mut b = net(6, 9);
        a.run_slots(4);
        b.run_slots(4);
        assert_eq!(a.tangle().len(), b.tangle().len());
        assert_eq!(
            a.accounting().network_total(TrafficClass::IotaGossip),
            b.accounting().network_total(TrafficClass::IotaGossip)
        );
    }
}
