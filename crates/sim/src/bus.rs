//! Byte-accounted message bus.
//!
//! Fig. 8 of the paper reports *per-node communication overhead* split into
//! "DAG construction" (digest broadcasts) and "consensus" (PoP header
//! retrieval), while the PBFT and IOTA baselines report their own traffic.
//! The bus therefore meters every send at both endpoints, tagged with a
//! [`TrafficClass`], and exposes per-node/per-class totals for the plots.
//!
//! Accounting happens at send time: the simulator is a discrete-time model,
//! so every exchange (digest broadcast or PoP request/response) is recorded
//! by its caller through [`Accounting::record`] when it is made.

use crate::topology::NodeId;
use crate::units::Bits;

/// Category of traffic, used to split Fig. 8's panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Digest broadcast during block generation (2LDAG "DAG construction").
    DagConstruction,
    /// PoP `REQ_CHILD` / `RPY_CHILD` / block retrieval ("consensus").
    Consensus,
    /// PBFT pre-prepare/prepare/commit/view-change traffic.
    Pbft,
    /// IOTA transaction gossip.
    IotaGossip,
    /// Anything else (tests, control messages).
    Other,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::DagConstruction,
        TrafficClass::Consensus,
        TrafficClass::Pbft,
        TrafficClass::IotaGossip,
        TrafficClass::Other,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::DagConstruction => 0,
            TrafficClass::Consensus => 1,
            TrafficClass::Pbft => 2,
            TrafficClass::IotaGossip => 3,
            TrafficClass::Other => 4,
        }
    }
}

/// Per-node, per-class transmit/receive accounting.
#[derive(Clone, Debug)]
pub struct Accounting {
    tx: Vec<[Bits; 5]>,
    rx: Vec<[Bits; 5]>,
}

impl Accounting {
    /// Creates accounting for `nodes` nodes, all counters zero.
    pub fn new(nodes: usize) -> Self {
        Accounting {
            tx: vec![[Bits::ZERO; 5]; nodes],
            rx: vec![[Bits::ZERO; 5]; nodes],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// True if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// Records `size` transmitted by `from` and received by `to`.
    pub fn record(&mut self, from: NodeId, to: NodeId, class: TrafficClass, size: Bits) {
        self.tx[from.index()][class.index()] += size;
        self.rx[to.index()][class.index()] += size;
    }

    /// Records a transmission with no modelled receiver (e.g. a broadcast
    /// stub in tests).
    pub fn record_tx_only(&mut self, from: NodeId, class: TrafficClass, size: Bits) {
        self.tx[from.index()][class.index()] += size;
    }

    /// Records a reception with no modelled sender. Together with
    /// [`Self::record_tx_only`] this lets all-to-all protocol phases (PBFT
    /// votes) be accounted in `O(n)` aggregate operations instead of `O(n²)`
    /// per-pair records; the totals are identical.
    pub fn record_rx_only(&mut self, to: NodeId, class: TrafficClass, size: Bits) {
        self.rx[to.index()][class.index()] += size;
    }

    /// Bits transmitted by `node` in `class`.
    pub fn tx(&self, node: NodeId, class: TrafficClass) -> Bits {
        self.tx[node.index()][class.index()]
    }

    /// Bits received by `node` in `class`.
    pub fn rx(&self, node: NodeId, class: TrafficClass) -> Bits {
        self.rx[node.index()][class.index()]
    }

    /// Total (tx + rx) for `node` in `class` — the paper's "communication
    /// overhead" counts both emitted and received messages (Prop. 4).
    pub fn node_total(&self, node: NodeId, class: TrafficClass) -> Bits {
        self.tx(node, class) + self.rx(node, class)
    }

    /// Total (tx + rx) for `node` across all classes.
    pub fn node_total_all(&self, node: NodeId) -> Bits {
        TrafficClass::ALL
            .iter()
            .map(|&c| self.node_total(node, c))
            .sum()
    }

    /// Sum of per-node totals in `class` across the network.
    pub fn network_total(&self, class: TrafficClass) -> Bits {
        (0..self.len() as u32)
            .map(|i| self.node_total(NodeId(i), class))
            .sum()
    }

    /// Mean per-node total (tx + rx) in `class`.
    pub fn mean_node_total(&self, class: TrafficClass) -> Bits {
        if self.is_empty() {
            return Bits::ZERO;
        }
        Bits::from_bits(self.network_total(class).bits() / self.len() as u64)
    }

    /// Sum of transmitted bits in `class` across the network.
    pub fn network_tx(&self, class: TrafficClass) -> Bits {
        (0..self.len() as u32)
            .map(|i| self.tx(NodeId(i), class))
            .sum()
    }

    /// Mean per-node transmitted bits in `class`.
    pub fn mean_node_tx(&self, class: TrafficClass) -> Bits {
        if self.is_empty() {
            return Bits::ZERO;
        }
        Bits::from_bits(self.network_tx(class).bits() / self.len() as u64)
    }

    /// Per-node transmitted bits across the given classes, for CDFs.
    pub fn per_node_tx(&self, classes: &[TrafficClass]) -> Vec<Bits> {
        (0..self.len() as u32)
            .map(|i| classes.iter().map(|&c| self.tx(NodeId(i), c)).sum())
            .collect()
    }

    /// Extends the accounting with one more (zeroed) node slot. Supports
    /// dynamic membership.
    pub fn grow(&mut self) {
        self.tx.push([Bits::ZERO; 5]);
        self.rx.push([Bits::ZERO; 5]);
    }

    /// Merges another accounting (same node count) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &Accounting) {
        assert_eq!(self.len(), other.len(), "accounting size mismatch");
        for i in 0..self.tx.len() {
            for c in 0..5 {
                self.tx[i][c] += other.tx[i][c];
                self.rx[i][c] += other.rx[i][c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_records_both_endpoints() {
        let mut acc = Accounting::new(2);
        acc.record(
            NodeId(0),
            NodeId(1),
            TrafficClass::Consensus,
            Bits::from_bits(100),
        );
        assert_eq!(acc.tx(NodeId(0), TrafficClass::Consensus).bits(), 100);
        assert_eq!(acc.rx(NodeId(1), TrafficClass::Consensus).bits(), 100);
        assert_eq!(acc.rx(NodeId(0), TrafficClass::Consensus).bits(), 0);
        assert_eq!(
            acc.node_total(NodeId(0), TrafficClass::Consensus).bits(),
            100
        );
        assert_eq!(acc.network_total(TrafficClass::Consensus).bits(), 200);
    }

    #[test]
    fn classes_are_separate() {
        let mut acc = Accounting::new(1);
        acc.record_tx_only(NodeId(0), TrafficClass::DagConstruction, Bits::from_bits(5));
        acc.record_tx_only(NodeId(0), TrafficClass::Pbft, Bits::from_bits(7));
        assert_eq!(acc.tx(NodeId(0), TrafficClass::DagConstruction).bits(), 5);
        assert_eq!(acc.tx(NodeId(0), TrafficClass::Pbft).bits(), 7);
        assert_eq!(acc.node_total_all(NodeId(0)).bits(), 12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Accounting::new(2);
        let mut b = Accounting::new(2);
        a.record(
            NodeId(0),
            NodeId(1),
            TrafficClass::Other,
            Bits::from_bits(3),
        );
        b.record(
            NodeId(0),
            NodeId(1),
            TrafficClass::Other,
            Bits::from_bits(4),
        );
        a.merge(&b);
        assert_eq!(a.tx(NodeId(0), TrafficClass::Other).bits(), 7);
        assert_eq!(a.rx(NodeId(1), TrafficClass::Other).bits(), 7);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_size_mismatch_panics() {
        let mut a = Accounting::new(2);
        let b = Accounting::new(3);
        a.merge(&b);
    }

    #[test]
    fn mean_node_total() {
        let mut acc = Accounting::new(2);
        acc.record(
            NodeId(0),
            NodeId(1),
            TrafficClass::Other,
            Bits::from_bits(100),
        );
        // node0 tx 100, node1 rx 100 → each node total 100, mean 100.
        assert_eq!(acc.mean_node_total(TrafficClass::Other).bits(), 100);
    }
}
