//! PBFT blockchain baseline (Sec. VI comparator).
//!
//! Two layers:
//!
//! * `replica`/`cluster` — a message-driven PBFT state machine for view 0,
//!   with quorums and crash-fault handling, used by protocol tests.
//! * [`PbftNetwork`] — the experiment-scale model: per slot, every IoT node's
//!   block runs through the three-phase protocol and is appended to a chain
//!   replicated at **every** node. Message counts per phase are identical to
//!   the cluster's happy path but accounted in `O(n)` aggregate operations,
//!   which is what makes 50-node × 200-slot sweeps instant.

pub(crate) mod cluster;
pub(crate) mod messages;
pub(crate) mod replica;

pub use cluster::PbftCluster;
pub use messages::BlockMeta;

use crate::config::BaselineConfig;
use tldag_crypto::sha256::Sha256;
use tldag_sim::bus::{Accounting, TrafficClass};
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, NodeId, Topology};

/// The primary of view 0, the only view modelled: it orders every block.
const PRIMARY: NodeId = NodeId(0);

/// The experiment-scale PBFT network.
///
/// Every IoT node is a PBFT replica; the view-0 primary (`n0`) orders all
/// blocks. Happy-path phase traffic per committed block (n replicas):
///
/// * request: proposer → primary (full block),
/// * pre-prepare: primary → n−1 replicas (full block each),
/// * prepare: n−1 non-primaries broadcast a vote to n−1 peers,
/// * commit: all n replicas broadcast a vote to n−1 peers,
/// * storage: every replica appends the block.
#[derive(Clone, Debug)]
pub struct PbftNetwork {
    cfg: BaselineConfig,
    n: usize,
    accounting: Accounting,
    slot: Slot,
    /// Total committed chain size; identical at every replica.
    chain_bits: Bits,
    blocks_committed: u64,
    seed: u64,
}

impl PbftNetwork {
    /// Creates the network. The `topology` fixes the node count; PBFT itself
    /// communicates over a full overlay, as replicated ledgers do.
    pub fn new(cfg: BaselineConfig, topology: Topology, seed: u64) -> Self {
        PbftNetwork {
            cfg,
            n: topology.len(),
            accounting: Accounting::new(topology.len()),
            slot: 0,
            chain_bits: Bits::ZERO,
            blocks_committed: 0,
            seed,
        }
    }

    /// Executes one slot: every node proposes one block; all commit.
    pub fn step(&mut self) {
        let slot = self.slot;
        for proposer_idx in 0..self.n as u32 {
            let proposer = NodeId(proposer_idx);
            let mut h = Sha256::new();
            h.update(b"pbft-block");
            h.update(&self.seed.to_be_bytes());
            h.update(&proposer_idx.to_be_bytes());
            h.update(&slot.to_be_bytes());
            let digest = h.finalize();
            let block = BlockMeta {
                proposer,
                slot,
                digest,
                bits: self.cfg.block_bits(),
            };
            self.commit_instance(block);
        }
        self.slot += 1;
    }

    /// Accounts one happy-path consensus instance and appends the block.
    fn commit_instance(&mut self, block: BlockMeta) {
        let n = self.n as u64;
        let primary = PRIMARY;
        let request = block.bits + Bits::from_bits(self.cfg.framing_bits);
        let pre_prepare = self.cfg.pre_prepare_bits();
        let vote = self.cfg.vote_bits();

        // Request: proposer → primary.
        if block.proposer != primary {
            self.accounting
                .record(block.proposer, primary, TrafficClass::Pbft, request);
        }
        // Pre-prepare: primary → everyone else.
        self.accounting
            .record_tx_only(primary, TrafficClass::Pbft, pre_prepare * (n - 1));
        for i in 0..self.n as u32 {
            let id = NodeId(i);
            if id != primary {
                self.accounting
                    .record_rx_only(id, TrafficClass::Pbft, pre_prepare);
            }
        }
        // Prepare: every non-primary broadcasts to n−1 peers; a replica
        // receives one prepare from every sender except itself.
        let prepare_senders = n - 1;
        for i in 0..self.n as u32 {
            let id = NodeId(i);
            let is_sender = id != primary;
            if is_sender {
                self.accounting
                    .record_tx_only(id, TrafficClass::Pbft, vote * (n - 1));
            }
            let received = prepare_senders - u64::from(is_sender);
            self.accounting
                .record_rx_only(id, TrafficClass::Pbft, vote * received);
        }
        // Commit: all n broadcast to n−1 peers.
        for i in 0..self.n as u32 {
            let id = NodeId(i);
            self.accounting
                .record_tx_only(id, TrafficClass::Pbft, vote * (n - 1));
            self.accounting
                .record_rx_only(id, TrafficClass::Pbft, vote * (n - 1));
        }
        // Every replica appends the block.
        self.chain_bits += block.bits;
        self.blocks_committed += 1;
    }

    /// Commits a single externally built block through the aggregate model.
    /// Exposed so consistency tests can compare this accounting against the
    /// message-driven [`PbftCluster`] byte-for-byte.
    pub fn commit_block_for_test(&mut self, block: BlockMeta) {
        self.commit_instance(block);
    }

    /// Current slot count.
    pub(crate) fn slot(&self) -> Slot {
        self.slot
    }

    /// Total committed blocks.
    pub fn blocks_committed(&self) -> u64 {
        self.blocks_committed
    }

    /// Per-node storage: the full replicated chain at every node.
    pub(crate) fn storage_bits_per_node(&self) -> Vec<Bits> {
        vec![self.chain_bits; self.n]
    }

    /// The accounting ledger.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerSim;
    use tldag_sim::topology::TopologyConfig;
    use tldag_sim::DetRng;

    fn topo(n: usize) -> Topology {
        Topology::random_connected(&TopologyConfig::small(n), &mut DetRng::seed_from(1))
    }

    #[test]
    fn every_replica_stores_every_block() {
        let cfg = BaselineConfig::test_default();
        let mut net = PbftNetwork::new(cfg, topo(5), 1);
        net.run_slots(3);
        assert_eq!(net.blocks_committed(), 15);
        let per_node = net.storage_bits_per_node();
        assert_eq!(per_node.len(), 5);
        let expect = cfg.block_bits() * 15;
        assert!(per_node.iter().all(|&b| b == expect));
    }

    #[test]
    fn aggregate_accounting_matches_message_driven_cluster() {
        // One block through the real cluster vs the aggregate model must
        // produce identical per-node byte totals.
        let cfg = BaselineConfig::test_default();
        let n = 4;

        let mut cluster = PbftCluster::new(cfg, n);
        let block = BlockMeta {
            proposer: NodeId(2),
            slot: 0,
            digest: tldag_crypto::Digest::from_bytes([7; 32]),
            bits: cfg.block_bits(),
        };
        assert!(cluster.submit(NodeId(2), block));

        let mut net = PbftNetwork::new(cfg, topo(n), 1);
        net.commit_instance(block);

        for i in 0..n as u32 {
            let id = NodeId(i);
            assert_eq!(
                cluster.accounting().tx(id, TrafficClass::Pbft),
                net.accounting().tx(id, TrafficClass::Pbft),
                "tx mismatch at {id}"
            );
            assert_eq!(
                cluster.accounting().rx(id, TrafficClass::Pbft),
                net.accounting().rx(id, TrafficClass::Pbft),
                "rx mismatch at {id}"
            );
        }
    }

    #[test]
    fn block_broadcast_dominates_traffic_at_large_bodies() {
        let cfg = BaselineConfig::paper_default();
        let mut net = PbftNetwork::new(cfg, topo(8), 1);
        net.step();
        let total = net.accounting().network_total(TrafficClass::Pbft);
        // 8 proposals × pre-prepare to 7 replicas ≈ 56 block transmissions
        // (× 2 for tx+rx accounting); votes are negligible at C = 0.5 MB.
        let block_traffic = cfg.pre_prepare_bits().bits() * 56 * 2;
        assert!(total.bits() > block_traffic);
        assert!(total.bits() < block_traffic + block_traffic / 4);
    }

    #[test]
    fn deterministic_digests_per_seed() {
        let cfg = BaselineConfig::test_default();
        let mut a = PbftNetwork::new(cfg, topo(4), 9);
        let mut b = PbftNetwork::new(cfg, topo(4), 9);
        a.step();
        b.step();
        assert_eq!(
            a.accounting().network_total(TrafficClass::Pbft),
            b.accounting().network_total(TrafficClass::Pbft)
        );
    }
}
