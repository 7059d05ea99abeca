//! A message-driven PBFT cluster for protocol-correctness tests.
//!
//! Wires [`Replica`]s together through an in-memory queue with full byte
//! accounting. It is the happy-path reference for the experiment-scale model
//! ([`crate::pbft::PbftNetwork`]), which shares the same message-size
//! definitions but accounts phases in aggregate; `tests/cross_system.rs`
//! asserts the two agree. Tests can silence replicas (crash faults) to
//! exercise quorum margins.

use crate::config::BaselineConfig;
use crate::pbft::messages::{BlockMeta, PbftMessage};
use crate::pbft::replica::Replica;
use crate::pbft::PRIMARY;
use std::collections::VecDeque;
use tldag_sim::bus::{Accounting, TrafficClass};
use tldag_sim::NodeId;

/// An in-memory PBFT cluster.
#[derive(Clone, Debug)]
pub struct PbftCluster {
    cfg: BaselineConfig,
    replicas: Vec<Replica>,
    /// Crash-faulted replicas, which neither send nor process messages.
    /// Only the crash-fault tests below set one, but they are the only
    /// check on the quorum margins (`2f` prepares, `2f + 1` commits), so
    /// the field stays in the non-test code they exercise.
    silenced: Vec<bool>,
    accounting: Accounting,
    queue: VecDeque<(NodeId, NodeId, PbftMessage)>,
}

impl PbftCluster {
    /// Creates a cluster of `n` replicas.
    pub fn new(cfg: BaselineConfig, n: usize) -> Self {
        PbftCluster {
            cfg,
            replicas: (0..n as u32).map(|i| Replica::new(NodeId(i), n)).collect(),
            silenced: vec![false; n],
            accounting: Accounting::new(n),
            queue: VecDeque::new(),
        }
    }

    /// The accounting ledger.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Submits a client block to the current primary and drives the cluster
    /// to quiescence. Returns `true` when a quorum of live replicas committed
    /// the block.
    pub fn submit(&mut self, client: NodeId, block: BlockMeta) -> bool {
        self.enqueue(client, PRIMARY, PbftMessage::Request { block });
        self.run_to_quiescence();
        let committed = self
            .replicas
            .iter()
            .zip(&self.silenced)
            .filter(|(r, &s)| !s && r.has_committed(&block.digest))
            .count();
        committed > 2 * self.replicas[0].f()
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: PbftMessage) {
        self.accounting
            .record(from, to, TrafficClass::Pbft, msg.bits(&self.cfg));
        self.queue.push_back((from, to, msg));
    }

    /// Sends each outbound message to every other replica.
    fn broadcast(&mut self, from: NodeId, outbound: Vec<PbftMessage>) {
        for msg in outbound {
            for i in 0..self.replicas.len() as u32 {
                let to = NodeId(i);
                if to != from {
                    self.enqueue(from, to, msg);
                }
            }
        }
    }

    fn run_to_quiescence(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if self.silenced[to.index()] || self.silenced[from.index()] {
                continue;
            }
            let out = self.replicas[to.index()].handle(from, msg);
            self.broadcast(to, out);
        }
    }
}

#[cfg(test)]
impl PbftCluster {
    /// Crash-faults a replica: it neither sends nor processes messages.
    fn silence(&mut self, id: NodeId) {
        self.silenced[id.index()] = true;
    }

    /// Read access to a replica.
    fn replica(&self, id: NodeId) -> &Replica {
        &self.replicas[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tldag_crypto::Digest;
    use tldag_sim::Bits;

    fn block(tag: u8) -> BlockMeta {
        BlockMeta {
            proposer: NodeId(u32::from(tag)),
            slot: 0,
            digest: Digest::from_bytes([tag; 32]),
            bits: Bits::from_bytes(128),
        }
    }

    #[test]
    fn happy_path_commits_on_all_replicas() {
        let mut cluster = PbftCluster::new(BaselineConfig::test_default(), 4);
        assert!(cluster.submit(NodeId(3), block(1)));
        for i in 0..4u32 {
            assert_eq!(cluster.replica(NodeId(i)).chain().len(), 1, "replica {i}");
        }
    }

    #[test]
    fn chains_agree_across_replicas() {
        let mut cluster = PbftCluster::new(BaselineConfig::test_default(), 7);
        for tag in 1..=5u8 {
            assert!(cluster.submit(NodeId(6), block(tag)));
        }
        let reference: Vec<Digest> = cluster
            .replica(NodeId(0))
            .chain()
            .iter()
            .map(|b| b.digest)
            .collect();
        assert_eq!(reference.len(), 5);
        for i in 1..7u32 {
            let chain: Vec<Digest> = cluster
                .replica(NodeId(i))
                .chain()
                .iter()
                .map(|b| b.digest)
                .collect();
            assert_eq!(chain, reference, "replica {i} diverged");
        }
    }

    #[test]
    fn tolerates_f_crash_faults() {
        let mut cluster = PbftCluster::new(BaselineConfig::test_default(), 4);
        cluster.silence(NodeId(3)); // f = 1
        assert!(cluster.submit(NodeId(2), block(1)));
    }

    #[test]
    fn stalls_beyond_f_crash_faults() {
        let mut cluster = PbftCluster::new(BaselineConfig::test_default(), 4);
        cluster.silence(NodeId(2));
        cluster.silence(NodeId(3)); // 2 > f = 1
        assert!(!cluster.submit(NodeId(1), block(1)));
    }

    #[test]
    fn communication_is_quadratic_in_replicas() {
        let totals: Vec<u64> = [4usize, 8]
            .iter()
            .map(|&n| {
                let mut cluster = PbftCluster::new(BaselineConfig::test_default(), n);
                cluster.submit(NodeId(0), block(1));
                cluster
                    .accounting()
                    .network_total(TrafficClass::Pbft)
                    .bits()
            })
            .collect();
        // Doubling n should far more than double the vote traffic.
        assert!(totals[1] > totals[0] * 3, "totals = {totals:?}");
    }
}
