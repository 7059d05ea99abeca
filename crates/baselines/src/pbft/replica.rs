//! A PBFT replica state machine.
//!
//! Implements the happy path of view 0: pre-prepare → prepare → commit with
//! `2f` / `2f + 1` quorums. View changes, checkpointing and watermarks are
//! out of scope — the evaluation needs the message/storage profile and a
//! correct ordering core, not a production PBFT.

use crate::pbft::messages::{BlockMeta, PbftMessage};
use crate::pbft::PRIMARY;
use std::collections::{HashMap, HashSet};
use tldag_crypto::Digest;
use tldag_sim::NodeId;

/// Per-instance voting state.
#[derive(Clone, Debug, Default)]
struct Instance {
    block: Option<BlockMeta>,
    prepares: HashSet<NodeId>,
    commits: HashSet<NodeId>,
    committed: bool,
}

/// A PBFT replica.
#[derive(Clone, Debug)]
pub(crate) struct Replica {
    id: NodeId,
    n: usize,
    next_seq: u64,
    /// Voting state per sequence number.
    instances: HashMap<u64, Instance>,
    chain: Vec<BlockMeta>,
    committed_digests: HashSet<Digest>,
}

impl Replica {
    /// Creates replica `id` in a cluster of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `id` is outside the cluster.
    pub(crate) fn new(id: NodeId, n: usize) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        assert!(id.index() < n, "replica id out of range");
        Replica {
            id,
            n,
            next_seq: 0,
            instances: HashMap::new(),
            chain: Vec::new(),
            committed_digests: HashSet::new(),
        }
    }

    /// Number of tolerated Byzantine replicas, `f = ⌊(n-1)/3⌋`.
    pub(crate) fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Whether `digest` has been committed.
    pub(crate) fn has_committed(&self, digest: &Digest) -> bool {
        self.committed_digests.contains(digest)
    }

    /// Handles one message, returning the messages to broadcast.
    pub(crate) fn handle(&mut self, from: NodeId, msg: PbftMessage) -> Vec<PbftMessage> {
        match msg {
            PbftMessage::Request { block } => self.on_request(block),
            PbftMessage::PrePrepare { seq, block } => self.on_pre_prepare(from, seq, block),
            PbftMessage::Prepare {
                seq,
                digest,
                replica,
            } => self.on_prepare(seq, digest, replica),
            PbftMessage::Commit {
                seq,
                digest,
                replica,
            } => self.on_commit(seq, digest, replica),
        }
    }

    fn on_request(&mut self, block: BlockMeta) -> Vec<PbftMessage> {
        if self.id != PRIMARY {
            return Vec::new(); // non-primaries ignore direct requests
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // The primary's pre-prepare also counts as its prepare vote.
        let instance = self.instances.entry(seq).or_default();
        instance.block = Some(block);
        instance.prepares.insert(self.id);
        vec![PbftMessage::PrePrepare { seq, block }]
    }

    fn on_pre_prepare(&mut self, from: NodeId, seq: u64, block: BlockMeta) -> Vec<PbftMessage> {
        if from != PRIMARY {
            return Vec::new();
        }
        let instance = self.instances.entry(seq).or_default();
        if instance.block.is_some() {
            return Vec::new(); // duplicate pre-prepare
        }
        instance.block = Some(block);
        instance.prepares.insert(from); // primary's implicit prepare
        instance.prepares.insert(self.id);
        self.next_seq = self.next_seq.max(seq + 1);
        let mut out = vec![PbftMessage::Prepare {
            seq,
            digest: block.digest,
            replica: self.id,
        }];
        out.extend(self.try_advance(seq));
        out
    }

    fn on_prepare(&mut self, seq: u64, digest: Digest, replica: NodeId) -> Vec<PbftMessage> {
        let instance = self.instances.entry(seq).or_default();
        if instance.block.is_some_and(|b| b.digest != digest) {
            return Vec::new(); // equivocation; ignore
        }
        instance.prepares.insert(replica);
        self.try_advance(seq)
    }

    fn on_commit(&mut self, seq: u64, digest: Digest, replica: NodeId) -> Vec<PbftMessage> {
        let instance = self.instances.entry(seq).or_default();
        if instance.block.is_some_and(|b| b.digest != digest) {
            return Vec::new();
        }
        instance.commits.insert(replica);
        self.try_advance(seq)
    }

    /// Fires prepared/committed transitions for an instance.
    fn try_advance(&mut self, seq: u64) -> Vec<PbftMessage> {
        let f = self.f();
        let mut out = Vec::new();
        let Some(instance) = self.instances.get_mut(&seq) else {
            return out;
        };
        let Some(block) = instance.block else {
            return out;
        };
        // Prepared: pre-prepare + 2f matching prepares (own vote included).
        if instance.prepares.len() > 2 * f && !instance.commits.contains(&self.id) {
            instance.commits.insert(self.id);
            out.push(PbftMessage::Commit {
                seq,
                digest: block.digest,
                replica: self.id,
            });
        }
        // Committed: 2f + 1 commits.
        if instance.commits.len() > 2 * f
            && !instance.committed
            && !self.committed_digests.contains(&block.digest)
        {
            instance.committed = true;
            self.committed_digests.insert(block.digest);
            self.chain.push(block);
        }
        out
    }
}

#[cfg(test)]
impl Replica {
    /// The committed chain.
    pub(crate) fn chain(&self) -> &[BlockMeta] {
        &self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(tag: u8) -> BlockMeta {
        BlockMeta {
            proposer: NodeId(u32::from(tag)),
            slot: 0,
            digest: Digest::from_bytes([tag; 32]),
            bits: tldag_sim::Bits::from_bytes(100),
        }
    }

    #[test]
    fn f_computation() {
        assert_eq!(Replica::new(NodeId(0), 4).f(), 1);
        assert_eq!(Replica::new(NodeId(0), 7).f(), 2);
        assert_eq!(Replica::new(NodeId(0), 50).f(), 16);
    }

    #[test]
    fn primary_assigns_sequence_numbers() {
        let mut primary = Replica::new(NodeId(0), 4);
        let out1 = primary.handle(NodeId(1), PbftMessage::Request { block: block(1) });
        let out2 = primary.handle(NodeId(2), PbftMessage::Request { block: block(2) });
        let seq_of = |out: &[PbftMessage]| match out[0] {
            PbftMessage::PrePrepare { seq, .. } => seq,
            _ => panic!("expected pre-prepare"),
        };
        assert_eq!(seq_of(&out1), 0);
        assert_eq!(seq_of(&out2), 1);
    }

    #[test]
    fn non_primary_ignores_requests() {
        let mut backup = Replica::new(NodeId(1), 4);
        assert!(backup
            .handle(NodeId(2), PbftMessage::Request { block: block(1) })
            .is_empty());
    }

    #[test]
    fn equivocating_prepare_is_ignored() {
        let mut r = Replica::new(NodeId(1), 4);
        let b = block(1);
        r.handle(NodeId(0), PbftMessage::PrePrepare { seq: 0, block: b });
        let out = r.handle(
            NodeId(2),
            PbftMessage::Prepare {
                seq: 0,
                digest: Digest::from_bytes([9; 32]), // wrong digest
                replica: NodeId(2),
            },
        );
        assert!(out.is_empty());
        assert!(!r.has_committed(&b.digest));
    }

    #[test]
    fn a_backups_pre_prepare_is_ignored() {
        let mut r = Replica::new(NodeId(2), 4);
        // Only the view-0 primary, n0, proposes.
        let out = r.handle(
            NodeId(1),
            PbftMessage::PrePrepare {
                seq: 0,
                block: block(1),
            },
        );
        assert!(out.is_empty());
    }
}
