//! A PBFT replica state machine.
//!
//! Implements the happy path (pre-prepare → prepare → commit with `2f` /
//! `2f + 1` quorums) and a simplified view change: on suspecting the primary,
//! replicas broadcast `VIEW-CHANGE` votes and adopt the new view once `2f + 1`
//! replicas agree. Checkpointing, watermarks, and the new-view certificate
//! are out of scope — the evaluation needs the message/storage profile and a
//! correct ordering core, not a production PBFT.

use crate::pbft::messages::{BlockMeta, Destination, PbftMessage};
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
pub struct Replica {
    id: NodeId,
    n: usize,
    view: u64,
    next_seq: u64,
    instances: HashMap<(u64, u64), Instance>,
    chain: Vec<BlockMeta>,
    committed_digests: HashSet<Digest>,
    view_change_votes: HashMap<u64, HashSet<NodeId>>,
}

impl Replica {
    /// Creates replica `id` in a cluster of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `id` is outside the cluster.
    pub fn new(id: NodeId, n: usize) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        assert!(id.index() < n, "replica id out of range");
        Replica {
            id,
            n,
            view: 0,
            next_seq: 0,
            instances: HashMap::new(),
            chain: Vec::new(),
            committed_digests: HashSet::new(),
            view_change_votes: HashMap::new(),
        }
    }

    /// Number of tolerated Byzantine replicas, `f = ⌊(n-1)/3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// The primary of view `v` (round-robin).
    pub fn primary_of(&self, view: u64) -> NodeId {
        NodeId((view % self.n as u64) as u32)
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.id
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The committed chain.
    pub fn chain(&self) -> &[BlockMeta] {
        &self.chain
    }

    /// Whether `digest` has been committed.
    pub fn has_committed(&self, digest: &Digest) -> bool {
        self.committed_digests.contains(digest)
    }

    /// Handles one message, returning outbound messages.
    pub fn handle(&mut self, from: NodeId, msg: PbftMessage) -> Vec<(Destination, PbftMessage)> {
        match msg {
            PbftMessage::Request { block } => self.on_request(block),
            PbftMessage::PrePrepare { view, seq, block } => {
                self.on_pre_prepare(from, view, seq, block)
            }
            PbftMessage::Prepare {
                view,
                seq,
                digest,
                replica,
            } => self.on_prepare(view, seq, digest, replica),
            PbftMessage::Commit {
                view,
                seq,
                digest,
                replica,
            } => self.on_commit(view, seq, digest, replica),
            PbftMessage::ViewChange { new_view, replica } => self.on_view_change(new_view, replica),
        }
    }

    /// Starts a view change (called when the primary is suspected).
    pub fn suspect_primary(&mut self) -> Vec<(Destination, PbftMessage)> {
        let new_view = self.view + 1;
        let mut out = self.on_view_change(new_view, self.id);
        out.push((
            Destination::Broadcast,
            PbftMessage::ViewChange {
                new_view,
                replica: self.id,
            },
        ));
        out
    }

    fn on_request(&mut self, block: BlockMeta) -> Vec<(Destination, PbftMessage)> {
        if !self.is_primary() {
            return Vec::new(); // non-primaries ignore direct requests
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let view = self.view;
        // The primary's pre-prepare also counts as its prepare vote.
        let instance = self.instances.entry((view, seq)).or_default();
        instance.block = Some(block);
        instance.prepares.insert(self.id);
        vec![(
            Destination::Broadcast,
            PbftMessage::PrePrepare { view, seq, block },
        )]
    }

    fn on_pre_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        block: BlockMeta,
    ) -> Vec<(Destination, PbftMessage)> {
        if view != self.view || from != self.primary_of(view) {
            return Vec::new();
        }
        let instance = self.instances.entry((view, seq)).or_default();
        if instance.block.is_some() {
            return Vec::new(); // duplicate pre-prepare
        }
        instance.block = Some(block);
        instance.prepares.insert(from); // primary's implicit prepare
        instance.prepares.insert(self.id);
        self.next_seq = self.next_seq.max(seq + 1);
        let mut out = vec![(
            Destination::Broadcast,
            PbftMessage::Prepare {
                view,
                seq,
                digest: block.digest,
                replica: self.id,
            },
        )];
        out.extend(self.try_advance(view, seq));
        out
    }

    fn on_prepare(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        replica: NodeId,
    ) -> Vec<(Destination, PbftMessage)> {
        if view != self.view {
            return Vec::new();
        }
        let instance = self.instances.entry((view, seq)).or_default();
        if instance.block.is_some_and(|b| b.digest != digest) {
            return Vec::new(); // equivocation; ignore
        }
        instance.prepares.insert(replica);
        self.try_advance(view, seq)
    }

    fn on_commit(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        replica: NodeId,
    ) -> Vec<(Destination, PbftMessage)> {
        if view != self.view {
            return Vec::new();
        }
        let instance = self.instances.entry((view, seq)).or_default();
        if instance.block.is_some_and(|b| b.digest != digest) {
            return Vec::new();
        }
        instance.commits.insert(replica);
        self.try_advance(view, seq)
    }

    /// Fires prepared/committed transitions for an instance.
    fn try_advance(&mut self, view: u64, seq: u64) -> Vec<(Destination, PbftMessage)> {
        let f = self.f();
        let mut out = Vec::new();
        let Some(instance) = self.instances.get_mut(&(view, seq)) else {
            return out;
        };
        let Some(block) = instance.block else {
            return out;
        };
        // Prepared: pre-prepare + 2f matching prepares (own vote included).
        if instance.prepares.len() > 2 * f && !instance.commits.contains(&self.id) {
            instance.commits.insert(self.id);
            out.push((
                Destination::Broadcast,
                PbftMessage::Commit {
                    view,
                    seq,
                    digest: block.digest,
                    replica: self.id,
                },
            ));
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

    fn on_view_change(
        &mut self,
        new_view: u64,
        replica: NodeId,
    ) -> Vec<(Destination, PbftMessage)> {
        if new_view <= self.view {
            return Vec::new();
        }
        let quorum = 2 * self.f() + 1;
        let my_id = self.id;
        let votes = self.view_change_votes.entry(new_view).or_default();
        votes.insert(replica);
        let mut out = Vec::new();
        // Echo our own vote once someone else initiates (mutual suspicion).
        if !votes.contains(&my_id) {
            votes.insert(my_id);
            out.push((
                Destination::Broadcast,
                PbftMessage::ViewChange {
                    new_view,
                    replica: my_id,
                },
            ));
        }
        if self.view_change_votes[&new_view].len() >= quorum {
            self.view = new_view;
            // Uncommitted instances of older views are abandoned; clients
            // retransmit (simplification: no new-view certificate replay).
            self.instances.retain(|&(v, _), _| v >= new_view);
        }
        out
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
    fn primary_rotates_with_view() {
        let r = Replica::new(NodeId(0), 4);
        assert_eq!(r.primary_of(0), NodeId(0));
        assert_eq!(r.primary_of(1), NodeId(1));
        assert_eq!(r.primary_of(4), NodeId(0));
    }

    #[test]
    fn primary_assigns_sequence_numbers() {
        let mut primary = Replica::new(NodeId(0), 4);
        let out1 = primary.handle(NodeId(1), PbftMessage::Request { block: block(1) });
        let out2 = primary.handle(NodeId(2), PbftMessage::Request { block: block(2) });
        let seq_of = |out: &[(Destination, PbftMessage)]| match out[0].1 {
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
        r.handle(
            NodeId(0),
            PbftMessage::PrePrepare {
                view: 0,
                seq: 0,
                block: b,
            },
        );
        let out = r.handle(
            NodeId(2),
            PbftMessage::Prepare {
                view: 0,
                seq: 0,
                digest: Digest::from_bytes([9; 32]), // wrong digest
                replica: NodeId(2),
            },
        );
        assert!(out.is_empty());
        assert!(!r.has_committed(&b.digest));
    }

    #[test]
    fn stale_view_messages_ignored() {
        let mut r = Replica::new(NodeId(1), 4);
        // Move to view 1 via a quorum of view-changes.
        r.handle(
            NodeId(2),
            PbftMessage::ViewChange {
                new_view: 1,
                replica: NodeId(2),
            },
        );
        r.handle(
            NodeId(3),
            PbftMessage::ViewChange {
                new_view: 1,
                replica: NodeId(3),
            },
        );
        assert_eq!(r.view(), 1);
        // A view-0 pre-prepare is now stale.
        let out = r.handle(
            NodeId(0),
            PbftMessage::PrePrepare {
                view: 0,
                seq: 0,
                block: block(1),
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn view_change_quorum_advances_view() {
        let mut r = Replica::new(NodeId(0), 4);
        assert_eq!(r.view(), 0);
        r.handle(
            NodeId(1),
            PbftMessage::ViewChange {
                new_view: 1,
                replica: NodeId(1),
            },
        );
        assert_eq!(r.view(), 0, "one external vote + own echo < quorum of 3");
        r.handle(
            NodeId(2),
            PbftMessage::ViewChange {
                new_view: 1,
                replica: NodeId(2),
            },
        );
        assert_eq!(r.view(), 1, "3 votes reach the 2f+1 = 3 quorum");
    }
}
