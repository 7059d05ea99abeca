//! PBFT wire messages (Castro & Liskov, OSDI '99), simplified to what the
//! evaluation and the protocol tests need: the three happy-path phases.

use crate::config::BaselineConfig;
use tldag_crypto::Digest;
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, NodeId};

/// Metadata of a client block moving through consensus. The body itself is
/// represented by its size; the digest stands in for its content.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// IoT node that produced the data.
    pub proposer: NodeId,
    /// Generation slot.
    pub slot: Slot,
    /// Content digest.
    pub digest: Digest,
    /// Full block size (header + body).
    pub bits: Bits,
}

/// A PBFT protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PbftMessage {
    /// Client request carrying a block to order (client → primary).
    Request {
        /// The block to order.
        block: BlockMeta,
    },
    /// Primary's proposal (primary → all replicas). Carries the full block.
    PrePrepare {
        /// Sequence number assigned by the primary.
        seq: u64,
        /// The proposed block.
        block: BlockMeta,
    },
    /// Phase-two vote (all → all).
    Prepare {
        /// Sequence number of the instance.
        seq: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// Voting replica.
        replica: NodeId,
    },
    /// Phase-three vote (all → all).
    Commit {
        /// Sequence number of the instance.
        seq: u64,
        /// Digest of the proposed block.
        digest: Digest,
        /// Voting replica.
        replica: NodeId,
    },
}

impl PbftMessage {
    /// Logical wire size of the message.
    pub(crate) fn bits(&self, cfg: &BaselineConfig) -> Bits {
        match self {
            PbftMessage::Request { block } => block.bits + Bits::from_bits(cfg.framing_bits),
            PbftMessage::PrePrepare { .. } => cfg.pre_prepare_bits(),
            PbftMessage::Prepare { .. } | PbftMessage::Commit { .. } => cfg.vote_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_follow_config() {
        let cfg = BaselineConfig::test_default();
        let block = BlockMeta {
            proposer: NodeId(0),
            slot: 0,
            digest: Digest::ZERO,
            bits: cfg.block_bits(),
        };
        let pre = PbftMessage::PrePrepare { seq: 1, block };
        let prep = PbftMessage::Prepare {
            seq: 1,
            digest: Digest::ZERO,
            replica: NodeId(1),
        };
        assert!(pre.bits(&cfg) > prep.bits(&cfg));
        assert_eq!(prep.bits(&cfg), cfg.vote_bits());
    }
}
