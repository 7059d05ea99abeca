//! PoP messages: what a validator asks and what a node answers.
//!
//! The protocol uses three exchanges (Sec. IV-C):
//!
//! 1. Block retrieval — the validator fetches the full target block from the
//!    verifier (header + body).
//! 2. `REQ_CHILD` — the validator sends `H(b^h_v)` to a prospective
//!    responder.
//! 3. `RPY_CHILD` — the responder returns the header of its oldest block
//!    containing that digest.
//!
//! The validator's walk ([`crate::pop::validator::PopWalk`]) hands out a
//! [`Request`] and takes back an `Option<Reply>`; `None` models the paper's
//! timeout `τ`. A node answers with
//! [`crate::node::LedgerNode::respond`]. How the two meet — a function
//! call in the engine, a datagram exchange on the wire, a closure in a
//! test — is the caller's business.

use crate::block::{BlockHeader, BlockId, DataBlock};
use tldag_crypto::Digest;
use tldag_sim::NodeId;

/// What a validator asks of another node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Block retrieval: the full block from its owner, the verifier.
    Fetch(BlockId),
    /// `REQ_CHILD`: the oldest of `responder`'s blocks whose Digests field
    /// holds `target`.
    Child {
        /// The node asked.
        responder: NodeId,
        /// The digest of the path's tip.
        target: Digest,
        /// When set, only blocks generated at or before this slot qualify
        /// (`REQ_CHILD_AT`): a run-ahead responder answers from its store as
        /// of the slot being verified.
        horizon: Option<u64>,
    },
}

impl Request {
    /// The node the request goes to.
    pub fn to(&self) -> NodeId {
        match *self {
            Request::Fetch(id) => id.owner,
            Request::Child { responder, .. } => responder,
        }
    }
}

/// A `RPY_CHILD` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildReply {
    /// The node id the responder claims to be (Sybil attackers lie here).
    pub claimed_owner: NodeId,
    /// Identity of the child block within the responder's chain.
    pub block_id: BlockId,
    /// The child block's header.
    pub header: BlockHeader,
}

/// What a node answers to a [`Request`].
///
/// Distinguishing a cooperative miss from silence matters for the
/// blacklist: only silence and invalid replies are offenses. A
/// [`Reply::Pruned`] miss is equally cooperative — the node compacted its
/// chain prefix under a storage budget (Eq. 2), so the block, or a matching
/// child, may once have existed. A reply of the wrong kind for the request
/// counts as silence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The fetched block, as served by its owner.
    Block(Box<DataBlock>),
    /// `RPY_CHILD`: the responder's child block.
    Child(ChildReply),
    /// The node cooperated but stores no child of the target.
    NoChild,
    /// The node cooperated but has pruned its chain below `retained_from`.
    Pruned {
        /// First sequence number the node still retains.
        retained_from: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBody, DataBlock};
    use crate::config::ProtocolConfig;
    use tldag_crypto::schnorr::KeyPair;

    #[test]
    fn child_reply_round_trip() {
        let cfg = ProtocolConfig::test_default();
        let kp = KeyPair::from_seed(1);
        let body = BlockBody::new(vec![1u8], cfg.body_bits);
        let block = DataBlock::create(&cfg, BlockId::genesis(NodeId(1)), 0, vec![], body, &kp);
        let reply = ChildReply {
            claimed_owner: NodeId(1),
            block_id: block.id,
            header: block.header.clone(),
        };
        assert_eq!(reply.claimed_owner, NodeId(1));
        assert_eq!(reply.header.digest(), block.header_digest());
    }
}
