//! The 2LDAG ledger node: physical-layer state and block generation.
//!
//! Per Sec. III, node `i` maintains:
//!
//! * `S_i` — its own blocks ([`BlockStore`]); a node never stores another
//!   node's blocks.
//! * `A_i` — the latest digest heard from each neighbor.
//! * `H_i` — headers verified via PoP ([`TrustCache`]).
//! * a [`Blacklist`] of peers that failed to cooperate.
//!
//! Block generation (Sec. III-D): collect `Δ_i = A_i ∪ {H(b^h_{i,t-1})}`,
//! compute the Merkle root of the sampled data, mine the difficulty nonce,
//! sign, append to `S_i`, and hand the new digest to every neighbor.
//!
//! Concurrency: a `LedgerNode` is `Send + Sync` (its storage backend is
//! required to be). The sharded slot engine mutates a node only from the
//! worker thread that owns its shard; the read-only responder surface
//! ([`LedgerNode::respond`], [`LedgerNode::store`]) is safely shared across
//! validator threads during the PoP phase.

use crate::attack::Behavior;
use crate::blacklist::Blacklist;
use crate::block::{BlockBody, BlockId, DataBlock, DigestEntry};
use crate::config::ProtocolConfig;
use crate::error::TldagError;
use crate::pop::messages::{ChildReply, Reply, Request};
use crate::store::{BlockBackend, BlockStore, TrustCache};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, NodeId};

/// A 2LDAG protocol participant.
#[derive(Debug)]
pub struct LedgerNode {
    id: NodeId,
    keypair: KeyPair,
    neighbors: Vec<NodeId>,
    /// `A_i`: latest digest per neighbor, sorted by id — the order a block
    /// lists them in.
    latest_digests: Vec<(NodeId, Digest)>,
    store: Box<dyn BlockBackend>,
    trust_cache: TrustCache,
    blacklist: Blacklist,
    behavior: Behavior,
    /// Digests received this slot per neighbor, sorted by id, for flood
    /// detection. Cleared, not freed, at slot start.
    digests_this_slot: Vec<(NodeId, u32)>,
    flood_limit_per_slot: u32,
}

/// The value an id-sorted `entries` holds for `id`, inserted as `fresh` at
/// its place in the order when absent.
fn sorted_entry<T>(entries: &mut Vec<(NodeId, T)>, id: NodeId, fresh: T) -> &mut T {
    let at = match entries.binary_search_by_key(&id, |entry| entry.0) {
        Ok(at) => at,
        Err(at) => {
            entries.insert(at, (id, fresh));
            at
        }
    };
    &mut entries[at].1
}

/// Algorithm 4 over chain `store`, whose owner answers as `claimed`: the
/// oldest block whose Digests field holds `target`, among those generated
/// at or before `horizon` when one is set. When none qualifies,
/// [`Reply::Pruned`] if the chain's prefix was compacted (the child may have
/// lived below the floor, which `REQ_CHILD` cannot tell from "never
/// existed"), else [`Reply::NoChild`]. A validator answers its own asks
/// with it too.
pub(crate) fn child_reply(
    store: &dyn BlockBackend,
    claimed: NodeId,
    target: &Digest,
    horizon: Option<u64>,
) -> Reply {
    let horizon = horizon.unwrap_or(u64::MAX);
    match store.oldest_child_of_within(target, horizon) {
        Some(block) => Reply::Child(ChildReply {
            claimed_owner: claimed,
            block_id: block.id,
            header: block.header,
        }),
        None => match store.pruned_floor() {
            0 => Reply::NoChild,
            floor => Reply::Pruned {
                retained_from: floor,
            },
        },
    }
}

impl LedgerNode {
    /// Creates a node with the given neighbors (from `G(V,E)`) backed by the
    /// in-memory [`BlockStore`]; keys are derived from the node id, modelling
    /// registration-time provisioning.
    pub fn new(id: NodeId, neighbors: Vec<NodeId>, cfg: &ProtocolConfig) -> Self {
        Self::with_backend(id, neighbors, cfg, Box::new(BlockStore::new()))
    }

    /// Creates a node whose chain `S_i` lives in the given storage backend.
    ///
    /// A reopened (recovered) backend is accepted mid-chain: generation
    /// resumes from `backend.len()`, so a restarted node continues its
    /// sequence numbers instead of forking its own chain.
    pub fn with_backend(
        id: NodeId,
        neighbors: Vec<NodeId>,
        cfg: &ProtocolConfig,
        backend: Box<dyn BlockBackend>,
    ) -> Self {
        LedgerNode {
            id,
            keypair: KeyPair::from_seed(u64::from(id.0)),
            neighbors,
            latest_digests: Vec::new(),
            store: backend,
            trust_cache: TrustCache::new(),
            blacklist: Blacklist::new(cfg.blacklist),
            behavior: Behavior::Honest,
            digests_this_slot: Vec::new(),
            flood_limit_per_slot: 2,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The neighbor set `N(i)`.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Registers a new physical neighbor (dynamic membership: a node joined
    /// within radio range).
    pub fn add_neighbor(&mut self, neighbor: NodeId) {
        if !self.neighbors.contains(&neighbor) {
            self.neighbors.push(neighbor);
        }
    }

    /// Forgets a neighbor (dynamic membership: a node left). Its last digest
    /// is dropped from `A_i`, so future blocks no longer reference it.
    pub fn remove_neighbor(&mut self, neighbor: NodeId) {
        self.neighbors.retain(|&n| n != neighbor);
        self.latest_digests.retain(|&(id, _)| id != neighbor);
    }

    /// Current behaviour.
    pub(crate) fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Sets the behaviour (used by attack scenarios).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Own block store `S_i`.
    pub fn store(&self) -> &dyn BlockBackend {
        self.store.as_ref()
    }

    /// Mutable access to `S_i` (sync points, compaction hooks).
    pub fn store_mut(&mut self) -> &mut dyn BlockBackend {
        self.store.as_mut()
    }

    /// Trusted-header cache `H_i`.
    pub fn trust_cache(&self) -> &TrustCache {
        &self.trust_cache
    }

    /// Mutable trust cache: the network commits verified headers to it.
    pub(crate) fn trust_cache_mut(&mut self) -> &mut TrustCache {
        &mut self.trust_cache
    }

    /// Takes the trust cache out of the node, leaving an empty one with an
    /// arena of its own (a wire node's verify step holds it for the run).
    pub fn take_trust_cache(&mut self) -> TrustCache {
        std::mem::take(&mut self.trust_cache)
    }

    /// Puts a trust cache back (counterpart of [`Self::take_trust_cache`]).
    pub fn restore_trust_cache(&mut self, cache: TrustCache) {
        self.trust_cache = cache;
    }

    /// The blacklist.
    pub fn blacklist(&self) -> &Blacklist {
        &self.blacklist
    }

    /// Takes the blacklist out of the node (restored after a PoP run, like
    /// [`Self::take_trust_cache`]).
    pub fn take_blacklist(&mut self, cfg: &ProtocolConfig) -> Blacklist {
        std::mem::replace(&mut self.blacklist, Blacklist::new(cfg.blacklist))
    }

    /// Puts a blacklist back (counterpart of [`Self::take_blacklist`]).
    pub fn restore_blacklist(&mut self, blacklist: Blacklist) {
        self.blacklist = blacklist;
    }

    /// Mutable blacklist access.
    pub fn blacklist_mut(&mut self) -> &mut Blacklist {
        &mut self.blacklist
    }

    /// Digest of the node's own latest block.
    pub fn own_latest_digest(&self) -> Option<Digest> {
        self.store.latest_digest()
    }

    /// Number of blocks generated so far.
    pub fn chain_len(&self) -> usize {
        self.store.len()
    }

    /// Generates the next data block from `payload` at `slot` (Sec. III-D)
    /// and returns it. The caller (network layer) is responsible for
    /// broadcasting `H(b^h)` to the neighbors.
    ///
    /// The Digests field contains the latest digest from each neighbor heard
    /// so far, plus the previous own-block digest (absent for genesis).
    ///
    /// `slot` must be later than the slot of the chain's last block: that
    /// generation order is what [`BlockBackend::generated_through`] relies
    /// on, and debug builds check it here.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the backend cannot persist the block.
    /// The sequence number is derived from the backend's length, so
    /// [`TldagError::OutOfOrderAppend`] cannot occur here.
    pub fn generate_block(
        &mut self,
        cfg: &ProtocolConfig,
        slot: Slot,
        payload: Vec<u8>,
    ) -> Result<DataBlock, TldagError> {
        debug_assert!(
            self.store
                .latest()
                .is_none_or(|last| last.header.time < slot),
            "{} generates at slot {slot}, not after its last block",
            self.id
        );
        let mut digests: Vec<DigestEntry> = self
            .latest_digests
            .iter()
            .map(|&(origin, digest)| DigestEntry { origin, digest })
            .collect();
        if let Some(prev) = self.own_latest_digest() {
            digests.push(DigestEntry {
                origin: self.id,
                digest: prev,
            });
        }
        let id = BlockId::new(self.id, self.store.len() as u32);
        let body = BlockBody::new(payload, cfg.body_bits);
        let block = DataBlock::create(cfg, id, slot, digests, body, &self.keypair);
        self.store.append(block.clone())?;
        Ok(block)
    }

    /// The second block an equivocating owner offers for `block`'s slot:
    /// the same id, slot and parent digests, the payload with `0xEB`
    /// appended, freshly mined and signed with this node's key. Nothing is
    /// stored; the canonical chain keeps `block`.
    pub fn equivocating_twin(&self, cfg: &ProtocolConfig, block: &DataBlock) -> DataBlock {
        let mut payload = block.body.payload.to_vec();
        payload.push(0xEB);
        let (id, slot, digests) = (block.id, block.header.time, block.header.digests.clone());
        let body = BlockBody::new(payload, cfg.body_bits);
        DataBlock::create(cfg, id, slot, digests, body, &self.keypair)
    }

    /// Handles a digest received from `from`. Returns `false` when the digest
    /// is discarded (unknown peer, banned peer, or flood detected).
    ///
    /// Flood detection (Sec. IV-D.5): a peer delivering more digests per slot
    /// than the puzzle plausibly allows is banned.
    pub fn receive_digest(&mut self, from: NodeId, digest: Digest) -> bool {
        if !self.neighbors.contains(&from) {
            return false;
        }
        if self.blacklist.is_banned(from) {
            // Banned peers still earn parole credit by forwarding blocks.
            self.blacklist.record_service(from);
            return false;
        }
        let count = sorted_entry(&mut self.digests_this_slot, from, 0);
        *count += 1;
        if *count > self.flood_limit_per_slot {
            self.blacklist.record_failure(from);
            return false;
        }
        *sorted_entry(&mut self.latest_digests, from, digest) = digest;
        self.blacklist.record_service(from);
        true
    }

    /// Resets per-slot rate counters; the network calls this at slot start.
    pub fn begin_slot(&mut self) {
        self.digests_this_slot.clear();
    }

    /// First sequence number of `S_i` still retained — the node's pruned
    /// floor (0 until a retention budget compacts the chain prefix).
    pub fn pruned_floor(&self) -> u32 {
        self.store.pruned_floor()
    }

    /// Answers a PoP request: the verifier role of Algorithm 3 line 2 for a
    /// [`Request::Fetch`], the responder of Algorithm 4 for a
    /// [`Request::Child`]. `None` is silence, which the requester sees as a
    /// timeout: a silent behaviour says nothing, and neither does an owner
    /// asked for a block it never generated.
    ///
    /// Honest nodes answer from `S_i` (`child_reply` for a child). A
    /// block below the pruned floor is a graceful [`Reply::Pruned`] miss,
    /// never a panic. [`Behavior::CorruptStore`] serves a tampered body,
    /// [`Behavior::CorruptReply`] flips the referenced digest in a child's
    /// header, and [`Behavior::SybilImpersonator`] claims another identity
    /// on its `RPY_CHILD`.
    pub fn respond(&self, request: &Request) -> Option<Reply> {
        if self.behavior.is_silent() {
            return None;
        }
        match *request {
            Request::Fetch(id) => {
                let Some(mut block) = self.store.get(id.seq) else {
                    let floor = self.store.pruned_floor();
                    return (id.seq < floor).then_some(Reply::Pruned {
                        retained_from: floor,
                    });
                };
                if self.behavior == Behavior::CorruptStore {
                    let mut bytes = block.body.payload.to_vec();
                    match bytes.first_mut() {
                        Some(first) => *first ^= 0xff,
                        None => bytes.push(0xff),
                    }
                    block.body = BlockBody::new(bytes, block.body.logical_bits);
                }
                Some(Reply::Block(Box::new(block)))
            }
            Request::Child {
                target, horizon, ..
            } => {
                let claimed = match self.behavior {
                    Behavior::SybilImpersonator { claimed } => NodeId(claimed),
                    _ => self.id,
                };
                let mut reply = child_reply(self.store(), claimed, &target, horizon);
                if let (Reply::Child(child), Behavior::CorruptReply) = (&mut reply, self.behavior) {
                    // A fresh list: the stored one is shared with `S_i` and `H_i`.
                    let flip = |&DigestEntry { origin, digest }| DigestEntry {
                        origin,
                        digest: if digest == target {
                            digest.corrupted()
                        } else {
                            digest
                        },
                    };
                    child.header.digests = child.header.digests.iter().map(flip).collect();
                }
                Some(reply)
            }
        }
    }

    /// Total logical storage: `|S_i| + |H_i|` in bits (Prop. 3's quantity).
    pub fn storage_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.store.logical_bits(cfg) + self.trust_cache.logical_bits(cfg)
    }
}

#[cfg(test)]
impl LedgerNode {
    /// Latest digest heard from `neighbor` (`A_i` lookup).
    fn latest_digest_from(&self, neighbor: NodeId) -> Option<Digest> {
        let at = self
            .latest_digests
            .binary_search_by_key(&neighbor, |entry| entry.0)
            .ok()?;
        Some(self.latest_digests[at].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::test_default()
    }

    fn node_with_neighbors(id: u32, neighbors: &[u32]) -> LedgerNode {
        LedgerNode::new(
            NodeId(id),
            neighbors.iter().map(|&n| NodeId(n)).collect(),
            &cfg(),
        )
    }

    /// `node`'s answer to an uncapped `REQ_CHILD(target)`.
    fn child_of(node: &LedgerNode, target: &Digest) -> Option<Reply> {
        node.respond(&Request::Child {
            responder: node.id(),
            target: *target,
            horizon: None,
        })
    }

    #[test]
    fn genesis_block_has_no_digests() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1, 2]);
        let block = node.generate_block(&cfg, 0, vec![1, 2, 3]).unwrap();
        assert_eq!(block.id, BlockId::genesis(NodeId(0)));
        assert!(block.header.digests.is_empty());
        assert_eq!(node.chain_len(), 1);
    }

    #[test]
    fn second_block_references_previous_and_neighbors() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        node.generate_block(&cfg, 0, vec![0]).unwrap();
        let own_digest = node.own_latest_digest().unwrap();
        let neighbor_digest = Digest::from_bytes([7; 32]);
        assert!(node.receive_digest(NodeId(1), neighbor_digest));

        let block = node.generate_block(&cfg, 1, vec![1]).unwrap();
        assert_eq!(block.header.digest_entries(), 2);
        assert_eq!(block.header.digest_of(NodeId(0)), Some(own_digest));
        assert_eq!(block.header.digest_of(NodeId(1)), Some(neighbor_digest));
    }

    #[test]
    fn digest_from_non_neighbor_rejected() {
        let mut node = node_with_neighbors(0, &[1]);
        assert!(!node.receive_digest(NodeId(9), Digest::ZERO));
        assert!(node.latest_digest_from(NodeId(9)).is_none());
    }

    #[test]
    fn newer_digest_replaces_older() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        let d1 = Digest::from_bytes([1; 32]);
        let d2 = Digest::from_bytes([2; 32]);
        node.receive_digest(NodeId(1), d1);
        node.receive_digest(NodeId(1), d2);
        assert_eq!(node.latest_digest_from(NodeId(1)), Some(d2));
        // Only the latest appears in a new block (A_i semantics).
        let block = node.generate_block(&cfg, 1, vec![]).unwrap();
        assert_eq!(block.header.digest_of(NodeId(1)), Some(d2));
    }

    #[test]
    fn flood_detection_bans_peer() {
        let mut node = node_with_neighbors(0, &[1]);
        node.begin_slot();
        assert!(node.receive_digest(NodeId(1), Digest::from_bytes([1; 32])));
        assert!(node.receive_digest(NodeId(1), Digest::from_bytes([2; 32])));
        // Third digest in the same slot exceeds the plausible puzzle rate.
        assert!(!node.receive_digest(NodeId(1), Digest::from_bytes([3; 32])));
        assert!(node.blacklist().is_banned(NodeId(1)));
    }

    #[test]
    fn slot_reset_clears_flood_counters() {
        let mut node = node_with_neighbors(0, &[1]);
        node.begin_slot();
        node.receive_digest(NodeId(1), Digest::from_bytes([1; 32]));
        node.receive_digest(NodeId(1), Digest::from_bytes([2; 32]));
        node.begin_slot();
        assert!(node.receive_digest(NodeId(1), Digest::from_bytes([3; 32])));
        assert!(!node.blacklist().is_banned(NodeId(1)));
    }

    #[test]
    fn serve_child_request_returns_oldest_match() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        let target = Digest::from_bytes([9; 32]);
        node.receive_digest(NodeId(1), target);
        node.generate_block(&cfg, 0, vec![0]).unwrap(); // seq 0 contains target
        node.generate_block(&cfg, 1, vec![1]).unwrap(); // seq 1 contains own prev (target replaced? no: A_i still has it)
        let Some(Reply::Child(child)) = child_of(&node, &target) else {
            panic!("expected a child");
        };
        assert_eq!(child.block_id.seq, 0);
        assert!(child.header.contains_digest(&target));
        // A miss on an unpruned chain is a definitive NoChild.
        assert_eq!(child_of(&node, &Digest::ZERO), Some(Reply::NoChild));
    }

    #[test]
    fn responder_skips_a_child_that_only_shares_the_prefix() {
        use crate::pop::validator::{PopContext, PopWalk};
        use tldag_sim::topology::Topology;

        let cfg = cfg().with_gamma(1);
        let mut nodes = [
            node_with_neighbors(0, &[1]),
            node_with_neighbors(1, &[0, 2]),
            node_with_neighbors(2, &[1]),
        ];
        let target = nodes[0].generate_block(&cfg, 0, vec![0]).unwrap();
        let digest = target.header_digest();
        let mut near = digest.into_bytes();
        near[31] ^= 1;
        // Node 1's oldest block holds a digest with the target's prefix, the
        // next one the target itself.
        nodes[1].receive_digest(NodeId(0), Digest::from_bytes(near));
        nodes[1].generate_block(&cfg, 1, vec![1]).unwrap();
        nodes[1].begin_slot();
        nodes[1].receive_digest(NodeId(0), digest);
        nodes[1].generate_block(&cfg, 2, vec![2]).unwrap();
        let Some(Reply::Child(child)) = child_of(&nodes[1], &digest) else {
            panic!("expected a child");
        };
        assert_eq!(child.block_id.seq, 1);
        assert!(child.header.contains_digest(&digest));

        // Node 2 audits the target through node 1: no invalid reply, no
        // offense, and the verified path runs through the true child.
        let topology = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let (cache, mut blacklist) = (TrustCache::new(), nodes[2].blacklist().clone());
        let mut ctx = PopContext {
            cfg: &cfg,
            topology: &topology,
            id: NodeId(2),
            own_store: nodes[2].store(),
            trust_cache: &cache,
            blacklist: &mut blacklist,
            horizon: None,
        };
        let rng = tldag_sim::DetRng::seed_from(1);
        let report = PopWalk::run(target.id, rng, &mut ctx, |request| {
            nodes[request.to().index()].respond(request)
        });
        assert!(report.is_success(), "{report:?}");
        assert_eq!(report.metrics.invalid_replies, 0);
        assert_eq!(report.metrics.offenses, 0);
        assert_eq!(report.path[1].block_id, child.block_id);
    }

    #[test]
    fn corrupt_reply_breaks_digest_reference() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        let target = Digest::from_bytes([9; 32]);
        node.receive_digest(NodeId(1), target);
        node.generate_block(&cfg, 0, vec![0]).unwrap();
        node.set_behavior(Behavior::CorruptReply);
        let Some(Reply::Child(child)) = child_of(&node, &target) else {
            panic!("expected a child");
        };
        assert!(!child.header.contains_digest(&target));
    }

    #[test]
    fn unresponsive_serves_nothing() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        node.generate_block(&cfg, 0, vec![0]).unwrap();
        node.set_behavior(Behavior::Unresponsive);
        let fetch = Request::Fetch(BlockId::genesis(NodeId(0)));
        assert_eq!(node.respond(&fetch), None);
        assert_eq!(child_of(&node, &Digest::ZERO), None);
    }

    #[test]
    fn corrupt_store_serves_tampered_body() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[1]);
        node.generate_block(&cfg, 0, vec![1, 2, 3]).unwrap();
        node.set_behavior(Behavior::CorruptStore);
        let fetch = Request::Fetch(BlockId::genesis(NodeId(0)));
        let Some(Reply::Block(block)) = node.respond(&fetch) else {
            panic!("corrupt store still serves");
        };
        // Tampered body no longer matches the signed Merkle root.
        assert_ne!(
            block.body.merkle_root(cfg.merkle_chunk_bytes),
            block.header.root
        );
    }

    #[test]
    fn storage_counts_chain_and_cache() {
        let cfg = cfg();
        let mut node = node_with_neighbors(0, &[]);
        assert_eq!(node.storage_bits(&cfg), Bits::ZERO);
        node.generate_block(&cfg, 0, vec![0]).unwrap();
        assert_eq!(node.storage_bits(&cfg), cfg.block_bits(0));
    }

    /// `A_i` and the flood counters as they were, in `BTreeMap`s, with the
    /// digest handling they fed: the reference the id-sorted vectors must
    /// agree with.
    struct ReferenceAi {
        neighbors: Vec<NodeId>,
        latest_digests: BTreeMap<NodeId, Digest>,
        digests_this_slot: BTreeMap<NodeId, u32>,
        blacklist: Blacklist,
    }

    impl ReferenceAi {
        fn receive_digest(&mut self, from: NodeId, digest: Digest) -> bool {
            if !self.neighbors.contains(&from) {
                return false;
            }
            if self.blacklist.is_banned(from) {
                self.blacklist.record_service(from);
                return false;
            }
            let count = self.digests_this_slot.entry(from).or_insert(0);
            *count += 1;
            if *count > 2 {
                self.blacklist.record_failure(from);
                return false;
            }
            self.latest_digests.insert(from, digest);
            self.blacklist.record_service(from);
            true
        }

        fn remove_neighbor(&mut self, neighbor: NodeId) {
            self.neighbors.retain(|&n| n != neighbor);
            self.latest_digests.remove(&neighbor);
        }

        /// The Digests field of the next block, given the own previous one.
        fn digest_list(&self, own: NodeId, prev: Option<Digest>) -> Vec<DigestEntry> {
            let mut digests: Vec<DigestEntry> = (self.latest_digests.iter())
                .map(|(&origin, &digest)| DigestEntry { origin, digest })
                .collect();
            digests.extend(prev.map(|digest| DigestEntry {
                origin: own,
                digest,
            }));
            digests
        }
    }

    proptest::proptest! {
        /// Random digest deliveries (flooders included), slot starts,
        /// neighbor changes, bans and blocks, replayed on the `BTreeMap`
        /// reference: the same verdicts, `A_i`, bans and digest lists.
        #[test]
        fn a_i_in_sorted_vectors_matches_the_btreemap_reference(
            ops in proptest::collection::vec((0u8..8, 0u32..9, proptest::any::<u8>()), 1..160),
        ) {
            let mut cfg = cfg();
            cfg.blacklist = crate::config::BlacklistConfig {
                ban_after_failures: 2,
                parole_after_services: 3,
            };
            let neighbors: Vec<NodeId> = [5, 2, 7, 1].map(NodeId).to_vec();
            let mut node = LedgerNode::new(NodeId(0), neighbors.clone(), &cfg);
            let mut reference = ReferenceAi {
                neighbors,
                latest_digests: BTreeMap::new(),
                digests_this_slot: BTreeMap::new(),
                blacklist: Blacklist::new(cfg.blacklist),
            };
            let mut slot = 0;
            for (op, peer, byte) in ops {
                let peer = NodeId(peer);
                match op {
                    // Deliveries are the common case; a peer heard three
                    // times between slot starts is a flooder.
                    0..=2 => {
                        let digest = Digest::from_bytes([byte; 32]);
                        proptest::prop_assert_eq!(
                            node.receive_digest(peer, digest),
                            reference.receive_digest(peer, digest)
                        );
                    }
                    3 => {
                        node.begin_slot();
                        reference.digests_this_slot.clear();
                    }
                    4 => {
                        node.add_neighbor(peer);
                        if !reference.neighbors.contains(&peer) {
                            reference.neighbors.push(peer);
                        }
                    }
                    5 => {
                        node.remove_neighbor(peer);
                        reference.remove_neighbor(peer);
                    }
                    6 => {
                        node.blacklist_mut().record_failure(peer);
                        reference.blacklist.record_failure(peer);
                    }
                    _ => {
                        let expect = reference.digest_list(node.id(), node.own_latest_digest());
                        let block = node.generate_block(&cfg, slot, vec![byte]).unwrap();
                        slot += 1;
                        proptest::prop_assert_eq!(&block.header.digests[..], &expect[..]);
                    }
                }
                for id in (0..9).map(NodeId) {
                    proptest::prop_assert_eq!(
                        node.latest_digest_from(id),
                        reference.latest_digests.get(&id).copied()
                    );
                }
                proptest::prop_assert_eq!(
                    node.blacklist().banned_peers(),
                    reference.blacklist.banned_peers()
                );
            }
        }
    }

    #[test]
    fn banned_peer_digest_counts_as_service() {
        let mut node = node_with_neighbors(0, &[1]);
        // Force a ban.
        node.blacklist_mut().record_failure(NodeId(1));
        assert!(node.blacklist().is_banned(NodeId(1)));
        // Deliver parole_after_services digests.
        for i in 0..16 {
            node.receive_digest(NodeId(1), Digest::from_bytes([i; 32]));
        }
        assert!(!node.blacklist().is_banned(NodeId(1)));
    }
}
