//! The PoP validator (Algorithm 3, Sec. IV-C).
//!
//! Verifying block `b_{j,t}` proceeds as:
//!
//! 1. Retrieve the full block from the verifier `j`; check its Merkle root
//!    (and, as hardening, its signature and puzzle).
//! 2. Initialise the proof path `P_i = [b_{j,t}]` and node set `R_i = {j}`.
//! 3. Loop until `|R_i| ≥ γ + 1`:
//!    * **TPS** — extend the path for free from the verified-header cache.
//!    * **WPS** — pick the most promising untried neighbor of the current
//!      verifying block's owner and send it `REQ_CHILD`.
//!    * A valid `RPY_CHILD` (its Digests entry for the owner matches the
//!      verifying digest, and the header signature/puzzle verify) extends the
//!      path; timeouts and invalid replies mark the responder tried and feed
//!      the blacklist.
//!    * When every neighbor is exhausted, **roll back** one block (lines
//!      26–31): the popped owner leaves `R_i` and is excluded (`V'`), and the
//!      search resumes one block earlier.
//! 4. On success, every header on the path enters the trust cache `H_i`
//!    (line 39) — once the caller commits the report's
//!    [`PopReport::trusted`] headers, so a run only ever reads `H_i`.
//!
//! Micro-loops (Fig. 6) arise naturally: when a fast node's blocks alternate
//! with a slow neighbor's, the path may revisit owners without growing
//! `|R_i|`; `R_i` is maintained as a multiset so rollbacks through such loops
//! stay consistent.

use crate::blacklist::Blacklist;
use crate::block::{BlockHeader, BlockId};
use crate::config::ProtocolConfig;
use crate::error::PopError;
use crate::pop::messages::{ChildReply, ChildResponse, FetchResponse, PopTransport};
use crate::pop::{tps, wps};
use crate::store::{BlockBackend, FreshHeaders, TrustCache, TrustedHeader};
use std::cell::RefCell;
use std::collections::HashSet;
use tldag_crypto::schnorr::{KeyPair, PublicKey};
use tldag_crypto::Digest;
use tldag_sim::{Bits, DetRng, NodeId, Topology};

/// Defensive cap on validator loop iterations (the protocol itself
/// terminates because the logical DAG is finite and acyclic).
const MAX_ITERATIONS: usize = 1_000_000;

/// One block on the proof path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Node whose block this is.
    pub owner: NodeId,
    /// The block's identity.
    pub block_id: BlockId,
    /// The block's header digest.
    pub digest: Digest,
}

tldag_obs::counters! {
    /// Counters describing one PoP run; the raw material for Fig. 8 and the
    /// Proposition 4/6 checks. `fields` reports the bit counters in bits.
    pub struct PopMetrics {
        /// Messages emitted by the validator (block fetch + `REQ_CHILD`s).
        messages_sent: u64,
        /// Messages received (block + `RPY_CHILD`s).
        messages_received: u64,
        /// Bits transmitted.
        bits_sent: Bits,
        /// Bits received.
        bits_received: Bits,
        /// `REQ_CHILD` messages sent.
        req_child_sent: u64,
        /// `RPY_CHILD` messages received.
        replies_received: u64,
        /// Replies rejected by the consistency/signature checks.
        invalid_replies: u64,
        /// Cooperative "no child stored" replies.
        no_child_replies: u64,
        /// Graceful pruned misses: the target block was compacted away at the
        /// verifier, or a responder's pruned chain could not rule out a child
        /// (Eq. 2 retention budgets in action — cooperative, never an offense).
        pruned_misses: u64,
        /// Requests that timed out.
        timeouts: u64,
        /// Offenses recorded against responders (Sec. IV-D.6): every timeout or
        /// invalid reply that fed the blacklist. `offenses =` blacklist
        /// `record_failure` calls, so it is the counter the wire runtime exports
        /// as `tldag_pop_offenses_total`.
        offenses: u64,
        /// Path extensions served from the trust cache (TPS).
        tps_extensions: u64,
        /// Path extensions served from the validator's own store.
        own_store_hits: u64,
        /// Rollbacks performed (Algorithm 3, lines 26–31).
        rollbacks: u64,
    }
}

impl PopMetrics {
    /// Total messages exchanged (Prop. 4's quantity).
    pub fn total_messages(&self) -> u64 {
        self.messages_sent + self.messages_received
    }

    /// Total traffic in bits.
    pub fn total_bits(&self) -> Bits {
        self.bits_sent + self.bits_received
    }
}

/// The result of one PoP run.
#[derive(Clone, Debug)]
pub struct PopReport {
    /// `Ok(())` when consensus was reached, otherwise the failure reason.
    pub outcome: Result<(), PopError>,
    /// The proof path (verifier first). On failure, the path at the moment
    /// the run aborted.
    pub path: Vec<PathStep>,
    /// Number of distinct nodes on the path when the run ended.
    pub distinct_nodes: usize,
    /// Message/byte counters.
    pub metrics: PopMetrics,
    /// The path's headers the run fetched rather than read from `H_i`, to
    /// be trusted when the run is committed ([`TrustCache::commit`]); empty
    /// unless the run succeeded. Whoever commits the run takes them, so a
    /// report handed on has none.
    pub trusted: FreshHeaders,
}

impl PopReport {
    /// A run that ended without consensus.
    fn failed(
        outcome: PopError,
        path: Vec<PathStep>,
        distinct_nodes: usize,
        metrics: PopMetrics,
    ) -> Self {
        PopReport {
            outcome: Err(outcome),
            path,
            distinct_nodes,
            metrics,
            trusted: FreshHeaders::default(),
        }
    }

    /// Whether consensus was reached.
    pub fn is_success(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Internal path entry: a [`PathStep`] plus search bookkeeping.
struct Entry {
    owner: NodeId,
    block_id: BlockId,
    digest: Digest,
    /// The header to cache on success; `None` for a step TPS served, whose
    /// header is in the cache already (under `digest`).
    fresh: Option<BlockHeader>,
    tried: HashSet<NodeId>,
}

impl Entry {
    fn step(&self) -> PathStep {
        PathStep {
            owner: self.owner,
            block_id: self.block_id,
            digest: self.digest,
        }
    }
}

/// Ids the key directory remembers; a larger (hostile or far-future) id is
/// derived on every call instead, so no id can make the table allocate
/// more than this many entries.
const KEY_DIRECTORY_CAP: usize = 1 << 14;

/// Looks up the registered public key of a node. Keys are provisioned from
/// node ids at registration (Sec. IV-D assumes every node knows every public
/// key), so the directory is computable — and, ids being dense, remembered
/// per thread after the first derivation (no lock for the sharded verify
/// phase's workers to share).
pub fn registered_key(node: NodeId) -> PublicKey {
    thread_local! {
        static DIRECTORY: RefCell<Vec<Option<PublicKey>>> = const { RefCell::new(Vec::new()) };
    }
    let derive = || KeyPair::from_seed(u64::from(node.0)).public();
    if node.index() >= KEY_DIRECTORY_CAP {
        return derive();
    }
    DIRECTORY.with_borrow_mut(|keys| {
        if keys.len() <= node.index() {
            keys.resize(node.index() + 1, None);
        }
        *keys[node.index()].get_or_insert_with(derive)
    })
}

/// The PoP validator role for one node.
///
/// Borrows the validator node's blacklist, the only state a run mutates,
/// and read-only views of `H_i`, the topology and its own store; all remote
/// interaction goes through the [`PopTransport`].
pub struct Validator<'a> {
    cfg: &'a ProtocolConfig,
    topology: &'a Topology,
    id: NodeId,
    own_store: &'a dyn BlockBackend,
    trust_cache: &'a TrustCache,
    blacklist: &'a mut Blacklist,
    rng: &'a mut DetRng,
    /// When set, the validator's own-store responses are capped to blocks
    /// generated at or before this slot — the pipelined (epoch-windowed)
    /// rule that keeps a run-ahead validator from citing its own future
    /// blocks while verifying an older slot.
    horizon: Option<u64>,
}

impl<'a> Validator<'a> {
    /// Creates a validator for node `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &'a ProtocolConfig,
        topology: &'a Topology,
        id: NodeId,
        own_store: &'a dyn BlockBackend,
        trust_cache: &'a TrustCache,
        blacklist: &'a mut Blacklist,
        rng: &'a mut DetRng,
    ) -> Self {
        Validator {
            cfg,
            topology,
            id,
            own_store,
            trust_cache,
            blacklist,
            rng,
            horizon: None,
        }
    }

    /// Caps this validator's own-store responses to blocks generated at or
    /// before slot `horizon` (see the `horizon` field). Remote responders
    /// are capped separately by the transport (`REQ_CHILD_AT`).
    #[must_use]
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Runs Algorithm 3 to verify block `target`.
    pub fn run(&mut self, target: BlockId, transport: &mut dyn PopTransport) -> PopReport {
        let mut metrics = PopMetrics::default();
        let threshold = self.cfg.consensus_threshold();

        // --- Initialization: retrieve and validate the target block. ---
        metrics.messages_sent += 1;
        metrics.bits_sent += self.cfg.fetch_request_bits();
        let block = match transport.fetch_block(self.id, target.owner, target) {
            None => {
                let unavailable = PopError::BlockUnavailable {
                    owner: target.owner,
                };
                return PopReport::failed(unavailable, Vec::new(), 0, metrics);
            }
            Some(FetchResponse::Pruned { retained_from }) => {
                // Graceful miss: the owner compacted the block away under
                // its storage budget. Cooperative — no offense, no retry.
                metrics.messages_received += 1;
                metrics.bits_received += self.cfg.nack_bits();
                metrics.pruned_misses += 1;
                let pruned = PopError::TargetPruned {
                    owner: target.owner,
                    retained_from,
                };
                return PopReport::failed(pruned, Vec::new(), 0, metrics);
            }
            Some(FetchResponse::Block(block)) => *block,
        };
        metrics.messages_received += 1;
        metrics.bits_received += self.cfg.block_response_bits(block.header.digest_entries());
        if let Err(reason) = block.validate(self.cfg, &registered_key(target.owner)) {
            let invalid = PopError::InvalidBlock {
                owner: target.owner,
                reason,
            };
            return PopReport::failed(invalid, Vec::new(), 0, metrics);
        }

        let mut path: Vec<Entry> = vec![Entry {
            owner: target.owner,
            block_id: target,
            digest: block.header_digest(),
            fresh: Some(block.header),
            tried: HashSet::new(),
        }];
        let mut owners = wps::OwnerMultiset::with_nodes(self.topology.len());
        owners.add(target.owner);
        // `V \ V'`: nodes excluded by the current rollback cascade
        // (Algorithm 3, line 27). Cleared whenever the path extends, because
        // line 14 re-initialises V' = V on every outer iteration.
        let mut excluded: HashSet<NodeId> = HashSet::new();
        // Header digests of rolled-back blocks; TPS must not resurrect them.
        let mut popped: HashSet<Digest> = HashSet::new();

        // --- Construct the path. ---
        for _ in 0..MAX_ITERATIONS {
            if metrics.req_child_sent >= self.cfg.max_requests {
                break;
            }
            // TPS fast-forward (Algorithm 3, line 9). The walk is lazy, so
            // breaking at `γ + 1` owners is where its lookups stop too; the
            // budget only caps a walk that never completes the proof.
            if self.cfg.enable_tps && owners.len_distinct() < threshold {
                let tip_digest = path.last().expect("path never empty here").digest;
                let budget = threshold * 4 + 16;
                for step in tps::extend(self.trust_cache, &tip_digest, &popped, budget) {
                    metrics.tps_extensions += 1;
                    owners.add(step.owner);
                    path.push(Entry {
                        owner: step.owner,
                        block_id: step.block_id,
                        digest: step.digest,
                        fresh: None,
                        tried: HashSet::new(),
                    });
                    excluded.clear();
                    if owners.len_distinct() >= threshold {
                        break;
                    }
                }
            }
            if owners.len_distinct() >= threshold {
                return self.finish_success(path, owners.len_distinct(), metrics);
            }

            // WPS candidate selection at the current tip.
            let tip = path.last().expect("path never empty here");
            let tip_owner = tip.owner;
            let tip_digest = tip.digest;
            let candidates: Vec<NodeId> = self
                .topology
                .neighbors(tip_owner)
                .iter()
                .copied()
                .filter(|n| !tip.tried.contains(n))
                .filter(|n| !excluded.contains(n))
                .filter(|n| *n == self.id || !self.blacklist.is_banned(*n))
                .collect();

            let selected = match self.cfg.path_selection {
                crate::config::PathSelection::Weighted => {
                    wps::select_next(self.topology, &candidates, &owners, self.rng)
                }
                crate::config::PathSelection::Random => self.rng.choose(&candidates).copied(),
            };
            let Some(responder) = selected else {
                // Rollback (Algorithm 3, lines 26–34).
                let entry = path.pop().expect("path never empty here");
                metrics.rollbacks += 1;
                owners.remove(entry.owner);
                excluded.insert(entry.owner);
                popped.insert(entry.digest);
                match path.last_mut() {
                    Some(new_tip) => {
                        // Re-asking the same responder would deterministically
                        // reproduce the popped subtree.
                        new_tip.tried.insert(entry.owner);
                        continue;
                    }
                    None => {
                        let exhausted = PopError::PathExhausted {
                            distinct_nodes: 0,
                            required: threshold,
                        };
                        return PopReport::failed(exhausted, Vec::new(), 0, metrics);
                    }
                }
            };

            // Obtain the reply: from our own store for free, otherwise over
            // the air (lines 17–24).
            let response: Option<ChildResponse> = if responder == self.id {
                metrics.own_store_hits += 1;
                let child = match self.horizon {
                    Some(h) => self.own_store.oldest_child_of_within(&tip_digest, h),
                    None => self.own_store.oldest_child_of(&tip_digest),
                };
                Some(match child {
                    Some(b) => ChildResponse::Found(ChildReply {
                        claimed_owner: self.id,
                        block_id: b.id,
                        header: b.header,
                    }),
                    None if self.own_store.pruned_floor() > 0 => ChildResponse::Pruned,
                    None => ChildResponse::NoChild,
                })
            } else {
                metrics.req_child_sent += 1;
                metrics.messages_sent += 1;
                metrics.bits_sent += self.cfg.req_child_bits();
                let response = transport.request_child(self.id, responder, tip_digest);
                if let Some(r) = &response {
                    metrics.replies_received += 1;
                    metrics.messages_received += 1;
                    metrics.bits_received += match r {
                        ChildResponse::Found(reply) => {
                            self.cfg.rpy_child_bits(reply.header.digest_entries())
                        }
                        ChildResponse::NoChild | ChildResponse::Pruned => self.cfg.nack_bits(),
                    };
                }
                response
            };

            match response {
                None => {
                    // Timeout after τ: an offense (Sec. IV-D.6).
                    metrics.timeouts += 1;
                    if responder != self.id {
                        metrics.offenses += 1;
                        self.blacklist.record_failure(responder);
                    }
                    path.last_mut()
                        .expect("path never empty here")
                        .tried
                        .insert(responder);
                }
                Some(ChildResponse::NoChild) => {
                    // Cooperative miss: not an offense, just try elsewhere.
                    metrics.no_child_replies += 1;
                    if responder != self.id {
                        self.blacklist.record_success(responder);
                    }
                    path.last_mut()
                        .expect("path never empty here")
                        .tried
                        .insert(responder);
                }
                Some(ChildResponse::Pruned) => {
                    // Equally cooperative: the responder compacted its chain
                    // prefix, so a child may be gone. Counted separately —
                    // this is the Eq. 2 budget showing up in the protocol.
                    metrics.pruned_misses += 1;
                    if responder != self.id {
                        self.blacklist.record_success(responder);
                    }
                    path.last_mut()
                        .expect("path never empty here")
                        .tried
                        .insert(responder);
                }
                Some(ChildResponse::Found(reply)) => {
                    if self.check_reply(responder, tip_owner, &tip_digest, &reply) {
                        if responder != self.id {
                            self.blacklist.record_success(responder);
                        }
                        let digest = reply.header.digest();
                        owners.add(responder);
                        path.push(Entry {
                            owner: responder,
                            block_id: reply.block_id,
                            digest,
                            fresh: Some(reply.header),
                            tried: HashSet::new(),
                        });
                        // Successful extension: Algorithm 3 re-initialises
                        // V' = V (line 14), ending the rollback cascade.
                        excluded.clear();
                    } else {
                        metrics.invalid_replies += 1;
                        if responder != self.id {
                            metrics.offenses += 1;
                            self.blacklist.record_failure(responder);
                        }
                        path.last_mut()
                            .expect("path never empty here")
                            .tried
                            .insert(responder);
                    }
                }
            }
        }

        // Defensive: the iteration cap was hit (cannot happen on a finite DAG).
        let exhausted = PopError::PathExhausted {
            distinct_nodes: owners.len_distinct(),
            required: threshold,
        };
        let path = path.iter().map(Entry::step).collect();
        PopReport::failed(exhausted, path, owners.len_distinct(), metrics)
    }

    /// Validates a `RPY_CHILD` header (Algorithm 3, line 21, plus hardening).
    fn check_reply(
        &self,
        responder: NodeId,
        verifying_owner: NodeId,
        verifying_digest: &Digest,
        reply: &ChildReply,
    ) -> bool {
        // Sybil defence: the reply must come from the identity we addressed,
        // and its block must belong to that identity.
        if reply.claimed_owner != responder || reply.block_id.owner != responder {
            return false;
        }
        // The paper's consistency check (line 21):
        // H(b^h_v) == GetDigest(b^h_{j'}, v).
        if reply.header.digest_of(verifying_owner) != Some(*verifying_digest) {
            return false;
        }
        // Hardening: the header must be signed by the registered key of the
        // responder and satisfy the generation puzzle.
        reply.header.verify_signature(&registered_key(responder))
            && reply.header.verify_puzzle(self.cfg.difficulty_bits)
    }

    /// Success epilogue: hand back every header on the path that `H_i`
    /// does not hold yet, for the caller to cache when it commits the run
    /// (line 39).
    fn finish_success(
        &mut self,
        path: Vec<Entry>,
        distinct_nodes: usize,
        metrics: PopMetrics,
    ) -> PopReport {
        let steps: Vec<PathStep> = path.iter().map(Entry::step).collect();
        let mut trusted = FreshHeaders::default();
        for entry in path {
            if let Some(header) = entry.fresh {
                let header = TrustedHeader {
                    owner: entry.owner,
                    block_id: entry.block_id,
                    header,
                };
                trusted.push(entry.digest, header);
            }
        }
        PopReport {
            outcome: Ok(()),
            path: steps,
            distinct_nodes,
            metrics,
            trusted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_directory_serves_the_derived_key() {
        let derived = |id: u32| KeyPair::from_seed(u64::from(id)).public();
        let cap = KEY_DIRECTORY_CAP as u32;
        // Out of order (the table grows over a gap), repeated (served from
        // the table), and at or past the cap (derived, never stored).
        for id in [7, 0, 7, 300, 299, cap - 1, cap, u32::MAX, 7] {
            assert_eq!(registered_key(NodeId(id)), derived(id), "id {id}");
        }
        // Another thread starts from its own empty table.
        let there = std::thread::spawn(|| registered_key(NodeId(7)));
        assert_eq!(there.join().unwrap(), derived(7));
    }
}
