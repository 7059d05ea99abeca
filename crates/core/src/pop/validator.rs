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
use crate::config::{PathSelection, ProtocolConfig};
use crate::error::PopError;
use crate::node::child_reply;
use crate::pop::messages::{ChildReply, Reply, Request};
use crate::pop::{tps, wps};
use crate::store::{BlockBackend, FreshHeaders, TrustCache, TrustedHeader};
use std::cell::RefCell;
use std::collections::HashSet;
use tldag_crypto::schnorr::{KeyPair, PublicKey};
use tldag_crypto::Digest;
use tldag_sim::{Bits, DetRng, NodeId, Topology};

/// Defensive cap on a step's loop iterations (the protocol itself
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
#[derive(Debug)]
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

/// What a walk reads, borrowed anew for every step: nothing here is held
/// between a [`Step::Ask`] and its answer.
pub struct PopContext<'a> {
    /// Protocol parameters.
    pub cfg: &'a ProtocolConfig,
    /// The physical topology `G(V, E)`.
    pub topology: &'a Topology,
    /// The validator's id.
    pub id: NodeId,
    /// The validator's own chain `S_i`, which answers the walk's asks of
    /// the validator itself.
    pub own_store: &'a dyn BlockBackend,
    /// The validator's `H_i`, which TPS reads.
    pub trust_cache: &'a TrustCache,
    /// The validator's blacklist, the only state outside the walk that a
    /// step changes.
    pub blacklist: &'a mut Blacklist,
    /// When set, child lookups — the own store's and every
    /// [`Request::Child`] — see only blocks generated at or before this
    /// slot: the pipelined (epoch-windowed) rule that keeps a run-ahead
    /// chain from leaking into the verification of an older slot.
    pub horizon: Option<u64>,
}

/// Where a walk stands: it asks, or it is done.
#[derive(Debug)]
pub enum Step {
    /// The walk waits for the answer to the request: pass it to
    /// [`PopWalk::resume`], `None` for a timeout after `τ`.
    Ask(PopWalk, Request),
    /// The run is over.
    Done(PopReport),
}

/// One run of Algorithm 3 as a value. [`Self::start`] asks for the target
/// block; each [`Self::resume`] takes the answer to the last ask and walks
/// on — TPS, WPS, the validator's own store, rollbacks — until it must ask
/// another node or is done. The walk owns its state (path, owner multiset,
/// `V \ V'`, rolled-back digests, metrics and randomness) and borrows
/// nothing between steps, so whoever holds it decides how an ask is
/// answered and when.
#[derive(Debug)]
pub struct PopWalk {
    rng: DetRng,
    metrics: PopMetrics,
    awaiting: Awaiting,
}

/// What a walk waits for.
#[derive(Debug)]
enum Awaiting {
    /// The target block, from its owner.
    Target(BlockId),
    /// `responder`'s `RPY_CHILD` to the path's tip.
    Child { path: Box<Path>, responder: NodeId },
}

/// The proof path and its bookkeeping, once the target block is in hand.
#[derive(Debug)]
struct Path {
    /// The target's entry: the path's first block, and its tip while
    /// `above` is empty.
    root: Entry,
    /// The blocks above the target, oldest first.
    above: Vec<Entry>,
    /// `R_i` as a multiset, so rollbacks through micro-loops stay
    /// consistent.
    owners: wps::OwnerMultiset,
    /// `V \ V'`: nodes excluded by the current rollback cascade
    /// (Algorithm 3, line 27). Cleared whenever the path extends, because
    /// line 14 re-initialises V' = V on every outer iteration.
    excluded: HashSet<NodeId>,
    /// Header digests of rolled-back blocks; TPS must not resurrect them.
    popped: HashSet<Digest>,
}

impl PopWalk {
    /// Starts verifying block `target`: the first ask is the target block.
    pub fn start(target: BlockId, rng: DetRng) -> Step {
        let walk = PopWalk {
            rng,
            metrics: PopMetrics::default(),
            awaiting: Awaiting::Target(target),
        };
        Step::Ask(walk, Request::Fetch(target))
    }

    /// Runs a whole walk, answering each ask with `answer` (`None` for a
    /// timeout): the loop of every caller that may block on an answer.
    pub fn run(
        target: BlockId,
        rng: DetRng,
        ctx: &mut PopContext<'_>,
        mut answer: impl FnMut(&Request) -> Option<Reply>,
    ) -> PopReport {
        let mut step = Self::start(target, rng);
        loop {
            match step {
                Step::Ask(walk, request) => step = walk.resume(ctx, answer(&request)),
                Step::Done(report) => return report,
            }
        }
    }

    /// Takes the answer to the last ask and walks on to the next one.
    pub fn resume(self, ctx: &mut PopContext<'_>, reply: Option<Reply>) -> Step {
        let PopWalk {
            mut rng,
            mut metrics,
            awaiting,
        } = self;
        let mut path = match awaiting {
            Awaiting::Target(target) => match fetched(ctx, &mut metrics, target, reply) {
                Ok(path) => Box::new(path),
                Err(outcome) => {
                    return Step::Done(PopReport::failed(outcome, Vec::new(), 0, metrics));
                }
            },
            Awaiting::Child {
                mut path,
                responder,
            } => {
                let bits = match &reply {
                    Some(Reply::Child(child)) => {
                        Some(ctx.cfg.rpy_child_bits(child.header.digest_entries()))
                    }
                    Some(Reply::NoChild | Reply::Pruned { .. }) => Some(ctx.cfg.nack_bits()),
                    Some(Reply::Block(_)) | None => None,
                };
                if let Some(bits) = bits {
                    metrics.replies_received += 1;
                    metrics.messages_received += 1;
                    metrics.bits_received += bits;
                }
                path.answered(ctx, &mut metrics, responder, reply);
                path
            }
        };
        let threshold = ctx.cfg.consensus_threshold();

        // --- Construct the path, up to the next ask of another node. ---
        for _ in 0..MAX_ITERATIONS {
            if metrics.req_child_sent >= ctx.cfg.max_requests {
                break;
            }
            // TPS fast-forward (Algorithm 3, line 9). The walk is lazy, so
            // breaking at `γ + 1` owners is where its lookups stop too; the
            // budget only caps a walk that never completes the proof.
            if ctx.cfg.enable_tps && path.owners.len_distinct() < threshold {
                let tip_digest = path.tip().digest;
                let budget = threshold * 4 + 16;
                for step in tps::extend(ctx.trust_cache, &tip_digest, &path.popped, budget) {
                    metrics.tps_extensions += 1;
                    path.owners.add(step.owner);
                    path.above.push(Entry {
                        owner: step.owner,
                        block_id: step.block_id,
                        digest: step.digest,
                        fresh: None,
                        tried: HashSet::new(),
                    });
                    path.excluded.clear();
                    if path.owners.len_distinct() >= threshold {
                        break;
                    }
                }
            }
            if path.owners.len_distinct() >= threshold {
                return Step::Done(path.success(metrics));
            }

            let Some(responder) = path.select(ctx, &mut rng) else {
                // Rollback (Algorithm 3, lines 26–34).
                metrics.rollbacks += 1;
                if path.roll_back() {
                    continue;
                }
                let exhausted = PopError::PathExhausted {
                    distinct_nodes: 0,
                    required: threshold,
                };
                return Step::Done(PopReport::failed(exhausted, Vec::new(), 0, metrics));
            };

            // Obtain the reply: from our own store for free, otherwise over
            // the air (lines 17–24).
            let target = path.tip().digest;
            if responder == ctx.id {
                metrics.own_store_hits += 1;
                let reply = child_reply(ctx.own_store, ctx.id, &target, ctx.horizon);
                path.answered(ctx, &mut metrics, responder, Some(reply));
                continue;
            }
            metrics.req_child_sent += 1;
            metrics.messages_sent += 1;
            metrics.bits_sent += ctx.cfg.req_child_bits();
            let request = Request::Child {
                responder,
                target,
                horizon: ctx.horizon,
            };
            let walk = PopWalk {
                rng,
                metrics,
                awaiting: Awaiting::Child { path, responder },
            };
            return Step::Ask(walk, request);
        }

        // The request budget is spent, or the defensive per-step iteration
        // cap was hit (which cannot happen on a finite DAG).
        let distinct_nodes = path.owners.len_distinct();
        let exhausted = PopError::PathExhausted {
            distinct_nodes,
            required: threshold,
        };
        Step::Done(PopReport::failed(
            exhausted,
            path.steps(),
            distinct_nodes,
            metrics,
        ))
    }
}

/// Initialisation (Algorithm 3, lines 1–4): takes the answer to the target
/// fetch, validates the block, and starts the path at it.
fn fetched(
    ctx: &PopContext<'_>,
    metrics: &mut PopMetrics,
    target: BlockId,
    reply: Option<Reply>,
) -> Result<Path, PopError> {
    metrics.messages_sent += 1;
    metrics.bits_sent += ctx.cfg.fetch_request_bits();
    let owner = target.owner;
    let block = match reply {
        Some(Reply::Block(block)) => *block,
        Some(Reply::Pruned { retained_from }) => {
            // Graceful miss: the owner compacted the block away under its
            // storage budget. Cooperative — no offense, no retry.
            metrics.messages_received += 1;
            metrics.bits_received += ctx.cfg.nack_bits();
            metrics.pruned_misses += 1;
            return Err(PopError::TargetPruned {
                owner,
                retained_from,
            });
        }
        _ => return Err(PopError::BlockUnavailable { owner }),
    };
    metrics.messages_received += 1;
    metrics.bits_received += ctx.cfg.block_response_bits(block.header.digest_entries());
    block
        .validate(ctx.cfg, &registered_key(owner))
        .map_err(|reason| PopError::InvalidBlock { owner, reason })?;
    let mut owners = wps::OwnerMultiset::with_nodes(ctx.topology.len());
    owners.add(owner);
    Ok(Path {
        root: Entry {
            owner,
            block_id: target,
            digest: block.header_digest(),
            fresh: Some(block.header),
            tried: HashSet::new(),
        },
        above: Vec::new(),
        owners,
        excluded: HashSet::new(),
        popped: HashSet::new(),
    })
}

impl Path {
    /// The block the walk is extending.
    fn tip(&self) -> &Entry {
        self.above.last().unwrap_or(&self.root)
    }

    fn tip_mut(&mut self) -> &mut Entry {
        self.above.last_mut().unwrap_or(&mut self.root)
    }

    /// WPS (or a uniform pick) among the tip owner's neighbours not yet
    /// tried at the tip, not excluded by the rollback cascade, and not
    /// banned (the validator itself is never banned).
    fn select(&self, ctx: &PopContext<'_>, rng: &mut DetRng) -> Option<NodeId> {
        let tip = self.tip();
        let candidates: Vec<NodeId> = (ctx.topology.neighbors(tip.owner).iter().copied())
            .filter(|n| !tip.tried.contains(n))
            .filter(|n| !self.excluded.contains(n))
            .filter(|n| *n == ctx.id || !ctx.blacklist.is_banned(*n))
            .collect();
        match ctx.cfg.path_selection {
            PathSelection::Weighted => {
                wps::select_next(ctx.topology, &candidates, &self.owners, rng)
            }
            PathSelection::Random => rng.choose(&candidates).copied(),
        }
    }

    /// Pops the tip (Algorithm 3, lines 26–31): its owner leaves `R_i` and
    /// is excluded, and the new tip never asks it again, because the same
    /// responder would deterministically reproduce the popped subtree.
    /// `false` when the tip was the target itself, and nothing is left.
    fn roll_back(&mut self) -> bool {
        let Some(entry) = self.above.pop() else {
            return false;
        };
        self.owners.remove(entry.owner);
        self.excluded.insert(entry.owner);
        self.popped.insert(entry.digest);
        self.tip_mut().tried.insert(entry.owner);
        true
    }

    /// Folds `responder`'s answer to the tip's `REQ_CHILD` into the path
    /// and the blacklist (Algorithm 3, lines 17–24).
    fn answered(
        &mut self,
        ctx: &mut PopContext<'_>,
        metrics: &mut PopMetrics,
        responder: NodeId,
        reply: Option<Reply>,
    ) {
        let remote = responder != ctx.id;
        let cooperative = match &reply {
            Some(Reply::Child(child)) => {
                let valid = check_reply(ctx.cfg, responder, self.tip(), child);
                metrics.invalid_replies += u64::from(!valid);
                valid
            }
            // Cooperative misses: not an offense, just try elsewhere. A
            // pruned one (the responder compacted its chain prefix, so a
            // child may be gone) is the Eq. 2 budget showing up in the
            // protocol, and is counted apart.
            Some(Reply::NoChild) => {
                metrics.no_child_replies += 1;
                true
            }
            Some(Reply::Pruned { .. }) => {
                metrics.pruned_misses += 1;
                true
            }
            // Timeout after τ.
            Some(Reply::Block(_)) | None => {
                metrics.timeouts += 1;
                false
            }
        };
        // A timeout or an invalid reply is an offense (Sec. IV-D.6).
        if remote && cooperative {
            ctx.blacklist.record_success(responder);
        } else if remote {
            metrics.offenses += 1;
            ctx.blacklist.record_failure(responder);
        }
        match reply {
            Some(Reply::Child(child)) if cooperative => {
                self.owners.add(responder);
                self.above.push(Entry {
                    owner: responder,
                    block_id: child.block_id,
                    digest: child.header.digest(),
                    fresh: Some(child.header),
                    tried: HashSet::new(),
                });
                // Successful extension: Algorithm 3 re-initialises V' = V
                // (line 14), ending the rollback cascade.
                self.excluded.clear();
            }
            _ => {
                self.tip_mut().tried.insert(responder);
            }
        }
    }

    /// The path, target first.
    fn steps(&self) -> Vec<PathStep> {
        let entries = std::iter::once(&self.root).chain(&self.above);
        entries.map(Entry::step).collect()
    }

    /// Success epilogue: hands back every header on the path that `H_i`
    /// does not hold yet, for the caller to cache when it commits the run
    /// (line 39).
    fn success(self, metrics: PopMetrics) -> PopReport {
        let steps = self.steps();
        let distinct_nodes = self.owners.len_distinct();
        let mut trusted = FreshHeaders::default();
        for entry in std::iter::once(self.root).chain(self.above) {
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

/// Validates a `RPY_CHILD` to the `REQ_CHILD` `responder` got for `tip`
/// (Algorithm 3, line 21, plus hardening).
fn check_reply(cfg: &ProtocolConfig, responder: NodeId, tip: &Entry, reply: &ChildReply) -> bool {
    // Sybil defence: the reply must come from the identity we addressed,
    // and its block must belong to that identity.
    if reply.claimed_owner != responder || reply.block_id.owner != responder {
        return false;
    }
    // The paper's consistency check (line 21):
    // H(b^h_v) == GetDigest(b^h_{j'}, v).
    if reply.header.digest_of(tip.owner) != Some(tip.digest) {
        return false;
    }
    // Hardening: the header must be signed by the registered key of the
    // responder and satisfy the generation puzzle.
    reply.header.verify_signature(&registered_key(responder))
        && reply.header.verify_puzzle(cfg.difficulty_bits)
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
