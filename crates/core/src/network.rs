//! The slotted 2LDAG network simulation: nodes + topology + accounting.
//!
//! [`TldagNetwork`] orchestrates the paper's evaluation loop (Sec. VI):
//! per slot, every scheduled node generates a block and broadcasts its digest
//! to its neighbors (DAG construction), then acts as a validator and verifies
//! one previously generated block via PoP (consensus). Storage and
//! communication are metered with the paper's logical sizes.
//!
//! ## The parallel slot engine
//!
//! DAG ledgers admit leaderless, parallel progress, and the slot loop
//! exploits exactly that. Each slot runs as a sequence of phases with
//! deterministic exchanges at the phase boundaries; the two that carry the
//! slot's CPU work run on the calling thread plus a pool of persistent slot
//! workers ([`Sharding::threads`] wide, the host's cores by default), every
//! participant claiming one item at a time from a shared counter:
//!
//! 1. **Generate** — every scheduled node mines, signs, and appends its
//!    block. The node array moves into the phase, one lock per node; a
//!    claimant holds only the node it claimed.
//! 2. **Exchange** — the DAG-construction traffic of every new digest to
//!    every neighbor is accounted.
//! 3. **Gossip** — the calling thread delivers every new digest to the
//!    sender's neighbors straight from the generate phase's sender-ordered
//!    list (`A_i` updates, flood detection), so each receiver sees its
//!    digests in sender-id order. About as much work as a pool run's
//!    wake-up and join costs, so it never fans out.
//! 4. **Verify** — each generating honest node runs one PoP on a target
//!    drawn from the slot's [`TargetPool`]: per owner, the seq range of its
//!    qualifying blocks, one binary search of each node's store, so its
//!    cost follows the node count, not the chains' length. Peer chains and
//!    every `H_i` are shared read-only, each validator mutates only its own
//!    blacklist (taken out of its node for the phase), and traffic lands in
//!    one accounting delta per participant. Once the pool returns, the
//!    headers each successful run verified are committed to the header
//!    arena every node's `H_i` shares, validator by validator in id order.
//! 5. **Commit** — backends sync per [`SyncPolicy`], once each. When more
//!    than one store has staged appends the syncs fan out over
//!    `max(threads, COMMIT_FANOUT)` chunk threads — every node flushes its
//!    own device, so the flushes overlap instead of queueing — and the slot
//!    returns when all of them are durable; otherwise (memory-backed runs
//!    always) they run inline. With the group-commit shard log in
//!    `tldag-storage` this is one fsync per shard per slot at any width.
//!
//! Results are **byte-identical for every thread count** under a fixed
//! seed, and no claiming order can change them: all per-node randomness
//! (payloads, target choice, PoP tie-breaks, link faults) is derived from
//! `(seed, slot, node)` instead of a shared sequential stream, an item
//! mutates only its own node's (or validator's) state and reads nothing
//! another item of the same phase writes, accounting deltas merge by sums,
//! and everything else a phase produces — digests, outcomes, errors, journal
//! lines — is merged in node-id order.

use crate::attack::Behavior;
use crate::blacklist::Blacklist;
use crate::block::BlockId;
use crate::config::ProtocolConfig;
use crate::error::TldagError;
use crate::node::{BlockFetch, ChildServe, LedgerNode};
use crate::pop::messages::{ChildReply, ChildResponse, FetchResponse, PopTransport};
use crate::pop::validator::{PopReport, Validator};
use crate::store::{
    BackendFactory, BlockBackend, FreshHeaders, HeaderArena, MemoryBackendFactory, SyncPolicy,
    TrustCache,
};
use crate::workload::{sensor_payload, VerificationWorkload};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;
use tldag_crypto::sha256::sha256;
use tldag_crypto::Digest;
use tldag_obs::{EventKind, Journal, Phase, PhaseTimings};
use tldag_sim::bus::{Accounting, TrafficClass};
use tldag_sim::engine::{GenerationSchedule, Sharding, Slot};
use tldag_sim::fault::{FaultPlan, LinkFaults};
use tldag_sim::{Bits, DetRng, NodeId, Topology};

/// Purpose labels for the per-(seed, slot, node) derived RNG streams. Keeping
/// the purposes distinct means adding draws to one phase never perturbs
/// another — the same property [`DetRng::fork`] gives subsystems.
///
/// Public because a *deployed* node (`tldag-net`) must reproduce the exact
/// draws of the in-memory engine to reach digest parity with it on a shared
/// seed.
pub mod stream {
    /// Sensor payload + flooder digests during generation.
    pub const GENERATE: u64 = 1;
    /// Verification-target choice.
    pub const TARGET: u64 = 2;
    /// PoP next-hop tie-breaks.
    pub const POP: u64 = 3;
    /// Link-fault decisions during one validator's PoP exchanges.
    pub const LINKS: u64 = 4;
    /// Join-site placement for dynamic membership: where a node joining at
    /// a given slot appears in the deployment area. Drawn from the joiner's
    /// derived stream so a wire deployment and the in-memory engine agree
    /// on the new node's radio links without exchanging coordinates.
    pub const MEMBERSHIP: u64 = 5;
}

/// The RNG for `purpose` at `(seed, slot, node)` — the derivation that makes
/// the slot loop independent of execution order, and therefore of the thread
/// count (and of whether the node runs in the simulator or over a socket).
pub fn derived_rng(seed: u64, purpose: u64, slot: Slot, node: NodeId) -> DetRng {
    DetRng::seed_from(seed)
        .fork(slot)
        .fork((u64::from(node.0) << 3) | purpose)
}

/// Least number of items — nodes in generate, validators in verify — a
/// phase gives each thread: a phase over `items` runs on
/// `min(threads, items / MIN_CLAIMS_PER_THREAD)` threads, at least one.
/// Not a setting: the smallest value at which no network size in a sweep
/// ran slower fanned out than inline (docs/ARCHITECTURE.md, "The slotted
/// simulation"). It also keeps the 4-node engine the wire runtime checks
/// parity against from ever starting a worker.
const MIN_CLAIMS_PER_THREAD: usize = 4;

/// Threads a phase over `items` claimable items runs on.
fn fan_out(sharding: Sharding, items: usize) -> usize {
    sharding.threads.min(items / MIN_CLAIMS_PER_THREAD).max(1)
}

/// The next unclaimed index below `len`, if any.
fn next_claim(counter: &AtomicUsize, len: usize) -> Option<usize> {
    // Relaxed: the counter hands out indices and publishes nothing; the
    // items themselves are behind locks or read-only.
    let index = counter.fetch_add(1, Ordering::Relaxed);
    (index < len).then_some(index)
}

/// One participant's share of a phase, as a worker runs it.
type Task = Box<dyn FnOnce() + Send>;

/// The slot loop's worker threads. They are spawned the first time a phase
/// fans out, wait on their task channels between phases, and are joined
/// when the network is dropped. A phase therefore costs a channel send and
/// a wake-up instead of a thread spawn, and each worker keeps its
/// thread-local key directory (`pop::validator::registered_key`) and its
/// malloc arena from slot to slot.
#[derive(Debug, Default)]
struct SlotPool {
    workers: Vec<SlotWorker>,
}

#[derive(Debug)]
struct SlotWorker {
    tasks: mpsc::Sender<Task>,
    thread: JoinHandle<()>,
}

impl SlotPool {
    /// Runs `claim` over `job` on the calling thread and on up to
    /// `threads - 1` workers, and hands the job back with the outputs of
    /// every participant. Participants claim items from the job until none
    /// are left, so which participant produced what carries no meaning:
    /// callers merge by item index.
    ///
    /// Returns only once every participant has reported, so no worker still
    /// holds the job. A panic in any participant comes back as the `Err`
    /// for the caller to re-raise once it has taken its state back.
    fn run<J, T>(
        &mut self,
        threads: usize,
        job: J,
        claim: fn(&J) -> T,
    ) -> (J, thread::Result<Vec<T>>)
    where
        J: Send + Sync + 'static,
        T: Send + 'static,
    {
        let job = Arc::new(job);
        let (report, reports) = mpsc::channel();
        let mut sent = 0;
        for worker in self.workers(threads.saturating_sub(1)) {
            let job = Arc::clone(&job);
            let report = report.clone();
            let task: Task = Box::new(move || {
                let out = panic::catch_unwind(AssertUnwindSafe(|| claim(&job)));
                drop(job); // before reporting, so the caller gets the job back
                let _ = report.send(out);
            });
            // A send fails only when the worker's thread is gone; the task
            // and its job handle are dropped with the error, and the other
            // participants claim that share.
            sent += usize::from(worker.tasks.send(task).is_ok());
        }
        // Now only the tasks hold senders, so a task dropped unrun ends the
        // wait below instead of hanging it.
        drop(report);
        let mut outs = vec![panic::catch_unwind(AssertUnwindSafe(|| claim(&job)))];
        outs.extend(reports.iter().take(sent));
        let job =
            Arc::try_unwrap(job).unwrap_or_else(|_| unreachable!("every participant has reported"));
        (job, outs.into_iter().collect())
    }

    /// The first `wanted` workers, spawning any not running yet. Fewer when
    /// the OS refuses a thread: the running participants then claim its
    /// share.
    fn workers(&mut self, wanted: usize) -> &[SlotWorker] {
        while self.workers.len() < wanted {
            let (tasks, inbox) = mpsc::channel::<Task>();
            let spawned = thread::Builder::new()
                .name(format!("tldag-slot-{}", self.workers.len() + 1))
                .spawn(move || inbox.into_iter().for_each(|task| task()));
            match spawned {
                Ok(thread) => self.workers.push(SlotWorker { tasks, thread }),
                Err(_) => break,
            }
        }
        &self.workers[..wanted.min(self.workers.len())]
    }
}

impl Drop for SlotPool {
    /// Closes every task channel, which ends each worker's loop, and joins
    /// the workers.
    fn drop(&mut self) {
        let threads: Vec<JoinHandle<()>> = self.workers.drain(..).map(|w| w.thread).collect();
        for thread in threads {
            // Tasks catch their own panics, so a worker only ever returns.
            let _ = thread.join();
        }
    }
}

/// The generate phase: the node array, moved in for the phase with one
/// lock per node, and what a node needs to mine, sign and append its block.
struct GenerateJob {
    next: AtomicUsize,
    nodes: Vec<Mutex<LedgerNode>>,
    /// Whether each node generates this slot: scheduled and not departed.
    generates: Vec<bool>,
    cfg: ProtocolConfig,
    seed: u64,
    slot: Slot,
    per_append_sync: bool,
}

/// What one participant of the generate phase produced.
#[derive(Default)]
struct Generated {
    /// Every node that attempted a block, with the outcome.
    attempts: Vec<(NodeId, Result<(), TldagError>)>,
    /// Digests to broadcast; each node's are contiguous, in emission order.
    outgoing: Vec<(NodeId, Digest)>,
}

impl GenerateJob {
    /// Claims nodes until none are left. Every scheduled node attempts its
    /// block whatever another node's attempt did.
    fn claim(&self) -> Generated {
        let mut out = Generated::default();
        while let Some(index) = next_claim(&self.next, self.nodes.len()) {
            let mut node = self.nodes[index]
                .lock()
                .expect("a node is claimed once, so no claimant panicked holding it");
            node.begin_slot();
            if self.generates[index] {
                let id = NodeId(index as u32);
                let outcome = self.generate(&mut node, id, &mut out.outgoing);
                out.attempts.push((id, outcome));
            }
        }
        out
    }

    /// Generates `node`'s block from its derived stream and queues the
    /// digests it broadcasts.
    fn generate(
        &self,
        node: &mut LedgerNode,
        id: NodeId,
        outgoing: &mut Vec<(NodeId, Digest)>,
    ) -> Result<(), TldagError> {
        let mut rng = derived_rng(self.seed, stream::GENERATE, self.slot, id);
        let payload = sensor_payload(&mut rng, id, self.slot);
        node.generate_block(&self.cfg, self.slot, payload)?;
        let digest = node.own_latest_digest().expect("block just appended");
        if self.per_append_sync {
            node.store_mut().sync()?;
        }
        outgoing.push((id, digest));

        // Flooders push extra (bogus) digests, which neighbors detect.
        if let Behavior::Flooder { rate_multiplier } = node.behavior() {
            for _ in 1..rate_multiplier {
                let mut bytes = [0u8; 32];
                for word in bytes.chunks_mut(8) {
                    word.copy_from_slice(&rng.next_u64().to_be_bytes());
                }
                outgoing.push((id, Digest::from_bytes(bytes)));
            }
        }
        Ok(())
    }
}

/// The verify phase: the node array, `H_i`s included, shared read-only,
/// and each validator's blacklist, taken out of its node for the phase.
struct VerifyJob {
    next: AtomicUsize,
    /// Validators in id order, each with its blacklist.
    validators: Vec<(NodeId, Mutex<Blacklist>)>,
    nodes: Vec<LedgerNode>,
    topology: Arc<Topology>,
    routes: Option<Arc<[Vec<Option<NodeId>>]>>,
    targets: TargetPool,
    links: LinkFaults,
    cfg: ProtocolConfig,
    seed: u64,
    slot: Slot,
    /// Whether the engine's journal is on: only then is `traced` collected.
    journal: bool,
}

/// What one participant of the verify phase produced.
struct Verified {
    attempts: usize,
    successes: usize,
    accounting: Accounting,
    /// `(validator, target, report)` of each PoP, when journaling.
    traced: Vec<(NodeId, BlockId, PopReport)>,
    /// The headers each successful PoP verified, for the serial commit.
    trusted: Vec<(NodeId, FreshHeaders)>,
}

impl VerifyJob {
    /// Claims validators until none are left; each runs one PoP on a target
    /// drawn from its own stream.
    fn claim(&self) -> Verified {
        let mut out = Verified {
            attempts: 0,
            successes: 0,
            accounting: Accounting::new(self.nodes.len()),
            traced: Vec::new(),
            trusted: Vec::new(),
        };
        while let Some(index) = next_claim(&self.next, self.validators.len()) {
            let (validator, state) = &self.validators[index];
            let validator = *validator;
            let mut target_rng = derived_rng(self.seed, stream::TARGET, self.slot, validator);
            let Some(target) = self.targets.choose(validator, &mut target_rng) else {
                continue;
            };
            out.attempts += 1;
            let mut pop_rng = derived_rng(self.seed, stream::POP, self.slot, validator);
            let mut links = self
                .links
                .fork(self.slot.wrapping_mul(stream::LINKS << 32) ^ u64::from(validator.0));
            let mut blacklist = state
                .lock()
                .expect("a validator is claimed once, so no claimant panicked holding it");
            let mut report = execute_pop(
                &self.cfg,
                &self.topology,
                &self.nodes,
                self.routes.as_deref(),
                &mut out.accounting,
                &mut links,
                validator,
                target,
                true,
                self.nodes[validator.index()].trust_cache(),
                &mut blacklist,
                &mut pop_rng,
            );
            if report.is_success() {
                out.successes += 1;
                out.trusted
                    .push((validator, std::mem::take(&mut report.trusted)));
            }
            if self.journal {
                out.traced.push((validator, target, report));
            }
        }
        out
    }
}

/// Runs `worker` over the chunks of `items` described by `ranges`: inline
/// when there is at most one chunk, on scoped threads otherwise. Results
/// are returned in range order, so merges stay deterministic. Only the
/// commit point uses it: its width is I/O concurrency, not cores, and its
/// chunks are what its error rule is stated in.
fn run_sharded<I, T, F>(items: &mut [I], ranges: &[Range<usize>], worker: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(Range<usize>, &mut [I]) -> T + Sync,
{
    if ranges.len() <= 1 {
        return ranges
            .iter()
            .map(|r| worker(r.clone(), &mut items[r.clone()]))
            .collect();
    }
    let mut chunks: Vec<(Range<usize>, &mut [I])> = Vec::with_capacity(ranges.len());
    let mut rest = items;
    let mut consumed = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - consumed);
        chunks.push((r.clone(), head));
        rest = tail;
        consumed = r.end;
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(r, chunk)| scope.spawn(move || worker(r, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Least number of chunks a commit point splits the node array into once
/// two or more stores have staged appends. In the deployment being modelled
/// every node flushes its own device, so the flushes overlap; on one host
/// the file system's journal folds concurrent `fdatasync`s into one commit.
/// Not a setting: the smallest width within noise of the best in a sweep of
/// the 50-node disk benchmark (docs/ARCHITECTURE.md, "The slotted
/// simulation", has the sweep). Spawning and joining this many scoped
/// threads costs about 0.2 ms against the milliseconds of device wait they
/// overlap.
const COMMIT_FANOUT: usize = 8;

/// A commit point: `sync()` on every node's store, once each, returning when
/// all of them are durable.
///
/// A store has staged appends when `durable_len() < len()`. With at most one
/// such store — memory-backed networks always — the syncs run inline in node
/// order and no thread is spawned. Otherwise the node array is cut into
/// `max(sharding.threads, COMMIT_FANOUT)` contiguous chunks, one thread per
/// chunk syncing its stores in node order. The phase draws no randomness and
/// appends nothing, so the width cannot reach a chain or a digest.
///
/// # Errors
///
/// The first storage error in node order. A chunk stops at its first failing
/// store; the other chunks run to completion.
fn commit_stores(nodes: &mut [LedgerNode], sharding: Sharding) -> Result<(), TldagError> {
    let staged = |node: &&LedgerNode| node.store().durable_len() < node.store().len();
    let width = match nodes.iter().filter(staged).nth(1) {
        Some(_second) => sharding.threads.max(COMMIT_FANOUT),
        None => 1,
    };
    let ranges = Sharding::threads(width).chunk_ranges(nodes.len());
    run_sharded(nodes, &ranges, |_, chunk| {
        chunk
            .iter_mut()
            .try_for_each(|node| node.store_mut().sync())
    })
    .into_iter()
    .collect()
}

/// Transport over the simulated network: synchronous request/response with
/// behaviour-driven faults and byte accounting at both endpoints.
struct SimTransport<'a> {
    cfg: &'a ProtocolConfig,
    nodes: &'a [LedgerNode],
    accounting: &'a mut Accounting,
    /// Per-source BFS parents for multi-hop attribution (present only when
    /// `cfg.multihop_accounting`).
    routes: Option<&'a [Vec<Option<NodeId>>]>,
    /// Lossy-link model: drops requests/replies independently.
    links: &'a mut LinkFaults,
    /// Probes (measurement-only PoPs) leave the accounting untouched.
    meter: bool,
}

impl SimTransport<'_> {
    fn record(&mut self, from: NodeId, to: NodeId, size: Bits) {
        if !self.meter {
            return;
        }
        match self.routes {
            None => self
                .accounting
                .record(from, to, TrafficClass::Consensus, size),
            Some(routes) => {
                // Walk the shortest physical path from `to` back to `from`;
                // every hop costs the sender tx and the receiver rx.
                let parents = &routes[from.index()];
                let mut at = to;
                let mut guard = 0usize;
                while let Some(prev) = parents[at.index()] {
                    self.accounting
                        .record(prev, at, TrafficClass::Consensus, size);
                    at = prev;
                    guard += 1;
                    if guard > parents.len() {
                        break; // defensive: corrupt parent array
                    }
                }
                if at != from {
                    // Unreachable over the physical graph (e.g. the peer
                    // left): account the attempt at the sender only.
                    self.accounting
                        .record_tx_only(from, TrafficClass::Consensus, size);
                }
            }
        }
    }
}

impl PopTransport for SimTransport<'_> {
    fn fetch_block(
        &mut self,
        validator: NodeId,
        owner: NodeId,
        id: BlockId,
    ) -> Option<FetchResponse> {
        // The target block retrieval is application data traffic: the
        // validator would fetch the sensed data regardless of PoP. It is
        // accounted under `Other` so the "consensus" panels of Fig. 8 match
        // the paper's protocol-overhead definition (headers and digests
        // only); see DESIGN.md.
        if self.meter {
            self.accounting.record(
                validator,
                owner,
                TrafficClass::Other,
                self.cfg.fetch_request_bits(),
            );
        }
        if self.links.drops() {
            return None; // request lost in the air
        }
        let served = match self.nodes[owner.index()].serve_block(id) {
            BlockFetch::Unavailable => return None, // silent / never generated
            served => served,
        };
        if self.links.drops() {
            return None; // response lost
        }
        match served {
            BlockFetch::Served(block) => {
                if self.meter {
                    self.accounting.record(
                        owner,
                        validator,
                        TrafficClass::Other,
                        self.cfg.block_response_bits(block.header.digest_entries()),
                    );
                }
                Some(FetchResponse::Block(Box::new(block)))
            }
            BlockFetch::Pruned { retained_from } => {
                // Graceful miss: the owner compacted the block away. The
                // reply is nack-sized application traffic.
                if self.meter {
                    self.accounting.record(
                        owner,
                        validator,
                        TrafficClass::Other,
                        self.cfg.nack_bits(),
                    );
                }
                Some(FetchResponse::Pruned { retained_from })
            }
            BlockFetch::Unavailable => unreachable!("handled before the reply-loss check"),
        }
    }

    fn request_child(
        &mut self,
        validator: NodeId,
        responder: NodeId,
        target: Digest,
    ) -> Option<ChildResponse> {
        self.record(validator, responder, self.cfg.req_child_bits());
        if self.links.drops() {
            return None; // REQ_CHILD lost; validator times out after τ
        }
        let node = &self.nodes[responder.index()];
        if node.behavior().is_silent() {
            return None; // timeout after τ
        }
        if self.links.drops() {
            return None; // RPY_CHILD lost
        }
        match node.serve_child_request(&target) {
            None => None, // silent (already screened above; defensive)
            Some(ChildServe::NoChild) => {
                self.record(responder, validator, self.cfg.nack_bits());
                Some(ChildResponse::NoChild)
            }
            Some(ChildServe::Pruned) => {
                self.record(responder, validator, self.cfg.nack_bits());
                Some(ChildResponse::Pruned)
            }
            Some(ChildServe::Found(block_id, header)) => {
                let claimed_owner = match node.behavior() {
                    Behavior::SybilImpersonator { claimed } => NodeId(claimed),
                    _ => responder,
                };
                self.record(
                    responder,
                    validator,
                    self.cfg.rpy_child_bits(header.digest_entries()),
                );
                Some(ChildResponse::Found(ChildReply {
                    claimed_owner,
                    block_id,
                    header,
                }))
            }
        }
    }
}

/// Summary of one simulated slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotSummary {
    /// The slot that was executed.
    pub slot: Slot,
    /// Blocks generated in this slot.
    pub blocks_generated: usize,
    /// PoP runs attempted by generating nodes.
    pub pop_attempts: usize,
    /// PoP runs that reached consensus.
    pub pop_successes: usize,
}

/// The full 2LDAG network simulation.
///
/// # Example
///
/// ```
/// use tldag_core::network::TldagNetwork;
/// use tldag_core::config::ProtocolConfig;
/// use tldag_sim::topology::{Topology, TopologyConfig};
/// use tldag_sim::engine::GenerationSchedule;
/// use tldag_sim::DetRng;
///
/// let mut rng = DetRng::seed_from(1);
/// let topo = Topology::random_connected(&TopologyConfig::small(8), &mut rng);
/// let cfg = ProtocolConfig::test_default();
/// let schedule = GenerationSchedule::uniform(topo.len());
/// let mut net = TldagNetwork::new(cfg, topo, schedule, 1);
/// for _ in 0..3 {
///     net.step();
/// }
/// assert_eq!(net.slot(), 3);
/// assert!(net.total_blocks() >= 24);
/// ```
#[derive(Debug)]
pub struct TldagNetwork {
    cfg: ProtocolConfig,
    /// Behind an `Arc` so the verify phase's workers can share it. No
    /// worker holds it between slots, so membership changes mutate it in
    /// place.
    topology: Arc<Topology>,
    nodes: Vec<LedgerNode>,
    schedule: GenerationSchedule,
    accounting: Accounting,
    /// The experiment seed; every per-(slot, node) stream derives from it.
    seed: u64,
    /// Sequential stream for out-of-loop draws (ad-hoc [`Self::run_pop`] /
    /// [`Self::choose_target`] calls from experiments).
    rng: DetRng,
    slot: Slot,
    /// How many threads the slot loop's parallel phases may use.
    sharding: Sharding,
    /// Persistent workers of the generate and verify phases.
    pool: SlotPool,
    /// When appended blocks are forced onto stable storage.
    sync_policy: SyncPolicy,
    verification: VerificationWorkload,
    pop_attempts: u64,
    pop_successes: u64,
    /// Per-source shortest-path parents, rebuilt lazily when the topology
    /// changes; only populated under `cfg.multihop_accounting`.
    routes: Option<Arc<[Vec<Option<NodeId>>]>>,
    /// Nodes that left the network (they stop generating and serving).
    departed: Vec<bool>,
    /// Event journal (disabled by default: `Journal::bounded(0)`).
    journal: Journal,
    /// Lossy-link model applied to PoP exchanges (perfect by default).
    links: LinkFaults,
    /// Provisions block backends for joining and restarting nodes.
    factory: Box<dyn BackendFactory>,
    /// Chain length each crashed node had when it died (guards restarts
    /// against forking a chain whose sequence numbers are already
    /// referenced network-wide).
    crashed_chain_len: Vec<Option<usize>>,
    /// Whether `H_i` is persisted through the factory at commit points and
    /// restored on `restart_node` (TPS resumes warm after a crash).
    persist_trust_cache: bool,
    /// Cache size at the last save, per node — skips no-op writes
    /// (`TrustCache` is insert-only, so a changed size ⇔ new entries).
    trust_saved_len: Vec<usize>,
    /// The header arena every live node's `H_i` is a member of: each
    /// trusted header is indexed once, not once per node trusting it.
    trust_arena: Arc<HeaderArena>,
    /// Wall-clock latency of each slot-loop phase (always on: recording is
    /// a handful of relaxed atomics per slot, and the timings never touch
    /// protocol randomness — digests are identical with or without a
    /// consumer). Behind an `Arc` so a metrics listener can snapshot it
    /// while the loop runs.
    phase_timings: Arc<PhaseTimings>,
}

impl TldagNetwork {
    /// Builds a network over `topology` with per-node state initialised and
    /// the paper's verification workload (`min_age = |V|`). Chains live in
    /// memory (the seed behaviour); use [`TldagNetwork::with_factory`] for a
    /// durable engine.
    pub fn new(
        cfg: ProtocolConfig,
        topology: Topology,
        schedule: GenerationSchedule,
        seed: u64,
    ) -> Self {
        Self::with_factory(
            cfg,
            topology,
            schedule,
            seed,
            Box::new(MemoryBackendFactory),
        )
    }

    /// Builds a network whose nodes store their chains in backends provided
    /// by `factory` (one backend per node, also used for joins and restarts).
    pub fn with_factory(
        cfg: ProtocolConfig,
        topology: Topology,
        schedule: GenerationSchedule,
        seed: u64,
        mut factory: Box<dyn BackendFactory>,
    ) -> Self {
        assert_eq!(
            schedule.len(),
            topology.len(),
            "schedule must cover every node"
        );
        let trust_arena = Arc::new(HeaderArena::default());
        let nodes: Vec<LedgerNode> = topology
            .node_ids()
            .map(|id| {
                let neighbors = topology.neighbors(id).to_vec();
                let mut node = LedgerNode::with_backend(id, neighbors, &cfg, factory.create(id));
                node.restore_trust_cache(TrustCache::member_of(&trust_arena));
                node
            })
            .collect();
        let n = topology.len();
        let mut network = TldagNetwork {
            cfg,
            accounting: Accounting::new(n),
            seed,
            rng: DetRng::seed_from(seed),
            slot: 0,
            sharding: Sharding::default(),
            pool: SlotPool::default(),
            sync_policy: SyncPolicy::default(),
            verification: VerificationWorkload::paper_default(n),
            nodes,
            topology: Arc::new(topology),
            schedule,
            pop_attempts: 0,
            pop_successes: 0,
            routes: None,
            departed: vec![false; n],
            journal: Journal::bounded(0),
            links: LinkFaults::perfect(),
            factory,
            crashed_chain_len: vec![None; n],
            persist_trust_cache: false,
            trust_saved_len: vec![0; n],
            trust_arena,
            phase_timings: Arc::new(PhaseTimings::new()),
        };
        network.rebuild_routes();
        network
    }

    fn rebuild_routes(&mut self) {
        self.routes = self.cfg.multihop_accounting.then(|| {
            self.topology
                .node_ids()
                .map(|id| self.topology.shortest_path_parents(id))
                .collect()
        });
    }

    /// Replaces the verification workload policy.
    pub fn set_verification_workload(&mut self, workload: VerificationWorkload) {
        self.verification = workload;
    }

    /// Sets how many threads the slot loop may use (default: the host's
    /// cores, [`Sharding::default`]). A fixed seed produces byte-identical
    /// chains, accounting, PoP counters and traces for **every** thread
    /// count — the width changes wall-clock time, never results.
    pub fn set_sharding(&mut self, sharding: Sharding) {
        self.sharding = sharding;
    }

    /// The current sharding policy.
    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// Sets when appended blocks are forced onto stable storage (a no-op
    /// for volatile backends). Default: [`SyncPolicy::PerSlot`], the seed's
    /// slot-boundary commit point.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.sync_policy = policy;
    }

    /// The current sync policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Enables (or disables) trusted-header cache persistence: at every
    /// storage commit point each node's `H_i` is saved through the backend
    /// factory (codec-encoded, atomically replaced), and
    /// [`Self::restart_node`] restores it so TPS resumes warm instead of
    /// re-verifying paths from scratch. A no-op with volatile factories.
    pub fn set_persist_trust_cache(&mut self, on: bool) {
        self.persist_trust_cache = on;
    }

    /// Whether trust-cache persistence is enabled.
    pub fn persists_trust_cache(&self) -> bool {
        self.persist_trust_cache
    }

    /// Saves every live node's `H_i` that changed since its last save.
    /// Serial on purpose: the factory is a single object, and the writes are
    /// small (headers only).
    fn save_trust_caches(&mut self) -> Result<(), TldagError> {
        for node in &self.nodes {
            let idx = node.id().index();
            if self.departed[idx] {
                continue;
            }
            let len = node.trust_cache().len();
            if len == self.trust_saved_len[idx] {
                continue;
            }
            self.factory
                .save_trust_cache(node.id(), node.trust_cache())?;
            self.trust_saved_len[idx] = len;
        }
        Ok(())
    }

    /// The header arena every live node's `H_i` is a member of.
    pub fn trust_arena(&self) -> &HeaderArena {
        &self.trust_arena
    }

    /// Commits fresh headers, each batch to the `H_i` of the node beside
    /// it, in the order given: the serial point at which the shared arena
    /// grows ([`HeaderArena::commit`]).
    fn commit_trust(&mut self, fresh: Vec<(NodeId, FreshHeaders)>) {
        if fresh.is_empty() {
            return;
        }
        let mut caches: Vec<&mut TrustCache> = self
            .nodes
            .iter_mut()
            .map(LedgerNode::trust_cache_mut)
            .collect();
        let fresh = fresh.into_iter().map(|(id, headers)| (id.index(), headers));
        HeaderArena::commit(&mut self.trust_arena, &mut caches, fresh);
    }

    /// Installs an event journal ([`Journal::bounded`] caps its memory;
    /// `usize::MAX` keeps everything).
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Installs a lossy-link model for PoP exchanges. Lost messages surface
    /// as timeouts; the protocol retries other responders, so moderate loss
    /// degrades cost, not integrity.
    pub fn set_link_faults(&mut self, links: LinkFaults) {
        self.links = links;
    }

    /// The events journaled so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Journals an event at the current slot. The engine has no clock, so
    /// it stamps `ts_ms = 0`; `message` is only built when the journal is
    /// enabled.
    fn log(&self, kind: EventKind, message: impl FnOnce() -> String) {
        if self.journal.is_enabled() {
            self.journal.record_at(0, self.slot, kind, message());
        }
    }

    /// Per-phase wall-clock latency histograms of the slot loop
    /// (generate/exchange/gossip/verify/commit), cumulative over the run.
    /// Clone the `Arc` to watch them from another thread.
    pub fn phase_timings(&self) -> &Arc<PhaseTimings> {
        &self.phase_timings
    }

    /// Marks every node in `plan` as malicious with `behavior`.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan, behavior: Behavior) {
        for id in plan.malicious_ids() {
            self.nodes[id.index()].set_behavior(behavior);
        }
    }

    /// Sets one node's behaviour.
    pub fn set_behavior(&mut self, node: NodeId, behavior: Behavior) {
        self.nodes[node.index()].set_behavior(behavior);
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &LedgerNode {
        &self.nodes[id.index()]
    }

    /// All nodes (read-only), for analysis and the logical-DAG oracle.
    pub fn nodes(&self) -> &[LedgerNode] {
        &self.nodes
    }

    /// Communication accounting so far.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Next slot to execute.
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// Lifetime PoP attempt/success counters.
    pub fn pop_counters(&self) -> (u64, u64) {
        (self.pop_attempts, self.pop_successes)
    }

    /// Total blocks across all nodes.
    pub fn total_blocks(&self) -> usize {
        self.nodes.iter().map(|n| n.chain_len()).sum()
    }

    /// Per-node logical storage (`S_i + H_i`), the Fig. 7 quantity.
    pub fn storage_bits_per_node(&self) -> Vec<Bits> {
        self.nodes
            .iter()
            .map(|n| n.storage_bits(&self.cfg))
            .collect()
    }

    /// Mean per-node storage in megabytes.
    pub fn mean_storage_mb(&self) -> f64 {
        let per_node = self.storage_bits_per_node();
        if per_node.is_empty() {
            return 0.0;
        }
        per_node.iter().map(|b| b.as_megabytes()).sum::<f64>() / per_node.len() as f64
    }

    /// Executes one slot as a synchronous round, matching the paper's slotted
    /// model: every scheduled node generates its block **from the digests it
    /// held at slot start**, then all new digests are delivered, then the
    /// verification workload runs. Delivering after generation means every
    /// digest a node emits is seen — and referenced — by all its neighbors'
    /// next blocks, which is what links the whole DAG together.
    ///
    /// The slot runs on as many threads as the configured [`Sharding`]
    /// allows; see the module docs for the phase structure and the
    /// determinism argument.
    pub fn step(&mut self) -> SlotSummary {
        self.try_step()
            .expect("storage backend failed during a slot")
    }

    /// Fallible form of [`Self::step`]: storage failures (disk full, I/O
    /// errors) surface as [`TldagError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// The first storage error raised while generating or syncing, in node
    /// order. The slot is left partially applied, and how depends on the
    /// phase that failed:
    ///
    /// - **Generation:** every scheduled node attempts its block whatever
    ///   another node's attempt did, so each block that could be appended
    ///   is, and the lowest failing node's error is returned. Neither the
    ///   thread count nor the order in which threads claim nodes can change
    ///   the chains or the error. Nothing after generation runs: no digest
    ///   of the slot is delivered, no PoP runs, nothing is committed, and
    ///   the slot counter does not advance.
    /// - **Commit point:** nothing is appended there, so every chain is
    ///   whole and the error decides only which stores are durable. The
    ///   commit point's chunks are those of `max(threads, COMMIT_FANOUT)`:
    ///   a chunk stops at its first failing store, every other chunk syncs
    ///   all of its stores, and the lowest failing node's error is returned
    ///   — the same outcome at every thread count up to `COMMIT_FANOUT`
    ///   (8). With at most one store holding staged appends the syncs run
    ///   inline and stop at the first failure.
    ///
    /// Successful slots are byte-identical at every thread count.
    ///
    /// # Panics
    ///
    /// A panic inside a backend or the protocol, on whichever thread it
    /// happened, is re-raised here once every thread of the phase has
    /// stopped, with the node array back in place.
    pub fn try_step(&mut self) -> Result<SlotSummary, TldagError> {
        let slot = self.slot;
        let n = self.nodes.len();
        let seed = self.seed;

        // --- Phase 1: block generation from slot-start state (Sec. III-D).
        // Payloads and flooder digests come from each node's derived stream.
        let phase_started = Instant::now();
        let job = GenerateJob {
            next: AtomicUsize::new(0),
            generates: (0..n)
                .map(|i| !self.departed[i] && self.schedule.generates(NodeId(i as u32), slot))
                .collect(),
            nodes: std::mem::take(&mut self.nodes)
                .into_iter()
                .map(Mutex::new)
                .collect(),
            cfg: self.cfg,
            seed,
            slot,
            per_append_sync: self.sync_policy.syncs_per_append(),
        };
        let (job, claimed) = self
            .pool
            .run(fan_out(self.sharding, n), job, GenerateJob::claim);
        // A poisoned lock means its claimant panicked: that panic is
        // re-raised just below, with the node as the panic left it.
        self.nodes = job
            .nodes
            .into_iter()
            .map(|node| node.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let claimed = claimed.unwrap_or_else(|payload| panic::resume_unwind(payload));
        // Node-id order; the sort of `outgoing` is stable, so a flooder's
        // digests keep their emission order.
        let (mut attempts, mut outgoing) = (Vec::new(), Vec::new());
        for part in claimed {
            attempts.extend(part.attempts);
            outgoing.extend(part.outgoing);
        }
        attempts.sort_unstable_by_key(|&(id, _)| id);
        outgoing.sort_by_key(|&(id, _)| id);
        let mut generated: Vec<NodeId> = Vec::with_capacity(attempts.len());
        for (id, outcome) in attempts {
            outcome?;
            generated.push(id);
        }
        for &id in &generated {
            self.log(EventKind::Generate, || {
                let seq = self.nodes[id.index()].chain_len() - 1;
                format!("{id} generated block #{seq}")
            });
        }

        self.phase_timings
            .record(Phase::Generate, phase_started.elapsed());

        // --- Phase 2: exchange — the DAG-construction traffic of every
        // digest sent to every neighbor is accounted (cheap, serial).
        let phase_started = Instant::now();
        let digest_bits = self.cfg.digest_message_bits();
        for &(from, _) in &outgoing {
            for &nb in self.topology.neighbors(from) {
                self.accounting
                    .record(from, nb, TrafficClass::DagConstruction, digest_bits);
            }
        }

        self.phase_timings
            .record(Phase::Exchange, phase_started.elapsed());

        // --- Phase 3: gossip — every digest is delivered straight from
        // `outgoing`, inline. A delivery touches only its receiver, so each
        // receiver sees its digests in `outgoing` order: senders ascending,
        // a flooder's in emission order.
        let phase_started = Instant::now();
        for &(from, digest) in &outgoing {
            for &nb in self.topology.neighbors(from) {
                self.nodes[nb.index()].receive_digest(from, digest);
            }
        }

        self.phase_timings
            .record(Phase::Gossip, phase_started.elapsed());

        // --- Phase 4: verification workload — each honest generator runs one
        // PoP. Validators read peer chains and their own `H_i` through the
        // shared node array and mutate only their own blacklist; traffic
        // lands in one accounting delta per participant. The headers the
        // runs verified are committed after the pool returns, in validator
        // order, whatever the thread count.
        let phase_started = Instant::now();
        let mut pop_attempts = 0usize;
        let mut pop_successes = 0usize;
        let honest: Vec<NodeId> = generated
            .iter()
            .copied()
            .filter(|v| !self.nodes[v.index()].behavior().is_malicious())
            .collect();
        let validators: Vec<(NodeId, Mutex<Blacklist>)> = honest
            .into_iter()
            .map(|v| {
                let blacklist = self.nodes[v.index()].take_blacklist(&self.cfg);
                (v, Mutex::new(blacklist))
            })
            .collect();
        if !validators.is_empty() {
            let threads = fan_out(self.sharding, validators.len());
            let job = VerifyJob {
                next: AtomicUsize::new(0),
                validators,
                targets: TargetPool::new(&self.nodes, &self.departed, self.verification, slot),
                nodes: std::mem::take(&mut self.nodes),
                topology: Arc::clone(&self.topology),
                routes: self.routes.clone(),
                links: self.links.clone(),
                cfg: self.cfg,
                seed,
                slot,
                journal: self.journal.is_enabled(),
            };
            let (job, claimed) = self.pool.run(threads, job, VerifyJob::claim);
            self.nodes = job.nodes;
            for (validator, blacklist) in job.validators {
                let blacklist = blacklist
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner);
                self.nodes[validator.index()].restore_blacklist(blacklist);
            }
            let claimed = claimed.unwrap_or_else(|payload| panic::resume_unwind(payload));
            let (mut traced, mut trusted) = (Vec::new(), Vec::new());
            for part in claimed {
                pop_attempts += part.attempts;
                pop_successes += part.successes;
                self.accounting.merge(&part.accounting);
                traced.extend(part.traced);
                trusted.extend(part.trusted);
            }
            trusted.sort_unstable_by_key(|&(validator, _)| validator);
            self.commit_trust(trusted);
            traced.sort_unstable_by_key(|&(validator, ..)| validator);
            for (validator, target, report) in traced {
                self.log(EventKind::Pop, || {
                    let outcome = match &report.outcome {
                        Ok(()) => "ok".to_string(),
                        Err(e) => format!("failed ({e})"),
                    };
                    format!(
                        "{validator} verified {target}: {outcome} ({} distinct, {} msgs)",
                        report.distinct_nodes,
                        report.metrics.total_messages()
                    )
                });
            }
        }
        self.pop_attempts += pop_attempts as u64;
        self.pop_successes += pop_successes as u64;
        self.phase_timings
            .record(Phase::Verify, phase_started.elapsed());

        // --- Phase 5: commit point. Under `PerSlot`/`Grouped(n)` durable
        // backends flush their tail, concurrently, so a crash loses at most
        // the uncommitted slots; group-commit backends collapse a whole shard
        // into one fsync. A no-op for the in-memory store.
        let phase_started = Instant::now();
        if self.sync_policy.syncs_at_slot_end(slot) {
            commit_stores(&mut self.nodes, self.sharding)?;
            if self.persist_trust_cache {
                self.save_trust_caches()?;
            }
        }

        self.phase_timings
            .record(Phase::Commit, phase_started.elapsed());

        self.slot += 1;
        Ok(SlotSummary {
            slot,
            blocks_generated: generated.len(),
            pop_attempts,
            pop_successes,
        })
    }

    /// Flushes every node's backend to stable storage, regardless of the
    /// sync policy. The clean-shutdown counterpart of a database `close()`:
    /// under [`SyncPolicy::Grouped`] the slots since the last group boundary
    /// are only staged in memory, and dropping the network would lose them
    /// — call this when a run ends and its chains must survive. A no-op
    /// per shard when nothing is staged (and always for volatile backends).
    ///
    /// # Errors
    ///
    /// The first storage error, in node order.
    pub fn sync_storage(&mut self) -> Result<(), TldagError> {
        commit_stores(&mut self.nodes, self.sharding)?;
        if self.persist_trust_cache {
            self.save_trust_caches()?;
        }
        Ok(())
    }

    /// Runs `n` slots, returning the last summary.
    pub fn run_slots(&mut self, n: u64) -> SlotSummary {
        self.try_run_slots(n)
            .expect("storage backend failed during a slot")
    }

    /// Fallible form of [`Self::run_slots`].
    ///
    /// # Errors
    ///
    /// Stops at the first storage error; completed slots remain applied.
    pub fn try_run_slots(&mut self, n: u64) -> Result<SlotSummary, TldagError> {
        let mut last = SlotSummary::default();
        for _ in 0..n {
            last = self.try_step()?;
        }
        Ok(last)
    }

    /// Chooses a verification target for `validator` under the current
    /// workload policy: a uniformly random qualifying block owned by another
    /// node. Draws from the network's sequential stream; the slot loop uses
    /// per-validator derived streams instead.
    pub fn choose_target(&mut self, validator: NodeId) -> Option<BlockId> {
        TargetPool::new(&self.nodes, &self.departed, self.verification, self.slot)
            .choose(validator, &mut self.rng)
    }

    /// A node joins the network at `position` with radio range `range_m`
    /// and the given generation `period` (dynamic membership, Sec. VII
    /// future work). Existing nodes in range learn the newcomer; it starts
    /// with an empty chain and generates from the next slot.
    pub fn node_joins(
        &mut self,
        position: tldag_sim::geometry::Point,
        range_m: f64,
        period: u64,
    ) -> NodeId {
        let id = Arc::make_mut(&mut self.topology).add_node(position, range_m);
        let neighbors = self.topology.neighbors(id).to_vec();
        for &nb in &neighbors {
            self.nodes[nb.index()].add_neighbor(id);
        }
        let backend = self.factory.create(id);
        let mut node = LedgerNode::with_backend(id, neighbors, &self.cfg, backend);
        node.restore_trust_cache(TrustCache::member_of(&self.trust_arena));
        self.nodes.push(node);
        self.schedule.push(period, self.slot % period);
        self.accounting.grow();
        self.departed.push(false);
        self.crashed_chain_len.push(None);
        self.trust_saved_len.push(0);
        self.rebuild_routes();
        self.log(EventKind::Membership, || format!("{id} joined"));
        id
    }

    /// A node leaves the network: it stops generating and serving, and its
    /// radio links disappear. Its historical blocks stay referenced in the
    /// DAG (children at former neighbors), but the blocks themselves become
    /// unavailable — exactly what PoP's `BlockUnavailable` reports.
    pub fn node_leaves(&mut self, id: NodeId) {
        let former: Vec<NodeId> = self.topology.neighbors(id).to_vec();
        Arc::make_mut(&mut self.topology).isolate_node(id);
        for nb in former {
            self.nodes[nb.index()].remove_neighbor(id);
        }
        self.nodes[id.index()].remove_neighbor(id);
        for nb in self.nodes[id.index()].neighbors().to_vec() {
            self.nodes[id.index()].remove_neighbor(nb);
        }
        self.nodes[id.index()].set_behavior(Behavior::Unresponsive);
        self.departed[id.index()] = true;
        self.rebuild_routes();
        self.log(EventKind::Membership, || format!("{id} left"));
    }

    /// Whether `id` has left the network.
    pub fn has_departed(&self, id: NodeId) -> bool {
        self.departed[id.index()]
    }

    /// Kills a node's process **without warning**: all volatile state
    /// (`A_i`, `H_i`, blacklist, and any unsynced storage tail) is lost and
    /// the node stops generating and serving. Unlike [`Self::node_leaves`],
    /// the radio links stay up — the node is expected back.
    ///
    /// The dropped backend releases its file handles, so a durable factory
    /// can later [`Self::restart_node`] from the same directory.
    pub fn crash_node(&mut self, id: NodeId) {
        let idx = id.index();
        // Idempotent: a second crash while already down must not overwrite
        // the pre-crash chain length with the dead placeholder's (0).
        if self.crashed_chain_len[idx].is_none() {
            self.crashed_chain_len[idx] = Some(self.nodes[idx].store().len());
        }
        let neighbors = self.nodes[idx].neighbors().to_vec();
        // Replace the whole node: a crash erases every bit of volatile state.
        let mut dead = LedgerNode::new(id, neighbors, &self.cfg);
        dead.set_behavior(Behavior::Unresponsive);
        self.nodes[idx] = dead;
        self.departed[idx] = true;
        self.log(EventKind::Membership, || format!("{id} crashed"));
    }

    /// Restarts a crashed node from its durable storage: the factory reopens
    /// the node's backend (recovering the synced chain prefix), and the node
    /// resumes generating from the recovered sequence number. Volatile state
    /// starts empty, exactly as a real process restart would.
    ///
    /// # Errors
    ///
    /// Propagates the factory's [`TldagError`] when recovery fails, and
    /// refuses to restart a node that was not taken down by
    /// [`Self::crash_node`] or whose backend recovered fewer blocks than the
    /// chain had at crash time; the node stays down in all error cases.
    pub fn restart_node(&mut self, id: NodeId) -> Result<usize, TldagError> {
        let idx = id.index();
        let Some(expected) = self.crashed_chain_len[idx] else {
            return Err(TldagError::Storage(format!(
                "{id} was not crashed via crash_node; nothing to restart"
            )));
        };
        let backend = self.factory.reopen(id)?;
        let recovered = backend.len();
        if recovered < expected {
            // Re-generating already-broadcast sequence numbers would put
            // two distinct blocks behind one BlockId; refuse instead of
            // silently forking (volatile backends always land here).
            return Err(TldagError::Storage(format!(
                "{id} recovered {recovered} of {expected} blocks; \
restarting would fork its chain"
            )));
        }
        self.crashed_chain_len[idx] = None;
        let neighbors = self.topology.neighbors(id).to_vec();
        let mut node = LedgerNode::with_backend(id, neighbors, &self.cfg, backend);
        node.restore_trust_cache(TrustCache::member_of(&self.trust_arena));
        self.nodes[idx] = node;
        self.departed[idx] = false;
        // Warm restart: the persisted `H_i` rejoins the shared arena, in the
        // order it was decoded, so TPS resumes from the pre-crash trust
        // state instead of re-verifying paths from scratch.
        let mut warm_headers = 0usize;
        if self.persist_trust_cache {
            if let Some(cache) = self.factory.load_trust_cache(id)? {
                warm_headers = cache.len();
                self.commit_trust(vec![(id, cache.to_fresh())]);
            }
            self.trust_saved_len[idx] = warm_headers;
        }
        self.log(EventKind::Membership, || {
            format!(
                "{id} restarted with {recovered} recovered blocks, \
{warm_headers} trusted headers"
            )
        });
        Ok(recovered)
    }

    /// Runs one PoP verification from `validator` on `target`.
    ///
    /// With `commit = true` (the normal protocol), the validator's trust
    /// cache and blacklist are updated and traffic is accounted. With
    /// `commit = false` the run is a measurement probe: state and accounting
    /// are untouched (used by the Fig. 9 failure-probability sweeps), and
    /// the headers it verified are dropped. Either way the returned report's
    /// [`PopReport::trusted`] is empty.
    pub fn run_pop(&mut self, validator: NodeId, target: BlockId, commit: bool) -> PopReport {
        let vid = validator.index();
        let mut blacklist = if commit {
            self.nodes[vid].take_blacklist(&self.cfg)
        } else {
            self.nodes[vid].blacklist().clone()
        };
        let mut pop_rng = DetRng::seed_from(self.rng.next_u64());

        let mut report = execute_pop(
            &self.cfg,
            &self.topology,
            &self.nodes,
            self.routes.as_deref(),
            &mut self.accounting,
            &mut self.links,
            validator,
            target,
            commit,
            self.nodes[vid].trust_cache(),
            &mut blacklist,
            &mut pop_rng,
        );

        let trusted = std::mem::take(&mut report.trusted);
        if commit {
            self.nodes[vid].restore_blacklist(blacklist);
            self.commit_trust(vec![(validator, trusted)]);
        }
        report
    }

    /// A digest committing to node `id`'s whole chain ([`chain_digest_of`]).
    /// Two runs that produce the same chain digest for every node produced
    /// byte-identical chains — the check behind the thread-count
    /// determinism guarantee.
    pub fn chain_digest(&self, id: NodeId) -> Digest {
        chain_digest_of(self.nodes[id.index()].store())
    }

    /// A digest committing to every node's chain, in node order
    /// ([`network_digest_of`]).
    pub fn network_digest(&self) -> Digest {
        let chains: Vec<Digest> = self
            .topology
            .node_ids()
            .map(|id| self.chain_digest(id))
            .collect();
        network_digest_of(&chains)
    }
}

/// `sha256` over a chain's header digests in sequence order: the chain
/// digest of the engine ([`TldagNetwork::chain_digest`]) and of a deployed
/// node, which computes it from its own store.
pub fn chain_digest_of(store: &dyn BlockBackend) -> Digest {
    let mut bytes = Vec::new();
    for block in store.iter() {
        bytes.extend_from_slice(block.header_digest().as_bytes());
    }
    sha256(&bytes)
}

/// Combines per-node chain digests (in node order) into the network
/// digest, the quantity wire/engine parity is asserted on.
pub fn network_digest_of(chain_digests: &[Digest]) -> Digest {
    let mut bytes = Vec::with_capacity(chain_digests.len() * 32);
    for d in chain_digests {
        bytes.extend_from_slice(d.as_bytes());
    }
    sha256(&bytes)
}

/// The verification targets of one slot: per owner, the seq range of its
/// qualifying blocks, in owner order. Owner `i`'s range is node `i`'s
/// retained blocks generated at or before the workload's cut-off, or empty
/// when the node has departed. Built once a slot from one
/// [`BlockBackend::generated_through`] lookup per node, and shared by all
/// of the slot's validators, each of which draws from it with its own
/// stream and steps over its own blocks.
///
/// Listing every range's blocks in owner order, then in seq order, gives
/// the list a scan of every chain would build; [`Self::choose`] returns the
/// block that one `rng.choose` over that list without the validator's own
/// blocks returns, after the same single draw.
#[derive(Clone, Debug, Default)]
pub struct TargetPool {
    /// Per owner, `(first seq, blocks of all earlier owners)`.
    owners: Vec<(u32, usize)>,
    /// Blocks of all owners.
    len: usize,
}

impl TargetPool {
    /// The pool at slot `now`: every live node's blocks that `verification`
    /// admits. `departed[i]` marks node `i` as gone.
    pub fn new(
        nodes: &[LedgerNode],
        departed: &[bool],
        verification: VerificationWorkload,
        now: Slot,
    ) -> Self {
        // With no cut-off nothing qualifies, and no store is asked.
        let Some(cut_off) = verification.latest_target_slot(now) else {
            return Self::default();
        };
        Self::from_ranges(nodes.iter().map(|node| {
            if departed[node.id().index()] {
                0..0
            } else {
                node.store().generated_through(cut_off)
            }
        }))
    }

    /// The pool whose owner `i` holds the blocks with seqs `ranges[i]`.
    pub fn from_ranges(ranges: impl IntoIterator<Item = Range<u32>>) -> Self {
        let mut pool = Self::default();
        for range in ranges {
            pool.owners.push((range.start, pool.len));
            pool.len += range.len();
        }
        pool
    }

    /// Owner `i`'s blocks: where they start in the pool's order, and how
    /// many. An id past the last owner has none, placed after everything.
    fn span(&self, owner: usize) -> (usize, usize) {
        match self.owners.get(owner) {
            Some(&(_, before)) => {
                let after = self.owners.get(owner + 1).map_or(self.len, |o| o.1);
                (before, after - before)
            }
            None => (self.len, 0),
        }
    }

    /// A uniformly random qualifying block owned by another live node: one
    /// `rng.index` draw over the pool without `validator`'s blocks, none
    /// (and no draw) when that leaves nothing.
    pub fn choose(&self, validator: NodeId, rng: &mut DetRng) -> Option<BlockId> {
        let (own_start, own_len) = self.span(validator.index());
        let others = self.len - own_len;
        if others == 0 {
            return None;
        }
        let mut pick = rng.index(others);
        if pick >= own_start {
            pick += own_len;
        }
        // The last owner starting at or before `pick`: owners with no blocks
        // share their start with the next one, so they are never it.
        let owner = self.owners.partition_point(|&(_, before)| before <= pick) - 1;
        let (first_seq, before) = self.owners[owner];
        Some(BlockId::new(
            NodeId(owner as u32),
            first_seq + (pick - before) as u32,
        ))
    }
}

/// Runs one PoP verification with every dependency passed explicitly, so
/// both the sequential API and the parallel verify phase share one
/// implementation. The validator's own state arrives via `trust_cache`,
/// which the run only reads, and `blacklist`; `nodes` is only ever read.
#[allow(clippy::too_many_arguments)]
fn execute_pop(
    cfg: &ProtocolConfig,
    topology: &Topology,
    nodes: &[LedgerNode],
    routes: Option<&[Vec<Option<NodeId>>]>,
    accounting: &mut Accounting,
    links: &mut LinkFaults,
    validator: NodeId,
    target: BlockId,
    meter: bool,
    trust_cache: &TrustCache,
    blacklist: &mut Blacklist,
    pop_rng: &mut DetRng,
) -> PopReport {
    let mut transport = SimTransport {
        cfg,
        nodes,
        accounting,
        routes,
        links,
        meter,
    };
    let mut v = Validator::new(
        cfg,
        topology,
        validator,
        nodes[validator.index()].store(),
        trust_cache,
        blacklist,
        pop_rng,
    );
    v.run(target, &mut transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::LogicalDag;
    use crate::store::{BlockBackend, BlockStore};
    use crate::DataBlock;
    use tldag_sim::topology::TopologyConfig;

    fn small_net(seed: u64, nodes: usize, gamma: usize) -> TldagNetwork {
        let mut rng = DetRng::seed_from(seed);
        let topo = Topology::random_connected(&TopologyConfig::small(nodes), &mut rng);
        let cfg = ProtocolConfig::test_default().with_gamma(gamma);
        let schedule = GenerationSchedule::uniform(topo.len());
        TldagNetwork::new(cfg, topo, schedule, seed)
    }

    #[test]
    fn every_node_generates_each_slot() {
        let mut net = small_net(1, 10, 2);
        let summary = net.step();
        assert_eq!(summary.blocks_generated, 10);
        assert_eq!(net.total_blocks(), 10);
        for id in net.topology().node_ids() {
            assert_eq!(net.node(id).chain_len(), 1);
        }
    }

    #[test]
    fn digests_flow_to_neighbors() {
        let mut net = small_net(2, 10, 2);
        net.step();
        net.step();
        // After two slots, every node's latest block should reference at
        // least one neighbor digest (plus its own previous block).
        for id in net.topology().node_ids() {
            let latest = net.node(id).store().latest().unwrap();
            assert!(
                latest.header.digest_entries() >= 2,
                "node {id} entries = {}",
                latest.header.digest_entries()
            );
        }
    }

    #[test]
    fn dag_construction_traffic_accounted() {
        let mut net = small_net(3, 10, 2);
        net.step();
        let total = net
            .accounting()
            .network_total(TrafficClass::DagConstruction);
        // Every edge carries one digest each way per slot (all generate).
        let edges = net.topology().edge_count() as u64;
        let per_msg = net.config().digest_message_bits().bits();
        assert_eq!(total.bits(), edges * 2 * per_msg * 2);
        // (×2 endpoints ×2 directions: tx+rx counted per node.)
    }

    #[test]
    fn pop_succeeds_on_old_blocks_in_honest_network() {
        let mut net = small_net(4, 8, 2);
        net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 4 });
        for _ in 0..10 {
            net.step();
        }
        let (attempts, successes) = net.pop_counters();
        assert!(attempts > 0, "verification workload must trigger");
        assert_eq!(attempts, successes, "honest network never fails PoP");
        // Consensus traffic exists once PoPs start.
        assert!(
            net.accounting()
                .network_total(TrafficClass::Consensus)
                .bits()
                > 0
        );
    }

    #[test]
    fn logical_dag_stays_acyclic_through_simulation() {
        let mut net = small_net(5, 8, 2);
        net.run_slots(6);
        let dag = LogicalDag::build(net.nodes());
        assert!(dag.is_acyclic());
        assert!(dag.edges_respect_time());
        assert_eq!(dag.block_count(), net.total_blocks());
    }

    /// Every node's `H_i` as the digests it trusts, in its order.
    fn member_sets(net: &TldagNetwork) -> Vec<Vec<Digest>> {
        let sets = net.nodes().iter().map(|node| node.trust_cache().iter());
        sets.map(|set| set.map(|(digest, _)| *digest).collect())
            .collect()
    }

    #[test]
    fn probe_does_not_change_state_or_accounting() {
        let mut net = small_net(6, 8, 2);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(6);
        // A committed audit by another validator puts headers in the arena
        // that node 0 does not trust.
        let audited = net.node(NodeId(2)).store().get(1).unwrap().id;
        assert!(net.run_pop(NodeId(5), audited, true).is_success());
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        let before_bits = net
            .accounting()
            .network_total(TrafficClass::Consensus)
            .bits();
        let before_cache = net.node(NodeId(0)).trust_cache().len();
        let (before_arena, before_sets) = (net.trust_arena().len(), member_sets(&net));
        assert!(before_arena > 0);

        let report = net.run_pop(NodeId(0), target, false);
        assert!(report.is_success());
        assert!(report.trusted.is_empty(), "a probe drops what it verified");
        assert_eq!(
            net.trust_arena().len(),
            before_arena,
            "the arena is untouched"
        );
        assert_eq!(
            member_sets(&net),
            before_sets,
            "every member set is untouched"
        );
        for node in net.nodes() {
            assert!(node.trust_cache().is_member_of(&net.trust_arena));
        }

        assert_eq!(
            net.accounting()
                .network_total(TrafficClass::Consensus)
                .bits(),
            before_bits,
            "probe must not meter traffic"
        );
        assert_eq!(net.node(NodeId(0)).trust_cache().len(), before_cache);
    }

    #[test]
    fn committed_pop_populates_trust_cache() {
        let mut net = small_net(7, 8, 2);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(6);
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, true);
        assert!(report.is_success());
        assert!(
            net.node(NodeId(0)).trust_cache().len() >= report.path.len(),
            "all path headers cached"
        );
    }

    #[test]
    fn pop_path_is_valid_dag_path() {
        let mut net = small_net(8, 8, 3);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(8);
        let target = net.node(NodeId(2)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(report.is_success());
        assert!(report.distinct_nodes >= net.config().consensus_threshold());

        let dag = LogicalDag::build(net.nodes());
        let digests: Vec<_> = report.path.iter().map(|s| s.digest).collect();
        assert!(dag.is_valid_path(&digests), "PoP path must be a DAG path");
        // First step is the target block.
        assert_eq!(report.path[0].block_id, target);
    }

    #[test]
    fn unresponsive_verifier_fails_with_block_unavailable() {
        let mut net = small_net(9, 8, 2);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(4);
        net.set_behavior(NodeId(1), Behavior::Unresponsive);
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(!report.is_success());
        assert!(matches!(
            report.outcome,
            Err(crate::error::PopError::BlockUnavailable { .. })
        ));
    }

    #[test]
    fn corrupt_store_detected_at_fetch() {
        let mut net = small_net(10, 8, 2);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(4);
        net.set_behavior(NodeId(1), Behavior::CorruptStore);
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(matches!(
            report.outcome,
            Err(crate::error::PopError::InvalidBlock { .. })
        ));
    }

    #[test]
    fn pop_routes_around_malicious_responders() {
        // Enough honest nodes remain for γ+1 = 3 distinct path nodes even
        // with some unresponsive nodes in the mix.
        let mut net = small_net(11, 12, 2);
        net.set_verification_workload(VerificationWorkload::Disabled);
        net.run_slots(8);
        // Mark two nodes malicious (not the verifier n1).
        net.set_behavior(NodeId(3), Behavior::Unresponsive);
        net.set_behavior(NodeId(4), Behavior::CorruptReply);
        let target = net.node(NodeId(1)).store().get(0).unwrap().id;
        let report = net.run_pop(NodeId(0), target, false);
        assert!(
            report.is_success(),
            "PoP should route around malicious nodes: {:?}",
            report.outcome
        );
        for step in &report.path {
            assert_ne!(step.owner, NodeId(3), "unresponsive node cannot vouch");
        }
    }

    #[test]
    fn memory_backed_restart_refuses_to_fork_chain() {
        let mut net = small_net(12, 8, 2);
        net.run_slots(3);
        net.crash_node(NodeId(2));
        assert!(net.has_departed(NodeId(2)));
        // The memory factory recovers nothing; restarting would regenerate
        // sequence numbers already referenced by neighbors.
        let err = net.restart_node(NodeId(2)).unwrap_err();
        assert!(
            err.to_string().contains("fork"),
            "refusal must explain itself: {err}"
        );
        assert!(net.has_departed(NodeId(2)), "node stays down after refusal");
    }

    #[test]
    fn crash_before_generation_restarts_cleanly() {
        let mut net = small_net(13, 8, 2);
        // No slots run: nothing generated, nothing to lose.
        net.crash_node(NodeId(1));
        let recovered = net.restart_node(NodeId(1)).unwrap();
        assert_eq!(recovered, 0);
        assert!(!net.has_departed(NodeId(1)));
        net.run_slots(2);
        assert_eq!(net.node(NodeId(1)).chain_len(), 2);
    }

    #[test]
    fn double_crash_keeps_fork_guard_armed() {
        let mut net = small_net(14, 8, 2);
        net.run_slots(3);
        net.crash_node(NodeId(2));
        net.crash_node(NodeId(2)); // placeholder store has len 0 — must not re-arm at 0
        let err = net.restart_node(NodeId(2)).unwrap_err();
        assert!(err.to_string().contains("fork"), "guard bypassed: {err}");
    }

    #[test]
    fn restart_without_crash_is_refused() {
        let mut net = small_net(15, 8, 2);
        net.run_slots(2);
        // Never crashed — restarting would regenerate live sequence numbers.
        let err = net.restart_node(NodeId(1)).unwrap_err();
        assert!(err.to_string().contains("not crashed"), "{err}");
        // A node that *left* is not a crash either.
        net.node_leaves(NodeId(3));
        let err = net.restart_node(NodeId(3)).unwrap_err();
        assert!(err.to_string().contains("not crashed"), "{err}");
    }

    /// The scan `TargetPool` replaced, one full pass per validator: the
    /// reference for which block is chosen and how much of the stream is used.
    fn choose_target_reference(
        nodes: &[LedgerNode],
        departed: &[bool],
        verification: VerificationWorkload,
        now: Slot,
        validator: NodeId,
        rng: &mut DetRng,
    ) -> Option<BlockId> {
        if matches!(verification, VerificationWorkload::Disabled) {
            return None;
        }
        let mut candidates: Vec<BlockId> = Vec::new();
        for node in nodes {
            if node.id() == validator || departed[node.id().index()] {
                continue;
            }
            for (id, time) in node.store().iter_meta() {
                if verification.qualifies(time, now) {
                    candidates.push(id);
                }
            }
        }
        rng.choose(&candidates).copied()
    }

    #[test]
    fn target_pool_matches_the_per_validator_scan() {
        let workloads = [
            VerificationWorkload::RandomPast { min_age_slots: 3 },
            VerificationWorkload::RandomPast { min_age_slots: 40 }, // nothing qualifies
            VerificationWorkload::FirstEra { era_slots: 2 },
            VerificationWorkload::Disabled,
        ];
        let mut chosen = 0;
        for seed in 0..12u64 {
            let mut net = small_net(100 + seed, 6 + (seed as usize % 5), 2);
            net.set_verification_workload(VerificationWorkload::Disabled);
            net.run_slots(4);
            // Two owners leave with blocks in their chains, one node joins
            // and stays empty-chained: validators of every kind below.
            net.node_leaves(NodeId((seed % 5) as u32));
            net.run_slots(3);
            net.node_leaves(NodeId(5));
            let spot = net.topology().position(NodeId(1));
            let joiner = net.node_joins(spot, 50.0, 1);
            assert_eq!(net.node(joiner).chain_len(), 0);

            let now = net.slot();
            for workload in workloads {
                let pool = TargetPool::new(&net.nodes, &net.departed, workload, now);
                // One id past the last node: a validator that owns nothing.
                for validator in (0..=net.nodes.len() as u32).map(NodeId) {
                    let mut ref_rng = derived_rng(seed, stream::TARGET, now, validator);
                    let mut pool_rng = ref_rng.clone();
                    let expect = choose_target_reference(
                        &net.nodes,
                        &net.departed,
                        workload,
                        now,
                        validator,
                        &mut ref_rng,
                    );
                    let got = pool.choose(validator, &mut pool_rng);
                    assert_eq!(got, expect, "seed {seed} {workload:?} {validator}");
                    chosen += usize::from(got.is_some());
                    assert_eq!(
                        pool_rng.next_u64(),
                        ref_rng.next_u64(),
                        "stream position, seed {seed} {workload:?} {validator}"
                    );
                }
            }
        }
        assert!(
            chosen > 100,
            "the comparison must see real choices: {chosen}"
        );
    }

    /// Every `sync()` the backends of one network received, in call order:
    /// which node's store, and on which thread.
    type SyncLog = Arc<std::sync::Mutex<Vec<(NodeId, std::thread::ThreadId)>>>;

    /// How a test store misbehaves.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fault {
        /// Every `sync` fails.
        Sync,
        /// The third `append` and every later one fail.
        Append,
        /// The third `append` panics.
        PanicOnAppend,
    }

    /// A memory chain with a durability watermark that only `sync` moves.
    #[derive(Debug)]
    struct CountingBackend {
        node: NodeId,
        chain: BlockStore,
        /// Length at the last successful sync; `None` for a store that
        /// never stages (it reports `len()`, as volatile backends do).
        durable: Option<usize>,
        fault: Option<Fault>,
        log: SyncLog,
    }

    impl BlockBackend for CountingBackend {
        fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
            if self.chain.len() >= 2 {
                match self.fault {
                    Some(Fault::Append) => {
                        return Err(TldagError::Storage(format!("{} cannot append", self.node)))
                    }
                    Some(Fault::PanicOnAppend) => panic!("{} append panicked", self.node),
                    _ => {}
                }
            }
            self.chain.append(block)
        }
        fn len(&self) -> usize {
            self.chain.len()
        }
        fn get(&self, seq: u32) -> Option<DataBlock> {
            self.chain.get(seq)
        }
        fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
            self.chain.by_header_digest(digest)
        }
        fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
            self.chain.oldest_child_of(target)
        }
        fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
            self.chain.children_of(target)
        }
        fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
            self.chain.iter()
        }
        fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
            self.chain.logical_bits(cfg)
        }
        fn resident_bytes(&self) -> usize {
            self.chain.resident_bytes()
        }
        fn sync(&mut self) -> Result<(), TldagError> {
            let here = std::thread::current().id();
            self.log.lock().unwrap().push((self.node, here));
            if self.fault == Some(Fault::Sync) {
                return Err(TldagError::Storage(format!("{} cannot sync", self.node)));
            }
            if let Some(durable) = &mut self.durable {
                *durable = self.chain.len();
            }
            Ok(())
        }
        fn durable_len(&self) -> usize {
            self.durable.unwrap_or(self.chain.len())
        }
    }

    #[derive(Debug)]
    struct CountingFactory {
        /// Whether a node's store stages its appends until `sync`.
        stages: fn(NodeId) -> bool,
        faults: Vec<(u32, Fault)>,
        log: SyncLog,
    }

    impl BackendFactory for CountingFactory {
        fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
            Box::new(CountingBackend {
                node,
                chain: BlockStore::new(),
                durable: (self.stages)(node).then_some(0),
                fault: self
                    .faults
                    .iter()
                    .find(|&&(id, _)| id == node.0)
                    .map(|&(_, fault)| fault),
                log: Arc::clone(&self.log),
            })
        }
        fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
            Ok(self.create(node))
        }
    }

    fn counting_net(
        nodes: usize,
        stages: fn(NodeId) -> bool,
        faults: &[(u32, Fault)],
    ) -> (TldagNetwork, SyncLog) {
        let mut rng = DetRng::seed_from(21);
        let topo = Topology::random_connected(&TopologyConfig::small(nodes), &mut rng);
        let schedule = GenerationSchedule::uniform(topo.len());
        let log = SyncLog::default();
        let factory = CountingFactory {
            stages,
            faults: faults.to_vec(),
            log: Arc::clone(&log),
        };
        let cfg = ProtocolConfig::test_default().with_gamma(2);
        let net = TldagNetwork::with_factory(cfg, topo, schedule, 21, Box::new(factory));
        (net, log)
    }

    /// `(len, durable_len)` of every store, in node order.
    fn watermarks(net: &TldagNetwork) -> Vec<(usize, usize)> {
        let marks = |n: &LedgerNode| (n.store().len(), n.store().durable_len());
        net.nodes().iter().map(marks).collect()
    }

    #[test]
    fn commit_point_stays_on_the_calling_thread_with_at_most_one_staged_store() {
        let here = std::thread::current().id();
        let cases: [fn(NodeId) -> bool; 2] = [|_| false, |id| id == NodeId(3)];
        for stages in cases {
            let (mut net, log) = counting_net(12, stages, &[]);
            net.set_sharding(Sharding::threads(4));
            net.run_slots(3);
            net.sync_storage().unwrap();
            let log = log.lock().unwrap();
            assert_eq!(log.len(), 12 * 4, "every store is still synced each time");
            assert!(log.iter().all(|&(_, thread)| thread == here));
            assert_eq!(watermarks(&net), vec![(3, 3); 12]);
        }
    }

    #[test]
    fn commit_point_syncs_every_staged_store_once_off_thread() {
        let here = std::thread::current().id();
        let syncs_of = |log: &SyncLog, id: u32| {
            let log = log.lock().unwrap();
            log.iter().filter(|(node, _)| node.0 == id).count()
        };

        let (mut net, log) = counting_net(12, |_| true, &[]);
        for slot in 1..=4 {
            net.try_step().unwrap();
            assert_eq!(watermarks(&net), vec![(slot, slot); 12], "slot {slot}");
            for id in 0..12 {
                assert_eq!(syncs_of(&log, id), slot, "n{id} after slot {slot}");
            }
        }
        // Twelve staged stores: the fan-out ran, and never on this thread.
        assert!(log.lock().unwrap().iter().all(|&(_, t)| t != here));

        let (mut net, log) = counting_net(12, |_| true, &[]);
        net.set_sync_policy(SyncPolicy::Grouped(3));
        for (slot, durable) in [(1, 0), (2, 0), (3, 3), (4, 3), (5, 3)] {
            net.try_step().unwrap();
            assert_eq!(watermarks(&net), vec![(slot, durable); 12], "slot {slot}");
        }
        net.sync_storage().unwrap();
        assert_eq!(watermarks(&net), vec![(5, 5); 12]);
        for id in 0..12 {
            assert_eq!(syncs_of(&log, id), 2, "one group boundary, one flush");
        }
    }

    #[test]
    fn commit_point_error_is_the_lowest_failing_node_at_every_thread_count() {
        let outcome = |threads: usize| {
            let (mut net, _log) =
                counting_net(40, |_| true, &[(7, Fault::Sync), (31, Fault::Sync)]);
            net.set_sharding(Sharding::threads(threads));
            let err = net.try_step().unwrap_err();
            assert_eq!(err, TldagError::Storage("n7 cannot sync".into()));
            watermarks(&net)
        };
        let single = outcome(1);
        // Eight chunks of five: n7's chunk is 5..10 and n31's is 30..35.
        // Each stops at its failing store; every other chunk is durable.
        for (id, &(len, durable)) in single.iter().enumerate() {
            let lost = (7..10).contains(&id) || (31..35).contains(&id);
            assert_eq!((len, durable), (1, usize::from(!lost)), "n{id}");
        }
        assert_eq!(outcome(4), single);
    }

    #[test]
    fn generation_error_is_the_lowest_failing_node_at_every_thread_count() {
        let outcome = |threads: usize| {
            let (mut net, _log) =
                counting_net(40, |_| true, &[(31, Fault::Append), (7, Fault::Append)]);
            net.set_sharding(Sharding::threads(threads));
            net.run_slots(2);
            let err = net.try_step().unwrap_err();
            assert_eq!(err, TldagError::Storage("n7 cannot append".into()));
            assert_eq!(net.slot(), 2, "a failed slot does not advance");
            let chains: Vec<_> = net
                .topology()
                .node_ids()
                .map(|id| net.chain_digest(id))
                .collect();
            (watermarks(&net), chains)
        };
        let single = outcome(1);
        // Every node but the two failing ones appended its third block; the
        // failed slot committed nothing.
        for (id, &(len, durable)) in single.0.iter().enumerate() {
            let expect = if id == 7 || id == 31 { 2 } else { 3 };
            assert_eq!((len, durable), (expect, 2), "n{id}");
        }
        for threads in [2, 3, 8] {
            assert_eq!(outcome(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn a_panic_on_any_slot_thread_reaches_the_caller() {
        let (mut net, _log) = counting_net(12, |_| true, &[(5, Fault::PanicOnAppend)]);
        net.set_sharding(Sharding::threads(2));
        net.run_slots(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| net.try_step()));
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(message, "n5 append panicked");
        assert_eq!(net.pool.workers.len(), 1, "the pool was in use");
        assert_eq!(net.nodes().len(), 12, "the node array is back in place");

        // Dropping a network joins its idle workers at once.
        let started = Instant::now();
        drop(net);
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn a_panicking_worker_is_reported_and_stays_usable() {
        fn on_worker() -> bool {
            thread::current()
                .name()
                .is_some_and(|name| name.starts_with("tldag-slot-"))
        }
        let mut pool = SlotPool::default();
        let (job, outs) = pool.run(3, 7u32, |&job| {
            assert!(!on_worker(), "only the calling thread may finish");
            job
        });
        assert_eq!(job, 7);
        let payload = outs.expect_err("two workers panicked");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"only the calling thread may finish")
        );
        assert_eq!(pool.workers.len(), 2);
        // The same workers take the next job.
        let (_, outs) = pool.run(3, (), |_| on_worker());
        let mut outs = outs.expect("no participant panics");
        outs.sort_unstable();
        assert_eq!(outs, [false, true, true]);
        assert_eq!(pool.workers.len(), 2);
    }

    #[test]
    fn a_small_network_never_starts_a_worker() {
        // The wire runtime's reference engine: four nodes, PoP on.
        let mut net = small_net(16, 4, 1);
        net.set_sharding(Sharding::threads(8));
        net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 2 });
        net.run_slots(6);
        assert!(net.pop_counters().0 > 0, "the verify phase ran");
        assert!(net.pool.workers.is_empty());
        // Eight nodes at two per thread fan out to two threads.
        let mut net = small_net(16, 8, 1);
        net.set_sharding(Sharding::threads(8));
        net.step();
        assert_eq!(net.pool.workers.len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net = small_net(seed, 8, 2);
            net.run_slots(8);
            (
                net.total_blocks(),
                net.accounting()
                    .network_total(TrafficClass::Consensus)
                    .bits(),
                net.pop_counters(),
            )
        };
        assert_eq!(run(42), run(42));
    }
}
