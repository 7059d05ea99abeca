//! The peer runtime: a full 2LDAG node over a real UDP socket.
//!
//! [`NetNode`] is the deployment form of one `LedgerNode`: an [`Endpoint`]
//! plus an inbound dispatcher thread that serves the Sec. IV-C responder
//! role (`REQ_CHILD` / `FetchBlock`, with the cooperative `Nack` /
//! `PrunedNack` answers), and a slot loop that generates blocks, gossips
//! slot-tagged digests, and optionally runs the PoP verification workload
//! as a validator — over the wire, with timeout/retry loss recovery.
//!
//! ## Digest parity with the in-memory engine
//!
//! The slotted protocol is synchronous: a block generated at slot `t`
//! references the freshest digest each neighbor broadcast at `t-1`. The
//! runtime reproduces that over an asynchronous datagram network with a
//! **digest barrier**: before generating at slot `t`, the node waits until
//! it holds a `Control::SlotDigest` for slot `t-1` from every neighbor,
//! pulling stragglers with `Control::DigestReq` (loss recovery on the
//! gossip path). All per-node randomness comes from the engine's
//! `(seed, slot, node)` derived streams, so a cluster of `NetNode`s on a
//! shared seed produces **byte-identical chains** to `TldagNetwork` on the
//! same seed — `tldag cluster` asserts exactly that.
//!
//! ## Dynamic membership
//!
//! The runtime executes the engine's `node_joins` / `node_leaves`
//! semantics over the wire (see [`crate::membership`]):
//!
//! * **Join**: a `--join` process handshakes with any bootstrap peer
//!   (`Control::JoinReq` → `Control::JoinAck` + roster transfer),
//!   announces itself (`Control::JoinAnnounce`, re-gossiped by every
//!   peer that learns something new), and starts generating at its join
//!   slot with an empty chain — its state catch-up rides the existing
//!   pull-based `DigestReq` recovery path, so a joiner needs no bulk
//!   transfer to participate.
//! * **Leave**: a node whose schedule ends at slot `m` generates its last
//!   block at `m - 1`, broadcasts `Control::Leave`, and keeps *serving*
//!   until the run winds down (its historical blocks stay fetchable,
//!   matching the engine's "blocks stay referenced" semantics while the
//!   process is alive; once it exits, PoP reports `BlockUnavailable`,
//!   also matching).
//! * **Eviction**: a peer that blocks a barrier and has gone silent
//!   longer than the configured eviction window is treated as having left
//!   at the blocked slot; the eviction is gossiped so the cluster
//!   converges. Evictions always mark the run degraded — the reference
//!   engine did not schedule them.
//!
//! Membership deltas apply at **slot boundaries**, leaves before joins —
//! the canonical order every process (and the reference engine replay in
//! the harness) uses, which keeps the digest barrier correct when the
//! roster changes mid-run.

use crate::control::{Control, RunReport, WireMember};
use crate::endpoint::{Endpoint, EndpointConfig, Inbound, Ticket};
use crate::envelope::TraceContext;
use crate::membership::{join_site, ChurnEvent, Roster};
use crate::metrics::{NetMetrics, NetStats};
use crate::telemetry::{render_metrics, MetricsView, NodeTelemetry, JOURNAL_CAPACITY};
use crate::transport::{FaultSpec, FaultyTransport, UdpTransport};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::blacklist::Blacklist;
use tldag_core::block::BlockId;
use tldag_core::codec::WireMessage;
use tldag_core::config::ProtocolConfig;
pub(crate) use tldag_core::network::chain_digest_of;
pub use tldag_core::network::network_digest_of;
use tldag_core::network::{derived_rng, stream, TargetPool};
use tldag_core::node::LedgerNode;
use tldag_core::pop::messages::{Reply, Request};
use tldag_core::pop::validator::{PopContext, PopReport, PopWalk, Step};
use tldag_core::store::{BlockBackend, BlockStore, TrustCache};
use tldag_core::workload::sensor_payload;
use tldag_crypto::Digest;
use tldag_obs::{
    trace_json, unix_micros, EventKind, HttpServer, Phase, Routes, SpanEvent, SpanKind, SpanStore,
    DEFAULT_SPAN_CAPACITY,
};
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DiskFactory, StorageOptions};

mod adversary;
mod dispatch;
mod membership;
mod pop;
mod slot_loop;

use dispatch::dispatch;
pub(crate) use pop::wire_target_pool;
pub use pop::{ask_over_wire, serve_wire_request};

/// Configuration of one deployed node.
#[derive(Clone, Debug)]
pub struct NetNodeConfig {
    /// This node's id within the deployment topology.
    pub id: NodeId,
    /// Address to bind the UDP socket on.
    pub(crate) listen: SocketAddr,
    /// Static bootstrap peer list (every founder of the deployment; empty
    /// for a `--join` process, which learns peers from the handshake).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Harness controller to report to, if any.
    pub(crate) controller: Option<SocketAddr>,
    /// Shared experiment seed; also determines the topology.
    pub(crate) seed: u64,
    /// Founding nodes in the deployment (initial topology size).
    pub(crate) nodes: usize,
    /// Deployment area side in meters (topology parameter).
    pub side_m: f64,
    /// Consensus path-length parameter γ.
    pub gamma: usize,
    /// Protocol horizon: founders execute slots `0..slots`.
    pub slots: u64,
    /// Whether to run the PoP verification workload as a validator.
    pub pop: bool,
    /// Epoch window `W`: how many slots generation may run ahead of the
    /// roster-wide completion low-watermark. `1` is lockstep (each slot
    /// fully verified everywhere before the next generation; the verify
    /// step runs inline on the generation thread); `W ≥ 2` pipelines
    /// generation against a background verify worker. Only meaningful
    /// with `pop` (without verification the slot loop's only cross-node
    /// dependency is the neighbor digest, which no window can relax).
    /// Every process of a deployment must use the same value.
    pub window: u64,
    /// Where the node keeps its chain `S_i`: a durable block log in
    /// `<dir>/node-<id>/`, or in memory when `None`.
    pub storage: Option<PathBuf>,
    /// Transport tuning.
    pub endpoint: EndpointConfig,
    /// Give-up deadline for the per-slot digest barrier.
    pub slot_timeout: Duration,
    /// Give-up deadline for the startup hello exchange / join handshake.
    pub hello_timeout: Duration,
    /// How long a controller-less node keeps serving after its last slot.
    pub linger: Duration,
    /// Scheduled churn (`--churn`): shared by every process of a parity
    /// run, and the one place a node's own join and leave slots are set (a
    /// node whose own `Leave` is at slot `m` generates its last block at
    /// `m - 1`).
    pub churn: Vec<ChurnEvent>,
    /// Bootstrap peer for a dynamic join: when set, this node is a late
    /// joiner and `peers` may be empty. Its first generation slot is its
    /// own `Join` in `churn`, or else picked from the handshake (the
    /// bootstrap's slot plus a margin).
    pub join: Option<SocketAddr>,
    /// Evict a barrier-blocking peer after this much silence. `None`
    /// disables liveness eviction (the default for parity runs).
    pub evict_after: Option<Duration>,
    /// Datagram fault injection on this node's transport (experiments).
    pub fault: Option<FaultSpec>,
    /// Hard wall-clock cap on the whole process: a watchdog thread exits
    /// the process (code 124) once it passes, so a wedged or orphaned
    /// node can never outlive its harness. `None` disables.
    pub(crate) deadline: Option<Duration>,
    /// Serve `GET /metrics` (Prometheus text) and `GET /journal` (JSONL)
    /// on this address while the node runs. `None` disables the listener;
    /// telemetry is recorded either way.
    pub metrics_addr: Option<SocketAddr>,
    /// Record block-lifecycle spans (generated → gossiped-out → received →
    /// verified → committed) and stamp digest gossip with a wire-level
    /// trace context, served from `GET /trace`. Tracing never changes the
    /// protocol bytes' *content* — an untraced peer decodes stamped frames
    /// identically — and a tracing-off run puts no extension bytes on
    /// the wire.
    pub trace: bool,
    /// How this node behaves once `behavior_from` is reached. Anything but
    /// [`Behavior::Honest`] makes the process a wire adversary: silent
    /// kinds stop serving, gossip attackers push conflicting digests, and
    /// the flapper goes dark until evicted, then spams rejoins. The
    /// adversary's *canonical* chain stays protocol-conformant (the engine
    /// generates for malicious nodes too), which is what keeps honest-node
    /// parity with a reference engine run under the same placement.
    pub(crate) behavior: Behavior,
    /// First slot the behaviour activates at (honest before that).
    pub(crate) behavior_from: u64,
}

impl NetNodeConfig {
    /// A config with deployment-shaped defaults; `peers` and addresses must
    /// still be filled in.
    pub fn new(id: NodeId, listen: SocketAddr, seed: u64, nodes: usize, slots: u64) -> Self {
        NetNodeConfig {
            id,
            listen,
            peers: Vec::new(),
            controller: None,
            seed,
            nodes,
            side_m: 300.0,
            gamma: 3,
            slots,
            pop: false,
            window: 1,
            storage: None,
            endpoint: EndpointConfig::default(),
            slot_timeout: Duration::from_secs(10),
            hello_timeout: Duration::from_secs(10),
            linger: Duration::from_millis(1500),
            churn: Vec::new(),
            join: None,
            evict_after: None,
            fault: None,
            deadline: None,
            metrics_addr: None,
            trace: false,
            behavior: Behavior::Honest,
            behavior_from: 0,
        }
    }

    /// The slot of this node's own scheduled join (`join`) or leave in
    /// `churn`.
    pub(crate) fn own_churn_slot(&self, join: bool) -> Option<u64> {
        self.churn.iter().find_map(|e| match *e {
            ChurnEvent::Join { id, slot } if join && id == self.id => Some(slot),
            ChurnEvent::Leave { id, slot } if !join && id == self.id => Some(slot),
            _ => None,
        })
    }
}

/// End-of-run summary of one [`NetNode`].
#[derive(Clone, Copy, Debug)]
pub struct NodeOutcome {
    /// The protocol-level summary (also what is reported to the harness).
    pub run: RunReport,
    /// Transport counters.
    pub stats: NetStats,
}

impl NodeOutcome {
    /// The run report with the endpoint's final counters (the serving
    /// linger included) as its `net`: what an in-process cluster hands
    /// [`crate::harness::judge`].
    pub fn report(&self) -> RunReport {
        RunReport {
            net: self.stats,
            ..self.run
        }
    }
}

/// The protocol configuration every deployment component derives from the
/// CLI-visible knobs — one definition shared by `tldag run`, `tldag node`,
/// `tldag cluster`, and the in-memory reference engine, so parity checks
/// compare like with like.
pub fn deployment_protocol_config(gamma: usize) -> ProtocolConfig {
    ProtocolConfig::paper_default()
        .with_body_bits(8 * 1024)
        .with_gamma(gamma)
        .with_difficulty(6)
}

/// The deployment topology for `(seed, nodes, side_m)` — identical to the
/// simulator CLI's placement, so node processes and the reference engine
/// agree on `G(V, E)` without exchanging it.
pub fn deployment_topology(seed: u64, nodes: usize, side_m: f64) -> Topology {
    let cfg = TopologyConfig {
        nodes,
        side_m,
        ..TopologyConfig::paper_default()
    };
    Topology::random_connected(&cfg, &mut DetRng::seed_from(seed))
}

/// The deployment radio range in meters (the paper's default) — the
/// parameter joins use to wire the newcomer's radio links.
pub(crate) fn deployment_range_m() -> f64 {
    TopologyConfig::paper_default().range_m
}

/// Records one lifecycle span on this node's trace ring. A no-op (modulo
/// the drop counter) when tracing is off.
fn record_span(shared: &Shared, node: u32, slot: u64, origin: u32, prefix: u64, kind: SpanKind) {
    if shared.telemetry.spans.is_enabled() {
        shared.telemetry.spans.record(SpanEvent {
            slot,
            origin,
            prefix,
            node,
            kind,
            ts_micros: unix_micros(),
        });
    }
}

/// The trace context stamped onto digest gossip for the slot-`slot` block
/// of this node (`origin`), or `None` when tracing is off (the frame then
/// carries no extension region).
fn gossip_trace_ctx(shared: &Shared, origin: u32, slot: u64, prefix: u64) -> Option<TraceContext> {
    shared.telemetry.spans.is_enabled().then(|| TraceContext {
        origin,
        slot,
        prefix,
        ts_micros: unix_micros(),
    })
}

/// How long one park on the book lasts at most before a wait looks again
/// at its clocks (pull and push periods, eviction windows, deadlines).
const PARK_QUANTUM: Duration = Duration::from_millis(25);

/// Datagrams decided under the book (with the trace context each carries),
/// sent by [`send_all`] once the book is released.
type Sends = Vec<(SocketAddr, Control, Option<TraceContext>)>;

/// Sends a fan-out of control messages in one transport call.
fn send_all(endpoint: &Endpoint, sends: Sends) {
    endpoint.send_controls(&sends);
}

/// Shared state between the slot loop and the inbound dispatcher thread.
///
/// Locks are taken in the order `topology → node → book`, and the book is
/// never held across a datagram send, a PoP walk or an fsync.
struct Shared {
    node: RwLock<LedgerNode>,
    /// The deployment graph, mutated at slot boundaries as membership
    /// changes apply (joins add radio links, leaves cut them).
    topology: RwLock<Topology>,
    /// Everything else the two threads share that changes.
    book: Mutex<Book>,
    /// Wakes the waits parked on [`Shared::book`]; notified after every
    /// change a wait may be parked on.
    changed: Condvar,
    /// The configured epoch window; the dispatcher needs it to infer
    /// completion watermarks from digests.
    window: u64,
    /// Histograms + journal, shared with the dispatcher, the metrics
    /// listener, and (via [`NetNode::telemetry`]) in-process harnesses.
    telemetry: Arc<NodeTelemetry>,
}

/// A node's mutable bookkeeping apart from its chain: one plain value
/// behind [`Shared::book`], so a wait checks it and parks under one lock.
#[derive(Default)]
struct Book {
    /// The membership book: who generates at which slot, where each
    /// member is reached, and when it was last heard.
    roster: Roster,
    /// Slot-tagged digests heard per peer (pruned as slots complete).
    digests: HashMap<NodeId, BTreeMap<u64, Digest>>,
    /// Own digest per recent slot, serving [`Control::DigestReq`] pulls
    /// (pruned past the deepest lag any live barrier can exhibit).
    own_digests: BTreeMap<u64, Digest>,
    /// Peers that acknowledged our hello (founders) or join announcement
    /// (joiners).
    hello_acks: HashSet<NodeId>,
    /// Highest slot each peer is known to have *completed* (generation and
    /// verification) — from [`Control::SlotDone`] directly, or inferred
    /// from a [`Control::SlotDigest`] (generating slot `t` implies `t-1`
    /// completed everywhere). Drives the PoP-mode phase lockstep.
    done: HashMap<NodeId, u64>,
    /// The join handshake's ack, once received: responder, its current
    /// slot, and how many roster entries to expect.
    join_ack: Option<(NodeId, u64, u32)>,
    /// Ids received via [`Control::RosterEntry`] (handshake completion).
    transfer_seen: HashSet<NodeId>,
    /// The slot the loop currently executes (served to join handshakes).
    current_slot: u64,
    /// Our own verify watermark: every slot below it has been committed
    /// locally (`commit_slot`: verified in PoP mode, gossiped otherwise).
    verified_through: u64,
    /// `request_retries` as of the last slot commit — the cursor that
    /// journals each retransmission exactly once.
    retries_journaled: u64,
    /// Generation start times of slots still in the pipeline, consumed at
    /// the slot's commit (end-to-end latency).
    slot_started: HashMap<u64, Instant>,
    /// One half of the slot loop failed mid-run: the other must wind down
    /// instead of waiting out its timeouts slot by slot.
    pipeline_abort: bool,
    /// Controller asked us to exit.
    shutdown: bool,
    /// Controller acknowledged our report.
    report_acked: bool,
    /// Traced block identities heard per slot — `(origin, prefix)` from
    /// inbound digest gossip's trace contexts — consumed at the slot's
    /// local commit point to stamp every known block of the slot with a
    /// [`SpanKind::Committed`] span. Empty when tracing is off.
    trace_keys: BTreeMap<u64, Vec<(u32, u64)>>,
    /// The resolved metrics listener address (meaningful with port 0),
    /// reported back in the [`RunReport`].
    metrics_addr: Option<SocketAddr>,
    /// Peers flagged as adversarial from wire evidence — conflicting
    /// `SlotDigest` pairs or rejected rejoin flaps — exported as the
    /// `tldag_adversaries_detected` gauge and named in the journal.
    suspects: HashSet<NodeId>,
    /// The PoP blacklist's banned-peer count, sampled after every PoP run
    /// (the blacklist itself travels with whoever holds the trust state)
    /// and exported as the `tldag_blacklist_banned` gauge.
    blacklist_banned: u64,
    /// Dark-mode flag for the flapping adversary: while set, the
    /// dispatcher neither serves requests nor acks control traffic, so
    /// honest peers see the silence their eviction logic keys on.
    muted: bool,
}

impl Book {
    /// The slot-`slot` digest heard from `peer`, if any.
    fn heard(&self, peer: NodeId, slot: u64) -> Option<Digest> {
        self.digests.get(&peer)?.get(&slot).copied()
    }

    /// Every member generating at `slot` other than `me`.
    fn other_generators(&self, me: NodeId, slot: u64) -> Vec<NodeId> {
        let mut generators = self.roster.generators_at(slot);
        generators.retain(|&p| p != me);
        generators
    }

    /// Raises `peer`'s highest-completed-slot watermark (monotonic).
    fn mark_done(&mut self, peer: NodeId, slot: u64) {
        let entry = self.done.entry(peer).or_insert(slot);
        *entry = (*entry).max(slot);
    }
}

impl Shared {
    fn new(node: LedgerNode, topology: Topology, roster: Roster, window: u64, trace: bool) -> Self {
        Shared {
            node: RwLock::new(node),
            topology: RwLock::new(topology),
            book: Mutex::new(Book {
                roster,
                ..Book::default()
            }),
            changed: Condvar::new(),
            window,
            telemetry: Arc::new(NodeTelemetry::with_span_capacity(
                JOURNAL_CAPACITY,
                if trace { DEFAULT_SPAN_CAPACITY } else { 0 },
            )),
        }
    }

    /// The book, for a read or a change no wait is parked on.
    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().expect("book poisoned")
    }

    /// Applies `change` to the book and wakes every wait parked on it.
    fn update<T>(&self, change: impl FnOnce(&mut Book) -> T) -> T {
        let out = change(&mut self.book());
        self.changed.notify_all();
        out
    }

    /// Parks on the book until `check` returns `Some` or `until` passes.
    /// `check` runs under the lock, and the condvar releases that lock only
    /// as it parks, so a change made after a failed check is always seen:
    /// its notify finds the wait parked, or the change lands before the
    /// next check.
    fn park<T>(&self, until: Instant, mut check: impl FnMut(&mut Book) -> Option<T>) -> Option<T> {
        let mut book = self.book();
        loop {
            let mut found = None;
            let quantum = until
                .saturating_duration_since(Instant::now())
                .min(PARK_QUANTUM);
            book = self
                .changed
                .wait_timeout_while(book, quantum, |book| {
                    found = check(book);
                    found.is_none()
                })
                .expect("book poisoned")
                .0;
            if found.is_some() || Instant::now() >= until {
                return found;
            }
        }
    }
}

/// What the verify step carries from slot to slot: the node's trust state,
/// whether a barrier of the verify half gave up, and the target fetches
/// sent ahead of their slots.
struct VerifyState {
    trust_cache: TrustCache,
    blacklist: Blacklist,
    degraded: bool,
    /// The run's end: slots from here on are never verified.
    end_slot: u64,
    /// Per slot still to verify, the target its fetch was sent for and
    /// the fetch in flight (only at `W > 1`, see `fetch_ahead`).
    fetched: BTreeMap<u64, (BlockId, Ticket)>,
}

/// A deployed 2LDAG node: endpoint + dispatcher + slot loop.
pub struct NetNode {
    config: NetNodeConfig,
    cfg: ProtocolConfig,
    endpoint: Arc<Endpoint>,
    shared: Arc<Shared>,
}

impl NetNode {
    /// Binds the node's socket and provisions its storage backend.
    ///
    /// # Errors
    ///
    /// Bind failures, a block log that cannot be opened, and inconsistent
    /// membership configuration.
    pub fn new(config: NetNodeConfig) -> Result<Self, String> {
        config.validate()?;
        let cfg = deployment_protocol_config(config.gamma);
        let topology = deployment_topology(config.seed, config.nodes, config.side_m);
        let is_joiner = config.join.is_some();

        if is_joiner {
            if config.id.index() < config.nodes {
                return Err(format!(
                    "--join is for late joiners: --id {} names a founder of the \
{}-node deployment",
                    config.id, config.nodes
                ));
            }
        } else {
            if config.id.index() >= topology.len() {
                return Err(format!(
                    "--id {} out of range for a {}-node deployment (late joiners \
need --join)",
                    config.id,
                    topology.len()
                ));
            }
            // Fail fast on an incomplete peer list: the derived topology names
            // every founder, and a missing address would otherwise surface as
            // slot-long barrier timeouts instead of a startup error.
            let missing: Vec<u32> = topology
                .node_ids()
                .filter(|&n| n != config.id && config.peers.iter().all(|(p, _)| *p != n))
                .map(|n| n.0)
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "--peers is missing addresses for nodes {missing:?} of the \
{}-node deployment",
                    topology.len()
                ));
            }
        }

        let backend: Box<dyn BlockBackend> = match &config.storage {
            None => Box::new(BlockStore::new()),
            Some(dir) => Box::new(
                DiskFactory::new(dir.clone(), StorageOptions::default())
                    .open_fresh(config.id)
                    .map_err(|e| format!("cannot open storage in {}: {e}", dir.display()))?,
            ),
        };
        // A joiner's neighbor set is wired when its join applies at the
        // join-slot boundary; founders take theirs from the topology.
        let neighbors = if is_joiner {
            Vec::new()
        } else {
            topology.neighbors(config.id).to_vec()
        };
        let node = LedgerNode::with_backend(config.id, neighbors, &cfg, backend);

        let endpoint = match config.fault {
            None => Endpoint::bind(config.id, config.listen, config.endpoint)
                .map_err(|e| format!("cannot bind {}: {e}", config.listen))?,
            Some(spec) => {
                let udp = UdpTransport::bind(config.listen)
                    .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
                let rng =
                    DetRng::seed_from(config.seed ^ 0x000f_a017 ^ (u64::from(config.id.0) << 40));
                let faults = Arc::new(FaultyTransport::new(udp, spec, rng));
                Endpoint::with_transport(config.id, Box::new(faults), config.endpoint)
            }
        };
        let self_addr = endpoint
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;

        // The roster starts from the founders plus every scheduled event
        // (our own join included); dynamic joins/leaves merge in as their
        // announcements arrive.
        let mut roster = Roster::scheduled(config.nodes, &config.churn);
        for (id, addr) in &config.peers {
            roster.set_addr(*id, *addr);
        }
        roster.set_addr(config.id, self_addr);

        Ok(NetNode {
            cfg,
            endpoint: Arc::new(endpoint),
            shared: Arc::new(Shared::new(
                node,
                topology,
                roster,
                config.window,
                config.trace,
            )),
            config,
        })
    }

    /// Shared handle to the node's telemetry (histograms + journal). The
    /// handle stays valid while `run` consumes the node, so in-process
    /// harnesses can read end-of-run latency distributions.
    pub fn telemetry(&self) -> Arc<NodeTelemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Runs the node to completion: bootstrap (hello exchange for
    /// founders, join handshake for `--join` nodes), the slot loop of
    /// generate → gossip → (optional) PoP, then report/linger. Returns
    /// the final summary.
    ///
    /// # Errors
    ///
    /// Startup failures (peers never came up, handshake never answered)
    /// and storage failures; barrier timeouts are *not* errors — they
    /// mark the run `degraded` instead.
    pub fn run(self) -> Result<NodeOutcome, String> {
        // Watchdog: whatever happens to the slot loop or the harness, this
        // process cannot outlive its deadline — no orphaned UDP listeners.
        if let Some(deadline) = self.config.deadline {
            let cutoff = Instant::now() + deadline;
            std::thread::spawn(move || loop {
                if Instant::now() >= cutoff {
                    eprintln!("tldag node: watchdog deadline passed, exiting");
                    std::process::exit(124);
                }
                std::thread::sleep(Duration::from_millis(200));
            });
        }
        // Metrics listener: serves scrapes for the node's whole lifetime
        // (slot loop, report, linger), so `tldag status` sees mid-run and
        // end-of-run state alike.
        let metrics_server = match self.config.metrics_addr {
            Some(addr) => {
                let endpoint = Arc::clone(&self.endpoint);
                let shared = Arc::clone(&self.shared);
                let node_id = self.config.id;
                let routes: Arc<Routes> = Arc::new(move |path: &str| match path {
                    "/metrics" => Some((
                        "text/plain; version=0.0.4".to_string(),
                        render_metrics(&collect_view(node_id, &endpoint, &shared)),
                    )),
                    "/journal" => Some((
                        "application/jsonl".to_string(),
                        shared.telemetry.journal.to_jsonl(),
                    )),
                    "/trace" => Some((
                        "application/json".to_string(),
                        trace_json(
                            node_id.0,
                            &shared.telemetry.spans.snapshot(),
                            shared.telemetry.spans.dropped(),
                            shared.telemetry.spans.evicted(),
                        ),
                    )),
                    _ => None,
                });
                let server = HttpServer::spawn(addr, routes)
                    .map_err(|e| format!("cannot bind metrics listener {addr}: {e}"))?;
                // With port 0 the kernel picks the port; the resolved
                // address on stdout (and in the RunReport) is the only way
                // a harness can find the listener.
                let resolved = server.addr();
                println!("metrics listening on {resolved}");
                self.shared.book().metrics_addr = Some(resolved);
                Some(server)
            }
            None => None,
        };
        let receiver = {
            let shared = Arc::clone(&self.shared);
            self.endpoint
                .spawn_receiver(move |endpoint, inbound| dispatch(endpoint, &shared, inbound))
        };

        let outcome = self.drive();
        receiver.finish()?;
        if let Some(server) = metrics_server {
            server.shutdown();
        }
        outcome
    }

    /// The slot loop, separated so `run` can always tear the receiver down.
    fn drive(&self) -> Result<NodeOutcome, String> {
        let mut catch_up_ms = 0u64;
        let start_slot = match self.config.join {
            Some(bootstrap) => {
                let started = Instant::now();
                let slot = self.join_handshake(bootstrap)?;
                // Whole milliseconds, at least one: a loopback handshake
                // can finish inside one, and 0 means no handshake ran.
                catch_up_ms = (started.elapsed().as_millis() as u64).max(1);
                slot
            }
            None => {
                self.hello_barrier()?;
                0
            }
        };
        let end_slot = self
            .config
            .own_churn_slot(false)
            .unwrap_or(self.config.slots)
            .min(self.config.slots);
        if start_slot >= end_slot {
            return Err(format!(
                "nothing to execute: join slot {start_slot} is not before end slot {end_slot}"
            ));
        }

        let loop_started = Instant::now();
        let degraded = self.slot_loop(start_slot, end_slot)?;
        let slot_loop_ms = (loop_started.elapsed().as_millis() as u64).max(1);
        self.wind_down(start_slot, end_slot, catch_up_ms, slot_loop_ms, degraded)
    }

    /// Leave announcement + report/linger.
    fn wind_down(
        &self,
        start_slot: u64,
        end_slot: u64,
        catch_up_ms: u64,
        slot_loop_ms: u64,
        mut degraded: bool,
    ) -> Result<NodeOutcome, String> {
        let id = self.config.id;
        let telemetry = &self.shared.telemetry;

        // --- Graceful leave: announce the departure so peers drop us from
        // their rosters (and re-gossip the delta for lost copies).
        if end_slot < self.config.slots {
            telemetry.journal.record(
                end_slot,
                EventKind::Membership,
                format!("{id} announcing graceful leave at slot {end_slot}"),
            );
            for _ in 0..3 {
                let leave = Control::Leave {
                    node: id,
                    slot: end_slot,
                };
                send_all(
                    &self.endpoint,
                    self.generator_addrs(end_slot)
                        .into_iter()
                        .map(|(_, addr)| (addr, leave, None))
                        .collect(),
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        // --- Epilogue: flush, summarise, report, linger.
        // An eviction means we cut a scheduled member loose — the chain
        // necessarily diverged from the reference engine, so the report
        // must say so even though no barrier timed out.
        if self.endpoint.stats().evictions > 0 {
            degraded = true;
        }
        let (chain_len, chain_digest) = {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            node.store_mut()
                .sync()
                .map_err(|e| format!("final sync failed: {e}"))?;
            (node.chain_len() as u64, chain_digest_of(node.store()))
        };
        let run = RunReport {
            node: id,
            slots: end_slot - start_slot,
            chain_len,
            chain_digest,
            // The verify half has joined: the counters are final.
            pop_attempts: telemetry.pop_attempts.load(Ordering::Relaxed),
            pop_successes: telemetry.pop_successes.load(Ordering::Relaxed),
            catch_up_ms,
            slot_loop_ms,
            degraded,
            net: self.endpoint.stats(),
            metrics_addr: self.shared.book().metrics_addr,
        };
        self.epilogue(&run);
        Ok(NodeOutcome {
            run,
            stats: self.endpoint.stats(),
        })
    }

    /// Reports to the controller (until acked) or lingers serving peers,
    /// then honours a shutdown request or the linger deadline.
    fn epilogue(&self, run: &RunReport) {
        let serve_for = match self.config.controller {
            Some(controller) => {
                let deadline = Instant::now() + self.config.slot_timeout;
                while Instant::now() < deadline {
                    self.endpoint
                        .send_control(controller, &Control::Report(*run));
                    let resend = Instant::now() + Duration::from_millis(100);
                    if self
                        .shared
                        .park(resend, |b| b.report_acked.then_some(()))
                        .is_some()
                    {
                        break;
                    }
                }
                // Keep serving until the controller releases the cluster (it
                // does so only after *every* node reported) or we time out.
                self.config.slot_timeout
            }
            // No controller: serve for the linger window so slower peers
            // can still finish their barriers against us.
            None => self.config.linger,
        };
        let release = Instant::now() + serve_for;
        self.shared.park(release, |b| b.shutdown.then_some(()));
    }
}

/// Tells the other half of the slot loop to wind down, waking its waits.
fn abort_pipeline(shared: &Shared) {
    shared.update(|b| b.pipeline_abort = true);
}

/// Assembles a [`MetricsView`] from the node's live state — called by the
/// metrics listener per scrape, under short locks taken one after the other
/// (the node's, then the book's), so a scrape never stalls the slot loop
/// beyond a lock handoff.
fn collect_view(node_id: NodeId, endpoint: &Endpoint, shared: &Shared) -> MetricsView {
    let (chain_len, durable_len, pruned_floor, fsync_count, segment_count) = {
        let node = shared.node.read().expect("node lock poisoned");
        let store = node.store();
        (
            node.chain_len() as u64,
            store.durable_len() as u64,
            u64::from(store.pruned_floor()),
            store.fsync_count(),
            store.segment_count(),
        )
    };
    let book = shared.book();
    let roster = &book.roster;
    let roster_members = roster.entries().count() as u64;
    let roster_departed = roster
        .entries()
        .filter(|(_, m)| m.leave_slot.is_some())
        .count() as u64;
    let current = book.current_slot;
    // Occupancy: slots in flight between generation and verification (1
    // mid-slot at `W = 1`, up to `window` otherwise).
    let window_occupancy = (current + 1).saturating_sub(book.verified_through);
    // Lag: how far the slowest generating peer's completion watermark
    // trails our current slot.
    let watermark_lag = book
        .other_generators(node_id, current)
        .iter()
        .map(|p| book.done.get(p).copied().unwrap_or(0))
        .min()
        .map_or(0, |low| current.saturating_sub(low));
    let (blacklist_banned, adversaries_detected) = (book.blacklist_banned, book.suspects.len());
    drop(book);
    let telemetry = &shared.telemetry;
    MetricsView {
        node: node_id,
        slot: current,
        window: shared.window,
        window_occupancy,
        watermark_lag,
        net: endpoint.stats(),
        pop: telemetry.pop(),
        pop_attempts: telemetry.pop_attempts.load(Ordering::Relaxed),
        pop_successes: telemetry.pop_successes.load(Ordering::Relaxed),
        chain_len,
        durable_len,
        pruned_floor,
        fsync_count,
        segment_count,
        roster_members,
        roster_departed,
        blacklist_banned,
        adversaries_detected: adversaries_detected as u64,
        journal_len: telemetry.journal.len() as u64,
        journal_dropped: telemetry.journal.dropped(),
        trace_spans: telemetry.spans.recorded(),
        trace_dropped: telemetry.spans.dropped(),
        trace_evicted: telemetry.spans.evicted(),
        phases: telemetry.phases.snapshot(),
        pop_rtt: telemetry.pop_rtt.snapshot(),
        request_rtt: endpoint.request_rtt().snapshot(),
        retry_backoff: endpoint.retry_backoff().snapshot(),
        fsync: telemetry.fsync.snapshot(),
        slot_latency: telemetry.slot_latency.snapshot(),
        batch_fill: endpoint.batch_fill().snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{discover_ports, judge, parse_adversary_spec, Deployment, Verdict};
    use std::sync::Barrier;

    /// One ended node of a test cluster: its outcome, telemetry and
    /// endpoint.
    type Member = (NodeOutcome, Arc<NodeTelemetry>, Arc<Endpoint>);

    /// Runs `deployment` as an in-process loopback cluster: every node once
    /// all have ended, and the verdict against the engine.
    fn run_loopback(deployment: &Deployment) -> (Vec<Member>, Verdict) {
        let addrs = discover_ports(deployment.members()).expect("probe ports");
        let nodes: Vec<NetNode> = deployment
            .member_configs(&addrs)
            .into_iter()
            .map(|config| NetNode::new(config).expect("node"))
            .collect();
        let members: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = nodes
                .into_iter()
                .map(|node| {
                    let (telemetry, endpoint) = (node.telemetry(), Arc::clone(&node.endpoint));
                    scope.spawn(move || (node.run().expect("node run"), telemetry, endpoint))
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("node thread"))
                .collect()
        });
        let verdict = judge(
            deployment,
            &deployment.reference(),
            members.iter().map(|(outcome, _, _)| outcome.report()),
        );
        (members, verdict)
    }

    /// A four-node PoP cluster at `W = 8`, with no loss and no churn, that
    /// reproduced the engine.
    fn pipelined_run() -> Vec<Member> {
        let mut deployment = Deployment::new(42, 4, 40);
        deployment.node.pop = true;
        deployment.node.window = 8;
        deployment.node.linger = Duration::from_millis(500);
        let (members, verdict) = run_loopback(&deployment);
        assert!(verdict.holds(), "{verdict}");
        members
    }

    /// Every request a pipelined node sends is one a walk asked for: the
    /// fetches sent ahead of their slots add none.
    #[test]
    fn a_pipelined_run_sends_exactly_the_requests_its_walks_ask() {
        let members = pipelined_run();
        let requests: u64 = members.iter().map(|(o, _, _)| o.stats.requests_sent).sum();
        let asks: u64 = members.iter().map(|(_, t, _)| t.pop().messages_sent).sum();
        assert!(asks > 0, "the run verified nothing");
        assert_eq!(requests, asks);
    }

    /// Every fetch sent ahead is awaited or cancelled by the time a node
    /// ends.
    #[test]
    fn a_pipelined_run_leaves_no_request_pending() {
        for (outcome, _, endpoint) in pipelined_run() {
            assert_eq!(endpoint.pending_len(), 0, "node {}", outcome.run.node);
        }
    }

    /// An owner turns silent at its own slot start, so a fetch sent ahead
    /// must not reach it before that slot: with two owners silent from
    /// slot 3 on, a pipelined cluster verifies the PoPs the engine
    /// verifies (none), not the ones an early fetch would let through.
    #[test]
    fn a_fetch_sent_ahead_meets_its_owner_no_earlier_than_its_slot() {
        let mut deployment = Deployment::new(17, 5, 20);
        deployment.node.pop = true;
        deployment.node.window = 8;
        deployment.node.linger = Duration::from_millis(500);
        // Silent owners cost a timeout per ask: keep it short.
        deployment.node.endpoint = EndpointConfig {
            request_timeout: Duration::from_millis(20),
            max_retries: 2,
            max_backoff: Duration::from_millis(40),
            ..EndpointConfig::default()
        };
        deployment.adversaries = parse_adversary_spec("unresponsive:2@3", 5).expect("spec");
        let (_, verdict) = run_loopback(&deployment);
        assert_eq!(verdict.reference_pop, (45, 0));
        assert_eq!(verdict.wire_pop, verdict.reference_pop, "{verdict}");
    }

    /// A node's shared state with no socket, for exercising the book alone.
    fn bare_shared() -> Shared {
        let cfg = deployment_protocol_config(3);
        let node =
            LedgerNode::with_backend(NodeId(0), Vec::new(), &cfg, Box::new(BlockStore::new()));
        let topology = deployment_topology(1, 4, 300.0);
        Shared::new(node, topology, Roster::founders(4), 1, false)
    }

    /// A change another thread makes right after a wait's first (failed)
    /// check still wakes the wait at once: the check and the park happen
    /// under the book's one lock, so the change lands either before the
    /// check or after the park, never in between where its notify would
    /// reach no waiter and the wait would sleep out its quantum.
    #[test]
    fn a_change_right_after_the_check_wakes_the_wait() {
        let shared = &bare_shared();
        let rendezvous = &Barrier::new(2);
        std::thread::scope(|scope| {
            for target in 1..=100u64 {
                let changer = scope.spawn(move || {
                    rendezvous.wait();
                    // Take the book the moment the waiter lets go of it.
                    let mut book = loop {
                        if let Ok(book) = shared.book.try_lock() {
                            break book;
                        }
                        std::hint::spin_loop();
                    };
                    book.verified_through = target;
                    drop(book);
                    shared.changed.notify_all();
                });
                let mut first = true;
                let started = Instant::now();
                let woke = shared.park(started + Duration::from_secs(5), |book| {
                    let passed = book.verified_through >= target;
                    if std::mem::take(&mut first) {
                        rendezvous.wait();
                    }
                    passed.then_some(())
                });
                let waited = started.elapsed();
                changer.join().expect("changer panicked");
                assert_eq!(woke, Some(()), "wait {target} timed out");
                assert!(
                    waited < PARK_QUANTUM * 4 / 5,
                    "wait {target} took {waited:?}: the change's wake-up was missed"
                );
            }
        });
    }
}
