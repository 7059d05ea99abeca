//! The multi-process deployment harness behind `tldag cluster`.
//!
//! Spawns `N` real node processes (`tldag node ...`), each with its own UDP
//! socket on localhost, acts as the report controller, and — once every
//! node reported — replays the identical experiment on the in-memory
//! [`TldagNetwork`] engine and compares `network_digest`s. Digest parity
//! proves the wire path (envelope codec, fragmentation, gossip barrier,
//! pull-based loss recovery) reproduces the simulator's protocol execution
//! byte-for-byte on a shared seed.
//!
//! With a churn schedule (`--churn join:4@3,leave:1@6`) the harness also
//! spawns the late joiners — provisioned with nothing but a bootstrap
//! address, so the join handshake and membership gossip genuinely carry
//! the roster — and replays the same `node_joins` / `node_leaves`
//! schedule on the reference engine, asserting parity *through* the
//! membership changes.
//!
//! Orphan safety: every spawned child carries a watchdog deadline (it
//! exits on its own once the harness must have given up on it), children
//! are killed explicitly on every failure path, and the child guard kills
//! whatever is left on drop — a failed run can never strand UDP listeners
//! that would wedge a rerun on the same ports.
//!
//! The same module stands up *in-process* loopback clusters for the
//! experiments and the wire tests, so a deployment under test is addressed
//! and compared in one place: [`discover_ports`] / [`discover_tcp_ports`]
//! probe free localhost addresses, [`Deployment::member_configs`] peers the
//! founders and points each scheduled joiner at its bootstrap,
//! [`LoopbackCluster`] runs every member as a [`NetNode`] thread,
//! [`Deployment::reference`] builds the in-memory engine run it must match,
//! and [`judge`] turns the members' reports into the one [`Verdict`] every
//! caller reads.

use crate::control::{Control, RunReport};
use crate::endpoint::{Endpoint, EndpointConfig, Inbound};
use crate::forensics::{diagnose, timelines_for_slot, DivergenceReport};
use crate::membership::{join_site, validate_churn, ChurnEvent, Roster};
use crate::metrics::NetStats;
use crate::runtime::{
    deployment_protocol_config, deployment_range_m, deployment_topology, network_digest_of,
    NetNode, NetNodeConfig, NodeOutcome,
};
use crate::telemetry::NodeTelemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_crypto::Digest;
use tldag_obs::http_get;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// One scheduled wire adversary: `node` switches from honest operation to
/// `behavior` at the start of `slot` (and stays adversarial for the rest
/// of the run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdversaryPlacement {
    /// The founder that turns adversarial.
    pub node: NodeId,
    /// What it does once active.
    pub behavior: Behavior,
    /// The activation slot (`0` = adversarial from the first slot).
    pub slot: u64,
}

/// Parses a `tldag cluster --adversary` schedule — comma-separated
/// `kind:count[@slot]` groups, e.g. `selfish:2,equivocate:1@4` — and
/// resolves it to concrete [`AdversaryPlacement`]s.
///
/// Placement is deterministic so the wire run and the engine reference
/// agree without exchanging anything: adversaries occupy the *highest*
/// founder ids, assigned in spec order, and node 0 (the default bootstrap
/// for late joiners) is never scheduled.
///
/// # Errors
///
/// Unknown kinds (including the parameterised engine-only `sybil` /
/// `flooder`), `honest`, zero counts, malformed counts/slots, and
/// schedules that need more than `founders - 1` adversaries.
pub fn parse_adversary_spec(
    spec: &str,
    founders: usize,
) -> Result<Vec<AdversaryPlacement>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    let mut next = founders;
    let mut placements = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (head, slot) = match part.split_once('@') {
            Some((head, raw)) => (
                head,
                raw.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("invalid adversary activation slot in `{part}`"))?,
            ),
            None => (part, 0),
        };
        let (kind, count) = match head.split_once(':') {
            Some((kind, raw)) => (
                kind.trim(),
                raw.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("invalid adversary count in `{part}`"))?,
            ),
            None => (head.trim(), 1),
        };
        let behavior = Behavior::parse_kind(kind)
            .ok_or_else(|| format!("unknown adversary kind `{kind}` in `{part}`"))?;
        if behavior == Behavior::Honest {
            return Err("`honest` is not an adversary kind".into());
        }
        if count == 0 {
            return Err(format!("adversary count must be positive in `{part}`"));
        }
        for _ in 0..count {
            if next <= 1 {
                return Err(format!(
                    "adversary schedule `{spec}` needs more nodes than the {founders} \
founders allow (node 0 is never an adversary)"
                ));
            }
            next -= 1;
            placements.push(AdversaryPlacement {
                node: NodeId(next as u32),
                behavior,
                slot,
            });
        }
    }
    Ok(placements)
}

/// Renders placements for logs: `n7 selfish@0, n6 equivocate@4`.
pub fn format_adversary_schedule(placements: &[AdversaryPlacement]) -> String {
    placements
        .iter()
        .map(|p| format!("n{} {}@{}", p.node.0, p.behavior, p.slot))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Configuration of one cluster run: the deployment, plus what the process
/// harness itself needs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The `tldag` binary to spawn node processes from.
    pub(crate) exe: PathBuf,
    /// What the processes run and the reference engine replays: seed,
    /// founders (= processes at start), slots each founder executes,
    /// protocol and per-node knobs (the storage root among them), churn
    /// (late joins are spawned as extra processes bootstrapped via the
    /// join handshake) and adversaries (each placement is passed to its
    /// node process as `--behavior` and applied to the reference at the
    /// same slot boundary, so the honest-subset parity verdict compares
    /// like with like).
    pub deployment: Deployment,
    /// First UDP port; node `i` listens on `base_port + i`. When `None`,
    /// free ports are discovered by probing.
    pub base_port: Option<u16>,
    /// How long the controller waits for all reports.
    pub report_timeout: Duration,
    /// When true, every node serves `GET /metrics` + `GET /journal` on a
    /// discovered localhost TCP port, announced on stdout as
    /// `metrics endpoints: ...` before the nodes spawn. With the
    /// deployment's [`NetNodeConfig::trace`] also set, the harness scrapes
    /// each node's `/trace` after the reports arrive
    /// ([`ClusterOutcome::trace_snapshots`]).
    pub metrics: bool,
}

impl ClusterConfig {
    /// A cluster of `nodes` × `slots` with deployment defaults.
    pub fn new(exe: PathBuf, nodes: usize, slots: u64, seed: u64) -> Self {
        ClusterConfig {
            exe,
            deployment: Deployment::new(seed, nodes, slots),
            base_port: None,
            report_timeout: Duration::from_secs(60),
            metrics: false,
        }
    }
}

/// The outcome of a cluster run, including the parity verdict.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Per-node end-of-run reports, in node order (founders then joiners).
    pub reports: Vec<RunReport>,
    /// The reports judged against the in-memory reference run on the same
    /// seed, membership schedule and adversary cast.
    pub verdict: Verdict,
    /// One `/trace` JSON snapshot per answering node, taken after every
    /// report arrived but before the cluster was released. Populated only
    /// with [`NetNodeConfig::trace`] + [`ClusterConfig::metrics`].
    pub trace_snapshots: Vec<String>,
    /// The slot-by-slot divergence diagnosis, present only when digest
    /// parity failed and the harness could pull per-slot evidence from
    /// the still-live nodes.
    pub forensics: Option<DivergenceReport>,
}

/// Kills every child on drop, so no path out of the harness leaks
/// processes.
struct ChildGuard {
    children: Vec<(NodeId, Child)>,
}

impl ChildGuard {
    /// Reaps children that exited on their own; returns the failures.
    fn harvest_failures(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for (id, child) in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    failures.push(format!("node {} exited early: {status}", id.0));
                }
            }
        }
        failures
    }

    /// Kills and reaps every child immediately. Called explicitly on every
    /// failure path (and again from `Drop`, idempotently) so a failed run
    /// releases its UDP ports before the error is even reported.
    fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits for clean exits up to `deadline`, then kills stragglers.
    fn shutdown(&mut self, deadline: Instant) {
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|(_, c)| matches!(c.try_wait(), Ok(Some(_))));
            if all_done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.kill_all();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Finds `n` distinct bindable localhost UDP addresses by binding them all
/// and releasing them together.
///
/// The release-then-rebind window is a race: a concurrent bind on the same
/// host can steal a port before its node binds it. [`run_cluster`] absorbs
/// that with one retry on an early child exit.
///
/// # Errors
///
/// The probe socket cannot be bound or read back.
pub fn discover_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    let sockets = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot discover a free port: {e}"))?;
    sockets
        .iter()
        .map(UdpSocket::local_addr)
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("cannot read discovered port: {e}"))
}

/// Finds `n` distinct bindable localhost TCP addresses (for the metrics
/// listeners), with the same release-then-rebind race as [`discover_ports`].
///
/// # Errors
///
/// The probe listener cannot be bound or read back.
pub fn discover_tcp_ports(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot discover a free metrics port: {e}"))?;
    listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("cannot read discovered metrics port: {e}"))
}

/// One deployment under test: the node config every member starts from,
/// plus its adversary cast. It yields both sides of the parity contract —
/// the members' node configs ([`Deployment::member_configs`]) and the
/// engine run they must reproduce ([`Deployment::reference`]).
#[derive(Clone, Debug)]
pub struct Deployment {
    /// What every member runs: seed, founders (`nodes`; scheduled joiners
    /// take the ids after them), horizon, protocol and per-node knobs, the
    /// churn schedule (valid, see [`validate_churn`]) and the storage
    /// root. Its `id` and `listen` are placeholders that
    /// [`Deployment::member_configs`] replaces.
    pub node: NetNodeConfig,
    /// Scheduled adversaries.
    pub adversaries: Vec<AdversaryPlacement>,
}

impl Deployment {
    /// An honest deployment whose members run [`NetNodeConfig::new`]'s
    /// defaults.
    pub fn new(seed: u64, founders: usize, slots: u64) -> Self {
        let unbound = SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0));
        Deployment {
            node: NetNodeConfig::new(NodeId(0), unbound, seed, founders, slots),
            adversaries: Vec::new(),
        }
    }

    /// Founders plus scheduled joiners.
    pub fn members(&self) -> usize {
        self.node.nodes
            + self
                .node
                .churn
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Join { .. }))
                .count()
    }

    /// One node config per member, in id order, listening on `addrs[id]`:
    /// a copy of [`Deployment::node`] with the member's identity filled in.
    /// Founders list every other founder as a peer. A scheduled joiner is
    /// provisioned with only a bootstrap address — the lowest founder
    /// still a member at its join slot (a departed bootstrap keeps
    /// serving, but a live one answers faster) — so the join handshake
    /// carries the roster. Adversary placements set `behavior` /
    /// `behavior_from`.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one address per member.
    pub fn member_configs(&self, addrs: &[SocketAddr]) -> Vec<NetNodeConfig> {
        assert_eq!(addrs.len(), self.members(), "one address per member");
        let founders = self.node.nodes;
        let roster = Roster::scheduled(founders, &self.node.churn);
        (0..addrs.len())
            .map(|i| {
                let id = NodeId(i as u32);
                let mut config = NetNodeConfig {
                    id,
                    listen: addrs[i],
                    ..self.node.clone()
                };
                if i < founders {
                    config.peers = (0..founders)
                        .filter(|&j| j != i)
                        .map(|j| (NodeId(j as u32), addrs[j]))
                        .collect();
                } else {
                    let join_slot = config
                        .own_churn_slot(true)
                        .expect("joiner ids come from the churn schedule");
                    let bootstrap = (0..founders)
                        .find(|&f| !roster.departed_by(NodeId(f as u32), join_slot))
                        .unwrap_or(0);
                    config.join = Some(addrs[bootstrap]);
                }
                if let Some(p) = self.adversaries.iter().find(|p| p.node == id) {
                    config.behavior = p.behavior;
                    config.behavior_from = p.slot;
                }
                config
            })
            .collect()
    }

    /// The in-memory engine run the members must reproduce: the same
    /// topology, protocol config and workload, with the membership schedule
    /// and adversary cast replayed by [`replay_reference_schedule`].
    pub fn reference(&self) -> TldagNetwork {
        let node = &self.node;
        let topology = deployment_topology(node.seed, node.nodes, node.side_m);
        let cfg = deployment_protocol_config(node.gamma);
        let schedule = GenerationSchedule::uniform(topology.len());
        let mut reference = TldagNetwork::new(cfg, topology, schedule, node.seed);
        reference.set_verification_workload(if node.pop {
            VerificationWorkload::RandomPast {
                min_age_slots: node.nodes as u64,
            }
        } else {
            VerificationWorkload::Disabled
        });
        replay_reference_schedule(
            &mut reference,
            &node.churn,
            &self.adversaries,
            node.nodes,
            node.seed,
            node.slots,
        );
        reference
    }
}

/// A loopback cluster running in this process: every member a [`NetNode`]
/// on its own thread. Mid-run observers (metrics scrapers, journal
/// readers) run between [`LoopbackCluster::spawn`] and
/// [`LoopbackCluster::join`].
#[must_use = "join the cluster to reap its node threads"]
pub struct LoopbackCluster {
    members: Vec<JoinHandle<(NodeOutcome, Arc<NodeTelemetry>)>>,
}

impl LoopbackCluster {
    /// Starts one node thread per config.
    ///
    /// Each thread panics if its node cannot be built or fails its run;
    /// [`LoopbackCluster::join`] surfaces that.
    pub fn spawn(configs: Vec<NetNodeConfig>) -> Self {
        let members = configs
            .into_iter()
            .map(|config| {
                std::thread::spawn(move || {
                    let node = NetNode::new(config).expect("node construction");
                    let telemetry = node.telemetry();
                    (node.run().expect("node run"), telemetry)
                })
            })
            .collect();
        LoopbackCluster { members }
    }

    /// Whether every node thread has returned (or panicked).
    pub fn is_finished(&self) -> bool {
        self.members.iter().all(JoinHandle::is_finished)
    }

    /// Waits for every node and returns its outcome and telemetry, in id
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any node thread panicked.
    pub fn join(self) -> Vec<(NodeOutcome, Arc<NodeTelemetry>)> {
        let mut members: Vec<_> = self
            .members
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        members.sort_by_key(|(outcome, _)| outcome.run.node.0);
        members
    }

    /// Spawns `configs`, waits for them, and keeps only the outcomes: the
    /// whole run for a caller that observes nothing mid-run.
    pub fn run(configs: Vec<NetNodeConfig>) -> Vec<NodeOutcome> {
        let members = LoopbackCluster::spawn(configs).join();
        members.into_iter().map(|(outcome, _)| outcome).collect()
    }
}

/// Replays a membership schedule on a reference engine and runs it for
/// `slots` slots: the **same** leaves-before-joins slot-boundary
/// application and derived `join_site` placement every `NetNode` uses, so
/// any consumer comparing a wire run against the engine
/// ([`Deployment::reference`], and through it `run_cluster` and every
/// in-process cluster) computes the identical reference — one definition,
/// no drift.
///
/// `adversaries` are applied with [`TldagNetwork::set_behavior`] at the
/// same slot boundary the wire node activates its `--behavior`, so the
/// engine's malicious-node handling (validator exclusion, silent
/// responders, offense-driven blacklisting) runs against the identical
/// placement.
///
/// # Panics
///
/// Panics when a join's id is not the engine's next topology index (the
/// schedule should have been checked with
/// [`crate::membership::validate_churn`] first).
pub fn replay_reference_schedule(
    reference: &mut TldagNetwork,
    churn: &[ChurnEvent],
    adversaries: &[AdversaryPlacement],
    founders: usize,
    seed: u64,
    slots: u64,
) {
    // The full-schedule roster: what every wire process knows from its
    // `--churn` spec, and therefore what `join_site` must be computed
    // against for the placements to agree.
    let roster = Roster::scheduled(founders, churn);
    // Canonical application order regardless of how the caller built the
    // schedule: by slot, leaves before joins, ids ascending.
    let mut events = churn.to_vec();
    events.sort_by_key(|e| (e.slot(), matches!(e, ChurnEvent::Join { .. }), e.id().0));
    let mut next_event = 0usize;
    for slot in 0..slots {
        for placement in adversaries.iter().filter(|p| p.slot == slot) {
            reference.set_behavior(placement.node, placement.behavior);
        }
        while next_event < events.len() && events[next_event].slot() == slot {
            match events[next_event] {
                ChurnEvent::Leave { id, .. } => reference.node_leaves(id),
                ChurnEvent::Join { id, slot } => {
                    let site = join_site(
                        reference.topology(),
                        &roster,
                        seed,
                        slot,
                        id,
                        deployment_range_m(),
                    );
                    let assigned = reference.node_joins(site, deployment_range_m(), 1);
                    assert_eq!(assigned, id, "churn join ids are consecutive");
                }
            }
            next_event += 1;
        }
        reference.step();
    }
}

/// One wire run judged against its engine reference: both halves of the
/// parity contract (wire digest == engine digest, PoP counters equal), the
/// members that diverged or degraded, and the merged transport counters.
/// [`judge`] is the one place it is computed; `run_cluster`, the
/// in-process clusters, the experiments and the wire tests all read it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Network digest over every member's wire chain.
    pub wire_digest: Digest,
    /// The reference engine's network digest.
    pub(crate) reference_digest: Digest,
    /// Network digest over the wire chains of the members no adversary is
    /// placed on (every member of an honest run, where it is the full
    /// digest). A flapping adversary legitimately forks its own chain by
    /// going dark, so under attack this subset is the digest verdict.
    pub(crate) honest_wire_digest: Digest,
    /// The same subset of the reference engine's chains.
    pub(crate) honest_reference_digest: Digest,
    /// Members whose wire chain differs from the reference's, in id order
    /// (an adversary's fork included).
    pub diverged: Vec<NodeId>,
    /// PoP (attempts, successes) summed over the members.
    pub wire_pop: (u64, u64),
    /// The reference engine's PoP (attempts, successes).
    pub reference_pop: (u64, u64),
    /// Members that proceeded past a timed-out barrier or evicted a peer.
    pub degraded: Vec<NodeId>,
    /// Transport counters merged across every member's report.
    pub net: NetStats,
    /// Whether the deployment placed adversaries: the contract is then the
    /// honest-subset digest alone, and the PoP counters are reported
    /// beside it.
    pub adversarial: bool,
}

impl Verdict {
    /// Whether the honest subset reproduced the reference (with no
    /// adversaries, full `network_digest` parity).
    pub fn honest_parity(&self) -> bool {
        self.honest_wire_digest == self.honest_reference_digest
    }

    /// Whether the wire PoP counters equal the reference's.
    pub fn pop_parity(&self) -> bool {
        self.wire_pop == self.reference_pop
    }

    /// The whole contract: honest-subset digest parity, plus equal PoP
    /// counters unless the run is adversarial.
    pub fn holds(&self) -> bool {
        self.honest_parity() && (self.adversarial || self.pop_parity())
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  wire network digest      : {}", self.wire_digest)?;
        writeln!(f, "  reference network digest : {}", self.reference_digest)?;
        if self.adversarial {
            writeln!(
                f,
                "  honest-subset digest     : wire {} vs reference {}",
                self.honest_wire_digest, self.honest_reference_digest
            )?;
        }
        let ((wa, ws), (ra, rs)) = (self.wire_pop, self.reference_pop);
        writeln!(f, "  PoP wire {ws}/{wa} vs reference {rs}/{ra}")?;
        if !self.diverged.is_empty() || !self.degraded.is_empty() {
            let ids = |ids: &[NodeId]| ids.iter().map(|id| id.0.to_string()).collect::<Vec<_>>();
            writeln!(
                f,
                "  diverged nodes [{}], degraded nodes [{}]",
                ids(&self.diverged).join(" "),
                ids(&self.degraded).join(" ")
            )?;
        }
        Ok(())
    }
}

/// Judges the members' end-of-run reports against `reference`, the engine
/// run of `deployment` ([`Deployment::reference`]; build it once per
/// sweep). Reports may come in any order; every member of the deployment
/// should report once.
pub fn judge(
    deployment: &Deployment,
    reference: &TldagNetwork,
    reports: impl IntoIterator<Item = RunReport>,
) -> Verdict {
    let mut reports: Vec<RunReport> = reports.into_iter().collect();
    reports.sort_by_key(|r| r.node);
    let wire: Vec<Digest> = reports.iter().map(|r| r.chain_digest).collect();
    let engine: Vec<Digest> = reports
        .iter()
        .map(|r| reference.chain_digest(r.node))
        .collect();
    let honest = |chains: &[Digest]| {
        let kept = reports
            .iter()
            .zip(chains)
            .filter(|(r, _)| deployment.adversaries.iter().all(|p| p.node != r.node));
        network_digest_of(&kept.map(|(_, digest)| *digest).collect::<Vec<_>>())
    };
    let mut net = NetStats::default();
    let mut wire_pop = (0, 0);
    for r in &reports {
        net.merge(&r.net);
        wire_pop = (wire_pop.0 + r.pop_attempts, wire_pop.1 + r.pop_successes);
    }
    Verdict {
        wire_digest: network_digest_of(&wire),
        reference_digest: reference.network_digest(),
        honest_wire_digest: honest(&wire),
        honest_reference_digest: honest(&engine),
        diverged: (reports.iter().zip(wire.iter().zip(&engine)))
            .filter(|(_, (w, e))| w != e)
            .map(|(r, _)| r.node)
            .collect(),
        wire_pop,
        reference_pop: reference.pop_counters(),
        degraded: reports
            .iter()
            .filter(|r| r.degraded)
            .map(|r| r.node)
            .collect(),
        net,
        adversarial: !deployment.adversaries.is_empty(),
    }
}

/// Runs a full cluster: spawn, collect, compare. Node processes are always
/// reaped, whatever path is taken.
///
/// # Errors
///
/// An invalid churn schedule, spawn failures, early child exits, and
/// report-collection timeouts.
pub fn run_cluster(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    let deployment = &config.deployment;
    let node = &deployment.node;
    validate_churn(&node.churn, node.nodes, node.slots)?;
    for p in &deployment.adversaries {
        if p.node.0 as usize >= node.nodes {
            return Err(format!(
                "adversary placement on n{} is outside the {} founders",
                p.node.0, node.nodes
            ));
        }
        if p.slot >= node.slots {
            return Err(format!(
                "adversary n{} activates at slot {} but the run has only {} slots",
                p.node.0, p.slot, node.slots
            ));
        }
    }
    match run_cluster_attempt(config) {
        // Probed ports are necessarily released before the child processes
        // bind them, so a concurrent bind on the same host can steal one in
        // that window and the victim exits at startup. Fresh ports and one
        // retry absorb the race (impossible with an explicit --base-port,
        // where retrying would collide identically).
        Err(e) if config.base_port.is_none() && e.contains("exited early") => {
            run_cluster_attempt(config)
        }
        outcome => outcome,
    }
}

fn run_cluster_attempt(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    let deployment = &config.deployment;
    if deployment.node.nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let total = deployment.members();
    let addrs: Vec<SocketAddr> = match config.base_port {
        Some(base) => {
            let last = u64::from(base) + total as u64 - 1;
            if last > u64::from(u16::MAX) {
                return Err(format!(
                    "--base-port {base} + {total} nodes exceeds port 65535"
                ));
            }
            (0..total as u16)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], base + i)))
                .collect()
        }
        None => discover_ports(total)?,
    };
    let metrics_addrs: Vec<SocketAddr> = if config.metrics {
        discover_tcp_ports(total)?
    } else {
        Vec::new()
    };
    // Announced *before* the children spawn (stdout is line-buffered), so
    // an observer tailing the harness can scrape the live endpoints
    // mid-run instead of guessing at ports.
    if !metrics_addrs.is_empty() {
        let listed: Vec<String> = metrics_addrs.iter().map(ToString::to_string).collect();
        println!("metrics endpoints: {}", listed.join(" "));
    }

    // --- The controller endpoint: collect reports, ack each.
    let controller = Arc::new(
        Endpoint::bind(
            NodeId(u32::MAX),
            "127.0.0.1:0".parse().expect("addr"),
            EndpointConfig::default(),
        )
        .map_err(|e| format!("cannot bind controller socket: {e}"))?,
    );
    let controller_addr = controller
        .local_addr()
        .map_err(|e| format!("controller address: {e}"))?;
    // Children may not outlive the harness even if it is SIGKILLed (no
    // destructors run then): a generous watchdog inside each node covers
    // the whole report window plus the shutdown grace.
    let child_deadline = config.report_timeout + Duration::from_secs(30);
    let mut members = deployment.member_configs(&addrs);
    for member in &mut members {
        let i = member.id.index();
        member.controller = Some(controller_addr);
        member.deadline = Some(child_deadline);
        member.metrics_addr = metrics_addrs.get(i).copied();
        member.validate()?;
    }
    let reports: Arc<Mutex<BTreeMap<NodeId, RunReport>>> = Arc::default();
    // Per-slot digests answered to the controller's forensic DigestReq
    // pulls, keyed by (node, slot).
    let pulled: Arc<Mutex<BTreeMap<(u32, u64), Digest>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let collector = {
        let reports = Arc::clone(&reports);
        let pulled = Arc::clone(&pulled);
        controller.spawn_receiver(move |controller, inbound| match inbound {
            Inbound::Control {
                src,
                msg: Control::Report(report),
                ..
            } => {
                reports
                    .lock()
                    .expect("reports poisoned")
                    .insert(report.node, report);
                controller.send_control(src, &Control::ReportAck);
            }
            Inbound::Control {
                from,
                msg: Control::SlotDigest { slot, digest },
                ..
            } => {
                pulled
                    .lock()
                    .expect("pulled digests poisoned")
                    .insert((from.0, slot), digest);
            }
            _ => {}
        })
    };
    // --- Spawn one real process per member: founders first, then the
    // scheduled joiners (provisioned with only a bootstrap address — the
    // join handshake transfers the roster) — and collect every report.
    let mut guard = ChildGuard {
        children: Vec::with_capacity(total),
    };
    let collected = (|| -> Result<Vec<RunReport>, String> {
        for member in members {
            let child = Command::new(&config.exe)
                .arg("node")
                .args(member.to_args())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    let exe = config.exe.display();
                    format!("cannot spawn node {} from {exe}: {e}", member.id.0)
                })?;
            guard.children.push((member.id, child));
        }
        let deadline = Instant::now() + config.report_timeout;
        loop {
            let collected = reports.lock().expect("reports poisoned");
            if collected.len() == total {
                return Ok(collected.values().copied().collect());
            }
            let have = collected.len();
            drop(collected);
            let failures = guard.harvest_failures();
            if !failures.is_empty() {
                return Err(failures.join("; "));
            }
            if Instant::now() > deadline {
                let timeout = config.report_timeout;
                return Err(format!(
                    "cluster timed out: {have}/{total} reports within {timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    })();
    // A failure tears down in drop order: children killed first (ports
    // released), then the collector thread.
    let ordered = collected?;

    // --- The in-memory reference on the same seed and churn schedule,
    // judged *before* the cluster is released: a parity failure then still
    // has every node alive and serving DigestReq pulls.
    let reference = deployment.reference();
    let verdict = judge(deployment, &reference, ordered.iter().copied());

    // --- Trace snapshots while the nodes still serve `/trace`.
    let trace_snapshots: Vec<String> = if deployment.node.trace {
        metrics_addrs
            .iter()
            .filter_map(|addr| http_get(*addr, "/trace", Duration::from_secs(1)).ok())
            .collect()
    } else {
        Vec::new()
    };

    // --- Divergence forensics: on a parity failure, pull the suspect
    // nodes' recent per-slot digests over the live control plane and
    // diff them against the reference before anything shuts down. For
    // adversarial runs the verdict (and hence the trigger) is the honest
    // subset: a flapper's own dark chain is an expected fork, not a bug.
    let forensics = (!verdict.honest_parity()).then(|| {
        run_forensics(
            config,
            &controller,
            &addrs,
            &verdict.diverged,
            &reference,
            &pulled,
            &trace_snapshots,
        )
    });

    // --- Release the cluster and reap the processes.
    for addr in &addrs {
        for _ in 0..3 {
            controller.send_control(*addr, &Control::Shutdown);
        }
    }
    guard.shutdown(Instant::now() + Duration::from_secs(5));
    collector.finish()?;
    Ok(ClusterOutcome {
        reports: ordered,
        verdict,
        trace_snapshots,
        forensics,
    })
}

/// Pulls per-slot digests from every chain-level suspect over the live
/// [`Control::DigestReq`] path and diffs them against the reference
/// engine's blocks. Best-effort: silence is reported, never fatal.
fn run_forensics(
    config: &ClusterConfig,
    controller: &Endpoint,
    addrs: &[SocketAddr],
    diverged: &[NodeId],
    reference: &TldagNetwork,
    pulled: &Arc<Mutex<BTreeMap<(u32, u64), Digest>>>,
    trace_snapshots: &[String],
) -> DivergenceReport {
    let suspects: Vec<u32> = diverged.iter().map(|id| id.0).collect();
    // Nodes retain the last 64 slots of own-digest history for pulls.
    let slots = config.deployment.node.slots;
    let window = slots.saturating_sub(64)..slots;

    for _round in 0..4 {
        let missing: Vec<(u32, u64)> = {
            let have = pulled.lock().expect("pulled digests poisoned");
            suspects
                .iter()
                .flat_map(|&node| window.clone().map(move |slot| (node, slot)))
                .filter(|key| !have.contains_key(key))
                .collect()
        };
        if missing.is_empty() {
            break;
        }
        for &(node, slot) in &missing {
            if let Some(addr) = addrs.get(node as usize) {
                controller.send_control(*addr, &Control::DigestReq { slot });
            }
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // The reference engine's per-slot block digests for the same nodes.
    let mut ref_digests: BTreeMap<(u32, u64), Digest> = BTreeMap::new();
    for &node in &suspects {
        for block in reference.node(NodeId(node)).store().iter() {
            ref_digests.insert((node, block.header.time), block.header.digest());
        }
    }

    let wire = pulled.lock().expect("pulled digests poisoned").clone();
    let mut report = diagnose(&wire, &ref_digests, &suspects, window);
    if let Some(slot) = report.first_divergent_slot {
        report.timelines = trace_snapshots
            .iter()
            .flat_map(|snapshot| timelines_for_slot(snapshot, slot))
            .collect();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultSpec;

    /// A 3-founder deployment, its engine reference, and one report per
    /// member that reproduces the reference exactly.
    fn reproduced(
        adversaries: Vec<AdversaryPlacement>,
    ) -> (Deployment, TldagNetwork, Vec<RunReport>) {
        let mut deployment = Deployment::new(3, 3, 4);
        deployment.adversaries = adversaries;
        let reference = deployment.reference();
        let reports = (0..3)
            .map(|i| RunReport {
                node: NodeId(i),
                slots: 4,
                chain_len: 4,
                chain_digest: reference.chain_digest(NodeId(i)),
                pop_attempts: 0,
                pop_successes: 0,
                catch_up_ms: 0,
                slot_loop_ms: 1,
                degraded: false,
                net: NetStats {
                    datagrams_sent: u64::from(i) + 1,
                    ..NetStats::default()
                },
                metrics_addr: None,
            })
            .collect();
        (deployment, reference, reports)
    }

    #[test]
    fn an_honest_run_judges_the_full_digest() {
        let (deployment, reference, mut reports) = reproduced(Vec::new());
        reports.reverse();
        let verdict = judge(&deployment, &reference, reports);
        assert_eq!(verdict.wire_digest, reference.network_digest());
        assert_eq!(verdict.honest_wire_digest, verdict.wire_digest);
        assert_eq!(verdict.honest_reference_digest, verdict.reference_digest);
        assert!(verdict.holds() && verdict.diverged.is_empty() && verdict.degraded.is_empty());
        assert_eq!(verdict.net.datagrams_sent, 1 + 2 + 3, "counters merge");
    }

    #[test]
    fn an_adversarys_fork_is_listed_but_spares_the_honest_verdict() {
        let placement = AdversaryPlacement {
            node: NodeId(2),
            behavior: Behavior::Flapper,
            slot: 1,
        };
        let (deployment, reference, mut reports) = reproduced(vec![placement]);
        reports[2].chain_digest = Digest::ZERO;
        reports[2].pop_attempts = 1;
        let verdict = judge(&deployment, &reference, reports.clone());
        assert!(verdict.honest_parity(), "{verdict}");
        assert!(verdict.holds(), "PoP counters are not judged under attack");
        assert_ne!(verdict.wire_digest, verdict.reference_digest);
        assert_eq!(verdict.diverged, vec![NodeId(2)]);

        // The same fork on an honest member fails the verdict.
        reports[1].chain_digest = Digest::ZERO;
        let verdict = judge(&deployment, &reference, reports);
        assert!(!verdict.honest_parity());
        assert_eq!(verdict.diverged, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn a_pop_mismatch_fails_only_the_pop_half() {
        let (deployment, reference, mut reports) = reproduced(Vec::new());
        reports[0].pop_attempts = 1;
        let verdict = judge(&deployment, &reference, reports);
        assert!(verdict.honest_parity() && verdict.diverged.is_empty());
        assert!(!verdict.pop_parity() && !verdict.holds());
        assert_eq!((verdict.wire_pop, verdict.reference_pop), ((1, 0), (0, 0)));
    }

    #[test]
    fn a_degraded_report_is_counted() {
        let (deployment, reference, mut reports) = reproduced(Vec::new());
        reports[1].degraded = true;
        let verdict = judge(&deployment, &reference, reports);
        assert_eq!(verdict.degraded, vec![NodeId(1)]);
        assert!(
            verdict.holds(),
            "degradation is reported beside the contract"
        );
    }

    #[test]
    fn founders_peer_each_other_and_joiners_bootstrap_off_the_lowest_live_founder() {
        let addrs: Vec<SocketAddr> = (0..5)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], 9300 + i)))
            .collect();
        let mut deployment = Deployment::new(5, 3, 10);
        deployment.node.churn = vec![
            ChurnEvent::Join {
                id: NodeId(3),
                slot: 2,
            },
            ChurnEvent::Leave {
                id: NodeId(0),
                slot: 3,
            },
            ChurnEvent::Join {
                id: NodeId(4),
                slot: 5,
            },
        ];
        deployment.adversaries = vec![AdversaryPlacement {
            node: NodeId(2),
            behavior: Behavior::Selfish,
            slot: 4,
        }];
        validate_churn(&deployment.node.churn, 3, 10).expect("valid schedule");
        let configs = deployment.member_configs(&addrs);
        assert_eq!(configs.len(), 5);
        for (i, config) in configs.iter().enumerate().take(3) {
            let expected: Vec<(NodeId, SocketAddr)> = (0..3)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            assert_eq!(
                config.peers, expected,
                "founder {i} peers every other founder"
            );
            assert_eq!(config.join, None);
        }
        // Founder 0 is still a member at slot 2, and gone by slot 5.
        assert_eq!(configs[3].join, Some(addrs[0]));
        assert_eq!(configs[4].join, Some(addrs[1]));
        assert!(configs[3].peers.is_empty() && configs[4].peers.is_empty());
        for (i, config) in configs.iter().enumerate() {
            assert_eq!((config.id, config.listen), (NodeId(i as u32), addrs[i]));
            assert_eq!(config.churn, deployment.node.churn);
        }
        assert_eq!(
            (configs[2].behavior, configs[2].behavior_from),
            (Behavior::Selfish, 4)
        );
        assert_eq!(configs[1].behavior, Behavior::Honest);
    }

    /// Every member of a deployment that sets each shared knob away from
    /// its default, as the `tldag node` argv it is spawned with.
    #[test]
    fn every_member_spawns_with_the_pinned_argv() {
        let addrs: Vec<SocketAddr> = (0..5)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], 9400 + i)))
            .collect();
        let mut deployment = Deployment::new(11, 4, 10);
        let node = &mut deployment.node;
        node.gamma = 5;
        node.side_m = 250.5;
        node.pop = true;
        node.window = 4;
        node.endpoint.batch = 4;
        node.fault = Some(FaultSpec::loss(0.05));
        node.evict_after = Some(Duration::from_secs_f64(1.5));
        node.trace = true;
        node.churn = crate::membership::parse_churn_spec("join:4@3,leave:1@6").unwrap();
        node.storage = Some(PathBuf::from("/var/tmp/tldag-golden"));
        deployment.adversaries = parse_adversary_spec("equivocate:1@2", 4).unwrap();
        let configs = deployment.member_configs(&addrs);
        let argv: Vec<String> = configs.iter().map(|c| c.to_args().join(" ")).collect();
        let expected = [
            "--id 0 --listen 127.0.0.1:9400 --seed 11 --nodes 4 --side 250.5 \
             --gamma 5 --slots 10 --window 4 --batch 4 --peers \
             1@127.0.0.1:9401,2@127.0.0.1:9402,3@127.0.0.1:9403 --churn \
             join:4@3,leave:1@6 --evict-after 1.5 --drop 0.05 --storage disk \
             --storage-dir /var/tmp/tldag-golden --pop --trace",
            "--id 1 --listen 127.0.0.1:9401 --seed 11 --nodes 4 --side 250.5 \
             --gamma 5 --slots 10 --window 4 --batch 4 --peers \
             0@127.0.0.1:9400,2@127.0.0.1:9402,3@127.0.0.1:9403 --churn \
             join:4@3,leave:1@6 --evict-after 1.5 --drop 0.05 --storage disk \
             --storage-dir /var/tmp/tldag-golden --pop --trace",
            "--id 2 --listen 127.0.0.1:9402 --seed 11 --nodes 4 --side 250.5 \
             --gamma 5 --slots 10 --window 4 --batch 4 --peers \
             0@127.0.0.1:9400,1@127.0.0.1:9401,3@127.0.0.1:9403 --churn \
             join:4@3,leave:1@6 --evict-after 1.5 --drop 0.05 --storage disk \
             --storage-dir /var/tmp/tldag-golden --pop --trace",
            "--id 3 --listen 127.0.0.1:9403 --seed 11 --nodes 4 --side 250.5 \
             --gamma 5 --slots 10 --window 4 --batch 4 --peers \
             0@127.0.0.1:9400,1@127.0.0.1:9401,2@127.0.0.1:9402 --churn \
             join:4@3,leave:1@6 --evict-after 1.5 --behavior equivocate@2 --drop \
             0.05 --storage disk --storage-dir /var/tmp/tldag-golden --pop --trace",
            "--id 4 --listen 127.0.0.1:9404 --seed 11 --nodes 4 --side 250.5 \
             --gamma 5 --slots 10 --window 4 --batch 4 --churn join:4@3,leave:1@6 \
             --join 127.0.0.1:9400 --evict-after 1.5 --drop 0.05 --storage disk \
             --storage-dir /var/tmp/tldag-golden --pop --trace",
        ];
        for (i, (got, want)) in argv.iter().zip(expected).enumerate() {
            assert_eq!(got, want, "member {i}");
        }
        assert_eq!(argv.len(), expected.len());
    }
}
