//! `tldag` — command-line driver for the 2LDAG simulator and wire
//! runtime. `tldag help` prints the synopsis (`USAGE`).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use tldag::core::attack::Behavior;
use tldag::core::block::BlockId;
use tldag::core::network::TldagNetwork;
use tldag::core::store::{BackendFactory, SyncPolicy};
use tldag::core::workload::VerificationWorkload;
use tldag::net::argv::Args;
use tldag::net::{ClusterConfig, NetNodeConfig};
use tldag::obs::Journal;
use tldag::sim::bus::TrafficClass;
use tldag::sim::engine::GenerationSchedule;
use tldag::sim::engine::Sharding;
use tldag::sim::fault::{FaultPlan, MaliciousPlacement};
use tldag::sim::topology::Topology;
use tldag::sim::{DetRng, NodeId};
use tldag::storage::{DiskFactory, ShardedDiskFactory, StorageOptions};

const USAGE: &str = "\
tldag — 2LDAG / Proof-of-Path simulator

USAGE:
    tldag topology [--nodes N] [--side METERS] [--seed S]
        Print the deployment produced by the paper's placement rule.

    tldag run [--nodes N] [--side METERS] [--slots T] [--gamma G]
              [--malicious M] [--seed S] [--trace] [--threads W]
              [--sync-policy P] [--storage memory|disk|disk-sharded]
              [--storage-dir P] [--retain-bytes B] [--persist-trust-cache]
        Run a slotted simulation with the paper's verification workload
        and print storage/communication/PoP summaries (--trace: the last
        journal events).

    tldag verify --owner K [--seq Q] [--validator V] [any `run` flag but --trace]
        Run a simulation, then verify block K#Q from node V via
        Proof-of-Path and print the proof path.

    tldag node --id I --listen ADDR --peers 0@A,2@B,... [--slots T]
               [--seed S] [--nodes N] [--side M] [--gamma G] [--pop]
               [--window W] [--batch K] [--drop P] [--trace]
               [--controller ADDR] [--storage memory|disk] [--storage-dir P]
               [--join ADDR] [--churn SPEC] [--evict-after SECS]
               [--deadline SECS] [--metrics-addr ADDR] [--behavior KIND[@SLOT]]
        Run ONE real 2LDAG node over UDP: generate, gossip slot digests
        with pull-based loss recovery, serve REQ_CHILD/FetchBlock, and
        (--pop) verify blocks over the wire. G(V,E) is derived from
        (--seed, --nodes, --side), so every process agrees on it.
        --churn join:ID@SLOT,leave:ID@SLOT,... is the membership schedule,
        shared by a deployment or given to one node alone: the node's own
        join pins its first slot, its own leave:ID@M makes it generate its
        last block at M-1, announce the departure and wind down. --join
        ADDR bootstraps a late joiner off any live member (without its own
        join entry the first slot is negotiated). --evict-after SECS evicts
        a silent barrier-blocking peer; --deadline SECS caps the process
        lifetime. --metrics-addr serves GET /metrics (Prometheus text),
        /journal (JSONL) and, with --trace (causal block-lifecycle spans,
        never changing a protocol byte), /trace. --window W (PoP mode,
        1..=32) lets generation run W slots ahead of the verify worker (1 =
        lockstep); --batch K datagrams per sendmmsg/recvmmsg wakeup; --drop
        P injects deterministic datagram loss. --behavior KIND[@SLOT] makes
        the node a wire adversary from SLOT on: selfish, unresponsive,
        corrupt-reply, corrupt-store, equivocate, digest-lie, parasite,
        flapper.

    tldag cluster [--nodes N] [--slots T] [--seed S] [--side M]
                  [--gamma G] [--pop] [--window W] [--batch K] [--drop P]
                  [--trace] [--storage memory|disk] [--storage-dir P]
                  [--base-port P] [--timeout SECS] [--churn SPEC] [--metrics]
                  [--adversary SPEC] [--evict-after SECS]
        Spawn N `tldag node` processes on localhost UDP ports (plus the
        --churn joiners, bootstrapped by the join handshake), run T slots,
        and check network_digest parity against the in-memory engine
        replaying the same schedule; on a failure, print a divergence
        forensics report from the still-live nodes and exit non-zero.
        --metrics gives every node a telemetry endpoint; the `metrics
        endpoints:` line printed before they spawn lists the --targets
        for `tldag status`.
        --adversary kind:count[@slot],... (kinds as in --behavior) places
        adversaries on the highest founder ids and on the reference
        engine; the verdict is then honest-subset parity, with detection
        counters printed (a flapper needs --evict-after).

    tldag status --targets ADDR,ADDR,... [--json] [--timeout SECS]
        Scrape every node's /metrics and print one table (slot, chain, PoP,
        retries/timeouts, p50 latencies from the scraped histograms) with a
        TOTAL row, or --json. Targets silent past --timeout (default 2s)
        are skipped; exits non-zero when none answers.

    tldag explore <ADDR | --segments DIR> [--listen ADDR] [--duration SECS]
        Serve a deployment's DAG as JSON at GET /dag, /slot/<t> and
        /block/<o>-<q>: a live node's /metrics + /trace (ids origin-slot),
        or with --segments the block logs a run left behind (a node-<i> or
        shard-XXXX dir, or a root of them; ids owner-seq) with resolved
        digest edges. --listen defaults to 127.0.0.1:0 (printed);
        --duration exits after SECS.

Storage backends: `memory` (default) keeps every chain in RAM; `disk` puts
each node's chain in a durable segmented block log under --storage-dir
(default: a fresh directory under the system temp dir); `disk-sharded`
group-commits a shard of nodes into one log (one fsync per shard per sync
point, --threads shards). --threads W runs the slot loop on up to W
threads; results are byte-identical for every W. --sync-policy is
`per-append`, `per-slot` or `grouped:N` (fsync every N slots).
--retain-bytes B caps each log's disk usage (pruned blocks answer PoP with
a graceful miss); --persist-trust-cache saves each node's H_i at every
commit point. Both need a disk backend.

Defaults: --nodes 16, --side 300, --slots 40, --gamma 3, --malicious 0,
          --seq 0, --validator 0, --seed 42, --storage memory,
          --threads <cores>, --sync-policy per-slot, no retention budget.
";

// Flag tables (see `Args::parse`): `name=` takes a value, `name` is a switch.
const TOPOLOGY_FLAGS: &str = "nodes= side= seed=";
const ENGINE_FLAGS: &str = "slots= gamma= malicious= threads= sync-policy= storage= \
    storage-dir= retain-bytes= persist-trust-cache";
const RUN_FLAGS: &str = "trace";
const VERIFY_FLAGS: &str = "owner= seq= validator=";
const CLUSTER_FLAGS: &str = "nodes= slots= seed= side= gamma= pop window= batch= drop= trace \
    storage= storage-dir= base-port= timeout= churn= metrics adversary= evict-after=";
const STATUS_FLAGS: &str = "targets= json timeout=";
const EXPLORE_FLAGS: &str = "target= segments= listen= duration=";

fn build_topology(args: &Args) -> Result<(Topology, u64), String> {
    let nodes: usize = args.get("nodes", 16)?;
    let seed: u64 = args.get("seed", 42)?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    // The placement every wire node derives, so both run one deployment.
    let topology = tldag::net::runtime::deployment_topology(seed, nodes, args.get("side", 300.0)?);
    Ok((topology, seed))
}

fn build_network(args: &Args) -> Result<TldagNetwork, String> {
    let (topology, seed) = build_topology(args)?;
    let gamma: usize = args.get("gamma", 3)?;
    let malicious: usize = args.get("malicious", 0)?;
    if malicious >= topology.len() {
        return Err("--malicious must be below --nodes".into());
    }
    // The same definition `tldag node`/`tldag cluster` use, so simulator
    // runs and wire deployments execute one protocol.
    let cfg = tldag::net::runtime::deployment_protocol_config(gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let threads: usize = args.get("threads", Sharding::default().threads)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let sync_policy: SyncPolicy = args.get("sync-policy", SyncPolicy::PerSlot)?;
    let storage: String = args.get("storage", "memory".to_string())?;
    let retain_bytes: Option<u64> = args.opt("retain-bytes")?;
    let persist_trust = args.switch("persist-trust-cache");
    if storage == "memory" && (retain_bytes.is_some() || persist_trust) {
        return Err(
            "--retain-bytes / --persist-trust-cache need a disk backend \
(--storage disk|disk-sharded)"
                .into(),
        );
    }
    let opts = {
        let mut opts = StorageOptions::default().with_retain_disk_bytes(retain_bytes);
        if let Some(budget) = retain_bytes {
            // Compaction drops whole sealed segments at roll time, so the
            // budget only bites when segments are much smaller than it.
            opts.segment_bytes = (budget / 8).clamp(4 * 1024, opts.segment_bytes);
        }
        opts
    };
    let factory: Option<Box<dyn BackendFactory>> = match storage.as_str() {
        "memory" => None,
        "disk" | "disk-sharded" => {
            let dir = args.storage_dir("run")?;
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot use --storage-dir {}: {e}", dir.display()))?;
            let retain = retain_bytes.map_or(String::new(), |b| format!(", retain {b} B"));
            if storage == "disk" {
                println!("storage backend: disk ({}{retain})", dir.display());
                Some(Box::new(DiskFactory::new(dir, opts)))
            } else {
                let shards = format!("{threads} shard logs{retain}");
                println!(
                    "storage backend: disk-sharded ({}, {shards})",
                    dir.display()
                );
                let nodes = topology.len();
                Some(Box::new(
                    ShardedDiskFactory::new(dir, threads, nodes).with_options(opts),
                ))
            }
        }
        other => {
            return Err(format!(
                "invalid value for --storage: `{other}` (memory|disk|disk-sharded)"
            ))
        }
    };
    let mut net = match factory {
        None => TldagNetwork::new(cfg, topology.clone(), schedule, seed),
        Some(factory) => TldagNetwork::with_factory(cfg, topology.clone(), schedule, seed, factory),
    };
    net.set_sharding(Sharding::threads(threads));
    net.set_sync_policy(sync_policy);
    net.set_persist_trust_cache(persist_trust);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: topology.len() as u64,
    });
    if malicious > 0 {
        let plan = FaultPlan::select(
            &topology,
            malicious,
            MaliciousPlacement::Uniform,
            &mut DetRng::seed_from(seed ^ 0xbad),
        );
        net.apply_fault_plan(&plan, Behavior::Unresponsive);
        println!(
            "malicious (unresponsive): {:?}",
            plan.malicious_ids()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
    Ok(net)
}

fn cmd_topology(argv: &[String]) -> Result<(), String> {
    let (topo, seed) = build_topology(&Args::parse(argv, &[TOPOLOGY_FLAGS])?)?;
    println!(
        "{} nodes, seed {seed}: {} links, mean degree {:.1}, diameter {:?}",
        topo.len(),
        topo.edge_count(),
        topo.mean_degree(),
        topo.diameter()
    );
    for id in topo.node_ids() {
        let p = topo.position(id);
        let neighbors: Vec<String> = topo.neighbors(id).iter().map(ToString::to_string).collect();
        println!(
            "  {id:>4}  ({:>7.1}, {:>7.1})  deg {:>2}  -> {}",
            p.x,
            p.y,
            topo.degree(id),
            neighbors.join(" ")
        );
    }
    Ok(())
}

fn cmd_run(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &[TOPOLOGY_FLAGS, ENGINE_FLAGS, RUN_FLAGS])?;
    let slots: u64 = args.get("slots", 40)?;
    let mut net = build_network(args)?;
    if args.switch("trace") {
        net.set_journal(Journal::bounded(40));
    }
    net.try_run_slots(slots)
        .map_err(|e| format!("simulation stopped: {e}"))?;
    // Clean shutdown: flush slots staged since the last Grouped(n) boundary.
    net.sync_storage()
        .map_err(|e| format!("final storage flush failed: {e}"))?;

    let (attempts, successes) = net.pop_counters();
    println!("\nafter {slots} slots:");
    println!(
        "  engine              : {} thread(s), sync policy {}",
        net.sharding().threads,
        net.sync_policy()
    );
    println!("  blocks network-wide : {}", net.total_blocks());
    println!("  mean node storage   : {:.3} MB", net.mean_storage_mb());
    let nodes = || net.topology().node_ids().map(|id| net.node(id));
    let resident: usize = nodes().map(|n| n.store().resident_bytes()).sum();
    println!(
        "  resident block mem  : {:.1} KiB total across nodes",
        resident as f64 / 1024.0
    );
    let max_floor = nodes().map(|n| n.pruned_floor()).max().unwrap_or(0);
    if max_floor > 0 {
        println!(
            "  retention           : deepest pruned floor at seq {max_floor} \
(older blocks answer PoP with a graceful miss)"
        );
    }
    if net.persists_trust_cache() {
        let cached: usize = nodes().map(|n| n.trust_cache().len()).sum();
        println!("  trust caches        : persisted at commit points ({cached} headers total)");
    }
    let acc = net.accounting();
    println!(
        "  mean node comm (tx) : {:.4} Mb DAG-construction, {:.4} Mb consensus",
        acc.mean_node_tx(TrafficClass::DagConstruction)
            .as_megabits(),
        acc.mean_node_tx(TrafficClass::Consensus).as_megabits()
    );
    println!(
        "  PoP verifications   : {successes}/{attempts} succeeded ({:.1}%)",
        100.0 * successes as f64 / attempts.max(1) as f64
    );
    if args.switch("trace") {
        println!("\nlast events:\n{}", net.journal().render());
    }
    Ok(())
}

fn cmd_verify(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &[TOPOLOGY_FLAGS, ENGINE_FLAGS, VERIFY_FLAGS])?;
    let slots: u64 = args.get("slots", 40)?;
    let owner: u32 = args.required("owner")?;
    let seq: u32 = args.get("seq", 0)?;
    let validator: u32 = args.get("validator", 0)?;
    let mut net = build_network(args)?;
    let nodes = net.topology().len();
    for (flag, id) in [("owner", owner), ("validator", validator)] {
        if id as usize >= nodes {
            return Err(format!("--{flag} {id} out of range (--nodes {nodes})"));
        }
    }
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.try_run_slots(slots)
        .map_err(|e| format!("simulation stopped: {e}"))?;
    net.sync_storage()
        .map_err(|e| format!("final storage flush failed: {e}"))?;

    let target = BlockId::new(NodeId(owner), seq);
    if net.node(NodeId(owner)).store().get(seq).is_none() {
        return Err(format!("{target} does not exist (chain too short)"));
    }
    println!(
        "verifying {target} from n{validator} (γ = {}, threshold {})",
        net.config().gamma,
        net.config().consensus_threshold()
    );
    let report = net.run_pop(NodeId(validator), target, false);
    match &report.outcome {
        Ok(()) => {
            println!(
                "CONSENSUS: {} distinct nodes vouch, {} messages, {} on the air",
                report.distinct_nodes,
                report.metrics.total_messages(),
                report.metrics.total_bits()
            );
            println!("proof path:");
            for step in &report.path {
                println!("  {} (block {})", step.owner, step.block_id);
            }
            Ok(())
        }
        Err(e) => Err(format!("verification failed: {e}")),
    }
}

fn cmd_node(argv: &[String]) -> Result<(), String> {
    let config = NetNodeConfig::from_args(argv)?;
    let outcome = tldag::net::NetNode::new(config)?
        .run()
        .map_err(|e| format!("node failed: {e}"))?;
    let run = outcome.run;
    println!(
        "node {}: {} slots, chain {} blocks, chain digest {}",
        run.node, run.slots, run.chain_len, run.chain_digest
    );
    if run.catch_up_ms > 0 {
        println!("  join    : caught up in {} ms", run.catch_up_ms);
    }
    println!(
        "  PoP     : {}/{} verified over the wire",
        run.pop_successes, run.pop_attempts
    );
    let s = outcome.stats;
    println!(
        "  wire    : {} datagrams out / {} in, {} retries, {} timeouts",
        s.datagrams_sent, s.datagrams_received, s.request_retries, s.request_timeouts
    );
    println!(
        "  dropped : {} crc, {} malformed, {} unknown-tag, {} codec",
        s.crc_drops, s.malformed_drops, s.unknown_tag_drops, s.codec_error_drops
    );
    if run.degraded {
        return Err("run degraded: a digest barrier timed out".into());
    }
    Ok(())
}

fn cmd_cluster(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[CLUSTER_FLAGS])?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let nodes: usize = args.get("nodes", 3)?;
    let slots: u64 = args.get("slots", 6)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut config = ClusterConfig::new(exe, nodes, slots, seed);
    let d = &mut config.deployment;
    d.node.read_shared_flags(&args, "cluster")?;
    d.adversaries =
        tldag::net::parse_adversary_spec(&args.get("adversary", String::new())?, nodes)?;
    config.base_port = args.opt("base-port")?;
    if let Some(timeout) = args.secs("timeout")? {
        config.report_timeout = timeout;
    }
    config.metrics = args.switch("metrics");

    let deployment = &config.deployment;
    let mut header = format!(
        "cluster: {} node processes × {slots} slots (seed {seed}",
        deployment.members()
    );
    if deployment.node.pop {
        header += ", PoP on";
    }
    if !deployment.node.churn.is_empty() {
        let churn = tldag::net::membership::format_churn_spec(&deployment.node.churn);
        header += &format!(", churn {churn}");
    }
    if let Some(root) = &deployment.node.storage {
        header += &format!(", disk under {}", root.display());
    }
    println!("{header})");
    if !deployment.adversaries.is_empty() {
        println!(
            "adversaries: {}",
            tldag::net::format_adversary_schedule(&deployment.adversaries)
        );
    }
    let outcome = tldag::net::run_cluster(&config)?;
    for report in &outcome.reports {
        println!(
            "  node {:>3}: {} blocks, digest {}, PoP {}/{}{}",
            report.node.0,
            report.chain_len,
            report.chain_digest,
            report.pop_successes,
            report.pop_attempts,
            if report.degraded { "  [DEGRADED]" } else { "" }
        );
    }
    let verdict = &outcome.verdict;
    print!("{verdict}");
    let n = &verdict.net;
    println!(
        "  wire totals              : {} datagrams out / {} in, {} retries, {} timeouts",
        n.datagrams_sent, n.datagrams_received, n.request_retries, n.request_timeouts
    );
    if verdict.adversarial {
        println!(
            "  adversary detection      : {} digest conflicts, {} conflict pulls, \
{} flap rejections, {} evictions",
            n.digest_conflicts, n.conflict_pulls, n.flap_rejections, n.evictions
        );
    }
    // The verdict for an adversarial run is the honest-subset digest: a
    // dark adversary legitimately forks its own chain from the engine, and
    // excluding it is the protocol working, not a reproduction bug. An
    // honest run must also match the engine's PoP counters.
    if verdict.holds() {
        if verdict.adversarial {
            println!("HONEST PARITY OK: honest nodes reproduced the in-memory engine under attack");
        } else {
            println!("PARITY OK: the UDP cluster reproduced the in-memory engine exactly");
        }
        Ok(())
    } else {
        for id in &verdict.diverged {
            println!("  MISMATCH at node {}", id.0);
        }
        // The harness already pulled per-slot evidence from the live
        // nodes before releasing them — name the fork, don't just panic.
        if let Some(forensics) = &outcome.forensics {
            print!("{}", forensics.render());
        }
        if verdict.honest_parity() {
            Err("PARITY FAILED: wire and in-memory PoP counters differ".into())
        } else {
            Err("PARITY FAILED: wire and in-memory digests differ".into())
        }
    }
}

fn cmd_explore(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[EXPLORE_FLAGS])?;
    let source = match (args.opt("target")?, args.opt::<PathBuf>("segments")?) {
        (Some(addr), None) => tldag::net::ExplorerSource::Live(addr),
        (None, Some(dir)) => tldag::net::ExplorerSource::Segments(dir),
        (Some(_), Some(_)) => return Err("--target and --segments are mutually exclusive".into()),
        (None, None) => return Err("explore needs a node's metrics ADDR or --segments DIR".into()),
    };
    let listen: SocketAddr = args.get("listen", SocketAddr::from(([127, 0, 0, 1], 0)))?;
    let explorer = tldag::net::Explorer::spawn(listen, source)?;
    println!("explorer listening on {}", explorer.addr());
    println!("  GET /dag  GET /slot/<t>  GET /block/<o>-<q>");
    match args.secs("duration")? {
        Some(duration) if !duration.is_zero() => {
            std::thread::sleep(duration);
            explorer.shutdown();
        }
        _ => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    Ok(())
}

fn cmd_status(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[STATUS_FLAGS])?;
    let raw: String = args.required("targets")?;
    let timeout = args.secs("timeout")?.unwrap_or(Duration::from_secs(2));
    let mut rows = Vec::new();
    let mut per_node = Vec::new();
    for target in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let addr: SocketAddr = target
            .parse()
            .map_err(|_| format!("invalid target `{target}` (expected HOST:PORT)"))?;
        match tldag::net::scrape_metrics(addr, timeout) {
            Ok(samples) => {
                rows.push(tldag::net::StatusRow::from_samples(target, &samples));
                per_node.push(samples);
            }
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    if rows.is_empty() {
        return Err("no target answered".into());
    }
    let total = tldag::net::total_row(&per_node, &rows);
    if args.switch("json") {
        println!("{}", tldag::net::status_json(&rows, &total));
    } else {
        let mut all = rows;
        all.push(total);
        print!("{}", tldag::net::render_status_table(&all));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `tldag explore HOST:PORT` sugar: the one positional operand becomes
    // the --target flag before the uniform flag parser sees it.
    if command == "explore" && argv.get(1).is_some_and(|a| !a.starts_with("--")) {
        argv.insert(1, "--target".to_string());
    }
    let rest = &argv[1..];
    let result = match command.as_str() {
        "topology" => cmd_topology(rest),
        "run" => cmd_run(rest),
        "verify" => cmd_verify(rest),
        "node" => cmd_node(rest),
        "cluster" => cmd_cluster(rest),
        "status" => cmd_status(rest),
        "explore" => cmd_explore(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `tldag help` for usage");
            ExitCode::FAILURE
        }
    }
}
