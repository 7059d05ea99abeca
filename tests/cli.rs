//! The `tldag` binary, spawned as a child process at a small scale: the
//! simulator commands (`topology`, `run`, `verify`), `status` against
//! fixed expositions, `explore --segments` on every disk layout, and the
//! flag checks every subcommand shares.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::Duration;
use tldag::core::pop::PopMetrics;
use tldag::net::harness::discover_tcp_ports;
use tldag::net::metrics::NetStats;
use tldag::net::{render_metrics, MetricsView, NodeTelemetry};
use tldag::obs::hist::HistogramSnapshot;
use tldag::obs::{http_get, HttpServer};
use tldag::sim::NodeId;

fn tldag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tldag"))
        .args(args)
        .output()
        .expect("spawn the tldag binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_success(args: &[&str]) -> String {
    let out = tldag(args);
    assert!(
        out.status.success(),
        "tldag {args:?} failed: {}\n{}",
        out.status,
        stderr(&out)
    );
    stdout(&out)
}

#[test]
fn topology_prints_every_node() {
    let text = assert_success(&["topology", "--nodes", "8"]);
    assert!(text.starts_with("8 nodes"), "{text}");
    assert_eq!(text.lines().count(), 9, "a summary line, then one per node");
}

#[test]
fn traced_run_prints_generate_and_pop_lines() {
    let text = assert_success(&["run", "--nodes", "8", "--slots", "12", "--trace"]);
    let events = text
        .split_once("last events:")
        .expect("--trace prints the journal")
        .1;
    assert!(events.contains("] gen n"), "{events}");
    assert!(events.contains("] pop n"), "{events}");
    assert!(
        events.contains(": ok ("),
        "PoP lines say ok or failed: {events}"
    );
    assert!(
        !events.contains("Ok("),
        "no Debug-formatted Result: {events}"
    );
}

#[test]
fn disk_run_persists_trust_caches() {
    let dir = std::env::temp_dir().join(format!("tldag-cli-disk-{}", std::process::id()));
    for (storage, extra, first_dir) in [
        ("disk", &[][..], "node-0"),
        (
            "disk-sharded",
            &["--retain-bytes", "8192"][..],
            "shard-0000",
        ),
    ] {
        let mut argv = vec![
            "run",
            "--nodes",
            "8",
            "--slots",
            "12",
            "--storage",
            storage,
            "--storage-dir",
            dir.to_str().expect("utf-8 temp dir"),
            "--persist-trust-cache",
        ];
        argv.extend_from_slice(extra);
        let text = assert_success(&argv);
        assert!(
            text.contains(&format!("storage backend: {storage} (")),
            "{text}"
        );
        assert!(text.contains("trust caches"), "{text}");
        assert_eq!(text.contains("retention"), !extra.is_empty(), "{text}");
        assert!(dir.join(first_dir).is_dir(), "{storage}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn run_and_verify_apply_topology_protocol_and_engine_flags() {
    let text = assert_success(&[
        "run",
        "--nodes",
        "8",
        "--seed",
        "5",
        "--side",
        "250",
        "--slots",
        "12",
        "--malicious",
        "2",
        "--threads",
        "2",
        "--sync-policy",
        "grouped:2",
    ]);
    assert!(text.contains("malicious (unresponsive): ["), "{text}");
    assert!(
        text.contains("engine              : 2 thread(s), sync policy grouped:2"),
        "{text}"
    );
    let text = assert_success(&[
        "verify", "--owner", "1", "--nodes", "8", "--slots", "12", "--gamma", "4",
    ]);
    assert!(text.contains("(γ = 4,"), "{text}");
    let text = assert_success(&["topology", "--nodes", "8", "--side", "250", "--seed", "7"]);
    assert!(text.starts_with("8 nodes, seed 7:"), "{text}");
}

#[test]
fn cluster_passes_its_node_knobs_to_every_process() {
    let dir = std::env::temp_dir().join(format!("tldag-cli-cluster-{}", std::process::id()));
    let text = assert_success(&[
        "cluster",
        "--nodes",
        "3",
        "--slots",
        "5",
        "--seed",
        "3",
        "--side",
        "280",
        "--gamma",
        "3",
        "--pop",
        "--window",
        "2",
        "--batch",
        "4",
        "--drop",
        "0.05",
        "--evict-after",
        "10",
        "--timeout",
        "60",
        "--storage",
        "disk",
        "--storage-dir",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(text.contains("PARITY OK"), "{text}");
    for i in 0..3 {
        assert!(
            dir.join(format!("node-{i}")).is_dir(),
            "node {i} kept its chain on disk"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let out = tldag(&["cluster", "--nodes", "3", "--base-port", "65534"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--base-port 65534"), "{err}");
}

#[test]
fn verify_prints_a_proof_path() {
    let text = assert_success(&[
        "verify", "--owner", "1", "--seq", "0", "--nodes", "8", "--slots", "12",
    ]);
    assert!(text.contains("CONSENSUS"), "{text}");
    assert!(text.contains("proof path:"), "{text}");
}

#[test]
fn out_of_range_ids_are_errors_not_panics() {
    for (flag, args) in [
        (
            "--validator",
            ["--owner", "1", "--validator", "99"].as_slice(),
        ),
        ("--owner", ["--owner", "99"].as_slice()),
    ] {
        let mut argv = vec!["verify", "--nodes", "8", "--slots", "12"];
        argv.extend_from_slice(args);
        let out = tldag(&argv);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "tldag {argv:?}: {err}");
        assert!(err.contains(flag), "the error names {flag}: {err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn undeclared_or_malformed_flags_exit_1_naming_the_flag() {
    for (argv, flag) in [
        (&["run", "--slot", "10"][..], "--slot"),
        (&["cluster", "--windw", "4"][..], "--windw"),
        (&["cluster", "--pop", "3"][..], "--pop"),
        (&["run", "--slots"][..], "--slots"),
    ] {
        let out = tldag(argv);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "tldag {argv:?}: {err}");
        assert!(err.contains(flag), "the error names {flag}: {err}");
        assert!(stdout(&out).is_empty(), "nothing ran: {}", stdout(&out));
    }
}

/// A node's exposition with the fields `tldag status` tabulates set.
fn metrics_view(node: u32, chain_len: u64, pop_attempts: u64, pop_successes: u64) -> MetricsView {
    let telemetry = NodeTelemetry::new(4);
    MetricsView {
        node: NodeId(node),
        slot: chain_len,
        window: 1,
        window_occupancy: 1,
        watermark_lag: 0,
        net: NetStats::default(),
        pop: PopMetrics::default(),
        pop_attempts,
        pop_successes,
        chain_len,
        durable_len: chain_len,
        pruned_floor: 0,
        fsync_count: 0,
        segment_count: 0,
        roster_members: 2,
        roster_departed: 0,
        blacklist_banned: 0,
        adversaries_detected: 0,
        journal_len: 0,
        journal_dropped: 0,
        trace_spans: 0,
        trace_dropped: 0,
        trace_evicted: 0,
        phases: telemetry.phases.snapshot(),
        pop_rtt: telemetry.pop_rtt.snapshot(),
        request_rtt: HistogramSnapshot::default(),
        retry_backoff: HistogramSnapshot::default(),
        fsync: telemetry.fsync.snapshot(),
        slot_latency: telemetry.slot_latency.snapshot(),
        batch_fill: HistogramSnapshot::default(),
    }
}

#[test]
fn status_tabulates_every_target_and_a_total() {
    let servers: Vec<HttpServer> = [(0, 8, 5, 4), (1, 6, 3, 3)]
        .into_iter()
        .map(|(node, chain, attempts, successes)| {
            let body = render_metrics(&metrics_view(node, chain, attempts, successes));
            let routes = Arc::new(move |path: &str| {
                (path == "/metrics").then(|| ("text/plain".to_string(), body.clone()))
            });
            HttpServer::spawn("127.0.0.1:0".parse().expect("addr"), routes).expect("serve")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let targets = addrs.join(",");

    let table = assert_success(&["status", "--targets", &targets]);
    let row = |target: &str| -> Vec<String> {
        let line = table
            .lines()
            .find(|l| l.starts_with(target))
            .unwrap_or_else(|| panic!("no {target} row: {table}"));
        line.split_whitespace().map(str::to_string).collect()
    };
    // TARGET NODE SLOT CHAIN POP-OK/AT ...
    assert_eq!(row(&addrs[0])[1..5], ["0", "8", "8", "4/5"]);
    assert_eq!(row(&addrs[1])[1..5], ["1", "6", "6", "3/3"]);
    assert_eq!(row("TOTAL")[1..5], ["-", "8", "14", "7/8"]);

    let json = assert_success(&["status", "--targets", &targets, "--json", "--timeout", "2"]);
    for (addr, node, chain) in [(&addrs[0], 0, 8), (&addrs[1], 1, 6)] {
        let expected = format!(
            "{{\"target\":\"{addr}\",\"node\":{node},\"slot\":{chain},\"chain_len\":{chain},"
        );
        assert!(json.contains(&expected), "{expected} in {json}");
    }
    assert!(
        json.contains(
            "\"total\":{\"target\":\"TOTAL\",\"node\":null,\"slot\":8,\"chain_len\":14,\
\"pop_attempts\":8,\"pop_successes\":7,"
        ),
        "{json}"
    );
    // The live explorer proxies one of the same expositions.
    let live = explore(&["--target", &addrs[1]], &["/dag"]);
    assert!(live[0].contains("\"source\":\"live\""), "{}", live[0]);
    assert!(live[0].contains("\"chain_len\":6,"), "{}", live[0]);
    for server in servers {
        server.shutdown();
    }

    let dead: Vec<String> = discover_tcp_ports(2)
        .expect("probe ports")
        .iter()
        .map(ToString::to_string)
        .collect();
    let out = tldag(&["status", "--targets", &dead.join(","), "--timeout", "0.5"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("no target answered"), "{err}");
}

/// The `blocks network-wide` count a `tldag run` into `dir` reports.
fn run_into(dir: &Path, storage: &[&str]) -> usize {
    let _ = std::fs::remove_dir_all(dir);
    let mut argv = vec![
        "run",
        "--nodes",
        "6",
        "--slots",
        "8",
        "--storage-dir",
        dir.to_str().expect("utf-8 temp dir"),
    ];
    argv.extend_from_slice(storage);
    let text = assert_success(&argv);
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("blocks network-wide :"))
        .unwrap_or_else(|| panic!("no block count: {text}"));
    line.trim().parse().expect("a count")
}

/// Starts `tldag explore` on `source` and GETs each path.
fn explore(source: &[&str], paths: &[&str]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tldag"))
        .arg("explore")
        .args(source)
        .args(["--duration", "5"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the explorer");
    // Held open until the explorer is killed: it prints more after this.
    let mut announced = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    announced
        .read_line(&mut line)
        .expect("the explorer announces its address");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("explorer listening on ")
        .unwrap_or_else(|| panic!("{line}"))
        .parse()
        .expect("an address");
    let bodies = paths
        .iter()
        .map(|path| http_get(addr, path, Duration::from_secs(2)).expect("GET"))
        .collect();
    let _ = child.kill();
    let _ = child.wait();
    bodies
}

#[test]
fn explorer_serves_every_disk_layout() {
    let root = std::env::temp_dir().join(format!("tldag-cli-explore-{}", std::process::id()));
    for (storage, extra, one_dir, owners) in [
        ("disk", &[][..], "node-2", 1),
        ("disk-sharded", &["--threads", "2"][..], "shard-0001", 3),
    ] {
        let dir = root.join(storage);
        let mut argv = vec!["--storage", storage];
        argv.extend_from_slice(extra);
        let blocks = run_into(&dir, &argv);
        assert_eq!(blocks, 48, "6 nodes x 8 slots");

        let got = explore(
            &["--segments", dir.to_str().expect("utf-8 temp dir")],
            &["/dag", "/slot/3", "/block/4-2"],
        );
        assert!(
            got[0].contains("\"source\":\"segments\""),
            "{storage}: {}",
            got[0]
        );
        assert!(
            got[0].contains(&format!("\"blocks\":{blocks},")),
            "{storage}: {}",
            got[0]
        );
        assert!(got[0].contains("\"nodes\":6,"), "{storage}: {}", got[0]);
        for owner in 0..6 {
            let id = format!("\"id\":\"{owner}-3\"");
            assert!(got[1].contains(&id), "{storage}: {id} in {}", got[1]);
        }
        assert!(got[2].contains("\"id\":\"4-2\""), "{storage}: {}", got[2]);
        assert!(
            got[2].contains("\"block\":\"4-1\""),
            "own-chain edge resolves: {}",
            got[2]
        );
        assert!(
            got[2].contains("\"children\":[\""),
            "children resolve: {}",
            got[2]
        );

        let one_dir = dir.join(one_dir);
        let single = explore(&["--segments", one_dir.to_str().expect("utf-8")], &["/dag"]);
        assert!(
            single[0].contains(&format!("\"nodes\":{owners},\"blocks\":{},", owners * 8)),
            "{} serves its owners: {}",
            one_dir.display(),
            single[0]
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
