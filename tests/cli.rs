//! The `tldag` binary's simulator commands (`topology`, `run`, `verify`),
//! each spawned as a child process at a small scale.

use std::process::{Command, Output};

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
