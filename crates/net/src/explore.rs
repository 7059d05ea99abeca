//! The `tldag explore` DAG explorer: a browsable JSON view of a 2LDAG
//! deployment's DAG over the dependency-free HTTP listener `/metrics` uses,
//! from either of two sources:
//!
//! * **Disk segments** (`--segments DIR`): the durable block logs a run left
//!   behind — a `node-<i>/` or `shard-XXXX/` log directory, or a root of
//!   them (the `disk` and `disk-sharded` layouts). Every chain and the
//!   cross-chain digest edges are served straight from the logs' indexes;
//!   the explorer holds the logs (and their locks) while it serves.
//! * **A live node** (`--target ADDR`, the node's `--metrics-addr`): its
//!   `/metrics` + `/trace` proxied into a causal view — chain/PoP state
//!   from the exposition, per-slot block lifecycle timelines from the spans.
//!
//! Endpoints (both sources):
//!
//! * `GET /dag` — chains, lengths and heads (segments), or live chain/PoP
//!   state plus timeline count (live).
//! * `GET /slot/<t>` — the blocks generated at slot `t` with their digest
//!   edges (segments) or their lifecycle timelines (live).
//! * `GET /block/<o>-<q>` — one block: header fields, digest entries with
//!   resolved parent blocks, and resolved children (segments, `o-q` = owner
//!   and sequence number), or its timelines (live, `o-q` = origin and slot).

use crate::forensics::timelines_for_slot;
// A glob so the unit tests' `use super::*` still finds `HashMap`.
use std::collections::*;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tldag_core::block::DataBlock;
use tldag_core::store::BlockBackend;
use tldag_crypto::Digest;
use tldag_obs::{http_get, HttpServer, Routes};
use tldag_storage::{DurableStore, ShardLog, ShardedNodeStore, StorageOptions};

/// Where the explorer reads its DAG from.
#[derive(Clone, Debug)]
pub enum ExplorerSource {
    /// Proxy a live node's `/metrics` + `/trace` endpoints.
    Live(SocketAddr),
    /// Open durable block logs under this directory (a log directory, or a
    /// root of `node-<i>` / `shard-XXXX` log directories).
    Segments(PathBuf),
}

/// Every chain under a segments root, by owner.
type Chains = BTreeMap<u32, Box<dyn BlockBackend>>;

/// Opens every block log under `root` as one [`BlockBackend`] per owner: a
/// [`DurableStore`] for a one-owner `node-<i>` log, and [`ShardedNodeStore`]
/// views of one [`ShardLog`] for a `shard-XXXX` log.
///
/// # Errors
///
/// An unreadable directory, a locked or corrupt log, or a root with no
/// blocks at all.
fn open_chains(root: &Path) -> Result<Chains, String> {
    let named = |dir: &Path, prefix: &str| {
        dir.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(prefix))
    };
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .map_err(|e| format!("cannot read {}: {e}", root.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.is_dir() && (named(path, "node-") || named(path, "shard-")))
        .collect();
    if dirs.is_empty() {
        // A single log directory.
        dirs.push(root.to_path_buf());
    }
    dirs.sort();
    let mut chains = Chains::new();
    for dir in &dirs {
        let cannot_open = |e| format!("cannot open block log {}: {e}", dir.display());
        if named(dir, "shard-") {
            let log = ShardLog::open(dir, StorageOptions::default()).map_err(cannot_open)?;
            let owners: Vec<_> = log.owners().collect();
            let log = Arc::new(Mutex::new(log));
            for owner in owners {
                let view = ShardedNodeStore::new(Arc::clone(&log), owner);
                chains.insert(owner.0, Box::new(view));
            }
        } else {
            let store = DurableStore::open(dir, StorageOptions::default()).map_err(cannot_open)?;
            let owner = store.iter_meta().next().map(|(id, _)| id.owner.0);
            if let Some(owner) = owner {
                chains.insert(owner, Box::new(store));
            }
        }
    }
    if chains.is_empty() {
        return Err(format!("no blocks under {}", root.display()));
    }
    Ok(chains)
}

/// Blocks a chain still holds (its length less the pruned prefix).
fn retained(chain: &dyn BlockBackend) -> usize {
    chain.len() - chain.pruned_floor() as usize
}

/// A block's explorer id, `<owner>-<seq>`.
fn block_id(block: &DataBlock) -> String {
    format!("{}-{}", block.id.owner.0, block.id.seq)
}

fn json_str_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn block_json(chains: &Chains, block: &DataBlock) -> String {
    let edges = json_str_array(block.header.digests.iter().map(|entry| {
        let parent = chains
            .get(&entry.origin.0)
            .and_then(|chain| chain.by_header_digest(&entry.digest));
        format!(
            "{{\"origin\":{},\"digest\":\"{}\",\"block\":{}}}",
            entry.origin.0,
            entry.digest,
            parent.map_or("null".to_string(), |p| format!("\"{}\"", block_id(&p)))
        )
    }));
    let digest = block.header_digest();
    let children = json_str_array(
        chains
            .values()
            .flat_map(|chain| chain.children_of(&digest))
            .map(|child| format!("\"{}\"", block_id(&child))),
    );
    format!(
        "{{\"id\":\"{}\",\"owner\":{},\"seq\":{},\"slot\":{},\"digest\":\"{digest}\",\
\"edges\":{edges},\"children\":{children}}}",
        block_id(block),
        block.id.owner.0,
        block.id.seq,
        block.header.time,
    )
}

fn dag_json(chains: &Chains) -> String {
    let heads = json_str_array(chains.iter().map(|(owner, chain)| {
        format!(
            "{{\"node\":{owner},\"len\":{},\"head\":\"{}\"}}",
            retained(chain.as_ref()),
            chain
                .latest_digest()
                .as_ref()
                .map_or_else(String::new, Digest::to_string)
        )
    }));
    format!(
        "{{\"source\":\"segments\",\"nodes\":{},\"blocks\":{},\"max_slot\":{},\
\"chains\":{heads}}}",
        chains.len(),
        chains.values().map(|c| retained(c.as_ref())).sum::<usize>(),
        chains
            .values()
            .filter_map(|c| c.latest())
            .map(|b| b.header.time)
            .max()
            .unwrap_or(0)
    )
}

fn slot_json(chains: &Chains, slot: u64) -> String {
    let blocks = json_str_array(chains.values().flat_map(|chain| {
        chain
            .iter_meta()
            .filter(|&(_, time)| time == slot)
            .filter_map(|(id, _)| chain.get(id.seq))
            .map(|block| block_json(chains, &block))
            .collect::<Vec<_>>()
    }));
    format!("{{\"slot\":{slot},\"blocks\":{blocks}}}")
}

/// Parses an `/block/<a>-<b>` or `/slot/<t>` style path suffix.
fn parse_pair(suffix: &str) -> Option<(u32, u64)> {
    let (a, b) = suffix.split_once('-')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

const JSON: &str = "application/json";

fn segment_routes(chains: Chains) -> Arc<Routes> {
    Arc::new(move |path: &str| -> Option<(String, String)> {
        if path == "/dag" {
            return Some((JSON.to_string(), dag_json(&chains)));
        }
        if let Some(raw) = path.strip_prefix("/slot/") {
            let slot: u64 = raw.parse().ok()?;
            return Some((JSON.to_string(), slot_json(&chains, slot)));
        }
        if let Some(raw) = path.strip_prefix("/block/") {
            let (owner, seq) = parse_pair(raw)?;
            let block = chains.get(&owner)?.get(u32::try_from(seq).ok()?)?;
            return Some((JSON.to_string(), block_json(&chains, &block)));
        }
        None
    })
}

/// Live-mode scrape timeout: a node answering slower than this misses the
/// request rather than wedging the explorer.
const LIVE_TIMEOUT: Duration = Duration::from_secs(2);

fn live_routes(target: SocketAddr) -> Arc<Routes> {
    Arc::new(move |path: &str| -> Option<(String, String)> {
        if path == "/dag" {
            let samples = crate::telemetry::scrape_metrics(target, LIVE_TIMEOUT).ok()?;
            let row = crate::telemetry::StatusRow::from_samples(target.to_string(), &samples);
            let timelines = http_get(target, "/trace", LIVE_TIMEOUT)
                .map(|t| t.matches("\"stitched\":").count())
                .unwrap_or(0);
            let status = row.to_json();
            return Some((
                JSON.to_string(),
                format!(
                    "{{\"source\":\"live\",\"target\":\"{target}\",\"timelines\":{timelines},\
\"status\":{status}}}"
                ),
            ));
        }
        if let Some(raw) = path.strip_prefix("/slot/") {
            let slot: u64 = raw.parse().ok()?;
            let trace = http_get(target, "/trace", LIVE_TIMEOUT).ok()?;
            let timelines = json_str_array(timelines_for_slot(&trace, slot));
            return Some((
                JSON.to_string(),
                format!("{{\"slot\":{slot},\"timelines\":{timelines}}}"),
            ));
        }
        if let Some(raw) = path.strip_prefix("/block/") {
            let (origin, slot) = parse_pair(raw)?;
            let trace = http_get(target, "/trace", LIVE_TIMEOUT).ok()?;
            let wanted = format!("{{\"slot\":{slot},\"origin\":{origin},");
            let timelines = json_str_array(
                timelines_for_slot(&trace, slot)
                    .into_iter()
                    .filter(|t| t.starts_with(&wanted)),
            );
            return Some((
                JSON.to_string(),
                format!("{{\"origin\":{origin},\"slot\":{slot},\"timelines\":{timelines}}}"),
            ));
        }
        None
    })
}

/// The running explorer server.
#[derive(Debug)]
pub struct Explorer {
    server: HttpServer,
}

impl Explorer {
    /// Builds the DAG view for `source` and serves it on `listen`
    /// (port 0 picks a free port — read it back with [`Explorer::addr`]).
    ///
    /// # Errors
    ///
    /// An unreadable or empty segment directory, or a bind failure.
    pub fn spawn(listen: SocketAddr, source: ExplorerSource) -> Result<Explorer, String> {
        let routes = match source {
            ExplorerSource::Segments(root) => segment_routes(open_chains(&root)?),
            ExplorerSource::Live(target) => live_routes(target),
        };
        let server = HttpServer::spawn(listen, routes)
            .map_err(|e| format!("cannot serve explorer on {listen}: {e}"))?;
        Ok(Explorer { server })
    }

    /// The bound listen address (resolved when `listen` used port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the listener.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tldag_core::config::ProtocolConfig;
    use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
    use tldag_crypto::schnorr::KeyPair;
    use tldag_sim::NodeId;

    /// Two tiny chains on disk: node 0 and node 1, two blocks each, with
    /// node 1's second block referencing node 0's first — one cross-chain
    /// DAG edge to resolve.
    fn seed_segments(root: &Path) -> Digest {
        let cfg = ProtocolConfig::test_default();
        let mut cross_edge = Digest::ZERO;
        let mut prev: HashMap<u32, Digest> = HashMap::new();
        for owner in 0..2u32 {
            let kp = KeyPair::from_seed(1000 + u64::from(owner));
            let dir = root.join(format!("node-{owner}"));
            let mut store = DurableStore::open(&dir, StorageOptions::default()).expect("open");
            for seq in 0..2u32 {
                let mut digests = Vec::new();
                if let Some(own_prev) = prev.get(&owner) {
                    digests.push(DigestEntry {
                        origin: NodeId(owner),
                        digest: *own_prev,
                    });
                }
                if owner == 1 && seq == 1 {
                    digests.push(DigestEntry {
                        origin: NodeId(0),
                        digest: cross_edge,
                    });
                }
                let block = DataBlock::create(
                    &cfg,
                    BlockId::new(NodeId(owner), seq),
                    u64::from(seq),
                    digests,
                    BlockBody::new(vec![owner as u8, seq as u8], cfg.body_bits),
                    &kp,
                );
                let digest = block.header_digest();
                if owner == 0 && seq == 0 {
                    cross_edge = digest;
                }
                prev.insert(owner, digest);
                store.append(block).expect("append");
            }
            store.sync().expect("sync");
        }
        cross_edge
    }

    #[test]
    fn segments_explorer_serves_dag_slot_and_block() {
        let root = std::env::temp_dir().join(format!("tldag-explore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("mkdir");
        let cross_edge = seed_segments(&root);

        let explorer = Explorer::spawn(
            "127.0.0.1:0".parse().expect("addr"),
            ExplorerSource::Segments(root.clone()),
        )
        .expect("spawn explorer");
        let addr = explorer.addr();

        let dag = http_get(addr, "/dag", Duration::from_secs(2)).expect("GET /dag");
        assert!(dag.contains("\"source\":\"segments\""));
        assert!(dag.contains("\"nodes\":2"));
        assert!(dag.contains("\"blocks\":4"));

        let slot1 = http_get(addr, "/slot/1", Duration::from_secs(2)).expect("GET /slot/1");
        assert!(slot1.contains("\"id\":\"0-1\""));
        assert!(slot1.contains("\"id\":\"1-1\""));

        // Node 1's second block must resolve its cross-chain edge to 0-0
        // and 0-0 must list 1-1 among its children.
        let b11 = http_get(addr, "/block/1-1", Duration::from_secs(2)).expect("GET /block/1-1");
        assert!(
            b11.contains("\"block\":\"0-0\""),
            "edge must resolve: {b11}"
        );
        let b00 = http_get(addr, "/block/0-0", Duration::from_secs(2)).expect("GET /block/0-0");
        assert!(b00.contains(&format!("\"digest\":\"{cross_edge}\"")));
        assert!(b00.contains("\"1-1\""), "children must include 1-1: {b00}");

        // Unknown ids are a 404, not a panic.
        assert!(http_get(addr, "/block/9-9", Duration::from_secs(2)).is_err());

        explorer.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_or_missing_segment_root_is_a_clean_error() {
        let root = std::env::temp_dir().join(format!("tldag-explore-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let listen: SocketAddr = "127.0.0.1:0".parse().expect("addr");
        assert!(Explorer::spawn(listen, ExplorerSource::Segments(root.clone())).is_err());
        std::fs::create_dir_all(&root).expect("mkdir");
        let err = Explorer::spawn(listen, ExplorerSource::Segments(root.clone()))
            .expect_err("empty root must fail");
        assert!(
            err.contains("no blocks") || err.contains("cannot open"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
