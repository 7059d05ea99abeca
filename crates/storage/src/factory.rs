//! The two [`BackendFactory`]s over the durable block log: a log per node
//! ([`DiskFactory`]) or per shard ([`ShardedDiskFactory`]), plus `H_i`
//! persistence for both.

use crate::log::{DurableStore, ShardLog, ShardedNodeStore};
use crate::segment::StorageOptions;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tldag_core::codec;
use tldag_core::error::TldagError;
use tldag_core::store::{BackendFactory, BlockBackend, TrustCache};
use tldag_sim::engine::Sharding;
use tldag_sim::NodeId;

/// Provisions one [`DurableStore`] per node under a root directory
/// (`root/node-<id>/`), implementing [`BackendFactory`] so
/// `TldagNetwork::with_factory` can run any experiment disk-backed. Also
/// persists each node's trusted-header cache `H_i` (`trust.cache` in the
/// node directory) when the network opts in.
#[derive(Debug)]
pub struct DiskFactory {
    root: PathBuf,
    opts: StorageOptions,
}

impl DiskFactory {
    /// A factory rooted at `root` with the given engine options.
    pub fn new(root: impl Into<PathBuf>, opts: StorageOptions) -> Self {
        DiskFactory {
            root: root.into(),
            opts,
        }
    }

    fn node_dir(&self, node: NodeId) -> PathBuf {
        self.root.join(format!("node-{}", node.0))
    }

    fn trust_path(&self, node: NodeId) -> PathBuf {
        self.node_dir(node).join("trust.cache")
    }
}

impl BackendFactory for DiskFactory {
    /// Creates a **fresh** store for `node`, wiping any leftovers from a
    /// previous run of the same experiment.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — a simulation cannot
    /// proceed without its storage root.
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
        let dir = self.node_dir(node);
        let _ = fs::remove_dir_all(&dir);
        Box::new(
            DurableStore::open(&dir, self.opts.clone())
                .unwrap_or_else(|e| panic!("cannot create store in {}: {e}", dir.display())),
        )
    }

    /// Reopens `node`'s directory, recovering the durable chain prefix.
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        Ok(Box::new(DurableStore::open(
            self.node_dir(node),
            self.opts.clone(),
        )?))
    }

    fn save_trust_cache(&mut self, node: NodeId, cache: &TrustCache) -> Result<(), TldagError> {
        write_trust_cache(&self.trust_path(node), cache)
    }

    fn load_trust_cache(&mut self, node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        Ok(read_trust_cache(&self.trust_path(node)))
    }
}

/// Provisions group-committed storage: `shards` shard logs under a root
/// directory, each shared by one **contiguous band** of node ids
/// (`tldag_sim::engine::Sharding::chunk_ranges` over the sized node
/// count). A log belongs to node ids, not to threads: the engine's threads
/// claim nodes one at a time, so with more than one thread a shard's
/// records from one slot can interleave in any order. Each member's own
/// records stay in its append order, which is all recovery needs; the byte
/// layout of a file, and so which records share a segment, can differ
/// between runs. Under a retention budget a member's pruned floor can
/// therefore differ by run too.
///
/// Implements [`BackendFactory`], so `TldagNetwork::with_factory` can run
/// any experiment with one fsync per shard per sync point. Trust caches
/// (`H_i`) are persisted per node under `root/trust/` when the network opts
/// in.
#[derive(Debug)]
pub struct ShardedDiskFactory {
    root: PathBuf,
    sharding: Sharding,
    /// Node count the bands were sized for (joiners beyond it land in the
    /// last shard). Must be the same on reattach for chains to be found.
    nodes: usize,
    opts: StorageOptions,
    logs: Vec<Option<Arc<Mutex<ShardLog>>>>,
}

impl ShardedDiskFactory {
    /// A **fresh** factory rooted at `root`, with `shards` shard logs sized
    /// for `nodes` node ids: shard-log directories (and persisted trust
    /// caches) left by a previous run are deleted. Only `shard-*`
    /// directories, legacy `shard-*.log` files, and the `trust/` directory
    /// are touched — the root may hold other data (it is often a
    /// user-supplied `--storage-dir`).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(root: impl Into<PathBuf>, shards: usize, nodes: usize) -> Self {
        let root = root.into();
        if let Ok(entries) = fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let is_shard_dir = name.starts_with("shard-") && entry.path().is_dir();
                let is_legacy_log = name.starts_with("shard-") && name.ends_with(".log");
                if is_shard_dir {
                    let _ = fs::remove_dir_all(entry.path());
                } else if is_legacy_log {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let _ = fs::remove_dir_all(root.join("trust"));
        Self::attach(root, shards, nodes)
    }

    /// Attaches to an existing root **without wiping**, recovering whatever
    /// the shard logs persisted — the whole-process restart path. `shards`
    /// and `nodes` must match the values the directory was created with,
    /// or chains will be looked up in the wrong log.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn attach(root: impl Into<PathBuf>, shards: usize, nodes: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedDiskFactory {
            root: root.into(),
            sharding: Sharding::threads(shards),
            nodes,
            opts: StorageOptions::default(),
            logs: vec![None; shards.min(nodes).max(1)],
        }
    }

    /// Overrides the engine options (segment size, flush threshold,
    /// retention budget, snapshot cadence, read cache) used for every shard
    /// log opened from now on.
    pub fn with_options(mut self, opts: StorageOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The shard a node's chain lives in: the contiguous band of
    /// [`Sharding::chunk_ranges`] over the sized node count. Stable under
    /// joins — ids at or beyond the sized count use the last shard.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.sharding.shard_of(self.nodes, node.index())
    }

    fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard:04}"))
    }

    fn trust_path(&self, node: NodeId) -> PathBuf {
        self.root
            .join("trust")
            .join(format!("node-{}.cache", node.0))
    }

    fn log_for(&mut self, shard: usize) -> Result<Arc<Mutex<ShardLog>>, TldagError> {
        if let Some(log) = &self.logs[shard] {
            return Ok(Arc::clone(log));
        }
        let log = Arc::new(Mutex::new(ShardLog::open(
            self.shard_dir(shard),
            self.opts.clone(),
        )?));
        self.logs[shard] = Some(Arc::clone(&log));
        Ok(log)
    }
}

impl BackendFactory for ShardedDiskFactory {
    /// Attaches `node` to its shard log (creating the log on first use).
    /// Unlike `DiskFactory::create`, nothing is wiped here — the wipe
    /// happened once in [`ShardedDiskFactory::new`] — because a joining
    /// node must not erase its shard-mates' chains.
    ///
    /// # Panics
    ///
    /// Panics when the shard log cannot be opened — a simulation cannot
    /// proceed without its storage root.
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
        let shard = self.shard_of(node);
        let log = self
            .log_for(shard)
            .unwrap_or_else(|e| panic!("cannot open shard log {shard}: {e}"));
        Box::new(ShardedNodeStore::new(log, node))
    }

    /// Reattaches `node` to its shard log. While the factory (or any member
    /// handle) is alive the log keeps its staged state — the shard process
    /// survived the node's crash; a factory built with
    /// [`ShardedDiskFactory::attach`] over a cold directory recovers only
    /// what was fsynced.
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        let log = self.log_for(self.shard_of(node))?;
        Ok(Box::new(ShardedNodeStore::new(log, node)))
    }

    fn save_trust_cache(&mut self, node: NodeId, cache: &TrustCache) -> Result<(), TldagError> {
        write_trust_cache(&self.trust_path(node), cache)
    }

    fn load_trust_cache(&mut self, node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        Ok(read_trust_cache(&self.trust_path(node)))
    }
}

/// Atomically persists `H_i` (tmp + rename over the previous file).
fn write_trust_cache(path: &Path, cache: &TrustCache) -> Result<(), TldagError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| TldagError::io("create trust-cache dir", &e))?;
    }
    let blob = codec::encode_trust_cache(cache);
    let tmp = path.with_extension("cache.tmp");
    fs::write(&tmp, &blob).map_err(|e| TldagError::io("write trust cache", &e))?;
    fs::rename(&tmp, path).map_err(|e| TldagError::io("publish trust cache", &e))
}

/// Loads a persisted `H_i`; a missing or undecodable file yields `None`
/// (the node simply restarts cold — `H_i` is a cache, not ledger state).
fn read_trust_cache(path: &Path) -> Option<TrustCache> {
    let blob = fs::read(path).ok()?;
    codec::decode_trust_cache(&blob).ok()
}
