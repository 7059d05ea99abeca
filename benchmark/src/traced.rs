//! A block-backend wrapper that records a span around every call `core`
//! makes into a node's store.
//!
//! This is how the traced run sees the boundary between `core` and the
//! store layer (`core::store` in memory, `storage` on disk) without a
//! single line of tracing inside the program: `TldagNetwork` takes any
//! [`BackendFactory`], so the benchmark hands it this one. Used only in
//! the traced run; the untraced run gives the program its own factory.
//!
//! `iter` / `iter_meta` return lazy iterators, so their spans cover only
//! creating the iterator; the walk itself is charged to the caller.

use crate::spans::span;
use tldag_core::block::{BlockId, DataBlock};
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::store::{BackendFactory, BlockBackend, TrustCache};
use tldag_crypto::Digest;
use tldag_sim::{Bits, NodeId};

/// Span names for one kind of backend.
#[derive(Clone, Copy, Debug)]
pub struct Names {
    append: &'static str,
    get: &'static str,
    by_digest: &'static str,
    oldest_child: &'static str,
    children: &'static str,
    iter: &'static str,
    sync: &'static str,
    open: &'static str,
}

/// Names for the in-memory `core::store::BlockStore`.
pub const MEMORY: Names = Names {
    append: "core.store_append",
    get: "core.store_get",
    by_digest: "core.store_by_digest",
    oldest_child: "core.store_oldest_child",
    children: "core.store_children",
    iter: "core.store_iter",
    sync: "core.store_sync",
    open: "core.store_open",
};

/// Names for `storage::DurableStore`.
pub const DISK: Names = Names {
    append: "storage.append",
    get: "storage.get",
    by_digest: "storage.by_digest",
    oldest_child: "storage.oldest_child",
    children: "storage.children",
    iter: "storage.iter",
    sync: "storage.sync",
    open: "storage.open",
};

#[derive(Debug)]
struct TracedBackend {
    inner: Box<dyn BlockBackend>,
    names: Names,
}

impl BlockBackend for TracedBackend {
    fn append(&mut self, block: DataBlock) -> Result<(), TldagError> {
        span(self.names.append, || self.inner.append(block))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn get(&self, seq: u32) -> Option<DataBlock> {
        span(self.names.get, || self.inner.get(seq))
    }
    fn latest(&self) -> Option<DataBlock> {
        span(self.names.get, || self.inner.latest())
    }
    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        span(self.names.by_digest, || self.inner.by_header_digest(digest))
    }
    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        span(self.names.oldest_child, || {
            self.inner.oldest_child_of(target)
        })
    }
    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        span(self.names.children, || self.inner.children_of(target))
    }
    fn oldest_child_of_within(&self, target: &Digest, horizon: u64) -> Option<DataBlock> {
        span(self.names.oldest_child, || {
            self.inner.oldest_child_of_within(target, horizon)
        })
    }
    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        span(self.names.iter, || self.inner.iter())
    }
    fn iter_meta(&self) -> Box<dyn Iterator<Item = (BlockId, u64)> + '_> {
        span(self.names.iter, || self.inner.iter_meta())
    }
    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.inner.logical_bits(cfg)
    }
    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
    fn sync(&mut self) -> Result<(), TldagError> {
        span(self.names.sync, || self.inner.sync())
    }
    fn durable_len(&self) -> usize {
        self.inner.durable_len()
    }
    fn pruned_floor(&self) -> u32 {
        self.inner.pruned_floor()
    }
    fn fsync_count(&self) -> u64 {
        self.inner.fsync_count()
    }
    fn segment_count(&self) -> u64 {
        self.inner.segment_count()
    }
}

/// Wraps every backend `inner` provisions in a span-recording shell.
#[derive(Debug)]
pub struct TracedFactory {
    inner: Box<dyn BackendFactory>,
    names: Names,
}

impl TracedFactory {
    /// A factory whose backends record spans under `names`.
    pub fn new(inner: Box<dyn BackendFactory>, names: Names) -> Self {
        TracedFactory { inner, names }
    }

    fn wrap(&self, inner: Box<dyn BlockBackend>) -> Box<dyn BlockBackend> {
        Box::new(TracedBackend {
            inner,
            names: self.names,
        })
    }
}

impl BackendFactory for TracedFactory {
    fn create(&mut self, node: NodeId) -> Box<dyn BlockBackend> {
        let inner = span(self.names.open, || self.inner.create(node));
        self.wrap(inner)
    }
    fn reopen(&mut self, node: NodeId) -> Result<Box<dyn BlockBackend>, TldagError> {
        let inner = span(self.names.open, || self.inner.reopen(node))?;
        Ok(self.wrap(inner))
    }
    fn save_trust_cache(&mut self, node: NodeId, cache: &TrustCache) -> Result<(), TldagError> {
        self.inner.save_trust_cache(node, cache)
    }
    fn load_trust_cache(&mut self, node: NodeId) -> Result<Option<TrustCache>, TldagError> {
        self.inner.load_trust_cache(node)
    }
}
