//! # tldag-storage — durable, segmented block-log storage for 2LDAG nodes
//!
//! The paper sizes per-node state analytically (`S_i`, `H_i`; Propositions
//! 2–3) but says nothing about where the bits live. The seed reproduction
//! kept every block in memory, so nothing survived a restart and resident
//! memory grew with the run horizon. This crate supplies the missing layer:
//! a crash-safe, append-only **segmented block log** behind the
//! [`tldag_core::store::BlockBackend`] trait, so any experiment can run with
//! `S_i` on disk and a bounded in-memory footprint.
//!
//! * [`record`] — CRC-32-framed records around the canonical
//!   `tldag_core::codec` block encoding; torn writes are detectable.
//! * `segment` — the segmented-log core (`SegmentSet`): segment files,
//!   rolls, streaming replay with torn-tail truncation, retention
//!   accounting, and the single-writer directory lock.
//! * [`index`] — the digest → (segment, offset) index rebuilt on open, plus
//!   its checksummed snapshot form.
//! * `log` — the one durable block log, [`ShardLog`]: the chains of one or
//!   more owners in one group-committed segmented log, with index snapshots,
//!   a decoded-block cache and head-guarded compaction. `LogView` is its
//!   one [`tldag_core::store::BlockBackend`]: [`DurableStore`] owns a log
//!   for one node, [`ShardedNodeStore`] shares one with its shard.
//! * `factory` — [`DiskFactory`] (a log per node, `node-<id>/`) and
//!   [`ShardedDiskFactory`] (a log per shard, `shard-NNNN/`, one fsync per
//!   shard per slot) for `TldagNetwork::with_factory`.
//!
//! ## Example
//!
//! ```
//! use tldag_core::store::BlockBackend;
//! use tldag_core::config::ProtocolConfig;
//! use tldag_core::{BlockBody, BlockId, DataBlock};
//! use tldag_crypto::schnorr::KeyPair;
//! use tldag_sim::NodeId;
//! use tldag_storage::{DurableStore, StorageOptions};
//!
//! let dir = std::env::temp_dir().join("tldag-storage-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let cfg = ProtocolConfig::test_default();
//! let kp = KeyPair::from_seed(1);
//!
//! let mut store = DurableStore::open(&dir, StorageOptions::default()).unwrap();
//! let block = DataBlock::create(
//!     &cfg,
//!     BlockId::new(NodeId(1), 0),
//!     0,
//!     vec![],
//!     BlockBody::new(vec![1, 2, 3], cfg.body_bits),
//!     &kp,
//! );
//! store.append(block.clone()).unwrap();
//! store.sync().unwrap();
//! drop(store);
//!
//! // Reopen: the chain survived the "restart".
//! let reopened = DurableStore::open(&dir, StorageOptions::default()).unwrap();
//! assert_eq!(reopened.len(), 1);
//! assert_eq!(reopened.get(0), Some(block));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub(crate) mod factory;
pub mod index;
pub(crate) mod log;
pub mod record;
pub(crate) mod segment;

pub use factory::{DiskFactory, ShardedDiskFactory};
pub use log::{DurableStore, LogView, ShardLog, ShardedNodeStore};
pub use segment::StorageOptions;
pub use tldag_core::store::SyncPolicy;
