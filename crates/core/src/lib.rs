//! # tldag-core — the 2LDAG protocol and Proof-of-Path consensus
//!
//! Implementation of *"A Novel Two-Layer DAG-based Reactive Protocol for IoT
//! Data Reliability in Metaverse"* (ICDCS 2023). 2LDAG keeps blockchain's
//! immutability and traceability while shedding its storage and communication
//! cost: each IoT node stores **only its own data blocks** and exchanges
//! **only 256-bit digests** with physical neighbors. The digests embedded in
//! block headers link all blocks into a logical DAG; data is verified
//! *reactively* — only when someone asks — by the Proof-of-Path (PoP)
//! protocol, which walks the DAG until `γ + 1` distinct nodes vouch for the
//! target block.
//!
//! ## Layout
//!
//! * [`config`] — field sizes and protocol parameters (Fig. 2, Eq. 2–3).
//! * [`block`] — data blocks: header, body, Merkle root, puzzle, signature.
//! * [`node`] — per-node state `S_i`/`A_i`/`H_i` and block generation.
//! * [`store`] — the own-chain store and verified-header cache.
//! * [`dag`] — the global logical DAG view (analysis oracle).
//! * [`pop`] — Proof-of-Path: WPS, TPS, validator, responder plumbing.
//! * [`network`] — the slotted network simulation driving everything.
//! * [`attack`] / [`blacklist`] — adversary behaviours and the penalty list.
//! * [`analysis`] — Propositions 1–6 as checkable bounds.
//! * [`workload`] — sensor payloads and verification-target policies.
//!
//! ## Quickstart
//!
//! ```
//! use tldag_core::config::ProtocolConfig;
//! use tldag_core::network::TldagNetwork;
//! use tldag_sim::engine::GenerationSchedule;
//! use tldag_sim::topology::{Topology, TopologyConfig};
//! use tldag_sim::DetRng;
//!
//! // A 10-node IoT deployment, one block per node per slot.
//! let mut rng = DetRng::seed_from(7);
//! let topo = Topology::random_connected(&TopologyConfig::small(10), &mut rng);
//! let cfg = ProtocolConfig::test_default();
//! let schedule = GenerationSchedule::uniform(topo.len());
//! let mut network = TldagNetwork::new(cfg, topo, schedule, 7);
//!
//! network.run_slots(12);
//!
//! // Verify some node's genesis block via Proof-of-Path.
//! use tldag_sim::NodeId;
//! let target = network.node(NodeId(3)).store().get(0).unwrap().id;
//! let report = network.run_pop(NodeId(0), target, false);
//! assert!(report.is_success());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod blacklist;
pub mod block;
pub mod codec;
pub mod config;
pub mod dag;
pub mod error;
pub mod network;
pub mod node;
pub mod pop;
pub mod store;
pub mod workload;

pub use attack::Behavior;
pub use block::{BlockBody, BlockHeader, BlockId, DataBlock, DigestEntry};
pub use error::TldagError;
