//! # tldag-baselines — PBFT and IOTA comparators for the 2LDAG evaluation
//!
//! The paper (Sec. VI) compares 2LDAG's storage and communication overhead
//! against two proactive-consensus ledgers:
//!
//! * **PBFT blockchain** ([`pbft`]) — Castro–Liskov three-phase replication.
//!   Every IoT node is a replica; every generated data block runs through
//!   pre-prepare → prepare → commit and is appended to a chain replicated at
//!   *every* node. Storage grows with the whole network's data; communication
//!   is `O(n²)` small messages plus an `O(n)` block broadcast per block.
//! * **Tokenless IOTA / Tangle** ([`iota`]) — each transaction approves two
//!   tips; every node stores the entire tangle, and every transaction floods
//!   the physical network.
//!
//! Both implement the [`ledger::LedgerSim`] trait so the bench harness can
//! sweep all three systems (including
//! [`tldag_core::network::TldagNetwork`]) uniformly.
//!
//! # Example
//!
//! ```
//! use tldag_baselines::ledger::LedgerSim;
//! use tldag_baselines::pbft::PbftNetwork;
//! use tldag_baselines::BaselineConfig;
//! use tldag_sim::topology::{Topology, TopologyConfig};
//! use tldag_sim::DetRng;
//!
//! let mut rng = DetRng::seed_from(3);
//! let topo = Topology::random_connected(&TopologyConfig::small(8), &mut rng);
//! let mut pbft = PbftNetwork::new(BaselineConfig::test_default(), topo, 3);
//! pbft.step();
//! // Every replica stores every block generated in the slot.
//! let per_node = pbft.storage_bits_per_node();
//! assert!(per_node.iter().all(|b| *b == per_node[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub mod iota;
pub mod ledger;
pub mod pbft;

pub use config::BaselineConfig;
