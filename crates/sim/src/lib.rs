//! Deterministic discrete-time network simulator for the 2LDAG evaluation.
//!
//! The paper evaluates 2LDAG on "a desktop with an i7-12700 CPU" by simulating
//! 50 wireless IoT nodes in a square area with a 50 m radio range, time divided
//! into slots, and per-node storage/communication accounting (Sec. VI). This
//! crate is that substrate, built from scratch:
//!
//! * [`rng`] — seedable, splittable xoshiro256++ PRNG so every experiment is
//!   reproducible from a single `u64` seed.
//! * [`geometry`] / [`topology`] — unit-disk graphs built with the paper's
//!   incremental connected-placement procedure.
//! * [`engine`] — slot-loop sharding and generation schedules.
//! * [`bus`] — traffic accounting that meters transmitted/received bits per
//!   node and per traffic category.
//! * [`fault`] — malicious-node selection and link-level fault injection.
//! * [`stats`] — CDFs and summary stats.
//! * [`units`] — bit/byte/megabyte conversions used by the overhead model.
//!
//! The crate keeps no event log: the slot engine and a deployed node
//! record what a slot did in the same `tldag_obs::Journal`.
//!
//! # Example
//!
//! ```
//! use tldag_sim::topology::{Topology, TopologyConfig};
//! use tldag_sim::rng::DetRng;
//!
//! let mut rng = DetRng::seed_from(7);
//! let topo = Topology::random_connected(&TopologyConfig::paper_default(), &mut rng);
//! assert_eq!(topo.len(), 50);
//! assert!(topo.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod engine;
pub mod fault;
pub mod geometry;
pub mod rng;
pub mod stats;
pub mod topology;
pub mod units;

pub use bus::{Accounting, TrafficClass};
pub use engine::GenerationSchedule;
pub use fault::{FaultPlan, RestartEvent, RestartPlan};
pub use rng::DetRng;
pub use topology::{NodeId, Topology, TopologyConfig};
pub use units::Bits;
