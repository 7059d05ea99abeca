//! Proof-of-Path (PoP): the reactive consensus protocol of Sec. IV.
//!
//! A **validator** verifies a block `b_{j,t}` stored at a **verifier** node
//! `j` by constructing a path of child blocks through the logical DAG until
//! the path visits `γ + 1` distinct nodes, each of which vouches for the
//! block by having embedded its digest (directly or transitively). Path
//! construction uses:
//!
//! * [`wps`] — Weighted Path Selection (Algorithm 1): which neighbor to ask
//!   for the next child block.
//! * [`tps`] — Trust Path Selection (Algorithm 2): extending the path for
//!   free from the validator's verified-header cache `H_i`.
//! * [`validator`] — the full validator procedure (Algorithm 3) with
//!   timeout handling and rollback, as a resumable walk
//!   ([`validator::PopWalk`]): it hands out a [`messages::Request`] and
//!   takes the [`messages::Reply`] back, and never waits for one itself.
//!
//! The **responder** procedure (Algorithm 4), and the verifier's answer to
//! a block fetch, is [`crate::node::LedgerNode::respond`]. Whoever drives a
//! walk carries its asks to the responders: the engine by a call on the
//! node array, a wire node by one datagram exchange.

pub mod messages;
pub mod tps;
pub mod validator;
pub mod wps;

pub use validator::PopMetrics;
