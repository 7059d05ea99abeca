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
//!   timeout handling and rollback.
//!
//! The **responder** procedure (Algorithm 4) is
//! [`crate::node::LedgerNode::serve_child_request`]; transports wire it to
//! validators.

pub mod messages;
pub mod tps;
pub mod validator;
pub mod wps;

pub use validator::PopMetrics;
