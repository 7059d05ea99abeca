//! # tldag-net — UDP wire transport and peer runtime for 2LDAG nodes
//!
//! The paper defines the reactive PoP exchange (Sec. IV-C) as an actual
//! message protocol between IoT validators, but the reproduction so far ran
//! it through an in-memory bus. This crate is the missing wire layer — with
//! it, codec ↔ transport ↔ storage compose into a full node binary:
//!
//! * [`envelope`] — versioned, CRC-guarded datagram framing with
//!   fragmentation for messages larger than one MTU (full blocks).
//! * [`frag`] — out-of-order, budget-bounded fragment reassembly.
//! * `transport` — the [`Datagram`] socket abstraction:
//!   [`UdpTransport`] for real sockets, [`FaultyTransport`] for
//!   deterministic loss/duplication/reorder injection (the `fig11_wire`
//!   knob).
//! * [`membership`] — the [`membership::Roster`], the node's one
//!   membership book: who generates at which slot, every peer's address
//!   and liveness (the eviction signal), churn-spec parsing, and
//!   deterministic join placement.
//! * `endpoint` — the [`Endpoint`]: framing + reassembly + reply
//!   correlation + request retry with bounded backoff, fully metered
//!   ([`metrics`]).
//! * [`control`] — runtime control messages: hello bootstrap, slot-tagged
//!   digest gossip with pull-based recovery, the join handshake and
//!   membership-delta gossip, report/shutdown handshake.
//! * [`runtime`] — [`NetNode`], the deployed node: inbound dispatcher
//!   serving `REQ_CHILD`/`FetchBlock` (cooperative `Nack`/`PrunedNack`
//!   included) plus the slot loop — roster-aware barriers, join/leave at
//!   slot boundaries — and the wire-side PoP validator.
//! * [`harness`] — the `tldag cluster` multi-process deployment harness
//!   with `network_digest` parity checking against the in-memory engine,
//!   including under a scheduled churn of late joins and graceful leaves,
//!   and the in-process [`LoopbackCluster`] + [`Deployment`] reference the
//!   experiments and wire tests stand their clusters up with; [`judge`]
//!   computes the one parity [`Verdict`] all of them read.
//! * [`telemetry`] — live observability: per-node histograms + journal
//!   ([`telemetry::NodeTelemetry`]), the `/metrics` + `/journal` +
//!   `/trace` HTTP routes, and the `tldag status` scraper/aggregator.
//! * `forensics` — slot-by-slot divergence diagnosis on parity
//!   failures: first divergent slot, differing block digests, and the
//!   offending blocks' causal lifecycle timelines.
//! * [`argv`] — the `tldag` command line: the per-subcommand flag parser
//!   and the `tldag node` argv of a [`NetNodeConfig`] (its `id@host:port`
//!   peer list included), which the harness spawns members with and
//!   `tldag node` reads back.
//! * `explore` — the `tldag explore` DAG explorer: `/dag`, `/slot/<t>`
//!   and `/block/<id>` served from disk segments or a live node's
//!   telemetry endpoints.
//!
//! Everything is `std`-only (threads + `UdpSocket`), matching the
//! workspace's scoped-thread engine style: no async runtime, no new
//! dependencies.

// `deny`, not `forbid`: the one sanctioned exception is [`mmsg`], the
// Linux `sendmmsg`/`recvmmsg` FFI behind the batched datagram path. It is
// a leaf module with its own `allow(unsafe_code)` and a portable fallback,
// so no other module can grow unsafe blocks without tripping the lint, and
// clippy fails any block there that does not say why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

use std::fmt;

pub mod argv;
pub mod control;
pub(crate) mod endpoint;
pub mod envelope;
pub(crate) mod explore;
pub(crate) mod forensics;
pub mod frag;
pub mod harness;
pub mod membership;
pub mod metrics;
#[cfg(target_os = "linux")]
mod mmsg;
pub mod runtime;
pub mod telemetry;
pub(crate) mod transport;

pub use endpoint::{Endpoint, EndpointConfig, Inbound, ReceiverGuard};
pub use explore::{Explorer, ExplorerSource};
pub use forensics::{diagnose, timelines_for_slot, DivergenceReport, SlotMismatch};
pub use harness::{
    format_adversary_schedule, judge, parse_adversary_spec, run_cluster, AdversaryPlacement,
    ClusterConfig, ClusterOutcome, Deployment, LoopbackCluster, Verdict,
};
pub use membership::{parse_churn_spec, ChurnEvent, Roster};
pub use metrics::NetStats;
pub use runtime::{NetNode, NetNodeConfig};
pub use telemetry::{
    render_metrics, render_status_table, scrape_metrics, status_json, total_row, MetricsView,
    NodeTelemetry, StatusRow,
};
pub use transport::{Datagram, FaultSpec, FaultyTransport, UdpTransport};

/// A wire-layer failure: framing, checksum, version, or payload decode.
///
/// Every variant is a *clean rejection* — malformed datagrams are counted
/// and dropped by the endpoint, never panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// The datagram (or control payload) ended before the structure did.
    Truncated,
    /// The datagram does not start with the tldag magic.
    BadMagic,
    /// The checksum does not match the datagram contents.
    BadCrc,
    /// The envelope speaks an unsupported protocol version.
    BadVersion(u8),
    /// The envelope kind bits name no known channel.
    BadKind(u8),
    /// An envelope header or control field is malformed: a reserved flag
    /// bit is set, or a varint is not minimal, runs past 10 bytes or past
    /// its field's width (a sender above `u32::MAX`).
    BadHeader,
    /// A control payload carries an unknown tag (runtime version skew).
    BadControlTag(u8),
    /// An encoded socket address names an unknown family (version skew,
    /// like [`NetError::BadControlTag`] — distinct from truncation so the
    /// drop is observable as skew, not framing).
    BadAddressFamily(u8),
    /// A length field disagrees with the actual data.
    LengthMismatch,
    /// Fragment fields are inconsistent (zero count, index out of range,
    /// a field above `u16::MAX`).
    BadFragment,
    /// The message cannot be framed (too many fragments, or no payload
    /// room under the configured MTU).
    Oversize,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated => write!(f, "datagram ended mid-structure"),
            NetError::BadMagic => write!(f, "not a tldag datagram (bad magic)"),
            NetError::BadCrc => write!(f, "checksum mismatch"),
            NetError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::BadKind(k) => write!(f, "unknown envelope kind {k:#04x}"),
            NetError::BadHeader => write!(f, "malformed envelope header field"),
            NetError::BadControlTag(t) => write!(f, "unknown control tag {t:#04x}"),
            NetError::BadAddressFamily(v) => write!(f, "unknown address family {v}"),
            NetError::LengthMismatch => write!(f, "length field disagrees with data"),
            NetError::BadFragment => write!(f, "inconsistent fragment fields"),
            NetError::Oversize => write!(f, "message cannot be framed under the MTU"),
        }
    }
}

impl std::error::Error for NetError {}
