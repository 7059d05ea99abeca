//! # tldag-obs — observability primitives for the tldag workspace
//!
//! Live telemetry for a deployed 2LDAG cluster, built from std-only
//! pieces (no dependencies, no async, no unsafe):
//!
//! * [`counters!`] — one field list per counter struct (`NetStats`,
//!   `PopMetrics`): `fields`, `merge`, `try_from_values`, an atomic twin.
//! * [`hist`] — [`LatencyHistogram`]: a lock-free, log2-bucketed latency
//!   histogram over relaxed atomics. Recording is a couple of
//!   `fetch_add`s, so it can sit on the slot loop's hot path; snapshots
//!   give p50/p90/p99/max and feed the text exposition.
//! * [`journal`] — [`Journal`]: a bounded ring-buffer of structured
//!   events (slot lifecycle, membership, retries, timeouts, pruned
//!   misses) with a JSONL dump. The slot engine and a deployed node
//!   keep the same type, so both record [`JournalEvent`]s of one
//!   [`EventKind`] set.
//! * [`expo`] — Prometheus-style text exposition: a tiny builder for
//!   counters/gauges/histograms and a parser ([`parse_exposition`]) used
//!   by the `tldag status` scraper and the tests.
//! * [`http`] — [`HttpServer`]: a blocking HTTP/1.0 text responder on a
//!   `TcpListener` (the `--metrics-addr` listener), plus [`http_get`],
//!   the matching one-shot client.
//! * [`trace`] — [`SpanStore`]: a lock-free bounded ring of block
//!   lifecycle spans (generated → gossiped-out → received → verified →
//!   committed) keyed by `(slot, origin, hash-prefix)`, grouped into
//!   cross-node [`BlockTimeline`]s and served as JSON from `/trace`.
//!
//! The crate is a leaf: every other tldag crate may depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod expo;
pub mod hist;
pub mod http;
pub mod journal;
pub mod trace;

pub use expo::{histogram_quantile, parse_exposition, Expo, Sample};
pub use hist::{HistogramSnapshot, LatencyHistogram, Phase, PhaseTimings};
pub use http::{http_get, HttpServer, Routes};
pub use journal::{EventKind, Journal, JournalEvent};
pub use trace::{
    build_timelines, span_json, trace_json, unix_micros, BlockTimeline, SpanEvent, SpanKind,
    SpanStore, DEFAULT_SPAN_CAPACITY,
};
