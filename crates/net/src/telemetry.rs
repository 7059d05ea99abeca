//! Live node telemetry: histograms, the event journal, the `/metrics`
//! exposition, and the `tldag status` scraper.
//!
//! Every deployed [`crate::runtime::NetNode`] owns a [`NodeTelemetry`]:
//! lock-free latency histograms for the slot loop's phases, PoP round
//! trips, and fsyncs, plus a bounded [`Journal`] of structured events
//! (slot lifecycle, membership changes, retries, timeouts, pruned
//! misses) — the same journal type the in-memory engine keeps as
//! `TldagNetwork::journal`. With `--metrics-addr` set, the node serves
//! two HTTP routes:
//!
//! * `GET /metrics` — Prometheus-style text built by [`render_metrics`]
//!   from a [`MetricsView`] (transport counters, PoP counters, storage
//!   gauges, roster state, and every histogram), and
//! * `GET /journal` — the journal as JSONL, one event per line
//!   ([`Journal::to_jsonl`], also what an engine transcript dumps).
//!
//! The scraper half ([`scrape_metrics`], [`StatusRow`],
//! [`render_status_table`], [`status_json`]) powers `tldag status`: it
//! pulls `/metrics` from every node of a live cluster, re-estimates
//! quantiles from the scraped bucket series, and renders one row per node
//! plus a `TOTAL` row aggregated by summing the raw samples.

use crate::metrics::NetStats;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Duration;
use tldag_core::pop::validator::PopMetrics;
pub use tldag_obs::HistogramSnapshot;
use tldag_obs::{
    histogram_quantile, http_get, parse_exposition, Expo, Journal, LatencyHistogram, Phase,
    PhaseTimings, Sample, SpanStore,
};
use tldag_sim::NodeId;

/// Default bound on the journal ring (events, not bytes).
pub const JOURNAL_CAPACITY: usize = 1024;

/// Everything one node records about itself while running. All recording
/// paths are relaxed atomics or a short mutex on the journal ring — safe
/// to share between the slot loop, the dispatcher, and a metrics scrape.
#[derive(Debug)]
pub struct NodeTelemetry {
    /// Slot-loop phase latencies (generate/exchange/gossip/verify/commit).
    pub phases: PhaseTimings,
    /// End-to-end slot latency: from generation start until the slot's
    /// verification completed. At `W = 1` this tracks the slot-loop
    /// iteration; at `W > 1` it measures true pipeline depth (a slot's
    /// verification can finish several generations later).
    pub slot_latency: LatencyHistogram,
    /// Wall-clock latency of whole PoP verifications (wire round trips
    /// included).
    pub pop_rtt: LatencyHistogram,
    /// Latency of storage `sync()` calls (the commit point's fsync).
    pub fsync: LatencyHistogram,
    /// Bounded structured event journal.
    pub journal: Journal,
    /// Block-lifecycle span ring (`--trace`). Disabled (capacity 0) by
    /// default, so untraced runs record nothing and count drops instead.
    pub spans: SpanStore,
    /// PoP verifications attempted so far.
    pub pop_attempts: AtomicU64,
    /// PoP verifications that reached consensus so far.
    pub pop_successes: AtomicU64,
    /// PoP message/byte counters accumulated over every run.
    pop: Mutex<PopMetrics>,
}

impl Default for NodeTelemetry {
    fn default() -> Self {
        Self::new(JOURNAL_CAPACITY)
    }
}

impl NodeTelemetry {
    /// Telemetry with a journal bounded to `journal_capacity` events and
    /// span tracing disabled.
    pub fn new(journal_capacity: usize) -> Self {
        Self::with_span_capacity(journal_capacity, 0)
    }

    /// Telemetry with an additional block-lifecycle span ring of
    /// `span_capacity` spans (0 disables tracing).
    pub fn with_span_capacity(journal_capacity: usize, span_capacity: usize) -> Self {
        NodeTelemetry {
            phases: PhaseTimings::new(),
            slot_latency: LatencyHistogram::new(),
            pop_rtt: LatencyHistogram::new(),
            fsync: LatencyHistogram::new(),
            journal: Journal::bounded(journal_capacity),
            spans: SpanStore::bounded(span_capacity),
            pop_attempts: AtomicU64::new(0),
            pop_successes: AtomicU64::new(0),
            pop: Mutex::new(PopMetrics::default()),
        }
    }

    /// Folds one PoP run's counters into the node-lifetime totals.
    pub fn merge_pop(&self, metrics: &PopMetrics) {
        self.pop
            .lock()
            .expect("pop metrics poisoned")
            .merge(metrics);
    }

    /// The accumulated PoP counters.
    pub fn pop(&self) -> PopMetrics {
        *self.pop.lock().expect("pop metrics poisoned")
    }
}

/// A point-in-time view of one node's observable state — the input to
/// [`render_metrics`]. The runtime assembles it under its own locks so the
/// renderer stays a pure function.
#[derive(Clone, Debug)]
pub struct MetricsView {
    /// The reporting node.
    pub node: NodeId,
    /// The slot its loop currently executes.
    pub slot: u64,
    /// Transport counters.
    pub net: NetStats,
    /// Accumulated PoP counters.
    pub pop: PopMetrics,
    /// PoP verifications attempted.
    pub pop_attempts: u64,
    /// PoP verifications that reached consensus.
    pub pop_successes: u64,
    /// Chain length (blocks).
    pub chain_len: u64,
    /// Leading blocks guaranteed durable.
    pub durable_len: u64,
    /// First retained sequence number (retention floor).
    pub pruned_floor: u64,
    /// Physical fsyncs issued by the store.
    pub fsync_count: u64,
    /// On-disk log segments backing the store.
    pub segment_count: u64,
    /// Roster members ever known (founders + joins).
    pub roster_members: u64,
    /// Members that have left or been evicted.
    pub roster_departed: u64,
    /// Peers currently banned by this node's PoP blacklist (offense-driven,
    /// Sec. IV-D.6; parole can shrink it again).
    pub blacklist_banned: u64,
    /// Distinct peers the net layer has flagged as adversarial from wire
    /// evidence (conflicting `SlotDigest`s, rejected rejoin flaps).
    pub adversaries_detected: u64,
    /// Journal events currently retained.
    pub journal_len: u64,
    /// Journal events evicted by the ring bound.
    pub journal_dropped: u64,
    /// Lifecycle spans ever recorded by the trace ring.
    pub trace_spans: u64,
    /// Spans recorded against a disabled (capacity-0) trace ring.
    pub trace_dropped: u64,
    /// Live spans overwritten because the trace ring was full.
    pub trace_evicted: u64,
    /// Configured pipeline window (1 = lockstep).
    pub window: u64,
    /// Slots currently in flight: generated but not yet verified locally
    /// (always ≤ window; 1 means the pipeline is drained).
    pub window_occupancy: u64,
    /// How far the roster-wide completion low-watermark trails this
    /// node's generation head, in slots — the stall-pressure gauge.
    pub watermark_lag: u64,
    /// Per-phase slot-loop latency snapshots.
    pub phases: Vec<(Phase, HistogramSnapshot)>,
    /// End-to-end slot latency snapshot (generation start → verified).
    pub slot_latency: HistogramSnapshot,
    /// Datagrams handled per receiver wakeup (a count histogram stored in
    /// the microsecond buckets: "µs" reads as "datagrams").
    pub batch_fill: HistogramSnapshot,
    /// PoP round-trip latency snapshot.
    pub pop_rtt: HistogramSnapshot,
    /// Request/reply round-trip latency snapshot.
    pub request_rtt: HistogramSnapshot,
    /// Realized retry-backoff waits snapshot.
    pub retry_backoff: HistogramSnapshot,
    /// Storage sync latency snapshot.
    pub fsync: HistogramSnapshot,
}

/// Renders a [`MetricsView`] as Prometheus-style exposition text.
pub fn render_metrics(view: &MetricsView) -> String {
    let mut expo = Expo::new();
    expo.gauge("tldag_node", "Node id of this process.", view.node.0 as f64);
    expo.gauge(
        "tldag_slot",
        "Slot the node's loop currently executes.",
        view.slot as f64,
    );
    expo.gauge(
        "tldag_chain_len",
        "Chain length in blocks.",
        view.chain_len as f64,
    );
    expo.gauge(
        "tldag_chain_durable_len",
        "Leading blocks guaranteed to survive a crash.",
        view.durable_len as f64,
    );
    expo.gauge(
        "tldag_pruned_floor",
        "First sequence number still retained.",
        view.pruned_floor as f64,
    );
    expo.counter(
        "tldag_store_fsync_total",
        "Physical fsync calls issued by the store.",
        view.fsync_count,
    );
    expo.gauge(
        "tldag_store_segments",
        "On-disk log segments backing the store.",
        view.segment_count as f64,
    );
    expo.gauge(
        "tldag_roster_members",
        "Members ever known to the roster.",
        view.roster_members as f64,
    );
    expo.gauge(
        "tldag_roster_departed",
        "Members that left or were evicted.",
        view.roster_departed as f64,
    );
    expo.gauge(
        "tldag_blacklist_banned",
        "Peers currently banned by the PoP blacklist.",
        view.blacklist_banned as f64,
    );
    expo.gauge(
        "tldag_adversaries_detected",
        "Distinct peers flagged as adversarial from wire evidence.",
        view.adversaries_detected as f64,
    );
    expo.gauge(
        "tldag_journal_events",
        "Events currently retained in the journal ring.",
        view.journal_len as f64,
    );
    expo.counter(
        "tldag_journal_dropped_total",
        "Events evicted by the journal's ring bound.",
        view.journal_dropped,
    );
    expo.counter(
        "tldag_trace_spans_total",
        "Block-lifecycle spans ever recorded by the trace ring.",
        view.trace_spans,
    );
    expo.counter(
        "tldag_trace_dropped_total",
        "Spans recorded while tracing was disabled.",
        view.trace_dropped,
    );
    expo.counter(
        "tldag_trace_evicted_total",
        "Live spans overwritten because the trace ring was full.",
        view.trace_evicted,
    );
    expo.gauge(
        "tldag_window",
        "Configured pipeline window (1 = lockstep).",
        view.window as f64,
    );
    expo.gauge(
        "tldag_window_occupancy",
        "Slots generated but not yet verified locally.",
        view.window_occupancy as f64,
    );
    expo.gauge(
        "tldag_watermark_lag",
        "Slots the roster-wide completion low-watermark trails the head.",
        view.watermark_lag as f64,
    );
    expo.counter(
        "tldag_pop_attempts_total",
        "PoP verifications attempted.",
        view.pop_attempts,
    );
    expo.counter(
        "tldag_pop_successes_total",
        "PoP verifications that reached consensus.",
        view.pop_successes,
    );

    for (name, value) in &view.net.fields() {
        expo.counter(
            &format!("tldag_net_{name}_total"),
            "Transport counter (see crate::metrics).",
            *value,
        );
    }
    for (name, value) in &view.pop.fields() {
        expo.counter(
            &format!("tldag_pop_{name}_total"),
            "PoP validator counter (see PopMetrics).",
            *value,
        );
    }

    let phase_labels: Vec<[(&str, &str); 1]> = view
        .phases
        .iter()
        .map(|(p, _)| [("phase", p.name())])
        .collect();
    let phase_series: Vec<(&[(&str, &str)], &HistogramSnapshot)> = view
        .phases
        .iter()
        .zip(phase_labels.iter())
        .map(|((_, snap), labels)| (labels.as_slice(), snap))
        .collect();
    expo.histogram(
        "tldag_phase_latency_micros",
        "Slot-loop phase latency in microseconds.",
        &phase_series,
    );
    expo.histogram(
        "tldag_slot_latency_micros",
        "End-to-end slot latency (generation start to verified) in \
microseconds.",
        &[(&[], &view.slot_latency)],
    );
    expo.histogram(
        "tldag_batch_fill",
        "Datagrams handled per receiver wakeup (bucket bounds are counts, \
not microseconds).",
        &[(&[], &view.batch_fill)],
    );
    expo.histogram(
        "tldag_pop_rtt_micros",
        "Whole-PoP verification latency in microseconds.",
        &[(&[], &view.pop_rtt)],
    );
    expo.histogram(
        "tldag_request_rtt_micros",
        "Answered request/reply round trip in microseconds.",
        &[(&[], &view.request_rtt)],
    );
    expo.histogram(
        "tldag_retry_backoff_micros",
        "Per-attempt waits that timed out before a retry, in microseconds.",
        &[(&[], &view.retry_backoff)],
    );
    expo.histogram(
        "tldag_fsync_micros",
        "Storage sync latency in microseconds.",
        &[(&[], &view.fsync)],
    );
    expo.finish()
}

/// Scrapes `/metrics` from one node and parses the exposition.
///
/// # Errors
///
/// Connection/read failures and malformed exposition text, as a
/// human-readable string.
pub fn scrape_metrics(addr: SocketAddr, timeout: Duration) -> Result<Vec<Sample>, String> {
    let body = http_get(addr, "/metrics", timeout).map_err(|e| format!("scrape {addr}: {e}"))?;
    parse_exposition(&body).map_err(|e| format!("scrape {addr}: {e}"))
}

/// One row of the `tldag status` table, extracted from scraped samples.
#[derive(Clone, Debug)]
pub struct StatusRow {
    /// The scrape target (`host:port`, or `TOTAL` for the aggregate).
    pub target: String,
    /// Node id (`None` for the aggregate row).
    pub node: Option<u64>,
    /// Current slot (max over nodes for the aggregate).
    pub slot: u64,
    /// Chain length (sum for the aggregate).
    pub chain_len: u64,
    /// PoP attempts / successes.
    pub pop_attempts: u64,
    /// PoP verifications that reached consensus.
    pub pop_successes: u64,
    /// Requests initiated.
    pub requests_sent: u64,
    /// Request retransmissions.
    pub request_retries: u64,
    /// Requests that exhausted their retry budget.
    pub request_timeouts: u64,
    /// Slots generated but not yet verified locally (max for the
    /// aggregate — summing occupancies across nodes is meaningless).
    pub window_occupancy: u64,
    /// Slots the roster-wide low-watermark trails the head (max for the
    /// aggregate).
    pub watermark_lag: u64,
    /// Generate-phase median latency in microseconds.
    pub generate_p50: u64,
    /// Verify-phase median latency in microseconds.
    pub verify_p50: u64,
    /// Commit-phase median latency in microseconds.
    pub commit_p50: u64,
    /// Request round-trip median in microseconds.
    pub rtt_p50: u64,
    /// Request round-trip 99th percentile in microseconds.
    pub rtt_p99: u64,
}

fn scalar(samples: &[Sample], name: &str) -> u64 {
    tldag_obs::expo::sample_value(samples, name, &[]).unwrap_or(0.0) as u64
}

fn quantile(samples: &[Sample], name: &str, labels: &[(&str, &str)], q: f64) -> u64 {
    histogram_quantile(samples, name, labels, q).unwrap_or(0.0) as u64
}

impl StatusRow {
    /// Builds a row from one node's scraped samples.
    pub fn from_samples(target: impl Into<String>, samples: &[Sample]) -> StatusRow {
        let phase_p50 = |phase| {
            let labels = [("phase", phase)];
            quantile(samples, "tldag_phase_latency_micros", &labels, 0.5)
        };
        StatusRow {
            target: target.into(),
            node: tldag_obs::expo::sample_value(samples, "tldag_node", &[]).map(|v| v as u64),
            slot: scalar(samples, "tldag_slot"),
            chain_len: scalar(samples, "tldag_chain_len"),
            pop_attempts: scalar(samples, "tldag_pop_attempts_total"),
            pop_successes: scalar(samples, "tldag_pop_successes_total"),
            requests_sent: scalar(samples, "tldag_net_requests_sent_total"),
            request_retries: scalar(samples, "tldag_net_request_retries_total"),
            request_timeouts: scalar(samples, "tldag_net_request_timeouts_total"),
            window_occupancy: scalar(samples, "tldag_window_occupancy"),
            watermark_lag: scalar(samples, "tldag_watermark_lag"),
            generate_p50: phase_p50("generate"),
            verify_p50: phase_p50("verify"),
            commit_p50: phase_p50("commit"),
            rtt_p50: quantile(samples, "tldag_request_rtt_micros", &[], 0.5),
            rtt_p99: quantile(samples, "tldag_request_rtt_micros", &[], 0.99),
        }
    }

    /// One JSON object for this row (stable key order, no trailing spaces).
    pub fn to_json(&self) -> String {
        let node = match self.node {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"target\":\"{}\",\"node\":{},\"slot\":{},\"chain_len\":{},\
\"pop_attempts\":{},\"pop_successes\":{},\"requests_sent\":{},\
\"request_retries\":{},\"request_timeouts\":{},\"window_occupancy\":{},\
\"watermark_lag\":{},\"generate_p50_us\":{},\
\"verify_p50_us\":{},\"commit_p50_us\":{},\"rtt_p50_us\":{},\"rtt_p99_us\":{}}}",
            self.target,
            node,
            self.slot,
            self.chain_len,
            self.pop_attempts,
            self.pop_successes,
            self.requests_sent,
            self.request_retries,
            self.request_timeouts,
            self.window_occupancy,
            self.watermark_lag,
            self.generate_p50,
            self.verify_p50,
            self.commit_p50,
            self.rtt_p50,
            self.rtt_p99,
        )
    }
}

/// Merges scraped sample sets by summing the values of identical
/// `(name, labels)` series — counters and cumulative bucket series sum
/// correctly; gauges become sums too, which the aggregate row corrects for
/// where a sum is wrong (slot uses the per-node max instead).
pub fn merge_samples(per_node: &[Vec<Sample>]) -> Vec<Sample> {
    let mut merged: Vec<Sample> = Vec::new();
    for samples in per_node {
        for s in samples {
            match merged
                .iter_mut()
                .find(|m| m.name == s.name && m.labels == s.labels)
            {
                Some(m) => m.value += s.value,
                None => merged.push(s.clone()),
            }
        }
    }
    merged
}

/// Builds the aggregate `TOTAL` row: counters and histograms are summed
/// across nodes (quantiles re-estimated from the merged buckets); `slot`,
/// `window_occupancy`, and `watermark_lag` are per-node maxima, `node` is
/// absent.
pub fn total_row(per_node: &[Vec<Sample>], rows: &[StatusRow]) -> StatusRow {
    let merged = merge_samples(per_node);
    let mut total = StatusRow::from_samples("TOTAL", &merged);
    total.node = None;
    total.slot = rows.iter().map(|r| r.slot).max().unwrap_or(0);
    total.window_occupancy = rows.iter().map(|r| r.window_occupancy).max().unwrap_or(0);
    total.watermark_lag = rows.iter().map(|r| r.watermark_lag).max().unwrap_or(0);
    total
}

/// Renders status rows as an aligned table.
pub fn render_status_table(rows: &[StatusRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>4} {:>6} {:>6} {:>9} {:>8} {:>7} {:>8} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9}\n",
        "TARGET",
        "NODE",
        "SLOT",
        "CHAIN",
        "POP OK/AT",
        "REQS",
        "RETRY",
        "TIMEOUT",
        "OCC",
        "LAG",
        "GEN P50",
        "VRF P50",
        "CMT P50",
        "RTT P50"
    ));
    for row in rows {
        let node = row.node.map_or("-".to_string(), |n| n.to_string());
        out.push_str(&format!(
            "{:<22} {:>4} {:>6} {:>6} {:>9} {:>8} {:>7} {:>8} {:>4} {:>4} {:>8}u {:>8}u {:>8}u {:>8}u\n",
            row.target,
            node,
            row.slot,
            row.chain_len,
            format!("{}/{}", row.pop_successes, row.pop_attempts),
            row.requests_sent,
            row.request_retries,
            row.request_timeouts,
            row.window_occupancy,
            row.watermark_lag,
            row.generate_p50,
            row.verify_p50,
            row.commit_p50,
            row.rtt_p50,
        ));
    }
    out
}

/// Renders status rows (the per-node rows plus the aggregate) as one JSON
/// document: `{"targets":[...],"total":{...}}`.
pub fn status_json(rows: &[StatusRow], total: &StatusRow) -> String {
    let targets: Vec<String> = rows.iter().map(StatusRow::to_json).collect();
    format!(
        "{{\"targets\":[{}],\"total\":{}}}",
        targets.join(","),
        total.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_view() -> MetricsView {
        let telemetry = NodeTelemetry::new(16);
        telemetry
            .phases
            .record(Phase::Generate, Duration::from_micros(120));
        telemetry
            .phases
            .record(Phase::Verify, Duration::from_micros(900));
        telemetry.pop_rtt.record_micros(1500);
        telemetry.fsync.record_micros(80);
        telemetry.merge_pop(&PopMetrics {
            messages_sent: 9,
            timeouts: 1,
            ..PopMetrics::default()
        });
        MetricsView {
            node: NodeId(2),
            slot: 7,
            net: NetStats {
                datagrams_sent: 100,
                requests_sent: 40,
                request_retries: 3,
                request_timeouts: 1,
                ..NetStats::default()
            },
            pop: telemetry.pop(),
            pop_attempts: 5,
            pop_successes: 4,
            chain_len: 8,
            durable_len: 8,
            pruned_floor: 0,
            fsync_count: 9,
            segment_count: 1,
            roster_members: 3,
            roster_departed: 0,
            blacklist_banned: 1,
            adversaries_detected: 1,
            journal_len: 2,
            journal_dropped: 0,
            trace_spans: 6,
            trace_dropped: 1,
            trace_evicted: 0,
            window: 4,
            window_occupancy: 3,
            watermark_lag: 2,
            phases: telemetry.phases.snapshot(),
            slot_latency: telemetry.slot_latency.snapshot(),
            batch_fill: HistogramSnapshot::default(),
            pop_rtt: telemetry.pop_rtt.snapshot(),
            request_rtt: HistogramSnapshot::default(),
            retry_backoff: HistogramSnapshot::default(),
            fsync: telemetry.fsync.snapshot(),
        }
    }

    #[test]
    fn exposition_round_trips_into_a_status_row() {
        let view = sample_view();
        let text = render_metrics(&view);
        let samples = parse_exposition(&text).expect("well-formed exposition");
        let row = StatusRow::from_samples("local", &samples);
        assert_eq!(row.node, Some(2));
        assert_eq!(row.slot, 7);
        assert_eq!(row.chain_len, 8);
        assert_eq!(row.pop_attempts, 5);
        assert_eq!(row.pop_successes, 4);
        assert_eq!(row.requests_sent, 40);
        assert_eq!(row.request_retries, 3);
        assert_eq!(row.request_timeouts, 1);
        assert_eq!(row.window_occupancy, 3);
        assert_eq!(row.watermark_lag, 2);
        // 120µs lands in the (64, 127] bucket → p50 estimate 127.
        assert_eq!(row.generate_p50, 127);
        assert!(row.verify_p50 >= 900 && row.verify_p50 < 1800);
    }

    #[test]
    fn known_metric_names_present() {
        let text = render_metrics(&sample_view());
        for name in [
            "tldag_node",
            "tldag_slot",
            "tldag_window",
            "tldag_window_occupancy",
            "tldag_watermark_lag",
            "tldag_slot_latency_micros_count",
            "tldag_batch_fill_count",
            "tldag_chain_len",
            "tldag_store_fsync_total",
            "tldag_store_segments",
            "tldag_roster_members",
            "tldag_blacklist_banned",
            "tldag_adversaries_detected",
            "tldag_pop_offenses_total",
            "tldag_journal_dropped_total",
            "tldag_trace_spans_total",
            "tldag_trace_dropped_total",
            "tldag_trace_evicted_total",
            "tldag_net_datagrams_sent_total",
            "tldag_pop_messages_sent_total",
            "tldag_phase_latency_micros_bucket",
            "tldag_pop_rtt_micros_count",
            "tldag_request_rtt_micros_count",
            "tldag_retry_backoff_micros_count",
            "tldag_fsync_micros_sum",
        ] {
            assert!(text.contains(name), "missing {name} in exposition");
        }
    }

    #[test]
    fn aggregate_row_sums_counters_and_maxes_slot() {
        let view = sample_view();
        let text = render_metrics(&view);
        let samples = parse_exposition(&text).expect("parses");
        let mut second = samples.clone();
        // Pretend node 3 is one slot ahead.
        for s in &mut second {
            if s.name == "tldag_node" {
                s.value = 3.0;
            }
            if s.name == "tldag_slot" {
                s.value = 8.0;
            }
        }
        let per_node = vec![samples.clone(), second.clone()];
        let rows = vec![
            StatusRow::from_samples("a", &samples),
            StatusRow::from_samples("b", &second),
        ];
        let total = total_row(&per_node, &rows);
        assert_eq!(total.node, None);
        assert_eq!(total.slot, 8);
        assert_eq!(total.chain_len, 16);
        assert_eq!(total.pop_attempts, 10);
        let table = render_status_table(&[rows[0].clone(), total.clone()]);
        assert!(table.contains("TOTAL"));
        let json = status_json(&rows, &total);
        assert!(json.starts_with("{\"targets\":["));
        assert!(json.contains("\"total\":{\"target\":\"TOTAL\""));
    }
}
