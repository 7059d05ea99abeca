//! Live node telemetry ([`NodeTelemetry`]), the `/metrics` exposition and
//! the `tldag status` scraper, each metric declared once: [`MetricsView`]'s
//! field list gives every family's kind, name and help text, and
//! [`StatusRow`]'s column list says where `tldag status` reads a column in
//! a scrape and how its `TOTAL` row aggregates it.

use crate::metrics::NetStats;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Duration;
use tldag_core::pop::validator::PopMetrics;
use tldag_obs::expo::sample_value;
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

/// How a [`MetricsView`] field is exposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Gauge,
    /// On a counter struct the name is a prefix: `<prefix><field>_total`.
    Counter,
    Histogram,
}

/// One `/metrics` family and the [`MetricsView`] field it renders.
struct Family {
    kind: Kind,
    name: &'static str,
    help: &'static str,
    value: fn(&MetricsView) -> &dyn Expose,
}

/// Declares [`MetricsView`] from `field: type, kind name, help;` entries
/// (the help doubles as the doc), with [`FAMILIES`] and `family` names.
macro_rules! metrics_view {
    (
        $(#[$sdoc:meta])*
        pub struct MetricsView {
            $($(#[$doc:meta])* $field:ident: $ty:ty, $kind:ident $name:literal, $help:literal;)+
        }
    ) => {
        $(#[$sdoc])*
        #[derive(Clone, Debug)]
        pub struct MetricsView {
            $(#[doc = $help] $(#[$doc])* pub $field: $ty,)+
        }

        /// Every family [`render_metrics`] emits, in order.
        const FAMILIES: &[Family] = &[$(Family {
            kind: Kind::$kind,
            name: $name,
            help: $help,
            value: |view| &view.$field,
        },)+];

        /// Family names, by the [`MetricsView`] field that renders them.
        #[allow(dead_code, non_upper_case_globals)]
        mod family {
            $(pub(super) const $field: &str = $name;)+
        }
    };
}

metrics_view! {
    /// A point-in-time view of one node's observable state — the input to
    /// [`render_metrics`]. The runtime assembles it under its own locks so
    /// the renderer stays a pure function.
    pub struct MetricsView {
        node: NodeId, Gauge "tldag_node", "Node id of this process.";
        slot: u64, Gauge "tldag_slot", "Slot the node's loop currently executes.";
        chain_len: u64, Gauge "tldag_chain_len", "Chain length in blocks.";
        durable_len: u64, Gauge "tldag_chain_durable_len",
            "Leading blocks guaranteed to survive a crash.";
        pruned_floor: u64, Gauge "tldag_pruned_floor", "First sequence number still retained.";
        fsync_count: u64, Counter "tldag_store_fsync_total",
            "Physical fsync calls issued by the store.";
        segment_count: u64, Gauge "tldag_store_segments",
            "On-disk log segments backing the store.";
        roster_members: u64, Gauge "tldag_roster_members", "Members ever known to the roster.";
        roster_departed: u64, Gauge "tldag_roster_departed", "Members that left or were evicted.";
        /// Offense-driven (Sec. IV-D.6); parole can shrink it again.
        blacklist_banned: u64, Gauge "tldag_blacklist_banned",
            "Peers currently banned by the PoP blacklist.";
        /// The evidence: conflicting `SlotDigest`s, rejected rejoin flaps.
        adversaries_detected: u64, Gauge "tldag_adversaries_detected",
            "Distinct peers flagged as adversarial from wire evidence.";
        journal_len: u64, Gauge "tldag_journal_events",
            "Events currently retained in the journal ring.";
        journal_dropped: u64, Counter "tldag_journal_dropped_total",
            "Events evicted by the journal's ring bound.";
        trace_spans: u64, Counter "tldag_trace_spans_total",
            "Block-lifecycle spans ever recorded by the trace ring.";
        trace_dropped: u64, Counter "tldag_trace_dropped_total",
            "Spans recorded while tracing was disabled.";
        trace_evicted: u64, Counter "tldag_trace_evicted_total",
            "Live spans overwritten because the trace ring was full.";
        window: u64, Gauge "tldag_window", "Configured pipeline window (1 = lockstep).";
        /// Always ≤ `window`; 1 means the pipeline is drained.
        window_occupancy: u64, Gauge "tldag_window_occupancy",
            "Slots generated but not yet verified locally.";
        /// The stall-pressure gauge.
        watermark_lag: u64, Gauge "tldag_watermark_lag",
            "Slots the roster-wide completion low-watermark trails the head.";
        pop_attempts: u64, Counter "tldag_pop_attempts_total", "PoP verifications attempted.";
        pop_successes: u64, Counter "tldag_pop_successes_total",
            "PoP verifications that reached consensus.";
        /// Exposed as one `tldag_net_<field>_total` per field.
        net: NetStats, Counter "tldag_net_", "Transport counter (see crate::metrics).";
        /// Exposed as one `tldag_pop_<field>_total` per field.
        pop: PopMetrics, Counter "tldag_pop_", "PoP validator counter (see PopMetrics).";
        phases: Vec<(Phase, HistogramSnapshot)>, Histogram "tldag_phase_latency_micros",
            "Slot-loop phase latency in microseconds.";
        /// At `W > 1` it measures pipeline depth, not one loop iteration.
        slot_latency: HistogramSnapshot, Histogram "tldag_slot_latency_micros",
            "End-to-end slot latency (generation start to verified) in \
microseconds.";
        batch_fill: HistogramSnapshot, Histogram "tldag_batch_fill",
            "Datagrams handled per receiver wakeup (bucket bounds are counts, \
not microseconds).";
        pop_rtt: HistogramSnapshot, Histogram "tldag_pop_rtt_micros",
            "Whole-PoP verification latency in microseconds.";
        request_rtt: HistogramSnapshot, Histogram "tldag_request_rtt_micros",
            "Answered request/reply round trip in microseconds.";
        retry_backoff: HistogramSnapshot, Histogram "tldag_retry_backoff_micros",
            "Per-attempt waits that timed out before a retry, in microseconds.";
        fsync: HistogramSnapshot, Histogram "tldag_fsync_micros",
            "Storage sync latency in microseconds.";
    }
}

/// A [`MetricsView`] field written into the exposition as its family.
trait Expose {
    fn expose(&self, expo: &mut Expo, family: &Family);
}

impl Expose for u64 {
    fn expose(&self, expo: &mut Expo, f: &Family) {
        match f.kind {
            Kind::Gauge => expo.gauge(f.name, f.help, *self as f64),
            _ => expo.counter(f.name, f.help, *self),
        }
    }
}

impl Expose for NodeId {
    fn expose(&self, expo: &mut Expo, f: &Family) {
        u64::from(self.0).expose(expo, f);
    }
}

/// The family of one counter-struct field.
fn counter_family(prefix: &str, field: &str) -> String {
    format!("{prefix}{field}_total")
}

macro_rules! expose_counters {
    ($($counters:ty),+) => {$(
        impl Expose for $counters {
            fn expose(&self, expo: &mut Expo, f: &Family) {
                for (field, value) in self.fields() {
                    expo.counter(&counter_family(f.name, field), f.help, value);
                }
            }
        }
    )+};
}
expose_counters!(NetStats, PopMetrics);

impl Expose for HistogramSnapshot {
    fn expose(&self, expo: &mut Expo, f: &Family) {
        expo.histogram(f.name, f.help, &[(&[], self)]);
    }
}

impl Expose for Vec<(Phase, HistogramSnapshot)> {
    fn expose(&self, expo: &mut Expo, f: &Family) {
        let labels: Vec<_> = self.iter().map(|(p, _)| [("phase", p.name())]).collect();
        let series = self.iter().zip(&labels).map(|(s, l)| (&l[..], &s.1));
        expo.histogram(f.name, f.help, &series.collect::<Vec<_>>());
    }
}

/// Renders a [`MetricsView`] as Prometheus-style exposition text.
pub fn render_metrics(view: &MetricsView) -> String {
    let mut expo = Expo::new();
    for family in FAMILIES {
        (family.value)(view).expose(&mut expo, family);
    }
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

/// Where a status column reads one node's value, and so how the `TOTAL`
/// row gets it: from the summed samples (counters, buckets), except where
/// a sum means nothing.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// A gauge or counter family.
    Scalar(&'static str),
    /// A gauge whose `TOTAL` is the per-node maximum.
    Peak(&'static str),
    /// One `NetStats` counter, by field.
    Net(&'static str),
    /// A quantile (µs) of a histogram family, or of one phase's series.
    Quantile(&'static str, Option<Phase>, f64),
}

impl Source {
    fn read(self, samples: &[Sample]) -> u64 {
        let value = match self {
            Source::Scalar(name) | Source::Peak(name) => sample_value(samples, name, &[]),
            Source::Net(field) => sample_value(samples, &counter_family(family::net, field), &[]),
            Source::Quantile(name, phase, q) => {
                let labels: Vec<_> = phase.iter().map(|p| ("phase", p.name())).collect();
                histogram_quantile(samples, name, &labels, q)
            }
        };
        value.unwrap_or(0.0) as u64
    }

    /// Microseconds: `_us` on the JSON key, `u` in the table.
    fn micros(self) -> bool {
        matches!(self, Source::Quantile(..))
    }
}

/// A status column's table cell: hidden (JSON only), or its header and
/// width over the value or over `value/previous column`.
enum Cell {
    Hidden,
    Shown(&'static str, usize),
    OverPrevious(&'static str, usize),
}

/// One `tldag status` column after `target` and `node`; `name` is the
/// [`StatusRow`] field and the JSON key.
struct Column {
    name: &'static str,
    source: Source,
    cell: Cell,
}

/// Declares [`StatusRow`] and [`COLUMNS`] from one list, so the row's
/// builders and renderers loop over the columns instead of naming them.
macro_rules! status_row {
    ($(
        $(#[$doc:meta])*
        $field:ident: $source:ident($($arg:expr),+), $cell:ident$(($($c:expr),+))?;
    )+) => {
        /// One row of the `tldag status` table, extracted from scraped samples.
        #[derive(Clone, Debug)]
        pub struct StatusRow {
            /// The scrape target (`host:port`, or `TOTAL` for the aggregate).
            pub target: String,
            /// Node id (`None` for the aggregate row).
            pub node: Option<u64>,
            $($(#[$doc])* pub $field: u64,)+
        }

        /// Every column after `target` and `node`, in [`StatusRow`] order.
        const COLUMNS: &[Column] = &[$(Column {
            name: stringify!($field),
            source: Source::$source($($arg),+),
            cell: Cell::$cell$(($($c),+))?,
        },)+];

        impl StatusRow {
            fn from_values(target: String, node: Option<u64>, values: Vec<u64>) -> StatusRow {
                let mut values = values.into_iter();
                StatusRow { target, node, $($field: values.next().unwrap_or(0),)+ }
            }

            fn values(&self) -> Vec<u64> {
                vec![$(self.$field,)+]
            }
        }
    };
}

status_row! {
    /// Current slot.
    slot: Peak(family::slot), Shown("SLOT", 6);
    /// Chain length.
    chain_len: Scalar(family::chain_len), Shown("CHAIN", 6);
    /// PoP verifications attempted.
    pop_attempts: Scalar(family::pop_attempts), Hidden;
    /// PoP verifications that reached consensus.
    pop_successes: Scalar(family::pop_successes), OverPrevious("POP OK/AT", 9);
    /// Requests initiated.
    requests_sent: Net("requests_sent"), Shown("REQS", 8);
    /// Request retransmissions.
    request_retries: Net("request_retries"), Shown("RETRY", 7);
    /// Requests that exhausted their retry budget.
    request_timeouts: Net("request_timeouts"), Shown("TIMEOUT", 8);
    /// Slots generated but not yet verified locally.
    window_occupancy: Peak(family::window_occupancy), Shown("OCC", 4);
    /// Slots the roster-wide low-watermark trails the head.
    watermark_lag: Peak(family::watermark_lag), Shown("LAG", 4);
    /// Generate-phase median latency in microseconds.
    generate_p50: Quantile(family::phases, Some(Phase::Generate), 0.5), Shown("GEN P50", 9);
    /// Verify-phase median latency in microseconds.
    verify_p50: Quantile(family::phases, Some(Phase::Verify), 0.5), Shown("VRF P50", 9);
    /// Commit-phase median latency in microseconds.
    commit_p50: Quantile(family::phases, Some(Phase::Commit), 0.5), Shown("CMT P50", 9);
    /// Request round-trip median in microseconds.
    rtt_p50: Quantile(family::request_rtt, None, 0.5), Shown("RTT P50", 9);
    /// Request round-trip 99th percentile in microseconds.
    rtt_p99: Quantile(family::request_rtt, None, 0.99), Hidden;
}

impl StatusRow {
    /// Builds a row from one node's scraped samples.
    pub fn from_samples(target: impl Into<String>, samples: &[Sample]) -> StatusRow {
        let node = sample_value(samples, family::node, &[]).map(|v| v as u64);
        let values = COLUMNS.iter().map(|c| c.source.read(samples)).collect();
        StatusRow::from_values(target.into(), node, values)
    }

    /// One JSON object for this row (stable key order, no trailing spaces).
    pub fn to_json(&self) -> String {
        let node = self.node.map_or("null".to_string(), |n| n.to_string());
        let mut json = format!("{{\"target\":\"{}\",\"node\":{node}", self.target);
        for (column, value) in COLUMNS.iter().zip(self.values()) {
            let unit = if column.source.micros() { "_us" } else { "" };
            json += &format!(",\"{}{unit}\":{value}", column.name);
        }
        json + "}"
    }
}

/// Merges scraped sample sets by summing the values of identical
/// `(name, labels)` series.
fn merge_samples(per_node: &[Vec<Sample>]) -> Vec<Sample> {
    let mut merged: Vec<Sample> = Vec::new();
    for s in per_node.iter().flatten() {
        let same = |m: &&mut Sample| m.name == s.name && m.labels == s.labels;
        match merged.iter_mut().find(same) {
            Some(m) => m.value += s.value,
            None => merged.push(s.clone()),
        }
    }
    merged
}

/// Builds the aggregate `TOTAL` row (no `node`): every column read from
/// the summed samples — quantiles re-estimated from the summed buckets —
/// but slot, window occupancy and watermark lag as per-node maxima.
pub fn total_row(per_node: &[Vec<Sample>], rows: &[StatusRow]) -> StatusRow {
    let merged = merge_samples(per_node);
    let peak = |i: usize| rows.iter().map(|row| row.values()[i]).max().unwrap_or(0);
    let value = |(i, column): (usize, &Column)| match column.source {
        Source::Peak(_) => peak(i),
        source => source.read(&merged),
    };
    let values = COLUMNS.iter().enumerate().map(value).collect();
    StatusRow::from_values("TOTAL".to_string(), None, values)
}

/// Renders status rows as an aligned table.
pub fn render_status_table(rows: &[StatusRow]) -> String {
    let mut out = format!("{:<22} {:>4}", "TARGET", "NODE");
    for column in COLUMNS {
        if let Cell::Shown(header, width) | Cell::OverPrevious(header, width) = column.cell {
            out += &format!(" {header:>width$}");
        }
    }
    for row in rows {
        let node = row.node.map_or("-".to_string(), |n| n.to_string());
        out += &format!("\n{:<22} {node:>4}", row.target);
        let values = row.values();
        for (i, column) in COLUMNS.iter().enumerate() {
            let unit = if column.source.micros() { "u" } else { "" };
            let (cell, width) = match column.cell {
                Cell::Hidden => continue,
                Cell::Shown(_, width) => (format!("{}{unit}", values[i]), width),
                Cell::OverPrevious(_, width) => (format!("{}/{}", values[i], values[i - 1]), width),
            };
            out += &format!(" {cell:>width$}");
        }
    }
    out + "\n"
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

    /// Node 2's `sample_view` scraped as `10.0.0.1:9100`, plus a node 3 one
    /// slot ahead with more retries, and their `TOTAL`.
    fn two_rows_and_total() -> (Vec<StatusRow>, StatusRow) {
        let first = parse_exposition(&render_metrics(&sample_view())).expect("parses");
        let mut second = first.clone();
        for s in &mut second {
            match s.name.as_str() {
                "tldag_node" => s.value = 3.0,
                "tldag_slot" => s.value = 8.0,
                "tldag_window_occupancy" => s.value = 1.0,
                "tldag_watermark_lag" => s.value = 5.0,
                "tldag_net_request_retries_total" => s.value = 12.0,
                _ => {}
            }
        }
        let rows = vec![
            StatusRow::from_samples("10.0.0.1:9100", &first),
            StatusRow::from_samples("10.0.0.2:9101", &second),
        ];
        let total = total_row(&[first, second], &rows);
        (rows, total)
    }

    #[test]
    fn exposition_text_is_pinned() {
        assert_eq!(
            render_metrics(&sample_view()),
            include_str!("../tests/golden/metrics.prom")
        );
    }

    #[test]
    fn status_table_and_json_are_pinned() {
        let (rows, total) = two_rows_and_total();
        let mut all = rows.clone();
        all.push(total.clone());
        assert_eq!(
            render_status_table(&all),
            include_str!("../tests/golden/status.txt")
        );
        assert_eq!(
            status_json(&rows, &total) + "\n",
            include_str!("../tests/golden/status.json")
        );
    }

    /// Every declared family is rendered with its kind, and named in
    /// ARCHITECTURE's `/metrics` catalogue — a counter struct's families
    /// by their `<prefix><field>_total` pattern.
    #[test]
    fn every_family_is_rendered_and_documented() {
        let text = render_metrics(&sample_view());
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        for family in FAMILIES {
            let kind = format!("{:?}", family.kind).to_lowercase();
            let name = family.name;
            let (rendered, documented) = if name.ends_with('_') {
                let rendered = text.lines().any(|l| {
                    l.starts_with(&format!("# TYPE {name}")) && l.ends_with("_total counter")
                });
                (rendered, doc.contains(&format!("`{name}<field>_total`")))
            } else {
                let rendered = text.contains(&format!("# TYPE {name} {kind}\n"));
                let documented = [format!("`{name}`"), format!("`{name}{{")]
                    .iter()
                    .any(|quoted| doc.contains(quoted.as_str()));
                (rendered, documented)
            };
            assert!(rendered, "{name} is not rendered as a {kind}");
            assert!(documented, "{name} is missing from docs/ARCHITECTURE.md");
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
