//! Causal block-lifecycle tracing: a lock-free bounded span store.
//!
//! Every block's life is a sequence of **spans** — generated on its owner,
//! gossiped out, received / verified on each neighbor, committed at the
//! slot boundary — keyed by `(slot, origin, hash-prefix)` so spans recorded
//! on *different* nodes stitch into one cross-node timeline. The store is a
//! preallocated ring of atomic cells written with a per-cell seqlock
//! (version word incremented to odd before the write and to even after),
//! so recording never blocks the slot loop and never allocates; readers
//! retry a cell whose version moved underneath them. Overwrites of live
//! cells bump `evicted_total`, records against a zero-capacity (disabled)
//! store bump `dropped_total` — both are exported to `/metrics` so silent
//! ring overflow is visible.

use std::sync::atomic::{AtomicU64, Ordering};

/// One lifecycle stage of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// The block was assembled, mined, and appended on its owner.
    Generated,
    /// The owner broadcast the block's digest to its neighbors.
    GossipedOut,
    /// A remote node received the digest gossip.
    Received,
    /// A remote node completed a PoP verification of the block.
    Verified,
    /// The block's slot closed (store synced / digest committed) on a node.
    Committed,
}

impl SpanKind {
    /// Stable three-letter code used in JSON and metrics labels.
    pub(crate) fn code(self) -> &'static str {
        match self {
            SpanKind::Generated => "gen",
            SpanKind::GossipedOut => "out",
            SpanKind::Received => "rcv",
            SpanKind::Verified => "vfy",
            SpanKind::Committed => "cmt",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(SpanKind::Generated),
            1 => Some(SpanKind::GossipedOut),
            2 => Some(SpanKind::Received),
            3 => Some(SpanKind::Verified),
            4 => Some(SpanKind::Committed),
            _ => None,
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            SpanKind::Generated => 0,
            SpanKind::GossipedOut => 1,
            SpanKind::Received => 2,
            SpanKind::Verified => 3,
            SpanKind::Committed => 4,
        }
    }
}

/// One recorded span: lifecycle stage `kind` of block
/// `(slot, origin, prefix)` observed on `node` at `ts_micros`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Generation slot of the block.
    pub slot: u64,
    /// Node that generated the block.
    pub origin: u32,
    /// First 8 bytes (big-endian) of the block's header digest.
    pub prefix: u64,
    /// Node on which this span was recorded.
    pub node: u32,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Wall-clock timestamp, microseconds since the UNIX epoch — comparable
    /// across the loopback processes of one cluster run.
    pub ts_micros: u64,
}

/// The identity a timeline groups by.
pub(crate) type BlockKey = (u64, u32, u64);

/// All spans of one block, across every node that reported them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockTimeline {
    /// Generation slot.
    pub(crate) slot: u64,
    /// Generating node.
    pub(crate) origin: u32,
    /// Header-digest prefix.
    pub(crate) prefix: u64,
    /// Spans sorted by timestamp (ties broken by lifecycle order, then node).
    pub(crate) spans: Vec<SpanEvent>,
}

impl BlockTimeline {
    /// Distinct nodes that contributed at least one span.
    pub fn node_count(&self) -> usize {
        let mut nodes: Vec<u32> = self.spans.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Whether the timeline is **stitched**: it has a `Generated` span from
    /// its origin *and* spans from at least one other node.
    pub(crate) fn is_stitched(&self) -> bool {
        let generated_at_origin = self
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Generated && s.node == self.origin);
        generated_at_origin && self.spans.iter().any(|s| s.node != self.origin)
    }

    /// Timestamp of the first `Generated` span, if any.
    pub fn generated_at(&self) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Generated)
            .map(|s| s.ts_micros)
            .min()
    }

    /// Latest `Committed` timestamp if at least `quorum` distinct nodes
    /// committed the block — the "committed everywhere" instant.
    pub fn committed_everywhere(&self, quorum: usize) -> Option<u64> {
        let mut commits: Vec<(u32, u64)> = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Committed)
            .map(|s| (s.node, s.ts_micros))
            .collect();
        commits.sort_unstable();
        commits.dedup_by_key(|(node, _)| *node);
        if commits.len() >= quorum.max(1) {
            commits.iter().map(|&(_, ts)| ts).max()
        } else {
            None
        }
    }
}

/// One ring cell: a seqlock version word plus the span fields.
///
/// `version` is even when the cell is stable and odd while a writer owns
/// it; `version / 2` counts completed writes, so 0 means "never written".
#[derive(Debug)]
struct Cell {
    version: AtomicU64,
    slot: AtomicU64,
    origin_node: AtomicU64, // origin in the high 32 bits, node in the low
    prefix: AtomicU64,
    kind: AtomicU64,
    ts_micros: AtomicU64,
}

impl Cell {
    fn new() -> Self {
        Cell {
            version: AtomicU64::new(0),
            slot: AtomicU64::new(0),
            origin_node: AtomicU64::new(0),
            prefix: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            ts_micros: AtomicU64::new(0),
        }
    }

    fn write(&self, span: &SpanEvent) {
        // Take the cell: odd version tells readers a write is in flight.
        self.version.fetch_add(1, Ordering::AcqRel);
        self.slot.store(span.slot, Ordering::Relaxed);
        self.origin_node.store(
            (u64::from(span.origin) << 32) | u64::from(span.node),
            Ordering::Relaxed,
        );
        self.prefix.store(span.prefix, Ordering::Relaxed);
        self.kind.store(span.kind.as_u64(), Ordering::Relaxed);
        self.ts_micros.store(span.ts_micros, Ordering::Relaxed);
        // Release the cell: back to even.
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// A consistent read, or `None` if the cell is empty or a concurrent
    /// writer kept moving it (bounded retries — the snapshot is advisory).
    fn read(&self) -> Option<SpanEvent> {
        for _ in 0..8 {
            let before = self.version.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                if before == 0 {
                    return None;
                }
                std::hint::spin_loop();
                continue;
            }
            let slot = self.slot.load(Ordering::Relaxed);
            let origin_node = self.origin_node.load(Ordering::Relaxed);
            let prefix = self.prefix.load(Ordering::Relaxed);
            let kind = self.kind.load(Ordering::Relaxed);
            let ts_micros = self.ts_micros.load(Ordering::Relaxed);
            if self.version.load(Ordering::Acquire) == before {
                return Some(SpanEvent {
                    slot,
                    origin: (origin_node >> 32) as u32,
                    prefix,
                    node: (origin_node & 0xffff_ffff) as u32,
                    kind: SpanKind::from_u64(kind)?,
                    ts_micros,
                });
            }
        }
        None
    }
}

/// A lock-free bounded span store: the per-node trace ring behind `/trace`.
#[derive(Debug)]
pub struct SpanStore {
    cells: Vec<Cell>,
    head: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
}

/// Default ring capacity: roomy enough for every span of a few hundred
/// slots on a small cluster.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

impl SpanStore {
    /// A store holding at most `capacity` spans. Capacity 0 disables the
    /// store: every record is counted in [`SpanStore::dropped`] instead.
    pub fn bounded(capacity: usize) -> Self {
        SpanStore {
            cells: (0..capacity).map(|_| Cell::new()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Whether this store records anything at all.
    pub fn is_enabled(&self) -> bool {
        !self.cells.is_empty()
    }

    /// Records one span. Never blocks; overwrites the oldest span when the
    /// ring is full (counted in [`SpanStore::evicted`]).
    pub fn record(&self, span: SpanEvent) {
        if self.cells.is_empty() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if ticket >= self.cells.len() as u64 {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let idx = (ticket % self.cells.len() as u64) as usize;
        self.cells[idx].write(&span);
    }

    /// Spans recorded against a disabled store.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Live spans overwritten because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// A consistent best-effort copy of the ring, oldest span first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        if self.cells.is_empty() {
            return Vec::new();
        }
        let head = self.head.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        let start = head.saturating_sub(cap);
        (start..head)
            .filter_map(|ticket| self.cells[(ticket % cap) as usize].read())
            .collect()
    }
}

/// Groups spans (possibly merged from several nodes' stores) into per-block
/// timelines, ordered by `(slot, origin, prefix)`; spans within a timeline
/// are sorted by timestamp, then lifecycle order, then node.
pub fn build_timelines(spans: &[SpanEvent]) -> Vec<BlockTimeline> {
    let mut by_key: std::collections::BTreeMap<BlockKey, Vec<SpanEvent>> =
        std::collections::BTreeMap::new();
    for span in spans {
        by_key
            .entry((span.slot, span.origin, span.prefix))
            .or_default()
            .push(*span);
    }
    by_key
        .into_iter()
        .map(|((slot, origin, prefix), mut spans)| {
            spans.sort_by_key(|s| (s.ts_micros, s.kind.as_u64(), s.node));
            spans.dedup();
            BlockTimeline {
                slot,
                origin,
                prefix,
                spans,
            }
        })
        .collect()
}

/// Renders one span as a JSON object.
pub fn span_json(span: &SpanEvent) -> String {
    format!(
        "{{\"slot\":{},\"origin\":{},\"prefix\":\"{:016x}\",\"node\":{},\
\"kind\":\"{}\",\"ts_micros\":{}}}",
        span.slot,
        span.origin,
        span.prefix,
        span.node,
        span.kind.code(),
        span.ts_micros
    )
}

/// Renders a full `/trace` response: store counters plus per-block
/// timelines assembled from `spans`.
pub fn trace_json(node: u32, spans: &[SpanEvent], dropped: u64, evicted: u64) -> String {
    let timelines = build_timelines(spans);
    let mut out = String::with_capacity(256 + spans.len() * 96);
    out.push_str(&format!(
        "{{\"node\":{node},\"spans\":{},\"dropped\":{dropped},\"evicted\":{evicted},\
\"timelines\":[",
        spans.len()
    ));
    for (i, t) in timelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"slot\":{},\"origin\":{},\"prefix\":\"{:016x}\",\"nodes\":{},\
\"stitched\":{},\"spans\":[",
            t.slot,
            t.origin,
            t.prefix,
            t.node_count(),
            t.is_stitched()
        ));
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Microseconds since the UNIX epoch — the span timestamp source. Spans
/// from different processes on one host compare directly.
pub fn unix_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
impl SpanStore {
    /// Snapshot grouped into per-block timelines, ordered by
    /// `(slot, origin, prefix)`.
    fn timelines(&self) -> Vec<BlockTimeline> {
        build_timelines(&self.snapshot())
    }

    /// An inert store (capacity 0) for tracing-off runs.
    fn disabled() -> Self {
        Self::bounded(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(slot: u64, origin: u32, prefix: u64, node: u32, kind: SpanKind, ts: u64) -> SpanEvent {
        SpanEvent {
            slot,
            origin,
            prefix,
            node,
            kind,
            ts_micros: ts,
        }
    }

    #[test]
    fn record_and_snapshot_in_order() {
        let store = SpanStore::bounded(16);
        for i in 0..5u64 {
            store.record(span(i, 0, i, 0, SpanKind::Generated, 100 + i));
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0].slot, 0);
        assert_eq!(snap[4].slot, 4);
        assert_eq!(store.dropped(), 0);
        assert_eq!(store.evicted(), 0);
        assert_eq!(store.recorded(), 5);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let store = SpanStore::bounded(4);
        for i in 0..10u64 {
            store.record(span(i, 0, i, 0, SpanKind::Generated, i));
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].slot, 6, "oldest surviving span");
        assert_eq!(snap[3].slot, 9);
        assert_eq!(store.evicted(), 6);
        assert_eq!(store.dropped(), 0);
    }

    #[test]
    fn disabled_store_counts_drops() {
        let store = SpanStore::disabled();
        assert!(!store.is_enabled());
        store.record(span(0, 0, 0, 0, SpanKind::Generated, 0));
        store.record(span(1, 0, 0, 0, SpanKind::Committed, 1));
        assert_eq!(store.dropped(), 2);
        assert!(store.snapshot().is_empty());
        assert!(store.timelines().is_empty());
    }

    #[test]
    fn timelines_group_and_stitch_across_nodes() {
        let store = SpanStore::bounded(64);
        // Block (3, origin 0, prefix 0xaa): generated on 0, received and
        // verified on 1 and 2, committed on all three.
        store.record(span(3, 0, 0xaa, 0, SpanKind::Generated, 10));
        store.record(span(3, 0, 0xaa, 0, SpanKind::GossipedOut, 11));
        store.record(span(3, 0, 0xaa, 1, SpanKind::Received, 12));
        store.record(span(3, 0, 0xaa, 2, SpanKind::Received, 13));
        store.record(span(3, 0, 0xaa, 1, SpanKind::Verified, 14));
        for node in 0..3 {
            store.record(span(
                3,
                0,
                0xaa,
                node,
                SpanKind::Committed,
                20 + u64::from(node),
            ));
        }
        // An unrelated local-only block.
        store.record(span(3, 1, 0xbb, 1, SpanKind::Generated, 10));

        let timelines = store.timelines();
        assert_eq!(timelines.len(), 2);
        let t = &timelines[0];
        assert_eq!((t.slot, t.origin, t.prefix), (3, 0, 0xaa));
        assert_eq!(t.node_count(), 3);
        assert!(t.is_stitched());
        assert_eq!(t.generated_at(), Some(10));
        assert_eq!(t.committed_everywhere(3), Some(22));
        assert_eq!(t.committed_everywhere(4), None);
        assert!(!timelines[1].is_stitched(), "no remote span");
        // Spans are time-ordered.
        let ts: Vec<u64> = t.spans.iter().map(|s| s.ts_micros).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn concurrent_recording_never_yields_torn_spans() {
        let store = std::sync::Arc::new(SpanStore::bounded(128));
        let mut handles = Vec::new();
        for node in 0..4u32 {
            let store = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    // Encode node+i into every field so a torn read would
                    // produce an inconsistent tuple.
                    let tag = u64::from(node) * 1000 + i;
                    store.record(SpanEvent {
                        slot: tag,
                        origin: node,
                        prefix: tag,
                        node,
                        kind: SpanKind::Received,
                        ts_micros: tag,
                    });
                }
            }));
        }
        for _ in 0..50 {
            for s in store.snapshot() {
                assert_eq!(s.slot, s.prefix, "torn span: {s:?}");
                assert_eq!(s.ts_micros, s.slot);
                assert_eq!(u64::from(s.origin), s.slot / 1000);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.recorded(), 2000);
        assert_eq!(store.evicted(), 2000 - 128);
    }

    #[test]
    fn trace_json_is_wellformed() {
        let spans = vec![
            span(1, 0, 0xdead, 0, SpanKind::Generated, 5),
            span(1, 0, 0xdead, 1, SpanKind::Received, 6),
        ];
        let json = trace_json(7, &spans, 1, 2);
        assert!(json.starts_with("{\"node\":7,"));
        assert!(json.contains("\"dropped\":1"));
        assert!(json.contains("\"evicted\":2"));
        assert!(json.contains("\"prefix\":\"000000000000dead\""));
        assert!(json.contains("\"kind\":\"gen\""));
        assert!(json.contains("\"stitched\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn unix_micros_is_monotonic_enough() {
        let a = unix_micros();
        let b = unix_micros();
        assert!(b >= a);
        assert!(a > 1_000_000_000_000_000, "post-2001 epoch micros");
    }
}
