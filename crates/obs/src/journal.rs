//! The structured event journal: a bounded ring of protocol events.
//!
//! One [`Journal`] records what a slot did wherever the protocol runs: the
//! in-memory slot engine keeps one (`TldagNetwork::journal`), and so does
//! every deployed node (`NodeTelemetry::journal`), so an engine transcript
//! and a node's `/journal` dump render and serialize identically. The ring
//! sits behind a mutex so the wire's slot loop, dispatcher thread, and
//! metrics listener can all touch it.
//!
//! Events carry a monotonically increasing sequence number, a timestamp in
//! milliseconds, the protocol slot, an [`EventKind`], and a free-form
//! message. [`Journal::record`] stamps the milliseconds since the journal
//! was created; the engine, which has no clock, records through
//! [`Journal::record_at`] with `ts_ms = 0`. The JSONL dump (`/journal` on
//! the metrics endpoint) emits one
//! `{"seq":…,"ts_ms":…,"slot":…,"kind":…,"msg":…}` object per line, oldest
//! first, preceded by nothing — a dropped-count is exposed as a metric, not
//! a line.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Category of a journaled event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Block generated.
    Generate,
    /// Digest transmitted/received.
    Digest,
    /// PoP request/response activity.
    Pop,
    /// Blacklist/ban activity.
    Penalty,
    /// Membership change (join/leave/eviction).
    Membership,
    /// Slot loop entered a new slot.
    SlotStart,
    /// Slot committed (durability sync done).
    Commit,
    /// Request retry fired.
    Retry,
    /// A request or barrier timed out.
    Timeout,
    /// A cooperative pruned miss (retention budgets in action).
    Pruned,
    /// Anything else.
    Other,
}

impl EventKind {
    /// Short code used in rendered transcripts and the JSONL dump.
    pub(crate) fn code(self) -> &'static str {
        match self {
            EventKind::Generate => "gen",
            EventKind::Digest => "dig",
            EventKind::Pop => "pop",
            EventKind::Penalty => "pen",
            EventKind::Membership => "mem",
            EventKind::SlotStart => "slt",
            EventKind::Commit => "cmt",
            EventKind::Retry => "rty",
            EventKind::Timeout => "tmo",
            EventKind::Pruned => "prn",
            EventKind::Other => "oth",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One journaled event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number (survives ring eviction).
    pub(crate) seq: u64,
    /// Milliseconds since the journal was created (0 from the engine).
    pub(crate) ts_ms: u64,
    /// Slot at which the event occurred.
    pub(crate) slot: u64,
    /// Category.
    pub kind: EventKind,
    /// Human-readable description.
    pub message: String,
}

/// Renders events as a readable transcript: a dropped-count banner, then
/// one `[ slot] kind message` line per event.
pub(crate) fn render_events<'a>(
    events: impl IntoIterator<Item = &'a JournalEvent>,
    dropped: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if dropped > 0 {
        let _ = writeln!(out, "… {dropped} earlier events dropped …");
    }
    for e in events {
        let _ = writeln!(out, "[{:>5}] {} {}", e.slot, e.kind, e.message);
    }
    out
}

/// Escapes a string into a JSON string literal (quotes included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One event as a single-line JSON object.
pub(crate) fn event_json(e: &JournalEvent) -> String {
    format!(
        "{{\"seq\":{},\"ts_ms\":{},\"slot\":{},\"kind\":\"{}\",\"msg\":{}}}",
        e.seq,
        e.ts_ms,
        e.slot,
        e.kind,
        json_escape(&e.message)
    )
}

/// Renders events as JSONL, oldest first, one object per line.
pub(crate) fn events_jsonl<'a>(events: impl IntoIterator<Item = &'a JournalEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

struct Ring {
    events: VecDeque<JournalEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A thread-safe bounded event journal. `Journal::bounded(0)` is disabled
/// and `Journal::bounded(usize::MAX)` unbounded.
///
/// Recording takes a short mutex critical section (push + maybe pop) —
/// journal events are per-slot and per-membership-change, not per-datagram,
/// so this is far off the hot path.
pub struct Journal {
    capacity: usize,
    inner: Mutex<Ring>,
    epoch: Instant,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Journal {
    /// A journal keeping only the most recent `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        Journal {
            capacity,
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
            epoch: Instant::now(),
        }
    }

    /// Whether events are kept at all (capacity above zero). Callers gate
    /// building an event's message on it, so a disabled journal costs a
    /// branch per event.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event stamped with the milliseconds since the journal was
    /// created, evicting the oldest past the capacity bound.
    pub fn record(&self, slot: u64, kind: EventKind, message: impl Into<String>) {
        if self.is_enabled() {
            let ts_ms = self.epoch.elapsed().as_millis() as u64;
            self.record_at(ts_ms, slot, kind, message);
        }
    }

    /// Records an event with a caller-supplied timestamp: the slot engine
    /// has no clock and stamps `ts_ms = 0`, so its transcript is a pure
    /// function of the seed.
    pub fn record_at(&self, ts_ms: u64, slot: u64, kind: EventKind, message: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("journal poisoned");
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(JournalEvent {
            seq,
            ts_ms,
            slot,
            kind,
            message: message.into(),
        });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal poisoned").events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("journal poisoned").dropped
    }

    /// A copy of the retained events in arrival order.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner
            .lock()
            .expect("journal poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        events_jsonl(&self.events())
    }

    /// Renders a readable transcript (dropped banner + one line per event).
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("journal poisoned");
        render_events(inner.events.iter(), inner.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_ring_evicts_oldest_and_keeps_seq() {
        let j = Journal::bounded(3);
        for i in 0..10u64 {
            j.record(i, EventKind::Pop, format!("e{i}"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        let events = j.events();
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[0].slot, 7);
        assert_eq!(events[2].seq, 9);
        assert!(j.render().contains("7 earlier events dropped"));
    }

    #[test]
    fn jsonl_escapes_and_shapes() {
        let j = Journal::bounded(8);
        j.record(3, EventKind::Membership, "n9 \"joined\"\nline2");
        let jsonl = j.to_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"seq\":0,"));
        assert!(line.contains("\"kind\":\"mem\""));
        assert!(line.contains("\\\"joined\\\"\\nline2"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn zero_capacity_journal_is_inert() {
        let j = Journal::bounded(0);
        assert!(!j.is_enabled());
        j.record(0, EventKind::Other, "ignored");
        j.record_at(0, 0, EventKind::Other, "ignored");
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn unbounded_keeps_everything_in_arrival_order() {
        let j = Journal::bounded(usize::MAX);
        assert!(j.is_enabled());
        for i in 0..5 {
            j.record_at(0, i, EventKind::Generate, format!("event {i}"));
        }
        let slots: Vec<u64> = j.events().iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn caller_stamped_event_is_the_exact_jsonl_line() {
        let j = Journal::bounded(usize::MAX);
        j.record_at(0, 4, EventKind::Generate, "n0 generated b4");
        assert_eq!(
            j.to_jsonl(),
            "{\"seq\":0,\"ts_ms\":0,\"slot\":4,\"kind\":\"gen\",\"msg\":\"n0 generated b4\"}\n"
        );
    }

    #[test]
    fn events_filter_by_kind() {
        let j = Journal::bounded(usize::MAX);
        j.record_at(0, 0, EventKind::Generate, "g");
        j.record_at(0, 0, EventKind::Pop, "p1");
        j.record_at(0, 1, EventKind::Pop, "p2");
        let of_kind = |kind| j.events().iter().filter(|e| e.kind == kind).count();
        assert_eq!(of_kind(EventKind::Pop), 2);
        assert_eq!(of_kind(EventKind::Generate), 1);
        assert_eq!(of_kind(EventKind::Penalty), 0);
    }

    #[test]
    fn render_shows_slot_kind_and_message() {
        let j = Journal::bounded(4);
        j.record(12, EventKind::Membership, "n9 joined");
        assert!(j.render().contains("[   12] mem n9 joined"));
    }
}
