//! The endpoint: one socket, envelope framing, and request/reply plumbing.
//!
//! An [`Endpoint`] owns a [`Datagram`] transport and layers onto it:
//!
//! * envelope encode/decode with per-datagram metrics,
//! * fragmentation and budget-bounded reassembly,
//! * a pending-request table correlating replies by `req_id`, and
//! * [`Endpoint::request`] — synchronous request/response with per-attempt
//!   timeout and bounded exponential backoff. A request keeps its sequence
//!   number across retries, so retransmissions are idempotent on the
//!   responder and a late reply to an earlier attempt still matches. It is
//!   a send ([`Endpoint::send_request`], which hands back a [`Ticket`])
//!   and an await ([`Endpoint::await_reply`]) in a row; a caller that
//!   knows its next ask early sends it early and awaits it later.
//!
//! Exactly one thread runs [`Endpoint::run_receiver`], and the
//! [`ReceiverGuard`] enforces it: [`Endpoint::spawn_receiver`] (or
//! [`Endpoint::serve`], for a responder that only answers protocol
//! requests) starts the loop on its own thread and stops and joins it on
//! drop, and a second concurrent receive loop on one endpoint panics.
//! Replies are consumed there and handed to the blocked requester,
//! everything else (requests, control traffic) goes to the caller-supplied
//! handler. All send paths take `&self`, so the endpoint is shared behind
//! an `Arc`.

use crate::control::{decode_control, Control};
use crate::envelope::{decode_datagram, encode_message_traced, Kind, TraceContext, DEFAULT_MTU};
use crate::frag::Reassembler;
use crate::metrics::{NetMetrics, NetStats};
use crate::runtime::serve_wire_request;
use crate::transport::{Datagram, RecvSlot, UdpTransport};
use crate::NetError;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tldag_core::codec::{self, CodecError, WireMessage};
use tldag_core::node::LedgerNode;
use tldag_obs::LatencyHistogram;
use tldag_sim::NodeId;

/// Bytes of one receive slot: the datagram limit plus one byte, so a
/// datagram larger than any conforming sender emits fills the slot and is
/// told apart from one that fits exactly.
const RECV_SLOT_LEN: usize = DEFAULT_MTU + 1;

/// Byte budget for an endpoint's partially reassembled messages.
const REASSEMBLY_BUDGET: usize = 4 << 20;

/// Tuning knobs for an [`Endpoint`].
#[derive(Clone, Copy, Debug)]
pub struct EndpointConfig {
    /// First-attempt reply timeout; doubles per retry up to
    /// [`EndpointConfig::max_backoff`].
    pub request_timeout: Duration,
    /// Retransmissions after the first attempt before giving up.
    pub max_retries: u32,
    /// Upper bound on the per-attempt timeout as backoff grows.
    pub max_backoff: Duration,
    /// Datagrams received (and decoded) per receiver wakeup: the parked
    /// receive that ends the wait plus up to `batch - 1` drained without
    /// blocking. 1 reproduces the old one-datagram-per-wakeup loop. Each
    /// costs one receive buffer of [`DEFAULT_MTU`] + 1 bytes.
    pub batch: usize,
    /// How long the receiver parks in the kernel per wakeup when idle.
    /// Long parks mean near-zero idle syscall churn; the receiver still
    /// wakes instantly on traffic.
    pub park_timeout: Duration,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            request_timeout: Duration::from_millis(80),
            max_retries: 6,
            max_backoff: Duration::from_millis(500),
            batch: 16,
            park_timeout: Duration::from_millis(250),
        }
    }
}

/// A message delivered to the receive-loop handler (replies are routed to
/// their waiting requester internally and never reach the handler).
///
/// Inherits `Control`'s size skew: `Report` dwarfs everything else but
/// travels once per run, and `Inbound` itself lives on the receive-loop
/// stack — it is never stored in bulk, so indirection would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Inbound {
    /// A protocol message that is not a reply: serve it.
    Wire {
        /// Sending node (from the envelope).
        from: NodeId,
        /// Source address the datagram arrived from (reply here).
        src: SocketAddr,
        /// The sender's message sequence number — echo as `req_id` when
        /// replying.
        seq: u64,
        /// The decoded message.
        msg: WireMessage,
        /// Trace context from the envelope's extension region, if any.
        trace: Option<TraceContext>,
    },
    /// A runtime control message.
    Control {
        /// Sending node (from the envelope).
        from: NodeId,
        /// Source address the datagram arrived from.
        src: SocketAddr,
        /// The decoded control message.
        msg: Control,
        /// Trace context from the envelope's extension region, if any.
        trace: Option<TraceContext>,
    },
}

/// A reply routed to its pending request: sender, message, and when the
/// receive loop routed it.
type Arrival = (NodeId, WireMessage, Instant);

/// A request in flight ([`Endpoint::send_request`]): its first attempt is
/// sent, and its reply is taken with [`Endpoint::await_reply`] or given up
/// with [`Endpoint::cancel`]. Either one drops its pending entry.
#[must_use = "await or cancel a ticket, or its pending entry stays behind"]
pub(crate) struct Ticket {
    seq: u64,
    to: SocketAddr,
    /// The request's datagrams, resent as they are on a retry.
    frames: Vec<Vec<u8>>,
    /// When the first attempt went out.
    sent: Instant,
    reply: Receiver<Arrival>,
}

/// One socket endpoint of a 2LDAG node (or the harness controller).
pub struct Endpoint {
    id: NodeId,
    transport: Box<dyn Datagram>,
    config: EndpointConfig,
    /// Set while a thread is inside [`Endpoint::run_receiver`]. It guards
    /// a usage rule and publishes no data (the loop's state is its own), so
    /// `Relaxed` suffices.
    receiving: AtomicBool,
    next_seq: AtomicU64,
    pending: Mutex<HashMap<u64, SyncSender<Arrival>>>,
    metrics: NetMetrics,
    /// Wall-clock latency of answered requests: first send to the matched
    /// reply's arrival at the receive loop, retries included. How long a
    /// reply then waits for its [`Endpoint::await_reply`] is not in it.
    request_rtt: LatencyHistogram,
    /// Time burned waiting on attempts that timed out before a retry (the
    /// realized backoff schedule).
    retry_backoff: LatencyHistogram,
    /// Datagrams decoded per productive receiver wakeup (recorded as a
    /// "duration" of N microseconds = N datagrams, reusing the log2
    /// histogram for a count distribution).
    batch_fill: LatencyHistogram,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("addr", &self.transport.local_addr().ok())
            .finish()
    }
}

impl Endpoint {
    /// Binds a UDP endpoint for node `id` on `listen`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(id: NodeId, listen: SocketAddr, config: EndpointConfig) -> io::Result<Self> {
        Ok(Self::with_transport(
            id,
            Box::new(UdpTransport::bind(listen)?),
            config,
        ))
    }

    /// Builds an endpoint over an arbitrary transport (fault injection,
    /// tests).
    pub fn with_transport(
        id: NodeId,
        transport: Box<dyn Datagram>,
        config: EndpointConfig,
    ) -> Self {
        Endpoint {
            id,
            transport,
            config,
            receiving: AtomicBool::new(false),
            next_seq: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            metrics: NetMetrics::default(),
            request_rtt: LatencyHistogram::new(),
            retry_backoff: LatencyHistogram::new(),
            batch_fill: LatencyHistogram::new(),
        }
    }

    /// The node id this endpoint stamps into outgoing envelopes.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Propagates the transport's failure to report its address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.transport.local_addr()
    }

    /// The endpoint's live metrics.
    pub(crate) fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// A point-in-time snapshot of the metrics.
    pub fn stats(&self) -> NetStats {
        self.metrics.snapshot()
    }

    /// Latency histogram of answered requests, first send to the reply's
    /// arrival.
    pub fn request_rtt(&self) -> &LatencyHistogram {
        &self.request_rtt
    }

    /// Histogram of per-attempt waits that timed out (realized backoff).
    pub(crate) fn retry_backoff(&self) -> &LatencyHistogram {
        &self.retry_backoff
    }

    /// Histogram of datagrams decoded per productive receiver wakeup
    /// (unit: datagrams, stored in the histogram's microsecond buckets).
    pub(crate) fn batch_fill(&self) -> &LatencyHistogram {
        &self.batch_fill
    }

    fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn send_frames(&self, to: SocketAddr, frames: &[Vec<u8>]) {
        self.send_batch(
            &frames
                .iter()
                .map(|f| (f.as_slice(), to))
                .collect::<Vec<_>>(),
        );
    }

    /// Hands `batch` to the transport in one call.
    fn send_batch(&self, batch: &[(&[u8], SocketAddr)]) {
        // UDP send errors (e.g. ICMP-refused on loopback) are
        // indistinguishable from loss for the protocol; the retry layer
        // handles both, so the batch send skips failed datagrams.
        if batch.is_empty() || self.transport.send_many(batch).is_err() {
            return;
        }
        NetMetrics::inc(&self.metrics.send_batches);
        NetMetrics::add(&self.metrics.datagrams_sent, batch.len() as u64);
        NetMetrics::add(
            &self.metrics.bytes_sent,
            batch.iter().map(|(f, _)| f.len() as u64).sum(),
        );
    }

    fn encode_frames(
        &self,
        kind: Kind,
        seq: u64,
        req_id: u64,
        payload: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<Vec<Vec<u8>>, NetError> {
        encode_message_traced(kind, self.id, seq, req_id, payload, DEFAULT_MTU, trace)
    }

    /// Sends a protocol reply correlated to request `req_id`.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] when the message cannot be fragmented.
    pub fn send_reply(
        &self,
        to: SocketAddr,
        req_id: u64,
        msg: &WireMessage,
    ) -> Result<u64, NetError> {
        let seq = self.alloc_seq();
        let frames =
            self.encode_frames(Kind::Wire, seq, req_id, &codec::encode_message(msg), None)?;
        self.send_frames(to, &frames);
        Ok(seq)
    }

    /// Sends a control message (one the envelope cannot frame is
    /// skipped; control messages always fit one datagram in practice).
    pub(crate) fn send_control(&self, to: SocketAddr, msg: &Control) {
        self.send_controls(&[(to, *msg, None)]);
    }

    /// Sends each `(to, msg, trace)` as [`Endpoint::send_control`] would —
    /// its own msg seq, in order, with `trace` riding the envelope's
    /// extension region when set — and hands every datagram to the
    /// transport in one call: a fan-out costs one `sendmmsg`, not one send
    /// per peer. A message that cannot be framed is skipped.
    pub(crate) fn send_controls(&self, sends: &[(SocketAddr, Control, Option<TraceContext>)]) {
        let mut frames = Vec::with_capacity(sends.len());
        for (to, msg, trace) in sends {
            let seq = self.alloc_seq();
            let payload = crate::control::encode_control(msg);
            if let Ok(encoded) = self.encode_frames(Kind::Control, seq, 0, &payload, *trace) {
                frames.extend(encoded.into_iter().map(|frame| (frame, *to)));
            }
        }
        self.send_batch(
            &frames
                .iter()
                .map(|(frame, to)| (frame.as_slice(), *to))
                .collect::<Vec<_>>(),
        );
    }

    /// Sends `msg` to `to` and waits for a correlated reply, retrying with
    /// bounded exponential backoff. Returns `None` once the retry budget is
    /// exhausted (counted in `request_timeouts`) — a silent peer costs
    /// bounded time, never a hang.
    ///
    /// Requires a receiver ([`Endpoint::spawn_receiver`]) to be live on
    /// another thread; without it every request times out.
    pub fn request(&self, to: SocketAddr, msg: &WireMessage) -> Option<(NodeId, WireMessage)> {
        let ticket = self.send_request(to, msg)?;
        self.await_reply(ticket)
    }

    /// Registers a request for `msg` and sends its first attempt to `to`,
    /// without waiting: the reply is routed to the returned [`Ticket`]
    /// whenever it arrives. `None` when `msg` cannot be framed.
    pub(crate) fn send_request(&self, to: SocketAddr, msg: &WireMessage) -> Option<Ticket> {
        let seq = self.alloc_seq();
        let frames = self
            .encode_frames(Kind::Wire, seq, 0, &codec::encode_message(msg), None)
            .ok()?;
        let (tx, reply) = sync_channel(2);
        self.pending
            .lock()
            .expect("pending table poisoned")
            .insert(seq, tx);
        NetMetrics::inc(&self.metrics.requests_sent);
        let sent = Instant::now();
        self.send_frames(to, &frames);
        Some(Ticket {
            seq,
            to,
            frames,
            sent,
            reply,
        })
    }

    /// Waits for `ticket`'s reply under [`Endpoint::request`]'s retry and
    /// backoff schedule, resending under the ticket's seq. The first
    /// attempt's timeout runs from the first send, so a reply that arrived
    /// in the meantime is returned at once, and a ticket awaited after its
    /// first timeout passed retransmits at once.
    pub(crate) fn await_reply(&self, ticket: Ticket) -> Option<(NodeId, WireMessage)> {
        let Ticket {
            seq,
            to,
            frames,
            sent,
            reply,
        } = ticket;
        let mut timeout = self.config.request_timeout;
        let mut deadline = sent + timeout;
        let mut outcome = None;
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                NetMetrics::inc(&self.metrics.request_retries);
                self.send_frames(to, &frames);
                deadline = Instant::now() + timeout;
            }
            match reply.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((from, msg, arrived)) => {
                    // Counted here, not in the receiver thread, so a caller
                    // that sees the reply also sees the counter.
                    NetMetrics::inc(&self.metrics.replies_matched);
                    self.request_rtt
                        .record(arrived.saturating_duration_since(sent));
                    outcome = Some((from, msg));
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.retry_backoff.record(timeout);
                    timeout = (timeout * 2).min(self.config.max_backoff);
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.forget(seq);
        if outcome.is_none() {
            NetMetrics::inc(&self.metrics.request_timeouts);
        }
        outcome
    }

    /// Gives `ticket` up: its pending entry goes, and a reply that already
    /// arrived for it, or arrives later, counts in `replies_unmatched`.
    pub(crate) fn cancel(&self, ticket: Ticket) {
        self.forget(ticket.seq);
        for _ in ticket.reply.try_iter() {
            NetMetrics::inc(&self.metrics.replies_unmatched);
        }
    }

    /// Drops request `seq`'s pending entry.
    fn forget(&self, seq: u64) {
        self.pending
            .lock()
            .expect("pending table poisoned")
            .remove(&seq);
    }

    /// Runs the receive loop until `stop` is set: parks in the kernel until
    /// traffic (or the park timeout) wakes it, drains a batch of datagrams
    /// per wakeup, decodes envelopes, reassembles fragments, consumes
    /// replies, and hands everything else to `handler`. Malformed traffic
    /// is counted and dropped — never a panic.
    ///
    /// # Panics
    ///
    /// Panics if another thread is already running this endpoint's receive
    /// loop.
    pub fn run_receiver(&self, stop: &AtomicBool, handler: &mut dyn FnMut(Inbound)) {
        assert!(
            !self.receiving.swap(true, Ordering::Relaxed),
            "a second receive loop on one endpoint"
        );
        let _ = self
            .transport
            .set_read_timeout(Some(self.config.park_timeout.max(Duration::from_millis(1))));
        let mut slots = self.recv_slots();
        let mut reassembler = Reassembler::new(REASSEMBLY_BUDGET);
        let mut seen_evictions = 0u64;
        while !stop.load(Ordering::Relaxed) {
            NetMetrics::inc(&self.metrics.recv_wakeups);
            let filled = match self.transport.recv_many(&mut slots) {
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // The park expired with no traffic: the loop's idle
                    // cost is one syscall per park timeout, nothing more.
                    NetMetrics::inc(&self.metrics.idle_wakeups);
                    continue;
                }
                Err(_) => continue, // e.g. ICMP port-unreachable surfaced on some OSes
            };
            self.batch_fill.record(Duration::from_micros(filled as u64));
            for slot in slots.iter().take(filled) {
                if slot.len == 0 {
                    continue;
                }
                self.process_datagram(
                    &slot.buf[..slot.len],
                    slot.src,
                    &mut reassembler,
                    &mut seen_evictions,
                    handler,
                );
            }
        }
        self.receiving.store(false, Ordering::Relaxed);
    }

    /// The receive loop's buffers: `batch` slots of [`RECV_SLOT_LEN`] bytes.
    fn recv_slots(&self) -> Vec<RecvSlot> {
        (0..self.config.batch.max(1))
            .map(|_| RecvSlot::new(RECV_SLOT_LEN))
            .collect()
    }

    /// Runs [`Endpoint::run_receiver`] on its own thread until the returned
    /// guard is finished or dropped. `handler` gets the endpoint too, to
    /// reply from.
    pub fn spawn_receiver(
        self: &Arc<Self>,
        mut handler: impl FnMut(&Endpoint, Inbound) + Send + 'static,
    ) -> ReceiverGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let (endpoint, flag) = (Arc::clone(self), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            endpoint.run_receiver(&flag, &mut |inbound| handler(&endpoint, inbound));
        });
        ReceiverGuard {
            endpoint: Arc::clone(self),
            stop,
            thread: Some(thread),
        }
    }

    /// A responder for `node`'s chain: answers every protocol request
    /// through [`serve_wire_request`] and ignores control traffic.
    pub fn serve(self: &Arc<Self>, node: Arc<LedgerNode>) -> ReceiverGuard {
        self.spawn_receiver(move |endpoint, inbound| {
            if let Inbound::Wire { src, seq, msg, .. } = inbound {
                if let Some(reply) = serve_wire_request(&node, &msg) {
                    let _ = endpoint.send_reply(src, seq, &reply);
                }
            }
        })
    }

    /// Decodes one received datagram and routes its message: replies to
    /// the pending-request table, everything else to `handler`. A datagram
    /// that filled its whole [`RECV_SLOT_LEN`] slot was larger than
    /// [`DEFAULT_MTU`] and arrived truncated: it is a malformed drop, never
    /// decoded.
    fn process_datagram(
        &self,
        datagram: &[u8],
        src: SocketAddr,
        reassembler: &mut Reassembler,
        seen_evictions: &mut u64,
        handler: &mut dyn FnMut(Inbound),
    ) {
        NetMetrics::inc(&self.metrics.datagrams_received);
        NetMetrics::add(&self.metrics.bytes_received, datagram.len() as u64);
        if datagram.len() > DEFAULT_MTU {
            NetMetrics::inc(&self.metrics.malformed_drops);
            return;
        }
        let (env, fragment) = match decode_datagram(datagram) {
            Ok(d) => d,
            Err(e) => {
                match e {
                    NetError::BadCrc => NetMetrics::inc(&self.metrics.crc_drops),
                    NetError::BadVersion(_) => NetMetrics::inc(&self.metrics.version_drops),
                    _ => NetMetrics::inc(&self.metrics.malformed_drops),
                }
                return;
            }
        };
        let Some(payload) = reassembler.offer(&env, fragment) else {
            let evictions = reassembler.evictions();
            if evictions > *seen_evictions {
                NetMetrics::add(
                    &self.metrics.reassembly_evictions,
                    evictions - *seen_evictions,
                );
                *seen_evictions = evictions;
            }
            return;
        };
        if env.frag_count > 1 {
            NetMetrics::inc(&self.metrics.messages_reassembled);
        }
        match env.kind {
            Kind::Wire => match codec::decode_message(&payload) {
                Ok(msg) => {
                    if env.req_id != 0 {
                        self.route_reply(env.req_id, env.sender, msg);
                    } else {
                        handler(Inbound::Wire {
                            from: env.sender,
                            src,
                            seq: env.msg_seq,
                            msg,
                            trace: env.trace,
                        });
                    }
                }
                Err(CodecError::UnknownTag(_)) => {
                    // Version skew: a peer speaks a newer message set.
                    NetMetrics::inc(&self.metrics.unknown_tag_drops);
                }
                Err(_) => NetMetrics::inc(&self.metrics.codec_error_drops),
            },
            Kind::Control => match decode_control(&payload) {
                Ok(msg) => handler(Inbound::Control {
                    from: env.sender,
                    src,
                    msg,
                    trace: env.trace,
                }),
                Err(NetError::BadControlTag(_) | NetError::BadAddressFamily(_)) => {
                    // Version skew, not framing: count it as such.
                    NetMetrics::inc(&self.metrics.unknown_tag_drops);
                }
                Err(_) => NetMetrics::inc(&self.metrics.codec_error_drops),
            },
        }
    }

    /// Hands a reply to its waiting requester, stamped with its arrival
    /// (or counts it as late).
    fn route_reply(&self, req_id: u64, from: NodeId, msg: WireMessage) {
        // Sent under the table's lock, so a reply lands in its ticket before
        // a concurrent `cancel` drains it, or finds no entry at all.
        let pending = self.pending.lock().expect("pending table poisoned");
        let routed = pending
            .get(&req_id)
            .is_some_and(|tx| tx.try_send((from, msg, Instant::now())).is_ok());
        if !routed {
            NetMetrics::inc(&self.metrics.replies_unmatched);
        }
    }
}

/// The thread running one endpoint's receive loop
/// ([`Endpoint::spawn_receiver`]). Dropping the guard stops the loop and
/// joins the thread; [`ReceiverGuard::finish`] does the same and reports a
/// panicked handler.
#[must_use = "dropping the guard stops the receiver"]
pub struct ReceiverGuard {
    endpoint: Arc<Endpoint>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReceiverGuard {
    /// The endpoint this guard receives for.
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// Stops the receive loop and joins its thread.
    ///
    /// # Errors
    ///
    /// The handler panicked.
    pub fn finish(mut self) -> Result<(), String> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| "receiver thread panicked".to_string()),
            None => Ok(()),
        }
    }
}

impl Drop for ReceiverGuard {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

#[cfg(test)]
impl Endpoint {
    /// Requests registered and neither awaited nor cancelled yet.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.lock().expect("pending table poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::decode_datagram;
    use std::sync::mpsc::{channel, Receiver};

    /// Loopback UDP that drops the first `drop_first` datagrams it is
    /// asked to send and logs the msg seq of every one.
    struct Scripted {
        udp: UdpTransport,
        drop_first: usize,
        sent: Arc<Mutex<Vec<u64>>>,
    }

    impl Datagram for Scripted {
        fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
            let mut sent = self.sent.lock().expect("log");
            sent.push(decode_datagram(buf).expect("own datagram").0.msg_seq);
            if sent.len() <= self.drop_first {
                return Ok(buf.len());
            }
            self.udp.send_to(buf, addr)
        }
        fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            self.udp.recv_from(buf)
        }
        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.udp.local_addr()
        }
        fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
            self.udp.set_read_timeout(dur)
        }
    }

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    /// A short first timeout and a long retry budget: retransmissions come
    /// quickly, and a request outlasts any test's scripted delay.
    fn quick(request_timeout: Duration) -> EndpointConfig {
        EndpointConfig {
            request_timeout,
            max_retries: 10,
            max_backoff: Duration::from_millis(120),
            park_timeout: Duration::from_millis(10),
            ..EndpointConfig::default()
        }
    }

    /// A requester over `transport` with its receive loop running.
    fn requester(transport: Box<dyn Datagram>, config: EndpointConfig) -> ReceiverGuard {
        Arc::new(Endpoint::with_transport(NodeId(0), transport, config)).spawn_receiver(|_, _| {})
    }

    /// A responder the test answers by hand: the source and seq of every
    /// request it receives come out of the returned channel.
    fn manual_responder() -> (ReceiverGuard, Receiver<(SocketAddr, u64)>) {
        let (tx, rx) = channel();
        let endpoint = Arc::new(
            Endpoint::bind(NodeId(1), loopback(), quick(Duration::from_secs(1))).expect("bind"),
        );
        let guard = endpoint.spawn_receiver(move |_, inbound| {
            if let Inbound::Wire { src, seq, .. } = inbound {
                let _ = tx.send((src, seq));
            }
        });
        (guard, rx)
    }

    fn fetch() -> WireMessage {
        WireMessage::FetchBlock {
            from: NodeId(0),
            id: tldag_core::block::BlockId::new(NodeId(1), 0),
        }
    }

    fn nack() -> WireMessage {
        WireMessage::Nack { from: NodeId(1) }
    }

    /// Polls `done` until it holds, for at most five seconds.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let until = Instant::now() + Duration::from_secs(5);
        while !done() {
            assert!(Instant::now() < until, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A ticket whose reply has reached the requester's receive loop and
    /// then waited `idle` before anyone awaits it.
    fn answered_ticket(idle: Duration) -> (ReceiverGuard, Ticket) {
        let (responder, requests) = manual_responder();
        let to = responder.endpoint().local_addr().expect("addr");
        let udp = UdpTransport::bind(loopback()).expect("bind");
        let requester = requester(Box::new(udp), quick(Duration::from_secs(2)));
        let endpoint = requester.endpoint();
        let ticket = endpoint.send_request(to, &fetch()).expect("framed");
        let (src, seq) = requests
            .recv_timeout(Duration::from_secs(5))
            .expect("request");
        assert_eq!(seq, ticket.seq);
        responder
            .endpoint()
            .send_reply(src, seq, &nack())
            .expect("framed");
        eventually("the reply", || endpoint.stats().datagrams_received == 1);
        std::thread::sleep(idle);
        (requester, ticket)
    }

    #[test]
    fn a_reply_that_arrived_before_the_await_is_returned_at_once_and_counted_once() {
        let (requester, ticket) = answered_ticket(Duration::from_millis(20));
        let endpoint = requester.endpoint();
        assert_eq!(endpoint.stats().replies_matched, 0, "counted when awaited");
        let started = Instant::now();
        let reply = endpoint.await_reply(ticket);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the reply was waiting"
        );
        assert_eq!(reply, Some((NodeId(1), nack())));
        let stats = endpoint.stats();
        assert_eq!((stats.requests_sent, stats.request_retries), (1, 0));
        assert_eq!((stats.replies_matched, stats.replies_unmatched), (1, 0));
        assert_eq!(endpoint.pending_len(), 0);
    }

    #[test]
    fn request_rtt_ends_when_the_reply_arrives_not_when_it_is_awaited() {
        let idle = Duration::from_millis(50);
        let (requester, ticket) = answered_ticket(idle);
        let endpoint = requester.endpoint();
        assert!(endpoint.await_reply(ticket).is_some());
        let rtt = endpoint.request_rtt().snapshot();
        assert_eq!(rtt.count, 1);
        assert!(
            rtt.max_micros < idle.as_micros() as u64,
            "send -> arrival took {} us, idle time included",
            rtt.max_micros
        );
    }

    #[test]
    fn a_dropped_first_datagram_is_resent_under_its_seq_and_a_late_reply_still_matches() {
        let (responder, requests) = manual_responder();
        let to = responder.endpoint().local_addr().expect("addr");
        let sent = Arc::new(Mutex::new(Vec::new()));
        let scripted = Scripted {
            udp: UdpTransport::bind(loopback()).expect("bind"),
            drop_first: 1,
            sent: Arc::clone(&sent),
        };
        let requester = requester(Box::new(scripted), quick(Duration::from_millis(30)));
        let endpoint = requester.endpoint();
        let ticket = endpoint.send_request(to, &fetch()).expect("framed");
        let seq = ticket.seq;
        std::thread::scope(|scope| {
            let awaited = scope.spawn(|| endpoint.await_reply(ticket));
            // The first attempt was dropped: the second is the first to
            // arrive. Answer it only after the third went out too.
            let (src, second) = requests
                .recv_timeout(Duration::from_secs(5))
                .expect("retry");
            let (_, third) = requests
                .recv_timeout(Duration::from_secs(5))
                .expect("retry");
            assert_eq!((second, third), (seq, seq));
            responder
                .endpoint()
                .send_reply(src, second, &nack())
                .expect("framed");
            let reply = awaited.join().expect("await");
            assert_eq!(reply, Some((NodeId(1), nack())));
            // The answer to the third attempt finds the request done.
            responder
                .endpoint()
                .send_reply(src, third, &nack())
                .expect("framed");
        });
        eventually("the second reply", || {
            endpoint.stats().replies_unmatched == 1
        });
        let sent = sent.lock().expect("log").clone();
        assert!(sent.len() >= 3, "{sent:?}");
        assert!(
            sent.iter().all(|&s| s == seq),
            "one seq across retries: {sent:?}"
        );
        let stats = endpoint.stats();
        assert_eq!(stats.request_retries, sent.len() as u64 - 1);
        assert_eq!((stats.replies_matched, stats.request_timeouts), (1, 0));
        assert_eq!(endpoint.pending_len(), 0);
    }

    #[test]
    fn a_reply_to_a_cancelled_ticket_is_unmatched() {
        let (responder, requests) = manual_responder();
        let to = responder.endpoint().local_addr().expect("addr");
        let udp = UdpTransport::bind(loopback()).expect("bind");
        let requester = requester(Box::new(udp), quick(Duration::from_secs(2)));
        let endpoint = requester.endpoint();
        let ticket = endpoint.send_request(to, &fetch()).expect("framed");
        let (src, seq) = requests
            .recv_timeout(Duration::from_secs(5))
            .expect("request");
        endpoint.cancel(ticket);
        assert_eq!(endpoint.pending_len(), 0);
        responder
            .endpoint()
            .send_reply(src, seq, &nack())
            .expect("framed");
        eventually("the reply", || endpoint.stats().replies_unmatched == 1);
        let stats = endpoint.stats();
        assert_eq!((stats.replies_matched, stats.request_timeouts), (0, 0));
        assert_eq!(endpoint.pending_len(), 0);
    }

    #[test]
    fn receive_slots_hold_one_datagram_each() {
        for batch in [1, 4, EndpointConfig::default().batch] {
            let config = EndpointConfig {
                batch,
                ..EndpointConfig::default()
            };
            let listen = "127.0.0.1:0".parse().expect("addr");
            let endpoint = Endpoint::bind(NodeId(0), listen, config).expect("bind");
            let slots = endpoint.recv_slots();
            assert_eq!(slots.len(), batch);
            let bytes: usize = slots.iter().map(|s| s.buf.capacity()).sum();
            assert_eq!(bytes, batch * (DEFAULT_MTU + 1), "batch {batch}");
        }
    }

    #[test]
    fn one_receive_loop_per_endpoint_and_finish_reports_its_panic() {
        let config = EndpointConfig {
            park_timeout: Duration::from_millis(10),
            ..EndpointConfig::default()
        };
        let listen = "127.0.0.1:0".parse().expect("addr");
        let endpoint = Arc::new(Endpoint::bind(NodeId(0), listen, config).expect("bind"));
        let first = endpoint.spawn_receiver(|_, _| {});
        while !endpoint.receiving.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let second = endpoint.spawn_receiver(|_, _| {});
        assert!(second.finish().is_err(), "a second loop must panic");
        first.finish().expect("the first loop stops cleanly");
        let again = endpoint.spawn_receiver(|_, _| {});
        again
            .finish()
            .expect("a loop may start once the first stopped");
    }
}
