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
//!   responder and a late reply to an earlier attempt still matches.
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
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tldag_core::codec::{self, CodecError, WireMessage};
use tldag_core::node::LedgerNode;
use tldag_obs::LatencyHistogram;
use tldag_sim::NodeId;

/// Tuning knobs for an [`Endpoint`].
#[derive(Clone, Copy, Debug)]
pub struct EndpointConfig {
    /// Maximum datagram size, including envelope overhead.
    pub mtu: usize,
    /// First-attempt reply timeout; doubles per retry up to
    /// [`EndpointConfig::max_backoff`].
    pub request_timeout: Duration,
    /// Retransmissions after the first attempt before giving up.
    pub max_retries: u32,
    /// Upper bound on the per-attempt timeout as backoff grows.
    pub max_backoff: Duration,
    /// Byte budget for partially reassembled messages.
    pub reassembly_budget: usize,
    /// Datagrams received (and decoded) per receiver wakeup: the parked
    /// receive that ends the wait plus up to `batch - 1` drained without
    /// blocking. 1 reproduces the old one-datagram-per-wakeup loop.
    pub batch: usize,
    /// How long the receiver parks in the kernel per wakeup when idle.
    /// Long parks mean near-zero idle syscall churn; the receiver still
    /// wakes instantly on traffic.
    pub park_timeout: Duration,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            mtu: DEFAULT_MTU,
            request_timeout: Duration::from_millis(80),
            max_retries: 6,
            max_backoff: Duration::from_millis(500),
            reassembly_budget: 4 << 20,
            batch: 16,
            park_timeout: Duration::from_millis(250),
        }
    }
}

/// A message delivered to the receive-loop handler (replies are routed to
/// their waiting requester internally and never reach the handler).
///
/// Inherits [`Control`]'s size skew: `Report` dwarfs everything else but
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
    pending: Mutex<HashMap<u64, SyncSender<(NodeId, WireMessage)>>>,
    metrics: NetMetrics,
    /// Wall-clock latency of answered requests (send to matched reply,
    /// retries included).
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
    pub fn id(&self) -> NodeId {
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
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// A point-in-time snapshot of the metrics.
    pub fn stats(&self) -> NetStats {
        self.metrics.snapshot()
    }

    /// Latency histogram of answered [`Endpoint::request`] calls.
    pub fn request_rtt(&self) -> &LatencyHistogram {
        &self.request_rtt
    }

    /// Histogram of per-attempt waits that timed out (realized backoff).
    pub fn retry_backoff(&self) -> &LatencyHistogram {
        &self.retry_backoff
    }

    /// Histogram of datagrams decoded per productive receiver wakeup
    /// (unit: datagrams, stored in the histogram's microsecond buckets).
    pub fn batch_fill(&self) -> &LatencyHistogram {
        &self.batch_fill
    }

    fn alloc_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn send_frames(&self, to: SocketAddr, frames: &[Vec<u8>]) {
        // UDP send errors (e.g. ICMP-refused on loopback) are
        // indistinguishable from loss for the protocol; the retry layer
        // handles both, so the batch send skips failed datagrams.
        let batch: Vec<(&[u8], SocketAddr)> = frames.iter().map(|f| (f.as_slice(), to)).collect();
        if self.transport.send_many(&batch).is_ok() {
            NetMetrics::inc(&self.metrics.send_batches);
            NetMetrics::add(&self.metrics.datagrams_sent, frames.len() as u64);
            NetMetrics::add(
                &self.metrics.bytes_sent,
                frames.iter().map(|f| f.len() as u64).sum(),
            );
        }
    }

    fn encode_frames(
        &self,
        kind: Kind,
        seq: u64,
        req_id: u64,
        payload: &[u8],
        trace: Option<TraceContext>,
    ) -> Result<Vec<Vec<u8>>, NetError> {
        encode_message_traced(kind, self.id, seq, req_id, payload, self.config.mtu, trace)
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

    /// Sends a control message.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] when the message cannot be fragmented
    /// (control messages always fit one datagram in practice).
    pub fn send_control(&self, to: SocketAddr, msg: &Control) -> Result<u64, NetError> {
        self.send_control_traced(to, msg, None)
    }

    /// [`Endpoint::send_control`] with a [`TraceContext`] riding the
    /// envelope's extension region. Old peers skip the extension and see a
    /// plain control message.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversize`] when the message cannot be fragmented.
    pub fn send_control_traced(
        &self,
        to: SocketAddr,
        msg: &Control,
        trace: Option<TraceContext>,
    ) -> Result<u64, NetError> {
        let seq = self.alloc_seq();
        let frames = self.encode_frames(
            Kind::Control,
            seq,
            0,
            &crate::control::encode_control(msg),
            trace,
        )?;
        self.send_frames(to, &frames);
        Ok(seq)
    }

    /// Sends `msg` to `to` and waits for a correlated reply, retrying with
    /// bounded exponential backoff. Returns `None` once the retry budget is
    /// exhausted (counted in `request_timeouts`) — a silent peer costs
    /// bounded time, never a hang.
    ///
    /// Requires a receiver ([`Endpoint::spawn_receiver`]) to be live on
    /// another thread; without it every request times out.
    pub fn request(&self, to: SocketAddr, msg: &WireMessage) -> Option<(NodeId, WireMessage)> {
        let seq = self.alloc_seq();
        let frames = self
            .encode_frames(Kind::Wire, seq, 0, &codec::encode_message(msg), None)
            .ok()?;
        let (tx, rx) = sync_channel(2);
        self.pending
            .lock()
            .expect("pending table poisoned")
            .insert(seq, tx);
        NetMetrics::inc(&self.metrics.requests_sent);

        let started = Instant::now();
        let mut timeout = self.config.request_timeout;
        let mut outcome = None;
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                NetMetrics::inc(&self.metrics.request_retries);
            }
            self.send_frames(to, &frames);
            match rx.recv_timeout(timeout) {
                Ok(reply) => {
                    // Counted here, not in the receiver thread, so a caller
                    // that sees the reply also sees the counter.
                    NetMetrics::inc(&self.metrics.replies_matched);
                    self.request_rtt.record(started.elapsed());
                    outcome = Some(reply);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.retry_backoff.record(timeout);
                    timeout = (timeout * 2).min(self.config.max_backoff);
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.pending
            .lock()
            .expect("pending table poisoned")
            .remove(&seq);
        if outcome.is_none() {
            NetMetrics::inc(&self.metrics.request_timeouts);
        }
        outcome
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
        let mut slots: Vec<RecvSlot> = (0..self.config.batch.max(1))
            .map(|_| RecvSlot::new(65536))
            .collect();
        let mut reassembler = Reassembler::new(self.config.reassembly_budget);
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
    /// the pending-request table, everything else to `handler`.
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

    /// Hands a reply to its waiting requester (or counts it as late).
    fn route_reply(&self, req_id: u64, from: NodeId, msg: WireMessage) {
        let sender = self
            .pending
            .lock()
            .expect("pending table poisoned")
            .get(&req_id)
            .cloned();
        match sender {
            Some(tx) => {
                if tx.try_send((from, msg)).is_err() {
                    NetMetrics::inc(&self.metrics.replies_unmatched);
                }
            }
            None => NetMetrics::inc(&self.metrics.replies_unmatched),
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
mod tests {
    use super::*;

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
