//! Datagram transports: real UDP sockets and a fault-injecting wrapper.
//!
//! [`Datagram`] is the minimal socket surface the endpoint needs, so tests
//! and experiments can interpose. [`UdpTransport`] is the production
//! implementation over `std::net::UdpSocket`; [`FaultyTransport`] wraps any
//! transport and injects deterministic datagram loss, duplication, and
//! reordering on the *send* path — the knob behind the `fig11_wire`
//! loss-sweep experiment.

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use tldag_sim::DetRng;

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// One slot of a batched receive ([`Datagram::recv_many`]): a reusable
/// buffer plus the length and source the transport fills in per wakeup.
#[derive(Debug)]
pub struct RecvSlot {
    /// Datagram buffer; its length bounds the largest receivable datagram.
    pub buf: Vec<u8>,
    /// Bytes of [`RecvSlot::buf`] filled by the last receive (0 = the slot
    /// was filled with an undecodable source address and must be skipped).
    pub len: usize,
    /// Source address of the received datagram.
    pub src: SocketAddr,
}

impl RecvSlot {
    /// A slot with a zeroed `capacity`-byte buffer.
    pub fn new(capacity: usize) -> Self {
        RecvSlot {
            buf: vec![0; capacity],
            len: 0,
            src: SocketAddr::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0),
        }
    }
}

/// Minimal datagram socket surface.
///
/// Send paths take `&self` (UDP sockets are thread-safe), so one transport
/// can be shared between a receiver thread and any number of senders.
pub trait Datagram: Send + Sync {
    /// Sends one datagram to `addr`.
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize>;

    /// Receives one datagram, returning its size and source.
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// The local address this transport is bound to.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Sets the blocking-read timeout used by the receive loop.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;

    /// Sends a batch of `(payload, destination)` datagrams in one call.
    ///
    /// Per-datagram send failures are loss-equivalent for the protocol
    /// (the retry layer recovers), so implementations skip them rather
    /// than abort the batch. The portable default loops
    /// [`Datagram::send_to`]; [`UdpTransport`] hands the whole batch to
    /// the kernel with `sendmmsg` on Linux.
    ///
    /// # Errors
    ///
    /// Only transport-level failures that doom the entire batch.
    fn send_many(&self, batch: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
        for (buf, addr) in batch {
            let _ = self.send_to(buf, *addr);
        }
        Ok(batch.len())
    }

    /// Receives up to `slots.len()` datagrams in one wakeup, returning how
    /// many slots were filled.
    ///
    /// The first receive honors the configured read timeout — this is the
    /// event loop's *park*, so an idle endpoint blocks in the kernel
    /// instead of spinning. Once traffic arrives, implementations may
    /// drain further already-queued datagrams without blocking
    /// ([`UdpTransport`] uses `recvmmsg(MSG_DONTWAIT)` on Linux); the
    /// portable default receives exactly one.
    ///
    /// # Errors
    ///
    /// Timeout expiry surfaces as `WouldBlock`/`TimedOut` from the parked
    /// receive, exactly like [`Datagram::recv_from`].
    fn recv_many(&self, slots: &mut [RecvSlot]) -> io::Result<usize> {
        let Some(first) = slots.first_mut() else {
            return Ok(0);
        };
        let (len, src) = self.recv_from(&mut first.buf)?;
        first.len = len;
        first.src = src;
        Ok(1)
    }
}

impl<T: Datagram + ?Sized> Datagram for std::sync::Arc<T> {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        (**self).send_to(buf, addr)
    }
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        (**self).recv_from(buf)
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        (**self).local_addr()
    }
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        (**self).set_read_timeout(dur)
    }
    fn send_many(&self, batch: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
        (**self).send_many(batch)
    }
    fn recv_many(&self, slots: &mut [RecvSlot]) -> io::Result<usize> {
        (**self).recv_many(slots)
    }
}

/// The production transport: a plain UDP socket.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
}

impl UdpTransport {
    /// Binds a UDP socket on `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any socket-level bind failure.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        Ok(UdpTransport {
            socket: UdpSocket::bind(addr)?,
        })
    }
}

impl Datagram for UdpTransport {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        self.socket.send_to(buf, addr)
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.socket.recv_from(buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.socket.set_read_timeout(dur)
    }

    fn send_many(&self, batch: &[(&[u8], SocketAddr)]) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        if batch.len() > 1 {
            if let Ok(sent) = crate::mmsg::send_batch(self.socket.as_raw_fd(), batch) {
                // The kernel accepted a prefix; the rest goes out the
                // portable way (send errors are loss-equivalent).
                for (buf, addr) in &batch[sent..] {
                    let _ = self.socket.send_to(buf, *addr);
                }
                return Ok(batch.len());
            }
        }
        for (buf, addr) in batch {
            let _ = self.socket.send_to(buf, *addr);
        }
        Ok(batch.len())
    }

    fn recv_many(&self, slots: &mut [RecvSlot]) -> io::Result<usize> {
        let Some((first, rest)) = slots.split_first_mut() else {
            return Ok(0);
        };
        // The park: blocks up to the configured read timeout.
        let (len, src) = self.socket.recv_from(&mut first.buf)?;
        first.len = len;
        first.src = src;
        let mut filled = 1;
        #[cfg(target_os = "linux")]
        if !rest.is_empty() {
            if let Ok(n) = crate::mmsg::recv_batch_nonblocking(self.socket.as_raw_fd(), rest) {
                filled += n;
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = rest;
        Ok(filled)
    }
}

/// Fault rates for [`FaultyTransport`], each an independent per-datagram
/// probability applied on send.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a datagram is silently dropped.
    pub drop: f64,
    /// Probability a datagram is sent twice.
    pub duplicate: f64,
    /// Probability a datagram is held back and sent after the next one.
    pub reorder: f64,
}

impl FaultSpec {
    /// A loss-only spec (the primary `fig11_wire` axis).
    pub fn loss(p: f64) -> Self {
        FaultSpec {
            drop: p,
            ..FaultSpec::default()
        }
    }

    /// Loss plus mild duplication/reordering scaled off the loss rate — the
    /// "everything at once" degraded-network profile.
    pub fn degraded(p: f64) -> Self {
        FaultSpec {
            drop: p,
            duplicate: p / 4.0,
            reorder: p / 2.0,
        }
    }
}

struct FaultState {
    rng: DetRng,
    /// Datagram held back by a reorder decision.
    held: Option<(Vec<u8>, SocketAddr)>,
}

/// A [`Datagram`] wrapper injecting deterministic send-path faults.
///
/// Faults are decided by a seeded [`DetRng`], so a sweep is reproducible.
/// Wrapping both endpoints of a conversation makes both directions lossy.
pub struct FaultyTransport<T: Datagram> {
    inner: T,
    spec: FaultSpec,
    state: Mutex<FaultState>,
    injected_drops: AtomicU64,
}

impl<T: Datagram> FaultyTransport<T> {
    /// Wraps `inner`, injecting faults per `spec` with randomness from `rng`.
    pub fn new(inner: T, spec: FaultSpec, rng: DetRng) -> Self {
        FaultyTransport {
            inner,
            spec,
            state: Mutex::new(FaultState { rng, held: None }),
            injected_drops: AtomicU64::new(0),
        }
    }

    /// Datagrams dropped by injection so far.
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops.load(Ordering::Relaxed)
    }
}

impl<T: Datagram> Drop for FaultyTransport<T> {
    /// Flushes a reorder-held datagram: without this, the *last* datagram
    /// of a stream that hit the reorder branch would be lost without being
    /// counted in `injected_drops`.
    fn drop(&mut self) {
        if let Ok(mut state) = self.state.lock() {
            if let Some((buf, addr)) = state.held.take() {
                let _ = self.inner.send_to(&buf, addr);
            }
        }
    }
}

impl<T: Datagram> Datagram for FaultyTransport<T> {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        let mut state = self.state.lock().expect("fault state poisoned");
        // Anything held from a previous reorder decision goes out *after*
        // the current datagram — releasing it below swaps the pair.
        let released = state.held.take();
        if self.spec.drop > 0.0 && state.rng.chance(self.spec.drop) {
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            if let Some((held_buf, held_addr)) = released {
                self.inner.send_to(&held_buf, held_addr)?;
            }
            return Ok(buf.len()); // swallowed: the caller believes it sent
        }
        if released.is_none() && self.spec.reorder > 0.0 && state.rng.chance(self.spec.reorder) {
            state.held = Some((buf.to_vec(), addr));
            return Ok(buf.len());
        }
        let duplicate = self.spec.duplicate > 0.0 && state.rng.chance(self.spec.duplicate);
        drop(state);
        self.inner.send_to(buf, addr)?;
        if duplicate {
            self.inner.send_to(buf, addr)?;
        }
        if let Some((held_buf, held_addr)) = released {
            self.inner.send_to(&held_buf, held_addr)?;
        }
        Ok(buf.len())
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    // send_many deliberately stays the default per-datagram loop so the
    // fault decisions (and the DetRng draw order behind them) are
    // identical whether the caller batches or not.

    fn recv_many(&self, slots: &mut [RecvSlot]) -> io::Result<usize> {
        // Faults are send-path only; receiving keeps the inner batching.
        self.inner.recv_many(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Records sends instead of performing them.
    #[derive(Default)]
    struct RecordingTransport {
        sent: Mutex<Vec<Vec<u8>>>,
        count: AtomicUsize,
    }

    impl Datagram for RecordingTransport {
        fn send_to(&self, buf: &[u8], _addr: SocketAddr) -> io::Result<usize> {
            self.sent.lock().unwrap().push(buf.to_vec());
            self.count.fetch_add(1, Ordering::Relaxed);
            Ok(buf.len())
        }
        fn recv_from(&self, _buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            Err(io::Error::new(io::ErrorKind::WouldBlock, "no recv"))
        }
        fn local_addr(&self) -> io::Result<SocketAddr> {
            Ok("127.0.0.1:0".parse().expect("addr"))
        }
        fn set_read_timeout(&self, _dur: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    fn addr() -> SocketAddr {
        "127.0.0.1:9".parse().expect("addr")
    }

    #[test]
    fn lossless_spec_is_transparent() {
        let t = FaultyTransport::new(
            RecordingTransport::default(),
            FaultSpec::default(),
            DetRng::seed_from(1),
        );
        for i in 0..50u8 {
            t.send_to(&[i], addr()).unwrap();
        }
        assert_eq!(t.inner.sent.lock().unwrap().len(), 50);
        assert_eq!(t.injected_drops(), 0);
    }

    #[test]
    fn drops_land_near_the_configured_rate() {
        let t = FaultyTransport::new(
            RecordingTransport::default(),
            FaultSpec::loss(0.3),
            DetRng::seed_from(2),
        );
        for i in 0..1000u32 {
            t.send_to(&i.to_be_bytes(), addr()).unwrap();
        }
        let dropped = t.injected_drops();
        assert!((200..400).contains(&dropped), "drops = {dropped}");
        assert_eq!(t.inner.sent.lock().unwrap().len() as u64, 1000 - dropped);
    }

    #[test]
    fn reorder_swaps_adjacent_datagrams_without_losing_any() {
        let t = FaultyTransport::new(
            RecordingTransport::default(),
            FaultSpec {
                reorder: 0.5,
                ..FaultSpec::default()
            },
            DetRng::seed_from(3),
        );
        for i in 0..100u8 {
            t.send_to(&[i], addr()).unwrap();
        }
        // Flush any held datagram by sending one more.
        t.send_to(&[200], addr()).unwrap();
        let sent = t.inner.sent.lock().unwrap();
        let mut seen: Vec<u8> = sent.iter().map(|d| d[0]).collect();
        let swapped = seen.windows(2).filter(|pair| pair[0] > pair[1]).count();
        assert!(swapped > 10, "only {swapped} adjacent pairs swapped");
        assert!(seen.len() >= 100, "reordering must not drop datagrams");
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() >= 100, "every datagram still delivered once");
    }

    #[test]
    fn drop_flushes_a_held_reorder_datagram() {
        let inner = Arc::new(RecordingTransport::default());
        let t = FaultyTransport::new(
            Arc::clone(&inner),
            FaultSpec {
                reorder: 1.0,
                ..FaultSpec::default()
            },
            DetRng::seed_from(5),
        );
        t.send_to(&[42], addr()).unwrap();
        assert_eq!(inner.sent.lock().unwrap().len(), 0, "datagram held");
        drop(t);
        assert_eq!(
            inner.sent.lock().unwrap().len(),
            1,
            "teardown must flush the held datagram, not lose it"
        );
    }

    #[test]
    fn batched_send_applies_faults_per_datagram() {
        let t = FaultyTransport::new(
            RecordingTransport::default(),
            FaultSpec::loss(0.3),
            DetRng::seed_from(2),
        );
        let bufs: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let batch: Vec<(&[u8], SocketAddr)> = bufs.iter().map(|b| (b.as_slice(), addr())).collect();
        assert_eq!(t.send_many(&batch).unwrap(), 1000);
        // Same seed as `drops_land_near_the_configured_rate`: batching must
        // not change the per-datagram fault decisions.
        let dropped = t.injected_drops();
        assert!((200..400).contains(&dropped), "drops = {dropped}");
        assert_eq!(t.inner.sent.lock().unwrap().len() as u64, 1000 - dropped);
    }

    #[test]
    fn udp_recv_many_drains_a_batch_per_wakeup() {
        let rx = UdpTransport::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let tx = UdpTransport::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let dst = rx.local_addr().unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let bufs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 8 + i as usize]).collect();
        let batch: Vec<(&[u8], SocketAddr)> = bufs.iter().map(|b| (b.as_slice(), dst)).collect();
        assert_eq!(tx.send_many(&batch).unwrap(), 6);
        let mut slots: Vec<RecvSlot> = (0..8).map(|_| RecvSlot::new(1024)).collect();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.len() < 6 && std::time::Instant::now() < deadline {
            let n = rx.recv_many(&mut slots).unwrap();
            for slot in slots.iter().take(n).filter(|s| s.len > 0) {
                assert_eq!(slot.src, tx.local_addr().unwrap());
                got.push(slot.buf[..slot.len].to_vec());
            }
        }
        got.sort();
        assert_eq!(got, bufs, "all six datagrams delivered intact");
    }

    #[test]
    fn duplicates_send_twice() {
        let t = FaultyTransport::new(
            RecordingTransport::default(),
            FaultSpec {
                duplicate: 1.0,
                ..FaultSpec::default()
            },
            DetRng::seed_from(4),
        );
        t.send_to(&[1], addr()).unwrap();
        assert_eq!(t.inner.sent.lock().unwrap().len(), 2);
    }
}
