//! Transport loss-recovery acceptance: dropped datagrams are retried and
//! recovered, silent peers cost bounded time and surface as a timeout
//! metric, and malformed traffic is counted — never a hang, never a panic.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tldag_core::block::BlockId;
use tldag_core::codec::WireMessage;
use tldag_core::config::ProtocolConfig;
use tldag_core::node::LedgerNode;
use tldag_net::envelope;
use tldag_net::{Datagram, Endpoint, EndpointConfig, ReceiverGuard, UdpTransport};
use tldag_sim::NodeId;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

fn fast_config() -> EndpointConfig {
    EndpointConfig {
        request_timeout: Duration::from_millis(30),
        max_retries: 4,
        max_backoff: Duration::from_millis(120),
        ..EndpointConfig::default()
    }
}

/// Deterministically swallows the first `n` outbound datagrams, then
/// behaves like the wrapped transport.
struct DropFirst {
    inner: UdpTransport,
    remaining: AtomicU64,
}

impl Datagram for DropFirst {
    fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        if self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok()
        {
            return Ok(buf.len()); // swallowed
        }
        self.inner.send_to(buf, addr)
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
}

/// A responder node with `blocks` blocks (1 KiB payloads) serving protocol
/// requests from its own receiver thread.
fn responder(id: NodeId, blocks: usize, drop_first: u64) -> ReceiverGuard {
    let cfg = ProtocolConfig::test_default();
    let mut node = LedgerNode::new(id, vec![], &cfg);
    for slot in 0..blocks {
        node.generate_block(&cfg, slot as u64, vec![slot as u8; 1024])
            .expect("generate");
    }
    let transport = DropFirst {
        inner: UdpTransport::bind(loopback()).expect("bind"),
        remaining: AtomicU64::new(drop_first),
    };
    let endpoint = Arc::new(Endpoint::with_transport(
        id,
        Box::new(transport),
        fast_config(),
    ));
    endpoint.serve(Arc::new(node))
}

/// A requester endpoint whose receiver routes replies back to `request`.
fn requester(id: NodeId) -> ReceiverGuard {
    let endpoint = Arc::new(Endpoint::bind(id, loopback(), fast_config()).expect("bind requester"));
    endpoint.spawn_receiver(|_, _| {})
}

#[test]
fn dropped_fetch_reply_is_retried_and_succeeds() {
    // The responder's first outbound datagram — its first FetchBlock reply —
    // is lost; the requester's retry makes the exchange succeed anyway.
    let responder = responder(NodeId(1), 2, 1);
    let addr = responder.endpoint().local_addr().expect("addr");
    let requester = requester(NodeId(0));

    let msg = WireMessage::FetchBlock {
        from: NodeId(0),
        id: BlockId::new(NodeId(1), 1),
    };
    let reply = requester.endpoint().request(addr, &msg);
    let Some((from, WireMessage::Block(block))) = reply else {
        panic!("expected the retried fetch to deliver a block, got {reply:?}");
    };
    assert_eq!(from, NodeId(1));
    assert_eq!(block.id, BlockId::new(NodeId(1), 1));

    let stats = requester.endpoint().stats();
    assert!(
        stats.request_retries >= 1,
        "recovery must go through a retry"
    );
    assert_eq!(stats.request_timeouts, 0, "the request did not give up");
    assert_eq!(stats.replies_matched, 1, "one request, one delivered reply");
    drop(responder);
}

#[test]
fn silent_peer_surfaces_as_timeout_metric_not_a_hang() {
    // A peer that is bound but never replies: the request must return None
    // within the (bounded) retry budget and count one timeout.
    let silent = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind silent");
    let addr = silent.local_addr().expect("addr");
    let requester = requester(NodeId(0));

    let started = Instant::now();
    let reply = requester.endpoint().request(
        addr,
        &WireMessage::ReqChild {
            from: NodeId(0),
            target: tldag_crypto::Digest::ZERO,
        },
    );
    let elapsed = started.elapsed();
    assert!(reply.is_none(), "a silent peer cannot produce a reply");
    assert!(
        elapsed < Duration::from_secs(5),
        "retry budget must bound the wait, took {elapsed:?}"
    );
    let stats = requester.endpoint().stats();
    assert_eq!(stats.request_timeouts, 1);
    assert_eq!(stats.request_retries, 4, "every retry was spent");
    assert_eq!(stats.replies_matched, 0);
}

#[test]
fn fragmented_block_reply_reassembles_over_the_socket() {
    // 64 KiB payloads force the Block reply across many datagrams.
    let cfg = ProtocolConfig::test_default();
    let mut node = LedgerNode::new(NodeId(1), vec![], &cfg);
    node.generate_block(&cfg, 0, vec![7u8; 64 * 1024])
        .expect("generate");
    let endpoint = Arc::new(Endpoint::bind(NodeId(1), loopback(), fast_config()).expect("bind"));
    let addr = endpoint.local_addr().expect("addr");
    let serve = endpoint.serve(Arc::new(node));

    let requester = requester(NodeId(0));
    let reply = requester.endpoint().request(
        addr,
        &WireMessage::FetchBlock {
            from: NodeId(0),
            id: BlockId::new(NodeId(1), 0),
        },
    );
    let Some((_, WireMessage::Block(block))) = reply else {
        panic!("expected a block, got {reply:?}");
    };
    assert_eq!(block.body.payload.len(), 64 * 1024);
    assert!(
        requester.endpoint().stats().messages_reassembled >= 1,
        "the reply must have crossed fragment reassembly"
    );

    serve.finish().expect("responder thread");
}

#[test]
fn malformed_and_skewed_traffic_is_counted_and_dropped() {
    let responder = responder(NodeId(1), 1, 0);
    let addr = responder.endpoint().local_addr().expect("addr");
    let probe = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe");

    // A well-framed envelope whose codec payload has an unknown message tag
    // (version skew) — counted in unknown_tag_drops.
    let skewed = envelope::encode_message(
        envelope::Kind::Wire,
        NodeId(9),
        1,
        0,
        &[0xCC, 0x01, 0x02],
        envelope::DEFAULT_MTU,
    )
    .expect("frame")
    .remove(0);
    probe.send_to(&skewed, addr).expect("send");

    // The same envelope with a flipped bit — rejected by the CRC.
    let mut corrupt = skewed.clone();
    corrupt[10] ^= 0x40;
    probe.send_to(&corrupt, addr).expect("send");

    // Garbage that is not an envelope at all.
    probe.send_to(b"not a tldag datagram", addr).expect("send");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = responder.endpoint().stats();
        if stats.unknown_tag_drops >= 1 && stats.crc_drops >= 1 && stats.malformed_drops >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drops not counted in time: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
