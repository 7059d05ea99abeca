//! Batched-I/O pipeline acceptance: fragmented envelopes that arrive
//! interleaved within a receive batch — and duplicated or reordered by the
//! transport — always reassemble to the exact original message or are
//! dropped cleanly, and an idle receiver parks instead of spinning.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tldag_core::block::BlockId;
use tldag_core::codec::WireMessage;
use tldag_core::config::ProtocolConfig;
use tldag_core::node::LedgerNode;
use tldag_net::{
    Endpoint, EndpointConfig, FaultSpec, FaultyTransport, ReceiverGuard, UdpTransport,
};
use tldag_sim::{DetRng, NodeId};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

fn fast_config() -> EndpointConfig {
    EndpointConfig {
        request_timeout: Duration::from_millis(60),
        max_retries: 5,
        max_backoff: Duration::from_millis(240),
        ..EndpointConfig::default()
    }
}

/// An endpoint whose transport duplicates and reorders datagrams with the
/// given seed, running its receiver on a background thread (serving
/// `node`'s chain, if given).
fn faulty_peer(id: NodeId, seed: u64, node: Option<LedgerNode>) -> ReceiverGuard {
    let spec = FaultSpec {
        drop: 0.0,
        duplicate: 0.3,
        reorder: 0.3,
    };
    let udp = UdpTransport::bind(loopback()).expect("bind");
    let faulty = Arc::new(FaultyTransport::new(udp, spec, DetRng::seed_from(seed)));
    let endpoint = Arc::new(Endpoint::with_transport(
        id,
        Box::new(faulty),
        fast_config(),
    ));
    match node {
        Some(node) => endpoint.serve(Arc::new(node)),
        None => endpoint.spawn_receiver(|_, _| {}),
    }
}

#[test]
fn interleaved_fragments_under_dup_and_reorder_always_reassemble() {
    // Property sweep: 8 KiB payloads force every Block reply across many
    // fragments; two concurrent requesters keep fragments of distinct
    // messages interleaved within the responder's send batches; the
    // transport duplicates and reorders 30% of datagrams on both sides.
    // No loss is injected, so every request MUST deliver the exact block
    // — duplicates must be idempotent and reordering healed, never a
    // corrupt payload, never a panic.
    let cfg = ProtocolConfig::test_default();
    let blocks = 4usize;
    for seed in 0..6u64 {
        let mut node = LedgerNode::new(NodeId(1), vec![], &cfg);
        for slot in 0..blocks {
            node.generate_block(&cfg, slot as u64, vec![slot as u8; 8 * 1024])
                .expect("generate");
        }
        let responder = faulty_peer(NodeId(1), 0xD00D ^ seed, Some(node));
        let addr = responder.endpoint().local_addr().expect("addr");
        let requester = faulty_peer(NodeId(0), 0xBEEF ^ (seed << 8), None);

        let workers: Vec<_> = (0..2)
            .map(|lane| {
                let endpoint = Arc::clone(requester.endpoint());
                std::thread::spawn(move || {
                    for seq in 0..blocks as u32 {
                        let want = BlockId::new(NodeId(1), seq);
                        let reply = endpoint.request(
                            addr,
                            &WireMessage::FetchBlock {
                                from: NodeId(0),
                                id: want,
                            },
                        );
                        let Some((from, WireMessage::Block(block))) = reply else {
                            panic!("lane {lane} seq {seq}: lossless faults must deliver, got {reply:?}");
                        };
                        assert_eq!(from, NodeId(1));
                        assert_eq!(block.id, want);
                        assert_eq!(
                            &block.body.payload[..],
                            &[seq as u8; 8 * 1024][..],
                            "lane {lane}: reassembly returned a corrupt payload"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("requester lane");
        }
        let stats = requester.endpoint().stats();
        assert!(
            stats.messages_reassembled >= 2 * blocks as u64,
            "seed {seed}: every reply must cross fragment reassembly, stats {stats:?}"
        );
        assert_eq!(
            stats.malformed_drops, 0,
            "seed {seed}: duplication/reordering must never look malformed"
        );
        drop(responder);
    }
}

#[test]
fn idle_receiver_parks_instead_of_spinning() {
    // Satellite regression for the barrier-era busy loop: a receiver with
    // no traffic must cost one park-timeout syscall per interval, not a
    // nonblocking-recv spin. Over ~1 s with the 250 ms default park the
    // loop should wake a handful of times; the old spin woke thousands.
    let endpoint =
        Arc::new(Endpoint::bind(NodeId(0), loopback(), EndpointConfig::default()).expect("bind"));
    let receiver = endpoint.spawn_receiver(|_, _| {});
    std::thread::sleep(Duration::from_millis(1050));
    receiver.finish().expect("receiver thread");

    let stats = endpoint.stats();
    assert!(
        stats.recv_wakeups <= 10,
        "an idle second must park (~4 wakeups at the 250 ms default), saw {} wakeups",
        stats.recv_wakeups
    );
    assert_eq!(
        stats.idle_wakeups, stats.recv_wakeups,
        "every wakeup of an idle receiver is an expired park"
    );
    assert_eq!(stats.datagrams_received, 0);
}
