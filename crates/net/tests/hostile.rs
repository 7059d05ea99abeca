//! Hostile-envelope fuzzing: datagrams that are *well-formed enough* to be
//! dangerous — valid magic and CRC wrapping adversarial semantics (forged
//! sender ids, replayed sequence/request ids, oversized fragment claims,
//! lying trace TLVs, version and kind lies, header varints too long or too
//! wide for their field, reserved flag bits, and datagrams in the 36-byte
//! layout the varint header replaced). The decode path must reject
//! each with the *right* [`NetError`] (drop attribution is what the
//! `tldag_net_*_drops_total` counters export), reassembly memory must stay
//! bounded under fragment-claim floods, and a live [`Endpoint`] fed the
//! same traffic from a raw socket must count every category without
//! panicking or leaking state.
//!
//! `PROPTEST_CASES` scales these suites into the CI fuzz job.

use proptest::collection::vec;
use proptest::prelude::*;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tldag_core::codec::{self, WireMessage};
use tldag_net::envelope::{
    decode_datagram, encode_message, Kind, FLAG_EXT, FLAG_FRAG, FLAG_REPLY, FLAG_RESERVED,
    MIN_HEADER_LEN, PROTOCOL_VERSION, TRAILER_LEN,
};
use tldag_net::frag::Reassembler;
use tldag_net::{Endpoint, EndpointConfig, Inbound, NetError};
use tldag_sim::NodeId;
use tldag_storage::crc32::crc32;

/// Appends a valid CRC-32 to `body`.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body).to_be_bytes();
    body.extend_from_slice(&crc);
    body
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Hand-builds a datagram with full control over every header field — the
/// attacker's encoder. Fields are as wide as the attacker likes (a sender
/// past `u32::MAX`, fragment fields past `u16::MAX`); the presence flags
/// follow from what is passed (a nonzero `req_id` is a reply, fragment
/// fields other than 0 of 1 are written, a `stated_len` or extension bytes
/// set EXT). The CRC is always valid (`stated_len` lets the length field lie
/// while the checksum still passes), so nothing here is rejected for mere
/// corruption: whatever the decoder refuses, it refuses for the *semantic*
/// violation.
#[allow(clippy::too_many_arguments)]
fn hostile_datagram(
    version: u8,
    kind: u8,
    sender: u64,
    seq: u64,
    req_id: u64,
    frag_index: u64,
    frag_count: u64,
    payload: &[u8],
    stated_len: Option<u64>,
    ext: &[u8],
) -> Vec<u8> {
    assert!(version < 4 && kind < 4, "two bits each");
    let fragmented = (frag_index, frag_count) != (0, 1);
    let extended = stated_len.is_some() || !ext.is_empty();
    let mut flags = version << 6 | kind << 4;
    for (set, bit) in [
        (req_id != 0, FLAG_REPLY),
        (fragmented, FLAG_FRAG),
        (extended, FLAG_EXT),
    ] {
        if set {
            flags |= bit;
        }
    }
    let mut out = b"TL".to_vec();
    out.push(flags);
    put_varint(&mut out, sender);
    put_varint(&mut out, seq);
    if req_id != 0 {
        put_varint(&mut out, req_id);
    }
    if fragmented {
        put_varint(&mut out, frag_index);
        put_varint(&mut out, frag_count);
    }
    if extended {
        put_varint(&mut out, stated_len.unwrap_or(payload.len() as u64));
    }
    out.extend_from_slice(payload);
    out.extend_from_slice(ext);
    seal(out)
}

/// A datagram in the 36-byte layout this envelope replaced: `"TLDG"`,
/// version 1, kind, then fixed-width big-endian fields. A peer still
/// running that layout must be counted as version skew.
fn v1_datagram(kind: u8, sender: u32, seq: u64, req_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = b"TLDG".to_vec();
    out.extend_from_slice(&[1, kind]);
    out.extend_from_slice(&sender.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&req_id.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 1]);
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    out.extend_from_slice(payload);
    seal(out)
}

/// `frame` with `bits` or-ed into its flags byte, CRC resealed.
fn with_flags(frame: &[u8], bits: u8) -> Vec<u8> {
    let mut body = frame[..frame.len() - TRAILER_LEN].to_vec();
    body[2] |= bits;
    seal(body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every hostile shape lands in the decoder's *intended* rejection (or
    /// acceptance) class — never a panic, never a misattributed error. The
    /// attribution matters: the endpoint maps these variants onto distinct
    /// drop counters, so a wrong class here would mislead an operator
    /// reading `/metrics` during an actual attack.
    #[test]
    fn hostile_envelopes_decode_to_their_intended_class(
        shape in 0u8..13,
        sender in any::<u32>(),
        seq in any::<u64>(),
        req_id in any::<u64>(),
        payload in vec(any::<u8>(), 0..200),
        tweak in any::<u8>(),
    ) {
        const V: u8 = PROTOCOL_VERSION;
        let id = u64::from(sender);
        match shape {
            // Forged sender id: framing-valid, so it decodes — identity is
            // not the envelope's problem (the runtime's conflict detection
            // and blacklist judge the *claims*, not the framing).
            0 => {
                let frame = hostile_datagram(V, 0, id, seq, req_id, 0, 1, &payload, None, &[]);
                let (env, chunk) = decode_datagram(&frame).expect("framing-valid");
                prop_assert_eq!(env.sender, NodeId(sender));
                prop_assert_eq!((env.msg_seq, env.req_id), (seq, req_id));
                prop_assert_eq!(chunk, &payload[..]);
            }
            // Replayed seq/req ids: byte-identical replays decode to the
            // identical envelope — replay handling is the dedup /
            // correlation layer's job, and it must see the same values.
            1 => {
                let frame = hostile_datagram(V, 1, id, seq, seq, 0, 1, &payload, None, &[]);
                let a = decode_datagram(&frame).expect("first decode");
                let b = decode_datagram(&frame).expect("replay decode");
                prop_assert_eq!(a, b);
            }
            // Version lie (valid CRC): must be the version-skew class.
            2 => {
                let v = [0, 1, 3][tweak as usize % 3];
                let frame = hostile_datagram(v, 0, id, seq, 0, 0, 1, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::BadVersion(v));
            }
            // Kind lie: unassigned channel bits.
            3 => {
                let k = 2 + tweak % 2;
                let frame = hostile_datagram(V, k, id, seq, 0, 0, 1, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::BadKind(k));
            }
            // Fragment lies: zero count, or index outside the claimed count.
            4 => {
                let zero = hostile_datagram(V, 0, id, seq, 0, 0, 0, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&zero).unwrap_err(), NetError::BadFragment);
                let count = u64::from(tweak % 8) + 1;
                let oob = hostile_datagram(V, 0, id, seq, 0, count, count, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&oob).unwrap_err(), NetError::BadFragment);
            }
            // Length lie: stated payload overruns the datagram.
            5 => {
                let stated = payload.len() as u64 + 1 + u64::from(tweak);
                let frame =
                    hostile_datagram(V, 0, id, seq, 0, 0, 1, &payload, Some(stated), &[]);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::LengthMismatch);
            }
            // Lying trace TLV: a recognised tag whose body is not the
            // 28-byte trace context (here: `tweak % 28` bytes), or a
            // record whose stated length overruns the extension region.
            6 => {
                let body_len = tweak % 28;
                let mut ext = vec![0x01u8, body_len];
                ext.extend(std::iter::repeat_n(0xAA, body_len as usize));
                let frame = hostile_datagram(V, 0, id, seq, 0, 0, 1, &payload, None, &ext);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::LengthMismatch);
                let overrun = hostile_datagram(
                    V, 0, id, seq, 0, 0, 1, &payload, None, &[0x01, 200, 0xBB],
                );
                prop_assert_eq!(decode_datagram(&overrun).unwrap_err(), NetError::LengthMismatch);
            }
            // Unknown extension tag, well-formed: forward compatibility
            // says decode fine, no trace.
            7 => {
                let ext = [0xF0u8, 2, tweak, tweak];
                let frame = hostile_datagram(V, 0, id, seq, 0, 0, 1, &payload, None, &ext);
                let (env, chunk) = decode_datagram(&frame).expect("unknown tags are skipped");
                prop_assert_eq!(env.trace, None);
                prop_assert_eq!(chunk, &payload[..]);
            }
            // Varint lies in the header: a sender varint whose every byte
            // says "more follows" up to the CRC is truncated; one longer
            // than 10 bytes is malformed, whatever follows it.
            8 => {
                let mut open = b"TL".to_vec();
                open.push(V << 6);
                open.extend(std::iter::repeat_n(0x80 | tweak, 1 + tweak as usize % 9));
                prop_assert_eq!(decode_datagram(&seal(open)).unwrap_err(), NetError::Truncated);
                let mut long = b"TL".to_vec();
                long.push(V << 6);
                long.extend(std::iter::repeat_n(0x80 | tweak, 10 + tweak as usize % 4));
                long.push(0x01);
                long.extend_from_slice(&payload);
                prop_assert_eq!(decode_datagram(&seal(long)).unwrap_err(), NetError::BadHeader);
            }
            // Sender past u32::MAX: the NodeId cannot hold it.
            9 => {
                let wide = u64::from(u32::MAX) + 1 + (seq >> 1);
                let frame = hostile_datagram(V, 0, wide, seq, 0, 0, 1, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::BadHeader);
            }
            // A fragment index or count past u16::MAX.
            10 => {
                let wide = u64::from(u16::MAX) + 1 + u64::from(tweak);
                let count = hostile_datagram(V, 0, id, seq, 0, 0, wide, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&count).unwrap_err(), NetError::BadFragment);
                let index = hostile_datagram(V, 0, id, seq, 0, wide, 2, &payload, None, &[]);
                prop_assert_eq!(decode_datagram(&index).unwrap_err(), NetError::BadFragment);
            }
            // Reserved flag bit set on an otherwise valid datagram.
            11 => {
                let frame = hostile_datagram(V, 1, id, seq, req_id, 0, 1, &payload, None, &[]);
                let frame = with_flags(&frame, FLAG_RESERVED);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::BadHeader);
            }
            // A datagram in the replaced 36-byte layout: version skew, not
            // a checksum or framing failure.
            12 => {
                let frame = v1_datagram(tweak % 2, sender, seq, req_id, &payload);
                prop_assert_eq!(decode_datagram(&frame).unwrap_err(), NetError::BadVersion(1));
            }
            _ => unreachable!(),
        }
    }

    /// A flood of CRC-valid fragments claiming enormous fragment counts —
    /// each 1-byte datagram trying to reserve a `u16::MAX`-slot table —
    /// cannot pin memory past the reassembly budget, and a shape-shifting
    /// replay (same `(sender, seq)`, different claimed count) poisons the
    /// entry instead of corrupting the accounting.
    #[test]
    fn oversized_frag_claims_keep_memory_bounded(
        flood in vec((any::<u32>(), any::<u64>(), 2u16..=u16::MAX), 1..48),
    ) {
        const BUDGET: usize = 1 << 20;
        let per_slot = std::mem::size_of::<Option<Vec<u8>>>();
        let mut r = Reassembler::new(BUDGET);
        for &(sender, seq, count) in &flood {
            let frame = hostile_datagram(
                PROTOCOL_VERSION, 0, sender.into(), seq, 0, 0, count.into(), &[0u8], None, &[],
            );
            let (env, chunk) = decode_datagram(&frame).expect("framing-valid flood");
            prop_assert!(r.offer(&env, chunk).is_none(), "a partial cannot complete");
            // The newest partial may exceed the budget on its own; nothing
            // beyond that single claimed slot table may accumulate.
            prop_assert!(
                r.buffered_bytes() <= BUDGET + u16::MAX as usize * per_slot + 1,
                "buffered {} bytes escaped the {} budget",
                r.buffered_bytes(),
                BUDGET
            );
        }
        // Shape-shift replay: reuse the first key with a different count.
        let (sender, seq, count) = flood[0];
        let other = if count == 2 { 3 } else { count - 1 };
        let frame = hostile_datagram(
            PROTOCOL_VERSION, 0, sender.into(), seq, 0, 0, other.into(), &[0u8], None, &[],
        );
        let (env, chunk) = decode_datagram(&frame).expect("reshaped frame");
        prop_assert!(r.offer(&env, chunk).is_none());
        // An honest fragmented message still completes after the flood.
        let honest: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        let frames = encode_message(Kind::Wire, NodeId(7), u64::MAX, 0, &honest, 1400)
            .expect("honest encode");
        let mut done = None;
        for f in &frames {
            let (env, chunk) = decode_datagram(f).expect("honest frame");
            done = r.offer(&env, chunk);
        }
        prop_assert_eq!(done.expect("honest message completes"), honest);
    }
}

/// The live half: a victim [`Endpoint`] on a real socket, an attacker on a
/// raw [`UdpSocket`], one representative datagram per hostile class. Every
/// class must land in its dedicated drop counter (the exposition an
/// operator would scrape during the attack), the forged-sender messages
/// must reach the handler without panic, and the replayed reply must be
/// counted as unmatched — never delivered to a requester.
#[test]
fn live_endpoint_attributes_every_hostile_class() {
    let victim = Arc::new(
        Endpoint::bind(
            NodeId(0),
            "127.0.0.1:0".parse().unwrap(),
            EndpointConfig::default(),
        )
        .expect("bind victim"),
    );
    let target = victim.local_addr().expect("victim addr");
    let delivered = Arc::new(AtomicU64::new(0));
    let receiver = {
        let delivered = Arc::clone(&delivered);
        victim.spawn_receiver(move |_, inbound| {
            // Forged identities are the runtime's problem; the endpoint
            // just delivers. Touch the fields so a torn decode panics.
            match inbound {
                Inbound::Wire { from, seq, .. } => {
                    let _ = (from, seq);
                }
                Inbound::Control { from, .. } => {
                    let _ = from;
                }
            }
            delivered.fetch_add(1, Ordering::Relaxed);
        })
    };

    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker");
    let nack = codec::encode_message(&WireMessage::Nack { from: NodeId(777) });
    const V: u8 = PROTOCOL_VERSION;
    let shots: Vec<(&str, Vec<u8>)> = vec![
        // Not a tldag datagram at all.
        ("malformed", b"not a tldag datagram".to_vec()),
        // Valid frame, one payload byte flipped after sealing (a one-byte
        // sender and seq leave the shortest header).
        ("crc", {
            let mut f = hostile_datagram(V, 0, 9, 1, 0, 0, 1, b"x", None, &[]);
            f[MIN_HEADER_LEN] ^= 0xFF;
            f
        }),
        // Future protocol version, CRC resealed.
        (
            "version",
            hostile_datagram(3, 0, 9, 2, 0, 0, 1, b"x", None, &[]),
        ),
        // A peer still sending the replaced 36-byte layout.
        ("version", v1_datagram(0, 9, 8, 0, b"x")),
        // Unknown envelope kind (framing violation bucket).
        (
            "malformed",
            hostile_datagram(V, 3, 9, 3, 0, 0, 1, b"x", None, &[]),
        ),
        // Reserved flag bit set (framing violation bucket).
        (
            "malformed",
            with_flags(
                &hostile_datagram(V, 0, 9, 9, 0, 0, 1, b"x", None, &[]),
                FLAG_RESERVED,
            ),
        ),
        // Control channel, unknown control tag (version skew).
        (
            "unknown_tag",
            hostile_datagram(V, 1, 9, 4, 0, 0, 1, &[0xFF, 1, 2], None, &[]),
        ),
        // Wire channel, known tag truncated mid-structure (codec error).
        (
            "codec",
            hostile_datagram(V, 0, 9, 5, 0, 0, 1, &[0x01], None, &[]),
        ),
        // A valid reply correlated to a request nobody made (replay).
        (
            "replay",
            hostile_datagram(V, 0, u32::MAX.into(), 6, 0xDEAD, 0, 1, &nack, None, &[]),
        ),
        // Forged-sender unsolicited wire message: delivered to the handler.
        (
            "deliver",
            hostile_datagram(V, 0, u32::MAX.into(), 7, 0, 0, 1, &nack, None, &[]),
        ),
    ];
    for (_, frame) in &shots {
        attacker.send_to(frame, target).expect("attacker send");
    }

    // UDP on loopback is lossless in practice, but give the receiver time.
    let deadline = Instant::now() + Duration::from_secs(10);
    let expected = shots.len() as u64;
    while Instant::now() < deadline && victim.stats().datagrams_received < expected {
        std::thread::sleep(Duration::from_millis(20));
    }
    receiver.finish().expect("receiver thread");

    let stats = victim.stats();
    assert_eq!(
        stats.datagrams_received, expected,
        "every attack datagram must be seen"
    );
    assert_eq!(
        stats.malformed_drops, 3,
        "garbage + bad kind + reserved bit"
    );
    assert_eq!(stats.crc_drops, 1, "tampered payload");
    assert_eq!(stats.version_drops, 2, "future version + replaced layout");
    assert_eq!(stats.unknown_tag_drops, 1, "unknown control tag");
    assert_eq!(stats.codec_error_drops, 1, "truncated wire payload");
    assert_eq!(
        stats.replies_unmatched, 1,
        "the replayed reply must be counted, not delivered"
    );
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        1,
        "exactly the forged-sender unsolicited message reaches the handler"
    );
}
