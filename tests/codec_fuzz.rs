//! Wire-codec robustness: round trips for arbitrary structures, and decode
//! must never panic or accept malformed input silently — for the message
//! codec, the runtime's control messages *and* the datagram envelopes that
//! carry both.

use proptest::prelude::*;
use std::net::SocketAddr;
use tldag::core::block::{BlockBody, BlockHeader, BlockId, DataBlock, DigestEntry};
use tldag::core::codec;
use tldag::core::codec::{CodecError, WireMessage};
use tldag::core::config::ProtocolConfig;
use tldag::core::pop::messages::ChildReply;
use tldag::crypto::schnorr::{KeyPair, Signature};
use tldag::crypto::Digest;
use tldag::net::control::{self, Control, RunReport, WireMember};
use tldag::net::envelope;
use tldag::net::frag::Reassembler;
use tldag::net::NetStats;
use tldag::sim::NodeId;
use tldag::storage::crc32::crc32;

fn block_from(
    owner: u32,
    seq: u32,
    time: u64,
    payload: Vec<u8>,
    entries: Vec<(u32, [u8; 32])>,
) -> DataBlock {
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(u64::from(owner));
    let digests = entries
        .into_iter()
        .map(|(origin, bytes)| DigestEntry {
            origin: NodeId(origin),
            digest: Digest::from_bytes(bytes),
        })
        .collect::<Vec<_>>();
    DataBlock::create(
        &cfg,
        BlockId::new(NodeId(owner), seq),
        time,
        digests,
        BlockBody::new(payload, cfg.body_bits),
        &kp,
    )
}

/// One message of every [`Control`] variant, each optional field both
/// present and absent, built from the drawn values.
fn control_variants(id: u32, slot: u64, word: u64, port: u16) -> Vec<Control> {
    let v4 = SocketAddr::from(([127, 0, 0, 1], port));
    let v6 = SocketAddr::from(([0, 0, 0, 0, 0, 0, 0, 1], port));
    let report = |metrics_addr| RunReport {
        node: NodeId(id),
        slots: slot,
        chain_len: word,
        chain_digest: Digest::from_bytes([id as u8; 32]),
        pop_attempts: word,
        pop_successes: slot,
        catch_up_ms: word,
        slot_loop_ms: slot,
        degraded: word & 1 == 0,
        net: NetStats {
            datagrams_sent: word,
            bytes_received: slot,
            ..NetStats::default()
        },
        metrics_addr,
    };
    let member = |leave_slot, evicted, addr| WireMember {
        id: NodeId(id),
        join_slot: slot,
        leave_slot,
        evicted,
        addr,
    };
    vec![
        Control::Hello { from: NodeId(id) },
        Control::HelloAck { from: NodeId(id) },
        Control::SlotDigest {
            slot,
            digest: Digest::from_bytes([word as u8; 32]),
        },
        Control::DigestReq { slot },
        Control::SlotDone { slot },
        Control::Report(report(None)),
        Control::Report(report(Some(v4))),
        Control::Report(report(Some(v6))),
        Control::ReportAck,
        Control::Shutdown,
        Control::JoinReq { from: NodeId(id) },
        Control::JoinAck {
            from: NodeId(id),
            slot,
            members: word as u32,
        },
        Control::RosterEntry(member(None, false, None)),
        Control::RosterEntry(member(Some(word), true, Some(v4))),
        Control::RosterEntry(member(Some(word), false, Some(v6))),
        Control::JoinAnnounce {
            id: NodeId(id),
            slot,
            addr: v6,
        },
        Control::Leave {
            node: NodeId(id),
            slot,
        },
    ]
}

/// The integer values at the varint width boundaries, drawn beside random
/// values for every field of a message body.
const EDGES: [u64; 7] = [0, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];

/// An edge value for `pick` below [`EDGES`]'s length, else `random`.
fn edge(pick: u8, random: u64) -> u64 {
    EDGES.get(usize::from(pick)).copied().unwrap_or(random)
}

/// [`edge`] for a `u32` field: `u64::MAX` clamps to `u32::MAX`.
fn edge32(pick: u8, random: u64) -> u32 {
    u32::try_from(edge(pick, random)).unwrap_or(u32::MAX ^ random as u32)
}

/// A header with every integer at a drawn width; `origins` entries.
fn header_with(version: u32, time: u64, origins: &[u32], word: u64) -> BlockHeader {
    BlockHeader {
        version,
        time,
        root: Digest::from_bytes([word as u8; 32]),
        digests: origins
            .iter()
            .enumerate()
            .map(|(i, &origin)| DigestEntry {
                origin: NodeId(origin),
                digest: Digest::from_bytes([i as u8; 32]),
            })
            .collect::<Vec<_>>()
            .into(),
        nonce: word as u32,
        signature: Signature::from_bytes([(word >> 8) as u8; 16]),
    }
}

/// One message of every [`WireMessage`] variant, each integer field drawn
/// through [`edge`] from its own pick.
fn wire_variants(picks: &[u8; 8], word: u64) -> Vec<WireMessage> {
    let n = |i: usize| edge32(picks[i], word.rotate_left(8 * i as u32));
    let w = |i: usize| edge(picks[i], word.rotate_left(8 * i as u32));
    let header = header_with(n(0), w(1), &[n(2), n(3), n(4)], word);
    vec![
        WireMessage::ReqChild {
            from: NodeId(n(1)),
            target: Digest::from_bytes([2; 32]),
        },
        WireMessage::ReqChildAt {
            from: NodeId(n(2)),
            target: Digest::from_bytes([3; 32]),
            horizon: w(3),
        },
        WireMessage::RpyChild(ChildReply {
            claimed_owner: NodeId(n(4)),
            block_id: BlockId::new(NodeId(n(5)), n(6)),
            header: header.clone(),
        }),
        WireMessage::Nack { from: NodeId(n(7)) },
        WireMessage::PrunedNack {
            from: NodeId(n(0)),
            retained_from: n(1),
        },
        WireMessage::FetchBlock {
            from: NodeId(n(2)),
            id: BlockId::new(NodeId(n(3)), n(4)),
        },
        WireMessage::Block(Box::new(DataBlock {
            id: BlockId::new(NodeId(n(5)), n(6)),
            header,
            body: BlockBody {
                payload: vec![word as u8; picks[7].into()].into(),
                logical_bits: w(7),
            },
        })),
    ]
}

/// `value` as a varint one byte longer than it needs: the last group gains
/// a continuation bit and a zero group follows.
fn padded(value: u64) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_varint(&mut out, value);
    if let Some(last) = out.last_mut() {
        *last |= 0x80;
    }
    out.push(0);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary blocks round-trip bit-exactly through the wire codec.
    #[test]
    fn block_round_trip(
        owner in 0u32..100,
        seq in 0u32..100,
        time in 0u64..10_000,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        entries in proptest::collection::vec((0u32..64, any::<[u8; 32]>()), 0..12),
    ) {
        let block = block_from(owner, seq, time, payload, entries);
        let decoded = codec::decode_block(&codec::encode_block(&block)).unwrap();
        prop_assert_eq!(&decoded, &block);
        prop_assert_eq!(decoded.header_digest(), block.header_digest());
    }

    /// Decoding arbitrary bytes never panics; it either errors or yields a
    /// structure that re-encodes canonically.
    #[test]
    fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(msg) = codec::decode_message(&data) {
            // Canonical: re-encoding reproduces the accepted input.
            prop_assert_eq!(codec::encode_message(&msg), data.clone());
        }
        let _ = codec::decode_header(&data);
        let _ = codec::decode_block(&data);
    }

    /// Single-bit corruption of an encoded header either fails to decode or
    /// changes the header digest (so the tampering is always detectable).
    #[test]
    fn bitflips_always_detectable(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        byte_idx in 0usize..2048,
        bit in 0u8..8,
    ) {
        let block = block_from(1, 0, 7, payload, vec![(2, [9; 32])]);
        let mut encoded = codec::encode_header(&block.header);
        let idx = byte_idx % encoded.len();
        encoded[idx] ^= 1 << bit;
        match codec::decode_header(&encoded) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(decoded.digest(), block.header_digest());
            }
        }
    }

    /// Any tag outside the known message set is the dedicated
    /// `UnknownTag` error — the version-skew signal transports count —
    /// regardless of what follows the tag byte.
    #[test]
    fn unknown_message_tags_are_distinguished(
        // 0x01..=0x08 are the message tags (0x08 is `ReqChildAt`).
        tag in 0x09u8..0xffu8,
        rest in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut data = vec![tag];
        data.extend_from_slice(&rest);
        prop_assert_eq!(codec::decode_message(&data), Err(CodecError::UnknownTag(tag)));
    }

    /// Envelope round trip: arbitrary payloads fragment under arbitrary
    /// (valid) MTUs and every fragment decodes back to its envelope.
    #[test]
    fn envelope_round_trip(
        sender in any::<u32>(),
        seq in any::<u64>(),
        req_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        mtu in 64usize..2048,
    ) {
        let frames = envelope::encode_message(
            envelope::Kind::Wire, NodeId(sender), seq, req_id, &payload, mtu,
        ).unwrap();
        let mut rebuilt = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            prop_assert!(frame.len() <= mtu);
            let (env, chunk) = envelope::decode_datagram(frame).unwrap();
            prop_assert_eq!(env.sender, NodeId(sender));
            prop_assert_eq!(env.msg_seq, seq);
            prop_assert_eq!(env.req_id, req_id);
            prop_assert_eq!(env.frag_index as usize, i);
            prop_assert_eq!(env.frag_count as usize, frames.len());
            rebuilt.extend_from_slice(chunk);
        }
        prop_assert_eq!(rebuilt, payload);
    }

    /// Decoding arbitrary bytes as a datagram envelope never panics: it
    /// either errors cleanly or yields a self-consistent envelope. The same
    /// bytes behind the magic with a valid CRC appended reach the header
    /// parser, which random bytes almost never would.
    #[test]
    fn envelope_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut sealed = b"TL".to_vec();
        sealed.extend_from_slice(&data);
        let crc = crc32(&sealed).to_be_bytes();
        sealed.extend_from_slice(&crc);
        for datagram in [&data, &sealed] {
            if let Ok((env, chunk)) = envelope::decode_datagram(datagram) {
                prop_assert!(env.frag_index < env.frag_count);
                // chunk.len() = data.len() - header - ext - 4: the payload
                // follows a header of at least the minimum size and ends
                // before the CRC; the extension region between them is
                // empty unless the EXT flag is set.
                let header = chunk.as_ptr() as usize - datagram.as_ptr() as usize;
                prop_assert!(header >= envelope::MIN_HEADER_LEN);
                let ext = (datagram.len() - envelope::TRAILER_LEN).checked_sub(header + chunk.len());
                prop_assert!(ext.is_some(), "the payload overruns the CRC");
                let ext = ext.unwrap_or_default();
                if datagram[2] & envelope::FLAG_EXT == 0 {
                    prop_assert_eq!(ext, 0);
                }
                if env.trace.is_some() {
                    prop_assert!(ext >= envelope::TRACE_EXT_LEN);
                }
                prop_assert_eq!(
                    chunk.len(),
                    datagram.len() - header - ext - envelope::TRAILER_LEN
                );
            }
        }
    }

    /// A variable header must never push a datagram past the MTU: for any
    /// sender, msg seq and req id (u64::MAX makes the widest header), any
    /// payload up to 64 KiB and any MTU from 128 bytes, with or without a
    /// trace extension, every datagram fits and reassembly returns the
    /// payload.
    #[test]
    fn envelope_datagrams_fit_the_mtu_and_reassemble(
        sender in any::<u32>(),
        seq in any::<u64>(),
        req_id in any::<u64>(),
        picks in (0u8..4, 0u8..4, 0u8..4),
        payload in proptest::collection::vec(any::<u8>(), 0..65_537),
        mtu in 128usize..=2048,
        traced in any::<bool>(),
    ) {
        // Mix the extremes in: the widest and narrowest varints.
        let edge = |pick: u8, random: u64| match pick {
            0 => u64::MAX,
            1 => 0,
            2 => random % 128,
            _ => random,
        };
        let sender = NodeId(u32::try_from(edge(picks.0, sender.into())).unwrap_or(u32::MAX));
        let (seq, req_id) = (edge(picks.1, seq), edge(picks.2, req_id));
        let trace = traced.then_some(envelope::TraceContext {
            origin: sender.0,
            slot: seq,
            prefix: req_id,
            ts_micros: u64::MAX,
        });
        let frames = envelope::encode_message_traced(
            envelope::Kind::Control, sender, seq, req_id, &payload, mtu, trace,
        ).unwrap();
        let mut reassembler = Reassembler::new(1 << 20);
        let mut done = None;
        for frame in &frames {
            prop_assert!(frame.len() <= mtu, "{} B over a {} B MTU", frame.len(), mtu);
            let (env, chunk) = envelope::decode_datagram(frame).unwrap();
            prop_assert_eq!((env.sender, env.msg_seq, env.req_id), (sender, seq, req_id));
            prop_assert_eq!(env.trace, trace);
            prop_assert!(done.is_none(), "completed before the last fragment");
            done = reassembler.offer(&env, chunk);
        }
        prop_assert_eq!(done, Some(payload));
    }

    /// A truncated datagram envelope never decodes.
    #[test]
    fn truncated_envelopes_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cut in 0usize..1024,
    ) {
        let frame = envelope::encode_message(
            envelope::Kind::Wire, NodeId(1), 9, 0, &payload, envelope::DEFAULT_MTU,
        ).unwrap().remove(0);
        let cut = cut % frame.len();
        prop_assert!(envelope::decode_datagram(&frame[..cut]).is_err());
    }

    /// A bit-flipped datagram envelope never decodes — the CRC catches
    /// every single-bit corruption, anywhere in header, payload, or
    /// trailer.
    #[test]
    fn bitflipped_envelopes_rejected(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        byte_idx in 0usize..2048,
        bit in 0u8..8,
    ) {
        let mut frame = envelope::encode_message(
            envelope::Kind::Control, NodeId(3), 5, 1, &payload, envelope::DEFAULT_MTU,
        ).unwrap().remove(0);
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;
        prop_assert!(envelope::decode_datagram(&frame).is_err());
    }

    /// Two valid envelopes concatenated into one datagram (a duplicated /
    /// coalesced read) decode to a clean error, never a panic or a silent
    /// partial accept.
    #[test]
    fn duplicated_envelopes_rejected(payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let frame = envelope::encode_message(
            envelope::Kind::Wire, NodeId(2), 7, 0, &payload, envelope::DEFAULT_MTU,
        ).unwrap().remove(0);
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        prop_assert!(envelope::decode_datagram(&doubled).is_err());
    }

    /// Decoding arbitrary bytes as a control message never panics, whether
    /// the tag is unknown or names a real variant; whatever it accepts
    /// round-trips through the encoder.
    #[test]
    fn control_decode_never_panics(
        tag in 0u8..16,
        tagged in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = data;
        if tagged {
            bytes.insert(0, tag);
        }
        if let Ok(msg) = control::decode_control(&bytes) {
            prop_assert_eq!(control::decode_control(&control::encode_control(&msg)), Ok(msg));
        }
    }

    /// Every control variant round-trips; a bit flip anywhere in its
    /// encoding never panics the decoder, and every truncation is rejected.
    #[test]
    fn control_bitflips_and_truncations_never_panic(
        id in any::<u32>(),
        slot in any::<u64>(),
        word in any::<u64>(),
        port in any::<u16>(),
        byte_idx in 0usize..4096,
        bit in 0u8..8,
    ) {
        for msg in control_variants(id, slot, word, port) {
            let bytes = control::encode_control(&msg);
            prop_assert_eq!(control::decode_control(&bytes), Ok(msg));
            let mut flipped = bytes.clone();
            flipped[byte_idx % bytes.len()] ^= 1 << bit;
            if let Ok(other) = control::decode_control(&flipped) {
                prop_assert_eq!(control::decode_control(&control::encode_control(&other)), Ok(other));
            }
            for cut in 0..bytes.len() {
                prop_assert!(control::decode_control(&bytes[..cut]).is_err());
            }
        }
    }

    /// Every message body and per-slot control round-trips with each
    /// integer field at a varint width boundary or random, and the decoder
    /// accepts exactly the encoder's bytes.
    #[test]
    fn body_fields_round_trip_at_every_width(
        picks in any::<[u8; 8]>(),
        word in any::<u64>(),
    ) {
        let picks = picks.map(|p| p % 10);
        for msg in wire_variants(&picks, word) {
            let bytes = codec::encode_message(&msg);
            prop_assert_eq!(codec::decode_message(&bytes), Ok(msg));
        }
        let slot = edge(picks[0], word);
        for msg in [
            Control::SlotDigest { slot, digest: Digest::from_bytes([word as u8; 32]) },
            Control::DigestReq { slot },
            Control::SlotDone { slot },
        ] {
            let bytes = control::encode_control(&msg);
            prop_assert_eq!(control::decode_control(&bytes), Ok(msg));
        }
    }

    /// A varint one byte longer than it needs, an 11-byte varint, and a
    /// value above `u32::MAX` in a `u32` field are each rejected — in a
    /// message, a header's origin column and a per-slot control.
    #[test]
    fn body_integers_must_be_canonical(pick in 0u8..10, word in any::<u64>()) {
        let value = edge(pick, word);
        let small = u32::try_from(value).unwrap_or(u32::MAX);
        let eleven = [[0x80u8; 10].as_slice(), &[0x01]].concat();
        let mut wide = Vec::new();
        codec::put_varint(&mut wide, u64::from(u32::MAX) + 1 + (word >> 33));
        let mut canonical = Vec::new();
        codec::put_varint(&mut canonical, small.into());
        // `Nack { from }`: tag 0x04, then the node id.
        for from in [padded(small.into()), eleven.clone(), wide.clone()] {
            let nack = [&[0x04u8][..], &from].concat();
            prop_assert_eq!(codec::decode_message(&nack), Err(CodecError::BadVarint));
        }
        // The canonical form of the same id decodes.
        let nack = [&[0x04u8][..], &canonical].concat();
        prop_assert_eq!(codec::decode_message(&nack), Ok(WireMessage::Nack { from: NodeId(small) }));
        // A header whose one origin is the bad varint.
        let header = codec::encode_header(&header_with(1, 2, &[0], word));
        let origin_at = 1 + 1 + 32 + 1;
        prop_assert_eq!(header[origin_at], 0);
        for origin in [padded(small.into()), eleven.clone(), wide.clone()] {
            let bad = [&header[..origin_at], &origin, &header[origin_at + 1..]].concat();
            prop_assert_eq!(codec::decode_header(&bad), Err(CodecError::BadVarint));
        }
        // `SlotDone { slot }`: tag 0x08, then the slot (a u64 field, so only
        // the padded and 11-byte forms are malformed).
        for slot in [padded(value), eleven] {
            let done = [&[0x08u8][..], &slot].concat();
            prop_assert!(control::decode_control(&done).is_err());
        }
    }
}
