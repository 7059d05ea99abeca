//! Wire-codec robustness: round trips for arbitrary structures, and decode
//! must never panic or accept malformed input silently — for the message
//! codec *and* for the datagram envelopes that carry it.

use proptest::prelude::*;
use tldag::core::block::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag::core::codec;
use tldag::core::codec::CodecError;
use tldag::core::config::ProtocolConfig;
use tldag::crypto::schnorr::KeyPair;
use tldag::crypto::Digest;
use tldag::net::envelope;
use tldag::net::frag::Reassembler;
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
        tag in 0x08u8..0xffu8,
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
}
