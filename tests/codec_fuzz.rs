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
use tldag::sim::NodeId;

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
    /// either errors cleanly or yields a self-consistent envelope.
    #[test]
    fn envelope_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok((env, chunk)) = envelope::decode_datagram(&data) {
            prop_assert!(env.frag_index < env.frag_count);
            prop_assert_eq!(chunk.len(), data.len() - envelope::OVERHEAD);
        }
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
