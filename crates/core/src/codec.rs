//! Wire codec for 2LDAG types.
//!
//! The simulator passes structs in memory, but a deployment serialises
//! headers, blocks, and PoP messages onto radio frames. This module defines
//! a compact, canonical, length-prefixed big-endian encoding with full
//! decode validation — every `decode_*` rejects truncated, oversized, or
//! mistagged input, so a malformed frame can never panic a node.
//!
//! The *logical* sizes of the overhead model (Eq. 2–3) are defined by
//! [`crate::config::ProtocolConfig`]; this codec is the concrete transport
//! representation and is deliberately close to those sizes.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic
    )
)]

use crate::block::{BlockBody, BlockHeader, BlockId, DataBlock, DigestEntry};
use crate::pop::messages::ChildReply;
use std::fmt;
use tldag_crypto::schnorr::Signature;
use tldag_crypto::Digest;
use tldag_sim::NodeId;

/// Maximum digest entries a decoded header may carry (sanity bound: a node
/// cannot have more neighbors than a deployment has nodes).
const MAX_DIGEST_ENTRIES: usize = 4096;
/// Encoded size of one digest entry: `origin ‖ digest`.
const DIGEST_ENTRY_BYTES: usize = 4 + 32;
/// Maximum payload bytes a decoded body may carry.
const MAX_PAYLOAD_BYTES: usize = 16 * 1024 * 1024;

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// A type tag byte did not match any known variant.
    BadTag(u8),
    /// A *message* tag byte named no known [`WireMessage`] variant. Split
    /// from [`CodecError::BadTag`] so transports can count version skew —
    /// a peer speaking a newer message set — separately from corruption.
    UnknownTag(u8),
    /// A length field exceeded its sanity bound.
    LengthOverflow,
    /// Valid structure followed by unconsumed bytes.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "input ended mid-structure"),
            CodecError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            CodecError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::LengthOverflow => write!(f, "length field exceeds sanity bound"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor-based reader with bounds checking — the decoding core every
/// big-endian structure in the workspace shares (this codec, and the wire
/// transport's control-plane codec in `tldag-net`). Every accessor fails
/// with a clean [`CodecError`] instead of panicking on short input.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than `n` bytes remain,
    /// [`CodecError::LengthOverflow`] when `n` overflows the cursor.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::LengthOverflow)?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEnd)?;
        self.pos = end;
        Ok(slice)
    }

    /// Consumes the next `N` bytes as an array.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, _) = self
            .take(N)?
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEnd)?;
        Ok(*head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let [byte] = self.array()?;
        Ok(byte)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a 32-byte digest.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than 32 bytes remain.
    pub fn digest(&mut self) -> Result<Digest, CodecError> {
        Ok(Digest::from_bytes(self.array()?))
    }

    /// Asserts the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Encodes a block header.
pub fn encode_header(header: &BlockHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + header.digests.len() * DIGEST_ENTRY_BYTES);
    out.extend_from_slice(&header.version.to_be_bytes());
    out.extend_from_slice(&header.time.to_be_bytes());
    out.extend_from_slice(header.root.as_bytes());
    out.extend_from_slice(&(header.digests.len() as u32).to_be_bytes());
    for entry in header.digests.iter() {
        out.extend_from_slice(&entry.origin.0.to_be_bytes());
        out.extend_from_slice(entry.digest.as_bytes());
    }
    out.extend_from_slice(&header.nonce.to_be_bytes());
    out.extend_from_slice(&header.signature.to_bytes());
    out
}

fn read_header(r: &mut Reader<'_>) -> Result<BlockHeader, CodecError> {
    let version = r.u32()?;
    let time = r.u64()?;
    let root = r.digest()?;
    let count = r.u32()? as usize;
    if count > MAX_DIGEST_ENTRIES {
        return Err(CodecError::LengthOverflow);
    }
    // Bounds-checked once, then collected from an exact-size iterator:
    // one allocation, straight into the shared list.
    #[allow(clippy::expect_used)] // chunks_exact yields DIGEST_ENTRY_BYTES = 4 + 32 bytes
    let digests = r
        .take(count * DIGEST_ENTRY_BYTES)?
        .chunks_exact(DIGEST_ENTRY_BYTES)
        .map(|raw| {
            let (origin, digest) = raw.split_at(4);
            DigestEntry {
                origin: NodeId(u32::from_be_bytes(origin.try_into().expect("4 bytes"))),
                digest: Digest::from_bytes(digest.try_into().expect("32 bytes")),
            }
        })
        .collect();
    let nonce = r.u32()?;
    let signature = Signature::from_bytes(r.array()?);
    Ok(BlockHeader {
        version,
        time,
        root,
        digests,
        nonce,
        signature,
    })
}

/// Decodes a block header, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated, oversized, or trailing input.
pub fn decode_header(data: &[u8]) -> Result<BlockHeader, CodecError> {
    let mut r = Reader::new(data);
    let header = read_header(&mut r)?;
    r.finish()?;
    Ok(header)
}

/// Encodes a full data block (id + header + body).
pub fn encode_block(block: &DataBlock) -> Vec<u8> {
    let header = encode_header(&block.header);
    let mut out = Vec::with_capacity(24 + header.len() + block.body.payload.len());
    out.extend_from_slice(&block.id.owner.0.to_be_bytes());
    out.extend_from_slice(&block.id.seq.to_be_bytes());
    out.extend_from_slice(&(header.len() as u32).to_be_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(&block.body.logical_bits.to_be_bytes());
    out.extend_from_slice(&(block.body.payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&block.body.payload);
    out
}

/// Decodes a full data block.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_block(data: &[u8]) -> Result<DataBlock, CodecError> {
    let mut r = Reader::new(data);
    let owner = NodeId(r.u32()?);
    let seq = r.u32()?;
    let header_len = r.u32()? as usize;
    let header_bytes = r.take(header_len)?;
    let header = decode_header(header_bytes)?;
    let logical_bits = r.u64()?;
    let payload_len = r.u32()? as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(CodecError::LengthOverflow);
    }
    let payload = r.take(payload_len)?;
    r.finish()?;
    Ok(DataBlock {
        id: BlockId::new(owner, seq),
        header,
        body: BlockBody {
            payload: payload.into(),
            logical_bits,
        },
    })
}

/// Wire form of the PoP exchanges (Sec. IV-C message set).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMessage {
    /// Digest broadcast during DAG construction.
    Digest {
        /// Sender.
        from: NodeId,
        /// `H(b^h)` of the sender's newest block.
        digest: Digest,
    },
    /// `REQ_CHILD`: asks for the oldest child of `target`.
    ReqChild {
        /// Requesting validator.
        from: NodeId,
        /// The verifying block digest.
        target: Digest,
    },
    /// `REQ_CHILD` bounded to a generation horizon: asks for the oldest
    /// child of `target` generated at or before slot `horizon`. Pipelined
    /// (epoch-windowed) validators use this so a responder running ahead
    /// of the verification front never leaks its future blocks into a
    /// proof path — the reply set is exactly what a lockstep responder
    /// would have held at slot `horizon`.
    ReqChildAt {
        /// Requesting validator.
        from: NodeId,
        /// The verifying block digest.
        target: Digest,
        /// Highest generation slot (inclusive) the reply may come from.
        horizon: u64,
    },
    /// `RPY_CHILD` carrying a child header.
    RpyChild(ChildReply),
    /// Cooperative "no child stored".
    Nack {
        /// Responding node.
        from: NodeId,
    },
    /// Cooperative "chain prefix pruned" — the responder compacted its log
    /// under a retention budget, so a child (or the requested block) may
    /// have been dropped. `retained_from` is its pruned floor.
    PrunedNack {
        /// Responding node.
        from: NodeId,
        /// First sequence number the responder still retains.
        retained_from: u32,
    },
    /// Full-block request.
    FetchBlock {
        /// Requesting validator.
        from: NodeId,
        /// Block to retrieve.
        id: BlockId,
    },
    /// Full-block response.
    Block(Box<DataBlock>),
}

const TAG_DIGEST: u8 = 0x01;
const TAG_REQ_CHILD: u8 = 0x02;
const TAG_RPY_CHILD: u8 = 0x03;
const TAG_NACK: u8 = 0x04;
const TAG_FETCH: u8 = 0x05;
const TAG_BLOCK: u8 = 0x06;
const TAG_PRUNED_NACK: u8 = 0x07;
const TAG_REQ_CHILD_AT: u8 = 0x08;

/// Encodes a wire message with a leading type tag.
pub fn encode_message(msg: &WireMessage) -> Vec<u8> {
    match msg {
        WireMessage::Digest { from, digest } => {
            let mut out = vec![TAG_DIGEST];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(digest.as_bytes());
            out
        }
        WireMessage::ReqChild { from, target } => {
            let mut out = vec![TAG_REQ_CHILD];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(target.as_bytes());
            out
        }
        WireMessage::ReqChildAt {
            from,
            target,
            horizon,
        } => {
            let mut out = vec![TAG_REQ_CHILD_AT];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(target.as_bytes());
            out.extend_from_slice(&horizon.to_be_bytes());
            out
        }
        WireMessage::RpyChild(reply) => {
            let header = encode_header(&reply.header);
            let mut out = vec![TAG_RPY_CHILD];
            out.extend_from_slice(&reply.claimed_owner.0.to_be_bytes());
            out.extend_from_slice(&reply.block_id.owner.0.to_be_bytes());
            out.extend_from_slice(&reply.block_id.seq.to_be_bytes());
            out.extend_from_slice(&(header.len() as u32).to_be_bytes());
            out.extend_from_slice(&header);
            out
        }
        WireMessage::Nack { from } => {
            let mut out = vec![TAG_NACK];
            out.extend_from_slice(&from.0.to_be_bytes());
            out
        }
        WireMessage::PrunedNack {
            from,
            retained_from,
        } => {
            let mut out = vec![TAG_PRUNED_NACK];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(&retained_from.to_be_bytes());
            out
        }
        WireMessage::FetchBlock { from, id } => {
            let mut out = vec![TAG_FETCH];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(&id.owner.0.to_be_bytes());
            out.extend_from_slice(&id.seq.to_be_bytes());
            out
        }
        WireMessage::Block(block) => {
            let body = encode_block(block);
            let mut out = Vec::with_capacity(1 + body.len());
            out.push(TAG_BLOCK);
            out.extend_from_slice(&body);
            out
        }
    }
}

/// Decodes a wire message.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_message(data: &[u8]) -> Result<WireMessage, CodecError> {
    let mut r = Reader::new(data);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_DIGEST => WireMessage::Digest {
            from: NodeId(r.u32()?),
            digest: r.digest()?,
        },
        TAG_REQ_CHILD => WireMessage::ReqChild {
            from: NodeId(r.u32()?),
            target: r.digest()?,
        },
        TAG_REQ_CHILD_AT => WireMessage::ReqChildAt {
            from: NodeId(r.u32()?),
            target: r.digest()?,
            horizon: r.u64()?,
        },
        TAG_RPY_CHILD => {
            let claimed_owner = NodeId(r.u32()?);
            let owner = NodeId(r.u32()?);
            let seq = r.u32()?;
            let header_len = r.u32()? as usize;
            let header = decode_header(r.take(header_len)?)?;
            WireMessage::RpyChild(ChildReply {
                claimed_owner,
                block_id: BlockId::new(owner, seq),
                header,
            })
        }
        TAG_NACK => WireMessage::Nack {
            from: NodeId(r.u32()?),
        },
        TAG_PRUNED_NACK => WireMessage::PrunedNack {
            from: NodeId(r.u32()?),
            retained_from: r.u32()?,
        },
        TAG_FETCH => {
            let from = NodeId(r.u32()?);
            let owner = NodeId(r.u32()?);
            let seq = r.u32()?;
            WireMessage::FetchBlock {
                from,
                id: BlockId::new(owner, seq),
            }
        }
        TAG_BLOCK => {
            let rest = r.take(data.len() - 1)?;
            return Ok(WireMessage::Block(Box::new(decode_block(rest)?)));
        }
        other => return Err(CodecError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Magic + version prefix of a persisted trust cache (`H_i`) blob.
const TRUST_CACHE_MAGIC: &[u8; 8] = b"TLDAGTC\x01";

/// Encodes a trusted-header cache `H_i` for persistence.
///
/// Entries are sorted by `(owner, seq, digest)` so the encoding is
/// deterministic regardless of hash-map iteration order. The format is
/// `magic ‖ count ‖ [owner, block-owner, seq, header-len, header]*` with the
/// header in the canonical [`encode_header`] form.
pub fn encode_trust_cache(cache: &crate::store::TrustCache) -> Vec<u8> {
    // The sort key's digest is the one the cache indexes the header under —
    // nothing is re-hashed (this encoder runs at every commit point once
    // persistence is on).
    let mut entries: Vec<_> = cache.iter().collect();
    entries.sort_unstable_by_key(|&(digest, t)| (t.owner, t.block_id.seq, digest));
    let mut out = Vec::with_capacity(16 + entries.len() * 96);
    out.extend_from_slice(TRUST_CACHE_MAGIC);
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (_, t) in entries {
        let header = encode_header(&t.header);
        out.extend_from_slice(&t.owner.0.to_be_bytes());
        out.extend_from_slice(&t.block_id.owner.0.to_be_bytes());
        out.extend_from_slice(&t.block_id.seq.to_be_bytes());
        out.extend_from_slice(&(header.len() as u32).to_be_bytes());
        out.extend_from_slice(&header);
    }
    out
}

/// Decodes a persisted trust cache `H_i`.
///
/// # Errors
///
/// Returns a [`CodecError`] on any framing violation — callers treat a
/// failed decode as "no cache" (a cold restart), never as data loss.
pub fn decode_trust_cache(data: &[u8]) -> Result<crate::store::TrustCache, CodecError> {
    let mut r = Reader::new(data);
    if r.take(8)? != TRUST_CACHE_MAGIC {
        return Err(CodecError::BadTag(data.first().copied().unwrap_or(0)));
    }
    let count = r.u32()? as usize;
    if count > 1 << 24 {
        return Err(CodecError::LengthOverflow);
    }
    let mut cache = crate::store::TrustCache::new();
    for _ in 0..count {
        let owner = NodeId(r.u32()?);
        let block_owner = NodeId(r.u32()?);
        let seq = r.u32()?;
        let header_len = r.u32()? as usize;
        let header = decode_header(r.take(header_len)?)?;
        cache.insert(crate::store::TrustedHeader {
            owner,
            block_id: BlockId::new(block_owner, seq),
            header,
        });
    }
    r.finish()?;
    Ok(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use tldag_crypto::schnorr::KeyPair;

    fn sample_block(digests: usize) -> DataBlock {
        let cfg = ProtocolConfig::test_default();
        let kp = KeyPair::from_seed(5);
        let entries = (0..digests)
            .map(|i| DigestEntry {
                origin: NodeId(i as u32),
                digest: Digest::from_bytes([i as u8; 32]),
            })
            .collect::<Vec<_>>();
        DataBlock::create(
            &cfg,
            BlockId::new(NodeId(3), 7),
            42,
            entries,
            BlockBody::new(vec![9u8; 100], cfg.body_bits),
            &kp,
        )
    }

    #[test]
    fn header_round_trip() {
        for digests in [0usize, 1, 5, 12] {
            let block = sample_block(digests);
            let encoded = encode_header(&block.header);
            let decoded = decode_header(&encoded).unwrap();
            assert_eq!(decoded, block.header);
            assert_eq!(decoded.digest(), block.header_digest(), "digest preserved");
        }
    }

    #[test]
    fn block_round_trip() {
        let block = sample_block(3);
        let decoded = decode_block(&encode_block(&block)).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn truncated_input_rejected_at_every_length() {
        let block = sample_block(2);
        let encoded = encode_block(&block);
        for len in 0..encoded.len() {
            assert!(
                decode_block(&encoded[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let block = sample_block(1);
        let mut encoded = encode_header(&block.header);
        encoded.push(0);
        assert_eq!(decode_header(&encoded), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn oversized_digest_count_rejected() {
        let block = sample_block(0);
        let mut encoded = encode_header(&block.header);
        // The count field sits after version (4) + time (8) + root (32).
        encoded[44..48].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_header(&encoded), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn all_message_variants_round_trip() {
        let block = sample_block(2);
        let messages = vec![
            WireMessage::Digest {
                from: NodeId(1),
                digest: Digest::from_bytes([1; 32]),
            },
            WireMessage::ReqChild {
                from: NodeId(2),
                target: Digest::from_bytes([2; 32]),
            },
            WireMessage::ReqChildAt {
                from: NodeId(2),
                target: Digest::from_bytes([7; 32]),
                horizon: 41,
            },
            WireMessage::RpyChild(ChildReply {
                claimed_owner: NodeId(3),
                block_id: block.id,
                header: block.header.clone(),
            }),
            WireMessage::Nack { from: NodeId(4) },
            WireMessage::PrunedNack {
                from: NodeId(4),
                retained_from: 17,
            },
            WireMessage::FetchBlock {
                from: NodeId(5),
                id: BlockId::new(NodeId(6), 9),
            },
            WireMessage::Block(Box::new(block.clone())),
        ];
        for msg in messages {
            let decoded = decode_message(&encode_message(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            decode_message(&[0xff, 0, 0]),
            Err(CodecError::UnknownTag(0xff))
        );
        assert_eq!(decode_message(&[]), Err(CodecError::UnexpectedEnd));
        // Every tag outside the known set reports the skewed byte.
        for tag in 0x09..=0x20u8 {
            assert_eq!(decode_message(&[tag]), Err(CodecError::UnknownTag(tag)));
        }
    }

    #[test]
    fn trust_cache_round_trip_is_deterministic() {
        use crate::store::{TrustCache, TrustedHeader};
        let mut cache = TrustCache::new();
        for owner in [3u32, 1, 2] {
            let block = sample_block(2);
            let kp = KeyPair::from_seed(u64::from(owner));
            let cfg = ProtocolConfig::test_default();
            let owned = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(owner), owner),
                u64::from(owner),
                block.header.digests.clone(),
                BlockBody::new(vec![owner as u8], cfg.body_bits),
                &kp,
            );
            cache.insert(TrustedHeader {
                owner: NodeId(owner),
                block_id: owned.id,
                header: owned.header,
            });
        }
        let blob = encode_trust_cache(&cache);
        assert_eq!(blob, encode_trust_cache(&cache), "encoding is stable");
        let decoded = decode_trust_cache(&blob).unwrap();
        assert_eq!(decoded.len(), cache.len());
        for (digest, t) in cache.iter() {
            assert_eq!(*digest, t.header.digest(), "keyed by its digest");
            assert_eq!(decoded.get(digest), Some(t), "entry survives");
        }
        assert_eq!(
            encode_trust_cache(&decoded),
            blob,
            "round trip is byte-stable"
        );
        // Any truncation is rejected, never silently partial.
        for cut in [0, 4, 11, blob.len() - 1] {
            assert!(decode_trust_cache(&blob[..cut]).is_err());
        }
    }

    #[test]
    fn decoded_header_still_validates() {
        // Signature and puzzle checks survive the round trip — the codec is
        // canonical with respect to the signed bytes.
        let cfg = ProtocolConfig::test_default();
        let block = sample_block(4);
        let decoded = decode_header(&encode_header(&block.header)).unwrap();
        assert!(decoded.verify_signature(&KeyPair::from_seed(5).public()));
        assert!(decoded.verify_puzzle(cfg.difficulty_bits));
    }
}
