//! Wire codec for 2LDAG types.
//!
//! The simulator passes structs in memory, but a deployment serialises
//! headers, blocks, and PoP messages onto radio frames, and the durable log
//! stores blocks in the same form. This module defines a compact, canonical
//! encoding with full decode validation — every `decode_*` rejects
//! truncated, oversized, non-canonical or mistagged input, so a malformed
//! frame can never panic a node.
//!
//! Every integer is a minimal LEB128 varint ([`put_varint`],
//! [`Reader::varint`]: 7 bits a byte, low group first, the high bit set on
//! every byte but the last, at most 10 bytes) unless the tables below mark
//! it fixed. Digests, roots and signatures are random bits and stay fixed;
//! so does the puzzle nonce.
//!
//! ```text
//! header                              block
//! field       width                   field          width
//! version     varint (u32)            owner          varint (u32)
//! time        varint (u64)            seq            varint (u32)
//! root        32                      header len     varint
//! count       varint (<= 4096)        header         header len
//! origins     count × varint (u32)    logical_bits   varint (u64)
//! digests     count × 32              payload len    varint (<= 16 MiB)
//! nonce       4, big-endian           payload        payload len
//! signature   16
//! ```
//!
//! The digest list is columnar — all origins, then all digests — so a
//! decoder checks the origins in one pass (or, when every origin is below
//! 128, sees that the column is `count` one-byte varints) and then builds
//! the shared list from an exact-size iterator over the 32-byte digests: one
//! allocation per header. A [`WireMessage`] is a tag byte followed by its fields in
//! declaration order, each `NodeId`, `seq`, `horizon`, `retained_from` and
//! header length a varint; a `Block` message is the tag and the block.
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
/// Encoded size of one digest in the header's digest column.
const DIGEST_BYTES: usize = 32;
/// Maximum payload bytes a decoded body may carry.
const MAX_PAYLOAD_BYTES: usize = 16 * 1024 * 1024;
/// The longest varint: ten 7-bit groups cover 64 bits.
const MAX_VARINT_BYTES: usize = 10;
/// The fixed tail of a header: the nonce (4) and the signature (16).
const NONCE_AND_SIGNATURE_BYTES: usize = 4 + 16;

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
    /// A varint is not canonical: it has a redundant trailing zero group,
    /// runs past 10 bytes, or holds more than its field's width.
    BadVarint,
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
            CodecError::BadVarint => write!(f, "non-minimal, overlong or too wide varint"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes `value` takes as a minimal LEB128 varint (1 to 10).
pub fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `value` as a minimal LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Cursor-based reader with bounds checking — the decoding core every
/// binary structure in the workspace shares (this codec, and the wire
/// transport's envelope and control-plane codecs in `tldag-net`). Every
/// accessor fails with a clean [`CodecError`] instead of panicking on short
/// input.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The bytes not consumed yet.
    pub fn remaining(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or_default()
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
        let byte = *self.data.get(self.pos).ok_or(CodecError::UnexpectedEnd)?;
        self.pos += 1;
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

    /// Reads a minimal LEB128 varint, the inverse of [`put_varint`].
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when the input ends inside it,
    /// [`CodecError::BadVarint`] when it is not minimal (its last byte is
    /// a zero group), runs past 10 bytes, or holds more than 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(first.into());
        }
        let mut value = u64::from(first & 0x7f);
        for shift in (7..7 * MAX_VARINT_BYTES as u32).step_by(7) {
            let byte = self.u8()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && byte > 1 {
                break;
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return if byte == 0 {
                    Err(CodecError::BadVarint)
                } else {
                    Ok(value)
                };
            }
        }
        Err(CodecError::BadVarint)
    }

    /// Reads a varint into a `u32` field.
    ///
    /// # Errors
    ///
    /// As [`Reader::varint`], and [`CodecError::BadVarint`] when the value
    /// exceeds `u32::MAX`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::BadVarint)
    }

    /// Reads a varint length, refusing one above `max`.
    fn length(&mut self, max: usize) -> Result<usize, CodecError> {
        match usize::try_from(self.varint()?) {
            Ok(len) if len <= max => Ok(len),
            _ => Err(CodecError::LengthOverflow),
        }
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

/// Appends the encoded `header`.
fn put_header(out: &mut Vec<u8>, header: &BlockHeader) {
    put_varint(out, header.version.into());
    put_varint(out, header.time);
    out.extend_from_slice(header.root.as_bytes());
    put_varint(out, header.digests.len() as u64);
    for entry in header.digests.iter() {
        put_varint(out, entry.origin.0.into());
    }
    for entry in header.digests.iter() {
        out.extend_from_slice(entry.digest.as_bytes());
    }
    out.extend_from_slice(&header.nonce.to_be_bytes());
    out.extend_from_slice(&header.signature.to_bytes());
}

/// Bytes [`encode_header`] writes for `header`.
fn header_len(header: &BlockHeader) -> usize {
    let origins: usize = header
        .digests
        .iter()
        .map(|entry| varint_len(entry.origin.0.into()))
        .sum();
    varint_len(header.version.into())
        + varint_len(header.time)
        + DIGEST_BYTES
        + varint_len(header.digests.len() as u64)
        + origins
        + header.digests.len() * DIGEST_BYTES
        + NONCE_AND_SIGNATURE_BYTES
}

/// Appends the encoded `header` behind its varint length.
fn put_sized_header(out: &mut Vec<u8>, header: &BlockHeader) {
    let len = header_len(header);
    out.reserve(varint_len(len as u64) + len);
    put_varint(out, len as u64);
    put_header(out, header);
}

/// Encodes a block header.
pub fn encode_header(header: &BlockHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(header_len(header));
    put_header(&mut out, header);
    out
}

fn read_header(r: &mut Reader<'_>) -> Result<BlockHeader, CodecError> {
    let version = r.varint_u32()?;
    let time = r.varint()?;
    let root = r.digest()?;
    let count = r.length(MAX_DIGEST_ENTRIES)?;
    // The origin column is checked in one pass, then read again while the
    // digests are collected from an exact-size iterator: one allocation,
    // straight into the shared list.
    let column = r.remaining();
    let origins_at = r.pos;
    for _ in 0..count {
        r.varint_u32()?;
    }
    let mut origins = Reader::new(column.get(..r.pos - origins_at).unwrap_or_default());
    let digests = r
        .take(count * DIGEST_BYTES)?
        .chunks_exact(DIGEST_BYTES)
        .map(|raw| DigestEntry {
            origin: NodeId(origins.varint_u32().unwrap_or_default()),
            digest: Digest::from_bytes(raw.try_into().unwrap_or_default()),
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
/// Returns a [`CodecError`] on truncated, oversized, non-canonical or
/// trailing input.
pub fn decode_header(data: &[u8]) -> Result<BlockHeader, CodecError> {
    let mut r = Reader::new(data);
    let header = read_header(&mut r)?;
    r.finish()?;
    Ok(header)
}

/// Reads a varint-length-prefixed header that must fill its length.
fn read_sized_header(r: &mut Reader<'_>) -> Result<BlockHeader, CodecError> {
    let len = r.length(usize::MAX)?;
    decode_header(r.take(len)?)
}

/// Appends the encoded `block`.
fn put_block(out: &mut Vec<u8>, block: &DataBlock) {
    let header_len = header_len(&block.header);
    let payload = &block.body.payload;
    // The owner and seq take at most 5 bytes each, the two lengths and the
    // logical bits at most 10 each.
    out.reserve(40 + header_len + payload.len());
    put_varint(out, block.id.owner.0.into());
    put_varint(out, block.id.seq.into());
    put_varint(out, header_len as u64);
    put_header(out, &block.header);
    put_varint(out, block.body.logical_bits);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Encodes a full data block (id + header + body).
pub fn encode_block(block: &DataBlock) -> Vec<u8> {
    let mut out = Vec::new();
    put_block(&mut out, block);
    out
}

/// Decodes a full data block.
///
/// # Errors
///
/// Returns a [`CodecError`] on malformed input.
pub fn decode_block(data: &[u8]) -> Result<DataBlock, CodecError> {
    let mut r = Reader::new(data);
    let owner = NodeId(r.varint_u32()?);
    let seq = r.varint_u32()?;
    let header = read_sized_header(&mut r)?;
    let logical_bits = r.varint()?;
    let payload_len = r.length(MAX_PAYLOAD_BYTES)?;
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

const TAG_REQ_CHILD: u8 = 0x02;
const TAG_RPY_CHILD: u8 = 0x03;
const TAG_NACK: u8 = 0x04;
const TAG_FETCH: u8 = 0x05;
const TAG_BLOCK: u8 = 0x06;
const TAG_PRUNED_NACK: u8 = 0x07;
const TAG_REQ_CHILD_AT: u8 = 0x08;

/// Encodes a wire message with a leading type tag.
pub fn encode_message(msg: &WireMessage) -> Vec<u8> {
    let mut out = Vec::new();
    let node = |out: &mut Vec<u8>, tag: u8, id: NodeId| {
        out.push(tag);
        put_varint(out, id.0.into());
    };
    match msg {
        WireMessage::ReqChild { from, target } => {
            node(&mut out, TAG_REQ_CHILD, *from);
            out.extend_from_slice(target.as_bytes());
        }
        WireMessage::ReqChildAt {
            from,
            target,
            horizon,
        } => {
            node(&mut out, TAG_REQ_CHILD_AT, *from);
            out.extend_from_slice(target.as_bytes());
            put_varint(&mut out, *horizon);
        }
        WireMessage::RpyChild(reply) => {
            node(&mut out, TAG_RPY_CHILD, reply.claimed_owner);
            put_varint(&mut out, reply.block_id.owner.0.into());
            put_varint(&mut out, reply.block_id.seq.into());
            put_sized_header(&mut out, &reply.header);
        }
        WireMessage::Nack { from } => node(&mut out, TAG_NACK, *from),
        WireMessage::PrunedNack {
            from,
            retained_from,
        } => {
            node(&mut out, TAG_PRUNED_NACK, *from);
            put_varint(&mut out, (*retained_from).into());
        }
        WireMessage::FetchBlock { from, id } => {
            node(&mut out, TAG_FETCH, *from);
            put_varint(&mut out, id.owner.0.into());
            put_varint(&mut out, id.seq.into());
        }
        WireMessage::Block(block) => {
            out.push(TAG_BLOCK);
            put_block(&mut out, block);
        }
    }
    out
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
        TAG_REQ_CHILD => WireMessage::ReqChild {
            from: NodeId(r.varint_u32()?),
            target: r.digest()?,
        },
        TAG_REQ_CHILD_AT => WireMessage::ReqChildAt {
            from: NodeId(r.varint_u32()?),
            target: r.digest()?,
            horizon: r.varint()?,
        },
        TAG_RPY_CHILD => {
            let claimed_owner = NodeId(r.varint_u32()?);
            let owner = NodeId(r.varint_u32()?);
            let seq = r.varint_u32()?;
            WireMessage::RpyChild(ChildReply {
                claimed_owner,
                block_id: BlockId::new(owner, seq),
                header: read_sized_header(&mut r)?,
            })
        }
        TAG_NACK => WireMessage::Nack {
            from: NodeId(r.varint_u32()?),
        },
        TAG_PRUNED_NACK => WireMessage::PrunedNack {
            from: NodeId(r.varint_u32()?),
            retained_from: r.varint_u32()?,
        },
        TAG_FETCH => {
            let from = NodeId(r.varint_u32()?);
            let owner = NodeId(r.varint_u32()?);
            let seq = r.varint_u32()?;
            WireMessage::FetchBlock {
                from,
                id: BlockId::new(owner, seq),
            }
        }
        TAG_BLOCK => return Ok(WireMessage::Block(Box::new(decode_block(r.remaining())?))),
        other => return Err(CodecError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Magic + version prefix of a persisted trust cache (`H_i`) blob.
const TRUST_CACHE_MAGIC: &[u8; 8] = b"TLDAGTC\x02";

/// Encodes a trusted-header cache `H_i` for persistence.
///
/// Entries are sorted by `(owner, seq, digest)` so the encoding is
/// deterministic regardless of hash-map iteration order. The format is
/// `magic ‖ count ‖ [owner, block-owner, seq, header-len, header]*`, every
/// integer a varint and the header in the canonical [`encode_header`] form.
pub fn encode_trust_cache(cache: &crate::store::TrustCache) -> Vec<u8> {
    // The sort key's digest is the one the cache indexes the header under —
    // nothing is re-hashed (this encoder runs at every commit point once
    // persistence is on).
    let mut entries: Vec<_> = cache.iter().collect();
    entries.sort_unstable_by_key(|&(digest, t)| (t.owner, t.block_id.seq, digest));
    let mut out = Vec::with_capacity(16 + entries.len() * 96);
    out.extend_from_slice(TRUST_CACHE_MAGIC);
    put_varint(&mut out, entries.len() as u64);
    for (_, t) in entries {
        put_varint(&mut out, t.owner.0.into());
        put_varint(&mut out, t.block_id.owner.0.into());
        put_varint(&mut out, t.block_id.seq.into());
        put_sized_header(&mut out, &t.header);
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
    let count = r.length(1 << 24)?;
    let mut cache = crate::store::TrustCache::new();
    for _ in 0..count {
        let owner = NodeId(r.varint_u32()?);
        let block_owner = NodeId(r.varint_u32()?);
        let seq = r.varint_u32()?;
        cache.insert(crate::store::TrustedHeader {
            owner,
            block_id: BlockId::new(block_owner, seq),
            header: read_sized_header(&mut r)?,
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
        let encoded = encode_header(&block.header);
        // The count follows version and time (varints) and the 32-byte root.
        let at = varint_len(block.header.version.into()) + varint_len(block.header.time) + 32;
        assert_eq!(encoded[at], 0, "an empty list");
        for count in [MAX_DIGEST_ENTRIES as u64 + 1, u32::MAX.into(), u64::MAX] {
            let mut bad = encoded[..at].to_vec();
            put_varint(&mut bad, count);
            bad.extend_from_slice(&encoded[at + 1..]);
            assert_eq!(decode_header(&bad), Err(CodecError::LengthOverflow));
        }
    }

    #[test]
    fn varints_round_trip_and_reject_non_canonical_forms() {
        for value in [0, 1, 127, 128, 16_383, 16_384, u32::MAX.into(), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value), "{value}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(value));
            assert_eq!(r.finish(), Ok(()));
        }
        let read = |bytes: &[u8]| Reader::new(bytes).varint();
        assert_eq!(read(&[]), Err(CodecError::UnexpectedEnd));
        assert_eq!(read(&[0x80, 0x80]), Err(CodecError::UnexpectedEnd));
        // A redundant zero group, in the second byte or the tenth.
        assert_eq!(read(&[0x80, 0x00]), Err(CodecError::BadVarint));
        assert_eq!(read(&[0xff, 0x00]), Err(CodecError::BadVarint));
        assert_eq!(
            read(&[[0xff; 9].as_slice(), &[0x00]].concat()),
            Err(CodecError::BadVarint)
        );
        // Eleven bytes, and a tenth byte carrying more than bit 63.
        assert_eq!(
            read(&[[0x80; 10].as_slice(), &[0x01]].concat()),
            Err(CodecError::BadVarint)
        );
        assert_eq!(
            read(&[[0xff; 9].as_slice(), &[0x02]].concat()),
            Err(CodecError::BadVarint)
        );
        // Too wide for a u32 field.
        let mut wide = Vec::new();
        put_varint(&mut wide, u64::from(u32::MAX) + 1);
        assert_eq!(Reader::new(&wide).varint_u32(), Err(CodecError::BadVarint));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A header with fixed field values (no puzzle search, no signing), so
    /// its bytes are the layout's and nothing else's.
    fn golden_header() -> BlockHeader {
        BlockHeader {
            version: 1,
            time: 300,
            root: Digest::from_bytes([0xaa; 32]),
            digests: vec![
                DigestEntry {
                    origin: NodeId(3),
                    digest: Digest::from_bytes([0x11; 32]),
                },
                DigestEntry {
                    origin: NodeId(200),
                    digest: Digest::from_bytes([0x22; 32]),
                },
            ]
            .into(),
            nonce: 0x0102_0304,
            signature: Signature::from_bytes([0x5a; 16]),
        }
    }

    const GOLDEN_HEADER: [&str; 9] = [
        "01",                                                               // version 1
        "ac02",                                                             // time 300
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", // root
        "02",                                                               // count
        "03c801",                                                           // origins 3 and 200
        "1111111111111111111111111111111111111111111111111111111111111111", // digests
        "2222222222222222222222222222222222222222222222222222222222222222",
        "01020304",                         // nonce, fixed big-endian
        "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a", // signature
    ];

    #[test]
    fn golden_bytes_pin_the_header_and_block_layout() {
        let header = golden_header();
        let encoded = encode_header(&header);
        assert_eq!(hex(&encoded), GOLDEN_HEADER.concat());
        assert_eq!(encoded.len(), 123);
        assert_eq!(encoded.len(), header_len(&header));

        let block = DataBlock {
            id: BlockId::new(NodeId(3), 300),
            header,
            body: BlockBody {
                payload: vec![0xab, 0xcd, 0xef].into(),
                logical_bits: 8000,
            },
        };
        let expected = [
            "03",   // owner 3
            "ac02", // seq 300
            "7b",   // header length 123
            &GOLDEN_HEADER.concat(),
            "c03e",   // logical bits 8000
            "03",     // payload length
            "abcdef", // payload
        ];
        let encoded = encode_block(&block);
        assert_eq!(hex(&encoded), expected.concat());
        assert_eq!(decode_block(&encoded), Ok(block));
    }

    #[test]
    fn golden_bytes_pin_the_message_layout() {
        let cases = [
            (
                WireMessage::RpyChild(ChildReply {
                    claimed_owner: NodeId(3),
                    block_id: BlockId::new(NodeId(3), 300),
                    header: golden_header(),
                }),
                // tag, claimed owner 3, owner 3, seq 300, header length 123
                ["03", "03", "03", "ac02", "7b", &GOLDEN_HEADER.concat()].concat(),
            ),
            (
                WireMessage::ReqChildAt {
                    from: NodeId(2),
                    target: Digest::from_bytes([0x77; 32]),
                    horizon: 300,
                },
                [
                    "08", // tag
                    "02", // from 2
                    "7777777777777777777777777777777777777777777777777777777777777777",
                    "ac02", // horizon 300
                ]
                .concat(),
            ),
            (
                WireMessage::FetchBlock {
                    from: NodeId(2),
                    id: BlockId::new(NodeId(200), 300),
                },
                // tag, from 2, owner 200, seq 300
                ["05", "02", "c801", "ac02"].concat(),
            ),
        ];
        for (msg, expected) in cases {
            let encoded = encode_message(&msg);
            assert_eq!(hex(&encoded), expected, "{msg:?}");
            assert_eq!(decode_message(&encoded), Ok(msg));
        }
    }

    #[test]
    fn all_message_variants_round_trip() {
        let block = sample_block(2);
        let messages = vec![
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
        // 0x01 was a digest broadcast no node sent (slot digests are
        // control messages on the wire, and in memory in the engine): a
        // message of its old shape is unknown too.
        let retired = [&[0x01, 0x01][..], &[1; 32]].concat();
        assert_eq!(decode_message(&retired), Err(CodecError::UnknownTag(0x01)));
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
