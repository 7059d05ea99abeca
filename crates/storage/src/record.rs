//! The on-disk record frame: `[len: u32 BE][crc32(payload): u32 BE][payload]`,
//! where the payload is a block in the canonical `tldag_core::codec` wire
//! encoding (varint owner, seq and lengths, the columnar header, the body).
//! The frame is what makes torn writes detectable: a record whose bytes end
//! early or whose checksum mismatches marks the end of the valid log prefix.
//! A record whose checksum matches but whose payload does not decode is never
//! a torn write (that would take a 2⁻³² CRC collision): it is a log written
//! in another layout, or a bug, and reads as corruption wherever it lies.

use crate::crc32::crc32;
use tldag_core::codec;
use tldag_core::error::TldagError;
use tldag_core::DataBlock;

/// Frame header size: length + checksum.
pub(crate) const FRAME_BYTES: usize = 8;

/// Sanity bound on one record's payload (a block with thousands of digest
/// entries and the codec's maximum payload stays far below this).
pub(crate) const MAX_RECORD_BYTES: usize = 32 * 1024 * 1024;

/// Encodes `block` into a framed record.
pub fn encode_record(block: &DataBlock) -> Vec<u8> {
    let payload = codec::encode_block(block);
    let mut out = Vec::with_capacity(FRAME_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Outcome of reading one record from a byte window.
#[derive(Debug)]
pub(crate) enum RecordRead {
    /// A complete, checksummed record; `consumed` bytes of the window.
    Complete {
        /// The decoded block.
        block: DataBlock,
        /// Total frame + payload bytes consumed.
        consumed: usize,
    },
    /// The window ends mid-record (torn tail write) — everything from the
    /// window start onwards must be discarded.
    Torn,
    /// The bytes are structurally invalid in a way a torn write cannot
    /// produce mid-stream (checksum mismatch with full length available, or
    /// an absurd length field).
    Corrupt(String),
    /// The checksum matches but the payload is not a block: no torn write
    /// produces this, so it is corruption even at the log's tail.
    Undecodable(String),
}

/// Reads the record starting at `window[0]`.
///
/// An empty window is reported as `Torn` with zero loss — callers treat "no
/// more bytes" and "half a record" uniformly as the end of the valid prefix.
pub(crate) fn read_record(window: &[u8]) -> RecordRead {
    if window.len() < FRAME_BYTES {
        return RecordRead::Torn;
    }
    let len = u32::from_be_bytes(window[0..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_BYTES {
        return RecordRead::Corrupt(format!("record length {len} exceeds sanity bound"));
    }
    let expected_crc = u32::from_be_bytes(window[4..8].try_into().expect("4 bytes"));
    let Some(payload) = window.get(FRAME_BYTES..FRAME_BYTES + len) else {
        return RecordRead::Torn;
    };
    if crc32(payload) != expected_crc {
        // A torn write can also land here (half-written payload followed by
        // stale file contents); the caller decides whether this position is
        // the tail (truncate) or the middle of the log (corruption).
        return RecordRead::Corrupt("record checksum mismatch".into());
    }
    match codec::decode_block(payload) {
        Ok(block) => RecordRead::Complete {
            block,
            consumed: FRAME_BYTES + len,
        },
        Err(e) => RecordRead::Undecodable(format!("checksummed record failed to decode: {e}")),
    }
}

/// Decodes the payload of an already-located record (index-driven reads).
///
/// # Errors
///
/// [`TldagError::Corrupt`] when the checksum or decode fails — an indexed
/// record was valid when written, so any mismatch is real corruption.
pub(crate) fn decode_indexed(frame: &[u8]) -> Result<DataBlock, TldagError> {
    match read_record(frame) {
        RecordRead::Complete { block, .. } => Ok(block),
        RecordRead::Torn => Err(TldagError::Corrupt(
            "indexed record shorter than its frame".into(),
        )),
        RecordRead::Corrupt(msg) | RecordRead::Undecodable(msg) => Err(TldagError::Corrupt(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tldag_core::config::ProtocolConfig;
    use tldag_core::{BlockBody, BlockId};
    use tldag_crypto::schnorr::KeyPair;
    use tldag_sim::NodeId;

    fn block() -> DataBlock {
        let cfg = ProtocolConfig::test_default();
        DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), 0),
            3,
            vec![],
            BlockBody::new(vec![5u8; 40], cfg.body_bits),
            &KeyPair::from_seed(1),
        )
    }

    #[test]
    fn round_trip() {
        let b = block();
        let rec = encode_record(&b);
        match read_record(&rec) {
            RecordRead::Complete { block, consumed } => {
                assert_eq!(block, b);
                assert_eq!(consumed, rec.len());
            }
            other => panic!("expected complete record, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_torn_or_detected() {
        let rec = encode_record(&block());
        for cut in 0..rec.len() {
            match read_record(&rec[..cut]) {
                RecordRead::Complete { .. } => panic!("truncated record decoded at {cut}"),
                RecordRead::Torn | RecordRead::Corrupt(_) | RecordRead::Undecodable(_) => {}
            }
        }
    }

    #[test]
    fn bitflip_detected() {
        let mut rec = encode_record(&block());
        let idx = rec.len() / 2;
        rec[idx] ^= 0x40;
        assert!(matches!(read_record(&rec), RecordRead::Corrupt(_)));
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut rec = encode_record(&block());
        rec[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(read_record(&rec), RecordRead::Corrupt(_)));
    }
}
