//! The datagram envelope: versioned, CRC-guarded framing for one UDP packet.
//!
//! Every datagram on the wire is one envelope. Its header is as long as the
//! fields it has to carry: one flags byte says which optional fields follow,
//! and the integers are LEB128 varints (7 bits a byte, low group first, high
//! bit set on every byte but the last; at most 10 bytes).
//!
//! ```text
//! size   field        present      meaning
//!    2   magic        always       "TL"
//!    1   flags        always       bits 7-6 version (2)
//!                                  bits 5-4 kind: 0 = protocol
//!                                           (codec::WireMessage), 1 = control
//!                                  bit  3   reserved, must be 0
//!                                  bit  2   EXT: a payload length and an
//!                                           extension region follow
//!                                  bit  1   FRAG: fragment fields follow
//!                                  bit  0   REPLY: a req id follows
//!  1-5   sender       always       NodeId, varint
//! 1-10   msg seq      always       varint; monotonic per sender; a request
//!                                  keeps its seq across retries so
//!                                  retransmissions are idempotent
//! 1-10   req id       REPLY        varint; the request's msg seq (a datagram
//!                                  without REPLY has req id 0)
//!  1-3   frag index   FRAG         varint, 0-based fragment number
//!  1-3   frag count   FRAG         varint, fragments of this message (a
//!                                  datagram without FRAG is fragment 0 of 1)
//!  1-3   payload len  EXT          varint, payload bytes in this datagram
//!    N   payload      always       one fragment of the encoded message; it
//!                                  runs to the CRC when EXT is clear
//!    E   extensions   EXT          TLV records (see below), may be empty
//!    4   CRC-32       always       big-endian, over every byte before it
//! ```
//!
//! The encoder writes REPLY only for a nonzero req id, FRAG only when the
//! message spans more than one datagram, and EXT only when an extension
//! follows, so an unsolicited single-datagram message from a small sender
//! id costs 9–10 bytes of framing. The magic is the first two bytes of the
//! previous layout's `"TLDG"`, whose next byte `'D'` (0x44) reads as
//! version 1: a datagram from a peer that still speaks the 36-byte layout
//! passes the magic and the CRC and is counted as version skew.
//!
//! The **extension region** between payload and CRC is a sequence of
//! `[tag u8][len u8][len bytes]` records. Decoders skip records with
//! unknown tags, which is what makes extensions version-tolerant: a peer
//! that predates a tag ignores it and still delivers the payload. The CRC
//! covers the extensions, so corruption there is rejected like anywhere
//! else. The only tag defined today is [`EXT_TRACE`]: a 28-byte
//! [`TraceContext`] `(origin u32, slot u64, prefix u64, ts_micros u64)`
//! stitching a block's receive/verify spans on remote nodes back to its
//! originator. It is attached only when tracing is enabled, so
//! tracing-off runs send no extension bytes and no payload length.
//!
//! Messages larger than one MTU-sized datagram (full blocks, mostly) are
//! split into fragments sharing the sender's msg seq; [`crate::frag`]
//! reassembles them. Decoding validates every field and the checksum — a
//! malformed or bit-flipped datagram yields a clean [`NetError`], never a
//! panic, and the CRC rejects any single-bit corruption outright.

use crate::NetError;
use tldag_sim::NodeId;
use tldag_storage::crc32::crc32;

/// Leading magic of every tldag datagram.
pub const MAGIC: [u8; 2] = *b"TL";
/// Wire protocol version carried in the top two bits of the flags byte.
pub const PROTOCOL_VERSION: u8 = 2;
/// Flags bit: a req id follows msg seq (the datagram is a reply).
pub const FLAG_REPLY: u8 = 1 << 0;
/// Flags bit: fragment index and count follow.
pub const FLAG_FRAG: u8 = 1 << 1;
/// Flags bit: a payload length follows, and an extension region the payload.
pub const FLAG_EXT: u8 = 1 << 2;
/// Flags bit no sender may set.
pub const FLAG_RESERVED: u8 = 1 << 3;
/// Trailing CRC bytes after the payload.
pub const TRAILER_LEN: usize = 4;
/// The shortest header: magic, flags, and one-byte sender and msg seq.
pub const MIN_HEADER_LEN: usize = MAGIC.len() + 3;
/// The longest header the encoder writes: every optional field, each
/// varint at its field's widest.
const MAX_HEADER_LEN: usize = MAGIC.len() + 1 + 5 + 10 + 10 + 3 + 3 + 3;
/// Default datagram budget: conservative Ethernet MTU minus IP/UDP headers.
pub const DEFAULT_MTU: usize = 1400;
/// Extension tag carrying a [`TraceContext`].
pub const EXT_TRACE: u8 = 0x01;
/// Encoded size of a [`TraceContext`] extension body.
const TRACE_BODY_LEN: usize = 28;
/// On-wire size of a trace extension record (tag + len + body).
pub const TRACE_EXT_LEN: usize = 2 + TRACE_BODY_LEN;
/// Payload bytes one datagram carries at most.
const MAX_ROOM: usize = u16::MAX as usize;

/// The causal trace context riding the extension region: identifies the
/// block whose lifecycle this datagram advances, so spans recorded on the
/// receiver stitch to the originator's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Node that generated the block.
    pub origin: u32,
    /// The block's generation slot.
    pub slot: u64,
    /// First 8 bytes (big-endian) of the block's header digest.
    pub prefix: u64,
    /// Sender wall clock, microseconds since the UNIX epoch.
    pub ts_micros: u64,
}

impl TraceContext {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(EXT_TRACE);
        out.push(TRACE_BODY_LEN as u8);
        out.extend_from_slice(&self.origin.to_be_bytes());
        out.extend_from_slice(&self.slot.to_be_bytes());
        out.extend_from_slice(&self.prefix.to_be_bytes());
        out.extend_from_slice(&self.ts_micros.to_be_bytes());
    }

    fn decode(body: &[u8]) -> Option<Self> {
        if body.len() != TRACE_BODY_LEN {
            return None;
        }
        Some(TraceContext {
            origin: u32::from_be_bytes(body[0..4].try_into().ok()?),
            slot: u64::from_be_bytes(body[4..12].try_into().ok()?),
            prefix: u64::from_be_bytes(body[12..20].try_into().ok()?),
            ts_micros: u64::from_be_bytes(body[20..28].try_into().ok()?),
        })
    }
}

/// What the payload of an envelope is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A `tldag_core::codec::WireMessage` (the Sec. IV-C message set).
    Wire,
    /// A `crate::control` runtime message (gossip sync, liveness, reports).
    Control,
}

impl Kind {
    fn to_bits(self) -> u8 {
        match self {
            Kind::Wire => 0,
            Kind::Control => 1,
        }
    }

    fn from_bits(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(Kind::Wire),
            1 => Ok(Kind::Control),
            other => Err(NetError::BadKind(other)),
        }
    }
}

/// A decoded envelope header (the payload is returned alongside).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Payload channel.
    pub kind: Kind,
    /// The sending node.
    pub sender: NodeId,
    /// Sender-monotonic message sequence number.
    pub msg_seq: u64,
    /// 0 for unsolicited traffic; otherwise the request seq being answered.
    pub req_id: u64,
    /// 0-based fragment index.
    pub frag_index: u16,
    /// Total fragments of the message this datagram belongs to.
    pub frag_count: u16,
    /// Trace context from the extension region, when the sender attached
    /// one (and this decoder recognised it).
    pub trace: Option<TraceContext>,
}

/// Bytes `value` takes as a LEB128 varint.
fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads one varint off the front of `buf`: [`NetError::Truncated`] when
/// `buf` ends first, [`NetError::BadHeader`] when it runs past 10 bytes or
/// past `u64`.
fn take_varint(buf: &mut &[u8]) -> Result<u64, NetError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(NetError::Truncated)?;
        *buf = rest;
        // The tenth byte holds bit 63 alone.
        if shift == 63 && byte > 1 {
            break;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(NetError::BadHeader)
}

/// Encodes one datagram carrying one fragment.
fn encode_datagram(env: &Envelope, payload: &[u8]) -> Vec<u8> {
    let mut flags = (PROTOCOL_VERSION << 6) | (env.kind.to_bits() << 4);
    if env.req_id != 0 {
        flags |= FLAG_REPLY;
    }
    if env.frag_count > 1 {
        flags |= FLAG_FRAG;
    }
    if env.trace.is_some() {
        flags |= FLAG_EXT;
    }
    let mut out = Vec::with_capacity(MAX_HEADER_LEN + payload.len() + TRACE_EXT_LEN + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(flags);
    put_varint(&mut out, env.sender.0.into());
    put_varint(&mut out, env.msg_seq);
    if flags & FLAG_REPLY != 0 {
        put_varint(&mut out, env.req_id);
    }
    if flags & FLAG_FRAG != 0 {
        put_varint(&mut out, env.frag_index.into());
        put_varint(&mut out, env.frag_count.into());
    }
    if flags & FLAG_EXT != 0 {
        put_varint(&mut out, payload.len() as u64);
    }
    out.extend_from_slice(payload);
    if let Some(trace) = &env.trace {
        trace.encode_into(&mut out);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Splits `payload` into MTU-sized datagrams sharing `msg_seq`.
///
/// A message that fits in one datagram yields exactly one; larger messages
/// fragment with ascending `frag_index`. Retransmitting the returned
/// datagrams verbatim is safe: reassembly ignores duplicate *fragments* of
/// an in-flight message, and replies are correlated (exactly once) by the
/// request's `msg_seq`. A retransmitted message that already completed is
/// delivered to the handler again, so unsolicited-message handlers must be
/// idempotent — the runtime's are (requests re-serve, gossip re-inserts).
///
/// # Errors
///
/// [`NetError::Oversize`] when the message would need more than `u16::MAX`
/// fragments, or when `mtu` leaves no payload room.
pub fn encode_message(
    kind: Kind,
    sender: NodeId,
    msg_seq: u64,
    req_id: u64,
    payload: &[u8],
    mtu: usize,
) -> Result<Vec<Vec<u8>>, NetError> {
    encode_message_traced(kind, sender, msg_seq, req_id, payload, mtu, None)
}

/// [`encode_message`] with an optional [`TraceContext`] attached to
/// **every** fragment's extension region, so reassembly completion always
/// has the context no matter which fragment arrived last. The extension
/// bytes count against the MTU budget.
///
/// # Errors
///
/// As [`encode_message`].
#[allow(clippy::too_many_arguments)]
pub fn encode_message_traced(
    kind: Kind,
    sender: NodeId,
    msg_seq: u64,
    req_id: u64,
    payload: &[u8],
    mtu: usize,
    trace: Option<TraceContext>,
) -> Result<Vec<Vec<u8>>, NetError> {
    let reply_len = if req_id != 0 { varint_len(req_id) } else { 0 };
    // A chunk is at most `mtu` bytes, so its length field fits this width.
    let ext_len = trace.map_or(0, |_| varint_len(mtu.min(MAX_ROOM) as u64) + TRACE_EXT_LEN);
    let framing = MAGIC.len()
        + 1
        + varint_len(sender.0.into())
        + varint_len(msg_seq)
        + reply_len
        + ext_len
        + TRAILER_LEN;
    // One datagram carries no fragment fields. Once the message spans more,
    // every fragment pays for an index and a count whose width grows with
    // the count: widen the reservation until the count it yields fits it.
    let mut frag_fields = 0;
    let (room, frag_count) = loop {
        let room = mtu
            .checked_sub(framing + frag_fields)
            .ok_or(NetError::Oversize)?
            .min(MAX_ROOM);
        if frag_fields == 0 && payload.len() <= room {
            break (room, 1);
        }
        if room == 0 {
            return Err(NetError::Oversize);
        }
        let count = payload.len().div_ceil(room);
        if count > u16::MAX as usize {
            return Err(NetError::Oversize);
        }
        let width = varint_len(count as u64 - 1) + varint_len(count as u64);
        if width <= frag_fields {
            break (room, count);
        }
        frag_fields = width;
    };
    let mut out = Vec::with_capacity(frag_count);
    for i in 0..frag_count {
        let chunk = &payload[i * room..payload.len().min((i + 1) * room)];
        out.push(encode_datagram(
            &Envelope {
                kind,
                sender,
                msg_seq,
                req_id,
                frag_index: i as u16,
                frag_count: frag_count as u16,
                trace,
            },
            chunk,
        ));
    }
    Ok(out)
}

/// Parses the extension region, returning the first recognised trace
/// context. Unknown tags are skipped (forward compatibility); a record
/// whose stated length overruns the region is a framing violation.
fn parse_extensions(mut ext: &[u8]) -> Result<Option<TraceContext>, NetError> {
    let mut trace = None;
    while !ext.is_empty() {
        if ext.len() < 2 {
            return Err(NetError::LengthMismatch);
        }
        let (tag, len) = (ext[0], ext[1] as usize);
        if ext.len() < 2 + len {
            return Err(NetError::LengthMismatch);
        }
        let body = &ext[2..2 + len];
        if tag == EXT_TRACE && trace.is_none() {
            // A recognised tag with a malformed body is a framing violation
            // (the CRC already passed, so this is a sender bug, not noise).
            trace = Some(TraceContext::decode(body).ok_or(NetError::LengthMismatch)?);
        }
        ext = &ext[2 + len..];
    }
    Ok(trace)
}

/// Decodes one datagram into its envelope header and payload fragment.
///
/// Validation order: size, magic, checksum, version, kind, reserved flags,
/// header varints, fragment sanity, and length agreement — so a corrupted
/// datagram is rejected by the CRC and a foreign datagram by the magic,
/// each as a distinct error the transport can count. With EXT set, the
/// bytes between the stated payload end and the CRC are the extension
/// region: well-formed TLV records with unknown tags are skipped, anything
/// else is a [`NetError::LengthMismatch`].
///
/// # Errors
///
/// A [`NetError`] naming the first violated invariant.
pub fn decode_datagram(data: &[u8]) -> Result<(Envelope, &[u8]), NetError> {
    if data.len() < MIN_HEADER_LEN + TRAILER_LEN {
        return Err(NetError::Truncated);
    }
    if data[..MAGIC.len()] != MAGIC {
        return Err(NetError::BadMagic);
    }
    let (body, trailer) = data.split_at(data.len() - TRAILER_LEN);
    if crc32(body) != u32::from_be_bytes(trailer.try_into().expect("4")) {
        return Err(NetError::BadCrc);
    }
    let flags = body[MAGIC.len()];
    let version = flags >> 6;
    if version != PROTOCOL_VERSION {
        return Err(NetError::BadVersion(version));
    }
    let kind = Kind::from_bits((flags >> 4) & 0b11)?;
    if flags & FLAG_RESERVED != 0 {
        return Err(NetError::BadHeader);
    }
    let mut rest = &body[MAGIC.len() + 1..];
    let sender = u32::try_from(take_varint(&mut rest)?).map_err(|_| NetError::BadHeader)?;
    let msg_seq = take_varint(&mut rest)?;
    let req_id = if flags & FLAG_REPLY != 0 {
        take_varint(&mut rest)?
    } else {
        0
    };
    let (frag_index, frag_count) = if flags & FLAG_FRAG != 0 {
        let mut frag_field =
            || u16::try_from(take_varint(&mut rest)?).map_err(|_| NetError::BadFragment);
        (frag_field()?, frag_field()?)
    } else {
        (0, 1)
    };
    if frag_count == 0 || frag_index >= frag_count {
        return Err(NetError::BadFragment);
    }
    let (payload, ext) = if flags & FLAG_EXT != 0 {
        let len = take_varint(&mut rest)?;
        if len > rest.len() as u64 {
            return Err(NetError::LengthMismatch);
        }
        rest.split_at(len as usize)
    } else {
        (rest, &[][..])
    };
    let trace = parse_extensions(ext)?;
    Ok((
        Envelope {
            kind,
            sender: NodeId(sender),
            msg_seq,
            req_id,
            frag_index,
            frag_count,
            trace,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends a valid CRC to `body`: a datagram whose every other field
    /// is what the test wrote.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body).to_be_bytes();
        body.extend_from_slice(&crc);
        body
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn single_datagram_round_trip() {
        let frames = encode_message(Kind::Wire, NodeId(7), 42, 9, b"hello", 1400).unwrap();
        assert_eq!(frames.len(), 1);
        let (env, payload) = decode_datagram(&frames[0]).unwrap();
        assert_eq!(env.sender, NodeId(7));
        assert_eq!(env.msg_seq, 42);
        assert_eq!(env.req_id, 9);
        assert_eq!(env.kind, Kind::Wire);
        assert_eq!((env.frag_index, env.frag_count), (0, 1));
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_still_yields_one_datagram() {
        let frames = encode_message(Kind::Control, NodeId(1), 1, 0, b"", 1400).unwrap();
        assert_eq!(frames.len(), 1);
        let (env, payload) = decode_datagram(&frames[0]).unwrap();
        assert_eq!(env.frag_count, 1);
        assert!(payload.is_empty());
    }

    #[test]
    fn large_message_fragments_and_each_fragment_decodes() {
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let frames = encode_message(Kind::Wire, NodeId(2), 3, 0, &payload, 1400).unwrap();
        assert!(frames.len() > 1);
        let mut rebuilt = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.len() <= 1400, "fragment exceeds MTU");
            let (env, chunk) = decode_datagram(frame).unwrap();
            assert_eq!(env.frag_index as usize, i);
            assert_eq!(env.frag_count as usize, frames.len());
            rebuilt.extend_from_slice(chunk);
        }
        assert_eq!(rebuilt, payload);
    }

    #[test]
    fn fragment_fields_widen_with_the_count() {
        // 200 fragments: indexes from 128 on and the count take two varint
        // bytes, so every fragment reserves four and still fits the MTU.
        let payload = vec![0x5a; 200 * 40];
        let frames = encode_message(Kind::Wire, NodeId(1), 1, 0, &payload, 49).unwrap();
        assert!(frames.len() > 128);
        let mut rebuilt = Vec::new();
        for frame in &frames {
            assert!(frame.len() <= 49);
            rebuilt.extend_from_slice(decode_datagram(frame).unwrap().1);
        }
        assert_eq!(rebuilt, payload);
    }

    #[test]
    fn truncation_is_always_an_error() {
        let frames = encode_message(Kind::Wire, NodeId(1), 5, 0, b"payload bytes", 1400).unwrap();
        let frame = &frames[0];
        for len in 0..frame.len() {
            assert!(decode_datagram(&frame[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let frames = encode_message(Kind::Wire, NodeId(1), 5, 0, b"abc", 1400).unwrap();
        let frame = &frames[0];
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut tampered = frame.clone();
                tampered[byte] ^= 1 << bit;
                assert!(
                    decode_datagram(&tampered).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn foreign_and_future_datagrams_classified() {
        assert_eq!(
            decode_datagram(&[0u8; MIN_HEADER_LEN + TRAILER_LEN - 1]),
            Err(NetError::Truncated)
        );
        let mut foreign = vec![0u8; MIN_HEADER_LEN + TRAILER_LEN];
        foreign[..2].copy_from_slice(b"QU");
        assert_eq!(decode_datagram(&foreign), Err(NetError::BadMagic));
        // A future protocol version with a valid checksum is reported as such.
        let frame = encode_message(Kind::Wire, NodeId(1), 1, 0, b"x", 1400)
            .unwrap()
            .remove(0);
        let mut future = frame[..frame.len() - TRAILER_LEN].to_vec();
        future[2] |= 0b11 << 6;
        assert_eq!(decode_datagram(&seal(future)), Err(NetError::BadVersion(3)));
    }

    #[test]
    fn zero_room_mtu_is_refused() {
        let framing = MIN_HEADER_LEN + TRAILER_LEN;
        // An empty message fits an MTU of exactly its framing, not one less.
        let empty = encode_message(Kind::Wire, NodeId(1), 1, 0, b"", framing).unwrap();
        assert_eq!(empty[0].len(), framing);
        assert_eq!(
            encode_message(Kind::Wire, NodeId(1), 1, 0, b"", framing - 1),
            Err(NetError::Oversize)
        );
        assert_eq!(
            encode_message(Kind::Wire, NodeId(1), 1, 0, b"x", framing),
            Err(NetError::Oversize)
        );
    }

    fn trace() -> TraceContext {
        TraceContext {
            origin: 3,
            slot: 17,
            prefix: 0xdead_beef_cafe_f00d,
            ts_micros: 1_700_000_000_000_000,
        }
    }

    #[test]
    fn trace_context_rides_every_fragment() {
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let frames =
            encode_message_traced(Kind::Wire, NodeId(2), 3, 0, &payload, 1400, Some(trace()))
                .unwrap();
        assert!(frames.len() > 1);
        let mut rebuilt = Vec::new();
        for frame in &frames {
            assert!(frame.len() <= 1400, "extension must fit the MTU budget");
            let (env, chunk) = decode_datagram(frame).unwrap();
            assert_eq!(env.trace, Some(trace()));
            rebuilt.extend_from_slice(chunk);
        }
        assert_eq!(rebuilt, payload);
    }

    #[test]
    fn untraced_frames_carry_no_extension_bytes() {
        let plain = encode_message(Kind::Control, NodeId(1), 1, 0, b"x", 1400).unwrap();
        let (env, _) = decode_datagram(&plain[0]).unwrap();
        assert_eq!(env.trace, None);
        assert_eq!(plain[0][2] & FLAG_EXT, 0);
        assert_eq!(plain[0].len(), MIN_HEADER_LEN + 1 + TRAILER_LEN);
    }

    #[test]
    fn unknown_extension_tags_are_skipped() {
        // Hand-build a datagram with an unknown ext record before the trace
        // record: a future peer's datagram must still decode here.
        let frames =
            encode_message_traced(Kind::Wire, NodeId(1), 9, 0, b"hi", 1400, Some(trace())).unwrap();
        let frame = &frames[0];
        let body_end = frame.len() - TRAILER_LEN;
        let trace_ext_start = body_end - TRACE_EXT_LEN;
        let mut future = frame[..trace_ext_start].to_vec();
        future.extend_from_slice(&[0x7f, 3, 1, 2, 3]); // unknown tag 0x7f
        future.extend_from_slice(&frame[trace_ext_start..body_end]);
        let future = seal(future);
        let (env, payload) = decode_datagram(&future).unwrap();
        assert_eq!(payload, b"hi");
        assert_eq!(env.trace, Some(trace()), "trace survives after unknown tag");

        // Only the unknown record: decodes cleanly with no trace.
        let mut unknown_only = frame[..trace_ext_start].to_vec();
        unknown_only.extend_from_slice(&[0x7f, 0]);
        let (env, _) = decode_datagram(&seal(unknown_only)).unwrap();
        assert_eq!(env.trace, None);
    }

    #[test]
    fn malformed_extension_region_is_rejected() {
        let frames =
            encode_message_traced(Kind::Wire, NodeId(1), 9, 0, b"hi", 1400, Some(trace())).unwrap();
        let frame = &frames[0];
        let trace_ext_start = frame.len() - TRAILER_LEN - TRACE_EXT_LEN;
        // A lone tag byte (truncated TLV) and a record overrunning the
        // region are both framing violations, not silent successes.
        for ext in [&[0x01u8][..], &[0x01, 200, 1, 2][..]] {
            let mut bad = frame[..trace_ext_start].to_vec();
            bad.extend_from_slice(ext);
            assert_eq!(decode_datagram(&seal(bad)), Err(NetError::LengthMismatch));
        }
    }

    #[test]
    fn header_varints_are_bounded() {
        // magic, flags (version 2, protocol), then a sender varint.
        let header = |sender: &[u8]| [&b"TL\x80"[..], sender].concat();
        // Unterminated: the body ends inside the varint.
        let open = seal(header(&[0x80, 0x80]));
        assert_eq!(decode_datagram(&open), Err(NetError::Truncated));
        // Eleven bytes, or a tenth byte carrying more than bit 63.
        let long = seal([header(&[0x80; 10]), vec![0x00, 0x01, 0x00]].concat());
        assert_eq!(decode_datagram(&long), Err(NetError::BadHeader));
        let wide = seal([header(&[0xff; 9]), vec![0x02, 0x01]].concat());
        assert_eq!(decode_datagram(&wide), Err(NetError::BadHeader));
        // A sender above u32::MAX.
        let mut sender = Vec::new();
        put_varint(&mut sender, u64::from(u32::MAX) + 1);
        let big = seal([header(&sender), vec![0x01]].concat());
        assert_eq!(decode_datagram(&big), Err(NetError::BadHeader));
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for value in [0, 1, 127, 128, 16_383, 16_384, u32::MAX.into(), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            assert_eq!(buf.len(), varint_len(value), "{value}");
            let mut rest = &buf[..];
            assert_eq!(take_varint(&mut rest), Ok(value));
            assert!(rest.is_empty());
        }
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn golden_bytes_pin_the_layout() {
        // An unsolicited control message: no REPLY, FRAG or EXT, so the
        // payload runs to the CRC.
        let control =
            encode_message(Kind::Control, NodeId(5), 300, 0, &[0x02, 0xab], DEFAULT_MTU).unwrap();
        assert_eq!(control.len(), 1);
        let expected = [
            "544c",     // magic "TL"
            "90",       // version 2, kind control
            "05",       // sender 5
            "ac02",     // msg seq 300
            "02ab",     // payload
            "9568ce5a", // CRC-32
        ];
        assert_eq!(hex(&control[0]), expected.concat());

        // A reply: REPLY set, req id after msg seq.
        let reply = encode_message(
            Kind::Wire,
            NodeId(200),
            7,
            4242,
            &[0x05, 0, 0, 0, 1],
            DEFAULT_MTU,
        )
        .unwrap();
        assert_eq!(reply.len(), 1);
        let expected = [
            "544c",       // magic
            "81",         // version 2, kind protocol, REPLY
            "c801",       // sender 200
            "07",         // msg seq 7
            "9221",       // req id 4242
            "0500000001", // payload
            "38d75624",   // CRC-32
        ];
        assert_eq!(hex(&reply[0]), expected.concat());

        // A traced message over two 50-byte datagrams: FRAG and EXT set,
        // each fragment carries its index, the count, its payload length and
        // the trace record.
        let payload: Vec<u8> = (0..16).collect();
        let frags = encode_message_traced(Kind::Wire, NodeId(1), 9, 0, &payload, 50, Some(trace()))
            .unwrap();
        let trace_ext = "011c000000030000000000000011deadbeefcafef00d00060a24181e4000";
        let expected = [
            [
                "544c",             // magic
                "86",               // version 2, kind protocol, FRAG, EXT
                "01",               // sender 1
                "09",               // msg seq 9
                "00",               // frag index 0
                "02",               // frag count 2
                "08",               // payload len 8
                "0001020304050607", // payload
                trace_ext,          // trace record
                "2458db31",         // CRC-32
            ]
            .concat(),
            [
                "544c",
                "86",
                "01",
                "09",
                "01", // frag index 1
                "02",
                "08",
                "08090a0b0c0d0e0f",
                trace_ext,
                "1ac070a7",
            ]
            .concat(),
        ];
        assert_eq!(frags.iter().map(|f| hex(f)).collect::<Vec<_>>(), expected);
        assert!(frags.iter().all(|f| f.len() == 50));

        // The common case — unsolicited, one datagram, a sender below 128
        // and a seq below 2^14 — costs at most 12 bytes of framing.
        let small = encode_message(
            Kind::Wire,
            NodeId(127),
            (1 << 14) - 1,
            0,
            b"abc",
            DEFAULT_MTU,
        )
        .unwrap();
        assert!(
            small[0].len() - 3 <= 12,
            "{} B of framing",
            small[0].len() - 3
        );
    }
}
