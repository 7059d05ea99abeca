//! Runtime control messages (envelope kind 1).
//!
//! The Sec. IV-C protocol messages ride in kind-0 envelopes using the core
//! codec verbatim; everything a *deployment* additionally needs — liveness
//! bootstrap, slot-tagged digest gossip with pull-based recovery, and the
//! harness's report/shutdown handshake — is a control message. Keeping the
//! two tag spaces separate means the wire protocol stays byte-compatible
//! with the simulator's codec while the runtime can evolve freely.
//!
//! The digest pair deserves a note: `codec::WireMessage::Digest` carries no
//! slot (the synchronous simulator does not need one), but a real network
//! delivers out of order, so gossip uses [`Control::SlotDigest`] and a
//! receiver missing a neighbor's digest *pulls* it with
//! [`Control::DigestReq`] — the interest/nack-style recovery DLedger uses
//! over lossy IoT transports.

use crate::metrics::NetStats;
use crate::NetError;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
use tldag_core::codec::{CodecError, Reader};
use tldag_crypto::Digest;
use tldag_sim::NodeId;

const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_SLOT_DIGEST: u8 = 0x03;
const TAG_DIGEST_REQ: u8 = 0x04;
const TAG_REPORT: u8 = 0x05;
const TAG_REPORT_ACK: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
const TAG_SLOT_DONE: u8 = 0x08;
const TAG_JOIN_REQ: u8 = 0x09;
const TAG_JOIN_ACK: u8 = 0x0a;
const TAG_ROSTER_ENTRY: u8 = 0x0b;
const TAG_JOIN_ANNOUNCE: u8 = 0x0c;
const TAG_LEAVE: u8 = 0x0d;

const ADDR_V4: u8 = 4;
const ADDR_V6: u8 = 6;

/// One member's lifecycle as shipped in the join handshake's roster
/// transfer ([`Control::RosterEntry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireMember {
    /// The member id.
    pub id: NodeId,
    /// First slot the member generates in.
    pub join_slot: u64,
    /// First slot the member no longer generates in, if it left.
    pub leave_slot: Option<u64>,
    /// Whether the departure was a liveness eviction.
    pub evicted: bool,
    /// The member's endpoint, when the sender knows it.
    pub addr: Option<SocketAddr>,
}

fn encode_addr(out: &mut Vec<u8>, addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) => {
            out.push(ADDR_V4);
            out.extend_from_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            out.push(ADDR_V6);
            out.extend_from_slice(&ip.octets());
        }
    }
    out.extend_from_slice(&addr.port().to_be_bytes());
}

fn decode_addr(r: &mut Reader<'_>) -> Result<SocketAddr, NetError> {
    let ip: IpAddr = match r.u8().map_err(framing)? {
        ADDR_V4 => {
            let o = r.take(4).map_err(framing)?;
            IpAddr::V4(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
        }
        ADDR_V6 => {
            let o = r.take(16).map_err(framing)?;
            let mut bytes = [0u8; 16];
            bytes.copy_from_slice(o);
            IpAddr::V6(Ipv6Addr::from(bytes))
        }
        other => return Err(NetError::BadAddressFamily(other)),
    };
    let port_hi = r.u8().map_err(framing)?;
    let port_lo = r.u8().map_err(framing)?;
    Ok(SocketAddr::new(ip, u16::from_be_bytes([port_hi, port_lo])))
}

/// A node's end-of-run summary, shipped to the harness controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Reporting node.
    pub node: NodeId,
    /// Slots the node executed.
    pub slots: u64,
    /// Final chain length.
    pub chain_len: u64,
    /// `sha256` over the chain's header digests in sequence order — the
    /// same quantity as `TldagNetwork::chain_digest`.
    pub chain_digest: Digest,
    /// PoP verifications attempted.
    pub pop_attempts: u64,
    /// PoP verifications that reached consensus.
    pub pop_successes: u64,
    /// Milliseconds the join handshake + announcement took (0 for
    /// founders) — the catch-up latency a late joiner paid before its
    /// first slot.
    pub catch_up_ms: u64,
    /// Milliseconds the slot loop proper ran — first generation through
    /// the last verification, excluding the hello/join bootstrap and the
    /// serving linger — the denominator for throughput comparisons
    /// across epoch windows.
    pub slot_loop_ms: u64,
    /// True when any slot barrier timed out and the node proceeded with an
    /// incomplete digest set (parity with the reference engine is then off).
    pub degraded: bool,
    /// The node's final transport counters, merged by the harness into the
    /// cluster-wide view.
    pub net: NetStats,
    /// The resolved metrics listener address, when one was serving. With
    /// `--metrics-addr` on port 0 this is the only place the harness can
    /// learn the kernel-assigned port from.
    pub metrics_addr: Option<SocketAddr>,
}

/// A runtime control message.
///
/// `Report` dwarfs the other variants, but it travels exactly once per run
/// on the report handshake — boxing it would complicate every codec site
/// for no hot-path win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Liveness probe: "node `from` is up at this address".
    Hello {
        /// The probing node.
        from: NodeId,
    },
    /// Answer to [`Control::Hello`].
    HelloAck {
        /// The responding node.
        from: NodeId,
    },
    /// Digest gossip: the sender's block digest for `slot`.
    SlotDigest {
        /// Slot the digest's block was generated in.
        slot: u64,
        /// `H(b^h)` of that block.
        digest: Digest,
    },
    /// Pull request: "re-send me your [`Control::SlotDigest`] for `slot`".
    DigestReq {
        /// The missing slot.
        slot: u64,
    },
    /// Phase lockstep (PoP mode): the sender finished `slot` entirely —
    /// generation *and* its verification workload. Peers gate the next
    /// slot's generation on everyone's `SlotDone`, reproducing the
    /// engine's generate-then-verify phase barrier across processes.
    SlotDone {
        /// The completed slot.
        slot: u64,
    },
    /// End-of-run summary for the cluster harness.
    Report(RunReport),
    /// Controller acknowledgement of a [`Control::Report`].
    ReportAck,
    /// Controller request to exit the serving grace period and terminate.
    Shutdown,
    /// Join handshake step 1: "I want to join the cluster; send me the
    /// roster". Sent by a `--join` process to its bootstrap peer.
    JoinReq {
        /// The prospective member.
        from: NodeId,
    },
    /// Join handshake step 2: the responder's current slot and how many
    /// [`Control::RosterEntry`] messages follow. The joiner re-sends
    /// [`Control::JoinReq`] until it holds all `members` entries, so a
    /// lost entry costs one round trip, never the handshake.
    JoinAck {
        /// The responding member.
        from: NodeId,
        /// The responder's next slot to execute (the joiner's progress
        /// reference for catch-up).
        slot: u64,
        /// Roster entries in flight after this ack.
        members: u32,
    },
    /// Join handshake step 3 (repeated): one member's lifecycle entry.
    RosterEntry(WireMember),
    /// Membership delta: `id` starts generating at `slot`, reachable at
    /// `addr`. Broadcast by the joiner after its handshake and re-gossiped
    /// once by every peer that learns something new from it, so the
    /// roster converges even when the direct announcement is lost.
    JoinAnnounce {
        /// The joining node.
        id: NodeId,
        /// Its first generation slot.
        slot: u64,
        /// Its endpoint address (explicit, so forwarded copies keep it).
        addr: SocketAddr,
    },
    /// Membership delta: `node` stops generating at `slot`. Sent by the
    /// leaver itself on a graceful departure, or by a peer gossiping a
    /// leave/eviction it learned of.
    Leave {
        /// The departing node (not necessarily the sender).
        node: NodeId,
        /// The first slot it no longer generates in.
        slot: u64,
    },
}

/// Encodes a control message.
pub fn encode_control(msg: &Control) -> Vec<u8> {
    match msg {
        Control::Hello { from } => {
            let mut out = vec![TAG_HELLO];
            out.extend_from_slice(&from.0.to_be_bytes());
            out
        }
        Control::HelloAck { from } => {
            let mut out = vec![TAG_HELLO_ACK];
            out.extend_from_slice(&from.0.to_be_bytes());
            out
        }
        Control::SlotDigest { slot, digest } => {
            let mut out = vec![TAG_SLOT_DIGEST];
            out.extend_from_slice(&slot.to_be_bytes());
            out.extend_from_slice(digest.as_bytes());
            out
        }
        Control::DigestReq { slot } => {
            let mut out = vec![TAG_DIGEST_REQ];
            out.extend_from_slice(&slot.to_be_bytes());
            out
        }
        Control::SlotDone { slot } => {
            let mut out = vec![TAG_SLOT_DONE];
            out.extend_from_slice(&slot.to_be_bytes());
            out
        }
        Control::Report(r) => {
            let mut out = vec![TAG_REPORT];
            out.extend_from_slice(&r.node.0.to_be_bytes());
            out.extend_from_slice(&r.slots.to_be_bytes());
            out.extend_from_slice(&r.chain_len.to_be_bytes());
            out.extend_from_slice(r.chain_digest.as_bytes());
            out.extend_from_slice(&r.pop_attempts.to_be_bytes());
            out.extend_from_slice(&r.pop_successes.to_be_bytes());
            out.extend_from_slice(&r.catch_up_ms.to_be_bytes());
            out.extend_from_slice(&r.slot_loop_ms.to_be_bytes());
            out.push(u8::from(r.degraded));
            for (_, value) in r.net.fields() {
                out.extend_from_slice(&value.to_be_bytes());
            }
            match r.metrics_addr {
                Some(addr) => {
                    out.push(1);
                    encode_addr(&mut out, addr);
                }
                None => out.push(0),
            }
            out
        }
        Control::ReportAck => vec![TAG_REPORT_ACK],
        Control::Shutdown => vec![TAG_SHUTDOWN],
        Control::JoinReq { from } => {
            let mut out = vec![TAG_JOIN_REQ];
            out.extend_from_slice(&from.0.to_be_bytes());
            out
        }
        Control::JoinAck {
            from,
            slot,
            members,
        } => {
            let mut out = vec![TAG_JOIN_ACK];
            out.extend_from_slice(&from.0.to_be_bytes());
            out.extend_from_slice(&slot.to_be_bytes());
            out.extend_from_slice(&members.to_be_bytes());
            out
        }
        Control::RosterEntry(m) => {
            let mut out = vec![TAG_ROSTER_ENTRY];
            out.extend_from_slice(&m.id.0.to_be_bytes());
            out.extend_from_slice(&m.join_slot.to_be_bytes());
            let mut flags = 0u8;
            if m.leave_slot.is_some() {
                flags |= 1;
            }
            if m.evicted {
                flags |= 2;
            }
            if m.addr.is_some() {
                flags |= 4;
            }
            out.push(flags);
            if let Some(leave) = m.leave_slot {
                out.extend_from_slice(&leave.to_be_bytes());
            }
            if let Some(addr) = m.addr {
                encode_addr(&mut out, addr);
            }
            out
        }
        Control::JoinAnnounce { id, slot, addr } => {
            let mut out = vec![TAG_JOIN_ANNOUNCE];
            out.extend_from_slice(&id.0.to_be_bytes());
            out.extend_from_slice(&slot.to_be_bytes());
            encode_addr(&mut out, *addr);
            out
        }
        Control::Leave { node, slot } => {
            let mut out = vec![TAG_LEAVE];
            out.extend_from_slice(&node.0.to_be_bytes());
            out.extend_from_slice(&slot.to_be_bytes());
            out
        }
    }
}

/// Maps the shared reader's codec errors onto wire-layer errors.
fn framing(e: CodecError) -> NetError {
    match e {
        CodecError::TrailingBytes => NetError::LengthMismatch,
        _ => NetError::Truncated,
    }
}

/// Decodes a control message.
///
/// # Errors
///
/// [`NetError::Truncated`] / [`NetError::LengthMismatch`] on framing
/// violations, [`NetError::BadControlTag`] on an unknown tag.
pub fn decode_control(data: &[u8]) -> Result<Control, NetError> {
    let mut r = Reader::new(data);
    let tag = r.u8().map_err(framing)?;
    let msg = match tag {
        TAG_HELLO => Control::Hello {
            from: NodeId(r.u32().map_err(framing)?),
        },
        TAG_HELLO_ACK => Control::HelloAck {
            from: NodeId(r.u32().map_err(framing)?),
        },
        TAG_SLOT_DIGEST => Control::SlotDigest {
            slot: r.u64().map_err(framing)?,
            digest: r.digest().map_err(framing)?,
        },
        TAG_DIGEST_REQ => Control::DigestReq {
            slot: r.u64().map_err(framing)?,
        },
        TAG_SLOT_DONE => Control::SlotDone {
            slot: r.u64().map_err(framing)?,
        },
        TAG_REPORT => Control::Report(RunReport {
            node: NodeId(r.u32().map_err(framing)?),
            slots: r.u64().map_err(framing)?,
            chain_len: r.u64().map_err(framing)?,
            chain_digest: r.digest().map_err(framing)?,
            pop_attempts: r.u64().map_err(framing)?,
            pop_successes: r.u64().map_err(framing)?,
            catch_up_ms: r.u64().map_err(framing)?,
            slot_loop_ms: r.u64().map_err(framing)?,
            degraded: r.u8().map_err(framing)? != 0,
            net: NetStats::try_from_values(|| r.u64()).map_err(framing)?,
            metrics_addr: if r.u8().map_err(framing)? != 0 {
                Some(decode_addr(&mut r)?)
            } else {
                None
            },
        }),
        TAG_REPORT_ACK => Control::ReportAck,
        TAG_SHUTDOWN => Control::Shutdown,
        TAG_JOIN_REQ => Control::JoinReq {
            from: NodeId(r.u32().map_err(framing)?),
        },
        TAG_JOIN_ACK => Control::JoinAck {
            from: NodeId(r.u32().map_err(framing)?),
            slot: r.u64().map_err(framing)?,
            members: r.u32().map_err(framing)?,
        },
        TAG_ROSTER_ENTRY => {
            let id = NodeId(r.u32().map_err(framing)?);
            let join_slot = r.u64().map_err(framing)?;
            let flags = r.u8().map_err(framing)?;
            let leave_slot = if flags & 1 != 0 {
                Some(r.u64().map_err(framing)?)
            } else {
                None
            };
            let addr = if flags & 4 != 0 {
                Some(decode_addr(&mut r)?)
            } else {
                None
            };
            Control::RosterEntry(WireMember {
                id,
                join_slot,
                leave_slot,
                evicted: flags & 2 != 0,
                addr,
            })
        }
        TAG_JOIN_ANNOUNCE => Control::JoinAnnounce {
            id: NodeId(r.u32().map_err(framing)?),
            slot: r.u64().map_err(framing)?,
            addr: decode_addr(&mut r)?,
        },
        TAG_LEAVE => Control::Leave {
            node: NodeId(r.u32().map_err(framing)?),
            slot: r.u64().map_err(framing)?,
        },
        other => return Err(NetError::BadControlTag(other)),
    };
    r.finish().map_err(framing)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> Vec<Control> {
        vec![
            Control::Hello { from: NodeId(3) },
            Control::HelloAck { from: NodeId(4) },
            Control::SlotDigest {
                slot: 17,
                digest: Digest::from_bytes([9; 32]),
            },
            Control::DigestReq { slot: 17 },
            Control::SlotDone { slot: 17 },
            Control::Report(RunReport {
                node: NodeId(2),
                slots: 8,
                chain_len: 8,
                chain_digest: Digest::from_bytes([7; 32]),
                pop_attempts: 5,
                pop_successes: 5,
                catch_up_ms: 12,
                slot_loop_ms: 480,
                degraded: false,
                net: NetStats {
                    datagrams_sent: 41,
                    bytes_received: 9001,
                    request_retries: 3,
                    evictions: 1,
                    ..NetStats::default()
                },
                metrics_addr: None,
            }),
            Control::Report(RunReport {
                node: NodeId(3),
                slots: 8,
                chain_len: 8,
                chain_digest: Digest::from_bytes([8; 32]),
                pop_attempts: 0,
                pop_successes: 0,
                catch_up_ms: 0,
                slot_loop_ms: 120,
                degraded: true,
                net: NetStats::default(),
                metrics_addr: Some("127.0.0.1:43211".parse().unwrap()),
            }),
            Control::ReportAck,
            Control::Shutdown,
            Control::JoinReq { from: NodeId(9) },
            Control::JoinAck {
                from: NodeId(1),
                slot: 12,
                members: 5,
            },
            Control::RosterEntry(WireMember {
                id: NodeId(4),
                join_slot: 3,
                leave_slot: None,
                evicted: false,
                addr: Some("127.0.0.1:9004".parse().unwrap()),
            }),
            Control::RosterEntry(WireMember {
                id: NodeId(1),
                join_slot: 0,
                leave_slot: Some(6),
                evicted: true,
                addr: None,
            }),
            Control::RosterEntry(WireMember {
                id: NodeId(2),
                join_slot: 0,
                leave_slot: Some(8),
                evicted: false,
                addr: Some("[::1]:9102".parse().unwrap()),
            }),
            Control::JoinAnnounce {
                id: NodeId(4),
                slot: 3,
                addr: "127.0.0.1:9004".parse().unwrap(),
            },
            Control::Leave {
                node: NodeId(1),
                slot: 6,
            },
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for msg in variants() {
            let decoded = decode_control(&encode_control(&msg)).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        for msg in variants() {
            let encoded = encode_control(&msg);
            for len in 0..encoded.len() {
                assert!(decode_control(&encoded[..len]).is_err(), "prefix {len}");
            }
            let mut padded = encoded;
            padded.push(0);
            assert_eq!(decode_control(&padded), Err(NetError::LengthMismatch));
        }
    }

    /// A report's exact bytes, with a distinct value in every `NetStats`
    /// counter: the counters travel in `NetStats::fields` order.
    #[test]
    fn report_bytes_are_pinned() {
        let mut next = 0x0100u64;
        let net = NetStats::try_from_values(|| {
            next += 1;
            Ok::<u64, ()>(next)
        })
        .expect("infallible");
        let report = Control::Report(RunReport {
            node: NodeId(2),
            slots: 8,
            chain_len: 9,
            chain_digest: Digest::from_bytes([7; 32]),
            pop_attempts: 5,
            pop_successes: 4,
            catch_up_ms: 12,
            slot_loop_ms: 480,
            degraded: true,
            net,
            metrics_addr: Some("127.0.0.1:9100".parse().unwrap()),
        });
        let hex: String = encode_control(&report)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let golden = concat!(
            // tag, node, slots, chain_len
            "05",
            "00000002",
            "0000000000000008",
            "0000000000000009",
            // chain_digest
            "0707070707070707070707070707070707070707070707070707070707070707",
            // pop_attempts, pop_successes, catch_up_ms, slot_loop_ms, degraded
            "0000000000000005",
            "0000000000000004",
            "000000000000000c",
            "00000000000001e0",
            "01",
            // the 25 NetStats counters, 0x101..=0x119 in fields() order
            "0000000000000101",
            "0000000000000102",
            "0000000000000103",
            "0000000000000104",
            "0000000000000105",
            "0000000000000106",
            "0000000000000107",
            "0000000000000108",
            "0000000000000109",
            "000000000000010a",
            "000000000000010b",
            "000000000000010c",
            "000000000000010d",
            "000000000000010e",
            "000000000000010f",
            "0000000000000110",
            "0000000000000111",
            "0000000000000112",
            "0000000000000113",
            "0000000000000114",
            "0000000000000115",
            "0000000000000116",
            "0000000000000117",
            "0000000000000118",
            "0000000000000119",
            // metrics_addr: present, 127.0.0.1:9100
            "01047f000001238c",
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode_control(&[0xee]), Err(NetError::BadControlTag(0xee)));
        assert_eq!(decode_control(&[]), Err(NetError::Truncated));
    }
}
