//! Protocol configuration: field sizes, puzzle difficulty, consensus margin.
//!
//! All sizes follow Sec. VI of the paper: `f_H = f_s = 256` bits,
//! `f_v = f_t = f_n = 32` bits, and a body of `C` bits. Eq. (3) defines the
//! constant header cost `f_c = f_v + f_t + f_H + f_n + f_s`; Eq. (2) gives the
//! full block size `f_i = f_c + f_H (|Δ_i|) + C` where `|Δ_i|` is the number
//! of entries in the Digests field (up to `|N(i)| + 1`).

use tldag_sim::Bits;

/// How the validator picks the next responder (ablation knob; the paper's
/// protocol uses [`PathSelection::Weighted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathSelection {
    /// Weighted Path Selection (Algorithm 1).
    #[default]
    Weighted,
    /// Uniformly random untried neighbor — the baseline WPS is compared
    /// against in the `ablation_wps` experiment.
    Random,
}

/// Configuration of the blacklist penalty mechanism (Sec. IV-D.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlacklistConfig {
    /// Consecutive failures (timeout or invalid reply) before a peer is banned.
    pub ban_after_failures: u32,
    /// Number of valid digests a banned peer must deliver ("help transmit a
    /// certain number of blocks") before it is paroled.
    pub parole_after_services: u32,
}

impl Default for BlacklistConfig {
    fn default() -> Self {
        BlacklistConfig {
            ban_after_failures: 1,
            parole_after_services: 16,
        }
    }
}

/// 2LDAG protocol parameters.
///
/// # Example
///
/// ```
/// use tldag_core::config::ProtocolConfig;
///
/// let cfg = ProtocolConfig::paper_default();
/// assert_eq!(cfg.const_header_bits(), 608); // f_v+f_t+f_H+f_n+f_s
/// // A node with 3 neighbors stores 4 digest entries (Fig. 2):
/// assert_eq!(cfg.header_bits(4).bits(), 608 + 4 * 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// Protocol version recorded in every header.
    pub version: u32,
    /// Version field size in bits (`f_v`).
    pub f_v: u64,
    /// Time field size in bits (`f_t`).
    pub f_t: u64,
    /// Hash/digest size in bits (`f_H`).
    pub f_h: u64,
    /// Nonce field size in bits (`f_n`).
    pub f_n: u64,
    /// Signature field size in bits (`f_s`).
    pub f_s: u64,
    /// Block body size in bits (`C`).
    pub body_bits: u64,
    /// Difficulty of the generation puzzle in leading zero bits (Eq. 5). The
    /// paper tunes `ρ` so a block takes seconds; simulations use small values
    /// so the *mechanism* (rate limiting, DoS detection) is preserved while
    /// tests stay fast.
    pub difficulty_bits: u8,
    /// Tolerable number of malicious nodes `γ`; consensus needs `γ + 1`
    /// distinct nodes on the proof path.
    pub gamma: usize,
    /// Bytes per Merkle leaf when chunking a block body.
    pub merkle_chunk_bytes: usize,
    /// Framing overhead in bits added to every PoP message (type tag + ids).
    pub framing_bits: u64,
    /// Next-responder selection strategy (ablation knob).
    pub path_selection: PathSelection,
    /// When true, PoP traffic is accounted along shortest physical paths
    /// (every relay hop pays tx + rx) instead of endpoint-to-endpoint. This
    /// models the paper's Sec. VII observation that header transfers cross
    /// the physical network; comparing both modes quantifies what the
    /// proposed shortest-path routing would save.
    pub multihop_accounting: bool,
    /// Whether Trust Path Selection (Algorithm 2) uses the header cache.
    /// Disabling isolates TPS's contribution (ablation knob).
    pub enable_tps: bool,
    /// Hard budget of `REQ_CHILD` messages per PoP run. Algorithm 3 bounds
    /// its own message count on benign runs (Prop. 6), but a large adversary
    /// population can force long rollback cascades; real deployments stop
    /// paying after a deadline. Exceeding the budget aborts the run with
    /// `PathExhausted`.
    pub max_requests: u64,
    /// Blacklist penalty parameters.
    pub blacklist: BlacklistConfig,
}

impl ProtocolConfig {
    /// The paper's evaluation parameters with `C = 0.5` MB and `γ = 16`
    /// (one-third of 50 nodes, the PBFT-equivalent tolerance).
    pub fn paper_default() -> Self {
        ProtocolConfig {
            version: 1,
            f_v: 32,
            f_t: 32,
            f_h: 256,
            f_n: 32,
            f_s: 256,
            body_bits: Bits::from_megabytes_f(0.5).bits(),
            difficulty_bits: 8,
            gamma: 16,
            merkle_chunk_bytes: 64,
            framing_bits: 64,
            path_selection: PathSelection::Weighted,
            multihop_accounting: false,
            enable_tps: true,
            max_requests: 5_000,
            blacklist: BlacklistConfig::default(),
        }
    }

    /// A configuration for fast unit tests: tiny body, no puzzle work.
    pub fn test_default() -> Self {
        ProtocolConfig {
            body_bits: Bits::from_bytes(256).bits(),
            difficulty_bits: 0,
            gamma: 2,
            ..Self::paper_default()
        }
    }

    /// Sets the body size `C`.
    #[must_use]
    pub fn with_body_bits(mut self, bits: u64) -> Self {
        self.body_bits = bits;
        self
    }

    /// Sets the consensus margin `γ`.
    #[must_use]
    pub fn with_gamma(mut self, gamma: usize) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the puzzle difficulty.
    #[must_use]
    pub fn with_difficulty(mut self, bits: u8) -> Self {
        self.difficulty_bits = bits;
        self
    }

    /// The constant header cost `f_c` of Eq. (3), in bits.
    pub fn const_header_bits(&self) -> u64 {
        self.f_v + self.f_t + self.f_h + self.f_n + self.f_s
    }

    /// Logical header size for a header carrying `digest_entries` digests
    /// (Eq. (2) without the body term).
    pub fn header_bits(&self, digest_entries: usize) -> Bits {
        Bits::from_bits(self.const_header_bits() + self.f_h * digest_entries as u64)
    }

    /// Logical size of a full data block (Eq. (2)).
    pub fn block_bits(&self, digest_entries: usize) -> Bits {
        self.header_bits(digest_entries) + Bits::from_bits(self.body_bits)
    }

    /// Size of a digest broadcast message (one hash on the wire).
    pub fn digest_message_bits(&self) -> Bits {
        Bits::from_bits(self.f_h + self.framing_bits)
    }

    /// Size of a `REQ_CHILD` message (carries `H(b^h_v)`).
    pub fn req_child_bits(&self) -> Bits {
        Bits::from_bits(self.f_h + self.framing_bits)
    }

    /// Size of a `RPY_CHILD` message carrying a header with
    /// `digest_entries` digests.
    pub fn rpy_child_bits(&self, digest_entries: usize) -> Bits {
        self.header_bits(digest_entries) + Bits::from_bits(self.framing_bits)
    }

    /// Size of a cooperative "no child stored" reply (a NACK).
    pub fn nack_bits(&self) -> Bits {
        Bits::from_bits(self.framing_bits)
    }

    /// Size of a block-fetch request.
    pub fn fetch_request_bits(&self) -> Bits {
        Bits::from_bits(self.f_h + self.framing_bits)
    }

    /// Size of a block-fetch response (full block).
    pub fn block_response_bits(&self, digest_entries: usize) -> Bits {
        self.block_bits(digest_entries) + Bits::from_bits(self.framing_bits)
    }

    /// Consensus threshold: number of distinct path nodes required,
    /// `γ + 1`.
    pub fn consensus_threshold(&self) -> usize {
        self.gamma + 1
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_match_fig2() {
        let cfg = ProtocolConfig::paper_default();
        // Fig. 2: Version/Time/Nonce 32 bits, Root/Signature 256 bits.
        assert_eq!(cfg.f_v, 32);
        assert_eq!(cfg.f_t, 32);
        assert_eq!(cfg.f_n, 32);
        assert_eq!(cfg.f_h, 256);
        assert_eq!(cfg.f_s, 256);
        assert_eq!(cfg.const_header_bits(), 608);
    }

    #[test]
    fn block_size_follows_eq2() {
        let cfg = ProtocolConfig::paper_default().with_body_bits(8_000_000);
        // n = 3 neighbors → n + 1 = 4 digest entries.
        let expect = 608 + 256 * 4 + 8_000_000;
        assert_eq!(cfg.block_bits(4).bits(), expect);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = ProtocolConfig::paper_default()
            .with_gamma(24)
            .with_difficulty(4)
            .with_body_bits(100);
        assert_eq!(cfg.gamma, 24);
        assert_eq!(cfg.consensus_threshold(), 25);
        assert_eq!(cfg.difficulty_bits, 4);
        assert_eq!(cfg.body_bits, 100);
    }

    #[test]
    fn message_sizes_scale_with_digest_entries() {
        let cfg = ProtocolConfig::paper_default();
        assert!(cfg.rpy_child_bits(5) > cfg.rpy_child_bits(2));
        assert_eq!(cfg.req_child_bits(), cfg.digest_message_bits());
        assert!(cfg.block_response_bits(2).bits() > cfg.body_bits);
    }
}
