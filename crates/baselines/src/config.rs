//! Shared configuration for the baseline ledgers.
//!
//! Block sizes reuse the paper's field model (`f_H = f_s = 256`,
//! `f_v = f_t = f_n = 32`, body `C`) so storage/communication numbers are
//! directly comparable with 2LDAG's.

use tldag_sim::Bits;

/// Configuration shared by the PBFT and IOTA baselines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineConfig {
    /// Block/transaction body size `C` in bits.
    pub(crate) body_bits: u64,
    /// Hash size in bits (`f_H`).
    pub(crate) f_h: u64,
    /// Signature size in bits (`f_s`).
    pub(crate) f_s: u64,
    /// Constant header overhead in bits (version + time + nonce, etc.).
    pub(crate) header_const_bits: u64,
    /// Framing overhead per message in bits.
    pub(crate) framing_bits: u64,
    /// Number of parents an IOTA transaction approves.
    pub(crate) iota_parents: usize,
}

impl BaselineConfig {
    /// The paper's evaluation parameters with `C = 0.5` MB.
    pub fn paper_default() -> Self {
        BaselineConfig {
            body_bits: Bits::from_megabytes_f(0.5).bits(),
            f_h: 256,
            f_s: 256,
            header_const_bits: 96, // version + time + nonce, as in Fig. 2
            framing_bits: 64,
            iota_parents: 2,
        }
    }

    /// Tiny bodies for fast unit tests.
    pub fn test_default() -> Self {
        BaselineConfig {
            body_bits: Bits::from_bytes(256).bits(),
            ..Self::paper_default()
        }
    }

    /// Sets the body size `C`.
    #[must_use]
    pub fn with_body_bits(mut self, bits: u64) -> Self {
        self.body_bits = bits;
        self
    }

    /// Size of a full block/transaction on the wire or on disk:
    /// constant header + root hash + signature + body.
    pub fn block_bits(&self) -> Bits {
        Bits::from_bits(self.header_const_bits + self.f_h + self.f_s + self.body_bits)
    }

    /// Size of a PBFT `PRE-PREPARE` (carries the full block).
    pub(crate) fn pre_prepare_bits(&self) -> Bits {
        self.block_bits() + Bits::from_bits(self.framing_bits)
    }

    /// Size of a PBFT `PREPARE`/`COMMIT` vote (digest + signature).
    pub(crate) fn vote_bits(&self) -> Bits {
        Bits::from_bits(self.f_h + self.f_s + self.framing_bits)
    }

    /// Size of an IOTA transaction on the wire: block + two parent hashes.
    pub(crate) fn iota_tx_bits(&self) -> Bits {
        self.block_bits() + Bits::from_bits(self.f_h * self.iota_parents as u64 + self.framing_bits)
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_scales_with_body() {
        let small = BaselineConfig::paper_default().with_body_bits(1_000);
        let large = BaselineConfig::paper_default().with_body_bits(8_000_000);
        assert!(large.block_bits() > small.block_bits());
        assert_eq!(
            large.block_bits().bits() - small.block_bits().bits(),
            8_000_000 - 1_000
        );
    }

    #[test]
    fn votes_are_much_smaller_than_blocks() {
        let cfg = BaselineConfig::paper_default();
        assert!(cfg.vote_bits().bits() * 100 < cfg.pre_prepare_bits().bits());
    }

    #[test]
    fn iota_tx_adds_parent_references() {
        let cfg = BaselineConfig::paper_default();
        assert_eq!(
            cfg.iota_tx_bits().bits(),
            cfg.block_bits().bits() + 2 * 256 + 64
        );
    }
}
