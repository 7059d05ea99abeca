//! 256-bit digest type shared by every hash-bearing structure in the workspace.

use crate::hex;
use std::fmt;
use std::str::FromStr;

/// Number of bytes in a [`Digest`].
pub(crate) const DIGEST_LEN: usize = 32;

/// A 256-bit digest (the output of [`crate::sha256`]).
///
/// `Digest` is the unit of linkage in 2LDAG: block headers reference their
/// parents by digest, the `Root` field is a Merkle-root digest, and the
/// difficulty puzzle compares a digest against a target. It is a plain value
/// type — `Copy`, ordered bytewise, hashable, and displayed as lowercase hex.
///
/// # Example
///
/// ```
/// use tldag_crypto::Digest;
///
/// let d = Digest::from_bytes([0xab; 32]);
/// assert_eq!(d.to_string().len(), 64);
/// assert_eq!(d, d.to_string().parse::<Digest>().unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest([u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest. Used as the "previous block" reference of genesis
    /// blocks and as a sentinel in tests.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Creates a digest from raw bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Returns the raw bytes of the digest.
    pub const fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Consumes the digest, returning the underlying byte array.
    pub const fn into_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Returns `true` if this is the all-zero digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; DIGEST_LEN]
    }

    /// Number of leading zero bits, used by the difficulty puzzle
    /// (`H(...) ≤ ρ` in Eq. 5 of the paper).
    pub(crate) fn leading_zero_bits(&self) -> u32 {
        let mut count = 0u32;
        for &byte in &self.0 {
            if byte == 0 {
                count += 8;
            } else {
                count += byte.leading_zeros();
                break;
            }
        }
        count
    }

    /// Interprets the first eight bytes as a big-endian `u64`. Handy for
    /// deriving deterministic pseudo-random streams from digests.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }

    /// Returns a digest with one bit flipped; used by fault injection to model
    /// corrupted hashes in transit.
    #[must_use]
    pub fn corrupted(&self) -> Digest {
        let mut bytes = self.0;
        bytes[0] ^= 0x01;
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

impl From<Digest> for [u8; DIGEST_LEN] {
    fn from(d: Digest) -> Self {
        d.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::to_hex(&self.0))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &hex::to_hex(&self.0[..4]))
    }
}

impl fmt::LowerHex for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::to_hex(&self.0))
    }
}

/// Error returned when parsing a [`Digest`] from a hex string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDigestError {
    kind: ParseDigestErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseDigestErrorKind {
    Length(usize),
    InvalidHex,
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseDigestErrorKind::Length(n) => {
                write!(f, "expected 64 hex characters, found {n}")
            }
            ParseDigestErrorKind::InvalidHex => write!(f, "invalid hex character"),
        }
    }
}

impl std::error::Error for ParseDigestError {}

impl FromStr for Digest {
    type Err = ParseDigestError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != DIGEST_LEN * 2 {
            return Err(ParseDigestError {
                kind: ParseDigestErrorKind::Length(s.len()),
            });
        }
        let bytes = hex::from_hex(s).ok_or(ParseDigestError {
            kind: ParseDigestErrorKind::InvalidHex,
        })?;
        let arr: [u8; DIGEST_LEN] = bytes.try_into().map_err(|_| ParseDigestError {
            kind: ParseDigestErrorKind::InvalidHex,
        })?;
        Ok(Digest(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_digest_is_zero() {
        assert!(Digest::ZERO.is_zero());
        assert!(!Digest::from_bytes([1; 32]).is_zero());
    }

    #[test]
    fn leading_zero_bits_counts_correctly() {
        assert_eq!(Digest::ZERO.leading_zero_bits(), 256);
        let mut b = [0u8; 32];
        b[0] = 0x80;
        assert_eq!(Digest::from_bytes(b).leading_zero_bits(), 0);
        b[0] = 0x01;
        assert_eq!(Digest::from_bytes(b).leading_zero_bits(), 7);
        b[0] = 0x00;
        b[1] = 0x40;
        assert_eq!(Digest::from_bytes(b).leading_zero_bits(), 9);
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let d = Digest::from_bytes([0x5a; 32]);
        let s = d.to_string();
        assert_eq!(s.parse::<Digest>().unwrap(), d);
    }

    #[test]
    fn parse_rejects_bad_length_and_bad_chars() {
        assert!("abcd".parse::<Digest>().is_err());
        let bad = "zz".repeat(32);
        assert!(bad.parse::<Digest>().is_err());
    }

    #[test]
    fn corrupted_differs_in_exactly_one_bit() {
        let d = Digest::from_bytes([0x77; 32]);
        let c = d.corrupted();
        assert_ne!(d, c);
        let diff: u32 = d
            .as_bytes()
            .iter()
            .zip(c.as_bytes())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(Digest::from_bytes(b).prefix_u64(), 1);
    }

    #[test]
    fn ordering_is_bytewise() {
        let lo = Digest::from_bytes([0u8; 32]);
        let mut hi_bytes = [0u8; 32];
        hi_bytes[0] = 1;
        let hi = Digest::from_bytes(hi_bytes);
        assert!(lo < hi);
    }
}
