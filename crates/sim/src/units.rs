//! Bit/byte units for the overhead model.
//!
//! The paper specifies every field size in bits (`f_H = f_s = 256`,
//! `f_v = f_t = f_n = 32`) and reports storage in MB and communication in
//! Mb. [`Bits`] keeps those conversions explicit so the accounting code can
//! never silently mix units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A quantity of information, stored in bits.
///
/// # Example
///
/// ```
/// use tldag_sim::Bits;
///
/// let header = Bits::from_bits(608) + Bits::from_bytes(32);
/// assert_eq!(header.bits(), 608 + 256);
/// assert!((Bits::from_megabytes_f(0.5).as_megabytes() - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bits(u64);

impl Bits {
    /// Zero bits.
    pub const ZERO: Bits = Bits(0);

    /// Constructs from a bit count.
    pub const fn from_bits(bits: u64) -> Self {
        Bits(bits)
    }

    /// Constructs from a byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        Bits(bytes * 8)
    }

    /// Constructs from kilobytes (10³ bytes, as in the paper's plots).
    pub const fn from_kilobytes(kb: u64) -> Self {
        Bits(kb * 8_000)
    }

    /// Constructs from megabytes (10⁶ bytes).
    pub const fn from_megabytes(mb: u64) -> Self {
        Bits(mb * 8_000_000)
    }

    /// Constructs from a fractional megabyte count (e.g. the paper's
    /// `C = 0.1 MB`). Rounds to the nearest bit.
    pub fn from_megabytes_f(mb: f64) -> Self {
        Bits((mb * 8_000_000.0).round() as u64)
    }

    /// Raw bit count.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Bytes, rounding up partial bytes.
    pub const fn bytes_ceil(self) -> u64 {
        self.0.div_ceil(8)
    }

    /// Value in megabytes (10⁶ bytes), as used for storage plots.
    pub fn as_megabytes(self) -> f64 {
        self.0 as f64 / 8_000_000.0
    }

    /// Value in megabits (10⁶ bits), as used for communication plots.
    pub fn as_megabits(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Bits) -> Bits {
        Bits(self.0.saturating_sub(rhs.0))
    }
}

/// The raw bit count, as a counter value (`PopMetrics::fields`).
impl From<Bits> for u64 {
    fn from(bits: Bits) -> u64 {
        bits.0
    }
}

/// A raw bit count read back as [`Bits`] (`PopMetrics::try_from_values`).
impl From<u64> for Bits {
    fn from(bits: u64) -> Bits {
        Bits(bits)
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

impl AddAssign for Bits {
    fn add_assign(&mut self, rhs: Bits) {
        self.0 += rhs.0;
    }
}

impl Sub for Bits {
    type Output = Bits;
    fn sub(self, rhs: Bits) -> Bits {
        Bits(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bits {
    type Output = Bits;
    fn mul(self, rhs: u64) -> Bits {
        Bits(self.0 * rhs)
    }
}

impl Sum for Bits {
    fn sum<I: Iterator<Item = Bits>>(iter: I) -> Bits {
        Bits(iter.map(|b| b.0).sum())
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits({})", self.0)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 8_000_000 {
            write!(f, "{:.3} MB", self.as_megabytes())
        } else if self.0 >= 8_000 {
            write!(f, "{:.3} kB", self.0 as f64 / 8_000.0)
        } else {
            write!(f, "{} b", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_agree() {
        assert_eq!(Bits::from_bytes(1).bits(), 8);
        assert_eq!(Bits::from_kilobytes(1).bits(), 8_000);
        assert_eq!(Bits::from_megabytes(1).bits(), 8_000_000);
        assert_eq!(Bits::from_megabytes_f(0.5), Bits::from_bits(4_000_000));
    }

    #[test]
    fn arithmetic() {
        let a = Bits::from_bits(100);
        let b = Bits::from_bits(28);
        assert_eq!((a + b).bits(), 128);
        assert_eq!((a - b).bits(), 72);
        assert_eq!((a * 3).bits(), 300);
        assert_eq!(a.saturating_sub(Bits::from_bits(1000)), Bits::ZERO);
        let total: Bits = [a, b].into_iter().sum();
        assert_eq!(total.bits(), 128);
    }

    #[test]
    fn bytes_ceil_rounds_up() {
        assert_eq!(Bits::from_bits(1).bytes_ceil(), 1);
        assert_eq!(Bits::from_bits(8).bytes_ceil(), 1);
        assert_eq!(Bits::from_bits(9).bytes_ceil(), 2);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Bits::from_bits(12).to_string(), "12 b");
        assert_eq!(Bits::from_megabytes(2).to_string(), "2.000 MB");
    }
}
