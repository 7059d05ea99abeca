//! Value-generation strategies: ranges, `any`, and tuples.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => { $(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )* };
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! int_range_inclusive_strategy {
    ($($t:ty),*) => { $(
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty strategy range");
                let span = (*self.end() as i128 - *self.start() as i128) as u64;
                // A span covering the full u64 domain cannot be passed to
                // `below` (the bound would wrap to 0); it means "any value".
                let offset = if span == u64::MAX {
                    rng.next_u64()
                } else {
                    rng.below(span + 1)
                };
                (*self.start() as i128 + offset as i128) as $t
            }
        }
    )* };
}

int_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => { $(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )* };
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64() * 2e9 - 1e9
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = rng.next_u64() as u8;
        }
        out
    }
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T> {
    _marker: PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: PhantomData,
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => { $(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )* };
}

tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}
