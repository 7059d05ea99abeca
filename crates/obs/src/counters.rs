//! [`counters!`](crate::counters): one field list per counter struct, so
//! a new counter cannot be missed by `merge`, the exposition or a codec.

/// Declares a snapshot struct of counters and, after a leading
/// `live Name;`, its lock-free twin of `AtomicU64`s.
///
/// Every field type converts to and from `u64` and supports `+=`. The
/// snapshot gets `fields`, `try_from_values` and `merge`, all in field
/// order; the live struct gets `snapshot`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$ldoc:meta])* live $live:ident;
        $(#[$sdoc:meta])* pub struct $snap:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$ldoc])*
        #[derive(Debug, Default)]
        pub struct $live {
            $($(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64,)+
        }

        impl $live {
            /// A point-in-time copy of every counter (`Relaxed` loads).
            pub fn snapshot(&self) -> $snap {
                use ::std::sync::atomic::Ordering::Relaxed;
                $snap { $($field: <$ty>::from(self.$field.load(Relaxed)),)+ }
            }
        }

        $crate::counters! {
            $(#[$sdoc])* pub struct $snap { $($(#[$doc])* $field: $ty,)+ }
        }
    };
    (
        $(#[$sdoc:meta])* pub struct $snap:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$sdoc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $snap {
            $($(#[$doc])* pub $field: $ty,)+
        }

        impl $snap {
            /// Every counter as `(name, value)` pairs, in declaration
            /// order, for metric exposition and JSON output.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), u64::from(self.$field)),)+]
            }

            /// Rebuilds a snapshot by pulling one value per counter in the
            /// same declaration order as [`Self::fields`] (wire decoding).
            ///
            /// # Errors
            ///
            /// The first error `next` returns.
            pub fn try_from_values<E>(mut next: impl FnMut() -> Result<u64, E>) -> Result<Self, E> {
                Ok($snap { $($field: <$ty>::from(next()?),)+ })
            }

            /// Folds another snapshot into this one field by field.
            pub fn merge(&mut self, other: &$snap) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    /// A unit type, as `tldag_sim::Bits` is for the PoP counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Bytes(u64);

    impl From<u64> for Bytes {
        fn from(n: u64) -> Self {
            Bytes(n)
        }
    }

    impl From<Bytes> for u64 {
        fn from(b: Bytes) -> u64 {
            b.0
        }
    }

    impl std::ops::AddAssign for Bytes {
        fn add_assign(&mut self, rhs: Bytes) {
            self.0 += rhs.0;
        }
    }

    crate::counters! {
        /// Live counters.
        live Live;
        /// A copy of [`Live`].
        pub struct Snap {
            /// Sent.
            sent: u64,
            /// Received, as a unit type.
            received: Bytes,
        }
    }

    #[test]
    fn snapshot_merge_fields_and_values_follow_the_one_list() {
        let live = Live::default();
        live.sent.fetch_add(2, Ordering::Relaxed);
        live.received.fetch_add(5, Ordering::Relaxed);
        let mut snap = live.snapshot();
        assert_eq!(
            snap,
            Snap {
                sent: 2,
                received: Bytes(5)
            }
        );
        snap.merge(&Snap {
            sent: 1,
            received: Bytes(4),
        });
        assert_eq!(snap.fields(), vec![("sent", 3), ("received", 9)]);
        let mut values = [7u64, 8].into_iter();
        let read = Snap::try_from_values(|| values.next().ok_or(())).unwrap();
        assert_eq!(
            read,
            Snap {
                sent: 7,
                received: Bytes(8)
            }
        );
        let mut empty = std::iter::empty::<u64>();
        assert_eq!(
            Snap::try_from_values(|| empty.next().ok_or("short")),
            Err("short")
        );
    }
}
