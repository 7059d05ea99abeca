//! Schnorr signatures over a 64-bit safe-prime group (simulation-grade).
//!
//! The 2LDAG paper assumes each node holds a public/private key pair and signs
//! block headers with a "low complexity encryption scheme" (Sec. III-B, Eq. 6).
//! The protocol only needs (1) public verifiability and (2) unforgeability
//! against the simulated adversary, so this module implements a structurally
//! faithful Schnorr scheme — deterministic nonces, Fiat–Shamir challenge,
//! standard verification equation — over a deliberately small field.
//!
//! **Security notice:** a 64-bit discrete-log group offers *no* real-world
//! security. This is a simulation substrate, not a production signature
//! scheme. The 2LDAG overhead model accounts signatures at the paper's
//! `f_s = 256` bits independent of this encoding.
//!
//! Group: `p = 2q + 1` a safe prime (found deterministically at first use),
//! `g = 4` generating the order-`q` subgroup of quadratic residues.
//!
//! Powers of `g` (key generation, signing, the `g^s` of verification) read
//! a fixed-base table built once beside [`group_params`]: sixteen 4-bit
//! windows of sixteen entries, 2 KiB, so `g^x` is fifteen products where
//! square-and-multiply (`powmod`) takes about ninety. Every key, signature
//! and verdict equals what `powmod` gives.

use crate::sha256::Sha256;
use std::fmt;
use std::sync::OnceLock;

/// Multiplication mod `m` without overflow (`m < 2^63`).
fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by square-and-multiply.
fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin, exact for all `n < 2^64` with this witness set.
fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The group parameters shared by every key pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupParams {
    /// Safe prime modulus, `p = 2q + 1`, `p < 2^63`.
    pub p: u64,
    /// Prime order of the quadratic-residue subgroup.
    pub q: u64,
    /// Generator of the order-`q` subgroup (`g = 4 = 2²`).
    pub g: u64,
}

static PARAMS: OnceLock<GroupParams> = OnceLock::new();

/// Returns the lazily computed global group parameters.
///
/// The search starts just below `2^62` and walks downward over odd `q`
/// until both `q` and `2q + 1` are prime; it is deterministic, so every
/// process in the workspace agrees on the same group.
pub fn group_params() -> &'static GroupParams {
    PARAMS.get_or_init(|| {
        let mut q: u64 = (1u64 << 61) - 1; // odd starting point below 2^61
        loop {
            if is_prime_u64(q) {
                let p = 2 * q + 1; // < 2^62, well inside the mulmod bound
                if is_prime_u64(p) {
                    return GroupParams { p, q, g: 4 };
                }
            }
            q -= 2;
        }
    })
}

/// `G_TABLE[i][j] = g^(j·16^i) mod p`: one row per 4-bit window of a 64-bit
/// exponent.
static G_TABLE: OnceLock<[[u64; 16]; 16]> = OnceLock::new();

/// `g^exp mod p`: one table entry per 4-bit window of `exp`.
fn g_pow(exp: u64) -> u64 {
    let params = group_params();
    let table = G_TABLE.get_or_init(|| {
        let mut table = [[1u64; 16]; 16];
        let mut base = params.g;
        for row in &mut table {
            for j in 1..16 {
                row[j] = mulmod(row[j - 1], base, params.p);
            }
            base = mulmod(row[15], base, params.p);
        }
        table
    });
    let entry = |window: usize| table[window][(exp >> (4 * window)) as usize & 15];
    (1..16).fold(entry(0), |acc, window| mulmod(acc, entry(window), params.p))
}

/// A secret (signing) key: an exponent in `[1, q-1]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(u64);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret scalar.
        write!(f, "SecretKey(..)")
    }
}

/// A public (verification) key: `g^sk mod p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(u64);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#018x})", self.0)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl PublicKey {
    /// Raw group element.
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Big-endian byte encoding used in challenge hashes.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Verifies `sig` over `message`.
    ///
    /// Computes `r' = g^s · pk^(q-e) mod p` and accepts iff the Fiat–Shamir
    /// challenge of `(r', pk, message)` equals `e`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let params = group_params();
        if sig.e >= params.q || sig.s >= params.q {
            return false;
        }
        if self.0 <= 1 || self.0 >= params.p {
            return false;
        }
        let gs = g_pow(sig.s);
        let pk_neg_e = powmod(self.0, params.q - sig.e, params.p);
        let r = mulmod(gs, pk_neg_e, params.p);
        challenge(r, self.0, message, params.q) == sig.e
    }
}

/// A Schnorr signature `(e, s)`.
///
/// Encoded size is 16 bytes; the 2LDAG overhead model accounts it at the
/// paper's `f_s = 256` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Fiat–Shamir challenge.
    pub e: u64,
    /// Response scalar.
    pub s: u64,
}

impl Signature {
    /// Byte encoding `(e ‖ s)`, big-endian.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes a signature from [`Signature::to_bytes`] output.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Signature {
            e: u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")),
            s: u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }

    /// A deliberately invalid signature, used by fault injection.
    pub fn garbage() -> Self {
        Signature { e: 0, s: 0 }
    }
}

fn challenge(r: u64, pk: u64, message: &[u8], q: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(b"2ldag-schnorr-challenge");
    h.update(&r.to_be_bytes());
    h.update(&pk.to_be_bytes());
    h.update(message);
    h.finalize().prefix_u64() % q
}

/// A signing key pair.
///
/// # Example
///
/// ```
/// use tldag_crypto::schnorr::KeyPair;
///
/// let kp = KeyPair::from_seed(42);
/// let sig = kp.sign(b"block header bytes");
/// assert!(kp.public().verify(b"block header bytes", &sig));
/// assert!(!kp.public().verify(b"different message", &sig));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    sk: SecretKey,
    pk: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed. Every simulated node
    /// uses its node id as the seed, which models the paper's assumption that
    /// keys are provisioned at registration time.
    pub fn from_seed(seed: u64) -> Self {
        let params = group_params();
        let mut h = Sha256::new();
        h.update(b"2ldag-keygen");
        h.update(&seed.to_be_bytes());
        let sk = h.finalize().prefix_u64() % (params.q - 1) + 1;
        let pk = g_pow(sk);
        KeyPair {
            sk: SecretKey(sk),
            pk: PublicKey(pk),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.pk
    }

    /// Signs `message` with a deterministic (RFC-6979-style) nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let params = group_params();
        let mut h = Sha256::new();
        h.update(b"2ldag-schnorr-nonce");
        h.update(&self.sk.0.to_be_bytes());
        h.update(message);
        let k = h.finalize().prefix_u64() % (params.q - 1) + 1;
        let r = g_pow(k);
        let e = challenge(r, self.pk.0, message, params.q);
        let s = (k + mulmod(e, self.sk.0, params.q)) % params.q;
        Signature { e, s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `KeyPair::sign` as it was before the table of `g`, kept as the
    /// reference: `g^k` by `powmod`.
    fn sign_reference(kp: &KeyPair, message: &[u8]) -> Signature {
        let params = group_params();
        let mut h = Sha256::new();
        h.update(b"2ldag-schnorr-nonce");
        h.update(&kp.sk.0.to_be_bytes());
        h.update(message);
        let k = h.finalize().prefix_u64() % (params.q - 1) + 1;
        let r = powmod(params.g, k, params.p);
        let e = challenge(r, kp.pk.0, message, params.q);
        let s = (k + mulmod(e, kp.sk.0, params.q)) % params.q;
        Signature { e, s }
    }

    /// `PublicKey::verify` as it was, kept as the reference.
    fn verify_reference(pk: u64, message: &[u8], sig: &Signature) -> bool {
        let params = group_params();
        if sig.e >= params.q || sig.s >= params.q {
            return false;
        }
        if pk <= 1 || pk >= params.p {
            return false;
        }
        let gs = powmod(params.g, sig.s, params.p);
        let pk_neg_e = powmod(pk, params.q - sig.e, params.p);
        let r = mulmod(gs, pk_neg_e, params.p);
        challenge(r, pk, message, params.q) == sig.e
    }

    #[test]
    fn table_powers_of_g_at_the_window_edges() {
        let params = group_params();
        for exp in [0, 1, 15, 16, 17, 255, 256, params.q - 1, params.q, u64::MAX] {
            assert_eq!(g_pow(exp), powmod(params.g, exp, params.p), "g^{exp}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table of `g` equals the `powmod` reference for any exponent.
        #[test]
        fn table_powers_of_g_equal_the_powmod_reference(exp in any::<u64>()) {
            let params = group_params();
            prop_assert_eq!(g_pow(exp), powmod(params.g, exp, params.p));
        }

        /// Keys and signature bytes equal the reference signer's.
        #[test]
        fn sign_equals_the_reference_signer(
            seed in any::<u64>(),
            message in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let kp = KeyPair::from_seed(seed);
            let params = group_params();
            prop_assert_eq!(kp.pk.0, powmod(params.g, kp.sk.0, params.p));
            prop_assert_eq!(kp.sign(&message).to_bytes(), sign_reference(&kp, &message).to_bytes());
        }

        /// `verify` agrees with the reference verifier on any `(pk, e, s)`:
        /// genuine signatures, near misses, and values out of range —
        /// `e ≥ q`, `s ≥ q`, and `pk ∈ {0, 1, ≥ p}`.
        #[test]
        fn verify_agrees_with_the_reference_verifier(
            seed in any::<u64>(),
            message in proptest::collection::vec(any::<u8>(), 0..64),
            pk_kind in 0u8..6,
            sig_kind in 0u8..5,
            raw in any::<u64>(),
        ) {
            let params = group_params();
            let kp = KeyPair::from_seed(seed);
            let genuine = kp.sign(&message);
            let pk = match pk_kind {
                0 | 1 => kp.pk.0,
                // 0 or 1; then any value ≥ p; then any residue, in the group or not.
                2 => raw % 2,
                3 => params.p + raw % (u64::MAX - params.p + 1),
                4 => raw % params.p,
                _ => KeyPair::from_seed(seed ^ 1).pk.0,
            };
            let sig = match sig_kind {
                0 | 1 => genuine,
                2 => Signature { e: params.q + raw % (u64::MAX - params.q + 1), ..genuine },
                3 => Signature { s: params.q + raw % (u64::MAX - params.q + 1), ..genuine },
                _ => Signature { e: raw % params.q, s: raw.rotate_left(17) % params.q },
            };
            prop_assert_eq!(
                PublicKey(pk).verify(&message, &sig),
                verify_reference(pk, &message, &sig),
                "pk {:#x} sig {:?}", pk, sig
            );
        }
    }

    #[test]
    fn group_params_are_a_safe_prime_group() {
        let params = group_params();
        assert!(is_prime_u64(params.p));
        assert!(is_prime_u64(params.q));
        assert_eq!(params.p, 2 * params.q + 1);
        // g = 4 is a quadratic residue, so its order divides q; q is prime and
        // g != 1, hence order is exactly q.
        assert_eq!(powmod(params.g, params.q, params.p), 1);
        assert_ne!(powmod(params.g, 1, params.p), 1);
    }

    #[test]
    fn miller_rabin_known_values() {
        for p in [2u64, 3, 5, 7, 61, 2_147_483_647, 1_000_000_007] {
            assert!(is_prime_u64(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 561, 41041, 825_265, 321_197_185, 1_000_000_008] {
            assert!(!is_prime_u64(c), "{c} is composite");
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed(1);
        for msg in [&b"a"[..], b"", b"the quick brown fox", &[0u8; 1000]] {
            let sig = kp.sign(msg);
            assert!(kp.public().verify(msg, &sig));
        }
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = KeyPair::from_seed(2);
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let alice = KeyPair::from_seed(3);
        let bob = KeyPair::from_seed(4);
        let sig = alice.sign(b"message");
        assert!(!bob.public().verify(b"message", &sig));
    }

    #[test]
    fn verify_rejects_garbage_and_mutations() {
        let kp = KeyPair::from_seed(5);
        let sig = kp.sign(b"message");
        assert!(!kp.public().verify(b"message", &Signature::garbage()));
        let flipped_e = Signature {
            e: sig.e ^ 1,
            ..sig
        };
        let flipped_s = Signature {
            s: sig.s ^ 1,
            ..sig
        };
        assert!(!kp.public().verify(b"message", &flipped_e));
        assert!(!kp.public().verify(b"message", &flipped_s));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = KeyPair::from_seed(6);
        let sig = kp.sign(b"encode me");
        assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let keys: Vec<u64> = (0..100)
            .map(|s| KeyPair::from_seed(s).public().to_u64())
            .collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = KeyPair::from_seed(7);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = KeyPair::from_seed(8);
        let params = group_params();
        let sig = Signature { e: params.q, s: 1 };
        assert!(!kp.public().verify(b"m", &sig));
    }

    #[test]
    fn debug_never_reveals_secret() {
        let kp = KeyPair::from_seed(9);
        let dbg = format!("{kp:?}");
        assert!(dbg.contains("SecretKey(..)"));
    }
}
