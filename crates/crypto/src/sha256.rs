//! Pure-Rust SHA-256 (FIPS 180-4).
//!
//! This is the `H(.)` of the 2LDAG paper: every block-header digest, Merkle
//! node, puzzle evaluation, and signature challenge in the workspace flows
//! through this implementation. It is validated against the NIST short/long
//! message vectors in the unit tests below.
//!
//! [`Sha256::update`] and [`Sha256::finalize`] reach the compression function
//! through one entry point, `compress_blocks`, which picks a kernel per call
//! from what the CPU reports: the SHA-NI kernel in `sha_ni.rs` on an x86-64
//! CPU with the SHA extensions, and the portable scalar kernel below
//! everywhere else. The scalar kernel is also the reference the unit tests
//! hold the other one to, so both run on every host that has both.
//!
//! On a CPU with SHA-NI the puzzle search has a second way in,
//! `OpenWord::finish_pair`: the closing blocks of a message whose last word
//! is still open are built once, and each call finishes two candidate
//! words in one pass, the two compressions interleaved. Elsewhere the
//! search goes through `update` and `finalize` like any other message.

use crate::digest::Digest;

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tldag_crypto::sha256::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Finishes the hash and returns the digest, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Self::update`] over an explicit kernel (the tests name one).
    fn update_with(&mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]]), data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, std::slice::from_ref(&self.buffer));
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// [`Self::finalize`] over an explicit kernel.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[[u8; 64]])) -> Digest {
        // Padding: 0x80, zeros up to the last eight bytes of a block, then
        // the message length in bits. `update` leaves `buffer_len < 64`.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            // No room left for the length: it goes in a block of its own.
            kernel(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, std::slice::from_ref(&self.buffer));

        digest_of(&self.state)
    }

    /// What is left to hash once one more big-endian word is appended, when
    /// the bytes absorbed so far end on a word boundary and the running CPU
    /// has the SHA-NI kernel; `None` otherwise.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn open_word(&self) -> Option<OpenWord> {
        if !self.buffer_len.is_multiple_of(4) || !crate::sha_ni::supported() {
            return None;
        }
        // The buffered tail, a zero placeholder for the word, then the
        // padding of the one or two blocks that close the message.
        let end = self.buffer_len + 4;
        let count = if end <= 55 { 1 } else { 2 };
        let mut bytes = [0u8; 128];
        bytes[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        bytes[end] = 0x80;
        let bit_len = self.total_len.wrapping_add(4).wrapping_mul(8);
        bytes[64 * count - 8..64 * count].copy_from_slice(&bit_len.to_be_bytes());
        let (blocks, _) = bytes.as_chunks::<64>();
        Some(OpenWord {
            state: self.state,
            blocks: [words_of(&blocks[0]), words_of(&blocks[1])],
            count,
            at: self.buffer_len / 4,
        })
    }
}

/// The final one or two blocks of a message whose last four bytes are an
/// aligned word still to be chosen, built once so that each candidate word
/// costs only the compressions: the search behind the Eq. 5 puzzle.
#[cfg(target_arch = "x86_64")]
pub(crate) struct OpenWord {
    /// The state after every whole block before the open word.
    state: [u32; 8],
    /// The closing blocks as big-endian words, padding included; the open
    /// word reads zero.
    blocks: [[u32; 16]; 2],
    /// How many of `blocks` the message uses (two when the length does not
    /// fit beside the open word).
    count: usize,
    /// Index of the open word in `blocks[0]`.
    at: usize,
}

#[cfg(target_arch = "x86_64")]
impl OpenWord {
    /// The final states (the digests as words) of the message closed by
    /// `words[0]` and by `words[1]`, computed in one SHA-NI pass.
    pub(crate) fn finish_pair(&self, words: [u32; 2]) -> [[u32; 8]; 2] {
        crate::sha_ni::try_finish_pair(&self.state, &self.blocks[..self.count], self.at, words)
            .expect("open_word saw the CPU report SHA-NI")
    }
}

/// The digest bytes of a final state: its words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// A block's sixteen big-endian message words.
#[cfg(target_arch = "x86_64")]
fn words_of(block: &[u8; 64]) -> [u32; 16] {
    std::array::from_fn(|i| {
        u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    })
}

/// The one way into the compression function: folds whole `blocks` into
/// `state` with the fastest kernel the running CPU supports.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::try_compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// Which kernel hashes on this CPU, for logs and bench headers: `"sha-ni"`
/// or `"scalar"`.
pub fn kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::supported() {
        return "sha-ni";
    }
    "scalar"
}

/// The portable kernel: the only one on a CPU without SHA instructions, and
/// the reference the tests compare the other against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// use tldag_crypto::sha256::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// SHA-256 over the concatenation of two byte slices, a frequent pattern when
/// hashing `(parent_digest ‖ child_bytes)` pairs.
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(a);
    hasher.update(b);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    #[cfg(target_arch = "x86_64")]
    fn sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(crate::sha_ni::try_compress_blocks(state, blocks));
    }

    /// Every kernel this host can run, called directly (no dispatch).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("scalar", compress_blocks_scalar)];
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::supported() {
            kernels.push(("sha-ni", sha_ni));
        }
        if kernels.len() == 1 {
            println!("sha-ni leg skipped: this CPU does not report the SHA extensions");
        }
        kernels
    }

    /// Hashes the concatenation of `parts`, one `update` each, through `kernel`.
    fn hash_with(kernel: Kernel, parts: &[&[u8]]) -> Digest {
        let mut hasher = Sha256::new();
        for part in parts {
            hasher.update_with(kernel, part);
        }
        hasher.finalize_with(kernel)
    }

    /// Asserts `data` hashes to `expect` through every kernel and through
    /// the public (dispatching) function.
    fn assert_digest(data: &[u8], expect: &str) {
        assert_eq!(sha256(data).to_string(), expect, "dispatch");
        for (name, kernel) in kernels() {
            assert_eq!(hash_with(kernel, &[data]).to_string(), expect, "{name}");
        }
    }

    #[test]
    fn nist_empty_message() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bit_message() {
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u8).collect();
        let expect = sha256(&data);
        for (name, kernel) in kernels() {
            for split in 0..data.len() {
                let (head, tail) = data.split_at(split);
                assert_eq!(
                    hash_with(kernel, &[head, tail]),
                    expect,
                    "{name}, split at {split}"
                );
            }
        }
    }

    #[test]
    fn lengths_spanning_padding_boundaries() {
        // 55, 56, 63, 64, 65 bytes hit every branch of the padding logic.
        let known = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                65,
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
        ];
        for (len, expect) in known {
            assert_digest(&vec![b'a'; len], expect);
        }
    }

    /// `finalize` as it was before padding was written straight into the
    /// buffer: it re-entered `update` for the 0x80, the zeros and the length,
    /// patching `total_len` back each time. Kept as the padding reference.
    fn finalize_reference(mut h: Sha256) -> Digest {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update_with(compress_blocks_scalar, &[0x80]);
        while h.buffer_len != 56 {
            let zeros = if h.buffer_len < 56 {
                56 - h.buffer_len
            } else {
                64 - h.buffer_len + 56
            };
            let before = h.total_len;
            h.update_with(compress_blocks_scalar, &[0u8; 64][..zeros.min(64)]);
            h.total_len = before;
        }
        h.update_with(compress_blocks_scalar, &bit_len.to_be_bytes());
        assert_eq!(h.buffer_len, 0, "padding must close the final block");

        let bytes: Vec<u8> = h.state.iter().flat_map(|w| w.to_be_bytes()).collect();
        Digest::from_bytes(bytes.try_into().expect("eight words are 32 bytes"))
    }

    #[test]
    fn padding_matches_the_reference_at_every_length() {
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=300 {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.clone().finalize(), finalize_reference(h), "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn open_word_finishes_like_update_and_finalize() {
        let data: Vec<u8> = (0..=200u32).map(|i| (i * 13 + 5) as u8).collect();
        let words: [u32; 2] = [0x0123_4567, 0xfedc_ba98];
        let sha_ni = crate::sha_ni::supported();
        for len in 0..=200 {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            let Some(open) = h.open_word() else {
                assert!(
                    !(sha_ni && len.is_multiple_of(4)),
                    "len {len}: aligned on SHA-NI, yet no open word"
                );
                continue;
            };
            assert!(
                sha_ni && len.is_multiple_of(4),
                "len {len}: unaligned or no SHA-NI, yet an open word"
            );
            let expect = words.map(|word| {
                let mut attempt = h.clone();
                attempt.update(&word.to_be_bytes());
                attempt.finalize()
            });
            let states = open.finish_pair(words);
            assert_eq!(states.map(|s| digest_of(&s)), expect, "len {len}");
        }
    }

    #[test]
    fn pair_equals_concatenation() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
    }

    #[test]
    fn kernel_name_is_the_kernel_dispatch_picks() {
        let picked = kernels().last().expect("scalar is always there").0;
        assert_eq!(kernel_name(), picked);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A hasher driven through the scalar kernel only agrees with the
        /// dispatching one, whichever kernel that picks on this host.
        #[test]
        fn scalar_kernel_equals_dispatch(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            split in 0usize..4096,
        ) {
            let (head, tail) = data.split_at(split % (data.len() + 1));
            prop_assert_eq!(
                hash_with(compress_blocks_scalar, &[head, tail]),
                sha256_pair(head, tail)
            );
        }
    }
}
