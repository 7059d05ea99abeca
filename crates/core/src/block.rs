//! 2LDAG data blocks: the structure of Fig. 2.
//!
//! A block has a **header** (Version, Time, Root, Digests, Nonce, Signature)
//! and a **body** (the `C` bits of sampled data). The Digests field carries
//! the latest digest received from each neighbor *plus* the digest of the
//! node's own previous block, which is what links blocks into the logical DAG
//! (Sec. III-C). Headers hash to a [`Digest`] via a canonical, length-prefixed
//! encoding; the same encoding (minus the signature) is what the node signs
//! (Eq. 6) and what the difficulty puzzle covers (Eq. 5).
//!
//! A header's Digests field is an immutable shared list: cloning a header
//! or a block bumps a reference count, so the owner's `S_i`, every `H_i`
//! caching the header and every reply in flight hold one allocation. Code
//! that needs a different list (a tampering adversary, a test) builds a
//! fresh one and assigns it; nothing writes through a shared list.

use crate::config::ProtocolConfig;
use crate::error::ValidationError;
use std::fmt;
use std::sync::Arc;
use tldag_crypto::merkle::merkle_root;
use tldag_crypto::schnorr::{KeyPair, PublicKey, Signature};
use tldag_crypto::sha256::Sha256;
use tldag_crypto::{puzzle, Digest};
use tldag_sim::engine::Slot;
use tldag_sim::{Bits, NodeId};

/// Identifies a block as the `seq`-th block generated by `owner`
/// (the paper's `b_{i,t}` with `t` normalised to a per-node sequence number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId {
    /// Generating node.
    pub owner: NodeId,
    /// Zero-based sequence number within the owner's chain (0 = genesis).
    pub seq: u32,
}

impl BlockId {
    /// Creates a block id.
    pub const fn new(owner: NodeId, seq: u32) -> Self {
        BlockId { owner, seq }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.owner, self.seq)
    }
}

/// One entry of the Digests field: the latest digest heard from `origin`.
/// The entry with `origin == ` the block's own node is the digest of the
/// node's previous block (`H(b^h_{i,t-1})` in Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DigestEntry {
    /// Node whose block header this digest commits to.
    pub origin: NodeId,
    /// The committed digest.
    pub digest: Digest,
}

/// A 2LDAG block header (Fig. 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Protocol version (`f_v` = 32 bits).
    pub version: u32,
    /// Generation time slot (`f_t` = 32 bits in the overhead model).
    pub time: Slot,
    /// Merkle root of the block body (`f_H` bits).
    pub root: Digest,
    /// Digests from neighbors plus own previous block
    /// (`f_H × (n+1)` bits), shared by every clone of the header.
    pub digests: Arc<[DigestEntry]>,
    /// Puzzle nonce (`f_n` = 32 bits).
    pub nonce: u32,
    /// Schnorr signature over the other header fields (`f_s` = 256 bits).
    pub signature: Signature,
}

/// Bytes of one encoded Digests entry: `origin` (4, big-endian) ‖ digest.
const ENTRY_BYTES: usize = 4 + 32;

/// Entries [`BlockHeader::absorb_digests`] encodes per `update`: 28 × 36 B
/// = 1 008 B of stack, so the paper's 19-entry list is one call.
const ENTRIES_PER_UPDATE: usize = 28;

impl BlockHeader {
    /// Absorbs the Digests field into `h`: each run of up to
    /// [`ENTRIES_PER_UPDATE`] `(origin ‖ digest)` entries is encoded into a
    /// stack buffer and handed over in one `update`, so the hasher
    /// compresses whole blocks instead of topping up its buffer per entry.
    fn absorb_digests(&self, h: &mut Sha256) {
        let mut bytes = [0u8; ENTRIES_PER_UPDATE * ENTRY_BYTES];
        for run in self.digests.chunks(ENTRIES_PER_UPDATE) {
            for (entry, out) in run.iter().zip(bytes.chunks_exact_mut(ENTRY_BYTES)) {
                out[..4].copy_from_slice(&entry.origin.0.to_be_bytes());
                out[4..].copy_from_slice(entry.digest.as_bytes());
            }
            h.update(&bytes[..run.len() * ENTRY_BYTES]);
        }
    }

    /// Streams the canonical encoding of the pre-signature fields
    /// `(version, time, root, digests, nonce)` into `h`.
    fn absorb_presign(&self, h: &mut Sha256) {
        h.update(&self.version.to_be_bytes());
        h.update(&self.time.to_be_bytes());
        h.update(self.root.as_bytes());
        h.update(&(self.digests.len() as u32).to_be_bytes());
        self.absorb_digests(h);
        h.update(&self.nonce.to_be_bytes());
    }

    /// Hash of the pre-signature fields: the message that is signed (Eq. 6).
    fn presign_hash(&self) -> Digest {
        let mut h = Sha256::new();
        self.absorb_presign(&mut h);
        h.finalize()
    }

    /// A hasher that has absorbed what the difficulty puzzle covers besides
    /// the nonce: `(root ‖ digests)` per Eq. (5) — `H(M(b^d), Δ, nonce) ≤ ρ`.
    fn puzzle_midstate(&self) -> Sha256 {
        let mut h = Sha256::new();
        h.update(self.root.as_bytes());
        self.absorb_digests(&mut h);
        h
    }

    /// The header digest `H(b^h)` that neighbors store and that children
    /// reference. Covers every field including the signature.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"2ldag-header");
        self.absorb_presign(&mut h);
        h.update(&self.signature.to_bytes());
        h.finalize()
    }

    /// Looks up the digest this header commits to for node `origin`
    /// (the paper's `GetDigest(b^h, v)`).
    pub(crate) fn digest_of(&self, origin: NodeId) -> Option<Digest> {
        self.digests
            .iter()
            .find(|e| e.origin == origin)
            .map(|e| e.digest)
    }

    /// Whether the Digests field contains `d` (from any origin) — the test
    /// `H(b^h_v) ∈ b^h_{j'}` used throughout Sec. IV.
    pub fn contains_digest(&self, d: &Digest) -> bool {
        self.digests.iter().any(|e| e.digest == *d)
    }

    /// Number of digest entries (`n + 1` for a node with `n` neighbors once
    /// all neighbors have been heard from).
    pub(crate) fn digest_entries(&self) -> usize {
        self.digests.len()
    }

    /// Logical size of this header in the overhead model.
    pub(crate) fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        cfg.header_bits(self.digests.len())
    }

    /// Verifies the signature under `pk`.
    pub fn verify_signature(&self, pk: &PublicKey) -> bool {
        pk.verify(self.presign_hash().as_bytes(), &self.signature)
    }

    /// Verifies the puzzle at `difficulty_bits`.
    pub fn verify_puzzle(&self, difficulty_bits: u8) -> bool {
        puzzle::check(
            &puzzle::midstate_digest(&self.puzzle_midstate(), self.nonce),
            difficulty_bits,
        )
    }
}

/// A block body: the sampled data.
///
/// The simulator carries a small real payload while the overhead model
/// accounts the paper's logical size `C` (`logical_bits`), so experiments at
/// `C = 1 MB` do not allocate megabytes per block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockBody {
    /// The actual payload bytes carried in the simulation.
    pub payload: Arc<[u8]>,
    /// The logical body size `C` in bits.
    pub logical_bits: u64,
}

impl BlockBody {
    /// Creates a body from payload bytes with logical size `c_bits`.
    pub fn new(payload: impl Into<Arc<[u8]>>, c_bits: u64) -> Self {
        BlockBody {
            payload: payload.into(),
            logical_bits: c_bits,
        }
    }

    /// Merkle root over the payload chunked into `chunk_bytes` leaves
    /// (at least one leaf, so the empty payload has a defined root).
    pub(crate) fn merkle_root(&self, chunk_bytes: usize) -> Digest {
        let chunk = chunk_bytes.max(1);
        if self.payload.is_empty() {
            return merkle_root([&b""[..]]);
        }
        merkle_root(self.payload.chunks(chunk))
    }
}

/// A complete data block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataBlock {
    /// Identity of this block in its owner's chain.
    pub id: BlockId,
    /// The header.
    pub header: BlockHeader,
    /// The body.
    pub body: BlockBody,
}

impl DataBlock {
    /// Assembles, mines, and signs a new block (Sec. III-D).
    ///
    /// `digests` must already contain the neighbor digests `A_i` plus the
    /// previous own-block digest (absent only for genesis). The nonce search
    /// starts at 0 and the signature covers the final nonce.
    pub fn create(
        cfg: &ProtocolConfig,
        id: BlockId,
        time: Slot,
        digests: impl Into<Arc<[DigestEntry]>>,
        body: BlockBody,
        keypair: &KeyPair,
    ) -> Self {
        let root = body.merkle_root(cfg.merkle_chunk_bytes);
        let mut header = BlockHeader {
            version: cfg.version,
            time,
            root,
            digests: digests.into(),
            nonce: 0,
            signature: Signature::garbage(),
        };
        header.nonce = puzzle::solve_midstate(&header.puzzle_midstate(), cfg.difficulty_bits, 0);
        header.signature = keypair.sign(header.presign_hash().as_bytes());
        DataBlock { id, header, body }
    }

    /// The header digest `H(b^h)`.
    pub fn header_digest(&self) -> Digest {
        self.header.digest()
    }

    /// Full validation: Merkle root, signature, and puzzle.
    ///
    /// # Errors
    ///
    /// Returns the first failing [`ValidationError`]. The paper's Algorithm 3
    /// only checks the root; signature and puzzle checks are hardening.
    pub fn validate(&self, cfg: &ProtocolConfig, pk: &PublicKey) -> Result<(), ValidationError> {
        if self.body.merkle_root(cfg.merkle_chunk_bytes) != self.header.root {
            return Err(ValidationError::RootMismatch);
        }
        if !self.header.verify_signature(pk) {
            return Err(ValidationError::SignatureInvalid);
        }
        if !self.header.verify_puzzle(cfg.difficulty_bits) {
            return Err(ValidationError::PuzzleInvalid);
        }
        Ok(())
    }

    /// Logical size of the full block (Eq. 2).
    pub fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.header.logical_bits(cfg) + Bits::from_bits(self.body.logical_bits)
    }
}

#[cfg(test)]
impl BlockId {
    /// The genesis block id of `owner`.
    pub(crate) const fn genesis(owner: NodeId) -> Self {
        BlockId { owner, seq: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::test_default()
    }

    fn sample_block(cfg: &ProtocolConfig, seed: u64) -> (DataBlock, KeyPair) {
        let kp = KeyPair::from_seed(seed);
        let digests = vec![
            DigestEntry {
                origin: NodeId(1),
                digest: Digest::from_bytes([1; 32]),
            },
            DigestEntry {
                origin: NodeId(0),
                digest: Digest::from_bytes([2; 32]),
            },
        ];
        let body = BlockBody::new(vec![7u8; 100], cfg.body_bits);
        let block = DataBlock::create(cfg, BlockId::new(NodeId(0), 1), 5, digests, body, &kp);
        (block, kp)
    }

    #[test]
    fn create_produces_valid_block() {
        let cfg = cfg();
        let (block, kp) = sample_block(&cfg, 1);
        assert!(block.validate(&cfg, &kp.public()).is_ok());
    }

    #[test]
    fn tampered_body_fails_root_check() {
        let cfg = cfg();
        let (mut block, kp) = sample_block(&cfg, 2);
        block.body.payload = vec![0u8; 100].into();
        assert_eq!(
            block.validate(&cfg, &kp.public()),
            Err(ValidationError::RootMismatch)
        );
    }

    #[test]
    fn tampered_header_fails_signature_check() {
        let cfg = cfg();
        let (mut block, kp) = sample_block(&cfg, 3);
        block.header.time += 1;
        assert_eq!(
            block.validate(&cfg, &kp.public()),
            Err(ValidationError::SignatureInvalid)
        );
    }

    #[test]
    fn wrong_key_fails_signature_check() {
        let cfg = cfg();
        let (block, _) = sample_block(&cfg, 4);
        let other = KeyPair::from_seed(999);
        assert_eq!(
            block.validate(&cfg, &other.public()),
            Err(ValidationError::SignatureInvalid)
        );
    }

    #[test]
    fn puzzle_enforced_at_nonzero_difficulty() {
        let mut cfg = cfg();
        cfg.difficulty_bits = 8;
        let (block, kp) = sample_block(&cfg, 5);
        assert!(block.validate(&cfg, &kp.public()).is_ok());
        assert!(block.header.verify_puzzle(8));
        // A zeroed nonce would (almost surely) violate an 8-bit target; mining
        // found one that satisfies it.
        assert!(puzzle::attempts_used(0, block.header.nonce) >= 1);
    }

    #[test]
    fn header_digest_changes_with_any_field() {
        let cfg = cfg();
        let (block, _) = sample_block(&cfg, 6);
        let base = block.header_digest();

        let mut h = block.header.clone();
        h.nonce ^= 1;
        assert_ne!(h.digest(), base);

        let mut h = block.header.clone();
        h.signature = Signature::garbage();
        assert_ne!(h.digest(), base);

        // Copy-on-write: a fresh list, never a write through the shared one.
        let mut h = block.header.clone();
        let mut digests = h.digests.to_vec();
        digests[0].digest = digests[0].digest.corrupted();
        h.digests = digests.into();
        assert_ne!(h.digest(), base);
        assert_eq!(
            block.header_digest(),
            base,
            "the original list is untouched"
        );
    }

    #[test]
    fn digest_of_and_contains() {
        let cfg = cfg();
        let (block, _) = sample_block(&cfg, 7);
        assert_eq!(
            block.header.digest_of(NodeId(1)),
            Some(Digest::from_bytes([1; 32]))
        );
        assert_eq!(block.header.digest_of(NodeId(9)), None);
        assert!(block.header.contains_digest(&Digest::from_bytes([2; 32])));
        assert!(!block.header.contains_digest(&Digest::from_bytes([9; 32])));
    }

    #[test]
    fn logical_size_matches_eq2() {
        let cfg = ProtocolConfig::paper_default().with_body_bits(1000);
        let kp = KeyPair::from_seed(8);
        let digests = vec![
            DigestEntry {
                origin: NodeId(1),
                digest: Digest::ZERO,
            };
            4
        ];
        let body = BlockBody::new(vec![1u8; 10], cfg.body_bits);
        let block = DataBlock::create(&cfg, BlockId::genesis(NodeId(0)), 0, digests, body, &kp);
        assert_eq!(block.logical_bits(&cfg).bits(), 608 + 4 * 256 + 1000);
    }

    #[test]
    fn empty_payload_has_defined_root() {
        let body = BlockBody::new(Vec::<u8>::new(), 0);
        let r1 = body.merkle_root(64);
        let r2 = body.merkle_root(64);
        assert_eq!(r1, r2);
        assert!(!r1.is_zero());
    }

    /// The `Vec` encodings the streaming hashers replaced, kept as the
    /// reference every digest must stay byte-identical to.
    fn presign_bytes(h: &BlockHeader) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&h.version.to_be_bytes());
        out.extend_from_slice(&h.time.to_be_bytes());
        out.extend_from_slice(h.root.as_bytes());
        out.extend_from_slice(&(h.digests.len() as u32).to_be_bytes());
        out.extend_from_slice(&puzzle_prefix(h)[32..]);
        out.extend_from_slice(&h.nonce.to_be_bytes());
        out
    }

    fn puzzle_prefix(h: &BlockHeader) -> Vec<u8> {
        let mut out = h.root.as_bytes().to_vec();
        for entry in h.digests.iter() {
            out.extend_from_slice(&entry.origin.0.to_be_bytes());
            out.extend_from_slice(entry.digest.as_bytes());
        }
        out
    }

    #[test]
    fn streamed_hashes_equal_the_canonical_byte_encodings() {
        use tldag_crypto::sha256::sha256;
        let mut cfg = cfg();
        cfg.difficulty_bits = 6;
        let kp = KeyPair::from_seed(11);
        // The paper's 19 entries, and either side of `absorb_digests`'s
        // 28-entry chunk boundaries.
        for entries in [0usize, 1, 2, 5, 18, 19, 27, 28, 29, 56, 57, 300] {
            let digests = (0..entries)
                .map(|i| DigestEntry {
                    origin: NodeId(i as u32),
                    digest: Digest::from_bytes([(i as u8).wrapping_add(1); 32]),
                })
                .collect::<Vec<_>>();
            let body = BlockBody::new(vec![entries as u8; 64], cfg.body_bits);
            let id = BlockId::new(NodeId(11), 3);
            let header = DataBlock::create(&cfg, id, 9, digests, body, &kp).header;

            let prefix = puzzle_prefix(&header);
            assert_eq!(header.nonce, puzzle::solve(&prefix, 6, 0), "{entries}");
            assert!(puzzle::check(
                &puzzle::puzzle_digest(&prefix, header.nonce),
                6
            ));
            assert!(header.verify_puzzle(6));

            let presign = presign_bytes(&header);
            assert_eq!(header.presign_hash(), sha256(&presign), "{entries}");
            assert!(header.verify_signature(&kp.public()));

            let mut full = b"2ldag-header".to_vec();
            full.extend_from_slice(&presign);
            full.extend_from_slice(&header.signature.to_bytes());
            assert_eq!(header.digest(), sha256(&full), "{entries}");
        }
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId::new(NodeId(3), 7).to_string(), "n3#7");
        assert_eq!(BlockId::genesis(NodeId(0)).seq, 0);
    }
}
