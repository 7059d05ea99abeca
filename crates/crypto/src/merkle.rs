//! Binary Merkle tree with inclusion proofs.
//!
//! The `Root` field of every 2LDAG block header is the Merkle root `M(b^d)` of
//! the block body (Sec. III-B of the paper). The validator recomputes this root
//! when it retrieves a block (Algorithm 3, line 3) and rejects the block on
//! mismatch. Inclusion proofs let an application audit a single sensor sample
//! without fetching the whole body.
//!
//! Construction: leaves are `H(0x00 ‖ leaf)`, interior nodes are
//! `H(0x01 ‖ left ‖ right)`. Domain separation prevents a leaf from being
//! reinterpreted as an interior node. An odd node at any level is paired with
//! itself (Bitcoin-style duplication). The root of an empty tree is defined as
//! `H(0x02)`.

use crate::digest::Digest;
use crate::sha256::Sha256;

const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;
const EMPTY_TAG: u8 = 0x02;

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// Root digest of an empty tree.
pub(crate) fn empty_root() -> Digest {
    let mut h = Sha256::new();
    h.update(&[EMPTY_TAG]);
    h.finalize()
}

/// Computes the Merkle root of `leaves` without materialising the tree.
///
/// Equivalent to `MerkleTree::build(leaves).root()` but allocates only one
/// level at a time. This is the `M(.)` used during block generation.
///
/// # Example
///
/// ```
/// use tldag_crypto::merkle::{merkle_root, MerkleTree};
///
/// let leaves: Vec<&[u8]> = vec![b"t=21.5", b"t=21.7", b"t=21.6"];
/// let tree = MerkleTree::build(leaves.iter());
/// assert_eq!(merkle_root(leaves.iter()), tree.root());
/// ```
pub fn merkle_root<I, T>(leaves: I) -> Digest
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    let mut level: Vec<Digest> = leaves
        .into_iter()
        .map(|leaf| hash_leaf(leaf.as_ref()))
        .collect();
    if level.is_empty() {
        return empty_root();
    }
    while level.len() > 1 {
        level = reduce_level(&level);
    }
    level[0]
}

fn reduce_level(level: &[Digest]) -> Vec<Digest> {
    let mut next = Vec::with_capacity(level.len().div_ceil(2));
    for pair in level.chunks(2) {
        let left = &pair[0];
        let right = pair.get(1).unwrap_or(left);
        next.push(hash_node(left, right));
    }
    next
}

/// A fully materialised Merkle tree supporting inclusion proofs.
///
/// # Example
///
/// ```
/// use tldag_crypto::merkle::MerkleTree;
///
/// let samples: Vec<&[u8]> = vec![b"s0", b"s1", b"s2", b"s3", b"s4"];
/// let tree = MerkleTree::build(samples.iter());
/// let proof = tree.proof(2).unwrap();
/// assert!(proof.verify(&tree.root(), b"s2"));
/// assert!(!proof.verify(&tree.root(), b"tampered"));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level has exactly one digest.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    pub fn build<I, T>(leaves: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]>,
    {
        let leaf_level: Vec<Digest> = leaves
            .into_iter()
            .map(|leaf| hash_leaf(leaf.as_ref()))
            .collect();
        if leaf_level.is_empty() {
            return MerkleTree {
                levels: vec![vec![empty_root()]],
            };
        }
        let mut levels = vec![leaf_level];
        while levels.last().expect("non-empty").len() > 1 {
            let next = reduce_level(levels.last().expect("non-empty"));
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        *self
            .levels
            .last()
            .expect("tree always has a root level")
            .first()
            .expect("root level is non-empty")
    }

    /// Number of leaves (zero for the empty tree).
    pub(crate) fn leaf_count(&self) -> usize {
        if self.levels.len() == 1 && self.levels[0].len() == 1 && self.levels[0][0] == empty_root()
        {
            0
        } else {
            self.levels[0].len()
        }
    }

    /// Produces an inclusion proof for the leaf at `index`, or `None` if the
    /// index is out of bounds.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len());
        let mut pos = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_pos = pos ^ 1;
            let sibling = if sibling_pos < level.len() {
                level[sibling_pos]
            } else {
                level[pos] // odd node pairs with itself
            };
            siblings.push(ProofStep {
                sibling,
                sibling_on_right: pos.is_multiple_of(2),
            });
            pos /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct ProofStep {
    sibling: Digest,
    sibling_on_right: bool,
}

/// An inclusion proof produced by [`MerkleTree::proof`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    index: usize,
    siblings: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verifies that `leaf_data` is included under `root` at this proof's index.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        let mut acc = hash_leaf(leaf_data);
        for step in &self.siblings {
            acc = if step.sibling_on_right {
                hash_node(&acc, &step.sibling)
            } else {
                hash_node(&step.sibling, &acc)
            };
        }
        acc == *root
    }
}

#[cfg(test)]
impl MerkleProof {
    /// Returns `true` for the trivial proof of a single-leaf tree.
    fn is_empty(&self) -> bool {
        self.siblings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_defined_root() {
        let tree = MerkleTree::build(Vec::<&[u8]>::new());
        assert_eq!(tree.root(), empty_root());
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.proof(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::build([b"only".as_slice()]);
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.proof(0).unwrap();
        assert!(proof.is_empty());
        assert!(proof.verify(&tree.root(), b"only"));
    }

    #[test]
    fn streaming_root_matches_tree_root() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let data = leaves(n);
            assert_eq!(
                merkle_root(data.iter()),
                MerkleTree::build(data.iter()).root(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 13] {
            let data = leaves(n);
            let tree = MerkleTree::build(data.iter());
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.proof(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let data = leaves(6);
        let tree = MerkleTree::build(data.iter());
        let proof = tree.proof(3).unwrap();
        assert!(!proof.verify(&tree.root(), b"not the leaf"));
        assert!(!proof.verify(&tree.root().corrupted(), &data[3]));
    }

    #[test]
    fn proof_is_position_bound() {
        // A proof for index i must not verify leaf j's data (i != j).
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter());
        let proof = tree.proof(2).unwrap();
        assert!(!proof.verify(&tree.root(), &data[5]));
    }

    #[test]
    fn changing_any_leaf_changes_root() {
        let data = leaves(9);
        let base = merkle_root(data.iter());
        for i in 0..data.len() {
            let mut tampered = data.clone();
            tampered[i][0] ^= 0xff;
            assert_ne!(merkle_root(tampered.iter()), base, "leaf {i}");
        }
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A two-leaf tree's root should differ from a single leaf whose bytes
        // are the concatenation of the two leaf hashes.
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        let two_leaf = merkle_root([b"a".as_slice(), b"b".as_slice()]);
        let fake = merkle_root([concat.as_slice()]);
        assert_ne!(two_leaf, fake);
    }

    #[test]
    fn duplication_rule_is_stable() {
        // Odd trees duplicate the last node; check 3 leaves == [a,b,c,c] shape.
        let three = merkle_root(leaves(3).iter());
        let mut four = leaves(3);
        four.push(leaves(3)[2].clone());
        assert_eq!(three, merkle_root(four.iter()));
    }
}
