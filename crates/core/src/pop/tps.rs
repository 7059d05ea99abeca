//! Trust Path Selection (Algorithm 2, Sec. IV-B).
//!
//! After a successful PoP run the validator caches every header on the proof
//! path in `H_i`. Later verifications re-use those headers: as long as some
//! cached header is a child of the current verifying block, the path extends
//! *for free* — no `REQ_CHILD`/`RPY_CHILD` exchange, no bytes on the air.
//! This is what makes repeated audits of the same region of the DAG cheap
//! (the `{C1, D1, E2}` example of Sec. IV-B).

use crate::block::BlockId;
use crate::store::TrustCache;
use std::collections::HashSet;
use tldag_crypto::Digest;
use tldag_sim::NodeId;

/// One cache-driven path extension: the identity of the trusted header that
/// extends the path. The header itself stays in the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TpsStep {
    /// Node that generated the header's block.
    pub(crate) owner: NodeId,
    /// Block identity in the owner's chain.
    pub(crate) block_id: BlockId,
    /// Its header digest (the new verifying-block digest) — the key the
    /// cache indexes the header under, never a re-hash.
    pub digest: Digest,
}

/// Extends the path from `current` using cached headers until the cache runs
/// dry or `max_steps` extensions were taken (Algorithm 2's loop).
///
/// The walk is lazy: each step is looked up when the caller asks for it, so
/// a validator that stops at `γ + 1` owners pays for the steps its proof
/// uses and for nothing past them.
///
/// `skip` contains header digests that must not be used (blocks rolled back
/// earlier in this PoP run). Acyclicity of the logical DAG guarantees
/// termination; `max_steps` is a defensive bound.
pub fn extend<'a>(
    cache: &'a TrustCache,
    current: &Digest,
    skip: &'a HashSet<Digest>,
    max_steps: usize,
) -> impl Iterator<Item = TpsStep> + 'a {
    let mut tip = *current;
    std::iter::from_fn(move || {
        let (digest, next) = cache
            .children_candidates(&tip)
            .find(|(digest, _)| !skip.contains(digest))?;
        tip = digest;
        Some(TpsStep {
            owner: next.owner,
            block_id: next.block_id,
            digest,
        })
    })
    .take(max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBody, DataBlock, DigestEntry};
    use crate::config::ProtocolConfig;
    use crate::store::TrustedHeader;
    use tldag_crypto::schnorr::KeyPair;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::test_default()
    }

    fn block_with_parent(
        cfg: &ProtocolConfig,
        owner: u32,
        seq: u32,
        time: u64,
        parent: Digest,
    ) -> DataBlock {
        let kp = KeyPair::from_seed(u64::from(owner));
        DataBlock::create(
            cfg,
            BlockId::new(NodeId(owner), seq),
            time,
            vec![DigestEntry {
                origin: NodeId(owner.wrapping_sub(1)),
                digest: parent,
            }],
            BlockBody::new(vec![owner as u8], cfg.body_bits),
            &kp,
        )
    }

    fn trusted(block: &DataBlock) -> TrustedHeader {
        TrustedHeader {
            owner: block.id.owner,
            block_id: block.id,
            header: block.header.clone(),
        }
    }

    #[test]
    fn follows_chain_of_cached_headers() {
        let cfg = cfg();
        let root = Digest::from_bytes([1; 32]);
        let b1 = block_with_parent(&cfg, 1, 0, 1, root);
        let b2 = block_with_parent(&cfg, 2, 0, 2, b1.header_digest());
        let b3 = block_with_parent(&cfg, 3, 0, 3, b2.header_digest());

        let mut cache = TrustCache::new();
        for b in [&b1, &b2, &b3] {
            cache.insert(trusted(b));
        }
        let steps: Vec<TpsStep> = extend(&cache, &root, &HashSet::new(), 100).collect();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].owner, NodeId(1));
        assert_eq!(steps[2].owner, NodeId(3));
        // Each step is the cached block under its own header digest, and
        // its header contains the previous digest.
        for (step, block) in steps.iter().zip([&b1, &b2, &b3]) {
            assert_eq!(
                (step.block_id, step.digest),
                (block.id, block.header_digest())
            );
        }
        let header_of = |step: &TpsStep| &cache.get(&step.digest).unwrap().header;
        assert!(header_of(&steps[0]).contains_digest(&root));
        assert!(header_of(&steps[1]).contains_digest(&steps[0].digest));
    }

    #[test]
    fn stops_when_cache_runs_dry() {
        let cfg = cfg();
        let root = Digest::from_bytes([2; 32]);
        let b1 = block_with_parent(&cfg, 1, 0, 1, root);
        let mut cache = TrustCache::new();
        cache.insert(trusted(&b1));
        let steps: Vec<TpsStep> = extend(&cache, &root, &HashSet::new(), 100).collect();
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn empty_cache_extends_nothing() {
        let cache = TrustCache::new();
        let steps: Vec<TpsStep> = extend(&cache, &Digest::ZERO, &HashSet::new(), 100).collect();
        assert!(steps.is_empty());
    }

    #[test]
    fn skip_set_excludes_rolled_back_blocks() {
        let cfg = cfg();
        let root = Digest::from_bytes([3; 32]);
        let early = block_with_parent(&cfg, 1, 0, 1, root);
        let late = block_with_parent(&cfg, 2, 0, 5, root);
        let mut cache = TrustCache::new();
        cache.insert(trusted(&early));
        cache.insert(trusted(&late));

        // Without a skip set, TPS picks the earliest child.
        let steps: Vec<TpsStep> = extend(&cache, &root, &HashSet::new(), 100).collect();
        assert_eq!(steps[0].owner, NodeId(1));

        // Skipping the early block falls back to the alternative child.
        let skip: HashSet<Digest> = [early.header_digest()].into();
        let steps: Vec<TpsStep> = extend(&cache, &root, &skip, 100).collect();
        assert_eq!(steps[0].owner, NodeId(2));
    }

    #[test]
    fn a_shared_prefix_never_extends_the_path() {
        // A digest with `d`'s 64-bit prefix, the cache's index key.
        let twin = |d: Digest| {
            let mut bytes = d.into_bytes();
            bytes[31] ^= 1;
            Digest::from_bytes(bytes)
        };
        let cfg = cfg();
        let root = Digest::from_bytes([5; 32]);
        let b1 = block_with_parent(&cfg, 1, 0, 2, root);
        let b2 = block_with_parent(&cfg, 2, 0, 3, b1.header_digest());
        // Older than the true children, so each is the first candidate an
        // unconfirmed lookup would take.
        let impostors = [
            block_with_parent(&cfg, 3, 0, 0, twin(root)),
            block_with_parent(&cfg, 4, 0, 1, twin(b1.header_digest())),
        ];
        let mut cache = TrustCache::new();
        for b in impostors.iter().chain([&b1, &b2]) {
            cache.insert(trusted(b));
        }
        let steps: Vec<TpsStep> = extend(&cache, &root, &HashSet::new(), 100).collect();
        let owners: Vec<NodeId> = steps.iter().map(|s| s.owner).collect();
        assert_eq!(owners, [NodeId(1), NodeId(2)]);
        let mut tip = root;
        for step in &steps {
            assert!(cache
                .get(&step.digest)
                .unwrap()
                .header
                .contains_digest(&tip));
            tip = step.digest;
        }
    }

    #[test]
    fn max_steps_bounds_extension() {
        let cfg = cfg();
        let root = Digest::from_bytes([4; 32]);
        let mut cache = TrustCache::new();
        let mut parent = root;
        for i in 0..10 {
            let b = block_with_parent(&cfg, i + 1, 0, u64::from(i + 1), parent);
            parent = b.header_digest();
            cache.insert(trusted(&b));
        }
        let steps: Vec<TpsStep> = extend(&cache, &root, &HashSet::new(), 4).collect();
        assert_eq!(steps.len(), 4);
    }
}
