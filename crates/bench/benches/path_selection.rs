//! WPS/TPS micro-costs: next-hop selection over growing neighborhoods and
//! trust-cache extension over growing caches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use tldag_core::block::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_core::config::ProtocolConfig;
use tldag_core::pop::{tps, wps};
use tldag_core::store::{FreshHeaders, HeaderArena, TrustCache, TrustedHeader};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{DetRng, NodeId};

fn bench_wps(c: &mut Criterion) {
    let mut group = c.benchmark_group("wps_select_next");
    // Growing neighborhoods at a fixed 400 m side with a quarter of the nodes
    // on the path, then the shape the repo benchmark runs: the paper's N = 50
    // on a 300 m side (mean degree ≈ 18) with |R_i| = 8 of the 17 needed.
    let cases = [
        ("10", 10usize, 400.0, 10 / 4),
        ("50", 50, 400.0, 50 / 4),
        ("200", 200, 400.0, 200 / 4),
        ("paper_density", 50, 300.0, 8),
    ];
    for (name, nodes, side_m, on_path) in cases {
        let topo = Topology::random_connected(
            &TopologyConfig {
                nodes,
                side_m,
                ..TopologyConfig::paper_default()
            },
            &mut DetRng::seed_from(1),
        );
        let candidates: Vec<NodeId> = topo.neighbors(NodeId(0)).to_vec();
        let ri: wps::OwnerMultiset = (0..on_path).map(NodeId).collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &topo, |b, topo| {
            let mut rng = DetRng::seed_from(2);
            b.iter(|| wps::select_next(black_box(topo), black_box(&candidates), &ri, &mut rng));
        });
    }
    group.finish();
}

fn trusted(block: DataBlock) -> TrustedHeader {
    TrustedHeader {
        owner: block.id.owner,
        block_id: block.id,
        header: block.header,
    }
}

/// A chain of `len` cached headers, each naming `siblings` other digests
/// and then its parent's, last.
fn chain_cache(cfg: &ProtocolConfig, len: usize, siblings: u32) -> (TrustCache, Digest) {
    let kp = KeyPair::from_seed(9);
    let root = Digest::from_bytes([7; 32]);
    let mut cache = TrustCache::new();
    let mut parent = root;
    for i in 0..len {
        let sibling = |k: u32| {
            let mut bytes = [0xaa; 32];
            bytes[..8].copy_from_slice(&(i as u64 * 64 + u64::from(k)).to_le_bytes());
            DigestEntry {
                origin: NodeId(k),
                digest: Digest::from_bytes(bytes),
            }
        };
        let mut digests: Vec<DigestEntry> = (0..siblings).map(sibling).collect();
        digests.push(DigestEntry {
            origin: NodeId((i as u32).wrapping_sub(1) % 16),
            digest: parent,
        });
        let block = DataBlock::create(
            cfg,
            BlockId::new(NodeId(i as u32 % 16), i as u32 / 16),
            i as u64,
            digests,
            BlockBody::new(vec![i as u8], cfg.body_bits),
            &kp,
        );
        parent = block.header_digest();
        cache.insert(trusted(block));
    }
    (cache, root)
}

/// One-entry headers over growing caches, then 128 headers at the paper's
/// density (19 entries, the parent's last): every step confirms its hit
/// against the full digest, so a confirmation that scans the list shows
/// in the `paper_density` row and not in the others. Each of those walks
/// to the 64-step budget; `first_17_of_128` takes the γ + 1 = 17 steps a
/// validator consumes before its proof is complete, so a walk that looks
/// up steps nobody asked for shows there.
fn bench_tps(c: &mut Criterion) {
    let cfg = ProtocolConfig::test_default();
    let mut group = c.benchmark_group("tps_extend");
    let cases = [
        ("16", 16usize, 0, 64),
        ("128", 128, 0, 64),
        ("1024", 1024, 0, 64),
        ("paper_density", 128, 18, 64),
        ("first_17_of_128", 128, 18, 17),
    ];
    for (name, len, siblings, taken) in cases {
        let (cache, root) = chain_cache(&cfg, len, siblings);
        group.bench_with_input(BenchmarkId::from_parameter(name), &cache, |b, cache| {
            let skip = HashSet::new();
            b.iter(|| {
                tps::extend(black_box(cache), black_box(&root), &skip, 64)
                    .take(taken)
                    .count()
            });
        });
    }
    group.finish();
}

/// What trusting a header costs a cache with an arena of its own, plus the
/// one header hash `insert` computes and a PoP run already holds: headers
/// at the paper's density (each contains its owner's previous digest and 18
/// neighbors') filling a cache of 1 000. The 1 000 are a random tenth of
/// 200 slots of a 50-node deployment, in random order — what a validator
/// holds after its PoPs, where a contained digest has one or two cached
/// children and not all nineteen.
///
/// `shared_50` is the engine's side: 50 members of one arena, each
/// trusting 200 headers of a pool of 2 500 (each header in ~4 caches, the
/// sharing a 50-node `engine_mem` run shows), committed the way the verify
/// phase commits — 20 rounds, one batch of 10 per member each. Digests are
/// precomputed, as a PoP run holds them, so the row pays no header hash;
/// its throughput counts (member, header) pairs.
fn bench_trust_cache_insert(c: &mut Criterion) {
    const NODES: u32 = 50;
    const SLOTS: u32 = 200;
    const SHARED_POOL: usize = 2_500;
    const PER_MEMBER: usize = 200;
    const ROUNDS: usize = 20;
    let cfg = ProtocolConfig::test_default();
    let mut headers: Vec<TrustedHeader> = Vec::with_capacity((NODES * SLOTS) as usize);
    let mut previous: Vec<Digest> = (0..NODES)
        .map(|n| Digest::from_bytes([n as u8; 32]))
        .collect();
    for slot in 0..SLOTS {
        let blocks: Vec<DataBlock> = (0..NODES)
            .map(|owner| {
                let digests = (0..19)
                    .map(|k| (owner + NODES - 9 + k) % NODES)
                    .map(|origin| DigestEntry {
                        origin: NodeId(origin),
                        digest: previous[origin as usize],
                    })
                    .collect::<Vec<_>>();
                DataBlock::create(
                    &cfg,
                    BlockId::new(NodeId(owner), slot),
                    u64::from(slot),
                    digests,
                    BlockBody::new(vec![owner as u8], cfg.body_bits),
                    &KeyPair::from_seed(u64::from(owner)),
                )
            })
            .collect();
        previous = blocks.iter().map(DataBlock::header_digest).collect();
        headers.extend(blocks.into_iter().map(trusted));
    }
    let mut rng = DetRng::seed_from(3);
    rng.shuffle(&mut headers);
    // Batches of 10 per member and round, each member's 200 a random draw
    // from the pool without repeats.
    let rounds: Vec<Vec<(usize, FreshHeaders)>> = {
        let pool = &headers[..SHARED_POOL];
        let trusts: Vec<Vec<TrustedHeader>> = (0..NODES as usize)
            .map(|_| {
                let mut picks: Vec<usize> = (0..SHARED_POOL).collect();
                rng.shuffle(&mut picks);
                picks[..PER_MEMBER]
                    .iter()
                    .map(|&i| pool[i].clone())
                    .collect()
            })
            .collect();
        let batch = PER_MEMBER / ROUNDS;
        (0..ROUNDS)
            .map(|round| {
                let chunk = |set: &Vec<TrustedHeader>| -> FreshHeaders {
                    set[round * batch..(round + 1) * batch]
                        .iter()
                        .cloned()
                        .collect()
                };
                trusts.iter().map(chunk).enumerate().collect()
            })
            .collect()
    };
    headers.truncate(1_000);

    let mut group = c.benchmark_group("trust_cache_insert");
    group.throughput(Throughput::Elements(headers.len() as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("paper_density"),
        &headers,
        |b, headers| {
            b.iter(|| {
                let mut cache = TrustCache::new();
                headers.iter().cloned().for_each(|t| cache.insert(t));
                cache
            });
        },
    );
    group.throughput(Throughput::Elements((NODES as usize * PER_MEMBER) as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("shared_50"),
        &rounds,
        |b, rounds| {
            b.iter(|| {
                let mut arena = Arc::new(HeaderArena::default());
                let mut members: Vec<TrustCache> =
                    (0..NODES).map(|_| TrustCache::member_of(&arena)).collect();
                for batches in rounds {
                    let mut caches: Vec<&mut TrustCache> = members.iter_mut().collect();
                    HeaderArena::commit(&mut arena, &mut caches, batches.iter().cloned());
                }
                (arena, members)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_wps, bench_tps, bench_trust_cache_insert);
criterion_main!(benches);
