//! Block-generation cost (Sec. III-D): Merkle root + nonce puzzle + signature
//! at several difficulty levels, plus digest-receipt bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tldag_core::config::ProtocolConfig;
use tldag_core::node::LedgerNode;
use tldag_core::store::{BlockBackend, BlockStore};
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::Digest;
use tldag_sim::NodeId;

fn bench_generate_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_block");
    group.sample_size(30);
    for difficulty in [0u8, 4, 8] {
        let cfg = ProtocolConfig::test_default().with_difficulty(difficulty);
        group.bench_with_input(
            BenchmarkId::new("difficulty", difficulty),
            &cfg,
            |b, cfg| {
                let neighbors: Vec<NodeId> = (1..=4).map(NodeId).collect();
                let mut slot = 0u64;
                let mut node = LedgerNode::new(NodeId(0), neighbors, cfg);
                b.iter(|| {
                    let payload = vec![slot as u8; 64];
                    let block = node.generate_block(cfg, slot, black_box(payload)).unwrap();
                    slot += 1;
                    black_box(block.id)
                });
            },
        );
    }
    group.finish();
}

/// Block creation at the paper's density: 18 neighbour digests plus the own
/// previous one (a 716-byte puzzle prefix, 12 SHA-256 compressions), the
/// deployments' difficulty 6 and a 1 KiB body — the shape the repo
/// benchmark's `core.block_create_us` row measures. The `test_default` cases
/// above have a 3-compression prefix, where re-hashing it per nonce never
/// showed.
fn bench_create_paper_density(c: &mut Criterion) {
    let cfg = ProtocolConfig::paper_default()
        .with_body_bits(8 * 1024)
        .with_difficulty(6);
    let keypair = KeyPair::from_seed(0);
    let digests: Arc<[DigestEntry]> = paper_density_digests().into();
    let mut seq = 0u32;
    c.bench_function("create_block/paper_density_d6_1k", |b| {
        b.iter(|| {
            // A fresh payload per block: a new root, so a new nonce search.
            let mut payload = vec![0u8; 1024];
            payload[..4].copy_from_slice(&seq.to_be_bytes());
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(0), seq),
                u64::from(seq),
                black_box(digests.clone()),
                BlockBody::new(payload, cfg.body_bits),
                &keypair,
            );
            seq += 1;
            black_box(block.header.nonce)
        });
    });
}

/// 18 neighbour digests plus the own previous one, own last as
/// `generate_block` orders them.
fn paper_density_digests() -> Vec<DigestEntry> {
    (0..19u32)
        .map(|i| DigestEntry {
            origin: NodeId((i + 1) % 19),
            digest: Digest::from_bytes([i as u8 + 1; 32]),
        })
        .collect()
}

/// Hashing one paper-density header (19 entries, 1 KiB body, difficulty
/// 6): `digest` is the header digest a validator computes per fetched
/// target and accepted `RPY_CHILD`; `validate` is the fetched target's
/// check (Merkle root, pre-sign hash + signature, puzzle). An encoding that
/// feeds the hasher per entry shows in both.
fn bench_header_hash_paper_density(c: &mut Criterion) {
    let cfg = ProtocolConfig::paper_default()
        .with_body_bits(8 * 1024)
        .with_difficulty(6);
    let keypair = KeyPair::from_seed(0);
    let block = DataBlock::create(
        &cfg,
        BlockId::new(NodeId(0), 1),
        1,
        paper_density_digests(),
        BlockBody::new(vec![1u8; 1024], cfg.body_bits),
        &keypair,
    );
    let pk = keypair.public();
    let mut group = c.benchmark_group("header_hash");
    group.bench_function("paper_density/digest", |b| {
        b.iter(|| black_box(&block.header).digest());
    });
    group.bench_function("paper_density/validate", |b| {
        b.iter(|| black_box(&block).validate(&cfg, &pk));
    });
    group.finish();
}

/// Copying a paper-density block, the way `S_i` reads, replies and `H_i`
/// inserts do. The digest list is shared, so a clone is two reference-count
/// bumps; a deep copy of the 684-byte list would show here first.
fn bench_clone_paper_density(c: &mut Criterion) {
    let cfg = ProtocolConfig::paper_default().with_body_bits(8 * 1024);
    let keypair = KeyPair::from_seed(0);
    let mut store = BlockStore::new();
    for seq in 0..64u32 {
        let block = DataBlock::create(
            &cfg,
            BlockId::new(NodeId(0), seq),
            u64::from(seq),
            paper_density_digests(),
            BlockBody::new(vec![seq as u8; 1024], cfg.body_bits),
            &keypair,
        );
        store.append(block).unwrap();
    }
    let block = store.latest().unwrap();
    c.bench_function("block_clone/paper_density", |b| {
        b.iter(|| black_box(black_box(&block).clone()));
    });
    let mut seq = 0u32;
    c.bench_function("store_get/paper_density", |b| {
        b.iter(|| {
            seq = (seq + 1) % 64;
            black_box(store.get(black_box(seq)))
        });
    });
}

fn bench_receive_digest(c: &mut Criterion) {
    let cfg = ProtocolConfig::test_default();
    let mut node = LedgerNode::new(NodeId(0), vec![NodeId(1)], &cfg);
    let digest = tldag_crypto::sha256::sha256(b"neighbor header");
    c.bench_function("receive_digest", |b| {
        b.iter(|| {
            node.begin_slot();
            black_box(node.receive_digest(NodeId(1), black_box(digest)))
        });
    });
}

criterion_group!(
    benches,
    bench_generate_block,
    bench_create_paper_density,
    bench_header_hash_paper_density,
    bench_clone_paper_density,
    bench_receive_digest
);
criterion_main!(benches);
