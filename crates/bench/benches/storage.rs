//! Micro-benchmarks for the `tldag-storage` durable engine: append
//! throughput (the block-generation hot path), indexed lookups, and reopen
//! (crash-recovery) cost with and without a snapshot. The `paper_density`
//! rows run a chain whose blocks each name 19 digests no other block names,
//! as `S_i` holds them at the paper's scale, so every contained digest is
//! a new chain-index entry: the memory store's append and oldest-child
//! lookup, and a durable reopen that rebuilds the index from the snapshot.
//!
//! The acceptance bar for the engine is ≥ 100k appended blocks/s in release
//! mode — check the `storage_append` throughput column.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;
use tldag_core::config::ProtocolConfig;
use tldag_core::store::{BlockBackend, BlockStore};
use tldag_core::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::sha256::sha256;
use tldag_crypto::Digest;
use tldag_sim::NodeId;
use tldag_storage::{DurableStore, StorageOptions};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tldag-bench-storage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pre-mines `n` chain blocks (mining and signing stay outside the timed
/// loops; the engine sees finished blocks).
fn make_blocks(n: u32) -> Vec<DataBlock> {
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(1);
    let mut prev: Option<Digest> = None;
    (0..n)
        .map(|seq| {
            let digests = prev
                .map(|digest| {
                    vec![DigestEntry {
                        origin: NodeId(1),
                        digest,
                    }]
                })
                .unwrap_or_default();
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(1), seq),
                u64::from(seq),
                digests,
                BlockBody::new(vec![seq as u8; 64], cfg.body_bits),
                &kp,
            );
            prev = Some(block.header_digest());
            block
        })
        .collect()
}

/// Digests per block at the paper's density: 18 neighbours and the own
/// previous block.
const PAPER_DIGESTS: usize = 19;

/// Pre-mines `n` blocks naming [`PAPER_DIGESTS`] digests each: the own
/// previous block and 18 gossiped ones that no other block names.
fn paper_density_blocks(n: u32) -> Vec<DataBlock> {
    let cfg = ProtocolConfig::test_default();
    let kp = KeyPair::from_seed(1);
    let mut prev = Digest::ZERO;
    (0..n)
        .map(|seq| {
            let gossiped = (1..PAPER_DIGESTS as u32).map(|k| DigestEntry {
                origin: NodeId(k),
                digest: sha256(&[seq.to_be_bytes(), k.to_be_bytes()].concat()),
            });
            let own = DigestEntry {
                origin: NodeId(0),
                digest: prev,
            };
            let block = DataBlock::create(
                &cfg,
                BlockId::new(NodeId(0), seq),
                u64::from(seq),
                std::iter::once(own).chain(gossiped).collect::<Vec<_>>(),
                BlockBody::new(vec![seq as u8; 64], cfg.body_bits),
                &kp,
            );
            prev = block.header_digest();
            block
        })
        .collect()
}

fn bench_paper_density(c: &mut Criterion) {
    let n = 1_000u32;
    let blocks = paper_density_blocks(n);
    let mut group = c.benchmark_group("store_append");
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_with_input(
        BenchmarkId::new("paper_density", n),
        &blocks,
        |b, blocks| {
            b.iter(|| {
                let mut store = BlockStore::new();
                for block in blocks {
                    store.append(block.clone()).unwrap();
                }
                store
            });
        },
    );
    group.finish();

    let mut store = BlockStore::new();
    for block in &blocks {
        store.append(block.clone()).unwrap();
    }
    // Every contained digest, in an order that visits the chain's whole
    // length: hits spread over every run of the index.
    let targets: Vec<Digest> = blocks
        .iter()
        .flat_map(|b| b.header.digests.iter().map(|e| e.digest))
        .collect();
    let mut group = c.benchmark_group("store_oldest_child");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("paper_density", n), |b| {
        b.iter(|| {
            i = (i + 7919) % targets.len();
            black_box(store.oldest_child_of(black_box(&targets[i])).unwrap().id)
        });
    });
    group.finish();

    // The chain is shorter than the default snapshot cadence: snapshot it
    // at the sync that ends it.
    let snapshot_every = StorageOptions {
        snapshot_every: n,
        ..opts()
    };
    let dir = scratch("reopen-paper");
    let mut durable = DurableStore::open(&dir, snapshot_every).unwrap();
    for block in &blocks {
        durable.append(block.clone()).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);
    assert!(dir.join("index.snap").exists());
    let mut group = c.benchmark_group("storage_reopen");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_with_input(
        BenchmarkId::new("paper_density_snapshot", n),
        &dir,
        |b, dir| {
            b.iter(|| {
                let store = DurableStore::open(dir, opts()).unwrap();
                assert_eq!(store.len() as u32, n);
                black_box(store.len())
            });
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn opts() -> StorageOptions {
    StorageOptions::default()
}

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_append");
    group.sample_size(10);
    for n in [1_000u32, 10_000] {
        let blocks = make_blocks(n);
        let dir = scratch(&format!("append-{n}"));
        group.throughput(Throughput::Elements(u64::from(n)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &blocks, |b, blocks| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                let mut store = DurableStore::open(&dir, opts()).unwrap();
                for block in blocks {
                    store.append(black_box(block.clone())).unwrap();
                }
                store.sync().unwrap();
                black_box(store.len())
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let n = 20_000u32;
    let blocks = make_blocks(n);
    let dir = scratch("lookup");
    let mut store = DurableStore::open(&dir, opts()).unwrap();
    for block in &blocks {
        store.append(block.clone()).unwrap();
    }
    store.sync().unwrap();
    let digests: Vec<Digest> = blocks.iter().map(|b| b.header_digest()).collect();

    let mut group = c.benchmark_group("storage_lookup");
    group.throughput(Throughput::Elements(1));
    let mut seq = 0u32;
    group.bench_function("get_by_seq", |b| {
        b.iter(|| {
            seq = (seq + 7919) % n;
            black_box(store.get(black_box(seq)).unwrap().id)
        });
    });
    let mut i = 0usize;
    group.bench_function("get_by_digest", |b| {
        b.iter(|| {
            i = (i + 7919) % digests.len();
            black_box(store.by_header_digest(black_box(&digests[i])).unwrap().id)
        });
    });
    group.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_reopen(c: &mut Criterion) {
    let n = 20_000u32;
    let blocks = make_blocks(n);

    // One store whose index snapshot covers the whole log, one with the
    // snapshot removed so reopening must replay every record.
    let dir_snap = scratch("reopen-snap");
    let dir_scan = scratch("reopen-scan");
    for dir in [&dir_snap, &dir_scan] {
        let mut store = DurableStore::open(dir, opts()).unwrap();
        for block in &blocks {
            store.append(block.clone()).unwrap();
        }
        store.sync().unwrap();
        store.sync().unwrap(); // crosses snapshot_every and writes index.snap
    }
    let _ = std::fs::remove_file(dir_scan.join("index.snap"));

    let mut group = c.benchmark_group("storage_reopen");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_with_input(BenchmarkId::new("snapshot", n), &dir_snap, |b, dir| {
        b.iter(|| {
            let store = DurableStore::open(dir, opts()).unwrap();
            assert_eq!(store.len() as u32, n);
            black_box(store.len())
        });
    });
    group.bench_with_input(BenchmarkId::new("full_scan", n), &dir_scan, |b, dir| {
        b.iter(|| {
            let store = DurableStore::open(dir, opts()).unwrap();
            assert_eq!(store.len() as u32, n);
            black_box(store.len())
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir_snap);
    let _ = std::fs::remove_dir_all(&dir_scan);
}

criterion_group!(
    benches,
    bench_append,
    bench_lookup,
    bench_reopen,
    bench_paper_density
);
criterion_main!(benches);
