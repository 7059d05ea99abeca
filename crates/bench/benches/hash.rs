//! Micro-benchmarks for the cryptographic substrate: SHA-256 throughput,
//! Merkle root construction, and Schnorr sign/verify — the per-block costs
//! underlying every 2LDAG operation — plus the CRC-32 that frames every
//! stored record and wire datagram.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tldag_crypto::merkle::{merkle_root, MerkleTree};
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::sha256::{kernel_name, sha256, Sha256};
use tldag_storage::crc32::crc32;

fn bench_sha256(c: &mut Criterion) {
    println!("sha256 kernel: {}", kernel_name());
    let mut group = c.benchmark_group("sha256");
    // One 64-byte block: a cloned midstate absorbs a nonce and is finalised,
    // so padding plus exactly one compression — a puzzle attempt's shape.
    // (`sha256/64` below hashes a 64-byte *message*: two compressions.)
    let mut midstate = Sha256::new();
    midstate.update(&[0xabu8; 64 + 40]);
    group.throughput(Throughput::Bytes(64));
    group.bench_function("64B", |b| {
        b.iter(|| {
            let mut attempt = black_box(&midstate).clone();
            attempt.update(&black_box(7u64).to_be_bytes());
            attempt.finalize()
        });
    });
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let data = vec![0xabu8; 1024];
    let mut group = c.benchmark_group("crc32");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("1KiB", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle_root");
    for leaves in [8usize, 64, 512] {
        let data: Vec<Vec<u8>> = (0..leaves).map(|i| vec![i as u8; 64]).collect();
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &data, |b, data| {
            b.iter(|| merkle_root(black_box(data.iter())));
        });
    }
    group.finish();
}

fn bench_merkle_proof(c: &mut Criterion) {
    let data: Vec<Vec<u8>> = (0..256usize).map(|i| vec![i as u8; 64]).collect();
    let tree = MerkleTree::build(data.iter());
    let root = tree.root();
    let proof = tree.proof(100).expect("index in range");
    c.bench_function("merkle_proof_verify_256", |b| {
        b.iter(|| black_box(&proof).verify(black_box(&root), black_box(&data[100])));
    });
}

fn bench_schnorr(c: &mut Criterion) {
    let kp = KeyPair::from_seed(1);
    let msg = [0x5au8; 32];
    c.bench_function("schnorr_sign", |b| {
        b.iter(|| kp.sign(black_box(&msg)));
    });
    let sig = kp.sign(&msg);
    c.bench_function("schnorr_verify", |b| {
        b.iter(|| kp.public().verify(black_box(&msg), black_box(&sig)));
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_crc32,
    bench_merkle,
    bench_merkle_proof,
    bench_schnorr
);
criterion_main!(benches);
