//! Micro-benchmarks for the cryptographic substrate: SHA-256 throughput,
//! Merkle root construction, the Eq. 5 nonce search over header-sized
//! prefixes, and Schnorr sign/verify — the per-block costs underlying every
//! 2LDAG operation — plus the CRC-32 that frames every stored record and
//! wire datagram.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tldag_crypto::merkle::{merkle_root, MerkleTree};
use tldag_crypto::puzzle;
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::sha256::{kernel_name, sha256, Sha256};
use tldag_storage::crc32::crc32;

fn bench_sha256(c: &mut Criterion) {
    println!("sha256 kernel: {}", kernel_name());
    let mut group = c.benchmark_group("sha256");
    // One 64-byte block: a cloned midstate absorbs eight bytes and is
    // finalised, so padding plus exactly one compression — the latency of
    // one compression (`puzzle/*` below runs two per pass). (`sha256/64`
    // below hashes a 64-byte *message*: two compressions.)
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

/// Hashers that have absorbed the puzzle prefix of 64 `entries`-entry
/// headers (`root ‖ (origin ‖ digest) × entries`, as `DataBlock::create`
/// absorbs it), each with its own root, so a row is the mean of 64
/// searches rather than one draw of a geometric distribution.
fn header_midstates(entries: u32) -> Vec<Sha256> {
    (0..64u32)
        .map(|i| {
            let mut h = Sha256::new();
            h.update(sha256(&i.to_be_bytes()).as_bytes());
            for origin in 0..entries {
                h.update(&origin.to_be_bytes());
                h.update(sha256(&[i.to_be_bytes(), origin.to_be_bytes()].concat()).as_bytes());
            }
            h
        })
        .collect()
}

fn bench_puzzle(c: &mut Criterion) {
    let mut group = c.benchmark_group("puzzle");
    // 19 entries leave a 12-byte tail: nonce and padding fit one block.
    // 22 entries leave 56 bytes: the length spills into a second block.
    for entries in [19u32, 22] {
        let midstates = header_midstates(entries);
        let mut next = 0;
        group.bench_function(format!("header{entries}_d6"), |b| {
            b.iter(|| {
                next = (next + 1) % midstates.len();
                puzzle::solve_midstate(black_box(&midstates[next]), 6, 0)
            });
        });
    }
    group.finish();
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
    bench_puzzle,
    bench_schnorr
);
criterion_main!(benches);
