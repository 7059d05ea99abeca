//! The slot engine's verification-target pool, built once a slot before any
//! PoP runs: the scan it replaced (every qualifying block of every chain,
//! listed from `iter_meta`) against the per-owner seq ranges `TargetPool`
//! takes from one `generated_through` lookup per node. 50 nodes, the paper's
//! `RandomPast { min_age_slots: 50 }` workload, chains of 100 and 1 000
//! blocks in memory (`BlockStore`) and on disk (`DurableStore`). The scan
//! grows with the chains; the ranges should not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TargetPool;
use tldag_core::node::LedgerNode;
use tldag_core::store::{BlockBackend, BlockStore};
use tldag_core::workload::VerificationWorkload;
use tldag_core::{BlockBody, BlockId, DataBlock};
use tldag_crypto::schnorr::KeyPair;
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DurableStore, StorageOptions};

const NODES: u32 = 50;
const WORKLOAD: VerificationWorkload = VerificationWorkload::RandomPast { min_age_slots: 50 };

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tldag-bench-targets-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `NODES` nodes whose chains hold one block per slot `0..len`, in stores
/// `backend` opens.
fn network(len: u32, mut backend: impl FnMut(NodeId) -> Box<dyn BlockBackend>) -> Vec<LedgerNode> {
    let cfg = ProtocolConfig::test_default();
    (0..NODES)
        .map(NodeId)
        .map(|id| {
            let mut node = LedgerNode::with_backend(id, Vec::new(), &cfg, backend(id));
            let keypair = KeyPair::from_seed(u64::from(id.0));
            for seq in 0..len {
                let body = BlockBody::new(vec![seq as u8; 16], cfg.body_bits);
                let block = DataBlock::create(
                    &cfg,
                    BlockId::new(id, seq),
                    seq.into(),
                    vec![],
                    body,
                    &keypair,
                );
                node.store_mut().append(block).unwrap();
            }
            node
        })
        .collect()
}

/// The pool as the engine used to build it: every qualifying block, owners
/// ascending, with where each owner's blocks start and how many there are.
fn scan(nodes: &[LedgerNode], now: u64) -> (Vec<BlockId>, Vec<(usize, usize)>) {
    let mut candidates = Vec::new();
    let mut spans = Vec::with_capacity(nodes.len());
    for node in nodes {
        let start = candidates.len();
        candidates.extend(
            (node.store().iter_meta())
                .filter(|&(_, time)| WORKLOAD.qualifies(time, now))
                .map(|(id, _)| id),
        );
        spans.push((start, candidates.len() - start));
    }
    (candidates, spans)
}

fn bench_target_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("target_pool");
    group.sample_size(20);
    for len in [100u32, 1_000] {
        let disk_dir = scratch(&len.to_string());
        let stores: [(&str, Vec<LedgerNode>); 2] = [
            ("memory", network(len, |_| Box::new(BlockStore::new()))),
            (
                "durable",
                network(len, |id| {
                    let dir = disk_dir.join(format!("node-{}", id.0));
                    Box::new(DurableStore::open(dir, StorageOptions::default()).unwrap())
                }),
            ),
        ];
        let now = u64::from(len);
        let departed = vec![false; NODES as usize];
        for (backend, nodes) in &stores {
            // Both pools hand every validator the same target.
            let (candidates, spans) = scan(nodes, now);
            let pool = TargetPool::new(nodes, &departed, WORKLOAD, now);
            for (validator, &(start, own)) in spans.iter().enumerate() {
                let validator = NodeId(validator as u32);
                let mut others = candidates.clone();
                others.drain(start..start + own);
                let mut rng = DetRng::seed_from(u64::from(validator.0));
                let expect = rng.clone().choose(&others).copied();
                assert_eq!(pool.choose(validator, &mut rng), expect);
            }

            let id = |pool: &str| BenchmarkId::new(format!("{pool}/{backend}"), len);
            group.bench_function(id("scan"), |b| b.iter(|| black_box(scan(nodes, now))));
            group.bench_function(id("ranges"), |b| {
                b.iter(|| black_box(TargetPool::new(nodes, &departed, WORKLOAD, now)))
            });
        }
        drop(stores);
        let _ = std::fs::remove_dir_all(&disk_dir);
    }
    group.finish();
}

criterion_group!(benches, bench_target_pool);
criterion_main!(benches);
