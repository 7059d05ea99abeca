//! The per-layer ledger: one micro-operation per public entry point an
//! optimisation is likely to touch, in `crypto`, `core`, `storage`, `net`,
//! `obs` and `sim`.
//!
//! Same protocol as the workloads: a *round* runs every micro-operation
//! once (a fixed batch each, ~0.3 s in all) between two runs of the
//! calibration kernel, each value is speed-normalised by its round, and
//! the ledger reports the median across rounds. The one exception is the
//! endpoint round trip, which needs two threads and is therefore raw.
//!
//! The fixtures are real: blocks, headers and digests come out of a
//! paper-scale engine run on the seed's deployment, so a block has the
//! ~18 digest entries and 1 KiB body the workloads' blocks have.

use crate::cal::Calibrator;
use crate::engine::{EDGES, GAMMA, NODES};
use crate::inputs::{audit_target, deployment_seeds, SIDE_M};
use crate::report::{Metric, TempDir};
use crate::stats::{median, quantile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tldag_core::block::{BlockBody, BlockId, DataBlock};
use tldag_core::codec::{self, WireMessage};
use tldag_core::config::ProtocolConfig;
use tldag_core::network::TldagNetwork;
use tldag_core::node::LedgerNode;
use tldag_core::pop::validator::registered_key;
use tldag_core::store::{BlockBackend, BlockStore};
use tldag_core::workload::VerificationWorkload;
use tldag_crypto::schnorr::KeyPair;
use tldag_crypto::{merkle, puzzle, sha256, Digest};
use tldag_net::envelope::{self, Kind};
use tldag_net::frag::Reassembler;
use tldag_net::runtime::{deployment_protocol_config, deployment_topology, serve_wire_request};
use tldag_net::{Endpoint, EndpointConfig, Inbound};
use tldag_obs::{EventKind, Journal, LatencyHistogram, SpanEvent, SpanKind, SpanStore};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::{DetRng, NodeId};
use tldag_storage::{DurableStore, ShardLog, ShardedNodeStore, StorageOptions};

/// Rounds of the ledger at the reference run length.
const ROUNDS: usize = 16;
/// Slots the fixture network runs: enough that blocks over |V| slots old
/// exist to walk to.
const FIXTURE_SLOTS: u64 = NODES as u64 + 6;
/// Blocks per storage batch; eight batches (and eight syncs) per round.
const STORE_BATCH: usize = 64;

/// One value a round produced: `(metric, value in the metric's unit,
/// speed-normalise?)`.
type Sample = (&'static str, f64, bool);

/// Times `ops` calls of `op` and returns the mean cost of one in
/// nanoseconds.
fn ns_per_op(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..ops {
        op(i);
    }
    started.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// One node's chain served over a real socket by a benchmark-owned
/// receiver thread, through the program's own `serve_wire_request`.
struct Responder {
    /// The endpoint requests go to (and, for the requester, come from).
    endpoint: Arc<Endpoint>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Responder {
    /// Binds a fresh loopback socket and serves `node` on it.
    fn spawn(node: Arc<LedgerNode>) -> Responder {
        let config = EndpointConfig {
            // A short park so dropping the responder does not wait out the
            // default 250 ms; it still wakes at once on traffic.
            park_timeout: Duration::from_millis(20),
            ..EndpointConfig::default()
        };
        let listen: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
        let endpoint =
            Arc::new(Endpoint::bind(node.id(), listen, config).expect("cannot bind a responder"));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let endpoint = Arc::clone(&endpoint);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handler = |inbound: Inbound| {
                    if let Inbound::Wire { src, seq, msg, .. } = inbound {
                        if let Some(reply) = serve_wire_request(&node, &msg) {
                            let _ = endpoint.send_reply(src, seq, &reply);
                        }
                    }
                };
                endpoint.run_receiver(&stop, &mut handler);
            })
        };
        Responder {
            endpoint,
            stop,
            thread: Some(thread),
        }
    }

    /// The socket address the responder listens on.
    fn addr(&self) -> SocketAddr {
        self.endpoint.local_addr().expect("responder address")
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Copies `id`'s chain out of `net` into a standalone node a [`Responder`]
/// can serve.
fn standalone_node(net: &TldagNetwork, id: NodeId) -> Arc<LedgerNode> {
    let mut node = LedgerNode::new(id, net.topology().neighbors(id).to_vec(), net.config());
    for block in net.node(id).store().iter() {
        node.store_mut()
            .append(block)
            .expect("copying a chain in order");
    }
    Arc::new(node)
}

/// Everything the micro-operations work on.
struct Fixtures {
    seed: u64,
    cfg: ProtocolConfig,
    /// Paper-scale network with TPS off, so every audit is a cold walk.
    cold: TldagNetwork,
    /// Node 0's chain, repeated with fresh sequence numbers to
    /// `8 × STORE_BATCH` blocks.
    chain: Vec<DataBlock>,
    /// A populated memory store over `chain`.
    store: BlockStore,
    /// Digests that have children in `store`.
    parents: Vec<Digest>,
    keypair: KeyPair,
    encoded_block: Vec<u8>,
    /// A `RPY_CHILD`-sized message payload (fits one datagram).
    small_payload: Vec<u8>,
    /// A full-block message payload (needs two fragments).
    block_payload: Vec<u8>,
    small_datagram: Vec<u8>,
    responder: Responder,
    requester: Responder,
    request: WireMessage,
    out: TempDir,
}

impl Fixtures {
    fn new(seed: u64) -> Self {
        let seed = deployment_seeds(seed, NODES, EDGES, GAMMA, 1).seeds[0];
        let topology = deployment_topology(seed, NODES, SIDE_M);
        let mut cfg = deployment_protocol_config(GAMMA);
        cfg.enable_tps = false;
        let schedule = GenerationSchedule::uniform(topology.len());
        let mut cold = TldagNetwork::new(cfg, topology, schedule, seed);
        cold.set_verification_workload(VerificationWorkload::Disabled);
        cold.run_slots(FIXTURE_SLOTS);

        let own: Vec<DataBlock> = cold.node(NodeId(0)).store().iter().collect();
        // Skip the first blocks: they were generated before every
        // neighbour's digest had arrived and are smaller than the rest.
        let full = &own[2..];
        let chain: Vec<DataBlock> = (0..8 * STORE_BATCH)
            .map(|seq| {
                let mut block = full[seq % full.len()].clone();
                block.id.seq = seq as u32;
                block
            })
            .collect();
        let mut store = BlockStore::new();
        for block in &chain {
            store
                .append(block.clone())
                .expect("fixture chain is in order");
        }
        let parents: Vec<Digest> = full
            .iter()
            .filter_map(|b| b.header.digests.first().map(|e| e.digest))
            .collect();
        let sample = full[full.len() - 1].clone();
        let encoded_block = codec::encode_block(&sample);
        let request = WireMessage::ReqChild {
            from: NodeId(1),
            target: parents[parents.len() - 1],
        };
        let reply = serve_wire_request(cold.node(NodeId(0)), &request)
            .unwrap_or(WireMessage::Nack { from: NodeId(0) });
        let small_payload = codec::encode_message(&reply);
        let block_payload = codec::encode_message(&WireMessage::Block(Box::new(sample)));
        let small_datagram = envelope::encode_message(
            Kind::Wire,
            NodeId(0),
            7,
            0,
            &small_payload,
            envelope::DEFAULT_MTU,
        )
        .expect("a header reply fits the MTU")
        .remove(0);
        let responder = Responder::spawn(standalone_node(&cold, NodeId(0)));
        let requester = Responder::spawn(standalone_node(&cold, NodeId(1)));
        Fixtures {
            seed,
            cfg,
            cold,
            chain,
            store,
            parents,
            keypair: KeyPair::from_seed(0),
            encoded_block,
            small_payload,
            block_payload,
            small_datagram,
            responder,
            requester,
            request,
            out: TempDir::new("layers"),
        }
    }

    fn crypto(&self, out: &mut Vec<Sample>) {
        let kib = vec![0xa5u8; 1024];
        out.push((
            "crypto.sha256_1k_ns",
            ns_per_op(1500, |_| {
                black_box(sha256::sha256(black_box(&kib)));
            }),
            true,
        ));
        let chunk = self.cfg.merkle_chunk_bytes;
        out.push((
            "crypto.merkle_root_1k_us",
            ns_per_op(200, |_| {
                black_box(merkle::merkle_root(black_box(&kib).chunks(chunk)));
            }) / 1e3,
            true,
        ));
        // The same 100 prefixes every round: identical work.
        out.push((
            "crypto.puzzle_d6_us",
            ns_per_op(100, |i| {
                let prefix = (i as u64).to_be_bytes();
                black_box(puzzle::solve(&prefix, 6, 0));
            }) / 1e3,
            true,
        ));
        let message = sha256::sha256(&kib);
        out.push((
            "crypto.schnorr_sign_us",
            ns_per_op(200, |_| {
                black_box(self.keypair.sign(black_box(message.as_bytes())));
            }) / 1e3,
            true,
        ));
        let signature = self.keypair.sign(message.as_bytes());
        let public = self.keypair.public();
        out.push((
            "crypto.schnorr_verify_us",
            ns_per_op(200, |_| {
                black_box(public.verify(black_box(message.as_bytes()), &signature));
            }) / 1e3,
            true,
        ));
    }

    fn core(&mut self, out: &mut Vec<Sample>) {
        let template = self.chain[self.chain.len() - 1].clone();
        // The puzzle covers the body's Merkle root and the digests, not the
        // slot, so each block gets its own payload: otherwise all of them
        // would repeat one nonce search and the cost would be one draw of
        // a geometric distribution instead of the mean of a hundred.
        let payloads: Vec<Vec<u8>> = (0..100u32)
            .map(|i| {
                let mut payload = template.body.payload.to_vec();
                payload.extend_from_slice(&i.to_be_bytes());
                payload
            })
            .collect();
        out.push((
            "core.block_create_us",
            ns_per_op(payloads.len(), |i| {
                black_box(DataBlock::create(
                    &self.cfg,
                    BlockId::new(NodeId(0), i as u32),
                    i as u64,
                    template.header.digests.clone(),
                    BlockBody::new(payloads[i].clone(), self.cfg.body_bits),
                    &self.keypair,
                ));
            }) / 1e3,
            true,
        ));
        let public = registered_key(NodeId(0));
        out.push((
            "core.block_validate_us",
            ns_per_op(100, |_| {
                black_box(template.validate(&self.cfg, &public)).expect("fixture block is valid");
            }) / 1e3,
            true,
        ));
        let mut pending = self.chain.clone();
        pending.reverse();
        let mut fresh = BlockStore::new();
        out.push((
            "core.store_append_ns",
            ns_per_op(self.chain.len(), |_| {
                fresh
                    .append(pending.pop().expect("one block per append"))
                    .expect("in order");
            }),
            true,
        ));
        let len = self.store.len();
        out.push((
            "core.store_get_ns",
            ns_per_op(4000, |i| {
                black_box(self.store.get((i * 7 % len) as u32));
            }),
            true,
        ));
        out.push((
            "core.store_oldest_child_ns",
            ns_per_op(4000, |i| {
                black_box(
                    self.store
                        .oldest_child_of(&self.parents[i % self.parents.len()]),
                );
            }),
            true,
        ));
        let everyone: Vec<NodeId> = self.cold.topology().node_ids().collect();
        let mut rng = DetRng::seed_from(self.seed).fork(0xc01d);
        let now = self.cold.slot();
        let cold = &mut self.cold;
        out.push((
            "core.pop_cold_walk_us",
            ns_per_op(20, |_| {
                let (validator, target) = audit_target(&mut rng, &everyone, now, NODES as u64);
                let report = cold.run_pop(validator, target, true);
                assert!(report.is_success(), "a cold walk must reach consensus");
            }) / 1e3,
            true,
        ));
        out.push((
            "core.codec_encode_block_ns",
            ns_per_op(2000, |_| {
                black_box(codec::encode_block(black_box(&template)));
            }),
            true,
        ));
        out.push((
            "core.codec_decode_block_ns",
            ns_per_op(2000, |_| {
                black_box(codec::decode_block(black_box(&self.encoded_block)))
                    .expect("fixture block decodes");
            }),
            true,
        ));
    }

    /// One durable backend through its life, as `core` drives it: batched
    /// appends, a sync per batch, reads, and a reopen that replays the
    /// segments. `names` are the append, sync, get and reopen metrics.
    fn store_life(
        &self,
        names: [&'static str; 4],
        open: impl Fn() -> Box<dyn BlockBackend>,
        out: &mut Vec<Sample>,
    ) {
        let mut store = open();
        let batches = self.chain.chunks(STORE_BATCH);
        let n = batches.len() as f64;
        let (mut append_ns, mut sync_ns) = (0.0, 0.0);
        for batch in batches {
            let mut pending = batch.to_vec();
            pending.reverse();
            append_ns += ns_per_op(batch.len(), |_| {
                store
                    .append(pending.pop().expect("one per append"))
                    .expect("append");
            });
            sync_ns += ns_per_op(1, |_| store.sync().expect("sync"));
        }
        let len = store.len();
        let get_ns = ns_per_op(1500, |i| {
            black_box(store.get((i * 7 % len) as u32));
        });
        drop(store);
        let reopen_ns = ns_per_op(1, |_| {
            assert_eq!(open().len(), len, "reopen must recover the whole chain");
        });
        out.push((names[0], append_ns / n, true));
        out.push((names[1], sync_ns / n / 1e3, true));
        out.push((names[2], get_ns, true));
        out.push((names[3], reopen_ns / 1e6, true));
    }

    fn storage(&self, out: &mut Vec<Sample>) {
        let dir = self.out.path().join("durable");
        self.store_life(
            [
                "storage.durable_append_ns",
                "storage.durable_sync_us",
                "storage.durable_get_ns",
                "storage.durable_reopen_ms",
            ],
            || {
                let store = DurableStore::open(&dir, StorageOptions::default());
                Box::new(store.expect("open a durable store"))
            },
            out,
        );
        let _ = std::fs::remove_dir_all(&dir);

        // The same chain through a one-member shard log: the row the
        // "keep one durable backend" decision needs.
        let dir = self.out.path().join("shardlog");
        self.store_life(
            [
                "storage.shardlog_append_ns",
                "storage.shardlog_sync_us",
                "storage.shardlog_get_ns",
                "storage.shardlog_reopen_ms",
            ],
            || {
                let log = ShardLog::open(&dir, StorageOptions::default());
                let log = Arc::new(Mutex::new(log.expect("open a shard log")));
                Box::new(ShardedNodeStore::new(log, NodeId(0)))
            },
            out,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn net(&self, out: &mut Vec<Sample>) {
        let mtu = envelope::DEFAULT_MTU;
        out.push((
            "net.envelope_encode_ns",
            ns_per_op(3000, |i| {
                black_box(envelope::encode_message(
                    Kind::Wire,
                    NodeId(0),
                    i as u64,
                    0,
                    black_box(&self.small_payload),
                    mtu,
                ))
                .expect("fits");
            }),
            true,
        ));
        out.push((
            "net.envelope_decode_ns",
            ns_per_op(3000, |_| {
                black_box(envelope::decode_datagram(black_box(&self.small_datagram)))
                    .expect("fixture datagram decodes");
            }),
            true,
        ));
        let mut reassembler = Reassembler::new(4 << 20);
        out.push((
            "net.frag_roundtrip_us",
            ns_per_op(500, |i| {
                let datagrams = envelope::encode_message(
                    Kind::Wire,
                    NodeId(0),
                    i as u64,
                    0,
                    &self.block_payload,
                    mtu,
                )
                .expect("a block fragments under the MTU");
                let mut whole = None;
                for datagram in &datagrams {
                    let (env, payload) =
                        envelope::decode_datagram(datagram).expect("own datagram decodes");
                    whole = reassembler.offer(&env, payload);
                }
                assert_eq!(whole.as_deref(), Some(&self.block_payload[..]));
            }) / 1e3,
            true,
        ));
        // One requester thread (this one) and one responder thread.
        let to = self.responder.addr();
        let mut rtt_us = Vec::with_capacity(200);
        for _ in 0..200 {
            let started = Instant::now();
            let reply = self.requester.endpoint.request(to, &self.request);
            rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
            assert!(reply.is_some(), "loopback request must be answered");
        }
        out.push(("net.endpoint_rtt_us_p50", quantile(&rtt_us, 0.5), false));
    }

    fn obs_and_sim(&self, out: &mut Vec<Sample>) {
        let histogram = LatencyHistogram::new();
        out.push((
            "obs.hist_record_ns",
            ns_per_op(200_000, |i| histogram.record_micros(black_box(i as u64))),
            true,
        ));
        let journal = Journal::bounded(4096);
        out.push((
            "obs.journal_push_ns",
            ns_per_op(20_000, |i| {
                journal.record(i as u64, EventKind::Other, "bench")
            }),
            true,
        ));
        let spans = SpanStore::bounded(4096);
        out.push((
            "obs.span_record_ns",
            ns_per_op(20_000, |i| {
                spans.record(SpanEvent {
                    slot: i as u64,
                    origin: 0,
                    prefix: i as u64,
                    node: 0,
                    kind: SpanKind::Generated,
                    ts_micros: i as u64,
                });
            }),
            true,
        ));
        out.push((
            "sim.topology_build_ms",
            ns_per_op(40, |i| {
                black_box(deployment_topology(self.seed ^ i as u64, NODES, SIDE_M));
            }) / 1e6,
            true,
        ));
    }

    fn round(&mut self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(40);
        self.crypto(&mut out);
        self.core(&mut out);
        self.storage(&mut out);
        self.net(&mut out);
        self.obs_and_sim(&mut out);
        out
    }
}

/// The unit a ledger metric is reported in, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.contains("_ns") {
        "ns"
    } else if name.contains("_us") {
        "us"
    } else {
        "ms"
    }
}

/// Runs the ledger and returns one metric per micro-operation.
pub fn run(seed: u64, seconds: f64, cal: &mut Calibrator) -> Vec<Metric> {
    let rounds = ((ROUNDS as f64 * seconds / 20.0).round() as usize).max(5);
    let mut fixtures = Fixtures::new(seed);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut raw: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..rounds {
        let (values, seg) = cal.segment(|| fixtures.round());
        for (name, value, normalise) in values {
            let scale = if normalise { seg.scale } else { 1.0 };
            samples.entry(name).or_default().push(value * scale);
            raw.entry(name).or_default().push(value);
        }
    }
    samples
        .iter()
        .map(|(name, values)| {
            Metric::new(*name, median(values), unit_of(name)).note(format!(
                "raw {:.4}; median of {} rounds",
                median(&raw[name]),
                values.len()
            ))
        })
        .collect()
}
