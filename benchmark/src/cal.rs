//! The measurement protocol: a calibration kernel and speed-normalised
//! segments.
//!
//! On a small shared VM identical single-threaded work varies 14–18% from
//! run to run in raw wall-clock, because the host's speed moves (CPU time
//! moves with it, so it is not preemption). A fixed integer kernel run
//! right before and right after a short segment of work sees the same host
//! speed as the segment does; dividing the segment's time by the kernel's
//! removes most of that variation (see `README.md`, "Noise study").
//!
//! A cluster of `NetNode`s saturating every core slows down with the host
//! too, but not in step with an integer loop: a third of its CPU time is
//! system calls and thread wake-ups, whose cost under a hypervisor moves on
//! its own. The work-bound wire workload therefore has a kernel of its own
//! shape, [`wire_cal_once`]: threads passing datagrams round a ring over
//! loopback UDP with integer mixing in between.
//!
//! A chain on disk pays for one `fdatasync` per node per slot, a quarter of
//! `engine_disk`'s slot, and what an `fdatasync` costs is the hypervisor's
//! block device's business: it sat at 140 us or at 230 us for minutes at a
//! time while the integer kernel did not move. The share of a segment the
//! program spent at its commit point is therefore scaled by a third kernel,
//! [`DiskKernel`]: append a record, `fdatasync`, fifty times.
//!
//! No kernel calls anything in `crates/*`, so no change to the program can
//! move them.

use crate::report::TempDir;
use std::fs::File;
use std::hint::black_box;
use std::net::UdpSocket;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Kernel time every normalised value is scaled to, in milliseconds. A
/// fixed constant: a normalised value reads "what this took on a host
/// where the kernel takes `CAL_REF_MS`".
pub const CAL_REF_MS: f64 = 25.0;

/// Rounds of the kernel's mixing loop (~25 ms on the sizing host).
const CAL_ROUNDS: u32 = 8_800_000;

/// One run of the calibration kernel; returns its wall-clock milliseconds.
///
/// SHA-like shape on purpose (32-bit rotates, adds and xors over eight
/// state words plus a small table walk), since hashing dominates the
/// program's CPU time and the kernel should slow down when it does.
pub fn cal_once() -> f64 {
    let mut table = [0u32; 64];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as u32).wrapping_mul(0x9e37_79b9) ^ 0x85eb_ca6b;
    }
    let mut s: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let started = Instant::now();
    for round in 0..black_box(CAL_ROUNDS) {
        let k = table[(round & 63) as usize];
        let t1 = s[7]
            .wrapping_add(s[4].rotate_right(6) ^ s[4].rotate_right(11) ^ s[4].rotate_right(25))
            .wrapping_add((s[4] & s[5]) ^ (!s[4] & s[6]))
            .wrapping_add(k);
        let t2 = (s[0].rotate_right(2) ^ s[0].rotate_right(13) ^ s[0].rotate_right(22))
            .wrapping_add((s[0] & s[1]) ^ (s[0] & s[2]) ^ (s[1] & s[2]));
        s = [
            t1.wrapping_add(t2),
            s[0],
            s[1],
            s[2],
            s[3].wrapping_add(t1),
            s[4],
            s[5],
            s[6],
        ];
        table[(round & 63) as usize] = k ^ s[0];
    }
    black_box(s);
    started.elapsed().as_secs_f64() * 1e3
}

/// Wire-kernel time every normalised wire value is scaled to, in
/// milliseconds (what it takes on the sizing host).
pub const WIRE_CAL_REF_MS: f64 = 48.0;

/// Threads of the wire kernel: the 4-node cluster runs a dozen, on the same
/// cores.
const WIRE_CAL_THREADS: usize = 8;
/// Datagrams going round at once: more than cores, fewer than threads, so
/// threads park and are woken as the cluster's are.
const WIRE_CAL_TOKENS: usize = 6;
/// Hops all tokens make together (~48 ms on the sizing host).
const WIRE_CAL_HOPS: u32 = 4_000;
/// Mixing rounds per hop: about two thirds of the kernel's CPU time, the
/// share of user time in the cluster's.
const WIRE_CAL_MIX: u32 = 8_000;

/// One run of the wire calibration kernel; returns its wall-clock
/// milliseconds.
///
/// `WIRE_CAL_THREADS` threads, one loopback UDP socket each, stand in a
/// ring. A thread blocks in `recv`, mixes integers, and sends a 1 KiB
/// datagram to the next; `WIRE_CAL_TOKENS` datagrams circulate until
/// `WIRE_CAL_HOPS` hops are done, and the thread that makes the last hop
/// sends everyone a one-byte datagram to stop on.
pub fn wire_cal_once() -> f64 {
    let sockets: Vec<UdpSocket> = (0..WIRE_CAL_THREADS)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("cannot bind a loopback socket"))
        .collect();
    let addrs: Vec<_> = sockets
        .iter()
        .map(|s| s.local_addr().expect("socket address"))
        .collect();
    let hops_left = Arc::new(AtomicU32::new(WIRE_CAL_HOPS));
    let started = Instant::now();
    let threads: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let next = addrs[(i + 1) % WIRE_CAL_THREADS];
            let everyone = addrs.clone();
            let hops_left = Arc::clone(&hops_left);
            std::thread::spawn(move || {
                let mut datagram = [0u8; 1024];
                let mut x = 0x9e37_79b9u32 ^ i as u32;
                // A one-byte datagram means stop.
                while socket.recv(&mut datagram).expect("loopback recv") > 1 {
                    for round in 0..black_box(WIRE_CAL_MIX) {
                        x = x.rotate_left(5) ^ x.wrapping_mul(0x85eb_ca6b).wrapping_add(round);
                    }
                    datagram[0] = x as u8;
                    // Relaxed: the counter publishes nothing but itself. Tokens
                    // still going round after the last hop wrap it; only the
                    // step from 1 to 0 means anything.
                    if hops_left.fetch_sub(1, Ordering::Relaxed) == 1 {
                        for peer in &everyone {
                            socket.send_to(&[0u8], peer).expect("loopback send");
                        }
                    } else {
                        // A token sent to a thread that has already stopped
                        // is refused; that is the kernel's end, not an error.
                        let _ = socket.send_to(&datagram, next);
                    }
                }
                black_box(x);
            })
        })
        .collect();
    let kick = UdpSocket::bind("127.0.0.1:0").expect("cannot bind a loopback socket");
    for token in 0..WIRE_CAL_TOKENS {
        kick.send_to(&[1u8; 1024], addrs[token % WIRE_CAL_THREADS])
            .expect("loopback send");
    }
    for thread in threads {
        thread.join().expect("wire kernel thread panicked");
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Disk-kernel time every device-bound share is scaled to, in milliseconds
/// (what it takes on the sizing host in a quiet minute).
pub const DISK_CAL_REF_MS: f64 = 8.5;

/// Appends and syncs per run of the disk kernel: what one slot of the
/// paper-scale engine does at its commit point.
const DISK_CAL_SYNCS: usize = 50;

/// The disk calibration kernel: one file under `benchmark/out/`, and per run
/// `DISK_CAL_SYNCS` times "append 1 KiB, `fdatasync`", the shape of a
/// durable chain's commit.
pub struct DiskKernel {
    file: File,
    written: u64,
    _dir: TempDir,
}

impl DiskKernel {
    /// A kernel on a fresh file, removed when the kernel is dropped.
    pub fn new() -> Self {
        let dir = TempDir::new("diskcal");
        let file =
            File::create(dir.path().join("log")).expect("cannot create the disk kernel's file");
        DiskKernel {
            file,
            written: 0,
            _dir: dir,
        }
    }

    /// One run; returns its wall-clock milliseconds.
    pub fn once(&mut self) -> f64 {
        let record = [0x5au8; 1024];
        let started = Instant::now();
        for _ in 0..DISK_CAL_SYNCS {
            self.file
                .write_all_at(&record, self.written)
                .expect("disk kernel append");
            self.written += record.len() as u64;
            self.file.sync_data().expect("disk kernel fdatasync");
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// One timed segment of work.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Wall-clock seconds the work took, as measured.
    pub raw_s: f64,
    /// `CAL_REF_MS / mean(kernel before, kernel after)`: multiply a raw
    /// time from this segment by it to speed-normalise it.
    pub scale: f64,
    /// The same for the disk kernel; equal to `scale` when the calibrator
    /// has none, so that a workload without a disk is normalised as a whole.
    pub device_scale: f64,
}

impl Segment {
    /// The segment's speed-normalised seconds, of which `device_s` raw
    /// seconds were spent waiting for the disk.
    pub fn norm_s(&self, device_s: f64) -> f64 {
        (self.raw_s - device_s) * self.scale + device_s * self.device_scale
    }
}

/// Runs segments with the kernel before and after each, and remembers
/// every kernel time for `bench.cal_ms_p50`.
#[derive(Default)]
pub struct Calibrator {
    /// Kernel runs (integer, disk) that just finished, reusable as the next
    /// segment's "before" when nothing ran in between.
    fresh: Option<(Instant, f64, f64)>,
    /// The disk kernel, on the workload that has a disk.
    pub disk: Option<DiskKernel>,
    /// Every kernel time taken, in milliseconds.
    pub cal_ms: Vec<f64>,
    /// Every disk-kernel time taken, in milliseconds.
    pub disk_cal_ms: Vec<f64>,
    /// Every wire-kernel time taken, in milliseconds.
    pub wire_cal_ms: Vec<f64>,
}

impl Calibrator {
    /// Runs the integer kernel, and the disk kernel if there is one (0
    /// otherwise), and remembers their times.
    fn cal(&mut self) -> (f64, f64) {
        let ms = cal_once();
        self.cal_ms.push(ms);
        let disk_ms = self.disk.as_mut().map_or(0.0, DiskKernel::once);
        if self.disk.is_some() {
            self.disk_cal_ms.push(disk_ms);
        }
        (ms, disk_ms)
    }

    /// Runs the wire kernel once and remembers its time.
    pub fn wire_cal(&mut self) -> f64 {
        let ms = wire_cal_once();
        self.wire_cal_ms.push(ms);
        ms
    }

    /// Times `work` as one segment. The closing kernel run of one segment
    /// serves as the opening run of the next when it is under a
    /// millisecond old, which halves the protocol's cost on back-to-back
    /// segments without loosening it.
    pub fn segment<R>(&mut self, work: impl FnOnce() -> R) -> (R, Segment) {
        let before = match self.fresh.take() {
            Some((at, ms, disk_ms)) if at.elapsed().as_micros() < 1_000 => (ms, disk_ms),
            _ => self.cal(),
        };
        let started = Instant::now();
        let out = work();
        let raw_s = started.elapsed().as_secs_f64();
        let after = self.cal();
        self.fresh = Some((Instant::now(), after.0, after.1));
        let scale = CAL_REF_MS / ((before.0 + after.0) / 2.0);
        let device_scale = if self.disk.is_some() {
            DISK_CAL_REF_MS / ((before.1 + after.1) / 2.0)
        } else {
            scale
        };
        let segment = Segment {
            raw_s,
            scale,
            device_scale,
        };
        (out, segment)
    }
}
