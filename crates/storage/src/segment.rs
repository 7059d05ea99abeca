//! The segmented-log core: the file-level machinery under the durable
//! block log ([`crate::log::ShardLog`]).
//!
//! A [`SegmentSet`] owns one directory of numbered append-only segment files
//! (`<prefix>-000000.log`, `<prefix>-000001.log`, …) plus a `LOCK` file, and
//! provides the mechanics the log builds on:
//!
//! * **Rolling** — appends go to the tail segment; when a record would push
//!   the tail past [`StorageOptions::segment_bytes`] the tail is flushed,
//!   `fsync`ed (sealed), and a fresh segment becomes the tail. Records never
//!   span segments.
//! * **Streaming replay** — [`SegmentSet::replay`] walks every live segment
//!   in chunks, decoding CRC-framed records ([`crate::record`]) and handing
//!   each to a caller-supplied visitor. Resident memory stays
//!   `O(chunk + largest record)` no matter how big the log is.
//! * **Torn-tail truncation** — an invalid frame in the **tail** segment is
//!   an expected crash artifact: the file is truncated to the last valid
//!   record boundary. Anything invalid in a sealed segment is reported as
//!   [`TldagError::Corrupt`].
//! * **Retention accounting** — [`SegmentSet::disk_usage_bytes`] and the
//!   retire/delete primitives let the log implement its compaction policy
//!   (which entries survive is *policy* and stays with the log; which bytes
//!   exist on disk is *mechanism* and lives here).
//! * **Single-writer locking** — opening a directory acquires a `LOCK` file
//!   carrying the holder's PID (4 little-endian bytes). A second live handle
//!   on the same directory (same process, or another live process) gets a clear
//!   [`TldagError::Locked`] instead of silently corrupting the log; stale
//!   locks left by dead processes are reclaimed.
//!
//! The log layers per-owner indexes, snapshots, the read cache, the Eq. 2
//! retention budget and the one-fsync-per-batch durability contract on top.

use crate::record::{self, RecordRead};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use tldag_core::error::TldagError;
use tldag_core::DataBlock;

pub use crate::index::RecordLocation;

/// Tuning knobs of the durable block log ([`crate::log::ShardLog`]), for
/// one owner or many alike.
///
/// `snapshot_every` and `cache_blocks` drive the log's index snapshot and
/// decoded-block cache; the remaining fields drive the [`SegmentSet`] core.
#[derive(Clone, Debug)]
pub struct StorageOptions {
    /// Target maximum bytes per segment file (records never span segments).
    pub segment_bytes: u64,
    /// Appends between automatic index snapshots (taken at sync points).
    pub snapshot_every: u32,
    /// Decoded blocks kept in the read cache.
    pub cache_blocks: usize,
    /// Write-buffer size that triggers a (non-fsync) flush to the tail file.
    pub flush_buffer_bytes: usize,
    /// Optional disk budget in bytes; exceeding it triggers compaction at
    /// segment rolls (oldest sealed segments are dropped first).
    pub retain_disk_bytes: Option<u64>,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            segment_bytes: 4 * 1024 * 1024,
            snapshot_every: 1024,
            cache_blocks: 32,
            flush_buffer_bytes: 256 * 1024,
            retain_disk_bytes: None,
        }
    }
}

impl StorageOptions {
    /// Small segments / frequent snapshots, for tests that exercise rolls
    /// and recovery paths quickly.
    pub fn compact_test() -> Self {
        StorageOptions {
            segment_bytes: 4 * 1024,
            snapshot_every: 8,
            cache_blocks: 4,
            flush_buffer_bytes: 512,
            retain_disk_bytes: None,
        }
    }

    /// Sets the retention budget (`None` disables compaction).
    pub fn with_retain_disk_bytes(mut self, budget: Option<u64>) -> Self {
        self.retain_disk_bytes = budget;
        self
    }
}

/// Exclusive directory lock, held for the lifetime of a [`SegmentSet`].
///
/// The lock is a `LOCK` file containing the holder's PID as 4 little-endian
/// bytes, created with `O_EXCL`. The fixed width keeps the directory's size
/// independent of the PID. A lock whose content is not 4 bytes, or whose PID
/// no longer names a live process, is stale (the holder crashed) and is
/// silently reclaimed.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<DirLock, TldagError> {
        let path = dir.join("LOCK");
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => {
                    file.write_all_at(&encode_pid(std::process::id()), 0)
                        .map_err(|e| TldagError::io("write lock file", &e))?;
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let holder = fs::read(&path).ok().and_then(|b| decode_pid(&b));
                    if holder.is_some_and(pid_is_live) {
                        return Err(TldagError::Locked {
                            dir: dir.display().to_string(),
                            holder_pid: holder.unwrap_or(0),
                        });
                    }
                    // Stale lock from a crashed process: reclaim and retry.
                    // A racing remove by another reclaimer is fine — the
                    // loop re-runs the O_EXCL create.
                    match fs::remove_file(&path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == ErrorKind::NotFound => {}
                        Err(e) => return Err(TldagError::io("reclaim stale lock", &e)),
                    }
                }
                Err(e) => return Err(TldagError::io("create lock file", &e)),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn encode_pid(pid: u32) -> [u8; 4] {
    pid.to_le_bytes()
}

/// The PID a `LOCK` file names; `None` for any content but 4 bytes.
fn decode_pid(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// Whether `pid` names a live process. Our own PID is always live (the lock
/// is held by another handle in this very process); otherwise `/proc/<pid>`
/// decides. On a system without procfs every foreign lock is treated as
/// stale — single-writer protection then only covers the same process.
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    Path::new("/proc").is_dir() && Path::new(&format!("/proc/{pid}")).exists()
}

/// Outcome of [`SegmentSet::append_record`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentAppend {
    /// Where the record landed.
    pub location: RecordLocation,
    /// Whether the append sealed the previous tail and started a new
    /// segment — the log hooks its compaction policy here.
    pub rolled: bool,
}

/// A directory of numbered segment files with a write-buffered tail.
///
/// This is the *mechanism* half of the durable block log; see the module docs
/// for the contract. Callers must run [`SegmentSet::replay`] exactly once
/// after [`SegmentSet::open`] (it establishes the valid tail length) before
/// appending.
#[derive(Debug)]
pub struct SegmentSet {
    dir: PathBuf,
    prefix: &'static str,
    segment_bytes: u64,
    flush_buffer_bytes: usize,
    /// Read/write handles, one per live segment (including the tail).
    readers: BTreeMap<u32, File>,
    tail_id: u32,
    /// Bytes of the tail segment already written to the file.
    tail_flushed: u64,
    /// Records appended but not yet written to the file.
    buffer: Vec<u8>,
    /// Physical fsync calls issued so far (`sync_data` on any file).
    fsyncs: u64,
    /// Held for the set's lifetime; dropping releases the directory.
    _lock: DirLock,
}

impl SegmentSet {
    /// Opens (or creates) the segment set in `dir`, acquiring the directory
    /// lock and creating the first segment if none exists. Replay has not
    /// happened yet: call [`SegmentSet::replay`] before appending.
    ///
    /// # Errors
    ///
    /// [`TldagError::Locked`] when another live handle owns the directory,
    /// [`TldagError::Storage`] on I/O failure.
    pub fn open(
        dir: impl Into<PathBuf>,
        prefix: &'static str,
        segment_bytes: u64,
        flush_buffer_bytes: usize,
    ) -> Result<Self, TldagError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| TldagError::io("create storage dir", &e))?;
        let lock = DirLock::acquire(&dir)?;

        let mut ids = Self::list_segments(&dir, prefix)?;
        if ids.is_empty() {
            File::create(Self::path_of(&dir, prefix, 0))
                .map_err(|e| TldagError::io("create first segment", &e))?;
            ids.push(0);
        }
        let mut readers = BTreeMap::new();
        for &id in &ids {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(Self::path_of(&dir, prefix, id))
                .map_err(|e| TldagError::io("open segment", &e))?;
            readers.insert(id, file);
        }
        let tail_id = *ids.last().expect("at least one segment");
        Ok(SegmentSet {
            dir,
            prefix,
            segment_bytes,
            flush_buffer_bytes: flush_buffer_bytes.max(1),
            readers,
            tail_id,
            tail_flushed: 0,
            buffer: Vec::new(),
            fsyncs: 0,
            _lock: lock,
        })
    }

    fn path_of(dir: &Path, prefix: &str, id: u32) -> PathBuf {
        dir.join(format!("{prefix}-{id:06}.log"))
    }

    fn list_segments(dir: &Path, prefix: &str) -> Result<Vec<u32>, TldagError> {
        let mut ids = Vec::new();
        let Ok(entries) = fs::read_dir(dir) else {
            return Ok(ids); // directory does not exist yet
        };
        for entry in entries {
            let entry = entry.map_err(|e| TldagError::io("read storage dir", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix('-'))
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// The directory this set lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live segment ids, ascending (the last one is the tail).
    pub fn segment_ids(&self) -> Vec<u32> {
        self.readers.keys().copied().collect()
    }

    /// The tail segment id.
    pub fn tail_id(&self) -> u32 {
        self.tail_id
    }

    /// The oldest **sealed** segment (never the tail), if any.
    pub fn oldest_sealed(&self) -> Option<u32> {
        self.readers
            .keys()
            .next()
            .copied()
            .filter(|&id| id != self.tail_id)
    }

    /// Current length of segment `id`'s file on disk.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the segment is unknown or cannot be
    /// stat-ed.
    pub fn segment_len(&self, id: u32) -> Result<u64, TldagError> {
        let file = self
            .readers
            .get(&id)
            .ok_or_else(|| TldagError::Storage(format!("unknown segment {id}")))?;
        Ok(file
            .metadata()
            .map_err(|e| TldagError::io("stat segment", &e))?
            .len())
    }

    /// Physical fsync calls issued so far.
    pub fn fsync_count(&self) -> u64 {
        self.fsyncs
    }

    /// Number of live segment files (the tail included).
    pub fn segment_count(&self) -> u64 {
        self.readers.len() as u64
    }

    /// Bytes currently staged in the write buffer.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Total bytes on disk (flushed) plus the pending write buffer.
    pub fn disk_usage_bytes(&self) -> u64 {
        let sealed: u64 = self
            .readers
            .iter()
            .filter(|(&id, _)| id != self.tail_id)
            .filter_map(|(_, f)| f.metadata().ok())
            .map(|m| m.len())
            .sum();
        sealed + self.tail_flushed + self.buffer.len() as u64
    }

    /// Replays the live segments from `start` (a `(segment, offset)` pair;
    /// `None` means the oldest segment from offset 0), handing every valid
    /// record to `visit` in log order. An invalid frame in the tail segment
    /// truncates the file to the last valid boundary; in a sealed segment it
    /// is fatal. Establishes the tail write position — run exactly once
    /// after [`SegmentSet::open`], before any append.
    ///
    /// # Errors
    ///
    /// [`TldagError::Corrupt`] for sealed-segment damage or when `visit`
    /// rejects a record (e.g. an out-of-order sequence number, which no torn
    /// write can produce); [`TldagError::Storage`] on I/O failure. Errors
    /// from `visit` propagate unchanged.
    pub fn replay(
        &mut self,
        start: Option<(u32, u64)>,
        visit: &mut dyn FnMut(DataBlock, RecordLocation) -> Result<(), TldagError>,
    ) -> Result<(), TldagError> {
        let ids = self.segment_ids();
        let (start_segment, start_offset) = start.unwrap_or((ids[0], 0));
        for &id in ids.iter().filter(|&&id| id >= start_segment) {
            let offset = if id == start_segment { start_offset } else { 0 };
            let valid_len = self.replay_segment(id, offset, visit)?;
            if id == self.tail_id {
                self.tail_flushed = valid_len;
            }
        }
        Ok(())
    }

    /// Replays one segment from `offset` in chunks, returning the length of
    /// the valid prefix (truncating the file to it when this is the tail).
    fn replay_segment(
        &mut self,
        id: u32,
        offset: u64,
        visit: &mut dyn FnMut(DataBlock, RecordLocation) -> Result<(), TldagError>,
    ) -> Result<u64, TldagError> {
        const REPLAY_CHUNK: usize = 4 * 1024 * 1024;
        let is_tail = id == self.tail_id;
        let file = self.readers.get(&id).expect("replayed segment exists");
        let file_len = file
            .metadata()
            .map_err(|e| TldagError::io("stat segment", &e))?
            .len();
        let mut window: Vec<u8> = Vec::new();
        let mut window_start = offset.min(file_len); // file offset of window[0]
        let mut parsed = 0usize; // bytes of the window already consumed
        let mut read_to = window_start; // file offset up to which we have read
        loop {
            match record::read_record(&window[parsed..]) {
                RecordRead::Complete { block, consumed } => {
                    let location = RecordLocation {
                        segment: id,
                        offset: window_start + parsed as u64,
                        len: consumed as u32,
                    };
                    visit(block, location)?;
                    parsed += consumed;
                }
                RecordRead::Torn if read_to < file_len => {
                    // The window ends mid-record but the file has more:
                    // drop the parsed prefix and pull in the next chunk.
                    window.drain(..parsed);
                    window_start += parsed as u64;
                    parsed = 0;
                    let take = REPLAY_CHUNK.min((file_len - read_to) as usize);
                    let old_len = window.len();
                    window.resize(old_len + take, 0);
                    file.read_exact_at(&mut window[old_len..], read_to)
                        .map_err(|e| TldagError::io("read segment", &e))?;
                    read_to += take as u64;
                }
                RecordRead::Torn => {
                    // Clean end of the valid prefix (possibly the file end).
                    let valid = window_start + parsed as u64;
                    return self.finish_segment(id, valid, file_len, is_tail, "torn");
                }
                RecordRead::Corrupt(msg) => {
                    let valid = window_start + parsed as u64;
                    return self.finish_segment(id, valid, file_len, is_tail, &msg);
                }
            }
        }
    }

    fn finish_segment(
        &self,
        id: u32,
        valid_len: u64,
        file_len: u64,
        is_tail: bool,
        reason: &str,
    ) -> Result<u64, TldagError> {
        if valid_len == file_len {
            return Ok(valid_len); // clean end of segment, nothing invalid
        }
        if is_tail {
            // Expected crash artifact: discard the invalid tail.
            self.readers[&id]
                .set_len(valid_len)
                .map_err(|e| TldagError::io("truncate torn tail", &e))?;
            Ok(valid_len)
        } else {
            Err(TldagError::Corrupt(format!(
                "sealed segment {id} invalid at offset {valid_len}: {reason}"
            )))
        }
    }

    /// Appends one already-framed record, rolling the tail segment first
    /// when the record would not fit. Returns where the record landed and
    /// whether a roll happened (the compaction-policy hook).
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    pub fn append_record(&mut self, rec: &[u8]) -> Result<SegmentAppend, TldagError> {
        let tail_size = self.tail_flushed + self.buffer.len() as u64;
        let mut rolled = false;
        if tail_size > 0 && tail_size + rec.len() as u64 > self.segment_bytes {
            self.roll_segment()?;
            rolled = true;
        }
        let location = RecordLocation {
            segment: self.tail_id,
            offset: self.tail_flushed + self.buffer.len() as u64,
            len: rec.len() as u32,
        };
        self.buffer.extend_from_slice(rec);
        if self.buffer.len() >= self.flush_buffer_bytes {
            self.flush()?;
        }
        Ok(SegmentAppend { location, rolled })
    }

    /// Seals the tail segment (flush + fsync) and starts a new one.
    fn roll_segment(&mut self) -> Result<(), TldagError> {
        self.flush()?;
        self.readers[&self.tail_id]
            .sync_data()
            .map_err(|e| TldagError::io("sync sealed segment", &e))?;
        self.fsyncs += 1;
        let next = self.tail_id + 1;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(Self::path_of(&self.dir, self.prefix, next))
            .map_err(|e| TldagError::io("create segment", &e))?;
        self.readers.insert(next, file);
        self.tail_id = next;
        self.tail_flushed = 0;
        Ok(())
    }

    /// Writes the buffered tail records to the file (no fsync).
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    pub fn flush(&mut self) -> Result<(), TldagError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let file = self.readers.get(&self.tail_id).expect("tail reader");
        file.write_all_at(&self.buffer, self.tail_flushed)
            .map_err(|e| TldagError::io("flush tail buffer", &e))?;
        self.tail_flushed += self.buffer.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Flushes and fsyncs the tail segment.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the medium fails.
    pub fn sync(&mut self) -> Result<(), TldagError> {
        self.flush()?;
        self.readers[&self.tail_id]
            .sync_data()
            .map_err(|e| TldagError::io("fsync tail", &e))?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Reads the record at `location`, serving it from the staging buffer
    /// when it has not been written out yet. Records are appended and
    /// flushed whole, so a buffered record lies entirely in the buffer.
    ///
    /// # Errors
    ///
    /// [`TldagError::Corrupt`] when the location references a retired
    /// segment or the stored bytes fail the checksum/decode (an indexed
    /// record was valid when written, so any mismatch is real corruption);
    /// [`TldagError::Storage`] on I/O failure.
    pub fn read(&self, location: RecordLocation) -> Result<DataBlock, TldagError> {
        let mut frame = vec![0u8; location.len as usize];
        if location.segment == self.tail_id && location.offset >= self.tail_flushed {
            let start = (location.offset - self.tail_flushed) as usize;
            let end = start + location.len as usize;
            frame.copy_from_slice(&self.buffer[start..end]);
        } else {
            let file = self
                .readers
                .get(&location.segment)
                .ok_or_else(|| TldagError::Corrupt("index references dropped segment".into()))?;
            file.read_exact_at(&mut frame, location.offset)
                .map_err(|e| TldagError::io("read record", &e))?;
        }
        record::decode_indexed(&frame)
    }

    /// Forgets a sealed segment (drops its reader) **without** deleting the
    /// file — callers that must publish metadata first (e.g. an index
    /// snapshot) delete afterwards via [`SegmentSet::delete_segment_file`].
    ///
    /// # Panics
    ///
    /// Panics when asked to retire the tail segment — compaction policies
    /// must never drop the tail.
    pub fn retire_segment(&mut self, id: u32) {
        assert_ne!(id, self.tail_id, "the tail segment cannot be retired");
        self.readers.remove(&id);
    }

    /// Deletes a retired segment's file.
    ///
    /// # Errors
    ///
    /// [`TldagError::Storage`] when the file cannot be removed.
    pub fn delete_segment_file(&self, id: u32) -> Result<(), TldagError> {
        fs::remove_file(Self::path_of(&self.dir, self.prefix, id))
            .map_err(|e| TldagError::io("remove compacted segment", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tldag_core::config::ProtocolConfig;
    use tldag_core::{BlockBody, BlockId};
    use tldag_crypto::schnorr::KeyPair;
    use tldag_sim::NodeId;

    fn block(seq: u32) -> DataBlock {
        let cfg = ProtocolConfig::test_default();
        DataBlock::create(
            &cfg,
            BlockId::new(NodeId(1), seq),
            u64::from(seq),
            vec![],
            BlockBody::new(vec![seq as u8; 32], cfg.body_bits),
            &KeyPair::from_seed(1),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tldag-segment-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_roll_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let records: Vec<Vec<u8>> = (0..20).map(|s| record::encode_record(&block(s))).collect();
        let mut rolled_any = false;
        {
            let mut set = SegmentSet::open(&dir, "seg", 256, 64).unwrap();
            set.replay(None, &mut |_, _| Ok(())).unwrap();
            for rec in &records {
                rolled_any |= set.append_record(rec).unwrap().rolled;
            }
            set.sync().unwrap();
            assert!(set.fsync_count() > 0);
        }
        assert!(rolled_any, "small segments must roll");
        let mut set = SegmentSet::open(&dir, "seg", 256, 64).unwrap();
        let mut seqs = Vec::new();
        set.replay(None, &mut |b, loc| {
            assert!(loc.len > 0);
            seqs.push(b.id.seq);
            Ok(())
        })
        .unwrap();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        drop(set);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_live_handle_is_locked_out() {
        let dir = temp_dir("lock");
        let first = SegmentSet::open(&dir, "seg", 1 << 20, 64).unwrap();
        let err = SegmentSet::open(&dir, "seg", 1 << 20, 64).unwrap_err();
        assert!(
            matches!(err, TldagError::Locked { .. }),
            "expected Locked, got {err}"
        );
        drop(first);
        // Releasing the first handle frees the directory.
        let third = SegmentSet::open(&dir, "seg", 1 << 20, 64).unwrap();
        drop(third);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // PID 0 never names a live userspace process.
        fs::write(dir.join("LOCK"), b"0").unwrap();
        let set = SegmentSet::open(&dir, "seg", 1 << 20, 64).unwrap();
        drop(set);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_pids_have_one_width_and_round_trip() {
        let (low, high) = (encode_pid(7), encode_pid(4_194_303));
        assert_eq!(low.len(), high.len());
        assert_eq!(decode_pid(&low), Some(7));
        assert_eq!(decode_pid(&high), Some(4_194_303));
        assert_eq!(decode_pid(b"12345"), None, "the old decimal form is stale");
    }

    #[test]
    fn torn_tail_is_truncated_but_sealed_damage_is_fatal() {
        let dir = temp_dir("torn");
        {
            let mut set = SegmentSet::open(&dir, "seg", 1 << 20, 1).unwrap();
            set.replay(None, &mut |_, _| Ok(())).unwrap();
            for s in 0..3 {
                set.append_record(&record::encode_record(&block(s)))
                    .unwrap();
            }
            set.sync().unwrap();
        }
        // Tear the tail mid-record: recovery truncates.
        let seg = dir.join("seg-000000.log");
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let mut set = SegmentSet::open(&dir, "seg", 1 << 20, 1).unwrap();
        let mut count = 0;
        set.replay(None, &mut |_, _| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 2, "torn record discarded");
        assert!(
            fs::metadata(&seg).unwrap().len() < len - 5,
            "file truncated"
        );
        drop(set);

        // The same damage in a sealed segment is fatal.
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        fs::write(dir.join("seg-000001.log"), b"").unwrap();
        let mut set = SegmentSet::open(&dir, "seg", 1 << 20, 1).unwrap();
        let err = set.replay(None, &mut |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, TldagError::Corrupt(_)), "{err}");
        drop(set);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retire_and_delete_shrink_disk_usage() {
        let dir = temp_dir("retire");
        let mut set = SegmentSet::open(&dir, "seg", 128, 1).unwrap();
        set.replay(None, &mut |_, _| Ok(())).unwrap();
        for s in 0..12 {
            set.append_record(&record::encode_record(&block(s)))
                .unwrap();
        }
        set.sync().unwrap();
        let before = set.disk_usage_bytes();
        let oldest = set.oldest_sealed().expect("rolls happened");
        set.retire_segment(oldest);
        set.delete_segment_file(oldest).unwrap();
        assert!(set.disk_usage_bytes() < before);
        assert!(set
            .read(RecordLocation {
                segment: oldest,
                offset: 0,
                len: 8
            })
            .is_err());
        drop(set);
        fs::remove_dir_all(&dir).unwrap();
    }
}
