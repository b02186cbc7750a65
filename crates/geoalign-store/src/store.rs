//! The durable key/value store: an in-memory map backed by the WAL and
//! periodic snapshots.
//!
//! Concurrency contract: reads (`get`, `iter_prefix`, `len`) take only
//! the map's read lock and never touch the disk. Writes serialize on the
//! writer mutex and apply the map update *before* releasing it (WAL
//! append + fsync, then map), so a mutation is visible to readers only
//! after it is durable. `checkpoint` holds the writer mutex for its
//! whole duration, which guarantees the map it snapshots contains every
//! mutation up to the sequence number it records — and keeps that
//! sequence consistent with the segment rotation that follows.

use crate::error::StoreError;
use crate::snapshot::{discard_snapshot, load_snapshot, write_snapshot};
use crate::wal::{
    list_segments, repair_segment, scan_segment, segment_path, Mutation, WalRecord, WalWriter,
    SEGMENT_HEADER_BYTES,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Store::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate to a fresh WAL segment once the current one reaches this
    /// many bytes.
    pub segment_max_bytes: u64,
    /// Fsync every committed append. Disable only in tests and benches
    /// where crash durability is not under test.
    pub fsync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_max_bytes: 64 << 20,
            fsync: true,
        }
    }
}

/// What recovery found and repaired while opening the store.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence number the loaded snapshot covered (0 when none).
    pub snapshot_seq: u64,
    /// Entries restored from the snapshot.
    pub snapshot_records: usize,
    /// Why a present snapshot was discarded, if it was.
    pub snapshot_defect: Option<String>,
    /// WAL segments scanned.
    pub wal_segments: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Corruption events repaired: torn tails truncated, damaged
    /// snapshots discarded.
    pub repairs: usize,
    /// Human-readable description of the torn tail, when one was found.
    pub torn_tail: Option<String>,
    /// Wall time of snapshot load + replay.
    pub replay: Duration,
    /// Highest committed sequence number after recovery.
    pub last_seq: u64,
}

/// Outcome of one [`Store::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Sequence number the new snapshot covers.
    pub seq: u64,
    /// Live entries written into the snapshot.
    pub records: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Old WAL segments deleted after the snapshot committed.
    pub wal_segments_removed: usize,
}

/// Read-only health of one WAL segment, for [`Store::verify`].
#[derive(Debug, Clone)]
pub struct SegmentVerify {
    /// Segment index.
    pub index: u64,
    /// Intact records in the segment.
    pub records: usize,
    /// File size in bytes.
    pub bytes: u64,
    /// First defect found, if any.
    pub defect: Option<String>,
}

/// Read-only integrity report over a store directory, produced without
/// opening (and therefore without repairing) the store.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Whether a snapshot file exists.
    pub snapshot_present: bool,
    /// Why the snapshot failed validation, if it did.
    pub snapshot_defect: Option<String>,
    /// Entries in the snapshot.
    pub snapshot_records: usize,
    /// Sequence number the snapshot covers.
    pub snapshot_seq: u64,
    /// Per-segment health, in index order.
    pub segments: Vec<SegmentVerify>,
    /// Intact WAL records across all segments.
    pub wal_records: usize,
    /// Highest sequence number seen anywhere.
    pub last_seq: u64,
}

impl VerifyReport {
    /// Whether every file in the directory is fully intact.
    pub fn is_clean(&self) -> bool {
        self.snapshot_defect.is_none() && self.segments.iter().all(|s| s.defect.is_none())
    }
}

/// A crash-safe, string-keyed store of opaque byte values.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    map: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    writer: Mutex<WalWriter>,
    seq: AtomicU64,
    recovery: RecoveryReport,
}

impl Store {
    /// Opens (or creates) the store at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) the store at `dir`. Recovery runs here: the
    /// snapshot is loaded (or discarded if damaged), every WAL segment is
    /// scanned, and a torn tail on the **last** segment is truncated in
    /// place — that is the only damage a crash can produce, because
    /// rotation only happens after a completed append. A defect in any
    /// earlier segment is bit rot of durably committed history; repairing
    /// it automatically would silently discard the intact records behind
    /// it, so the open fails instead and leaves every file untouched for
    /// `geoalign store verify` and explicit operator action.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_owned();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io_at("create_dir", &dir, e))?;
        let t0 = Instant::now();
        let mut report = RecoveryReport::default();
        let mut map: HashMap<String, Arc<Vec<u8>>> = HashMap::new();

        let snap = load_snapshot(&dir)?;
        if let Some(defect) = snap.defect {
            report.snapshot_defect = Some(defect);
            report.repairs += 1;
            crate::obs::corruption_repairs().inc();
            discard_snapshot(&dir)?;
        }
        if let Some(data) = snap.data {
            report.snapshot_seq = data.seq;
            report.snapshot_records = data.entries.len();
            report.last_seq = data.seq;
            for (key, value) in data.entries {
                map.insert(key, Arc::new(value));
            }
        }

        let segments = list_segments(&dir)?;
        report.wal_segments = segments.len();
        let mut writer_index = 1;
        for (pos, (index, path)) in segments.iter().enumerate() {
            writer_index = *index;
            let scan = scan_segment(path)?;
            if let Some(defect) = &scan.defect {
                if pos + 1 != segments.len() {
                    // A crash can only tear the tail of the last segment
                    // (rotation happens after a completed append), so a
                    // defect here is bit rot of committed history. Auto-
                    // truncating would discard the intact records behind
                    // it; fail open and leave the files as found.
                    return Err(StoreError::corrupt(format!(
                        "{}: {defect} — segment {} is not the last segment, so this is damage \
                         to durably committed history, not a torn write; refusing to repair \
                         automatically (run `geoalign store verify`, then restore from backup \
                         or remove the damaged files explicitly)",
                        path.display(),
                        index
                    )));
                }
                report.torn_tail = Some(format!("{}: {defect}", path.display()));
                report.repairs += 1;
                crate::obs::corruption_repairs().inc();
                repair_segment(path, &scan)?;
            }
            for record in scan.records {
                if record.seq <= report.snapshot_seq {
                    continue;
                }
                report.last_seq = report.last_seq.max(record.seq);
                report.wal_records_replayed += 1;
                match record.mutation {
                    Mutation::Put { key, value } => {
                        map.insert(key, Arc::new(value));
                    }
                    Mutation::Delete { key } => {
                        map.remove(&key);
                    }
                }
            }
        }

        let writer = WalWriter::open(&dir, writer_index, opts.segment_max_bytes, opts.fsync)?;
        report.replay = t0.elapsed();
        crate::obs::replay_micros().record(report.replay);

        Ok(Store {
            dir,
            opts,
            map: RwLock::new(map),
            seq: AtomicU64::new(report.last_seq),
            recovery: report,
            writer: Mutex::new(writer),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Highest committed sequence number.
    pub fn last_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Looks up `key`. Never touches the disk.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        self.map
            .read()
            .expect("store map lock poisoned")
            .get(key)
            .cloned()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.map
            .read()
            .expect("store map lock poisoned")
            .contains_key(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.read().expect("store map lock poisoned").len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys starting with `prefix`, with their values, sorted by key.
    pub fn iter_prefix(&self, prefix: &str) -> Vec<(String, Arc<Vec<u8>>)> {
        let map = self.map.read().expect("store map lock poisoned");
        let mut out: Vec<(String, Arc<Vec<u8>>)> = map
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Durably inserts or replaces `key`. Returns once the record is
    /// committed to the WAL (fsynced, unless the store was opened with
    /// `fsync: false`).
    pub fn put(&self, key: &str, value: Vec<u8>) -> Result<(), StoreError> {
        self.commit(Mutation::Put {
            key: key.to_owned(),
            value,
        })
    }

    /// Durably removes `key` (a no-op record is still logged when the key
    /// is absent; recovery tolerates it).
    pub fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.commit(Mutation::Delete {
            key: key.to_owned(),
        })
    }

    /// Durably applies every put in `puts`, then every delete in
    /// `deletes`, as consecutive WAL records committed with **one** fsync.
    /// Each record keeps its own sequence number and checksum, so a crash
    /// part-way through recovers to a prefix of the batch: some of the
    /// puts, or all of them and some of the deletes. Callers order their
    /// writes so that every such prefix is a consistent state (the
    /// streaming-ingest compaction writes its covering rollups first).
    pub fn write_batch(
        &self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), StoreError> {
        let mutations = puts
            .into_iter()
            .map(|(key, value)| Mutation::Put { key, value })
            .chain(deletes.into_iter().map(|key| Mutation::Delete { key }))
            .collect();
        self.commit_all(mutations)
    }

    /// Appends and commits one mutation, then applies it to the map.
    fn commit(&self, mutation: Mutation) -> Result<(), StoreError> {
        self.commit_all(vec![mutation])
    }

    /// Appends and commits `mutations` under consecutive sequence numbers
    /// with one fsync, then applies them to the map in order — all while
    /// holding the writer mutex. `checkpoint` holds the same mutex, so it
    /// can never observe sequence `n` without the map containing mutation
    /// `n`; applying the map update after releasing the mutex would let a
    /// checkpoint snapshot an older map at seq `n` and then delete the WAL
    /// segment holding the acknowledged record.
    fn commit_all(&self, mutations: Vec<Mutation>) -> Result<(), StoreError> {
        if mutations.is_empty() {
            return Ok(());
        }
        let mut writer = self.writer.lock().expect("store writer lock poisoned");
        let first = self.seq.load(Ordering::Acquire) + 1;
        let records: Vec<WalRecord> = mutations
            .into_iter()
            .zip(first..)
            .map(|(mutation, seq)| WalRecord { seq, mutation })
            .collect();
        writer.append_all(&records)?;
        let last = first + records.len() as u64 - 1;
        let mut map = self.map.write().expect("store map lock poisoned");
        for record in records {
            match record.mutation {
                Mutation::Put { key, value } => {
                    map.insert(key, Arc::new(value));
                }
                Mutation::Delete { key } => {
                    map.remove(&key);
                }
            }
        }
        drop(map);
        self.seq.store(last, Ordering::Release);
        Ok(())
    }

    /// Compacts the store: writes a snapshot of the live map at the
    /// current sequence number, rotates to a fresh WAL segment, and
    /// deletes the segments the snapshot made redundant.
    pub fn checkpoint(&self) -> Result<CheckpointReport, StoreError> {
        let mut writer = self.writer.lock().expect("store writer lock poisoned");
        let seq = self.seq.load(Ordering::Acquire);
        let mut entries: Vec<(String, Vec<u8>)> = {
            let map = self.map.read().expect("store map lock poisoned");
            map.iter()
                .map(|(k, v)| (k.clone(), v.as_ref().clone()))
                .collect()
        };
        let records = entries.len();
        let snapshot_bytes = write_snapshot(&self.dir, seq, &mut entries)?;
        writer.rotate()?;
        let keep = writer.segment_index();
        let mut removed = 0;
        for (index, path) in list_segments(&self.dir)? {
            if index < keep {
                std::fs::remove_file(&path).map_err(|e| StoreError::io_at("remove", &path, e))?;
                removed += 1;
            }
        }
        crate::obs::checkpoints().inc();
        Ok(CheckpointReport {
            seq,
            records,
            snapshot_bytes,
            wal_segments_removed: removed,
        })
    }

    /// Read-only integrity check of a store directory, without opening
    /// or repairing anything. Safe to run against a directory another
    /// process has open (results are advisory in that case).
    pub fn verify(dir: impl AsRef<Path>) -> Result<VerifyReport, StoreError> {
        let dir = dir.as_ref();
        let mut report = VerifyReport::default();
        let snap = load_snapshot(dir)?;
        report.snapshot_present = snap.data.is_some() || snap.defect.is_some();
        report.snapshot_defect = snap.defect;
        if let Some(data) = snap.data {
            report.snapshot_records = data.entries.len();
            report.snapshot_seq = data.seq;
            report.last_seq = data.seq;
        }
        for (index, path) in list_segments(dir)? {
            let scan = scan_segment(&path)?;
            report.wal_records += scan.records.len();
            for record in &scan.records {
                report.last_seq = report.last_seq.max(record.seq);
            }
            report.segments.push(SegmentVerify {
                index,
                records: scan.records.len(),
                bytes: scan.file_bytes,
                defect: scan.defect,
            });
        }
        Ok(report)
    }

    /// Initialises an empty store directory (creates the first WAL
    /// segment) and returns immediately. Fails if the directory already
    /// holds store files.
    pub fn init(dir: impl AsRef<Path>) -> Result<(), StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io_at("create_dir", dir, e))?;
        if !list_segments(dir)?.is_empty() || load_snapshot(dir)?.data.is_some() {
            return Err(StoreError::io(
                format!("init {}", dir.display()),
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "directory already holds store files",
                ),
            ));
        }
        // The open fsyncs the directory after creating the segment file.
        let _ = WalWriter::open(dir, 1, StoreOptions::default().segment_max_bytes, true)?;
        Ok(())
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }
}

/// True when `dir` looks like a store directory (has a snapshot or at
/// least one WAL segment).
pub fn is_store_dir(dir: impl AsRef<Path>) -> Result<bool, StoreError> {
    let dir = dir.as_ref();
    if !dir.is_dir() {
        return Ok(false);
    }
    Ok(load_snapshot(dir)?.data.is_some()
        || load_snapshot(dir)?.defect.is_some()
        || !list_segments(dir)?.is_empty())
}

// Used by tests and the CLI to point at the first segment for damage
// injection and inspection.
#[doc(hidden)]
pub fn first_segment_path(dir: &Path) -> PathBuf {
    segment_path(dir, 1)
}

#[doc(hidden)]
pub const WAL_HEADER_BYTES: u64 = SEGMENT_HEADER_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geoalign-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast() -> StoreOptions {
        StoreOptions {
            segment_max_bytes: 64 << 20,
            fsync: false,
        }
    }

    #[test]
    fn put_get_delete_survive_reopen() {
        let dir = tmp_dir("basic");
        {
            let store = Store::open_with(&dir, fast()).unwrap();
            store.put("a", b"1".to_vec()).unwrap();
            store.put("b", b"2".to_vec()).unwrap();
            store.put("a", b"3".to_vec()).unwrap();
            store.delete("b").unwrap();
            assert_eq!(store.get("a").unwrap().as_ref(), b"3");
            assert!(store.get("b").is_none());
            assert_eq!(store.len(), 1);
        }
        let store = Store::open_with(&dir, fast()).unwrap();
        assert_eq!(store.get("a").unwrap().as_ref(), b"3");
        assert!(store.get("b").is_none());
        assert_eq!(store.recovery().wal_records_replayed, 4);
        assert_eq!(store.recovery().repairs, 0);
        assert_eq!(store.last_seq(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_replay_resumes_after_it() {
        let dir = tmp_dir("checkpoint");
        {
            let store = Store::open_with(&dir, fast()).unwrap();
            for i in 0..10 {
                store.put(&format!("k{i}"), vec![i as u8; 8]).unwrap();
            }
            let report = store.checkpoint().unwrap();
            assert_eq!(report.seq, 10);
            assert_eq!(report.records, 10);
            assert!(report.snapshot_bytes > 0);
            assert_eq!(report.wal_segments_removed, 1);
            // Mutations after the checkpoint land in the fresh segment.
            store.put("post", b"wal".to_vec()).unwrap();
            store.delete("k0").unwrap();
        }
        let store = Store::open_with(&dir, fast()).unwrap();
        assert_eq!(store.recovery().snapshot_records, 10);
        assert_eq!(store.recovery().snapshot_seq, 10);
        assert_eq!(store.recovery().wal_records_replayed, 2);
        assert_eq!(store.len(), 10); // 10 - k0 + post
        assert!(store.get("post").is_some());
        assert!(store.get("k0").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_batch_commits_in_order_and_a_torn_batch_keeps_a_prefix() {
        let dir = tmp_dir("batch");
        let seg = first_segment_path(&dir);
        let batch = [
            Mutation::Put {
                key: "r".to_owned(),
                value: b"rollup".to_vec(),
            },
            Mutation::Delete {
                key: "p/1".to_owned(),
            },
            Mutation::Delete {
                key: "p/2".to_owned(),
            },
        ];
        let before = {
            let store = Store::open_with(&dir, fast()).unwrap();
            store.put("p/1", b"old".to_vec()).unwrap();
            store.put("p/2", b"two".to_vec()).unwrap();
            let before = std::fs::metadata(&seg).unwrap().len();
            store
                .write_batch(
                    vec![("r".to_owned(), b"rollup".to_vec())],
                    vec!["p/1".to_owned(), "p/2".to_owned()],
                )
                .unwrap();
            assert_eq!(store.last_seq(), 5, "one sequence number per record");
            assert_eq!(store.get("r").unwrap().as_slice(), b"rollup");
            assert!(!store.contains("p/1") && !store.contains("p/2"));
            before
        };
        // The batch's frame boundaries, from its own records (seqs 3..=5).
        let mut frame_ends = Vec::new();
        let mut end = before;
        for (seq, mutation) in (3..).zip(batch) {
            end += crate::wal::encode_frame(&WalRecord { seq, mutation }).len() as u64;
            frame_ends.push(end);
        }
        let full = std::fs::read(&seg).unwrap();
        assert_eq!(full.len() as u64, end, "one append of three frames");
        // A crash anywhere inside the batch keeps a prefix of it.
        for cut in before..=end {
            std::fs::write(&seg, &full[..cut as usize]).unwrap();
            let store = Store::open_with(&dir, fast()).unwrap();
            let kept = frame_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(store.contains("r"), kept >= 1, "cut {cut}");
            assert_eq!(store.contains("p/1"), kept < 2, "cut {cut}");
            assert_eq!(store.contains("p/2"), kept < 3, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn iter_prefix_is_sorted_and_filtered() {
        let dir = tmp_dir("prefix");
        let store = Store::open_with(&dir, fast()).unwrap();
        store.put("sys/beta", b"b".to_vec()).unwrap();
        store.put("sys/alpha", b"a".to_vec()).unwrap();
        store.put("ref/x", b"x".to_vec()).unwrap();
        let got = store.iter_prefix("sys/");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "sys/alpha");
        assert_eq!(got[1].0, "sys/beta");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_commit() {
        let dir = tmp_dir("torn");
        {
            let store = Store::open_with(&dir, fast()).unwrap();
            store.put("committed", b"yes".to_vec()).unwrap();
            store.put("torn", b"partially written".to_vec()).unwrap();
        }
        let seg = first_segment_path(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let store = Store::open_with(&dir, fast()).unwrap();
        assert_eq!(store.get("committed").unwrap().as_ref(), b"yes");
        assert!(store.get("torn").is_none());
        assert_eq!(store.recovery().repairs, 1);
        assert!(store.recovery().torn_tail.is_some());
        assert_eq!(store.last_seq(), 1);
        // The repaired store accepts new writes and they stick.
        store.put("after", b"repair".to_vec()).unwrap();
        drop(store);
        let store = Store::open_with(&dir, fast()).unwrap();
        assert_eq!(store.recovery().repairs, 0);
        assert!(store.get("after").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let dir = tmp_dir("snapfall");
        {
            let store = Store::open_with(&dir, fast()).unwrap();
            store.put("k", b"v1".to_vec()).unwrap();
            store.checkpoint().unwrap();
            store.put("k", b"v2".to_vec()).unwrap();
        }
        // Damage the snapshot: the store must discard it and rebuild
        // from the WAL. The pre-checkpoint segment was deleted, so only
        // the post-checkpoint record exists — the final value survives.
        let snap = crate::snapshot::snapshot_path(&dir);
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[4] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let store = Store::open_with(&dir, fast()).unwrap();
        assert!(store.recovery().snapshot_defect.is_some());
        assert!(store.recovery().repairs >= 1);
        assert_eq!(store.get("k").unwrap().as_ref(), b"v2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_without_repairing() {
        let dir = tmp_dir("verify");
        {
            let store = Store::open_with(&dir, fast()).unwrap();
            store.put("a", b"1".to_vec()).unwrap();
            store.put("b", b"2".to_vec()).unwrap();
        }
        let clean = Store::verify(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.wal_records, 2);
        assert_eq!(clean.last_seq, 2);

        let seg = first_segment_path(&dir);
        let bytes = std::fs::read(&seg).unwrap();
        let cut = bytes.len() - 3;
        std::fs::write(&seg, &bytes[..cut]).unwrap();
        let dirty = Store::verify(&dir).unwrap();
        assert!(!dirty.is_clean());
        assert_eq!(dirty.wal_records, 1);
        // verify did not repair: the file still has the torn bytes.
        assert_eq!(std::fs::read(&seg).unwrap().len(), cut);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn init_refuses_nonempty_and_detection_works() {
        let dir = tmp_dir("init");
        assert!(!is_store_dir(&dir).unwrap());
        Store::init(&dir).unwrap();
        assert!(is_store_dir(&dir).unwrap());
        assert!(Store::init(&dir).is_err());
        let store = Store::open_with(&dir, fast()).unwrap();
        assert!(store.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rotation_replays_across_segments() {
        let dir = tmp_dir("multiseg");
        {
            let store = Store::open_with(
                &dir,
                StoreOptions {
                    segment_max_bytes: 96,
                    fsync: false,
                },
            )
            .unwrap();
            for i in 0..20 {
                store.put(&format!("key-{i:02}"), vec![0xab; 32]).unwrap();
            }
        }
        assert!(list_segments(&dir).unwrap().len() > 1);
        let store = Store::open_with(
            &dir,
            StoreOptions {
                segment_max_bytes: 96,
                fsync: false,
            },
        )
        .unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(store.recovery().wal_records_replayed, 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_in_non_final_segment_fails_open_and_destroys_nothing() {
        // Bit rot mid-way through an *earlier* segment is not a torn
        // write: recovery must refuse to repair rather than discard the
        // intact, durably committed segments behind the defect.
        let opts = StoreOptions {
            segment_max_bytes: 96,
            fsync: false,
        };
        let dir = tmp_dir("midrot");
        {
            let store = Store::open_with(&dir, opts.clone()).unwrap();
            for i in 0..20 {
                store.put(&format!("key-{i:02}"), vec![0xab; 32]).unwrap();
            }
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2, "{segments:?}");
        // Flip one payload bit in the first (non-final) segment.
        let first = &segments[0].1;
        let pristine_first = std::fs::read(first).unwrap();
        let mut bytes = pristine_first.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(first, &bytes).unwrap();
        let before: Vec<Vec<u8>> = segments
            .iter()
            .map(|(_, p)| std::fs::read(p).unwrap())
            .collect();

        let err = Store::open_with(&dir, opts.clone()).unwrap_err();
        assert!(
            err.to_string().contains("not the last segment"),
            "unexpected error: {err}"
        );
        // Every segment is still on disk, byte for byte as found.
        let after = list_segments(&dir).unwrap();
        assert_eq!(after.len(), segments.len());
        for ((_, path), original) in after.iter().zip(&before) {
            assert_eq!(&std::fs::read(path).unwrap(), original, "{path:?}");
        }

        // The same defect at the tail of the *last* segment is repaired.
        let (_, last_seg) = segments.last().unwrap();
        let mut bytes = std::fs::read(last_seg).unwrap();
        let end = bytes.len() - 1;
        bytes[end] ^= 0x01;
        std::fs::write(last_seg, &bytes).unwrap();
        std::fs::write(first, &pristine_first).unwrap(); // undo the early damage
        let store = Store::open_with(&dir, opts).unwrap();
        assert_eq!(store.recovery().repairs, 1);
        assert!(store.recovery().torn_tail.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
