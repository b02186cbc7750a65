//! The append-only write-ahead segment log.
//!
//! Layout on disk: a directory holds numbered segments
//! `wal-00000001.log`, `wal-00000002.log`, … Each segment starts with an
//! 8-byte header (`GAWL` magic + format version) followed by framed
//! records:
//!
//! ```text
//! [u32 len][u32 crc32(payload)][payload: u64 seq, u8 op, key, value?]
//! ```
//!
//! Appends are committed with `fsync` (unless the store was opened with
//! `fsync: false`), so a record that was acknowledged survives a crash.
//! A crash *during* an append leaves a **torn tail**: a frame whose
//! length runs past end-of-file or whose checksum disagrees. Recovery
//! scans forward, keeps every intact record, truncates the file at the
//! last valid frame boundary, and counts the repair — exactly the
//! recovery contract the torture test exercises at every byte offset.

use crate::codec::{ByteReader, ByteWriter};
use crate::crc32::crc32;
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic bytes opening every WAL segment.
pub(crate) const WAL_MAGIC: [u8; 4] = *b"GAWL";
/// On-disk format version, bumped on any incompatible layout change.
pub(crate) const FORMAT_VERSION: u32 = 1;
/// Bytes of the segment header (magic + version).
pub(crate) const SEGMENT_HEADER_BYTES: u64 = 8;
/// Bytes of each record's frame header (length + checksum).
const FRAME_HEADER_BYTES: usize = 8;
/// Upper bound on one record's payload; a frame claiming more is corrupt,
/// not merely torn, so the cap keeps a lying length from causing a huge
/// allocation.
pub(crate) const MAX_RECORD_BYTES: u32 = 1 << 30;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Mutation {
    /// Insert or replace `key`.
    Put {
        /// Record key.
        key: String,
        /// Record value bytes.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// Record key.
        key: String,
    },
}

impl Mutation {
    fn op_byte(&self) -> u8 {
        match self {
            Mutation::Put { .. } => 1,
            Mutation::Delete { .. } => 2,
        }
    }
}

/// One committed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    /// Monotonic commit sequence number.
    pub seq: u64,
    /// The mutation.
    pub mutation: Mutation,
}

/// Path of segment `index` inside `dir`.
pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

/// Parses a segment index back out of a file name.
pub(crate) fn parse_segment_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// All WAL segments in `dir`, sorted by index.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io_at("read_dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io_at("read_dir", dir, e))?;
        if let Some(index) = entry.file_name().to_str().and_then(parse_segment_index) {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(index, _)| index);
    Ok(segments)
}

/// Frames one record: `[len][crc][payload]`.
pub(crate) fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.u64(record.seq);
    payload.u8(record.mutation.op_byte());
    match &record.mutation {
        Mutation::Put { key, value } => {
            payload.str(key);
            payload.bytes(value);
        }
        Mutation::Delete { key } => payload.str(key),
    }
    let payload = payload.into_vec();
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, StoreError> {
    let mut r = ByteReader::new(payload);
    let seq = r.u64()?;
    let op = r.u8()?;
    let mutation = match op {
        1 => {
            let key = r.str()?.to_owned();
            let value = r.bytes()?.to_vec();
            Mutation::Put { key, value }
        }
        2 => Mutation::Delete {
            key: r.str()?.to_owned(),
        },
        other => {
            return Err(StoreError::corrupt(format!("unknown WAL op byte {other}")));
        }
    };
    r.expect_end()?;
    Ok(WalRecord { seq, mutation })
}

/// Result of scanning one segment file (read-only).
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// Every intact record, in file order.
    pub records: Vec<WalRecord>,
    /// File offset just past the last intact record (or past the header
    /// when the segment holds none). Everything beyond it is damage.
    pub valid_bytes: u64,
    /// Why the scan stopped early; `None` means a clean end-of-file.
    pub defect: Option<String>,
    /// Total size of the file as found.
    pub file_bytes: u64,
}

impl SegmentScan {
    /// Whether the segment was fully intact.
    #[cfg(test)]
    pub fn is_clean(&self) -> bool {
        self.defect.is_none()
    }
}

/// Scans `path` without modifying it: validates the header, then every
/// frame's length and checksum, stopping at the first defect.
pub(crate) fn scan_segment(path: &Path) -> Result<SegmentScan, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io_at("read", path, e))?;
    let file_bytes = bytes.len() as u64;
    let mut scan = SegmentScan {
        records: Vec::new(),
        valid_bytes: 0,
        defect: None,
        file_bytes,
    };
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        scan.defect = Some("segment shorter than its header".to_owned());
        return Ok(scan);
    }
    if bytes[..4] != WAL_MAGIC {
        scan.defect = Some("bad segment magic".to_owned());
        return Ok(scan);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION {
        scan.defect = Some(format!("unsupported WAL format version {version}"));
        return Ok(scan);
    }
    let mut pos = SEGMENT_HEADER_BYTES as usize;
    scan.valid_bytes = pos as u64;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER_BYTES {
            scan.defect = Some(format!("torn frame header at offset {pos}"));
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_RECORD_BYTES {
            scan.defect = Some(format!("implausible record length {len} at offset {pos}"));
            break;
        }
        let start = pos + FRAME_HEADER_BYTES;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            scan.defect = Some(format!("torn record payload at offset {pos}"));
            break;
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            scan.defect = Some(format!("checksum mismatch at offset {pos}"));
            break;
        }
        match decode_payload(payload) {
            Ok(record) => scan.records.push(record),
            Err(e) => {
                scan.defect = Some(format!("undecodable record at offset {pos}: {e}"));
                break;
            }
        }
        pos = end;
        scan.valid_bytes = pos as u64;
    }
    Ok(scan)
}

/// Truncates `path` to its last intact frame boundary, repairing a torn
/// tail in place. A segment whose *header* is damaged is reset to a
/// fresh, empty segment (header rewritten, zero records).
pub(crate) fn repair_segment(path: &Path, scan: &SegmentScan) -> Result<(), StoreError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io_at("open for repair", path, e))?;
    if scan.valid_bytes < SEGMENT_HEADER_BYTES {
        // Header itself is torn or foreign: rewrite it from scratch.
        file.set_len(0)
            .map_err(|e| StoreError::io_at("truncate", path, e))?;
        let mut file = file;
        write_segment_header(&mut file, path)?;
        file.sync_data()
            .map_err(|e| StoreError::io_at("fsync", path, e))?;
        return Ok(());
    }
    file.set_len(scan.valid_bytes)
        .map_err(|e| StoreError::io_at("truncate", path, e))?;
    file.sync_data()
        .map_err(|e| StoreError::io_at("fsync", path, e))?;
    Ok(())
}

fn write_segment_header(file: &mut File, path: &Path) -> Result<(), StoreError> {
    let mut header = [0u8; SEGMENT_HEADER_BYTES as usize];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4..].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.write_all(&header)
        .map_err(|e| StoreError::io_at("write header", path, e))
}

/// The appending half of the WAL: owns the current segment's file handle
/// and rotates to a fresh segment when the size threshold is crossed.
#[derive(Debug)]
pub(crate) struct WalWriter {
    dir: PathBuf,
    file: File,
    path: PathBuf,
    index: u64,
    segment_bytes: u64,
    max_segment_bytes: u64,
    fsync: bool,
}

impl WalWriter {
    /// Opens segment `index` for appending, creating it (with a header)
    /// when absent. `existing_bytes` is the segment's current size as
    /// established by recovery.
    pub fn open(
        dir: &Path,
        index: u64,
        max_segment_bytes: u64,
        fsync: bool,
    ) -> Result<WalWriter, StoreError> {
        let path = segment_path(dir, index);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io_at("open", &path, e))?;
        let mut segment_bytes = file
            .metadata()
            .map_err(|e| StoreError::io_at("stat", &path, e))?
            .len();
        if segment_bytes == 0 {
            write_segment_header(&mut file, &path)?;
            file.sync_data()
                .map_err(|e| StoreError::io_at("fsync", &path, e))?;
            // The file's contents are durable, but its directory entry is
            // not until the directory itself is fsynced — without this a
            // crash after creation can lose the whole segment, fsynced
            // records included.
            sync_dir(dir)?;
            segment_bytes = SEGMENT_HEADER_BYTES;
        }
        Ok(WalWriter {
            dir: dir.to_owned(),
            file,
            path,
            index,
            segment_bytes,
            max_segment_bytes,
            fsync,
        })
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.index
    }

    /// Appends one record and commits it (fsync, unless disabled). The
    /// record is durable when this returns. Rotates to a fresh segment
    /// once the current one crosses the size threshold — rotation happens
    /// *after* the append, so a record is never split across segments.
    #[cfg(test)]
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends `records` back to back and commits them with one fsync.
    /// Each keeps its own frame (length, checksum, sequence number), so a
    /// crash part-way through leaves a torn tail that recovery cuts back
    /// to a prefix of the batch. Rotation waits until the whole batch is
    /// written, so a batch is never split across segments either.
    pub fn append_all(&mut self, records: &[WalRecord]) -> Result<(), StoreError> {
        let frames = match records {
            [record] => encode_frame(record),
            _ => {
                let mut frames = Vec::new();
                for record in records {
                    frames.extend_from_slice(&encode_frame(record));
                }
                frames
            }
        };
        self.file
            .write_all(&frames)
            .map_err(|e| StoreError::io_at("append", &self.path, e))?;
        if self.fsync {
            let t0 = Instant::now();
            self.file
                .sync_data()
                .map_err(|e| StoreError::io_at("fsync", &self.path, e))?;
            crate::obs::fsync_micros().record(t0.elapsed());
        }
        self.segment_bytes += frames.len() as u64;
        crate::obs::wal_appends().add(records.len() as u64);
        if self.segment_bytes >= self.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Closes the current segment and starts the next one. The open
    /// fsyncs the directory when it creates the segment file, so the
    /// rotation itself is durable.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        let next = WalWriter::open(
            &self.dir,
            self.index + 1,
            self.max_segment_bytes,
            self.fsync,
        )?;
        *self = next;
        Ok(())
    }
}

/// Fsyncs a directory so renames and newly created files inside it are
/// themselves durable (required on Linux for crash safety of the
/// snapshot rename and segment rotation).
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let handle = File::open(dir).map_err(|e| StoreError::io_at("open dir", dir, e))?;
    handle
        .sync_all()
        .map_err(|e| StoreError::io_at("fsync dir", dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geoalign-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(seq: u64, key: &str, value: &[u8]) -> WalRecord {
        WalRecord {
            seq,
            mutation: Mutation::Put {
                key: key.to_owned(),
                value: value.to_vec(),
            },
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, true).unwrap();
        let records = vec![
            put(1, "a", b"alpha"),
            WalRecord {
                seq: 2,
                mutation: Mutation::Delete { key: "a".into() },
            },
            put(3, "b", &[0u8; 100]),
        ];
        for r in &records {
            w.append(r).unwrap();
        }
        let scan = scan_segment(&segment_path(&dir, 1)).unwrap();
        assert!(scan.is_clean(), "{:?}", scan.defect);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_bytes, scan.file_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_by_size() {
        let dir = tmp_dir("rotate");
        // Tiny threshold: every append rotates.
        let mut w = WalWriter::open(&dir, 1, 64, false).unwrap();
        for seq in 1..=3 {
            w.append(&put(seq, "k", b"0123456789abcdef0123456789abcdef"))
                .unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() >= 3, "{segments:?}");
        assert_eq!(w.segment_index(), segments.last().unwrap().0);
        // Each record landed whole in its own segment.
        let total: usize = segments
            .iter()
            .map(|(_, p)| scan_segment(p).unwrap().records.len())
            .sum();
        assert_eq!(total, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_repaired() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, false).unwrap();
        w.append(&put(1, "good", b"kept")).unwrap();
        w.append(&put(2, "bad", b"lost to the crash")).unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let scan = scan_segment(&path).unwrap();
        let keep_first = scan.valid_bytes; // end of record 2
                                           // Chop 3 bytes off the final record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.is_clean());
        assert_eq!(scan.records.len(), 1);
        assert!(scan.valid_bytes < keep_first);
        repair_segment(&path, &scan).unwrap();
        let again = scan_segment(&path).unwrap();
        assert!(again.is_clean());
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.records[0], put(1, "good", b"kept"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let dir = tmp_dir("bitflip");
        let mut w = WalWriter::open(&dir, 1, 1 << 20, false).unwrap();
        w.append(&put(1, "k", b"payload")).unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.defect.as_deref().unwrap_or("").contains("checksum"));
        assert!(scan.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(parse_segment_index("wal-00000042.log"), Some(42));
        assert_eq!(parse_segment_index("wal-0042.log"), None);
        assert_eq!(parse_segment_index("snapshot.snap"), None);
        assert_eq!(parse_segment_index("wal-abcdefgh.log"), None);
        let p = segment_path(Path::new("/x"), 7);
        assert_eq!(p.file_name().unwrap().to_str().unwrap(), "wal-00000007.log");
    }
}
