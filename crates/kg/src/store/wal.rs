//! The write-ahead log behind crash-safe live mutation.
//!
//! A `.wal` file is an append-only sequence of CRC32-framed records,
//! each carrying one atomic batch of triple inserts/deletes. Mutations
//! are durable once [`WalWriter::append`] returns: the frame is written
//! and fsynced before the in-memory graph ever changes, so recovery
//! (newest valid `.mmkg` snapshot + replay of the records the snapshot
//! does not yet fold in) restores every committed mutation.
//!
//! ## On-disk layout
//!
//! ```text
//! header   "MWAL" magic (4) · version u32 LE (4)
//! frame*   len u32 LE (4) · crc32 u32 LE (4) · payload (len bytes)
//! payload  seq u64 LE · op_count u32 LE · op*
//! op       kind u8 (0 = insert, 1 = delete) · s u32 LE · r u32 LE · o u32 LE
//! ```
//!
//! The CRC (same polynomial as `.mmkg` section checksums) covers the
//! payload only. `seq` is strictly increasing across frames; snapshots
//! record the last folded `seq` so replay after compaction skips
//! already-applied records.
//!
//! ## Failure model
//!
//! - A **torn tail** — the file ends mid-frame, or the final frame's
//!   CRC does not match (a crash mid-`write`) — is expected after a
//!   crash. Replay stops at the last valid frame and [`WalWriter::open`]
//!   truncates the torn bytes so the next append lands on a clean
//!   boundary.
//! - **Interior corruption** — a bad CRC, bogus length, or sequence
//!   regression *followed by more data* — is not a crash artifact and
//!   surfaces as a typed [`WalError::Corrupt`] instead of being
//!   silently dropped.
//! - A **failed write** (an append or fsync error) is undone with
//!   [`WalWriter::rollback`], so a frame reported as failed can never
//!   become durable with a later fsync.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::snapshot::crc32;
use crate::ids::{EntityId, RelationId};
use crate::triple::Triple;

const WAL_MAGIC: &[u8; 4] = b"MWAL";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Bytes of the file header (`MWAL` magic + version) preceding the
/// first frame — also the preamble of a replication tail stream, which
/// reuses the frame format verbatim as its wire format.
pub const HEADER_LEN: u64 = 8;
const FRAME_HEAD: usize = 8; // len + crc
const PAYLOAD_FIXED: usize = 12; // seq u64 + op_count u32
const OP_LEN: usize = 13; // kind u8 + 3 × u32
/// Upper bound on a single frame's payload (sanity check against
/// interpreting corrupt bytes as a multi-gigabyte allocation).
const MAX_PAYLOAD: u32 = 64 << 20;

/// One logged mutation: insert or delete a base-orientation triple.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TripleOp {
    Insert(Triple),
    Delete(Triple),
}

impl TripleOp {
    pub fn triple(&self) -> Triple {
        match *self {
            TripleOp::Insert(t) | TripleOp::Delete(t) => t,
        }
    }
}

/// One committed WAL record: an atomic batch of ops under one sequence
/// number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub ops: Vec<TripleOp>,
}

/// Why a WAL could not be opened or replayed.
#[derive(Debug)]
pub enum WalError {
    Io(io::Error),
    /// The file does not start with the `MWAL` magic.
    BadMagic,
    /// The file's format version is not [`WAL_VERSION`].
    BadVersion(u32),
    /// A complete frame failed validation (not a torn tail).
    Corrupt {
        offset: u64,
        reason: String,
    },
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal: io error: {e}"),
            WalError::BadMagic => write!(f, "wal: bad magic (not a MWAL file)"),
            WalError::BadVersion(v) => {
                write!(f, "wal: unsupported version {v} (expected {WAL_VERSION})")
            }
            WalError::Corrupt { offset, reason } => {
                write!(f, "wal: corrupt frame at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Outcome of scanning a WAL's bytes: the records, where the valid
/// prefix ends, and the next sequence number to hand out.
struct Scan {
    records: Vec<WalRecord>,
    valid_len: u64,
    next_seq: u64,
}

/// Decode every frame in `bytes` (the file contents after a validated
/// header). A torn tail stops the scan at the last valid frame;
/// interior corruption is a typed error.
fn scan_frames(bytes: &[u8]) -> Result<Scan, WalError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut next_seq = 0u64;
    loop {
        let offset = HEADER_LEN + pos as u64;
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < FRAME_HEAD {
            break; // torn tail: frame head itself is incomplete
        }
        let len = read_u32(rest, 0) as usize;
        let crc = read_u32(rest, 4);
        if len > MAX_PAYLOAD as usize {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("frame length {len} exceeds maximum {MAX_PAYLOAD}"),
            });
        }
        if rest.len() < FRAME_HEAD + len {
            break; // torn tail: payload extends past EOF
        }
        let payload = &rest[FRAME_HEAD..FRAME_HEAD + len];
        let computed = crc32(payload);
        let is_last = rest.len() == FRAME_HEAD + len;
        if computed != crc {
            if is_last {
                break; // torn tail: crash mid-write of the final frame
            }
            return Err(WalError::Corrupt {
                offset,
                reason: format!("crc mismatch: stored {crc:#010x}, computed {computed:#010x}"),
            });
        }
        if len < PAYLOAD_FIXED {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("payload too short for record header ({len} bytes)"),
            });
        }
        let seq = read_u64(payload, 0);
        let op_count = read_u32(payload, 8) as usize;
        if len != PAYLOAD_FIXED + op_count * OP_LEN {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("payload length {len} does not match op count {op_count}"),
            });
        }
        if seq < next_seq {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("sequence regression: {seq} after {}", next_seq - 1),
            });
        }
        let mut ops = Vec::with_capacity(op_count);
        for i in 0..op_count {
            let at = PAYLOAD_FIXED + i * OP_LEN;
            let kind = payload[at];
            let t = Triple {
                s: EntityId(read_u32(payload, at + 1)),
                r: RelationId(read_u32(payload, at + 5)),
                o: EntityId(read_u32(payload, at + 9)),
            };
            ops.push(match kind {
                0 => TripleOp::Insert(t),
                1 => TripleOp::Delete(t),
                k => {
                    return Err(WalError::Corrupt {
                        offset,
                        reason: format!("unknown op kind {k}"),
                    })
                }
            });
        }
        records.push(WalRecord { seq, ops });
        next_seq = seq + 1;
        pos += FRAME_HEAD + len;
    }
    Ok(Scan {
        records,
        valid_len: HEADER_LEN + pos as u64,
        next_seq,
    })
}

/// The 8-byte header a fresh WAL file (or a tail stream) starts with.
pub fn header_bytes() -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Validate a WAL file header (or a tail stream's preamble).
pub fn check_header(head: &[u8]) -> Result<(), WalError> {
    if head.len() < HEADER_LEN as usize || &head[..4] != WAL_MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = read_u32(head, 4);
    if version != WAL_VERSION {
        return Err(WalError::BadVersion(version));
    }
    Ok(())
}

/// Encode one record as a complete frame (`len · crc32 · payload`) —
/// the exact bytes [`WalWriter::append`] puts on disk and the
/// replication shipper puts on the wire.
pub fn encode_frame(seq: u64, ops: &[TripleOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_FIXED + ops.len() * OP_LEN);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (kind, t) = match *op {
            TripleOp::Insert(t) => (0u8, t),
            TripleOp::Delete(t) => (1u8, t),
        };
        payload.push(kind);
        payload.extend_from_slice(&t.s.0.to_le_bytes());
        payload.extend_from_slice(&t.r.0.to_le_bytes());
        payload.extend_from_slice(&t.o.0.to_le_bytes());
    }
    let mut frame = Vec::with_capacity(FRAME_HEAD + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Incrementally decode the first frame of `buf` (bytes after the
/// header/preamble). Returns `Ok(None)` when `buf` holds only a prefix
/// of a frame — read more and retry; `Ok(Some((record, consumed)))` on
/// a complete valid frame. Unlike file replay there is no torn-tail
/// tolerance: a CRC mismatch on a complete frame is always
/// [`WalError::Corrupt`] (the stream reader decides whether to resync
/// or drop the connection). Sequence monotonicity is the caller's
/// concern.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(WalRecord, usize)>, WalError> {
    if buf.len() < FRAME_HEAD {
        return Ok(None);
    }
    let len = read_u32(buf, 0) as usize;
    let crc = read_u32(buf, 4);
    if len > MAX_PAYLOAD as usize {
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!("frame length {len} exceeds maximum {MAX_PAYLOAD}"),
        });
    }
    if buf.len() < FRAME_HEAD + len {
        return Ok(None);
    }
    let payload = &buf[FRAME_HEAD..FRAME_HEAD + len];
    let computed = crc32(payload);
    if computed != crc {
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!("crc mismatch: stored {crc:#010x}, computed {computed:#010x}"),
        });
    }
    if len < PAYLOAD_FIXED {
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!("payload too short for record header ({len} bytes)"),
        });
    }
    let seq = read_u64(payload, 0);
    let op_count = read_u32(payload, 8) as usize;
    if len != PAYLOAD_FIXED + op_count * OP_LEN {
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!("payload length {len} does not match op count {op_count}"),
        });
    }
    let mut ops = Vec::with_capacity(op_count);
    for i in 0..op_count {
        let at = PAYLOAD_FIXED + i * OP_LEN;
        let kind = payload[at];
        let t = Triple {
            s: EntityId(read_u32(payload, at + 1)),
            r: RelationId(read_u32(payload, at + 5)),
            o: EntityId(read_u32(payload, at + 9)),
        };
        ops.push(match kind {
            0 => TripleOp::Insert(t),
            1 => TripleOp::Delete(t),
            k => {
                return Err(WalError::Corrupt {
                    offset: 0,
                    reason: format!("unknown op kind {k}"),
                })
            }
        });
    }
    Ok(Some((WalRecord { seq, ops }, FRAME_HEAD + len)))
}

/// Read-only replay of every valid record in `path` (torn tails are
/// tolerated and simply end the scan; the file is not modified). A
/// missing file replays as empty — same as a fresh log.
pub fn replay(path: &Path) -> Result<Vec<WalRecord>, WalError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(WalError::Io(e)),
    };
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    check_header(&bytes)?;
    Ok(scan_frames(&bytes[HEADER_LEN as usize..])?.records)
}

/// A point in the log [`WalWriter::rollback`] can return to: where the
/// file ends and which sequence number the next append takes there.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WalMark {
    len: u64,
    next_seq: u64,
}

/// The append side of the log: fsync-on-commit, torn tails truncated at
/// open so every append lands on a clean frame boundary.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Bytes of the header and every whole frame written so far.
    len: u64,
    next_seq: u64,
    /// Set when a rollback could not cut the file back: the log may
    /// still hold frames that were reported as failed, so every later
    /// append is refused until the log is reopened.
    broken: bool,
}

impl WalWriter {
    /// Open (or create) the log at `path`, replaying whatever committed
    /// records it holds. A torn tail from a previous crash is truncated
    /// away; interior corruption is a typed error — the caller decides
    /// whether to refuse boot or discard the log.
    pub fn open(path: &Path) -> Result<(WalWriter, Vec<WalRecord>), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_data()?;
            Scan {
                records: Vec::new(),
                valid_len: HEADER_LEN,
                next_seq: 0,
            }
        } else {
            check_header(&bytes)?;
            scan_frames(&bytes[HEADER_LEN as usize..])?
        };
        if scan.valid_len < bytes.len() as u64 {
            // Torn tail: drop the partial frame so the next append
            // starts a clean one.
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((
            WalWriter {
                file,
                path: path.to_path_buf(),
                len: scan.valid_len,
                next_seq: scan.next_seq,
                broken: false,
            },
            scan.records,
        ))
    }

    /// Sequence number the next append will commit under.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Force the next append to commit under `seq` (used after recovery
    /// when the snapshot's folded sequence is ahead of the log).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one atomic batch and fsync it. The record is committed —
    /// guaranteed to survive a crash — once this returns the sequence
    /// number it was logged under.
    pub fn append(&mut self, ops: &[TripleOp]) -> io::Result<u64> {
        let seq = self.append_unsynced(ops)?;
        self.sync()?;
        Ok(seq)
    }

    /// Write one batch's frame **without** fsyncing it. The record is
    /// NOT committed until a later [`WalWriter::sync`] returns — group
    /// commit writes several frames and then syncs them all with one
    /// `sync_data`, turning N fsyncs into one.
    pub fn append_unsynced(&mut self, ops: &[TripleOp]) -> io::Result<u64> {
        if self.broken {
            return Err(io::Error::other(
                "wal: an earlier failed write could not be rolled back; reopen the log",
            ));
        }
        let seq = self.next_seq;
        let frame = encode_frame(seq, ops);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Make every frame written so far durable (the commit point of
    /// [`WalWriter::append_unsynced`]).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every record (post-compaction: the snapshot now folds them
    /// in). Sequence numbers keep counting up — they are global to the
    /// graph's history, not to one log generation.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.cut(HEADER_LEN)
    }

    /// The current end of the log, to [`Self::rollback`] to.
    pub fn mark(&self) -> WalMark {
        WalMark {
            len: self.len,
            next_seq: self.next_seq,
        }
    }

    /// Undo every frame written since `mark` — whole or torn — by
    /// cutting the file back to it (durably), and hand out its sequence
    /// numbers again. If the cut fails, the writer refuses every later
    /// append.
    pub fn rollback(&mut self, mark: WalMark) -> io::Result<()> {
        self.next_seq = mark.next_seq;
        let cut = self.cut(mark.len);
        self.broken |= cut.is_err();
        cut
    }

    fn cut(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::Start(len))?;
        self.len = len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, r: u32, o: u32) -> Triple {
        Triple {
            s: EntityId(s),
            r: RelationId(r),
            o: EntityId(o),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmkgr-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("graph.wal")
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let (mut w, existing) = WalWriter::open(&path).unwrap();
        assert!(existing.is_empty());
        assert_eq!(w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap(), 0);
        assert_eq!(
            w.append(&[TripleOp::Delete(t(1, 0, 2)), TripleOp::Insert(t(3, 1, 4))])
                .unwrap(),
            1
        );
        drop(w);
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[0].ops, vec![TripleOp::Insert(t(1, 0, 2))]);
        assert_eq!(
            records[1].ops,
            vec![TripleOp::Delete(t(1, 0, 2)), TripleOp::Insert(t(3, 1, 4))]
        );
        // Reopen continues the sequence.
        let (w2, records2) = WalWriter::open(&path).unwrap();
        assert_eq!(records2, records);
        assert_eq!(w2.next_seq(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        w.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        drop(w);
        // Chop the last frame mid-payload: a crash mid-write.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        // Read-only replay tolerates the tear.
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].ops, vec![TripleOp::Insert(t(1, 0, 2))]);
        // Open truncates it and the next append recommits under seq 1.
        let (mut w, records) = WalWriter::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(w.next_seq(), 1);
        assert_eq!(w.append(&[TripleOp::Insert(t(5, 1, 6))]).unwrap(), 1);
        drop(w);
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].ops, vec![TripleOp::Insert(t(5, 1, 6))]);
    }

    #[test]
    fn interior_corruption_is_a_typed_error() {
        let path = tmp("corrupt");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        w.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        drop(w);
        // Flip a payload byte of the FIRST frame (interior, not tail).
        let mut bytes = std::fs::read(&path).unwrap();
        let at = HEADER_LEN as usize + FRAME_HEAD + 2;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match replay(&path) {
            Err(WalError::Corrupt { offset, reason }) => {
                assert_eq!(offset, HEADER_LEN);
                assert!(reason.contains("crc mismatch"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(WalWriter::open(&path).is_err());
    }

    #[test]
    fn final_frame_crc_mismatch_is_a_torn_tail() {
        let path = tmp("tail-crc");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        let first_end = std::fs::metadata(&path).unwrap().len() as usize;
        w.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        drop(w);
        // Corrupt a payload byte of the LAST frame: crash mid-write.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = first_end + FRAME_HEAD + 2;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        let (w, records) = WalWriter::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(w.next_seq(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, first_end);
    }

    #[test]
    fn truncate_clears_records_but_not_sequence() {
        let path = tmp("truncate");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        w.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        w.truncate().unwrap();
        assert!(replay(&path).unwrap().is_empty());
        assert_eq!(w.append(&[TripleOp::Insert(t(5, 0, 6))]).unwrap(), 2);
        drop(w);
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 2);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(matches!(replay(&path), Err(WalError::BadMagic)));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path), Err(WalError::BadVersion(99))));
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = tmp("missing").with_extension("nope");
        assert!(replay(&path).unwrap().is_empty());
    }

    #[test]
    fn encode_decode_frame_roundtrip() {
        let ops = vec![TripleOp::Insert(t(1, 0, 2)), TripleOp::Delete(t(3, 1, 4))];
        let frame = encode_frame(7, &ops);
        // every strict prefix is "incomplete", never an error
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).unwrap().is_none());
        }
        let (rec, used) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.ops, ops);
        // a flipped payload byte on a complete frame is typed corruption
        let mut bad = frame.clone();
        bad[FRAME_HEAD + 2] ^= 0xff;
        assert!(matches!(decode_frame(&bad), Err(WalError::Corrupt { .. })));
    }

    #[test]
    fn grouped_appends_match_single_appends_byte_for_byte() {
        let path = tmp("group");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        assert_eq!(
            w.append_unsynced(&[TripleOp::Insert(t(1, 0, 2))]).unwrap(),
            0
        );
        assert_eq!(
            w.append_unsynced(&[TripleOp::Insert(t(3, 0, 4))]).unwrap(),
            1
        );
        w.sync().unwrap();
        drop(w);
        assert_eq!(replay(&path).unwrap().len(), 2);

        let path2 = tmp("group-ref");
        let (mut w2, _) = WalWriter::open(&path2).unwrap();
        w2.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        w2.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        drop(w2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
    }

    #[test]
    fn rollback_drops_frames_and_reuses_their_seqs() {
        let path = tmp("rollback");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        let mark = w.mark();
        let kept = std::fs::read(&path).unwrap();
        w.append_unsynced(&[TripleOp::Insert(t(3, 0, 4))]).unwrap();
        w.append_unsynced(&[TripleOp::Insert(t(5, 0, 6))]).unwrap();
        w.rollback(mark).unwrap();
        assert_eq!(w.mark(), mark);
        assert_eq!(std::fs::read(&path).unwrap(), kept);
        assert_eq!(w.append(&[TripleOp::Insert(t(7, 0, 8))]).unwrap(), 1);
        drop(w);
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].ops, vec![TripleOp::Insert(t(7, 0, 8))]);
    }

    #[test]
    fn failed_rollback_refuses_every_later_append() {
        let path = tmp("broken");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        let mark = w.mark();
        w.append_unsynced(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        // A read-only handle makes the cut fail, as a failing disk would.
        w.file = File::open(&path).unwrap();
        assert!(w.rollback(mark).is_err());
        w.file = OpenOptions::new().write(true).open(&path).unwrap();
        assert!(w.rollback(mark).is_ok());
        assert!(w.append_unsynced(&[TripleOp::Insert(t(3, 0, 4))]).is_err());
    }

    #[test]
    fn set_next_seq_never_rewinds() {
        let path = tmp("seq");
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&[TripleOp::Insert(t(1, 0, 2))]).unwrap();
        w.set_next_seq(10);
        assert_eq!(w.next_seq(), 10);
        w.set_next_seq(3); // rewind ignored
        assert_eq!(w.next_seq(), 10);
        assert_eq!(w.append(&[TripleOp::Insert(t(3, 0, 4))]).unwrap(), 10);
    }
}
