//! WAL-shipping replication: primary/follower read scaling over the
//! serving stack's existing durability machinery.
//!
//! The design adds no second log and no second wire format. The
//! primary's crash-safe WAL (see [`mmkgr_kg::store::wal`]) *is* the
//! replication stream: committed frames are shipped verbatim — length,
//! CRC32, payload — over a long-lived HTTP connection, and the follower
//! appends them to its own WAL through the same
//! [`LiveGraphStore`](super::mutation::LiveGraphStore) pipeline a local
//! mutation takes. Epoch-versioned reads, frontier-cache invalidation,
//! and compaction therefore work unchanged on both roles, and a
//! follower's WAL replay after a restart is indistinguishable from a
//! primary's.
//!
//! ```text
//!            POST /v1/admin/replicate {"mode":"snapshot"}
//!   follower ───────────────────────────────────────────▶ primary
//!            ◀───── raw .mmkg bytes (CRC-verified at open) ─────
//!            POST /v1/admin/replicate {"mode":"tail","from_seq":N}
//!            ◀───── MWAL preamble + committed frames, live ─────
//! ```
//!
//! **Bootstrap** (`mmkgr serve --replicate-from <addr>`): fetch the
//! primary's current `.mmkg` snapshot, boot from it exactly like a
//! local snapshot boot (WAL replay included), then tail frames from the
//! local WAL's `next_seq` and flip `/readyz` once caught up to the
//! primary's head at connect time (`X-Mmkgr-Head-Seq`).
//!
//! **Committed-only shipping**: the tail never emits a frame with
//! `seq >=` the primary's fsync watermark
//! ([`LiveGraphStore::committed_seq`](super::mutation::LiveGraphStore::committed_seq)),
//! so a follower can never observe a mutation the primary could still
//! lose in a crash — zero committed-frame loss and no phantom frames,
//! by construction. The tail is woken by the commit that moves that
//! watermark, so a frame ships as soon as it is durable.
//!
//! **Promotion** (`POST /v1/admin/promote`): flips the role flag, which
//! simultaneously stops the tailer, fences late frames from the old
//! primary (see [`super::registry::ModelRegistry::apply_replicated`]),
//! and opens `/v1/admin/mutate` for writes at the fenced `seq`
//! watermark.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::faults;
use super::http::{header_value, send, write_response, ResponseHead};
use super::protocol::{ApiError, ApiResponse, ReplicateRequest, ReplicationMetrics};
use super::registry::ModelRegistry;
use mmkgr_kg::store::wal;
use mmkgr_kg::WalRecord;

/// Longest the shipper waits for a commit before it re-checks the
/// server's stop flag. A commit ends the wait at once, so this bounds
/// only shutdown, never lag.
const STOP_CHECK: Duration = Duration::from_millis(50);

/// The error detail prefix a tail request gets when `from_seq` predates
/// the oldest retained WAL frame (compaction folded it into the
/// snapshot). The bundled follower matches on it to fall back to a full
/// snapshot re-bootstrap; see [`is_snapshot_required`].
const SNAPSHOT_REQUIRED: &str = "snapshot required";

/// Response header carrying the primary's committed head `seq` on both
/// replicate modes — the follower's "caught up" target.
const HEAD_SEQ_HEADER: &str = "X-Mmkgr-Head-Seq";

/// Where a replication-capable node's shippable artifacts live. Both
/// roles have one (a follower keeps its own snapshot + WAL, so a
/// promoted follower can immediately serve the next bootstrap).
#[derive(Clone, Debug)]
pub struct ReplicaSource {
    /// The `.mmkg` registry snapshot served to bootstrapping followers.
    pub snapshot: PathBuf,
    /// The WAL file whose committed frames are tailed.
    pub wal: PathBuf,
}

/// Shared replication role + counters, attached to the
/// [`ModelRegistry`] of every node that participates in a topology.
pub struct ReplicationState {
    /// `true` while this node is a read-only follower; flipped (once,
    /// irreversibly) by [`Self::promote`].
    follower: AtomicBool,
    /// The primary this node bootstrapped from (`""` on a born-primary;
    /// kept after promotion for the metrics history).
    primary: String,
    source: Option<ReplicaSource>,
    frames_shipped: AtomicU64,
    reconnects: AtomicU64,
    /// Follower watermarks, both in "next seq" convention: `received` is
    /// the highest target the primary has advertised or shipped;
    /// `applied` is the follower's committed seq. Lag is the gap.
    received: AtomicU64,
    applied: AtomicU64,
    /// Set once the tailer first reaches its session's head target; the
    /// boot path gates `mark_ready()` on this.
    caught_up: AtomicBool,
}

impl ReplicationState {
    /// A writable primary shipping `source` to followers.
    pub fn primary(source: ReplicaSource) -> Self {
        ReplicationState {
            follower: AtomicBool::new(false),
            primary: String::new(),
            source: Some(source),
            frames_shipped: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            received: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            caught_up: AtomicBool::new(true),
        }
    }

    /// A read-only follower tailing `primary_addr`, keeping its own
    /// shippable `source`.
    pub fn follower(primary_addr: impl Into<String>, source: ReplicaSource) -> Self {
        ReplicationState {
            follower: AtomicBool::new(true),
            primary: primary_addr.into(),
            source: Some(source),
            frames_shipped: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            received: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            caught_up: AtomicBool::new(false),
        }
    }

    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::Acquire)
    }

    /// The primary's address for [`ApiError::NotPrimary`] redirects.
    pub fn primary_addr(&self) -> String {
        if self.is_follower() {
            self.primary.clone()
        } else {
            String::new()
        }
    }

    /// Flip follower → primary. Returns `true` if this call did the
    /// flip (`false` = already primary, the idempotent retry case). The
    /// single store is the whole fence: the tailer observes it and
    /// stops, and [`ModelRegistry::apply_replicated`] refuses frames
    /// from then on.
    pub fn promote(&self) -> bool {
        self.caught_up.store(true, Ordering::Release);
        self.follower.swap(false, Ordering::AcqRel)
    }

    /// Has the tailer reached the head target of its current session at
    /// least once? (Born-primaries are trivially caught up.)
    pub fn is_caught_up(&self) -> bool {
        self.caught_up.load(Ordering::Acquire)
    }

    pub fn metrics(&self) -> ReplicationMetrics {
        let received = self.received.load(Ordering::Relaxed);
        let applied = self.applied.load(Ordering::Relaxed);
        ReplicationMetrics {
            role: if self.is_follower() {
                "follower"
            } else {
                "primary"
            }
            .to_string(),
            follower_lag_seq: received.saturating_sub(applied),
            frames_shipped: self.frames_shipped.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    fn source(&self) -> Option<&ReplicaSource> {
        self.source.as_ref()
    }

    fn note_shipped(&self) {
        self.frames_shipped.fetch_add(1, Ordering::Relaxed);
    }

    fn note_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the `received` watermark (never lowers it).
    fn note_received(&self, next_seq: u64) {
        self.received.fetch_max(next_seq, Ordering::Relaxed);
    }

    fn note_applied(&self, next_seq: u64) {
        self.applied.fetch_max(next_seq, Ordering::Relaxed);
        if next_seq >= self.received.load(Ordering::Relaxed) {
            self.caught_up.store(true, Ordering::Release);
        }
    }
}

// ------------------------------------------------------- primary (ship)

/// Serve one `POST /v1/admin/replicate` connection. Called from the
/// HTTP connection handler with the raw stream (this endpoint writes
/// its own response: a JSON error, a `Content-Length`-framed snapshot
/// body, or an unbounded frame stream). The returned `Result` only
/// feeds the route's error counter.
pub(crate) fn serve_replicate(
    stream: &mut TcpStream,
    body: &str,
    registry: &ModelRegistry,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    match replicate_inner(stream, body, registry, stop) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best-effort: the stream may already be half-written or
            // gone; the error still counts against the route either way.
            let response = ApiResponse::Error(e.clone());
            let _ = write_response(stream, response.http_status(), &response.body(), &[]);
            Err(e)
        }
    }
}

fn replicate_inner(
    stream: &mut TcpStream,
    body: &str,
    registry: &ModelRegistry,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    let req: ReplicateRequest =
        serde_json::from_str(body).map_err(|e| ApiError::MalformedRequest {
            detail: e.to_string(),
        })?;
    let source = registry
        .replication()
        .and_then(|r| r.source())
        .cloned()
        .ok_or_else(|| ApiError::Internal {
            detail: "this server is not a replication source (serve from --snapshot with --wal)"
                .to_string(),
        })?;
    let live = registry.live().ok_or_else(|| ApiError::Internal {
        detail: "this server has no live store to replicate from".to_string(),
    })?;
    let rep = registry.replication().expect("source implies state");
    match req.mode.as_str() {
        "snapshot" => ship_snapshot(stream, &source.snapshot, live.committed_seq()),
        "tail" => ship_tail(stream, &source.wal, req.from_seq, registry, rep, stop),
        other => Err(ApiError::MalformedRequest {
            detail: format!("replicate mode must be \"snapshot\" or \"tail\", got {other:?}"),
        }),
    }
}

/// Stream the current `.mmkg` snapshot file verbatim. The fd is opened
/// before stat-ing so a concurrent compaction rewrite (tmp + rename)
/// cannot tear the body: the follower reads the generation this fd
/// pins, and every section's CRC32 is re-verified when it opens the
/// file.
fn ship_snapshot(stream: &mut TcpStream, path: &Path, head_seq: u64) -> Result<(), ApiError> {
    let mut file = File::open(path).map_err(|e| ApiError::Internal {
        detail: format!("open snapshot {}: {e}", path.display()),
    })?;
    let len = file
        .metadata()
        .map_err(|e| ApiError::Internal {
            detail: format!("stat snapshot: {e}"),
        })?
        .len();
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {len}\r\n{HEAD_SEQ_HEADER}: {head_seq}\r\nConnection: close\r\n\r\n",
    );
    let io_err = |e: io::Error| ApiError::Internal {
        detail: format!("ship snapshot: {e}"),
    };
    stream.write_all(head.as_bytes()).map_err(io_err)?;
    io::copy(&mut file, stream).map_err(io_err)?;
    stream.flush().map_err(io_err)
}

/// Stream committed WAL frames from `from_seq`, live, until the client
/// hangs up or the server stops. Wire format after the response head:
/// the 8-byte `MWAL` preamble, then raw frames — exactly the bytes a
/// local WAL holds, so the follower side is the same incremental
/// decoder the recovery path uses.
fn ship_tail(
    stream: &mut TcpStream,
    wal_path: &Path,
    from_seq: u64,
    registry: &ModelRegistry,
    rep: &ReplicationState,
    stop: &AtomicBool,
) -> Result<(), ApiError> {
    let live = registry.live().expect("caller checked");
    let committed = live.committed_seq();
    if from_seq > committed {
        return Err(ApiError::MalformedRequest {
            detail: format!("from_seq {from_seq} is ahead of the primary head {committed}"),
        });
    }
    let mut file = open_wal_checked(wal_path)?;
    if from_seq < committed && !frame_available(&mut file, from_seq)? {
        // The requested frames were folded into the snapshot by a
        // compaction; the follower must re-bootstrap.
        return Err(ApiError::Internal {
            detail: format!(
                "{SNAPSHOT_REQUIRED}: from_seq {from_seq} predates the oldest retained WAL frame"
            ),
        });
    }
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n{HEAD_SEQ_HEADER}: {committed}\r\nConnection: close\r\n\r\n",
    );
    let done = |_e: io::Error| ApiError::Internal {
        // A follower hanging up mid-tail is the normal end of a
        // session, but it still closes this connection with an error
        // status internally; the caller only counts it.
        detail: "tail connection closed".to_string(),
    };
    stream.write_all(head.as_bytes()).map_err(done)?;
    stream.write_all(&wal::header_bytes()).map_err(done)?;
    stream.flush().map_err(done)?;

    let mut pos = wal::HEADER_LEN;
    file.seek(SeekFrom::Start(pos)).map_err(done)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut cursor = from_seq; // next seq to ship
    let mut chunk = [0u8; 64 << 10];
    while !stop.load(Ordering::Relaxed) {
        // Read the watermark before the file: every frame below it is
        // already in the file, and a commit after this read ends the
        // wait below at once.
        let committed = live.committed_seq();
        let len = file.metadata().map_err(done)?.len();
        if len < pos {
            // Compaction truncated the WAL under us. Frames resume at
            // `next_seq` with no gap, so rewind and keep decoding; the
            // seq cursor drops anything we already shipped.
            file.seek(SeekFrom::Start(wal::HEADER_LEN)).map_err(done)?;
            pos = wal::HEADER_LEN;
            continue;
        }
        // Ship every fsync-durable frame, a chunk at a time, up to the
        // first one at or above the watermark.
        let mut at_watermark = false;
        loop {
            while let Some((rec, used)) = wal::decode_frame(&buf).map_err(|e| {
                // Interior corruption: stop shipping rather than relay
                // bad frames (the primary's own recovery owns this
                // file's fate).
                ApiError::Internal {
                    detail: format!("wal corrupt under tail: {e}"),
                }
            })? {
                if rec.seq >= committed {
                    at_watermark = true; // written but not yet fsynced
                    break;
                }
                if rec.seq >= cursor {
                    if rec.seq > cursor {
                        return Err(ApiError::Internal {
                            detail: format!("wal gap under tail: jumped to seq {}", rec.seq),
                        });
                    }
                    stream.write_all(&buf[..used]).map_err(done)?;
                    stream.flush().map_err(done)?;
                    rep.note_shipped();
                    cursor = rec.seq + 1;
                }
                buf.drain(..used);
            }
            if at_watermark || pos >= len {
                break;
            }
            let n = file.read(&mut chunk).map_err(done)?;
            if n == 0 {
                break;
            }
            buf.extend_from_slice(&chunk[..n]);
            pos += n as u64;
        }
        // Keep no bytes at or above the watermark across the wait: a
        // failed commit cuts them, and the next group writes other
        // batches under the same seqs. Re-read them after the commit.
        if !buf.is_empty() {
            pos -= buf.len() as u64;
            file.seek(SeekFrom::Start(pos)).map_err(done)?;
            buf.clear();
        }
        live.wait_for_commit(committed, STOP_CHECK);
    }
    Ok(())
}

fn open_wal_checked(path: &Path) -> Result<File, ApiError> {
    let io_err = |detail: String| ApiError::Internal { detail };
    let mut file =
        File::open(path).map_err(|e| io_err(format!("open wal {}: {e}", path.display())))?;
    let mut head = [0u8; wal::HEADER_LEN as usize];
    file.read_exact(&mut head)
        .map_err(|e| io_err(format!("read wal header: {e}")))?;
    wal::check_header(&head).map_err(|e| io_err(format!("bad wal header: {e}")))?;
    Ok(file)
}

/// Is a frame with exactly `from_seq` still present in the WAL file?
/// (Frames are contiguous, so it is enough to check the first one.)
/// Leaves the file positioned after the header.
fn frame_available(file: &mut File, from_seq: u64) -> Result<bool, ApiError> {
    file.seek(SeekFrom::Start(wal::HEADER_LEN))
        .map_err(|e| ApiError::Internal {
            detail: format!("seek wal: {e}"),
        })?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let first = loop {
        match wal::decode_frame(&buf) {
            Ok(Some((rec, _))) => break Some(rec.seq),
            Ok(None) => {}
            // A torn tail at the very first frame: treat as no frames.
            Err(_) => break None,
        }
        match file.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => {
                return Err(ApiError::Internal {
                    detail: format!("read wal: {e}"),
                })
            }
        }
    };
    file.seek(SeekFrom::Start(wal::HEADER_LEN))
        .map_err(|e| ApiError::Internal {
            detail: format!("seek wal: {e}"),
        })?;
    Ok(first.is_some_and(|s| s <= from_seq))
}

// ------------------------------------------------------ follower (tail)

/// Does this error text carry the primary's "re-bootstrap" signal?
pub fn is_snapshot_required(detail: &str) -> bool {
    detail.contains(SNAPSHOT_REQUIRED)
}

/// Fetch the primary's current `.mmkg` snapshot into `dest`, streaming
/// the binary body straight to disk. 503 + `Retry-After` (the primary
/// still warming up, or shedding) is honored for up to `max_retries`
/// rounds — the long-bootstrap loop the bundled client's single retry
/// was too impatient for. Returns the primary's committed head seq.
pub fn fetch_snapshot(primary: &str, dest: &Path, max_retries: u32) -> io::Result<u64> {
    let mut resp = send(
        primary,
        "POST",
        "/v1/admin/replicate",
        r#"{"mode": "snapshot"}"#,
        max_retries,
    )?;
    if resp.status != 200 {
        return Err(http_error("snapshot fetch", resp));
    }
    let content_length: u64 = header_value(&resp.head, "content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other("snapshot fetch: missing Content-Length"))?;
    let head_seq: u64 = header_value(&resp.head, HEAD_SEQ_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Write via a sibling tmp so a failed fetch never leaves a
    // half-snapshot where the boot path would find it.
    let tmp = dest.with_extension("mmkg.fetch");
    let mut out = File::create(&tmp)?;
    out.write_all(&resp.body_prefix)?;
    // Connection: close — the body runs to EOF and is exactly
    // Content-Length bytes; anything else is a torn transfer.
    let got = resp.body_prefix.len() as u64 + io::copy(&mut resp.stream, &mut out)?;
    if got != content_length {
        let _ = std::fs::remove_file(&tmp);
        return Err(io::Error::other(format!(
            "snapshot fetch: truncated body ({got} of {content_length} bytes)"
        )));
    }
    out.sync_data()?;
    drop(out);
    std::fs::rename(&tmp, dest)?;
    Ok(head_seq)
}

/// The error for a non-200 replication response, carrying its body.
fn http_error(what: &str, resp: ResponseHead) -> io::Error {
    let status = resp.status;
    let body = resp.into_body().unwrap_or_default();
    io::Error::other(format!(
        "{what}: HTTP {status}: {}",
        String::from_utf8_lossy(&body)
    ))
}

/// A live tail session: frames decoded off the socket one at a time.
pub struct TailSession {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The primary's committed head at connect — applying up to here
    /// means "caught up" for readiness purposes.
    pub head_seq: u64,
}

/// Open a tail of `primary` starting at `from_seq` (the follower's own
/// WAL `next_seq`). Fails with an [`is_snapshot_required`] error text
/// when the primary has compacted past `from_seq`.
pub fn connect_tail(primary: &str, from_seq: u64) -> io::Result<TailSession> {
    let body = format!(r#"{{"mode": "tail", "from_seq": {from_seq}}}"#);
    let resp = send(primary, "POST", "/v1/admin/replicate", &body, 0)?;
    if resp.status != 200 {
        return Err(http_error("tail connect", resp));
    }
    let head_seq: u64 = header_value(&resp.head, HEAD_SEQ_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(from_seq);
    // The stream opens with the standard WAL preamble.
    let (mut buf, mut stream) = (resp.body_prefix, resp.stream);
    let mut chunk = [0u8; 4096];
    while buf.len() < wal::HEADER_LEN as usize {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("tail connect: stream closed in preamble"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    wal::check_header(&buf[..wal::HEADER_LEN as usize])
        .map_err(|e| io::Error::other(format!("tail connect: bad preamble: {e}")))?;
    buf.drain(..wal::HEADER_LEN as usize);
    // A short read timeout keeps the tailer responsive to promotion and
    // shutdown even when the primary is idle.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    Ok(TailSession {
        stream,
        buf,
        head_seq,
    })
}

impl TailSession {
    /// The next shipped frame. `Ok(None)` = no complete frame within
    /// the read-timeout window (poll again after checking flags);
    /// `Err` = the connection is gone (reconnect).
    pub fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        loop {
            match wal::decode_frame(&self.buf) {
                Ok(Some((rec, used))) => {
                    self.buf.drain(..used);
                    return Ok(Some(rec));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::other(format!("tail stream corrupt: {e}"))),
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "primary closed the tail",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Run the follower tail loop until promotion (or a fence error): apply
/// every shipped frame through the registry (same WAL-then-publish path
/// and cache invalidation as a local mutation), reconnect with jittered
/// backoff on primary loss. Returns when the node stops being a
/// follower; spawn it on a dedicated thread.
pub fn run_tailer(registry: Arc<ModelRegistry>, rep: Arc<ReplicationState>) {
    let mut backoff_ms = 100u64;
    while rep.is_follower() {
        let Some(live) = registry.live() else { return };
        let from_seq = live.committed_seq();
        match connect_tail(&rep.primary, from_seq) {
            Ok(mut session) => {
                backoff_ms = 100;
                rep.note_received(session.head_seq);
                rep.note_applied(from_seq);
                loop {
                    if !rep.is_follower() {
                        return;
                    }
                    match session.next_record() {
                        Ok(Some(rec)) => {
                            rep.note_received(rec.seq + 1);
                            match registry.apply_replicated(&rec) {
                                Ok(_) => {
                                    let live = registry.live().expect("checked above");
                                    rep.note_applied(live.committed_seq());
                                }
                                // Fenced (promotion won the race) or a
                                // gap the primary should never produce:
                                // stop applying either way.
                                Err(e) => {
                                    eprintln!("replication tail stopped: {e}");
                                    if rep.is_follower() {
                                        break; // gap: reconnect and re-request
                                    }
                                    return;
                                }
                            }
                        }
                        Ok(None) => continue, // idle window — re-check flags
                        Err(_) => break,      // primary gone — reconnect
                    }
                }
            }
            Err(e) => {
                if is_snapshot_required(&e.to_string()) {
                    // The primary compacted past our position while we
                    // were away; a restart re-bootstraps from its
                    // current snapshot. Keep serving (stale) reads.
                    eprintln!("replication tail: {e}; restart this follower to re-bootstrap");
                    std::thread::sleep(Duration::from_secs(5));
                }
            }
        }
        if !rep.is_follower() {
            return;
        }
        rep.note_reconnect();
        std::thread::sleep(Duration::from_millis(backoff_ms) + faults::jitter(backoff_ms));
        backoff_ms = (backoff_ms * 2).min(5_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{FaultPlan, LiveGraphStore, NameIndex};
    use mmkgr_kg::{KnowledgeGraph, Triple, TripleOp};
    use std::fs::OpenOptions;
    use std::net::TcpListener;

    /// Read the next shipped frame off a raw tail stream.
    fn next_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> WalRecord {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((rec, used)) = wal::decode_frame(buf).unwrap() {
                buf.drain(..used);
                return rec;
            }
            let n = stream.read(&mut chunk).expect("a frame before the timeout");
            assert!(n > 0, "shipper hung up");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn tail_never_ships_a_frame_cut_after_it_was_read() {
        let _faults = faults::install(FaultPlan::new());
        let dir = std::env::temp_dir().join(format!("mmkgr-tail-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("graph.wal");
        let base = Arc::new(KnowledgeGraph::from_triples(
            6,
            2,
            vec![Triple::new(0, 0, 1)],
            None,
        ));
        let store = Arc::new(LiveGraphStore::open(base, &wal_path, 0).unwrap());
        let first = [TripleOp::Insert(Triple::new(1, 0, 2))];
        assert_eq!(store.apply(&first).unwrap().seq, 0);

        // Frame A stands for a group's unsynced append: in the file, at
        // the watermark, before the shipper's first read.
        let a = [TripleOp::Insert(Triple::new(3, 0, 4))];
        let cut_at = std::fs::metadata(&wal_path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&wal_path).unwrap();
        file.write_all(&wal::encode_frame(1, &a)).unwrap();

        let mut registry = ModelRegistry::new(NameIndex::new(
            (0..6).map(|i| format!("e{i}")).collect(),
            vec!["r0".into(), "r1".into()],
        ));
        registry.set_live(Arc::clone(&store));
        let rep = ReplicationState::primary(ReplicaSource {
            snapshot: dir.join("unused.mmkg"),
            wal: wal_path.clone(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shipper = {
            let (stop, wal_path) = (Arc::clone(&stop), wal_path.clone());
            std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let _ = ship_tail(&mut conn, &wal_path, 0, &registry, &rep, &stop);
            })
        };
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let body_at = loop {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "shipper hung up in the head");
            buf.extend_from_slice(&chunk[..n]);
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
        };
        buf.drain(..body_at);
        while buf.len() < wal::HEADER_LEN as usize {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0, "shipper hung up in the preamble");
            buf.extend_from_slice(&chunk[..n]);
        }
        buf.drain(..wal::HEADER_LEN as usize);
        // Seq 0 arriving means the shipper has read A's bytes as well.
        assert_eq!(next_frame(&mut client, &mut buf).ops, first);

        // A's sync fails: the group cuts it, and B (a longer frame)
        // commits under the same seq.
        file.set_len(cut_at).unwrap();
        let b = [
            TripleOp::Insert(Triple::new(2, 1, 5)),
            TripleOp::Insert(Triple::new(4, 0, 5)),
        ];
        assert_eq!(store.apply(&b).unwrap().seq, 1);
        let shipped = next_frame(&mut client, &mut buf);
        assert_eq!(shipped.seq, 1);
        assert_eq!(shipped.ops, b, "the follower got the cut frame");

        stop.store(true, Ordering::Relaxed);
        drop(client);
        shipper.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_state_tracks_roles_and_lag() {
        let src = ReplicaSource {
            snapshot: PathBuf::from("/tmp/x.mmkg"),
            wal: PathBuf::from("/tmp/x.wal"),
        };
        let p = ReplicationState::primary(src.clone());
        assert!(!p.is_follower());
        assert!(p.is_caught_up());
        assert_eq!(p.metrics().role, "primary");
        assert_eq!(p.primary_addr(), "");

        let f = ReplicationState::follower("127.0.0.1:9000", src);
        assert!(f.is_follower());
        assert!(!f.is_caught_up());
        assert_eq!(f.primary_addr(), "127.0.0.1:9000");
        f.note_received(10);
        f.note_applied(4);
        let m = f.metrics();
        assert_eq!(m.role, "follower");
        assert_eq!(m.follower_lag_seq, 6);
        assert!(!f.is_caught_up());
        f.note_applied(10);
        assert!(f.is_caught_up());
        assert_eq!(f.metrics().follower_lag_seq, 0);

        // Promotion flips exactly once and never rewinds.
        assert!(f.promote());
        assert!(!f.is_follower());
        assert!(!f.promote());
        assert_eq!(f.metrics().role, "primary");
        assert_eq!(f.primary_addr(), "", "a promoted node is its own primary");
    }

    #[test]
    fn snapshot_required_detail_roundtrips() {
        let detail =
            format!("{SNAPSHOT_REQUIRED}: from_seq 3 predates the oldest retained WAL frame");
        assert!(is_snapshot_required(&detail));
        assert!(!is_snapshot_required("replication gap: got seq 9"));
    }
}
