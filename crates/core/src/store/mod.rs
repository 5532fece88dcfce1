//! `proteus::store` — a crash-safe durable store for in-flight owner
//! sessions and serving lanes.
//!
//! Everything the store persists goes through a write-ahead log of
//! `PRTB` records whose digests are Merkle-style chained (each
//! record's FNV-1a is seeded with the previous record's digest, and each
//! record's checksummed payload names its predecessor's digest — see
//! [`wal`]). Appends commit atomically by renaming a small marker file
//! over the previous one; one commit covers a batch of 1..N chained
//! records ([`Store::record_lane_frames`] journals a whole socket read's
//! frames at once). Recovery replays the committed horizon and truncates
//! any uncommitted tail a crash left behind — a crash mid-batch leaves
//! the whole batch as that tail. The failure discipline matches the net
//! codec's: every bad byte is a typed [`StoreError`], and nothing is
//! ever silently resynced.
//!
//! What the log carries (never a trained artifact: the optimizer side
//! keeps only its config fingerprint):
//!
//! - **Owner sessions** — checkpointed [`ObfuscationSecrets`] plus the
//!   raw optimized frames accepted so far, so a killed owner process can
//!   [`DeobfuscationSession::resume`](crate::DeobfuscationSession::resume)
//!   and finish with bit-identical output.
//! - **Serving lanes** — the input frames a daemon accepted but had not
//!   finished when it died, so a restarted `proteus-serve --store-dir`
//!   re-optimizes them (request-id-keyed determinism makes the replayed
//!   bytes identical) before taking new traffic.
//!
//! Crash matrix (what a `SIGKILL` at any byte boundary means):
//!
//! | killed during            | after recovery                           |
//! |--------------------------|------------------------------------------|
//! | store creation           | WAL holds at most a genesis prefix and no marker exists; nothing was committed — recreated fresh |
//! | WAL batch append         | tail truncated; no record of the batch was acked |
//! | marker tmp write         | old marker intact; tail truncated        |
//! | marker rename            | rename is atomic: old or new, never torn |
//! | any later read           | nothing to recover                       |
//!
//! Every commit fsyncs the WAL, the staged marker, *and* the store
//! directory once before acknowledging its batch, so the commit
//! boundary survives power loss as well as a killed process. A *failed*
//! append rolls the WAL back to the committed horizon before returning
//! its error, so orphan bytes of a half-written batch can never end up
//! under a later marker; if even that rollback fails, the store poisons
//! itself ([`StoreError::Poisoned`]) and refuses further appends until a
//! reopen replays the on-disk truth.
//!
//! A flipped byte is *not* a crash: inside the committed horizon it
//! breaks the frame checksum or the digest chain and surfaces as
//! [`StoreError::Corrupt`]; in the marker it surfaces as
//! [`StoreError::Marker`]. A recovering open and the read-only fsck
//! ([`Store::verify`], surfaced as `proteus-train store verify DIR`) read
//! a directory through one routine, so they give the same verdict.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod codec;
pub mod wal;

pub(crate) use codec::{decode_secrets, encode_secrets};

use crate::bucket::ObfuscationSecrets;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use wal::{Marker, RecordTag, WalRecord};

/// Any failure of the durable store. Typed and fail-closed, like every
/// other decode boundary in the workspace: corruption never degrades
/// into a silent partial recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What was being done.
        context: String,
        /// The OS error, stringified (kept clonable/comparable).
        detail: String,
    },
    /// A byte inside the committed WAL horizon is wrong: a record failed
    /// its frame checksum, broke the digest chain, carried a bad
    /// sequence number or tag, the replay disagrees with the marker, or
    /// a chain-valid record contradicts the records before it.
    Corrupt {
        /// Byte offset in the WAL of the first bad record (or of the
        /// byte where the committed region ends short).
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// The commit marker itself is missing, malformed, or fails its
    /// checksum — the store has no trustworthy committed horizon.
    Marker {
        /// What was wrong.
        detail: String,
    },
    /// The store does not hold what was asked for: no such open
    /// session, or (from [`Store::verify`]) no committed state at all.
    Missing {
        /// What was requested.
        what: String,
    },
    /// The caller drove the store out of protocol (checkpointing the
    /// same request twice, journaling a frame for a request that was
    /// never opened, ...).
    Invalid {
        /// What was wrong.
        detail: String,
    },
    /// A failed append could not be cleanly undone (the WAL rollback
    /// or the directory sync after a committed rename failed), or a
    /// record that was already durable failed to apply to the indexes,
    /// so the in-memory view can no longer be trusted to match the disk.
    /// Further appends are refused; reopening the store replays the
    /// on-disk truth and recovers.
    Poisoned {
        /// The failure that poisoned the store.
        detail: String,
    },
    /// The genesis record names a store format version this library
    /// does not read (see [`wal::STORE_FORMAT_VERSION`]). There is no
    /// migration: the store must be recreated.
    Version {
        /// The version the store was written with.
        found: u32,
        /// The one version this library reads.
        supported: u32,
    },
}

impl StoreError {
    fn io(context: impl Into<String>, err: &std::io::Error) -> StoreError {
        StoreError::Io {
            context: context.into(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn corrupt(offset: u64, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            offset,
            detail: detail.into(),
        }
    }

    pub(crate) fn marker(detail: impl Into<String>) -> StoreError {
        StoreError::Marker {
            detail: detail.into(),
        }
    }

    fn missing(what: impl Into<String>) -> StoreError {
        StoreError::Missing { what: what.into() }
    }

    fn invalid(detail: impl Into<String>) -> StoreError {
        StoreError::Invalid {
            detail: detail.into(),
        }
    }

    fn poisoned(detail: impl Into<String>) -> StoreError {
        StoreError::Poisoned {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, detail } => {
                write!(f, "store i/o error {context}: {detail}")
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "store corrupt at byte {offset}: {detail}")
            }
            StoreError::Marker { detail } => write!(f, "store commit marker unusable: {detail}"),
            StoreError::Missing { what } => write!(f, "store does not hold {what}"),
            StoreError::Invalid { detail } => write!(f, "store misuse: {detail}"),
            StoreError::Poisoned { detail } => {
                write!(f, "store poisoned (reopen to recover): {detail}")
            }
            StoreError::Version { found, supported } => write!(
                f,
                "store format version {found} is not supported (this library reads \
                 version {supported} only; recreate the store)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`Store::open_or_create`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether the store was created fresh (no prior state existed).
    pub created: bool,
    /// Committed records replayed.
    pub records: u64,
    /// Uncommitted tail bytes truncated (a crash between append and
    /// commit left them; the append was never acknowledged).
    pub truncated_bytes: u64,
    /// Owner sessions still open after replay.
    pub open_sessions: usize,
    /// Serving lanes still pending after replay.
    pub pending_lanes: usize,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.created {
            return write!(f, "created fresh store");
        }
        write!(
            f,
            "replayed {} record(s) ({} open session(s), {} pending lane(s))",
            self.records, self.open_sessions, self.pending_lanes
        )?;
        if self.truncated_bytes > 0 {
            write!(
                f,
                "; truncated {} uncommitted tail byte(s)",
                self.truncated_bytes
            )?;
        }
        Ok(())
    }
}

/// What [`Store::verify`] (the read-only fsck) found in a healthy store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Committed records verified.
    pub records: u64,
    /// Committed WAL bytes.
    pub committed_len: u64,
    /// Chain digest at the committed horizon.
    pub chain_digest: u64,
    /// Uncommitted tail bytes present (would be truncated by a
    /// recovering open; harmless).
    pub tail_bytes: u64,
    /// Owner sessions open.
    pub open_sessions: usize,
    /// Serving lanes pending.
    pub pending_lanes: usize,
}

/// Journaled state of one open owner session.
#[derive(Debug, Clone)]
struct SessionState {
    /// WAL byte offset of the session's `SessionOpen` record.
    offset: u64,
    secrets: Bytes,
    frames: Vec<Bytes>,
}

/// The session and lane indexes: what replay rebuilds from the WAL and
/// every append extends.
#[derive(Debug, Default)]
struct Index {
    sessions: BTreeMap<u64, SessionState>,
    lanes: BTreeMap<u64, Vec<Bytes>>,
}

/// A store directory's committed state, as [`read_committed`] found it.
#[derive(Debug)]
struct Committed {
    marker: Marker,
    /// WAL length on disk; the bytes past `marker.committed_len` are an
    /// uncommitted tail.
    wal_len: u64,
    index: Index,
}

/// Mutable state behind the store's lock: the WAL append handle, the
/// chain position, and the indexes.
#[derive(Debug)]
struct Inner {
    wal: File,
    chain: u64,
    records: u64,
    committed_len: u64,
    /// `Some` when a failed append could not be cleanly undone: the
    /// in-memory view may disagree with the WAL bytes, so appends are
    /// refused until the store is reopened (which replays the disk).
    poisoned: Option<String>,
    index: Index,
    /// Test-only fault injection: the next append writes half of its
    /// batch and then fails, the way ENOSPC mid-`write_all` would.
    #[cfg(test)]
    fail_next_append: bool,
}

impl Inner {
    /// In-memory state positioned at `horizon` with the indexes replay
    /// rebuilt up to it.
    fn new(wal: File, horizon: &Marker, index: Index) -> Inner {
        Inner {
            wal,
            chain: horizon.chain,
            records: horizon.records,
            committed_len: horizon.committed_len,
            poisoned: None,
            index,
            #[cfg(test)]
            fail_next_append: false,
        }
    }
}

/// Rolls the WAL back to the committed horizon after a failed append,
/// so the orphan bytes of a half-written batch can never sit under a
/// marker a *later* successful append commits (replay would then hit
/// `Corrupt` and the store would be unrecoverable). When even the
/// rollback fails, the store poisons itself: further appends are
/// refused, and only a reopen — whose recovery truncates the tail from
/// the on-disk truth — resumes service.
fn rollback(inner: &mut Inner, cause: StoreError) -> StoreError {
    if let Err(e) = inner
        .wal
        .set_len(inner.committed_len)
        .and_then(|()| inner.wal.sync_data())
    {
        inner.poisoned = Some(format!(
            "append failed ({cause}) and rolling the WAL back failed too ({e})"
        ));
    }
    cause
}

/// Fsyncs the store directory so a just-renamed marker (and the WAL's
/// directory entry) survive power loss, not just process death.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The crash-safe durable store. Thread-safe behind one internal lock —
/// share it as an `Arc<Store>` between a serving daemon's connection
/// threads.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

/// The bytes of `path`, or `None` when it does not exist.
fn read_if_present(path: &Path, what: &str) -> Result<Option<Vec<u8>>, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StoreError::io(format!("reading {what}"), &e)),
    }
}

/// Reads a store directory without writing to it: the one routine
/// behind both a recovering [`Store::open_or_create`] and the fsck
/// [`Store::verify`]. It classifies the directory by which files exist,
/// reads the marker, replays the WAL against it, and applies every
/// record to the session and lane indexes. `None` means nothing was
/// ever committed (an open creates the store fresh).
fn read_committed(dir: &Path) -> Result<Option<Committed>, StoreError> {
    let wal_bytes = read_if_present(&Store::wal_path(dir), "WAL")?;
    let marker_bytes = read_if_present(&Store::marker_path(dir), "commit marker")?;
    let (wal_bytes, marker_bytes) = match (wal_bytes, marker_bytes) {
        (None, None) => return Ok(None),
        (Some(wal_bytes), Some(marker_bytes)) => (wal_bytes, marker_bytes),
        (Some(wal_bytes), None) => {
            // a crash inside `create`, before the first marker rename
            if wal::genesis_record().starts_with(&wal_bytes) {
                return Ok(None);
            }
            return Err(StoreError::marker(
                "WAL exists but the commit marker is missing — no committed horizon to recover to",
            ));
        }
        (None, Some(_)) => {
            return Err(StoreError::marker(
                "commit marker exists but the WAL is missing",
            ))
        }
    };
    let marker = wal::decode_marker(&marker_bytes)?;
    // interpret the records too: a digest-valid log whose contents are
    // self-inconsistent (frame for an unopened session, a lane finished
    // twice) is still corruption
    let mut index = Index::default();
    for record in wal::replay(&wal_bytes, &marker)? {
        apply(&mut index, &record).map_err(|detail| StoreError::corrupt(record.offset, detail))?;
    }
    Ok(Some(Committed {
        marker,
        wal_len: wal_bytes.len() as u64,
        index,
    }))
}

impl Store {
    /// Path of the WAL file inside a store directory.
    pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(wal::WAL_FILE)
    }

    /// Path of the commit marker inside a store directory.
    pub fn marker_path(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(wal::MARKER_FILE)
    }

    /// Opens the store at `dir`, creating it (directory, genesis record,
    /// first commit marker) when nothing is there yet.
    ///
    /// Opening an existing store replays the committed horizon —
    /// verifying every frame checksum, the digest chain, and the
    /// sequence numbers against the marker — then truncates any
    /// uncommitted tail a crash left. The report says what happened.
    ///
    /// A WAL with no marker that holds at most a (possibly torn)
    /// prefix of the genesis record is a crash *during creation* —
    /// nothing was ever committed — and is recreated fresh. Any other
    /// WAL without a marker lost its commit horizon and is refused.
    ///
    /// # Errors
    /// [`StoreError::Marker`] / [`StoreError::Corrupt`] when the state
    /// on disk cannot be trusted (marker missing with committed-looking
    /// data present, WAL missing, a failed checksum, a broken chain);
    /// [`StoreError::Io`] on filesystem failure. Never a partial
    /// recovery.
    pub fn open_or_create(dir: impl AsRef<Path>) -> Result<(Store, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("creating {}", dir.display()), &e))?;
        match read_committed(&dir)? {
            None => Store::create(dir),
            Some(committed) => Store::recover(dir, committed),
        }
    }

    fn create(dir: PathBuf) -> Result<(Store, RecoveryReport), StoreError> {
        let wal_path = Store::wal_path(&dir);
        // a partial genesis WAL from a creation crash may exist
        // (open_or_create routes that state here): remove it, since
        // `truncate` cannot be combined with the append mode we need —
        // rollback after a failed append shrinks the file with
        // `set_len`, and O_APPEND keeps the next write at the new end
        // instead of a stale cursor past EOF
        if wal_path.exists() {
            std::fs::remove_file(&wal_path)
                .map_err(|e| StoreError::io(format!("removing {}", wal_path.display()), &e))?;
        }
        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| StoreError::io(format!("creating {}", wal_path.display()), &e))?;
        let store = Store {
            dir,
            inner: Mutex::new(Inner::new(
                wal,
                &Marker {
                    committed_len: 0,
                    chain: wal::CHAIN_SEED,
                    records: 0,
                },
                Index::default(),
            )),
        };
        {
            let mut inner = store.lock();
            let body = Bytes::copy_from_slice(&wal::STORE_FORMAT_VERSION.to_le_bytes());
            store.append(&mut inner, vec![(RecordTag::Genesis, body)])?;
        }
        Ok((
            store,
            RecoveryReport {
                created: true,
                records: 1,
                ..RecoveryReport::default()
            },
        ))
    }

    fn recover(dir: PathBuf, committed: Committed) -> Result<(Store, RecoveryReport), StoreError> {
        let marker = committed.marker;
        let wal_path = Store::wal_path(&dir);
        let inner = Inner::new(
            OpenOptions::new()
                .append(true)
                .open(&wal_path)
                .map_err(|e| StoreError::io(format!("opening {}", wal_path.display()), &e))?,
            &marker,
            committed.index,
        );

        // truncate the uncommitted tail (a crash between append and
        // marker rename); those bytes were never acknowledged
        let truncated_bytes = committed.wal_len - marker.committed_len;
        if truncated_bytes > 0 {
            inner
                .wal
                .set_len(marker.committed_len)
                .and_then(|()| inner.wal.sync_data())
                .map_err(|e| StoreError::io("truncating uncommitted tail", &e))?;
        }

        let report = RecoveryReport {
            created: false,
            records: marker.records,
            truncated_bytes,
            open_sessions: inner.index.sessions.len(),
            pending_lanes: inner.index.lanes.len(),
        };
        Ok((
            Store {
                dir,
                inner: Mutex::new(inner),
            },
            report,
        ))
    }

    /// Read-only fsck of the store at `dir`: reads the directory through
    /// the same routine a recovering open uses, and stops before opening
    /// the WAL for append or truncating anything. The tool surface is
    /// `proteus-train store verify DIR`.
    ///
    /// # Errors
    /// Exactly the errors [`Store::open_or_create`] would report, and
    /// [`StoreError::Missing`] where an open would create a fresh store
    /// instead (no files, or a WAL holding at most a genesis prefix and
    /// no marker).
    pub fn verify(dir: impl AsRef<Path>) -> Result<VerifyReport, StoreError> {
        let dir = dir.as_ref();
        let missing = || StoreError::missing(format!("any committed state in {}", dir.display()));
        let committed = read_committed(dir)?.ok_or_else(missing)?;
        let marker = committed.marker;
        Ok(VerifyReport {
            records: marker.records,
            committed_len: marker.committed_len,
            chain_digest: marker.chain,
            tail_bytes: committed.wal_len - marker.committed_len,
            open_sessions: committed.index.sessions.len(),
            pending_lanes: committed.index.lanes.len(),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Committed records in the log.
    pub fn records(&self) -> u64 {
        self.lock().records
    }

    /// Committed WAL length in bytes.
    pub fn committed_len(&self) -> u64 {
        self.lock().committed_len
    }

    /// Whether a failed append has poisoned the store — appends are
    /// refused with [`StoreError::Poisoned`] until it is reopened. A
    /// health signal for long-running daemons.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned.is_some()
    }

    /// Makes the next append write half of its batch and fail, the way
    /// ENOSPC mid-`write_all` would.
    #[cfg(test)]
    fn inject_append_failure(&self) {
        self.lock().fail_next_append = true;
    }

    // -- owner sessions -----------------------------------------------

    /// Opens a durable session for `secrets.request_id`: checkpoints the
    /// secrets so the reassembly can be resumed after a crash.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] when the request is already open;
    /// [`StoreError::Io`] on append failure.
    pub fn checkpoint_session(&self, secrets: &ObfuscationSecrets) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.index.sessions.contains_key(&secrets.request_id) {
            return Err(StoreError::invalid(format!(
                "session {:#x} is already open",
                secrets.request_id
            )));
        }
        let body = encode_secrets(secrets);
        self.append(&mut inner, vec![(RecordTag::SessionOpen, body)])
    }

    /// Journals one accepted optimized frame (raw v3 wire bytes) for an
    /// open session.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] when no such session is open;
    /// [`StoreError::Io`] on append failure.
    pub fn checkpoint_frame(&self, request_id: u64, frame: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if !inner.index.sessions.contains_key(&request_id) {
            return Err(StoreError::invalid(format!(
                "no open session {request_id:#x} to journal a frame for"
            )));
        }
        let body = id_prefixed(request_id, frame);
        self.append(&mut inner, vec![(RecordTag::SessionFrame, body)])
    }

    /// Marks a session finished; its journaled state is garbage from
    /// here on and will not be offered for resume.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] when no such session is open;
    /// [`StoreError::Io`] on append failure.
    pub fn finish_session(&self, request_id: u64) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if !inner.index.sessions.contains_key(&request_id) {
            return Err(StoreError::invalid(format!(
                "no open session {request_id:#x} to finish"
            )));
        }
        let body = id_prefixed(request_id, &[]);
        self.append(&mut inner, vec![(RecordTag::SessionDone, body)])
    }

    /// Request ids of every session still open (checkpointed, never
    /// finished), in ascending order.
    pub fn open_sessions(&self) -> Vec<u64> {
        self.lock().index.sessions.keys().copied().collect()
    }

    /// The journaled state of an open session: its decoded secrets and
    /// the raw frames accepted before the interruption — exactly the
    /// arguments of
    /// [`DeobfuscationSession::resume`](crate::DeobfuscationSession::resume).
    ///
    /// # Errors
    /// [`StoreError::Missing`] when no such session is open;
    /// [`StoreError::Corrupt`] when the journaled secrets no longer
    /// decode (cannot happen without on-disk tampering surviving the
    /// chain — defense in depth).
    pub fn resume_session(
        &self,
        request_id: u64,
    ) -> Result<(ObfuscationSecrets, Vec<Bytes>), StoreError> {
        let inner = self.lock();
        let state = inner
            .index
            .sessions
            .get(&request_id)
            .ok_or_else(|| StoreError::missing(format!("an open session {request_id:#x}")))?;
        let mut sbytes = state.secrets.clone();
        let secrets = decode_secrets(&mut sbytes)
            .map_err(|e| StoreError::corrupt(state.offset, format!("journaled secrets: {e}")))?;
        Ok((secrets, state.frames.clone()))
    }

    // -- serving lanes ------------------------------------------------

    /// Journals one input frame (raw wire bytes) submitted to a serving
    /// lane. The first frame of a request id opens the lane. The
    /// one-frame case of [`Store::record_lane_frames`].
    ///
    /// # Errors
    /// [`StoreError::Io`] on append failure.
    pub fn record_lane_frame(&self, request_id: u64, frame: &[u8]) -> Result<(), StoreError> {
        self.record_lane_frames(&[(request_id, frame)])
    }

    /// Journals a batch of `(request id, raw frame)` lane submissions,
    /// in order, under one commit: one WAL write and fsync, one marker
    /// rename and one directory sync for the whole batch. All of the
    /// batch is durable when this returns `Ok`, or none of it is. An
    /// empty batch appends nothing.
    ///
    /// # Errors
    /// [`StoreError::Io`] on append failure (the batch is rolled back).
    pub fn record_lane_frames(&self, frames: &[(u64, &[u8])]) -> Result<(), StoreError> {
        let batch = frames
            .iter()
            .map(|&(request_id, frame)| (RecordTag::LaneSubmit, id_prefixed(request_id, frame)))
            .collect();
        self.append(&mut self.lock(), batch)
    }

    /// Marks a serving lane fully delivered; it will not be re-run on
    /// recovery. A lane that was never journaled is fine to finish —
    /// the daemon calls this unconditionally at lane teardown.
    ///
    /// # Errors
    /// [`StoreError::Io`] on append failure.
    pub fn finish_lane(&self, request_id: u64) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if !inner.index.lanes.contains_key(&request_id) {
            return Ok(());
        }
        let body = id_prefixed(request_id, &[]);
        self.append(&mut inner, vec![(RecordTag::LaneDone, body)])
    }

    /// Every pending lane (submitted frames that were never marked
    /// delivered), in ascending request-id order — what a restarted
    /// daemon re-optimizes before taking traffic.
    pub fn pending_lanes(&self) -> Vec<(u64, Vec<Bytes>)> {
        self.lock()
            .index
            .lanes
            .iter()
            .map(|(rid, frames)| (*rid, frames.clone()))
            .collect()
    }

    // -- internals ----------------------------------------------------

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // the store holds no state that can go inconsistent under a
        // panicking holder half-way: appends write-then-apply, and a
        // durable record that fails to apply poisons the store instead
        // of panicking. Healing the lock poison keeps the daemon serving.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends a batch of records and commits them together: encode the
    /// chained records into one buffer, write + flush + fsync the WAL
    /// once, atomically rename the marker for the batch's final horizon
    /// into place, fsync the store directory (so the rename — and, on
    /// the first append, the WAL's directory entry — survive power loss,
    /// not just process death), then apply each record to the in-memory
    /// indexes. Only returns `Ok` after the directory sync — the
    /// all-or-nothing acknowledgement boundary of the whole batch. An
    /// empty batch commits nothing.
    ///
    /// A failed append never leaves orphan bytes under a later marker:
    /// the WAL is [`rollback`]ed to the committed horizon before the
    /// error returns, and when that cannot be done the store poisons
    /// itself and refuses further appends ([`StoreError::Poisoned`]). A
    /// committed record that fails to apply (callers validate before
    /// appending, so this is a broken invariant) poisons the store too.
    fn append(&self, inner: &mut Inner, batch: Vec<(RecordTag, Bytes)>) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        if let Some(detail) = &inner.poisoned {
            return Err(StoreError::poisoned(detail.clone()));
        }
        let mut chain = inner.chain;
        let mut records = Vec::with_capacity(
            batch
                .iter()
                .map(|(_, body)| body.len() + wal::RECORD_OVERHEAD)
                .sum(),
        );
        let mut decoded = Vec::with_capacity(batch.len());
        for (seq, (tag, body)) in (inner.records..).zip(batch) {
            let record = wal::encode_record(tag, seq, chain, &body);
            chain = wal::chain_digest(chain, &record);
            let offset = inner.committed_len + records.len() as u64;
            records.extend_from_slice(&record);
            decoded.push(WalRecord {
                tag,
                seq,
                offset,
                body,
            });
        }
        #[cfg(test)]
        if inner.fail_next_append {
            inner.fail_next_append = false;
            let _ = inner.wal.write_all(&records[..records.len() / 2]);
            let _ = inner.wal.sync_data();
            let injected = std::io::Error::other("injected mid-write failure");
            let cause = StoreError::io("appending WAL records", &injected);
            return Err(rollback(inner, cause));
        }
        if let Err(e) = inner
            .wal
            .write_all(&records)
            .and_then(|()| inner.wal.flush())
            .and_then(|()| inner.wal.sync_data())
        {
            return Err(rollback(inner, StoreError::io("appending WAL records", &e)));
        }
        let marker = Marker {
            committed_len: inner.committed_len + records.len() as u64,
            chain,
            records: inner.records + decoded.len() as u64,
        };
        let marker_bytes = wal::encode_marker(&marker);
        let tmp = self.dir.join(wal::MARKER_TMP_FILE);
        let dst = self.dir.join(wal::MARKER_FILE);
        let stage = |tmp: &Path| -> std::io::Result<()> {
            let mut f = File::create(tmp)?;
            f.write_all(&marker_bytes)?;
            f.sync_data()?;
            std::fs::rename(tmp, &dst)
        };
        if let Err(e) = stage(&tmp) {
            return Err(rollback(inner, StoreError::io("committing marker", &e)));
        }
        if let Err(e) = sync_dir(&self.dir) {
            // the new marker is already renamed into place, so the
            // batch must *stay* — truncating now would leave the
            // marker claiming bytes the WAL no longer has. Poison
            // instead; a reopen replays the (consistent) on-disk state.
            let err = StoreError::io("syncing store directory", &e);
            inner.poisoned = Some(err.to_string());
            return Err(err);
        }
        inner.chain = chain;
        inner.records = marker.records;
        inner.committed_len = marker.committed_len;
        for record in &decoded {
            if let Err(detail) = apply(&mut inner.index, record) {
                let detail = format!(
                    "committed record {} at byte {} failed to apply: {detail}",
                    record.seq, record.offset
                );
                inner.poisoned = Some(detail.clone());
                return Err(StoreError::poisoned(detail));
            }
        }
        Ok(())
    }
}

/// A record body that opens with a request id: `request_id u64 | rest`.
fn id_prefixed(request_id: u64, rest: &[u8]) -> Bytes {
    let mut body = BytesMut::with_capacity(8 + rest.len());
    body.put_u64_le(request_id);
    body.put_slice(rest);
    body.freeze()
}

/// Interprets one chain-verified record into the indexes. Returns a
/// description of the inconsistency when the log is
/// self-contradictory (callers wrap it in [`StoreError::Corrupt`]
/// at the record's byte offset).
fn apply(index: &mut Index, record: &WalRecord) -> Result<(), String> {
    let mut body = record.body.clone();
    match record.tag {
        // replay checked the genesis record's version
        RecordTag::Genesis => {
            if record.seq != 0 {
                return Err(format!("genesis record at sequence {}", record.seq));
            }
        }
        RecordTag::SessionOpen => {
            let mut peek = body.clone();
            if peek.remaining() < 9 {
                return Err("session-open record too short".into());
            }
            peek.get_u8(); // codec version; validated on resume
            let request_id = peek.get_u64_le();
            if index.sessions.contains_key(&request_id) {
                return Err(format!("session {request_id:#x} opened twice"));
            }
            index.sessions.insert(
                request_id,
                SessionState {
                    offset: record.offset,
                    secrets: body,
                    frames: Vec::new(),
                },
            );
        }
        RecordTag::SessionFrame => {
            if body.remaining() < 8 {
                return Err("session-frame record too short".into());
            }
            let request_id = body.get_u64_le();
            let state = index
                .sessions
                .get_mut(&request_id)
                .ok_or_else(|| format!("frame journaled for unopened session {request_id:#x}"))?;
            state.frames.push(body);
        }
        RecordTag::SessionDone => {
            if body.remaining() < 8 {
                return Err("session-done record too short".into());
            }
            let request_id = body.get_u64_le();
            if index.sessions.remove(&request_id).is_none() {
                return Err(format!("unopened session {request_id:#x} marked done"));
            }
        }
        RecordTag::LaneSubmit => {
            if body.remaining() < 8 {
                return Err("lane-submit record too short".into());
            }
            let request_id = body.get_u64_le();
            index.lanes.entry(request_id).or_default().push(body);
        }
        RecordTag::LaneDone => {
            if body.remaining() < 8 {
                return Err("lane-done record too short".into());
            }
            let request_id = body.get_u64_le();
            if index.lanes.remove(&request_id).is_none() {
                return Err(format!("unsubmitted lane {request_id:#x} marked done"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proteus-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_store_reopens_empty() {
        let dir = tempdir("fresh");
        let (store, report) = Store::open_or_create(&dir).unwrap();
        assert!(report.created);
        assert_eq!(store.records(), 1, "genesis only");
        drop(store);
        let (store, report) = Store::open_or_create(&dir).unwrap();
        assert!(!report.created);
        assert_eq!(report.records, 1);
        assert_eq!(report.truncated_bytes, 0);
        assert!(store.pending_lanes().is_empty());
        assert!(store.open_sessions().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lane_journal_survives_reopen_until_done() {
        let dir = tempdir("lanes");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(7, b"frame-a").unwrap();
        store.record_lane_frame(7, b"frame-b").unwrap();
        store.record_lane_frame(9, b"frame-c").unwrap();
        store.finish_lane(9).unwrap();
        store.finish_lane(1234).unwrap(); // never journaled: a no-op
        drop(store);
        let (store, report) = Store::open_or_create(&dir).unwrap();
        assert_eq!(report.pending_lanes, 1);
        let lanes = store.pending_lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].0, 7);
        assert_eq!(&lanes[0].1[0][..], b"frame-a");
        assert_eq!(&lanes[0].1[1][..], b"frame-b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misuse_is_typed_invalid() {
        let dir = tempdir("misuse");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        let err = store.checkpoint_frame(99, b"frame").unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        let err = store.finish_session(99).unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        let err = store.resume_session(99).unwrap_err();
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_missing_store_is_typed_marker_error() {
        let dir = tempdir("half");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        // committed data beyond genesis: losing the marker now means
        // acknowledged state has no horizon — must refuse, not recreate
        store.record_lane_frame(0xA, b"acked-bytes").unwrap();
        drop(store);
        std::fs::remove_file(Store::marker_path(&dir)).unwrap();
        let err = Store::verify(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Marker { .. }), "{err}");
        assert!(!Store::marker_path(&dir).exists(), "verify wrote a marker");
        assert_eq!(Store::open_or_create(&dir).unwrap_err(), err);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_marker_without_its_wal_is_typed_marker_error() {
        let dir = tempdir("markeronly");
        drop(Store::open_or_create(&dir).unwrap());
        std::fs::remove_file(Store::wal_path(&dir)).unwrap();
        let err = Store::verify(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Marker { .. }), "{err}");
        assert!(!Store::wal_path(&dir).exists(), "verify wrote a WAL");
        assert_eq!(Store::open_or_create(&dir).unwrap_err(), err);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_finds_no_store_where_open_would_create_one() {
        // a missing directory, then an empty one: verify creates neither
        // the directory nor a file in it
        let dir = tempdir("verifyempty");
        for _ in 0..2 {
            let err = Store::verify(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Missing { .. }), "{err}");
            assert!(!Store::wal_path(&dir).exists(), "verify wrote a WAL");
            std::fs::create_dir_all(&dir).unwrap();
        }
        assert!(Store::open_or_create(&dir).unwrap().1.created);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_creation_recreates_fresh() {
        // a kill anywhere inside create() leaves a prefix of the
        // canonical genesis record and no marker; every such state must
        // open as a fresh store
        let genesis = wal::genesis_record();
        let dir = tempdir("createcrash");
        for cut in [0, 1, genesis.len() / 2, genesis.len()] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(Store::wal_path(&dir), &genesis[..cut]).unwrap();
            // the fsck reports no store there and writes nothing
            let err = Store::verify(&dir).unwrap_err();
            assert!(
                matches!(err, StoreError::Missing { .. }),
                "cut {cut}: {err}"
            );
            let wal = std::fs::read(Store::wal_path(&dir)).unwrap();
            assert_eq!(wal, &genesis[..cut], "cut {cut}: verify rewrote the WAL");
            assert!(!Store::marker_path(&dir).exists(), "cut {cut}");
            let (store, report) = Store::open_or_create(&dir)
                .unwrap_or_else(|e| panic!("creation crash at byte {cut} not recovered: {e}"));
            assert!(report.created, "cut {cut}");
            assert_eq!(store.records(), 1, "cut {cut}: genesis only");
            drop(store);
        }
        // anything that is NOT a genesis prefix must still refuse
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Store::wal_path(&dir), b"not a genesis record").unwrap();
        let err = Store::verify(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Marker { .. }), "{err}");
        assert_eq!(Store::open_or_create(&dir).unwrap_err(), err);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_back_and_the_store_stays_usable() {
        let dir = tempdir("rollback");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(0x1, b"first").unwrap();
        let committed = store.committed_len();

        store.inject_append_failure();
        let err = store.record_lane_frame(0x2, b"doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!store.is_poisoned(), "rollback succeeded, not poisoned");
        // the orphan bytes are gone from the WAL, not just unclaimed
        let wal_len = std::fs::metadata(Store::wal_path(&dir)).unwrap().len();
        assert_eq!(wal_len, committed, "orphan record bytes not rolled back");

        // the next append lands after the rollback point and the store
        // reopens clean — the exact scenario that used to brick it
        store.record_lane_frame(0x3, b"second").unwrap();
        drop(store);
        let (store, report) = Store::open_or_create(&dir).unwrap();
        assert_eq!(report.pending_lanes, 2);
        let rids: Vec<u64> = store.pending_lanes().iter().map(|l| l.0).collect();
        assert_eq!(rids, [0x1, 0x3]);
        assert!(Store::verify(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_batch_changes_nothing() {
        let dir = tempdir("emptybatch");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(3, b"frame").unwrap();
        let records = store.records();
        let wal_len = std::fs::metadata(Store::wal_path(&dir)).unwrap().len();
        let marker = std::fs::read(Store::marker_path(&dir)).unwrap();
        store.record_lane_frames(&[]).unwrap();
        assert_eq!(store.records(), records);
        assert_eq!(store.committed_len(), wal_len);
        let wal_after = std::fs::metadata(Store::wal_path(&dir)).unwrap().len();
        assert_eq!(wal_after, wal_len, "WAL grew");
        let marker_after = std::fs::read(Store::marker_path(&dir)).unwrap();
        assert_eq!(marker_after, marker, "marker rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_batch_rolls_back_whole_and_the_store_stays_usable() {
        let dir = tempdir("batchrollback");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(1, b"kept").unwrap();
        let (records, committed) = (store.records(), store.committed_len());

        store.inject_append_failure();
        let frames: [(u64, &[u8]); 3] = [(1, &[0xA1; 64]), (2, &[0xA2; 64]), (3, &[0xA3; 64])];
        let err = store.record_lane_frames(&frames).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!store.is_poisoned(), "rollback succeeded, not poisoned");
        assert_eq!(store.records(), records, "no record of the batch counted");
        let wal_len = std::fs::metadata(Store::wal_path(&dir)).unwrap().len();
        assert_eq!(wal_len, committed, "orphan batch bytes not rolled back");
        assert_eq!(
            store.pending_lanes().len(),
            1,
            "no lane of the batch indexed"
        );

        store.record_lane_frames(&frames[1..]).unwrap();
        drop(store);
        let (store, report) = Store::open_or_create(&dir).unwrap();
        assert_eq!(report.records, records + 2);
        let rids: Vec<u64> = store.pending_lanes().iter().map(|l| l.0).collect();
        assert_eq!(rids, [1, 2, 3]);
        assert_eq!(
            store.pending_lanes()[0].1.len(),
            1,
            "failed frame resurfaced"
        );
        assert!(Store::verify(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_committed_record_that_fails_to_apply_poisons_instead_of_panicking() {
        let dir = tempdir("applyfail");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        // skip the caller-side validation: a lane-done mark for a lane
        // that was never submitted is durable but cannot apply
        let err = {
            let mut inner = store.lock();
            let body = id_prefixed(42, &[]);
            store
                .append(&mut inner, vec![(RecordTag::LaneDone, body)])
                .unwrap_err()
        };
        assert!(matches!(err, StoreError::Poisoned { .. }), "{err}");
        assert!(store.is_poisoned());
        let err = store.record_lane_frame(1, b"refused").unwrap_err();
        assert!(matches!(err, StoreError::Poisoned { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_that_fails_to_apply_is_reported_at_its_byte_offset() {
        let dir = tempdir("applyoffset");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(1, b"frame").unwrap();
        let at = store.committed_len();
        // durable, chain-valid, and contradicts the log: lane 42 was
        // never submitted
        let batch = vec![(RecordTag::LaneDone, id_prefixed(42, &[]))];
        let _ = store.append(&mut store.lock(), batch);
        drop(store);
        let err = Store::open_or_create(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { offset, .. } if offset == at),
            "want Corrupt at byte {at}, got {err}"
        );
        assert_eq!(Store::verify(&dir).unwrap_err(), err, "verify disagrees");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_journaled_secrets_are_reported_at_their_record_offset() {
        let dir = tempdir("secretsoffset");
        let (store, _) = Store::open_or_create(&dir).unwrap();
        store.record_lane_frame(1, b"frame").unwrap();
        let at = store.committed_len();
        // codec version 1 and request id 7 index the session; the
        // secrets after them do not decode
        let body = Bytes::from([&[1][..], &7u64.to_le_bytes(), b"junk"].concat());
        let batch = vec![(RecordTag::SessionOpen, body)];
        store.append(&mut store.lock(), batch).unwrap();
        let err = store.resume_session(7).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { offset, .. } if offset == at),
            "want Corrupt at byte {at}, got {err}"
        );
        drop(store);
        let (store, _) = Store::open_or_create(&dir).unwrap();
        assert_eq!(store.resume_session(7).unwrap_err(), err, "after reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
