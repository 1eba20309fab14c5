//! Write-ahead tick log + sealed-state snapshots for the serving layer.
//!
//! Because batch ticks are byte-deterministic under any thread pool
//! (pinned by `tests/determinism.rs`), durability reduces to the
//! "rebuild state from an ordered input chain" idiom: persist the
//! ordered per-tick request batches, replay them through the normal
//! tick path, and land on the exact pre-crash state. This module owns
//! the two on-disk artifacts:
//!
//! * **`ticks.wal`** — an append-only log. A fixed header binds the log
//!   to its service configuration (seed, batch size, instance shape);
//!   each record is one executed tick's canonical request batch:
//!
//!   ```text
//!   header = magic "TMWL" u32 │ version u32 │ seed u64 │ batch u64
//!          │ n u64 │ m u64 │ crc32 u32
//!   record = magic "TKRC" u32 │ tick u64 │ count u32
//!          │ count × (seq u64 │ request frame)   ── wire codec frames
//!          │ crc32 u32                           ── over all of the above
//!   ```
//!
//!   Records are written *before* the tick executes (true write-ahead)
//!   and fsynced at seal, so a crash can lose at most the in-flight
//!   record — which recovery detects by CRC/truncation and chops off
//!   (the torn tail). All integers are little-endian, like the wire
//!   codec whose [`Sink`]/[`Take`] helpers this module reuses.
//!
//! * **`snapshot.bin`** — a periodic serialization of the sealed
//!   service state (registry, probe memo, visible billboard posts),
//!   written to a temp file and atomically renamed, so recovery can
//!   start from the latest sealed epoch instead of replaying the whole
//!   log. A missing or corrupt snapshot is never fatal: recovery falls
//!   back to full replay.
//!
//! Everything is hand-rolled (shims policy: no serde, no crc crate);
//! the CRC32 is the standard reflected IEEE polynomial via a
//! compile-time table.

use crate::wire::{decode_request, encode_request, Request, Sink, Take, MAX_FRAME};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tmwia_obs::{MetricId, Registry as ObsRegistry};

/// Log file name inside a WAL directory.
pub const WAL_FILE: &str = "ticks.wal";
/// Snapshot file name inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Hard cap on entries in one tick record. Far above any real batch
/// (a tick executes at most `batch_size` requests, a few hundred in
/// practice) but comfortably under `u32::MAX`: the on-wire
/// `count: u32` field can never wrap, and a corrupt count read back
/// from disk can never drive a giant up-front allocation.
pub const MAX_RECORD_ENTRIES: usize = 1 << 20;

const HEADER_MAGIC: u32 = 0x4C57_4D54; // "TMWL" little-endian
const RECORD_MAGIC: u32 = 0x4352_4B54; // "TKRC"
const SNAPSHOT_MAGIC: u32 = 0x5353_4D54; // "TMSS"
const VERSION: u32 = 1;

// ---------------------------------------------------------------- checksums

/// Compile-time CRC32 (IEEE, reflected) table.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// FNV-1a 64-bit hash — used to fingerprint recovered state digests in
/// CLI output so transcript diffs also gate state equality. The one
/// implementation lives in `tmwia-obs`; this path stays for callers.
pub use tmwia_obs::fnv64;

// ---------------------------------------------------------------- errors

/// Durability-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(String),
    /// The log exists but cannot be trusted (bad header magic/CRC, or
    /// internal inconsistency that tail-truncation cannot explain).
    Corrupt(String),
    /// The log was written under a different service configuration;
    /// replaying it here would not reproduce the original state.
    ConfigMismatch {
        /// Which header field disagrees.
        field: &'static str,
        /// Value recorded in the log header.
        on_disk: u64,
        /// Value the recovering service was configured with.
        configured: u64,
    },
    /// A tick batch exceeded [`MAX_RECORD_ENTRIES`]; encoding it would
    /// wrap the record's `u32` entry count and corrupt the log.
    OversizedBatch {
        /// How many entries the rejected batch held.
        entries: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(why) => write!(f, "wal corrupt: {why}"),
            WalError::ConfigMismatch {
                field,
                on_disk,
                configured,
            } => write!(
                f,
                "wal config mismatch: {field} is {on_disk} on disk but {configured} configured"
            ),
            WalError::OversizedBatch { entries, max } => write!(
                f,
                "wal record rejected: {entries} entries exceeds the {max}-entry cap"
            ),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(e: &std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

// ---------------------------------------------------------------- log format

/// The header fields a log is bound to. Replaying a log under a
/// different seed, batch size, or instance shape would execute the same
/// requests against different randomness — recovery refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Service tick-scheduling seed.
    pub seed: u64,
    /// Service batch size.
    pub batch_size: u64,
    /// Instance players.
    pub n: u64,
    /// Instance objects.
    pub m: u64,
}

impl WalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut s = Sink(Vec::with_capacity(44));
        s.put_u32(HEADER_MAGIC);
        s.put_u32(VERSION);
        s.put_u64(self.seed);
        s.put_u64(self.batch_size);
        s.put_u64(self.n);
        s.put_u64(self.m);
        let crc = crc32(&s.0);
        s.put_u32(crc);
        s.0
    }
}

/// Header byte length on disk (records start at this offset).
pub const HEADER_LEN: usize = 4 + 4 + 8 * 4 + 4;

/// One logged request: its global sequence number, the client-chosen
/// request id, and the request itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Global enqueue sequence number (drives tick-internal ordering).
    pub seq: u64,
    /// Client-chosen request id, echoed in responses.
    pub id: u64,
    /// The request.
    pub req: Request,
}

/// One logged tick: the canonical batch the tick executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickRecord {
    /// Absolute tick number (ticks that drained an empty queue are not
    /// logged, so consecutive records may skip tick numbers).
    pub tick: u64,
    /// The batch, in drain (= seq) order.
    pub entries: Vec<WalEntry>,
}

/// What `WalWriter::open` found on disk.
#[derive(Debug)]
pub struct WalContents {
    /// All valid records, in tick order.
    pub records: Vec<TickRecord>,
    /// Bytes chopped off the tail (torn final record), 0 for a clean log.
    pub truncated_bytes: u64,
}

fn encode_record(tick: u64, entries: &[(u64, u64, &Request)]) -> Vec<u8> {
    let mut s = Sink(Vec::with_capacity(64 * entries.len() + 20));
    s.put_u32(RECORD_MAGIC);
    s.put_u64(tick);
    s.put_u32(entries.len() as u32);
    for &(seq, id, req) in entries {
        s.put_u64(seq);
        s.0.extend_from_slice(&encode_request(id, req));
    }
    let crc = crc32(&s.0);
    s.put_u32(crc);
    s.0
}

/// Parse one record starting at `bytes[pos..]`. Returns the record and
/// the byte length it consumed, or `None` on any malformation (the
/// caller treats the remainder as the torn tail).
fn parse_record(bytes: &[u8], pos: usize) -> Option<(TickRecord, usize)> {
    let mut t = Take::new(&bytes[pos..]);
    if t.u32().ok()? != RECORD_MAGIC {
        return None;
    }
    let tick = t.u64().ok()?;
    let count = t.u32().ok()? as usize;
    if count > MAX_RECORD_ENTRIES {
        // No writer produces such a record (append rejects the batch),
        // so a huge count is corruption — treat it as a torn tail.
        return None;
    }
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let seq = t.u64().ok()?;
        let frame_len = t.u32().ok()? as usize;
        if frame_len > MAX_FRAME {
            return None;
        }
        let body = t.bytes(frame_len).ok()?;
        let (id, req) = decode_request(body).ok()?;
        entries.push(WalEntry { seq, id, req });
    }
    let body_len = bytes[pos..].len() - t.remaining();
    let crc = t.u32().ok()?;
    if crc32(&bytes[pos..pos + body_len]) != crc {
        return None;
    }
    Some((TickRecord { tick, entries }, body_len + 4))
}

/// Append handle over an open log. Appends are CRC-sealed and fsynced;
/// ticks at or below `logged_through` (already durable, e.g. replayed
/// during recovery) are skipped so resumed runs never double-log.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    logged_through: u64,
    /// Observability registry durable appends count their bytes and
    /// fsync barriers into (`None` until the owning service attaches
    /// one). Replay-skipped appends touch neither disk nor counters.
    obs: Option<Arc<ObsRegistry>>,
}

impl WalWriter {
    /// Open (or create) the log in `dir`, validate its header against
    /// the recovering configuration, parse every valid record, and
    /// truncate any torn tail. Returns the writer positioned at the end
    /// of the valid prefix plus everything it read.
    pub fn open(dir: &Path, header: &WalHeader) -> Result<(WalWriter, WalContents), WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(&e))?;
        let path = dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes).map_err(|e| io_err(&e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&e)),
        }

        let mut records = Vec::new();
        let mut truncated_bytes = 0u64;
        let fresh = bytes.is_empty();
        if !fresh {
            // A damaged header is not a torn tail: refuse rather than
            // silently wipe a log we cannot interpret.
            if bytes.len() < HEADER_LEN {
                return Err(WalError::Corrupt("file shorter than the header".into()));
            }
            let mut t = Take::new(&bytes[..HEADER_LEN]);
            let (magic, version) = (
                t.u32().map_err(wire_corrupt)?,
                t.u32().map_err(wire_corrupt)?,
            );
            if magic != HEADER_MAGIC {
                return Err(WalError::Corrupt("bad header magic".into()));
            }
            if version != VERSION {
                return Err(WalError::Corrupt(format!(
                    "unsupported log version {version}"
                )));
            }
            let on_disk = WalHeader {
                seed: t.u64().map_err(wire_corrupt)?,
                batch_size: t.u64().map_err(wire_corrupt)?,
                n: t.u64().map_err(wire_corrupt)?,
                m: t.u64().map_err(wire_corrupt)?,
            };
            let crc = t.u32().map_err(wire_corrupt)?;
            if crc32(&bytes[..HEADER_LEN - 4]) != crc {
                return Err(WalError::Corrupt("header checksum mismatch".into()));
            }
            for (field, disk, cfg) in [
                ("seed", on_disk.seed, header.seed),
                ("batch_size", on_disk.batch_size, header.batch_size),
                ("n", on_disk.n, header.n),
                ("m", on_disk.m, header.m),
            ] {
                if disk != cfg {
                    return Err(WalError::ConfigMismatch {
                        field,
                        on_disk: disk,
                        configured: cfg,
                    });
                }
            }

            let mut pos = HEADER_LEN;
            let mut last_tick = 0u64;
            let mut last_seq: Option<u64> = None;
            while pos < bytes.len() {
                let Some((rec, consumed)) = parse_record(&bytes, pos) else {
                    break;
                };
                // Ticks start at 1 (the writer appends `tick + 1`) and
                // strictly increase, and seqs are globally monotone; a
                // tick-0 record or an order violation is mid-log damage
                // that happened to checksum clean, so the valid prefix
                // ends here. The old `last_tick != 0` carve-out let a
                // crafted run of tick-0 records through as "valid" and
                // then silently ignored them at replay.
                if rec.tick <= last_tick {
                    break;
                }
                let mut monotone = true;
                for e in &rec.entries {
                    if last_seq.is_some_and(|s| e.seq <= s) {
                        monotone = false;
                        break;
                    }
                    last_seq = Some(e.seq);
                }
                if !monotone {
                    break;
                }
                last_tick = rec.tick;
                records.push(rec);
                pos += consumed;
            }
            if pos < bytes.len() {
                truncated_bytes = (bytes.len() - pos) as u64;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&e))?;
                f.set_len(pos as u64).map_err(|e| io_err(&e))?;
                f.sync_data().map_err(|e| io_err(&e))?;
            }
        }

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&e))?;
        if fresh {
            file.write_all(&header.encode()).map_err(|e| io_err(&e))?;
            file.sync_data().map_err(|e| io_err(&e))?;
        }
        let logged_through = records.last().map_or(0, |r| r.tick);
        Ok((
            WalWriter {
                file,
                path,
                logged_through,
                obs: None,
            },
            WalContents {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Append one tick's batch and fsync. Ticks already durable (at or
    /// below the replay high-water mark) are skipped.
    pub fn append(&mut self, tick: u64, entries: &[(u64, u64, &Request)]) -> Result<(), WalError> {
        if tick <= self.logged_through {
            return Ok(());
        }
        if entries.len() > MAX_RECORD_ENTRIES {
            return Err(WalError::OversizedBatch {
                entries: entries.len(),
                max: MAX_RECORD_ENTRIES,
            });
        }
        let rec = encode_record(tick, entries);
        self.file.write_all(&rec).map_err(|e| io_err(&e))?;
        self.file.sync_data().map_err(|e| io_err(&e))?;
        self.logged_through = tick;
        if let Some(obs) = &self.obs {
            obs.add(MetricId::WalBytes, rec.len() as u64);
            obs.inc(MetricId::WalFsyncs);
        }
        Ok(())
    }

    /// Attach the registry appends count WAL bytes and fsyncs into.
    pub fn attach_obs(&mut self, obs: Arc<ObsRegistry>) {
        self.obs = Some(obs);
    }

    /// Path of the log file (tests chop its tail to simulate torn
    /// writes).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Last tick durably logged.
    pub fn logged_through(&self) -> u64 {
        self.logged_through
    }
}

fn wire_corrupt(e: crate::wire::WireError) -> WalError {
    WalError::Corrupt(e.to_string())
}

// ---------------------------------------------------------------- snapshots

/// One open session, as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDump {
    /// Session handle.
    pub session: u64,
    /// Bound player slot.
    pub player: u64,
    /// Tick the session joined.
    pub joined_tick: u64,
    /// Player probe counter at join (for the Leave ledger).
    pub probes_at_join: u64,
    /// Posts contributed so far.
    pub posts: u64,
    /// Queued writes executed so far.
    pub served: u64,
}

/// The full durable service state at a sealed tick. Process-local
/// statistics (`served`/`rejected` totals) are deliberately excluded:
/// snapshot reads are not replayed, so those counters are not
/// reconstructible and reset on restart.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PersistedState {
    /// Tick the state was sealed at.
    pub tick: u64,
    /// Billboard epoch at that seal.
    pub epoch: u64,
    /// Next global sequence number **as of the sealed batch** (queued
    /// but unexecuted requests are not counted — their seqs are
    /// reassigned identically on resume).
    pub next_seq: u64,
    /// Whether a Shutdown had been executed.
    pub shutdown: bool,
    /// Registry: lifetime player-slot capacity.
    pub capacity: u64,
    /// Registry: next player slot to mint.
    pub next_player: u64,
    /// Registry: next session handle to mint.
    pub next_session: u64,
    /// Registry: sessions closed so far.
    pub retired: u64,
    /// Open sessions.
    pub sessions: Vec<SessionDump>,
    /// Per-player probed objects, ascending (the probe memo; values are
    /// re-derived from the truth matrix on restore).
    pub probed: Vec<Vec<u32>>,
    /// Visible billboard posts: object → (player, grade) entries.
    pub posts: Vec<(u32, Vec<(u64, bool)>)>,
}

impl PersistedState {
    fn encode(&self) -> Vec<u8> {
        let mut s = Sink(Vec::with_capacity(256));
        s.put_u32(SNAPSHOT_MAGIC);
        s.put_u32(VERSION);
        s.put_u64(self.tick);
        s.put_u64(self.epoch);
        s.put_u64(self.next_seq);
        s.put_bool(self.shutdown);
        s.put_u64(self.capacity);
        s.put_u64(self.next_player);
        s.put_u64(self.next_session);
        s.put_u64(self.retired);
        s.put_u64(self.sessions.len() as u64);
        for d in &self.sessions {
            s.put_u64(d.session);
            s.put_u64(d.player);
            s.put_u64(d.joined_tick);
            s.put_u64(d.probes_at_join);
            s.put_u64(d.posts);
            s.put_u64(d.served);
        }
        s.put_u64(self.probed.len() as u64);
        for objs in &self.probed {
            s.put_u64(objs.len() as u64);
            for &j in objs {
                s.put_u32(j);
            }
        }
        s.put_u64(self.posts.len() as u64);
        for (object, entries) in &self.posts {
            s.put_u32(*object);
            s.put_u64(entries.len() as u64);
            for &(player, grade) in entries {
                s.put_u64(player);
                s.put_bool(grade);
            }
        }
        let crc = crc32(&s.0);
        s.put_u32(crc);
        s.0
    }

    fn decode(bytes: &[u8]) -> Result<PersistedState, WalError> {
        if bytes.len() < 4 {
            return Err(WalError::Corrupt("snapshot shorter than its magic".into()));
        }
        let crc_off = bytes.len() - 4;
        let mut tail = Take::new(&bytes[crc_off..]);
        let crc = tail.u32().map_err(wire_corrupt)?;
        if crc32(&bytes[..crc_off]) != crc {
            return Err(WalError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut t = Take::new(&bytes[..crc_off]);
        if t.u32().map_err(wire_corrupt)? != SNAPSHOT_MAGIC {
            return Err(WalError::Corrupt("bad snapshot magic".into()));
        }
        let version = t.u32().map_err(wire_corrupt)?;
        if version != VERSION {
            return Err(WalError::Corrupt(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let mut st = PersistedState {
            tick: t.u64().map_err(wire_corrupt)?,
            epoch: t.u64().map_err(wire_corrupt)?,
            next_seq: t.u64().map_err(wire_corrupt)?,
            shutdown: t.bool().map_err(wire_corrupt)?,
            capacity: t.u64().map_err(wire_corrupt)?,
            next_player: t.u64().map_err(wire_corrupt)?,
            next_session: t.u64().map_err(wire_corrupt)?,
            retired: t.u64().map_err(wire_corrupt)?,
            ..PersistedState::default()
        };
        let sessions = t.u64().map_err(wire_corrupt)? as usize;
        for _ in 0..sessions {
            st.sessions.push(SessionDump {
                session: t.u64().map_err(wire_corrupt)?,
                player: t.u64().map_err(wire_corrupt)?,
                joined_tick: t.u64().map_err(wire_corrupt)?,
                probes_at_join: t.u64().map_err(wire_corrupt)?,
                posts: t.u64().map_err(wire_corrupt)?,
                served: t.u64().map_err(wire_corrupt)?,
            });
        }
        let players = t.u64().map_err(wire_corrupt)? as usize;
        for _ in 0..players {
            let count = t.u64().map_err(wire_corrupt)? as usize;
            let mut objs = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                objs.push(t.u32().map_err(wire_corrupt)?);
            }
            st.probed.push(objs);
        }
        let objects = t.u64().map_err(wire_corrupt)? as usize;
        for _ in 0..objects {
            let object = t.u32().map_err(wire_corrupt)?;
            let count = t.u64().map_err(wire_corrupt)? as usize;
            let mut entries = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                entries.push((
                    t.u64().map_err(wire_corrupt)?,
                    t.bool().map_err(wire_corrupt)?,
                ));
            }
            st.posts.push((object, entries));
        }
        t.finish().map_err(wire_corrupt)?;
        Ok(st)
    }
}

/// Persist a sealed state: write to a temp file, fsync, atomically
/// rename over [`SNAPSHOT_FILE`], fsync the directory.
pub fn write_snapshot(dir: &Path, state: &PersistedState) -> Result<(), WalError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(&e))?;
    let tmp = dir.join("snapshot.tmp");
    let fin = dir.join(SNAPSHOT_FILE);
    let mut f = File::create(&tmp).map_err(|e| io_err(&e))?;
    f.write_all(&state.encode()).map_err(|e| io_err(&e))?;
    f.sync_all().map_err(|e| io_err(&e))?;
    drop(f);
    std::fs::rename(&tmp, &fin).map_err(|e| io_err(&e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Load the latest snapshot. `Ok(None)` means "start from scratch":
/// the file is missing or fails validation (recovery then falls back
/// to full log replay, which is always sufficient).
pub fn read_snapshot(dir: &Path) -> Result<Option<PersistedState>, WalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(|e| io_err(&e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&e)),
    }
    Ok(PersistedState::decode(&bytes).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn record_encode_parse_round_trip() {
        let req = Request::Probe {
            session: 3,
            object: 9,
            share: true,
        };
        let bytes = encode_record(5, &[(10, 77, &req), (11, 78, &Request::Stats)]);
        let (rec, consumed) = parse_record(&bytes, 0).expect("valid record parses");
        assert_eq!(consumed, bytes.len());
        assert_eq!(rec.tick, 5);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[0].seq, 10);
        assert_eq!(rec.entries[0].id, 77);
        assert_eq!(rec.entries[0].req, req);
    }

    #[test]
    fn flipped_bit_fails_the_record_crc() {
        let bytes = encode_record(1, &[(0, 0, &Request::Join)]);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                parse_record(&bad, 0).is_none(),
                "bit flip at byte {i} must not parse"
            );
        }
    }

    #[test]
    fn oversized_batch_is_rejected_before_touching_the_log() {
        let dir = std::env::temp_dir().join(format!("tmwia-wal-oversize-{}", std::process::id()));
        let header = WalHeader {
            seed: 1,
            batch_size: 4,
            n: 2,
            m: 2,
        };
        let (mut w, _) = WalWriter::open(&dir, &header).expect("fresh log opens");
        let req = Request::Join;
        let oversized: Vec<(u64, u64, &Request)> = (0..=MAX_RECORD_ENTRIES as u64)
            .map(|i| (i, i, &req))
            .collect();
        assert_eq!(
            w.append(1, &oversized),
            Err(WalError::OversizedBatch {
                entries: MAX_RECORD_ENTRIES + 1,
                max: MAX_RECORD_ENTRIES,
            })
        );
        // The rejection happened before any bytes hit the file: the log
        // is still empty and a normal append at the same tick succeeds.
        assert_eq!(w.logged_through(), 0);
        w.append(1, &[(0, 7, &req)]).expect("normal append works");
        assert_eq!(w.logged_through(), 1);
        let (_, contents) = WalWriter::open(&dir, &header).expect("reopens");
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].entries.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_giant_entry_count_reads_as_torn_tail() {
        let req = Request::Join;
        let mut bytes = encode_record(1, &[(0, 0, &req)]);
        // Rewrite the count field (offset 12, after magic + tick) to a
        // value above the cap and re-seal the CRC so only the guard —
        // not the checksum — can reject it.
        let body_len = bytes.len() - 4;
        bytes[12..16].copy_from_slice(&((MAX_RECORD_ENTRIES as u32 + 1).to_le_bytes()));
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(parse_record(&bytes, 0).is_none());
    }

    #[test]
    fn persisted_state_round_trips() {
        let st = PersistedState {
            tick: 42,
            epoch: 17,
            next_seq: 99,
            shutdown: false,
            capacity: 8,
            next_player: 3,
            next_session: 4,
            retired: 1,
            sessions: vec![SessionDump {
                session: 2,
                player: 1,
                joined_tick: 5,
                probes_at_join: 0,
                posts: 2,
                served: 7,
            }],
            probed: vec![vec![0, 3, 5], vec![], vec![1]],
            posts: vec![(3, vec![(0, true), (1, false)]), (5, vec![(0, false)])],
        };
        let bytes = st.encode();
        assert_eq!(PersistedState::decode(&bytes).expect("decodes"), st);
        // Any corruption is caught by the trailing CRC.
        let mut bad = bytes;
        bad[10] ^= 0xFF;
        assert!(PersistedState::decode(&bad).is_err());
    }
}
