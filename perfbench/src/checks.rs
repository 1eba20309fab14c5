//! Post-phase replays: each re-runs one layer's work from the episode's
//! own record, times it call by call, and checks the result against the
//! live state.

use crate::SealTick;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tmwia_model::matrix::PrefMatrix;
use tmwia_service::wal::{self, WalHeader, WalWriter};
use tmwia_service::{BoardSnapshot, Durability, RecoverOptions, Request, Service, ServiceConfig};

fn nanos(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replay each tick's posts through [`BoardSnapshot::build_delta`],
/// starting from the snapshot sealed just before the measured phase.
/// Returns the per-call times; the rebuilt board must digest exactly
/// like the live one.
pub fn seal_replay(
    start: &BoardSnapshot,
    log: &[SealTick],
    live: &BoardSnapshot,
) -> Result<Vec<u64>, String> {
    let mut prev = start.clone();
    let mut times = Vec::with_capacity(log.len());
    for t in log {
        let liveness = live.liveness.clone();
        let t0 = Instant::now();
        let next = BoardSnapshot::build_delta(&prev, &t.posts, liveness, t.live, t.epoch, t.tick);
        times.push(nanos(t0));
        prev = next;
    }
    if prev.digest() != live.digest() {
        return Err("seal replay: rebuilt snapshot digest differs from the live one".into());
    }
    Ok(times)
}

/// Every post on the board must carry the poster's true grade (a probe
/// reveals it, a post replays a revealed one). Returns `(objects,
/// entries)` over all the snapshots given.
pub fn check_board(truth: &PrefMatrix, snaps: &[Arc<BoardSnapshot>]) -> Result<(u64, u64), String> {
    let (mut objects, mut entries) = (0u64, 0u64);
    for snap in snaps {
        for (&j, cell) in &snap.posts {
            objects += 1;
            for &(p, grade) in cell.entries.iter() {
                entries += 1;
                if truth.value(p, j as usize) != grade {
                    return Err(format!(
                        "board holds grade {grade} for player {p} on object {j}, truth differs"
                    ));
                }
            }
        }
    }
    Ok((objects, entries))
}

/// What the WAL replay measured.
pub struct WalReplay {
    pub recover_ms: f64,
    pub replayed_ticks: u64,
    pub append_ns: Vec<u64>,
    pub snapshot_write_ms: Vec<f64>,
}

/// Restart, re-log and re-persist the episode's WAL directory:
/// `Service::recover` on a copy (its state digest must equal the live
/// service's), every logged record re-appended into a fresh log, and
/// the last persisted state re-written as a snapshot.
pub fn wal_replay(
    truth: PrefMatrix,
    cfg: &ServiceConfig,
    snapshot_every: u64,
    live: &Service,
    dir: &Path,
    replay_dir: &Path,
) -> Result<WalReplay, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("wal replay: {what}: {e}");
    let copy = replay_dir.join("recover");
    std::fs::create_dir_all(&copy).map_err(|e| err("mkdir", &e))?;
    for entry in std::fs::read_dir(dir).map_err(|e| err("read dir", &e))? {
        let entry = entry.map_err(|e| err("read dir", &e))?;
        std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(|e| err("copy", &e))?;
    }
    let header = WalHeader {
        seed: cfg.seed,
        batch_size: cfg.batch_size as u64,
        n: truth.n() as u64,
        m: truth.m() as u64,
    };

    let durability = Durability {
        dir: copy.clone(),
        snapshot_every,
    };
    let opts = RecoverOptions {
        use_snapshot: true,
        capture: false,
    };
    let t0 = Instant::now();
    let (recovered, report) =
        Service::recover(truth, cfg.clone(), &durability, opts).map_err(|e| err("recover", &e))?;
    let recover_ms = nanos(t0) as f64 / 1e6;
    if recovered.state_digest() != live.state_digest() {
        return Err("wal replay: recovered state digest differs from the live one".into());
    }
    drop(recovered);

    let (_, contents) = WalWriter::open(&copy, &header).map_err(|e| err("reopen", &e))?;
    let (mut writer, _) =
        WalWriter::open(&replay_dir.join("append"), &header).map_err(|e| err("open", &e))?;
    let mut append_ns = Vec::with_capacity(contents.records.len());
    for rec in &contents.records {
        let entries: Vec<(u64, u64, &Request)> =
            rec.entries.iter().map(|e| (e.seq, e.id, &e.req)).collect();
        let t0 = Instant::now();
        writer
            .append(rec.tick, &entries)
            .map_err(|e| err("append", &e))?;
        append_ns.push(nanos(t0));
    }

    let state = wal::read_snapshot(&copy)
        .map_err(|e| err("read snapshot", &e))?
        .ok_or("wal replay: the episode persisted no snapshot")?;
    let snap_dir = replay_dir.join("snapshot");
    let mut snapshot_write_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        wal::write_snapshot(&snap_dir, &state).map_err(|e| err("write snapshot", &e))?;
        snapshot_write_ms.push(nanos(t0) as f64 / 1e6);
    }
    Ok(WalReplay {
        recover_ms,
        replayed_ticks: report.replayed_ticks,
        append_ns,
        snapshot_write_ms,
    })
}
