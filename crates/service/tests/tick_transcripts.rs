//! Golden transcripts of the tick path. Each scripted scenario drives
//! the raw submit/tick API (or the load driver) and renders every
//! observable — per-request responses (in id order), tick reports,
//! sealed snapshot digests, final counters, state fingerprint, and WAL
//! bytes — into one string. The fnv64 of that string, of the final
//! `state_digest` and of the WAL file are pinned below.
//!
//! The constants were recorded from the earlier two-mode service (the
//! tick's control pass staged on a helper thread or not, which produced
//! byte-identical output either way), so the single calling-thread tick
//! path must reproduce exactly what both modes produced. They must not
//! be re-blessed for a behaviour-preserving change.
//!
//! Two property tests drive random streams through the same renderer
//! and need no golden: a stream renders identically on 1- and 4-thread
//! worker pools, and a durable run renders what an in-memory run does
//! (plus its WAL line) and recovers to the same state.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmwia_model::generators::planted_community;
use tmwia_service::wal::fnv64;
use tmwia_service::{
    run_deterministic, Durability, LoadConfig, RecoverOptions, Request, Service, ServiceConfig,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory per run (no wall clock: pid + counter).
fn scratch_dir() -> PathBuf {
    let id = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tmwia-ticktx-{}-{id}", std::process::id()))
}

/// Build a service over a small planted instance. `batch_size` stays
/// below the session counts used here, so backlogs span several ticks.
/// A durable service recovers whatever `wal_dir` already holds, from
/// the latest snapshot plus the log tail if `use_snapshot`, else by
/// replaying the whole log.
fn build(wal_dir: Option<&PathBuf>, use_snapshot: bool) -> Arc<Service> {
    let inst = planted_community(40, 40, 20, 4, 5);
    let cfg = ServiceConfig {
        batch_size: 8,
        queue_capacity: 64,
        seed: 13,
        ..ServiceConfig::default()
    };
    let svc = match wal_dir {
        None => Service::new(inst.truth, cfg).expect("valid config"),
        Some(dir) => {
            let durability = Durability {
                dir: dir.clone(),
                // Small interval so persisted snapshots trigger mid-run.
                snapshot_every: 4,
            };
            let (svc, _) = Service::recover(
                inst.truth,
                cfg,
                &durability,
                RecoverOptions {
                    use_snapshot,
                    capture: false,
                },
            )
            .expect("durable service opens");
            svc
        }
    };
    Arc::new(svc)
}

/// One scripted operation against the raw submit/tick API.
#[derive(Debug, Clone)]
enum Op {
    /// Submit this request.
    Send(Request),
    /// Run one batch tick.
    Tick,
}

/// What one drive produced: the rendered transcript (which embeds the
/// two hashes below) and the fnv64 of the final state digest and, for
/// a durable run, of the WAL bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    transcript: u64,
    state: u64,
    wal: Option<u64>,
}

/// Drive `ops` against a fresh service and render every observable.
fn drive(ops: &[Op], wal: bool) -> (String, Golden) {
    let dir = wal.then(scratch_dir);
    let out = drive_in(ops, dir.as_ref());
    if let Some(dir) = &dir {
        std::fs::remove_dir_all(dir).ok();
    }
    out
}

/// [`drive`] against a service that logs to `dir` (durable) or to
/// nothing; the directory is left in place for a recovery check.
fn drive_in(ops: &[Op], dir: Option<&PathBuf>) -> (String, Golden) {
    let svc = build(dir, true);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut out = String::new();
    let mut next_id = 0u64;
    for op in ops {
        match op {
            Op::Send(req) => {
                svc.submit(next_id, req.clone(), &tx);
                next_id += 1;
            }
            Op::Tick => {
                let report = svc.tick();
                out.push_str(&format!(
                    "tick {} sealed={:?} executed={} remaining={}\n",
                    report.tick, report.sealed_epoch, report.executed, report.remaining
                ));
                out.push_str(&format!("  digest {}\n", svc.snapshot().digest()));
            }
        }
    }
    // Drain whatever is still queued, as the tcp ticker does.
    while svc.queue_len() > 0 {
        let report = svc.tick();
        out.push_str(&format!(
            "drain {} sealed={:?} executed={} remaining={}\n",
            report.tick, report.sealed_epoch, report.executed, report.remaining
        ));
    }
    // One more (empty) tick: it must advance the counter and seal
    // nothing.
    let report = svc.tick();
    out.push_str(&format!(
        "final {} sealed={:?} executed={}\n",
        report.tick, report.sealed_epoch, report.executed
    ));

    let mut responses: Vec<(u64, String)> = rx
        .try_iter()
        .map(|(id, r)| (id, format!("{r:?}")))
        .collect();
    responses.sort();
    for (id, resp) in &responses {
        out.push_str(&format!("resp {id}: {resp}\n"));
    }
    out.push_str(&format!(
        "counters served={} rejected={}\n",
        svc.served_total(),
        svc.rejected_total()
    ));
    out.push_str(&format!("snapshot {}\n", svc.snapshot().digest()));
    let state = fnv64(svc.state_digest().as_bytes());
    out.push_str(&format!("state fnv64 {state:016x}\n"));
    let mut wal_hash = None;
    if let Some(dir) = dir {
        let bytes = std::fs::read(dir.join("ticks.wal")).expect("wal file");
        let h = fnv64(&bytes);
        out.push_str(&format!("wal {} bytes fnv64 {h:016x}\n", bytes.len()));
        wal_hash = Some(h);
    }
    let golden = Golden {
        transcript: fnv64(out.as_bytes()),
        state,
        wal: wal_hash,
    };
    (out, golden)
}

/// A deterministic scripted mix: a join wave, interleaved writes and
/// ticks with a backlog bigger than one batch, churn (leaves and
/// rejoins), invalid sessions, and a trailing teardown.
fn scripted_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..12 {
        ops.push(Op::Send(Request::Join));
    }
    ops.push(Op::Tick);
    ops.push(Op::Tick);
    // Sessions 1..=12 now exist; each round's backlog exceeds a batch.
    for round in 0u64..6 {
        for s in 1..=12u64 {
            let object = ((s + round) % 40) as u32;
            if s % 3 == 0 {
                ops.push(Op::Send(Request::Post {
                    session: s,
                    object,
                    grade: (s + round) % 2 == 0,
                }));
            } else {
                ops.push(Op::Send(Request::Probe {
                    session: s,
                    object,
                    share: s % 2 == 0,
                }));
            }
        }
        ops.push(Op::Tick);
        if round == 2 {
            // Churn mid-run: close three sessions, open two, and hit
            // an unknown session — all within one batch.
            ops.push(Op::Send(Request::Leave { session: 1 }));
            ops.push(Op::Send(Request::Leave { session: 2 }));
            ops.push(Op::Send(Request::Leave { session: 3 }));
            ops.push(Op::Send(Request::Join));
            ops.push(Op::Send(Request::Join));
            ops.push(Op::Send(Request::Leave { session: 999 }));
            ops.push(Op::Tick);
        }
    }
    for s in 4..=12u64 {
        ops.push(Op::Send(Request::Leave { session: s }));
    }
    ops
}

/// Six joins, a probe round, a `Shutdown` with writes queued behind
/// it (they still drain), and a join after the flag flipped (refused).
fn shutdown_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..6 {
        ops.push(Op::Send(Request::Join));
    }
    ops.push(Op::Tick);
    for s in 1..=6u64 {
        ops.push(Op::Send(Request::Probe {
            session: s,
            object: s as u32,
            share: true,
        }));
    }
    ops.push(Op::Send(Request::Shutdown));
    for s in 1..=6u64 {
        ops.push(Op::Send(Request::Post {
            session: s,
            object: s as u32,
            grade: true,
        }));
    }
    ops.push(Op::Tick);
    ops.push(Op::Send(Request::Join));
    ops
}

/// SplitMix64: a self-contained generator for the fixed "random"
/// streams, so their goldens do not depend on any other crate's RNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream `case`: 1..120 operations. Sessions are drawn from a small
/// range so streams routinely mix valid, stale (already closed), and
/// never-opened ids; tag weights favour writes, with joins, leaves and
/// ticks common enough for churn and batch boundaries to move around.
fn stream_ops(case: u64) -> Vec<Op> {
    let mut state = case;
    let len = 1 + splitmix(&mut state) % 119;
    (0..len)
        .map(|_| {
            let r = splitmix(&mut state);
            let (tag, a, b, flag) = (
                r % 16,
                (r >> 8) & 0xff,
                (r >> 16) & 0xff,
                (r >> 24) & 1 == 1,
            );
            let session = a % 24;
            let object = (b % 40) as u32;
            match tag {
                0..=1 => Op::Send(Request::Join),
                2..=3 => Op::Send(Request::Leave { session }),
                4..=8 => Op::Send(Request::Probe {
                    session,
                    object,
                    share: flag,
                }),
                9..=12 => Op::Send(Request::Post {
                    session,
                    object,
                    grade: flag,
                }),
                _ => Op::Tick,
            }
        })
        .collect()
}

/// The fnv64 of the concatenated transcripts of streams `0..24`.
fn streams_hash(wal: bool) -> u64 {
    let mut all = String::new();
    for case in 0..24 {
        all.push_str(&drive(&stream_ops(case), wal).0);
    }
    fnv64(all.as_bytes())
}

/// The load driver (join round, request rounds, leave round) with a
/// batch size smaller than the session count.
fn load_driver_run() -> (String, Golden) {
    let inst = planted_community(48, 48, 24, 4, 77);
    let svc = Arc::new(
        Service::new(
            inst.truth,
            ServiceConfig {
                batch_size: 16,
                queue_capacity: 64,
                seed: 9,
                ..ServiceConfig::default()
            },
        )
        .expect("valid config"),
    );
    let out = run_deterministic(
        &svc,
        &LoadConfig {
            sessions: 24,
            requests: 20,
            seed: 9,
            ..LoadConfig::default()
        },
    );
    let state = fnv64(svc.state_digest().as_bytes());
    let text = format!(
        "{}counters: submitted={} ok={} busy={} errors={} ticks={}\nsamples: {:?}\n{}\nstate fnv64 {:016x}\n",
        out.transcript,
        out.submitted,
        out.ok,
        out.busy,
        out.errors,
        out.ticks,
        out.samples,
        svc.snapshot().digest(),
        state,
    );
    let golden = Golden {
        transcript: fnv64(text.as_bytes()),
        state,
        wal: None,
    };
    (text, golden)
}

/// The scripted mix, without a WAL.
const SCRIPTED: Golden = Golden {
    transcript: 0xe9e0_2e8d_80ec_9de7,
    state: 0xbb00_a31b_4db6_3559,
    wal: None,
};
/// The scripted mix on a durable service (snapshots every 4 ticks).
const SCRIPTED_WAL: Golden = Golden {
    transcript: 0x0c77_40eb_2f67_3a85,
    state: 0xbb00_a31b_4db6_3559,
    wal: Some(0x19a6_b29d_43db_fabc),
};
const SHUTDOWN: Golden = Golden {
    transcript: 0x971e_2a33_f9c2_d3ea,
    state: 0x002c_8abc_cbb5_ef4f,
    wal: None,
};
const LOAD_DRIVER: Golden = Golden {
    transcript: 0x92f3_523d_1440_be7e,
    state: 0xb28e_f084_673f_ff6b,
    wal: None,
};
/// Streams `0..24`, without and with a WAL. Stream 10 joins and leaves
/// one session inside the batch after a sealed tick; the pinned value
/// is the output of applying each batch's controls before its seal.
const STREAMS: u64 = 0x9591_90fe_f37f_9128;
const STREAMS_WAL: u64 = 0x0283_46d3_ce98_8369;

#[test]
fn scripted_mix_matches_its_golden() {
    assert_eq!(drive(&scripted_ops(), false).1, SCRIPTED);
}

#[test]
fn scripted_mix_with_wal_matches_its_golden() {
    assert_eq!(drive(&scripted_ops(), true).1, SCRIPTED_WAL);
}

#[test]
fn scripted_mix_matches_its_golden_under_every_pool() {
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        let golden = pool.install(|| drive(&scripted_ops(), false).1);
        assert_eq!(golden, SCRIPTED, "under a {threads}-thread pool");
    }
}

#[test]
fn shutdown_mid_stream_matches_its_golden() {
    assert_eq!(drive(&shutdown_ops(), false).1, SHUTDOWN);
}

#[test]
fn load_driver_run_matches_its_golden() {
    assert_eq!(load_driver_run().1, LOAD_DRIVER);
}

#[test]
fn fixed_streams_match_their_goldens() {
    assert_eq!(streams_hash(false), STREAMS);
}

#[test]
fn fixed_streams_with_wal_match_their_goldens() {
    assert_eq!(streams_hash(true), STREAMS_WAL);
}

/// Decode one proptest-generated integer tuple into an operation, with
/// the same session/object ranges and tag weights as [`stream_ops`].
fn decode_op(tag: u8, a: u8, b: u8, flag: bool) -> Op {
    let session = u64::from(a % 24);
    let object = u32::from(b % 40);
    match tag {
        0..=1 => Op::Send(Request::Join),
        2..=3 => Op::Send(Request::Leave { session }),
        4..=8 => Op::Send(Request::Probe {
            session,
            object,
            share: flag,
        }),
        9..=12 => Op::Send(Request::Post {
            session,
            object,
            grade: flag,
        }),
        _ => Op::Tick,
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<bool>()), 1..120).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(tag, a, b, flag)| decode_op(tag, a, b, flag))
                .collect()
        },
    )
}

/// Drive `ops` under a rayon pool of `threads` workers.
fn drive_on_pool(ops: &[Op], threads: usize) -> String {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    pool.install(|| drive(ops, false).0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random stream renders byte-identically on a 1-thread and a
    /// 4-thread worker pool.
    #[test]
    fn random_streams_are_equivalent(ops in arb_ops()) {
        prop_assert_eq!(drive_on_pool(&ops, 1), drive_on_pool(&ops, 4));
    }

    /// A durable run of a random stream renders exactly what an
    /// in-memory run does, plus its WAL line, and recovering its
    /// directory — from snapshot plus tail, or by full replay —
    /// rebuilds the same state. Empty ticks are not logged, so the
    /// recovered service runs the trailing ones again before the
    /// comparison.
    #[test]
    fn random_streams_are_equivalent_with_wal(ops in arb_ops()) {
        let (memory, memory_golden) = drive(&ops, false);
        let dir = scratch_dir();
        let (durable, durable_golden) = drive_in(&ops, Some(&dir));
        let final_tick: u64 = durable
            .lines()
            .find_map(|line| line.strip_prefix("final "))
            .and_then(|rest| rest.split(' ').next())
            .and_then(|tick| tick.parse().ok())
            .expect("transcript has a final tick line");
        let recovered: Vec<u64> = [true, false]
            .into_iter()
            .map(|use_snapshot| {
                let svc = build(Some(&dir), use_snapshot);
                while svc.current_tick() < final_tick {
                    svc.tick();
                }
                fnv64(svc.state_digest().as_bytes())
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(durable.starts_with(&memory), "durable transcript diverged");
        let tail = &durable[memory.len()..];
        prop_assert!(
            tail.starts_with("wal ") && tail.lines().count() == 1,
            "a durable run adds only its WAL line: {}",
            tail
        );
        prop_assert_eq!(durable_golden.state, memory_golden.state);
        prop_assert_eq!(recovered, vec![memory_golden.state; 2]);
    }
}
