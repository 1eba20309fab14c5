//! The incremental state checksum against its from-scratch oracle.
//!
//! `Service::checksum` is maintained where the state changes (commit
//! barrier, seal barrier); `Checksum::of(&digest_parts())` recomputes
//! it from the rendered state. Pinned here:
//!
//! 1. after arbitrary request streams and any batch size, the
//!    incremental value equals the recompute after every tick;
//! 2. after a kill and `Service::recover` (from the log alone or from a
//!    snapshot plus the log tail) it still does, equals the pre-kill
//!    value, and equals an uninterrupted twin's after every tick;
//! 3. the relay's global per-tick `shardstate` checksum equals the
//!    single process's `state_checksum()` after every tick, at 1, 2 and
//!    4 shards;
//! 4. corrupting one post on one shard changes the global checksum at
//!    exactly that tick, while the replicated gate — which cannot see
//!    owned state — stays quiet.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use tmwia::model::generators::{planted_community, Instance};
use tmwia::service::shard::{decode_shard_msg, encode_shard_msg};
use tmwia::service::{
    channel_pair, run_shard_worker, spawn_local, ChannelLink, Checksum, Durability, RecoverOptions,
    Relay, RelayConfig, Request, Response, Service, ServiceConfig, Serving, ShardLink, ShardMsg,
    ShardedService, WireError,
};

const N: usize = 24;
const M: usize = 40;

/// One generated request: `(kind, session, object, flag)`. Sessions
/// and objects run a little past what exists so unknown sessions and
/// out-of-range objects are exercised too.
type Op = (u8, u64, u32, bool);

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..20, 1u64..10, 0u32..(M as u32 + 3), any::<bool>())
}

fn arb_rounds() -> impl Strategy<Value = Vec<Vec<Op>>> {
    collection::vec(collection::vec(arb_op(), 0..12), 1..16)
}

fn request((kind, session, object, flag): Op, allow_shutdown: bool) -> Request {
    match kind {
        0..=3 => Request::Join,
        4 | 5 => Request::Leave { session },
        6..=12 => Request::Probe {
            session,
            object,
            share: flag,
        },
        13..=17 => Request::Post {
            session,
            object,
            grade: flag,
        },
        18 if allow_shutdown && flag => Request::Shutdown,
        _ => Request::Read { object },
    }
}

fn instance() -> Instance {
    planted_community(N, M, N / 2, 3, 17)
}

fn config(batch_size: usize) -> ServiceConfig {
    ServiceConfig {
        batch_size,
        queue_capacity: 256,
        seed: 5,
        ..ServiceConfig::default()
    }
}

/// The incremental checksum equals the from-scratch recompute.
fn assert_matches_oracle(svc: &Service, when: &str) {
    let parts = svc.digest_parts();
    assert_eq!(svc.checksum(), Checksum::of(&parts), "{when}: parts");
    assert_eq!(
        svc.state_checksum(),
        Checksum::of(&parts).total(parts.seq),
        "{when}: total"
    );
}

/// Submit one round, tick once, and check the oracle.
fn play_round(svc: &Service, round: &[Op], next_id: &mut u64, allow_shutdown: bool) {
    let (tx, _rx) = channel();
    for &op in round {
        svc.submit(*next_id, request(op, allow_shutdown), &tx);
        *next_id += 1;
    }
    let _ = svc.tick();
    assert_matches_oracle(svc, "after a tick");
}

fn drain(svc: &Service) {
    while svc.queue_len() > 0 {
        let _ = svc.tick();
    }
}

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tmwia-state-checksum-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn incremental_checksum_matches_the_recompute(
        rounds in arb_rounds(),
        batch_size in 1usize..9,
    ) {
        let svc = Service::new(instance().truth, config(batch_size))
            .expect("valid config");
        assert_matches_oracle(&svc, "fresh service");
        let mut id = 0;
        for round in &rounds {
            play_round(&svc, round, &mut id, true);
        }
        drain(&svc);
        assert_matches_oracle(&svc, "drained");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    fn recovered_checksum_matches_the_recompute_and_the_twin(
        before in arb_rounds(),
        after in arb_rounds(),
        snapshot_every in 0u64..4,
        use_snapshot in any::<bool>(),
        case_tag in any::<u64>(),
    ) {
        let inst = instance();
        let cfg = config(4);
        let dir = scratch("recover", case_tag);
        let durability = Durability { dir: dir.clone(), snapshot_every };
        let opts = RecoverOptions { use_snapshot, capture: false };
        let twin = Service::new(inst.truth.clone(), cfg.clone()).expect("valid config");

        let (victim, _) = Service::recover(inst.truth.clone(), cfg.clone(), &durability, opts)
            .expect("fresh WAL opens");
        let mut id = 0;
        for round in &before {
            let mut twin_id = id;
            play_round(&victim, round, &mut id, false);
            play_round(&twin, round, &mut twin_id, false);
        }
        drain(&victim);
        drain(&twin);
        let pre_kill = victim.state_checksum();
        prop_assert_eq!(pre_kill, twin.state_checksum());
        drop(victim);

        let (svc, _) = Service::recover(inst.truth.clone(), cfg, &durability, opts)
            .expect("WAL recovers");
        assert_matches_oracle(&svc, "recovered");
        prop_assert_eq!(svc.state_checksum(), pre_kill);
        for round in &after {
            let mut twin_id = id;
            play_round(&svc, round, &mut id, false);
            play_round(&twin, round, &mut twin_id, false);
            prop_assert_eq!(svc.state_checksum(), twin.state_checksum());
        }
        drain(&svc);
        drain(&twin);
        assert_matches_oracle(&svc, "recovered, then more load");
        prop_assert_eq!(svc.state_checksum(), twin.state_checksum());
        prop_assert_eq!(svc.state_digest(), twin.state_digest());
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `state=` value of the log's `shardstate` line for `tick`.
fn shardstate_at(log: &[String], tick: u64) -> Option<u64> {
    let prefix = format!("shardstate tick={tick} state=");
    log.iter()
        .find_map(|l| l.strip_prefix(&prefix))
        .map(|hex| u64::from_str_radix(hex, 16).expect("hex checksum"))
}

/// Drive a single process and a sharded topology with the same rounds
/// (each round fits one batch, so the single process never stages) and
/// collect, per sealed tick, `(single state_checksum, relay shardstate)`.
fn per_tick_checksums(
    single: &Service,
    sharded: &dyn Serving,
    log: impl Fn() -> Vec<String>,
    rounds: &[Vec<Op>],
) -> Vec<(u64, u64, Option<u64>)> {
    let (stx, srx) = channel();
    let (dtx, drx) = channel();
    let mut out = Vec::new();
    let mut id = 0u64;
    for round in rounds {
        for &op in round {
            let req = request(op, true);
            single.submit(id, req.clone(), &stx);
            sharded.submit(id, req, &dtx);
            id += 1;
        }
        let report = single.tick();
        sharded.tick();
        assert_eq!(single.queue_len(), 0, "each round fits one batch");
        if report.sealed_epoch.is_some() {
            assert_matches_oracle(single, "single process");
            out.push((
                report.tick,
                single.state_checksum(),
                shardstate_at(&log(), report.tick),
            ));
        }
    }
    let transcript = |rx: &Receiver<(u64, Response)>| rx.try_iter().collect::<Vec<_>>();
    assert_eq!(transcript(&srx), transcript(&drx), "transcripts match");
    out
}

fn fresh_shards(inst: &Instance, cfg: &ServiceConfig, shards: usize) -> Vec<Arc<Service>> {
    (0..shards)
        .map(|_| Arc::new(Service::new(inst.truth.clone(), cfg.clone()).expect("valid config")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    fn relay_global_checksum_equals_the_single_process_every_tick(rounds in arb_rounds()) {
        let inst = instance();
        let cfg = config(16);
        for shards in [1usize, 2, 4] {
            let single = Service::new(inst.truth.clone(), cfg.clone()).expect("valid config");
            let relay_cfg = RelayConfig::for_service(&cfg, shards, N, M);
            let topo = spawn_local(fresh_shards(&inst, &cfg, shards), relay_cfg)
                .expect("topology connects");
            let svc = Arc::clone(&topo.service);
            let ticks = per_tick_checksums(&single, svc.as_ref(), || svc.checksum_log(), &rounds);
            prop_assert!(svc.health().is_none(), "shards={}: healthy", shards);
            for (tick, want, got) in ticks {
                prop_assert_eq!(got, Some(want), "shards={} tick={}", shards, tick);
            }
            prop_assert_eq!(
                svc.merged_state_digest().expect("digest merges"),
                single.state_digest()
            );
            let controls: Vec<String> =
                topo.shards.iter().map(|s| s.control_digest()).collect();
            prop_assert!(controls.windows(2).all(|w| w[0] == w[1]));
            for result in topo.shutdown() {
                result.expect("worker exits cleanly");
            }
        }
    }
}

/// A link that, from the `arm_at`-th broadcast on, flips the grade of
/// the first `Post` it carries — once. The shard executes the corrupt
/// post and answers exactly as it would have (`Posted` carries no
/// grade), so only the owned state differs.
struct PostFlipper {
    inner: ChannelLink,
    broadcasts: u64,
    arm_at: u64,
    /// The tick of the corrupted batch (0 until it happens).
    flipped_at: Arc<AtomicU64>,
}

impl ShardLink for PostFlipper {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        if let Ok(ShardMsg::Batch { tick, mut entries }) = decode_shard_msg(&frame[4..]) {
            self.broadcasts += 1;
            if self.flipped_at.load(Ordering::SeqCst) == 0 && self.broadcasts >= self.arm_at {
                let post = entries
                    .iter_mut()
                    .find(|(_, _, req)| matches!(req, Request::Post { .. }));
                if let Some((_, _, Request::Post { grade, .. })) = post {
                    *grade = !*grade;
                    self.flipped_at.store(tick, Ordering::SeqCst);
                    let tampered = encode_shard_msg(&ShardMsg::Batch { tick, entries })
                        .expect("tampered batch encodes");
                    return self.inner.send(&tampered);
                }
            }
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        self.inner.recv()
    }
}

#[test]
fn corrupting_one_post_on_one_shard_changes_the_global_checksum_at_that_tick() {
    let inst = instance();
    let cfg = config(16);
    let services = fresh_shards(&inst, &cfg, 2);
    let flipped_at = Arc::new(AtomicU64::new(0));
    let mut links = Vec::new();
    let mut workers = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let (relay_end, mut shard_end) = channel_pair();
        links.push(PostFlipper {
            inner: relay_end,
            broadcasts: 0,
            // Shard 1 only, and not on the first broadcasts, so the
            // stream is in sync for a while before the corruption.
            arm_at: if i == 1 { 4 } else { u64::MAX },
            flipped_at: Arc::clone(&flipped_at),
        });
        let svc = Arc::clone(svc);
        workers.push(std::thread::spawn(move || {
            run_shard_worker(&svc, i as u32, 2, &mut shard_end)
        }));
    }
    let relay =
        Relay::connect(links, RelayConfig::for_service(&cfg, 2, N, M)).expect("handshake succeeds");
    let sharded = ShardedService::new(relay);
    let single = Service::new(inst.truth.clone(), cfg.clone()).expect("valid config");

    // Two sessions, then rounds of posts across every object, so some
    // post reaches shard 1 at or after its fourth broadcast.
    let mut rounds: Vec<Vec<Op>> = vec![vec![(0, 0, 0, false), (0, 0, 0, false)]];
    for r in 0..8u32 {
        rounds.push(
            (0..6u32)
                .map(|k| (13, u64::from(k % 2) + 1, (r * 6 + k) % M as u32, k % 3 == 0))
                .collect(),
        );
    }
    let ticks = per_tick_checksums(&single, &sharded, || sharded.checksum_log(), &rounds);
    assert!(
        sharded.health().is_none(),
        "the replicated gate cannot see a corrupted post: {:?}",
        sharded.health()
    );
    let corrupted = flipped_at.load(Ordering::SeqCst);
    assert!(
        corrupted > 1,
        "a post reached shard 1 after its first broadcasts"
    );
    for &(tick, want, got) in &ticks {
        if tick < corrupted {
            assert_eq!(
                got,
                Some(want),
                "tick {tick}: in sync before the corruption"
            );
        } else {
            assert!(got.is_some(), "tick {tick} logged a global checksum");
            assert_ne!(got, Some(want), "tick {tick}: the corruption shows");
        }
    }
    assert_ne!(
        sharded.merged_state_digest().expect("digest merges"),
        single.state_digest(),
        "the rendered oracle agrees that the state diverged"
    );
    sharded.disconnect();
    for w in workers {
        let _ = w.join().expect("worker thread does not panic");
    }
}
