//! Sharded-topology equivalence suite — the acceptance gate for
//! `--shards N`.
//!
//! Four contracts, each pinned end-to-end through the public
//! [`Serving`] surface and the real worker loop (threads over channel
//! links, the exact bytes a socket would carry):
//!
//! 1. **Byte equivalence**: a 1..=4-shard topology driven by the
//!    generic load driver produces the same transcript, counters, and
//!    merged state digest as a single-process [`Service`], and the
//!    per-tick `shardsum` control-checksum stream does not depend on
//!    the partition.
//! 2. **Desync gate**: a saboteur link that slips one rogue request
//!    into a single shard's batch trips a typed
//!    [`ShardError::Desync`], which latches.
//! 3. **Relay kill/restart**: tearing down the (state-free) relay and
//!    re-handshaking with shards recovered from their own WALs resumes
//!    mid-script and ends byte-identical to the same script with no
//!    kill.
//! 4. **Backpressure**: with the same stream and `queue_capacity`, a
//!    sharded topology refuses (`Busy`) exactly the submits a single
//!    process refuses — both check `queue.len() >= capacity`.

use std::sync::mpsc::channel;
use std::sync::Arc;

use tmwia_model::generators::planted_community;
use tmwia_service::shard::{decode_shard_msg, encode_shard_msg};
use tmwia_service::{
    channel_pair, run_serving, run_shard_worker, spawn_local, ChannelLink, ClientMix, Durability,
    LoadConfig, RecoverOptions, Relay, RelayConfig, Request, Response, Service, ServiceConfig,
    Serving, ShardError, ShardLink, ShardMsg, ShardedService, WireError,
};

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        batch_size: 8,
        queue_capacity: 128,
        seed,
        ..ServiceConfig::default()
    }
}

fn fresh_services(
    inst: &tmwia_model::generators::Instance,
    scfg: &ServiceConfig,
    shards: usize,
) -> (Vec<Arc<Service>>, RelayConfig) {
    let services = (0..shards)
        .map(|_| Arc::new(Service::new(inst.truth.clone(), scfg.clone()).expect("valid config")))
        .collect();
    let relay_cfg = RelayConfig::for_service(scfg, shards, inst.truth.n(), inst.truth.m());
    (services, relay_cfg)
}

#[test]
fn sharded_runs_byte_match_a_single_process_for_1_to_4_shards() {
    let inst = planted_community(48, 48, 24, 6, 11);
    let scfg = service_config(11);
    let load = LoadConfig {
        sessions: 6,
        requests: 18,
        mix: ClientMix::default_mix(),
        seed: 11,
        recommend_count: 6,
        objects: 48,
        halt_after_rounds: None,
    };

    let single = Arc::new(Service::new(inst.truth.clone(), scfg.clone()).expect("valid config"));
    let reference = run_serving(single.as_ref(), &load);
    assert_eq!(reference.errors, 0, "reference run must be clean");
    let reference_digest = single.state_digest();

    let mut control_streams: Vec<Vec<String>> = Vec::new();
    for shards in 1..=4 {
        let (services, relay_cfg) = fresh_services(&inst, &scfg, shards);
        let topo = spawn_local(services, relay_cfg).expect("topology connects");
        let out = run_serving(topo.service.as_ref(), &load);
        assert!(
            topo.service.health().is_none(),
            "shards={shards}: topology stayed healthy"
        );
        assert_eq!(
            out.transcript, reference.transcript,
            "shards={shards}: transcript is byte-identical"
        );
        assert_eq!(
            (out.submitted, out.ok, out.busy, out.errors, out.ticks),
            (
                reference.submitted,
                reference.ok,
                reference.busy,
                reference.errors,
                reference.ticks
            ),
            "shards={shards}: counters match"
        );
        assert_eq!(out.by_kind, reference.by_kind, "shards={shards}");
        assert_eq!(
            topo.service.merged_state_digest().expect("digest merges"),
            reference_digest,
            "shards={shards}: merged digest equals the single process"
        );
        control_streams.push(
            topo.service
                .checksum_log()
                .into_iter()
                .filter(|l| l.starts_with("shardsum "))
                .collect(),
        );
        for result in topo.shutdown() {
            result.expect("worker exits cleanly");
        }
    }
    assert!(!control_streams[0].is_empty(), "ticks were sealed");
    for (i, stream) in control_streams.iter().enumerate().skip(1) {
        assert_eq!(
            stream, &control_streams[0],
            "control-checksum stream is partition-independent (run {i})"
        );
    }
}

/// Overfill `svc` round by round (submit every request of a round,
/// then tick once) and return every reply in arrival order, the ids
/// that were answered `Busy`, and the queue length after each round.
fn overfill(
    svc: &dyn Serving,
    rounds: &[Vec<Request>],
) -> (Vec<(u64, Response)>, Vec<u64>, Vec<usize>) {
    let (tx, rx) = channel();
    let mut id = 0u64;
    let mut queued = Vec::new();
    for round in rounds {
        for req in round {
            svc.submit(id, req.clone(), &tx);
            id += 1;
        }
        queued.push(svc.queue_len());
        svc.tick();
    }
    while svc.queue_len() > 0 {
        svc.tick();
    }
    let replies: Vec<(u64, Response)> = rx.try_iter().collect();
    let busy = replies
        .iter()
        .filter(|(_, r)| matches!(r, Response::Busy { .. }))
        .map(|&(id, _)| id)
        .collect();
    (replies, busy, queued)
}

#[test]
fn a_full_queue_rejects_the_same_submits_single_process_and_sharded() {
    // Capacity 6, batch 4: every round overfills the queue, and each
    // tick leaves a backlog that the next round's submits count.
    let inst = planted_community(48, 48, 24, 6, 11);
    let scfg = ServiceConfig {
        batch_size: 4,
        queue_capacity: 6,
        seed: 3,
        ..ServiceConfig::default()
    };
    let mut rounds = vec![vec![Request::Join; 9]];
    for r in 0..4u32 {
        rounds.push(
            (1..=6u64)
                .map(|session| Request::Probe {
                    session,
                    object: (session as u32 * 7 + r) % 48,
                    share: true,
                })
                .chain([Request::Join, Request::Leave { session: 9 }])
                .collect(),
        );
    }
    let single = Service::new(inst.truth.clone(), scfg.clone()).expect("valid config");
    let (want_replies, want_busy, want_queued) = overfill(&single, &rounds);
    assert!(
        want_busy.len() >= rounds.len(),
        "every round overfills the queue: busy {want_busy:?}"
    );
    let (services, relay_cfg) = fresh_services(&inst, &scfg, 2);
    let topo = spawn_local(services, relay_cfg).expect("topology connects");
    let (replies, busy, queued) = overfill(topo.service.as_ref(), &rounds);
    assert_eq!(busy, want_busy, "the same submits are refused");
    assert_eq!(queued, want_queued, "the same backlog after every round");
    assert_eq!(replies, want_replies, "the same transcript");
    assert_eq!(topo.service.rejected_total(), single.rejected_total());
    for result in topo.shutdown() {
        result.expect("worker exits cleanly");
    }
}

/// A link wrapper that tampers with exactly one broadcast: the first
/// non-empty `Batch` grows a rogue `Join` the other shards never see.
struct Saboteur {
    inner: ChannelLink,
    armed: bool,
}

impl ShardLink for Saboteur {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        if self.armed && frame.len() > 4 {
            if let Ok(ShardMsg::Batch { tick, mut entries }) = decode_shard_msg(&frame[4..]) {
                if !entries.is_empty() {
                    self.armed = false;
                    let seq = entries.last().map_or(0, |e| e.0) + 1_000_000;
                    entries.push((seq, 0xDEAD_F00D, Request::Join));
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
fn desync_gate_trips_on_an_injected_divergence_and_latches() {
    let inst = planted_community(32, 32, 16, 4, 5);
    let scfg = service_config(5);
    let services: Vec<Arc<Service>> = (0..2)
        .map(|_| Arc::new(Service::new(inst.truth.clone(), scfg.clone()).expect("valid config")))
        .collect();
    let relay_cfg = RelayConfig::for_service(&scfg, 2, inst.truth.n(), inst.truth.m());

    let mut links = Vec::new();
    let mut workers = Vec::new();
    for (i, svc) in services.iter().enumerate() {
        let (relay_end, mut shard_end) = channel_pair();
        links.push(Saboteur {
            inner: relay_end,
            armed: i == 1,
        });
        let svc = Arc::clone(svc);
        workers.push(std::thread::spawn(move || {
            run_shard_worker(&svc, i as u32, 2, &mut shard_end)
        }));
    }
    let relay = Relay::connect(links, relay_cfg).expect("handshake succeeds");
    let svc = ShardedService::new(relay);

    let (tx, _rx) = channel();
    for id in 0..10u64 {
        svc.submit(id, Request::Join, &tx);
        svc.tick();
        if svc.health().is_some() {
            break;
        }
    }
    let fault = svc.health();
    assert!(
        matches!(fault, Some(ShardError::Desync { .. })),
        "expected a typed desync, got {fault:?}"
    );
    // The fault latches: further driving does not clear it.
    svc.submit(99, Request::Join, &tx);
    svc.tick();
    assert!(
        matches!(svc.health(), Some(ShardError::Desync { .. })),
        "desync stays latched"
    );

    // The audit trail must carry enough to localize the split without
    // re-running the workload: the tick, the disagreeing shard, and
    // BOTH control digests (the rogue shard's and shard 0's reference).
    let report = svc.obs_report();
    let latches: Vec<_> = report
        .events
        .iter()
        .filter(|e| matches!(e.event, tmwia_obs::Event::DesyncLatched { .. }))
        .collect();
    assert_eq!(latches.len(), 1, "exactly one latch event: {latches:?}");
    let tmwia_obs::Event::DesyncLatched {
        tick,
        shard,
        got,
        want,
    } = latches[0].event
    else {
        unreachable!()
    };
    assert!(tick >= 1, "the gate fires on an executed tick, got {tick}");
    assert_eq!(shard, 1, "the sabotaged shard is the one that split");
    assert_ne!(got, want, "the event carries two *disagreeing* digests");
    assert_eq!(
        latches[0].timestamp_micros, 0,
        "no clock installed on a test path, so the timestamp is the deterministic zero"
    );
    let rendered = latches[0].event.render_deterministic();
    assert!(
        rendered.contains(&format!("\"got\": \"{got:016x}\""))
            && rendered.contains(&format!("\"want\": \"{want:016x}\"")),
        "both digests export as fixed-width hex: {rendered}"
    );
    let desync_idx = (0..tmwia_obs::METRICS.len())
        .find(|&i| tmwia_obs::METRICS[i].name == "desync_latches")
        .expect("desync_latches is in the namespace");
    assert_eq!(
        report.metrics.values()[desync_idx],
        1,
        "the counter and the event trace agree"
    );

    svc.disconnect();
    for w in workers {
        // The sabotaged topology tears down without panicking; exact
        // per-worker results are not part of the contract here.
        let _ = w.join().expect("worker thread does not panic");
    }
}

fn wal_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tmwia-shard-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_services(
    inst: &tmwia_model::generators::Instance,
    scfg: &ServiceConfig,
    root: &std::path::Path,
    shards: usize,
) -> (Vec<Arc<Service>>, RelayConfig) {
    let services = (0..shards)
        .map(|i| {
            let durability = Durability {
                dir: root.join(format!("shard-{i}")),
                snapshot_every: 4,
            };
            let (svc, _report) = Service::recover(
                inst.truth.clone(),
                scfg.clone(),
                &durability,
                RecoverOptions {
                    use_snapshot: true,
                    capture: false,
                },
            )
            .expect("durable shard opens");
            Arc::new(svc)
        })
        .collect();
    let relay_cfg = RelayConfig::for_service(scfg, shards, inst.truth.n(), inst.truth.m());
    (services, relay_cfg)
}

/// Submit each scripted request and tick once, collecting replies in
/// order. One write per tick keeps every relay tick non-empty, so the
/// interrupted and uninterrupted runs stay position-identical.
fn apply(svc: &dyn Serving, script: &[(u64, Request)]) -> Vec<(u64, Response)> {
    let (tx, rx) = channel();
    let mut replies = Vec::new();
    for (id, req) in script {
        svc.submit(*id, req.clone(), &tx);
        svc.tick();
        while let Ok(pair) = rx.try_recv() {
            replies.push(pair);
        }
    }
    replies
}

fn script_part1() -> Vec<(u64, Request)> {
    vec![
        (1, Request::Join),
        (
            2,
            Request::Probe {
                session: 1,
                object: 3,
                share: true,
            },
        ),
        (
            3,
            Request::Post {
                session: 1,
                object: 7,
                grade: true,
            },
        ),
        (4, Request::Join),
        (
            5,
            Request::Probe {
                session: 2,
                object: 12,
                share: true,
            },
        ),
        (
            6,
            Request::Post {
                session: 2,
                object: 3,
                grade: false,
            },
        ),
        (
            7,
            Request::Probe {
                session: 1,
                object: 20,
                share: false,
            },
        ),
    ]
}

fn script_part2() -> Vec<(u64, Request)> {
    vec![
        (
            8,
            Request::Post {
                session: 1,
                object: 12,
                grade: true,
            },
        ),
        (
            9,
            Request::Probe {
                session: 2,
                object: 30,
                share: true,
            },
        ),
        (10, Request::Read { object: 3 }),
        (11, Request::Leave { session: 2 }),
        (
            12,
            Request::Post {
                session: 1,
                object: 25,
                grade: false,
            },
        ),
    ]
}

#[test]
fn relay_restart_resumes_from_shard_wals_byte_identically() {
    let inst = planted_community(32, 32, 16, 4, 7);
    let scfg = service_config(7);

    // Interrupted run: part 1, then the relay "dies" (teardown drops
    // every bit of relay state — it holds none that matters).
    let killed_root = wal_root("killed");
    let (services, relay_cfg) = durable_services(&inst, &scfg, &killed_root, 2);
    let topo = spawn_local(services, relay_cfg).expect("topology connects");
    let replies1 = apply(topo.service.as_ref(), &script_part1());
    assert!(topo.service.health().is_none());
    for result in topo.shutdown() {
        result.expect("worker exits cleanly on relay death");
    }

    // Restart: shards recover from their own WALs, the new relay
    // re-handshakes and resumes at their position, part 2 continues.
    let (services, relay_cfg) = durable_services(&inst, &scfg, &killed_root, 2);
    let topo = spawn_local(services, relay_cfg).expect("restarted topology connects");
    assert!(
        topo.service.current_tick() > 0,
        "the restarted relay resumed instead of starting over"
    );
    let replies2 = apply(topo.service.as_ref(), &script_part2());
    assert!(topo.service.health().is_none());
    let resumed_digest = topo
        .service
        .merged_state_digest()
        .expect("digest merges after restart");
    for result in topo.shutdown() {
        result.expect("worker exits cleanly");
    }

    // Uninterrupted reference: the same script, no kill.
    let clean_root = wal_root("clean");
    let (services, relay_cfg) = durable_services(&inst, &scfg, &clean_root, 2);
    let topo = spawn_local(services, relay_cfg).expect("reference topology connects");
    let ref1 = apply(topo.service.as_ref(), &script_part1());
    let ref2 = apply(topo.service.as_ref(), &script_part2());
    let reference_digest = topo
        .service
        .merged_state_digest()
        .expect("reference digest merges");
    for result in topo.shutdown() {
        result.expect("worker exits cleanly");
    }

    assert_eq!(replies1, ref1, "pre-kill replies match the clean run");
    assert_eq!(replies2, ref2, "post-restart replies match the clean run");
    assert_eq!(
        resumed_digest, reference_digest,
        "the killed-and-restarted topology ends byte-identical"
    );

    let _ = std::fs::remove_dir_all(&killed_root);
    let _ = std::fs::remove_dir_all(&clean_root);
}
