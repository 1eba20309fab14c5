//! The state-free deterministic relay: one process that fronts `N`
//! object-partitioned [`Service`] shards.
//!
//! ## Topology
//!
//! Every shard runs the **full** service (same generated instance, same
//! seed, its own WAL) but receives only the write requests for the
//! objects it owns. Ownership is the seeded S5 partition —
//! [`uniform_parts`] over `0..m` under
//! `rng_for(seed, tags::SERVICE_SHARD, shards)` — so the owner table is
//! a pure function of `(seed, shards, m)` and the relay can recompute
//! it from scratch on every start. That is the whole trick: the relay
//! holds **no durable state**. Admission order is minted as global
//! sequence numbers, batches are broadcast tagged with the global tick,
//! and each shard replays its sub-batch through the service's existing
//! recovery machinery. Kill the relay and its workers exit (link EOF);
//! restart it and it re-handshakes, resumes at the maximum position the
//! shards report, and carries on. Durability lives entirely in the
//! shard WALs.
//!
//! ## Request routing
//!
//! * `Probe`/`Post` → the owner shard only (each object lives on
//!   exactly one shard, so probe memos, charge ledgers, and billboard
//!   cells partition cleanly).
//! * `Join`/`Leave`/`Shutdown` → **every** shard, with the same
//!   sequence number. The control plane (session registry) is
//!   replicated, not partitioned: each shard applies the identical
//!   control stream, so session handles and player-slot bindings agree
//!   everywhere by determinism instead of by consensus.
//! * `Read` → the owner shard, answered out of band from its sealed
//!   snapshot. `Recommend` → a rank merge across all shards (object
//!   sets are disjoint, so per-shard top-`k` lists merge exactly).
//!   `Stats` → aggregated (probes sum across shards; served/rejected
//!   are relay counters; epoch/live come from shard 0).
//!
//! ## The desync gate
//!
//! Determinism replaces replication only while it actually holds, so
//! the relay verifies it every tick: each `BatchDone` carries the two
//! parts of the shard's incremental [`Service::checksum`]. The
//! *replicated* part hashes exactly the replicated state (session
//! bindings, tick, epoch, shutdown flag, registry counters, snapshot
//! header), and the relay refuses to continue the moment two shards
//! disagree on it (a [`ShardError::Desync`] is latched and queued
//! clients get typed errors). The *owned* parts (ledgers, memos,
//! posts) of disjoint shards sum, so the relay also logs one global
//! per-tick state checksum that equals a single process's
//! [`Service::state_checksum`] over the same request stream — the audit
//! trail. A torn broadcast (relay killed after some shards executed a
//! tick) surfaces the same way: the restarted relay catches a 1-tick
//! laggard up with an empty seal, and if the torn tick carried writes
//! for the laggard the next control checksum trips the gate —
//! at-most-once delivery, detected rather than papered over.
//!
//! ## Caveat (a documented divergence from the single process)
//!
//! * `Stats.tick` reports the relay's tick and `Stats.served/rejected`
//!   the relay's counters; per-shard service counters (process-local,
//!   excluded from digests) are not summed.

use crate::checksum::Checksum;
use crate::service::{
    render_digest, DigestParts, PlayerDigest, ReplySender, Service, ServiceConfig, Serving,
};
use crate::shard::{
    channel_pair, decode_shard_msg, encode_shard_msg, run_shard_worker, topology_fingerprint,
    ChannelLink, ShardLink, ShardMsg,
};
use crate::wire::{ErrorCode, Request, Response, SessionId, WireError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use tmwia_model::partition::uniform_parts;
use tmwia_model::rng::{rng_for, tags};
use tmwia_obs::metrics::namespace_fingerprint;
use tmwia_obs::{Event, MetricId, MetricSnapshot, ObsReport, Registry as ObsRegistry};

/// Typed failures of the sharded topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A link-level codec or transport failure.
    Wire(WireError),
    /// The handshake could not assemble a coherent topology.
    Handshake(String),
    /// A shard was launched with a different configuration than the
    /// relay (fingerprints over seed/shards/instance/batch disagree).
    Config {
        /// The offending shard.
        shard: u32,
        /// The relay's fingerprint.
        expected: u64,
        /// The shard's fingerprint.
        got: u64,
    },
    /// A peer spoke the protocol out of turn.
    Protocol {
        /// The offending shard.
        shard: u32,
        /// What happened.
        detail: String,
    },
    /// The determinism invariant broke: shards disagree about
    /// replicated state. The topology is faulted and stops executing.
    Desync {
        /// Global tick the divergence was detected at.
        tick: u64,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Wire(e) => write!(f, "shard link error: {e}"),
            ShardError::Handshake(d) => write!(f, "shard handshake failed: {d}"),
            ShardError::Config {
                shard,
                expected,
                got,
            } => write!(
                f,
                "shard {shard} config fingerprint {got:016x} does not match the relay's {expected:016x}"
            ),
            ShardError::Protocol { shard, detail } => {
                write!(f, "protocol violation by shard {shard}: {detail}")
            }
            ShardError::Desync { tick, detail } => {
                write!(f, "shard desync at tick {tick}: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Everything the relay needs to admit, route, and verify. Pure data —
/// recomputable on every start, which is what keeps the relay
/// state-free.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Master seed (drives the owner partition and the fingerprint).
    pub seed: u64,
    /// Player-slot capacity of the instance.
    pub n: usize,
    /// Objects in the instance.
    pub m: usize,
    /// Queued writes executed per global tick.
    pub batch_size: usize,
    /// Bounded admission queue capacity.
    pub queue_capacity: usize,
    /// `Busy` retry hint, in ticks.
    pub retry_after_ticks: u32,
    /// Upper bound on `Recommend` list length.
    pub recommend_cap: u16,
}

impl RelayConfig {
    /// Derive the relay view of a shard's [`ServiceConfig`].
    pub fn for_service(cfg: &ServiceConfig, shards: usize, n: usize, m: usize) -> Self {
        RelayConfig {
            shards,
            seed: cfg.seed,
            n,
            m,
            batch_size: cfg.batch_size,
            queue_capacity: cfg.queue_capacity,
            retry_after_ticks: cfg.retry_after_ticks,
            recommend_cap: cfg.recommend_cap,
        }
    }
}

/// One shard's `BatchDone` payload as the relay consumes it:
/// `(epoch, replicated checksum, owned checksum, responses)`.
type ShardDone = (u64, u64, u64, VecDeque<(u64, Response)>);

/// One admitted-but-unexecuted write, with its relay-minted global
/// sequence number.
struct RelayPending {
    seq: u64,
    id: u64,
    req: Request,
    reply: ReplySender,
}

/// The relay core: links to the shards, the canonical admission queue,
/// and the position counters. Drive it with [`Relay::submit`] /
/// [`Relay::tick`]; wrap it in [`ShardedService`] for the [`Serving`]
/// surface the generic drivers use.
pub struct Relay<L: ShardLink> {
    links: Vec<L>,
    cfg: RelayConfig,
    /// `owner[j]` = shard that owns object `j` (the seeded partition).
    owner: Vec<u32>,
    tick: u64,
    epoch: u64,
    next_seq: u64,
    shutdown: bool,
    queue: VecDeque<RelayPending>,
    served: u64,
    rejected: u64,
    minted: u64,
    checksums: Vec<String>,
    /// The relay's own registry: topology metrics (batches, rank
    /// merges, handshakes, latched desyncs) plus the front-end's share
    /// of the workload counters (rejections, tick position). Merged
    /// with the per-shard registries for the global report.
    obs: ObsRegistry,
}

fn wire(e: WireError) -> ShardError {
    ShardError::Wire(e)
}

fn hangup(shard: usize) -> ShardError {
    ShardError::Wire(WireError::Io(format!("shard {shard} hung up")))
}

impl<L: ShardLink> Relay<L> {
    /// Handshake with one already-connected link per shard and resume
    /// the topology.
    ///
    /// Each link must deliver a `Hello` first. The relay sorts links by
    /// shard index, verifies the set is exactly `0..shards` with
    /// matching configuration fingerprints, and resumes at the
    /// **maximum** tick/epoch/sequence position reported — the
    /// state-free restart. A shard exactly one tick behind the maximum
    /// (killed relay, torn broadcast) is caught up with an empty sealed
    /// tick; a wider gap cannot be reconciled without the lost batches
    /// and is a typed handshake failure.
    pub fn connect(links: Vec<L>, cfg: RelayConfig) -> Result<Self, ShardError> {
        if cfg.shards == 0 || links.len() != cfg.shards {
            return Err(ShardError::Handshake(format!(
                "{} links for {} shards",
                links.len(),
                cfg.shards
            )));
        }
        let expected =
            topology_fingerprint(cfg.seed, cfg.shards as u32, cfg.n, cfg.m, cfg.batch_size);
        struct HelloEnd<L> {
            shard: u32,
            tick: u64,
            epoch: u64,
            next_seq: u64,
            link: L,
        }
        let mut ends: Vec<HelloEnd<L>> = Vec::with_capacity(links.len());
        for (i, mut link) in links.into_iter().enumerate() {
            let body = link.recv().map_err(wire)?.ok_or_else(|| hangup(i))?;
            let msg = decode_shard_msg(&body).map_err(wire)?;
            let ShardMsg::Hello {
                shard,
                shards,
                tick,
                epoch,
                next_seq,
                fingerprint,
            } = msg
            else {
                return Err(ShardError::Protocol {
                    shard: i as u32,
                    detail: "first message was not Hello".into(),
                });
            };
            if shards as usize != cfg.shards {
                return Err(ShardError::Handshake(format!(
                    "shard {shard} was launched for {shards} shards, relay runs {}",
                    cfg.shards
                )));
            }
            if fingerprint != expected {
                return Err(ShardError::Config {
                    shard,
                    expected,
                    got: fingerprint,
                });
            }
            ends.push(HelloEnd {
                shard,
                tick,
                epoch,
                next_seq,
                link,
            });
        }
        ends.sort_by_key(|e| e.shard);
        for (i, e) in ends.iter().enumerate() {
            if e.shard as usize != i {
                return Err(ShardError::Handshake(format!(
                    "shard indices are not exactly 0..{} (saw {})",
                    cfg.shards, e.shard
                )));
            }
        }
        let tick = ends.iter().map(|e| e.tick).max().unwrap_or(0);
        let epoch = ends.iter().map(|e| e.epoch).max().unwrap_or(0);
        let next_seq = ends.iter().map(|e| e.next_seq).max().unwrap_or(0);
        let obs = ObsRegistry::new();
        obs.set_max(MetricId::TicksExecuted, tick);
        for e in &ends {
            obs.inc(MetricId::ShardHandshakes);
            obs.record(Event::ShardHandshake {
                shard: e.shard,
                resume_tick: tick,
            });
        }
        // Catch 1-tick laggards up with an empty sealed tick. Wider
        // gaps mean whole broadcast batches are gone with the old
        // relay's memory — undetectable data loss if we resumed — so
        // they are refused instead.
        for e in &mut ends {
            if e.tick == tick {
                continue;
            }
            if tick - e.tick > 1 {
                return Err(ShardError::Handshake(format!(
                    "shard {} is {} ticks behind the topology (at {}, max {tick}); \
                     its missed batches cannot be reconstructed",
                    e.shard,
                    tick - e.tick,
                    e.tick
                )));
            }
            let frame = encode_shard_msg(&ShardMsg::Batch {
                tick,
                entries: Vec::new(),
            })
            .map_err(wire)?;
            e.link.send(&frame).map_err(wire)?;
            let body = e
                .link
                .recv()
                .map_err(wire)?
                .ok_or_else(|| hangup(e.shard as usize))?;
            match decode_shard_msg(&body).map_err(wire)? {
                ShardMsg::BatchDone {
                    tick: done_tick,
                    epoch: done_epoch,
                    responses,
                    ..
                } => {
                    if done_tick != tick || done_epoch != epoch || !responses.is_empty() {
                        return Err(ShardError::Desync {
                            tick,
                            detail: format!(
                                "shard {} caught up to tick {done_tick} epoch {done_epoch} \
                                 with {} responses; expected tick {tick} epoch {epoch}, none",
                                e.shard,
                                responses.len()
                            ),
                        });
                    }
                }
                _ => {
                    return Err(ShardError::Protocol {
                        shard: e.shard,
                        detail: "catch-up batch was not acknowledged with BatchDone".into(),
                    })
                }
            }
        }
        // The seeded owner table — same derivation on every start.
        let objects: Vec<u32> = (0..cfg.m as u32).collect();
        let mut rng = rng_for(cfg.seed, tags::SERVICE_SHARD, cfg.shards as u64);
        let parts = uniform_parts(&objects, cfg.shards, &mut rng);
        let mut owner = vec![0u32; cfg.m];
        for (s, part) in parts.iter().enumerate() {
            for &j in part {
                owner[j as usize] = s as u32;
            }
        }
        Ok(Relay {
            links: ends.into_iter().map(|e| e.link).collect(),
            cfg,
            owner,
            tick,
            epoch,
            next_seq,
            shutdown: false,
            queue: VecDeque::new(),
            served: 0,
            rejected: 0,
            minted: 0,
            checksums: Vec::new(),
            obs,
        })
    }

    fn owner_of(&self, object: u32) -> usize {
        match self.owner.get(object as usize) {
            Some(&s) => s as usize,
            // Out of range: every shard answers identically (same `m`
            // everywhere), so any deterministic pick works.
            None => object as usize % self.cfg.shards,
        }
    }

    fn exchange(link: &mut L, shard: usize, msg: &ShardMsg) -> Result<ShardMsg, ShardError> {
        link.send(&encode_shard_msg(msg).map_err(wire)?)
            .map_err(wire)?;
        let body = link.recv().map_err(wire)?.ok_or_else(|| hangup(shard))?;
        decode_shard_msg(&body).map_err(wire)
    }

    /// Send `msg` to every shard, then collect the answers in shard
    /// order. The shards answer concurrently, so a fan-out costs about
    /// one round trip however many shards there are (the tick's `Batch`
    /// broadcast works the same way).
    fn fan_out(&mut self, msg: &ShardMsg) -> Result<Vec<ShardMsg>, ShardError> {
        let frame = encode_shard_msg(msg).map_err(wire)?;
        for link in &mut self.links {
            link.send(&frame).map_err(wire)?;
        }
        self.links
            .iter_mut()
            .enumerate()
            .map(|(s, link)| {
                let body = link.recv().map_err(wire)?.ok_or_else(|| hangup(s))?;
                decode_shard_msg(&body).map_err(wire)
            })
            .collect()
    }

    /// Submit a request — the relay mirror of [`Service::submit`].
    /// Reads are answered synchronously off the shard snapshots; writes
    /// are admitted into the canonical queue with a freshly minted
    /// global sequence number (or refused with `Busy`/`ShuttingDown`
    /// under exactly the single process's rules).
    pub fn submit(&mut self, id: u64, req: Request, reply: &ReplySender) -> Result<(), ShardError> {
        match req {
            Request::Read { object } => {
                let s = self.owner_of(object);
                let msg = Self::exchange(
                    &mut self.links[s],
                    s,
                    &ShardMsg::Query {
                        id,
                        req: Request::Read { object },
                    },
                )?;
                let ShardMsg::QueryDone { resp, .. } = msg else {
                    return Err(ShardError::Protocol {
                        shard: s as u32,
                        detail: "read was not answered with QueryDone".into(),
                    });
                };
                self.served += 1;
                let _ = reply.send((id, resp));
            }
            Request::Recommend { count } => {
                // `recommends_served` is stamped by every shard's rank
                // handler (Max merge); the relay only counts its merge.
                self.obs.inc(MetricId::RelayRankMerges);
                let take = count.min(self.cfg.recommend_cap);
                let mut merged: Vec<(u32, i64)> = Vec::new();
                let mut epoch: Option<u64> = None;
                let answers = self.fan_out(&ShardMsg::Rank { count: take })?;
                for (s, msg) in answers.into_iter().enumerate() {
                    let ShardMsg::RankDone { epoch: e, entries } = msg else {
                        return Err(ShardError::Protocol {
                            shard: s as u32,
                            detail: "rank was not answered with RankDone".into(),
                        });
                    };
                    let head = *epoch.get_or_insert(e);
                    if head != e {
                        return Err(ShardError::Desync {
                            tick: self.tick,
                            detail: format!("shard {s} ranked at epoch {e}, shard 0 at {head}"),
                        });
                    }
                    merged.extend(entries);
                }
                // Disjoint object sets: the shard-local orders
                // interleave into exactly the global snapshot order
                // (net descending, object id ascending on ties).
                merged.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                merged.truncate(take as usize);
                self.served += 1;
                let _ = reply.send((
                    id,
                    Response::Recommended {
                        epoch: epoch.unwrap_or(0),
                        objects: merged.into_iter().map(|(j, _)| j).collect(),
                    },
                ));
            }
            Request::Stats => {
                // Counts itself, like the single-process service.
                self.served += 1;
                let mut probes = 0u64;
                let mut head: Option<(u64, u32)> = None;
                let answers = self.fan_out(&ShardMsg::Query {
                    id,
                    req: Request::Stats,
                })?;
                for (s, msg) in answers.into_iter().enumerate() {
                    let ShardMsg::QueryDone {
                        resp:
                            Response::Stats {
                                epoch,
                                live,
                                probes: shard_probes,
                                ..
                            },
                        ..
                    } = msg
                    else {
                        return Err(ShardError::Protocol {
                            shard: s as u32,
                            detail: "stats query was not answered with stats".into(),
                        });
                    };
                    // Each probe executes on exactly one shard, so the
                    // per-shard charge counters sum to the global one.
                    probes += shard_probes;
                    if head.is_none() {
                        head = Some((epoch, live));
                    }
                }
                let (epoch, live) = head.unwrap_or((0, 0));
                let _ = reply.send((
                    id,
                    Response::Stats {
                        epoch,
                        tick: self.tick,
                        live,
                        served: self.served,
                        rejected: self.rejected,
                        probes,
                    },
                ));
            }
            Request::Metrics => {
                // Counts itself, like Stats; the answer is the merged
                // cross-shard registry, so a sharded front-end reports
                // the same global values a single process would.
                self.served += 1;
                let merged = self.merged_metrics()?;
                let _ = reply.send((
                    id,
                    Response::Metrics {
                        namespace: namespace_fingerprint(),
                        values: merged.values().to_vec(),
                    },
                ));
            }
            Request::Join
            | Request::Leave { .. }
            | Request::Probe { .. }
            | Request::Post { .. }
            | Request::Shutdown => {
                if self.shutdown && !matches!(req, Request::Shutdown) {
                    let _ = reply.send((id, Response::ShuttingDown));
                    return Ok(());
                }
                if self.queue.len() >= self.cfg.queue_capacity {
                    self.rejected += 1;
                    self.obs.inc(MetricId::RequestsRejected);
                    let _ = reply.send((
                        id,
                        Response::Busy {
                            retry_after_ticks: self.cfg.retry_after_ticks,
                        },
                    ));
                    return Ok(());
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue.push_back(RelayPending {
                    seq,
                    id,
                    req,
                    reply: reply.clone(),
                });
            }
        }
        Ok(())
    }

    /// Enqueue a churn-teardown `Leave`, exempt from capacity and
    /// shutdown like [`Service::submit_teardown`].
    pub fn submit_teardown(&mut self, session: SessionId) {
        let (reply, _discard) = std::sync::mpsc::channel();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(RelayPending {
            seq,
            id: u64::MAX,
            req: Request::Leave { session },
            reply,
        });
    }

    /// Flip the shutdown flag (external bound, e.g. a tick limit) and
    /// queue one synthetic protocol `Shutdown` so every shard's own
    /// flag — which their control digests include — flips with the next
    /// broadcast instead of silently drifting from the relay's.
    pub fn request_shutdown(&mut self) {
        if self.shutdown {
            return;
        }
        self.shutdown = true;
        let (reply, _discard) = std::sync::mpsc::channel();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(RelayPending {
            seq,
            id: u64::MAX,
            req: Request::Shutdown,
            reply,
        });
    }

    /// Execute one global tick: drain up to `batch_size` queued writes
    /// in sequence order, broadcast the canonical sub-batches, collect
    /// every shard's acknowledgement, run the desync gate, merge the
    /// responses positionally, and deliver them in arrival order. An
    /// empty drain only advances the tick counter — exactly the single
    /// process — so no broadcast happens and the shards fast-forward
    /// over the gap with the next non-empty batch.
    pub fn tick(&mut self) -> Result<(), ShardError> {
        self.tick += 1;
        // Position, not throughput: the same `set_max` the single
        // process applies, so the Max merge across relay and shards
        // reproduces the single-process value exactly.
        self.obs.set_max(MetricId::TicksExecuted, self.tick);
        let take = self.cfg.batch_size.min(self.queue.len());
        if take == 0 {
            return Ok(());
        }
        let batch: Vec<RelayPending> = self.queue.drain(..take).collect();
        self.epoch += 1;
        let shards = self.links.len();
        let mut subs: Vec<Vec<(u64, u64, Request)>> = vec![Vec::new(); shards];
        for p in &batch {
            match &p.req {
                Request::Probe { object, .. } | Request::Post { object, .. } => {
                    subs[self.owner_of(*object)].push((p.seq, p.id, p.req.clone()));
                }
                Request::Join | Request::Leave { .. } | Request::Shutdown => {
                    for sub in &mut subs {
                        sub.push((p.seq, p.id, p.req.clone()));
                    }
                }
                // Reads are never queued.
                Request::Read { .. }
                | Request::Recommend { .. }
                | Request::Stats
                | Request::Metrics => {}
            }
        }
        let outcome = self.broadcast_and_merge(&batch, subs);
        match outcome {
            Ok(responses) => {
                for (p, resp) in batch.iter().zip(responses) {
                    if matches!(p.req, Request::Shutdown) {
                        self.shutdown = true;
                    }
                    if matches!(resp, Response::Joined { .. }) {
                        self.minted += 1;
                    }
                    let _ = p.reply.send((p.id, resp));
                }
                self.served += batch.len() as u64;
                Ok(())
            }
            Err(e) => {
                // The tick is lost; answer every batched client with a
                // typed error so nobody blocks on a faulted topology.
                for p in &batch {
                    let _ = p.reply.send((
                        p.id,
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            detail: format!("sharded topology fault: {e}"),
                        },
                    ));
                }
                Err(e)
            }
        }
    }

    /// The fallible middle of [`Relay::tick`]: broadcast, collect,
    /// gate, merge. Pure with respect to delivery — responses are
    /// returned, not sent — so the caller can fail the whole batch
    /// atomically.
    fn broadcast_and_merge(
        &mut self,
        batch: &[RelayPending],
        subs: Vec<Vec<(u64, u64, Request)>>,
    ) -> Result<Vec<Response>, ShardError> {
        let shards = self.links.len();
        self.obs.inc(MetricId::RelayBatches);
        for (s, entries) in subs.into_iter().enumerate() {
            let frame = encode_shard_msg(&ShardMsg::Batch {
                tick: self.tick,
                entries,
            })
            .map_err(wire)?;
            self.links[s].send(&frame).map_err(wire)?;
        }
        let mut dones: Vec<ShardDone> = Vec::with_capacity(shards);
        for s in 0..shards {
            let body = self.links[s]
                .recv()
                .map_err(wire)?
                .ok_or_else(|| hangup(s))?;
            let msg = decode_shard_msg(&body).map_err(wire)?;
            let ShardMsg::BatchDone {
                tick,
                epoch,
                control,
                state,
                responses,
            } = msg
            else {
                return Err(ShardError::Protocol {
                    shard: s as u32,
                    detail: "batch was not acknowledged with BatchDone".into(),
                });
            };
            if tick != self.tick {
                return Err(ShardError::Desync {
                    tick: self.tick,
                    detail: format!(
                        "shard {s} executed tick {tick}, relay broadcast {}",
                        self.tick
                    ),
                });
            }
            dones.push((epoch, control, state, responses.into()));
        }
        // The gate: every shard must have sealed the same epoch with
        // the same replicated checksum.
        let control0 = dones.first().map_or(0, |d| d.1);
        for (s, d) in dones.iter().enumerate() {
            if d.0 != self.epoch {
                return Err(ShardError::Desync {
                    tick: self.tick,
                    detail: format!(
                        "shard {s} sealed epoch {}, relay expected {}",
                        d.0, self.epoch
                    ),
                });
            }
            if d.1 != control0 {
                // The audit trail carries both digests: the disagreeing
                // shard's and shard 0's reference.
                self.obs.inc(MetricId::DesyncLatches);
                self.obs.record(Event::DesyncLatched {
                    tick: self.tick,
                    shard: s as u32,
                    got: d.1,
                    want: control0,
                });
                return Err(ShardError::Desync {
                    tick: self.tick,
                    detail: format!(
                        "control checksum split: shard {s} {:016x} != shard 0 {control0:016x}",
                        d.1
                    ),
                });
            }
        }
        // The global state checksum: the (agreed) replicated part plus
        // every shard's owned part, at the relay's sequence position —
        // the value a single process over the same stream reports.
        let global = Checksum {
            replicated: control0,
            owned: dones.iter().fold(0u64, |acc, d| acc.wrapping_add(d.2)),
        }
        .total(self.next_seq);
        self.checksums.push(format!(
            "shardsum tick={} epoch={} control={control0:016x}",
            self.tick, self.epoch
        ));
        self.checksums
            .push(format!("shardstate tick={} state={global:016x}", self.tick));
        // Positional merge: shards answer their sub-batches in sequence
        // order, so walking the global batch in order and popping from
        // the owning (or, for controls, every) shard pairs each request
        // with its response with no id bookkeeping.
        let pop =
            |dones: &mut Vec<ShardDone>, s: usize, tick: u64| -> Result<Response, ShardError> {
                match dones[s].3.pop_front() {
                    Some((_, resp)) => Ok(resp),
                    None => Err(ShardError::Desync {
                        tick,
                        detail: format!("shard {s} returned too few responses"),
                    }),
                }
            };
        let mut responses = Vec::with_capacity(batch.len());
        for p in batch {
            let resp = match &p.req {
                Request::Probe { object, .. } | Request::Post { object, .. } => {
                    let s = self.owner_of(*object);
                    pop(&mut dones, s, self.tick)?
                }
                Request::Join | Request::Shutdown => {
                    let mut replies = Vec::with_capacity(shards);
                    for s in 0..shards {
                        replies.push(pop(&mut dones, s, self.tick)?);
                    }
                    merge_identical(self.tick, &p.req, replies)?
                }
                Request::Leave { .. } => {
                    let mut replies = Vec::with_capacity(shards);
                    for s in 0..shards {
                        replies.push(pop(&mut dones, s, self.tick)?);
                    }
                    merge_left(self.tick, replies)?
                }
                Request::Read { .. }
                | Request::Recommend { .. }
                | Request::Stats
                | Request::Metrics => {
                    return Err(ShardError::Desync {
                        tick: self.tick,
                        detail: "an immediate request reached the batch queue".into(),
                    })
                }
            };
            responses.push(resp);
        }
        for (s, d) in dones.iter().enumerate() {
            if !d.3.is_empty() {
                return Err(ShardError::Desync {
                    tick: self.tick,
                    detail: format!("shard {s} returned {} extra responses", d.3.len()),
                });
            }
        }
        Ok(responses)
    }

    /// Collect every shard's [`DigestParts`] and merge them into one
    /// global digest byte-identical to what a single process over the
    /// same request stream renders.
    pub fn merged_digest(&mut self) -> Result<String, ShardError> {
        let answers = self.fan_out(&ShardMsg::Digest)?;
        let mut parts = Vec::with_capacity(answers.len());
        for (s, msg) in answers.into_iter().enumerate() {
            let ShardMsg::DigestDone(p) = msg else {
                return Err(ShardError::Protocol {
                    shard: s as u32,
                    detail: "digest was not answered with DigestDone".into(),
                });
            };
            parts.push(p);
        }
        let merged = merge_digest_parts(self.tick, self.next_seq, self.shutdown, &parts)?;
        Ok(render_digest(&merged))
    }

    /// Fetch every shard's registry snapshot and fold it into the
    /// relay's own — `Sum` for partitioned counters, `Max` for
    /// replicated ones — yielding the global registry a single process
    /// over the same request stream would hold. Associativity and
    /// commutativity of both modes make the fold order irrelevant.
    fn merged_metrics(&mut self) -> Result<MetricSnapshot, ShardError> {
        let expected = namespace_fingerprint();
        let mut merged = self.obs.snapshot();
        for (s, msg) in self.fan_out(&ShardMsg::Metrics)?.into_iter().enumerate() {
            let ShardMsg::MetricsDone { namespace, values } = msg else {
                return Err(ShardError::Protocol {
                    shard: s as u32,
                    detail: "metrics query was not answered with MetricsDone".into(),
                });
            };
            if namespace != expected {
                return Err(ShardError::Protocol {
                    shard: s as u32,
                    detail: format!(
                        "metric name space {namespace:016x} does not match the relay's \
                         {expected:016x}"
                    ),
                });
            }
            let Some(snap) = MetricSnapshot::from_values(values) else {
                return Err(ShardError::Protocol {
                    shard: s as u32,
                    detail: "metric value vector length does not match the name space".into(),
                });
            };
            merged.merge(&snap);
        }
        Ok(merged)
    }

    /// The merged cross-shard [`ObsReport`]: global metrics plus the
    /// relay's own event trace (handshakes, latched desyncs). Shard
    /// events stay on the shards — they describe shard-local WAL and
    /// seal activity and are read per-process, not aggregated.
    pub fn obs_report(&mut self) -> Result<ObsReport, ShardError> {
        let metrics = self.merged_metrics()?;
        let mut report = self.obs.parts();
        report.metrics = metrics;
        Ok(report)
    }

    /// The relay-local report (no shard exchange): the fallback when
    /// links are faulted but the front-end still has to answer.
    fn local_obs_report(&self) -> ObsReport {
        self.obs.parts()
    }
}

/// Join/Shutdown replies are fully replicated: every shard must say
/// byte-for-byte the same thing, and the relay forwards one copy.
fn merge_identical(
    tick: u64,
    req: &Request,
    replies: Vec<Response>,
) -> Result<Response, ShardError> {
    if replies.windows(2).any(|w| w[0] != w[1]) {
        return Err(ShardError::Desync {
            tick,
            detail: format!("{req:?} replies split across shards: {replies:?}"),
        });
    }
    replies.into_iter().next().ok_or(ShardError::Desync {
        tick,
        detail: "a control request reached zero shards".into(),
    })
}

/// `Leave` receipts partition: each shard's `Left` ledger covers only
/// the probes/posts that executed there, so the global receipt is the
/// sum (the open-ticks count is control-plane and must agree). A
/// non-`Left` reply (unknown session) is replicated and must be
/// unanimous.
fn merge_left(tick: u64, replies: Vec<Response>) -> Result<Response, ShardError> {
    if replies.iter().all(|r| matches!(r, Response::Left { .. })) {
        let mut probes_sum = 0u64;
        let mut posts_sum = 0u64;
        let mut open_ticks: Vec<u64> = Vec::with_capacity(replies.len());
        for r in replies {
            if let Response::Left {
                probes,
                posts,
                ticks,
            } = r
            {
                probes_sum += probes;
                posts_sum += posts;
                open_ticks.push(ticks);
            }
        }
        if open_ticks.windows(2).any(|w| w[0] != w[1]) {
            return Err(ShardError::Desync {
                tick,
                detail: format!("leave open-tick ledgers split across shards: {open_ticks:?}"),
            });
        }
        return Ok(Response::Left {
            probes: probes_sum,
            posts: posts_sum,
            ticks: open_ticks.first().copied().unwrap_or(0),
        });
    }
    merge_identical(tick, &Request::Leave { session: 0 }, replies)
}

/// Merge per-shard digest parts into the global digest: control fields
/// assert-equal, session ledgers sum, probe memos and billboard posts
/// disjoint-union, and the header position (`tick`/`seq`/`shutdown`)
/// comes from the relay — the only place the global values live.
pub fn merge_digest_parts(
    tick: u64,
    seq: u64,
    shutdown: bool,
    parts: &[DigestParts],
) -> Result<DigestParts, ShardError> {
    let Some(first) = parts.first() else {
        return Err(ShardError::Handshake("no digest parts to merge".into()));
    };
    for (s, p) in parts.iter().enumerate() {
        let same = p.minted == first.minted
            && p.retired == first.retired
            && p.live == first.live
            && p.epoch == first.epoch
            && p.snap_tick == first.snap_tick
            && p.snap_live == first.snap_live;
        if !same {
            return Err(ShardError::Desync {
                tick,
                detail: format!("digest control fields split between shard 0 and shard {s}"),
            });
        }
    }
    let mut sessions = first.sessions.clone();
    for (s, p) in parts.iter().enumerate().skip(1) {
        if p.sessions.len() != sessions.len() {
            return Err(ShardError::Desync {
                tick,
                detail: format!(
                    "shard {s} tracks {} open sessions, shard 0 tracks {}",
                    p.sessions.len(),
                    sessions.len()
                ),
            });
        }
        for (acc, sess) in sessions.iter_mut().zip(&p.sessions) {
            if acc.session != sess.session
                || acc.player != sess.player
                || acc.joined_tick != sess.joined_tick
            {
                return Err(ShardError::Desync {
                    tick,
                    detail: format!("session bindings split between shard 0 and shard {s}"),
                });
            }
            acc.posts += sess.posts;
            acc.served += sess.served;
        }
    }
    let mut players: BTreeMap<u64, PlayerDigest> = BTreeMap::new();
    for p in parts {
        for pl in &p.players {
            let e = players.entry(pl.player).or_insert_with(|| PlayerDigest {
                player: pl.player,
                probes: 0,
                memo: Vec::new(),
            });
            e.probes += pl.probes;
            e.memo.extend(pl.memo.iter().copied());
        }
    }
    let players: Vec<PlayerDigest> = players
        .into_values()
        .map(|mut p| {
            p.memo.sort_unstable();
            p
        })
        .collect();
    let mut posts: BTreeMap<u32, (Vec<(u64, bool)>, u32)> = BTreeMap::new();
    for p in parts {
        for (j, entries, likes) in &p.posts {
            if posts.insert(*j, (entries.clone(), *likes)).is_some() {
                return Err(ShardError::Desync {
                    tick,
                    detail: format!("object {j} carries posts on two shards"),
                });
            }
        }
    }
    Ok(DigestParts {
        tick,
        seq,
        shutdown,
        minted: first.minted,
        retired: first.retired,
        live: first.live,
        sessions,
        players,
        epoch: first.epoch,
        snap_tick: first.snap_tick,
        snap_live: first.snap_live,
        posts: posts
            .into_iter()
            .map(|(j, (entries, likes))| (j, entries, likes))
            .collect(),
    })
}

// ---------------------------------------------------------------- handle

struct RelayCell<L: ShardLink> {
    relay: Option<Relay<L>>,
    fault: Option<ShardError>,
}

/// Thread-safe handle over a [`Relay`], implementing [`Serving`] so the
/// generic load driver and TCP front run unchanged against a sharded
/// topology. The first [`ShardError`] latches: the topology stops
/// executing, queued clients receive typed errors, and [`Self::health`]
/// exposes the fault.
pub struct ShardedService<L: ShardLink> {
    cfg: RelayConfig,
    inner: Mutex<RelayCell<L>>,
}

impl<L: ShardLink> ShardedService<L> {
    /// Wrap a connected relay.
    pub fn new(relay: Relay<L>) -> Self {
        ShardedService {
            cfg: relay.cfg.clone(),
            inner: Mutex::new(RelayCell {
                relay: Some(relay),
                fault: None,
            }),
        }
    }

    /// The latched fault, if the topology has one.
    pub fn health(&self) -> Option<ShardError> {
        self.inner.lock().fault.clone()
    }

    /// The per-tick checksum log: per executed tick, one `shardsum` line
    /// (the replicated checksum every shard agreed on) followed by one
    /// `shardstate` line (the global state checksum, equal to a single
    /// process's [`Service::state_checksum`] after the same tick) — the
    /// desync audit trail CI uploads as an artifact.
    pub fn checksum_log(&self) -> Vec<String> {
        self.inner
            .lock()
            .relay
            .as_ref()
            .map(|r| r.checksums.clone())
            .unwrap_or_default()
    }

    /// Merge the shard digests into the global state digest
    /// (byte-identical to [`Service::state_digest`] over the same
    /// request stream).
    pub fn merged_state_digest(&self) -> Result<String, ShardError> {
        let mut cell = self.inner.lock();
        if let Some(fault) = &cell.fault {
            return Err(fault.clone());
        }
        let Some(relay) = cell.relay.as_mut() else {
            return Err(ShardError::Handshake("the relay was disconnected".into()));
        };
        relay.merged_digest()
    }

    /// Drop the links. Every worker observes EOF and exits its loop —
    /// this is how an in-process topology (and a test simulating a
    /// relay kill) tears down without orphaning shard threads.
    pub fn disconnect(&self) {
        self.inner.lock().relay = None;
    }

    fn latch(cell: &mut RelayCell<L>, err: &ShardError) {
        if let Some(relay) = cell.relay.as_mut() {
            while let Some(p) = relay.queue.pop_front() {
                let _ = p.reply.send((
                    p.id,
                    Response::Error {
                        code: ErrorCode::BadRequest,
                        detail: format!("sharded topology fault: {err}"),
                    },
                ));
            }
        }
        if cell.fault.is_none() {
            cell.fault = Some(err.clone());
        }
    }
}

impl<L: ShardLink> Serving for ShardedService<L> {
    fn submit(&self, id: u64, req: Request, reply: &ReplySender) {
        let mut cell = self.inner.lock();
        if let Some(fault) = &cell.fault {
            let _ = reply.send((
                id,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: format!("sharded topology fault: {fault}"),
                },
            ));
            return;
        }
        let Some(relay) = cell.relay.as_mut() else {
            let _ = reply.send((
                id,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: "the relay was disconnected".into(),
                },
            ));
            return;
        };
        if let Err(e) = relay.submit(id, req, reply) {
            // Read-path failures reply here; write admissions are
            // infallible and have already answered or enqueued.
            let _ = reply.send((
                id,
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: format!("sharded topology fault: {e}"),
                },
            ));
            Self::latch(&mut cell, &e);
        }
    }

    fn submit_teardown(&self, session: SessionId) {
        let mut cell = self.inner.lock();
        if cell.fault.is_some() {
            return;
        }
        if let Some(relay) = cell.relay.as_mut() {
            relay.submit_teardown(session);
        }
    }

    fn tick(&self) {
        let mut cell = self.inner.lock();
        if cell.fault.is_some() {
            return;
        }
        let Some(relay) = cell.relay.as_mut() else {
            return;
        };
        if let Err(e) = relay.tick() {
            Self::latch(&mut cell, &e);
        }
    }

    fn current_tick(&self) -> u64 {
        self.inner.lock().relay.as_ref().map_or(0, |r| r.tick)
    }

    fn m(&self) -> usize {
        self.cfg.m
    }

    fn is_durable(&self) -> bool {
        // Durability lives in the shard WALs; the relay itself holds
        // no log (that is the point).
        false
    }

    fn batch_size(&self) -> usize {
        self.cfg.batch_size
    }

    fn queue_capacity(&self) -> usize {
        self.cfg.queue_capacity
    }

    fn recommend_cap(&self) -> u16 {
        self.cfg.recommend_cap
    }

    fn is_shutdown(&self) -> bool {
        self.inner.lock().relay.as_ref().is_none_or(|r| r.shutdown)
    }

    fn request_shutdown(&self) {
        if let Some(relay) = self.inner.lock().relay.as_mut() {
            relay.request_shutdown();
        }
    }

    fn queue_len(&self) -> usize {
        self.inner
            .lock()
            .relay
            .as_ref()
            .map_or(0, |r| r.queue.len())
    }

    fn served_total(&self) -> u64 {
        self.inner.lock().relay.as_ref().map_or(0, |r| r.served)
    }

    fn rejected_total(&self) -> u64 {
        self.inner.lock().relay.as_ref().map_or(0, |r| r.rejected)
    }

    fn sessions_minted(&self) -> usize {
        self.inner
            .lock()
            .relay
            .as_ref()
            .map_or(0, |r| r.minted as usize)
    }

    fn obs_report(&self) -> ObsReport {
        let mut cell = self.inner.lock();
        let Some(relay) = cell.relay.as_mut() else {
            return ObsReport::default();
        };
        // A faulted or hung-up link degrades to the relay-local view
        // (which still carries the latched desync) rather than losing
        // the report entirely.
        relay
            .obs_report()
            .unwrap_or_else(|_| relay.local_obs_report())
    }
}

// ---------------------------------------------------------------- local

/// An in-process sharded topology: worker threads over channel links.
pub struct LocalTopology {
    /// The relay handle the drivers talk to.
    pub service: Arc<ShardedService<ChannelLink>>,
    /// The shard services, retained so tests can inspect them after
    /// teardown (digests, WAL health).
    pub shards: Vec<Arc<Service>>,
    workers: Vec<std::thread::JoinHandle<Result<(), WireError>>>,
}

impl LocalTopology {
    /// Disconnect the relay and join every worker. Workers exit on link
    /// EOF, so this is the clean-teardown path; the shard services stay
    /// alive (and recoverable from their WALs) in `self.shards`.
    pub fn shutdown(self) -> Vec<Result<(), WireError>> {
        self.service.disconnect();
        self.workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err(WireError::Io("shard worker panicked".into())))
            })
            .collect()
    }
}

/// Spawn one worker thread per shard service, connect a relay over
/// channel links, and hand back the topology. The services must all be
/// built over the same instance and [`ServiceConfig`] — the handshake
/// fingerprint enforces the parts it can see.
pub fn spawn_local(
    services: Vec<Arc<Service>>,
    cfg: RelayConfig,
) -> Result<LocalTopology, ShardError> {
    if services.len() != cfg.shards {
        return Err(ShardError::Handshake(format!(
            "{} services for {} shards",
            services.len(),
            cfg.shards
        )));
    }
    let total = services.len() as u32;
    let mut relay_ends = Vec::with_capacity(services.len());
    let mut workers = Vec::with_capacity(services.len());
    for (i, svc) in services.iter().enumerate() {
        let (relay_end, mut shard_end) = channel_pair();
        relay_ends.push(relay_end);
        let svc = Arc::clone(svc);
        workers.push(std::thread::spawn(move || {
            run_shard_worker(&svc, i as u32, total, &mut shard_end)
        }));
    }
    // On a failed handshake the relay ends drop here, every worker
    // sees EOF and exits; nothing is orphaned.
    let relay = Relay::connect(relay_ends, cfg)?;
    Ok(LocalTopology {
        service: Arc::new(ShardedService::new(relay)),
        shards: services,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use tmwia_model::generators::planted_community;

    fn shard_services(shards: usize, seed: u64) -> (Vec<Arc<Service>>, RelayConfig) {
        let inst = planted_community(16, 16, 8, 2, 3);
        let cfg = ServiceConfig {
            batch_size: 4,
            queue_capacity: 64,
            seed,
            ..ServiceConfig::default()
        };
        let services: Vec<Arc<Service>> = (0..shards)
            .map(|_| Arc::new(Service::new(inst.truth.clone(), cfg.clone()).expect("valid config")))
            .collect();
        let relay_cfg = RelayConfig::for_service(&cfg, shards, inst.truth.n(), inst.truth.m());
        (services, relay_cfg)
    }

    #[test]
    fn join_probe_post_leave_round_trips_through_two_shards() {
        let (services, cfg) = shard_services(2, 7);
        let topo = spawn_local(services, cfg).expect("topology connects");
        let svc = Arc::clone(&topo.service);
        let (tx, rx) = channel();

        svc.submit(1, Request::Join, &tx);
        svc.tick();
        let (id, resp) = rx.try_recv().expect("join answered");
        assert_eq!(id, 1);
        let Response::Joined { session, player } = resp else {
            panic!("expected Joined, got {resp:?}");
        };
        assert_eq!(player, 0);

        for (rid, object) in [(2u64, 0u32), (3, 5), (4, 11)] {
            svc.submit(
                rid,
                Request::Probe {
                    session,
                    object,
                    share: true,
                },
                &tx,
            );
        }
        svc.tick();
        for rid in [2u64, 3, 4] {
            let (id, resp) = rx.try_recv().expect("probe answered");
            assert_eq!(id, rid);
            assert!(
                matches!(resp, Response::Grade { posted: true, .. }),
                "expected a posted grade, got {resp:?}"
            );
        }

        svc.submit(5, Request::Leave { session }, &tx);
        svc.tick();
        let (_, resp) = rx.try_recv().expect("leave answered");
        let Response::Left {
            probes,
            posts,
            ticks,
        } = resp
        else {
            panic!("expected Left, got {resp:?}");
        };
        assert_eq!(probes, 3, "probe ledger sums across shards");
        assert_eq!(posts, 3, "post ledger sums across shards");
        assert!(ticks > 0);
        assert!(svc.health().is_none(), "healthy topology has no fault");

        for result in topo.shutdown() {
            result.expect("worker exits cleanly on relay disconnect");
        }
    }

    #[test]
    fn merged_digest_matches_a_single_process_run() {
        let inst = planted_community(16, 16, 8, 2, 3);
        let cfg = ServiceConfig {
            batch_size: 4,
            queue_capacity: 64,
            seed: 11,
            ..ServiceConfig::default()
        };
        let single = Service::new(inst.truth.clone(), cfg.clone()).expect("valid config");

        let services: Vec<Arc<Service>> = (0..3)
            .map(|_| Arc::new(Service::new(inst.truth.clone(), cfg.clone()).expect("valid config")))
            .collect();
        let relay_cfg = RelayConfig::for_service(&cfg, 3, inst.truth.n(), inst.truth.m());
        let topo = spawn_local(services, relay_cfg).expect("topology connects");
        let sharded = Arc::clone(&topo.service);

        let (stx, srx) = channel();
        let (dtx, drx) = channel();
        let script: Vec<Request> = vec![
            Request::Join,
            Request::Join,
            Request::Probe {
                session: 1,
                object: 2,
                share: true,
            },
            Request::Probe {
                session: 2,
                object: 9,
                share: true,
            },
            Request::Post {
                session: 1,
                object: 2,
                grade: true,
            },
            Request::Leave { session: 2 },
        ];
        for (i, req) in script.iter().enumerate() {
            single.submit(i as u64, req.clone(), &stx);
            sharded.submit(i as u64, req.clone(), &dtx);
            let _ = single.tick();
            sharded.tick();
        }
        // Drain and compare transcripts.
        let mut single_out = Vec::new();
        while let Ok(p) = srx.try_recv() {
            single_out.push(p);
        }
        let mut sharded_out = Vec::new();
        while let Ok(p) = drx.try_recv() {
            sharded_out.push(p);
        }
        assert_eq!(single_out, sharded_out, "transcripts are identical");
        assert_eq!(
            single.state_digest(),
            sharded.merged_state_digest().expect("digest merges"),
            "merged digest is byte-identical to the single process"
        );
        let log = sharded.checksum_log();
        assert!(
            log.iter().any(|l| l.starts_with("shardsum ")),
            "checksum log has shardsum lines: {log:?}"
        );
        for result in topo.shutdown() {
            result.expect("worker exits cleanly");
        }
    }

    #[test]
    fn backpressure_and_shutdown_mirror_the_single_process() {
        let (services, mut cfg) = shard_services(2, 7);
        cfg.queue_capacity = 2;
        let topo = spawn_local(services, cfg).expect("topology connects");
        let svc = Arc::clone(&topo.service);
        let (tx, rx) = channel();
        svc.submit(1, Request::Join, &tx);
        svc.submit(2, Request::Join, &tx);
        svc.submit(3, Request::Join, &tx);
        let (id, resp) = rx.try_recv().expect("third join answered immediately");
        assert_eq!(id, 3);
        assert!(
            matches!(resp, Response::Busy { .. }),
            "full queue answers Busy, got {resp:?}"
        );
        assert_eq!(svc.rejected_total(), 1);

        svc.request_shutdown();
        svc.submit(4, Request::Join, &tx);
        let (_, resp) = rx.try_recv().expect("post-shutdown join answered");
        assert!(matches!(resp, Response::ShuttingDown));
        // Drain the queue (2 joins + the synthetic shutdown).
        while svc.queue_len() > 0 {
            svc.tick();
        }
        assert!(svc.is_shutdown());
        for result in topo.shutdown() {
            result.expect("worker exits cleanly");
        }
    }

    #[test]
    fn config_fingerprint_mismatch_is_refused_at_handshake() {
        let inst = planted_community(16, 16, 8, 2, 3);
        let cfg = ServiceConfig {
            batch_size: 4,
            seed: 7,
            ..ServiceConfig::default()
        };
        let services: Vec<Arc<Service>> = (0..2)
            .map(|_| Arc::new(Service::new(inst.truth.clone(), cfg.clone()).expect("valid config")))
            .collect();
        // Relay believes a different seed → fingerprints split.
        let mut relay_cfg = RelayConfig::for_service(&cfg, 2, inst.truth.n(), inst.truth.m());
        relay_cfg.seed = 8;
        match spawn_local(services, relay_cfg) {
            Err(ShardError::Config { .. }) => {}
            Err(other) => panic!("expected a Config error, got {other:?}"),
            Ok(_) => panic!("expected a Config error, got a connected topology"),
        }
    }

    #[test]
    fn out_of_range_writes_route_and_error_identically() {
        let (services, cfg) = shard_services(2, 7);
        let m = cfg.m;
        let topo = spawn_local(services, cfg).expect("topology connects");
        let svc = Arc::clone(&topo.service);
        let (tx, rx) = channel();
        svc.submit(1, Request::Join, &tx);
        svc.tick();
        let Ok((_, Response::Joined { session, .. })) = rx.try_recv() else {
            panic!("join failed");
        };
        svc.submit(
            2,
            Request::Probe {
                session,
                object: m as u32 + 5,
                share: false,
            },
            &tx,
        );
        svc.tick();
        let (_, resp) = rx.try_recv().expect("probe answered");
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadObject,
                    ..
                }
            ),
            "out-of-range probe is a BadObject error, got {resp:?}"
        );
        assert!(svc.health().is_none());
        for result in topo.shutdown() {
            result.expect("worker exits cleanly");
        }
    }
}
