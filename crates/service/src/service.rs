//! The service core: a bounded request queue drained in deterministic
//! batch ticks.
//!
//! ## The tick pipeline
//!
//! ```text
//! submit ──► bounded queue ──► [tick] 1. control pass   (serial, arrival order)
//!    │                                2. data pass      (players parallel,
//!    │ reads                          │                  seeded order per player)
//!    ▼                                3. seal            (epoch++, snapshot swap)
//! snapshot ◄──────────────────────────┘ 4. deliver       (arrival order)
//! ```
//!
//! **Determinism argument.** A tick's output is a pure function of the
//! queue contents at drain time, independent of worker-thread count:
//!
//! * the *control pass* (Join/Leave/Shutdown) runs serially in arrival
//!   (sequence-number) order, so slot assignment and admission never
//!   race;
//! * the *data pass* groups Probe/Post by resolved player slot. Groups
//!   run in parallel via [`par_map_phased`] — but distinct groups touch
//!   **disjoint** player memos and counters, and within a group
//!   requests execute serially in an order keyed by
//!   `derive(seed, SERVICE_TICK, seq)` (the "seeded tick order"), so no
//!   observable value depends on scheduling. Per-group posts are
//!   buffered and flushed with one `post_batch` call (lock
//!   amortization); the snapshot sorts per key, so post arrival order
//!   is invisible;
//! * the *seal* happens at a barrier after every group has finished:
//!   epoch advance, then one [`BoardSnapshot`] sealed **incrementally**
//!   (the previous snapshot plus exactly this tick's posts — untouched
//!   objects carry over as `Arc` bumps) and swapped in;
//! * *delivery* walks the batch in arrival order.
//!
//! ## Pipelining
//!
//! With [`ServiceConfig::pipeline`] on (the default), the serial
//! control pass for tick `T+1` runs on a helper thread **while tick
//! `T`'s parallel data pass is still executing**: the queue is drained
//! into a [`PreparedBatch`] whose control decisions are *staged* in the
//! registry (see `registry.rs` — staged joins resolve inside the batch
//! but stay invisible to `T`'s seal; staged leaves stay live for it).
//! The staged batch is committed at the top of tick `T+1`, which is
//! exactly when the unpipelined control pass would have run, so every
//! transcript is **byte-identical** to the unpipelined path — the same
//! discipline the fault layer's `LivenessEpoch` schedule-equivalence
//! uses. Requests that arrive after staging top the batch up at commit
//! time, so batch composition matches the unpipelined drain exactly.
//!
//! Backpressure is explicit: `submit` on a full queue returns
//! [`Response::Busy`] with a retry hint instead of buffering without
//! bound; a staged batch still counts against the queue bound (it is
//! merely queued work whose control pass ran early). Reads
//! (`Read`/`Recommend`/`Stats`) bypass the queue entirely and are
//! answered from the latest sealed snapshot.

use crate::checksum::{self, Checksum, Scalars};
use crate::registry::{SessionRegistry, SessionState};
use crate::snapshot::{BoardSnapshot, SnapshotCell};
use crate::wal::{self, PersistedState, SessionDump, WalError, WalHeader, WalWriter};
use crate::wire::{object_in_range, ErrorCode, Request, Response, SessionId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use tmwia_billboard::{par_map_phased, Billboard, PlayerId, ProbeEngine};
use tmwia_model::matrix::PrefMatrix;
use tmwia_model::rng::{derive, tags};
use tmwia_obs::metrics::namespace_fingerprint;
use tmwia_obs::{Event, MetricId, ObsReport, Registry as ObsRegistry};

/// Where a response goes: the submitting transport's channel. The pair
/// is `(request id, response)` — ids echo so pipelining clients can
/// match reads that overtake queued writes.
pub type ReplySender = Sender<(u64, Response)>;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Queued requests executed per tick (must be ≥ 1).
    pub batch_size: usize,
    /// Bounded queue capacity; a full queue rejects with `Busy`
    /// (must be ≥ 1).
    pub queue_capacity: usize,
    /// Seed for the seeded tick order.
    pub seed: u64,
    /// Retry hint carried by `Busy` responses.
    pub retry_after_ticks: u32,
    /// Upper bound on `Recommend` list length.
    pub recommend_cap: u16,
    /// Overlap tick `T+1`'s control pass with tick `T`'s data pass.
    /// Transcripts are byte-identical either way (see module docs);
    /// off is useful as the equivalence oracle and for debugging.
    pub pipeline: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_size: 64,
            queue_capacity: 256,
            seed: 1,
            retry_after_ticks: 1,
            recommend_cap: 32,
            pipeline: true,
        }
    }
}

/// Construction-time failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A config field is out of range.
    BadConfig(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadConfig(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Durability knobs for a WAL-backed service.
#[derive(Debug, Clone)]
pub struct Durability {
    /// Directory holding `ticks.wal` and `snapshot.bin` (created if
    /// missing).
    pub dir: PathBuf,
    /// Persist a sealed-state snapshot every this many ticks; 0
    /// disables snapshots (recovery then replays the whole log).
    pub snapshot_every: u64,
}

/// How [`Service::recover`] should rebuild state.
#[derive(Debug, Clone, Copy)]
pub struct RecoverOptions {
    /// Start from the latest valid snapshot and replay only the log
    /// tail. Ignored (treated as `false`) when `capture` is set, and
    /// when the snapshot is sealed past the last valid log record — a
    /// full replay is the only way to honour either case.
    pub use_snapshot: bool,
    /// Capture each replayed tick's requests, responses, and sealed
    /// snapshot in the report (costs memory; used by `tmwia load`
    /// resume, which needs every tick's responses to rebuild the
    /// transcript — so `capture` forces a full log replay).
    pub capture: bool,
}

/// One replayed tick, as captured during recovery.
#[derive(Debug, Clone)]
pub struct ReplayedTick {
    /// Absolute tick number.
    pub tick: u64,
    /// The logged batch: `(request id, request)` in drain order.
    pub requests: Vec<(u64, Request)>,
    /// Responses the replayed tick produced, in delivery order.
    pub responses: Vec<(u64, Response)>,
    /// The snapshot sealed by this tick.
    pub snapshot: Arc<BoardSnapshot>,
}

/// What [`Service::recover`] did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Tick of the snapshot the recovery started from (0 = none).
    pub snapshot_tick: u64,
    /// Log records replayed through the tick path.
    pub replayed_ticks: u64,
    /// Requests re-executed during replay.
    pub replayed_requests: u64,
    /// Torn-tail bytes chopped off the log.
    pub truncated_bytes: u64,
    /// Tick counter after recovery (the recovered state's position).
    pub recovered_tick: u64,
    /// Per-tick capture (empty unless [`RecoverOptions::capture`]).
    pub replay: Vec<ReplayedTick>,
}

/// Recovery failures: construction or durability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The service configuration itself is invalid.
    Service(ServiceError),
    /// The WAL directory cannot be used.
    Wal(WalError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Service(e) => write!(f, "{e}"),
            RecoverError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

/// The attached durability machinery. The first append/snapshot error
/// is latched and stops further persistence (a half-written log must
/// not keep growing past the damage); [`Service::wal_health`] surfaces
/// it.
struct DurableState {
    writer: Mutex<WalWriter>,
    dir: PathBuf,
    snapshot_every: u64,
    last_snapshot: AtomicU64,
    error: Mutex<Option<String>>,
}

/// What one tick did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickReport {
    /// The tick number (1-based).
    pub tick: u64,
    /// Queued requests executed (responses delivered).
    pub executed: usize,
    /// Requests still queued after the drain.
    pub remaining: usize,
    /// Epoch sealed by this tick (`None` for an empty tick, which
    /// leaves the previous snapshot in place).
    pub sealed_epoch: Option<u64>,
}

/// A queued request awaiting its tick.
struct Pending {
    seq: u64,
    id: u64,
    req: Request,
    reply: ReplySender,
}

/// A drained batch whose serial control pass has already run. Built
/// either just-in-time at the top of a tick (unpipelined, or nothing
/// was staged) or ahead of time on the staging thread while the
/// previous tick's data pass executes. Registry effects are *staged*
/// (see `registry.rs`) and commit when the batch executes.
struct PreparedBatch {
    /// The tick this batch will execute as. Staged batches are built
    /// for `current + 1`; the counter only advances in `tick`, so the
    /// next tick call picks the staged batch up under that number.
    tick_no: u64,
    batch: Vec<Pending>,
    /// Control-pass responses by batch index (`None` = data request or
    /// deferred leave, filled in later).
    responses: Vec<Option<Response>>,
    /// Data requests grouped by resolved player slot (unsorted; the
    /// seeded tick order is applied at execute time, after any top-up).
    groups: BTreeMap<PlayerId, Vec<usize>>,
    /// Successfully staged leaves: `(batch index, session, player)`.
    /// Their receipts read the probe ledger at execute time, which is
    /// when the unpipelined control pass would have read it.
    deferred_leaves: Vec<(usize, SessionId, PlayerId)>,
    /// Batch contains a `Shutdown`; the flag flips at execute time.
    shutdown: bool,
}

impl PreparedBatch {
    fn new(tick_no: u64, batch: Vec<Pending>) -> Self {
        let mut responses = Vec::with_capacity(batch.len());
        responses.resize_with(batch.len(), || None);
        PreparedBatch {
            tick_no,
            batch,
            responses,
            groups: BTreeMap::new(),
            deferred_leaves: Vec::new(),
            shutdown: false,
        }
    }
}

/// The long-lived serving state. `Sync`: transports submit from any
/// thread; one driver (the in-process test harness or the TCP ticker)
/// calls [`Service::tick`].
pub struct Service {
    engine: ProbeEngine,
    board: Billboard<u32, bool>,
    cfg: ServiceConfig,
    registry: Mutex<SessionRegistry>,
    queue: Mutex<VecDeque<Pending>>,
    snapshot: SnapshotCell,
    tick: AtomicU64,
    next_seq: AtomicU64,
    /// Next seq as of the last *executed* batch (what snapshots
    /// persist: queued-but-unexecuted requests are not durable and get
    /// byte-identical seqs when resubmitted after recovery).
    sealed_seq: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    shutdown: AtomicBool,
    durable: Option<DurableState>,
    /// Deterministic metrics + event trace. Shared (`Arc`) so the WAL
    /// writer and snapshot cell can stamp their own counters/events.
    obs: Arc<ObsRegistry>,
    /// The next tick's batch, control pass already staged.
    staged: Mutex<Option<PreparedBatch>>,
    /// Requests held in `staged`. Maintained under the queue lock so
    /// `queue.len() + staged_len` — the quantity backpressure and drain
    /// loops observe — always equals what the unpipelined queue length
    /// would be.
    staged_len: AtomicUsize,
    /// The board's share of the state checksum: Σ paid-probe terms
    /// (probe counters and memo entries) plus Σ post entries, added at
    /// the seal barrier (see `checksum.rs`).
    board_checksum: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("n", &self.engine.n())
            .field("m", &self.engine.m())
            .field("tick", &self.tick.load(Ordering::Relaxed))
            .finish()
    }
}

impl Service {
    /// Stand up a service over a hidden preference matrix.
    pub fn new(truth: PrefMatrix, cfg: ServiceConfig) -> Result<Self, ServiceError> {
        if cfg.batch_size == 0 {
            return Err(ServiceError::BadConfig(
                "batch size must be at least 1".into(),
            ));
        }
        if cfg.queue_capacity == 0 {
            return Err(ServiceError::BadConfig(
                "queue capacity must be at least 1".into(),
            ));
        }
        let n = truth.n();
        let obs = Arc::new(ObsRegistry::new());
        let snapshot = SnapshotCell::new(BoardSnapshot::empty());
        snapshot.attach_obs(obs.clone());
        Ok(Service {
            engine: ProbeEngine::new(truth),
            board: Billboard::new(),
            cfg,
            registry: Mutex::new(SessionRegistry::new(n)),
            queue: Mutex::new(VecDeque::new()),
            snapshot,
            tick: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            sealed_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            durable: None,
            obs,
            staged: Mutex::new(None),
            staged_len: AtomicUsize::new(0),
            board_checksum: AtomicU64::new(0),
        })
    }

    /// Stand up a WAL-backed service, recovering whatever state the WAL
    /// directory holds: open (or create) the log, validate its header
    /// against `cfg`, chop any torn tail, optionally load the latest
    /// valid snapshot, and replay the remaining records through the
    /// normal tick path. The recovered state is **byte-identical** to
    /// the pre-crash sealed state (pinned by `tests/recovery.rs`);
    /// subsequent ticks keep appending to the same log.
    pub fn recover(
        truth: PrefMatrix,
        cfg: ServiceConfig,
        durability: &Durability,
        opts: RecoverOptions,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let header = WalHeader {
            seed: cfg.seed,
            batch_size: cfg.batch_size as u64,
            n: truth.n() as u64,
            m: truth.m() as u64,
        };
        let (mut writer, contents) = WalWriter::open(&durability.dir, &header)?;
        let log_tick = contents.records.last().map_or(0, |r| r.tick);
        // Two cases force a full log replay even when a snapshot exists:
        //
        // * `capture` — a captured replay exists so a resuming load
        //   driver can rebuild the whole transcript, which needs every
        //   logged tick's responses; a snapshot elides exactly those
        //   ticks, so it cannot be the starting point.
        // * a snapshot "from the future" — sealed past the last
        //   surviving log record (a torn tail removed ticks it had
        //   already seen). Resuming FROM it would silently re-execute
        //   those ticks on top of a state that already holds them,
        //   while replaying the log alone always yields a consistent
        //   prefix state (the lost rounds are simply re-executed live).
        let snapshot_state = if opts.use_snapshot && !opts.capture {
            wal::read_snapshot(&durability.dir)?.filter(|st| st.tick <= log_tick)
        } else {
            None
        };
        let mut svc = Service::new(truth, cfg).map_err(RecoverError::Service)?;
        writer.attach_obs(svc.obs.clone());
        if contents.truncated_bytes > 0 {
            svc.obs
                .add(MetricId::WalTruncatedBytes, contents.truncated_bytes);
            svc.obs.record(Event::WalTruncatedTail {
                bytes: contents.truncated_bytes,
            });
        }
        svc.durable = Some(DurableState {
            writer: Mutex::new(writer),
            dir: durability.dir.clone(),
            snapshot_every: durability.snapshot_every,
            last_snapshot: AtomicU64::new(0),
            error: Mutex::new(None),
        });

        let mut report = RecoveryReport {
            truncated_bytes: contents.truncated_bytes,
            ..RecoveryReport::default()
        };
        let mut base_tick = 0u64;
        if let Some(st) = snapshot_state {
            svc.restore_state(&st)?;
            base_tick = st.tick;
            report.snapshot_tick = st.tick;
            if let Some(d) = &svc.durable {
                d.last_snapshot.store(st.tick, Ordering::Relaxed);
            }
        }

        // Replay the tail through the normal tick path. Replayed
        // appends are no-ops (the writer's high-water mark covers
        // them), so the log is not double-written.
        let (tx, rx) = std::sync::mpsc::channel();
        for rec in &contents.records {
            if rec.tick <= base_tick {
                continue;
            }
            svc.fast_forward_tick(rec.tick - 1);
            for e in &rec.entries {
                svc.enqueue_replay(e.seq, e.id, e.req.clone(), &tx);
            }
            // `tick_sealed`, not `tick`: single-process logs never hold
            // empty records (empty ticks are not logged), but a shard's
            // log seals every broadcast tick — replaying an empty
            // record must re-advance the epoch exactly as the original
            // sealed tick did.
            svc.tick_sealed();
            report.replayed_ticks += 1;
            report.replayed_requests += rec.entries.len() as u64;
            if opts.capture {
                let mut responses = Vec::with_capacity(rec.entries.len());
                while let Ok(pair) = rx.try_recv() {
                    responses.push(pair);
                }
                report.replay.push(ReplayedTick {
                    tick: rec.tick,
                    requests: rec.entries.iter().map(|e| (e.id, e.req.clone())).collect(),
                    responses,
                    snapshot: svc.snapshot(),
                });
            } else {
                while rx.try_recv().is_ok() {}
            }
        }
        if report.replayed_ticks > 0 {
            svc.obs.inc(MetricId::RecoveryReplays);
            svc.obs
                .add(MetricId::RecoveryReplayedRequests, report.replayed_requests);
            svc.obs.record(Event::RecoveryReplay {
                from_tick: base_tick + 1,
                to_tick: svc.current_tick(),
                requests: report.replayed_requests,
            });
        }
        // Recovery must not inflate the served counter: replayed
        // requests were already counted by the original run.
        svc.served.store(0, Ordering::Relaxed);
        // A replayed `Shutdown` set the flag during replay (the log
        // faithfully ends with it when the previous run was stopped via
        // the wire). Restarting is an explicit operator decision that
        // supersedes that shutdown — the recovered service comes back
        // accepting requests.
        svc.shutdown.store(false, Ordering::SeqCst);
        report.recovered_tick = svc.current_tick();
        Ok((svc, report))
    }

    /// Rebuild in-memory state from a persisted snapshot. Only valid on
    /// a freshly constructed service.
    fn restore_state(&self, st: &PersistedState) -> Result<(), RecoverError> {
        let n = self.n();
        let m = self.m();
        let corrupt = |why: String| RecoverError::Wal(WalError::Corrupt(why));
        if st.capacity as usize != n {
            return Err(corrupt(format!(
                "snapshot capacity {} does not match instance n {n}",
                st.capacity
            )));
        }
        if st.probed.len() > n {
            return Err(corrupt(format!(
                "snapshot has probe memos for {} players, instance has {n}",
                st.probed.len()
            )));
        }
        let sessions: Vec<(SessionId, SessionState)> = st
            .sessions
            .iter()
            .map(|d| {
                (
                    d.session,
                    SessionState {
                        player: d.player as PlayerId,
                        joined_tick: d.joined_tick,
                        probes_at_join: d.probes_at_join,
                        posts: d.posts,
                        served: d.served,
                    },
                )
            })
            .collect();
        let restored = SessionRegistry::restore(
            n,
            st.next_player as PlayerId,
            st.next_session,
            st.retired,
            sessions,
        )
        .map_err(corrupt)?;

        // Probe memo: re-probing a fresh engine restores the memo and
        // the per-player counters (values re-derive from the truth).
        for (p, objs) in st.probed.iter().enumerate() {
            let handle = self.engine.player(p);
            for &j in objs {
                let Some(j) = object_in_range(j, m) else {
                    return Err(corrupt(format!("probed object {j} out of range (m = {m})")));
                };
                handle.probe(j);
            }
        }

        // Billboard: repost the visible entries (all stamped at the
        // current epoch 0, which stays visible at lag 0), then advance
        // the epoch counter to the sealed value.
        let mut posts: Vec<(u32, PlayerId, bool)> = Vec::new();
        for (object, entries) in &st.posts {
            if object_in_range(*object, m).is_none() {
                return Err(corrupt(format!(
                    "posted object {object} out of range (m = {m})"
                )));
            }
            for &(player, grade) in entries {
                if player as usize >= n {
                    return Err(corrupt(format!("posting player {player} out of range")));
                }
                posts.push((*object, player as PlayerId, grade));
            }
        }
        if !posts.is_empty() {
            self.board.post_batch(posts);
        }
        while self.board.epoch() < st.epoch {
            self.board.advance_epoch();
        }

        let reg_guard = {
            let mut reg = self.registry.lock();
            *reg = restored;
            reg
        };
        self.tick.store(st.tick, Ordering::Relaxed);
        self.next_seq.store(st.next_seq, Ordering::Relaxed);
        self.sealed_seq.store(st.next_seq, Ordering::Relaxed);
        self.shutdown.store(st.shutdown, Ordering::Relaxed);
        let paid: Vec<u64> = (0..n).map(|p| self.engine.probes_of(p)).collect();
        let liveness = reg_guard.liveness(paid);
        let live = reg_guard.live_count() as u32;
        drop(reg_guard);
        self.snapshot.store(BoardSnapshot::build(
            &self.board,
            liveness,
            live,
            st.epoch,
            st.tick,
        ));
        // The one from-scratch checksum pass: the restored board's
        // share (the registry rebuilt its own in `restore`). Replayed
        // ticks then update it incrementally.
        let parts = self.digest_parts();
        self.board_checksum.store(
            checksum::board_of(&parts.players, &parts.posts),
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Player-slot capacity (the instance's `n`).
    pub fn n(&self) -> usize {
        self.engine.n()
    }

    /// Objects in the instance.
    pub fn m(&self) -> usize {
        self.engine.m()
    }

    /// Ticks executed so far.
    pub fn current_tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// The latest sealed snapshot (lock-free read path).
    pub fn snapshot(&self) -> Arc<BoardSnapshot> {
        self.snapshot.load()
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Is a write-ahead log attached?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The first durability failure, if any. Once an append or a
    /// snapshot write fails, persistence stops (the log must not grow
    /// past the damage) but serving continues; callers decide whether
    /// that is fatal.
    pub fn wal_health(&self) -> Option<String> {
        self.durable.as_ref().and_then(|d| d.error.lock().clone())
    }

    /// The deterministic observability registry: counters keyed by the
    /// static [`tmwia_obs::METRICS`] name space plus the bounded event
    /// trace. Shared so transports and the WAL writer stamp into the
    /// same registry.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Metrics and events snapshotted together (the export input).
    pub fn obs_report(&self) -> ObsReport {
        self.obs.parts()
    }

    /// Has a shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request a shutdown from outside the protocol (e.g. a tick-count
    /// bound). Queued writes still drain; new writes are refused.
    ///
    /// The flag is stored while holding the queue lock, and `submit`
    /// reads it under the same lock: the mutex totally orders every
    /// enqueue against the flag flip, so a request is either enqueued
    /// strictly before shutdown (and will be drained) or observes the
    /// flag and is refused — never silently stranded.
    pub fn request_shutdown(&self) {
        let _queue = self.queue.lock();
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests currently queued, including a staged-but-unexecuted
    /// batch — staged work is still pending work, so drain loops
    /// (`while queue_len() > 0 { tick() }`) and backpressure see the
    /// same count the unpipelined service would report.
    pub fn queue_len(&self) -> usize {
        let queue = self.queue.lock();
        queue.len() + self.staged_len.load(Ordering::Relaxed)
    }

    /// Requests served (queued writes executed + snapshot reads).
    pub fn served_total(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Requests rejected with `Busy`.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Sessions ever admitted (open + departed).
    pub fn sessions_minted(&self) -> usize {
        self.registry.lock().slots_minted()
    }

    /// Open sessions right now.
    pub fn sessions_live(&self) -> usize {
        self.registry.lock().live_count()
    }

    /// Submit a request. Reads are answered immediately from the
    /// sealed snapshot; writes are enqueued for the next tick (or
    /// rejected with `Busy`/`ShuttingDown`). The response — exactly one
    /// per submit — arrives on `reply` tagged with `id`.
    pub fn submit(&self, id: u64, req: Request, reply: &ReplySender) {
        match req {
            Request::Read { object } => {
                let snap = self.snapshot.load();
                let (likes, dislikes) = snap.tally(object);
                self.served.fetch_add(1, Ordering::Relaxed);
                self.obs.inc(MetricId::ReadsServed);
                let _ = reply.send((
                    id,
                    Response::Board {
                        object,
                        epoch: snap.epoch,
                        likes,
                        dislikes,
                    },
                ));
            }
            Request::Recommend { count } => {
                let snap = self.snapshot.load();
                let take = count.min(self.cfg.recommend_cap) as usize;
                self.served.fetch_add(1, Ordering::Relaxed);
                self.obs.inc(MetricId::RecommendsServed);
                let _ = reply.send((
                    id,
                    Response::Recommended {
                        epoch: snap.epoch,
                        objects: snap.recommend(take),
                    },
                ));
            }
            Request::Stats => {
                let snap = self.snapshot.load();
                self.served.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send((
                    id,
                    Response::Stats {
                        epoch: snap.epoch,
                        tick: self.current_tick(),
                        live: self.sessions_live() as u32,
                        served: self.served_total(),
                        rejected: self.rejected_total(),
                        probes: self.engine.total_probes(),
                    },
                ));
            }
            Request::Metrics => {
                self.served.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send((
                    id,
                    Response::Metrics {
                        namespace: namespace_fingerprint(),
                        values: self.obs.snapshot().values().to_vec(),
                    },
                ));
            }
            Request::Join
            | Request::Leave { .. }
            | Request::Probe { .. }
            | Request::Post { .. }
            | Request::Shutdown => {
                let mut queue = self.queue.lock();
                // Checked under the queue lock: the shutdown flag is
                // also stored under it, so "enqueued before shutdown"
                // and "refused after" are the only possible outcomes
                // (see `request_shutdown`).
                if self.is_shutdown() && !matches!(req, Request::Shutdown) {
                    drop(queue);
                    let _ = reply.send((id, Response::ShuttingDown));
                    return;
                }
                if queue.len() + self.staged_len.load(Ordering::Relaxed) >= self.cfg.queue_capacity
                {
                    drop(queue);
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.obs.inc(MetricId::RequestsRejected);
                    let _ = reply.send((
                        id,
                        Response::Busy {
                            retry_after_ticks: self.cfg.retry_after_ticks,
                        },
                    ));
                    return;
                }
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                queue.push_back(Pending {
                    seq,
                    id,
                    req,
                    reply: reply.clone(),
                });
            }
        }
    }

    /// Enqueue a churn-teardown `Leave` for an abandoned session (the
    /// TCP handler's disconnect path). Exempt from both queue capacity
    /// and the shutdown refusal: a teardown that bounced off a full
    /// queue would pin the slot as a phantom live player forever, which
    /// is strictly worse than briefly exceeding the capacity bound by a
    /// handful of entries (one per dying connection).
    pub fn submit_teardown(&self, session: SessionId) {
        let (reply, _discard) = std::sync::mpsc::channel();
        let mut queue = self.queue.lock();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        queue.push_back(Pending {
            seq,
            id: u64::MAX,
            req: Request::Leave { session },
            reply,
        });
    }

    /// Recovery-only enqueue: restore a logged request with its
    /// original sequence number, bypassing capacity and shutdown checks
    /// (records after a logged Shutdown legitimately exist — they were
    /// queued before the flag flipped and drained after).
    pub(crate) fn enqueue_replay(&self, seq: u64, id: u64, req: Request, reply: &ReplySender) {
        let mut queue = self.queue.lock();
        self.next_seq.store(seq + 1, Ordering::Relaxed);
        queue.push_back(Pending {
            seq,
            id,
            req,
            reply: reply.clone(),
        });
    }

    /// Advance the tick counter without executing (recovery/resume:
    /// empty ticks are not logged, so replay jumps over the gaps).
    /// Never moves backwards.
    pub(crate) fn fast_forward_tick(&self, to: u64) {
        if to > self.tick.load(Ordering::Relaxed) {
            self.tick.store(to, Ordering::Relaxed);
        }
    }

    /// A deterministic rendering of the full durable state: tick/seq
    /// position, registry (sessions + ledgers), per-player probe memos,
    /// and the sealed snapshot digest. Process-local statistics
    /// (`served`/`rejected` totals) are excluded — snapshot reads are
    /// not replayed, so they reset on restart by design. Byte-equality
    /// of two digests is the recovery acceptance criterion.
    pub fn state_digest(&self) -> String {
        render_digest(&self.digest_parts())
    }

    /// The incrementally maintained state checksum, split into its
    /// replicated and owned parts (see `checksum.rs`). O(1): the scalars
    /// are hashed here, every other term is kept up to date where the
    /// state changes. Whenever no batch is staged it equals
    /// [`Checksum::of`] over [`Service::digest_parts`].
    pub fn checksum(&self) -> Checksum {
        let reg = self.registry.lock();
        let snap = self.snapshot();
        let scalars = Scalars {
            tick: self.current_tick(),
            shutdown: self.is_shutdown(),
            minted: reg.slots_minted() as u64,
            retired: reg.retired(),
            live: reg.live_count() as u64,
            epoch: snap.epoch,
            snap_tick: snap.tick,
            snap_live: snap.live,
        };
        Checksum {
            replicated: scalars.hash().wrapping_add(reg.bindings_checksum()),
            owned: reg
                .ledgers_checksum()
                .wrapping_add(self.board_checksum.load(Ordering::Relaxed)),
        }
    }

    /// The single 64-bit state checksum: [`Service::checksum`] at this
    /// service's sequence position. Whenever no batch is staged it
    /// equals `Checksum::of(&parts).total(parts.seq)` for
    /// `parts = self.digest_parts()`.
    pub fn state_checksum(&self) -> u64 {
        self.checksum().total(self.next_seq())
    }

    /// The raw components [`render_digest`] renders. Exposed so the
    /// sharded relay can sum per-shard parts into one global digest
    /// that is byte-identical to the single-process
    /// [`Service::state_digest`] (see `relay::merge_digest_parts`).
    pub fn digest_parts(&self) -> DigestParts {
        let reg = self.registry.lock();
        let sessions = reg
            .iter_open()
            .map(|(session, st)| SessionDigest {
                session,
                player: st.player as u64,
                joined_tick: st.joined_tick,
                posts: st.posts,
                served: st.served,
            })
            .collect();
        let minted = reg.slots_minted() as u64;
        let retired = reg.retired();
        let live = reg.live_count() as u64;
        drop(reg);
        let players = (0..self.n())
            .filter_map(|p| {
                let probed = self.engine.probed_objects(p);
                if probed.is_empty() {
                    return None;
                }
                Some(PlayerDigest {
                    player: p as u64,
                    probes: self.engine.probes_of(p),
                    memo: probed.into_iter().map(|j| j as u64).collect(),
                })
            })
            .collect();
        let snap = self.snapshot();
        DigestParts {
            tick: self.current_tick(),
            seq: self.next_seq.load(Ordering::Relaxed),
            shutdown: self.is_shutdown(),
            minted,
            retired,
            live,
            sessions,
            players,
            epoch: snap.epoch,
            snap_tick: snap.tick,
            snap_live: snap.live,
            posts: snap
                .posts
                .iter()
                .map(|(&j, cell)| {
                    let entries = cell.entries.iter().map(|&(p, g)| (p as u64, g)).collect();
                    (j, entries, cell.likes)
                })
                .collect(),
        }
    }

    /// A deterministic rendering of the *control plane* only: tick/epoch
    /// position, shutdown flag, and the session registry's bindings —
    /// everything the relay replicates identically onto every shard.
    /// Shard-local quantities (per-session posts/served ledgers, probe
    /// memos, the board) are excluded, so in a healthy topology this
    /// string is byte-identical on every shard after every tick. A test
    /// oracle: the relay's per-tick gate compares the replicated part of
    /// [`Service::checksum`], which covers the same state and more.
    pub fn control_digest(&self) -> String {
        use std::fmt::Write as _;
        let reg = self.registry.lock();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "control tick={} epoch={} shutdown={} minted={} retired={} live={}",
            self.current_tick(),
            self.snapshot().epoch,
            self.is_shutdown(),
            reg.slots_minted(),
            reg.retired(),
            reg.live_count(),
        );
        for (session, st) in reg.iter_open() {
            let _ = writeln!(
                s,
                "  session {session}: player={} joined={}",
                st.player, st.joined_tick
            );
        }
        s
    }

    /// The next sequence number this service would mint. On a freshly
    /// recovered shard this is the resume point the relay collects at
    /// handshake (it restarts global minting at the max across shards).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Execute one batch tick (see module docs for the pipeline).
    /// Exactly one driver thread may call this at a time.
    pub fn tick(&self) -> TickReport {
        self.tick_inner(false)
    }

    /// Like [`Service::tick`], but an empty drain still runs the full
    /// execute path: the epoch advances and a fresh snapshot is sealed
    /// (headers restamped, post cells carried over by `Arc` bump), and
    /// a durable service logs an empty record. This is the shard tick:
    /// the relay broadcasts every global tick to every shard, and a
    /// shard whose sub-batch is empty must stay in epoch lockstep with
    /// the rest of the topology (see `relay.rs`). Recovery replays
    /// through this path for the same reason.
    pub fn tick_sealed(&self) -> TickReport {
        self.tick_inner(true)
    }

    fn tick_inner(&self, seal_empty: bool) -> TickReport {
        let staged = self.staged.lock().take();
        let (pb, remaining) = if let Some(mut pb) = staged {
            // A batch staged at the previous tick's barrier. Top it up
            // to batch_size with requests that arrived after staging
            // and clear the staged occupancy — together this is the
            // moment the unpipelined drain would have happened, and it
            // reconstructs that drain's batch composition exactly.
            let (extras, remaining) = {
                let mut queue = self.queue.lock();
                let take = (self.cfg.batch_size - pb.batch.len()).min(queue.len());
                let extras: Vec<Pending> = queue.drain(..take).collect();
                self.staged_len.store(0, Ordering::Relaxed);
                (extras, queue.len())
            };
            // The counter only advances here, so it lands on the value
            // the batch was staged for (`pb.tick_no`).
            let _ = self.tick.fetch_add(1, Ordering::Relaxed);
            self.obs.set_max(MetricId::TicksExecuted, pb.tick_no);
            if !extras.is_empty() {
                let from = pb.batch.len();
                pb.batch.extend(extras);
                pb.responses.resize_with(pb.batch.len(), || None);
                let mut reg = self.registry.lock();
                self.control_pass(&mut pb, &mut reg, from);
            }
            (pb, remaining)
        } else {
            let (batch, remaining) = {
                let mut queue = self.queue.lock();
                let take = self.cfg.batch_size.min(queue.len());
                let batch: Vec<Pending> = queue.drain(..take).collect();
                (batch, queue.len())
            };
            let tick_no = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            self.obs.set_max(MetricId::TicksExecuted, tick_no);
            if batch.is_empty() && !seal_empty {
                return TickReport {
                    tick: tick_no,
                    executed: 0,
                    remaining,
                    sealed_epoch: None,
                };
            }
            let mut pb = PreparedBatch::new(tick_no, batch);
            if !pb.batch.is_empty() {
                let mut reg = self.registry.lock();
                self.control_pass(&mut pb, &mut reg, 0);
            }
            (pb, remaining)
        };
        self.execute(pb, remaining)
    }

    /// Phase 1 — the serial control pass over `pb.batch[from..]`, in
    /// arrival (sequence) order. Registry effects are *staged*: joins
    /// resolve for later requests in this batch but stay invisible to
    /// any seal that runs before the batch commits; leaves disappear
    /// for later requests but stay live for that seal, their receipts
    /// deferred to execute time. Groups data requests by player slot
    /// as resolved AFTER the controls, so a Join and a Probe on the
    /// new session in one batch compose.
    fn control_pass(&self, pb: &mut PreparedBatch, reg: &mut SessionRegistry, from: usize) {
        for i in from..pb.batch.len() {
            match &pb.batch[i].req {
                Request::Join => {
                    pb.responses[i] = Some(match reg.stage_join(pb.tick_no) {
                        Ok((session, player)) => Response::Joined {
                            session,
                            player: player as u32,
                        },
                        Err(code) => Response::Error {
                            code,
                            detail: "no free player slots (slots are never reused)".into(),
                        },
                    });
                }
                Request::Leave { session } => match reg.stage_leave(*session) {
                    Ok(player) => pb.deferred_leaves.push((i, *session, player)),
                    Err(code) => {
                        pb.responses[i] = Some(Response::Error {
                            code,
                            detail: format!("session {session} is not open"),
                        });
                    }
                },
                Request::Shutdown => {
                    // The flag flips at execute time (never observable
                    // earlier: the batch ahead of it executes first).
                    pb.shutdown = true;
                    pb.responses[i] = Some(Response::ShuttingDown);
                }
                Request::Probe { session, .. } | Request::Post { session, .. } => {
                    match reg.staged_player_of(*session) {
                        Some(player) => pb.groups.entry(player).or_default().push(i),
                        None => {
                            pb.responses[i] = Some(Response::Error {
                                code: ErrorCode::UnknownSession,
                                detail: format!("session {session} is not open"),
                            });
                        }
                    }
                }
                // Reads never reach the queue (submit answers them).
                Request::Read { .. }
                | Request::Recommend { .. }
                | Request::Stats
                | Request::Metrics => {
                    pb.responses[i] = Some(Response::Error {
                        code: ErrorCode::BadRequest,
                        detail: "read requests are never queued".into(),
                    });
                }
            }
        }
    }

    /// Drain and prepare the next tick's batch. Runs on the staging
    /// thread while the current tick's data pass executes; the drained
    /// requests keep counting against the queue bound via `staged_len`.
    fn stage_next(&self, current_tick: u64) {
        let batch: Vec<Pending> = {
            let mut queue = self.queue.lock();
            let take = self.cfg.batch_size.min(queue.len());
            if take == 0 {
                return;
            }
            let batch = queue.drain(..take).collect();
            self.staged_len.store(take, Ordering::Relaxed);
            batch
        };
        let mut pb = PreparedBatch::new(current_tick + 1, batch);
        {
            let mut reg = self.registry.lock();
            self.control_pass(&mut pb, &mut reg, 0);
        }
        *self.staged.lock() = Some(pb);
    }

    /// Phases 2–4 for a prepared batch (never empty): commit the staged
    /// controls, write-ahead, data pass (overlapped with staging the
    /// next batch), incremental seal, delivery. `remaining` is the
    /// queue length captured at the drain.
    fn execute(&self, pb: PreparedBatch, remaining: usize) -> TickReport {
        let PreparedBatch {
            tick_no,
            batch,
            mut responses,
            mut groups,
            deferred_leaves,
            shutdown,
        } = pb;

        // Write-ahead: the canonical batch is durable (fsynced) before
        // anything executes. Replayed ticks are already on disk and are
        // skipped by the writer's high-water mark. Empty ticks reach
        // this point only via `tick_sealed` (shard mode), which logs
        // them as zero-entry records so replay re-seals every epoch;
        // ordinary `tick` never logs empty ticks (recovery
        // fast-forwards over the gaps).
        if let Some(d) = &self.durable {
            if d.error.lock().is_none() {
                let entries: Vec<(u64, u64, &Request)> =
                    batch.iter().map(|p| (p.seq, p.id, &p.req)).collect();
                if let Err(e) = d.writer.lock().append(tick_no, &entries) {
                    *d.error.lock() = Some(e.to_string());
                }
            }
        }
        if let Some(last) = batch.last() {
            self.sealed_seq.store(last.seq + 1, Ordering::Relaxed);
        }

        // Commit the staged control decisions — this is when the
        // unpipelined control pass would have run: joins become open
        // (visible to this tick's seal), leave receipts read the probe
        // ledger as of this barrier.
        {
            let mut reg = self.registry.lock();
            reg.commit_staged_joins();
            for &(i, session, player) in &deferred_leaves {
                let probes_now = self.engine.probes_of(player);
                responses[i] = Some(match reg.finish_close(session, tick_no, probes_now) {
                    Some(receipt) => Response::Left {
                        probes: receipt.probes,
                        posts: receipt.posts,
                        ticks: receipt.ticks,
                    },
                    None => Response::Error {
                        code: ErrorCode::UnknownSession,
                        detail: format!("session {session} is not open"),
                    },
                });
            }
        }
        if shutdown {
            // Stored under the queue lock, like `request_shutdown`, so
            // no submit can slip an unseen write past the flag.
            let _queue = self.queue.lock();
            self.shutdown.store(true, Ordering::SeqCst);
        }
        // Session churn, counted at the commit barrier (the moment the
        // control decisions become real) from the committed responses.
        let (admitted, closed) = responses
            .iter()
            .flatten()
            .fold((0u64, 0u64), |acc, r| match r {
                Response::Joined { .. } => (acc.0 + 1, acc.1),
                Response::Left { .. } => (acc.0, acc.1 + 1),
                _ => acc,
            });
        self.obs.add(MetricId::SessionsAdmitted, admitted);
        self.obs.add(MetricId::SessionsClosed, closed);

        // Phase 2 — data pass. Seeded tick order within each player's
        // group; groups in ascending player order, executed in parallel
        // (disjoint player state ⇒ schedule-independent). While it
        // runs, the staging thread prepares the NEXT tick's control
        // pass — except when this tick owes a persisted snapshot, whose
        // capture must see a registry with no staged decisions in it.
        for idxs in groups.values_mut() {
            idxs.sort_by_key(|&i| {
                (
                    derive(self.cfg.seed, tags::SERVICE_TICK, batch[i].seq),
                    batch[i].seq,
                )
            });
        }
        let group_list: Vec<(PlayerId, Vec<usize>)> = groups.into_iter().collect();
        let snapshot_due = self.durable.as_ref().is_some_and(|d| {
            d.snapshot_every > 0
                && tick_no.saturating_sub(d.last_snapshot.load(Ordering::Relaxed))
                    >= d.snapshot_every
        });
        let results = if self.cfg.pipeline && !snapshot_due {
            std::thread::scope(|s| {
                let stager = s.spawn(|| self.stage_next(tick_no));
                let results = self.data_pass(&batch, &group_list);
                match stager.join() {
                    Ok(()) => results,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            })
        } else {
            if self.cfg.pipeline {
                // Pipelining is on but this tick owes a persisted
                // snapshot, so staging stalled for one tick.
                self.obs.inc(MetricId::PipelineStalls);
            }
            self.data_pass(&batch, &group_list)
        };

        // Phase 3 — bookkeeping + incremental seal at the post-data
        // barrier. Liveness and live counts read through the staged
        // overlay: sessions the just-staged batch will close are still
        // live here, sessions it admits are not yet.
        let sealed_epoch = {
            let mut reg = self.registry.lock();
            for (group, _) in &results {
                for &(i, _, posted) in group {
                    if let Request::Probe { session, .. } | Request::Post { session, .. } =
                        &batch[i].req
                    {
                        reg.record_served(*session, posted);
                    }
                }
            }
            let mut tick_posts: Vec<(u32, PlayerId, bool)> = Vec::new();
            let (mut paid, mut memoized) = (0u64, 0u64);
            let mut board_delta = 0u64;
            for ((group, posts), (player, _)) in results.into_iter().zip(&group_list) {
                for (i, resp, _) in group {
                    if let Response::Grade {
                        object, charged, ..
                    } = &resp
                    {
                        if *charged {
                            paid += 1;
                            board_delta = board_delta.wrapping_add(checksum::paid_probe(
                                *player as u64,
                                u64::from(*object),
                            ));
                        } else {
                            memoized += 1;
                        }
                    }
                    responses[i] = Some(resp);
                }
                tick_posts.extend(posts);
            }
            for &(j, p, g) in &tick_posts {
                board_delta = board_delta.wrapping_add(checksum::post(u64::from(j), p as u64, g));
            }
            self.board_checksum
                .fetch_add(board_delta, Ordering::Relaxed);
            self.obs.add(MetricId::ProbesPaid, paid);
            self.obs.add(MetricId::ProbesMemoized, memoized);
            self.obs
                .add(MetricId::PostsPublished, tick_posts.len() as u64);
            // Fault-attributed probe outcomes are cumulative engine
            // totals, so sample them monotonically (fault-free engines
            // skip the O(n) walk entirely).
            if let Some(f) = self.engine.fault_state() {
                let (mut flipped, mut denied) = (0u64, 0u64);
                for p in 0..self.engine.n() {
                    flipped += f.flipped_of(p);
                    denied += f.denied_of(p);
                }
                self.obs.set_max(MetricId::ProbesFlipped, flipped);
                self.obs.set_max(MetricId::ProbesDenied, denied);
            }
            let epoch = self.board.advance_epoch();
            let paid: Vec<u64> = (0..self.engine.n())
                .map(|p| self.engine.probes_of(p))
                .collect();
            let liveness = reg.liveness(paid);
            let live = reg.live_count() as u32;
            let prev = self.snapshot.load();
            self.snapshot.store(BoardSnapshot::build_delta(
                &prev,
                &tick_posts,
                liveness,
                live,
                epoch,
                tick_no,
            ));

            // Periodic sealed-state persistence: capture under the
            // registry lock (the same barrier the snapshot seals at),
            // write-tmp-then-rename off to the side. Staging stalled
            // for this tick, so the captured registry is exactly the
            // sealed state.
            if let Some(d) = &self.durable {
                if snapshot_due && d.error.lock().is_none() {
                    let state = self.capture_state(&reg, epoch, tick_no);
                    match wal::write_snapshot(&d.dir, &state) {
                        Ok(()) => {
                            d.last_snapshot.store(tick_no, Ordering::Relaxed);
                            self.obs.inc(MetricId::SnapshotsSealed);
                            self.obs.record(Event::SnapshotWritten { tick: tick_no });
                        }
                        Err(e) => *d.error.lock() = Some(e.to_string()),
                    }
                }
            }
            epoch
        };

        // Phase 4 — deliver in arrival order. A send error means the
        // client went away; the churn-safe teardown path (transport
        // auto-Leave) reclaims its sessions.
        let mut executed = 0usize;
        for (i, p) in batch.iter().enumerate() {
            let resp = responses[i].take().unwrap_or_else(|| Response::Error {
                code: ErrorCode::BadRequest,
                detail: "request fell through the tick pipeline".into(),
            });
            let _ = p.reply.send((p.id, resp));
            executed += 1;
        }
        self.served.fetch_add(executed as u64, Ordering::Relaxed);

        TickReport {
            tick: tick_no,
            executed,
            remaining,
            sealed_epoch: Some(sealed_epoch),
        }
    }

    /// The per-player parallel pass. Returns, per group, the responses
    /// (tagged with batch index and a posted flag) and the posts the
    /// group contributed — the seal's delta input.
    #[allow(clippy::type_complexity)]
    fn data_pass(
        &self,
        batch: &[Pending],
        group_list: &[(PlayerId, Vec<usize>)],
    ) -> Vec<(Vec<(usize, Response, u64)>, Vec<(u32, PlayerId, bool)>)> {
        let m = self.m();
        par_map_phased(&self.engine, group_list.len(), |g| {
            let (player, idxs) = &group_list[g];
            let handle = self.engine.player(*player);
            let mut out = Vec::with_capacity(idxs.len());
            let mut posts: Vec<(u32, PlayerId, bool)> = Vec::new();
            for &i in idxs {
                match &batch[i].req {
                    Request::Probe { object, share, .. } => {
                        let Some(j) = object_in_range(*object, m) else {
                            out.push((i, object_error(*object, m), 0));
                            continue;
                        };
                        let charged = !handle.already_probed(j);
                        let value = handle.probe(j);
                        if *share {
                            posts.push((*object, *player, value));
                        }
                        out.push((
                            i,
                            Response::Grade {
                                object: *object,
                                value,
                                charged,
                                posted: *share,
                            },
                            u64::from(*share),
                        ));
                    }
                    Request::Post { object, grade, .. } => {
                        if object_in_range(*object, m).is_none() {
                            out.push((i, object_error(*object, m), 0));
                            continue;
                        }
                        posts.push((*object, *player, *grade));
                        out.push((
                            i,
                            Response::Posted {
                                object: *object,
                                epoch: self.board.epoch(),
                            },
                            1,
                        ));
                    }
                    _ => {}
                }
            }
            if !posts.is_empty() {
                // One lock trip per (player, tick) — the hot path's
                // lock amortization. The same posts also feed the
                // incremental seal, so keep a copy.
                self.board.post_batch(posts.clone());
            }
            (out, posts)
        })
    }

    /// Serialize the sealed state for persistence. Called at the seal
    /// barrier with the registry lock held.
    fn capture_state(&self, reg: &SessionRegistry, epoch: u64, tick_no: u64) -> PersistedState {
        let n = self.n();
        PersistedState {
            tick: tick_no,
            epoch,
            next_seq: self.sealed_seq.load(Ordering::Relaxed),
            shutdown: self.is_shutdown(),
            capacity: reg.capacity() as u64,
            next_player: reg.slots_minted() as u64,
            next_session: reg.next_session_id(),
            retired: reg.retired(),
            sessions: reg
                .iter_open()
                .map(|(session, st)| SessionDump {
                    session,
                    player: st.player as u64,
                    joined_tick: st.joined_tick,
                    probes_at_join: st.probes_at_join,
                    posts: st.posts,
                    served: st.served,
                })
                .collect(),
            probed: (0..n)
                .map(|p| {
                    self.engine
                        .probed_objects(p)
                        .into_iter()
                        .map(|j| j as u32)
                        .collect()
                })
                .collect(),
            posts: self
                .board
                .visible_posts()
                .into_iter()
                .map(|(object, entries)| {
                    (
                        object,
                        entries
                            .into_iter()
                            .map(|(player, grade)| (player as u64, grade))
                            .collect(),
                    )
                })
                .collect(),
        }
    }
}

fn object_error(object: u32, m: usize) -> Response {
    Response::Error {
        code: ErrorCode::BadObject,
        detail: format!("object {object} out of range (m = {m})"),
    }
}

/// One open session, as digested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDigest {
    /// Session handle.
    pub session: SessionId,
    /// Bound player slot.
    pub player: u64,
    /// Tick the session joined at.
    pub joined_tick: u64,
    /// Posts ledger (summed across shards when merging).
    pub posts: u64,
    /// Served ledger (summed across shards when merging).
    pub served: u64,
}

/// One player's probe memo, as digested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayerDigest {
    /// Player slot.
    pub player: u64,
    /// Paid-probe counter.
    pub probes: u64,
    /// Probed objects, ascending.
    pub memo: Vec<u64>,
}

/// One visible post as digested: `(object, entries (player, grade),
/// likes)`.
pub type DigestPost = (u32, Vec<(u64, bool)>, u32);

/// The raw components of a [`Service::state_digest`], separable so the
/// relay can merge per-shard parts (disjoint memos/posts union, ledgers
/// sum, control fields assert-equal) and re-render one global digest
/// through the same [`render_digest`] — byte-identity by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestParts {
    /// Tick counter.
    pub tick: u64,
    /// Next sequence number to mint.
    pub seq: u64,
    /// Shutdown flag.
    pub shutdown: bool,
    /// Player slots ever minted.
    pub minted: u64,
    /// Sessions departed.
    pub retired: u64,
    /// Sessions open.
    pub live: u64,
    /// Open sessions in handle order.
    pub sessions: Vec<SessionDigest>,
    /// Players with non-empty memos, in slot order.
    pub players: Vec<PlayerDigest>,
    /// Sealed snapshot epoch.
    pub epoch: u64,
    /// Tick that sealed the snapshot.
    pub snap_tick: u64,
    /// Live count the snapshot sealed with.
    pub snap_live: u32,
    /// Visible posts in object order.
    pub posts: Vec<DigestPost>,
}

/// Render digest parts exactly as [`Service::state_digest`] always has:
/// state header, open sessions, probe memos, then the snapshot digest.
/// The ranking line is recomputed from the posts (net likes descending,
/// object id ascending on ties — the same order `BoardSnapshot`
/// maintains), so merged parts rank globally with no extra plumbing.
pub fn render_digest(parts: &DigestParts) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "state tick={} seq={} shutdown={} minted={} retired={} live={}",
        parts.tick, parts.seq, parts.shutdown, parts.minted, parts.retired, parts.live,
    );
    for sess in &parts.sessions {
        let _ = writeln!(
            s,
            "  session {}: player={} joined={} posts={} served={}",
            sess.session, sess.player, sess.joined_tick, sess.posts, sess.served
        );
    }
    for pl in &parts.players {
        let _ = writeln!(
            s,
            "  player {}: probes={} memo={:?}",
            pl.player, pl.probes, pl.memo
        );
    }
    let _ = writeln!(
        s,
        "snapshot epoch={} tick={} live={} objects={}",
        parts.epoch,
        parts.snap_tick,
        parts.snap_live,
        parts.posts.len()
    );
    let mut scored: Vec<(i64, u32)> = Vec::with_capacity(parts.posts.len());
    for (j, entries, likes) in &parts.posts {
        let dislikes = entries.len() as u32 - likes;
        let _ = writeln!(s, "  obj {j}: +{likes} -{dislikes} posts={}", entries.len());
        scored.push((2 * i64::from(*likes) - entries.len() as i64, *j));
    }
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let ranked: Vec<u32> = scored.into_iter().map(|(_, j)| j).collect();
    let _ = writeln!(s, "  ranked: {ranked:?}");
    s
}

/// What a serving backend looks like to the generic drivers (the load
/// generator in `load.rs` and the TCP front in `tcp.rs`): the
/// submit/tick surface of [`Service`], also implemented by the sharded
/// relay handle (`relay::ShardedService`), so the exact same driver
/// code runs single-process and sharded.
pub trait Serving: Send + Sync {
    /// Submit a request; exactly one `(id, response)` arrives on
    /// `reply`.
    fn submit(&self, id: u64, req: Request, reply: &ReplySender);
    /// Enqueue a churn-teardown `Leave` for an abandoned session.
    fn submit_teardown(&self, session: SessionId);
    /// Execute one batch tick.
    fn tick(&self);
    /// Ticks executed so far.
    fn current_tick(&self) -> u64;
    /// Objects in the instance.
    fn m(&self) -> usize;
    /// Is a write-ahead log attached (directly, not via shards)?
    fn is_durable(&self) -> bool;
    /// Queued requests executed per tick.
    fn batch_size(&self) -> usize;
    /// Bounded queue capacity.
    fn queue_capacity(&self) -> usize;
    /// Upper bound on `Recommend` list length.
    fn recommend_cap(&self) -> u16;
    /// Has a shutdown been requested?
    fn is_shutdown(&self) -> bool;
    /// Request a shutdown from outside the protocol.
    fn request_shutdown(&self);
    /// Requests currently queued.
    fn queue_len(&self) -> usize;
    /// Requests served.
    fn served_total(&self) -> u64;
    /// Requests rejected with `Busy`.
    fn rejected_total(&self) -> u64;
    /// Sessions ever admitted.
    fn sessions_minted(&self) -> usize;
    /// The backend's observability report: metric values (merged across
    /// shards by a relay backend) plus the front-end's event trace.
    fn obs_report(&self) -> ObsReport;
}

impl Serving for Service {
    fn submit(&self, id: u64, req: Request, reply: &ReplySender) {
        Service::submit(self, id, req, reply);
    }
    fn submit_teardown(&self, session: SessionId) {
        Service::submit_teardown(self, session);
    }
    fn tick(&self) {
        let _ = Service::tick(self);
    }
    fn current_tick(&self) -> u64 {
        Service::current_tick(self)
    }
    fn m(&self) -> usize {
        Service::m(self)
    }
    fn is_durable(&self) -> bool {
        Service::is_durable(self)
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
        Service::is_shutdown(self)
    }
    fn request_shutdown(&self) {
        Service::request_shutdown(self);
    }
    fn queue_len(&self) -> usize {
        Service::queue_len(self)
    }
    fn served_total(&self) -> u64 {
        Service::served_total(self)
    }
    fn rejected_total(&self) -> u64 {
        Service::rejected_total(self)
    }
    fn sessions_minted(&self) -> usize {
        Service::sessions_minted(self)
    }
    fn obs_report(&self) -> ObsReport {
        Service::obs_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use tmwia_model::generators::planted_community;

    fn svc(n: usize, cfg: ServiceConfig) -> Service {
        let inst = planted_community(n, n, n / 2, 2, 11);
        Service::new(inst.truth.clone(), cfg).unwrap()
    }

    fn recv1(rx: &std::sync::mpsc::Receiver<(u64, Response)>) -> (u64, Response) {
        rx.try_recv().expect("response expected")
    }

    #[test]
    fn config_validation() {
        let inst = planted_community(8, 8, 4, 2, 1);
        let bad = Service::new(
            inst.truth.clone(),
            ServiceConfig {
                batch_size: 0,
                ..ServiceConfig::default()
            },
        );
        assert!(matches!(bad, Err(ServiceError::BadConfig(ref msg)) if msg.contains("batch size")));
        let bad = Service::new(
            inst.truth.clone(),
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        assert!(matches!(bad, Err(ServiceError::BadConfig(ref msg)) if msg.contains("queue")));
    }

    #[test]
    fn join_probe_read_leave_round_trip() {
        let s = svc(8, ServiceConfig::default());
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        s.tick();
        let (_, joined) = recv1(&rx);
        let Response::Joined { session, player } = joined else {
            panic!("expected Joined, got {joined:?}");
        };
        assert_eq!(player, 0);

        s.submit(
            2,
            Request::Probe {
                session,
                object: 3,
                share: true,
            },
            &tx,
        );
        s.tick();
        let (id, graded) = recv1(&rx);
        assert_eq!(id, 2);
        let Response::Grade {
            charged,
            posted,
            value,
            ..
        } = graded
        else {
            panic!("expected Grade, got {graded:?}");
        };
        assert!(charged && posted);

        // The shared probe is visible in the sealed snapshot.
        s.submit(3, Request::Read { object: 3 }, &tx);
        let (_, board) = recv1(&rx);
        let Response::Board {
            likes,
            dislikes,
            epoch,
            ..
        } = board
        else {
            panic!("expected Board, got {board:?}");
        };
        assert_eq!(likes + dislikes, 1);
        assert_eq!((likes > 0), value);
        assert!(epoch >= 1);

        // Re-probe is free.
        s.submit(
            4,
            Request::Probe {
                session,
                object: 3,
                share: false,
            },
            &tx,
        );
        s.tick();
        let (_, re) = recv1(&rx);
        assert!(
            matches!(re, Response::Grade { charged: false, .. }),
            "{re:?}"
        );

        s.submit(5, Request::Leave { session }, &tx);
        s.tick();
        let (_, left) = recv1(&rx);
        let Response::Left { probes, posts, .. } = left else {
            panic!("expected Left, got {left:?}");
        };
        assert_eq!(probes, 1, "one charged probe");
        assert_eq!(posts, 1, "one shared grade");
        assert_eq!(s.sessions_live(), 0);
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        let s = svc(
            8,
            ServiceConfig {
                queue_capacity: 2,
                retry_after_ticks: 3,
                ..ServiceConfig::default()
            },
        );
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        s.submit(2, Request::Join, &tx);
        s.submit(3, Request::Join, &tx); // queue full
        let (id, busy) = recv1(&rx);
        assert_eq!(id, 3);
        assert_eq!(
            busy,
            Response::Busy {
                retry_after_ticks: 3
            }
        );
        assert_eq!(s.rejected_total(), 1);
        s.tick();
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn unknown_sessions_and_bad_objects_get_typed_errors() {
        let s = svc(8, ServiceConfig::default());
        let (tx, rx) = channel();
        s.submit(
            1,
            Request::Probe {
                session: 99,
                object: 0,
                share: false,
            },
            &tx,
        );
        s.tick();
        let (_, resp) = recv1(&rx);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ),
            "{resp:?}"
        );

        s.submit(2, Request::Join, &tx);
        s.tick();
        let (_, joined) = recv1(&rx);
        let Response::Joined { session, .. } = joined else {
            panic!("{joined:?}");
        };
        s.submit(
            3,
            Request::Probe {
                session,
                object: 10_000,
                share: false,
            },
            &tx,
        );
        s.tick();
        let (_, resp) = recv1(&rx);
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadObject,
                    ..
                }
            ),
            "{resp:?}"
        );
    }

    #[test]
    fn shutdown_drains_then_refuses_writes() {
        let s = svc(8, ServiceConfig::default());
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        s.submit(2, Request::Shutdown, &tx);
        s.tick();
        let (_, joined) = recv1(&rx);
        assert!(
            matches!(joined, Response::Joined { .. }),
            "queued write before shutdown still served"
        );
        let (_, down) = recv1(&rx);
        assert_eq!(down, Response::ShuttingDown);
        assert!(s.is_shutdown());
        // New writes refused; reads still served.
        s.submit(3, Request::Join, &tx);
        let (_, refused) = recv1(&rx);
        assert_eq!(refused, Response::ShuttingDown);
        s.submit(4, Request::Read { object: 0 }, &tx);
        let (_, board) = recv1(&rx);
        assert!(matches!(board, Response::Board { .. }));
    }

    #[test]
    fn teardown_bypasses_capacity_and_shutdown() {
        let s = svc(
            8,
            ServiceConfig {
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
        );
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        s.tick();
        let (_, joined) = recv1(&rx);
        let Response::Joined { session, .. } = joined else {
            panic!("expected Joined, got {joined:?}");
        };

        // Fill the one-slot queue, then try to leave the ordinary way:
        // the Leave bounces with Busy.
        s.submit(
            2,
            Request::Probe {
                session,
                object: 0,
                share: false,
            },
            &tx,
        );
        s.submit(3, Request::Leave { session }, &tx);
        let (_, busy) = recv1(&rx);
        assert!(matches!(busy, Response::Busy { .. }), "{busy:?}");

        // Regression: the connection-teardown path used to take that
        // same bouncing route (into a throwaway channel, so nobody
        // retried) and the slot stayed a phantom live player forever.
        s.submit_teardown(session);
        assert_eq!(s.queue_len(), 2, "teardown enqueued past capacity");
        s.tick();
        assert_eq!(s.sessions_live(), 0, "teardown survived the full queue");
        let (_, grade) = recv1(&rx);
        assert!(matches!(grade, Response::Grade { .. }), "{grade:?}");

        // Also exempt from the shutdown refusal.
        s.submit(4, Request::Join, &tx);
        s.tick();
        let (_, joined) = recv1(&rx);
        let Response::Joined { session, .. } = joined else {
            panic!("expected Joined, got {joined:?}");
        };
        s.request_shutdown();
        s.submit_teardown(session);
        s.tick();
        assert_eq!(s.sessions_live(), 0, "teardown survived shutdown");
    }

    #[test]
    fn empty_ticks_do_not_reseal() {
        let s = svc(8, ServiceConfig::default());
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        let r1 = s.tick();
        assert_eq!(r1.sealed_epoch, Some(1));
        let _ = recv1(&rx);
        let r2 = s.tick();
        assert_eq!(r2.sealed_epoch, None, "nothing to do, nothing sealed");
        assert_eq!(s.snapshot().epoch, 1, "snapshot unchanged");
        assert_eq!(r2.tick, 2, "tick counter still advances");
    }

    #[test]
    fn join_then_probe_in_one_batch_composes() {
        // The control pass resolves sessions before the data pass, so a
        // Join and a Probe on its session can share a tick only if the
        // client learned the session id beforehand — which it cannot.
        // But a Probe for a session opened in the SAME batch by seq
        // order works when the id is predictable (it is not part of the
        // public contract; this test pins the weaker property that the
        // probe resolves against post-control registry state).
        let s = svc(8, ServiceConfig::default());
        let (tx, rx) = channel();
        s.submit(1, Request::Join, &tx);
        // Sessions are minted from 1, so the first Join gets session 1.
        s.submit(
            2,
            Request::Probe {
                session: 1,
                object: 0,
                share: true,
            },
            &tx,
        );
        s.tick();
        let (_, joined) = recv1(&rx);
        assert!(
            matches!(joined, Response::Joined { session: 1, .. }),
            "{joined:?}"
        );
        let (_, graded) = recv1(&rx);
        assert!(matches!(graded, Response::Grade { .. }), "{graded:?}");
    }
}
