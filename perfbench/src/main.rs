//! perfbench — the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload board_large --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One load thread runs a closed loop of 64 client sessions against
//! the serving stack in-process and times only calls into its public
//! API. A run is a sequence of identical *episodes* (set up, join,
//! measure a fixed number of rounds, check), repeated until the
//! measured time reaches `--seconds`; the first and the last episode of
//! a run must end in the same state fingerprint. `--trace 0` prints the end-to-end
//! metrics, with every time scaled to a reference host speed measured
//! between rounds (`reference.rs`); `--trace 1` prints the per-layer
//! ones (see README.md). The last stdout line is the JSON result.

mod checks;
mod clients;
mod reference;
mod stats;
mod tap;

use clients::{answers, Client};
use stats::{median, p50_p99, ratio, Metrics, Usage};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tap::{TapLink, TapStats};
use tmwia_billboard::PlayerId;
use tmwia_model::generators::planted_community;
use tmwia_model::matrix::PrefMatrix;
use tmwia_obs::{MetricId, MetricSnapshot, Scope, METRICS};
use tmwia_service::wal::fnv64;
use tmwia_service::{
    channel_pair, run_shard_worker, ChannelLink, ClientMix, Durability, RecoverOptions, Relay,
    RelayConfig, ReplySender, Request, RequestKind, Response, Service, ServiceConfig, Serving,
    ShardLink, ShardedService, WireError,
};

/// Player capacity `n` of every instance.
const PLAYERS: usize = 4096;
/// Concurrent client sessions (= batch size: one round is one tick).
const SESSIONS: usize = 64;
/// Snapshot cadence of a durable service (the `serve` default).
const SNAPSHOT_EVERY: u64 = 64;
/// Episodes per run, at least, so `setup_s` is a median.
const MIN_EPISODES: usize = 3;
/// Where runs keep their WAL directories and traced runs their spans,
/// relative to the checkout root.
const OUT_DIR: &str = ".perfbench_out";
/// Rounds per run of the reference kernel.
const KERNEL_EVERY: usize = 8;
/// Stop starting episodes after this much wall time, whatever
/// `--seconds` says, so a run always ends well within its limit.
const RUN_CAP: Duration = Duration::from_secs(120);

/// One workload: an instance shape, a topology, and a phase length.
struct Spec {
    name: &'static str,
    /// Objects `m`.
    objects: usize,
    /// 0 = one process; otherwise in-process shards behind the relay.
    shards: usize,
    /// Every service keeps a WAL (fsync every tick, snapshot every 64
    /// ticks); a shard's lives in `shard-<i>` under the episode directory.
    durable: bool,
    /// Measured rounds (= ticks) per episode.
    rounds: usize,
}

const WORKLOADS: &[Spec] = &[
    Spec {
        name: "board_large",
        objects: 100_000,
        shards: 0,
        durable: false,
        rounds: 1_000,
    },
    Spec {
        name: "sharded_durable",
        objects: 1_000,
        shards: 2,
        durable: true,
        rounds: 300,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => trace = Some(num(value)? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            format!("unknown workload '{workload}' ({})", names.join("|"))
        })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = Path::new(OUT_DIR).join(format!("work-{}-{}", args.spec.name, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Gone unless a traced run left its spans there.
    let _ = std::fs::remove_dir(OUT_DIR);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------------ backends

/// The serving stack under test, as one episode opened it.
enum Backend {
    Single(Arc<Service>),
    Sharded(Topology<ChannelLink>),
    Tapped(Topology<TapLink>, Vec<Arc<TapStats>>),
}

struct Topology<L: ShardLink> {
    relay: ShardedService<L>,
    shards: Vec<Arc<Service>>,
    workers: Vec<std::thread::JoinHandle<Result<(), WireError>>>,
}

impl Backend {
    fn serving(&self) -> &dyn Serving {
        match self {
            Backend::Single(svc) => svc.as_ref(),
            Backend::Sharded(t) => &t.relay,
            Backend::Tapped(t, _) => &t.relay,
        }
    }

    fn single(&self) -> Option<&Service> {
        match self {
            Backend::Single(svc) => Some(svc),
            _ => None,
        }
    }

    fn shard_services(&self) -> &[Arc<Service>] {
        match self {
            Backend::Single(_) => &[],
            Backend::Sharded(t) => &t.shards,
            Backend::Tapped(t, _) => &t.shards,
        }
    }

    fn taps(&self) -> &[Arc<TapStats>] {
        match self {
            Backend::Tapped(_, taps) => taps,
            _ => &[],
        }
    }

    /// The state digest the fingerprint covers (merged across shards).
    fn state_digest(&self) -> Result<String, String> {
        match self {
            Backend::Single(svc) => Ok(svc.state_digest()),
            Backend::Sharded(t) => t.state_digest(),
            Backend::Tapped(t, _) => t.state_digest(),
        }
    }

    /// A latched WAL failure or topology fault, if any.
    fn fault(&self) -> Option<String> {
        match self {
            Backend::Single(svc) => svc.wal_health().map(|e| format!("WAL latched: {e}")),
            Backend::Sharded(t) => t.fault(),
            Backend::Tapped(t, _) => t.fault(),
        }
    }

    fn teardown(self) -> Result<(), String> {
        match self {
            Backend::Single(_) => Ok(()),
            Backend::Sharded(mut t) => t.teardown(),
            Backend::Tapped(mut t, _) => t.teardown(),
        }
    }
}

impl<L: ShardLink> Topology<L> {
    fn state_digest(&self) -> Result<String, String> {
        self.relay.merged_state_digest().map_err(|e| e.to_string())
    }

    fn fault(&self) -> Option<String> {
        let wal = self.shards.iter().enumerate().find_map(|(i, s)| {
            s.wal_health()
                .map(|e| format!("shard {i} WAL latched: {e}"))
        });
        let topology = self.relay.health().map(|e| format!("topology fault: {e}"));
        topology.or(wal)
    }

    /// Disconnect the relay and join every shard worker; the first
    /// worker failure is the result.
    fn teardown(&mut self) -> Result<(), String> {
        self.relay.disconnect();
        let mut result = Ok(());
        for w in std::mem::take(&mut self.workers) {
            let joined = match w.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("shard worker failed: {e}")),
                Err(_) => Err("shard worker panicked".to_string()),
            };
            result = result.and(joined);
        }
        result
    }
}

/// A topology dropped on an error path still stops its workers.
impl<L: ShardLink> Drop for Topology<L> {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        batch_size: SESSIONS,
        seed,
        ..ServiceConfig::default()
    }
}

/// A service over `truth`; with a WAL directory, a durable one opened
/// the way `tmwia serve --wal-dir` opens it.
fn open_service(
    truth: PrefMatrix,
    cfg: &ServiceConfig,
    wal_dir: Option<PathBuf>,
) -> Result<Service, String> {
    let Some(dir) = wal_dir else {
        return Service::new(truth, cfg.clone()).map_err(|e| e.to_string());
    };
    let durability = Durability {
        dir,
        snapshot_every: SNAPSHOT_EVERY,
    };
    let opts = RecoverOptions {
        use_snapshot: true,
        capture: false,
    };
    Service::recover(truth, cfg.clone(), &durability, opts)
        .map(|(svc, _)| svc)
        .map_err(|e| e.to_string())
}

/// The WAL directory of shard `i` under an episode directory.
fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}"))
}

/// Build `shards` services over `truth` (durable ones keep their WALs
/// under `wal_dir`), connect them to a relay over channel links (each
/// end passed through `wrap`), and start one worker thread per shard.
fn spawn_topology<L: ShardLink + 'static>(
    truth: &PrefMatrix,
    cfg: &ServiceConfig,
    shards: usize,
    wal_dir: Option<&Path>,
    mut wrap: impl FnMut(ChannelLink) -> L,
) -> Result<Topology<L>, String> {
    let services = (0..shards)
        .map(|i| open_service(truth.clone(), cfg, wal_dir.map(|d| shard_dir(d, i))).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let mut relay_ends = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for (i, svc) in services.iter().enumerate() {
        let (relay_end, shard_end) = channel_pair();
        relay_ends.push(wrap(relay_end));
        let mut shard_end = wrap(shard_end);
        let svc = Arc::clone(svc);
        workers.push(std::thread::spawn(move || {
            run_shard_worker(&svc, i as u32, shards as u32, &mut shard_end)
        }));
    }
    let relay_cfg = RelayConfig::for_service(cfg, shards, truth.n(), truth.m());
    match Relay::connect(relay_ends, relay_cfg) {
        Ok(relay) => Ok(Topology {
            relay: ShardedService::new(relay),
            shards: services,
            workers,
        }),
        Err(e) => {
            // The relay ends are gone, so every worker sees EOF.
            for w in workers {
                let _ = w.join();
            }
            Err(format!("relay handshake failed: {e}"))
        }
    }
}

fn open_backend(
    spec: &Spec,
    seed: u64,
    truth: PrefMatrix,
    tapped: bool,
    dir: &Path,
) -> Result<Backend, String> {
    let cfg = service_config(seed);
    let wal_dir = spec.durable.then_some(dir);
    if spec.shards == 0 {
        let svc = open_service(truth, &cfg, wal_dir.map(Path::to_path_buf))?;
        return Ok(Backend::Single(Arc::new(svc)));
    }
    if !tapped {
        return spawn_topology(&truth, &cfg, spec.shards, wal_dir, |link| link)
            .map(Backend::Sharded);
    }
    let mut taps = Vec::new();
    let topo = spawn_topology(&truth, &cfg, spec.shards, wal_dir, |link| {
        let stats = Arc::new(TapStats::default());
        taps.push(Arc::clone(&stats));
        TapLink::new(link, stats)
    })?;
    Ok(Backend::Tapped(topo, taps))
}

fn generate(spec: &Spec, seed: u64) -> PrefMatrix {
    planted_community(PLAYERS, spec.objects, PLAYERS / 2, 8, seed).truth
}

// ------------------------------------------------------------ episodes

type Pipe = (ReplySender, Receiver<(u64, Response)>);

/// One span: a timed call, relative to the run's trace origin.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the same list (`u64::MAX` = root).
    parent: u64,
    /// Request id (0 for spans not tied to a request).
    req: u64,
}

/// The posts one tick published, with the seal header it got.
pub struct SealTick {
    pub posts: Vec<(u32, PlayerId, bool)>,
    pub epoch: u64,
    pub tick: u64,
    pub live: u32,
}

/// What the measured phase of one episode recorded.
#[derive(Default)]
struct Measured {
    wall_ns: u64,
    attempted: u64,
    ok: u64,
    failed: u64,
    ticks: u64,
    /// Ticks that executed at least one write.
    write_ticks: u64,
    writes: u64,
    probes: u64,
    posts_published: u64,
    reads: u64,
    recommends: u64,
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    /// Each round's wall time, from its first `submit` until the load loop
    /// holds its last response.
    round_ns: Vec<u64>,
    /// The reference kernel's time after every `KERNEL_EVERY`-th round.
    kernel_ns: Vec<u64>,
    /// Single process: each tick's posts, for the seal replay.
    seal_log: Vec<SealTick>,
    errors: Vec<String>,
    // Traced episodes only.
    tick_ns: Vec<u64>,
    submit_write_ns: Vec<u64>,
    submit_ns_total: u64,
    tally_ns: Vec<u64>,
    recommend_ns: Vec<u64>,
    read_frames: u64,
    spans: Vec<Span>,
    wire_bytes: u64,
    batch_frames: u64,
    /// Per relay link end: its `BatchDone` waits, one per tick.
    recv_waits: Vec<Vec<(Instant, Instant)>>,
    /// Every shard's `Batch` -> `BatchDone` turns.
    batch_turns: Vec<(Instant, Instant)>,
}

impl Measured {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// `(frames, bytes, batch frames)` sent across all tapped link ends.
fn tap_totals(taps: &[Arc<TapStats>]) -> (u64, u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    taps.iter().fold((0, 0, 0), |(f, b, n), t| {
        (
            f + t.frames.load(Relaxed),
            b + t.bytes.load(Relaxed),
            n + t.batch_frames.load(Relaxed),
        )
    })
}

/// Admit every client: one round of Joins, one tick.
fn join_round(svc: &dyn Serving, seed: u64, m: usize) -> Result<(Vec<Client>, Vec<Pipe>), String> {
    let pipes: Vec<Pipe> = (0..SESSIONS).map(|_| channel()).collect();
    for (c, (tx, _)) in pipes.iter().enumerate() {
        svc.submit((c as u64) << 32, Request::Join, tx);
    }
    svc.tick();
    let mut clients = Vec::with_capacity(SESSIONS);
    for (c, (_, rx)) in pipes.iter().enumerate() {
        match rx.try_recv() {
            Ok((_, Response::Joined { session, player })) => {
                clients.push(Client::new(seed, c as u64, m, session, player as PlayerId));
            }
            other => return Err(format!("client {c} was not admitted: {other:?}")),
        }
    }
    Ok((clients, pipes))
}

/// The measured phase: `rounds` closed-loop rounds. In each, every
/// client submits its next request (reads are answered inside
/// `submit`), one tick executes the writes, and the load loop collects
/// the write responses. Latency runs from the `submit` call until the
/// load loop holds the response.
#[allow(clippy::too_many_lines)]
fn measure(
    backend: &Backend,
    clients: &mut [Client],
    pipes: &[Pipe],
    spec: &Spec,
    seed: u64,
    traced: bool,
    origin: Instant,
) -> Measured {
    let m = spec.objects;
    let svc = backend.serving();
    let single = backend.single();
    let shard_svcs = backend.shard_services();
    let taps = backend.taps();
    let mix = ClientMix::default_mix();
    let mut out = Measured::default();
    let mut pending: Vec<Option<(Instant, Request)>> = (0..SESSIONS).map(|_| None).collect();
    let rel = |t: Instant| nanos(t.saturating_duration_since(origin));
    let kernel = reference::Kernel::new();
    let mut kernel_total = Duration::ZERO;
    let start = Instant::now();
    for round in 0..spec.rounds {
        let round_start = Instant::now();
        let round_span = out.spans.len() as u64;
        if traced {
            out.spans.push(Span {
                name: "round",
                start_ns: rel(Instant::now()),
                end_ns: 0,
                parent: u64::MAX,
                req: round as u64 + 1,
            });
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let (kind, req) = client.next(seed, &mix, m);
            let id = ((c as u64) << 32) | (round as u64 + 1);
            out.attempted += 1;
            let frames0 = if traced { tap_totals(taps).0 } else { 0 };
            let t0 = Instant::now();
            svc.submit(id, req.clone(), &pipes[c].0);
            let is_read = matches!(kind, RequestKind::Read | RequestKind::Recommend);
            if !is_read {
                if traced {
                    let t1 = Instant::now();
                    out.submit_write_ns.push(nanos(t1 - t0));
                    out.submit_ns_total += nanos(t1 - t0);
                    out.spans.push(Span {
                        name: "submit",
                        start_ns: rel(t0),
                        end_ns: rel(t1),
                        parent: round_span,
                        req: id,
                    });
                }
                pending[c] = Some((t0, req));
                continue;
            }
            let got = pipes[c].1.try_recv();
            let t1 = Instant::now();
            out.read_ns.push(nanos(t1 - t0));
            if traced {
                out.submit_ns_total += nanos(t1 - t0);
                out.read_frames += tap_totals(taps).0 - frames0;
                out.spans.push(Span {
                    name: "submit",
                    start_ns: rel(t0),
                    end_ns: rel(t1),
                    parent: round_span,
                    req: id,
                });
            }
            match kind {
                RequestKind::Read => out.reads += 1,
                _ => out.recommends += 1,
            }
            let resp = match got {
                Ok((rid, resp)) if rid == id && answers(&req, &resp) => resp,
                other => {
                    out.fail(format!("round {round} client {c}: {req:?} -> {other:?}"));
                    continue;
                }
            };
            if let Err(why) = check_read(single, shard_svcs, &req, &resp, traced, &mut out) {
                out.fail(format!("round {round} client {c}: {why}"));
                continue;
            }
            out.ok += 1;
        }

        let t0 = Instant::now();
        svc.tick();
        if traced {
            let t1 = Instant::now();
            out.tick_ns.push(nanos(t1 - t0));
            out.spans.push(Span {
                name: "tick",
                start_ns: rel(t0),
                end_ns: rel(t1),
                parent: round_span,
                req: 0,
            });
        }
        out.ticks += 1;

        let mut tick_posts = Vec::new();
        if pending.iter().any(Option::is_some) {
            out.write_ticks += 1;
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let Some((t0, req)) = pending[c].take() else {
                continue;
            };
            let got = pipes[c].1.try_recv();
            out.write_ns.push(nanos(t0.elapsed()));
            out.writes += 1;
            let id = ((c as u64) << 32) | (round as u64 + 1);
            let resp = match got {
                Ok((rid, resp)) if rid == id && answers(&req, &resp) => resp,
                other => {
                    out.fail(format!("round {round} client {c}: {req:?} -> {other:?}"));
                    continue;
                }
            };
            client.observe(&resp);
            match (&req, &resp) {
                (Request::Probe { .. }, Response::Grade { object, value, .. }) => {
                    out.probes += 1;
                    tick_posts.push((*object, client.player, *value));
                }
                (Request::Post { object, grade, .. }, _) => {
                    tick_posts.push((*object, client.player, *grade));
                }
                _ => {}
            }
            out.ok += 1;
        }
        out.posts_published += tick_posts.len() as u64;
        if let Some(svc) = single {
            let snap = svc.snapshot();
            out.seal_log.push(SealTick {
                posts: tick_posts,
                epoch: snap.epoch,
                tick: snap.tick,
                live: snap.live,
            });
        }
        if traced {
            let end = rel(Instant::now());
            out.spans[round_span as usize].end_ns = end;
        }
        out.round_ns.push(nanos(round_start.elapsed()));
        // Between rounds, outside every timed interval, and only now and
        // then: the kernel leaves the next round's caches cold.
        if round % KERNEL_EVERY == KERNEL_EVERY - 1 {
            let t0 = Instant::now();
            out.kernel_ns.push(kernel.run());
            kernel_total += t0.elapsed();
        }
    }
    out.wall_ns = nanos(start.elapsed().saturating_sub(kernel_total));
    out
}

/// A snapshot read must match the sealed snapshot it was served from.
/// Traced runs also time the snapshot layer's own read path here.
fn check_read(
    single: Option<&Service>,
    shards: &[Arc<Service>],
    req: &Request,
    resp: &Response,
    traced: bool,
    out: &mut Measured,
) -> Result<(), String> {
    match (req, resp) {
        (
            Request::Read { object },
            Response::Board {
                epoch,
                likes,
                dislikes,
                ..
            },
        ) => {
            let (want, sealed) = if let Some(svc) = single {
                let t0 = Instant::now();
                let snap = svc.snapshot();
                let tally = snap.tally(*object);
                if traced {
                    out.tally_ns.push(nanos(t0.elapsed()));
                }
                (tally, snap.epoch)
            } else {
                // Objects are partitioned, so the non-owners answer (0, 0).
                shards.iter().fold(((0, 0), 0), |((l, d), e), s| {
                    let snap = s.snapshot();
                    let (sl, sd) = snap.tally(*object);
                    ((l + sl, d + sd), e.max(snap.epoch))
                })
            };
            if want != (*likes, *dislikes) || sealed != *epoch {
                return Err(format!(
                    "read of {object} answered +{likes} -{dislikes} @{epoch}, \
                     snapshot holds +{} -{} @{sealed}",
                    want.0, want.1
                ));
            }
        }
        (Request::Recommend { count }, Response::Recommended { epoch, objects }) => {
            if let Some(svc) = single {
                let t0 = Instant::now();
                let snap = svc.snapshot();
                let want = snap.recommend(usize::from(*count));
                if traced {
                    out.recommend_ns.push(nanos(t0.elapsed()));
                }
                if &want != objects || snap.epoch != *epoch {
                    return Err(format!(
                        "recommend answered {objects:?} @{epoch}, snapshot ranks {want:?} @{}",
                        snap.epoch
                    ));
                }
            }
        }
        _ => return Err(format!("{req:?} is not a read")),
    }
    Ok(())
}

/// The workload counters of the obs registry (merged across shards).
fn obs_metrics(backend: &Backend) -> MetricSnapshot {
    backend.serving().obs_report().metrics
}

fn delta(after: &MetricSnapshot, before: &MetricSnapshot, id: MetricId) -> u64 {
    after.get(id) - before.get(id)
}

/// fnv64 over the state digest plus every workload-scope obs counter.
fn fingerprint(ep: &Episode) -> Result<u64, String> {
    let mut text = ep.backend.state_digest()?;
    for (def, value) in METRICS.iter().zip(ep.summary.obs_after.values()) {
        if def.scope == Scope::Workload {
            text.push_str(&format!("{}={value}\n", def.name));
        }
    }
    Ok(fnv64(text.as_bytes()))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Warmup,
    Baseline,
    Counted,
}

/// What an episode leaves behind once its backend is torn down.
struct Summary {
    role: Role,
    setup_s: f64,
    generate_s: f64,
    open_s: f64,
    measured: Measured,
    usage: Usage,
    obs_before: MetricSnapshot,
    obs_after: MetricSnapshot,
}

impl Summary {
    /// The median reference-kernel time of the measured phase.
    fn kernel_ns(&self) -> f64 {
        let kernel: Vec<f64> = self.measured.kernel_ns.iter().map(|&k| k as f64).collect();
        median(&kernel)
    }

    /// What multiplies this episode's times to report them at the
    /// reference speed.
    fn speed_scale(&self) -> f64 {
        ratio(reference::REFERENCE_NS, self.kernel_ns())
    }
}

/// The median over episodes of their reference-kernel times, in µs.
fn kernel_us(eps: &[&Summary]) -> f64 {
    median(&eps.iter().map(|s| s.kernel_ns() / 1e3).collect::<Vec<_>>())
}

/// An episode whose backend is still up, for the post-phase checks.
struct Episode {
    backend: Backend,
    dir: PathBuf,
    traced: bool,
    start_snapshot: Option<Arc<tmwia_service::BoardSnapshot>>,
    summary: Summary,
}

fn episode(
    spec: &Spec,
    seed: u64,
    role: Role,
    traced: bool,
    dir: PathBuf,
    origin: Instant,
) -> Result<Episode, String> {
    let t_setup = Instant::now();
    let truth = generate(spec, seed);
    let generate_s = t_setup.elapsed().as_secs_f64();
    let t_open = Instant::now();
    let backend = open_backend(spec, seed, truth, traced, &dir)?;
    let open_s = t_open.elapsed().as_secs_f64();
    let (mut clients, pipes) = join_round(backend.serving(), seed, spec.objects)?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let obs_before = obs_metrics(&backend);
    let start_snapshot = backend.single().map(Service::snapshot);
    for tap in backend.taps() {
        // Handshake and obs-query traffic is not part of the phase.
        tap.recv_waits.drain();
        tap.batch_turns.drain();
    }
    let (_, bytes0, batches0) = tap_totals(backend.taps());
    let u0 = stats::usage();
    let mut measured = measure(&backend, &mut clients, &pipes, spec, seed, traced, origin);
    let usage = stats::usage().since(u0);
    let (_, bytes1, batches1) = tap_totals(backend.taps());
    measured.wire_bytes = bytes1 - bytes0;
    measured.batch_frames = batches1 - batches0;
    for tap in backend.taps() {
        measured.recv_waits.push(tap.recv_waits.drain());
        measured.batch_turns.extend(tap.batch_turns.drain());
    }

    if let Some(fault) = backend.fault() {
        measured.fail(fault);
    }
    let obs_after = obs_metrics(&backend);
    Ok(Episode {
        backend,
        dir,
        traced,
        start_snapshot,
        summary: Summary {
            role,
            setup_s,
            generate_s,
            open_s,
            measured,
            usage,
            obs_before,
            obs_after,
        },
    })
}

// ------------------------------------------------------------ the run

/// Counts the load loop keeps that must equal the obs registry's deltas.
fn count_checks(spec: &Spec, ep: &Episode) -> Vec<String> {
    let s = &ep.summary;
    let (a, b, m) = (&s.obs_after, &s.obs_before, &s.measured);
    let d = |id| delta(a, b, id);
    let mut want = vec![
        (
            "probes_paid + probes_memoized",
            d(MetricId::ProbesPaid) + d(MetricId::ProbesMemoized),
            m.probes,
        ),
        (
            "posts_published",
            d(MetricId::PostsPublished),
            m.posts_published,
        ),
        ("reads_served", d(MetricId::ReadsServed), m.reads),
        ("requests_rejected", d(MetricId::RequestsRejected), 0),
    ];
    if spec.durable {
        // Every service logs (and fsyncs) every tick it executes.
        let logs = spec.shards.max(1) as u64;
        want.push(("wal_fsyncs", d(MetricId::WalFsyncs), m.write_ticks * logs));
    }
    if spec.shards > 0 {
        want.push((
            "relay_rank_merges",
            d(MetricId::RelayRankMerges),
            m.recommends,
        ));
        want.push(("relay_batches", d(MetricId::RelayBatches), m.write_ticks));
        want.push(("desync_latches", a.get(MetricId::DesyncLatches), 0));
        if ep.traced {
            let frames = m.batch_frames;
            want.push((
                "relay_batches x shards (tapped Batch frames)",
                d(MetricId::RelayBatches) * spec.shards as u64,
                frames,
            ));
        }
    }
    want.into_iter()
        .filter(|(_, obs, seen)| obs != seen)
        .map(|(name, obs, seen)| format!("obs {name} = {obs}, load loop counted {seen}"))
        .collect()
}

/// Per-layer results of the post-phase replays on the last episode.
#[derive(Default)]
struct Replays {
    seal_ns: Vec<u64>,
    objects: u64,
    entries: u64,
    wal: Option<checks::WalReplay>,
}

fn replays(spec: &Spec, seed: u64, ep: &Episode, replay_dir: &Path) -> Result<Replays, String> {
    let truth = generate(spec, seed);
    let mut out = Replays::default();
    let snaps: Vec<_> = match ep.backend.single() {
        Some(svc) => vec![svc.snapshot()],
        None => ep
            .backend
            .shard_services()
            .iter()
            .map(|s| s.snapshot())
            .collect(),
    };
    (out.objects, out.entries) = checks::check_board(&truth, &snaps)?;
    if let (Some(svc), Some(start)) = (ep.backend.single(), &ep.start_snapshot) {
        let log = &ep.summary.measured.seal_log;
        out.seal_ns = checks::seal_replay(start, log, &svc.snapshot())?;
    }
    if spec.durable {
        // The WAL replay runs on one log: the single service's, or
        // shard 0's.
        let (svc, dir) = match ep.backend.single() {
            Some(svc) => (svc, ep.dir.clone()),
            None => (
                ep.backend.shard_services()[0].as_ref(),
                shard_dir(&ep.dir, 0),
            ),
        };
        let cfg = service_config(seed);
        let wal = checks::wal_replay(truth, &cfg, SNAPSHOT_EVERY, svc, &dir, replay_dir)?;
        out.wal = Some(wal);
    }
    Ok(out)
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let spec = args.spec;
    let origin = Instant::now();
    let mut summaries: Vec<Summary> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut counted = Duration::ZERO;
    let mut fingerprint_0 = None;
    let mut peak_rss = None;
    let replayed = loop {
        // Episode 0 warms caches and the allocator and is not counted.
        // A traced run then adds one untraced episode: the baseline for
        // the tracing overhead and, sharded, the untapped reference
        // fingerprint the tapped episodes must reproduce.
        let idx = summaries.len();
        let role = match (idx, args.trace) {
            (0, _) => Role::Warmup,
            (1, true) => Role::Baseline,
            _ => Role::Counted,
        };
        let traced = args.trace && role == Role::Counted;
        let dir = work.join(format!("ep{idx}"));
        let ep = episode(spec, args.seed, role, traced, dir, origin)?;
        if role == Role::Counted {
            counted += Duration::from_nanos(ep.summary.measured.wall_ns);
        }
        errors.extend(ep.summary.measured.errors.iter().cloned());
        errors.extend(count_checks(spec, &ep));
        let counted_eps = summaries.iter().filter(|s| s.role == Role::Counted).count()
            + usize::from(role == Role::Counted);
        let done = (counted_eps >= MIN_EPISODES && counted >= Duration::from_secs(args.seconds))
            || origin.elapsed() >= RUN_CAP;
        if idx == 0 || done {
            // Rendering the digest is costly on a large board, so only
            // the first and the last episode are fingerprinted; they
            // must agree.
            let fp = fingerprint(&ep)?;
            match fingerprint_0 {
                None => fingerprint_0 = Some(fp),
                Some(f) if f != fp => errors.push(format!(
                    "episode {idx} fingerprint {fp:016x} differs from episode 0's {f:016x}"
                )),
                Some(_) => {}
            }
        }
        if role == Role::Counted && peak_rss.is_none() {
            // Read once, at the same point of every run: the peak of a
            // fixed amount of work, however many episodes follow.
            peak_rss = Some(stats::peak_rss_mb().ok_or("cannot read VmHWM")?);
        }
        let last = if done {
            let replayed =
                replays(spec, args.seed, &ep, &work.join("replay")).unwrap_or_else(|e| {
                    errors.push(e);
                    Replays::default()
                });
            Some(replayed)
        } else {
            None
        };
        ep.backend.teardown()?;
        let _ = std::fs::remove_dir_all(&ep.dir);
        // Only the last episode's spans are written out.
        for s in &mut summaries {
            s.measured.spans = Vec::new();
        }
        summaries.push(ep.summary);
        if let Some(last) = last {
            break last;
        }
    };

    let fingerprint = fingerprint_0.unwrap_or(0);
    let counted: Vec<&Summary> = summaries
        .iter()
        .filter(|s| s.role == Role::Counted)
        .collect();
    let attempted: u64 = summaries.iter().map(|s| s.measured.attempted).sum();
    let failed: u64 = summaries.iter().map(|s| s.measured.failed).sum();
    let ticks: u64 = counted.iter().map(|s| s.measured.ticks).sum();
    println!(
        "perfbench workload={} seed={} episodes={} rounds={} ticks={ticks} \
         writes={} reads={} fingerprint={fingerprint:016x}",
        spec.name,
        args.seed,
        summaries.len(),
        spec.rounds,
        counted
            .iter()
            .map(|s| s.measured.write_ns.len())
            .sum::<usize>(),
        counted
            .iter()
            .map(|s| s.measured.read_ns.len())
            .sum::<usize>(),
    );
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    let metrics = if args.trace {
        layer_metrics(spec, &summaries, &replayed, work, origin)
    } else {
        let peak_rss = peak_rss.unwrap_or(0.0);
        let unscaled = end_to_end(&summaries, peak_rss, |_| 1.0);
        println!(
            "perfbench unscaled kernel_us={:.3} {}",
            kernel_us(&counted),
            unscaled.pairs()
        );
        end_to_end(&summaries, peak_rss, Summary::speed_scale)
    };
    Ok(metrics.result_line(correct, attempted, failed))
}

/// End-to-end metrics, each episode's times multiplied by `scale` of
/// it. Every counted episode replays the same request stream, so sample
/// `i` of each episode times the same request (and round `r` the same
/// round). Each request's latency, and each round's wall time, is the
/// median of its values across the episodes; the percentiles and the
/// throughput are taken over those medians. Host interference that
/// slows some episodes at some point then cannot reach the result unless
/// it hits most episodes at that same point. `setup_s` is the median
/// over every episode, warm-up included.
fn end_to_end(all: &[Summary], peak_rss_mb: f64, scale: impl Fn(&Summary) -> f64) -> Metrics {
    let eps: Vec<&Summary> = all.iter().filter(|s| s.role == Role::Counted).collect();
    let scales: Vec<f64> = eps.iter().map(|s| scale(s)).collect();
    let across = |f: fn(&Measured) -> &Vec<u64>| -> Vec<u64> {
        let scaled: Vec<Vec<u64>> = eps
            .iter()
            .zip(&scales)
            .map(|(s, &k)| {
                f(&s.measured)
                    .iter()
                    .map(|&v| (v as f64 * k) as u64)
                    .collect()
            })
            .collect();
        elementwise_median(&scaled.iter().collect::<Vec<_>>())
    };
    let (w50, w99) = p50_p99(&mut across(|m| &m.write_ns));
    let (r50, r99) = p50_p99(&mut across(|m| &m.read_ns));
    let round_ns: u64 = across(|m| &m.round_ns).iter().sum();
    let ok = median(&eps.iter().map(|s| s.measured.ok as f64).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("throughput_rps", ratio(ok, round_ns as f64 / 1e9), "1/s");
    m.put("write_p50_us", w50 / 1e3, "us");
    m.put("write_p99_us", w99 / 1e3, "us");
    m.put("read_p50_ns", r50, "ns");
    m.put("read_p99_ns", r99, "ns");
    let setups: Vec<f64> = all.iter().map(|s| s.setup_s * scale(s)).collect();
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// Position-wise median of equally long sample vectors.
fn elementwise_median(vectors: &[&Vec<u64>]) -> Vec<u64> {
    let len = vectors.iter().map(|v| v.len()).min().unwrap_or(0);
    let mut column = Vec::with_capacity(vectors.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(vectors.iter().map(|v| v[i]));
            column.sort_unstable();
            let k = column.len();
            (column[(k - 1) / 2] + column[k / 2]) / 2
        })
        .collect()
}

/// Nanosecond samples of `(start, end)` intervals.
fn interval_ns(v: &[(Instant, Instant)]) -> Vec<u64> {
    v.iter().map(|&(a, b)| nanos(b - a)).collect()
}

#[allow(clippy::too_many_lines)]
fn layer_metrics(
    spec: &Spec,
    all: &[Summary],
    rep: &Replays,
    work: &Path,
    origin: Instant,
) -> Metrics {
    let traced: Vec<&Summary> = all.iter().filter(|s| s.role == Role::Counted).collect();
    let baseline: Vec<&Summary> = all.iter().filter(|s| s.role == Role::Baseline).collect();
    let Some(last) = traced.last() else {
        return Metrics::default();
    };
    let pool = |f: fn(&Measured) -> &Vec<u64>| -> Vec<u64> {
        traced
            .iter()
            .flat_map(|s| f(&s.measured).iter().copied())
            .collect()
    };
    let sum = |f: fn(&Measured) -> u64| -> u64 { traced.iter().map(|s| f(&s.measured)).sum() };
    let wall_ns = sum(|m| m.wall_ns) as f64;
    let ticks = sum(|m| m.ticks) as f64;
    let n_traced = traced.len() as f64;
    let d = |id| delta(&last.obs_after, &last.obs_before, id) as f64;

    let mut tick = pool(|m| &m.tick_ns);
    let tick_total: u64 = tick.iter().sum();
    let (tick50, tick99) = p50_p99(&mut tick);
    let (submit50, _) = p50_p99(&mut pool(|m| &m.submit_write_ns));
    let (tally50, _) = p50_p99(&mut pool(|m| &m.tally_ns));
    let (rec50, _) = p50_p99(&mut pool(|m| &m.recommend_ns));
    let mut seal = rep.seal_ns.clone();
    let seal_total: u64 = seal.iter().sum();
    let (seal50, seal99) = p50_p99(&mut seal);
    let last_wall = last.measured.wall_ns as f64;

    let mut m = Metrics::default();
    m.put("service.tick_p50_us", tick50 / 1e3, "us");
    m.put("service.tick_p99_us", tick99 / 1e3, "us");
    m.put(
        "service.tick_share",
        ratio(tick_total as f64, wall_ns),
        "ratio",
    );
    m.put("service.submit_write_p50_ns", submit50, "ns");
    m.put(
        "service.writes_per_tick",
        ratio(sum(|m| m.writes) as f64, ticks),
        "count",
    );
    m.put(
        "service.pipeline_stalls",
        d(MetricId::PipelineStalls),
        "count",
    );
    m.put(
        "service.open_s",
        median(&all.iter().map(|s| s.open_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "model.generate_s",
        median(&all.iter().map(|s| s.generate_s).collect::<Vec<_>>()),
        "s",
    );
    m.put("billboard.probes_paid", d(MetricId::ProbesPaid), "count");
    m.put(
        "billboard.probes_memoized",
        d(MetricId::ProbesMemoized),
        "count",
    );
    m.put(
        "billboard.posts_published",
        d(MetricId::PostsPublished),
        "count",
    );
    m.put("snapshot.tally_p50_ns", tally50, "ns");
    m.put("snapshot.recommend_p50_ns", rec50, "ns");
    m.put("snapshot.seal_p50_us", seal50 / 1e3, "us");
    m.put("snapshot.seal_p99_us", seal99 / 1e3, "us");
    m.put(
        "snapshot.seal_share",
        ratio(seal_total as f64, last_wall),
        "ratio",
    );
    m.put("snapshot.objects", rep.objects as f64, "count");
    m.put("snapshot.entries", rep.entries as f64, "count");

    let (mut append, snap_ms, recover_ms, replayed) = match &rep.wal {
        Some(w) => (
            w.append_ns.clone(),
            median(&w.snapshot_write_ms),
            w.recover_ms,
            w.replayed_ticks as f64,
        ),
        None => (Vec::new(), 0.0, 0.0, 0.0),
    };
    let append_total: u64 = append.iter().sum();
    let (append50, append99) = p50_p99(&mut append);
    m.put("wal.append_p50_us", append50 / 1e3, "us");
    m.put("wal.append_p99_us", append99 / 1e3, "us");
    m.put(
        "wal.append_share",
        ratio(append_total as f64, last_wall),
        "ratio",
    );
    m.put("wal.snapshot_write_ms", snap_ms, "ms");
    m.put("wal.fsyncs", d(MetricId::WalFsyncs), "count");
    m.put(
        "wal.bytes_per_write",
        ratio(d(MetricId::WalBytes), last.measured.writes as f64),
        "B",
    );
    m.put("wal.recover_ms", recover_ms, "ms");
    m.put("wal.replayed_ticks", replayed, "count");

    // One relay wait per shard per tick: sum them tick by tick.
    let mut waits: Vec<u64> = Vec::new();
    for s in &traced {
        let per_end: Vec<Vec<u64>> = s
            .measured
            .recv_waits
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| interval_ns(v))
            .collect();
        let n = per_end.iter().map(Vec::len).min().unwrap_or(0);
        waits.extend((0..n).map(|i| per_end.iter().map(|v| v[i]).sum::<u64>()));
    }
    let (wait50, _) = p50_p99(&mut waits);
    let mut turns: Vec<u64> = traced
        .iter()
        .flat_map(|s| interval_ns(&s.measured.batch_turns))
        .collect();
    let (turn50, turn99) = p50_p99(&mut turns);
    let reads = sum(|m| m.reads + m.recommends) as f64;
    m.put("relay.recv_wait_p50_us", wait50 / 1e3, "us");
    m.put("shard.batch_p50_us", turn50 / 1e3, "us");
    m.put("shard.batch_p99_us", turn99 / 1e3, "us");
    m.put(
        "wire.bytes_per_tick",
        ratio(sum(|m| m.wire_bytes) as f64, ticks),
        "B",
    );
    m.put(
        "relay.frames_per_read",
        ratio(sum(|m| m.read_frames) as f64, reads),
        "count",
    );
    m.put("relay.batches", d(MetricId::RelayBatches), "count");
    m.put("relay.rank_merges", d(MetricId::RelayRankMerges), "count");
    m.put(
        "relay.desync_latches",
        last.obs_after.get(MetricId::DesyncLatches) as f64,
        "count",
    );

    let mut usage = Usage::default();
    for s in &traced {
        usage.add(s.usage);
    }
    m.put("os.cpu_user_s", usage.user_s / n_traced, "s");
    m.put("os.cpu_sys_s", usage.sys_s / n_traced, "s");
    m.put(
        "os.ctx_switches_per_tick",
        ratio(usage.ctx_switches as f64, ticks),
        "count",
    );
    m.put(
        "os.minflt_per_tick",
        ratio(usage.minflt as f64, ticks),
        "count",
    );
    let in_calls = (sum(|m| m.submit_ns_total) + tick_total) as f64;
    m.put(
        "load.driver_share",
        ratio(wall_ns - in_calls, wall_ns),
        "ratio",
    );
    let base_wall = baseline.iter().map(|s| s.measured.wall_ns).sum::<u64>() as f64
        / baseline.len().max(1) as f64;
    m.put(
        "trace.overhead_pct",
        100.0 * (ratio(wall_ns / n_traced, base_wall) - 1.0),
        "%",
    );
    m.put("host.ref_kernel_us", kernel_us(&traced), "us");
    if let Err(e) = write_spans(spec, last, work, origin) {
        eprintln!("perfbench: spans not written: {e}");
    }
    m
}

/// Write the last traced episode's spans as TSV next to the work
/// directory, one per line: `name start_ns end_ns parent req`. Link-tap
/// intervals follow the load loop's spans, with no parent.
fn write_spans(spec: &Spec, ep: &Summary, work: &Path, origin: Instant) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::from("name\tstart_ns\tend_ns\tparent\treq\n");
    for s in &ep.measured.spans {
        let parent = if s.parent == u64::MAX {
            -1
        } else {
            s.parent as i64
        };
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        );
    }
    let rel = |t: Instant| nanos(t.saturating_duration_since(origin));
    let waits = ep
        .measured
        .recv_waits
        .iter()
        .flatten()
        .map(|w| ("relay.recv_wait", w));
    let turns = ep.measured.batch_turns.iter().map(|t| ("shard.batch", t));
    for (name, &(a, b)) in waits.chain(turns) {
        let _ = writeln!(text, "{name}\t{}\t{}\t-1\t0", rel(a), rel(b));
    }
    let dir = work.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("spans-{}.tsv", spec.name)), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_median_takes_each_position_separately() {
        let a = vec![1, 10, 100];
        let b = vec![3, 30, 300];
        let c = vec![2, 20, 900];
        assert_eq!(elementwise_median(&[&a, &b, &c]), vec![2, 20, 300]);
        // An even count averages the two middle values.
        assert_eq!(elementwise_median(&[&a, &b]), vec![2, 20, 200]);
        // A shorter vector bounds the result.
        let short = vec![5];
        assert_eq!(elementwise_median(&[&a, &short]), vec![3]);
    }

    fn summary(role: Role, kernel_ns: u64, round_ns: u64, setup_s: f64) -> Summary {
        Summary {
            role,
            setup_s,
            generate_s: 0.0,
            open_s: 0.0,
            measured: Measured {
                ok: 4,
                write_ns: vec![round_ns; 2],
                read_ns: vec![100; 2],
                round_ns: vec![round_ns; 2],
                kernel_ns: vec![kernel_ns; 3],
                ..Measured::default()
            },
            usage: Usage::default(),
            obs_before: MetricSnapshot::default(),
            obs_after: MetricSnapshot::default(),
        }
    }

    #[test]
    fn times_are_reported_at_the_reference_speed() {
        let k = reference::REFERENCE_NS as u64;
        // The second episode ran on a host twice as slow: its kernel and
        // its rounds both took twice as long.
        let eps = [
            summary(Role::Warmup, k, 0, 0.5),
            summary(Role::Counted, k, 1_000_000, 0.5),
            summary(Role::Counted, 2 * k, 2_000_000, 1.0),
        ];
        let line = end_to_end(&eps, 1.0, Summary::speed_scale).result_line(true, 1, 0);
        for metric in [
            "\"throughput_rps\": {\"value\": 2000.0,",
            "\"write_p50_us\": {\"value\": 1000.0,",
            "\"setup_s\": {\"value\": 0.5,",
        ] {
            assert!(line.contains(metric), "{metric} not in {line}");
        }
        let raw = end_to_end(&eps, 1.0, |_| 1.0).result_line(true, 1, 0);
        assert!(
            raw.contains("\"throughput_rps\": {\"value\": 1333.3"),
            "{raw}"
        );
    }

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload sharded_durable --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("sharded_durable", 7, 30, true)
        );
        for spec in WORKLOADS {
            assert!(parse(&format!("--workload {} --seed 1", spec.name)).is_ok());
        }
        for bad in [
            "--workload nope --seed 1",
            "--workload board_large",
            "--workload board_large --seed x",
            "--workload board_large --seed 1 --bogus 2",
            "--workload board_large --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
