//! CLI subcommand implementations (pure: take parsed args + an
//! instance source, return the text to print — so everything here is
//! unit-testable without a process boundary).

use crate::args::{ArgError, Args};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tmwia_baselines::{
    knn_billboard, one_good_object, oracle_community, solo, spectral_reconstruct, KnnConfig,
    SpectralConfig,
};
use tmwia_billboard::{FaultPlan, PlayerId, ProbeEngine};
use tmwia_core::{anytime, community_hierarchy, reconstruct_known, reconstruct_unknown_d, Params};
use tmwia_model::generators::{
    adversarial_clusters, bernoulli_types, nested_communities, orthogonal_types, planted_community,
    uniform_noise, Instance,
};
use tmwia_model::io::{read_instance, write_instance};
use tmwia_model::metrics::CommunityReport;
use tmwia_model::BitVec;

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Flag parsing / validation.
    Args(ArgError),
    /// Instance (de)serialization.
    Io(String),
    /// Anything else with a message.
    Other(String),
    /// A gate that must exit with a specific process status (the bench
    /// `--compare` contract: 3 = unusable baseline, 4 = regression).
    Status {
        /// Process exit code.
        code: i32,
        /// What to print on stderr.
        message: String,
    },
}

impl CliError {
    /// The process exit code this error maps to (generic errors: 1).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Status { code, .. } => *code,
            _ => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Other(e) => write!(f, "{e}"),
            CliError::Status { message, .. } => write!(f, "{message}"),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
tmwia — Tell Me Who I Am (SPAA'06) interactive recommendation system

USAGE:
  tmwia generate   --kind planted|clusters|types|bernoulli|noise|nested
                   [--n 512] [--m 512] [--k n/2] [--d 8] [--clusters 8]
                   [--noise 0.02] [--seed 1] --out FILE
  tmwia inspect    --instance FILE
  tmwia run        --instance FILE | (generation flags as above)
                   [--algorithm auto|zero|small|large|unknown-d|anytime|
                                lockstep-zero|solo|oracle|knn|spectral|one-good]
                   [--alpha 0.5] [--d 8] [--budget m/4] [--seed 1] [--theory]
                   [--faults none|flip=EPS,crash=FRAC[@ROUND],lag=L,budget=B,seed=S]
                   (--faults installs a deterministic fault plan: probe-
                    answer flips, crash-stop players, stale billboard
                    reads, probe budgets; `none` is bit-identical to no
                    flag)
  tmwia communities --instance FILE [--scales 2,8,32] [--min-size 3]
                   (clusters the TRUE matrix rows; add --run to cluster
                    reconstructed outputs instead)
  tmwia exp        --id e1..e19|all [--full] [--seed N]
                   (regenerates the EXPERIMENTS.md tables; quick scale
                    by default)
  tmwia serve      [--port 4206] [--batch 64] [--queue 256] [--seed 1]
                   [--max-ticks 0] [--tick-ms 1] [--wal-dir DIR]
                   [--snapshot-every 64] [--shards N] [--metrics-out FILE]
                   (generation flags as above)
                   — serve the billboard over TCP; --max-ticks 0 runs
                    until a Shutdown request; --port 0 picks an
                    ephemeral port (printed on the first line);
                    --wal-dir makes ticks durable: every batch is
                    logged (and state snapshotted every K ticks) before
                    execution, and a restart with the same directory
                    recovers the pre-crash state byte-identically;
                    --shards N runs N shard worker processes behind a
                    state-free relay (seeded object partition, per-tick
                    control-checksum desync gate); with --wal-dir each
                    shard logs to DIR/shard-i and a relay restart
                    re-handshakes and resumes from the shards' WALs;
                    --metrics-out writes the final obs registry export
                    (deterministic fields first, wall-clock quarantined
                    in a trailing \"timing\" object) as JSON on shutdown
  tmwia load       [--sessions 8] [--requests 32] [--seed 1]
                   [--mix probe=0.6,post=0.2,read=0.1,recommend=0.1]
                   [--addr HOST:PORT] [--shutdown] [--wal-dir DIR]
                   [--halt-after 0] [--shards N] [--metrics-out FILE]
                   — closed-loop load generator. With --addr: drive a
                    live server over TCP (wall-clock latencies; add
                    --shutdown to stop the server afterwards). Without:
                    run in-process on a generated instance — output is
                    deterministic and byte-identical across thread
                    pools. --wal-dir logs the run and, on restart,
                    replays it to the crash point and finishes it (the
                    recovery-time metric is printed); --halt-after R
                    abandons the run after R rounds to simulate a crash;
                    --shards N drives an in-process sharded topology —
                    identical output plus a trailing shardsum/shardstate
                    checksum block; --metrics-out writes the driven
                    topology's merged obs registry as JSON — its
                    workload section is byte-identical across thread
                    pools AND shard counts (CI diffs it)
  tmwia stats      ADDR | --addr HOST:PORT
                   — query a live server's metric registry over TCP;
                    against `serve --shards N` the relay answers with
                    the deterministic merge of every shard's registry
                    (Sum/Max per metric, name-space fingerprint
                    checked)
  tmwia bench      [--label smoke] [--seed 20060730] [--scale quick|full]
                   [--out FILE] [--compare BASELINE.json]
                   [--threshold-pct 25] [--scenario core|shard]
                   — serving-layer benchmark harness: load-style
                    workloads plus seal / WAL / recommend-kernel
                    micro-benches, written as schema-versioned JSON
                    (deterministic fields first, wall-clock timings in
                    a single trailing \"timing\" object). --compare
                    gates against a baseline report: exit 3 if the
                    baseline is unusable (unparseable, wrong schema or
                    config), exit 4 on regression (any deterministic
                    field drift, or timings beyond --threshold-pct).
                    --scenario shard runs 1/2/4-shard topologies
                    against a single-process reference (equivalence is
                    a hard error) and writes BENCH_shard.json
  tmwia help

Instances use the plain-text `tmwia-instance v1` format.
";

/// Build an instance from generation flags.
pub fn generate_instance(args: &Args) -> Result<Instance, CliError> {
    let n: usize = args.num_or("n", 512)?;
    let m: usize = args.num_or("m", n)?;
    let k: usize = args.num_or("k", n / 2)?;
    let d: usize = args.num_or("d", 8)?;
    let seed: u64 = args.num_or("seed", 1)?;
    let kind = args.str_or("kind", "planted");
    let inst = match kind.as_str() {
        "planted" => planted_community(n, m, k, d, seed),
        "clusters" => {
            let c: usize = args.num_or("clusters", 8)?;
            adversarial_clusters(n, m, c, d, seed)
        }
        "types" => {
            let t: usize = args.num_or("clusters", 4)?;
            let noise: f64 = args.num_or("noise", 0.02)?;
            orthogonal_types(n, m, t, noise, seed)
        }
        "bernoulli" => {
            let t: usize = args.num_or("clusters", 4)?;
            bernoulli_types(n, m, t, seed)
        }
        "noise" => uniform_noise(n, m, seed),
        "nested" => nested_communities(n, m, &[(k, d), (k / 2, d / 4 + 1)], seed),
        other => {
            return Err(CliError::Other(format!(
                "unknown --kind '{other}' (planted|clusters|types|bernoulli|noise|nested)"
            )))
        }
    };
    Ok(inst)
}

/// Load `--instance FILE`, or generate from flags when absent.
pub fn load_or_generate(args: &Args) -> Result<Instance, CliError> {
    match args.str_req("instance") {
        Ok(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Io(format!("reading {path}: {e}")))?;
            read_instance(&text).map_err(|e| CliError::Io(format!("parsing {path}: {e}")))
        }
        Err(_) => generate_instance(args),
    }
}

/// `tmwia generate`.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let inst = generate_instance(args)?;
    let out_path = args.str_req("out")?;
    std::fs::write(&out_path, write_instance(&inst))
        .map_err(|e| CliError::Io(format!("writing {out_path}: {e}")))?;
    Ok(format!(
        "wrote {out_path}: {} ({} communities)\n",
        inst.descriptor,
        inst.communities.len()
    ))
}

/// `tmwia inspect` — also reused by `run` for the header.
pub fn describe_instance(inst: &Instance) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "instance : {}", inst.descriptor);
    let _ = writeln!(s, "size     : n = {}, m = {}", inst.n(), inst.m());
    if inst.communities.is_empty() {
        let _ = writeln!(s, "structure: no planted communities");
    }
    for (i, c) in inst.communities.iter().enumerate() {
        let realized = inst.truth.diameter_of(c);
        let _ = writeln!(
            s,
            "community {i}: |P*| = {} (α = {:.3}), target D ≤ {}, realized D = {}",
            c.len(),
            c.len() as f64 / inst.n() as f64,
            inst.target_diameters.get(i).copied().unwrap_or(0),
            realized
        );
    }
    s
}

/// `tmwia run` — execute an algorithm and report per-community quality
/// and cost.
pub fn cmd_run(args: &Args) -> Result<String, CliError> {
    let inst = load_or_generate(args)?;
    let n = inst.n();
    let m = inst.m();
    let seed: u64 = args.num_or("seed", 1)?;
    let default_alpha = if inst.communities.is_empty() {
        0.5
    } else {
        inst.alpha()
    };
    let alpha: f64 = args.num_or("alpha", default_alpha)?;
    let d: usize = args.num_or("d", inst.target_diameters.first().copied().unwrap_or(8))?;
    let budget: usize = args.num_or("budget", (m / 4).max(8))?;
    let params = if args.has("theory") {
        Params::theory()
    } else {
        Params::practical()
    };
    let algorithm = args.str_or("algorithm", "auto");
    let players: Vec<PlayerId> = (0..n).collect();
    let plan = FaultPlan::parse(&args.str_or("faults", "none"), seed).map_err(CliError::Other)?;
    let engine = ProbeEngine::with_faults(inst.truth.clone(), plan);

    // Algorithms whose report is self-contained return text directly;
    // the rest hand back per-player outputs for the shared report.
    enum Computed {
        Done(String),
        Outputs(BTreeMap<PlayerId, BitVec>),
    }
    let run_alg = || -> Result<Computed, CliError> {
        Ok(Computed::Outputs(match algorithm.as_str() {
            "auto" => reconstruct_known(&engine, &players, alpha, d, &params, seed).outputs,
            "zero" => reconstruct_known(&engine, &players, alpha, 0, &params, seed).outputs,
            "small" | "large" => {
                // Force the branch by clamping d to its regime.
                let forced = if algorithm == "small" {
                    d.min(params.small_large_threshold(n)).max(1)
                } else {
                    d.max(params.small_large_threshold(n) + 1)
                };
                reconstruct_known(&engine, &players, alpha, forced, &params, seed).outputs
            }
            "unknown-d" => reconstruct_unknown_d(&engine, &players, alpha, &params, seed).outputs,
            "anytime" => {
                let phases: usize = args.num_or("phases", 3)?;
                anytime(&engine, &players, phases, &params, seed)
                    .final_outputs()
                    .clone()
            }
            "solo" => solo(&engine, &players),
            "oracle" => {
                if inst.communities.is_empty() {
                    return Err(CliError::Other(
                        "oracle needs a planted community in the instance".into(),
                    ));
                }
                oracle_community(&engine, inst.community(), 1, seed)
            }
            "knn" => knn_billboard(
                &engine,
                &players,
                &KnnConfig {
                    probes_per_player: budget,
                    neighbours: 5,
                    min_overlap: 3,
                },
                seed,
            ),
            "spectral" => spectral_reconstruct(
                &engine,
                &players,
                &SpectralConfig {
                    probes_per_player: budget,
                    rank: args.num_or("rank", 4)?,
                    iterations: 25,
                },
                seed,
            ),
            "lockstep-zero" => {
                let objects: Vec<usize> = (0..m).collect();
                let res = tmwia_core::lockstep_zero_radius(
                    &engine, &players, &objects, alpha, &params, n, seed,
                );
                let mut s = describe_instance(&inst);
                let _ = writeln!(
                s,
                "lockstep : {} wall-clock rounds (probes + barrier waits); max probes/player {}",
                res.rounds,
                engine.max_probes()
            );
                let dense: Vec<BitVec> = (0..n)
                    .map(|p| {
                        res.outputs
                            .get(&p)
                            .map_or_else(|| BitVec::zeros(m), |vals| BitVec::from_bools(vals))
                    })
                    .collect();
                for (i, c) in inst.communities.iter().enumerate() {
                    let report = CommunityReport::evaluate(&inst.truth, &dense, c);
                    let _ = writeln!(
                        s,
                        "community {i}: \u{394} = {:>4}, \u{3c1} = {:>6.2}, mean err = {:>7.1}",
                        report.discrepancy, report.stretch, report.mean_error
                    );
                }
                return Ok(Computed::Done(s));
            }
            "one-good" => {
                let res = one_good_object(&engine, &players, (4 * m) as u64, seed);
                let mut s = describe_instance(&inst);
                let _ = writeln!(
                    s,
                    "one-good : {}/{} players found a liked object in {} rounds ({} total probes)",
                    res.found.len(),
                    n,
                    res.rounds,
                    engine.total_probes()
                );
                return Ok(Computed::Done(s));
            }
            other => {
                return Err(CliError::Other(format!(
                    "unknown --algorithm '{other}' (see `tmwia help`)"
                )))
            }
        }))
    };
    // Fault-injected runs use the same parallel schedule as clean ones:
    // crash/budget deadness resolves against per-round LivenessEpoch
    // snapshots and the part/group fan-outs phase themselves under a
    // fault plan, so the output is schedule-independent (byte-identical
    // to the single-worker oracle; see tests/fault_determinism.rs).
    let computed = run_alg()?;
    let outputs = match computed {
        Computed::Done(s) => return Ok(s),
        Computed::Outputs(o) => o,
    };

    let mut s = describe_instance(&inst);
    let _ = writeln!(s, "algorithm: {algorithm} (seed {seed})");
    if let Some(f) = engine.fault_state() {
        let ledger = engine.ledger();
        let _ = writeln!(
            s,
            "faults   : {} — {} crashed, {} flipped, {} denied probes",
            f.plan().describe(),
            engine.crashed_players().len(),
            ledger.flipped_total(),
            ledger.denied_total()
        );
    }
    let dense: Vec<BitVec> = (0..n)
        .map(|p| outputs.get(&p).cloned().unwrap_or_else(|| BitVec::zeros(m)))
        .collect();
    if inst.communities.is_empty() {
        let mean: f64 = (0..n)
            .map(|p| dense[p].hamming(inst.truth.row(p)) as f64)
            .sum::<f64>()
            / n as f64;
        let _ = writeln!(
            s,
            "quality  : mean error {mean:.1} per player (no community)"
        );
    }
    for (i, c) in inst.communities.iter().enumerate() {
        let report = CommunityReport::evaluate(&inst.truth, &dense, c);
        let rounds = c.iter().map(|&p| engine.probes_of(p)).max().unwrap_or(0);
        let _ = writeln!(
            s,
            "community {i}: Δ = {:>4}, ρ = {:>6.2}, mean err = {:>7.1}, rounds ≤ {rounds}",
            report.discrepancy, report.stretch, report.mean_error
        );
    }
    if engine.fault_state().is_some() {
        // The graceful-degradation promise is about survivors: crashed
        // members can't meet any bound, so report the community metrics
        // restricted to its non-crashed mass too.
        let crashed = engine.crashed_players();
        for (i, c) in inst.communities.iter().enumerate() {
            let surv: Vec<PlayerId> = c.iter().copied().filter(|p| !crashed.contains(p)).collect();
            if surv.is_empty() || surv.len() == c.len() {
                continue;
            }
            let report = CommunityReport::evaluate(&inst.truth, &dense, &surv);
            let _ = writeln!(
                s,
                "survivors {i}: |S| = {:>4}, Δ = {:>4}, ρ = {:>6.2}, mean err = {:>7.1}",
                surv.len(),
                report.discrepancy,
                report.stretch,
                report.mean_error
            );
        }
    }
    let _ = writeln!(
        s,
        "cost     : total probes {}, max/player {} (solo: {m})",
        engine.total_probes(),
        engine.max_probes()
    );
    Ok(s)
}

/// `tmwia communities`.
pub fn cmd_communities(args: &Args) -> Result<String, CliError> {
    let inst = load_or_generate(args)?;
    let scales_raw = args.str_or("scales", "2,8,32");
    let scales: Result<Vec<usize>, _> = scales_raw.split(',').map(|x| x.trim().parse()).collect();
    let scales = scales.map_err(|_| CliError::Other(format!("bad --scales '{scales_raw}'")))?;
    let min_size: usize = args.num_or("min-size", 3)?;

    // Cluster either the hidden truth (default: structure discovery on
    // the generated world) or the algorithm's reconstructed outputs.
    let outputs: BTreeMap<PlayerId, BitVec> = if args.flags_has_run() {
        let seed: u64 = args.num_or("seed", 1)?;
        let alpha: f64 = args.num_or("alpha", 0.25)?;
        let d: usize = args.num_or("d", 8)?;
        let engine = ProbeEngine::new(inst.truth.clone());
        let players: Vec<PlayerId> = (0..inst.n()).collect();
        reconstruct_known(&engine, &players, alpha, d, &Params::practical(), seed).outputs
    } else {
        (0..inst.n())
            .map(|p| (p, inst.truth.row(p).clone()))
            .collect()
    };

    let ladder = community_hierarchy(&outputs, &scales, min_size);
    let mut s = describe_instance(&inst);
    for clustering in &ladder {
        let _ = writeln!(
            s,
            "scale D = {:>4}: {} communities",
            clustering.scale,
            clustering.communities.len()
        );
        for c in clustering.communities.iter().take(8) {
            let _ = writeln!(
                s,
                "    rep {:>5} → {} members",
                c.representative,
                c.members.len()
            );
        }
        if clustering.communities.len() > 8 {
            let _ = writeln!(s, "    … {} more", clustering.communities.len() - 8);
        }
    }
    Ok(s)
}

impl Args {
    /// `--run` is value-less but not in the switch list (it would
    /// swallow the next flag); treat "run" specially via string flag
    /// `--cluster-source run` OR presence of a `run` value.
    fn flags_has_run(&self) -> bool {
        self.str_or("cluster-source", "truth") == "run"
    }
}

/// `tmwia exp` — run one (or all) of the E-series experiments.
pub fn cmd_exp(args: &Args) -> Result<String, CliError> {
    use tmwia_sim::experiments::{all, ExpConfig};
    let id = args.str_or("id", "all");
    let seed: u64 = args.num_or("seed", 20060730)?;
    let cfg = if args.str_or("scale", "quick") == "full" {
        ExpConfig::full(seed)
    } else {
        ExpConfig::quick(seed)
    };
    let registry = all();
    let selected: Vec<_> = if id == "all" {
        registry
    } else {
        let found: Vec<_> = registry.into_iter().filter(|(i, _, _)| *i == id).collect();
        if found.is_empty() {
            return Err(CliError::Other(format!(
                "unknown experiment id '{id}' (e1..e19 or all)"
            )));
        }
        found
    };
    let mut out = String::new();
    for (_, _, runner) in selected {
        let _ = writeln!(out, "{}", runner(&cfg).render());
    }
    Ok(out)
}

/// Shared serve/load service construction from generation flags. With
/// `--wal-dir` the service recovers from (and keeps logging to) a
/// write-ahead log; the report says what was replayed, and the third
/// element is the wall-clock recovery time in milliseconds.
fn build_service(
    args: &Args,
    capture: bool,
) -> Result<
    (
        tmwia_service::Service,
        Option<tmwia_service::RecoveryReport>,
        u128,
    ),
    CliError,
> {
    use tmwia_service::{Durability, RecoverOptions, Service, ServiceConfig};
    let inst = load_or_generate(args)?;
    let cfg = ServiceConfig {
        batch_size: args.num_or("batch", 64usize)?,
        queue_capacity: args.num_or("queue", 256usize)?,
        seed: args.num_or("seed", 1u64)?,
        ..ServiceConfig::default()
    };
    if let Ok(dir) = args.str_req("wal-dir") {
        let durability = Durability {
            dir: std::path::PathBuf::from(dir),
            snapshot_every: args.num_or("snapshot-every", 64u64)?,
        };
        // lint:allow(determinism) the recovery-time metric is wall-clock by nature
        let t0 = std::time::Instant::now();
        let (svc, report) = Service::recover(
            inst.truth.clone(),
            cfg,
            &durability,
            RecoverOptions {
                use_snapshot: true,
                capture,
            },
        )
        .map_err(|e| CliError::Other(e.to_string()))?;
        Ok((svc, Some(report), t0.elapsed().as_millis()))
    } else {
        Service::new(inst.truth.clone(), cfg)
            .map(|svc| (svc, None, 0))
            .map_err(|e| CliError::Other(e.to_string()))
    }
}

/// The `recovery: …` summary line both durable commands print.
fn recovery_line(report: &tmwia_service::RecoveryReport, ms: u128) -> String {
    format!(
        "recovery: replayed {} ticks / {} requests ({} torn bytes dropped), snapshot tick {}, in {ms} ms\n",
        report.replayed_ticks, report.replayed_requests, report.truncated_bytes, report.snapshot_tick
    )
}

/// Honour `--metrics-out FILE`: write the obs export document (built
/// lazily — most runs never ask for it) and return the line to print,
/// or `None` when the flag is absent.
fn metrics_out_line(
    args: &Args,
    render: impl FnOnce() -> String,
) -> Result<Option<String>, CliError> {
    let Ok(path) = args.str_req("metrics-out") else {
        return Ok(None);
    };
    std::fs::write(&path, render()).map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
    Ok(Some(format!("metrics written to {path}\n")))
}

/// Query a live server's metric registry over TCP (the `tmwia stats`
/// backend, also reused by `tmwia load --addr … --metrics-out`). The
/// name-space fingerprint is verified before zipping values onto
/// names, so version skew is a typed error, never a mislabelled table.
fn fetch_remote_metrics(addr: &str) -> Result<tmwia_obs::MetricSnapshot, CliError> {
    use tmwia_service::{Request, Response, TcpTransport, Transport as _};
    let mut t = TcpTransport::connect(addr)
        .map_err(|e| CliError::Other(format!("connecting {addr}: {e}")))?;
    t.send(0, &Request::Metrics)
        .map_err(|e| CliError::Other(e.to_string()))?;
    let (_, resp) = t.recv().map_err(|e| CliError::Other(e.to_string()))?;
    match resp {
        Response::Metrics { namespace, values } => {
            let expected = tmwia_obs::metrics::namespace_fingerprint();
            if namespace != expected {
                return Err(CliError::Other(format!(
                    "metric name space mismatch: server {namespace:016x}, \
                     client {expected:016x} (version skew)"
                )));
            }
            tmwia_obs::MetricSnapshot::from_values(values).ok_or_else(|| {
                CliError::Other("metric value vector length does not match the name space".into())
            })
        }
        other => Err(CliError::Other(format!(
            "unexpected reply to a Metrics request: {other:?}"
        ))),
    }
}

/// `tmwia stats` — print a live server's metric registry, grouped by
/// scope in the static sorted name-space order.
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    use tmwia_obs::{Scope, METRICS};
    let addr = match args.positional(0) {
        Some(a) => a.to_string(),
        None => args.str_req("addr").map_err(|_| {
            CliError::Other("stats needs an address: `tmwia stats HOST:PORT`".into())
        })?,
    };
    let snap = fetch_remote_metrics(&addr)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics from {addr} (namespace fnv64 {:016x})",
        tmwia_obs::metrics::namespace_fingerprint()
    );
    for (section, scope) in [("workload", Scope::Workload), ("node", Scope::Node)] {
        let _ = writeln!(out, "{section}:");
        for (i, def) in METRICS.iter().enumerate() {
            if def.scope == scope {
                let _ = writeln!(out, "  {}: {}", def.name, snap.values()[i]);
            }
        }
    }
    Ok(out)
}

/// Parse `--shards` when present. `None` means no flag (single-process
/// path); `--shards 1` still runs through the relay, which is what the
/// equivalence checks in CI diff against.
fn shards_flag(args: &Args) -> Result<Option<usize>, CliError> {
    match args.str_req("shards") {
        Err(_) => Ok(None),
        Ok(raw) => {
            let shards: usize = raw
                .parse()
                .map_err(|_| CliError::Other(format!("--shards: cannot parse '{raw}'")))?;
            if shards == 0 || shards > 64 {
                return Err(CliError::Other(format!(
                    "--shards must be in 1..=64, got {shards}"
                )));
            }
            Ok(Some(shards))
        }
    }
}

/// Build the N identical shard services plus the relay view of their
/// configuration (the in-process `tmwia load --shards` topology; the
/// multi-process `tmwia serve --shards` builds its services in the
/// child processes instead).
fn build_shard_services(
    args: &Args,
    shards: usize,
) -> Result<
    (
        Vec<std::sync::Arc<tmwia_service::Service>>,
        tmwia_service::RelayConfig,
    ),
    CliError,
> {
    use tmwia_service::{RelayConfig, Service, ServiceConfig};
    let inst = load_or_generate(args)?;
    let cfg = ServiceConfig {
        batch_size: args.num_or("batch", 64usize)?,
        queue_capacity: args.num_or("queue", 256usize)?,
        seed: args.num_or("seed", 1u64)?,
        ..ServiceConfig::default()
    };
    let services = (0..shards)
        .map(|_| {
            Service::new(inst.truth.clone(), cfg.clone())
                .map(std::sync::Arc::new)
                .map_err(|e| CliError::Other(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let relay_cfg = RelayConfig::for_service(&cfg, shards, inst.n(), inst.m());
    Ok((services, relay_cfg))
}

/// The flags a `tmwia shard` child must inherit so it builds a service
/// byte-identical to its siblings (plus its own WAL subdirectory).
fn shard_child_args(args: &Args, shard: usize) -> Result<Vec<String>, CliError> {
    let mut v = Vec::new();
    for key in [
        "kind",
        "n",
        "m",
        "k",
        "d",
        "clusters",
        "noise",
        "seed",
        "instance",
        "batch",
        "queue",
        "snapshot-every",
    ] {
        if let Ok(val) = args.str_req(key) {
            v.push(format!("--{key}"));
            v.push(val);
        }
    }
    if let Ok(dir) = args.str_req("wal-dir") {
        let sub = std::path::Path::new(&dir).join(format!("shard-{shard}"));
        std::fs::create_dir_all(&sub)
            .map_err(|e| CliError::Io(format!("creating {}: {e}", sub.display())))?;
        v.push("--wal-dir".into());
        v.push(sub.display().to_string());
    }
    Ok(v)
}

/// `tmwia serve` — run the TCP serving layer.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;
    use tmwia_service::{serve, ServeOptions};
    if let Some(shards) = shards_flag(args)? {
        return cmd_serve_sharded(args, shards);
    }
    let port: u16 = args.num_or("port", 4206u16)?;
    let opts = ServeOptions {
        tick_interval: std::time::Duration::from_millis(args.num_or("tick-ms", 1u64)?.max(1)),
        max_ticks: args.num_or("max-ticks", 0u64)?,
        tick_hook: None,
    };
    let (svc, report, recovery_ms) = build_service(args, false)?;
    let svc = std::sync::Arc::new(svc);
    // The CLI is the operational boundary: the only place a wall clock
    // is injected into a registry. Library and test paths never install
    // one, so their event timestamps stay 0 and reproducible.
    svc.obs()
        .install_clock(tmwia_obs::timing::wall_clock_micros);
    let (n, m) = (svc.n(), svc.m());
    let server = serve(
        std::sync::Arc::clone(&svc),
        &format!("127.0.0.1:{port}"),
        opts,
    )
    .map_err(|e| CliError::Other(e.to_string()))?;
    // Announce the address immediately (and flush: CI pipes stdout to a
    // file, so block buffering would starve the port scraper).
    if let Some(report) = &report {
        if report.replayed_ticks > 0 || report.truncated_bytes > 0 {
            print!("{}", recovery_line(report, recovery_ms));
        }
    }
    println!(
        "tmwia-service listening on {} (n = {n}, m = {m})",
        server.local_addr()
    );
    let _ = std::io::stdout().flush();
    let summary = server.join();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} requests ({} rejected) across {} ticks, {} sessions",
        summary.served, summary.rejected, summary.ticks, summary.sessions
    );
    if let Some(err) = svc.wal_health() {
        let _ = writeln!(out, "wal: persistence FAILED and stopped: {err}");
    }
    if let Some(panic) = &summary.ticker_panic {
        let _ = writeln!(out, "unclean shutdown (ticker thread panicked: {panic})");
    } else if summary.clean {
        let _ = writeln!(out, "clean shutdown");
    } else {
        let _ = writeln!(out, "unclean shutdown (a server thread panicked)");
    }
    if let Some(line) = metrics_out_line(args, || {
        tmwia_obs::render(&summary.obs, tmwia_obs::timing::wall_clock_micros())
    })? {
        out.push_str(&line);
    }
    Ok(out)
}

/// `tmwia serve --shards N` — the multi-process topology: this process
/// is the state-free relay (public TCP front + canonical batch
/// ordering + desync gate); each shard is a `tmwia shard` child built
/// from the same flags, connected back over an internal loopback
/// listener. With `--wal-dir DIR` each child logs to `DIR/shard-i`, so
/// killing the relay loses nothing: a restart re-handshakes with
/// freshly recovered shards and resumes at their maximum position.
fn cmd_serve_sharded(args: &Args, shards: usize) -> Result<String, CliError> {
    use std::io::Write as _;
    use tmwia_service::{
        serve, Relay, RelayConfig, ServeOptions, ServiceConfig, ShardedService, TcpLink,
    };
    let port: u16 = args.num_or("port", 4206u16)?;
    let opts = ServeOptions {
        tick_interval: std::time::Duration::from_millis(args.num_or("tick-ms", 1u64)?.max(1)),
        max_ticks: args.num_or("max-ticks", 0u64)?,
        tick_hook: None,
    };
    // The relay only needs the instance's shape, not a Service.
    let inst = load_or_generate(args)?;
    let scfg = ServiceConfig {
        batch_size: args.num_or("batch", 64usize)?,
        queue_capacity: args.num_or("queue", 256usize)?,
        seed: args.num_or("seed", 1u64)?,
        ..ServiceConfig::default()
    };
    let relay_cfg = RelayConfig::for_service(&scfg, shards, inst.n(), inst.m());
    let (n, m) = (inst.n(), inst.m());
    drop(inst);

    // Internal rendezvous listener the shard children dial back to.
    let internal = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CliError::Io(format!("binding the shard listener: {e}")))?;
    let internal_addr = internal
        .local_addr()
        .map_err(|e| CliError::Io(e.to_string()))?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("resolving the tmwia binary: {e}")))?;
    let mut children = Vec::with_capacity(shards);
    for i in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("shard")
            .arg("--relay")
            .arg(internal_addr.to_string())
            .arg("--shard")
            .arg(i.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .args(shard_child_args(args, i)?)
            .stdout(std::process::Stdio::null());
        children.push(
            cmd.spawn()
                .map_err(|e| CliError::Io(format!("spawning shard {i}: {e}")))?,
        );
    }
    let kill_all = |children: &mut Vec<std::process::Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };
    // Accept one connection per shard; a child that dies before
    // dialing in (bad flags, WAL refusal) fails the launch instead of
    // hanging it.
    // lint:allow(determinism) the launch deadline is operational, not on a determinism path
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    internal
        .set_nonblocking(true)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let mut links = Vec::with_capacity(shards);
    while links.len() < shards {
        match internal.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| CliError::Io(e.to_string()))?;
                let _ = stream.set_nodelay(true);
                links.push(TcpLink::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (i, c) in children.iter_mut().enumerate() {
                    if let Ok(Some(status)) = c.try_wait() {
                        kill_all(&mut children);
                        return Err(CliError::Other(format!(
                            "shard {i} exited during launch with {status}"
                        )));
                    }
                }
                // lint:allow(determinism) launch-deadline check, not an algorithm path
                if std::time::Instant::now() > deadline {
                    kill_all(&mut children);
                    return Err(CliError::Other(
                        "timed out waiting for the shards to connect".into(),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(CliError::Io(format!("accepting a shard link: {e}")));
            }
        }
    }
    let relay = match Relay::connect(links, relay_cfg) {
        Ok(r) => r,
        Err(e) => {
            kill_all(&mut children);
            return Err(CliError::Other(format!("shard handshake failed: {e}")));
        }
    };
    use tmwia_service::Serving as _;
    let svc = std::sync::Arc::new(ShardedService::new(relay));
    let tick0 = svc.current_tick();
    let server = match serve(
        std::sync::Arc::clone(&svc),
        &format!("127.0.0.1:{port}"),
        opts,
    ) {
        Ok(s) => s,
        Err(e) => {
            svc.disconnect();
            kill_all(&mut children);
            return Err(CliError::Other(e.to_string()));
        }
    };
    if tick0 > 0 {
        println!("resumed at tick {tick0} ({shards} shards re-handshaked)");
    }
    println!(
        "tmwia-relay listening on {} (n = {n}, m = {m}, {shards} shards)",
        server.local_addr()
    );
    let _ = std::io::stdout().flush();
    let summary = server.join();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} requests ({} rejected) across {} ticks, {} sessions",
        summary.served, summary.rejected, summary.ticks, summary.sessions
    );
    if let Some(fault) = svc.health() {
        let _ = writeln!(out, "fault: {fault}");
    }
    for line in svc.checksum_log() {
        let _ = writeln!(out, "{line}");
    }
    // Drop the links so every child observes EOF and exits, then reap.
    svc.disconnect();
    for mut c in children {
        let _ = c.wait();
    }
    if let Some(panic) = &summary.ticker_panic {
        let _ = writeln!(out, "unclean shutdown (ticker thread panicked: {panic})");
    } else if summary.clean {
        let _ = writeln!(out, "clean shutdown");
    } else {
        let _ = writeln!(out, "unclean shutdown (a server thread panicked)");
    }
    // `summary.obs` is the merged cross-shard registry, captured before
    // the links were dropped.
    if let Some(line) = metrics_out_line(args, || {
        tmwia_obs::render(&summary.obs, tmwia_obs::timing::wall_clock_micros())
    })? {
        out.push_str(&line);
    }
    Ok(out)
}

/// `tmwia shard` — the hidden worker subcommand `tmwia serve --shards`
/// spawns. Builds the shard's service (recovering from its own WAL
/// when `--wal-dir` is set), dials the relay, and serves broadcast
/// batches until the link closes. Not part of the public usage text:
/// its flag contract is owned by [`cmd_serve_sharded`].
fn cmd_shard(args: &Args) -> Result<String, CliError> {
    use tmwia_service::{run_shard_worker, TcpLink};
    let relay_addr = args.str_req("relay")?;
    let shard: u32 = args.num_or("shard", 0u32)?;
    let shards: u32 = args.num_or("shards", 1u32)?;
    let (svc, _report, _ms) = build_service(args, false)?;
    let stream = std::net::TcpStream::connect(&relay_addr)
        .map_err(|e| CliError::Io(format!("shard {shard} dialing {relay_addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let mut link = TcpLink::new(stream);
    run_shard_worker(&svc, shard, shards, &mut link)
        .map_err(|e| CliError::Other(format!("shard {shard}: {e}")))?;
    Ok(format!("shard {shard} exited cleanly\n"))
}

/// `tmwia load` — the closed-loop load generator.
pub fn cmd_load(args: &Args) -> Result<String, CliError> {
    use tmwia_obs::{LatencyHistogram, LoadReport};
    use tmwia_service::{run_deterministic, run_durable, run_tcp, ClientMix, LoadConfig};
    let mix_spec = args.str_or("mix", "probe=0.6,post=0.2,read=0.1,recommend=0.1");
    let mix = ClientMix::parse(&mix_spec).map_err(CliError::Other)?;
    let cfg = LoadConfig {
        sessions: args.num_or("sessions", 8usize)?,
        requests: args.num_or("requests", 32usize)?,
        mix,
        seed: args.num_or("seed", 1u64)?,
        recommend_count: args.num_or("recommend", 8u16)?,
        objects: args.num_or("m", args.num_or("n", 512usize)?)?,
        halt_after_rounds: match args.num_or("halt-after", 0usize)? {
            0 => None,
            r => Some(r),
        },
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "load: {} sessions x {} requests, mix {} (seed {})",
        cfg.sessions,
        cfg.requests,
        cfg.mix.describe(),
        cfg.seed
    );
    if let Ok(addr) = args.str_req("addr") {
        // TCP mode: wall-clock latencies against a live server. With
        // --metrics-out the server's (merged, for a sharded topology)
        // registry is queried after the run and exported alongside the
        // load section.
        let res = run_tcp(&addr, &cfg).map_err(|e| CliError::Other(e.to_string()))?;
        let mut hist = LatencyHistogram::new();
        hist.record_all(res.samples.iter().copied());
        let obs = if args.str_req("metrics-out").is_ok() {
            tmwia_obs::ObsReport {
                metrics: fetch_remote_metrics(&addr)?,
                ..tmwia_obs::ObsReport::default()
            }
        } else {
            tmwia_obs::ObsReport::default()
        };
        let report = LoadReport {
            submitted: res.submitted,
            ok: res.ok,
            busy: res.busy,
            errors: res.errors,
            ticks: None,
            latency_unit: "us",
            hist,
            by_kind: res
                .by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            state_fnv64: None,
            wall_micros: res.wall_micros,
            obs,
        };
        out.push_str(&report.render_text());
        if let Some(line) = metrics_out_line(args, || {
            report.render_json(tmwia_obs::timing::wall_clock_micros())
        })? {
            out.push_str(&line);
        }
        if args.has("shutdown") {
            use tmwia_service::{Request, TcpTransport, Transport as _};
            let mut t = TcpTransport::connect(&addr).map_err(|e| CliError::Other(e.to_string()))?;
            t.send(0, &Request::Shutdown)
                .map_err(|e| CliError::Other(e.to_string()))?;
            let _ = t.recv();
            let _ = writeln!(out, "shutdown requested");
        }
    } else {
        // In-process mode: deterministic — tick latencies, no wall
        // clock, byte-identical across thread pools. With --wal-dir,
        // already-logged rounds are re-derived from the recovered log
        // and the run continues from the crash point; the merged output
        // is byte-identical to an uninterrupted run. With --shards N
        // the same driver runs against an in-process sharded topology,
        // and everything except the appended shardsum/shardstate
        // checksum lines must be byte-identical to the single process.
        let (res, state_fnv, wal_line, checksums, obs) = if let Some(shards) = shards_flag(args)? {
            if args.str_req("wal-dir").is_ok() {
                return Err(CliError::Other(
                    "--wal-dir does not combine with in-process --shards \
                     (per-shard WALs belong to `tmwia serve --shards`)"
                        .into(),
                ));
            }
            use tmwia_service::Serving as _;
            let (services, relay_cfg) = build_shard_services(args, shards)?;
            let topo = tmwia_service::spawn_local(services, relay_cfg)
                .map_err(|e| CliError::Other(e.to_string()))?;
            let res = tmwia_service::run_serving(topo.service.as_ref(), &cfg);
            if let Some(fault) = topo.service.health() {
                return Err(CliError::Other(format!("sharded topology fault: {fault}")));
            }
            let digest = topo
                .service
                .merged_state_digest()
                .map_err(|e| CliError::Other(e.to_string()))?;
            let checksums = topo.service.checksum_log();
            // The merged cross-shard registry, captured while the shard
            // links are still up.
            let obs = topo.service.obs_report();
            for result in topo.shutdown() {
                result.map_err(|e| CliError::Other(format!("shard worker failed: {e}")))?;
            }
            (
                res,
                tmwia_service::wal::fnv64(digest.as_bytes()),
                None,
                checksums,
                obs,
            )
        } else {
            let (svc, report, recovery_ms) = build_service(args, true)?;
            let svc = std::sync::Arc::new(svc);
            let res = match &report {
                Some(report) => {
                    if report.replayed_ticks > 0 || report.truncated_bytes > 0 {
                        out.push_str(&recovery_line(report, recovery_ms));
                    }
                    run_durable(&svc, &cfg, report).map_err(CliError::Other)?
                }
                None => run_deterministic(&svc, &cfg),
            };
            (
                res,
                tmwia_service::wal::fnv64(svc.state_digest().as_bytes()),
                svc.wal_health(),
                Vec::new(),
                svc.obs_report(),
            )
        };
        let mut hist = LatencyHistogram::new();
        hist.record_all(res.samples.iter().copied());
        // Assemble the one LoadReport both renderings project from —
        // the human text is byte-compatible with the historical format
        // (pinned by the byte-identity tests below).
        let report = LoadReport {
            submitted: res.submitted,
            ok: res.ok,
            busy: res.busy,
            errors: res.errors,
            ticks: Some(res.ticks),
            latency_unit: "ticks",
            hist,
            by_kind: res
                .by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            // A fingerprint of the full durable state (registry, memos,
            // snapshot): recovery is correct iff a resumed run prints
            // the same line as an uninterrupted one, and a sharded run
            // is correct iff its merged digest prints the same line as
            // the single process.
            state_fnv64: Some(state_fnv),
            wall_micros: None,
            obs,
        };
        out.push_str(&report.render_text());
        if let Some(err) = wal_line {
            let _ = writeln!(out, "wal: persistence FAILED and stopped: {err}");
        }
        if !args.has("quiet") {
            out.push_str(&res.transcript);
        }
        // The desync audit trail, last so byte-diffs against a
        // single-process run only have to filter a trailing block.
        for line in checksums {
            let _ = writeln!(out, "{line}");
        }
        if let Some(line) = metrics_out_line(args, || {
            report.render_json(tmwia_obs::timing::wall_clock_micros())
        })? {
            out.push_str(&line);
        }
    }
    Ok(out)
}

/// `tmwia bench` — the serving-layer benchmark harness.
pub fn cmd_bench(args: &Args) -> Result<String, CliError> {
    use tmwia_bench::perf;
    match args.str_or("scenario", "core").as_str() {
        "core" => {}
        "shard" => return cmd_bench_shard(args),
        other => {
            return Err(CliError::Other(format!(
                "--scenario must be core or shard, got '{other}'"
            )))
        }
    }
    let label = args.str_or("label", "bench");
    let opts = perf::BenchOptions {
        label: label.clone(),
        seed: args.num_or("seed", 20060730u64)?,
        quick: args.str_or("scale", "quick") != "full",
    };
    let threshold: f64 = args.num_or("threshold-pct", 25.0f64)?;
    let out_path = args.str_or("out", &format!("BENCH_{label}.json"));

    // Scratch directory for the WAL micro-bench, removed afterwards.
    let scratch = std::env::temp_dir().join(format!("tmwia-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let report = perf::run(&opts, &scratch).map_err(CliError::Other)?;
    let _ = std::fs::remove_dir_all(&scratch);

    let json = report.render();
    std::fs::write(&out_path, &json)
        .map_err(|e| CliError::Io(format!("writing {out_path}: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench: label {label}, seed {}, scale {}",
        opts.seed,
        if opts.quick { "quick" } else { "full" }
    );
    out.push_str(&report.summary());
    let _ = writeln!(out, "wrote {out_path}");

    if let Ok(baseline_path) = args.str_req("compare") {
        let baseline = std::fs::read_to_string(&baseline_path).map_err(|e| CliError::Status {
            code: 3,
            message: format!("unusable baseline {baseline_path}: {e}"),
        })?;
        match perf::compare(&json, &baseline, threshold) {
            Err(e) => {
                return Err(CliError::Status {
                    code: 3,
                    message: e.to_string(),
                })
            }
            Ok(rep) if rep.violations.is_empty() => {
                let _ = writeln!(
                    out,
                    "compare: PASS ({} checks vs {baseline_path}, threshold {threshold}%)",
                    rep.checked
                );
            }
            Ok(rep) => {
                let mut message = format!(
                    "compare: FAIL vs {baseline_path} ({} of {} checks regressed)",
                    rep.violations.len(),
                    rep.checked
                );
                for v in &rep.violations {
                    message.push_str("\n  ");
                    message.push_str(v);
                }
                return Err(CliError::Status { code: 4, message });
            }
        }
    }
    Ok(out)
}

/// `tmwia bench --scenario shard` — the sharded-topology scenario:
/// 1/2/4-shard in-process topologies against a single-process
/// reference, with the equivalence contract enforced as a hard error.
/// The report is its own JSON document (`BENCH_shard.json`); --compare
/// gates on byte-equality of the deterministic prefix.
fn cmd_bench_shard(args: &Args) -> Result<String, CliError> {
    use tmwia_bench::{perf, shard};
    let label = args.str_or("label", "bench");
    let seed: u64 = args.num_or("seed", 20060730u64)?;
    let quick = args.str_or("scale", "quick") != "full";
    let out_path = args.str_or("out", "BENCH_shard.json");

    let report = shard::run_shard(&label, seed, quick).map_err(CliError::Other)?;
    let json = report.render();
    std::fs::write(&out_path, &json)
        .map_err(|e| CliError::Io(format!("writing {out_path}: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench: scenario shard, label {label}, seed {seed}, scale {}",
        if quick { "quick" } else { "full" }
    );
    out.push_str(&report.summary());
    let _ = writeln!(out, "wrote {out_path}");

    if let Ok(baseline_path) = args.str_req("compare") {
        let baseline = std::fs::read_to_string(&baseline_path).map_err(|e| CliError::Status {
            code: 3,
            message: format!("unusable baseline {baseline_path}: {e}"),
        })?;
        if !baseline.contains("\"shard_schema\"") {
            return Err(CliError::Status {
                code: 3,
                message: format!("unusable baseline {baseline_path}: not a shard-scenario report"),
            });
        }
        // Label lines differ between runs by design; everything else in
        // the deterministic prefix must match byte-for-byte.
        let strip = |text: &str| -> String {
            perf::deterministic_prefix(text)
                .lines()
                .filter(|l| !l.contains("\"label\""))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        if strip(&json) == strip(&baseline) {
            let _ = writeln!(
                out,
                "compare: PASS (deterministic prefix matches {baseline_path})"
            );
        } else {
            return Err(CliError::Status {
                code: 4,
                message: format!(
                    "compare: FAIL vs {baseline_path} (deterministic shard-scenario fields drifted)"
                ),
            });
        }
    }
    Ok(out)
}

/// Dispatch a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_deref() {
        Some("generate") => cmd_generate(args),
        Some("exp") => cmd_exp(args),
        Some("serve") => cmd_serve(args),
        // Hidden: one shard worker process, launched by
        // `tmwia serve --shards N` — not part of the public surface.
        Some("shard") => cmd_shard(args),
        Some("load") => cmd_load(args),
        Some("stats") => cmd_stats(args),
        Some("bench") => cmd_bench(args),
        Some("inspect") => {
            let inst = load_or_generate(args)?;
            Ok(describe_instance(&inst))
        }
        Some("run") => cmd_run(args),
        Some("communities") => cmd_communities(args),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::Other(format!(
            "unknown command '{other}'; see `tmwia help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn generate_every_kind() {
        for kind in [
            "planted",
            "clusters",
            "types",
            "bernoulli",
            "noise",
            "nested",
        ] {
            let args = parse(&format!(
                "generate --kind {kind} --n 32 --m 32 --k 16 --d 4"
            ));
            let inst = generate_instance(&args).unwrap();
            assert_eq!(inst.n(), 32);
            assert_eq!(inst.m(), 32);
        }
        assert!(generate_instance(&parse("generate --kind bogus")).is_err());
    }

    #[test]
    fn run_auto_reports_community_quality() {
        let out = cmd_run(&parse("run --n 64 --m 64 --k 32 --d 0 --seed 3")).unwrap();
        assert!(out.contains("community 0"), "{out}");
        assert!(out.contains("Δ ="), "{out}");
        assert!(out.contains("cost"), "{out}");
    }

    #[test]
    fn run_all_algorithms_smoke() {
        for alg in [
            "auto",
            "zero",
            "small",
            "large",
            "unknown-d",
            "anytime",
            "lockstep-zero",
            "solo",
            "oracle",
            "knn",
            "spectral",
            "one-good",
        ] {
            let out = cmd_run(&parse(&format!(
                "run --n 48 --m 48 --k 24 --d 4 --algorithm {alg} --seed 2"
            )));
            assert!(out.is_ok(), "{alg}: {:?}", out.err().map(|e| e.to_string()));
        }
        assert!(cmd_run(&parse("run --n 16 --algorithm nope")).is_err());
    }

    #[test]
    fn communities_hierarchy_output() {
        let out = cmd_communities(&parse(
            "communities --kind clusters --n 48 --m 64 --d 2 --clusters 4 --scales 4,64 --min-size 2",
        ))
        .unwrap();
        assert!(out.contains("scale D ="), "{out}");
        // 4 clusters at the tight scale.
        assert!(out.contains("4 communities"), "{out}");
    }

    #[test]
    fn exp_subcommand_runs_quick_tables() {
        let out = cmd_exp(&parse("exp --id e2")).unwrap();
        assert!(out.contains("## E2"), "{out}");
        assert!(cmd_exp(&parse("exp --id e99")).is_err());
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert!(dispatch(&parse("help")).unwrap().contains("USAGE"));
        assert!(dispatch(&Args::default()).unwrap().contains("USAGE"));
        assert!(dispatch(&parse("frobnicate")).is_err());
    }

    #[test]
    fn load_with_wal_dir_resumes_byte_identically() {
        let dir = std::env::temp_dir().join(format!("tmwia-cli-wal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = "load --kind planted --n 16 --m 16 --k 8 --d 2 \
                    --sessions 4 --requests 10 --batch 16 --queue 64";
        let reference = cmd_load(&parse(base)).unwrap();

        // Crash: abandon after 4 of 10 rounds, logged to the WAL.
        let crashed = cmd_load(&parse(&format!(
            "{base} --wal-dir {} --halt-after 4",
            dir.display()
        )))
        .unwrap();
        assert!(
            !crashed.contains("recovery:"),
            "fresh log, nothing replayed"
        );

        // Resume: replays the log, finishes the run, reports recovery.
        let resumed = cmd_load(&parse(&format!("{base} --wal-dir {}", dir.display()))).unwrap();
        assert!(resumed.contains("recovery: replayed"), "{resumed}");
        let stripped: String = resumed
            .lines()
            .filter(|l| !l.starts_with("recovery:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            stripped, reference,
            "resumed output (minus the recovery line) must be byte-identical"
        );
        assert!(reference.contains("state fnv64 "), "{reference}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_with_shards_is_byte_identical_plus_checksum_block() {
        let base = "load --kind planted --n 24 --m 24 --k 12 --d 2 \
                    --sessions 4 --requests 10 --batch 16 --queue 64";
        let reference = cmd_load(&parse(base)).unwrap();
        let mut shardsum_streams = Vec::new();
        for shards in [1usize, 3] {
            let sharded = cmd_load(&parse(&format!("{base} --shards {shards}"))).unwrap();
            let stripped: String = sharded
                .lines()
                .filter(|l| !l.starts_with("shardsum ") && !l.starts_with("shardstate "))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(
                stripped, reference,
                "--shards {shards} output (minus checksums) must be byte-identical"
            );
            let stream: Vec<&str> = sharded
                .lines()
                .filter(|l| l.starts_with("shardsum ") || l.starts_with("shardstate "))
                .collect();
            assert!(
                !stream.is_empty(),
                "--shards {shards} printed its audit trail"
            );
            shardsum_streams.push(stream.join("\n"));
        }
        assert_eq!(
            shardsum_streams[0], shardsum_streams[1],
            "replicated and global state checksums must not depend on the shard count"
        );
    }

    #[test]
    fn load_rejects_wal_dir_combined_with_in_process_shards() {
        let err = cmd_load(&parse(
            "load --kind planted --n 16 --m 16 --shards 2 --wal-dir /tmp/nope",
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("--wal-dir"),
            "typed refusal names the conflicting flag: {err}"
        );
    }

    #[test]
    fn shards_flag_rejects_zero_and_garbage() {
        assert!(cmd_load(&parse("load --n 16 --m 16 --shards 0")).is_err());
        assert!(cmd_load(&parse("load --n 16 --m 16 --shards x")).is_err());
        assert!(cmd_load(&parse("load --n 16 --m 16 --shards 65")).is_err());
    }

    #[test]
    fn load_metrics_out_workload_section_is_topology_invariant() {
        let dir = std::env::temp_dir().join(format!("tmwia-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = "load --kind planted --n 24 --m 24 --k 12 --d 2 \
                    --sessions 4 --requests 10 --batch 16 --queue 64";
        let single = dir.join("single.json");
        let sharded = dir.join("sharded.json");
        let out = cmd_load(&parse(&format!(
            "{base} --metrics-out {}",
            single.display()
        )))
        .unwrap();
        assert!(out.contains("metrics written to "), "{out}");
        cmd_load(&parse(&format!(
            "{base} --shards 3 --metrics-out {}",
            sharded.display()
        )))
        .unwrap();
        let a = std::fs::read_to_string(&single).unwrap();
        let b = std::fs::read_to_string(&sharded).unwrap();
        assert!(a.contains("\"obs_schema\""), "{a}");
        assert!(a.contains("\"ticks_executed\""), "{a}");
        // The load section and every workload-scoped metric merge to
        // the single-process values byte-for-byte; only the node
        // section, events, and timing may differ across topologies.
        assert_eq!(
            tmwia_obs::workload_prefix(&a),
            tmwia_obs::workload_prefix(&b),
            "workload metrics must not depend on the shard count"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_queries_a_live_server() {
        use tmwia_service::{serve, Request, ServeOptions, TcpTransport, Transport as _};
        let (svc, _, _) = build_service(
            &parse("serve --kind planted --n 16 --m 16 --k 8 --d 2"),
            false,
        )
        .unwrap();
        let svc = std::sync::Arc::new(svc);
        let server = serve(
            std::sync::Arc::clone(&svc),
            "127.0.0.1:0",
            ServeOptions {
                tick_interval: std::time::Duration::from_millis(1),
                max_ticks: 0,
                tick_hook: None,
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // Positional and --addr forms both work.
        let out = cmd_stats(&parse(&format!("stats {addr}"))).unwrap();
        assert!(out.contains("workload:"), "{out}");
        assert!(out.contains("node:"), "{out}");
        assert!(out.contains("  reads_served: "), "{out}");
        let out2 = cmd_stats(&parse(&format!("stats --addr {addr}"))).unwrap();
        assert!(out2.contains("  wal_fsyncs: "), "{out2}");
        let mut t = TcpTransport::connect(&addr).unwrap();
        t.send(0, &Request::Shutdown).unwrap();
        let _ = t.recv();
        server.join();
        assert!(cmd_stats(&parse("stats")).is_err(), "address is required");
    }

    #[test]
    fn generate_and_reload_via_files() {
        let dir = std::env::temp_dir().join("tmwia-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.txt");
        let msg = cmd_generate(&parse(&format!(
            "generate --kind planted --n 24 --m 24 --k 12 --d 2 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(msg.contains("wrote"));
        let out = dispatch(&parse(&format!("inspect --instance {}", path.display()))).unwrap();
        assert!(out.contains("n = 24"), "{out}");
        std::fs::remove_file(path).ok();
    }
}
