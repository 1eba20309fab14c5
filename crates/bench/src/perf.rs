//! `tmwia bench` — the serving-layer performance harness.
//!
//! Drives `tmwia load`-style closed-loop workloads (arrival- and
//! churn-heavy request mixes at several session scales) plus three
//! micro-benches on the hot serving paths: the incremental snapshot
//! seal ([`BoardSnapshot::build_delta`] onto the previous snapshot vs
//! [`BoardSnapshot::build`], which delta-seals the whole board onto an
//! empty one), the WAL append path, and the
//! [`DistanceKernel`] one-vs-snapshot recommend kernel.
//!
//! The report is a schema-versioned JSON document with a deliberate
//! layout contract: every **deterministic** field (counters, request
//! outcomes, tick-latency percentiles, state fingerprints, checksums)
//! comes first, and all wall-clock measurements live in a single
//! top-level `"timing"` object that is always the **last** key.
//! Consumers that only care about determinism — the CI gate on a
//! single-core container, the byte-identity tests — truncate the
//! document at the `"timing"` line and compare the prefix byte for
//! byte. `compare` applies the same split: deterministic fields must
//! match the baseline exactly, timings only within `--threshold-pct`.
//!
//! Wall-clock use is confined to this crate on purpose: the lint
//! workspace rules exempt `crates/bench` from the determinism-reach
//! rule, and nothing here feeds back into the service.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tmwia_model::generators::planted_community;
use tmwia_model::kernel::DistanceKernel;
use tmwia_model::rng::{derive, splitmix64};
use tmwia_model::BitVec;
use tmwia_obs::metrics::namespace_fingerprint;
use tmwia_obs::{LatencyHistogram, MetricSnapshot, Scope, METRICS};
use tmwia_service::wal::{fnv64, WalHeader, WalWriter};
use tmwia_service::{
    run_deterministic, BoardSnapshot, ClientMix, LoadConfig, Request, Service, ServiceConfig,
};

use tmwia_billboard::{Billboard, LivenessEpoch, PlayerId};

/// JSON schema version stamped into every report. Bump on any change
/// to the document layout; `compare` refuses cross-version baselines.
/// v2: per-workload `"metrics"` objects sourced from the obs registry
/// (the same deterministic counters `tmwia load --metrics-out` exports)
/// plus the top-level name-space fingerprint.
pub const SCHEMA: u64 = 2;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Report label (becomes `BENCH_<label>.json`).
    pub label: String,
    /// Master seed for every workload and micro-bench.
    pub seed: u64,
    /// Scaled-down run (CI smoke).
    pub quick: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            label: "bench".into(),
            seed: 20060730,
            quick: true,
        }
    }
}

/// One closed-loop workload: a named (sessions × requests × mix)
/// point driven through [`run_deterministic`].
struct WorkloadSpec {
    name: &'static str,
    sessions: usize,
    requests: usize,
    /// `ClientMix::parse` spec.
    mix: &'static str,
}

/// Workload matrix. The churn rows keep per-session request counts
/// tiny so the Join/Leave rounds dominate; the arrival rows stress the
/// steady-state probe/post path; the recommend row exercises the
/// snapshot-scan kernel through the service.
fn workloads(quick: bool) -> Vec<WorkloadSpec> {
    let mut v = vec![
        WorkloadSpec {
            name: "arrival_s8",
            sessions: 8,
            requests: 24,
            mix: "probe=0.6,post=0.2,read=0.1,recommend=0.1",
        },
        WorkloadSpec {
            name: "churn_s16",
            sessions: 16,
            requests: 3,
            mix: "probe=0.7,post=0.3,read=0,recommend=0",
        },
        WorkloadSpec {
            name: "recommend_s8",
            sessions: 8,
            requests: 16,
            mix: "probe=0.3,post=0.2,read=0.1,recommend=0.4",
        },
    ];
    if !quick {
        v.push(WorkloadSpec {
            name: "arrival_s48",
            sessions: 48,
            requests: 32,
            mix: "probe=0.6,post=0.2,read=0.1,recommend=0.1",
        });
        v.push(WorkloadSpec {
            name: "churn_s64",
            sessions: 64,
            requests: 2,
            mix: "probe=0.7,post=0.3,read=0,recommend=0",
        });
    }
    v
}

/// Deterministic results of one workload run.
struct WorkloadResult {
    name: &'static str,
    sessions: usize,
    requests: usize,
    mix: String,
    submitted: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    ticks: u64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
    state_fnv64: u64,
    /// The service's obs registry after the run — the workload-scoped
    /// slice is rendered into the deterministic prefix, so a counter
    /// drifting (a probe silently double-charged, a read skipped) fails
    /// the `--compare` gate exactly like a state-digest change.
    metrics: MetricSnapshot,
    wall_ns: u128,
}

/// The full harness result. `render` turns it into the JSON document.
pub struct BenchReport {
    label: String,
    seed: u64,
    quick: bool,
    workloads: Vec<WorkloadResult>,
    seal_epochs: u64,
    seal_posts_per_tick: u64,
    seal_digest_fnv64: u64,
    seal_full_ns: u128,
    seal_delta_ns: u128,
    wal_records: u64,
    wal_bytes: u64,
    wal_append_ns: u128,
    kernel_n: u64,
    kernel_bits: u64,
    kernel_checksum: u64,
    kernel_ns: u128,
}

/// Run the whole harness.
///
/// The WAL micro-bench needs a scratch directory; pass a path the
/// caller owns (the CLI uses a per-run temp dir and removes it).
pub fn run(opts: &BenchOptions, wal_scratch: &std::path::Path) -> Result<BenchReport, String> {
    let mut results = Vec::new();
    for spec in workloads(opts.quick) {
        results.push(run_workload(&spec, opts.seed)?);
    }
    let (seal_epochs, seal_posts_per_tick, seal_digest, seal_full_ns, seal_delta_ns) =
        seal_bench(opts.seed, opts.quick);
    let (wal_records, wal_bytes, wal_append_ns) = wal_bench(opts.seed, opts.quick, wal_scratch)?;
    let (kernel_n, kernel_bits, kernel_checksum, kernel_ns) = kernel_bench(opts.seed, opts.quick);
    Ok(BenchReport {
        label: opts.label.clone(),
        seed: opts.seed,
        quick: opts.quick,
        workloads: results,
        seal_epochs,
        seal_posts_per_tick,
        seal_digest_fnv64: seal_digest,
        seal_full_ns,
        seal_delta_ns,
        wal_records,
        wal_bytes,
        wal_append_ns,
        kernel_n,
        kernel_bits,
        kernel_checksum,
        kernel_ns,
    })
}

fn run_workload(spec: &WorkloadSpec, seed: u64) -> Result<WorkloadResult, String> {
    // One small planted instance per workload: the harness measures
    // the serving layer, not reconstruction quality, so the instance
    // just has to be big enough for every session to get a slot.
    let n = spec.sessions.max(32) * 2;
    let inst = planted_community(n, n, n / 2, 8, seed);
    let svc = Service::new(
        inst.truth,
        ServiceConfig {
            batch_size: 64,
            queue_capacity: 256,
            seed,
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let svc = Arc::new(svc);
    let mix = ClientMix::parse(spec.mix)?;
    let cfg = LoadConfig {
        sessions: spec.sessions,
        requests: spec.requests,
        mix,
        seed,
        recommend_count: 8,
        objects: n,
        halt_after_rounds: None,
    };
    let t0 = Instant::now();
    let res = run_deterministic(&svc, &cfg);
    let wall_ns = t0.elapsed().as_nanos();
    let mut hist = LatencyHistogram::new();
    hist.record_all(res.samples.iter().copied());
    let (p50, p90, p99) = hist.percentiles();
    Ok(WorkloadResult {
        name: spec.name,
        sessions: spec.sessions,
        requests: spec.requests,
        mix: cfg.mix.describe(),
        submitted: res.submitted,
        ok: res.ok,
        busy: res.busy,
        errors: res.errors,
        ticks: res.ticks,
        p50,
        p90,
        p99,
        max: hist.max(),
        state_fnv64: fnv64(svc.state_digest().as_bytes()),
        metrics: svc.obs_report().metrics,
        wall_ns,
    })
}

/// Seal micro-bench: chain `epochs` incremental seals from a seeded
/// post stream and time them against full rebuilds of the same board
/// (`build`: every visible post sealed onto an empty snapshot, the
/// restore path). The digest checksum folds every delta-sealed epoch
/// digest, so a divergence between the two paths shows up as a
/// deterministic-field mismatch, not just a timing blip.
fn seal_bench(seed: u64, quick: bool) -> (u64, u64, u64, u128, u128) {
    let epochs: u64 = if quick { 32 } else { 256 };
    let posts_per_tick: u64 = 16;
    let players: u64 = 32;
    let objects: u64 = 64;

    let tick_posts = |e: u64| -> Vec<(u32, PlayerId, bool)> {
        (0..posts_per_tick)
            .map(|i| {
                let r = splitmix64(derive(seed, 0x5345_414C, e * posts_per_tick + i));
                (
                    (r % objects) as u32,
                    ((r >> 16) % players) as PlayerId,
                    r & 1 == 1,
                )
            })
            .collect()
    };

    let posts: Vec<Vec<(u32, PlayerId, bool)>> = (0..epochs).map(tick_posts).collect();
    // Both timed loops keep every sealed snapshot and digest them only
    // after the clock stops, so the timings cover the seals alone.
    let fold = |sealed: &[BoardSnapshot]| {
        sealed
            .iter()
            .zip(0u64..)
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, (snap, e)| {
                acc ^ fnv64(snap.digest().as_bytes()).rotate_left((e % 63) as u32)
            })
    };

    // Incremental path: prev + tick posts, epoch by epoch.
    let empty = BoardSnapshot::empty();
    let mut sealed: Vec<BoardSnapshot> = Vec::with_capacity(posts.len());
    let t0 = Instant::now();
    for (e, tick) in (0..epochs).zip(&posts) {
        let snap = BoardSnapshot::build_delta(
            sealed.last().unwrap_or(&empty),
            tick,
            LivenessEpoch::all_live(),
            players as u32,
            e + 1,
            e + 1,
        );
        sealed.push(snap);
    }
    let seal_delta_ns = t0.elapsed().as_nanos();
    let checksum = fold(&sealed);

    // Full-rebuild path over the identical post stream.
    let board: Billboard<u32, bool> = Billboard::new();
    let mut rebuilt: Vec<BoardSnapshot> = Vec::with_capacity(posts.len());
    let t1 = Instant::now();
    for (e, tick) in (0..epochs).zip(&posts) {
        board.post_batch(tick.iter().copied());
        rebuilt.push(BoardSnapshot::build(
            &board,
            LivenessEpoch::all_live(),
            players as u32,
            e + 1,
            e + 1,
        ));
    }
    let seal_full_ns = t1.elapsed().as_nanos();
    let full_checksum = fold(&rebuilt);
    assert_eq!(
        checksum, full_checksum,
        "incremental seal diverged from full rebuild"
    );
    (
        epochs,
        posts_per_tick,
        checksum,
        seal_full_ns,
        seal_delta_ns,
    )
}

/// WAL append micro-bench: open a fresh log in `scratch` and append a
/// fixed batch per tick. Records and byte counts are deterministic;
/// only the elapsed time is wall-clock (dominated by `sync_data`).
fn wal_bench(
    seed: u64,
    quick: bool,
    scratch: &std::path::Path,
) -> Result<(u64, u64, u128), String> {
    let records: u64 = if quick { 32 } else { 256 };
    let header = WalHeader {
        seed,
        batch_size: 64,
        n: 64,
        m: 64,
    };
    let (mut writer, _) = WalWriter::open(scratch, &header).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for tick in 1..=records {
        let probe = Request::Probe {
            session: tick,
            object: (tick % 64) as u32,
            share: true,
        };
        let post = Request::Post {
            session: tick,
            object: ((tick + 7) % 64) as u32,
            grade: tick & 1 == 1,
        };
        let entries: Vec<(u64, u64, &Request)> =
            vec![(2 * tick, tick, &probe), (2 * tick + 1, tick, &post)];
        writer.append(tick, &entries).map_err(|e| e.to_string())?;
    }
    let wal_append_ns = t0.elapsed().as_nanos();
    let bytes = std::fs::metadata(writer.path())
        .map_err(|e| e.to_string())?
        .len();
    Ok((records, bytes, wal_append_ns))
}

/// Kernel micro-bench: one-vs-snapshot Hamming distances, the
/// recommend path's inner loop. The checksum folds every distance.
fn kernel_bench(seed: u64, quick: bool) -> (u64, u64, u64, u128) {
    let n: usize = if quick { 128 } else { 512 };
    let bits: usize = 512;
    let reps: usize = if quick { 16 } else { 64 };
    let vectors: Vec<BitVec> = (0..n)
        .map(|i| {
            BitVec::from_fn(bits, |b| {
                splitmix64(derive(seed, 0x4B52_4E4C, (i * bits + b) as u64)) & 1 == 1
            })
        })
        .collect();
    let kernel = DistanceKernel::new(&vectors);
    let target = BitVec::from_fn(bits, |b| {
        splitmix64(derive(seed, 0x5452_4754, b as u64)) & 1 == 1
    });
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for r in 0..reps {
        let dists = kernel.distances_to(&target);
        for (i, d) in dists.iter().enumerate() {
            checksum = checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add((*d as u64) ^ (i as u64) ^ (r as u64) << 32);
        }
    }
    let kernel_ns = t0.elapsed().as_nanos();
    (n as u64, bits as u64, checksum, kernel_ns)
}

// ---------------------------------------------------------------- JSON

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Fingerprint of everything that shapes the deterministic fields:
    /// schema, seed, scale, and the workload/micro-bench matrix. Two
    /// reports are comparable iff their fingerprints match.
    pub fn config_fingerprint(&self) -> u64 {
        let mut canon = format!("schema={SCHEMA};seed={};quick={}", self.seed, self.quick);
        for w in &self.workloads {
            let _ = write!(
                canon,
                ";wl={}:{}x{}:{}",
                w.name, w.sessions, w.requests, w.mix
            );
        }
        let _ = write!(
            canon,
            ";seal={}x{};wal={};kernel={}x{}",
            self.seal_epochs,
            self.seal_posts_per_tick,
            self.wal_records,
            self.kernel_n,
            self.kernel_bits
        );
        fnv64(canon.as_bytes())
    }

    /// Render the JSON document. Deterministic fields first; the
    /// single `"timing"` object is always the last top-level key (the
    /// layout contract consumers truncate on).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": {SCHEMA},");
        let _ = writeln!(s, "  \"label\": \"{}\",", esc(&self.label));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(
            s,
            "  \"config_fingerprint\": \"{:016x}\",",
            self.config_fingerprint()
        );
        let _ = writeln!(
            s,
            "  \"metrics_namespace_fnv64\": \"{:016x}\",",
            namespace_fingerprint()
        );
        let _ = writeln!(s, "  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let comma = if i + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"name\": \"{}\",", esc(w.name));
            let _ = writeln!(s, "      \"sessions\": {},", w.sessions);
            let _ = writeln!(s, "      \"requests\": {},", w.requests);
            let _ = writeln!(s, "      \"mix\": \"{}\",", esc(&w.mix));
            let _ = writeln!(s, "      \"submitted\": {},", w.submitted);
            let _ = writeln!(s, "      \"ok\": {},", w.ok);
            let _ = writeln!(s, "      \"busy\": {},", w.busy);
            let _ = writeln!(s, "      \"errors\": {},", w.errors);
            let _ = writeln!(s, "      \"ticks\": {},", w.ticks);
            let _ = writeln!(
                s,
                "      \"tick_latency\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},",
                w.p50, w.p90, w.p99, w.max
            );
            let _ = writeln!(s, "      \"state_fnv64\": \"{:016x}\",", w.state_fnv64);
            // The workload-scoped registry slice, in the static sorted
            // name-space order (deterministic, so inside the prefix).
            let body = (0..METRICS.len())
                .filter(|&i| METRICS[i].scope == Scope::Workload)
                .map(|i| format!("\"{}\": {}", METRICS[i].name, w.metrics.values()[i]))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(s, "      \"metrics\": {{{body}}}");
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(
            s,
            "  \"seal\": {{\"epochs\": {}, \"posts_per_tick\": {}, \"digest_fnv64\": \"{:016x}\"}},",
            self.seal_epochs, self.seal_posts_per_tick, self.seal_digest_fnv64
        );
        let _ = writeln!(
            s,
            "  \"wal\": {{\"records\": {}, \"bytes\": {}}},",
            self.wal_records, self.wal_bytes
        );
        let _ = writeln!(
            s,
            "  \"kernel\": {{\"n\": {}, \"bits\": {}, \"checksum\": \"{:016x}\"}},",
            self.kernel_n, self.kernel_bits, self.kernel_checksum
        );
        // Wall-clock section: always last, always the only
        // nondeterministic part of the document.
        let _ = writeln!(s, "  \"timing\": {{");
        let _ = writeln!(s, "    \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let comma = if i + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let secs = (w.wall_ns as f64) / 1e9;
            let rps = if secs > 0.0 {
                w.submitted as f64 / secs
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "      {{\"name\": \"{}\", \"wall_ns\": {}, \"requests_per_sec\": {:.1}}}{comma}",
                esc(w.name),
                w.wall_ns,
                rps
            );
        }
        let _ = writeln!(s, "    ],");
        let _ = writeln!(s, "    \"seal_full_ns\": {},", self.seal_full_ns);
        let _ = writeln!(s, "    \"seal_delta_ns\": {},", self.seal_delta_ns);
        let _ = writeln!(s, "    \"wal_append_ns\": {},", self.wal_append_ns);
        let _ = writeln!(s, "    \"kernel_ns\": {}", self.kernel_ns);
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// One-line human summary per section (the CLI prints these).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for w in &self.workloads {
            let secs = (w.wall_ns as f64) / 1e9;
            let rps = if secs > 0.0 {
                w.submitted as f64 / secs
            } else {
                0.0
            };
            let _ = writeln!(
                s,
                "  {}: {} req over {} ticks, p50/p90/p99 {}/{}/{} ticks, {rps:.0} req/s",
                w.name, w.submitted, w.ticks, w.p50, w.p90, w.p99
            );
        }
        let _ = writeln!(
            s,
            "  seal: {} epochs, delta {:.2} ms vs full {:.2} ms",
            self.seal_epochs,
            self.seal_delta_ns as f64 / 1e6,
            self.seal_full_ns as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  wal: {} records / {} bytes in {:.2} ms",
            self.wal_records,
            self.wal_bytes,
            self.wal_append_ns as f64 / 1e6
        );
        let _ = writeln!(
            s,
            "  kernel: {}x{} bits, {:.2} ms",
            self.kernel_n,
            self.kernel_bits,
            self.kernel_ns as f64 / 1e6
        );
        s
    }
}

// ------------------------------------------------------------- compare

/// A parsed JSON value — the minimal subset the bench schema needs.
/// Hand-rolled because the workspace is offline by design (no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; the schema's integers are exact
    /// below 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through byte-wise; the input
                // came from a &str so the sequence is valid.
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + len)
                    .ok_or_else(|| "truncated utf-8".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                *pos += len;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

/// `compare` result: which checks ran and which regressed.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Deterministic fields + timing metrics checked.
    pub checked: usize,
    /// Human-readable regression descriptions; empty means pass.
    pub violations: Vec<String>,
}

/// A baseline that cannot be used at all (unparseable, wrong schema,
/// different config fingerprint). Distinct from a regression: the CLI
/// maps this to exit 3 and regressions to exit 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedBaseline(pub String);

impl std::fmt::Display for MalformedBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unusable baseline: {}", self.0)
    }
}

/// Timing metrics and their direction (`false` = lower is better).
const TIMING_HIGHER_BETTER: &[(&str, bool)] = &[
    ("seal_full_ns", false),
    ("seal_delta_ns", false),
    ("wal_append_ns", false),
    ("kernel_ns", false),
];

/// Compare a freshly rendered report against a baseline document.
///
/// Deterministic fields (everything outside `"timing"`, minus the
/// free-form `label`) must match **exactly** — the harness is seeded,
/// so any drift is a real behavior change and is reported as a
/// regression. Timing metrics may drift by up to `threshold_pct`
/// percent in the bad direction.
pub fn compare(
    current_json: &str,
    baseline_json: &str,
    threshold_pct: f64,
) -> Result<CompareReport, MalformedBaseline> {
    let current =
        parse_json(current_json).map_err(|e| MalformedBaseline(format!("current report: {e}")))?;
    let baseline = parse_json(baseline_json).map_err(MalformedBaseline)?;

    let schema = |v: &Json| v.get("schema").and_then(Json::as_num);
    let base_schema =
        schema(&baseline).ok_or_else(|| MalformedBaseline("no schema field".into()))?;
    if base_schema != SCHEMA as f64 {
        return Err(MalformedBaseline(format!(
            "schema {base_schema} != supported {SCHEMA}"
        )));
    }
    let fp = |v: &Json| match v.get("config_fingerprint") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let base_fp = fp(&baseline).ok_or_else(|| MalformedBaseline("no config_fingerprint".into()))?;
    let cur_fp = fp(&current)
        .ok_or_else(|| MalformedBaseline("current report lacks config_fingerprint".into()))?;
    if base_fp != cur_fp {
        return Err(MalformedBaseline(format!(
            "config fingerprint mismatch ({base_fp} vs {cur_fp}): rerun the baseline with this configuration"
        )));
    }

    let mut report = CompareReport::default();

    // Deterministic prefix: every top-level member except the
    // wall-clock `"timing"` object and the free-form label.
    if let (Json::Obj(cur_members), Json::Obj(_)) = (&current, &baseline) {
        for (key, cur_val) in cur_members {
            if key == "timing" || key == "label" {
                continue;
            }
            report.checked += 1;
            match baseline.get(key) {
                Some(base_val) if base_val == cur_val => {}
                Some(_) => report
                    .violations
                    .push(format!("deterministic field '{key}' differs from baseline")),
                None => report
                    .violations
                    .push(format!("baseline is missing field '{key}'")),
            }
        }
    } else {
        return Err(MalformedBaseline("top level is not an object".into()));
    }

    // Timing: scalar metrics plus per-workload throughput, each
    // allowed `threshold_pct` percent of drift in the bad direction.
    let cur_timing = current.get("timing");
    let base_timing = baseline.get("timing");
    if let (Some(ct), Some(bt)) = (cur_timing, base_timing) {
        for &(metric, higher_better) in TIMING_HIGHER_BETTER {
            if let (Some(c), Some(b)) = (
                ct.get(metric).and_then(Json::as_num),
                bt.get(metric).and_then(Json::as_num),
            ) {
                report.checked += 1;
                check_drift(&mut report, metric, c, b, higher_better, threshold_pct);
            }
        }
        if let (Some(Json::Arr(cw)), Some(Json::Arr(bw))) =
            (ct.get("workloads"), bt.get("workloads"))
        {
            for c in cw {
                let name = match c.get("name") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => continue,
                };
                let b = bw
                    .iter()
                    .find(|b| matches!(b.get("name"), Some(Json::Str(s)) if *s == name));
                if let Some(b) = b {
                    if let (Some(c_rps), Some(b_rps)) = (
                        c.get("requests_per_sec").and_then(Json::as_num),
                        b.get("requests_per_sec").and_then(Json::as_num),
                    ) {
                        report.checked += 1;
                        check_drift(
                            &mut report,
                            &format!("{name}.requests_per_sec"),
                            c_rps,
                            b_rps,
                            true,
                            threshold_pct,
                        );
                    }
                }
            }
        }
    }
    Ok(report)
}

fn check_drift(
    report: &mut CompareReport,
    metric: &str,
    current: f64,
    baseline: f64,
    higher_better: bool,
    threshold_pct: f64,
) {
    let factor = threshold_pct / 100.0;
    let bad = if higher_better {
        current < baseline * (1.0 - factor)
    } else {
        current > baseline * (1.0 + factor)
    };
    if bad {
        report.violations.push(format!(
            "timing regression: {metric} {current:.1} vs baseline {baseline:.1} (threshold {threshold_pct}%)"
        ));
    }
}

/// Truncate a report at its `"timing"` line: the deterministic prefix
/// two same-seed runs must reproduce byte for byte. Returns the whole
/// document unchanged if the marker is absent (a malformed report —
/// callers comparing prefixes will then see the timing drift and fail,
/// which is the right outcome).
pub fn deterministic_prefix(report_json: &str) -> &str {
    match report_json.find("\n  \"timing\":") {
        Some(idx) => &report_json[..idx],
        None => report_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tmwia-bench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_report(seed: u64, tag: &str) -> BenchReport {
        let dir = scratch(tag);
        let opts = BenchOptions {
            label: "t".into(),
            seed,
            quick: true,
        };
        let report = run(&opts, &dir).expect("bench run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn same_seed_reports_share_their_deterministic_prefix() {
        let a = quick_report(7, "det-a").render();
        let b = quick_report(7, "det-b").render();
        assert_eq!(deterministic_prefix(&a), deterministic_prefix(&b));
        // And the timing marker actually cut something off.
        assert!(a.len() > deterministic_prefix(&a).len());
    }

    #[test]
    fn different_seeds_differ_in_fingerprint() {
        let a = quick_report(7, "fp-a");
        let b = quick_report(8, "fp-b");
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
    }

    #[test]
    fn report_parses_as_json_with_timing_last() {
        let text = quick_report(7, "json").render();
        let doc = parse_json(&text).expect("report must parse");
        let Json::Obj(members) = &doc else {
            panic!("top level must be an object")
        };
        assert_eq!(members.last().map(|(k, _)| k.as_str()), Some("timing"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_num),
            Some(SCHEMA as f64)
        );
        assert!(matches!(doc.get("workloads"), Some(Json::Arr(v)) if !v.is_empty()));
        // Every workload carries its registry slice, inside the
        // deterministic prefix (so `compare` gates on it).
        let Some(Json::Arr(wls)) = doc.get("workloads") else {
            panic!("workloads")
        };
        for w in wls {
            let m = w.get("metrics").expect("workload metrics object");
            assert!(m.get("probes_paid").and_then(Json::as_num).is_some());
            assert!(m.get("ticks_executed").and_then(Json::as_num).is_some());
        }
        assert!(deterministic_prefix(&text).contains("\"metrics\": {"));
        assert!(text.contains("\"metrics_namespace_fnv64\""));
    }

    #[test]
    fn self_compare_passes() {
        let text = quick_report(7, "cmp").render();
        let rep = compare(&text, &text, 10.0).expect("usable baseline");
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert!(rep.checked > 5);
    }

    #[test]
    fn garbage_baseline_is_malformed() {
        let text = quick_report(7, "garbage").render();
        assert!(compare(&text, "not json at all", 10.0).is_err());
        assert!(compare(&text, "{\"x\": 1}", 10.0).is_err());
        let wrong_schema = text.replace(&format!("\"schema\": {SCHEMA}"), "\"schema\": 999");
        assert!(compare(&text, &wrong_schema, 10.0).is_err());
    }

    #[test]
    fn doctored_deterministic_field_regresses() {
        let text = quick_report(7, "doctor").render();
        let doc = parse_json(&text).unwrap();
        let Some(Json::Arr(wls)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let submitted = wls[0].get("submitted").and_then(Json::as_num).unwrap() as u64;
        let doctored = text.replacen(
            &format!("\"submitted\": {submitted}"),
            &format!("\"submitted\": {}", submitted + 1),
            1,
        );
        let rep = compare(&text, &doctored, 10.0).expect("still parseable");
        assert!(
            rep.violations.iter().any(|v| v.contains("workloads")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn absurd_timing_baseline_regresses() {
        let text = quick_report(7, "timing").render();
        // A baseline 1000x faster than reality trips every ns metric.
        let doc = parse_json(&text).unwrap();
        let kernel_ns = doc
            .get("timing")
            .and_then(|t| t.get("kernel_ns"))
            .and_then(Json::as_num)
            .unwrap() as u128;
        let doctored = text.replacen(
            &format!("\"kernel_ns\": {kernel_ns}"),
            &format!("\"kernel_ns\": {}", (kernel_ns / 1000).max(1) as u64),
            1,
        );
        let rep = compare(&text, &doctored, 10.0).expect("usable");
        assert!(
            rep.violations.iter().any(|v| v.contains("kernel_ns")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn json_parser_round_trips_edge_cases() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null, "x\"y"], "b": {}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Bool(true),
                Json::Null,
                Json::Str("x\"y".into()),
            ]))
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("[1,]").is_err());
    }
}
