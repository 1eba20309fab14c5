//! `tmwia bench --scenario shard` — the sharded-topology scenario.
//!
//! Runs the same seeded closed-loop workload against in-process sharded
//! topologies of 1, 2, and 4 shards (worker threads over channel links,
//! exactly the `tmwia load --shards N` path) plus a plain
//! single-process service, and asserts the equivalence contract the
//! relay is built on:
//!
//! * every topology's **merged state digest** fingerprint equals the
//!   single process's `state_digest` fingerprint, and
//! * the per-tick `shardsum` control-checksum stream is identical
//!   across shard counts (folded into one fnv64 per run), and so is
//!   the per-tick `shardstate` global state-checksum stream.
//!
//! The report follows the same layout contract as the core scenario —
//! deterministic fields first, one trailing `"timing"` object — but is
//! its own document (`BENCH_shard.json`) with its own schema counter,
//! so the schema-1 core compare gate is untouched.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tmwia_model::generators::planted_community;
use tmwia_service::wal::fnv64;
use tmwia_service::{
    run_serving, spawn_local, ClientMix, LoadConfig, RelayConfig, Service, ServiceConfig,
};

/// Schema version of the shard-scenario document (independent of the
/// core scenario's `perf::SCHEMA`).
pub const SHARD_SCHEMA: u64 = 1;

/// Shard counts every run of the scenario covers.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// One topology's deterministic outcome plus its wall time.
struct ShardRun {
    shards: usize,
    submitted: u64,
    ok: u64,
    busy: u64,
    errors: u64,
    ticks: u64,
    /// fnv64 of the merged state digest (must match the single process).
    state_fnv64: u64,
    /// fnv64 folded over the `shardsum` lines (must match across runs).
    control_stream_fnv64: u64,
    /// Executed (non-empty) ticks — one `shardsum` line each.
    sealed_ticks: u64,
    wall_ns: u128,
}

/// The shard-scenario report. `render` produces the JSON document.
pub struct ShardBenchReport {
    label: String,
    seed: u64,
    quick: bool,
    sessions: usize,
    requests: usize,
    /// fnv64 of the plain single-process `state_digest` — the reference
    /// every sharded run must reproduce.
    single_state_fnv64: u64,
    runs: Vec<ShardRun>,
}

fn workload(seed: u64, quick: bool) -> (usize, usize, LoadConfig) {
    let sessions = if quick { 8 } else { 16 };
    let requests = if quick { 24 } else { 48 };
    let cfg = LoadConfig {
        sessions,
        requests,
        mix: ClientMix::default_mix(),
        seed,
        recommend_count: 8,
        objects: 64,
        halt_after_rounds: None,
    };
    (sessions, requests, cfg)
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        batch_size: 64,
        queue_capacity: 256,
        seed,
        ..ServiceConfig::default()
    }
}

/// Run the scenario: single-process reference, then each shard count.
/// A broken equivalence (digest or control-stream mismatch) is a hard
/// error, not a report field — the scenario doubles as a gate.
pub fn run_shard(label: &str, seed: u64, quick: bool) -> Result<ShardBenchReport, String> {
    let inst = planted_community(64, 64, 32, 8, seed);
    let scfg = service_config(seed);
    let (sessions, requests, load_cfg) = workload(seed, quick);

    let single =
        Arc::new(Service::new(inst.truth.clone(), scfg.clone()).map_err(|e| e.to_string())?);
    let single_res = run_serving(single.as_ref(), &load_cfg);
    if single_res.errors > 0 {
        return Err(format!(
            "single-process reference run had {} errors",
            single_res.errors
        ));
    }
    let single_state_fnv64 = fnv64(single.state_digest().as_bytes());

    let mut runs = Vec::with_capacity(SHARD_COUNTS.len());
    let mut state_stream: Option<Vec<String>> = None;
    for &shards in &SHARD_COUNTS {
        let services: Vec<Arc<Service>> = (0..shards)
            .map(|_| {
                Service::new(inst.truth.clone(), scfg.clone())
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let relay_cfg = RelayConfig::for_service(&scfg, shards, inst.truth.n(), inst.truth.m());
        let topo = spawn_local(services, relay_cfg).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let res = run_serving(topo.service.as_ref(), &load_cfg);
        let wall_ns = t0.elapsed().as_nanos();
        if let Some(fault) = topo.service.health() {
            return Err(format!("{shards}-shard topology faulted: {fault}"));
        }
        let digest = topo
            .service
            .merged_state_digest()
            .map_err(|e| e.to_string())?;
        let state = fnv64(digest.as_bytes());
        if state != single_state_fnv64 {
            return Err(format!(
                "{shards}-shard merged state {state:016x} != single-process {single_state_fnv64:016x}"
            ));
        }
        let log = topo.service.checksum_log();
        let mut stream = String::new();
        let mut sealed_ticks = 0u64;
        for line in log.iter().filter(|l| l.starts_with("shardsum ")) {
            stream.push_str(line);
            stream.push('\n');
            sealed_ticks += 1;
        }
        let control_stream_fnv64 = fnv64(stream.as_bytes());
        let states: Vec<String> = log
            .iter()
            .filter(|l| l.starts_with("shardstate "))
            .cloned()
            .collect();
        if *state_stream.get_or_insert_with(|| states.clone()) != states {
            return Err(format!(
                "global state-checksum stream differs between {} and {shards} shards",
                SHARD_COUNTS[0]
            ));
        }
        for result in topo.shutdown() {
            result.map_err(|e| format!("{shards}-shard worker failed: {e}"))?;
        }
        runs.push(ShardRun {
            shards,
            submitted: res.submitted,
            ok: res.ok,
            busy: res.busy,
            errors: res.errors,
            ticks: res.ticks,
            state_fnv64: state,
            control_stream_fnv64,
            sealed_ticks,
            wall_ns,
        });
    }
    // The control stream is replicated state only — it must not depend
    // on how the objects are partitioned.
    if let Some(first) = runs.first() {
        for r in &runs {
            if r.control_stream_fnv64 != first.control_stream_fnv64 {
                return Err(format!(
                    "control-checksum stream differs between {} and {} shards",
                    first.shards, r.shards
                ));
            }
        }
    }
    Ok(ShardBenchReport {
        label: label.to_string(),
        seed,
        quick,
        sessions,
        requests,
        single_state_fnv64,
        runs,
    })
}

impl ShardBenchReport {
    /// Render the JSON document: deterministic fields first, the single
    /// `"timing"` object last (same truncation contract as the core
    /// report, so [`crate::perf::deterministic_prefix`] applies).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"shard_schema\": {SHARD_SCHEMA},");
        let _ = writeln!(s, "  \"label\": \"{}\",", self.label.replace('"', "\\\""));
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"sessions\": {},", self.sessions);
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(
            s,
            "  \"single_state_fnv64\": \"{:016x}\",",
            self.single_state_fnv64
        );
        let _ = writeln!(s, "  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            let _ = writeln!(s, "    {{");
            let _ = writeln!(s, "      \"shards\": {},", r.shards);
            let _ = writeln!(s, "      \"submitted\": {},", r.submitted);
            let _ = writeln!(s, "      \"ok\": {},", r.ok);
            let _ = writeln!(s, "      \"busy\": {},", r.busy);
            let _ = writeln!(s, "      \"errors\": {},", r.errors);
            let _ = writeln!(s, "      \"ticks\": {},", r.ticks);
            let _ = writeln!(s, "      \"sealed_ticks\": {},", r.sealed_ticks);
            let _ = writeln!(s, "      \"state_fnv64\": \"{:016x}\",", r.state_fnv64);
            let _ = writeln!(
                s,
                "      \"control_stream_fnv64\": \"{:016x}\"",
                r.control_stream_fnv64
            );
            let _ = writeln!(s, "    }}{comma}");
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"timing\": {{");
        let _ = writeln!(s, "    \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"shards\": {}, \"wall_ns\": {}}}{comma}",
                r.shards, r.wall_ns
            );
        }
        let _ = writeln!(s, "    ]");
        let _ = writeln!(s, "  }}");
        let _ = writeln!(s, "}}");
        s
    }

    /// One-line human summary per run.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for r in &self.runs {
            let _ = writeln!(
                s,
                "  shards={}: {} req over {} ticks ({} sealed), state {:016x}, {:.2} ms",
                r.shards,
                r.submitted,
                r.ticks,
                r.sealed_ticks,
                r.state_fnv64,
                r.wall_ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            s,
            "  equivalence: all runs match single-process state {:016x}",
            self.single_state_fnv64
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::deterministic_prefix;

    #[test]
    fn shard_scenario_runs_and_matches_across_counts() {
        let report = run_shard("t", 7, true).expect("scenario passes its own gate");
        assert_eq!(report.runs.len(), SHARD_COUNTS.len());
        for r in &report.runs {
            assert_eq!(r.errors, 0, "shards={}", r.shards);
            assert_eq!(r.state_fnv64, report.single_state_fnv64);
        }
        let text = report.render();
        assert!(text.contains("\"shard_schema\""));
        // Same layout contract: timing is last and truncatable.
        assert!(text.len() > deterministic_prefix(&text).len());
    }

    #[test]
    fn shard_scenario_deterministic_prefix_reproduces() {
        let a = run_shard("a", 9, true).expect("run a");
        let b = run_shard("b", 9, true).expect("run b");
        // Labels differ, so compare everything after the label line.
        let strip = |t: &str| -> String {
            deterministic_prefix(t)
                .lines()
                .filter(|l| !l.contains("\"label\""))
                .map(|l| format!("{l}\n"))
                .collect()
        };
        assert_eq!(strip(&a.render()), strip(&b.render()));
    }
}
