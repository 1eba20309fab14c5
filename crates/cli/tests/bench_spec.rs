//! Binary-level contract for `tmwia bench`: the report's deterministic
//! prefix (everything above the trailing `"timing"` object) must be
//! byte-identical across same-seed runs, and `--compare` must use the
//! documented exit codes — 0 pass, 3 unusable baseline, 4 regression —
//! so CI can gate on them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmwia-bench-spec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `tmwia bench` with `dir` as the working directory (report files
/// land there) plus extra flags.
fn run_bench(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tmwia"));
    cmd.current_dir(dir);
    cmd.args(["bench", "--seed", "11"]);
    cmd.args(extra);
    cmd.output().expect("spawn tmwia")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The deterministic prefix: the document truncated at its `"timing"`
/// line (the layout contract `crates/bench/src/perf.rs` documents).
fn deterministic_prefix(json: &str) -> &str {
    match json.find("\n  \"timing\":") {
        Some(idx) => &json[..idx],
        None => json,
    }
}

#[test]
fn same_seed_runs_are_identical_modulo_timing() {
    let dir = scratch_dir("det");
    let a = run_bench(&dir, &["--label", "a"]);
    let b = run_bench(&dir, &["--label", "b"]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr_of(&a));
    assert_eq!(b.status.code(), Some(0), "stderr: {}", stderr_of(&b));
    let ja = std::fs::read_to_string(dir.join("BENCH_a.json")).expect("report a");
    let jb = std::fs::read_to_string(dir.join("BENCH_b.json")).expect("report b");
    // Identical up to the label line and the timing section: strip the
    // label (a free-form tag) and truncate at the timing marker.
    let norm = |s: &str| {
        deterministic_prefix(s)
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"label\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(norm(&ja), norm(&jb), "deterministic prefixes must match");
    // And the timing sections exist but (almost surely) differ — the
    // marker must actually cut something.
    assert!(
        ja.contains("\"timing\""),
        "report must carry a timing section"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_compare_passes_with_exit_zero() {
    let dir = scratch_dir("self");
    let first = run_bench(&dir, &["--label", "base"]);
    assert_eq!(
        first.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&first)
    );
    let again = run_bench(
        &dir,
        &[
            "--label",
            "cur",
            "--compare",
            "BENCH_base.json",
            "--threshold-pct",
            "400",
        ],
    );
    assert_eq!(
        again.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&again)
    );
    let stdout = String::from_utf8_lossy(&again.stdout).into_owned();
    assert!(stdout.contains("compare: PASS"), "stdout: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_baseline_exits_three() {
    let dir = scratch_dir("malformed");
    std::fs::write(dir.join("bad.json"), "this is not json").expect("write bad baseline");
    let out = run_bench(&dir, &["--label", "x", "--compare", "bad.json"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unusable baseline"),
        "unhelpful error: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_exits_three() {
    let dir = scratch_dir("missing");
    let out = run_bench(&dir, &["--label", "x", "--compare", "nope.json"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_schema_baseline_exits_three() {
    let dir = scratch_dir("schema");
    let base = run_bench(&dir, &["--label", "base"]);
    assert_eq!(base.status.code(), Some(0), "stderr: {}", stderr_of(&base));
    let json = std::fs::read_to_string(dir.join("BENCH_base.json")).expect("baseline");
    // Built from the live constant, so a schema bump cannot silently
    // turn the rewrite into a no-op (and the test into a pass-through).
    let current = format!("\"schema\": {}", tmwia_bench::perf::SCHEMA);
    let doctored = json.replacen(&current, "\"schema\": 999", 1);
    assert_ne!(doctored, json, "baseline has no {current} field to rewrite");
    std::fs::write(dir.join("old.json"), doctored).expect("write doctored baseline");
    let out = run_bench(&dir, &["--label", "x", "--compare", "old.json"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("schema"),
        "unhelpful error: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn doctored_deterministic_field_exits_four() {
    let dir = scratch_dir("doctor");
    let base = run_bench(&dir, &["--label", "base"]);
    assert_eq!(base.status.code(), Some(0), "stderr: {}", stderr_of(&base));
    let json = std::fs::read_to_string(dir.join("BENCH_base.json")).expect("baseline");
    // Flip one deterministic counter: the state fingerprint of the
    // first workload. The harness is seeded, so the mismatch can only
    // mean a behavior regression — exit 4, not 3.
    let idx = json.find("\"state_fnv64\": \"").expect("fingerprint field") + 16;
    let mut doctored = json.clone();
    let orig = doctored.as_bytes()[idx] as char;
    let swapped = if orig == '0' { '1' } else { '0' };
    doctored.replace_range(idx..idx + 1, &swapped.to_string());
    std::fs::write(dir.join("doctored.json"), doctored).expect("write doctored baseline");
    let out = run_bench(
        &dir,
        &[
            "--label",
            "x",
            "--compare",
            "doctored.json",
            "--threshold-pct",
            "400",
        ],
    );
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("compare: FAIL"),
        "unhelpful error: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn absurdly_fast_timing_baseline_exits_four() {
    let dir = scratch_dir("timing");
    let base = run_bench(&dir, &["--label", "base"]);
    assert_eq!(base.status.code(), Some(0), "stderr: {}", stderr_of(&base));
    let json = std::fs::read_to_string(dir.join("BENCH_base.json")).expect("baseline");
    // Claim the kernel took 1 ns: no real run beats that by any sane
    // threshold, so the timing gate must trip.
    let start = json.find("\"kernel_ns\": ").expect("kernel_ns field");
    let end = start + json[start..].find('\n').expect("line end");
    let mut doctored = json.clone();
    doctored.replace_range(start..end, "\"kernel_ns\": 1");
    std::fs::write(dir.join("fast.json"), doctored).expect("write doctored baseline");
    let out = run_bench(&dir, &["--label", "x", "--compare", "fast.json"]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("kernel_ns"),
        "unhelpful error: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
