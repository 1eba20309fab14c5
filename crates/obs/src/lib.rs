//! # tmwia-obs
//!
//! Deterministic observability for the serving stack.
//!
//! Two ideas, kept strictly apart:
//!
//! 1. **Deterministic metrics** ([`metrics`]): a registry of monotone
//!    counters keyed by a static, sorted name space. Every value is a
//!    pure function of the request stream, so exports are
//!    byte-identical across thread pools, and snapshots merge
//!    associatively (per-metric `Sum` or `Max`) so a relay aggregating
//!    per-shard registries reproduces the single-process numbers
//!    byte-for-byte.
//! 2. **Quarantined timing** ([`timing`]): wall-clock reads happen in
//!    exactly one sanctioned sink, injected into the registry as a
//!    plain function pointer by the operational boundary (the CLI).
//!    Library and test code never installs a clock, so every
//!    timestamp is 0 there and the trace stays reproducible; exports
//!    confine timestamps to one trailing `"timing"` object, mirroring
//!    the bench-report convention.
//!
//! On top of those sit a bounded structured event trace ([`events`])
//! and the JSON export ([`export`]), plus the latency histogram
//! ([`histogram`]) shared by service, bench, and cli.

#![forbid(unsafe_code)]

pub mod events;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod timing;

pub use events::{Event, TracedEvent};
pub use export::{deterministic_prefix, render, workload_prefix, LoadReport};
pub use histogram::LatencyHistogram;
pub use metrics::{
    Merge, MetricDef, MetricId, MetricSnapshot, ObsReport, Registry, Scope, METRICS,
};

/// FNV-1a over a byte slice — the workspace's standard cheap digest
/// (re-exported as `tmwia_service::wal::fnv64`).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
