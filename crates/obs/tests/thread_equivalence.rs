//! Thread-pool invariance: the registry is shared across worker
//! threads (shard workers, the TCP accept loop), so its export must
//! not depend on how the same logical updates were scheduled. Sums
//! commute, maxima are order-free, and no metric observes interleaving
//! — the rendered export is byte-identical at any thread count.

use tmwia_obs::{MetricId, ObsReport, Registry};

/// Apply one deterministic logical workload to `reg`, partitioned
/// round-robin across `threads` workers.
fn hammer(reg: &Registry, threads: usize) {
    const UPDATES: u64 = 10_000;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut i = t as u64;
                while i < UPDATES {
                    reg.inc(MetricId::ReadsServed);
                    reg.add(MetricId::WalBytes, i % 13);
                    reg.set_max(MetricId::TicksExecuted, i);
                    if i.is_multiple_of(97) {
                        reg.inc(MetricId::SnapshotsSealed);
                    }
                    i += threads as u64;
                }
            });
        }
    });
}

#[test]
fn render_is_byte_identical_across_thread_counts() {
    let renders: Vec<String> = [1usize, 2, 3, 8]
        .iter()
        .map(|&threads| {
            let reg = Registry::new();
            hammer(&reg, threads);
            // Fixed export instant: with no clock installed and the
            // same `exported_at`, the whole document must match, not
            // just the deterministic prefix.
            tmwia_obs::render(
                &ObsReport {
                    metrics: reg.snapshot(),
                    ..ObsReport::default()
                },
                0,
            )
        })
        .collect();
    for (i, r) in renders.iter().enumerate().skip(1) {
        assert_eq!(
            r,
            &renders[0],
            "thread count {} drifted from single-threaded",
            [1usize, 2, 3, 8][i]
        );
    }
}

#[test]
fn snapshots_taken_mid_hammer_merge_to_the_final_state() {
    // A monitor thread snapshotting concurrently must never observe a
    // value that a later snapshot loses. One registry observed over
    // time is a chain: every interim snapshot is pointwise at most the
    // final one, so the over-time join of any interim snapshot into
    // the final one is the identity. (The Sum-merge is the law for
    // disjoint sources and would double-count here.)
    let reg = Registry::new();
    let mut interim = Vec::new();
    std::thread::scope(|s| {
        let h = s.spawn(|| hammer(&reg, 4));
        while !h.is_finished() {
            interim.push(reg.snapshot());
            std::thread::yield_now();
        }
    });
    let final_snap = reg.snapshot();
    for (i, s) in interim.iter().enumerate() {
        assert!(
            s.is_dominated_by(&final_snap),
            "interim snapshot {i} carried a value the final export lost"
        );
        if let Some(next) = interim.get(i + 1) {
            assert!(s.is_dominated_by(next), "snapshot {i} outran its successor");
        }
    }
    let joined = interim
        .iter()
        .fold(final_snap.clone(), |acc, s| acc.joined(s));
    assert_eq!(joined, final_snap);
}
