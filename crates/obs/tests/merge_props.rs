//! Property coverage for the metric-snapshot merge algebra: the relay
//! aggregates per-shard snapshots pairwise in whatever order its link
//! loop produces, so the claims the export path depends on —
//! associativity, commutativity, `zero()` as identity — are laws, not
//! incidental behavior.

use proptest::prelude::*;
use tmwia_obs::{MetricSnapshot, METRICS};

/// Arbitrary snapshots: one value per metric, kept small enough that
/// `Sum` never saturates (saturation is covered separately).
fn arb_snapshot() -> impl Strategy<Value = MetricSnapshot> {
    proptest::collection::vec(0u64..1 << 40, METRICS.len()..METRICS.len() + 1)
        .prop_map(|values| MetricSnapshot::from_values(values).expect("exact length"))
}

proptest! {
    #[test]
    fn merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(a.clone().merged(&b), b.clone().merged(&a));
    }

    #[test]
    fn merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let left = a.clone().merged(&b).merged(&c);
        let right = a.clone().merged(&b.clone().merged(&c));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn zero_is_the_identity(a in arb_snapshot()) {
        prop_assert_eq!(a.clone().merged(&MetricSnapshot::zero()), a.clone());
        prop_assert_eq!(MetricSnapshot::zero().merged(&a), a);
    }

    #[test]
    fn merge_never_decreases_any_metric(a in arb_snapshot(), b in arb_snapshot()) {
        let merged = a.clone().merged(&b);
        for i in 0..METRICS.len() {
            prop_assert!(merged.values()[i] >= a.values()[i]);
            prop_assert!(merged.values()[i] >= b.values()[i]);
        }
    }
}

// The over-time law: `join` is the least upper bound of the dominance
// order, whatever each metric's `Merge` mode.
proptest! {
    #[test]
    fn join_is_commutative_associative_and_idempotent(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        prop_assert_eq!(a.clone().joined(&b), b.clone().joined(&a));
        prop_assert_eq!(
            a.clone().joined(&b).joined(&c),
            a.clone().joined(&b.clone().joined(&c))
        );
        prop_assert_eq!(a.clone().joined(&a), a.clone());
        prop_assert_eq!(a.clone().joined(&MetricSnapshot::zero()), a);
    }

    #[test]
    fn join_is_the_least_upper_bound(a in arb_snapshot(), b in arb_snapshot()) {
        let j = a.clone().joined(&b);
        prop_assert!(a.is_dominated_by(&j));
        prop_assert!(b.is_dominated_by(&j));
        for i in 0..METRICS.len() {
            prop_assert_eq!(j.values()[i], a.values()[i].max(b.values()[i]));
        }
    }

    #[test]
    fn joining_an_earlier_snapshot_is_the_identity(
        a in arb_snapshot(),
        grow in arb_snapshot(),
    ) {
        // `later` grows from `a` the way a registry does over time.
        let later = MetricSnapshot::from_values(
            a.values().iter().zip(grow.values()).map(|(x, g)| x + g).collect(),
        )
        .expect("exact length");
        prop_assert!(a.is_dominated_by(&later));
        prop_assert_eq!(later.clone().joined(&a), later.clone());
        prop_assert_eq!(a.joined(&later.clone()), later);
    }
}

#[test]
fn sum_merge_of_one_source_over_time_is_not_the_identity() {
    // Why the two laws must stay separate: Sum-merging an earlier
    // snapshot of the same registry double-counts it.
    let reg = tmwia_obs::Registry::new();
    reg.add(tmwia_obs::MetricId::ProbesPaid, 3);
    let earlier = reg.snapshot();
    reg.add(tmwia_obs::MetricId::ProbesPaid, 2);
    let later = reg.snapshot();
    assert!(earlier.is_dominated_by(&later));
    assert_eq!(later.clone().joined(&earlier), later);
    assert_ne!(later.clone().merged(&earlier), later);
}

#[test]
fn sum_saturates_instead_of_wrapping() {
    let mut big = MetricSnapshot::from_values(vec![u64::MAX - 1; METRICS.len()]).unwrap();
    let other = MetricSnapshot::from_values(vec![5; METRICS.len()]).unwrap();
    big.merge(&other);
    for (i, d) in METRICS.iter().enumerate() {
        match d.merge {
            tmwia_obs::Merge::Sum => assert_eq!(big.values()[i], u64::MAX, "{}", d.name),
            tmwia_obs::Merge::Max => assert_eq!(big.values()[i], u64::MAX - 1, "{}", d.name),
        }
    }
}
