//! The metrics observatory's core contracts, pinned permanently:
//!
//! * **Merge exactness** — histogram partitions fold into the aggregate
//!   counter for counter, so histograms recorded in pieces and folded
//!   add-and-zero (and the percentile fields derived from them) are
//!   bit-identical to one recorded whole. Same argument as the link
//!   ledger: each measured packet's tail ejects once, so the partitions
//!   are disjoint and merge by addition.
//! * **Percentile fidelity** — a log2-bucketed histogram cannot return
//!   the exact quantile, but it must land in the same bucket as the
//!   exact quantile of the underlying value list, and never below it.

use noc_exp::{Scenario, WorkloadKind, WorkloadSpec};
use noc_obs::{Hist, PacketHists};
use noc_topology::{ElevatorSet, Mesh3d};
use proptest::prelude::*;

/// A random but valid tiny scenario, short enough that every proptest
/// case runs in milliseconds. Mirrors `tests/trace_determinism.rs`.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let topo = (2usize..=4, 2usize..=4, 2usize..=3).prop_flat_map(|(x, y, z)| {
        let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=3)
            .prop_map(|set| set.into_iter().collect::<Vec<_>>());
        (Just(Mesh3d::new(x, y, z).unwrap()), columns)
    });
    (topo, 0.001f64..0.006, 0u64..1000, 0usize..2).prop_map(|((mesh, columns), rate, seed, v2)| {
        let elevators = ElevatorSet::new(&mesh, columns).unwrap();
        let workload = if v2 == 1 {
            WorkloadSpec::v2(WorkloadKind::Uniform { rate })
        } else {
            WorkloadSpec::v1(WorkloadKind::Uniform { rate })
        };
        Scenario::new("hist-prop", mesh, elevators)
            .with_phases(100, 400, 2_000)
            .with_workload(workload)
            .with_seed(seed)
    })
}

/// The exact `p`-th percentile of a value list under the same ceiling
/// rank the histogram uses: the smallest value with at least
/// `ceil(total * p / 100)` values at or below it (rank at least 1).
fn exact_percentile(values: &[u64], p: u64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as u128 * u128::from(p)).div_ceil(100)).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// The whole `RunSummary` — including the histogram-derived
    /// percentile fields — is bit-identical across repeats, whatever the
    /// spec's ignored `shards` field says, and delivered packets surface
    /// in the latency histogram: if a delivery were booked twice or not
    /// at all, a percentile would move.
    #[test]
    fn summaries_with_percentiles_are_shard_independent(
        scenario in arb_scenario(),
    ) {
        let first = scenario.run().unwrap();
        prop_assert!(
            first.summary.delivered_packets == 0 || first.summary.latency_max > 0,
            "delivered packets must surface in the latency histogram"
        );
        let mut repeat = scenario.clone();
        repeat.shards = 8;
        prop_assert_eq!(&repeat.run().unwrap().summary, &first.summary);
    }

    /// Merging per-partition histograms equals recording sequentially,
    /// counter for counter, at k ∈ {1, 2, 8} partitions — the pure-data
    /// core of the add-and-zero fold the simulator relies on.
    #[test]
    fn partitioned_histograms_merge_to_the_sequential_one(
        values in prop::collection::vec(0u64..100_000, 0..300),
    ) {
        let mut sequential = Hist::new();
        for &v in &values {
            sequential.record(v);
        }
        for k in [1usize, 2, 8] {
            let mut parts = vec![Hist::new(); k];
            for (i, &v) in values.iter().enumerate() {
                // Deterministic round-robin partition: any assignment
                // must merge to the same aggregate.
                parts[i % k].record(v);
            }
            let mut merged = Hist::new();
            for mut part in parts {
                merged.merge_from(&mut part);
                prop_assert!(part.is_zero(), "merge_from drains the partition");
            }
            prop_assert_eq!(&merged, &sequential);
        }
    }

    /// The bucketed percentile lands in the same log2 bucket as the
    /// exact quantile of the recorded values, and never reports below
    /// it — "within one bucket's resolution" made precise.
    #[test]
    fn percentiles_match_exact_quantiles_to_bucket_resolution(
        values in prop::collection::vec(0u64..1_000_000, 1..400),
    ) {
        let mut hist = Hist::new();
        for &v in &values {
            hist.record(v);
        }
        for p in [50u64, 90, 99, 100] {
            let exact = exact_percentile(&values, p);
            let bucketed = hist.percentile(p);
            prop_assert!(
                bucketed >= exact,
                "p{p}: bucketed {bucketed} under exact {exact}"
            );
            prop_assert_eq!(
                Hist::bucket_of(bucketed),
                Hist::bucket_of(exact),
                "p{}: bucketed {} and exact {} in different buckets",
                p,
                bucketed,
                exact
            );
        }
    }
}

/// The percentile walk on hand-built distributions, including the
/// degenerate ones the proptest rarely hits.
#[test]
fn percentile_walk_handles_edges() {
    let empty = Hist::new();
    assert_eq!(empty.percentile(50), 0, "empty histogram reports 0");

    let mut zeros = Hist::new();
    for _ in 0..10 {
        zeros.record(0);
    }
    assert_eq!(zeros.percentile(99), 0, "all-zero values stay in bucket 0");

    let mut one = Hist::new();
    one.record(37);
    for p in [1, 50, 99, 100] {
        assert_eq!(one.percentile(p), 37, "single value capped by max");
    }
}

/// `PacketHists` partitions drain add-and-zero, so a mid-window fold
/// followed by the end-of-window fold cannot double-count.
#[test]
fn packet_hists_fold_is_idempotent_after_drain() {
    let mut aggregate = PacketHists::new();
    let mut partition = PacketHists::new();
    partition.latency.record(12);
    partition.network_latency.record(9);
    partition.hops.record(3);

    aggregate.merge_from(&mut partition);
    assert!(partition.is_zero());
    let after_first = aggregate.clone();

    // Folding the drained partition again is a no-op.
    aggregate.merge_from(&mut partition);
    assert_eq!(aggregate, after_first);
    assert_eq!(aggregate.latency.total(), 1);
    assert_eq!(aggregate.latency.max(), 12);
}
