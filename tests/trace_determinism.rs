//! Determinism of the flight recorder and robustness of the replay
//! oracle.
//!
//! The contract: a trace journal is a pure function of the scenario spec
//! on its deterministic fields — two recordings of the same spec agree
//! record for record, and a golden journal verifies under replay whatever
//! its spec's ignored `shards` field says. Damaged
//! journals — corrupted lines, truncation, a missing header — must fail
//! [`noc_exp::verify_trace`] with a [`noc_obs::TraceError`] naming the
//! offending record index, never a panic.

use noc_exp::{record_trace, trace_period, verify_trace, Scenario, WorkloadKind, WorkloadSpec};
use noc_obs::{compare_journals, parse_journal, Record};
use noc_topology::{ElevatorSet, Mesh3d};
use proptest::prelude::*;

/// A random but valid tiny scenario with tracing enabled: mesh 2..=4 per
/// dimension, 1..=3 distinct elevator columns, either workload stream,
/// short windows so every proptest case replays in milliseconds.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let topo = (2usize..=4, 2usize..=4, 2usize..=3).prop_flat_map(|(x, y, z)| {
        let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=3)
            .prop_map(|set| set.into_iter().collect::<Vec<_>>());
        (Just(Mesh3d::new(x, y, z).unwrap()), columns)
    });
    (topo, 0.001f64..0.005, 0u64..1000, 0usize..2, 50u64..200).prop_map(
        |((mesh, columns), rate, seed, v2, period)| {
            let elevators = ElevatorSet::new(&mesh, columns).unwrap();
            let workload = if v2 == 1 {
                WorkloadSpec::v2(WorkloadKind::Uniform { rate })
            } else {
                WorkloadSpec::v1(WorkloadKind::Uniform { rate })
            };
            Scenario::new("trace-prop", mesh, elevators)
                .with_phases(100, 400, 2_000)
                .with_workload(workload)
                .with_seed(seed)
                .with_trace(period)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// Two recordings of the same spec agree on every deterministic
    /// field, in both comparison directions, with the same record count —
    /// and the journal verifies under replay, also with its header and
    /// spec rewritten to `"shards": 8`.
    #[test]
    fn journals_are_deterministic_and_shard_independent(
        scenario in arb_scenario(),
    ) {
        let period = trace_period(&scenario);
        let a = record_trace(&scenario, period).unwrap();
        let b = record_trace(&scenario, period).unwrap();
        prop_assert_eq!(a.lines().count(), b.lines().count());
        let parsed_a = parse_journal(&a).expect("journal a parses");
        let parsed_b = parse_journal(&b).expect("journal b parses");
        compare_journals(&parsed_a, &parsed_b).expect("a vs b deterministic fields");
        compare_journals(&parsed_b, &parsed_a).expect("b vs a deterministic fields");

        for journal in [a.clone(), a.replace("\"shards\":1", "\"shards\":8")] {
            let report = verify_trace(&journal).expect("golden journal verifies");
            prop_assert_eq!(report.records, parsed_a.len());
        }
    }

    /// Corrupting any single line makes the journal fail to parse with
    /// exactly that record index — and `verify_trace` surfaces the same
    /// error instead of panicking.
    #[test]
    fn corrupted_journals_fail_with_the_record_index(
        scenario in arb_scenario(),
        pick in 0usize..1000,
    ) {
        let journal = record_trace(&scenario, trace_period(&scenario)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        let victim = pick % lines.len();
        let corrupted: String = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                if i == victim {
                    "{ not json at all".to_string()
                } else {
                    (*line).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_journal(&corrupted).expect_err("corruption must not parse");
        prop_assert_eq!(err.record, victim);
        let err = verify_trace(&corrupted).expect_err("verify must refuse, not panic");
        prop_assert_eq!(err.record, victim);
    }

    /// A cleanly truncated journal still parses, but verification fails
    /// at the cut: the fresh replay has records the golden lost.
    #[test]
    fn truncated_journals_fail_at_the_cut(
        scenario in arb_scenario(),
        drop in 1usize..4,
    ) {
        let journal = record_trace(&scenario, trace_period(&scenario)).unwrap();
        let lines: Vec<&str> = journal.lines().collect();
        // Keep at least the header so verification reaches the compare.
        let keep = lines.len().saturating_sub(drop).max(1);
        let truncated = lines[..keep].join("\n");
        let err = verify_trace(&truncated).expect_err("truncation must fail verification");
        prop_assert_eq!(err.record, keep, "error names the first missing record");
    }
}

/// A tampered histogram payload (bucket counts no longer summing to the
/// recorded total) fails parsing — and verification — with exactly the
/// offending record's index, never a panic.
#[test]
fn corrupted_histogram_records_fail_with_the_record_index() {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    let scenario = Scenario::new("hist-corruption", mesh, elevators)
        .with_phases(100, 400, 2_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.004 })
        .with_seed(11)
        .with_trace(100);
    let journal = record_trace(&scenario, trace_period(&scenario)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    let victim = lines
        .iter()
        .position(|l| l.contains("\"type\":\"hist\""))
        .expect("v2 journals carry hist records");
    let corrupted: String = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            if i == victim {
                // Inflate the first histogram's total: counts stop
                // summing to it, which the payload validator rejects.
                line.replacen("\"total\":", "\"total\":9", 1)
            } else {
                (*line).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(corrupted, journal, "tampering must change the journal");

    let err = parse_journal(&corrupted).expect_err("corrupt histogram must not parse");
    assert_eq!(err.record, victim);
    assert!(err.message.contains("corrupt"), "unexpected message: {err}");

    let err = verify_trace(&corrupted).expect_err("verify must refuse, not panic");
    assert_eq!(err.record, victim);
}

/// A journal that does not begin with a header record is rejected at
/// record 0 — there is no spec to replay.
#[test]
fn headerless_journals_are_rejected_at_record_zero() {
    let headerless = r#"{"type":"phase","cycle":0,"phase":"warmup"}"#;
    let err = verify_trace(headerless).unwrap_err();
    assert_eq!(err.record, 0);
    assert!(err.message.contains("header"), "unexpected message: {err}");

    let empty = verify_trace("").unwrap_err();
    assert_eq!(empty.record, 0);
}

/// The golden journal's structure is what the schema promises: a header
/// first, phase markers for every lifecycle transition, periodic windows
/// each followed by its `hist` record, and one final summary carrying the
/// latency percentiles.
#[test]
fn journals_carry_the_schema_record_types() {
    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
    let scenario = Scenario::new("schema-shape", mesh, elevators)
        .with_phases(100, 400, 2_000)
        .with_workload(WorkloadKind::Uniform { rate: 0.004 })
        .with_seed(11)
        .with_trace(100);
    let journal = record_trace(&scenario, trace_period(&scenario)).unwrap();
    let records = parse_journal(&journal).unwrap();

    assert!(matches!(records[0], Record::Header { .. }));
    let phases: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::Phase { phase, .. } => Some(phase.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(phases, ["warmup", "measure", "drain", "done"]);
    let windows = records
        .iter()
        .filter(|r| matches!(r, Record::Window { .. }))
        .count();
    assert!(windows >= 4, "period 100 over 500+ cycles: got {windows}");
    let hists = records
        .iter()
        .filter(|r| matches!(r, Record::Hist { .. }))
        .count();
    assert_eq!(hists, windows, "one hist record per window");
    let Some(Record::Summary { summary }) = records.last() else {
        panic!("the journal ends with its summary");
    };
    let p99 = serde::field::<serde::Value>(summary, "latency_p99");
    assert!(p99.is_ok(), "{summary:?}");
}
