//! Robustness suite: rigged deadlocks surface as *structured*,
//! exactly-diagnosable [`SimError`]s — never panics — with diagnostics
//! that are invariant across repeats and worker counts, and a dead point
//! never perturbs its neighbours' numbers.
//!
//! Natural deadlocks cannot occur in this engine (Elevator-First routing
//! is deadlock-free and ejection always drains), so every test here uses
//! the chaos harness's rig: an injection burst fills the fabric, a
//! [`Event::FabricFreeze`] wedges it solid, and an adversarially tiny
//! watchdog converts the wedge into [`SimError::Deadlock`] on demand.

use noc_exp::{run_batch_supervised, Event, PointError, Scenario, Supervision, WorkloadKind};
use noc_sim::SimError;
use noc_topology::{ElevatorSet, Mesh3d};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A small healthy scenario on the 4×4×2 mesh.
fn healthy(name: &str, seed: u64, rate: f64) -> Scenario {
    let mesh = Mesh3d::new(4, 4, 2).expect("dimensions are valid");
    let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).expect("pillars fit");
    Scenario::new(name, mesh, elevators)
        .with_phases(100, 600, 2_500)
        .with_workload(WorkloadKind::Uniform { rate })
        .with_seed(seed)
}

/// The same scenario rigged to wedge: burst-fill the fabric, freeze it
/// for far longer than the tightened watchdog tolerates.
fn rigged(name: &str, seed: u64, rate: f64) -> Scenario {
    healthy(name, seed, rate)
        .with_event(Event::InjectionBurst {
            cycle: 0,
            factor: 25.0,
        })
        .with_event(Event::FabricFreeze {
            cycle: 40,
            cycles: 10_000,
        })
        .with_watchdog(32)
}

/// The deadlock diagnostics a run surfaced, or a test failure if it did
/// anything else (completed, or panicked — panics would abort the test
/// process itself, which is exactly what must never happen).
fn deadlock_diag(scenario: &Scenario) -> Result<(u64, u64, u64), TestCaseError> {
    match scenario.run() {
        Err(SimError::Deadlock {
            cycle,
            last_progress,
            watchdog,
            buffered,
            state_digest,
            ..
        }) => {
            prop_assert_eq!(watchdog, 32, "the rig's watchdog is reported verbatim");
            prop_assert!(buffered > 0, "the watchdog only fires on a loaded fabric");
            prop_assert!(
                cycle - last_progress > watchdog,
                "cycle {} / last progress {} must straddle the watchdog",
                cycle,
                last_progress
            );
            Ok((cycle, last_progress, state_digest))
        }
        Ok(r) => Err(TestCaseError::fail(format!(
            "rigged run completed ({} packets) instead of deadlocking",
            r.summary.delivered_packets
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Satellite (c), first half: the rig produces `SimError::Deadlock` —
    /// never a panic — and the *exact-cycle* diagnostics (fire cycle, last
    /// progress, state digest) are bit-identical across repeats, whatever
    /// the spec's ignored `shards` field says — the same determinism the
    /// lockstep suite proves for healthy runs.
    #[test]
    fn rigged_deadlocks_are_structured_and_shard_invariant(
        seed in 0u64..1_000,
        rate in 0.002f64..0.01,
    ) {
        let scenario = rigged("rig", seed, rate);
        let mut repeat = scenario.clone();
        repeat.shards = 8;
        prop_assert_eq!(deadlock_diag(&scenario)?, deadlock_diag(&repeat)?, "repeat diverged");
    }

    /// Satellite (c), second half: the same rig run through the
    /// *supervised pool* at worker counts 1 and 3 ends as a structured
    /// `PointError::Sim(Deadlock)` outcome — one strike, no retry, no
    /// panic — with diagnostics identical to the direct run at every
    /// worker count.
    #[test]
    fn supervised_deadlock_diagnostics_are_worker_invariant(seed in 0u64..500) {
        let rate = 0.004;
        let scenarios: Vec<Scenario> = (0..3)
            .map(|i| rigged(&format!("rig-{i}"), seed, rate))
            .collect();
        let direct = deadlock_diag(&scenarios[0])?;
        for threads in [1usize, 3] {
            let outcomes =
                run_batch_supervised(&scenarios, threads, &Supervision::new(), None, |_| {});
            prop_assert_eq!(outcomes.len(), scenarios.len());
            for outcome in &outcomes {
                let failure = outcome.failure().ok_or_else(|| {
                    TestCaseError::fail("rigged point completed under supervision")
                })?;
                prop_assert_eq!(failure.attempts, 1, "deterministic: one strike");
                match &failure.error {
                    PointError::Sim(SimError::Deadlock {
                        cycle,
                        last_progress,
                        state_digest,
                        ..
                    }) => {
                        prop_assert_eq!(
                            (*cycle, *last_progress, *state_digest),
                            direct,
                            "threads={} must not change the diagnostics",
                            threads
                        );
                    }
                    other => {
                        return Err(TestCaseError::fail(format!(
                            "expected a structured deadlock, got {other}"
                        )))
                    }
                }
            }
        }
    }

    /// A deadlocked point leaves its neighbours bit-identical: the
    /// healthy points of a supervised batch containing a rigged point
    /// match standalone unsupervised runs field for field.
    #[test]
    fn a_deadlocked_point_leaves_neighbours_bit_identical(seed in 0u64..500) {
        let batch = vec![
            healthy("left", seed, 0.004),
            rigged("middle", seed.wrapping_add(1), 0.004),
            healthy("right", seed.wrapping_add(2), 0.005),
        ];
        let outcomes = run_batch_supervised(&batch, 2, &Supervision::new(), None, |_| {});
        prop_assert!(outcomes[1].failure().is_some(), "the rigged point died");
        for index in [0usize, 2] {
            let standalone = batch[index].run().map_err(|e| {
                TestCaseError::fail(format!("healthy neighbour failed: {e}"))
            })?;
            prop_assert_eq!(
                outcomes[index].result(),
                Some(&standalone),
                "neighbour {} must be bit-identical to its standalone run",
                index
            );
        }
    }
}

/// The structured error also travels: a deadlock's serialized form keeps
/// the exact-cycle diagnostics, so a failed point in a ledger or trace
/// names the wedge precisely.
#[test]
fn deadlock_reports_survive_serialization() {
    let scenario = rigged("rig", 7, 0.004);
    let error = scenario.run().expect_err("rigged to deadlock");
    let text = format!("{error}");
    assert!(text.contains("deadlock at cycle"), "{text}");
    assert!(text.contains("state digest"), "{text}");
    let SimError::Deadlock { cycle, .. } = error;
    assert!(
        text.contains(&format!("deadlock at cycle {cycle}")),
        "the report names the firing cycle: {text}"
    );
}
