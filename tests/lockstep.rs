//! Lockstep equivalence of the watched and unwatched cycle bodies.
//!
//! The contract under test: a simulator's results are a *bit-identical*
//! function of `(config, seed)` alone — whether a tracer watches it, or
//! the phase-timed probe drives it, never leaks into results. The suite
//! pins this the strongest way available: a plain `step()` simulator, a
//! tracer-attached one and one driven by `advance_phase_timed`, all built
//! from the same case, are stepped in lockstep and their committed network
//! state is compared digest-for-digest **every cycle**, with flow
//! conservation and the worklist/bitmap audit run on each of them every
//! cycle, across random meshes and loads × {ElevFirst, CDA, AdEle} ×
//! random mid-run elevator fail/recover and a sub-watchdog fabric freeze ×
//! {v1, v2} workload streams. Whole-run [`RunSummary`] equality then
//! covers the statistics/energy paths on top of the raw network state.

use adele::offline::{OfflineOptimizer, SelectionStrategy};
use amosa::AmosaParams;
use noc_exp::{SelectorSpec, StreamVersion, WorkloadKind, WorkloadSpec};
use noc_obs::{compare_journals, parse_journal, SharedBuffer};
use noc_sim::{Event, RunSummary, SimConfig, Simulator, TraceWriter, Tracer};
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d};
use proptest::prelude::*;

/// Builds a random but valid PC-3DNoC: mesh 2..=4 per dimension, 1..=4
/// distinct elevator columns (the same generator as the network
/// invariants suite).
fn arb_topology() -> impl Strategy<Value = (Mesh3d, Vec<(u8, u8)>)> {
    (2usize..=4, 2usize..=4, 2usize..=3).prop_flat_map(|(x, y, z)| {
        let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=4)
            .prop_map(|set| set.into_iter().collect::<Vec<_>>());
        (Just(Mesh3d::new(x, y, z).unwrap()), columns)
    })
}

/// AdEle's `assignment: None` is a placeholder: [`Case::build`] fills in
/// the case's offline assignment.
const POLICIES: [SelectorSpec; 3] = [
    SelectorSpec::ElevatorFirst,
    SelectorSpec::Cda,
    SelectorSpec::Adele {
        rr_only: false,
        measured_energy: false,
        assignment: None,
    },
];

/// Everything that parameterises one lockstep scenario. One instance
/// builds *several* simulators (plain, traced, phase-timed, repeats) that
/// must all agree bit for bit.
struct Case {
    mesh: Mesh3d,
    elevators: ElevatorSet,
    policy: SelectorSpec,
    v2: bool,
    rate: f64,
    seed: u64,
    fail_at: u64,
    recover_after: u64,
}

impl Case {
    /// Builds the simulator, with the case's fail/recover pair and a short
    /// freeze already scheduled. AdEle runs from a deterministic offline
    /// assignment (same seed for every build, so the selector stream is
    /// identical by construction).
    fn build(&self) -> Simulator {
        let config =
            SimConfig::new(self.mesh, self.elevators.clone()).with_phases(100, 500, 20_000);
        let input = WorkloadSpec {
            stream: if self.v2 {
                StreamVersion::V2
            } else {
                StreamVersion::V1
            },
            kind: WorkloadKind::Uniform { rate: self.rate },
        }
        .build(&self.mesh, self.seed);
        let mut policy = self.policy.clone();
        if let SelectorSpec::Adele { assignment, .. } = &mut policy {
            let offline = OfflineOptimizer::new(self.mesh, self.elevators.clone())
                .with_params(AmosaParams::fast(self.seed))
                .optimize();
            let pick = offline.select(SelectionStrategy::LatencyLeaning);
            *assignment = Some(pick.assignment.clone());
        }
        let selector = policy.build(&self.mesh, &self.elevators, self.seed);
        let mut sim = Simulator::from_scheduled(config, input, selector);
        let victim = ElevatorId((self.seed % self.elevators.len() as u64) as u8);
        sim.schedule(Event::ElevatorFail {
            cycle: self.fail_at,
            elevator: victim,
        });
        sim.schedule(Event::ElevatorRecover {
            cycle: self.fail_at + self.recover_after,
            elevator: victim,
        });
        sim.schedule(Event::FabricFreeze {
            cycle: self.fail_at / 2,
            cycles: 20,
        });
        sim
    }

    /// [`Self::build`] with a flight recorder attached, journaling into
    /// the returned buffer.
    fn build_traced(&self) -> (Simulator, SharedBuffer) {
        let journal = SharedBuffer::new();
        let mut sim = self.build();
        sim.attach_tracer(Tracer::new(TraceWriter::new(Box::new(journal.clone())), 64));
        (sim, journal)
    }

    /// Steps a traced simulator and one driven by the phase-timed probe
    /// against a plain one for `cycles`, requiring digest equality at
    /// **every** cycle boundary, and flow conservation plus the
    /// worklist/bitmap audit on all three.
    fn assert_lockstep(&self, cycles: u64) -> Result<(), TestCaseError> {
        let mut plain = self.build();
        let (mut traced, _journal) = self.build_traced();
        let mut timed = self.build();
        for cycle in 0..cycles {
            plain.step().unwrap();
            traced.step().unwrap();
            timed.advance_phase_timed(1).unwrap();
            for (label, sim) in [("traced", &traced), ("timed", &timed)] {
                prop_assert_eq!(
                    sim.state_digest(),
                    plain.state_digest(),
                    "cycle {}: {} diverged from plain stepping ({:?}, v2={}, seed={})",
                    cycle,
                    label,
                    self.policy,
                    self.v2,
                    self.seed
                );
            }
            for (label, sim) in [("plain", &plain), ("traced", &traced), ("timed", &timed)] {
                if let Err(e) = sim.network().check_flow_conservation() {
                    return Err(TestCaseError::fail(format!(
                        "cycle {cycle}: {label} broke conservation: {e}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Full `run()`, exercising warm-up, the measurement window, the drain
    /// phase and the summary assembly, untraced or traced.
    fn run(&self, traced: bool) -> RunSummary {
        let sim = if traced {
            self.build_traced().0
        } else {
            self.build()
        };
        sim.run().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// The contract cycle by cycle: the watched cycle body (traced and
    /// phase-timed) tracks the plain one's committed state digest at every
    /// cycle boundary, through the warm-up, a fabric freeze, a mid-run
    /// elevator failure and its recovery, on both workload streams and all
    /// three policies.
    #[test]
    fn watched_state_tracks_plain_every_cycle(
        (mesh, columns) in arb_topology(),
        rate in 0.0005f64..0.004,
        seed in 0u64..1000,
        policy_idx in 0usize..3,
        v2 in 0usize..2,
        fail_at in 0u64..600,
        recover_after in 1u64..400,
    ) {
        let case = Case {
            mesh,
            elevators: ElevatorSet::new(&mesh, columns).unwrap(),
            policy: POLICIES[policy_idx].clone(),
            v2: v2 == 1,
            rate,
            seed,
            fail_at,
            recover_after,
        };
        case.assert_lockstep(1_000)?;
    }

    /// Whole-run equality: the same scenarios driven through `run()`
    /// (warm-up + window + drain + watchdog + summary assembly) produce a
    /// `RunSummary` that is equal field-for-field traced or not, and
    /// across repeats — latencies, throughput, per-router loads,
    /// per-pillar energy, all of it.
    #[test]
    fn run_summaries_are_identical_traced_or_not(
        (mesh, columns) in arb_topology(),
        rate in 0.0005f64..0.004,
        seed in 0u64..1000,
        policy_idx in 0usize..3,
        v2 in 0usize..2,
        fail_at in 0u64..600,
        recover_after in 1u64..400,
    ) {
        let case = Case {
            mesh,
            elevators: ElevatorSet::new(&mesh, columns).unwrap(),
            policy: POLICIES[policy_idx].clone(),
            v2: v2 == 1,
            rate,
            seed,
            fail_at,
            recover_after,
        };
        let plain = case.run(false);
        prop_assert_eq!(
            &case.run(true), &plain,
            "traced summary diverged ({:?}, v2={}, seed={})",
            case.policy, case.v2, case.seed
        );
        prop_assert_eq!(&case.run(false), &plain, "repeat diverged");
    }
}

/// Whoever drives the watched cycle, the journal is the same: a traced
/// simulator advanced by the phase-timed probe writes the `event` and
/// `window` records that plain `advance` writes, equal on every
/// deterministic field.
#[test]
fn phase_timed_advance_journals_like_advance() {
    let mesh = Mesh3d::new(4, 4, 3).unwrap();
    let case = Case {
        mesh,
        elevators: ElevatorSet::new(&mesh, [(0, 0), (3, 3), (1, 2)]).unwrap(),
        policy: SelectorSpec::Cda,
        v2: true,
        rate: 0.003,
        seed: 42,
        fail_at: 250,
        recover_after: 200,
    };
    let (mut stepped, stepped_journal) = case.build_traced();
    let (mut timed, timed_journal) = case.build_traced();
    stepped.advance(1_000).unwrap();
    timed.advance_phase_timed(1_000).unwrap();
    let want = parse_journal(&stepped_journal.contents()).unwrap();
    let got = parse_journal(&timed_journal.contents()).unwrap();
    let count = |kind: &str| want.iter().filter(|r| r.kind() == kind).count();
    assert_eq!(count("event"), 3, "fail, recover and freeze are journaled");
    assert_eq!(count("window"), 1_000 / 64, "one window per period");
    compare_journals(&want, &got).unwrap();
}
