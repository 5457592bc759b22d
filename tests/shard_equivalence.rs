//! Lockstep equivalence for the sharded stepping engine.
//!
//! The contract under test: a `k`-shard run is a *bit-identical* function
//! of `(config, seed)` alone — the shard count never leaks into results.
//! The suite pins this the strongest way available: two simulators built
//! from the same config but different shard counts are stepped in
//! lockstep and their committed
//! network state is compared digest-for-digest **every cycle**, across
//! random meshes and loads × {ElevFirst, CDA, AdEle} × random mid-run
//! elevator fail/recover and a sub-watchdog fabric freeze × {v1, v2}
//! workload streams. The same lockstep carries the *watched* cycle body —
//! a tracer-attached simulator and one driven by `advance_phase_timed` —
//! beside the plain `step()` one. Whole-run [`RunSummary`] equality then
//! covers the statistics/energy paths on top of the raw network state.

use adele::offline::{OfflineOptimizer, SelectionStrategy};
use amosa::AmosaParams;
use noc_exp::{SelectorSpec, StreamVersion, WorkloadKind, WorkloadSpec};
use noc_obs::{compare_journals, parse_journal, SharedBuffer};
use noc_sim::{RunSummary, SimCommand, SimConfig, Simulator, TraceWriter, Tracer};
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

/// Everything that parameterises one equivalence scenario. One instance
/// builds *many* simulators (one per shard count, plus repeats) that must
/// all agree bit for bit.
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
    /// Builds the simulator for `shards`, with the case's fail/recover
    /// pair and a short freeze already scheduled. AdEle runs from a deterministic offline
    /// assignment (same seed for every shard count, so the selector
    /// stream is identical by construction).
    fn build(&self, shards: usize) -> Simulator {
        let config = SimConfig::new(self.mesh, self.elevators.clone())
            .with_phases(100, 500, 20_000)
            .with_shards(shards);
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
        sim.schedule_command(self.fail_at, SimCommand::FailElevator(victim));
        sim.schedule_command(
            self.fail_at + self.recover_after,
            SimCommand::RecoverElevator(victim),
        );
        sim.schedule_command(self.fail_at / 2, SimCommand::FreezeFabric { cycles: 20 });
        sim
    }

    /// [`Self::build`] with a flight recorder attached, journaling into
    /// the returned buffer.
    fn build_traced(&self, shards: usize) -> (Simulator, SharedBuffer) {
        let journal = SharedBuffer::new();
        let mut sim = self.build(shards);
        sim.attach_tracer(Tracer::new(TraceWriter::new(Box::new(journal.clone())), 64));
        (sim, journal)
    }

    /// Steps three `k`-shard simulators — plain, traced, and driven by
    /// the phase-timed probe — against the sequential engine for
    /// `cycles`, requiring digest equality at **every** cycle boundary
    /// (and flow conservation plus the worklist/bitmap audit on the
    /// unwatched pair).
    fn assert_lockstep(&self, k: usize, cycles: u64) -> Result<(), TestCaseError> {
        let mut seq = self.build(1);
        let mut sharded = self.build(k);
        let (mut traced, _journal) = self.build_traced(k);
        let mut timed = self.build(k);
        for cycle in 0..cycles {
            seq.step().unwrap();
            sharded.step().unwrap();
            traced.step().unwrap();
            timed.advance_phase_timed(1).unwrap();
            for (label, sim) in [("step", &sharded), ("traced", &traced), ("timed", &timed)] {
                prop_assert_eq!(
                    sim.network().state_digest(),
                    seq.network().state_digest(),
                    "cycle {}: {} at k={} diverged from the sequential engine \
                     ({:?}, v2={}, seed={})",
                    cycle,
                    label,
                    k,
                    self.policy,
                    self.v2,
                    self.seed
                );
            }
            for (label, sim) in [("k=1", &seq), ("sharded", &sharded)] {
                if let Err(e) = sim.network().check_flow_conservation() {
                    return Err(TestCaseError::fail(format!(
                        "cycle {cycle}: {label} (k={k}) broke conservation: {e}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Full `run()` at `shards`, exercising warm-up, the measurement
    /// window, the drain phase and the summary assembly.
    fn run(&self, shards: usize) -> RunSummary {
        self.build(shards).run().unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// The tentpole claim, cycle by cycle: for k ∈ {2, 4, 8} the sharded
    /// engine's committed state digest tracks the k = 1 engine at every
    /// cycle boundary, through the warm-up, a mid-run elevator failure
    /// and its recovery, on both workload streams and all three policies.
    #[test]
    fn sharded_state_tracks_sequential_every_cycle(
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
        for k in [2usize, 4, 8] {
            case.assert_lockstep(k, 1_000)?;
        }
    }

    /// Whole-run equality: the same scenarios driven through `run()`
    /// (warm-up + window + drain + watchdog + summary assembly) produce a
    /// `RunSummary` that is equal field-for-field at every shard count —
    /// latencies, throughput, per-router loads, per-pillar energy, all of
    /// it.
    #[test]
    fn run_summaries_are_identical_at_every_shard_count(
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
        let sequential = case.run(1);
        for k in [2usize, 4, 8] {
            let sharded = case.run(k);
            prop_assert_eq!(
                &sharded, &sequential,
                "k={} summary diverged ({:?}, v2={}, seed={})",
                k, case.policy, case.v2, case.seed
            );
        }
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
    let (mut stepped, stepped_journal) = case.build_traced(4);
    let (mut timed, timed_journal) = case.build_traced(4);
    stepped.advance(1_000).unwrap();
    timed.advance_phase_timed(1_000).unwrap();
    let want = parse_journal(&stepped_journal.contents()).unwrap();
    let got = parse_journal(&timed_journal.contents()).unwrap();
    let count = |kind: &str| want.iter().filter(|r| r.kind() == kind).count();
    assert_eq!(count("event"), 3, "fail, recover and freeze are journaled");
    assert_eq!(count("window"), 1_000 / 64, "one window per period");
    compare_journals(&want, &got).unwrap();
}

/// Shard-count edge cases resolve deterministically: `shards: 0` means 1,
/// and a request beyond the router count clamps instead of panicking.
#[test]
fn degenerate_shard_counts_clamp_and_stay_identical() {
    let mesh = Mesh3d::new(2, 2, 2).unwrap();
    let case = Case {
        mesh,
        elevators: ElevatorSet::new(&mesh, [(0, 0)]).unwrap(),
        policy: SelectorSpec::Cda,
        v2: false,
        rate: 0.004,
        seed: 9,
        fail_at: 100,
        recover_after: 50,
    };
    let sequential = case.run(1);
    for k in [0usize, 7, 8, 64, 10_000] {
        assert_eq!(
            case.run(k),
            sequential,
            "shards={k} must clamp to the router count and stay identical"
        );
    }
}
