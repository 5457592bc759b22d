//! The relay oracle: one simulator that promotes relays and one that
//! steps the per-flit engine only, driven in lockstep by the same
//! workload. Every cycle their committed fabric state and progress must
//! agree and both must pass the conservation and relay audits; after
//! every telemetry fold, so must their summaries, link ledgers and energy
//! ledgers, with nothing left unfolded.

use super::Simulator;
use crate::{SimCommand, SimConfig};
use adele::online::{CdaSelector, ElevatorFirstSelector, ElevatorSelector};
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d};
use noc_traffic::injection::PacketSizeRange;
use noc_traffic::{BatchedSynthetic, SyntheticParts};
use proptest::prelude::*;

/// One lockstep scenario.
#[derive(Debug, Clone)]
struct Case {
    mesh: Mesh3d,
    columns: Vec<(u8, u8)>,
    depth: u8,
    /// Packet sizes, inclusive.
    sizes: (u16, u16),
    rate: f64,
    cda: bool,
    seed: u64,
    /// Cycle at which the fabric freezes and, with two pillars or more,
    /// pillar 0 fails.
    event_at: u64,
    /// Cycles between telemetry folds.
    fold_every: u64,
}

impl Case {
    fn build(&self, relays: bool) -> Simulator {
        let elevators = ElevatorSet::new(&self.mesh, self.columns.iter().copied()).unwrap();
        let mut config = SimConfig::new(self.mesh, elevators.clone());
        config.buffer_depth = self.depth;
        let mut parts = SyntheticParts::uniform(&self.mesh, self.rate);
        parts.sizes = PacketSizeRange::new(self.sizes.0, self.sizes.1);
        let traffic = BatchedSynthetic::from_parts(parts, self.seed);
        let selector: Box<dyn ElevatorSelector> = if self.cda {
            Box::new(CdaSelector::new())
        } else {
            Box::new(ElevatorFirstSelector::new(&self.mesh, &elevators))
        };
        let mut sim = Simulator::from_scheduled(config, Box::new(traffic), selector);
        if !relays {
            sim.net.disable_relays();
        }
        sim.schedule_command(self.event_at, SimCommand::FreezeFabric { cycles: 7 });
        if self.columns.len() > 1 {
            sim.schedule_command(self.event_at, SimCommand::FailElevator(ElevatorId(0)));
        }
        sim
    }

    /// Steps both engines `cycles` cycles, armed on the second and fourth
    /// quarters. Returns the relay cycles and the sends of the armed
    /// cycles.
    fn lockstep(&self, cycles: u64) -> Result<(u64, u64), TestCaseError> {
        let (mut relay, mut plain) = (self.build(true), self.build(false));
        let mut relay_cycles = 0;
        for cycle in 0..cycles {
            let armed = cycle * 4 / cycles % 2 == 1;
            relay.stats.set_armed(armed);
            plain.stats.set_armed(armed);
            if armed {
                relay_cycles += relay.net.relay_count() as u64;
            }
            relay.step().unwrap();
            plain.step().unwrap();
            let why = |what: &str| format!("cycle {cycle}: {what} diverged in {self:?}");
            prop_assert_eq!(
                relay.net.state_digest(),
                plain.net.state_digest(),
                "{}",
                why("state")
            );
            prop_assert_eq!(
                relay.last_progress,
                plain.last_progress,
                "{}",
                why("progress")
            );
            for sim in [&relay, &plain] {
                let audit = sim
                    .net
                    .check_flow_conservation()
                    .and(sim.net.check_relays());
                if let Err(e) = audit {
                    return Err(TestCaseError::fail(why(&e)));
                }
            }
            if (cycle + 1) % self.fold_every == 0 || cycle + 1 == cycles {
                let summaries = (relay.summarise(false), plain.summarise(false));
                prop_assert_eq!(summaries.0, summaries.1, "{}", why("summary"));
                prop_assert_eq!(
                    relay.energy_ledger(),
                    plain.energy_ledger(),
                    "{}",
                    why("energy")
                );
                prop_assert_eq!(relay.link_ledger(), plain.link_ledger(), "{}", why("links"));
                prop_assert!(relay.telemetry_partials_clear() && plain.telemetry_partials_clear());
            }
        }
        Ok((relay_cycles, relay.energy_ledger().buffer_reads))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Relays change nothing: meshes up to 5×5×3 with failed pillars,
    /// depths 1, 2 and 4, packets of 1–30 flits, loads from idle to past
    /// saturation, and a fabric freeze mid-run.
    #[test]
    fn relays_step_like_the_per_flit_engine(
        (mesh, columns) in (2usize..=5, 2usize..=5, 1usize..=3).prop_flat_map(|(x, y, z)| {
            let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=3);
            (Just(Mesh3d::new(x, y, z).unwrap()), columns)
        }),
        (depth, sizes, load) in (0usize..3, (1u16..=30, 1u16..=30), 0.0f64..1.0),
        (cda, seed) in (0usize..2, 0u64..1_000),
        (event_at, fold_every) in (0u64..300, 1u64..150),
    ) {
        // Sorted, so a reported case reproduces whatever the set's order.
        let mut columns: Vec<(u8, u8)> = columns.into_iter().collect();
        columns.sort_unstable();
        let case = Case {
            mesh,
            columns,
            depth: [1, 2, 4][depth],
            sizes: (sizes.0.min(sizes.1), sizes.0.max(sizes.1)),
            // Skewed toward light loads, where worms stream.
            rate: 0.02 * load * load,
            cda: cda == 1,
            seed,
            event_at,
            fold_every,
        };
        case.lockstep(400)?;
    }
}

/// The oracle is not vacuous: a lightly loaded fabric of long packets
/// runs most of its sends as relay cycles.
#[test]
fn most_light_load_sends_are_relay_cycles() {
    let mesh = Mesh3d::new(8, 8, 2).unwrap();
    let case = Case {
        mesh,
        columns: vec![(2, 2), (5, 5)],
        depth: 4,
        sizes: (20, 30),
        rate: 0.0005,
        cda: false,
        seed: 3,
        event_at: 150,
        fold_every: 50,
    };
    let (relay_cycles, sends) = case.lockstep(600).unwrap();
    assert!(
        relay_cycles * 2 > sends,
        "{relay_cycles} relay cycles of {sends} sends"
    );
}

/// Prints the relay share of sends on fabrics shaped like the benchmark
/// workloads, uniform traffic standing in for their own (`cargo test -p
/// noc_sim --release -- --ignored --nocapture relay_share`).
#[test]
#[ignore = "a measurement, not a check"]
fn relay_share_of_benchmark_shaped_fabrics() {
    use noc_topology::placement::Placement;
    let grid = |x: usize, y: usize, z: usize| {
        let mesh = Mesh3d::new(x, y, z).unwrap();
        let (x, y) = (x as u8 / 4, y as u8 / 4);
        let pillars = (0..x).flat_map(|i| (0..y).map(move |j| (4 * i + 2, 4 * j + 2)));
        (mesh, ElevatorSet::new(&mesh, pillars).unwrap())
    };
    let mut fabrics = vec![
        ("mesh16_idle", grid(16, 16, 8), 5e-5),
        ("mesh16_loaded", grid(16, 16, 8), 5e-4),
        ("mesh32_sharded", grid(32, 32, 8), 3e-4),
    ];
    for rate in [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3] {
        fabrics.push(("fig4_pm", Placement::Pm.instantiate(), rate));
    }
    for (placement, rate) in [
        (Placement::Ps1, 0.005),
        (Placement::Ps2, 0.0065),
        (Placement::Ps3, 0.009),
    ] {
        fabrics.push(("fig7_apps", placement.instantiate(), 0.85 * rate));
    }
    fabrics.push(("spec_sweep", Placement::Ps1.instantiate(), 3e-3));
    for (name, (mesh, elevators), rate) in fabrics {
        let config = SimConfig::new(mesh, elevators.clone());
        let traffic = BatchedSynthetic::from_parts(SyntheticParts::uniform(&mesh, rate), 7);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let mut sim = Simulator::from_scheduled(config, Box::new(traffic), Box::new(selector));
        sim.advance(5_000).unwrap();
        sim.stats.set_armed(true);
        let mut relay_cycles = 0;
        for _ in 0..4_000 {
            relay_cycles += sim.net.relay_count() as u64;
            sim.step().unwrap();
        }
        sim.fold_telemetry();
        let sends = sim.energy_ledger().buffer_reads;
        let share = 100.0 * relay_cycles as f64 / sends.max(1) as f64;
        println!(
            "{name} @ {rate:.2e}: {relay_cycles} relay cycles of {sends} sends ({share:.1} %)"
        );
    }
}
