//! Property-based invariants of the cycle-level network across random
//! topologies, placements and loads: packets always drain at sane loads
//! (deadlock freedom), flit conservation holds, and latency is bounded
//! below by geometry.

use adele::online::ElevatorFirstSelector;
use noc_sim::{SimConfig, Simulator};
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::SyntheticTraffic;
use proptest::prelude::*;

/// Builds a random but valid PC-3DNoC: mesh 2..=4 per dimension, 1..=4
/// distinct elevator columns.
fn arb_topology() -> impl Strategy<Value = (Mesh3d, Vec<(u8, u8)>)> {
    (2usize..=4, 2usize..=4, 2usize..=3).prop_flat_map(|(x, y, z)| {
        let columns = prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=4)
            .prop_map(|set| set.into_iter().collect::<Vec<_>>());
        (Just(Mesh3d::new(x, y, z).unwrap()), columns)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// At modest load every measured packet is delivered: the network is
    /// deadlock-free and conserves flits (the run would panic on a
    /// watchdog deadlock; `completed` certifies full drainage).
    #[test]
    fn random_networks_drain_completely(
        (mesh, columns) in arb_topology(),
        rate in 0.0005f64..0.004,
        seed in 0u64..1000,
    ) {
        let elevators = ElevatorSet::new(&mesh, columns).unwrap();
        let traffic = SyntheticTraffic::uniform(&mesh, rate, seed);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let config = SimConfig::new(mesh, elevators)
            .with_phases(100, 500, 20_000)
            .with_seed(seed);
        let summary = Simulator::new(config, Box::new(traffic), Box::new(selector)).run().unwrap();

        prop_assert!(summary.completed, "network failed to drain");
        prop_assert_eq!(summary.delivered_packets, summary.injected_packets);
    }

    /// Average latency can never beat the physical floor: every packet
    /// needs at least (packet size + 1) cycles end to end.
    #[test]
    fn latency_respects_serialization_floor(
        (mesh, columns) in arb_topology(),
        seed in 0u64..1000,
    ) {
        let elevators = ElevatorSet::new(&mesh, columns).unwrap();
        let traffic = SyntheticTraffic::uniform(&mesh, 0.002, seed);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let config = SimConfig::new(mesh, elevators)
            .with_phases(100, 500, 20_000)
            .with_seed(seed);
        let summary = Simulator::new(config, Box::new(traffic), Box::new(selector)).run().unwrap();
        if summary.delivered_packets > 0 {
            // Min packet is 10 flits; head needs ≥1 hop (no self traffic).
            prop_assert!(summary.avg_latency >= 11.0, "latency {} is impossible", summary.avg_latency);
        }
    }

    /// Slot reuse under faults: with packet slots recycling mid-run and a
    /// random elevator failing and recovering while traffic flows, the
    /// network still drains completely, conserves packets, and the table
    /// stays bounded by the in-flight high-water mark. (Delivery of every
    /// injected packet is only possible if recycled slots never corrupted
    /// an in-flight packet's bookkeeping.)
    #[test]
    fn recycling_survives_random_fail_recover_events(
        (mesh, columns) in arb_topology(),
        rate in 0.0005f64..0.004,
        seed in 0u64..1000,
        fail_at in 0u64..600,
        recover_after in 1u64..600,
    ) {
        use noc_sim::Event;
        use noc_topology::ElevatorId;

        let elevators = ElevatorSet::new(&mesh, columns).unwrap();
        let victim = ElevatorId((seed % elevators.len() as u64) as u8);
        let traffic = SyntheticTraffic::uniform(&mesh, rate, seed);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let config = SimConfig::new(mesh, elevators)
            .with_phases(100, 800, 20_000)
            .with_seed(seed);
        let mut sim = Simulator::new(config, Box::new(traffic), Box::new(selector));
        sim.schedule(Event::ElevatorFail { cycle: fail_at, elevator: victim });
        sim.schedule(Event::ElevatorRecover {
            cycle: fail_at + recover_after,
            elevator: victim,
        });
        sim.advance(100).unwrap();
        let window = sim.measure_window(800).unwrap();

        // Drain with traffic still flowing: every measured packet must
        // still reach its destination despite the mid-run fault (only
        // possible if recycled slots never corrupted in-flight state).
        let mut drained = 0u64;
        while sim.packet_table().measured_outstanding() > 0 {
            sim.step().unwrap();
            drained += 1;
            prop_assert!(drained < 20_000, "network failed to drain across the fault");
        }
        prop_assert!(window.delivered_packets <= window.injected_packets);
        let table = sim.packet_table();
        prop_assert!(table.total_created() > 0);
        prop_assert!(
            table.capacity() <= table.total_created() as usize,
            "capacity {} must never exceed packets created {}",
            table.capacity(),
            table.total_created()
        );
    }

    /// Channel conservation under a fail/recover storm: at every committed
    /// cycle boundary, every link channel between two routers holds
    /// exactly `buffer_depth` tokens (upstream credits + downstream FIFO
    /// occupancy) and every NI channel likewise — so no flit or credit is
    /// ever lost or duplicated crossing a link — and the run must still
    /// drain every measured packet afterwards.
    #[test]
    fn boundary_channels_conserve_flits_and_credits(
        (mesh, columns) in arb_topology(),
        rate in 0.001f64..0.004,
        seed in 0u64..1000,
        storm in prop::collection::vec((0u64..700, 1u64..250), 1..=3),
    ) {
        use noc_sim::Event;
        use noc_topology::ElevatorId;

        let elevators = ElevatorSet::new(&mesh, columns).unwrap();
        let traffic = SyntheticTraffic::uniform(&mesh, rate, seed);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let config = SimConfig::new(mesh, elevators.clone())
            .with_phases(100, 600, 20_000)
            .with_seed(seed);
        let mut sim = Simulator::new(config, Box::new(traffic), Box::new(selector));
        for (i, &(fail_at, dur)) in storm.iter().enumerate() {
            let victim = ElevatorId(((seed + i as u64) % elevators.len() as u64) as u8);
            sim.schedule(Event::ElevatorFail { cycle: fail_at, elevator: victim });
            sim.schedule(Event::ElevatorRecover {
                cycle: fail_at + dur,
                elevator: victim,
            });
        }
        for cycle in 0..1_000u64 {
            sim.step().unwrap();
            if let Err(e) = sim.network().check_flow_conservation() {
                return Err(TestCaseError::fail(format!("cycle {cycle}: {e}")));
            }
        }
        // No flit was lost on a link: the network still drains every
        // measured packet after the storm.
        let mut drained = 0u64;
        while sim.packet_table().measured_outstanding() > 0 {
            sim.step().unwrap();
            drained += 1;
            prop_assert!(drained < 20_000, "network failed to drain after the storm");
        }
        sim.network().check_flow_conservation().unwrap();
    }

    /// Per-router flit loads are consistent: elevator routers carry at
    /// least as much traffic as the network-wide mean under uniform load.
    #[test]
    fn elevator_routers_are_hotter_than_average(
        seed in 0u64..1000,
    ) {
        let mesh = Mesh3d::new(4, 4, 3).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1), (2, 2)]).unwrap();
        let traffic = SyntheticTraffic::uniform(&mesh, 0.003, seed);
        let selector = ElevatorFirstSelector::new(&mesh, &elevators);
        let config = SimConfig::new(mesh, elevators.clone())
            .with_phases(200, 1500, 20_000)
            .with_seed(seed);
        let summary = Simulator::new(config, Box::new(traffic), Box::new(selector)).run().unwrap();

        let flags: Vec<bool> = mesh.coords().map(|c| elevators.is_elevator_router(c)).collect();
        let loads = summary.normalized_elevator_loads(&flags);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        prop_assert!(mean > 1.0, "elevator routers should exceed the elevator-less mean, got {mean}");
    }
}

/// High-load soak: hotspot everything into one corner across layers and
/// make sure the watchdog stays silent (no deadlock) even though the run
/// saturates.
#[test]
fn saturating_hotspot_does_not_deadlock() {
    use noc_topology::NodeId;

    let mesh = Mesh3d::new(4, 4, 2).unwrap();
    let elevators = ElevatorSet::new(&mesh, [(0, 0)]).unwrap();
    let parts = noc_traffic::SyntheticParts::hotspot(&mesh, 0.05, vec![NodeId(31)], 0.8);
    let traffic = SyntheticTraffic::from_parts(parts, 123);
    let selector = ElevatorFirstSelector::new(&mesh, &elevators);
    let config = SimConfig::new(mesh, elevators)
        .with_phases(200, 2_000, 500)
        .with_seed(123);
    // `run` panics on deadlock; saturation (completed == false) is fine.
    let summary = Simulator::new(config, Box::new(traffic), Box::new(selector))
        .run()
        .unwrap();
    assert!(summary.injected_packets > 0);
}
