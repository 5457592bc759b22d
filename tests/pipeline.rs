//! End-to-end pipeline test: offline AMOSA optimisation → subset
//! assignment → online AdEle selection → cycle-level simulation.

use adele::offline::{OfflineOptimizer, SelectionStrategy, SubsetAssignment};
use adele::online::AdeleSelector;
use adele::AdeleConfig;
use amosa::AmosaParams;
use noc_sim::{SimConfig, Simulator};
use noc_topology::placement::Placement;
use noc_traffic::SyntheticTraffic;

fn quick_phases(config: SimConfig) -> SimConfig {
    config.with_phases(300, 1_200, 8_000)
}

#[test]
fn offline_to_online_pipeline_delivers_packets() {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let result = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(3))
        .optimize();
    assert!(
        !result.pareto.is_empty(),
        "offline stage must produce solutions"
    );

    let solution = result.select(SelectionStrategy::LatencyLeaning);
    let assignment = &solution.assignment;
    let selector = AdeleSelector::from_assignment(
        &mesh,
        &elevators,
        assignment,
        AdeleConfig::paper_default(),
        9,
    )
    .expect("offline output matches its topology");
    let traffic = SyntheticTraffic::uniform(&mesh, 0.002, 9);
    let config = quick_phases(SimConfig::new(mesh, elevators)).with_seed(9);
    let summary = Simulator::new(config, Box::new(traffic), Box::new(selector))
        .run()
        .unwrap();

    assert!(summary.completed, "light load must fully drain");
    assert!(summary.delivered_packets > 50, "expected real traffic");
    assert_eq!(summary.policy, "AdEle");
    // Every elevator sees some packets: the subsets spread traffic.
    assert!(
        summary.elevator_packets.iter().filter(|&&c| c > 0).count() >= 2,
        "offline subsets should use several elevators: {:?}",
        summary.elevator_packets
    );
}

#[test]
fn cached_assignment_text_round_trips_through_simulation() {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let result = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(5))
        .optimize();
    let original = &result.select(SelectionStrategy::Knee).assignment;

    // Serialise + parse (JSON text, the form a spec file carries).
    let text = serde_json::to_string(original).unwrap();
    let restored: SubsetAssignment = serde_json::from_str(&text).unwrap();
    assert_eq!(&restored, original);

    // Both must drive identical simulations.
    let run = |assignment: &SubsetAssignment| {
        let selector = AdeleSelector::from_assignment(
            &mesh,
            &elevators,
            assignment,
            adele::AdeleConfig::paper_default(),
            4,
        )
        .unwrap();
        let traffic = SyntheticTraffic::uniform(&mesh, 0.003, 4);
        let config = quick_phases(SimConfig::new(mesh, elevators.clone())).with_seed(4);
        Simulator::new(config, Box::new(traffic), Box::new(selector))
            .run()
            .unwrap()
    };
    assert_eq!(run(original), run(&restored));
}

#[test]
fn offline_traffic_awareness_shifts_subsets() {
    use noc_traffic::pattern::{BitPermutation, Permutation};
    use noc_traffic::TrafficMatrix;

    let (mesh, elevators) = Placement::Ps1.instantiate();
    let uniform = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(8))
        .optimize();
    let shuffle_matrix = TrafficMatrix::from_pattern(
        &Permutation::new(BitPermutation::Shuffle, mesh.node_count()),
        mesh.node_count(),
        0,
        0,
    );
    let shuffled = OfflineOptimizer::new(mesh, elevators)
        .with_params(AmosaParams::fast(8))
        .with_traffic(shuffle_matrix)
        .optimize();
    // Not a strict guarantee point-by-point, but the fronts should differ:
    // the optimiser reacts to the traffic matrix.
    let a = &uniform.select(SelectionStrategy::LatencyLeaning).assignment;
    let b = &shuffled
        .select(SelectionStrategy::LatencyLeaning)
        .assignment;
    assert_ne!(
        a, b,
        "traffic-aware optimisation should change the assignment"
    );
}
