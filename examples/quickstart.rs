//! Quickstart: simulate a partially connected 3D NoC with AdEle elevator
//! selection and print latency/energy statistics.
//!
//! Run with: `cargo run --release -p adele-repro --example quickstart`

use adele::offline::{OfflineOptimizer, SelectionStrategy};
use adele::online::AdeleSelector;
use adele::AdeleConfig;
use amosa::AmosaParams;
use noc_sim::{SimConfig, Simulator};
use noc_topology::placement::Placement;
use noc_traffic::SyntheticTraffic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a topology: the paper's PS1 pattern — a 4×4×4 mesh whose
    //    vertical TSV links exist at only 3 of the 16 columns.
    let (mesh, elevators) = Placement::Ps1.instantiate();
    println!(
        "topology: {}x{}x{} mesh, {} elevators",
        mesh.x(),
        mesh.y(),
        mesh.layers(),
        elevators.len()
    );

    // 2. Offline stage: AMOSA searches for per-router elevator subsets
    //    that balance elevator utilisation against route length.
    let result = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(42))
        .optimize();
    let solution = result.select(SelectionStrategy::LatencyLeaning);
    println!(
        "offline: {} Pareto points from {} evaluations; picked variance={:.3}, distance={:.2}",
        result.pareto.len(),
        result.evaluations,
        solution.utilization_variance,
        solution.average_distance
    );

    // 3. Online stage: plug the AdEle selector into the cycle-level
    //    simulator under uniform traffic.
    let assignment = &solution.assignment;
    let selector = AdeleSelector::from_assignment(
        &mesh,
        &elevators,
        assignment,
        AdeleConfig::paper_default(),
        7,
    )?;
    let traffic = SyntheticTraffic::uniform(&mesh, 0.003, 7);
    let config = SimConfig::new(mesh, elevators)
        .with_phases(2_000, 10_000, 30_000)
        .with_seed(7);
    let summary = Simulator::new(config, Box::new(traffic), Box::new(selector)).run()?;

    println!(
        "simulated: {} packets delivered, avg latency {:.1} cycles, {:.1} nJ/flit, throughput {:.4} flits/node/cycle",
        summary.delivered_packets,
        summary.avg_latency,
        summary.energy_per_flit_nj,
        summary.throughput_flits
    );
    println!("per-elevator packet counts: {:?}", summary.elevator_packets);
    Ok(())
}
