//! Design your own partially connected 3D NoC: compare a hand-placed
//! elevator pattern against the average-distance placement optimiser, then
//! check the impact in simulation.
//!
//! Run with: `cargo run --release -p adele-repro --example custom_placement`

use adele::online::ElevatorFirstSelector;
use noc_sim::{SimConfig, Simulator};
use noc_topology::placement::optimize_columns;
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::SyntheticTraffic;

fn simulate(mesh: Mesh3d, elevators: ElevatorSet, label: &str) {
    let selector = ElevatorFirstSelector::new(&mesh, &elevators);
    let traffic = SyntheticTraffic::uniform(&mesh, 0.003, 3);
    let config = SimConfig::new(mesh, elevators)
        .with_phases(2_000, 8_000, 30_000)
        .with_seed(3);
    let summary = Simulator::new(config, Box::new(traffic), Box::new(selector))
        .run()
        .unwrap();
    println!(
        "{label:<22} latency={:>7.1}cy  energy={:>6.1}nJ/flit  drained={}",
        summary.avg_latency, summary.energy_per_flit_nj, summary.completed
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mesh = Mesh3d::new(5, 5, 3)?;

    // A naive hand placement: all TSV pillars crowded into one corner
    // (cheap to route on silicon, bad for traffic).
    let corner = ElevatorSet::new(&mesh, [(0, 0), (1, 0), (0, 1), (1, 1)])?;

    // The optimiser spreads the same TSV budget to minimise the average
    // inter-layer route length (how the paper derives PS1/PS3/PM).
    let optimized_columns = optimize_columns(&mesh, 4);
    println!("optimizer chose columns: {optimized_columns:?}\n");
    let optimized = ElevatorSet::new(&mesh, optimized_columns)?;

    simulate(mesh, corner, "corner-clustered");
    simulate(mesh, optimized, "distance-optimized");

    println!("\nSame TSV budget, very different latency: elevator placement matters as");
    println!("much as elevator selection — which is why the paper optimises both.");
    Ok(())
}
