//! Explore AdEle's offline multi-objective optimisation: run AMOSA on a
//! custom PC-3DNoC, inspect the Pareto front, and compare selection
//! strategies — the workflow behind the paper's Fig. 3.
//!
//! Run with: `cargo run --release -p adele-repro --example offline_optimization`

use adele::offline::{ObjectiveEvaluator, OfflineOptimizer, SelectionStrategy, SubsetAssignment};
use amosa::AmosaParams;
use noc_topology::{ElevatorSet, Mesh3d};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 6×6×3 stack with five elevators along a diagonal band.
    let mesh = Mesh3d::new(6, 6, 3)?;
    let elevators = ElevatorSet::new(&mesh, [(0, 1), (2, 2), (4, 4), (5, 0), (1, 5)])?;

    // Reference points: the two extreme hand-built assignments.
    let evaluator = ObjectiveEvaluator::uniform(&mesh, &elevators);
    let nearest = SubsetAssignment::nearest(&mesh, &elevators);
    let full = SubsetAssignment::full(&mesh, &elevators);
    let (nv, nd) = evaluator.evaluate(&nearest);
    let (fv, fd) = evaluator.evaluate(&full);
    println!("nearest-only subsets: variance={nv:.3} distance={nd:.3}");
    println!("full subsets:         variance={fv:.3} distance={fd:.3}");

    // AMOSA explores the space between (and beyond) those extremes.
    let result = OfflineOptimizer::new(mesh, elevators)
        .with_params(AmosaParams::fast(11))
        .optimize();
    println!("\nPareto front ({} points):", result.pareto.len());
    println!("{:>10}  {:>10}  {:>8}", "variance", "distance", "mean|A|");
    for point in &result.pareto {
        println!(
            "{:>10.4}  {:>10.4}  {:>8.2}",
            point.utilization_variance,
            point.average_distance,
            point.assignment.mean_subset_size()
        );
    }

    for strategy in [
        SelectionStrategy::LatencyLeaning,
        SelectionStrategy::Knee,
        SelectionStrategy::EnergyLeaning,
    ] {
        let pick = result.select(strategy);
        println!(
            "\n{strategy:?}: variance={:.4}, distance={:.4}",
            pick.utilization_variance, pick.average_distance
        );
    }

    // The latency-leaning pick round-trips through its JSON form (what a
    // spec file's `SelectorSpec::Adele { assignment, .. }` carries).
    let pick = result.select(SelectionStrategy::LatencyLeaning);
    let json = serde_json::to_string(&pick.assignment)?;
    let round_trip: SubsetAssignment = serde_json::from_str(&json)?;
    assert_eq!(round_trip, pick.assignment);
    println!("\nassignment serialises to {} bytes of JSON", json.len());
    Ok(())
}
