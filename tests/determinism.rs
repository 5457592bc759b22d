//! Reproducibility: identical seeds produce bit-identical results across
//! the whole stack (traffic, selection, simulation, offline search), and
//! different seeds genuinely change the stochastic components.

use adele::offline::{OfflineOptimizer, SelectionStrategy};
use amosa::AmosaParams;
use noc_exp::{SelectorSpec, WorkloadKind};
use noc_sim::harness::run_once;
use noc_sim::SimConfig;
use noc_topology::placement::Placement;

/// The latency-leaning pick of a fast PS1 AMOSA run, as an AdEle spec.
fn adele_on_offline_pick(amosa_seed: u64) -> SelectorSpec {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let offline = OfflineOptimizer::new(mesh, elevators)
        .with_params(AmosaParams::fast(amosa_seed))
        .optimize();
    let pick = offline.select(SelectionStrategy::LatencyLeaning);
    SelectorSpec::Adele {
        rr_only: false,
        measured_energy: false,
        assignment: Some(pick.assignment.clone()),
    }
}

fn uniform() -> WorkloadKind {
    WorkloadKind::Uniform { rate: 0.003 }
}

fn run_full_stack(selector_seed: u64, traffic_seed: u64, amosa_seed: u64) -> noc_sim::RunSummary {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = SimConfig::new(mesh, elevators.clone()).with_phases(300, 1_500, 10_000);
    run_once(
        &config,
        uniform().build_polled(&mesh, traffic_seed),
        adele_on_offline_pick(amosa_seed).build(&mesh, &elevators, selector_seed),
    )
    .unwrap()
}

#[test]
fn identical_seeds_reproduce_bit_identical_summaries() {
    let a = run_full_stack(1, 2, 3);
    let b = run_full_stack(1, 2, 3);
    assert_eq!(a, b);
}

#[test]
fn traffic_seed_changes_results() {
    let a = run_full_stack(1, 2, 3);
    let b = run_full_stack(1, 99, 3);
    assert_ne!(
        a.delivered_packets, 0,
        "sanity: the run must deliver packets"
    );
    assert!(
        a.avg_latency != b.avg_latency || a.delivered_packets != b.delivered_packets,
        "different traffic seeds should perturb results"
    );
}

#[test]
fn amosa_seed_changes_offline_search_but_stays_valid() {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let a = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(3))
        .optimize();
    let b = OfflineOptimizer::new(mesh, elevators.clone())
        .with_params(AmosaParams::fast(4))
        .optimize();
    for result in [&a, &b] {
        for point in &result.pareto {
            point
                .assignment
                .check_compatible(&mesh, &elevators)
                .expect("front stays valid for any seed");
        }
    }
    let objs = |r: &adele::offline::OfflineResult| -> Vec<(f64, f64)> {
        r.pareto
            .iter()
            .map(|p| (p.utilization_variance, p.average_distance))
            .collect()
    };
    assert_ne!(
        objs(&a),
        objs(&b),
        "different seeds should explore differently"
    );
}

#[test]
fn baseline_policies_are_seed_independent() {
    // ElevFirst and CDA carry no internal randomness: two different
    // selector seeds over identical traffic must agree exactly.
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let config = SimConfig::new(mesh, elevators.clone()).with_phases(300, 1_500, 10_000);
    for policy in [SelectorSpec::ElevatorFirst, SelectorSpec::Cda] {
        let run = |config: &SimConfig, selector_seed: u64| {
            run_once(
                config,
                uniform().build_polled(&mesh, 8),
                policy.build(&mesh, &elevators, selector_seed),
            )
            .unwrap()
        };
        let a = run(&config, 111);
        assert_eq!(
            a,
            run(&config, 222),
            "{policy:?} must not depend on the selector seed"
        );
        // `SimConfig::seed` is provenance only: no run reads it.
        assert_eq!(
            a,
            run(&config.clone().with_seed(5), 111),
            "{policy:?} must not depend on the SimConfig seed"
        );
    }
}
