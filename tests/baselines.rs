//! Cross-policy ordering tests: the qualitative results the paper's
//! evaluation rests on must hold in this reproduction.

use adele::offline::SubsetAssignment;
use adele_bench::main_policies;
use noc_exp::{SelectorSpec, WorkloadKind};
use noc_sim::harness::run_once;
use noc_sim::{RunSummary, SimConfig};
use noc_topology::placement::Placement;

/// One quick PS1 run (the paper's most contended pattern) of `policy`
/// under uniform traffic.
fn run(policy: &SelectorSpec, rate: f64, traffic_seed: u64) -> RunSummary {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    run_once(
        &SimConfig::new(mesh, elevators.clone()).with_phases(500, 3_000, 20_000),
        WorkloadKind::Uniform { rate }.build_polled(&mesh, traffic_seed),
        policy.build(&mesh, &elevators, 7),
    )
    .unwrap()
}

/// A balanced two-elevator-subset assignment for AdEle in tests (avoids
/// depending on an AMOSA run; the offline pipeline has its own test).
fn test_assignment() -> SubsetAssignment {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    // Round-robin the three two-elevator subsets across routers: exactly
    // balanced in expectation, with redundancy for the online stage.
    let masks = (0..mesh.node_count())
        .map(|i| match i % 3 {
            0 => 0b011u64,
            1 => 0b101,
            _ => 0b110,
        })
        .collect();
    SubsetAssignment::from_masks(masks, elevators.len()).unwrap()
}

#[test]
fn adaptive_policies_beat_elevator_first_under_congestion() {
    let rate = 0.0045; // beyond ElevFirst's saturation, inside CDA/AdEle's
    let [ef, cda, adele] = main_policies(&test_assignment()).map(|(_, p)| run(&p, rate, 31));

    assert!(
        cda.avg_latency < ef.avg_latency * 0.75,
        "CDA ({:.1}) must clearly beat ElevFirst ({:.1})",
        cda.avg_latency,
        ef.avg_latency
    );
    assert!(
        adele.avg_latency < ef.avg_latency * 0.75,
        "AdEle ({:.1}) must clearly beat ElevFirst ({:.1})",
        adele.avg_latency,
        ef.avg_latency
    );
    assert!(
        adele.avg_latency < cda.avg_latency * 1.15,
        "AdEle ({:.1}) must at least stay in CDA's ({:.1}) ballpark",
        adele.avg_latency,
        cda.avg_latency
    );
}

#[test]
fn adele_balances_elevator_load_better_than_elevator_first() {
    let spread = |policy: &SelectorSpec| -> f64 {
        let summary = run(policy, 0.004, 37);
        let total: u64 = summary.elevator_packets.iter().sum();
        let max = *summary.elevator_packets.iter().max().unwrap();
        max as f64 / total.max(1) as f64
    };
    let [(_, ef), _, (_, adele)] = main_policies(&test_assignment());
    let (ef, adele) = (spread(&ef), spread(&adele));
    assert!(
        adele < ef,
        "AdEle's max elevator share ({adele:.3}) must undercut ElevFirst's ({ef:.3})"
    );
    // With 3 elevators, AdEle should be near the ideal 1/3 share.
    assert!(adele < 0.45, "AdEle share {adele:.3} is too concentrated");
}

#[test]
fn low_load_energy_ranking_favours_adele() {
    let rate = 0.001; // the paper's Fig. 6 low-injection regime
    let [(_, ef), _, (_, adele)] = main_policies(&test_assignment());
    let ef = run(&ef, rate, 41).energy_per_flit_nj;
    let adele = run(&adele, rate, 41).energy_per_flit_nj;
    // The minimal-path override makes AdEle the energy winner at low load.
    assert!(
        adele <= ef * 1.01,
        "AdEle energy ({adele:.1} nJ) must not exceed ElevFirst ({ef:.1} nJ) at low load"
    );
}

#[test]
fn adele_rr_is_a_valid_midpoint() {
    let rate = 0.005;
    let ef = run(&SelectorSpec::ElevatorFirst, rate, 43);
    let rr = run(
        &SelectorSpec::Adele {
            rr_only: true,
            measured_energy: false,
            assignment: Some(test_assignment()),
        },
        rate,
        43,
    );
    assert!(
        rr.avg_latency < ef.avg_latency * 0.75,
        "even plain RR over subsets ({:.1}) must beat ElevFirst ({:.1})",
        rr.avg_latency,
        ef.avg_latency
    );
    assert_eq!(rr.policy, "AdEle-RR");
}
