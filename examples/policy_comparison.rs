//! Compare all four elevator-selection policies (Elevator-First, CDA,
//! AdEle, AdEle-RR) on one congested scenario — a miniature version of the
//! paper's Fig. 4 experiment.
//!
//! Run with: `cargo run --release -p adele-repro --example policy_comparison`

use adele_bench::{figure_scenario, main_policies, offline_assignment};
use noc_exp::runner::default_threads;
use noc_exp::{run_batch_supervised, PointError, SelectorSpec, Supervision, WorkloadKind};
use noc_topology::placement::Placement;

fn main() -> Result<(), PointError> {
    let placement = Placement::Ps1;
    let assignment = offline_assignment(placement);
    let rate = 0.004; // near PS1's saturation knee under uniform traffic

    println!("PS1 (4x4x4, 3 elevators), uniform traffic @ {rate} packets/node/cycle\n");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>10}",
        "policy", "latency", "network lat", "energy/flit", "drained"
    );
    let adele_rr = SelectorSpec::Adele {
        rr_only: true,
        measured_energy: false,
        assignment: Some(assignment.clone()),
    };
    let policies = main_policies(&assignment).map(|(_, policy)| policy);
    let scenarios: Vec<_> = policies
        .into_iter()
        .chain([adele_rr])
        .map(|policy| {
            figure_scenario("policy_comparison", placement)
                .with_workload(WorkloadKind::Uniform { rate })
                .with_selector(policy)
        })
        .collect();
    let outcomes = run_batch_supervised(
        &scenarios,
        default_threads(),
        &Supervision::new(),
        None,
        |_| {},
    );
    for outcome in outcomes {
        let summary = outcome.into_result().map_err(|f| f.error)?.summary;
        println!(
            "{:<10} {:>10.1}cy {:>10.1}cy {:>11.1}nJ {:>10}",
            summary.policy,
            summary.avg_latency,
            summary.avg_network_latency,
            summary.energy_per_flit_nj,
            summary.completed
        );
    }
    println!("\nExpected ordering (paper Fig. 4): AdEle lowest latency, ElevFirst highest,");
    println!("CDA in between, AdEle-RR between CDA and AdEle.");
    Ok(())
}
