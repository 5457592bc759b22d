//! Drive the simulator with the synthetic SPLASH-2/PARSEC application
//! models (the workspace's stand-in for the paper's Gem5 traces) and show
//! how AdEle's benefit tracks application load — heavy apps (canneal, fft,
//! radix, water) gain, light ones (fluidanimate, lu) run near zero-load.
//!
//! Run with: `cargo run --release -p adele-repro --example real_app_traffic`

use adele_bench::{fig7_base_rate, figure_scenario, main_policies, offline_assignment};
use noc_exp::runner::default_threads;
use noc_exp::{run_batch_supervised, PointError, Supervision, WorkloadKind};
use noc_topology::placement::Placement;
use noc_traffic::apps::AppKind;

fn main() -> Result<(), PointError> {
    let placement = Placement::Ps2;
    let [(_, elev_first), _, (_, adele)] = main_policies(&offline_assignment(placement));

    println!("PS2 (4x4x4, 4 elevators) under application-model traffic\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "app", "intensity", "ElevFirst", "AdEle", "gain"
    );
    let rate = fig7_base_rate(placement);
    // Per app: the Elevator-First run, then the AdEle one.
    let scenarios: Vec<_> = AppKind::ALL
        .into_iter()
        .flat_map(|app| {
            [&elev_first, &adele].map(|policy| {
                figure_scenario(app.name(), placement)
                    .with_workload(WorkloadKind::App { app, rate })
                    .with_selector(policy.clone())
            })
        })
        .collect();
    let outcomes = run_batch_supervised(
        &scenarios,
        default_threads(),
        &Supervision::new(),
        None,
        |_| {},
    );
    let summaries = outcomes
        .into_iter()
        .map(|outcome| {
            outcome
                .into_result()
                .map(|r| r.summary)
                .map_err(|f| f.error)
        })
        .collect::<Result<Vec<_>, _>>()?;
    for (app, runs) in AppKind::ALL.into_iter().zip(summaries.chunks(2)) {
        let (baseline, adele) = (&runs[0], &runs[1]);
        let gain = 1.0 - adele.avg_latency / baseline.avg_latency.max(1e-9);
        println!(
            "{:<14} {:>10.2} {:>10.1}cy {:>10.1}cy {:>9.1}%",
            app.name(),
            app.profile().intensity,
            baseline.avg_latency,
            adele.avg_latency,
            gain * 100.0
        );
    }
    println!("\nHigh-intensity apps stress the shared elevators, giving AdEle room to");
    println!("rebalance; low-intensity stencil apps see little elevator contention.");
    Ok(())
}
