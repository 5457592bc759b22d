//! Drive the simulator with the synthetic SPLASH-2/PARSEC application
//! models (the workspace's stand-in for the paper's Gem5 traces) and show
//! how AdEle's benefit tracks application load — heavy apps (canneal, fft,
//! radix, water) gain, light ones (fluidanimate, lu) run near zero-load.
//!
//! Run with: `cargo run --release -p adele-bench --example real_app_traffic`

use adele_bench::{fig7_base_rate, main_policies, offline_assignment, sim_config};
use noc_exp::SelectorSpec;
use noc_sim::harness::run_once;
use noc_topology::placement::Placement;
use noc_traffic::apps::{AppKind, AppTraffic};

fn main() {
    let placement = Placement::Ps2;
    let (mesh, elevators) = placement.instantiate();
    let [(_, elev_first), _, (_, adele)] = main_policies(&offline_assignment(placement));

    println!("PS2 (4x4x4, 4 elevators) under application-model traffic\n");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "app", "intensity", "ElevFirst", "AdEle", "gain"
    );
    for app in AppKind::ALL {
        let run = |policy: &SelectorSpec| {
            let traffic = AppTraffic::new(app, &mesh, fig7_base_rate(placement), 2024);
            run_once(
                &sim_config(placement),
                Box::new(traffic),
                policy.build(&mesh, &elevators, 7),
            )
            .unwrap()
        };
        let baseline = run(&elev_first);
        let adele = run(&adele);
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
}
