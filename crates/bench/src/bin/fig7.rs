//! Fig. 7 — real-application traffic: per-application network latency
//! ((a)–(c), normalised to Elevator-First) and energy averaged over all
//! applications ((d)), for PS1–PS3.
//!
//! The paper extracts SPLASH-2/PARSEC traces with Gem5 (64-core limit,
//! hence no PM); we drive the same experiment with the synthetic
//! application models of `noc-traffic::apps` (substitution documented in
//! DESIGN.md).
//!
//! The app × policy grid of each placement runs on the `noc_exp` parallel
//! runner; every cell is an independent seeded simulation, so results are
//! bit-identical to the sequential loop. The app models are polled
//! sources, which run the same on either workload stream (the simulator
//! wraps every polled source in `CyclePolled`), so there is no `--stream`
//! flag; the dump records `v1`.

use adele_bench::{
    dump_json, f2, fig7_base_rate, main_policies, offline_assignment, ok_or_die, print_table,
    sim_config,
};
use noc_exp::runner::{default_threads, par_map};
use noc_exp::SelectorSpec;
use noc_sim::harness::run_once;
use noc_topology::placement::Placement;
use noc_traffic::apps::{AppKind, AppTraffic};
use serde::Serialize;

#[derive(Serialize)]
struct AppCell {
    placement: String,
    app: String,
    stream: String,
    policy: String,
    latency: f64,
    normalized_latency: f64,
    energy_per_flit_nj: f64,
}

fn main() {
    adele_bench::Args::from_env("fig7").finish();
    let placements = [Placement::Ps1, Placement::Ps2, Placement::Ps3];
    let mut cells: Vec<AppCell> = Vec::new();

    for placement in placements {
        let (mesh, elevators) = placement.instantiate();
        let policies = main_policies(&offline_assignment(placement));
        println!(
            "\n# Fig. 7: {} — latency normalised to ElevFirst (absolute cycles in parentheses)",
            placement.name()
        );
        // One grid cell per (app, policy), sharded across cores.
        let grid: Vec<(AppKind, &(&str, SelectorSpec))> = AppKind::ALL
            .into_iter()
            .flat_map(|app| policies.iter().map(move |policy| (app, policy)))
            .collect();
        let summaries = par_map(&grid, default_threads(), |_, &(app, (name, policy))| {
            let traffic = AppTraffic::new(app, &mesh, fig7_base_rate(placement), 4321);
            ok_or_die(
                run_once(
                    &sim_config(placement),
                    Box::new(traffic),
                    policy.build(&mesh, &elevators, 77),
                ),
                &format!("fig7 {}/{name} cell", app.name()),
            )
        });

        let mut rows = Vec::new();
        let mut improvements = Vec::new();
        for (a, app) in AppKind::ALL.into_iter().enumerate() {
            let latencies: Vec<(String, f64, f64)> = policies
                .iter()
                .enumerate()
                .map(|(p, (name, _))| {
                    let summary = &summaries[a * policies.len() + p];
                    (
                        name.to_string(),
                        summary.avg_latency,
                        summary.energy_per_flit_nj,
                    )
                })
                .collect();
            let base = latencies[0].1.max(1e-12);
            let mut row = vec![app.name().to_string()];
            for (policy, lat, energy) in &latencies {
                row.push(format!("{} ({})", f2(lat / base), f2(*lat)));
                cells.push(AppCell {
                    placement: placement.name().to_string(),
                    app: app.name().to_string(),
                    stream: "v1".to_string(),
                    policy: policy.clone(),
                    latency: *lat,
                    normalized_latency: lat / base,
                    energy_per_flit_nj: *energy,
                });
            }
            // AdEle improvement vs CDA for the average row.
            let cda = latencies[1].1;
            let adele = latencies[2].1;
            improvements.push(1.0 - adele / cda.max(1e-12));
            rows.push(row);
        }
        let avg: f64 = improvements.iter().sum::<f64>() / improvements.len() as f64;
        print_table(&["app", "ElevFirst", "CDA", "AdEle"], &rows);
        println!(
            "AdEle vs CDA average latency improvement on {}: {:.1}% (paper: 10.9% avg over PS1–PS3, up to 14.6%)",
            placement.name(),
            avg * 100.0
        );
    }

    // ---- Fig. 7(d): energy averaged over apps, normalised to ElevFirst. ----
    println!("\n# Fig. 7(d): energy/flit averaged over all applications, normalised to ElevFirst");
    let mut rows = Vec::new();
    for placement in placements {
        let name = placement.name().to_string();
        let mean = |policy: &str| -> f64 {
            let vals: Vec<f64> = cells
                .iter()
                .filter(|c| c.placement == name && c.policy == policy)
                .map(|c| c.energy_per_flit_nj)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let base = mean("ElevFirst").max(1e-12);
        rows.push(vec![
            name.clone(),
            f2(1.0),
            f2(mean("CDA") / base),
            f2(mean("AdEle") / base),
        ]);
    }
    print_table(&["placement", "ElevFirst", "CDA", "AdEle"], &rows);
    println!("paper: AdEle has 6.9%/6.2%/4.8% energy overhead vs CDA on PS1/PS2/PS3.");

    dump_json("fig7", &cells);
}
