//! Fig. 7 — real-application traffic: per-application network latency
//! ((a)–(c), normalised to Elevator-First) and energy averaged over all
//! applications ((d)), for PS1–PS3.
//!
//! The paper extracts SPLASH-2/PARSEC traces with Gem5 (64-core limit,
//! hence no PM); we drive the same experiment with the synthetic
//! application models of `noc-traffic::apps` instead.
//!
//! The placement × app × policy grid is one flat list of scenarios, each
//! an independent seeded simulation. The app models are polled
//! sources, which run the same on either workload stream (behind
//! `CyclePolled`), so there is no `--stream` flag; the dump records the
//! stream of each cell's scenario.

use crate::{Plan, Report};
use adele_bench::{
    dump_json, f2, fig7_base_rate, figure_scenario, main_policies, offline_assignment, table,
};
use noc_exp::WorkloadKind;
use noc_sim::RunSummary;
use noc_topology::placement::Placement;
use noc_traffic::apps::AppKind;
use serde::Serialize;
use std::fmt::Write;

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

/// The placements the figure runs on.
const PLACEMENTS: [Placement; 3] = [Placement::Ps1, Placement::Ps2, Placement::Ps3];

/// Number of policies per `(placement, app)` cell.
const POLICIES: usize = 3;

/// One run per (placement, app, policy), in that order.
pub fn plan() -> Plan {
    let mut grid = Vec::new();
    for placement in PLACEMENTS {
        let rate = fig7_base_rate(placement);
        let policies = main_policies(&offline_assignment(placement));
        for app in AppKind::ALL {
            for (name, policy) in &policies {
                let scenario = figure_scenario(format!("fig7 {placement} {app} {name}"), placement)
                    .with_workload(WorkloadKind::App { app, rate });
                grid.push(scenario.with_selector(policy.clone()));
            }
        }
    }
    let streams = grid.iter().map(|s| s.workload.stream.to_string()).collect();
    Plan::new(grid, move |all| render(all, streams))
}

/// The figure from the grid's summaries and their scenarios' workload
/// streams; writes `results/fig7.json`.
fn render(all: &[RunSummary], streams: Vec<String>) -> Report {
    let mut out = String::new();
    let mut cells: Vec<AppCell> = Vec::new();
    let cell = AppKind::ALL.len() * POLICIES;
    let per_placement = all.chunks(cell).zip(streams.chunks(cell));
    for (placement, (summaries, streams)) in PLACEMENTS.into_iter().zip(per_placement) {
        writeln!(
            out,
            "\n# Fig. 7: {} — latency normalised to ElevFirst (absolute cycles in parentheses)",
            placement.name()
        )?;
        let mut rows = Vec::new();
        let mut improvements = Vec::new();
        let per_app = summaries.chunks(POLICIES).zip(streams.chunks(POLICIES));
        for (app, (runs, streams)) in AppKind::ALL.into_iter().zip(per_app) {
            let base = runs[0].avg_latency.max(1e-12);
            let mut row = vec![app.name().to_string()];
            for (run, stream) in runs.iter().zip(streams) {
                let lat = run.avg_latency;
                row.push(format!("{} ({})", f2(lat / base), f2(lat)));
                cells.push(AppCell {
                    placement: placement.name().to_string(),
                    app: app.name().to_string(),
                    stream: stream.clone(),
                    policy: run.policy.clone(),
                    latency: lat,
                    normalized_latency: lat / base,
                    energy_per_flit_nj: run.energy_per_flit_nj,
                });
            }
            // AdEle improvement vs CDA for the average row.
            improvements.push(1.0 - runs[2].avg_latency / runs[1].avg_latency.max(1e-12));
            rows.push(row);
        }
        let avg: f64 = improvements.iter().sum::<f64>() / improvements.len() as f64;
        out += &table(&["app", "ElevFirst", "CDA", "AdEle"], &rows);
        writeln!(
            out,
            "AdEle vs CDA average latency improvement on {}: {:.1}% (paper: 10.9% avg over PS1–PS3, up to 14.6%)",
            placement.name(),
            avg * 100.0
        )?;
    }

    // ---- Fig. 7(d): energy averaged over apps, normalised to ElevFirst. ----
    out += "\n# Fig. 7(d): energy/flit averaged over all applications, normalised to ElevFirst\n";
    let mut rows = Vec::new();
    for placement in PLACEMENTS {
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
    out += &table(&["placement", "ElevFirst", "CDA", "AdEle"], &rows);
    out += "paper: AdEle has 6.9%/6.2%/4.8% energy overhead vs CDA on PS1/PS2/PS3.\n";

    dump_json("fig7", &cells)?;
    Ok(out)
}
