//! Fig. 5 — traffic load over routers with elevators, normalised to the
//! average load over routers without an elevator, for PS1 under uniform
//! traffic: Elevator-First vs CDA vs AdEle.
//!
//! The paper's takeaway: AdEle reduces the load on the most-utilised
//! elevator (the blue bar) by spreading traffic across the set.
//!
//! One run per policy, on the bit-stable `v1` workload stream (the dump
//! records it).

use crate::{Plan, Report};
use adele_bench::{dump_json, f2, f4, figure_scenario, main_policies, offline_assignment, table};
use noc_exp::{WorkloadKind, WorkloadSpec};
use noc_sim::RunSummary;
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
struct Fig5 {
    rate: f64,
    /// Workload stream the bars were measured on.
    stream: String,
    /// Per policy: normalised load of each elevator pillar (mean over its
    /// four layer-routers), plus the max.
    bars: Vec<(String, Vec<f64>)>,
}

/// One run per policy.
pub fn plan() -> Plan {
    let placement = Placement::Ps1;
    let policies = main_policies(&offline_assignment(placement));
    let rate = 0.004;
    let workload = WorkloadSpec::v1(WorkloadKind::Uniform { rate });
    let scenarios = policies.map(|(name, policy)| {
        figure_scenario(format!("fig5 {name}"), placement)
            .with_workload(workload.clone())
            .with_selector(policy)
    });
    Plan::new(scenarios.into(), move |runs| render(rate, &workload, runs))
}

/// The bars from the runs, policy after policy; writes `results/fig5.json`.
fn render(rate: f64, workload: &WorkloadSpec, summaries: &[RunSummary]) -> Report {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let mut bars = Vec::new();
    let mut rows = Vec::new();
    for summary in summaries {
        // Per-router flags: does this router sit on an elevator pillar?
        let flags: Vec<bool> = mesh
            .coords()
            .map(|c| elevators.is_elevator_router(c))
            .collect();
        let per_router = summary.normalized_elevator_loads(&flags);
        // `normalized_elevator_loads` lists elevator routers in node-id
        // order: layer-major, so pillar e of layer l sits at l*E + e.
        let e_count = elevators.len();
        let layers = mesh.layers();
        let pillar_means: Vec<f64> = (0..e_count)
            .map(|e| {
                (0..layers)
                    .map(|l| per_router[l * e_count + e])
                    .sum::<f64>()
                    / layers as f64
            })
            .collect();
        let max = pillar_means.iter().copied().fold(0.0, f64::max);
        let mut row = vec![summary.policy.clone()];
        row.extend(pillar_means.iter().map(|&v| f2(v)));
        row.push(f2(max));
        rows.push(row);
        bars.push((summary.policy.clone(), pillar_means));
    }

    let mut out = String::from(
        "# Fig. 5: elevator-router load normalised to the mean elevator-less router load\n",
    );
    writeln!(
        out,
        "# (PS1, uniform @ rate {}; bar per elevator pillar)",
        f4(rate)
    )?;
    let mut headers = vec!["policy".to_string()];
    headers.extend(elevators.ids().map(|e| format!("{e}")));
    headers.push("max".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    out += &table(&header_refs, &rows);
    out += "\npaper: AdEle lowers the most-loaded elevator bar relative to ElevFirst;\n\
            elevator routers carry multiples of the elevator-less average in all schemes.\n";

    dump_json(
        "fig5",
        &Fig5 {
            rate,
            stream: workload.stream.to_string(),
            bars,
        },
    )?;
    Ok(out)
}
