//! Fig. 6 — energy per flit for Elevator-First, CDA and AdEle, normalised
//! to Elevator-First, at low (1e-3) and high (near-saturation) injection
//! rates for each elevator placement.
//!
//! The paper's takeaways: at low rates AdEle is the *most* energy
//! efficient (minimal-path override); at high rates it pays a small
//! (<10 %) premium over CDA for taking non-minimal paths that relieve
//! congestion.
//!
//! The (placement × regime × policy) grid is one flat list of scenarios
//! on the bit-stable `v1` workload stream (the dumps record it).
//!
//! **Link-granular mode** (`repro fig6 --links`):
//! instead of the aggregate cells, reproduce the figure at link
//! granularity from the per-link telemetry — per-pillar TSV energy, the
//! hottest links of every run, a per-link CSV and a layer/pillar heatmap
//! JSON per placement under `results/`.

use crate::{Plan, Report};
use adele_bench::{
    dump_json, f2, f4, fig6_rates, figure_scenario, main_policies, offline_assignment, results_dir,
    table, written, FigureError,
};
use noc_energy::{HeatmapReport, LinkEnergyReport};
use noc_exp::runner::{default_threads, par_map};
use noc_exp::{Scenario, WorkloadKind, WorkloadSpec};
use noc_sim::{RunSummary, SimError};
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
struct EnergyCell {
    placement: String,
    rate: f64,
    stream: String,
    policy: String,
    energy_per_flit_nj: f64,
    normalized: f64,
}

/// A scenario's uniform workload.
fn workload(rate: f64) -> WorkloadSpec {
    WorkloadSpec::v1(WorkloadKind::Uniform { rate })
}

/// Number of policies per `(placement, rate)` point.
const POLICIES: usize = 3;

/// Both modes' grid: placement-major, each placement's low- then
/// high-rate point, each point × [`main_policies`]. Beside every scenario,
/// the `(rate, policy name)` the tables print with its result.
fn grid() -> (Vec<(f64, &'static str)>, Vec<Scenario>) {
    let mut keys = Vec::new();
    let mut scenarios = Vec::new();
    for placement in Placement::ALL {
        let policies = main_policies(&offline_assignment(placement));
        let (low, high) = fig6_rates(placement);
        for rate in [low, high] {
            for (policy, selector) in policies.clone() {
                keys.push((rate, policy));
                let name = format!("fig6 {placement} {policy} @ {rate}");
                let scenario = figure_scenario(name, placement).with_workload(workload(rate));
                scenarios.push(scenario.with_selector(selector));
            }
        }
    }
    (keys, scenarios)
}

/// The aggregate mode's runs: the grid.
pub fn plan() -> Plan {
    let (keys, scenarios) = grid();
    Plan::new(scenarios, move |summaries| render(&keys, summaries))
}

/// The figure from the grid's runs; writes `results/fig6.json`.
fn render(keys: &[(f64, &str)], summaries: &[RunSummary]) -> Report {
    let mut out = String::new();
    let mut dump = Vec::new();
    for (regime, label, load) in [(0, "a", "Low"), (1, "b", "High")] {
        writeln!(
            out,
            "\n# Fig. 6({label}): energy/flit normalised to ElevFirst — {load} injection rate"
        )?;
        let mut rows = Vec::new();
        for (p, placement) in Placement::ALL.into_iter().enumerate() {
            let at = (2 * p + regime) * POLICIES;
            let cell = at..at + POLICIES;
            let rate = keys[cell.start].0;
            let base = summaries[cell.start].energy_per_flit_nj.max(1e-12);
            let mut row = vec![placement.name().to_string(), f4(rate)];
            for (&(_, policy), summary) in keys[cell.clone()].iter().zip(&summaries[cell]) {
                row.push(f2(summary.energy_per_flit_nj / base));
                dump.push(EnergyCell {
                    placement: placement.name().to_string(),
                    rate,
                    stream: workload(rate).stream.to_string(),
                    policy: policy.to_string(),
                    energy_per_flit_nj: summary.energy_per_flit_nj,
                    normalized: summary.energy_per_flit_nj / base,
                });
            }
            rows.push(row);
        }
        out += &table(&["placement", "rate", "ElevFirst", "CDA", "AdEle"], &rows);
    }
    out += "\npaper: AdEle lowest at low rates (minimal-path override); ≤9.7% over CDA at high rates.\n";
    dump_json("fig6", &dump)?;
    Ok(out)
}

#[derive(Serialize)]
struct LinkCell {
    placement: String,
    rate: f64,
    stream: String,
    policy: String,
    pillar_tsv_energy_nj: Vec<f64>,
    hottest_links: Vec<String>,
}

/// Fig. 6 at link granularity: per-pillar TSV energy and hottest links,
/// from the same scenarios as the aggregate mode, but each driven through
/// its warm-up and measurement window only, so the per-link ledger can be
/// snapshot. Its read-out is that ledger, not a summary, so it runs the
/// grid on a `noc_exp` pool of its own (workers return owned reports).
pub fn run_links() -> Report {
    let (keys, scenarios) = grid();
    let snapshots = par_map(&scenarios, default_threads(), |at, scenario| {
        let named = |e: SimError| FigureError(format!("scenario {at} ({}): {e}", scenario.name));
        let mut sim = scenario.build_simulator();
        sim.advance(scenario.warmup).map_err(named)?;
        sim.measure_window(scenario.measure).map_err(named)?;
        let energy = scenario.sim_config().energy;
        Ok((
            LinkEnergyReport::from_ledger(sim.link_map(), sim.link_ledger(), &energy),
            HeatmapReport::from_ledger(sim.link_map(), sim.link_ledger(), &energy),
        ))
    });
    let snapshots: Vec<_> = snapshots.into_iter().collect::<Result<_, FigureError>>()?;

    let mut out = String::new();
    let mut dump = Vec::new();
    let mut results = keys.into_iter().zip(snapshots);
    for placement in Placement::ALL {
        let (_, high) = fig6_rates(placement);
        writeln!(out, "\n# Fig. 6 (link granularity): {}", placement.name())?;
        let mut rows = Vec::new();
        for _ in 0..2 * POLICIES {
            let ((rate, policy), (report, heat)) = results.next().expect("one snapshot each");
            let hottest: Vec<String> = report
                .hottest(3)
                .iter()
                .map(|r| {
                    format!(
                        "{}-{}-{} {} ({:.0} nJ)",
                        r.src.0, r.src.1, r.src.2, r.dir, r.attributed_nj
                    )
                })
                .collect();
            let tsv_total: f64 = heat.pillar_tsv_energy_nj.iter().sum();
            rows.push(vec![
                f4(rate),
                policy.to_string(),
                f2(tsv_total),
                hottest.first().cloned().unwrap_or_default(),
            ]);

            // Full per-link artefacts for AdEle at the high rate: the
            // link-granular reproduction the ROADMAP item asks for.
            if policy == "AdEle" && rate == high {
                let dir = results_dir();
                let csv = format!("fig6_links_{}.csv", placement.name());
                written(&csv, report.write_csv(&dir.join(&csv)))?;
                let json = format!("fig6_heatmap_{}.json", placement.name());
                written(&json, heat.write_json(&dir.join(&json)))?;
            }

            dump.push(LinkCell {
                placement: placement.name().to_string(),
                rate,
                stream: workload(rate).stream.to_string(),
                policy: policy.to_string(),
                pillar_tsv_energy_nj: heat.pillar_tsv_energy_nj,
                hottest_links: hottest,
            });
        }
        out += &table(&["rate", "policy", "tsv_energy_nj", "hottest link"], &rows);
    }
    out += "\nper-link CSV + layer/pillar heatmap JSON written to results/ (AdEle, high rate);\n\
            TSVs are cheap per hop but concentrate on few pillars — the per-pillar view above.\n";
    dump_json("fig6_links", &dump)?;
    Ok(out)
}
