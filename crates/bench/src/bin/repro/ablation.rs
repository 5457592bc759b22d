//! Ablation study of AdEle's design choices (beyond the paper's figures).
//! Each row disables or re-tunes one mechanism and reports
//! latency/energy on the paper's most contended scenario (PS1, uniform,
//! near saturation) plus a light-load scenario (for the override's energy
//! effect):
//!
//! * the low-traffic minimal-path override (on/off, global vs subset),
//! * the congestion-skipping policy of Eq. 8–9 (on/off, varying ξ),
//! * the EWMA coefficient `a` of Eq. 7,
//! * the low-traffic threshold θ,
//! * the offline stage itself (AMOSA subsets vs nearest-only vs full).

use crate::{Plan, Report};
use adele::offline::SubsetAssignment;
use adele::AdeleConfig;
use adele_bench::{dump_json, f1, f2, figure_scenario, offline_assignment, table};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind};
use noc_sim::RunSummary;
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    high_load_latency: f64,
    high_load_completed: bool,
    low_load_energy_nj: f64,
}

/// Per variant, its high-load run and then its low-load one.
pub fn plan() -> Plan {
    let placement = Placement::Ps1;
    let (mesh, elevators) = placement.instantiate();
    let amosa = offline_assignment(placement);
    let nearest = SubsetAssignment::nearest(&mesh, &elevators);
    let full = SubsetAssignment::full(&mesh, &elevators);
    let rates = [0.0045, 0.001];

    let paper = AdeleConfig::paper_default();
    // A variant on the AMOSA subsets whose config is the paper's, tuned.
    let tuned = |label, tune: fn(&mut AdeleConfig)| {
        let mut config = paper;
        tune(&mut config);
        (label, &amosa, config)
    };
    let variants = [
        ("AdEle (paper defaults)", &amosa, paper),
        tuned("- skipping (Eq. 8-9) off", |c| c.skipping_enabled = false),
        tuned("- override off", |c| c.low_traffic_override = false),
        ("- both off (plain RR)", &amosa, AdeleConfig::rr_only()),
        tuned("xi = 0 (no exploration)", |c| c.exploration = 0.0),
        tuned("xi = 0.2", |c| c.exploration = 0.2),
        tuned("a = 0.05 (slow EWMA)", |c| c.ewma_alpha = 0.05),
        tuned("a = 0.8 (fast EWMA)", |c| c.ewma_alpha = 0.8),
        tuned("theta = 0.3", |c| c.low_traffic_threshold = 0.3),
        tuned("no re-entry hysteresis", |c| {
            c.override_reentry_factor = 1.0
        }),
        ("nearest-only subsets", &nearest, paper),
        ("full subsets", &full, paper),
    ];

    let scenarios: Vec<Scenario> = variants
        .iter()
        .flat_map(|(label, assignment, config)| {
            rates.map(|rate| {
                let selector = SelectorSpec::AdeleTuned {
                    config: *config,
                    assignment: Some((*assignment).clone()),
                };
                figure_scenario(format!("ablation {label} @ {rate}"), placement)
                    .with_workload(WorkloadKind::Uniform { rate })
                    .with_selector(selector)
            })
        })
        .collect();
    let labels = variants.map(|(label, ..)| label);
    Plan::new(scenarios, move |runs| render(rates, &labels, runs))
}

/// The study from the variants' labels and runs; writes
/// `results/ablation.json`.
fn render([high_rate, low_rate]: [f64; 2], labels: &[&str], summaries: &[RunSummary]) -> Report {
    let mut out = String::new();
    writeln!(
        out,
        "# AdEle ablations on PS1, uniform traffic (high load {high_rate}, low load {low_rate})"
    )?;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, runs) in labels.iter().zip(summaries.chunks(2)) {
        let (high, low) = (&runs[0], &runs[1]);
        rows.push(vec![
            label.to_string(),
            format!(
                "{}{}",
                f1(high.avg_latency),
                if high.completed { "" } else { "*" }
            ),
            f2(low.energy_per_flit_nj),
        ]);
        json.push(AblationRow {
            variant: label.to_string(),
            high_load_latency: high.avg_latency,
            high_load_completed: high.completed,
            low_load_energy_nj: low.energy_per_flit_nj,
        });
    }
    out += &table(
        &[
            "variant",
            "latency @0.0045 (cyc)",
            "energy @0.001 (nJ/flit)",
        ],
        &rows,
    );
    out += "\nReading guide: the offline subsets carry most of the latency win (compare\n\
            nearest-only/full rows); the override buys low-load energy; skipping and\n\
            exploration fine-tune behaviour near saturation.\n";
    dump_json("ablation", &json)?;
    Ok(out)
}
