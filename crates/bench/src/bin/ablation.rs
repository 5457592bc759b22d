//! Ablation study of AdEle's design choices (beyond the paper's figures;
//! DESIGN.md §6). Each row disables or re-tunes one mechanism and reports
//! latency/energy on the paper's most contended scenario (PS1, uniform,
//! near saturation) plus a light-load scenario (for the override's energy
//! effect):
//!
//! * the low-traffic minimal-path override (on/off, global vs subset),
//! * the congestion-skipping policy of Eq. 8–9 (on/off, varying ξ),
//! * the EWMA coefficient `a` of Eq. 7,
//! * the low-traffic threshold θ,
//! * the offline stage itself (AMOSA subsets vs nearest-only vs full).

use adele::offline::SubsetAssignment;
use adele::AdeleConfig;
use adele_bench::{
    dump_json, f1, f2, figure_scenario, offline_assignment, print_table, run_scenarios,
};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind};
use noc_topology::placement::Placement;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    high_load_latency: f64,
    high_load_completed: bool,
    low_load_energy_nj: f64,
}

fn main() {
    adele_bench::Args::from_env("ablation").finish();
    let placement = Placement::Ps1;
    let (mesh, elevators) = placement.instantiate();
    let amosa = offline_assignment(placement);
    let nearest = SubsetAssignment::nearest(&mesh, &elevators);
    let full = SubsetAssignment::full(&mesh, &elevators);
    let high_rate = 0.0045;
    let low_rate = 0.001;

    let paper = AdeleConfig::paper_default();
    let variants: Vec<(String, &SubsetAssignment, AdeleConfig)> = vec![
        ("AdEle (paper defaults)".into(), &amosa, paper),
        (
            "- skipping (Eq. 8-9) off".into(),
            &amosa,
            AdeleConfig {
                skipping_enabled: false,
                ..paper
            },
        ),
        (
            "- override off".into(),
            &amosa,
            AdeleConfig {
                low_traffic_override: false,
                ..paper
            },
        ),
        (
            "- both off (plain RR)".into(),
            &amosa,
            AdeleConfig::rr_only(),
        ),
        (
            "xi = 0 (no exploration)".into(),
            &amosa,
            AdeleConfig {
                exploration: 0.0,
                ..paper
            },
        ),
        (
            "xi = 0.2".into(),
            &amosa,
            AdeleConfig {
                exploration: 0.2,
                ..paper
            },
        ),
        (
            "a = 0.05 (slow EWMA)".into(),
            &amosa,
            AdeleConfig {
                ewma_alpha: 0.05,
                ..paper
            },
        ),
        (
            "a = 0.8 (fast EWMA)".into(),
            &amosa,
            AdeleConfig {
                ewma_alpha: 0.8,
                ..paper
            },
        ),
        (
            "theta = 0.3".into(),
            &amosa,
            AdeleConfig {
                low_traffic_threshold: 0.3,
                ..paper
            },
        ),
        (
            "no re-entry hysteresis".into(),
            &amosa,
            AdeleConfig {
                override_reentry_factor: 1.0,
                ..paper
            },
        ),
        ("nearest-only subsets".into(), &nearest, paper),
        ("full subsets".into(), &full, paper),
    ];

    println!(
        "# AdEle ablations on PS1, uniform traffic (high load {high_rate}, low load {low_rate})"
    );
    // Per variant: the high-load scenario, then the low-load one.
    let scenarios: Vec<Scenario> = variants
        .iter()
        .flat_map(|(label, assignment, config)| {
            [high_rate, low_rate].map(|rate| {
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
    let summaries = run_scenarios(&scenarios);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for ((label, ..), runs) in variants.into_iter().zip(summaries.chunks(2)) {
        let (high, low) = (&runs[0], &runs[1]);
        rows.push(vec![
            label.clone(),
            format!(
                "{}{}",
                f1(high.avg_latency),
                if high.completed { "" } else { "*" }
            ),
            f2(low.energy_per_flit_nj),
        ]);
        json.push(AblationRow {
            variant: label,
            high_load_latency: high.avg_latency,
            high_load_completed: high.completed,
            low_load_energy_nj: low.energy_per_flit_nj,
        });
    }
    print_table(
        &[
            "variant",
            "latency @0.0045 (cyc)",
            "energy @0.001 (nJ/flit)",
        ],
        &rows,
    );
    println!("\nReading guide: the offline subsets carry most of the latency win (compare");
    println!("nearest-only/full rows); the override buys low-load energy; skipping and");
    println!("exploration fine-tune behaviour near saturation.");
    dump_json("ablation", &json);
}
