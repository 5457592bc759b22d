//! Fig. 4 — average latency vs packet-injection rate for Elevator-First,
//! CDA and AdEle under uniform (a–d) and shuffle (e–h) traffic on
//! PS1/PS2/PS3/PM. The PM panels additionally include the AdEle-RR
//! ablation, as in the paper.
//!
//! Usage: `repro fig4 [PS1|PS2|PS3|PM] [Uniform|Shuffle]` (no args = all
//! panels; an unknown name is a usage error). The panels run on the
//! bit-stable `v1` workload stream (the dump records it). `ADELE_QUICK=1`
//! shrinks windows for a fast smoke run.
//!
//! A panel is one batch on the figure runner: per policy, the zero-load
//! probe and the swept rates, all independent scenarios.

use adele_bench::{
    dump_json, f1, f4, fig4_rates, figure_scenario, main_policies, offline_assignment,
    run_scenarios, table, Args, FigureError,
};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::harness::saturation_rate;
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt::Write;

/// The token injection rate whose latency is the baseline of the paper's
/// saturation definition.
const ZERO_LOAD_RATE: f64 = 1e-4;

/// The panel workloads: printed name, and whether it is `shuffle` traffic.
const WORKLOADS: [(&str, bool); 2] = [("Uniform", false), ("Shuffle", true)];

#[derive(Serialize)]
struct Series {
    policy: String,
    latency: Vec<f64>,
    completed: Vec<bool>,
    saturation_rate: Option<f64>,
}

#[derive(Serialize)]
struct Panel {
    placement: String,
    workload: String,
    stream: String,
    rates: Vec<f64>,
    series: Vec<Series>,
}

/// One panel: `workload` is the printed name of the uniform or `shuffle` traffic.
fn panel(
    placement: Placement,
    workload: &str,
    shuffle: bool,
    threads: usize,
) -> Result<Panel, FigureError> {
    let rates = fig4_rates(placement, shuffle);
    let assignment = offline_assignment(placement);

    let mut policies = main_policies(&assignment).to_vec();
    if placement == Placement::Pm {
        policies.push((
            "AdEle-RR",
            SelectorSpec::Adele {
                rr_only: true,
                measured_energy: false,
                assignment: Some(assignment),
            },
        ));
    }

    let spec = |rate: f64| {
        WorkloadSpec::v1(if shuffle {
            WorkloadKind::Shuffle { rate }
        } else {
            WorkloadKind::Uniform { rate }
        })
    };
    // Selector-major; each policy's zero-load probe, then its sweep.
    let probed: Vec<f64> = std::iter::once(ZERO_LOAD_RATE)
        .chain(rates.iter().copied())
        .collect();
    let scenarios: Vec<Scenario> = policies
        .iter()
        .flat_map(|(name, policy)| {
            probed.iter().map(move |&rate| {
                let label = format!("fig4 {placement} {workload} {name} @ {rate}");
                figure_scenario(label, placement)
                    .with_workload(spec(rate))
                    .with_selector(policy.clone())
            })
        })
        .collect();
    let summaries = run_scenarios(&scenarios, threads)?;

    let series = policies
        .iter()
        .zip(summaries.chunks(probed.len()))
        .map(|((name, _), runs)| {
            let (zero, points) = runs.split_first().expect("the zero-load probe");
            Series {
                policy: name.to_string(),
                latency: points.iter().map(|p| p.avg_latency).collect(),
                completed: points.iter().map(|p| p.completed).collect(),
                saturation_rate: saturation_rate(&rates, points, zero.avg_latency),
            }
        })
        .collect();

    Ok(Panel {
        placement: placement.name().to_string(),
        workload: workload.to_string(),
        stream: spec(0.0).stream.to_string(),
        rates,
        series,
    })
}

fn write_panel(out: &mut String, panel: &Panel) -> std::fmt::Result {
    writeln!(
        out,
        "\n# Fig. 4 panel: {} — {} traffic (avg latency, cycles; * = unsaturated run did not fully drain)",
        panel.placement, panel.workload
    )?;
    let mut headers = vec!["rate"];
    let names: Vec<&str> = panel.series.iter().map(|s| s.policy.as_str()).collect();
    headers.extend(names);
    let rows: Vec<Vec<String>> = panel
        .rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut row = vec![f4(rate)];
            for s in &panel.series {
                let mark = if s.completed[i] { "" } else { "*" };
                row.push(format!("{}{}", f1(s.latency[i]), mark));
            }
            row
        })
        .collect();
    out.push_str(&table(&headers, &rows));
    for s in &panel.series {
        match s.saturation_rate {
            Some(r) => writeln!(out, "  saturation({}) ≈ {}", s.policy, f4(r))?,
            None => writeln!(out, "  saturation({}) beyond swept range", s.policy)?,
        }
    }
    writeln!(out, "  paper: AdEle achieves the lowest latency and highest saturation threshold in every panel.")
}

/// The entries of `all` named `word` (every entry when no word was
/// given). A word that names none is a usage error: a typo must not pass
/// for an empty figure.
fn pick<T: Copy>(
    args: &Args,
    what: &str,
    all: &[(&'static str, T)],
    word: Option<String>,
) -> Vec<(&'static str, T)> {
    let named = |name: &str| word.as_deref().is_none_or(|w| name.eq_ignore_ascii_case(w));
    let picked: Vec<_> = all.iter().copied().filter(|(n, _)| named(n)).collect();
    if picked.is_empty() {
        let names: Vec<&str> = all.iter().map(|&(name, _)| name).collect();
        let (word, names) = (word.unwrap_or_default(), names.join(", "));
        args.die(&format!("unknown {what} {word:?} (one of {names})"));
    }
    picked
}

/// Every panel on `threads` workers; writes `results/fig4.json`.
pub fn run(threads: usize) -> Result<String, FigureError> {
    panels(&Placement::ALL.map(|p| (p.name(), p)), &WORKLOADS, threads)
}

/// The panels the rest of `repro fig4`'s command line names.
pub fn run_named(mut args: Args, threads: usize) -> Result<String, FigureError> {
    let placement = args.positional();
    let workload = args.positional();
    args.finish();
    let placements = Placement::ALL.map(|p| (p.name(), p));
    let placements = pick(&args, "placement", &placements, placement);
    let workloads = pick(&args, "workload", &WORKLOADS, workload);
    panels(&placements, &workloads, threads)
}

/// The `placements` × `workloads` panels, each panel's grid on `threads`.
fn panels(
    placements: &[(&str, Placement)],
    workloads: &[(&str, bool)],
    threads: usize,
) -> Result<String, FigureError> {
    let mut out = String::new();
    let mut panels = Vec::new();
    for &(_, placement) in placements {
        for &(workload, shuffle) in workloads {
            let p = panel(placement, workload, shuffle, threads)?;
            write_panel(&mut out, &p)?;
            panels.push(p);
        }
    }
    dump_json("fig4", &panels)?;
    Ok(out)
}
