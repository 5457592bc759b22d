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
//! A panel is, per policy, the zero-load probe and the swept rates, all
//! independent scenarios of the figure's plan.

use crate::Plan;
use adele_bench::{
    dump_json, f1, f4, fig4_rates, figure_scenario, main_policies, offline_assignment, table, Args,
};
use noc_exp::{Scenario, SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::harness::saturation_rate;
use noc_sim::RunSummary;
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

/// One panel's runs (per policy, the zero-load probe, then the swept rates)
/// and its builder; `workload` names the uniform or `shuffle` traffic.
fn panel(
    placement: Placement,
    workload: &'static str,
    shuffle: bool,
) -> (Vec<Scenario>, impl FnOnce(&[RunSummary]) -> Panel) {
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

    let stream = spec(0.0).stream.to_string();
    let build = move |summaries: &[RunSummary]| Panel {
        placement: placement.name().to_string(),
        workload: workload.to_string(),
        stream,
        series: summaries
            .chunks(probed.len())
            .map(|runs| {
                let (zero, points) = runs.split_first().expect("the zero-load probe");
                Series {
                    policy: zero.policy.clone(),
                    latency: points.iter().map(|p| p.avg_latency).collect(),
                    completed: points.iter().map(|p| p.completed).collect(),
                    saturation_rate: saturation_rate(&rates, points, zero.avg_latency),
                }
            })
            .collect(),
        rates,
    };
    (scenarios, build)
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

/// Every panel.
pub fn plan() -> Plan {
    panels(&Placement::ALL.map(|p| (p.name(), p)), &WORKLOADS)
}

/// The panels the rest of `repro fig4`'s command line names.
pub fn plan_named(mut args: Args) -> Plan {
    let placement = args.positional();
    let workload = args.positional();
    args.finish();
    let placements = Placement::ALL.map(|p| (p.name(), p));
    let placements = pick(&args, "placement", &placements, placement);
    let workloads = pick(&args, "workload", &WORKLOADS, workload);
    panels(&placements, &workloads)
}

/// The `placements` × `workloads` panels; writes `results/fig4.json`.
fn panels(placements: &[(&str, Placement)], workloads: &[(&'static str, bool)]) -> Plan {
    let mut scenarios = Vec::new();
    let mut builders = Vec::new();
    for &(_, placement) in placements {
        for &(workload, shuffle) in workloads {
            let (runs, build) = panel(placement, workload, shuffle);
            builders.push((runs.len(), build));
            scenarios.extend(runs);
        }
    }
    Plan::new(scenarios, move |mut summaries| {
        let mut out = String::new();
        let mut panels = Vec::new();
        for (len, build) in builders {
            let (runs, rest) = summaries.split_at(len);
            let panel = build(runs);
            write_panel(&mut out, &panel)?;
            panels.push(panel);
            summaries = rest;
        }
        dump_json("fig4", &panels)?;
        Ok(out)
    })
}
