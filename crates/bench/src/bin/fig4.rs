//! Fig. 4 — average latency vs packet-injection rate for Elevator-First,
//! CDA and AdEle under uniform (a–d) and shuffle (e–h) traffic on
//! PS1/PS2/PS3/PM. The PM panels additionally include the AdEle-RR
//! ablation, as in the paper.
//!
//! Usage: `fig4 [PS1|PS2|PS3|PM] [Uniform|Shuffle]` (no args = all
//! panels). The panels run on the bit-stable `v1` workload stream (the
//! dump records it). `ADELE_QUICK=1` shrinks windows for a fast smoke
//! run.
//!
//! Sweep points run on the `noc_exp` parallel runner (one worker per
//! available core); results are bit-identical to the sequential sweep.

use adele_bench::{
    dump_json, f1, f4, fig4_rates, main_policies, offline_assignment, ok_or_die, print_table,
    sim_config, Args,
};
use noc_exp::runner::{default_threads, injection_sweep};
use noc_exp::{SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::harness::{saturation_rate, zero_load_latency};
use noc_topology::placement::Placement;
use serde::Serialize;

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
fn panel(placement: Placement, workload: &str, shuffle: bool) -> Panel {
    let (mesh, elevators) = placement.instantiate();
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
    let mut series = Vec::new();
    for (name, policy) in &policies {
        let config = sim_config(placement);
        // Identical traffic stream for every policy at a given rate.
        let traffic = |rate: f64| spec(rate).build(&mesh, 1000 + (rate * 1e6) as u64);
        let selector = || policy.build(&mesh, &elevators, 77);
        let zero = ok_or_die(
            zero_load_latency(&config, &traffic, &selector),
            &format!("fig4 {name} zero-load probe"),
        );
        let points = ok_or_die(
            injection_sweep(&config, &rates, &traffic, &selector, default_threads()),
            &format!("fig4 {name} sweep"),
        );
        series.push(Series {
            policy: name.to_string(),
            latency: points.iter().map(|p| p.summary.avg_latency).collect(),
            completed: points.iter().map(|p| p.summary.completed).collect(),
            saturation_rate: saturation_rate(&points, zero),
        });
    }

    Panel {
        placement: placement.name().to_string(),
        workload: workload.to_string(),
        stream: spec(0.0).stream.to_string(),
        rates,
        series,
    }
}

fn print_panel(panel: &Panel) {
    println!(
        "\n# Fig. 4 panel: {} — {} traffic (avg latency, cycles; * = unsaturated run did not fully drain)",
        panel.placement, panel.workload
    );
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
    print_table(&headers, &rows);
    for s in &panel.series {
        match s.saturation_rate {
            Some(r) => println!("  saturation({}) ≈ {}", s.policy, f4(r)),
            None => println!("  saturation({}) beyond swept range", s.policy),
        }
    }
    println!("  paper: AdEle achieves the lowest latency and highest saturation threshold in every panel.");
}

fn main() {
    let mut args = Args::from_env("fig4");
    let placement_filter = args.positional().map(|s| s.to_uppercase());
    let workload_filter = args.positional().map(|s| s.to_lowercase());
    args.finish();

    let mut panels = Vec::new();
    for placement in Placement::ALL {
        if let Some(f) = &placement_filter {
            if placement.name() != f {
                continue;
            }
        }
        for (workload, shuffle) in [("Uniform", false), ("Shuffle", true)] {
            if let Some(f) = &workload_filter {
                if workload.to_lowercase() != *f {
                    continue;
                }
            }
            let p = panel(placement, workload, shuffle);
            print_panel(&p);
            panels.push(p);
        }
    }
    dump_json("fig4", &panels);
}
