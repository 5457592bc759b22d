//! Table III — hardware area analysis: router area and selection pipeline
//! cycles for Elevator-First, CDA and AdEle, from the analytical 45 nm
//! model (our stand-in for the paper's Cadence Genus synthesis).

use crate::{Plan, Report};
use adele_bench::{dump_json, offline_assignment, table};
use noc_area::table3;
use noc_topology::placement::Placement;
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
struct Row {
    scheme: String,
    cycles: u32,
    area_um2: f64,
    overhead_pct: f64,
}

/// The table, from no runs; writes `results/table3.json`.
pub fn plan() -> Plan {
    Plan::new(Vec::new(), |_| render())
}

fn render() -> Report {
    // The paper synthesises for the 64-node (4×4×4) configuration; AdEle's
    // register count follows the mean offline subset size (rounded up).
    let assignment = offline_assignment(Placement::Ps2);
    let subset_entries = assignment.mean_subset_size().ceil().max(1.0) as usize;
    let rows = table3(64, subset_entries);

    let mut out = String::from("# Table III: router area (45 nm, 1 GHz), analytical model\n");
    writeln!(
        out,
        "# AdEle modelled with {subset_entries} cost registers (mean offline subset size)"
    )?;
    out += &table(
        &["scheme", "cycles", "area (um^2)", "overhead"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.clone(),
                    r.cycles.to_string(),
                    format!("{:.0}", r.area_um2),
                    format!("{:.1}%", r.overhead * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    out += "paper: Base 35550 um^2 / 1 cycle; CDA 41088 / 2 cycles (14.4%); AdEle 36640 / 1 cycle (3.1%).\n\
            note: CDA's table grows with network size; AdEle's logic does not.\n";

    dump_json(
        "table3",
        &rows
            .iter()
            .map(|r| Row {
                scheme: r.scheme.clone(),
                cycles: r.cycles,
                area_um2: r.area_um2,
                overhead_pct: r.overhead * 100.0,
            })
            .collect::<Vec<_>>(),
    )?;
    Ok(out)
}
