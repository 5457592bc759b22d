//! Fig. 2(b) — traffic load on each middle-layer router under the
//! Elevator-First selection policy and uniform traffic, demonstrating the
//! uneven elevator utilisation that motivates AdEle.

use crate::{Plan, Report};
use adele_bench::{dump_json, f2, figure_scenario, table};
use noc_exp::{SelectorSpec, WorkloadKind};
use noc_sim::RunSummary;
use noc_topology::placement::Placement;
use noc_topology::Coord;
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
struct Fig2b {
    layer: u8,
    /// Row-major normalized loads (relative to the layer mean).
    grid: Vec<Vec<f64>>,
    elevators: Vec<(u8, u8)>,
    max_over_mean: f64,
}

/// The figure's one run, on PS1.
pub fn plan() -> Plan {
    let rate = 0.003;
    let scenario = figure_scenario("fig2b", Placement::Ps1)
        .with_workload(WorkloadKind::Uniform { rate })
        .with_selector(SelectorSpec::ElevatorFirst);
    Plan::new(vec![scenario], move |runs| render(rate, &runs[0]))
}

/// The figure from its run at `rate`; writes `results/fig2b.json`.
fn render(rate: f64, summary: &RunSummary) -> Report {
    let (mesh, elevators) = Placement::Ps1.instantiate();
    let layer = (mesh.layers() / 2) as u8;
    let mut loads = vec![vec![0.0; mesh.x()]; mesh.y()];
    let mut total = 0.0;
    for coord in mesh.layer_coords(layer) {
        let id = mesh.node_id(coord).expect("in mesh");
        let flits = summary.router_flits[id.index()] as f64;
        loads[coord.y as usize][coord.x as usize] = flits;
        total += flits;
    }
    let mean = total / mesh.nodes_per_layer() as f64;
    for row in &mut loads {
        for cell in row.iter_mut() {
            *cell /= mean.max(1.0);
        }
    }

    let mut out = String::new();
    writeln!(
        out,
        "# Fig. 2(b): per-router traffic load, layer {layer} of PS1 (4x4x4, 3 elevators),"
    )?;
    writeln!(out, "# Elevator-First selection, uniform traffic @ rate {rate}. Loads normalised to the layer mean;")?;
    writeln!(out, "# elevator-column routers marked with 'E'.")?;
    let headers: Vec<String> = (0..mesh.x()).map(|x| format!("x={x}")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (y, row) in loads.iter().enumerate() {
        let mut cells = Vec::new();
        for (x, &v) in row.iter().enumerate() {
            let is_elev = elevators
                .column_at(Coord::new(x as u8, y as u8, layer))
                .is_some();
            cells.push(format!("{}{}", f2(v), if is_elev { " E" } else { "" }));
        }
        rows.push(cells);
    }
    out += &table(&header_refs, &rows);

    let max = loads.iter().flatten().copied().fold(0.0, f64::max);
    writeln!(out, "\nmax/mean load on this layer: {}", f2(max))?;
    out += "paper: the middle elevator (e2) is highly congested under Elevator-First —\n\
            expect the elevator columns to carry multiples of the mean load, unevenly.\n";

    dump_json(
        "fig2b",
        &Fig2b {
            layer,
            grid: loads,
            elevators: elevators.iter().map(|(_, c)| c).collect(),
            max_over_mean: max,
        },
    )?;
    Ok(out)
}
