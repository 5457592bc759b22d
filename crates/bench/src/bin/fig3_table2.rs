//! Fig. 3 + Table II — AMOSA elevator-subset exploration on the large
//! 8×8×4 network (PM): the explored-solution cloud, the Pareto front, and
//! the network performance (latency, energy/flit) of six solutions S0–S5
//! spread along the front versus Elevator-First.

use adele::online::AdeleSelector;
use adele_bench::{
    dump_json, f1, f2, offline_result, ok_or_die, print_table, sim_config, table2_rate,
};
use noc_exp::{SelectorSpec, WorkloadKind};
use noc_sim::harness::run_once;
use noc_topology::placement::Placement;
use serde::Serialize;

#[derive(Serialize)]
struct FrontPoint {
    variance: f64,
    distance: f64,
}

#[derive(Serialize)]
struct Table2Row {
    label: String,
    variance: Option<f64>,
    distance: Option<f64>,
    latency: f64,
    energy_per_flit_nj: f64,
    completed: bool,
}

#[derive(Serialize)]
struct Fig3Table2 {
    explored: Vec<FrontPoint>,
    pareto: Vec<FrontPoint>,
    evaluations: u64,
    table2: Vec<Table2Row>,
}

fn main() {
    adele_bench::Args::from_env("fig3_table2").finish();
    let placement = Placement::Pm;
    let (mesh, elevators) = placement.instantiate();
    println!("# Fig. 3: AMOSA exploration on PM (8x8x4, 12 elevators), uniform assumed traffic");
    let result = offline_result(placement);
    println!(
        "AMOSA evaluations: {}; Pareto-front size: {}; explored points recorded: {}",
        result.evaluations,
        result.pareto.len(),
        result.explored.len()
    );

    println!("\n## Pareto front (utilization variance vs average distance)");
    print_table(
        &["solution", "util. variance", "avg distance"],
        &result
            .pareto
            .iter()
            .enumerate()
            .map(|(i, p)| {
                vec![
                    format!("p{i}"),
                    f2(p.utilization_variance),
                    f2(p.average_distance),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("paper Fig. 3: variance spans ≈0–7, distance ≈6.65–6.95 (absolute scales differ");
    println!("with our re-derived PM placement; the trade-off shape is the comparison).");

    // ---- Table II: simulate S0..S5 + Elevator-First on PM. ----
    let picks = result.spread(6);
    let rate = table2_rate();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    let ef = ok_or_die(
        run_once(
            &sim_config(placement),
            WorkloadKind::Uniform { rate }.build_polled(&mesh, 555),
            SelectorSpec::ElevatorFirst.build(&mesh, &elevators, 77),
        ),
        "table2 ElevFirst run",
    );
    rows.push(vec![
        "ElevFirst".to_string(),
        "-".to_string(),
        "-".to_string(),
        f1(ef.avg_latency),
        f1(ef.energy_per_flit_nj),
    ]);
    json_rows.push(Table2Row {
        label: "ElevFirst".into(),
        variance: None,
        distance: None,
        latency: ef.avg_latency,
        energy_per_flit_nj: ef.energy_per_flit_nj,
        completed: ef.completed,
    });

    for (i, pick) in picks.iter().enumerate() {
        let selector = AdeleSelector::from_solution(&mesh, &elevators, pick, 77);
        let summary = ok_or_die(
            run_once(
                &sim_config(placement),
                WorkloadKind::Uniform { rate }.build_polled(&mesh, 555),
                Box::new(selector),
            ),
            &format!("table2 S{i} run"),
        );
        rows.push(vec![
            format!("S{i}"),
            f2(pick.utilization_variance),
            f2(pick.average_distance),
            format!(
                "{}{}",
                f1(summary.avg_latency),
                if summary.completed { "" } else { "*" }
            ),
            f1(summary.energy_per_flit_nj),
        ]);
        json_rows.push(Table2Row {
            label: format!("S{i}"),
            variance: Some(pick.utilization_variance),
            distance: Some(pick.average_distance),
            latency: summary.avg_latency,
            energy_per_flit_nj: summary.energy_per_flit_nj,
            completed: summary.completed,
        });
    }

    println!("\n# Table II: performance of selected solutions (PM, uniform @ rate {rate})");
    print_table(
        &[
            "solution",
            "variance",
            "distance",
            "latency (cyc)",
            "energy/flit (nJ)",
        ],
        &rows,
    );
    println!("paper Table II: ElevFirst 161.4 cyc / 94.4 nJ; S0 396 / 93.1; S5 56.6 / 98.3 —");
    println!("latency falls S0→S5 as variance falls, energy rises slightly with distance.");

    dump_json(
        "fig3_table2",
        &Fig3Table2 {
            explored: result
                .explored
                .iter()
                .map(|e| FrontPoint {
                    variance: e.utilization_variance,
                    distance: e.average_distance,
                })
                .collect(),
            pareto: result
                .pareto
                .iter()
                .map(|p| FrontPoint {
                    variance: p.utilization_variance,
                    distance: p.average_distance,
                })
                .collect(),
            evaluations: result.evaluations,
            table2: json_rows,
        },
    );
}
