//! Link-granular energy telemetry in action: run AdEle on PS3, snapshot
//! the hottest links of a healthy measurement window, then fail a TSV
//! pillar and snapshot again — the dead pillar's TSV links go exactly
//! silent and the heat redistributes onto the survivors.
//!
//! Run with: `cargo run --release -p adele-repro --example energy_heatmap`
//! (`ADELE_QUICK=1` shrinks the windows for a smoke pass).

use adele_bench::quick_mode;
use noc_energy::{HeatmapReport, LinkEnergyReport};
use noc_exp::{Event, Scenario, SelectorSpec, WorkloadKind};
use noc_sim::Simulator;
use noc_topology::placement::Placement;
use noc_topology::ElevatorId;

fn snapshot(sim: &Simulator, label: &str) -> (LinkEnergyReport, HeatmapReport) {
    let model = noc_energy::EnergyModel::default_45nm();
    let report = LinkEnergyReport::from_ledger(sim.link_map(), sim.link_ledger(), &model);
    let heat = HeatmapReport::from_ledger(sim.link_map(), sim.link_ledger(), &model);

    println!("\n== {label} ==");
    println!("hottest links (attributed energy = traversal + downstream FIFO/crossbar):");
    for row in report.hottest(8) {
        println!(
            "  l{:<4} {}-{}-{} --{}--> {}-{}-{}  {:>10.1} nJ{}",
            row.link,
            row.src.0,
            row.src.1,
            row.src.2,
            row.dir,
            row.dst.0,
            row.dst.1,
            row.dst.2,
            row.attributed_nj,
            if row.vertical { "  [TSV]" } else { "" },
        );
    }
    println!("per-pillar TSV energy (nJ):");
    for (e, (&energy, &flits)) in heat
        .pillar_tsv_energy_nj
        .iter()
        .zip(&heat.pillar_tsv_flits)
        .enumerate()
    {
        println!("  e{e}: {energy:>10.1} nJ over {flits} TSV flits");
    }
    (report, heat)
}

fn main() {
    let (warmup, window, gap) = if quick_mode() {
        (300, 1_000, 200)
    } else {
        (1_000, 3_000, 400)
    };
    let victim = ElevatorId(2);

    // PS3: 8 pillars on a 4×4×4 mesh, AdEle with full subsets.
    let scenario = Scenario::from_placement("energy-heatmap", Placement::Ps3)
        .with_workload(WorkloadKind::Uniform { rate: 0.005 })
        .with_selector(SelectorSpec::adele())
        .with_phases(warmup, 2 * window, 30_000)
        .with_seed(42);
    let mut sim = scenario.build_simulator();

    sim.advance(warmup).unwrap();
    let _healthy = sim.measure_window(window).unwrap();
    let (_, heat_before) = snapshot(&sim, "healthy window");

    // Kill the pillar, let in-flight wormholes drain, measure again.
    sim.schedule(Event::ElevatorFail {
        cycle: sim.cycle(),
        elevator: victim,
    });
    sim.advance(gap).unwrap();
    let _failed = sim.measure_window(window).unwrap();
    let (report_after, heat_after) = snapshot(&sim, format!("elevator {victim} failed").as_str());

    assert!(
        heat_before.pillar_tsv_flits[victim.index()] > 0,
        "sanity: the victim carried TSV traffic while healthy"
    );
    assert_eq!(
        heat_after.pillar_tsv_flits[victim.index()],
        0,
        "the dead pillar's TSV links must be exactly silent"
    );
    assert!(
        report_after
            .hottest(1)
            .first()
            .is_some_and(|r| r.attributed_nj > 0.0),
        "the survivors keep carrying (and heating) the network"
    );

    let survivors: f64 = heat_after.pillar_tsv_energy_nj.iter().sum();
    println!(
        "\nTSV energy: victim {:.1} → 0.0 nJ; surviving pillars carry {survivors:.1} nJ.",
        heat_before.pillar_tsv_energy_nj[victim.index()],
    );
    println!(
        "Per-link telemetry turns the failure into a visible heat shift — \
         the same roll-ups feed Fig. 6's link-granular mode and AdEle's \
         measured-energy signal."
    );
}
