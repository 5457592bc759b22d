//! Fig. 6 — energy per flit for Elevator-First, CDA and AdEle, normalised
//! to Elevator-First, at low (1e-3) and high (near-saturation) injection
//! rates for each elevator placement.
//!
//! The paper's takeaways: at low rates AdEle is the *most* energy
//! efficient (minimal-path override); at high rates it pays a small
//! (<10 %) premium over CDA for taking non-minimal paths that relieve
//! congestion.
//!
//! The (regime × placement × policy) grid runs on the `noc_exp` parallel
//! pool (`repro_all --verify` checks it against the sequential grid), on
//! the bit-stable `v1` workload stream (the dumps record it).
//!
//! **Link-granular mode** (`fig6 --links`):
//! instead of the aggregate cells, reproduce the figure at link
//! granularity from the per-link telemetry — per-pillar TSV energy, the
//! hottest links of every run, a per-link CSV and a layer/pillar heatmap
//! JSON per placement under `results/`.

use adele::online::ElevatorSelector;
use adele_bench::{
    dump_json, f2, f4, fig6_rates, main_policies, offline_assignment, ok_or_die, phases,
    print_table, results_dir, sim_config, Args,
};
use noc_energy::{HeatmapReport, LinkEnergyReport};
use noc_exp::runner::{default_threads, par_map};
use noc_exp::{SelectorSpec, WorkloadKind, WorkloadSpec};
use noc_sim::harness::run_once_input;
use noc_sim::{RunSummary, Simulator};
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::ScheduledSource;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    placement: String,
    rate: f64,
    stream: String,
    policy: String,
    energy_per_flit_nj: f64,
    normalized: f64,
}

/// One grid point: a placement × policy cell at one regime's rate.
struct Job {
    placement: Placement,
    mesh: Mesh3d,
    elevators: ElevatorSet,
    rate: f64,
    policy: &'static str,
    selector: SelectorSpec,
}

impl Job {
    /// The cell's uniform workload.
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec::v1(WorkloadKind::Uniform { rate: self.rate })
    }

    /// The same packets for every policy at a given placement and rate.
    fn traffic(&self) -> Box<dyn ScheduledSource> {
        self.workload().build(&self.mesh, 999)
    }

    fn selector(&self) -> Box<dyn ElevatorSelector> {
        self.selector.build(&self.mesh, &self.elevators, 77)
    }
}

/// Number of policies per `(placement, rate)` point.
const POLICIES: usize = 3;

/// The `points` × [`main_policies`] grid, point-major.
fn grid(points: impl IntoIterator<Item = (Placement, f64)>) -> Vec<Job> {
    // The offline AMOSA stage runs once per placement, before the grid
    // fans out.
    let presets = Placement::ALL.map(|p| {
        let (mesh, elevators) = p.instantiate();
        (mesh, elevators, main_policies(&offline_assignment(p)))
    });
    let mut jobs = Vec::new();
    for (placement, rate) in points {
        let at = Placement::ALL
            .iter()
            .position(|&p| p == placement)
            .expect("placement is one of the presets");
        let (mesh, elevators, policies) = &presets[at];
        for (policy, selector) in policies.clone() {
            jobs.push(Job {
                placement,
                mesh: *mesh,
                elevators: elevators.clone(),
                rate,
                policy,
                selector,
            });
        }
    }
    jobs
}

fn run_job(job: &Job) -> RunSummary {
    ok_or_die(
        run_once_input(&sim_config(job.placement), job.traffic(), job.selector()),
        &format!("fig6 {} {} cell", job.placement.name(), job.policy),
    )
}

fn standard_mode() {
    let low = Placement::ALL.map(|p| (p, fig6_rates(p).0));
    let high = Placement::ALL.map(|p| (p, fig6_rates(p).1));
    let jobs = grid(low.into_iter().chain(high));

    let summaries = par_map(&jobs, default_threads(), |_, job| run_job(job));

    let mut cells = Vec::new();
    let mut cursor = 0;
    for (regime, label) in [(0usize, "a"), (1, "b")] {
        println!(
            "\n# Fig. 6({label}): energy/flit normalised to ElevFirst — {} injection rate",
            if regime == 0 { "Low" } else { "High" }
        );
        let mut rows = Vec::new();
        for placement in Placement::ALL {
            let cell = cursor..cursor + POLICIES;
            cursor = cell.end;
            let rate = jobs[cell.start].rate;
            let base = summaries[cell.start].energy_per_flit_nj.max(1e-12);
            let mut row = vec![placement.name().to_string(), f4(rate)];
            for (job, summary) in jobs[cell.clone()].iter().zip(&summaries[cell]) {
                row.push(f2(summary.energy_per_flit_nj / base));
                cells.push(Cell {
                    placement: placement.name().to_string(),
                    rate,
                    stream: job.workload().stream.to_string(),
                    policy: job.policy.to_string(),
                    energy_per_flit_nj: summary.energy_per_flit_nj,
                    normalized: summary.energy_per_flit_nj / base,
                });
            }
            rows.push(row);
        }
        print_table(&["placement", "rate", "ElevFirst", "CDA", "AdEle"], &rows);
    }
    println!(
        "\npaper: AdEle lowest at low rates (minimal-path override); ≤9.7% over CDA at high rates."
    );
    dump_json("fig6", &cells);
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

/// Runs one link-granularity cell and snapshots its per-link telemetry
/// (the reports are plain owned data, so pool workers can return them and
/// the main thread keeps only printing and file writes).
fn run_link_job(job: &Job) -> (LinkEnergyReport, HeatmapReport) {
    let (warmup, measure, _) = phases(job.placement);
    let config = sim_config(job.placement);
    let mut sim = Simulator::from_scheduled(config.clone(), job.traffic(), job.selector());
    ok_or_die(sim.advance(warmup), "fig6 links warm-up");
    ok_or_die(sim.measure_window(measure), "fig6 links measure window");
    (
        LinkEnergyReport::from_ledger(sim.link_map(), sim.link_ledger(), &config.energy),
        HeatmapReport::from_ledger(sim.link_map(), sim.link_ledger(), &config.energy),
    )
}

/// Fig. 6 at link granularity: per-pillar TSV energy and hottest links,
/// from the same runs as the aggregate cells but driven through the
/// simulator directly so the per-link ledger stays accessible. The grid
/// runs on the same pool as the aggregate mode.
fn links_mode() {
    let jobs = grid(Placement::ALL.into_iter().flat_map(|p| {
        let (low, high) = fig6_rates(p);
        [(p, low), (p, high)]
    }));
    let snapshots = par_map(&jobs, default_threads(), |_, job| run_link_job(job));

    let mut cells = Vec::new();
    let mut results = jobs.iter().zip(snapshots);
    for placement in Placement::ALL {
        let (_, high) = fig6_rates(placement);
        println!("\n# Fig. 6 (link granularity): {}", placement.name());
        let mut rows = Vec::new();
        for _ in 0..2 * POLICIES {
            let (job, (report, heat)) = results.next().expect("one snapshot per job");
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
                f4(job.rate),
                job.policy.to_string(),
                f2(tsv_total),
                hottest.first().cloned().unwrap_or_default(),
            ]);

            // Full per-link artefacts for AdEle at the high rate: the
            // link-granular reproduction the ROADMAP item asks for.
            if job.policy == "AdEle" && job.rate == high {
                let dir = results_dir();
                let name = placement.name();
                report
                    .write_csv(&dir.join(format!("fig6_links_{name}.csv")))
                    .expect("write per-link CSV");
                heat.write_json(&dir.join(format!("fig6_heatmap_{name}.json")))
                    .expect("write heatmap JSON");
            }

            cells.push(LinkCell {
                placement: placement.name().to_string(),
                rate: job.rate,
                stream: job.workload().stream.to_string(),
                policy: job.policy.to_string(),
                pillar_tsv_energy_nj: heat.pillar_tsv_energy_nj,
                hottest_links: hottest,
            });
        }
        print_table(&["rate", "policy", "tsv_energy_nj", "hottest link"], &rows);
    }
    println!("\nper-link CSV + layer/pillar heatmap JSON written to results/ (AdEle, high rate);");
    println!("TSVs are cheap per hop but concentrate on few pillars — the per-pillar view above.");
    dump_json("fig6_links", &cells);
}

fn main() {
    let mut args = Args::from_env("fig6");
    let links = args.flag("--links");
    args.finish();
    if links {
        links_mode();
    } else {
        standard_mode();
    }
}
