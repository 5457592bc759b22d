//! The one path every figure simulation takes: a figure is a flat list of
//! [`Cell`]s — independent *(placement, traffic, policy)* simulations —
//! handed to [`run_grid`] (or [`run_grid_with`] for a read-out other than
//! the end-of-run summary). The runner owns everything the cells share:
//! the placement's [`SimConfig`](noc_sim::SimConfig) and windows
//! ([`sim_config`]), the `noc_exp` pool, the selector seed and the "name
//! the cell, exit 3" error convention. It takes no options.

use crate::sim_config;
use adele::offline::SubsetAssignment;
use adele::online::{AdeleSelector, ElevatorSelector};
use adele::AdeleConfig;
use noc_exp::runner::{default_threads, par_map};
use noc_exp::{SelectorSpec, WorkloadSpec};
use noc_sim::{RunSummary, SimConfig, SimError, Simulator};
use noc_topology::placement::Placement;
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::apps::{AppKind, AppTraffic};
use noc_traffic::{CyclePolled, ScheduledSource};

/// Every figure's selector stream.
const SELECTOR_SEED: u64 = 77;

/// What a cell offers the fabric.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// A `noc_exp` workload.
    Spec(WorkloadSpec),
    /// A synthetic application model at a base injection rate (Fig. 7).
    App(AppKind, f64),
}

impl Traffic {
    fn build(&self, mesh: &Mesh3d, seed: u64) -> Box<dyn ScheduledSource> {
        match self {
            Traffic::Spec(spec) => spec.build(mesh, seed),
            Traffic::App(app, base_rate) => Box::new(CyclePolled::new(
                Box::new(AppTraffic::new(*app, mesh, *base_rate, seed)),
                mesh.node_count(),
            )),
        }
    }
}

/// How a cell picks elevators.
#[derive(Debug, Clone)]
pub enum Policy {
    /// A `noc_exp` policy.
    Spec(SelectorSpec),
    /// AdEle on an explicit assignment with a re-tuned configuration (the
    /// ablation's rows).
    Tuned(SubsetAssignment, AdeleConfig),
}

impl Policy {
    fn build(&self, mesh: &Mesh3d, elevators: &ElevatorSet) -> Box<dyn ElevatorSelector> {
        match self {
            Policy::Spec(spec) => spec.build(mesh, elevators, SELECTOR_SEED),
            Policy::Tuned(assignment, config) => Box::new(
                AdeleSelector::from_assignment(mesh, elevators, assignment, *config, SELECTOR_SEED)
                    .expect("a figure's assignment matches its placement"),
            ),
        }
    }
}

/// One independent figure simulation: the placement (its fabric and,
/// through [`sim_config`], its windows), the offered traffic, the seed of
/// the traffic streams, and the selection policy.
#[derive(Debug, Clone)]
pub struct Cell(pub Placement, pub Traffic, pub u64, pub Policy);

/// Runs every cell to completion on the `noc_exp` pool and returns the
/// summaries in input order, bit-identical at every worker count. An
/// engine failure (a deadlock on a vetted cell is an authoring bug) names
/// the cell on stderr and exits 3.
#[must_use]
pub fn run_grid(cells: &[Cell]) -> Vec<RunSummary> {
    run_grid_with(cells, |_, sim| sim.run())
}

/// [`run_grid`] with `body` driving each cell's freshly built simulator
/// (it gets the cell's configuration for the windows and energy model).
pub fn run_grid_with<R: Send>(
    cells: &[Cell],
    body: impl Fn(&SimConfig, Simulator) -> Result<R, SimError> + Sync,
) -> Vec<R> {
    run_on(cells, default_threads(), sim_config, body).unwrap_or_else(|failed| {
        eprintln!("error: {failed}");
        std::process::exit(3);
    })
}

/// The grid on `threads` workers with `config_for` giving each cell's
/// configuration, or the first failed cell in input order, named.
fn run_on<R: Send>(
    cells: &[Cell],
    threads: usize,
    config_for: impl Fn(Placement) -> SimConfig + Sync,
    body: impl Fn(&SimConfig, Simulator) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, String> {
    par_map(
        cells,
        threads,
        |at, Cell(placement, traffic, seed, policy)| {
            let config = config_for(*placement);
            let selector = policy.build(&config.mesh, &config.elevators);
            let name = selector.name();
            let source = traffic.build(&config.mesh, *seed);
            let sim = Simulator::from_scheduled(config.clone(), source, selector);
            body(&config, sim).map_err(|error| {
                format!("cell {at} ({placement} / {traffic:?} seed {seed} / {name}): {error}")
            })
        },
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_exp::WorkloadKind;

    /// A 4×4×2 fabric with short windows, whatever the cell's placement:
    /// the runner's mechanics without a preset's 64-node, 25 000-cycle runs.
    fn tiny(_: Placement) -> SimConfig {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        SimConfig::new(mesh, elevators).with_phases(100, 400, 2_000)
    }

    #[test]
    fn grid_equals_a_plain_loop_in_input_order_at_any_worker_count() {
        let config = tiny(Placement::Ps1);
        let assignment = SubsetAssignment::full(&config.mesh, &config.elevators);
        let mut cells: Vec<Cell> = crate::main_policies(&assignment)
            .into_iter()
            .zip([0.002, 0.004, 0.008])
            .map(|((_, policy), rate)| {
                let uniform = WorkloadSpec::v1(WorkloadKind::Uniform { rate });
                let seed = 5 + (rate * 1e3) as u64;
                Cell(
                    Placement::Ps1,
                    Traffic::Spec(uniform),
                    seed,
                    Policy::Spec(policy),
                )
            })
            .collect();
        cells.push(Cell(
            Placement::Ps1,
            Traffic::App(AppKind::Fft, 0.004),
            9,
            Policy::Tuned(assignment, AdeleConfig::rr_only()),
        ));

        let plain: Vec<RunSummary> = cells
            .iter()
            .map(|Cell(_, traffic, seed, policy)| {
                let traffic = traffic.build(&config.mesh, *seed);
                let selector = policy.build(&config.mesh, &config.elevators);
                Simulator::from_scheduled(config.clone(), traffic, selector)
                    .run()
                    .unwrap()
            })
            .collect();
        assert!(plain.windows(2).all(|w| w[0] != w[1]), "distinct cells");
        for threads in [1, 4] {
            let grid = run_on(&cells, threads, tiny, |_, sim| sim.run()).unwrap();
            assert_eq!(grid, plain, "{threads} worker(s)");
        }
    }
}
