//! The one path every figure simulation takes: a figure is a flat list of
//! [`Scenario`]s, each started from [`figure_scenario`] — the placement's
//! fabric and windows and the one figure master seed — and handed to
//! [`run_scenarios`] (or [`run_scenarios_with`] for a read-out other than
//! the end-of-run summary) with the figure's worker count. The runners
//! own the `noc_exp` pool and name a failed scenario in the
//! [`FigureError`] they return.

use crate::{quick_mode, FigureError};
use noc_exp::runner::par_map;
use noc_exp::Scenario;
use noc_sim::{RunSummary, SimError, Simulator};
use noc_topology::placement::Placement;

/// The master seed of every figure scenario; its traffic and selector
/// streams are derived from it ([`Scenario::build_simulator`]).
const FIGURE_SEED: u64 = 7;

/// A figure scenario on `placement`: its fabric, the figure windows
/// `(warmup, measure, drain_max)` — shorter on PM and under
/// `ADELE_QUICK=1` — and the figure master seed (7). The figure sets the
/// workload and policy.
#[must_use]
pub fn figure_scenario(name: impl Into<String>, placement: Placement) -> Scenario {
    let (warmup, measure, drain) = match (quick_mode(), placement == Placement::Pm) {
        (true, true) => (500, 2_000, 8_000),
        (true, false) => (1_000, 4_000, 12_000),
        (false, true) => (3_000, 12_000, 40_000),
        (false, false) => (5_000, 20_000, 60_000),
    };
    Scenario::from_placement(name, placement)
        .with_phases(warmup, measure, drain)
        .with_seed(FIGURE_SEED)
}

/// Runs every scenario to completion on `threads` workers of the
/// `noc_exp` pool and returns the summaries in input order, bit-identical
/// at every worker count — or the first scenario in input order whose
/// engine failed (a deadlock on a vetted scenario is an authoring bug),
/// named.
pub fn run_scenarios(
    scenarios: &[Scenario],
    threads: usize,
) -> Result<Vec<RunSummary>, FigureError> {
    run_scenarios_with(scenarios, threads, |_, sim| sim.run())
}

/// [`run_scenarios`] with `body` driving each scenario's freshly built
/// simulator (it gets the scenario for the windows).
pub fn run_scenarios_with<R: Send>(
    scenarios: &[Scenario],
    threads: usize,
    body: impl Fn(&Scenario, Simulator) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, FigureError> {
    par_map(scenarios, threads, |at, scenario| {
        body(scenario, scenario.build_simulator())
            .map_err(|error| FigureError(format!("scenario {at} ({}): {error}", scenario.name)))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adele::offline::SubsetAssignment;
    use adele::AdeleConfig;
    use noc_exp::{SelectorSpec, WorkloadKind};
    use noc_topology::{ElevatorSet, Mesh3d};
    use noc_traffic::apps::AppKind;

    #[test]
    fn run_scenarios_equals_a_plain_loop_in_input_order_at_any_worker_count() {
        // A 4×4×2 fabric with short windows: the runner's mechanics
        // without a preset's 64-node, 25 000-cycle runs.
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        let tiny = |name: String| {
            Scenario::new(name, mesh, elevators.clone())
                .with_phases(100, 400, 2_000)
                .with_seed(FIGURE_SEED)
        };
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        let mut scenarios: Vec<Scenario> = crate::main_policies(&assignment)
            .into_iter()
            .zip([0.002, 0.004, 0.008])
            .map(|((name, policy), rate)| {
                tiny(format!("{name} @ {rate}"))
                    .with_workload(WorkloadKind::Uniform { rate })
                    .with_selector(policy)
            })
            .collect();
        scenarios.push(
            tiny("fft, AdEle-RR".into())
                .with_workload(WorkloadKind::App {
                    app: AppKind::Fft,
                    rate: 0.004,
                })
                .with_selector(SelectorSpec::AdeleTuned {
                    config: AdeleConfig::rr_only(),
                    assignment: Some(assignment),
                }),
        );

        let plain: Vec<RunSummary> = scenarios
            .iter()
            .map(|scenario| scenario.run().unwrap().summary)
            .collect();
        assert!(plain.windows(2).all(|w| w[0] != w[1]), "distinct scenarios");
        for threads in [1, 4] {
            let pooled = run_scenarios(&scenarios, threads).unwrap();
            assert_eq!(pooled, plain, "{threads} worker(s)");
        }
    }
}
