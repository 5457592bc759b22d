//! Driver for the offline stage: runs AMOSA over
//! [`ElevatorSubsetProblem`], returns the Pareto archive, and supports the
//! solution-selection step of the paper's Section IV.A (Fig. 3, Table II).

use crate::offline::{ElevatorSubsetProblem, ObjectiveEvaluator, SubsetAssignment};
use amosa::{Amosa, AmosaParams};
use noc_topology::{ElevatorSet, Mesh3d};
use noc_traffic::TrafficMatrix;

/// One Pareto-archive member with its objective values.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionPoint {
    /// The per-router elevator subsets.
    pub assignment: SubsetAssignment,
    /// Eq. 3 — elevator-utilisation variance (latency proxy).
    pub utilization_variance: f64,
    /// Eq. 5 — average inter-layer distance (energy proxy).
    pub average_distance: f64,
}

/// A sub-sampled explored candidate (for Fig. 3's scatter cloud).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploredPoint {
    /// Eq. 3 value of the explored candidate.
    pub utilization_variance: f64,
    /// Eq. 5 value of the explored candidate.
    pub average_distance: f64,
    /// Annealing temperature at exploration time.
    pub temperature: f64,
}

/// How to pick one solution from the Pareto front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionStrategy {
    /// Minimise utilisation variance — the latency-first pick (the paper
    /// selects `S5`, its lowest-variance point, for the main evaluation).
    LatencyLeaning,
    /// Minimise average distance — the energy-first pick.
    EnergyLeaning,
    /// The knee: closest point to the normalised ideal corner.
    Knee,
    /// The paper's manual Fig. 3 pick, automated: the lowest-variance
    /// point whose average distance stays within `distance_slack`
    /// (fractional, e.g. `0.05`) of the front's minimum — "significantly
    /// reduce the latency with fairly minimal increases in energy".
    Balanced {
        /// Allowed fractional increase over the minimal average distance.
        distance_slack: f64,
    },
}

impl SelectionStrategy {
    /// The balanced pick with the default 5 % distance slack.
    #[must_use]
    pub fn balanced() -> Self {
        SelectionStrategy::Balanced {
            distance_slack: 0.05,
        }
    }
}

/// Result of an offline optimisation run.
#[derive(Debug, Clone)]
pub struct OfflineResult {
    /// Pareto archive, sorted by increasing utilisation variance.
    pub pareto: Vec<SolutionPoint>,
    /// Sub-sampled explored candidates (≈0.1 % of evaluations, as plotted
    /// in the paper's Fig. 3).
    pub explored: Vec<ExploredPoint>,
    /// Total objective evaluations performed by AMOSA.
    pub evaluations: u64,
}

impl OfflineResult {
    /// Picks a solution from the front.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty (an AMOSA run always archives at least
    /// one point, so this indicates misuse).
    #[must_use]
    pub fn select(&self, strategy: SelectionStrategy) -> &SolutionPoint {
        assert!(!self.pareto.is_empty(), "empty Pareto front");
        match strategy {
            SelectionStrategy::LatencyLeaning => self
                .pareto
                .iter()
                .min_by(|a, b| a.utilization_variance.total_cmp(&b.utilization_variance))
                .expect("non-empty"),
            SelectionStrategy::EnergyLeaning => self
                .pareto
                .iter()
                .min_by(|a, b| a.average_distance.total_cmp(&b.average_distance))
                .expect("non-empty"),
            SelectionStrategy::Balanced { distance_slack } => {
                let d_min = self
                    .pareto
                    .iter()
                    .map(|p| p.average_distance)
                    .fold(f64::INFINITY, f64::min);
                let cap = d_min * (1.0 + distance_slack.max(0.0));
                self.pareto
                    .iter()
                    .filter(|p| p.average_distance <= cap)
                    .min_by(|a, b| a.utilization_variance.total_cmp(&b.utilization_variance))
                    .unwrap_or_else(|| self.select(SelectionStrategy::EnergyLeaning))
            }
            SelectionStrategy::Knee => {
                let (v_lo, v_hi) = min_max(self.pareto.iter().map(|p| p.utilization_variance));
                let (d_lo, d_hi) = min_max(self.pareto.iter().map(|p| p.average_distance));
                let norm = |x: f64, lo: f64, hi: f64| {
                    if hi > lo {
                        (x - lo) / (hi - lo)
                    } else {
                        0.0
                    }
                };
                self.pareto
                    .iter()
                    .min_by(|a, b| {
                        let da = norm(a.utilization_variance, v_lo, v_hi)
                            + norm(a.average_distance, d_lo, d_hi);
                        let db = norm(b.utilization_variance, v_lo, v_hi)
                            + norm(b.average_distance, d_lo, d_hi);
                        da.total_cmp(&db)
                    })
                    .expect("non-empty")
            }
        }
    }

    /// Picks `k` points spread along the front (highest variance first, as
    /// the paper labels S0…S5 from worst to best latency). Returns fewer
    /// points when the front is smaller than `k`.
    #[must_use]
    pub fn spread(&self, k: usize) -> Vec<&SolutionPoint> {
        if self.pareto.is_empty() || k == 0 {
            return Vec::new();
        }
        let n = self.pareto.len();
        let count = k.min(n);
        // Evenly spaced indices over the variance-sorted front, descending
        // variance so index 0 plays the role of S0.
        (0..count)
            .map(|i| {
                let idx = if count == 1 {
                    0
                } else {
                    i * (n - 1) / (count - 1)
                };
                &self.pareto[n - 1 - idx]
            })
            .collect()
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// Cap on the explored points recorded for Fig. 3's cloud.
const EXPLORED_SAMPLES: usize = 2000;

/// Configurable offline optimiser (builder-style).
#[derive(Debug, Clone)]
pub struct OfflineOptimizer {
    mesh: Mesh3d,
    elevators: ElevatorSet,
    traffic: Option<TrafficMatrix>,
    params: AmosaParams,
}

impl OfflineOptimizer {
    /// Creates an optimiser with paper-default AMOSA parameters and the
    /// uniform-traffic assumption.
    #[must_use]
    pub fn new(mesh: Mesh3d, elevators: ElevatorSet) -> Self {
        Self {
            mesh,
            elevators,
            traffic: None,
            params: AmosaParams::paper_default(0xADE1E),
        }
    }

    /// Overrides the AMOSA schedule.
    #[must_use]
    pub fn with_params(mut self, params: AmosaParams) -> Self {
        self.params = params;
        self
    }

    /// Optimises for a known traffic matrix instead of uniform traffic.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficMatrix) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Runs AMOSA and returns the Pareto front plus exploration trace.
    #[must_use]
    pub fn optimize(&self) -> OfflineResult {
        let evaluator = match &self.traffic {
            Some(m) => ObjectiveEvaluator::with_traffic(&self.mesh, &self.elevators, m),
            None => ObjectiveEvaluator::uniform(&self.mesh, &self.elevators),
        };
        let problem = ElevatorSubsetProblem::with_evaluator(&self.mesh, &self.elevators, evaluator);
        let amosa = Amosa::new(problem, self.params.clone());

        let total = self.params.total_iterations().max(1);
        let stride = (total / EXPLORED_SAMPLES).max(1);
        let mut explored = Vec::new();
        let result = amosa.run_with_observer(|e| {
            if e.iteration % stride as u64 == 0 {
                explored.push(ExploredPoint {
                    utilization_variance: e.objectives[0],
                    average_distance: e.objectives[1],
                    temperature: e.temperature,
                });
            }
        });

        let mut pareto: Vec<SolutionPoint> = result
            .archive
            .into_iter()
            .map(|p| SolutionPoint {
                utilization_variance: p.objectives[0],
                average_distance: p.objectives[1],
                assignment: p.solution,
            })
            .collect();
        pareto.sort_by(|a, b| a.utilization_variance.total_cmp(&b.utilization_variance));
        OfflineResult {
            pareto,
            explored,
            evaluations: result.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_result() -> OfflineResult {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 1), (1, 3)]).unwrap();
        OfflineOptimizer::new(mesh, elevators)
            .with_params(AmosaParams::fast(17))
            .optimize()
    }

    #[test]
    fn produces_sorted_non_empty_front() {
        let result = quick_result();
        assert!(!result.pareto.is_empty());
        assert!(result.evaluations > 0);
        for pair in result.pareto.windows(2) {
            assert!(pair[0].utilization_variance <= pair[1].utilization_variance);
            // On a Pareto front sorted by ascending variance, distance must
            // be non-increasing... actually non-ascending variance order
            // implies descending distance for strictly non-dominated points.
            assert!(
                pair[0].average_distance >= pair[1].average_distance - 1e-12,
                "front is not non-dominated: {pair:?}"
            );
        }
    }

    #[test]
    fn beats_nearest_assignment_on_variance() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 1), (1, 3)]).unwrap();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        let (nearest_var, _) = eval.evaluate(&nearest);

        let result = OfflineOptimizer::new(mesh, elevators)
            .with_params(AmosaParams::fast(17))
            .optimize();
        let best = result.select(SelectionStrategy::LatencyLeaning);
        assert!(
            best.utilization_variance < nearest_var,
            "AMOSA ({}) must beat the nearest heuristic ({nearest_var})",
            best.utilization_variance
        );
    }

    #[test]
    fn selection_strategies_pick_extremes() {
        let result = quick_result();
        let latency = result.select(SelectionStrategy::LatencyLeaning);
        let energy = result.select(SelectionStrategy::EnergyLeaning);
        let knee = result.select(SelectionStrategy::Knee);
        assert!(latency.utilization_variance <= knee.utilization_variance + 1e-12);
        assert!(energy.average_distance <= knee.average_distance + 1e-12);
    }

    #[test]
    fn spread_spans_the_front() {
        let result = quick_result();
        let picks = result.spread(6);
        assert!(!picks.is_empty());
        assert!(picks.len() <= 6);
        // S0 has the highest variance, the last pick the lowest.
        if picks.len() >= 2 {
            assert!(picks[0].utilization_variance >= picks[picks.len() - 1].utilization_variance);
        }
    }

    #[test]
    fn explored_cloud_is_recorded() {
        let result = quick_result();
        assert!(!result.explored.is_empty());
        assert!(result.explored.len() <= 2001);
        for p in &result.explored {
            assert!(p.utilization_variance >= 0.0);
            assert!(p.average_distance > 0.0);
            assert!(p.temperature > 0.0);
        }
    }

    #[test]
    fn assignments_on_front_are_valid_for_mesh() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 1), (1, 3)]).unwrap();
        let result = OfflineOptimizer::new(mesh, elevators.clone())
            .with_params(AmosaParams::fast(5))
            .optimize();
        for point in &result.pareto {
            assert!(point.assignment.check_compatible(&mesh, &elevators).is_ok());
        }
    }
}
