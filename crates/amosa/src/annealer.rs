//! The AMOSA annealing loop.

use crate::archive::{Archive, ParetoPoint};
use crate::dominance::{self, Dominance};
use crate::params::AmosaParams;
use crate::problem::Problem;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One explored candidate, passed to the observer callback.
///
/// The AdEle harness uses this to plot the explored-solution cloud of the
/// paper's Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Explored {
    /// Index of the perturbation (0-based, over the whole run).
    pub iteration: u64,
    /// Temperature at which the candidate was generated.
    pub temperature: f64,
    /// Objective vector of the candidate.
    pub objectives: Vec<f64>,
    /// Whether the candidate was accepted as the new current point.
    pub accepted: bool,
}

/// Outcome of an AMOSA run.
#[derive(Debug, Clone)]
pub struct AmosaResult<S> {
    /// The final archive (at most `HL` mutually non-dominated points).
    pub archive: Vec<ParetoPoint<S>>,
    /// Total candidate evaluations performed.
    pub evaluations: u64,
    /// Number of candidates accepted as the current point.
    pub accepted: u64,
}

/// The AMOSA optimiser: couples a [`Problem`] with [`AmosaParams`].
#[derive(Debug, Clone)]
pub struct Amosa<P: Problem> {
    problem: P,
    params: AmosaParams,
}

impl<P: Problem> Amosa<P> {
    /// Creates an optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `params` is internally inconsistent
    /// (see [`AmosaParams::validate`]).
    #[must_use]
    pub fn new(problem: P, params: AmosaParams) -> Self {
        params.validate();
        Self { problem, params }
    }

    /// Borrows the underlying problem.
    #[must_use]
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Runs the annealing schedule to completion.
    #[must_use]
    pub fn run(&self) -> AmosaResult<P::Solution> {
        self.run_with_observer(|_| {})
    }

    /// Runs the schedule, invoking `observer` for every explored candidate.
    #[must_use]
    pub fn run_with_observer(
        &self,
        mut observer: impl FnMut(&Explored),
    ) -> AmosaResult<P::Solution> {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut archive: Archive<P::Solution> = Archive::new(p.soft_limit, p.hard_limit);
        let mut evaluations = 0u64;
        let mut accepted = 0u64;

        // --- Initialisation: γ·SL random solutions, keep the front. ---
        let mut init: Vec<ParetoPoint<P::Solution>> = (0..p.initial_solutions)
            .map(|_| {
                let s = self.problem.random_solution(&mut rng);
                let objectives = self.problem.evaluate(&s);
                evaluations += 1;
                ParetoPoint {
                    solution: s,
                    objectives,
                }
            })
            .collect();
        let objective_vectors: Vec<Vec<f64>> =
            init.iter().map(|pt| pt.objectives.clone()).collect();
        let mut front = dominance::non_dominated_indices(&objective_vectors);
        front.sort_unstable_by(|a, b| b.cmp(a));
        for idx in front {
            archive.insert(init.swap_remove(idx));
        }

        // --- Current point: random archive member. ---
        let pick = rng.gen_range(0..archive.len());
        let mut current = archive.points()[pick].clone();

        // --- Annealing schedule. ---
        let mut temperature = p.t_max;
        let mut iteration = 0u64;
        while temperature >= p.t_min {
            for _ in 0..p.iterations_per_temperature {
                let candidate_solution = self.problem.neighbour(&current.solution, &mut rng);
                let candidate_obj = self.problem.evaluate(&candidate_solution);
                evaluations += 1;
                let candidate = ParetoPoint {
                    solution: candidate_solution,
                    objectives: candidate_obj,
                };

                let was_accepted =
                    self.consider(&mut archive, &mut current, candidate, temperature, &mut rng);
                accepted += u64::from(was_accepted);
                observer(&Explored {
                    iteration,
                    temperature,
                    objectives: current.objectives.clone(),
                    accepted: was_accepted,
                });
                iteration += 1;
            }
            temperature *= p.alpha;
        }

        archive.shrink_to_hard_limit();
        AmosaResult {
            archive: archive.into_points(),
            evaluations,
            accepted,
        }
    }

    /// One AMOSA acceptance decision. Returns whether `candidate` became
    /// the current point.
    fn consider(
        &self,
        archive: &mut Archive<P::Solution>,
        current: &mut ParetoPoint<P::Solution>,
        candidate: ParetoPoint<P::Solution>,
        temperature: f64,
        rng: &mut StdRng,
    ) -> bool {
        let relation = dominance::compare(&current.objectives, &candidate.objectives);
        let dominators = archive.dominators_of(&candidate.objectives);
        // Dominated by neither the current point nor the archive: always
        // accepted and archived.
        if relation != Dominance::Dominates && dominators.is_empty() {
            archive.insert(candidate.clone());
            *current = candidate;
            return true;
        }

        // Ranges over archive ∪ {current, candidate} for Δdom normalisation.
        // Minimum and maximum do not depend on folding order, so the
        // archive's cached bounds stand in for a scan of its members.
        let (lo, hi) = archive.bounds();
        let ranges: Vec<f64> = (0..candidate.objectives.len())
            .map(|i| {
                let (a, b) = (candidate.objectives[i], current.objectives[i]);
                a.max(b).max(hi[i]) - a.min(b).min(lo[i])
            })
            .collect();
        let delta = |a: &[f64], b: &[f64]| dominance::amount_of_domination(a, b, &ranges);
        let sa_accept = |avg_delta: f64, rng: &mut StdRng| {
            let prob = 1.0 / (1.0 + (avg_delta / temperature).exp());
            rng.gen_bool(prob.clamp(0.0, 1.0))
        };

        match relation {
            // Case 1: current dominates candidate — probabilistic uphill
            // move over the average Δdom of current plus any archive
            // dominators.
            Dominance::Dominates => {
                let mut total = delta(&current.objectives, &candidate.objectives);
                for &i in &dominators {
                    total += delta(&archive.points()[i].objectives, &candidate.objectives);
                }
                let avg = total / (dominators.len() as f64 + 1.0);
                if sa_accept(avg, rng) {
                    *current = candidate;
                    true
                } else {
                    false
                }
            }
            // Case 2: mutually non-dominating, dominated in the archive —
            // probabilistic move over the average Δdom of the dominators.
            Dominance::NonDominated => {
                let avg = dominators
                    .iter()
                    .map(|&i| delta(&archive.points()[i].objectives, &candidate.objectives))
                    .sum::<f64>()
                    / dominators.len() as f64;
                if sa_accept(avg, rng) {
                    *current = candidate;
                    true
                } else {
                    false
                }
            }
            // Case 3: candidate is better than current yet dominated in
            // the archive: move to the candidate with probability
            // 1/(1+exp(-Δdom_min)), else jump to the minimum-Δdom archive
            // point (per the AMOSA paper).
            Dominance::DominatedBy => {
                let (best_idx, min_delta) = dominators
                    .iter()
                    .map(|&i| {
                        (
                            i,
                            delta(&archive.points()[i].objectives, &candidate.objectives),
                        )
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("dominators is non-empty");
                let prob = 1.0 / (1.0 + (-min_delta).exp());
                if rng.gen_bool(prob.clamp(0.0, 1.0)) {
                    *current = candidate;
                    true
                } else {
                    *current = archive.points()[best_idx].clone();
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schaffer's bi-objective problem: Pareto set is x ∈ [0, 2].
    struct Schaffer;
    impl Problem for Schaffer {
        type Solution = f64;
        fn objectives(&self) -> usize {
            2
        }
        fn random_solution(&self, rng: &mut dyn rand::RngCore) -> f64 {
            rng.gen_range(-5.0..5.0)
        }
        fn neighbour(&self, x: &f64, rng: &mut dyn rand::RngCore) -> f64 {
            (x + rng.gen_range(-0.5..0.5)).clamp(-5.0, 5.0)
        }
        fn evaluate(&self, x: &f64) -> Vec<f64> {
            vec![x * x, (x - 2.0) * (x - 2.0)]
        }
    }

    #[test]
    fn schaffer_front_is_found() {
        let result = Amosa::new(Schaffer, AmosaParams::fast(42)).run();
        assert!(!result.archive.is_empty());
        assert!(result.evaluations > 0);
        for pt in &result.archive {
            assert!(
                (-0.3..=2.3).contains(&pt.solution),
                "archived x={} is far from the Pareto set [0,2]",
                pt.solution
            );
        }
    }

    #[test]
    fn archive_is_mutually_non_dominated() {
        let result = Amosa::new(Schaffer, AmosaParams::fast(7)).run();
        for (i, a) in result.archive.iter().enumerate() {
            for (j, b) in result.archive.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominance::dominates(&a.objectives, &b.objectives),
                        "archive members {i} and {j} violate non-domination"
                    );
                }
            }
        }
    }

    #[test]
    fn archive_respects_hard_limit() {
        let result = Amosa::new(Schaffer, AmosaParams::fast(3)).run();
        assert!(result.archive.len() <= AmosaParams::fast(3).hard_limit);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Amosa::new(Schaffer, AmosaParams::fast(11)).run();
        let b = Amosa::new(Schaffer, AmosaParams::fast(11)).run();
        let objs = |r: &AmosaResult<f64>| -> Vec<Vec<f64>> {
            r.archive.iter().map(|p| p.objectives.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let params = AmosaParams::fast(5);
        let expected = params.total_iterations() as u64;
        let mut count = 0u64;
        let _ = Amosa::new(Schaffer, params).run_with_observer(|e| {
            assert_eq!(e.iteration, count);
            assert_eq!(e.objectives.len(), 2);
            count += 1;
        });
        assert_eq!(count, expected);
    }

    /// A single-objective problem degenerates to plain SA and still works.
    struct Quadratic;
    impl Problem for Quadratic {
        type Solution = f64;
        fn objectives(&self) -> usize {
            1
        }
        fn random_solution(&self, rng: &mut dyn rand::RngCore) -> f64 {
            rng.gen_range(-10.0..10.0)
        }
        fn neighbour(&self, x: &f64, rng: &mut dyn rand::RngCore) -> f64 {
            x + rng.gen_range(-1.0..1.0)
        }
        fn evaluate(&self, x: &f64) -> Vec<f64> {
            vec![(x - 3.0) * (x - 3.0)]
        }
    }

    #[test]
    fn single_objective_converges_to_minimum() {
        let result = Amosa::new(Quadratic, AmosaParams::fast(13)).run();
        // Single objective: archive collapses towards the global optimum.
        let best = result
            .archive
            .iter()
            .map(|p| p.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.1, "best objective {best} should be near 0");
    }
}
