//! The AMOSA problem encoding for elevator-subset search.

use crate::offline::subsets::set_bits;
use crate::offline::{ObjectiveEvaluator, SubsetAssignment};
use amosa::Problem;
use noc_topology::{ElevatorSet, Mesh3d, NodeId};
use rand::Rng;

/// Searches the space `A = {A_1, …, A_N}` of per-router elevator subsets
/// (paper Section III.B.3), minimising `(σ², AD)`.
#[derive(Debug, Clone)]
pub struct ElevatorSubsetProblem {
    evaluator: ObjectiveEvaluator,
    /// Nearest-elevator mask per router, used to seed random solutions.
    nearest_masks: Vec<u64>,
    /// Per-router mask of elevators within the locality bound
    /// ([`ElevatorSubsetProblem::DEFAULT_MAX_DETOUR`]).
    allowed_masks: Vec<u64>,
    node_count: usize,
    elevator_count: usize,
    /// Probability that a random initial subset gains each extra elevator.
    extra_probability: f64,
    /// Routers perturbed per neighbourhood move.
    moves_per_neighbour: usize,
}

impl ElevatorSubsetProblem {
    /// Builds the problem under the uniform-traffic assumption.
    #[must_use]
    pub fn new(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        Self::with_evaluator(
            mesh,
            elevators,
            ObjectiveEvaluator::uniform(mesh, elevators),
        )
    }

    /// The locality bound: an elevator may join a router's subset only
    /// if its extra source-to-elevator distance over the nearest elevator
    /// is at most this many hops. Keeps subsets physically local, matching
    /// the narrow average-distance span of the paper's Fig. 3 front.
    pub const DEFAULT_MAX_DETOUR: u32 = 4;

    /// Builds the problem over a custom evaluator (e.g. with a known
    /// traffic matrix).
    #[must_use]
    pub fn with_evaluator(
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
        evaluator: ObjectiveEvaluator,
    ) -> Self {
        let nearest = SubsetAssignment::nearest(mesh, elevators);
        let nearest_masks: Vec<u64> = mesh.node_ids().map(|id| nearest.mask(id)).collect();
        Self {
            evaluator,
            nearest_masks,
            allowed_masks: Self::locality_masks(mesh, elevators),
            node_count: mesh.node_count(),
            elevator_count: elevators.len(),
            extra_probability: 0.3,
            moves_per_neighbour: (mesh.node_count() / 32).max(1),
        }
    }

    fn locality_masks(mesh: &Mesh3d, elevators: &ElevatorSet) -> Vec<u64> {
        mesh.coords()
            .map(|c| {
                let reach =
                    elevators.xy_distance(c, elevators.nearest(c)) + Self::DEFAULT_MAX_DETOUR;
                let mut mask = 0u64;
                for (id, _) in elevators.iter() {
                    if elevators.xy_distance(c, id) <= reach {
                        mask |= 1 << id.index();
                    }
                }
                debug_assert_ne!(mask, 0);
                mask
            })
            .collect()
    }

    /// Borrow the underlying evaluator.
    #[must_use]
    pub fn evaluator(&self) -> &ObjectiveEvaluator {
        &self.evaluator
    }

    /// Mutates one router's subset with one of four moves: add an elevator,
    /// drop an elevator, swap one for another, or reset to the nearest
    /// singleton.
    fn perturb_node(&self, assignment: &mut SubsetAssignment, rng: &mut dyn rand::RngCore) {
        let node = NodeId(rng.gen_range(0..self.node_count) as u16);
        let mask = assignment.mask(node);
        let size = mask.count_ones();
        // Only elevators inside the locality bound may be added.
        let absent = self.allowed_masks[node.index()] & !mask;
        let new_mask = match rng.gen_range(0..4u8) {
            // Add.
            0 if absent != 0 => mask | draw_member(absent, rng),
            // Remove (keep non-empty).
            1 if size > 1 => mask & !draw_member(mask, rng),
            // Swap: the added elevator was absent, so it survives the removal.
            2 if absent != 0 => {
                let added = draw_member(absent, rng);
                (mask | added) & !draw_member(mask, rng)
            }
            // Reset to nearest singleton.
            3 => self.nearest_masks[node.index()],
            // Fallbacks when the chosen move is inapplicable.
            _ => {
                if size > 1 {
                    mask & !draw_member(mask, rng)
                } else {
                    mask | self.nearest_masks[node.index()]
                }
            }
        };
        debug_assert_ne!(new_mask, 0);
        assignment.set_mask(node, new_mask);
    }
}

/// One uniform draw over the members of a non-empty mask, returned as a
/// single-bit mask.
fn draw_member(members: u64, rng: &mut dyn rand::RngCore) -> u64 {
    let nth = rng.gen_range(0..members.count_ones() as usize);
    1u64 << set_bits(members).nth(nth).expect("nth < member count")
}

impl Problem for ElevatorSubsetProblem {
    type Solution = SubsetAssignment;

    fn objectives(&self) -> usize {
        2
    }

    fn random_solution(&self, rng: &mut dyn rand::RngCore) -> SubsetAssignment {
        // Seed around the nearest-elevator heuristic plus random *local*
        // extras: diverse but sane starting points.
        let masks: Vec<u64> = (0..self.node_count)
            .map(|i| {
                let mut mask = self.nearest_masks[i];
                for bit in set_bits(self.allowed_masks[i]) {
                    if rng.gen_bool(self.extra_probability) {
                        mask |= 1 << bit;
                    }
                }
                mask
            })
            .collect();
        SubsetAssignment::from_masks(masks, self.elevator_count)
            .expect("generated masks are non-empty and in range")
    }

    fn neighbour(
        &self,
        current: &SubsetAssignment,
        rng: &mut dyn rand::RngCore,
    ) -> SubsetAssignment {
        let mut next = current.clone();
        for _ in 0..self.moves_per_neighbour {
            self.perturb_node(&mut next, rng);
        }
        next
    }

    fn evaluate(&self, solution: &SubsetAssignment) -> Vec<f64> {
        let (variance, distance) = self.evaluator.evaluate(solution);
        vec![variance, distance]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 1), (1, 3)]).unwrap();
        (mesh, elevators)
    }

    #[test]
    fn random_solutions_are_valid() {
        let (mesh, elevators) = fixture();
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = problem.random_solution(&mut rng);
            assert_eq!(s.len(), 64);
            for node in mesh.node_ids() {
                assert!(s.subset_size(node) >= 1);
            }
        }
    }

    #[test]
    fn neighbours_stay_valid_over_long_walks() {
        let (mesh, elevators) = fixture();
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = problem.random_solution(&mut rng);
        for _ in 0..2000 {
            s = problem.neighbour(&s, &mut rng);
            // Invariant: all subsets non-empty, in range.
            for node in mesh.node_ids() {
                assert!(s.subset_size(node) >= 1);
                assert!(s.mask(node) < (1 << elevators.len()));
            }
        }
    }

    #[test]
    fn neighbours_actually_move() {
        let (mesh, elevators) = fixture();
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(3);
        let s = problem.random_solution(&mut rng);
        let moved = (0..20).any(|_| problem.neighbour(&s, &mut rng) != s);
        assert!(moved, "perturbation never changed the solution");
    }

    #[test]
    fn evaluate_is_the_two_paper_objectives() {
        let (mesh, elevators) = fixture();
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        let objs = problem.evaluate(&nearest);
        assert_eq!(objs.len(), 2);
        let (var, dist) = problem.evaluator().evaluate(&nearest);
        assert_eq!(objs, vec![var, dist]);
        assert_eq!(problem.objectives(), 2);
    }
}
