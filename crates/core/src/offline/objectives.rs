//! The two offline objectives (paper Eq. 1–5).
//!
//! Building the evaluator is O(N²·E): it folds the traffic matrix into a
//! per-router weight `W_i` and per-(router, elevator) distance sums. One
//! evaluation is then a single pass over the routers that visits only the
//! *members* of each subset — O(Σ|A_i|) additions, two per member — with
//! no allocation: both objectives read the same pass and the utilisations
//! live on the stack. (Reading the per-router `W_i / |A_i|` and `1 / |A_i|`
//! factors from tables instead of dividing measured 4 % of a pass; not
//! worth an `N × E` table.) The figures' AMOSA schedule is 5 580
//! evaluations per placement.
//!
//! Every sum keeps a fixed order (routers ascending, members ascending),
//! so a candidate's objectives are the same `f64` bit patterns wherever and
//! however often they are computed.

use crate::offline::subsets::set_bits;
use crate::offline::SubsetAssignment;
use noc_topology::{Coord, ElevatorSet, Mesh3d};
use noc_traffic::TrafficMatrix;

/// The workspace-wide cap on elevator columns (subsets are `u64` masks).
const MAX_ELEVATORS: usize = 64;

/// Evaluates a [`SubsetAssignment`] against Eq. 3 (elevator-utilisation
/// variance) and Eq. 5 (average inter-layer distance).
#[derive(Debug, Clone)]
pub struct ObjectiveEvaluator {
    node_count: usize,
    elevator_count: usize,
    /// `W_i = Σ_{j : layer(j) ≠ layer(i)} f_ij` — each router's inter-layer
    /// traffic weight (the inner sum of Eq. 1).
    inter_layer_weight: Vec<f64>,
    /// `S[i][e] = Σ_{j inter-layer} f̃_ij · (d_se + d_e + d_ed)` — the
    /// weighted distance sum of Eq. 5's numerator for router `i` via
    /// elevator `e`.
    distance_sum: Vec<f64>,
    /// Eq. 5's denominator: total inter-layer traffic weight.
    total_weight: f64,
}

impl ObjectiveEvaluator {
    /// Builds the evaluator under the **uniform traffic assumption** the
    /// paper uses for its offline stage ("the most pessimistic assumption").
    #[must_use]
    pub fn uniform(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        let uniform = TrafficMatrix::uniform(mesh.node_count());
        Self::with_traffic(mesh, elevators, &uniform)
    }

    /// Builds the evaluator for a known traffic matrix (the paper's
    /// "if the traffic is known a priori" refinement).
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not cover `mesh`'s node count, or if
    /// `elevators` has more than the 64 columns a subset mask can name.
    #[must_use]
    pub fn with_traffic(mesh: &Mesh3d, elevators: &ElevatorSet, traffic: &TrafficMatrix) -> Self {
        assert_eq!(
            traffic.len(),
            mesh.node_count(),
            "traffic matrix must cover the mesh"
        );
        assert!(
            elevators.len() <= MAX_ELEVATORS,
            "subset masks name at most {MAX_ELEVATORS} elevators"
        );
        let n = mesh.node_count();
        let e_count = elevators.len();
        let mut inter_layer_weight = vec![0.0; n];
        let mut distance_sum = vec![0.0; n * e_count];
        let mut total_weight = 0.0;

        for i in mesh.node_ids() {
            let ci = mesh.coord(i);
            let row = traffic.row(i);
            let mut w_i = 0.0;
            // Per-elevator accumulators for this source.
            let dist = &mut distance_sum[i.index() * e_count..(i.index() + 1) * e_count];
            for j in mesh.node_ids() {
                let cj = mesh.coord(j);
                if ci.z == cj.z {
                    continue; // Eq. 4: same-layer pairs contribute 0.
                }
                let f = row[j.index()];
                if f == 0.0 {
                    continue;
                }
                w_i += f;
                let dz = f64::from(ci.z.abs_diff(cj.z));
                for (eid, (ex, ey)) in elevators.iter() {
                    let pillar = Coord::new(ex, ey, ci.z);
                    let d_se = f64::from(ci.xy_distance(pillar));
                    let d_ed = f64::from(Coord::new(ex, ey, cj.z).xy_distance(cj));
                    dist[eid.index()] += f * (d_se + dz + d_ed);
                }
            }
            inter_layer_weight[i.index()] = w_i;
            total_weight += w_i;
        }

        Self {
            node_count: n,
            elevator_count: e_count,
            inter_layer_weight,
            distance_sum,
            total_weight,
        }
    }

    /// Number of elevators the evaluator was built for.
    #[must_use]
    pub fn elevator_count(&self) -> usize {
        self.elevator_count
    }

    /// Number of routers the evaluator was built for.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The one pass behind every objective: Eq. 1's utilisations (entries
    /// past the elevator count stay zero) and Eq. 5's numerator. Routers
    /// ascending, members ascending — each accumulator receives its
    /// addends in that order and no other.
    fn accumulate(&self, assignment: &SubsetAssignment) -> ([f64; MAX_ELEVATORS], f64) {
        assert_eq!(
            assignment.len(),
            self.node_count,
            "assignment/mesh mismatch"
        );
        assert_eq!(
            assignment.elevator_count(),
            self.elevator_count,
            "assignment/elevator mismatch"
        );
        let e_count = self.elevator_count;
        let mut utilization = [0.0; MAX_ELEVATORS];
        let mut distance = 0.0;
        let weights = &self.inter_layer_weight;
        let sums = self.distance_sum.chunks_exact(e_count);
        for ((&mask, &weight), sums) in assignment.masks().iter().zip(weights).zip(sums) {
            let size = mask.count_ones() as f64;
            let (share, inv) = (weight / size, 1.0 / size);
            for bit in set_bits(mask) {
                utilization[usize::from(bit)] += share;
                distance += inv * sums[usize::from(bit)];
            }
        }
        (utilization, distance)
    }

    /// Eq. 1: expected utilisation `U_e` of every elevator under
    /// `assignment`, assuming round-robin (uniform) choice within each
    /// subset.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's shape disagrees with the evaluator.
    #[must_use]
    pub fn elevator_utilizations(&self, assignment: &SubsetAssignment) -> Vec<f64> {
        self.accumulate(assignment).0[..self.elevator_count].to_vec()
    }

    /// Eq. 3: variance of [`ObjectiveEvaluator::elevator_utilizations`].
    #[must_use]
    pub fn utilization_variance(&self, assignment: &SubsetAssignment) -> f64 {
        self.evaluate(assignment).0
    }

    /// Eq. 5: traffic-weighted average inter-layer route length under
    /// `assignment` (uniform choice within each subset). Under the uniform
    /// matrix this is exactly the paper's unweighted average distance.
    #[must_use]
    pub fn average_distance(&self, assignment: &SubsetAssignment) -> f64 {
        self.evaluate(assignment).1
    }

    /// Both objectives as `(utilization_variance, average_distance)`.
    #[must_use]
    pub fn evaluate(&self, assignment: &SubsetAssignment) -> (f64, f64) {
        let (utilization, distance) = self.accumulate(assignment);
        let u = &utilization[..self.elevator_count];
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        let variance = u.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / u.len() as f64;
        let distance = if self.total_weight == 0.0 {
            0.0
        } else {
            distance / self.total_weight
        };
        (variance, distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::ElevatorId;

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3), (1, 2)]).unwrap();
        (mesh, elevators)
    }

    #[test]
    fn full_subsets_have_zero_variance() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let full = SubsetAssignment::full(&mesh, &elevators);
        // Every router splits its weight equally over all elevators, so all
        // utilisations are identical.
        let variance = eval.utilization_variance(&full);
        assert!(variance < 1e-18, "variance {variance}");
    }

    #[test]
    fn nearest_subsets_have_positive_variance_with_skewed_elevators() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        // Two adjacent elevators in one corner: nearest-assignment loads
        // them very unevenly relative to a far one.
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (0, 1), (3, 3)]).unwrap();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        assert!(eval.utilization_variance(&nearest) > 0.0);
    }

    #[test]
    fn utilizations_conserve_total_weight() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        for assignment in [
            SubsetAssignment::full(&mesh, &elevators),
            SubsetAssignment::nearest(&mesh, &elevators),
        ] {
            let total: f64 = eval.elevator_utilizations(&assignment).iter().sum();
            let expected: f64 = eval.inter_layer_weight.iter().sum();
            assert!(
                (total - expected).abs() < 1e-9,
                "weight must be conserved: {total} vs {expected}"
            );
        }
    }

    #[test]
    fn uniform_inter_layer_weight_matches_closed_form() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        // Row-normalised uniform: W_i = (N - N/L) / (N - 1) = 48/63.
        let expected = 48.0 / 63.0;
        for &w in &eval.inter_layer_weight {
            assert!((w - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn average_distance_prefers_central_elevator() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (1, 2)]).unwrap();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let corner_only = SubsetAssignment::from_masks(vec![0b01; mesh.node_count()], 2).unwrap();
        let central_only = SubsetAssignment::from_masks(vec![0b10; mesh.node_count()], 2).unwrap();
        assert!(
            eval.average_distance(&central_only) < eval.average_distance(&corner_only),
            "a central elevator must yield shorter average routes"
        );
    }

    #[test]
    fn average_distance_bounded_below_by_vertical_hops() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        // Mean |Δz| over inter-layer pairs of a 4-layer stack is 20/12.
        let min_vertical = 20.0 / 12.0;
        assert!(eval.average_distance(&nearest) > min_vertical);
    }

    #[test]
    fn evaluate_returns_both_objectives() {
        let (mesh, elevators) = fixture();
        let eval = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let nearest = SubsetAssignment::nearest(&mesh, &elevators);
        let (var, dist) = eval.evaluate(&nearest);
        assert_eq!(var, eval.utilization_variance(&nearest));
        assert_eq!(dist, eval.average_distance(&nearest));
    }

    #[test]
    fn known_traffic_shifts_utilization() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (1, 1)]).unwrap();
        // All traffic flows node 0 (layer 0) -> node 7 (layer 1).
        let mut raw = vec![0.0; 64];
        raw[7] = 1.0;
        let traffic = TrafficMatrix::from_raw(8, raw);
        let eval = ObjectiveEvaluator::with_traffic(&mesh, &elevators, &traffic);
        let via_e0 = SubsetAssignment::from_masks(vec![0b01; 8], 2).unwrap();
        let u = eval.elevator_utilizations(&via_e0);
        assert!((u[ElevatorId(0).index()] - 1.0).abs() < 1e-12);
        assert_eq!(u[ElevatorId(1).index()], 0.0);
    }
}
