//! Property tests for the AdEle core: Eq. 8–9 skip-probability bounds,
//! EWMA cost behaviour, objective sanity, and subset validity under the
//! AMOSA search moves — plus the bit-identity of the offline stage against
//! the straightforward forms it replaced ([`reference`]) and pins of what
//! it produced before they were replaced.

use adele::offline::{
    ElevatorSubsetProblem, ObjectiveEvaluator, OfflineOptimizer, SelectionStrategy,
    SubsetAssignment,
};
use adele::online::{
    skip_probability, AdeleSelector, CdaSelector, ElevatorFirstSelector, ElevatorSelector,
    NetworkProbe, SelectionContext, SourceFeedback,
};
use adele::AdeleConfig;
use amosa::{AmosaParams, Problem};
use noc_topology::placement::Placement;
use noc_topology::{Coord, ElevatorId, ElevatorMask, ElevatorSet, Mesh3d, NodeId};
use noc_traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngCore, SeedableRng};

/// The offline stage as first written: every subset walk tests all 64 bit
/// positions, each objective makes its own pass and allocates, and the
/// search moves collect `present` / `absent` lists. Kept as the oracle the
/// fast forms must match bit for bit and draw for draw.
mod reference {
    use super::*;
    use noc_topology::Coord;
    use rand::Rng;

    pub fn subset(assignment: &SubsetAssignment, node: NodeId) -> Vec<ElevatorId> {
        let mask = assignment.mask(node);
        (0..64u8)
            .filter(|&bit| mask & (1u64 << bit) != 0)
            .map(ElevatorId)
            .collect()
    }

    /// Eq. 3 and Eq. 5, with `W_i` and `S[i][e]` rebuilt from the traffic
    /// matrix in the evaluator's summation order.
    pub fn evaluate(
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
        traffic: &TrafficMatrix,
        assignment: &SubsetAssignment,
    ) -> (f64, f64) {
        let e_count = elevators.len();
        let mut inter_layer_weight = vec![0.0; mesh.node_count()];
        let mut distance_sum = vec![0.0; mesh.node_count() * e_count];
        let mut total_weight = 0.0;
        for i in mesh.node_ids() {
            let ci = mesh.coord(i);
            let row = traffic.row(i);
            let mut w_i = 0.0;
            let mut dist = vec![0.0; e_count];
            for j in mesh.node_ids() {
                let cj = mesh.coord(j);
                let f = row[j.index()];
                if ci.z == cj.z || f == 0.0 {
                    continue;
                }
                w_i += f;
                let dz = f64::from(ci.z.abs_diff(cj.z));
                for (eid, (ex, ey)) in elevators.iter() {
                    let d_se = f64::from(ci.xy_distance(Coord::new(ex, ey, ci.z)));
                    let d_ed = f64::from(Coord::new(ex, ey, cj.z).xy_distance(cj));
                    dist[eid.index()] += f * (d_se + dz + d_ed);
                }
            }
            inter_layer_weight[i.index()] = w_i;
            total_weight += w_i;
            distance_sum[i.index() * e_count..(i.index() + 1) * e_count].copy_from_slice(&dist);
        }

        let mut utilization = vec![0.0; e_count];
        for node in mesh.node_ids() {
            let share = inter_layer_weight[node.index()] / assignment.subset_size(node) as f64;
            for e in subset(assignment, node) {
                utilization[e.index()] += share;
            }
        }
        let mean = utilization.iter().sum::<f64>() / utilization.len() as f64;
        let variance = utilization
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / utilization.len() as f64;

        if total_weight == 0.0 {
            return (variance, 0.0);
        }
        let mut total = 0.0;
        for node in mesh.node_ids() {
            let inv = 1.0 / assignment.subset_size(node) as f64;
            let row = &distance_sum[node.index() * e_count..(node.index() + 1) * e_count];
            for e in subset(assignment, node) {
                total += inv * row[e.index()];
            }
        }
        (variance, total / total_weight)
    }

    /// The search moves of [`ElevatorSubsetProblem`] at its default
    /// locality bound, extra-elevator probability and moves per neighbour.
    pub struct Moves {
        nearest: Vec<u64>,
        allowed: Vec<u64>,
        elevator_count: usize,
    }

    impl Moves {
        pub fn new(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
            let nearest = mesh
                .coords()
                .map(|c| 1u64 << elevators.nearest(c).index())
                .collect();
            let allowed = mesh
                .coords()
                .map(|c| {
                    let bound = elevators.xy_distance(c, elevators.nearest(c))
                        + ElevatorSubsetProblem::DEFAULT_MAX_DETOUR;
                    elevators
                        .ids()
                        .filter(|&id| elevators.xy_distance(c, id) <= bound)
                        .fold(0u64, |mask, id| mask | 1 << id.index())
                })
                .collect();
            Self {
                nearest,
                allowed,
                elevator_count: elevators.len(),
            }
        }

        pub fn random_solution(&self, rng: &mut dyn RngCore) -> Vec<u64> {
            (0..self.nearest.len())
                .map(|i| {
                    let mut mask = self.nearest[i];
                    for bit in 0..self.elevator_count as u8 {
                        if self.allowed[i] & (1 << bit) != 0 && rng.gen_bool(0.3) {
                            mask |= 1 << bit;
                        }
                    }
                    mask
                })
                .collect()
        }

        pub fn neighbour(&self, current: &[u64], rng: &mut dyn RngCore) -> Vec<u64> {
            let mut next = current.to_vec();
            for _ in 0..(next.len() / 32).max(1) {
                let node = rng.gen_range(0..next.len());
                next[node] = self.perturbed(node, next[node], rng);
            }
            next
        }

        fn perturbed(&self, node: usize, mask: u64, rng: &mut dyn RngCore) -> u64 {
            let size = mask.count_ones();
            let present: Vec<u8> = (0..self.elevator_count as u8)
                .filter(|&b| mask & (1 << b) != 0)
                .collect();
            let absent: Vec<u8> = (0..self.elevator_count as u8)
                .filter(|&b| mask & (1 << b) == 0 && self.allowed[node] & (1 << b) != 0)
                .collect();
            match rng.gen_range(0..4u8) {
                0 if !absent.is_empty() => mask | (1 << absent[rng.gen_range(0..absent.len())]),
                1 if size > 1 => mask & !(1 << present[rng.gen_range(0..present.len())]),
                2 if !absent.is_empty() => {
                    let added = 1u64 << absent[rng.gen_range(0..absent.len())];
                    let removed = 1u64 << present[rng.gen_range(0..present.len())];
                    (mask | added) & !removed | added
                }
                3 => self.nearest[node],
                _ if size > 1 => mask & !(1 << present[rng.gen_range(0..present.len())]),
                _ => mask | self.nearest[node],
            }
        }
    }
}

fn arb_topology() -> impl Strategy<Value = (Mesh3d, ElevatorSet)> {
    (2usize..=5, 2usize..=5, 2usize..=4).prop_flat_map(|(x, y, z)| {
        let mesh = Mesh3d::new(x, y, z).unwrap();
        prop::collection::hash_set((0..x as u8, 0..y as u8), 1..=4).prop_map(move |cols| {
            let set = ElevatorSet::new(&mesh, cols).unwrap();
            (mesh, set)
        })
    })
}

proptest! {
    /// Eq. 9 output is always a probability in [0, 1-ξ].
    #[test]
    fn skip_probability_is_bounded(
        cost in 0.0f64..100.0,
        total in 0.0f64..400.0,
        size in 1usize..16,
        xi in 0.0f64..0.5,
    ) {
        let ps = skip_probability(cost, total, size, xi);
        prop_assert!(ps >= 0.0, "PS {ps} negative");
        prop_assert!(ps <= 1.0 - xi + 1e-12, "PS {ps} exceeds 1-xi");
    }

    /// Eq. 9 is monotone in the relative cost.
    #[test]
    fn skip_probability_is_monotone(
        total in 0.1f64..100.0,
        size in 1usize..10,
        xi in 0.0f64..0.4,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ps_lo = skip_probability(lo * total, total, size, xi);
        let ps_hi = skip_probability(hi * total, total, size, xi);
        prop_assert!(ps_lo <= ps_hi + 1e-12);
    }

    /// Objectives are finite and non-negative for arbitrary valid
    /// assignments; full subsets always have zero variance under uniform
    /// traffic.
    #[test]
    fn objectives_are_sane((mesh, elevators) in arb_topology(), seed in 0u64..100) {
        let evaluator = ObjectiveEvaluator::uniform(&mesh, &elevators);
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = problem.random_solution(&mut rng);
        let (variance, distance) = evaluator.evaluate(&assignment);
        prop_assert!(variance.is_finite() && variance >= 0.0);
        prop_assert!(distance.is_finite() && distance >= 0.0);
        if mesh.layers() > 1 {
            prop_assert!(distance >= 1.0, "inter-layer routes need >= 1 hop");
        }

        let full = SubsetAssignment::full(&mesh, &elevators);
        prop_assert!(evaluator.utilization_variance(&full) < 1e-15);
    }

    /// The AMOSA neighbourhood never produces an invalid assignment, even
    /// over long random walks.
    #[test]
    fn search_moves_preserve_validity(
        (mesh, elevators) in arb_topology(),
        seed in 0u64..100,
        steps in 1usize..300,
    ) {
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = problem.random_solution(&mut rng);
        for _ in 0..steps {
            s = problem.neighbour(&s, &mut rng);
        }
        prop_assert!(s.check_compatible(&mesh, &elevators).is_ok());
        for node in mesh.node_ids() {
            prop_assert!(s.subset_size(node) >= 1);
        }
    }

    /// Cost EWMA stays within the convex hull of observed samples:
    /// clamped blocking costs are non-negative and bounded by the largest
    /// observed T, so costs are too.
    #[test]
    fn feedback_costs_stay_bounded(
        (mesh, elevators) in arb_topology(),
        spreads in prop::collection::vec(0u64..500, 1..40),
        seed in 0u64..50,
    ) {
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        let mut selector = AdeleSelector::from_assignment(
            &mesh,
            &elevators,
            &assignment,
            adele::AdeleConfig::paper_default(),
            seed,
        ).unwrap();
        let node = NodeId(0);
        let elevator = ElevatorId(0);
        let flits = 20u16;
        let mut max_t: f64 = 0.0;
        for spread in spreads {
            let fb = SourceFeedback {
                src: node,
                elevator,
                head_departure: 100,
                tail_departure: 100 + spread,
                packet_flits: flits,
            };
            max_t = max_t.max(fb.blocking_cost());
            selector.on_source_departure(&fb);
            let cost = selector.cost(node, elevator).unwrap();
            prop_assert!(cost >= 0.0);
            prop_assert!(cost <= max_t + 1e-12, "cost {cost} exceeds max sample {max_t}");
        }
    }

    /// The JSON text form round-trips arbitrary valid assignments.
    #[test]
    fn assignment_text_round_trip((mesh, elevators) in arb_topology(), seed in 0u64..100) {
        let problem = ElevatorSubsetProblem::new(&mesh, &elevators);
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = problem.random_solution(&mut rng);
        let text = serde_json::to_string(&assignment).unwrap();
        prop_assert_eq!(serde_json::from_str::<SubsetAssignment>(&text).unwrap(), assignment);
    }
}

/// An idle fabric whose failed pillars are `failed`.
struct FaultProbe {
    mesh: Mesh3d,
    failed: ElevatorMask,
}

impl NetworkProbe for FaultProbe {
    fn buffer_occupancy(&self, _node: NodeId) -> u32 {
        0
    }

    fn buffer_capacity_per_router(&self) -> u32 {
        56
    }

    fn node_at(&self, coord: Coord) -> NodeId {
        self.mesh.node_id(coord).unwrap()
    }

    fn failed_elevators(&self) -> ElevatorMask {
        self.failed
    }
}

proptest! {
    /// Pillar health is the probe's: over random masks, no selector picks
    /// a failed pillar while any survives — AdEle neither on its
    /// minimal-path override nor in its (skipping) round-robin over a
    /// random subset, fed random blocking feedback.
    #[test]
    fn no_selector_picks_a_failed_pillar_while_any_survives(
        (mesh, elevators) in arb_topology(),
        bits in 0u64..u64::MAX,
        seed in 0u64..100,
    ) {
        let mut failed = ElevatorMask::EMPTY;
        for e in elevators.ids() {
            failed.set(e, (bits >> e.index()) & 1 == 1);
        }
        let survives = elevators.ids().any(|e| !failed.contains(e));
        let probe = FaultProbe { mesh, failed };
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = ElevatorSubsetProblem::new(&mesh, &elevators).random_solution(&mut rng);
        let round_robin = AdeleConfig {
            low_traffic_override: false,
            ..AdeleConfig::paper_default()
        };
        let adele = |config| {
            AdeleSelector::from_assignment(&mesh, &elevators, &assignment, config, seed).unwrap()
        };
        let mut selectors: Vec<Box<dyn ElevatorSelector>> = vec![
            Box::new(ElevatorFirstSelector::new(&mesh, &elevators)),
            Box::new(CdaSelector::new()),
            Box::new(adele(AdeleConfig::paper_default())),
            Box::new(adele(round_robin)),
        ];
        let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
        for _ in 0..32 {
            let src = mesh.coord(NodeId(draw(mesh.node_count()) as u16));
            let dz = 1 + draw(mesh.layers() - 1) as u8;
            let dst = Coord::new(
                draw(mesh.x()) as u8,
                draw(mesh.y()) as u8,
                (src.z + dz) % mesh.layers() as u8,
            );
            let ctx = SelectionContext {
                src_id: probe.node_at(src),
                src,
                dst_id: probe.node_at(dst),
                dst,
                elevators: &elevators,
                probe: &probe,
                cycle: 0,
            };
            let spread = draw(100) as u64;
            for selector in &mut selectors {
                let pick = selector.select(&ctx);
                prop_assert!(
                    !(survives && failed.contains(pick)),
                    "{} picked failed pillar {pick} (failed {:b})",
                    selector.name(),
                    failed.bits()
                );
                selector.on_source_departure(&SourceFeedback {
                    src: ctx.src_id,
                    elevator: pick,
                    head_departure: 0,
                    tail_departure: spread,
                    packet_flits: 10,
                });
            }
        }
    }
}

/// A random valid assignment over `e_count` elevators: dense, sparse and
/// singleton masks mixed.
fn random_assignment(rng: &mut StdRng, nodes: usize, e_count: usize) -> SubsetAssignment {
    let valid = if e_count == 64 {
        u64::MAX
    } else {
        (1u64 << e_count) - 1
    };
    let masks = (0..nodes)
        .map(|_| {
            let dense = rng.next_u64();
            let mask = match rng.next_u64() % 3 {
                0 => dense,
                1 => dense & rng.next_u64() & rng.next_u64(),
                _ => 0,
            } & valid;
            mask | 1 << (rng.next_u64() % e_count as u64)
        })
        .collect();
    SubsetAssignment::from_masks(masks, e_count).unwrap()
}

/// A random traffic matrix in which about a third of the routers never
/// transmit (all-zero rows) and a quarter of the remaining flows are zero.
fn random_traffic(rng: &mut StdRng, n: usize) -> TrafficMatrix {
    let mut raw = vec![0.0; n * n];
    for row in raw.chunks_exact_mut(n) {
        if rng.next_u64().is_multiple_of(3) {
            continue;
        }
        for f in row {
            if !rng.next_u64().is_multiple_of(4) {
                *f = (rng.next_u64() % 1000) as f64;
            }
        }
    }
    TrafficMatrix::from_raw(n, raw)
}

/// Asserts that the fused evaluator agrees with [`reference::evaluate`]
/// to the bit on `rounds` random assignments, through every public entry.
fn assert_evaluator_matches_reference(
    mesh: &Mesh3d,
    elevators: &ElevatorSet,
    traffic: &TrafficMatrix,
    rng: &mut StdRng,
    rounds: usize,
) {
    let evaluator = ObjectiveEvaluator::with_traffic(mesh, elevators, traffic);
    for _ in 0..rounds {
        let assignment = random_assignment(rng, mesh.node_count(), elevators.len());
        let (variance, distance) = reference::evaluate(mesh, elevators, traffic, &assignment);
        let expected = (variance.to_bits(), distance.to_bits());
        let (v, d) = evaluator.evaluate(&assignment);
        assert_eq!((v.to_bits(), d.to_bits()), expected, "evaluate");
        let separately = (
            evaluator.utilization_variance(&assignment).to_bits(),
            evaluator.average_distance(&assignment).to_bits(),
        );
        assert_eq!(separately, expected, "single-objective entries");
        assert_eq!(
            evaluator.elevator_utilizations(&assignment).len(),
            elevators.len()
        );
    }
}

/// Asserts that the problem's search moves and [`reference::Moves`] turn
/// equal-seeded generators into equal masks and leave them at the same
/// next draw, over one random solution and `steps` neighbour moves.
fn assert_moves_match_reference(mesh: &Mesh3d, elevators: &ElevatorSet, seed: u64, steps: usize) {
    let problem = ElevatorSubsetProblem::new(mesh, elevators);
    let moves = reference::Moves::new(mesh, elevators);
    let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let mut solution = problem.random_solution(&mut rng);
    let mut masks = moves.random_solution(&mut reference_rng);
    for step in 0..=steps {
        let got: Vec<u64> = mesh.node_ids().map(|id| solution.mask(id)).collect();
        assert_eq!(got, masks, "masks after {step} moves");
        assert_eq!(
            rng.clone().next_u64(),
            reference_rng.clone().next_u64(),
            "next draw after {step} moves"
        );
        solution = problem.neighbour(&solution, &mut rng);
        masks = moves.neighbour(&masks, &mut reference_rng);
    }
}

/// One elevator (`E = 1`) and all 64 of an 8×8 layer (`E = 64`, so
/// elevator 63 and the full-width mask are in play).
fn extreme_topologies() -> [(Mesh3d, ElevatorSet); 2] {
    let small = Mesh3d::new(3, 2, 3).unwrap();
    let one = ElevatorSet::new(&small, [(1, 1)]).unwrap();
    let wide = Mesh3d::new(8, 8, 2).unwrap();
    let columns: Vec<(u8, u8)> = wide.layer_coords(0).map(|c| (c.x, c.y)).collect();
    let all = ElevatorSet::new(&wide, columns).unwrap();
    [(small, one), (wide, all)]
}

proptest! {
    /// The one-pass evaluator returns the reference's `f64`s bit for bit,
    /// under uniform traffic and under matrices with silent routers.
    #[test]
    fn fused_evaluate_equals_reference_bitwise(
        (mesh, elevators) in arb_topology(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let traffic = if seed.is_multiple_of(2) {
            TrafficMatrix::uniform(mesh.node_count())
        } else {
            random_traffic(&mut rng, mesh.node_count())
        };
        assert_evaluator_matches_reference(&mesh, &elevators, &traffic, &mut rng, 4);
    }

    /// `subset()` walks set bits only, yet yields what testing every bit
    /// position yields, in ascending order.
    #[test]
    fn subset_is_ascending_and_equals_the_filter(masks in prop::collection::vec(0u64..u64::MAX, 1..20)) {
        let masks: Vec<u64> = masks.into_iter().map(|m| m + 1).collect();
        let assignment = SubsetAssignment::from_masks(masks, 64).unwrap();
        for node in (0..assignment.len()).map(|i| NodeId(i as u16)) {
            let subset: Vec<ElevatorId> = assignment.subset(node).collect();
            prop_assert!(subset.windows(2).all(|pair| pair[0] < pair[1]));
            prop_assert_eq!(subset, reference::subset(&assignment, node));
        }
    }

    /// The set-bit search moves consume the generator exactly as the
    /// list-building ones did.
    #[test]
    fn search_moves_match_reference_draw_for_draw(
        (mesh, elevators) in arb_topology(),
        seed in 0u64..1_000_000,
        steps in 1usize..80,
    ) {
        assert_moves_match_reference(&mesh, &elevators, seed, steps);
    }
}

#[test]
fn fused_evaluate_equals_reference_at_the_elevator_count_extremes() {
    let mut rng = StdRng::seed_from_u64(0xE1E);
    for (mesh, elevators) in extreme_topologies() {
        let n = mesh.node_count();
        let silent = TrafficMatrix::from_raw(n, vec![0.0; n * n]);
        let weighted = random_traffic(&mut rng, n);
        for traffic in [TrafficMatrix::uniform(n), weighted, silent] {
            assert_evaluator_matches_reference(&mesh, &elevators, &traffic, &mut rng, 6);
        }
    }
}

#[test]
fn search_moves_match_reference_at_the_elevator_count_extremes_and_on_pm() {
    let [one, all] = extreme_topologies();
    for (mesh, elevators) in [one, all, Placement::Pm.instantiate()] {
        for seed in 0..4 {
            assert_moves_match_reference(&mesh, &elevators, seed, 200);
        }
    }
}

/// FNV-1a, to pin a whole assignment's text form in one word.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The schedule every `repro` figure and the repo benchmark run.
fn figures_schedule() -> AmosaParams {
    AmosaParams {
        hard_limit: 60,
        soft_limit: 120,
        t_max: 100.0,
        t_min: 1e-3,
        alpha: 0.88,
        iterations_per_temperature: 60,
        initial_solutions: 120,
        seed: 0xADE1E,
    }
}

/// The balanced pick of every named placement, recorded at the last commit
/// whose offline stage tested all 64 bit positions per router, scored
/// trial placements from scratch and re-scanned the archive per candidate:
/// `fnv1a(to_text())` under the figures' schedule and under
/// `AmosaParams::fast`, which spend 5 580 and 970 evaluations. The search,
/// the objectives and the placements must keep producing exactly these
/// (one changed bit in one objective value re-routes the annealing).
#[test]
fn balanced_pick_is_pinned_on_every_placement() {
    let schedules = [
        (figures_schedule(), 5580),
        (AmosaParams::fast(0xADE1E), 970),
    ];
    let pins = [
        (Placement::Ps1, [0xc051130177fc2e31, 0x2de44f45ab135a1e]),
        (Placement::Ps2, [0x6a196f5f665aeef2, 0xd57240ce70321b33]),
        (Placement::Ps3, [0x5d4a6c9f96a14a72, 0xe59b6a3dead0e860]),
        (Placement::Pm, [0x23a27ea15266227b, 0x93016c82754aba7b]),
    ];
    for (placement, texts) in pins {
        let (mesh, elevators) = placement.instantiate();
        for ((params, evaluations), text) in schedules.iter().cloned().zip(texts) {
            let result = OfflineOptimizer::new(mesh, elevators.clone())
                .with_params(params)
                .optimize();
            let pick = result.select(SelectionStrategy::balanced());
            let got = (result.evaluations, fnv1a(&pick.assignment.to_text()));
            assert_eq!(got, (evaluations, text), "{placement}: {got:#x?}");
        }
    }
}
