use crate::offline::SubsetAssignment;
use crate::online::{ElevatorSelector, SelectionContext, SourceFeedback};
use crate::{AdeleConfig, AdeleError};
use noc_topology::{Coord, ElevatorId, ElevatorMask, ElevatorSet, Mesh3d, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Eq. 9: probability of skipping elevator `k` in the enhanced round-robin,
/// given its smoothed cost `cost`, the subset's total cost `total_cost`,
/// the subset size `|A_i|`, and the exploration floor `ξ`.
///
/// A zero total cost means no congestion information yet, in which case
/// nothing is skipped. The returned probability always lies in
/// `[0, 1 − ξ]`, guaranteeing every elevator keeps a chance to refresh its
/// cost (the update-failure safeguard the paper motivates `ξ` with).
#[must_use]
pub fn skip_probability(cost: f64, total_cost: f64, subset_size: usize, xi: f64) -> f64 {
    debug_assert!(subset_size >= 1);
    if total_cost <= 0.0 {
        return 0.0;
    }
    let n = subset_size as f64;
    let relative = cost / total_cost; // Eq. 8
    if relative >= 2.0 / n {
        1.0 - xi
    } else if relative >= 1.0 / n {
        n * (relative - 1.0 / n) * (1.0 - xi)
    } else {
        0.0
    }
}

/// The candidate with the lowest **measured** per-flit pillar energy —
/// the telemetry-driven replacement for the hop-count proxy in the
/// low-traffic override. Pillars without a sample yet read as 0 nJ, so
/// they are explored first; ties (including the all-cold start) fall back
/// to the geometric detour metric, then the lowest id.
fn min_measured_energy_among(
    energy: &[f64],
    elevators: &ElevatorSet,
    src: Coord,
    dst: Coord,
    candidates: impl IntoIterator<Item = ElevatorId>,
) -> Option<ElevatorId> {
    candidates.into_iter().min_by(|&a, &b| {
        let ea = energy.get(a.index()).copied().unwrap_or(0.0);
        let eb = energy.get(b.index()).copied().unwrap_or(0.0);
        ea.total_cmp(&eb)
            .then_with(|| {
                elevators
                    .route_xy_length(src, dst, a)
                    .cmp(&elevators.route_xy_length(src, dst, b))
            })
            .then(a.cmp(&b))
    })
}

/// Per-router online state: the offline subset, smoothed costs `C_k`
/// (Eq. 7, indexed by elevator id so the minimal-path override can track
/// out-of-subset elevators too) and the round-robin pointer.
#[derive(Debug, Clone)]
struct NodeState {
    subset: Vec<ElevatorId>,
    /// `subset` minus the failed elevators, in the same order. Rebuilt
    /// when the fabric's pillar health changes, which is rare; read by
    /// every pick.
    alive: Vec<ElevatorId>,
    /// One cost per elevator of the full set; only entries for elevators
    /// this router actually uses ever move away from zero.
    costs: Vec<f64>,
    rr: usize,
    /// Whether the router is currently in minimal-path override mode
    /// (subject to the re-entry hysteresis).
    override_active: bool,
}

/// AdEle's online elevator selector (paper Section III.C).
///
/// Selection is an enhanced round-robin over the router's offline subset:
/// the next elevator in sequence is *skipped* with probability
/// [`skip_probability`] derived from its locally measured blocking cost.
/// When every subset cost is below the low-traffic threshold, the selector
/// switches to the elevator on the **minimal path** between source and
/// destination (the Section III.A notion — chosen from the full elevator
/// set) to save energy, falling back to the minimal-path elevator *within
/// the subset* if the global one is itself congested.
///
/// With [`AdeleConfig::rr_only`] the same object degenerates to the
/// "AdEle-RR" ablation of Fig. 4(d)/(h).
#[derive(Debug, Clone)]
pub struct AdeleSelector {
    config: AdeleConfig,
    nodes: Vec<NodeState>,
    /// The pillar health the `alive` lists were built for: the probe's
    /// mask as of the last pick (the fabric owns it; this only keys the
    /// rebuild).
    alive_for: ElevatorMask,
    /// Latest measured per-pillar energy sample (nJ per TSV flit), pushed
    /// by the simulator; empty until the first push.
    pillar_energy: Vec<f64>,
    rng: StdRng,
}

impl AdeleSelector {
    /// Builds a selector from an explicit subset assignment.
    ///
    /// # Errors
    ///
    /// Returns an [`AdeleError`] if the assignment does not match the mesh
    /// or elevator set, or a `config` field is out of range.
    pub fn from_assignment(
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
        assignment: &SubsetAssignment,
        config: AdeleConfig,
        seed: u64,
    ) -> Result<Self, AdeleError> {
        assignment.check_compatible(mesh, elevators)?;
        config
            .validate()
            .map_err(|reason| AdeleError::InvalidConfig { reason })?;
        let nodes = mesh
            .node_ids()
            .map(|id| {
                let subset: Vec<ElevatorId> = assignment.subset(id).collect();
                let costs = vec![0.0; elevators.len()];
                NodeState {
                    alive: subset.clone(),
                    subset,
                    costs,
                    rr: 0,
                    override_active: true,
                }
            })
            .collect();
        Ok(Self {
            config,
            nodes,
            alive_for: ElevatorMask::EMPTY,
            pillar_energy: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Current smoothed cost `C_k` of `elevator` at `node`, if the elevator
    /// exists in the set the selector was built for.
    #[must_use]
    pub fn cost(&self, node: NodeId, elevator: ElevatorId) -> Option<f64> {
        self.nodes[node.index()]
            .costs
            .get(elevator.index())
            .copied()
    }
}

/// Cycles between measured per-pillar energy pushes in measured-energy
/// mode: frequent enough to track congestion episodes, coarse enough that
/// the per-push pillar roll-up stays off the per-cycle hot path.
const MEASURED_ENERGY_PERIOD: u64 = 256;

impl ElevatorSelector for AdeleSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> ElevatorId {
        // Failed elevators (the fault-tolerance extension noted in the
        // paper's conclusion) leave every subset; a router whose whole
        // subset failed falls back to the nearest surviving elevator.
        let failed = ctx.probe.failed_elevators();
        if failed != self.alive_for {
            self.alive_for = failed;
            for state in &mut self.nodes {
                state.alive.clear();
                let survivors = state.subset.iter().filter(|&&e| !failed.contains(e));
                state.alive.extend(survivors);
            }
        }
        let state = &mut self.nodes[ctx.src_id.index()];
        let alive_subset = state.alive.as_slice();

        // Whole subset failed: fall back to the nearest surviving elevator
        // in the full set (fault-tolerance extension).
        if alive_subset.is_empty() {
            return ctx
                .elevators
                .nearest_among(
                    ctx.src,
                    ctx.elevators.ids().filter(|&e| !failed.contains(e)),
                )
                .unwrap_or_else(|| ctx.elevators.nearest(ctx.src));
        }

        // Low-traffic override: all subset costs below θ → the elevator on
        // the minimal source→destination path (Section III.A), drawn from
        // the full elevator set. If that global pick is itself congested
        // (or failed), stay energy-minimal within the subset. Re-entry
        // after a congestion episode requires costs below θ×hysteresis.
        let theta = self.config.low_traffic_threshold;
        let gate = if state.override_active {
            theta
        } else {
            theta * self.config.override_reentry_factor
        };
        state.override_active = alive_subset.iter().all(|e| state.costs[e.index()] < gate);
        if self.config.low_traffic_override && state.override_active {
            // Measured-energy mode replaces the hop-count proxy with the
            // per-pillar telemetry signal once a first sample arrived;
            // before that (and in the paper-default configuration) the
            // geometric minimal-path pick applies unchanged.
            let pillar_energy = &self.pillar_energy;
            let measured =
                self.config.measured_energy_override && pillar_energy.iter().any(|&e| e > 0.0);
            let pick = |candidates: &mut dyn Iterator<Item = ElevatorId>| {
                if measured {
                    min_measured_energy_among(
                        pillar_energy,
                        ctx.elevators,
                        ctx.src,
                        ctx.dst,
                        candidates,
                    )
                } else {
                    ctx.elevators
                        .minimal_path_among(ctx.src, ctx.dst, candidates)
                }
            };
            let global = pick(&mut ctx.elevators.ids().filter(|&e| !failed.contains(e)))
                .unwrap_or(alive_subset[0]);
            if state.costs[global.index()] < gate {
                return global;
            }
            return pick(&mut alive_subset.iter().copied()).expect("alive_subset is non-empty");
        }

        // Plain round-robin (AdEle-RR ablation).
        if !self.config.skipping_enabled {
            let pick = alive_subset[state.rr % alive_subset.len()];
            state.rr = state.rr.wrapping_add(1);
            return pick;
        }

        // Enhanced round-robin with congestion skipping (Eq. 8–9).
        let total_cost: f64 = alive_subset.iter().map(|e| state.costs[e.index()]).sum();
        let n = alive_subset.len();
        let start = state.rr % n;
        for offset in 0..n {
            let candidate = alive_subset[(start + offset) % n];
            let ps = skip_probability(
                state.costs[candidate.index()],
                total_cost,
                n,
                self.config.exploration,
            );
            if ps == 0.0 || !self.rng.gen_bool(ps) {
                state.rr = state.rr.wrapping_add(offset + 1);
                return candidate;
            }
        }
        // Every candidate was skipped this round (possible since each skip
        // is an independent draw): take the cheapest to keep making
        // progress, and advance the pointer one slot.
        state.rr = state.rr.wrapping_add(1);
        alive_subset
            .iter()
            .copied()
            .min_by(|a, b| state.costs[a.index()].total_cmp(&state.costs[b.index()]))
            .expect("non-empty")
    }

    fn on_pillar_energy(&mut self, energy: &[f64]) {
        self.pillar_energy.clear();
        self.pillar_energy.extend_from_slice(energy);
    }

    fn pillar_energy_period(&self) -> u64 {
        if self.config.measured_energy_override {
            MEASURED_ENERGY_PERIOD
        } else {
            0
        }
    }

    fn on_source_departure(&mut self, feedback: &SourceFeedback) {
        let state = &mut self.nodes[feedback.src.index()];
        let idx = feedback.elevator.index();
        if idx < state.costs.len() {
            // Eq. 7: C_k ← a·T_ek + (1−a)·C_k. Tracked for any elevator
            // this router uses, subset or minimal-path override.
            let a = self.config.ewma_alpha;
            state.costs[idx] = a * feedback.blocking_cost() + (1.0 - a) * state.costs[idx];
        }
    }

    fn name(&self) -> &'static str {
        if self.config.skipping_enabled {
            "AdEle"
        } else {
            "AdEle-RR"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::testing::FaultProbe;
    use crate::online::{NetworkProbe, ZeroProbe};
    use noc_topology::Coord;

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 0), (0, 3)]).unwrap();
        (mesh, elevators)
    }

    fn ctx<'a>(
        mesh: &Mesh3d,
        elevators: &'a ElevatorSet,
        probe: &'a dyn NetworkProbe,
        src: Coord,
        dst: Coord,
    ) -> SelectionContext<'a> {
        SelectionContext {
            src_id: mesh.node_id(src).unwrap(),
            src,
            dst_id: mesh.node_id(dst).unwrap(),
            dst,
            elevators,
            probe,
            cycle: 0,
        }
    }

    fn full_selector(config: AdeleConfig) -> (Mesh3d, ElevatorSet, AdeleSelector) {
        let (mesh, elevators) = fixture();
        let assignment = SubsetAssignment::full(&mesh, &elevators);
        let sel =
            AdeleSelector::from_assignment(&mesh, &elevators, &assignment, config, 42).unwrap();
        (mesh, elevators, sel)
    }

    #[test]
    fn skip_probability_matches_eq9() {
        let xi = 0.05;
        // |A| = 4: thresholds at 1/4 and 2/4.
        assert_eq!(skip_probability(0.0, 1.0, 4, xi), 0.0);
        assert_eq!(skip_probability(0.2, 1.0, 4, xi), 0.0); // 0.2 < 0.25
        let mid = skip_probability(0.375, 1.0, 4, xi); // halfway between
        assert!((mid - 4.0 * 0.125 * 0.95).abs() < 1e-12);
        assert_eq!(skip_probability(0.5, 1.0, 4, xi), 0.95);
        assert_eq!(skip_probability(0.9, 1.0, 4, xi), 0.95);
        // No information: never skip.
        assert_eq!(skip_probability(0.0, 0.0, 4, xi), 0.0);
        // Singleton subsets never skip (relative cost is exactly 1 < 2).
        assert_eq!(skip_probability(0.7, 0.7, 1, xi), 0.0);
    }

    #[test]
    fn measured_energy_mode_follows_the_telemetry_signal() {
        let (mesh, elevators, mut sel) = full_selector(AdeleConfig::measured_energy());
        let probe = ZeroProbe::new(mesh);
        // src (3,1,0) → dst (3,2,1): e1 at (3,0) is the minimal-path pick.
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(3, 1, 0),
            Coord::new(3, 2, 1),
        );
        // The mode asks for the telemetry push; the default config does not.
        assert_eq!(sel.pillar_energy_period(), MEASURED_ENERGY_PERIOD);
        // Cold start (no telemetry yet): behave exactly like the proxy.
        assert_eq!(sel.select(&c), ElevatorId(1));
        // Telemetry says e1 is expensive, e2 is the cheapest pillar.
        sel.on_pillar_energy(&[40.0, 90.0, 15.0]);
        assert_eq!(sel.select(&c), ElevatorId(2));
        // The same signal is ignored under the paper-default config.
        let (_, _, mut plain) = full_selector(AdeleConfig::paper_default());
        assert_eq!(plain.pillar_energy_period(), 0);
        plain.on_pillar_energy(&[40.0, 90.0, 15.0]);
        assert_eq!(plain.select(&c), ElevatorId(1));
    }

    #[test]
    fn measured_energy_mode_prefers_unmeasured_pillars_first() {
        // Pillars without a sample read as 0 nJ and win ties by geometry:
        // the selector keeps exploring them until every pillar has data.
        let (mesh, elevators, mut sel) = full_selector(AdeleConfig::measured_energy());
        let probe = ZeroProbe::new(mesh);
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(3, 1, 0),
            Coord::new(3, 2, 1),
        );
        sel.on_pillar_energy(&[40.0, 90.0, 0.0]);
        assert_eq!(sel.select(&c), ElevatorId(2), "cold pillar explored");
    }

    #[test]
    fn fresh_selector_uses_minimal_path_override() {
        let (mesh, elevators, mut sel) = full_selector(AdeleConfig::paper_default());
        let probe = ZeroProbe::new(mesh);
        // src (3,1,0) → dst (3,2,1): e1 at (3,0) is on the minimal path.
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(3, 1, 0),
            Coord::new(3, 2, 1),
        );
        assert_eq!(sel.select(&c), ElevatorId(1));
        // Deterministic: repeats identically while costs stay below θ.
        assert_eq!(sel.select(&c), ElevatorId(1));
    }

    #[test]
    fn rr_only_cycles_in_order() {
        let mut config = AdeleConfig::rr_only();
        config.low_traffic_override = false;
        let (mesh, elevators, mut sel) = full_selector(config);
        let probe = ZeroProbe::new(mesh);
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(1, 1, 0),
            Coord::new(1, 1, 1),
        );
        let picks: Vec<_> = (0..6).map(|_| sel.select(&c)).collect();
        assert_eq!(
            picks,
            vec![
                ElevatorId(0),
                ElevatorId(1),
                ElevatorId(2),
                ElevatorId(0),
                ElevatorId(1),
                ElevatorId(2)
            ]
        );
        assert_eq!(sel.name(), "AdEle-RR");
    }

    #[test]
    fn feedback_updates_cost_per_eq7() {
        let (mesh, elevators, mut sel) = full_selector(AdeleConfig::paper_default());
        let _ = elevators;
        let node = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let fb = SourceFeedback {
            src: node,
            elevator: ElevatorId(1),
            head_departure: 0,
            tail_departure: 40, // T = (40 - 20)/20 = 1.0
            packet_flits: 20,
        };
        sel.on_source_departure(&fb);
        let c1 = sel.cost(node, ElevatorId(1)).unwrap();
        assert!((c1 - 0.2).abs() < 1e-12, "C = 0.2*1.0 + 0.8*0");
        sel.on_source_departure(&fb);
        let c2 = sel.cost(node, ElevatorId(1)).unwrap();
        assert!((c2 - 0.36).abs() < 1e-12, "C = 0.2*1.0 + 0.8*0.2");
        // Other elevators untouched.
        assert_eq!(sel.cost(node, ElevatorId(0)), Some(0.0));
    }

    #[test]
    fn congested_elevator_is_skipped_more_often() {
        let (mesh, elevators, mut sel) = full_selector(AdeleConfig::paper_default());
        let probe = ZeroProbe::new(mesh);
        let src = Coord::new(1, 1, 0);
        let node = mesh.node_id(src).unwrap();
        // Make e0 look very congested, e1/e2 cheap but above threshold.
        for (e, t_tail) in [
            (ElevatorId(0), 80u64),
            (ElevatorId(1), 22),
            (ElevatorId(2), 22),
        ] {
            for _ in 0..50 {
                sel.on_source_departure(&SourceFeedback {
                    src: node,
                    elevator: e,
                    head_departure: 0,
                    tail_departure: t_tail,
                    packet_flits: 20,
                });
            }
        }
        let c = ctx(&mesh, &elevators, &probe, src, Coord::new(1, 1, 1));
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sel.select(&c).index()] += 1;
        }
        assert!(
            counts[0] * 3 < counts[1] && counts[0] * 3 < counts[2],
            "congested e0 ({counts:?}) must be picked far less often"
        );
        // ξ guarantees e0 still gets occasional picks to refresh its cost.
        assert!(
            counts[0] > 0,
            "exploration must keep selecting e0 sometimes"
        );
    }

    #[test]
    fn fault_masking_excludes_failed_elevators() {
        let mut config = AdeleConfig::paper_default();
        config.low_traffic_override = false;
        let (mesh, elevators, mut sel) = full_selector(config);
        let probe = FaultProbe::new(mesh);
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(1, 1, 0),
            Coord::new(1, 1, 1),
        );
        probe.set(ElevatorId(0), true);
        for _ in 0..100 {
            assert_ne!(sel.select(&c), ElevatorId(0));
        }
        probe.set(ElevatorId(0), false);
        let mut saw_e0 = false;
        for _ in 0..100 {
            saw_e0 |= sel.select(&c) == ElevatorId(0);
        }
        assert!(saw_e0, "repaired elevator must re-enter rotation");
    }

    #[test]
    fn all_failed_subset_falls_back_to_surviving_elevator() {
        let (mesh, elevators) = fixture();
        // Every router's subset is only e0.
        let assignment = SubsetAssignment::from_masks(vec![0b001; mesh.node_count()], 3).unwrap();
        let mut sel = AdeleSelector::from_assignment(
            &mesh,
            &elevators,
            &assignment,
            AdeleConfig::paper_default(),
            1,
        )
        .unwrap();
        let probe = FaultProbe::new(mesh);
        probe.set(ElevatorId(0), true);
        let c = ctx(
            &mesh,
            &elevators,
            &probe,
            Coord::new(0, 1, 0),
            Coord::new(0, 1, 1),
        );
        let pick = sel.select(&c);
        assert_ne!(pick, ElevatorId(0));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = || {
            let (mesh, elevators, mut sel) = full_selector(AdeleConfig::paper_default());
            let node = mesh.node_id(Coord::new(2, 2, 0)).unwrap();
            // Push costs above threshold so the stochastic path is taken.
            for e in 0..3u8 {
                sel.on_source_departure(&SourceFeedback {
                    src: node,
                    elevator: ElevatorId(e),
                    head_departure: 0,
                    tail_departure: 60,
                    packet_flits: 20,
                });
            }
            let probe = ZeroProbe::new(mesh);
            let c = ctx(
                &mesh,
                &elevators,
                &probe,
                Coord::new(2, 2, 0),
                Coord::new(2, 2, 1),
            );
            (0..50).map(|_| sel.select(&c)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mismatched_assignment_is_rejected() {
        let (mesh, elevators) = fixture();
        let bad = SubsetAssignment::from_masks(vec![1; 5], 3).unwrap();
        assert!(AdeleSelector::from_assignment(
            &mesh,
            &elevators,
            &bad,
            AdeleConfig::paper_default(),
            0
        )
        .is_err());
        // An out-of-range tuning is a named error, not a panic.
        let full = SubsetAssignment::full(&mesh, &elevators);
        let config = AdeleConfig {
            ewma_alpha: 1.5,
            ..AdeleConfig::paper_default()
        };
        let error =
            AdeleSelector::from_assignment(&mesh, &elevators, &full, config, 0).unwrap_err();
        assert!(error.to_string().contains("ewma_alpha"), "{error}");
    }
}
