//! Synthetic SPLASH-2 / PARSEC application-traffic models.
//!
//! The paper extracts real traces with Gem5 (64-core limit, hence only
//! PS1–PS3). We cannot run Gem5, so each benchmark is modelled as a
//! parameterised stochastic process instead. Each [`AppKind`] carries:
//!
//! * an **intensity** — the relative injection rate (the paper observes
//!   canneal/fft/radix/water are high-load, fluidanimate/lu low-load);
//! * a **locality mixture** — how destinations are drawn (nearest
//!   neighbour for stencil codes, permutation for FFT's butterfly,
//!   hotspots for shared/reduction traffic, uniform otherwise);
//! * **burstiness** — an on/off modulation of the injection process.
//!
//! The models preserve the property the evaluation depends on: high-load,
//! spatially spread apps congest the few elevators and give AdEle room to
//! improve, while low-load local apps stay near zero-load latency.

use crate::injection::{InjectionProcess, OnOffParams};
use crate::pattern::{check_hotspots, BitPermutation, Pattern, Uniform};
use crate::source::{
    InjectionRequest, SyntheticParts, SyntheticTraffic, TrafficDirective, TrafficSource,
};
use noc_topology::{Coord, Mesh3d, NodeId};
use rand::Rng;

/// The six benchmarks of the paper's Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AppKind {
    /// PARSEC canneal: cache-thrashing simulated annealing; heavy,
    /// irregular, hotspot-rich traffic.
    Canneal,
    /// SPLASH-2 fft: all-to-all butterfly exchanges; heavy permutation
    /// traffic.
    Fft,
    /// PARSEC fluidanimate: particle stencil; light nearest-neighbour
    /// traffic.
    Fluidanimate,
    /// SPLASH-2 lu: blocked dense factorisation; moderate-light traffic
    /// with column broadcasts.
    Lu,
    /// SPLASH-2 radix: radix sort; heavy, bursty scatter traffic.
    Radix,
    /// SPLASH-2 water (water-nsquared): molecular dynamics; fairly heavy
    /// all-to-all interactions.
    Water,
}

impl AppKind {
    /// All benchmarks in the paper's plotting order.
    pub const ALL: [AppKind; 6] = [
        AppKind::Canneal,
        AppKind::Fft,
        AppKind::Fluidanimate,
        AppKind::Lu,
        AppKind::Radix,
        AppKind::Water,
    ];

    /// Lower-case benchmark name as the paper prints it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Canneal => "canneal",
            AppKind::Fft => "fft",
            AppKind::Fluidanimate => "fluidanimate",
            AppKind::Lu => "lu",
            AppKind::Radix => "radix",
            AppKind::Water => "water",
        }
    }

    /// The model parameters for this benchmark.
    #[must_use]
    pub fn profile(self) -> AppProfile {
        // Intensities rank the apps as the paper describes: canneal, fft,
        // radix, water high; fluidanimate, lu low.
        match self {
            AppKind::Canneal => AppProfile {
                intensity: 1.00,
                mix: LocalityMix {
                    neighbour: 0.10,
                    uniform: 0.55,
                    permutation: 0.0,
                    hotspot: 0.35,
                },
                burst: Some(OnOffParams::new(0.02, 0.01, 0.2)),
            },
            AppKind::Fft => AppProfile {
                intensity: 0.95,
                mix: LocalityMix {
                    neighbour: 0.05,
                    uniform: 0.15,
                    permutation: 0.75,
                    hotspot: 0.05,
                },
                burst: Some(OnOffParams::new(0.01, 0.02, 0.4)),
            },
            AppKind::Fluidanimate => AppProfile {
                intensity: 0.22,
                mix: LocalityMix {
                    neighbour: 0.80,
                    uniform: 0.15,
                    permutation: 0.0,
                    hotspot: 0.05,
                },
                burst: None,
            },
            AppKind::Lu => AppProfile {
                intensity: 0.30,
                mix: LocalityMix {
                    neighbour: 0.35,
                    uniform: 0.30,
                    permutation: 0.0,
                    hotspot: 0.35,
                },
                burst: None,
            },
            AppKind::Radix => AppProfile {
                intensity: 1.00,
                mix: LocalityMix {
                    neighbour: 0.05,
                    uniform: 0.50,
                    permutation: 0.35,
                    hotspot: 0.10,
                },
                burst: Some(OnOffParams::new(0.05, 0.01, 0.1)),
            },
            AppKind::Water => AppProfile {
                intensity: 0.85,
                mix: LocalityMix {
                    neighbour: 0.30,
                    uniform: 0.60,
                    permutation: 0.0,
                    hotspot: 0.10,
                },
                burst: Some(OnOffParams::new(0.01, 0.03, 0.5)),
            },
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Destination-locality mixture weights (normalised at use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityMix {
    /// Weight of nearest-neighbour traffic (Manhattan radius ≤ 2).
    pub neighbour: f64,
    /// Weight of uniform random traffic.
    pub uniform: f64,
    /// Weight of perfect-shuffle permutation traffic (butterfly phases).
    pub permutation: f64,
    /// Weight of hotspot traffic (corner "memory controllers" on layer 0).
    pub hotspot: f64,
}

impl LocalityMix {
    fn total(&self) -> f64 {
        self.neighbour + self.uniform + self.permutation + self.hotspot
    }
}

/// Full parameter set of a synthetic application model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Relative injection-rate scale (applied to the harness base rate).
    pub intensity: f64,
    /// Destination mixture.
    pub mix: LocalityMix,
    /// Optional temporal burstiness.
    pub burst: Option<OnOffParams>,
}

/// Mixture destination pattern backing [`AppTraffic`].
struct MixturePattern {
    /// The app's own mixture; `mix` is what runs (a `SetHotspots`
    /// directive re-weights it from the profile).
    profile: LocalityMix,
    mix: LocalityMix,
    uniform: Uniform,
    /// Per-node neighbourhood (nodes within Manhattan distance 2).
    neighbours: Vec<Vec<NodeId>>,
    /// Shuffle image of each node (`None` off power-of-two meshes or for
    /// fixed points).
    shuffle: Vec<Option<NodeId>>,
    hotspots: Vec<NodeId>,
    name: &'static str,
}

impl MixturePattern {
    fn new(mesh: &Mesh3d, mix: LocalityMix, name: &'static str) -> Self {
        let n = mesh.node_count();
        let neighbours: Vec<Vec<NodeId>> = mesh
            .node_ids()
            .map(|id| {
                let c = mesh.coord(id);
                mesh.node_ids()
                    .filter(|&other| other != id && mesh.coord(other).manhattan(c) <= 2)
                    .collect()
            })
            .collect();
        let shuffle: Vec<Option<NodeId>> = if n.is_power_of_two() && n >= 2 {
            let bits = n.trailing_zeros();
            (0..n)
                .map(|i| {
                    let img = BitPermutation::Shuffle.apply(i, bits);
                    (img != i).then_some(NodeId(img as u16))
                })
                .collect()
        } else {
            vec![None; n]
        };
        // "Memory controllers" at the four layer-0 corners.
        let (mx, my) = (mesh.x() as u8 - 1, mesh.y() as u8 - 1);
        let hotspots = [(0, 0), (mx, 0), (0, my), (mx, my)]
            .into_iter()
            .map(|(x, y)| mesh.node_id(Coord::new(x, y, 0)).expect("corner exists"))
            .collect();
        Self {
            profile: mix,
            mix,
            uniform: Uniform::new(n),
            neighbours,
            shuffle,
            hotspots,
            name,
        }
    }
}

impl Pattern for MixturePattern {
    fn destination(&self, src: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        let total = self.mix.total();
        debug_assert!(total > 0.0);
        let mut draw = rng.gen_range(0.0..total);
        // Component 1: nearest neighbour.
        if draw < self.mix.neighbour {
            let hood = &self.neighbours[src.index()];
            if !hood.is_empty() {
                return Some(hood[rng.gen_range(0..hood.len())]);
            }
        }
        draw -= self.mix.neighbour;
        // Component 2: permutation (falls back to uniform off-pattern).
        if draw < self.mix.permutation {
            if let Some(dst) = self.shuffle[src.index()] {
                return Some(dst);
            }
        }
        draw -= self.mix.permutation;
        // Component 3: hotspot.
        if draw < self.mix.hotspot {
            let pick = self.hotspots[rng.gen_range(0..self.hotspots.len())];
            if pick != src {
                return Some(pick);
            }
        }
        // Component 4 (and all fallbacks): uniform.
        self.uniform.destination(src, rng)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    /// Re-aims the hotspot component at `hotspots` with weight `fraction`;
    /// the profile's other components share the remaining `1 - fraction`
    /// in their original proportions.
    fn set_hotspots(&mut self, hotspots: &[NodeId], fraction: f64) -> bool {
        check_hotspots(self.neighbours.len(), hotspots, fraction);
        let rest = self.profile.total() - self.profile.hotspot;
        debug_assert!(rest > 0.0, "every app profile has non-hotspot traffic");
        let keep = (1.0 - fraction) / rest;
        self.mix = LocalityMix {
            neighbour: self.profile.neighbour * keep,
            uniform: self.profile.uniform * keep,
            permutation: self.profile.permutation * keep,
            hotspot: fraction,
        };
        self.hotspots = hotspots.to_vec();
        true
    }
}

/// A running application workload: drives [`TrafficSource`] with the
/// profile of one [`AppKind`].
///
/// It *is* a [`SyntheticTraffic`] — the app's locality mixture as the
/// pattern, its (possibly bursty) process on every node — so it polls
/// through the same kernel and honours the same directives.
#[derive(Debug)]
pub struct AppTraffic {
    kind: AppKind,
    inner: SyntheticTraffic,
    /// The exact (scaled) per-node rate; every node runs the same process.
    rate: f64,
}

impl AppTraffic {
    /// Builds the workload for `kind` on `mesh`.
    ///
    /// `base_rate` is the packets/node/cycle a nominally full-intensity app
    /// would inject; each app scales it by its profile intensity.
    #[must_use]
    pub fn new(kind: AppKind, mesh: &Mesh3d, base_rate: f64, seed: u64) -> Self {
        let profile = kind.profile();
        let rate = base_rate * profile.intensity;
        let process = match profile.burst {
            Some(params) => InjectionProcess::on_off(rate, params),
            None => InjectionProcess::bernoulli(rate),
        };
        Self {
            kind,
            inner: SyntheticTraffic::from_parts(
                SyntheticParts::new(
                    mesh,
                    Box::new(MixturePattern::new(mesh, profile.mix, kind.name())),
                    process,
                ),
                seed ^ 0xADE1E,
            ),
            rate,
        }
    }

    /// Which benchmark this workload models.
    #[must_use]
    pub fn kind(&self) -> AppKind {
        self.kind
    }
}

impl TrafficSource for AppTraffic {
    #[inline]
    fn maybe_inject(&mut self, node: NodeId, cycle: u64) -> Option<InjectionRequest> {
        self.inner.maybe_inject(node, cycle)
    }

    fn poll_cycle(&mut self, cycle: u64, nodes: usize, out: &mut Vec<(NodeId, InjectionRequest)>) {
        self.inner.poll_cycle(cycle, nodes, out);
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The exact rate, not the kernel's mean over nodes (its sum rounds).
    fn mean_rate(&self) -> Option<f64> {
        Some(self.rate.clamp(0.0, 1.0))
    }

    fn apply(&mut self, directive: &TrafficDirective) {
        if let TrafficDirective::ScaleRate { factor } = directive {
            self.rate *= factor;
        }
        self.inner.apply(directive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh3d {
        Mesh3d::new(4, 4, 4).unwrap()
    }

    #[test]
    fn intensity_ranking_matches_paper() {
        let high = [
            AppKind::Canneal,
            AppKind::Fft,
            AppKind::Radix,
            AppKind::Water,
        ];
        let low = [AppKind::Fluidanimate, AppKind::Lu];
        for h in high {
            for l in low {
                assert!(
                    h.profile().intensity > l.profile().intensity,
                    "{h} must out-inject {l}"
                );
            }
        }
    }

    #[test]
    fn all_apps_produce_valid_traffic() {
        let mesh = mesh();
        for kind in AppKind::ALL {
            let mut app = AppTraffic::new(kind, &mesh, 0.05, 9);
            let mut injected = 0;
            for cycle in 0..2000 {
                for node in mesh.node_ids() {
                    if let Some(req) = app.maybe_inject(node, cycle) {
                        assert_ne!(req.dst, node, "{kind}: self-addressed packet");
                        assert!(req.dst.index() < mesh.node_count());
                        assert!((10..=30).contains(&req.flits));
                        injected += 1;
                    }
                }
            }
            assert!(injected > 0, "{kind} never injected");
        }
    }

    #[test]
    fn measured_rates_follow_intensity() {
        let mesh = mesh();
        let measure = |kind: AppKind| {
            let mut app = AppTraffic::new(kind, &mesh, 0.05, 4);
            let cycles = 6000u64;
            let mut injected = 0usize;
            for cycle in 0..cycles {
                for node in mesh.node_ids() {
                    if app.maybe_inject(node, cycle).is_some() {
                        injected += 1;
                    }
                }
            }
            injected as f64 / (cycles as f64 * mesh.node_count() as f64)
        };
        let canneal = measure(AppKind::Canneal);
        let fluid = measure(AppKind::Fluidanimate);
        assert!(
            canneal > 2.5 * fluid,
            "canneal ({canneal}) must clearly out-inject fluidanimate ({fluid})"
        );
    }

    #[test]
    fn fluidanimate_is_mostly_local() {
        let mesh = mesh();
        let mut app = AppTraffic::new(AppKind::Fluidanimate, &mesh, 0.2, 6);
        let mut local = 0usize;
        let mut total = 0usize;
        for cycle in 0..4000 {
            for node in mesh.node_ids() {
                if let Some(req) = app.maybe_inject(node, cycle) {
                    total += 1;
                    if mesh.coord(node).manhattan(mesh.coord(req.dst)) <= 2 {
                        local += 1;
                    }
                }
            }
        }
        assert!(total > 100);
        let frac = local as f64 / total as f64;
        assert!(
            frac > 0.6,
            "local fraction {frac} too low for a stencil app"
        );
    }

    /// Injections over `cycles` whole-mesh polls.
    fn count(app: &mut AppTraffic, mesh: &Mesh3d, cycles: u64) -> f64 {
        let mut polled = Vec::new();
        for cycle in 0..cycles {
            app.poll_cycle(cycle, mesh.node_count(), &mut polled);
        }
        polled.len() as f64
    }

    /// Standard deviation of the injection count of `node_cycles` polls of
    /// a Markov-modulated Bernoulli process: the Bernoulli variance plus
    /// the phase covariance `2·Var(rate)·Σₖ ρᵏ`, `ρ = 1 − on_to_off −
    /// off_to_on` being the phase autocorrelation.
    fn count_sigma(rate: f64, burst: OnOffParams, node_cycles: f64) -> f64 {
        let s_on = burst.stationary_on();
        let swing = rate * (burst.on_scale() - burst.off_scale);
        let rho = 1.0 - burst.on_to_off - burst.off_to_on;
        let per_poll =
            rate * (1.0 - rate) + 2.0 * s_on * (1.0 - s_on) * swing * swing * rho / (1.0 - rho);
        (node_cycles * per_poll).sqrt()
    }

    #[test]
    fn scale_rate_burst_triples_the_offered_load_and_its_inverse_restores_it() {
        let mesh = mesh();
        let burst = AppKind::Canneal.profile().burst.expect("canneal is bursty");
        let (rate, cycles) = (0.01, 20_000);
        let polls = cycles as f64 * mesh.node_count() as f64;
        let (calm, hot) = (
            count_sigma(rate, burst, polls),
            count_sigma(3.0 * rate, burst, polls),
        );
        let mut app = AppTraffic::new(AppKind::Canneal, &mesh, rate, 12);
        let before = count(&mut app, &mesh, cycles);
        assert!(
            (before - rate * polls).abs() < 5.0 * calm,
            "baseline {before}"
        );

        app.apply(&TrafficDirective::ScaleRate { factor: 3.0 });
        assert!((app.mean_rate().unwrap() - 3.0 * rate).abs() < 1e-15);
        let during = count(&mut app, &mesh, cycles);
        assert!(
            (during - 3.0 * rate * polls).abs() < 5.0 * hot,
            "a x3 burst must triple the offered load: {before} -> {during}"
        );

        app.apply(&TrafficDirective::ScaleRate { factor: 1.0 / 3.0 });
        assert!((app.mean_rate().unwrap() - rate).abs() < 1e-15);
        let after = count(&mut app, &mesh, cycles);
        assert!(
            (after - rate * polls).abs() < 5.0 * calm,
            "the inverse must restore the pre-burst load: {before} -> {after}"
        );
        assert_eq!(app.name(), "canneal");
    }

    #[test]
    fn set_hotspots_re_aims_the_mixture() {
        let mesh = mesh();
        let hot = NodeId(21);
        let mut app = AppTraffic::new(AppKind::Fluidanimate, &mesh, 0.2, 3);
        app.apply(&TrafficDirective::SetHotspots {
            hotspots: vec![hot],
            fraction: 1.0,
        });
        assert_eq!(app.name(), "fluidanimate", "the app keeps its name");
        let mut polled = Vec::new();
        for cycle in 0..200 {
            app.poll_cycle(cycle, mesh.node_count(), &mut polled);
        }
        assert!(polled.len() > 100);
        for (node, req) in polled {
            assert!(
                node == hot || req.dst == hot,
                "fraction 1 targets the hotspot"
            );
        }
        // A partial re-aim keeps the rest of the locality mixture.
        app.apply(&TrafficDirective::SetHotspots {
            hotspots: vec![hot],
            fraction: 0.25,
        });
        let mut polled = Vec::new();
        for cycle in 200..2_200 {
            app.poll_cycle(cycle, mesh.node_count(), &mut polled);
        }
        let to_hot = polled.iter().filter(|(_, req)| req.dst == hot).count() as f64;
        let share = to_hot / polled.len() as f64;
        assert!((0.2..0.32).contains(&share), "hotspot share {share}");
    }

    #[test]
    fn profiles_mixtures_are_positive() {
        for kind in AppKind::ALL {
            let p = kind.profile();
            assert!(
                p.mix.total() > 0.99 && p.mix.total() < 1.01,
                "{kind} mixture sums to 1"
            );
            assert!(p.intensity > 0.0 && p.intensity <= 1.0);
        }
    }
}
