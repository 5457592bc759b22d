use crate::injection::{InjectionProcess, PacketSizeRange};
use crate::pattern::{retarget_hotspots, BitPermutation, Hotspot, Pattern, Permutation, Uniform};
use noc_topology::{Mesh3d, NodeId};
use rand::{rngs::StdRng, SeedableRng};

/// A packet the traffic source wants injected at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRequest {
    /// Destination router.
    pub dst: NodeId,
    /// Packet length in flits (head + body + tail).
    pub flits: u16,
}

/// A mid-run steering command for a workload.
///
/// Scenario engines deliver these through the simulator's event-hook API
/// (injection bursts, hotspot shifts) while a run is in flight. Sources
/// that cannot honour a directive simply ignore it.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficDirective {
    /// Multiply every node's injection rate by `factor` (clamped to a
    /// probability). `factor > 1` models a burst, `< 1` a lull.
    ScaleRate {
        /// Non-negative rate multiplier.
        factor: f64,
    },
    /// Re-aim the spatial pattern: from now on a `fraction` of packets
    /// target the given hotspot nodes, the rest stay uniform. A pattern
    /// with a hotspot component of its own re-aims that instead
    /// ([`Pattern::set_hotspots`]), on either generator.
    SetHotspots {
        /// The new hotspot destinations.
        hotspots: Vec<NodeId>,
        /// Probability that a packet targets a hotspot.
        fraction: f64,
    },
}

/// A workload: asked once per node per cycle whether that node injects.
///
/// The simulator drives this interface for synthetic patterns and
/// application models alike.
pub trait TrafficSource: Send {
    /// Returns the packet injected by `node` at `cycle`, if any.
    ///
    /// The simulator guarantees it calls this exactly once per node per
    /// cycle, in increasing cycle order; sources may rely on that to
    /// advance internal state.
    fn maybe_inject(&mut self, node: NodeId, cycle: u64) -> Option<InjectionRequest>;

    /// Polls nodes `0..nodes` for `cycle`, appending `(node, request)` to
    /// `out` in node order: one whole cycle of the
    /// [`maybe_inject`](Self::maybe_inject) contract in a single call,
    /// which is what the simulator drives. An override must leave the
    /// same injections and the same internal state as this per-node loop.
    fn poll_cycle(&mut self, cycle: u64, nodes: usize, out: &mut Vec<(NodeId, InjectionRequest)>) {
        for node in (0..nodes).map(|i| NodeId(i as u16)) {
            out.extend(
                self.maybe_inject(node, cycle)
                    .map(|request| (node, request)),
            );
        }
    }

    /// Workload name for experiment output.
    fn name(&self) -> &'static str;

    /// The long-run average packet injection rate per node per cycle, if
    /// known (used by harnesses to label sweeps).
    fn mean_rate(&self) -> Option<f64> {
        None
    }

    /// Applies a mid-run [`TrafficDirective`]. Default: ignored (sources
    /// without a notion of rate or hotspots).
    fn apply(&mut self, directive: &TrafficDirective) {
        let _ = directive;
    }
}

/// What a synthetic workload offers, before a generator draws it: spatial
/// [`Pattern`] × the [`InjectionProcess`] every node runs (each in its own
/// phase) × [`PacketSizeRange`].
/// [`SyntheticTraffic::from_parts`] polls it (the `v1` stream),
/// [`BatchedSynthetic::from_parts`](crate::BatchedSynthetic::from_parts)
/// skip-samples it (`v2`) — the named workloads exist once, here.
pub struct SyntheticParts {
    /// Destination pattern.
    pub pattern: Box<dyn Pattern>,
    /// The temporal process of every node; each node keeps its own burst
    /// phase, starting from this one's.
    pub process: InjectionProcess,
    /// Nodes that run it.
    pub nodes: usize,
    /// Packet-size distribution.
    pub sizes: PacketSizeRange,
}

impl SyntheticParts {
    /// `process` on every node of `mesh`, paper-default packet sizes.
    #[must_use]
    pub fn new(mesh: &Mesh3d, pattern: Box<dyn Pattern>, process: InjectionProcess) -> Self {
        Self {
            pattern,
            process,
            nodes: mesh.node_count(),
            sizes: PacketSizeRange::paper_default(),
        }
    }

    /// Uniform traffic at `rate` packets/node/cycle.
    #[must_use]
    pub fn uniform(mesh: &Mesh3d, rate: f64) -> Self {
        let pattern = Uniform::new(mesh.node_count());
        Self::new(mesh, Box::new(pattern), InjectionProcess::bernoulli(rate))
    }

    /// Perfect-shuffle traffic at `rate` (the paper's second synthetic
    /// pattern).
    ///
    /// # Panics
    ///
    /// Panics if the mesh's node count is not a power of two.
    #[must_use]
    pub fn shuffle(mesh: &Mesh3d, rate: f64) -> Self {
        let pattern = Permutation::new(BitPermutation::Shuffle, mesh.node_count());
        Self::new(mesh, Box::new(pattern), InjectionProcess::bernoulli(rate))
    }

    /// Hotspot traffic at `rate`: a `fraction` of packets target the
    /// given hotspot nodes, the rest stay uniform.
    ///
    /// # Panics
    ///
    /// Panics if `hotspots` is empty or `fraction` is not a probability.
    #[must_use]
    pub fn hotspot(mesh: &Mesh3d, rate: f64, hotspots: Vec<NodeId>, fraction: f64) -> Self {
        let pattern = Hotspot::new(mesh.node_count(), hotspots, fraction);
        Self::new(mesh, Box::new(pattern), InjectionProcess::bernoulli(rate))
    }
}

/// The polled generator of a synthetic workload — the kernel of the `v1`
/// stream: a poll steps the node's phase of the shared process (integer
/// [`Coin`](crate::injection::Coin)s) on the concrete generator; only an
/// actual injection pays the `dyn` [`Pattern`] draw.
pub struct SyntheticTraffic {
    pattern: Box<dyn Pattern>,
    process: InjectionProcess,
    /// Each node's burst phase (true = ON).
    phases: Vec<bool>,
    sizes: PacketSizeRange,
    rng: StdRng,
}

impl std::fmt::Debug for SyntheticTraffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticTraffic")
            .field("pattern", &self.pattern.name())
            .field("nodes", &self.phases.len())
            .field("sizes", &self.sizes)
            .finish()
    }
}

impl SyntheticTraffic {
    /// Polls `parts` on one RNG stream seeded with `seed`.
    #[must_use]
    pub fn from_parts(parts: SyntheticParts, seed: u64) -> Self {
        Self {
            pattern: parts.pattern,
            phases: vec![parts.process.on; parts.nodes],
            process: parts.process,
            sizes: parts.sizes,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// [`SyntheticParts::uniform`], polled.
    #[must_use]
    pub fn uniform(mesh: &Mesh3d, rate: f64, seed: u64) -> Self {
        Self::from_parts(SyntheticParts::uniform(mesh, rate), seed)
    }

    /// The spatial half of an injection at `node`: destination, then size
    /// (a pattern may decline — a permutation's fixed point — which draws
    /// no size).
    #[inline]
    fn request(&mut self, node: NodeId) -> Option<InjectionRequest> {
        let dst = self.pattern.destination(node, &mut self.rng)?;
        Some(InjectionRequest {
            dst,
            flits: self.sizes.sample(&mut self.rng),
        })
    }
}

impl TrafficSource for SyntheticTraffic {
    #[inline]
    fn maybe_inject(&mut self, node: NodeId, _cycle: u64) -> Option<InjectionRequest> {
        let on = &mut self.phases[node.index()];
        if !self.process.step_phase(on, &mut self.rng) {
            return None;
        }
        self.request(node)
    }

    /// The default loop, minus `maybe_inject`'s `Option` round-trip per
    /// node (measured ≈ 20 % of a 16×16×8 poll).
    fn poll_cycle(&mut self, _cycle: u64, nodes: usize, out: &mut Vec<(NodeId, InjectionRequest)>) {
        assert!(nodes <= self.phases.len(), "polled past the workload");
        for i in 0..nodes {
            if self.process.step_phase(&mut self.phases[i], &mut self.rng) {
                let node = NodeId(i as u16);
                out.extend(self.request(node).map(|request| (node, request)));
            }
        }
    }

    fn name(&self) -> &'static str {
        self.pattern.name()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.process.mean_rate_over(self.phases.len())
    }

    fn apply(&mut self, directive: &TrafficDirective) {
        match directive {
            TrafficDirective::ScaleRate { factor } => self.process.scale_rate(*factor),
            TrafficDirective::SetHotspots { hotspots, fraction } => {
                let n = self.phases.len();
                retarget_hotspots(&mut self.pattern, n, hotspots, *fraction);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_workload_injects_near_rate() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let mut t = SyntheticTraffic::uniform(&mesh, 0.05, 11);
        let cycles = 5000u64;
        let mut injected = 0usize;
        for cycle in 0..cycles {
            for node in mesh.node_ids() {
                if let Some(req) = t.maybe_inject(node, cycle) {
                    assert!((10..=30).contains(&req.flits));
                    injected += 1;
                }
            }
        }
        let per_node = injected as f64 / (cycles as f64 * 64.0);
        assert!((0.045..0.055).contains(&per_node), "rate {per_node}");
        assert!((t.mean_rate().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn shuffle_workload_uses_fixed_destinations() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let mut t = SyntheticTraffic::from_parts(SyntheticParts::shuffle(&mesh, 1.0), 5);
        // Node 1 always maps to 2 under rotate-left on 6 bits.
        for cycle in 0..50 {
            let req = t.maybe_inject(NodeId(1), cycle).unwrap();
            assert_eq!(req.dst, NodeId(2));
        }
        // Fixed point 0 never injects even at rate 1.
        for cycle in 0..50 {
            assert!(t.maybe_inject(NodeId(0), cycle).is_none());
        }
        assert_eq!(t.name(), "shuffle");
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut a = SyntheticTraffic::uniform(&mesh, 0.2, 42);
        let mut b = SyntheticTraffic::uniform(&mesh, 0.2, 42);
        for cycle in 0..200 {
            for node in mesh.node_ids() {
                assert_eq!(a.maybe_inject(node, cycle), b.maybe_inject(node, cycle));
            }
        }
    }

    #[test]
    fn scale_rate_directive_changes_offered_load() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut t = SyntheticTraffic::uniform(&mesh, 0.02, 7);
        t.apply(&TrafficDirective::ScaleRate { factor: 3.0 });
        assert!((t.mean_rate().unwrap() - 0.06).abs() < 1e-12);
        t.apply(&TrafficDirective::ScaleRate { factor: 0.0 });
        assert_eq!(t.mean_rate(), Some(0.0));
        for cycle in 0..100 {
            for node in mesh.node_ids() {
                assert!(t.maybe_inject(node, cycle).is_none());
            }
        }
    }

    #[test]
    fn hotspot_directive_redirects_destinations() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let hot = NodeId(9);
        let mut t = SyntheticTraffic::uniform(&mesh, 1.0, 7);
        t.apply(&TrafficDirective::SetHotspots {
            hotspots: vec![hot],
            fraction: 1.0,
        });
        assert_eq!(t.name(), "hotspot");
        for cycle in 0..50 {
            let req = t.maybe_inject(NodeId(0), cycle).expect("rate 1 injects");
            assert_eq!(req.dst, hot, "fraction 1 sends everything to the hotspot");
        }
    }
}
