//! Event-driven batched injection: sources that *schedule* their next
//! injection instead of being polled every node every cycle.
//!
//! The classic [`TrafficSource`] contract costs one
//! RNG draw per node per cycle — even as an integer compare per draw (see
//! [`crate::injection`]), on a 16×16×8 mesh that scan is the per-cycle
//! floor of an otherwise idle simulation. A [`ScheduledSource`] instead
//! *skip-samples* each node's next injection cycle directly:
//!
//! * a Bernoulli process at rate `p` has geometrically distributed
//!   inter-arrival gaps, so [`geometric_skip`] jumps straight to the next
//!   success with a single draw;
//! * an on/off bursty process is sampled *phase-aware*: the dwell time in
//!   each Markov phase is itself geometric, and emissions within a phase
//!   are a fixed-rate Bernoulli, so both layers skip-sample.
//!
//! Idle nodes therefore consume **zero** RNG draws and zero vtable calls
//! between injections. The price is a different RNG stream: a batched
//! source is *statistically* equivalent to its per-cycle twin (identical
//! support and inter-arrival distribution), not bit-identical, which is
//! why experiment specs select it through an explicit [`StreamVersion`]
//! instead of a silent swap.
//!
//! [`ScheduledSource`] is the one workload type the simulator accepts.
//! Both generators of a synthetic workload are built from the same
//! [`SyntheticParts`] ([`BatchedSynthetic::from_parts`] here,
//! [`SyntheticTraffic::from_parts`](crate::SyntheticTraffic::from_parts)
//! polled), and every polled [`TrafficSource`] — the `v1` synthetic
//! stream, and the application models, which have no batched generator
//! yet — is composed in front of it by [`CyclePolled`], the adapter that
//! drives a polled source one cycle at a time.

use crate::injection::{InjectionProcess, PacketSizeRange};
use crate::pattern::{retarget_hotspots, Pattern};
use crate::source::{InjectionRequest, SyntheticParts, TrafficDirective, TrafficSource};
use noc_topology::{Mesh3d, NodeId};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel cycle for "this node never injects" (rate zero).
pub const NEVER: u64 = u64::MAX;

/// Which injection-stream generation a workload runs on.
///
/// `v1` is the original per-node-per-cycle polled stream — bit-identical
/// across releases and the stream every checked-in baseline was recorded
/// on. `v2` is the event-driven batched stream introduced by the
/// injection scheduler: statistically equivalent offered load, several
/// times faster at low rates, but a *different* RNG stream — results are
/// comparable across streams only in distribution, never bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamVersion {
    /// The original polled Bernoulli stream (default; bit-stable).
    #[default]
    V1,
    /// The batched skip-sampling stream (fast; statistically equivalent).
    V2,
}

impl StreamVersion {
    /// The lowercase spec-file spelling (`"v1"` / `"v2"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StreamVersion::V1 => "v1",
            StreamVersion::V2 => "v2",
        }
    }
}

impl std::fmt::Display for StreamVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for StreamVersion {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "v1" => Ok(StreamVersion::V1),
            "v2" => Ok(StreamVersion::V2),
            other => Err(format!("unknown workload stream {other:?} (want v1 or v2)")),
        }
    }
}

impl serde::Serialize for StreamVersion {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl serde::Deserialize for StreamVersion {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::String(s) = value else {
            return Err(serde::DeError::expected("a stream version string", value));
        };
        s.parse().map_err(serde::DeError)
    }
}

/// One injection the source has scheduled: `node` injects `request` at
/// `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledInjection {
    /// The cycle the packet enters the source queue.
    pub cycle: u64,
    /// The injecting router.
    pub node: NodeId,
    /// Destination and size.
    pub request: InjectionRequest,
}

/// A workload that hands the simulator batches of future injections
/// instead of answering a per-node-per-cycle poll.
///
/// # Contract
///
/// * [`next_injections`](Self::next_injections) is called with
///   non-decreasing `up_to` values and returns every injection in
///   `(last up_to, up_to]`, sorted by `(cycle, node)`. The very first call
///   covers `[0, up_to]`.
/// * [`apply`](Self::apply) delivers a mid-run [`TrafficDirective`]
///   effective at cycle `now`: the source must discard and resample every
///   injection it had scheduled at cycles `>= now` (for memoryless
///   processes resampling from `now` preserves the injection
///   distribution exactly), and subsequent `next_injections` calls cover
///   `[now, up_to]` again.
/// * [`horizon`](Self::horizon) caps how far ahead a caller may ask in
///   one batch; adapters over polled sources return 1 because a polled
///   source cannot re-emit cycles it has already drawn.
pub trait ScheduledSource: Send {
    /// Returns the injections scheduled up to and including `up_to`.
    fn next_injections(&mut self, up_to: u64) -> &[ScheduledInjection];

    /// Workload name for experiment output.
    fn name(&self) -> &'static str;

    /// The long-run average packet injection rate per node per cycle, if
    /// known.
    fn mean_rate(&self) -> Option<f64> {
        None
    }

    /// Applies a mid-run [`TrafficDirective`] effective at cycle `now`,
    /// resampling the schedule from `now` on.
    fn apply(&mut self, directive: &TrafficDirective, now: u64);

    /// Largest batch (in cycles) a caller may request at once.
    fn horizon(&self) -> u64 {
        64
    }
}

/// Samples the number of Bernoulli(`p`) failures before the first success
/// with a single RNG draw (a Geometric(p) variate on `{0, 1, 2, …}`).
///
/// This is the skip-sampling primitive: a per-cycle process injecting
/// with probability `p` has its next injection exactly `geometric_skip`
/// cycles ahead. Edge cases: `p >= 1` always returns 0 (inject every
/// cycle); `p <= 0` returns [`NEVER`] (no injection, ever). Callers pass
/// rates already clamped to `[0, 1]`; out-of-range inputs saturate the
/// same way.
pub fn geometric_skip<R: RngCore + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    if p <= 0.0 {
        return NEVER;
    }
    // u is uniform in [0, 1); ln(1-u) ∈ (-∞, 0] and ln(1-p) < 0, so the
    // ratio is the standard inverse-CDF geometric sample. `ln_1p` keeps
    // precision at the tiny rates NoC sweeps live at, and the float→int
    // cast saturates, so astronomical gaps become NEVER instead of UB.
    let u: f64 = rng.gen_range(0.0..1.0);
    ((-u).ln_1p() / (-p).ln_1p()) as u64
}

/// Per-node scheduling state: an independent RNG stream (so firing order
/// never couples nodes), the node's phase of the shared temporal process
/// (whose one record of rate and burst parameters scales with
/// [`InjectionProcess::scale_rate`]'s lossless-burst semantics) and the
/// skip-sampler's position in it.
#[derive(Debug, Clone)]
struct NodeState {
    rng: StdRng,
    /// Cycle at which a bursty process flips phase next (flips happen
    /// before emission, matching the polled process's
    /// transition-then-emit order).
    seg_end: u64,
    /// The next injection cycle.
    next: u64,
    /// Current phase (true = ON).
    on: bool,
}

// A node costs the batched stream at most 56 bytes.
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<NodeState>() <= 56);

impl NodeState {
    /// Draws the initial phase boundary, matching the polled process's
    /// start state: the node has been in its initial phase "since before
    /// cycle 0" and flip opportunities begin *at* cycle 0 — so the first
    /// flip lands at `Geometric(flip)` cycles (possibly 0), not
    /// unconditionally at 0. Without this, every node would
    /// deterministically invert its phase at cycle 0 and a short
    /// measurement window would see the wrong (synchronised) burst state.
    fn prime(&mut self, process: &InjectionProcess) {
        if let Some(params) = process.burst {
            let flip = if self.on {
                params.on_to_off
            } else {
                params.off_to_on
            };
            self.seg_end = geometric_skip(&mut self.rng, flip);
        }
    }

    /// Samples the node's next injection cycle under `process` at or after
    /// `from`.
    fn sample_next(&mut self, process: &InjectionProcess, from: u64) -> u64 {
        let Self {
            rng, seg_end, on, ..
        } = self;
        let rate = process.rate;
        let Some(params) = process.burst else {
            return from.saturating_add(geometric_skip(rng, rate.clamp(0.0, 1.0)));
        };
        if rate <= 0.0 {
            return NEVER;
        }
        let mut t = from;
        loop {
            // Catch the phase machine up to t: at `seg_end` the phase
            // flips, and the *next* flip opportunity is the cycle after
            // entry (dwell = 1 + Geometric(flip)).
            while *seg_end <= t {
                let entered = *seg_end;
                *on = !*on;
                let flip = if *on {
                    params.on_to_off
                } else {
                    params.off_to_on
                };
                *seg_end = entered
                    .saturating_add(1)
                    .saturating_add(geometric_skip(rng, flip));
            }
            // Within the phase the emission is plain Bernoulli at the
            // phase-scaled rate: skip-sample it, and fall through to the
            // next phase when the candidate lands past the flip.
            let scale = if *on {
                params.on_scale()
            } else {
                params.off_scale
            };
            let p = (rate * scale).clamp(0.0, 1.0);
            let candidate = t.saturating_add(geometric_skip(rng, p));
            if candidate < *seg_end {
                return candidate;
            }
            t = *seg_end;
        }
    }
}

/// SplitMix-style stream derivation: one master seed fans out into
/// decorrelated sub-stream seeds without coupling their streams. Used
/// here for per-node RNG streams and by the scenario layer for
/// per-component workload seeds — one mixer, so the two can never drift.
#[must_use]
pub fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The batched generator of a synthetic workload: the same
/// [`SyntheticParts`] as [`SyntheticTraffic`](crate::SyntheticTraffic),
/// but the temporal half skip-samples each node's next injection cycle
/// instead of being polled. Statistically equivalent to the polled source
/// (same support, same inter-arrival distribution, same mean rate), on a
/// different — still fully deterministic — RNG stream.
pub struct BatchedSynthetic {
    pattern: Box<dyn Pattern>,
    /// The temporal process every node runs.
    process: InjectionProcess,
    nodes: Vec<NodeState>,
    sizes: PacketSizeRange,
    /// The pending-injection calendar: one `(next cycle, node)` entry per
    /// node that will ever inject again, popped in `(cycle, node)` order.
    calendar: BinaryHeap<Reverse<(u64, u16)>>,
    /// Batch output buffer, reused across calls.
    out: Vec<ScheduledInjection>,
}

impl std::fmt::Debug for BatchedSynthetic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSynthetic")
            .field("pattern", &self.pattern.name())
            .field("nodes", &self.nodes.len())
            .field("sizes", &self.sizes)
            .finish()
    }
}

impl BatchedSynthetic {
    /// Skip-samples `parts`; every node gets its own RNG stream derived
    /// from `seed`.
    #[must_use]
    pub fn from_parts(parts: SyntheticParts, seed: u64) -> Self {
        let process = parts.process;
        let mut nodes: Vec<NodeState> = (0..parts.nodes)
            .map(|i| NodeState {
                rng: StdRng::seed_from_u64(derive_stream_seed(seed, i as u64)),
                seg_end: 0,
                next: NEVER,
                on: process.on,
            })
            .collect();
        for state in &mut nodes {
            state.prime(&process);
            state.next = state.sample_next(&process, 0);
        }
        let calendar = Self::rebuild_calendar(&nodes);
        Self {
            pattern: parts.pattern,
            process,
            nodes,
            sizes: parts.sizes,
            calendar,
            out: Vec::new(),
        }
    }

    fn rebuild_calendar(nodes: &[NodeState]) -> BinaryHeap<Reverse<(u64, u16)>> {
        nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.next != NEVER)
            .map(|(i, s)| Reverse((s.next, i as u16)))
            .collect()
    }

    /// [`SyntheticParts::uniform`], batched.
    #[must_use]
    pub fn uniform(mesh: &Mesh3d, rate: f64, seed: u64) -> Self {
        Self::from_parts(SyntheticParts::uniform(mesh, rate), seed)
    }
}

impl ScheduledSource for BatchedSynthetic {
    fn next_injections(&mut self, up_to: u64) -> &[ScheduledInjection] {
        self.out.clear();
        while let Some(&Reverse((cycle, node))) = self.calendar.peek() {
            if cycle > up_to {
                break;
            }
            self.calendar.pop();
            let state = &mut self.nodes[node as usize];
            debug_assert_eq!(state.next, cycle, "calendar out of sync");
            // Fire: destination and size come from the node's own stream.
            // A pattern may decline (e.g. a shuffle fixed point) — the
            // opportunity is still consumed, exactly like the polled
            // source's success-then-no-destination path.
            let node_id = NodeId(node);
            if let Some(dst) = self.pattern.destination(node_id, &mut state.rng) {
                self.out.push(ScheduledInjection {
                    cycle,
                    node: node_id,
                    request: InjectionRequest {
                        dst,
                        flits: self.sizes.sample(&mut state.rng),
                    },
                });
            }
            state.next = state.sample_next(&self.process, cycle + 1);
            if state.next != NEVER {
                self.calendar.push(Reverse((state.next, node)));
            }
        }
        &self.out
    }

    fn name(&self) -> &'static str {
        self.pattern.name()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.process.mean_rate_over(self.nodes.len())
    }

    fn apply(&mut self, directive: &TrafficDirective, now: u64) {
        match directive {
            TrafficDirective::ScaleRate { factor } => self.process.scale_rate(*factor),
            TrafficDirective::SetHotspots { hotspots, fraction } => {
                let n = self.nodes.len();
                retarget_hotspots(&mut self.pattern, n, hotspots, *fraction);
            }
        }
        // Any directive invalidates the schedule (callers may have
        // prefetched and flushed cycles >= now): resample every node's
        // next injection from `now`. The processes are memoryless within
        // a phase, so conditioning on "nothing fired before now" is a
        // fresh sample — the injection distribution is preserved exactly.
        for state in &mut self.nodes {
            state.next = state.sample_next(&self.process, now);
        }
        self.calendar = Self::rebuild_calendar(&self.nodes);
    }
}

/// Adapter driving any polled [`TrafficSource`] behind the
/// [`ScheduledSource`] interface, one cycle at a time.
///
/// This is how every polled workload — the `v1` synthetic stream and the
/// application models — reaches the simulator's
/// injection scheduler: each requested cycle is one [`poll_cycle`] of the
/// wrapped source, the full per-node poll the source was promised at
/// whatever its `poll_cycle` costs (one pass over the coins, the per-node
/// loop otherwise). Its [`horizon`] is 1 because a polled source cannot
/// rewind past cycles it has already drawn, so callers must not prefetch
/// across a directive.
///
/// [`poll_cycle`]: TrafficSource::poll_cycle
/// [`horizon`]: ScheduledSource::horizon
pub struct CyclePolled {
    inner: Box<dyn TrafficSource>,
    node_count: usize,
    cursor: u64,
    /// One cycle's poll, reused across cycles.
    polled: Vec<(NodeId, InjectionRequest)>,
    out: Vec<ScheduledInjection>,
}

impl std::fmt::Debug for CyclePolled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CyclePolled")
            .field("inner", &self.inner.name())
            .field("nodes", &self.node_count)
            .finish()
    }
}

impl CyclePolled {
    /// Wraps `inner`, polling `node_count` nodes per cycle.
    #[must_use]
    pub fn new(inner: Box<dyn TrafficSource>, node_count: usize) -> Self {
        Self {
            inner,
            node_count,
            cursor: 0,
            polled: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl ScheduledSource for CyclePolled {
    fn next_injections(&mut self, up_to: u64) -> &[ScheduledInjection] {
        self.out.clear();
        for cycle in self.cursor..=up_to {
            self.polled.clear();
            self.inner
                .poll_cycle(cycle, self.node_count, &mut self.polled);
            self.out.extend(
                self.polled
                    .iter()
                    .map(|&(node, request)| ScheduledInjection {
                        cycle,
                        node,
                        request,
                    }),
            );
        }
        self.cursor = up_to + 1;
        &self.out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mean_rate(&self) -> Option<f64> {
        self.inner.mean_rate()
    }

    fn apply(&mut self, directive: &TrafficDirective, now: u64) {
        debug_assert!(
            self.cursor >= now,
            "a horizon-1 adapter is never asked to rewind"
        );
        self.inner.apply(directive);
    }

    fn horizon(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::OnOffParams;
    use crate::pattern::Uniform;
    use crate::SyntheticTraffic;

    fn drain(source: &mut dyn ScheduledSource, cycles: u64) -> Vec<ScheduledInjection> {
        let mut all = Vec::new();
        let mut at = 0;
        while at < cycles {
            let up_to = (at + 63).min(cycles - 1);
            all.extend_from_slice(source.next_injections(up_to));
            at = up_to + 1;
        }
        all
    }

    #[test]
    fn batched_uniform_matches_offered_load() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let mut t = BatchedSynthetic::uniform(&mesh, 0.05, 11);
        let cycles = 5_000;
        let all = drain(&mut t, cycles);
        for inj in &all {
            assert!((10..=30).contains(&inj.request.flits));
            assert!(inj.request.dst != inj.node);
        }
        let per_node = all.len() as f64 / (cycles as f64 * 64.0);
        assert!((0.045..0.055).contains(&per_node), "rate {per_node}");
        assert!((t.mean_rate().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn batches_are_sorted_and_deterministic() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut a = BatchedSynthetic::uniform(&mesh, 0.1, 7);
        let mut b = BatchedSynthetic::uniform(&mesh, 0.1, 7);
        let (ia, ib) = (drain(&mut a, 2_000), drain(&mut b, 2_000));
        assert_eq!(ia, ib);
        assert!(ia
            .windows(2)
            .all(|w| (w[0].cycle, w[0].node.0) < (w[1].cycle, w[1].node.0)));
    }

    #[test]
    fn batch_boundaries_do_not_change_the_stream() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut a = BatchedSynthetic::uniform(&mesh, 0.03, 9);
        let mut b = BatchedSynthetic::uniform(&mesh, 0.03, 9);
        let mut one_shot = Vec::new();
        one_shot.extend_from_slice(a.next_injections(1_999));
        assert_eq!(drain(&mut b, 2_000), one_shot);
    }

    #[test]
    fn zero_rate_schedules_nothing() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut t = BatchedSynthetic::uniform(&mesh, 0.0, 3);
        assert!(t.next_injections(100_000).is_empty());
        assert_eq!(t.mean_rate(), Some(0.0));
    }

    #[test]
    fn rate_one_fires_every_node_every_cycle() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut t = BatchedSynthetic::uniform(&mesh, 1.0, 3);
        let all = drain(&mut t, 50);
        assert_eq!(all.len(), 50 * 32, "every node injects every cycle");
    }

    #[test]
    fn shuffle_fixed_points_stay_silent() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let mut t = BatchedSynthetic::from_parts(SyntheticParts::shuffle(&mesh, 1.0), 5);
        let all = drain(&mut t, 50);
        assert!(all.iter().all(|inj| inj.node != NodeId(0)));
        assert!(all
            .iter()
            .filter(|inj| inj.node == NodeId(1))
            .all(|inj| inj.request.dst == NodeId(2)));
    }

    #[test]
    fn bursty_initial_phase_matches_the_polled_twin() {
        // Regression: the batched process must start the way the polled
        // one does — in the ON phase, with the first flip *opportunity*
        // (not a guaranteed flip) at cycle 0. A deterministic cycle-0
        // inversion would put every node in OFF for ~1/off_to_on cycles
        // and a short window would measure a fraction of the v1 load.
        // A 50-cycle window, well inside the mean ON dwell (1/0.02 = 50
        // cycles): an ON start injects ≈ rate·on_scale per node-cycle
        // (≈ 475 here, flips included), an inverted OFF start — whose
        // mean dwell is 200 cycles — only ≈ rate·off_scale (≈ 16). A
        // threshold of 150 separates the regimes by ~3× on either side.
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let params = OnOffParams::new(0.02, 0.005, 0.1);
        let (rate, window) = (0.05, 50u64);
        let parts = || {
            let uniform = Box::new(Uniform::new(mesh.node_count()));
            SyntheticParts::new(&mesh, uniform, InjectionProcess::on_off(rate, params))
        };
        let mut v1 = SyntheticTraffic::from_parts(parts(), 17);
        let mut v1_count = 0usize;
        for cycle in 0..window {
            for node in mesh.node_ids() {
                v1_count += usize::from(v1.maybe_inject(node, cycle).is_some());
            }
        }
        let mut v2 = BatchedSynthetic::from_parts(parts(), 17);
        let v2_count = drain(&mut v2, window).len();
        for (what, count) in [("v1", v1_count), ("v2", v2_count)] {
            assert!(
                count > 150,
                "{what} injected only {count} in the first {window} cycles — \
                 the burst process did not start in its ON phase"
            );
        }
    }

    #[test]
    fn bursty_preserves_mean_rate() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let params = OnOffParams::new(0.02, 0.005, 0.1);
        let uniform = Box::new(Uniform::new(mesh.node_count()));
        let parts = SyntheticParts::new(&mesh, uniform, InjectionProcess::on_off(0.05, params));
        let mut t = BatchedSynthetic::from_parts(parts, 13);
        let cycles = 40_000;
        let all = drain(&mut t, cycles);
        let per_node = all.len() as f64 / (cycles as f64 * 32.0);
        assert!((0.045..0.055).contains(&per_node), "rate {per_node}");
    }

    #[test]
    fn scale_rate_directive_changes_load_and_composes_losslessly() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut t = BatchedSynthetic::uniform(&mesh, 0.005, 7);
        t.next_injections(999);
        t.apply(&TrafficDirective::ScaleRate { factor: 300.0 }, 1_000);
        assert_eq!(t.mean_rate(), Some(1.0), "saturated while bursting");
        let burst = t.next_injections(1_049).len();
        assert_eq!(burst, 50 * 32, "rate 1 fires every node every cycle");
        t.apply(
            &TrafficDirective::ScaleRate {
                factor: 1.0 / 300.0,
            },
            1_050,
        );
        assert!(
            (t.mean_rate().unwrap() - 0.005).abs() < 1e-15,
            "inverse scale restores the offered load"
        );
        t.apply(&TrafficDirective::ScaleRate { factor: 0.0 }, 1_100);
        assert!(t.next_injections(50_000).is_empty());
    }

    #[test]
    fn hotspot_directive_redirects_destinations() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let hot = NodeId(9);
        let mut t = BatchedSynthetic::uniform(&mesh, 1.0, 7);
        t.apply(
            &TrafficDirective::SetHotspots {
                hotspots: vec![hot],
                fraction: 1.0,
            },
            100,
        );
        for inj in t.next_injections(150) {
            if inj.node != hot {
                assert_eq!(inj.request.dst, hot, "fraction 1 targets the hotspot");
            }
        }
    }

    /// A pattern with a hotspot component of its own: every packet
    /// targets its one hotspot, which `set_hotspots` re-aims.
    struct Aimed(NodeId);

    impl Pattern for Aimed {
        fn destination(&self, src: NodeId, _rng: &mut dyn RngCore) -> Option<NodeId> {
            (src != self.0).then_some(self.0)
        }

        fn name(&self) -> &'static str {
            "aimed"
        }

        fn set_hotspots(&mut self, hotspots: &[NodeId], _fraction: f64) -> bool {
            self.0 = hotspots[0];
            true
        }
    }

    #[test]
    fn a_pattern_that_accepts_set_hotspots_is_re_aimed_not_replaced() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let (old, hot) = (NodeId(3), NodeId(9));
        let process = InjectionProcess::bernoulli(1.0);
        let parts = SyntheticParts::new(&mesh, Box::new(Aimed(old)), process);
        let mut t = BatchedSynthetic::from_parts(parts, 7);
        let directive = TrafficDirective::SetHotspots {
            hotspots: vec![hot],
            fraction: 0.5,
        };
        t.apply(&directive, 100);
        assert_eq!(t.name(), "aimed", "the pattern must survive the directive");
        let batch = t.next_injections(150);
        assert!(!batch.is_empty());
        for inj in batch {
            assert_eq!(inj.request.dst, hot, "re-aimed at the new hotspot");
        }
    }

    #[test]
    fn polled_adapter_reproduces_the_polled_stream() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut polled = SyntheticTraffic::uniform(&mesh, 0.05, 21);
        let mut adapted = CyclePolled::new(
            Box::new(SyntheticTraffic::uniform(&mesh, 0.05, 21)),
            mesh.node_count(),
        );
        assert_eq!(adapted.horizon(), 1);
        assert_eq!(adapted.name(), "uniform");
        for cycle in 0..500 {
            let batch: Vec<ScheduledInjection> = adapted.next_injections(cycle).to_vec();
            let mut expected = Vec::new();
            for node in mesh.node_ids() {
                if let Some(request) = polled.maybe_inject(node, cycle) {
                    expected.push(ScheduledInjection {
                        cycle,
                        node,
                        request,
                    });
                }
            }
            assert_eq!(batch, expected, "cycle {cycle}");
        }
    }

    #[test]
    fn geometric_skip_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(geometric_skip(&mut rng, 1.0), 0);
        assert_eq!(geometric_skip(&mut rng, 1.5), 0, "clamped past saturation");
        assert_eq!(geometric_skip(&mut rng, 0.0), NEVER);
        assert_eq!(geometric_skip(&mut rng, -0.5), NEVER);
        let mean = (0..20_000)
            .map(|_| geometric_skip(&mut rng, 0.25) as f64)
            .sum::<f64>()
            / 20_000.0;
        // Geometric(0.25) on {0,1,…} has mean (1-p)/p = 3.
        assert!((2.8..3.2).contains(&mean), "mean {mean}");
    }
}
