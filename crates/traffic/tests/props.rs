//! Property tests for traffic generation: destinations always valid,
//! rates honoured, matrices normalised.

use noc_topology::{Mesh3d, NodeId};
use noc_traffic::apps::{AppKind, AppTraffic};
use noc_traffic::injection::{Coin, InjectionProcess, OnOffParams, PacketSizeRange};
use noc_traffic::pattern::{BitPermutation, Hotspot, Pattern, Permutation, Uniform};
use noc_traffic::{
    InjectionRequest, SyntheticParts, SyntheticTraffic, TrafficDirective, TrafficMatrix,
    TrafficSource,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

proptest! {
    #[test]
    fn uniform_pattern_always_valid(n in 2usize..200, seed in 0u64..500, src in 0u16..100) {
        let src = NodeId(src % n as u16);
        let pattern = Uniform::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let dst = pattern.destination(src, &mut rng).unwrap();
            prop_assert!(dst.index() < n);
            prop_assert_ne!(dst, src);
        }
    }

    #[test]
    fn permutations_stay_in_range(bits in 1u32..10, index in 0usize..1024) {
        let n = 1usize << bits;
        let index = index % n;
        for kind in [
            BitPermutation::Shuffle,
            BitPermutation::Transpose,
            BitPermutation::Complement,
            BitPermutation::Reverse,
        ] {
            prop_assert!(kind.apply(index, bits) < n);
        }
    }

    #[test]
    fn shuffle_applied_n_times_is_identity(bits in 1u32..10, index in 0usize..1024) {
        let n = 1usize << bits;
        let mut value = index % n;
        for _ in 0..bits {
            value = BitPermutation::Shuffle.apply(value, bits);
        }
        prop_assert_eq!(value, index % n);
    }

    #[test]
    fn hotspot_fraction_bounds_hold(frac in 0.0f64..1.0, seed in 0u64..100) {
        let pattern = Hotspot::new(32, vec![NodeId(5), NodeId(9)], frac);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let dst = pattern.destination(NodeId(0), &mut rng).unwrap();
            prop_assert!(dst.index() < 32);
            prop_assert_ne!(dst, NodeId(0));
        }
    }

    #[test]
    fn matrix_rows_are_normalised(n in 2usize..40) {
        let m = TrafficMatrix::uniform(n);
        for i in 0..n as u16 {
            let sum: f64 = m.row(NodeId(i)).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(m.frequency(NodeId(i), NodeId(i)), 0.0);
        }
    }

    #[test]
    fn bernoulli_rate_tracks_parameter(rate in 0.0f64..0.3, seed in 0u64..100) {
        let mut p = InjectionProcess::bernoulli(rate);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40_000;
        let hits = (0..n).filter(|_| p.step(&mut rng)).count();
        let measured = hits as f64 / n as f64;
        prop_assert!((measured - rate).abs() < 0.02, "rate {rate} measured {measured}");
    }

    #[test]
    fn on_off_params_keep_unit_mean(
        on_to_off in 0.001f64..0.5,
        off_to_on in 0.001f64..0.5,
        off_scale in 0.0f64..0.9,
    ) {
        let p = OnOffParams::new(on_to_off, off_to_on, off_scale);
        let s = p.stationary_on();
        let mean = s * p.on_scale() + (1.0 - s) * p.off_scale;
        prop_assert!((mean - 1.0).abs() < 1e-9);
        prop_assert!(p.on_scale() >= 1.0, "ON must compensate the OFF deficit");
    }

    #[test]
    fn packet_sizes_always_within_bounds(min in 1u16..20, extra in 0u16..30, seed in 0u64..50) {
        let range = PacketSizeRange::new(min, min + extra);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = range.sample(&mut rng);
            prop_assert!(s >= min && s <= min + extra);
        }
    }

    #[test]
    fn app_traffic_never_self_addresses(seed in 0u64..30) {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        for kind in AppKind::ALL {
            let mut app = AppTraffic::new(kind, &mesh, 0.1, seed);
            for cycle in 0..100 {
                for node in mesh.node_ids() {
                    if let Some(req) = app.maybe_inject(node, cycle) {
                        prop_assert_ne!(req.dst, node);
                        prop_assert!(req.dst.index() < mesh.node_count());
                        prop_assert!((10..=30).contains(&req.flits));
                    }
                }
            }
        }
    }

    #[test]
    fn synthetic_traffic_is_seed_deterministic(rate in 0.01f64..0.2, seed in 0u64..50) {
        let mesh = Mesh3d::new(3, 3, 2).unwrap();
        let collect = |seed: u64| {
            let mut t = SyntheticTraffic::uniform(&mesh, rate, seed);
            let mut events = Vec::new();
            for cycle in 0..100 {
                for node in mesh.node_ids() {
                    if let Some(req) = t.maybe_inject(node, cycle) {
                        events.push((cycle, node, req));
                    }
                }
            }
            events
        };
        prop_assert_eq!(collect(seed), collect(seed));
    }

    #[test]
    fn sampled_matrix_from_permutation_matches_exact(bits in 2u32..6) {
        let n = 1usize << bits;
        let p = Permutation::new(BitPermutation::Reverse, n);
        let m = TrafficMatrix::from_pattern(&p, n, 10, 3);
        for i in 0..n {
            let src = NodeId(i as u16);
            let dst = p.map(src);
            if dst != src {
                prop_assert_eq!(m.frequency(src, dst), 1.0);
            }
        }
    }
}

/// Mean and (population) variance of a sample.
fn mean_var(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var)
}

// The geometric skip-sampler against the per-cycle Bernoulli process it
// replaces: identical support and matching inter-arrival moments, across
// rates including the edge cases (rate 0, rate 1, post-ScaleRate
// clamping past saturation).
proptest! {
    #[test]
    fn geometric_skip_support_matches_bernoulli(rate in 0.01f64..0.99, seed in 0u64..200) {
        use noc_traffic::scheduled::{geometric_skip, NEVER};
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let gap = geometric_skip(&mut rng, rate);
            // A Bernoulli process with 0 < p < 1 can produce any finite
            // number of failures before a success — but never "never".
            prop_assert!(gap != NEVER);
        }
    }

    #[test]
    fn geometric_skip_matches_bernoulli_gap_moments(
        rate in 0.02f64..0.5,
        seed in 0u64..100,
    ) {
        use noc_traffic::scheduled::geometric_skip;
        let draws = 30_000usize;

        // Skip-sampled inter-arrival gaps (cycles from one injection to
        // the next: one cycle to fire plus the sampled failure run).
        let mut rng = StdRng::seed_from_u64(seed);
        let skip: Vec<f64> = (0..draws)
            .map(|_| 1.0 + geometric_skip(&mut rng, rate) as f64)
            .collect();

        // The per-cycle process, observed the classic way.
        let mut process = InjectionProcess::bernoulli(rate);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut polled = Vec::with_capacity(draws);
        let mut gap = 0f64;
        while polled.len() < draws {
            gap += 1.0;
            if process.step(&mut rng) {
                polled.push(gap);
                gap = 0.0;
            }
        }

        // Geometric(p) on {1, 2, …}: mean 1/p, variance (1-p)/p².
        let expect_mean = 1.0 / rate;
        let expect_var = (1.0 - rate) / (rate * rate);
        let (skip_mean, skip_var) = mean_var(&skip);
        let (poll_mean, poll_var) = mean_var(&polled);
        for (what, mean, var) in [("skip", skip_mean, skip_var), ("polled", poll_mean, poll_var)] {
            prop_assert!(
                (mean - expect_mean).abs() < 0.05 * expect_mean,
                "{what} gap mean {mean} vs expected {expect_mean} at rate {rate}"
            );
            prop_assert!(
                (var - expect_var).abs() < 0.15 * expect_var + 0.5,
                "{what} gap variance {var} vs expected {expect_var} at rate {rate}"
            );
        }
        prop_assert!(
            (skip_mean - poll_mean).abs() < 0.07 * expect_mean,
            "streams disagree: skip mean {skip_mean}, polled mean {poll_mean}"
        );
    }

    #[test]
    fn geometric_skip_edge_rates(seed in 0u64..200) {
        use noc_traffic::scheduled::{geometric_skip, NEVER};
        let mut rng = StdRng::seed_from_u64(seed);
        // Rate 0 (a silenced workload): no injection, ever.
        prop_assert_eq!(geometric_skip(&mut rng, 0.0), NEVER);
        // Rate 1 and rates clamped past saturation (ScaleRate keeps the
        // raw product and clamps at sampling): fire every cycle.
        prop_assert_eq!(geometric_skip(&mut rng, 1.0), 0);
        prop_assert_eq!(geometric_skip(&mut rng, 17.5), 0);
        // Negative products cannot occur (scale_rate rejects negative
        // factors), but the sampler still saturates safely.
        prop_assert_eq!(geometric_skip(&mut rng, -1.0), NEVER);
    }

    #[test]
    fn scaled_batched_source_tracks_clamped_rate(
        rate in 0.001f64..0.01,
        factor in 0.0f64..400.0,
        seed in 0u64..50,
    ) {
        use noc_traffic::scheduled::ScheduledSource;
        use noc_traffic::{BatchedSynthetic, TrafficDirective};
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut source = BatchedSynthetic::uniform(&mesh, rate, seed);
        source.apply(&TrafficDirective::ScaleRate { factor }, 0);
        let clamped = (rate * factor).clamp(0.0, 1.0);
        prop_assert!((source.mean_rate().unwrap() - clamped).abs() < 1e-12);
        let cycles = 4_000u64;
        let injected = source.next_injections(cycles - 1).len();
        let measured = injected as f64 / (cycles as f64 * 32.0);
        // Binomial bound: 6 standard deviations around the clamped rate.
        let sd = (clamped * (1.0 - clamped) / (cycles as f64 * 32.0)).sqrt();
        prop_assert!(
            (measured - clamped).abs() <= 6.0 * sd + 1e-9,
            "measured {measured} vs clamped {clamped} (sd {sd})"
        );
    }
}

// ---------------------------------------------------------------------
// The compiled polled kernel, pinned from outside it: the integer coin
// against `gen_bool`, and `poll_cycle` against the per-node loop.
// ---------------------------------------------------------------------

/// 2⁻⁵³: the spacing of the unit doubles a coin is compared against.
const ULP: f64 = 1.0 / (1u64 << 53) as f64;

/// The coin the polled processes tossed before thresholds were compiled:
/// guarded, clamped, through `gen_bool`'s float compare.
fn reference_coin<R: RngCore>(rng: &mut R, p: f64) -> bool {
    p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
}

/// A probability from one of the families the coin must get exactly
/// right: the two sure coins, the smallest and largest fair ones, exact
/// multiples of 2⁻⁵³ (where `⌈p·2⁵³⌉` is the draw itself), subnormals,
/// non-positive guards, and arbitrary values.
fn coin_probability(family: u8, k: u64, unit: f64) -> f64 {
    match family {
        0 => 0.0,
        1 => 1.0,
        2 => ULP,
        3 => 1.0 - ULP,
        4 => k as f64 * ULP,
        5 => f64::from_bits(k % (1 << 52)),
        6 => -unit,
        _ => unit,
    }
}

/// A generator returning one scripted raw draw, counting the draws.
struct Scripted {
    raw: u64,
    draws: u32,
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.raw
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0);
    }
}

/// Polls `source` for `cycles` whole cycles — through `poll_cycle` before
/// `bulk_until`, through the per-node loop from there on — applying each
/// directive at the start of its cycle.
fn polled_stream(
    source: &mut dyn TrafficSource,
    nodes: usize,
    cycles: u64,
    bulk_until: u64,
    directives: &[(u64, TrafficDirective)],
) -> Vec<(u64, NodeId, InjectionRequest)> {
    let mut stream = Vec::new();
    let mut polled = Vec::new();
    for cycle in 0..cycles {
        for (_, directive) in directives.iter().filter(|(at, _)| *at == cycle) {
            source.apply(directive);
        }
        polled.clear();
        if cycle < bulk_until {
            source.poll_cycle(cycle, nodes, &mut polled);
        } else {
            for node in (0..nodes).map(|i| NodeId(i as u16)) {
                polled.extend(source.maybe_inject(node, cycle).map(|req| (node, req)));
            }
        }
        stream.extend(polled.iter().map(|&(node, req)| (cycle, node, req)));
    }
    stream
}

proptest! {
    #[test]
    fn coin_flips_like_gen_bool_on_equal_streams(
        family in 0u8..8,
        k in 0u64..(1 << 53),
        unit in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        let p = coin_probability(family, k, unit);
        let coin = Coin::new(p);
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for _ in 0..64 {
            prop_assert_eq!(coin.flip(&mut a), reference_coin(&mut b, p), "p = {p:e}");
        }
        prop_assert_eq!(a.next_u64(), b.next_u64(), "p = {p:e}: same number of draws");
    }

    #[test]
    fn coin_agrees_with_gen_bool_at_the_threshold(
        family in 0u8..8,
        k in 0u64..(1 << 53),
        unit in 0.0f64..=1.0,
        low_bits in 0u64..(1 << 11),
    ) {
        // Random draws almost never land next to the threshold; script
        // the three draws around it (and the two extremes) instead.
        let p = coin_probability(family, k, unit);
        let coin = Coin::new(p);
        let at = (p.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64;
        for top in [0, at.saturating_sub(1), at, at + 1, (1 << 53) - 1] {
            let raw = (top.min((1 << 53) - 1) << 11) | low_bits;
            let (mut a, mut b) = (Scripted { raw, draws: 0 }, Scripted { raw, draws: 0 });
            prop_assert_eq!(coin.flip(&mut a), reference_coin(&mut b, p), "p = {p:e}, draw {top}");
            prop_assert_eq!(a.draws, b.draws, "p = {p:e}: the sure coins never draw");
        }
    }

    #[test]
    fn poll_cycle_equals_the_per_node_loop(
        seed in 0u64..200,
        rate in 0.002f64..0.2,
        burst_at in 0u64..30,
        burst_len in 0u64..30,
        shift_at in 0u64..90,
    ) {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let nodes = mesh.node_count();
        let burst = OnOffParams::new(0.05, 0.02, 0.1);
        let polled = |parts| SyntheticTraffic::from_parts(parts, seed);
        type Build<'a> = Box<dyn Fn() -> Box<dyn TrafficSource + 'a> + 'a>;
        let mut builders: Vec<Build<'_>> = vec![
            Box::new(|| Box::new(SyntheticTraffic::uniform(&mesh, rate, seed))),
            Box::new(|| Box::new(polled(SyntheticParts::shuffle(&mesh, rate)))),
            Box::new(|| Box::new(polled(SyntheticParts::hotspot(&mesh, rate, vec![NodeId(7)], 0.5)))),
            Box::new(|| {
                let on_off = InjectionProcess::on_off(rate, burst);
                Box::new(polled(SyntheticParts::new(&mesh, Box::new(Uniform::new(nodes)), on_off)))
            }),
        ];
        for kind in AppKind::ALL {
            let mesh = &mesh;
            builders.push(Box::new(move || Box::new(AppTraffic::new(kind, mesh, rate, seed))));
        }
        // A saturating burst, its inverse, then a hotspot shift.
        let directives = [
            (burst_at, TrafficDirective::ScaleRate { factor: 300.0 }),
            (burst_at + burst_len, TrafficDirective::ScaleRate { factor: 1.0 / 300.0 }),
            (
                shift_at,
                TrafficDirective::SetHotspots { hotspots: vec![NodeId(9), NodeId(40)], fraction: 0.6 },
            ),
        ];
        for build in &builders {
            let (mut bulk, mut per_node) = (build(), build());
            // The per-node tail on both sides checks the state left behind
            // (RNG position, burst phases), not just the
            // injections so far.
            let expected = polled_stream(per_node.as_mut(), nodes, 90, 0, &directives);
            let got = polled_stream(bulk.as_mut(), nodes, 90, 60, &directives);
            prop_assert_eq!(got, expected, "{}", bulk.name());
        }
    }
}

#[test]
fn coin_guards_non_positive_and_nan_probabilities() {
    for p in [0.0, -0.0, -1e-300, -1.0, f64::NEG_INFINITY, f64::NAN] {
        let mut rng = Scripted { raw: 0, draws: 0 };
        assert_eq!(Coin::new(p), Coin::NEVER, "p = {p}");
        assert!(!Coin::new(p).flip(&mut rng) && rng.draws == 0, "p = {p}");
    }
    for p in [1.0, 1.0 + f64::EPSILON, 300.0, f64::INFINITY] {
        let mut rng = Scripted {
            raw: u64::MAX,
            draws: 0,
        };
        assert_eq!(Coin::new(p), Coin::ALWAYS, "p = {p}");
        assert!(Coin::new(p).flip(&mut rng) && rng.draws == 0, "p = {p}");
    }
}
