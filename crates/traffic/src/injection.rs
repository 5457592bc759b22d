//! Temporal injection processes and packet sizing.
//!
//! # Integer-threshold coins
//!
//! The polled `v1` stream tosses a coin per node per cycle (two for a
//! bursty node). `gen_bool(p)` compares `unit < p` with
//! `unit = k·2⁻⁵³`, `k = x >> 11` of a raw draw `x`; scaling both sides by
//! 2⁵³ is exact, so `unit < p ⇔ k < p·2⁵³ ⇔ k < ⌈p·2⁵³⌉`. A [`Coin`]
//! stores that threshold once, and a flip is a shift and an integer
//! compare — bit-for-bit `gen_bool`'s decision. Two coins **never draw**:
//! `p ≤ 0` (the processes always guarded emission with `p > 0.0 &&`) and
//! `p ≥ 1` (`gen_bool` returns before sampling); a draw there would shift
//! every later decision of the stream.

use rand::{Rng, RngCore};

/// The paper's packet-size distribution: uniform over 10–30 flits
/// (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSizeRange {
    min: u16,
    max: u16,
}

impl PacketSizeRange {
    /// Builds an inclusive flit-count range.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or greater than `max`.
    #[must_use]
    pub fn new(min: u16, max: u16) -> Self {
        assert!(
            min >= 1 && min <= max,
            "invalid packet size range {min}..={max}"
        );
        Self { min, max }
    }

    /// The paper's default: 10–30 flits.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(10, 30)
    }

    /// Smallest packet size in flits.
    #[must_use]
    pub fn min(&self) -> u16 {
        self.min
    }

    /// Largest packet size in flits.
    #[must_use]
    pub fn max(&self) -> u16 {
        self.max
    }

    /// Mean packet size in flits.
    #[must_use]
    pub fn mean(&self) -> f64 {
        f64::from(self.min + self.max) / 2.0
    }

    /// Samples a packet size.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u16 {
        rng.gen_range(self.min..=self.max)
    }
}

impl Default for PacketSizeRange {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Parameters of a two-state (on/off) Markov burst modulator.
///
/// The stationary mean of the modulation factor is exactly 1, so wrapping a
/// Bernoulli process in an on/off modulator preserves the average
/// injection rate while adding temporal burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffParams {
    /// Per-cycle probability of leaving the ON state.
    pub on_to_off: f64,
    /// Per-cycle probability of leaving the OFF state.
    pub off_to_on: f64,
    /// Rate multiplier while OFF (must be `< 1`; ON compensates).
    pub off_scale: f64,
}

impl OnOffParams {
    /// Validates and builds burst parameters.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `(0, 1]` or `off_scale` is not
    /// in `[0, 1)`.
    #[must_use]
    pub fn new(on_to_off: f64, off_to_on: f64, off_scale: f64) -> Self {
        assert!((0.0..=1.0).contains(&on_to_off) && on_to_off > 0.0);
        assert!((0.0..=1.0).contains(&off_to_on) && off_to_on > 0.0);
        assert!((0.0..1.0).contains(&off_scale));
        Self {
            on_to_off,
            off_to_on,
            off_scale,
        }
    }

    /// Stationary probability of the ON state.
    #[must_use]
    pub fn stationary_on(&self) -> f64 {
        self.off_to_on / (self.on_to_off + self.off_to_on)
    }

    /// Rate multiplier while ON, chosen so the stationary mean factor is 1.
    #[must_use]
    pub fn on_scale(&self) -> f64 {
        let s_on = self.stationary_on();
        (1.0 - (1.0 - s_on) * self.off_scale) / s_on
    }
}

/// A Bernoulli coin compiled to the integer threshold `⌈p·2⁵³⌉` (the
/// [module docs](self) give the identity with `gen_bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coin(u64);

impl Coin {
    /// The coin that never lands heads — and never draws.
    pub const NEVER: Coin = Coin(0);
    /// The coin that always lands heads — and never draws.
    pub const ALWAYS: Coin = Coin(u64::MAX);

    /// Compiles the coin `p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))`:
    /// `p ≤ 0` and NaN never land heads, `p ≥ 1` always does.
    #[must_use]
    pub fn new(p: f64) -> Self {
        if p >= 1.0 {
            Coin::ALWAYS
        } else if p > 0.0 {
            // Exact: the scaling only moves the exponent (lifting a
            // subnormal `p` into the normal range).
            Coin((p * (1u64 << 53) as f64).ceil() as u64)
        } else {
            Coin::NEVER
        }
    }

    /// Flips the coin: one raw draw, except for the two sure coins, which
    /// leave `rng` untouched.
    #[inline]
    pub fn flip<R: RngCore + ?Sized>(self, rng: &mut R) -> bool {
        match self {
            Coin::NEVER => false,
            Coin::ALWAYS => true,
            Coin(threshold) => (rng.next_u64() >> 11) < threshold,
        }
    }
}

/// Per-node injection process: decides, each cycle, whether to inject a
/// packet — memoryless Bernoulli, or Bernoulli modulated by a two-state
/// (on/off) Markov burst process.
///
/// The process is held compiled to [`Coin`]s, recompiled only when the
/// rate is scaled. A Bernoulli process is the on/off machine whose phase
/// coins never draw — its phase never moves and both emission coins are
/// the same — so one record and one [`step`](Self::step) serve both.
///
/// The only per-node state is the phase: a workload whose nodes all run
/// the same process holds one record and a phase bit per node, and steps
/// each node with [`step_phase`](Self::step_phase).
#[derive(Debug, Clone)]
pub struct InjectionProcess {
    /// Base (average) packets/cycle: the exact product of every scaling,
    /// clamped to a probability only in the coins.
    pub(crate) rate: f64,
    /// Burst parameters; `None` is memoryless.
    pub(crate) burst: Option<OnOffParams>,
    /// Current phase (true = ON): the phase [`step`](Self::step) moves,
    /// and every node's starting phase where the process is shared.
    pub(crate) on: bool,
    /// Coin for leaving the phase, indexed by the current phase.
    leave: [Coin; 2],
    /// Emission coin of each phase, the phase's rate scale folded in.
    emit: [Coin; 2],
}

impl InjectionProcess {
    /// Memoryless injection at `rate` packets/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn bernoulli(rate: f64) -> Self {
        Self::new(rate, None)
    }

    /// Bursty injection averaging `rate` packets/cycle, starting ON.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn on_off(rate: f64, params: OnOffParams) -> Self {
        Self::new(rate, Some(params))
    }

    fn new(rate: f64, burst: Option<OnOffParams>) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate {rate} must be a probability"
        );
        let leave = burst.map_or([Coin::NEVER; 2], |b| {
            [Coin::new(b.off_to_on), Coin::new(b.on_to_off)]
        });
        let mut process = Self {
            rate,
            burst,
            on: true,
            leave,
            emit: [Coin::NEVER; 2],
        };
        process.compile_emission();
        process
    }

    /// Compiles the emission coins from the current rate.
    fn compile_emission(&mut self) {
        let (off, on) = self
            .burst
            .map_or((1.0, 1.0), |b| (b.off_scale, b.on_scale()));
        self.emit = [Coin::new(self.rate * off), Coin::new(self.rate * on)];
    }

    /// The long-run average injection rate, as an effective probability
    /// (a rate scaled past saturation reports the clamped value actually
    /// emitted).
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        self.rate.clamp(0.0, 1.0)
    }

    /// Scales the base injection rate by `factor`. Burst state is
    /// preserved — scenario engines use this to raise or drop the offered
    /// load mid-run (injection bursts).
    ///
    /// The stored rate keeps the exact product (only the emission coins
    /// clamp it to a probability), so a burst and its inverse compose
    /// losslessly: scaling by `300` and later by `1/300` restores the
    /// original offered load even though the intermediate rate saturated
    /// at one packet per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale_rate(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate scale {factor} must be finite and non-negative"
        );
        self.rate *= factor;
        self.compile_emission();
    }

    /// Advances one cycle and reports whether a packet is injected: the
    /// phase transition first, then emission from the new phase.
    #[inline]
    pub fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> bool {
        let mut on = self.on;
        let injects = self.step_phase(&mut on, rng);
        self.on = on;
        injects
    }

    /// [`step`](Self::step) for a node of a shared process, whose phase
    /// (true = ON) is `on`.
    #[inline]
    pub fn step_phase<R: RngCore + ?Sized>(&self, on: &mut bool, rng: &mut R) -> bool {
        if self.leave[usize::from(*on)].flip(rng) {
            *on = !*on;
        }
        self.emit[usize::from(*on)].flip(rng)
    }

    /// The mean of [`mean_rate`](Self::mean_rate) over `nodes` nodes
    /// running this process, summed term by term like a mean over
    /// per-node processes (its rounding reaches
    /// `RunSummary::offered_rate`); `None` for no nodes.
    #[must_use]
    pub fn mean_rate_over(&self, nodes: usize) -> Option<f64> {
        if nodes == 0 {
            return None;
        }
        let sum: f64 = std::iter::repeat_n(self.mean_rate(), nodes).sum();
        Some(sum / nodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn packet_sizes_stay_in_range() {
        let range = PacketSizeRange::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = range.sample(&mut rng);
            assert!((10..=30).contains(&s));
        }
        assert_eq!(range.mean(), 20.0);
    }

    #[test]
    #[should_panic(expected = "invalid packet size range")]
    fn packet_size_range_rejects_inverted_bounds() {
        let _ = PacketSizeRange::new(5, 4);
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut p = InjectionProcess::bernoulli(0.1);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let injected = (0..n).filter(|_| p.step(&mut rng)).count();
        let rate = injected as f64 / n as f64;
        assert!((0.09..0.11).contains(&rate), "measured {rate}");
    }

    #[test]
    fn on_off_preserves_mean_rate() {
        let params = OnOffParams::new(0.02, 0.005, 0.1);
        let mut p = InjectionProcess::on_off(0.05, params);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 400_000;
        let injected = (0..n).filter(|_| p.step(&mut rng)).count();
        let rate = injected as f64 / n as f64;
        assert!((0.045..0.055).contains(&rate), "measured {rate}");
    }

    #[test]
    fn on_off_scale_math_is_consistent() {
        let params = OnOffParams::new(0.01, 0.01, 0.2);
        let s_on = params.stationary_on();
        assert!((s_on - 0.5).abs() < 1e-12);
        let mean = s_on * params.on_scale() + (1.0 - s_on) * params.off_scale;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_rate_multiplies_and_clamps_at_emission() {
        let mut p = InjectionProcess::bernoulli(0.2);
        p.scale_rate(2.0);
        assert!((p.mean_rate() - 0.4).abs() < 1e-12);
        p.scale_rate(10.0);
        assert_eq!(p.mean_rate(), 1.0, "effective rate clamps at 1");
        p.scale_rate(0.0);
        assert_eq!(p.mean_rate(), 0.0);

        let mut b = InjectionProcess::on_off(0.1, OnOffParams::new(0.02, 0.005, 0.1));
        b.scale_rate(0.5);
        assert!((b.mean_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn scale_rate_burst_and_inverse_compose_losslessly() {
        // A burst that saturates past rate 1 must not corrupt the baseline
        // once the inverse scale ends it.
        let mut p = InjectionProcess::bernoulli(0.005);
        p.scale_rate(300.0);
        assert_eq!(p.mean_rate(), 1.0, "saturated while bursting");
        let mut rng = StdRng::seed_from_u64(1);
        assert!(p.step(&mut rng), "rate 1 injects every cycle");
        p.scale_rate(1.0 / 300.0);
        assert!(
            (p.mean_rate() - 0.005).abs() < 1e-15,
            "inverse scale restores the offered load, got {}",
            p.mean_rate()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scale_rate_rejects_negative_factors() {
        InjectionProcess::bernoulli(0.1).scale_rate(-1.0);
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut p = InjectionProcess::bernoulli(0.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!((0..1000).all(|_| !p.step(&mut rng)));
    }
}
