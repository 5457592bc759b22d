//! Spatial destination patterns.
//!
//! A [`Pattern`] maps a source router to a destination for each injected
//! packet. Deterministic permutations (shuffle, transpose, complement)
//! follow the classic definitions over the node-index bits and therefore
//! require a power-of-two node count; [`Uniform`] and [`Hotspot`] work on
//! any topology.

use noc_topology::NodeId;
use rand::Rng;

/// A destination chooser: the spatial half of a workload.
///
/// Implementations must be deterministic given the RNG stream, so that a
/// seeded simulation is reproducible.
pub trait Pattern: Send {
    /// Chooses a destination for a packet injected at `src`.
    ///
    /// Returns `None` if the pattern maps `src` to itself (such packets are
    /// simply not injected, matching Noxim's behaviour).
    fn destination(&self, src: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId>;

    /// Human-readable pattern name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Exact long-run frequency row `f(src, ·)`, if the pattern admits one
    /// analytically. Rows need not be normalised; [`crate::TrafficMatrix`]
    /// normalises. Patterns without a closed form return `None` and are
    /// estimated by sampling.
    fn exact_row(&self, src: NodeId, n: usize) -> Option<Vec<f64>> {
        let _ = (src, n);
        None
    }

    /// Re-aims the pattern's own hotspot component: from now on a
    /// `fraction` of packets target `hotspots`. Returns `false` — the
    /// default — when the pattern has no such component, and the workload
    /// then replaces it with a [`Hotspot`] outright.
    fn set_hotspots(&mut self, hotspots: &[NodeId], fraction: f64) -> bool {
        let _ = (hotspots, fraction);
        false
    }
}

/// The one `SetHotspots` rule of every generator over `n` nodes: a pattern
/// with a hotspot component of its own re-aims it
/// ([`Pattern::set_hotspots`]); any other is replaced by a [`Hotspot`]
/// over uniform.
pub(crate) fn retarget_hotspots(
    pattern: &mut Box<dyn Pattern>,
    n: usize,
    hotspots: &[NodeId],
    fraction: f64,
) {
    if !pattern.set_hotspots(hotspots, fraction) {
        *pattern = Box::new(Hotspot::new(n, hotspots.to_vec(), fraction));
    }
}

/// Uniform random traffic: every other node is equally likely.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    n: usize,
}

impl Uniform {
    /// Uniform traffic over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no possible destination).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "uniform traffic needs at least two nodes");
        Self { n }
    }
}

impl Pattern for Uniform {
    fn destination(&self, src: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        // Draw from n-1 candidates and skip over src to keep uniformity.
        let raw = rng.gen_range(0..self.n - 1);
        let dst = if raw >= src.index() { raw + 1 } else { raw };
        Some(NodeId(dst as u16))
    }

    fn name(&self) -> &'static str {
        "uniform"
    }

    fn exact_row(&self, src: NodeId, n: usize) -> Option<Vec<f64>> {
        let mut row = vec![1.0; n];
        row[src.index()] = 0.0;
        Some(row)
    }
}

/// Number of index bits for a power-of-two node count.
///
/// Returns `None` if `n` is not a power of two or is less than 2.
fn index_bits(n: usize) -> Option<u32> {
    (n >= 2 && n.is_power_of_two()).then(|| n.trailing_zeros())
}

/// A deterministic permutation over node-index bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitPermutation {
    /// Perfect shuffle: rotate the index bits left by one
    /// (`a_{b-1} a_{b-2} … a_0 → a_{b-2} … a_0 a_{b-1}`). The paper's
    /// "Shuffle" pattern.
    Shuffle,
    /// Swap the high and low halves of the index bits.
    Transpose,
    /// Complement every index bit.
    Complement,
    /// Reverse the index bits.
    Reverse,
}

impl BitPermutation {
    /// Applies the permutation to `index` over `bits` bits.
    #[must_use]
    pub fn apply(self, index: usize, bits: u32) -> usize {
        let mask = (1usize << bits) - 1;
        match self {
            BitPermutation::Shuffle => ((index << 1) | (index >> (bits - 1))) & mask,
            BitPermutation::Transpose => {
                let half = bits / 2;
                let low = index & ((1 << half) - 1);
                let high = index >> half;
                // For odd bit counts the middle bit stays with the low part.
                ((low << (bits - half)) | high) & mask
            }
            BitPermutation::Complement => !index & mask,
            BitPermutation::Reverse => {
                let mut out = 0usize;
                for b in 0..bits {
                    out |= ((index >> b) & 1) << (bits - 1 - b);
                }
                out
            }
        }
    }
}

/// A fixed-permutation pattern over the node-index bits.
#[derive(Debug, Clone, Copy)]
pub struct Permutation {
    kind: BitPermutation,
    bits: u32,
}

impl Permutation {
    /// Builds the permutation pattern for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (bit permutations are undefined
    /// otherwise).
    #[must_use]
    pub fn new(kind: BitPermutation, n: usize) -> Self {
        let bits = index_bits(n)
            .unwrap_or_else(|| panic!("bit permutations need a power-of-two node count, got {n}"));
        Self { kind, bits }
    }

    /// The destination this permutation assigns to `src`.
    #[must_use]
    pub fn map(&self, src: NodeId) -> NodeId {
        NodeId(self.kind.apply(src.index(), self.bits) as u16)
    }
}

impl Pattern for Permutation {
    fn destination(&self, src: NodeId, _rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        let dst = self.map(src);
        (dst != src).then_some(dst)
    }

    fn name(&self) -> &'static str {
        match self.kind {
            BitPermutation::Shuffle => "shuffle",
            BitPermutation::Transpose => "transpose",
            BitPermutation::Complement => "bit-complement",
            BitPermutation::Reverse => "bit-reverse",
        }
    }

    fn exact_row(&self, src: NodeId, n: usize) -> Option<Vec<f64>> {
        let mut row = vec![0.0; n];
        let dst = self.map(src);
        if dst != src {
            row[dst.index()] = 1.0;
        }
        Some(row)
    }
}

/// The range checks every hotspot (re-)aiming shares.
pub(crate) fn check_hotspots(n: usize, hotspots: &[NodeId], hot_fraction: f64) {
    assert!(
        !hotspots.is_empty(),
        "hotspot pattern needs at least one hotspot"
    );
    assert!(
        (0.0..=1.0).contains(&hot_fraction),
        "hot_fraction must be a probability"
    );
    assert!(
        hotspots.iter().all(|h| h.index() < n),
        "hotspot out of range"
    );
}

/// Hotspot traffic: with probability `hot_fraction` the destination is a
/// uniformly chosen hotspot node; otherwise uniform over all other nodes.
#[derive(Debug, Clone)]
pub struct Hotspot {
    uniform: Uniform,
    hotspots: Vec<NodeId>,
    hot_fraction: f64,
}

impl Hotspot {
    /// Builds a hotspot pattern.
    ///
    /// # Panics
    ///
    /// Panics if `hotspots` is empty or `hot_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn new(n: usize, hotspots: Vec<NodeId>, hot_fraction: f64) -> Self {
        check_hotspots(n, &hotspots, hot_fraction);
        Self {
            uniform: Uniform::new(n),
            hotspots,
            hot_fraction,
        }
    }
}

impl Pattern for Hotspot {
    fn destination(&self, src: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        if rng.gen_bool(self.hot_fraction) {
            let pick = self.hotspots[rng.gen_range(0..self.hotspots.len())];
            if pick != src {
                return Some(pick);
            }
            // Fall through to uniform when a hotspot would self-address.
        }
        self.uniform.destination(src, rng)
    }

    fn name(&self) -> &'static str {
        "hotspot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn uniform_never_self_addresses_and_covers_all() {
        let pattern = Uniform::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        let src = NodeId(5);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let dst = pattern.destination(src, &mut rng).unwrap();
            assert_ne!(dst, src);
            seen[dst.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn shuffle_is_rotate_left() {
        // 6 bits (64 nodes): 0b100001 -> 0b000011.
        assert_eq!(BitPermutation::Shuffle.apply(0b10_0001, 6), 0b00_0011);
        // All-ones stays all-ones.
        assert_eq!(BitPermutation::Shuffle.apply(0b11_1111, 6), 0b11_1111);
    }

    #[test]
    fn transpose_swaps_halves() {
        // 8 bits: high nibble 0xA, low 0x3 -> 0x3A.
        assert_eq!(BitPermutation::Transpose.apply(0xA3, 8), 0x3A);
    }

    #[test]
    fn complement_and_reverse() {
        assert_eq!(
            BitPermutation::Complement.apply(0b0000_0001, 8),
            0b1111_1110
        );
        assert_eq!(BitPermutation::Reverse.apply(0b0000_0001, 8), 0b1000_0000);
    }

    #[test]
    fn permutations_are_bijective() {
        for kind in [
            BitPermutation::Shuffle,
            BitPermutation::Transpose,
            BitPermutation::Complement,
            BitPermutation::Reverse,
        ] {
            let mut seen = [false; 64];
            for i in 0..64 {
                let out = kind.apply(i, 6);
                assert!(!seen[out], "{kind:?} maps two inputs to {out}");
                seen[out] = true;
            }
        }
    }

    #[test]
    fn permutation_pattern_skips_fixed_points() {
        let p = Permutation::new(BitPermutation::Shuffle, 64);
        let mut rng = StdRng::seed_from_u64(2);
        // 0 and 63 are fixed points of rotate-left.
        assert_eq!(p.destination(NodeId(0), &mut rng), None);
        assert_eq!(p.destination(NodeId(63), &mut rng), None);
        assert!(p.destination(NodeId(1), &mut rng).is_some());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn permutation_rejects_non_power_of_two() {
        let _ = Permutation::new(BitPermutation::Shuffle, 60);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let hot = NodeId(3);
        let pattern = Hotspot::new(16, vec![hot], 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 4000;
        let hits = (0..draws)
            .filter(|_| pattern.destination(NodeId(0), &mut rng) == Some(hot))
            .count();
        // Expected ≈ 0.5 + 0.5/15 ≈ 0.53.
        let frac = hits as f64 / draws as f64;
        assert!((0.45..0.62).contains(&frac), "hotspot fraction {frac}");
    }

    #[test]
    fn exact_rows_match_sampling_semantics() {
        let p = Permutation::new(BitPermutation::Complement, 16);
        let row = p.exact_row(NodeId(0), 16).unwrap();
        assert_eq!(row[15], 1.0);
        assert_eq!(row.iter().sum::<f64>(), 1.0);

        let u = Uniform::new(4);
        let row = u.exact_row(NodeId(2), 4).unwrap();
        assert_eq!(row, vec![1.0, 1.0, 0.0, 1.0]);
    }
}
