//! Elevator-placement patterns.
//!
//! The paper evaluates four placements: `PS1`–`PS3` on a 4×4×4 mesh with
//! increasing elevator concentration, and `PM` on the large 8×8×4 mesh.
//! `PS1`, `PS3` and `PM` are "extracted to have an optimized average
//! distance"; `PS2` follows the FL-RuNS-style spread of \[4\]. The exact
//! coordinates are not published, so this module re-derives the optimised
//! patterns with a deterministic average-distance optimiser
//! ([`optimize_columns`]) and ships the results as named presets.
//!
//! The presets are recomputed on every [`Placement::build`] rather than
//! stored, which is affordable because the optimiser scores each trial
//! placement against a running per-pair minimum instead of from scratch
//! (`PairSearch`, below: PM in ≈ 1.5 ms, PS3's 12 870 combinations in
//! ≈ 2 ms). That changes how a trial's cost is *computed*, never its value
//! — integer sums of minima — and the searches keep their visiting order
//! and tie-breaks, so the columns are the ones the from-scratch search
//! finds; `presets_match_optimizer` pins them and the two
//! `running_minimum_search_equals_naive_search*` tests check the equality
//! on layers up to 6×6.

use crate::{Coord, ElevatorSet, Mesh3d, TopologyError};

/// Named elevator-placement patterns from the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// 3 elevators on 4×4 layers, average-distance optimised (sparsest).
    Ps1,
    /// 4 elevators on 4×4 layers, FL-RuNS-style symmetric spread \[4\].
    Ps2,
    /// 8 elevators on 4×4 layers, average-distance optimised (densest).
    Ps3,
    /// 12 elevators on 8×8 layers (the large 8×8×4 network).
    Pm,
}

impl Placement {
    /// All named placements, in paper order.
    pub const ALL: [Placement; 4] = [
        Placement::Ps1,
        Placement::Ps2,
        Placement::Ps3,
        Placement::Pm,
    ];

    /// The mesh this placement is defined for.
    ///
    /// # Panics
    ///
    /// Never panics: the preset dimensions are statically valid.
    #[must_use]
    pub fn mesh(self) -> Mesh3d {
        let (x, y, z) = match self {
            Placement::Ps1 | Placement::Ps2 | Placement::Ps3 => (4, 4, 4),
            Placement::Pm => (8, 8, 4),
        };
        Mesh3d::new(x, y, z).expect("preset dimensions are valid")
    }

    /// Number of elevator columns in this placement.
    #[must_use]
    pub fn elevator_count(self) -> usize {
        match self {
            Placement::Ps1 => 3,
            Placement::Ps2 => 4,
            Placement::Ps3 => 8,
            Placement::Pm => 12,
        }
    }

    /// Short display name matching the paper ("PS1", …, "PM").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Placement::Ps1 => "PS1",
            Placement::Ps2 => "PS2",
            Placement::Ps3 => "PS3",
            Placement::Pm => "PM",
        }
    }

    /// Builds the elevator set for this placement on `mesh`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mesh` does not match [`Placement::mesh`] (the
    /// presets are tied to their paper-specified mesh sizes).
    pub fn build(self, mesh: &Mesh3d) -> Result<ElevatorSet, TopologyError> {
        let expected = self.mesh();
        if *mesh != expected {
            return Err(TopologyError::InvalidDimensions {
                x: mesh.x(),
                y: mesh.y(),
                z: mesh.layers(),
            });
        }
        let columns: Vec<(u8, u8)> = match self {
            // Derived by `optimize_columns` (exhaustive for 4×4): the
            // `presets_match_optimizer` test pins the columns it finds.
            Placement::Ps1 => optimize_columns(mesh, 3),
            // FL-RuNS-style spread: one elevator per quadrant, rotated so no
            // two share a row or column.
            Placement::Ps2 => vec![(1, 0), (3, 1), (0, 2), (2, 3)],
            Placement::Ps3 => optimize_columns(mesh, 8),
            Placement::Pm => optimize_columns(mesh, 12),
        };
        ElevatorSet::new(mesh, columns)
    }

    /// Convenience: build both the mesh and the elevator set.
    #[must_use]
    pub fn instantiate(self) -> (Mesh3d, ElevatorSet) {
        let mesh = self.mesh();
        let elevators = self.build(&mesh).expect("preset placement is valid");
        (mesh, elevators)
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Finds `count` elevator columns minimising the average inter-layer route
/// length on `mesh` (the "optimized average distance" extraction the paper
/// describes for PS1, PS3 and PM).
///
/// The cost of a column set is the total best-case XY route length
/// `min_e (d(p, e) + d(e, q))` over all ordered pairs `(p, q)` of XY
/// positions. Because elevators are full pillars, the vertical term of
/// Eq. 4 is placement-independent and omitted.
///
/// Deterministic: exhaustive search when the layer has at most 16 columns,
/// otherwise greedy forward selection refined by pairwise-swap local search.
///
/// # Panics
///
/// Panics if `count` is zero or exceeds the number of columns.
#[must_use]
pub fn optimize_columns(mesh: &Mesh3d, count: usize) -> Vec<(u8, u8)> {
    let grid: Vec<(u8, u8)> = mesh
        .layer_coords(0)
        .map(|Coord { x, y, .. }| (x, y))
        .collect();
    assert!(
        count >= 1 && count <= grid.len(),
        "count {count} must be in 1..={}",
        grid.len()
    );

    let search = PairSearch::new(&grid);
    if grid.len() <= 16 {
        search.exhaustive(count)
    } else {
        search.greedy_with_swaps(count)
    }
}

/// A via-route length `d(p, c) + d(c, q)`. The longest one on a legal
/// layer is `4 · (MAX_DIM − 1)`, so a byte holds every value exactly and
/// `u8::MAX` is never undercut by a real route ("no column yet").
type Hops = u8;
const _: () = assert!(4 * (Mesh3d::MAX_DIM - 1) <= Hops::MAX as usize);

/// The column search, scored against a *running minimum*.
///
/// A column set's cost is `Σ_{p,q} min_{c ∈ set} via_c[p, q]` with
/// `via_c[p, q] = d(p, c) + d(c, q)`. Every trial the searches make differs
/// from a set already scored by one column, so instead of re-deriving the
/// minimum over all `k` columns for each of the `n²` pairs, each search
/// keeps the pair table `m[p, q] = min` over the columns that stay put and
/// scores a trial column `c` as `Σ min(m[p, q], via_c[p, q])` — one pass
/// over `n²` bytes, whatever `k` is. Minimum is associative and the sums
/// are integers, so each trial's cost is *the same number* the
/// from-scratch formula gives; the searches below visit trials in the
/// from-scratch order and break ties the same way (first minimum in the
/// greedy step, strict `<` in the swap and exhaustive steps), so they
/// return the same columns.
///
/// Memory is the `n × n` distance table plus one or two pair tables of
/// `n²` bytes (`count` of them for the ≤ 16-position exhaustive search):
/// `via_c` is never materialised, only read off row `c` of the distances.
struct PairSearch<'a> {
    /// The layer's XY positions; columns are indices into it.
    grid: &'a [(u8, u8)],
    /// `grid.len()`.
    n: usize,
    /// `dist[c · n + p] = d(grid[c], grid[p])`.
    dist: Vec<Hops>,
}

impl<'a> PairSearch<'a> {
    fn new(grid: &'a [(u8, u8)]) -> Self {
        let dist = grid
            .iter()
            .flat_map(|a| {
                grid.iter()
                    .map(move |b| a.0.abs_diff(b.0) + a.1.abs_diff(b.1))
            })
            .collect();
        Self {
            grid,
            n: grid.len(),
            dist,
        }
    }

    /// `d(column, ·)` over the grid.
    fn hops_from(&self, column: usize) -> &[Hops] {
        &self.dist[column * self.n..(column + 1) * self.n]
    }

    /// A pair table with no column folded in yet.
    fn no_columns(&self) -> Vec<Hops> {
        vec![Hops::MAX; self.n * self.n]
    }

    /// `m[p, q] = min(m[p, q], via_column[p, q])`.
    fn fold(&self, m: &mut [Hops], column: usize) {
        let hops = self.hops_from(column);
        for (row, &to_column) in m.chunks_exact_mut(self.n).zip(hops) {
            for (m, &from_column) in row.iter_mut().zip(hops) {
                *m = (*m).min(to_column + from_column);
            }
        }
    }

    /// `Σ_{p,q} min(m[p, q], via_column[p, q])`: the cost of the columns
    /// behind `m` plus `column`.
    fn cost_with(&self, m: &[Hops], column: usize) -> u64 {
        let hops = self.hops_from(column);
        m.chunks_exact(self.n)
            .zip(hops)
            .map(|(row, &to_column)| {
                let row_total: u32 = row
                    .iter()
                    .zip(hops)
                    .map(|(&m, &from_column)| u32::from(m.min(to_column + from_column)))
                    .sum();
                u64::from(row_total)
            })
            .sum()
    }

    fn columns(&self, chosen: &[usize]) -> Vec<(u8, u8)> {
        chosen.iter().map(|&c| self.grid[c]).collect()
    }

    /// Every `count`-subset of the grid in lexicographic order; the first
    /// of the cheapest wins. `prefix[l]` holds the pair table of the first
    /// `l` chosen columns, so advancing position `i` of the combination
    /// re-folds only levels `i..`, and the last column is scored without
    /// being folded at all.
    fn exhaustive(&self, count: usize) -> Vec<(u8, u8)> {
        let last = count - 1;
        let mut prefix = vec![self.no_columns(); count];
        let mut indices: Vec<usize> = (0..count).collect();
        let mut stale_from = 0;
        let mut best: Option<(u64, Vec<usize>)> = None;
        loop {
            for level in stale_from..last {
                let (done, rest) = prefix.split_at_mut(level + 1);
                rest[0].copy_from_slice(&done[level]);
                self.fold(&mut rest[0], indices[level]);
            }
            let cost = self.cost_with(&prefix[last], indices[last]);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, indices.clone()));
            }
            // Advance the combination (lexicographic).
            let mut i = count;
            loop {
                if i == 0 {
                    return self.columns(&best.expect("at least one combination").1);
                }
                i -= 1;
                if indices[i] != i + self.n - count {
                    indices[i] += 1;
                    for j in i + 1..count {
                        indices[j] = indices[j - 1] + 1;
                    }
                    stale_from = i;
                    break;
                }
            }
        }
    }

    fn greedy_with_swaps(&self, count: usize) -> Vec<(u8, u8)> {
        // Greedy forward selection: `chosen_min` is the table of the
        // columns picked so far.
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        let mut remaining: Vec<usize> = (0..self.n).collect();
        let mut chosen_min = self.no_columns();
        for _ in 0..count {
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &cand)| (i, self.cost_with(&chosen_min, cand)))
                .min_by_key(|&(_, cost)| cost)
                .expect("remaining is non-empty");
            let column = remaining.swap_remove(best_idx);
            self.fold(&mut chosen_min, column);
            chosen.push(column);
        }
        // Pairwise-swap local search until a fixed point. While slot `ci`
        // is being re-seated the other `count − 1` columns stay put, so
        // one table of their minimum serves every candidate for the slot.
        let mut cost: u64 = chosen_min.iter().map(|&m| u64::from(m)).sum();
        let mut others_min = chosen_min;
        loop {
            let mut improved = false;
            for ci in 0..chosen.len() {
                others_min.fill(Hops::MAX);
                for (slot, &column) in chosen.iter().enumerate() {
                    if slot != ci {
                        self.fold(&mut others_min, column);
                    }
                }
                for cand in 0..self.n {
                    if chosen.contains(&cand) {
                        continue;
                    }
                    let trial = self.cost_with(&others_min, cand);
                    if trial < cost {
                        cost = trial;
                        chosen[ci] = cand;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let mut columns = self.columns(&chosen);
        columns.sort_unstable();
        columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The column-set cost written straight from its definition.
    fn placement_cost(grid: &[(u8, u8)], columns: &[(u8, u8)]) -> u64 {
        let dist = |a: (u8, u8), b: (u8, u8)| -> u64 {
            (a.0.abs_diff(b.0) as u64) + (a.1.abs_diff(b.1) as u64)
        };
        let mut total = 0u64;
        for &p in grid {
            for &q in grid {
                let best = columns
                    .iter()
                    .map(|&e| dist(p, e) + dist(e, q))
                    .min()
                    .expect("columns is non-empty");
                total += best;
            }
        }
        total
    }

    /// Reference for [`optimize_columns`]: the same two searches, every
    /// trial scored from scratch by [`placement_cost`].
    fn naive_optimize_columns(mesh: &Mesh3d, count: usize) -> Vec<(u8, u8)> {
        let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
        if grid.len() <= 16 {
            naive_exhaustive(&grid, count)
        } else {
            naive_greedy_with_swaps(&grid, count)
        }
    }

    fn naive_exhaustive(grid: &[(u8, u8)], count: usize) -> Vec<(u8, u8)> {
        let mut best: Option<(u64, Vec<(u8, u8)>)> = None;
        let mut indices: Vec<usize> = (0..count).collect();
        loop {
            let columns: Vec<(u8, u8)> = indices.iter().map(|&i| grid[i]).collect();
            let cost = placement_cost(grid, &columns);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, columns));
            }
            let mut i = count;
            loop {
                if i == 0 {
                    return best.expect("at least one combination").1;
                }
                i -= 1;
                if indices[i] != i + grid.len() - count {
                    indices[i] += 1;
                    for j in i + 1..count {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn naive_greedy_with_swaps(grid: &[(u8, u8)], count: usize) -> Vec<(u8, u8)> {
        let mut chosen: Vec<(u8, u8)> = Vec::with_capacity(count);
        let mut remaining: Vec<(u8, u8)> = grid.to_vec();
        for _ in 0..count {
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &cand)| {
                    let mut trial = chosen.clone();
                    trial.push(cand);
                    (i, placement_cost(grid, &trial))
                })
                .min_by_key(|&(_, cost)| cost)
                .expect("remaining is non-empty");
            chosen.push(remaining.swap_remove(best_idx));
        }
        let mut cost = placement_cost(grid, &chosen);
        loop {
            let mut improved = false;
            for ci in 0..chosen.len() {
                for &cand in grid {
                    if chosen.contains(&cand) {
                        continue;
                    }
                    let old = chosen[ci];
                    chosen[ci] = cand;
                    let trial = placement_cost(grid, &chosen);
                    if trial < cost {
                        cost = trial;
                        improved = true;
                    } else {
                        chosen[ci] = old;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        chosen.sort_unstable();
        chosen
    }

    fn assert_matches_naive(x: usize, y: usize, count: usize) {
        let mesh = Mesh3d::new(x, y, 2).unwrap();
        assert_eq!(
            optimize_columns(&mesh, count),
            naive_optimize_columns(&mesh, count),
            "{x}x{y} layer, count {count}"
        );
    }

    proptest! {
        /// The running-minimum search returns the from-scratch search's
        /// columns — small symmetric layers are all ties — on both sides
        /// of the 16-position exhaustive cut-off.
        #[test]
        fn running_minimum_search_equals_naive_search(
            (x, y, count) in (1usize..=6, 1usize..=6)
                .prop_flat_map(|(x, y)| (Just(x), Just(y), 1..=x * y)),
        ) {
            assert_matches_naive(x, y, count);
        }
    }

    /// The same equality on every layer up to 6×6 for every `count`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "≈ 30 s unoptimised; CI's release tier1 step runs it in ≈ 1 s"
    )]
    fn running_minimum_search_equals_naive_search_for_every_count() {
        for x in 1..=6 {
            for y in 1..=6 {
                for count in 1..=x * y {
                    assert_matches_naive(x, y, count);
                }
            }
        }
    }

    #[test]
    fn presets_match_optimizer() {
        let columns = |placement: Placement| -> Vec<(u8, u8)> {
            let (_, elevators) = placement.instantiate();
            elevators.iter().map(|(_, column)| column).collect()
        };
        assert_eq!(columns(Placement::Ps1), [(0, 0), (2, 1), (1, 2)]);
        assert_eq!(
            columns(Placement::Ps3),
            [
                (0, 0),
                (2, 0),
                (1, 1),
                (3, 1),
                (0, 2),
                (2, 2),
                (1, 3),
                (3, 3)
            ]
        );
        assert_eq!(
            columns(Placement::Pm),
            [
                (0, 3),
                (1, 1),
                (1, 5),
                (2, 2),
                (3, 0),
                (3, 6),
                (4, 4),
                (5, 1),
                (5, 5),
                (6, 3),
                (6, 7),
                (7, 2)
            ]
        );
    }

    #[test]
    fn presets_instantiate_with_declared_counts() {
        for placement in Placement::ALL {
            let (mesh, elevators) = placement.instantiate();
            assert_eq!(elevators.len(), placement.elevator_count(), "{placement}");
            for (_, (x, y)) in elevators.iter() {
                assert!(mesh.contains(Coord::new(x, y, 0)));
            }
        }
    }

    #[test]
    fn build_rejects_mismatched_mesh() {
        let wrong = Mesh3d::new(5, 5, 2).unwrap();
        assert!(Placement::Ps1.build(&wrong).is_err());
    }

    #[test]
    fn concentration_increases_ps1_to_ps3() {
        assert!(Placement::Ps1.elevator_count() < Placement::Ps2.elevator_count());
        assert!(Placement::Ps2.elevator_count() < Placement::Ps3.elevator_count());
    }

    #[test]
    fn optimizer_beats_corner_clustering() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
        let optimised = optimize_columns(&mesh, 3);
        let clustered = vec![(0, 0), (1, 0), (0, 1)];
        assert!(
            placement_cost(&grid, &optimised) < placement_cost(&grid, &clustered),
            "optimised {optimised:?} must beat clustered corner placement"
        );
    }

    #[test]
    fn optimizer_with_full_count_covers_grid() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let all = optimize_columns(&mesh, 4);
        assert_eq!(all.len(), 4);
        let grid: Vec<(u8, u8)> = mesh.layer_coords(0).map(|c| (c.x, c.y)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let mut expected = grid.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn greedy_path_used_for_large_grid_is_deterministic() {
        let mesh = Mesh3d::new(8, 8, 4).unwrap();
        let a = optimize_columns(&mesh, 12);
        let b = optimize_columns(&mesh, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn optimizer_rejects_zero_count() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let _ = optimize_columns(&mesh, 0);
    }
}
