//! The AMOSA archive: a bounded store of mutually non-dominated solutions.

use crate::clustering;
use crate::dominance::{self, Dominance};

/// A solution plus its objective vector, as stored in the archive and
/// returned to callers.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint<S> {
    /// The solution itself.
    pub solution: S,
    /// Objective values (minimisation convention).
    pub objectives: Vec<f64>,
}

/// Bounded non-dominated archive with soft limit `SL` and hard limit `HL`.
///
/// Invariant: no member dominates another. When an insertion pushes the
/// size past `SL`, single-linkage clustering shrinks the archive to `HL`.
#[derive(Debug, Clone)]
pub struct Archive<S> {
    points: Vec<ParetoPoint<S>>,
    /// Per-objective minimum and maximum over `points`, refreshed by every
    /// mutation: the annealer reads them once per candidate, and mutates
    /// the archive for fewer than one candidate in ten.
    lo: Vec<f64>,
    hi: Vec<f64>,
    soft_limit: usize,
    hard_limit: usize,
}

impl<S: Clone> Archive<S> {
    /// Creates an empty archive.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= hard_limit <= soft_limit`.
    #[must_use]
    pub fn new(soft_limit: usize, hard_limit: usize) -> Self {
        assert!(
            (1..=soft_limit).contains(&hard_limit),
            "limits must satisfy 1 <= HL({hard_limit}) <= SL({soft_limit})"
        );
        Self {
            points: Vec::with_capacity(soft_limit + 1),
            lo: Vec::new(),
            hi: Vec::new(),
            soft_limit,
            hard_limit,
        }
    }

    /// Current number of archived points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the archive holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Immutable view of the archived points.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint<S>] {
        &self.points
    }

    /// Consumes the archive, returning its points.
    #[must_use]
    pub fn into_points(self) -> Vec<ParetoPoint<S>> {
        self.points
    }

    /// Per-objective `(minima, maxima)` across the archive. Both empty if
    /// the archive is empty.
    pub(crate) fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lo, &self.hi)
    }

    /// Per-objective value ranges (max − min) across the archive, for
    /// Δdom normalisation. Empty if the archive is empty.
    #[must_use]
    pub fn ranges(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).collect()
    }

    fn refresh_bounds(&mut self) {
        let m = self.points.first().map_or(0, |p| p.objectives.len());
        self.lo.clear();
        self.lo.resize(m, f64::INFINITY);
        self.hi.clear();
        self.hi.resize(m, f64::NEG_INFINITY);
        for p in &self.points {
            for (i, &v) in p.objectives.iter().enumerate() {
                self.lo[i] = self.lo[i].min(v);
                self.hi[i] = self.hi[i].max(v);
            }
        }
    }

    /// Indices of archive members dominating `objectives`.
    #[must_use]
    pub fn dominators_of(&self, objectives: &[f64]) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| dominance::compare(&p.objectives, objectives) == Dominance::Dominates)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of archive members dominated by `objectives`.
    #[must_use]
    pub fn dominated_by(&self, objectives: &[f64]) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| dominance::compare(objectives, &p.objectives) == Dominance::Dominates)
            .map(|(i, _)| i)
            .collect()
    }

    /// Inserts a point known (by the caller) to be non-dominated with
    /// respect to the archive, first evicting any members it dominates.
    /// Triggers clustering if the soft limit is exceeded.
    pub fn insert(&mut self, point: ParetoPoint<S>) {
        debug_assert!(
            self.dominators_of(&point.objectives).is_empty(),
            "inserting a dominated point violates the archive invariant"
        );
        let mut doomed = self.dominated_by(&point.objectives);
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for idx in doomed {
            self.points.swap_remove(idx);
        }
        self.points.push(point);
        self.refresh_bounds();
        if self.points.len() > self.soft_limit {
            self.shrink_to_hard_limit();
        }
    }

    /// Clusters the archive down to the hard limit (also applied once at
    /// the end of an AMOSA run, per the paper).
    pub fn shrink_to_hard_limit(&mut self) {
        if self.points.len() <= self.hard_limit {
            return;
        }
        let objectives: Vec<Vec<f64>> = self.points.iter().map(|p| p.objectives.clone()).collect();
        let ranges = self.ranges();
        let mut keep = clustering::reduce_to(&objectives, &ranges, self.hard_limit);
        keep.sort_unstable();
        self.points = keep.into_iter().map(|i| self.points[i].clone()).collect();
        self.refresh_bounds();
    }

    /// Verifies the non-domination invariant (test helper; O(n²)).
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.points.iter().enumerate().all(|(i, a)| {
            self.points
                .iter()
                .enumerate()
                .all(|(j, b)| i == j || !dominance::dominates(&a.objectives, &b.objectives))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(objs: &[f64]) -> ParetoPoint<&'static str> {
        ParetoPoint {
            solution: "s",
            objectives: objs.to_vec(),
        }
    }

    #[test]
    fn insert_evicts_dominated_members() {
        let mut a = Archive::new(10, 5);
        a.insert(pt(&[3.0, 3.0]));
        a.insert(pt(&[4.0, 2.0]));
        a.insert(pt(&[2.0, 2.0])); // dominates both
        assert_eq!(a.len(), 1);
        assert_eq!(a.points()[0].objectives, vec![2.0, 2.0]);
        assert!(a.invariant_holds());
    }

    #[test]
    fn non_dominated_points_accumulate() {
        let mut a = Archive::new(10, 5);
        for i in 0..5 {
            let x = f64::from(i);
            a.insert(pt(&[x, 4.0 - x]));
        }
        assert_eq!(a.len(), 5);
        assert!(a.invariant_holds());
    }

    #[test]
    fn soft_limit_triggers_clustering_to_hard_limit() {
        let mut a = Archive::new(6, 3);
        for i in 0..7 {
            let x = f64::from(i);
            a.insert(pt(&[x, 6.0 - x]));
        }
        assert!(a.len() <= 3, "archive len {} after clustering", a.len());
        assert!(a.invariant_holds());
    }

    #[test]
    fn ranges_span_the_archive() {
        let mut a = Archive::new(10, 5);
        a.insert(pt(&[1.0, 10.0]));
        a.insert(pt(&[3.0, 4.0]));
        assert_eq!(a.ranges(), vec![2.0, 6.0]);
    }

    #[test]
    fn ranges_follow_evictions_and_clustering() {
        let mut a = Archive::new(4, 2);
        assert!(a.ranges().is_empty());
        a.insert(pt(&[1.0, 10.0]));
        a.insert(pt(&[3.0, 4.0]));
        // Evicts [3, 4], which held both the x maximum and the y minimum.
        a.insert(pt(&[2.0, 3.0]));
        assert_eq!(a.ranges(), vec![1.0, 7.0]);
        // Past the soft limit: whatever clustering keeps, the ranges are
        // those of the survivors.
        for x in [4.0, 5.0, 6.0] {
            a.insert(pt(&[x, 3.0 - x / 10.0]));
        }
        assert!(a.len() <= 2);
        let spread = |i: usize| {
            let values = a.points().iter().map(|p| p.objectives[i]);
            values.clone().fold(f64::NEG_INFINITY, f64::max) - values.fold(f64::INFINITY, f64::min)
        };
        assert_eq!(a.ranges(), vec![spread(0), spread(1)]);
    }

    #[test]
    fn dominator_queries() {
        let mut a = Archive::new(10, 5);
        a.insert(pt(&[1.0, 5.0]));
        a.insert(pt(&[5.0, 1.0]));
        assert_eq!(a.dominators_of(&[6.0, 6.0]).len(), 2);
        assert_eq!(a.dominators_of(&[0.5, 0.5]).len(), 0);
        assert_eq!(a.dominated_by(&[0.5, 0.5]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "limits must satisfy")]
    fn rejects_inverted_limits() {
        let _ = Archive::<u8>::new(3, 5);
    }
}
