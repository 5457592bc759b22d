use crate::{Coord, Mesh3d, TopologyError};
use std::fmt;

/// Index of an elevator column within an [`ElevatorSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ElevatorId(pub u8);

impl ElevatorId {
    /// The dense index as a `usize`, for container indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElevatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u8> for ElevatorId {
    fn from(raw: u8) -> Self {
        ElevatorId(raw)
    }
}

impl serde::Serialize for ElevatorId {
    fn to_value(&self) -> serde::Value {
        serde::Value::UInt(u64::from(self.0))
    }
}

impl serde::Deserialize for ElevatorId {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        u8::from_value(value).map(ElevatorId)
    }
}

/// A set of elevators as a bitmask — the form pillar health takes: the
/// simulated network owns the one mask of failed pillars, and selection
/// policies read it through their network probe.
///
/// Supports up to 64 elevators; [`ElevatorMask::set`] asserts the id fits,
/// making the limit explicit instead of silently wrapping the shift on
/// larger sets (every paper placement has ≤ 12; revisit if a mega-mesh
/// ever carries more than 64 pillars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElevatorMask(u64);

impl ElevatorMask {
    /// The empty mask.
    pub const EMPTY: ElevatorMask = ElevatorMask(0);

    /// Sets (`on == true`) or clears elevator `id`'s bit.
    ///
    /// # Panics
    ///
    /// Panics if `id.index() >= 64` (the mask cannot represent it).
    pub fn set(&mut self, id: ElevatorId, on: bool) {
        assert!(
            id.index() < 64,
            "ElevatorMask supports at most 64 elevators, got {id}"
        );
        if on {
            self.0 |= 1 << id.index();
        } else {
            self.0 &= !(1 << id.index());
        }
    }

    /// `true` if elevator `id`'s bit is set.
    ///
    /// Ids beyond the 64-elevator capacity are never contained (they can
    /// never be set), so membership tests need no bound check.
    #[must_use]
    pub fn contains(self, id: ElevatorId) -> bool {
        id.index() < 64 && self.0 & (1 << id.index()) != 0
    }

    /// `true` if no bit is set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bits (bit `i` = elevator `i`).
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }
}

/// The set of vertical-link columns of a PC-3DNoC.
///
/// Each elevator is a full TSV pillar at one `(x, y)` column, connecting all
/// `Z` layers (the model used by Elevator-First \[10\] and AdEle). The set is
/// ordered; [`ElevatorId`]s index into it.
///
/// ```
/// use noc_topology::{Coord, ElevatorSet, Mesh3d};
/// let mesh = Mesh3d::new(4, 4, 4)?;
/// let set = ElevatorSet::new(&mesh, [(0, 0), (3, 3)])?;
/// assert_eq!(set.len(), 2);
/// assert!(set.column_at(Coord::new(0, 0, 2)).is_some());
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElevatorSet {
    /// `(x, y)` column of each elevator, in id order.
    columns: Vec<(u8, u8)>,
    /// `column_of[x + y * X]` = elevator id at that column, if any.
    column_of: Vec<Option<ElevatorId>>,
    mesh_x: usize,
}

impl ElevatorSet {
    /// Builds an elevator set from `(x, y)` column positions.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::EmptyElevatorSet`] if `columns` is empty.
    /// * [`TopologyError::CoordOutOfBounds`] if a column lies outside the
    ///   mesh's XY plane.
    /// * [`TopologyError::DuplicateElevator`] if a column repeats.
    pub fn new(
        mesh: &Mesh3d,
        columns: impl IntoIterator<Item = (u8, u8)>,
    ) -> Result<Self, TopologyError> {
        let mut set = Self {
            columns: Vec::new(),
            column_of: vec![None; mesh.nodes_per_layer()],
            mesh_x: mesh.x(),
        };
        for (x, y) in columns {
            let coord = Coord::new(x, y, 0);
            if !mesh.contains(coord) {
                return Err(TopologyError::CoordOutOfBounds { coord });
            }
            let slot = &mut set.column_of[x as usize + y as usize * set.mesh_x];
            if slot.is_some() {
                return Err(TopologyError::DuplicateElevator { x, y });
            }
            let id = ElevatorId(set.columns.len() as u8);
            *slot = Some(id);
            set.columns.push((x, y));
        }
        if set.columns.is_empty() {
            return Err(TopologyError::EmptyElevatorSet);
        }
        Ok(set)
    }

    /// Number of elevators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if the set contains no elevators (never true for a
    /// successfully constructed set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// `(x, y)` column of elevator `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn column(&self, id: ElevatorId) -> (u8, u8) {
        self.columns[id.index()]
    }

    /// Elevator id at `coord`'s column, if that column has a TSV pillar.
    #[must_use]
    pub fn column_at(&self, coord: Coord) -> Option<ElevatorId> {
        self.column_of[coord.x as usize + coord.y as usize * self.mesh_x]
    }

    /// `true` if the router at `coord` has vertical links.
    #[must_use]
    pub fn is_elevator_router(&self, coord: Coord) -> bool {
        self.column_at(coord).is_some()
    }

    /// `true` if this set was built for (or deserialised compatibly with)
    /// `mesh`'s XY plane: same row stride, same per-layer node count, and
    /// every column inside the mesh. Sets that fail this check would
    /// mis-index or panic in [`ElevatorSet::column_at`] — callers stitching
    /// a mesh and an elevator set from separate sources (e.g. a parsed
    /// scenario spec) should check before use.
    #[must_use]
    pub fn is_compatible_with(&self, mesh: &Mesh3d) -> bool {
        self.mesh_x == mesh.x()
            && self.column_of.len() == mesh.nodes_per_layer()
            && self
                .columns
                .iter()
                .all(|&(x, y)| mesh.contains(Coord::new(x, y, 0)))
    }

    /// Iterates over `(id, (x, y))` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ElevatorId, (u8, u8))> + '_ {
        self.columns
            .iter()
            .enumerate()
            .map(|(i, &col)| (ElevatorId(i as u8), col))
    }

    /// All elevator ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ElevatorId> + '_ {
        (0..self.columns.len() as u8).map(ElevatorId)
    }

    /// In-layer Manhattan distance from `from` to elevator `id`'s column.
    #[must_use]
    pub fn xy_distance(&self, from: Coord, id: ElevatorId) -> u32 {
        let (x, y) = self.column(id);
        from.xy_distance(Coord::new(x, y, from.z))
    }

    /// The elevator closest (in-layer Manhattan) to `from`.
    ///
    /// Ties break toward the lowest [`ElevatorId`], matching the
    /// deterministic behaviour assumed for the Elevator-First baseline.
    #[must_use]
    pub fn nearest(&self, from: Coord) -> ElevatorId {
        self.nearest_among(from, self.ids())
            .expect("elevator set is never empty")
    }

    /// The closest elevator among `candidates` (ties toward lowest id).
    ///
    /// Returns `None` if `candidates` is empty.
    pub fn nearest_among(
        &self,
        from: Coord,
        candidates: impl IntoIterator<Item = ElevatorId>,
    ) -> Option<ElevatorId> {
        candidates
            .into_iter()
            .map(|id| (self.xy_distance(from, id), id))
            .min()
            .map(|(_, id)| id)
    }

    /// Detour cost of sending a packet from `src` to `dst` via elevator
    /// `id`: `d(src, e) + d(e, dst)` in the XY plane (Eq. 4's
    /// `d_se + d_ed`; the vertical term `d_e` is the same for every
    /// elevator, so it does not affect comparisons).
    #[must_use]
    pub fn route_xy_length(&self, src: Coord, dst: Coord, id: ElevatorId) -> u32 {
        let (x, y) = self.column(id);
        let pillar = Coord::new(x, y, 0);
        src.xy_distance(pillar) + pillar.xy_distance(dst)
    }

    /// The elevator that keeps `src → dst` on a minimal path if one exists,
    /// otherwise the one with the smallest detour (Eq. 4). Ties break toward
    /// the lowest id. Used by AdEle's low-traffic override.
    pub fn minimal_path_among(
        &self,
        src: Coord,
        dst: Coord,
        candidates: impl IntoIterator<Item = ElevatorId>,
    ) -> Option<ElevatorId> {
        candidates
            .into_iter()
            .map(|id| (self.route_xy_length(src, dst, id), id))
            .min()
            .map(|(_, id)| id)
    }
}

impl serde::Serialize for ElevatorSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("mesh_x".into(), serde::Value::UInt(self.mesh_x as u64)),
            (
                "nodes_per_layer".into(),
                serde::Value::UInt(self.column_of.len() as u64),
            ),
            ("columns".into(), serde::Serialize::to_value(&self.columns)),
        ])
    }
}

impl serde::Deserialize for ElevatorSet {
    /// Deserialises the self-contained form written by `Serialize`
    /// (columns plus the XY-plane geometry), re-running the constructor's
    /// validation: non-empty, in-bounds, duplicate-free columns.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let mesh_x: usize = serde::field(value, "mesh_x")?;
        let nodes_per_layer: usize = serde::field(value, "nodes_per_layer")?;
        let columns: Vec<(u8, u8)> = serde::field(value, "columns")?;
        if mesh_x == 0 || nodes_per_layer == 0 || !nodes_per_layer.is_multiple_of(mesh_x) {
            return Err(serde::DeError(format!(
                "invalid elevator-set geometry: mesh_x {mesh_x}, \
                 nodes_per_layer {nodes_per_layer}"
            )));
        }
        if columns.is_empty() {
            return Err(serde::DeError("empty elevator set".into()));
        }
        // The fault-bookkeeping mask caps elevator ids at 64; reject the
        // excess here (the untrusted-input path) instead of panicking in
        // `ElevatorMask::set` mid-run.
        if columns.len() > 64 {
            return Err(serde::DeError(format!(
                "{} elevator columns exceed the 64-elevator capacity",
                columns.len()
            )));
        }
        let mut set = Self {
            columns: Vec::new(),
            column_of: vec![None; nodes_per_layer],
            mesh_x,
        };
        for (x, y) in columns {
            let index = x as usize + y as usize * mesh_x;
            if x as usize >= mesh_x || index >= nodes_per_layer {
                return Err(serde::DeError(format!(
                    "elevator column ({x}, {y}) outside the XY plane"
                )));
            }
            let slot = &mut set.column_of[index];
            if slot.is_some() {
                return Err(serde::DeError(format!(
                    "duplicate elevator column ({x}, {y})"
                )));
            }
            *slot = Some(ElevatorId(set.columns.len() as u8));
            set.columns.push((x, y));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh3d {
        Mesh3d::new(4, 4, 4).unwrap()
    }

    fn set() -> ElevatorSet {
        ElevatorSet::new(&mesh(), [(0, 0), (3, 1), (1, 3)]).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        let m = mesh();
        assert!(matches!(
            ElevatorSet::new(&m, []),
            Err(TopologyError::EmptyElevatorSet)
        ));
        assert!(matches!(
            ElevatorSet::new(&m, [(4, 0)]),
            Err(TopologyError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(
            ElevatorSet::new(&m, [(1, 1), (1, 1)]),
            Err(TopologyError::DuplicateElevator { x: 1, y: 1 })
        ));
    }

    #[test]
    fn column_lookup_matches_iteration() {
        let s = set();
        for (id, (x, y)) in s.iter() {
            for z in 0..4 {
                assert_eq!(s.column_at(Coord::new(x, y, z)), Some(id));
                assert!(s.is_elevator_router(Coord::new(x, y, z)));
            }
        }
        assert_eq!(s.column_at(Coord::new(2, 2, 0)), None);
    }

    #[test]
    fn nearest_breaks_ties_by_lowest_id() {
        let m = mesh();
        // Elevators at distance 2 on both sides of (1, 1).
        let s = ElevatorSet::new(&m, [(3, 1), (1, 3)]).unwrap();
        let from = Coord::new(1, 1, 0);
        assert_eq!(s.xy_distance(from, ElevatorId(0)), 2);
        assert_eq!(s.xy_distance(from, ElevatorId(1)), 2);
        assert_eq!(s.nearest(from), ElevatorId(0));
    }

    #[test]
    fn nearest_among_empty_is_none() {
        let s = set();
        assert_eq!(s.nearest_among(Coord::new(0, 0, 0), []), None);
    }

    #[test]
    fn route_xy_length_is_detour_metric() {
        let s = set();
        let src = Coord::new(0, 1, 0);
        let dst = Coord::new(0, 2, 1);
        // Elevator e0 at (0,0): 1 + 2 = 3. Direct distance is 1.
        assert_eq!(s.route_xy_length(src, dst, ElevatorId(0)), 3);
        // Minimal-path elevator among all three is e2 at (1,3): 3+2=5? No:
        // e1 at (3,1): 3 + 4 = 7; e2 at (1,3): 3 + 2 = 5. e0 wins.
        assert_eq!(s.minimal_path_among(src, dst, s.ids()), Some(ElevatorId(0)));
    }

    #[test]
    fn elevator_mask_sets_clears_and_queries() {
        let mut m = ElevatorMask::EMPTY;
        assert!(m.is_empty());
        m.set(ElevatorId(3), true);
        m.set(ElevatorId(63), true);
        assert!(m.contains(ElevatorId(3)));
        assert!(m.contains(ElevatorId(63)));
        assert!(!m.contains(ElevatorId(0)));
        assert!(
            !m.contains(ElevatorId(64)),
            "out-of-capacity ids are never members"
        );
        assert!(!m.is_empty());
        m.set(ElevatorId(3), false);
        assert!(!m.contains(ElevatorId(3)));
        assert_eq!(m.bits(), 1 << 63);
        assert_eq!(ElevatorMask::default(), ElevatorMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "at most 64 elevators")]
    fn elevator_mask_rejects_out_of_range_sets() {
        let mut mask = ElevatorMask::EMPTY;
        mask.set(ElevatorId(64), true);
    }

    #[test]
    fn compatibility_check_matches_construction_mesh() {
        let m = mesh();
        let s = set();
        assert!(s.is_compatible_with(&m));
        // Different stride, different plane size, out-of-bounds column.
        assert!(!s.is_compatible_with(&Mesh3d::new(8, 4, 4).unwrap()));
        assert!(!s.is_compatible_with(&Mesh3d::new(4, 3, 4).unwrap()));
        let narrow = Mesh3d::new(4, 2, 4).unwrap();
        assert!(!ElevatorSet::new(&m, [(1, 3)])
            .unwrap()
            .is_compatible_with(&narrow));
    }

    #[test]
    fn elevator_set_json_round_trips() {
        let s = set();
        let json = serde_json::to_string(&s).unwrap();
        let parsed: ElevatorSet = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, s);
        // Lookups, not just the column list, survive the round trip.
        assert_eq!(parsed.column_at(Coord::new(3, 1, 2)), Some(ElevatorId(1)));
        assert_eq!(parsed.column_at(Coord::new(2, 2, 0)), None);
    }

    #[test]
    fn elevator_set_deserialize_validates() {
        for bad in [
            r#"{"mesh_x": 4, "nodes_per_layer": 16, "columns": []}"#,
            r#"{"mesh_x": 4, "nodes_per_layer": 16, "columns": [[4, 0]]}"#,
            r#"{"mesh_x": 4, "nodes_per_layer": 16, "columns": [[1, 1], [1, 1]]}"#,
            r#"{"mesh_x": 0, "nodes_per_layer": 16, "columns": [[0, 0]]}"#,
            r#"{"mesh_x": 4, "nodes_per_layer": 15, "columns": [[0, 0]]}"#,
        ] {
            assert!(serde_json::from_str::<ElevatorSet>(bad).is_err(), "{bad}");
        }
        // More columns than the 64-elevator mask capacity: a parse error,
        // not a mid-run `ElevatorMask::set` panic.
        let columns: Vec<String> = (0..65).map(|i| format!("[{},{}]", i % 9, i / 9)).collect();
        let oversized = format!(
            r#"{{"mesh_x": 9, "nodes_per_layer": 81, "columns": [{}]}}"#,
            columns.join(",")
        );
        let err = serde_json::from_str::<ElevatorSet>(&oversized).unwrap_err();
        assert!(err.to_string().contains("64-elevator"), "{err}");
    }
}
