use std::fmt;

/// A 3D router coordinate: `x`/`y` within a layer, `z` selecting the layer.
///
/// Coordinates are small by construction (meshes are at most 64 in each
/// dimension), so the type is `Copy` and cheap to pass around.
///
/// ```
/// use noc_topology::Coord;
/// let c = Coord::new(1, 2, 3);
/// assert_eq!((c.x, c.y, c.z), (1, 2, 3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Coord {
    /// Position along the X dimension (east-west).
    pub x: u8,
    /// Position along the Y dimension (north-south).
    pub y: u8,
    /// Layer index (0 = bottom die).
    pub z: u8,
}

impl Coord {
    /// Creates a coordinate from its three components.
    #[must_use]
    pub const fn new(x: u8, y: u8, z: u8) -> Self {
        Self { x, y, z }
    }

    /// Manhattan distance to `other`, counting vertical hops.
    ///
    /// ```
    /// use noc_topology::Coord;
    /// let a = Coord::new(0, 0, 0);
    /// let b = Coord::new(2, 1, 3);
    /// assert_eq!(a.manhattan(b), 6);
    /// ```
    #[must_use]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.xy_distance(other) + self.z.abs_diff(other.z) as u32
    }

    /// In-layer (XY-plane) Manhattan distance to `other`, ignoring layers.
    #[must_use]
    pub fn xy_distance(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Dense index of a router within a [`Mesh3d`](crate::Mesh3d).
///
/// Node ids enumerate routers layer-by-layer, row-by-row:
/// `id = x + y * X + z * X * Y`. They index directly into `Vec`s of
/// per-router state throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The dense index as a `usize`, for container indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u16 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric_and_zero_on_self() {
        let a = Coord::new(1, 5, 2);
        let b = Coord::new(4, 0, 3);
        assert_eq!(a.manhattan(b), b.manhattan(a));
        assert_eq!(a.manhattan(a), 0);
        assert_eq!(a.manhattan(b), 3 + 5 + 1);
    }

    #[test]
    fn xy_distance_ignores_layer() {
        let a = Coord::new(1, 1, 0);
        let b = Coord::new(1, 1, 3);
        assert_eq!(a.xy_distance(b), 0);
        assert_eq!(a.manhattan(b), 3);
    }

    #[test]
    fn node_id_round_trips_through_u16() {
        let id = NodeId::from(42u16);
        assert_eq!(u16::from(id), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn coord_display_is_tuple_like() {
        assert_eq!(Coord::new(1, 2, 3).to_string(), "(1, 2, 3)");
    }
}
