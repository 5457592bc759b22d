use crate::AdeleError;
use noc_topology::{ElevatorId, ElevatorSet, Mesh3d, NodeId};

/// One elevator subset (`A_i ⊆ E`) per router — the output of AdEle's
/// offline stage and the input of its online stage.
///
/// Subsets are stored as bitmasks over [`ElevatorId`]s (the workspace caps
/// elevator sets at 64 columns, far above any realistic PC-3DNoC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetAssignment {
    masks: Vec<u64>,
    elevator_count: usize,
}

impl SubsetAssignment {
    /// Builds an assignment giving every router the same full elevator set.
    #[must_use]
    pub fn full(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        let mask = if elevators.len() == 64 {
            u64::MAX
        } else {
            (1u64 << elevators.len()) - 1
        };
        Self {
            masks: vec![mask; mesh.node_count()],
            elevator_count: elevators.len(),
        }
    }

    /// Builds the Elevator-First-style assignment: every router's subset is
    /// the singleton nearest elevator.
    #[must_use]
    pub fn nearest(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        let masks = mesh
            .coords()
            .map(|c| 1u64 << elevators.nearest(c).index())
            .collect();
        Self {
            masks,
            elevator_count: elevators.len(),
        }
    }

    /// Builds an assignment from raw per-router masks.
    ///
    /// # Errors
    ///
    /// * [`AdeleError::EmptySubset`] if any mask is zero.
    /// * [`AdeleError::ElevatorCountMismatch`] if any mask references an
    ///   elevator `>= elevator_count`.
    pub fn from_masks(masks: Vec<u64>, elevator_count: usize) -> Result<Self, AdeleError> {
        let valid = if elevator_count >= 64 {
            u64::MAX
        } else {
            (1u64 << elevator_count) - 1
        };
        for (node, &mask) in masks.iter().enumerate() {
            if mask == 0 {
                return Err(AdeleError::EmptySubset { node: node as u16 });
            }
            if mask & !valid != 0 {
                return Err(AdeleError::ElevatorCountMismatch {
                    assignment: 64 - mask.leading_zeros() as usize,
                    set: elevator_count,
                });
            }
        }
        Ok(Self {
            masks,
            elevator_count,
        })
    }

    /// Number of routers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// `true` if the assignment covers no routers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Number of elevators the assignment indexes over.
    #[must_use]
    pub fn elevator_count(&self) -> usize {
        self.elevator_count
    }

    /// Raw mask for `node`.
    #[must_use]
    pub fn mask(&self, node: NodeId) -> u64 {
        self.masks[node.index()]
    }

    /// Replaces the mask for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty or references out-of-range elevators
    /// (internal use by the search; misuse is a logic error).
    pub fn set_mask(&mut self, node: NodeId, mask: u64) {
        assert_ne!(mask, 0, "subset must stay non-empty");
        let valid = if self.elevator_count >= 64 {
            u64::MAX
        } else {
            (1u64 << self.elevator_count) - 1
        };
        assert_eq!(mask & !valid, 0, "mask references unknown elevators");
        self.masks[node.index()] = mask;
    }

    /// Subset size `|A_i|` for `node`.
    #[must_use]
    pub fn subset_size(&self, node: NodeId) -> usize {
        self.masks[node.index()].count_ones() as usize
    }

    /// All raw masks, indexed by node.
    pub(crate) fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Iterates over `node`'s subset in ascending elevator-id order.
    pub fn subset(&self, node: NodeId) -> impl Iterator<Item = ElevatorId> + '_ {
        set_bits(self.masks[node.index()]).map(ElevatorId)
    }

    /// `true` if `node`'s subset contains `elevator`.
    #[must_use]
    pub fn contains(&self, node: NodeId, elevator: ElevatorId) -> bool {
        self.masks[node.index()] & (1u64 << elevator.index()) != 0
    }

    /// Checks compatibility with a mesh and elevator set.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`AdeleError`] when sizes disagree.
    pub fn check_compatible(
        &self,
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
    ) -> Result<(), AdeleError> {
        if self.masks.len() != mesh.node_count() {
            return Err(AdeleError::AssignmentSizeMismatch {
                assignment: self.masks.len(),
                mesh: mesh.node_count(),
            });
        }
        if self.elevator_count != elevators.len() {
            return Err(AdeleError::ElevatorCountMismatch {
                assignment: self.elevator_count,
                set: elevators.len(),
            });
        }
        Ok(())
    }

    /// Mean subset size across routers — a cheap redundancy metric.
    #[must_use]
    pub fn mean_subset_size(&self) -> f64 {
        if self.masks.is_empty() {
            return 0.0;
        }
        self.masks
            .iter()
            .map(|m| m.count_ones() as f64)
            .sum::<f64>()
            / self.masks.len() as f64
    }

    /// Renders one hex mask per line — human-diffable, and what the offline
    /// bit-identity pins hash. Write-only: the format that is read back is
    /// JSON (the `serde` impls below).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("elevators {}\n", self.elevator_count);
        for mask in &self.masks {
            out.push_str(&format!("{mask:x}\n"));
        }
        out
    }
}

/// The positions of `mask`'s set bits, ascending: one step per member,
/// not one per possible elevator.
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = u8> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            bit
        })
    })
}

impl serde::Serialize for SubsetAssignment {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "elevator_count".into(),
                serde::Value::UInt(self.elevator_count as u64),
            ),
            ("masks".into(), serde::Serialize::to_value(&self.masks)),
        ])
    }
}

impl serde::Deserialize for SubsetAssignment {
    /// Deserialises through [`SubsetAssignment::from_masks`], keeping the
    /// non-empty-subset and elevator-range invariants for parsed specs.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let elevator_count: usize = serde::field(value, "elevator_count")?;
        let masks: Vec<u64> = serde::field(value, "masks")?;
        Self::from_masks(masks, elevator_count)
            .map_err(|e| serde::DeError(format!("invalid subset assignment: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Coord;

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3), (1, 2)]).unwrap();
        (mesh, elevators)
    }

    #[test]
    fn full_assignment_contains_every_elevator() {
        let (mesh, elevators) = fixture();
        let a = SubsetAssignment::full(&mesh, &elevators);
        assert_eq!(a.len(), 32);
        for node in mesh.node_ids() {
            assert_eq!(a.subset_size(node), 3);
        }
        assert!(a.check_compatible(&mesh, &elevators).is_ok());
    }

    #[test]
    fn nearest_assignment_is_singleton_and_matches_geometry() {
        let (mesh, elevators) = fixture();
        let a = SubsetAssignment::nearest(&mesh, &elevators);
        for node in mesh.node_ids() {
            assert_eq!(a.subset_size(node), 1);
            let only = a.subset(node).next().unwrap();
            assert_eq!(only, elevators.nearest(mesh.coord(node)));
        }
        // Corner (0,0) picks elevator 0 at (0,0).
        let corner = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        assert!(a.contains(corner, ElevatorId(0)));
    }

    #[test]
    fn from_masks_validates() {
        assert!(matches!(
            SubsetAssignment::from_masks(vec![0b01, 0b00], 2),
            Err(AdeleError::EmptySubset { node: 1 })
        ));
        assert!(matches!(
            SubsetAssignment::from_masks(vec![0b100], 2),
            Err(AdeleError::ElevatorCountMismatch { .. })
        ));
        assert!(SubsetAssignment::from_masks(vec![0b11], 2).is_ok());
    }

    #[test]
    fn json_round_trip_preserves_masks_and_validates() {
        let (mesh, elevators) = fixture();
        let a = SubsetAssignment::nearest(&mesh, &elevators);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<SubsetAssignment>(&json).unwrap(), a);
        // Parsed assignments pass `from_masks` validation.
        assert!(
            serde_json::from_str::<SubsetAssignment>(r#"{"elevator_count": 2, "masks": [0]}"#)
                .is_err()
        );
        assert!(
            serde_json::from_str::<SubsetAssignment>(r#"{"elevator_count": 2, "masks": [4]}"#)
                .is_err()
        );
    }

    #[test]
    fn mean_subset_size_counts_bits() {
        let a = SubsetAssignment::from_masks(vec![0b1, 0b111, 0b11], 3).unwrap();
        assert!((a.mean_subset_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compatibility_checks_detect_mismatches() {
        let (mesh, elevators) = fixture();
        let a = SubsetAssignment::from_masks(vec![1; 10], 3).unwrap();
        assert!(matches!(
            a.check_compatible(&mesh, &elevators),
            Err(AdeleError::AssignmentSizeMismatch { .. })
        ));
        let b = SubsetAssignment::from_masks(vec![1; 32], 2).unwrap();
        assert!(matches!(
            b.check_compatible(&mesh, &elevators),
            Err(AdeleError::ElevatorCountMismatch { .. })
        ));
    }
}
