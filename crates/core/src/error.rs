use std::fmt;

/// Errors produced when assembling AdEle components.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdeleError {
    /// A subset assignment covers a different number of routers than the
    /// mesh it is used with.
    AssignmentSizeMismatch {
        /// Routers in the assignment.
        assignment: usize,
        /// Routers in the mesh.
        mesh: usize,
    },
    /// A subset assignment references elevator ids beyond the elevator set.
    ElevatorCountMismatch {
        /// Elevators assumed by the assignment.
        assignment: usize,
        /// Elevators in the set.
        set: usize,
    },
    /// A router's elevator subset is empty.
    EmptySubset {
        /// The offending router.
        node: u16,
    },
    /// An [`AdeleConfig`](crate::AdeleConfig) field is out of range.
    InvalidConfig {
        /// [`AdeleConfig::validate`](crate::AdeleConfig::validate)'s
        /// message, naming the field.
        reason: String,
    },
}

impl fmt::Display for AdeleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdeleError::AssignmentSizeMismatch { assignment, mesh } => write!(
                f,
                "assignment covers {assignment} routers but the mesh has {mesh}"
            ),
            AdeleError::ElevatorCountMismatch { assignment, set } => write!(
                f,
                "assignment assumes {assignment} elevators but the set has {set}"
            ),
            AdeleError::EmptySubset { node } => {
                write!(f, "router n{node} has an empty elevator subset")
            }
            AdeleError::InvalidConfig { reason } => write!(f, "AdEle config: {reason}"),
        }
    }
}

impl std::error::Error for AdeleError {}
