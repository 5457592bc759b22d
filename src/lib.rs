//! Umbrella crate for the AdEle reproduction workspace.
//!
//! This package exists to anchor the workspace-level integration tests
//! (`tests/`) and the runnable examples (`examples/`); the library itself
//! is a thin facade re-exporting the seven member crates so downstream
//! experiments can depend on a single name:
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`topology`] | `noc_topology` | 3D mesh, elevator columns, Elevator-First routing geometry |
//! | [`traffic`] | `noc_traffic` | synthetic patterns, injection processes, app models, `f_ij` matrices |
//! | [`amosa`] | `amosa` | archived multi-objective simulated annealing |
//! | [`core`] | `adele` | offline subset search + online selection policies |
//! | [`area`] | `noc_area` | 45 nm analytical router-area model (Table III) |
//! | [`sim`] | `noc_sim` | cycle-level wormhole simulator + run harness |
//! | [`mod@bench`] | `adele_bench` | shared harness for the `repro` figures, `run_specs` and `noc_trace` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adele as core;
pub use adele_bench as bench;
pub use amosa;
pub use noc_area as area;
pub use noc_sim as sim;
pub use noc_topology as topology;
pub use noc_traffic as traffic;
