//! AdEle's online stage (paper Section III.C) and the baseline
//! elevator-selection policies it is compared against.
//!
//! The simulator consults an [`ElevatorSelector`] once per inter-layer
//! packet at its source router and feeds back the source-router
//! head/tail departure times ([`SourceFeedback`]) that drive AdEle's
//! local congestion estimate (Eq. 6–7).

mod adele_selector;
mod cda;
mod elevator_first;
mod selector;

pub use adele_selector::{skip_probability, AdeleSelector};
pub use cda::CdaSelector;
pub use elevator_first::ElevatorFirstSelector;
pub use selector::{
    Cycle, ElevatorSelector, NetworkProbe, SelectionContext, SourceFeedback, ZeroProbe,
};
