//! The simulator side of the flight recorder: a [`Tracer`] couples a
//! `noc_obs` journal writer with the open trace window.
//!
//! The simulator has one cycle body, compiled twice: unwatched (no clock,
//! no journal) and watched (each fired event journaled, a wall clock
//! lapped at every phase boundary). Attaching a tracer makes
//! [`crate::Simulator::step`] run the watched instantiation and book each
//! cycle's sample straight into the open window, which is handed over
//! and reopened empty every `period` cycles — so traced and untraced runs
//! are bit-identical in everything but wall time. With no tracer
//! attached, the step path never touches any of this (one `Option`
//! check), which is what keeps the disabled overhead at zero.

use crate::hooks::Event;
use noc_obs::{FabricHists, Record, TraceWriter, WindowDelta};
use serde::Value;
use std::io;

/// A journal writer + the open trace window, attached to one simulator.
///
/// Write errors are sticky (the [`TraceWriter`] latches the first one
/// and [`Tracer::finish`] reports it): the simulation itself never aborts
/// because a trace sink went away.
#[derive(Debug)]
pub struct Tracer {
    writer: TraceWriter,
    period: u64,
    /// The open window: what the watched cycles booked since the last
    /// `window` record. Closing it takes it whole (`std::mem::take`).
    pub(crate) window: WindowDelta,
    /// Cumulative fabric-occupancy histograms, sampled serially at each
    /// window boundary (the journal's `hist` records carry snapshots).
    fabric: FabricHists,
}

impl Tracer {
    /// Couples `writer` with an empty window; a `window` record is
    /// emitted every `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(writer: TraceWriter, period: u64) -> Self {
        assert!(period >= 1, "trace window period must be at least 1");
        Self {
            writer,
            period,
            window: WindowDelta::default(),
            fabric: FabricHists::new(),
        }
    }

    /// The window period in cycles.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The cumulative fabric-occupancy histograms.
    #[must_use]
    pub fn fabric_hists(&self) -> &FabricHists {
        &self.fabric
    }

    pub(crate) fn fabric_mut(&mut self) -> &mut FabricHists {
        &mut self.fabric
    }

    /// Appends a record (a no-op once a write has failed).
    pub(crate) fn write(&mut self, record: &Record) {
        self.writer.write(record);
    }

    /// Flushes the journal and returns the record count, or the first
    /// write error if any write failed along the way.
    ///
    /// # Errors
    ///
    /// Returns the latched first write error, or the flush failure.
    pub fn finish(self) -> io::Result<u64> {
        self.writer.finish()
    }
}

/// The `event` record for a scheduled event firing at `cycle`.
pub(crate) fn event_record(cycle: u64, event: &Event) -> Record {
    let (kind, detail) = match event {
        Event::ElevatorFail { elevator, .. } => (
            "fail_elevator",
            vec![("elevator".to_string(), Value::UInt(u64::from(elevator.0)))],
        ),
        Event::ElevatorRecover { elevator, .. } => (
            "recover_elevator",
            vec![("elevator".to_string(), Value::UInt(u64::from(elevator.0)))],
        ),
        Event::InjectionBurst { factor, .. } => (
            "scale_injection",
            vec![("factor".to_string(), Value::Float(*factor))],
        ),
        Event::HotspotShift {
            hotspots, fraction, ..
        } => (
            "shift_hotspot",
            vec![
                ("hotspots".to_string(), Value::UInt(hotspots.len() as u64)),
                ("fraction".to_string(), Value::Float(*fraction)),
            ],
        ),
        Event::FabricFreeze { cycles, .. } => (
            "freeze_fabric",
            vec![("cycles".to_string(), Value::UInt(*cycles))],
        ),
    };
    Record::Event {
        cycle,
        kind: kind.to_string(),
        detail: Value::Object(detail),
    }
}
