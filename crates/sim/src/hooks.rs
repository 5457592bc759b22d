//! The mid-run event-hook API.
//!
//! An [`Event`] is a cycle-stamped state change for a running simulation:
//! a TSV pillar dying or coming back, a traffic burst, a hotspot moving, a
//! fabric freeze. It is written in topology terms (elevator ids, hotspot
//! *coordinates*), so scenario specs carry it as plain data (`noc_exp`
//! re-exports it), and the simulator takes it as is:
//! [`crate::Simulator::schedule`] queues it, and it fires at the **start**
//! of its cycle, before traffic generation — so elevator selection for
//! packets created that cycle already sees the new world.
//!
//! The elevator fault model is deliberately graceful: a failed pillar stops
//! being *selected* but flits already routed through it keep draining —
//! modelling a drained power-down rather than a hard link cut, which would
//! strand in-flight wormholes. Pillar health has one owner, the network's
//! failed-elevator mask; selectors read it through
//! [`adele::online::NetworkProbe::failed_elevators`].

use adele::online::Cycle;
use noc_topology::{Coord, ElevatorId, ElevatorSet, Mesh3d, NodeId};

/// Resolves hotspot coordinates against `mesh` (shared by a firing
/// [`Event::HotspotShift`] and workload instantiation).
///
/// # Panics
///
/// Panics if a coordinate lies outside the mesh — a scenario authoring
/// error.
#[must_use]
pub fn resolve_hotspots(mesh: &Mesh3d, hotspots: &[Coord]) -> Vec<NodeId> {
    hotspots
        .iter()
        .map(|&c| {
            mesh.node_id(c)
                .unwrap_or_else(|_| panic!("hotspot {c} outside the mesh"))
        })
        .collect()
}

/// Validates a hotspot target list + fraction against `mesh` (shared by
/// event validation and workload-spec validation, so the two paths cannot
/// drift).
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_hotspots(mesh: &Mesh3d, hotspots: &[Coord], fraction: f64) -> Result<(), String> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(format!("hotspot fraction {fraction} outside [0, 1]"));
    }
    if hotspots.is_empty() {
        return Err("hotspot list is empty".into());
    }
    for &c in hotspots {
        if !mesh.contains(c) {
            return Err(format!("hotspot {c} outside the mesh"));
        }
    }
    Ok(())
}

/// A cycle-stamped state change applied to a running simulation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    /// Elevator `elevator` dies at `cycle`: selectors stop choosing it,
    /// in-flight packets drain (graceful power-down model).
    ElevatorFail {
        /// Firing cycle.
        cycle: Cycle,
        /// The pillar that dies.
        elevator: ElevatorId,
    },
    /// A previously failed elevator comes back at `cycle`.
    ElevatorRecover {
        /// Firing cycle.
        cycle: Cycle,
        /// The pillar that recovers.
        elevator: ElevatorId,
    },
    /// The offered load is multiplied by `factor` from `cycle` on
    /// (`> 1` burst, `< 1` lull; compose two events for a bounded burst).
    InjectionBurst {
        /// Firing cycle.
        cycle: Cycle,
        /// Non-negative rate multiplier.
        factor: f64,
    },
    /// The workload's spatial pattern re-aims at new hotspots at `cycle`.
    HotspotShift {
        /// Firing cycle.
        cycle: Cycle,
        /// Hotspot router coordinates.
        hotspots: Vec<Coord>,
        /// Probability that a packet targets a hotspot.
        fraction: f64,
    },
    /// The fabric wedges solid for `cycles` cycles from `cycle` on: no
    /// flit moves, traffic queues at the NIs, the watchdog keeps
    /// counting. The chaos-harness stressor — a freeze outlasting the
    /// watchdog produces a deterministic [`crate::SimError::Deadlock`] at
    /// an exact cycle; a shorter one is a recoverable stall that only
    /// shows up in latency (a glitched clock domain, a firmware pause).
    /// Overlapping freezes extend each other.
    FabricFreeze {
        /// Firing cycle.
        cycle: Cycle,
        /// Length of the freeze in cycles.
        cycles: u64,
    },
}

impl Event {
    /// Checks the event against the topology it will fire on: elevator
    /// ids must exist in `elevators`, hotspots must lie inside `mesh`,
    /// factors and fractions must be sane. Run on every event of a parsed
    /// scenario spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self, mesh: &Mesh3d, elevators: &ElevatorSet) -> Result<(), String> {
        let elevator_ok = |id: ElevatorId| {
            if id.index() < elevators.len() {
                Ok(())
            } else {
                Err(format!(
                    "event references elevator {id}, but the set has {}",
                    elevators.len()
                ))
            }
        };
        match self {
            Event::ElevatorFail { elevator, .. } | Event::ElevatorRecover { elevator, .. } => {
                elevator_ok(*elevator)
            }
            Event::InjectionBurst { factor, .. } => {
                if factor.is_finite() && *factor >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "injection-burst factor {factor} is not a rate multiplier"
                    ))
                }
            }
            Event::HotspotShift {
                hotspots, fraction, ..
            } => validate_hotspots(mesh, hotspots, *fraction),
            Event::FabricFreeze { cycles, .. } => {
                if *cycles >= 1 {
                    Ok(())
                } else {
                    Err("fabric freeze must last at least 1 cycle".into())
                }
            }
        }
    }

    /// The cycle this event fires at.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        match self {
            Event::ElevatorFail { cycle, .. }
            | Event::ElevatorRecover { cycle, .. }
            | Event::InjectionBurst { cycle, .. }
            | Event::HotspotShift { cycle, .. }
            | Event::FabricFreeze { cycle, .. } => *cycle,
        }
    }
}

/// The simulator's queue of [`Event`]s, kept sorted by firing cycle.
///
/// Events scheduled for a cycle that has already passed fire on the next
/// [`crate::Simulator::step`].
#[derive(Debug, Default)]
pub(crate) struct EventSchedule {
    entries: Vec<Event>,
    cursor: usize,
}

impl EventSchedule {
    /// Queues `event` to fire at its cycle. Insertion keeps the schedule
    /// sorted; events with equal cycles fire in insertion order.
    pub(crate) fn push(&mut self, event: Event) {
        let at = event.cycle();
        let pos = self
            .entries
            .partition_point(|e| e.cycle() <= at)
            // Never insert behind the cursor: an event scheduled in the
            // past still has to fire (on the next step).
            .max(self.cursor);
        self.entries.insert(pos, event);
    }

    /// Pops the next event due at or before `cycle`, if any.
    pub(crate) fn next_due(&mut self, cycle: Cycle) -> Option<Event> {
        let event = self
            .entries
            .get(self.cursor)
            .filter(|e| e.cycle() <= cycle)?;
        self.cursor += 1;
        Some(event.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(cycle: Cycle, elevator: u8) -> Event {
        Event::ElevatorFail {
            cycle,
            elevator: ElevatorId(elevator),
        }
    }

    fn burst(cycle: Cycle, factor: f64) -> Event {
        Event::InjectionBurst { cycle, factor }
    }

    #[test]
    fn schedule_fires_in_cycle_then_insertion_order() {
        let mut s = EventSchedule::default();
        let recover = Event::ElevatorRecover {
            cycle: 10,
            elevator: ElevatorId(0),
        };
        s.push(fail(10, 0));
        s.push(burst(5, 2.0));
        s.push(recover.clone());

        assert_eq!(s.next_due(4), None);
        assert_eq!(s.next_due(5), Some(burst(5, 2.0)));
        assert_eq!(s.next_due(9), None);
        assert_eq!(s.next_due(10), Some(fail(10, 0)));
        assert_eq!(s.next_due(10), Some(recover));
        assert_eq!(s.next_due(u64::MAX), None);
    }

    #[test]
    fn past_commands_fire_on_the_next_poll() {
        let mut s = EventSchedule::default();
        s.push(fail(100, 1));
        assert_eq!(s.next_due(100), Some(fail(100, 1)));
        // Scheduled "in the past" relative to what already fired.
        s.push(burst(3, 0.5));
        assert_eq!(s.next_due(100), Some(burst(3, 0.5)));
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn out_of_mesh_hotspots_are_rejected() {
        let mesh = Mesh3d::new(2, 2, 2).unwrap();
        let _ = resolve_hotspots(&mesh, &[Coord::new(3, 3, 0)]);
    }
}
