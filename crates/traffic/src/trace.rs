//! Recorded injection traces: capture any [`TrafficSource`] and replay it.
//!
//! Traces make experiments repeatable across policies — the paper compares
//! Elevator-First, CDA and AdEle *under identical traffic*, which replay
//! guarantees exactly (the same packets at the same cycles, regardless of
//! how each policy perturbs shared RNG state).

use crate::source::{InjectionRequest, TrafficSource};
use noc_topology::{Mesh3d, NodeId};

/// One injected packet in a recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: u64,
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Packet length in flits.
    pub flits: u16,
}

/// A finite recorded workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: &'static str,
    /// Events sorted by (cycle, src).
    events: Vec<TraceEvent>,
    node_count: usize,
    duration: u64,
}

impl Trace {
    /// Records `duration` cycles of `source` on `mesh`.
    pub fn record(source: &mut dyn TrafficSource, mesh: &Mesh3d, duration: u64) -> Self {
        let mut events = Vec::new();
        let mut polled = Vec::new();
        for cycle in 0..duration {
            polled.clear();
            source.poll_cycle(cycle, mesh.node_count(), &mut polled);
            events.extend(polled.iter().map(|&(src, req)| TraceEvent {
                cycle,
                src,
                dst: req.dst,
                flits: req.flits,
            }));
        }
        Self {
            name: source.name(),
            events,
            node_count: mesh.node_count(),
            duration,
        }
    }

    /// Builds a trace directly from events (for tests and file loading).
    ///
    /// # Panics
    ///
    /// Panics if any event references a node `>= node_count` or lies beyond
    /// `duration`, or if two events share a `(cycle, src)` — a node injects
    /// at most one packet per cycle, so a replay could never emit both.
    #[must_use]
    pub fn from_events(
        name: &'static str,
        mut events: Vec<TraceEvent>,
        node_count: usize,
        duration: u64,
    ) -> Self {
        for e in &events {
            assert!(e.src.index() < node_count && e.dst.index() < node_count);
            assert!(
                e.cycle < duration,
                "event at {} beyond duration {duration}",
                e.cycle
            );
        }
        events.sort_by_key(|e| (e.cycle, e.src));
        assert!(
            events
                .windows(2)
                .all(|w| (w[0].cycle, w[0].src) != (w[1].cycle, w[1].src)),
            "two events share a (cycle, src)"
        );
        Self {
            name,
            events,
            node_count,
            duration,
        }
    }

    /// The recorded events, sorted by `(cycle, src)`.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Trace length in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Average packets/node/cycle over the recorded window.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        if self.duration == 0 || self.node_count == 0 {
            return 0.0;
        }
        self.events.len() as f64 / (self.duration as f64 * self.node_count as f64)
    }

    /// A replaying [`TrafficSource`]. The replay loops the trace modulo its
    /// duration so simulations may run longer than the recording.
    #[must_use]
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer {
            trace: self,
            cursor: 0,
        }
    }
}

/// Replays a [`Trace`] as a [`TrafficSource`].
///
/// Relies on the simulator's contract of querying nodes in increasing
/// cycle order; replay loops when the simulation outlives the trace.
#[derive(Debug)]
pub struct TraceReplayer<'a> {
    trace: &'a Trace,
    cursor: usize,
}

impl TraceReplayer<'_> {
    /// Positions the cursor for a poll at `cycle` and returns the event
    /// under it, if that event fires this cycle. The replay loops modulo
    /// the trace duration: a poll landing back on position 0 with every
    /// event consumed rewinds the cursor.
    fn seek(&mut self, cycle: u64) -> Option<TraceEvent> {
        let events = &self.trace.events;
        if events.is_empty() {
            return None;
        }
        let at = cycle % self.trace.duration;
        if at == 0 && cycle > 0 && self.cursor >= events.len() {
            self.cursor = 0;
        }
        // Skip events from earlier cycles (possible right after a loop).
        while events.get(self.cursor).is_some_and(|e| e.cycle < at) {
            self.cursor += 1;
        }
        events.get(self.cursor).copied().filter(|e| e.cycle == at)
    }
}

impl TrafficSource for TraceReplayer<'_> {
    fn maybe_inject(&mut self, node: NodeId, cycle: u64) -> Option<InjectionRequest> {
        let e = self.seek(cycle).filter(|e| e.src == node)?;
        self.cursor += 1;
        Some(InjectionRequest {
            dst: e.dst,
            flits: e.flits,
        })
    }

    /// Emits the cycle's run of events straight from the cursor — events
    /// are sorted by `(cycle, src)`, so the run is already in node order.
    fn poll_cycle(&mut self, cycle: u64, nodes: usize, out: &mut Vec<(NodeId, InjectionRequest)>) {
        debug_assert!(nodes >= self.trace.node_count, "poll covers the trace");
        let Some(first) = self.seek(cycle) else {
            return;
        };
        let events = &self.trace.events[self.cursor..];
        for e in events.iter().take_while(|e| e.cycle == first.cycle) {
            let request = InjectionRequest {
                dst: e.dst,
                flits: e.flits,
            };
            out.push((e.src, request));
            self.cursor += 1;
        }
    }

    fn name(&self) -> &'static str {
        self.trace.name
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.trace.mean_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticTraffic;

    #[test]
    fn record_and_replay_are_identical() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut source = SyntheticTraffic::uniform(&mesh, 0.1, 21);
        let trace = Trace::record(&mut source, &mesh, 500);
        assert!(!trace.is_empty());

        let mut replay = trace.replayer();
        let mut replayed = Vec::new();
        for cycle in 0..500 {
            for node in mesh.node_ids() {
                if let Some(req) = replay.maybe_inject(node, cycle) {
                    replayed.push(TraceEvent {
                        cycle,
                        src: node,
                        dst: req.dst,
                        flits: req.flits,
                    });
                }
            }
        }
        assert_eq!(replayed, trace.events());
    }

    #[test]
    fn replay_loops_past_duration() {
        let events = vec![TraceEvent {
            cycle: 1,
            src: NodeId(0),
            dst: NodeId(3),
            flits: 12,
        }];
        let trace = Trace::from_events("unit", events, 4, 4);
        let mut replay = trace.replayer();
        let mut hits = 0;
        for cycle in 0..12 {
            for node in 0..4u16 {
                if replay.maybe_inject(NodeId(node), cycle).is_some() {
                    hits += 1;
                    assert_eq!(cycle % 4, 1);
                }
            }
        }
        assert_eq!(hits, 3, "event must fire once per loop");
    }

    /// Replays `trace` for `cycles` on a fresh replayer, through
    /// `poll_cycle` or through the per-node loop.
    fn replay(trace: &Trace, nodes: u16, cycles: u64, bulk: bool) -> Vec<TraceEvent> {
        let mut replayer = trace.replayer();
        let mut polled = Vec::new();
        let mut out = Vec::new();
        for cycle in 0..cycles {
            // Never cleared: `poll_cycle` appends.
            let start = polled.len();
            if bulk {
                replayer.poll_cycle(cycle, usize::from(nodes), &mut polled);
            } else {
                for node in (0..nodes).map(NodeId) {
                    polled.extend(replayer.maybe_inject(node, cycle).map(|req| (node, req)));
                }
            }
            out.extend(polled[start..].iter().map(|&(src, req)| TraceEvent {
                cycle,
                src,
                dst: req.dst,
                flits: req.flits,
            }));
        }
        out
    }

    #[test]
    fn bulk_replay_equals_the_per_node_loop_across_loops() {
        let event = |cycle, src: u16, dst: u16| TraceEvent {
            cycle,
            src: NodeId(src),
            dst: NodeId(dst),
            flits: 10 + src,
        };
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let recorded = Trace::record(&mut SyntheticTraffic::uniform(&mesh, 0.2, 5), &mesh, 40);
        assert_eq!(recorded.events().last().map(|e| e.cycle), Some(39));
        let traces = [
            Trace::from_events("empty", vec![], 4, 0),
            Trace::from_events("quiet", vec![], 4, 3),
            // Populated first and last cycles, several nodes in a cycle.
            Trace::from_events(
                "edges",
                vec![
                    event(0, 0, 1),
                    event(0, 3, 2),
                    event(2, 1, 0),
                    event(4, 2, 3),
                    event(4, 3, 0),
                ],
                4,
                5,
            ),
            Trace::from_events("one-cycle", vec![event(0, 0, 1), event(0, 2, 1)], 4, 1),
            recorded,
        ];
        for trace in &traces {
            let nodes = trace.node_count as u16;
            let cycles = 2 * trace.duration() + 3;
            let per_node = replay(trace, nodes, cycles, false);
            assert_eq!(
                replay(trace, nodes, cycles, true),
                per_node,
                "{}",
                trace.name
            );
            assert!(
                per_node.len() >= 2 * trace.len(),
                "{}: both loops replay every event",
                trace.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "share a (cycle, src)")]
    fn from_events_rejects_two_packets_from_one_node_in_one_cycle() {
        let event = |dst| TraceEvent {
            cycle: 1,
            src: NodeId(0),
            dst: NodeId(dst),
            flits: 10,
        };
        let _ = Trace::from_events("dup", vec![event(1), event(2)], 4, 2);
    }

    #[test]
    fn mean_rate_counts_events() {
        let events = vec![
            TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                flits: 10,
            },
            TraceEvent {
                cycle: 5,
                src: NodeId(1),
                dst: NodeId(0),
                flits: 10,
            },
        ];
        let trace = Trace::from_events("unit", events, 2, 10);
        assert!((trace.mean_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beyond duration")]
    fn from_events_validates_duration() {
        let events = vec![TraceEvent {
            cycle: 10,
            src: NodeId(0),
            dst: NodeId(1),
            flits: 10,
        }];
        let _ = Trace::from_events("bad", events, 2, 10);
    }
}
