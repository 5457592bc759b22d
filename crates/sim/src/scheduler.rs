//! The simulator-side injection scheduler: a pending-injection calendar
//! queue over a [`ScheduledSource`].
//!
//! A [`ScheduledSource`] is the only workload type the simulator takes,
//! and it reaches admission through this calendar — a small ring of cycle
//! buckets filled by prefetching the source's injection batches a horizon
//! at a time. On a batched (`v2`) source an idle cycle costs one bucket
//! lookup; a polled (`v1`) source arrives already wrapped in
//! [`CyclePolled`](noc_traffic::CyclePolled) at horizon 1 — one bucket,
//! refilled by one whole-cycle poll and drained in the same call, so its
//! calendar depth reads 0 between cycles.
//!
//! Mid-run [`TrafficDirective`]s interact with prefetching: injections
//! already bucketed for cycles at or after the directive were sampled
//! under the old parameters, so [`InjectionScheduler::apply`] flushes
//! them and tells the source to resample its schedule from the directive
//! cycle (see [`ScheduledSource::apply`]); the next drain refetches under
//! the new regime.

use noc_topology::NodeId;
use noc_traffic::{InjectionRequest, ScheduledSource, TrafficDirective};

/// Cycle-bucketed calendar queue feeding the simulator's injection path.
pub(crate) struct InjectionScheduler {
    source: Box<dyn ScheduledSource>,
    /// Prefetch window in cycles (the source's
    /// [`horizon`](ScheduledSource::horizon); 1 for polled adapters).
    horizon: u64,
    /// `buckets[c % horizon]` holds cycle `c`'s injections once fetched.
    buckets: Vec<Vec<(NodeId, InjectionRequest)>>,
    /// Cycles `< fetched_through` have been fetched into buckets.
    fetched_through: u64,
}

impl std::fmt::Debug for InjectionScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionScheduler")
            .field("source", &self.source.name())
            .field("horizon", &self.horizon)
            .field("fetched_through", &self.fetched_through)
            .finish()
    }
}

impl InjectionScheduler {
    pub(crate) fn new(source: Box<dyn ScheduledSource>) -> Self {
        let horizon = source.horizon().max(1);
        Self {
            source,
            horizon,
            buckets: (0..horizon).map(|_| Vec::new()).collect(),
            fetched_through: 0,
        }
    }

    /// Moves cycle `cycle`'s injections into `out` (cleared first),
    /// prefetching the next horizon of batches when the calendar runs
    /// dry. Must be called once per cycle, in increasing cycle order.
    pub(crate) fn drain_due(&mut self, cycle: u64, out: &mut Vec<(NodeId, InjectionRequest)>) {
        out.clear();
        if cycle >= self.fetched_through {
            // All previously fetched cycles lie in the past (drained), so
            // every bucket is free for the next window.
            let up_to = cycle + (self.horizon - 1);
            for inj in self.source.next_injections(up_to) {
                debug_assert!(
                    (cycle..=up_to).contains(&inj.cycle),
                    "source emitted cycle {} outside the requested window",
                    inj.cycle
                );
                self.buckets[(inj.cycle % self.horizon) as usize].push((inj.node, inj.request));
            }
            self.fetched_through = up_to + 1;
        }
        // Swap rather than drain: both vectors keep their capacity, so
        // steady-state stepping allocates nothing.
        std::mem::swap(&mut self.buckets[(cycle % self.horizon) as usize], out);
    }

    /// Applies a mid-run directive effective at cycle `now`: flushes every
    /// prefetched (not yet drained) bucket — they all hold cycles `>= now`
    /// — and has the source resample its schedule from `now`.
    pub(crate) fn apply(&mut self, directive: &TrafficDirective, now: u64) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.fetched_through = now;
        self.source.apply(directive, now);
    }

    /// Injections currently sitting in prefetched calendar buckets — a
    /// deterministic function of the source stream and the current cycle,
    /// surfaced as a trace-window gauge.
    pub(crate) fn calendar_depth(&self) -> u64 {
        self.buckets.iter().map(|b| b.len() as u64).sum()
    }

    pub(crate) fn name(&self) -> &'static str {
        self.source.name()
    }

    pub(crate) fn mean_rate(&self) -> Option<f64> {
        self.source.mean_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Mesh3d;
    use noc_traffic::{BatchedSynthetic, CyclePolled, SyntheticTraffic};

    fn collect(scheduler: &mut InjectionScheduler, cycles: u64) -> Vec<(u64, NodeId, u16)> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for cycle in 0..cycles {
            scheduler.drain_due(cycle, &mut scratch);
            for &(node, req) in &scratch {
                out.push((cycle, node, req.flits));
            }
        }
        out
    }

    #[test]
    fn calendar_delivers_the_source_stream_in_order() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut direct = BatchedSynthetic::uniform(&mesh, 0.05, 3);
        let mut expected = Vec::new();
        for inj in direct.next_injections(499) {
            expected.push((inj.cycle, inj.node, inj.request.flits));
        }
        let mut scheduler =
            InjectionScheduler::new(Box::new(BatchedSynthetic::uniform(&mesh, 0.05, 3)));
        assert_eq!(collect(&mut scheduler, 500), expected);
    }

    #[test]
    fn polled_sources_run_at_horizon_one() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let polled = CyclePolled::new(
            Box::new(SyntheticTraffic::uniform(&mesh, 0.05, 3)),
            mesh.node_count(),
        );
        let mut scheduler = InjectionScheduler::new(Box::new(polled));
        assert_eq!(scheduler.horizon, 1);
        assert!(!collect(&mut scheduler, 500).is_empty());
        assert_eq!(scheduler.name(), "uniform");
        assert!((scheduler.mean_rate().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn directive_flushes_prefetched_buckets() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let mut scheduler =
            InjectionScheduler::new(Box::new(BatchedSynthetic::uniform(&mesh, 0.2, 3)));
        let mut scratch = Vec::new();
        for cycle in 0..10 {
            scheduler.drain_due(cycle, &mut scratch);
        }
        // The calendar has prefetched well past cycle 10; silencing the
        // workload must silence those cycles too.
        scheduler.apply(&TrafficDirective::ScaleRate { factor: 0.0 }, 10);
        for cycle in 10..200 {
            scheduler.drain_due(cycle, &mut scratch);
            assert!(scratch.is_empty(), "cycle {cycle} leaked a stale injection");
        }
    }
}
