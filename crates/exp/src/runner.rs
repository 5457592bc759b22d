//! A deterministic parallel runner for independent simulations.
//!
//! Sweep points and scenario batches are embarrassingly parallel — every
//! run owns its configuration, workload and selector, all seeded — so the
//! runner shards them across a scoped-thread worker pool (no dependencies
//! beyond `std`) and returns results **in input order**, bit-identical to
//! a sequential run: parallelism changes wall-clock time and nothing else.
//!
//! Work is distributed by an atomic cursor (work stealing), so a slow
//! point (a saturated sweep rate) does not stall the pool behind it.

use adele::online::ElevatorSelector;
use noc_sim::harness::{run_once_input, SweepPoint};
use noc_sim::{SimConfig, SimError, TrafficInput};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A [`TrafficInput`] factory shareable across worker threads (polled
/// `v1` or scheduled `v2` workloads alike).
pub type SyncInputFactory<'a> = dyn Fn(f64) -> TrafficInput + Sync + 'a;
/// A selector factory shareable across worker threads.
pub type SyncSelectorFactory<'a> = dyn Fn() -> Box<dyn ElevatorSelector> + Sync + 'a;

/// Default worker count: [`noc_sim::worker_threads`], i.e. the host's
/// available parallelism unless pinned via the `NOC_THREADS` environment
/// variable. Sharing one knob with the sharded stepping engine lets CI
/// pin every pool in the workspace deterministically.
#[must_use]
pub fn default_threads() -> usize {
    noc_sim::worker_threads()
}

/// Applies `f` to every item on a pool of `threads` scoped workers and
/// returns the results in input order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or one item) this
/// degenerates to a plain sequential map — the parallel path produces the
/// same output because every item is computed independently.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                done.lock()
                    .expect("worker panicked holding lock")
                    .push((i, result));
            });
        }
    });

    let mut tagged = done.into_inner().expect("workers joined");
    debug_assert_eq!(tagged.len(), items.len());
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Sweeps packet-injection rates on `threads` workers, building fresh
/// traffic and selector state per point (state must not leak between
/// offered loads). Points come back in `rates` order, bit-identical for
/// any worker count; `threads = 1` is the plain sequential sweep.
///
/// # Errors
///
/// Returns the first (in input order) [`SimError`] any point surfaced:
/// the grid fails as a unit. Per-point isolation with retries lives in
/// [`crate::supervise`].
pub fn injection_sweep(
    config: &SimConfig,
    rates: &[f64],
    new_input: &SyncInputFactory<'_>,
    new_selector: &SyncSelectorFactory<'_>,
    threads: usize,
) -> Result<Vec<SweepPoint>, SimError> {
    par_map(rates, threads, |_, &rate| {
        Ok(SweepPoint {
            rate,
            summary: run_once_input(config, new_input(rate), new_selector())?,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, WorkloadKind};
    use crate::supervise::{run_batch_supervised, PointOutcome, Supervision};
    use noc_topology::{ElevatorSet, Mesh3d};

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = par_map(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |_, &x| x + 1), vec![6]);
        assert_eq!(par_map(&[1u32, 2], 0, |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let mesh = Mesh3d::new(4, 4, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(0, 0), (3, 3)]).unwrap();
        let scenarios: Vec<Scenario> = (0u32..4)
            .map(|i| {
                Scenario::new(format!("s{i}"), mesh, elevators.clone())
                    .with_phases(100, 400, 2_000)
                    .with_workload(WorkloadKind::Uniform {
                        rate: 0.002 + 0.001 * f64::from(i),
                    })
                    .with_seed(40 + u64::from(i))
            })
            .collect();
        let sequential: Vec<_> = scenarios
            .iter()
            .map(|s| PointOutcome::Ok(s.run().unwrap()))
            .collect();
        let parallel = run_batch_supervised(&scenarios, 4, &Supervision::new(), None, |_| {});
        assert_eq!(parallel, sequential);
    }
}
