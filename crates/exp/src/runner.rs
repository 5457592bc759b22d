//! A deterministic parallel map for independent simulations:
//! [`default_threads`] sizes the pool, [`par_map`] runs on it.
//!
//! Scenario batches are embarrassingly parallel — every [`crate::Scenario`]
//! owns its configuration, workload and selector, all seeded from its
//! master seed — so [`par_map`] shards them across a scoped-thread worker
//! pool (no dependencies beyond `std`) and returns results **in input
//! order**, bit-identical to a sequential run: parallelism changes
//! wall-clock time and nothing else. What a work item *is* belongs to the
//! caller: the supervised batch ([`crate::supervise`]), which runs spec
//! files and every `repro` figure, is one `par_map` call.
//!
//! Work is distributed by an atomic cursor (work stealing), so a slow
//! point (a saturated sweep rate) does not stall the pool behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count of the `noc_exp` pools ([`par_map`], the
/// supervised batch runner): the one place the workspace sizes a thread
/// pool, so CI (and any reproduction script) pins parallelism with one
/// environment variable. The simulator itself is single-threaded.
///
/// Resolution order:
/// 1. `NOC_THREADS` (a positive integer, surrounding whitespace allowed)
///    — the deterministic override CI uses regardless of the host's core
///    count;
/// 2. the host's available parallelism;
/// 3. `1` when neither is known.
///
/// A set-but-unusable `NOC_THREADS` (garbage text, or `0`, which has no
/// meaning here — use `1` for sequential) is rejected with a one-time
/// stderr warning naming the offending value, then falls back to the
/// host count. Silent fallback used to mask typos like
/// `NOC_THREADS=O2`, which quietly unpinned CI runs.
///
/// Read fresh on every call (no caching).
#[must_use]
pub fn default_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let raw = std::env::var("NOC_THREADS").ok();
    parse_threads(raw.as_deref(), host).unwrap_or_else(|why| {
        // Once per process, so per-sweep resolution cannot flood stderr
        // with the same typo thousands of times.
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            let raw = raw.as_deref().unwrap_or_default();
            eprintln!(
                "warning: ignoring NOC_THREADS={raw:?} ({why}); falling back to host parallelism"
            );
        });
        host
    })
}

/// The `NOC_THREADS` grammar, apart from the environment: the worker
/// count for the variable's value `raw` (`None` = unset) on a host with
/// `host` cores, or why a set value is unusable.
fn parse_threads(raw: Option<&str>, host: usize) -> Result<usize, &'static str> {
    match raw.map(|raw| raw.trim().parse::<usize>()) {
        None => Ok(host),
        Some(Ok(0)) => Err("0 is not a worker count (use 1 for sequential)"),
        Some(Ok(n)) => Ok(n),
        Some(Err(_)) => Err("not a positive integer"),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, WorkloadKind};
    use crate::supervise::{run_batch_supervised, PointOutcome, Supervision};
    use noc_topology::{ElevatorSet, Mesh3d};

    #[test]
    fn env_override_wins_and_garbage_falls_through() {
        assert_eq!(parse_threads(Some("3"), 8), Ok(3));
        assert_eq!(parse_threads(Some(" 2\n"), 8), Ok(2));
        assert_eq!(parse_threads(None, 8), Ok(8), "unset means the host");
        assert!(parse_threads(Some("0"), 8).is_err(), "zero is rejected");
        assert!(parse_threads(Some("not-a-number"), 8).is_err());
        assert!(parse_threads(Some(""), 8).is_err());
        assert!(parse_threads(Some("-1"), 8).is_err());
        assert!(default_threads() >= 1);
    }

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
