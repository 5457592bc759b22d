//! `optimize_columns` at a size that took the from-scratch search 13 s
//! optimised: a 16×16 layer, 16 columns — 4 096 greedy trials plus ≈ 3 800
//! per swap pass, each over 65 536 ordered pairs. Lives in its own test
//! binary because it counts allocations through the global allocator.

use noc_topology::placement::optimize_columns;
use noc_topology::Mesh3d;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// [`System`], counting calls and tracking the peak of live bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and never
// influence what is returned. (`realloc` is the default: `alloc` + copy +
// `dealloc`, so it is counted through those two.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a bound on the optimised build (≈ 12 s unoptimised); CI's release tier1 step runs it"
)]
fn sixteen_columns_on_a_16x16_layer_within_time_and_memory_bounds() {
    let mesh = Mesh3d::new(16, 16, 2).unwrap();
    let pairs = mesh.nodes_per_layer() * mesh.nodes_per_layer();

    let (calls, live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let started = Instant::now();
    let columns = optimize_columns(&mesh, 16);
    let elapsed = started.elapsed();
    let calls = CALLS.load(Relaxed) - calls;
    let peak = PEAK.load(Relaxed) - live;

    assert_eq!(columns.len(), 16);
    // Two byte-wide pair tables and the distance table, whatever the
    // column count; nothing is allocated per trial or per column.
    assert!(
        peak <= 3 * pairs + 16 * 1024,
        "peak {peak} B over {pairs} pairs"
    );
    assert!(calls <= 64, "{calls} allocations");
    // 0.13–0.19 s on the 2-vCPU sandbox.
    assert!(elapsed <= Duration::from_secs(2), "{elapsed:?}");
}
