//! Where the parallel `CostEngine` allocates while it prices rows.
//!
//! A worker thread that allocated the rows it priced would leave them in a
//! malloc arena of its own, and how many arenas a process ends up with
//! depends on how thread exits and spawns interleave — so a placement
//! round's peak resident memory would move from one run to the next with
//! nothing in the code or the input changed. The engine therefore
//! allocates every row buffer and every scratch on the calling thread; the
//! workers only fill them. This binary installs a counting
//! `#[global_allocator]` that sees every thread, and holds one test, so no
//! other test's allocations land in the count.

use dust_topology::{CostEngine, FatTree, NodeId, Tier};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a dead slot
    static MINE: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALL.fetch_add(1, Ordering::Relaxed);
    MINE.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made in `f` by threads other than this one.
fn by_other_threads(f: impl FnOnce()) -> u64 {
    let (all, mine) = (ALL.load(Ordering::Relaxed), MINE.with(Cell::get));
    f();
    (ALL.load(Ordering::Relaxed) - all) - (MINE.with(Cell::get) - mine)
}

#[test]
fn pricing_workers_allocate_nothing_per_row() {
    // k = 8: 80 switches; the 32 edge switches price rows to the rest
    let ft = FatTree::with_default_links(8);
    let sources: Vec<NodeId> = ft.tier_nodes(Tier::Edge).to_vec();
    let destinations: Vec<NodeId> = ft.graph.nodes().filter(|n| !sources.contains(n)).collect();
    let data = vec![100.0; sources.len()];
    let workers_alloc = |rows: usize| {
        // a fresh engine each time: every row is a miss and is priced
        let mut pool = CostEngine::with_threads(2);
        by_other_threads(|| {
            let m = pool.build_matrix(
                &ft.graph,
                &sources[..rows],
                &destinations,
                &data[..rows],
                Some(6),
            );
            assert_eq!(m.row_start.len(), rows + 1);
        })
    };
    // whatever starting a thread costs once per process is paid here
    workers_alloc(2);
    let (few, many) = (workers_alloc(2), workers_alloc(sources.len()));
    assert_eq!(
        few,
        many,
        "two workers pricing 2 rows allocated {few} times, pricing {} rows {many}",
        sources.len()
    );
}
