//! The allocation-budget tests, as one binary with a counting global
//! allocator: each file in this directory is a module, and a test's path
//! is `module::name` (`cargo test --test allocs fault_allocs:: --
//! --nocapture` prints one suite's counts).
//!
//! A `#[global_allocator]` serves its whole binary, so these tests live
//! apart from the other suites. The counter is per thread: a test counts
//! only what its own thread allocates, so the tests run side by side
//! without counting each other. (The engine runs a scenario on the thread
//! that calls `run`.)

mod decode_alloc_bound;
mod fault_allocs;
mod migration_allocs;
#[path = "../corpus/objects_row.rs"]
mod objects_row;
mod queue_allocs;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation the process makes, and the
/// bytes each asks for, on the thread that makes it.
struct Counting;

thread_local! {
    /// This thread's allocations and the bytes they asked for. `const`
    /// initialised and without drop glue, so reading it never allocates.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Count one allocation of `bytes` on this thread.
fn count(bytes: usize) {
    // A thread that is being torn down has no counter left; it counts
    // nothing.
    let _ = COUNTS.try_with(|c| {
        let (allocations, total) = c.get();
        c.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics that publish no
// other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `work` and return its result with the allocations this thread made
/// in it and the bytes they asked for (a reallocation counts its whole new
/// size).
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = COUNTS.with(Cell::get);
    let out = work();
    let (allocations_after, bytes_after) = COUNTS.with(Cell::get);
    (out, allocations_after - allocations, bytes_after - bytes)
}
