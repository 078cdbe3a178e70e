//! A counting global allocator: the allocation-budget tests' instrument.
//!
//! `mod common;` in a test file installs it for that file's whole process.
//! The counter is process-wide, so a file that reads it holds exactly one
//! test — a second one running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation the process makes, and the
/// bytes each asks for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics that publish no
// other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and reallocations made so far, and the bytes they asked for
/// (a reallocation counts its whole new size).
fn counters() -> (u64, u64) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    (allocations, BYTES.load(Ordering::Relaxed))
}

/// Run `work` and return its result with the allocations it made and the
/// bytes they asked for.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = counters();
    let out = work();
    let (allocations_after, bytes_after) = counters();
    (out, allocations_after - allocations, bytes_after - bytes)
}
