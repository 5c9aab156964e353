//! A counting allocator for `network.allocs_per_pkt` and friends. Only the
//! `trace` binary installs it (`#[global_allocator]`); everywhere else the
//! counters simply stay at zero, and `bench` runs on the system allocator
//! untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Const-initialised and without destructors, so touching them from inside
// the allocator can neither allocate nor run after thread teardown. Per
// thread rather than atomic: the measured engine is single-threaded and an
// uncontended `lock xadd` per allocation would itself show in ns/packet.
thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls and bytes on the
/// calling thread.
pub struct Counting;

fn note(allocated: usize, freed: usize) {
    // `try_with`: a thread that is shutting down may have dropped its
    // locals already; losing that count is fine, panicking is not.
    if allocated > 0 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + allocated as u64));
    }
    let _ = LIVE.try_with(|c| c.set(c.get() + allocated as i64 - freed as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the bookkeeping touches
// only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's counters so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated and not yet freed.
    pub live: i64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        count: COUNT.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        live: LIVE.with(Cell::get),
    }
}
