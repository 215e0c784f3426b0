//! Per-thread allocation counts, for tests that pin what a call allocates.
//!
//! [`CountingAlloc`] passes every call through to [`System`] and adds each
//! allocation to the allocating thread's own count and bytes.
//! [`thread_allocations`] reads them around a closure. A binary opts in
//! by installing the allocator; without it every count reads zero.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rrc_obs::CountingAlloc = rrc_obs::CountingAlloc;
//!
//! let (count, bytes) = rrc_obs::thread_allocations(|| drop(vec![0u8; 64]));
//! assert_eq!((count, bytes), (1, 64));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and bytes this thread has asked for since it started.
    static TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator plus a per-thread count of allocations and bytes.
pub struct CountingAlloc;

fn note(bytes: usize) {
    TOTALS.with(|t| {
        let (count, sum) = t.get();
        t.set((count + 1, sum + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// is `const`-initialised and has no destructor, so touching it can neither
// allocate nor run during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only the growth is new: a shrink or a grow in place does not
        // allocate `new_size` fresh bytes.
        note(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The `(count, bytes)` that `f` allocated on the calling thread under
/// [`CountingAlloc`]. Work `f` hands to another thread is not counted.
pub fn thread_allocations(f: impl FnOnce()) -> (u64, u64) {
    let (count, bytes) = TOTALS.with(Cell::get);
    f();
    let (count_after, bytes_after) = TOTALS.with(Cell::get);
    (count_after - count, bytes_after - bytes)
}

/// A scope guard that does nothing. It exists solely because
/// `benchmark/src/sut.rs` times entering one, until the next
/// `[benchmark]` PR.
pub struct ProfGuard;

impl ProfGuard {
    /// Returns the guard; `_name` is ignored.
    pub fn enter(_name: &'static str) -> ProfGuard {
        ProfGuard
    }
}
