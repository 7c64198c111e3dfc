//! The benchmark's counting allocator.
//!
//! Counts are kept per thread in plain `Cell`s, so an allocation costs
//! two thread-local adds and worker threads never share a cache line:
//! the timed, untraced repetitions run under the same allocator and
//! must not be slowed by it. Spans read the counters of the thread
//! they run on, which is the main thread for the whole traced pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts every allocation and the bytes it
/// asked for. A `realloc` counts as one allocation of the new size.
pub struct Counting;

fn count(bytes: usize) {
    // `try_with` only fails while a thread is being torn down; an
    // allocation made then goes uncounted rather than aborting.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `Cell<u64>` thread-locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, and the caller vouches for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations() {
        let (a0, b0) = snapshot();
        let v: Vec<u64> = Vec::with_capacity(100);
        let (a1, b1) = snapshot();
        drop(v);
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 800);
        // Another thread's allocations stay on its own counters; only
        // the few that `spawn` itself makes land here.
        std::thread::spawn(|| {
            for _ in 0..1000 {
                drop(std::hint::black_box(vec![0u8; 64]));
            }
        })
        .join()
        .expect("allocating thread");
        assert!(snapshot().0 - a1 < 100);
    }
}
