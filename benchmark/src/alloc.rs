//! A counting wrapper around the system allocator, local to this binary.
//!
//! It turns the README's "zero steady-state allocation" into a number:
//! `host.alloc_per_kevent` and `host.alloc_bytes_per_event`. Counting is
//! gated by a flag only the traced pass sets, and only around `run()`;
//! otherwise every call forwards straight to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed everywhere: the counters are statistics that publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is two relaxed
// atomic adds, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by `System` (all allocations forward to
        // it) with this `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls and bytes requested while `f` ran (all threads).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls0, bytes0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls0,
        BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_inside_the_gate() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let (v, calls, bytes) = super::counted(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(calls >= 1 && bytes >= 4096, "{calls} calls, {bytes} bytes");
    }
}
