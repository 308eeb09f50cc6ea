//! A counting global allocator: live heap bytes and their high-water mark.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! Peak heap is read around a 1-thread pass, where allocation order (and so
//! the high-water mark) repeats to within a few bytes; at two threads the
//! interleaving of workers' allocations moves the peak by several percent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator and counts live bytes.
pub struct CountingAlloc;

#[inline]
fn grow(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Heap bytes live now.
pub fn current() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Highest live heap since the last [`reset_peak`].
fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live heap; returns it.
fn reset_peak() -> usize {
    let now = current();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Bytes the closure added at its high-water mark, above the heap live
/// when it started, plus its result.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = reset_peak();
    let out = f();
    (out, peak().saturating_sub(base))
}

pub const MIB: f64 = (1u64 << 20) as f64;
