//! The benchmark's own counting allocator: live bytes, their high-water
//! mark, and allocation events, read with relaxed atomics.
//!
//! Installed as the `#[global_allocator]` in `main.rs`, so every number
//! covers the whole process — the driver thread and the program's
//! `bfl_ml::par` workers alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// A `System`-backed allocator that counts what passes through it.
pub struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
    events: AtomicUsize,
}

impl CountingAllocator {
    pub const fn new() -> Self {
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            events: AtomicUsize::new(0),
        }
    }

    /// Heap bytes currently live.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// High-water mark of live bytes since the last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Restarts the high-water mark from the current live count.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// Cumulative `alloc`/`alloc_zeroed`/`realloc` calls since process
    /// start; bracket a region by subtracting two readings.
    pub fn events(&self) -> usize {
        self.events.load(Relaxed)
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }
}

// SAFETY: every operation is delegated unchanged to `System`; the
// bookkeeping around it is atomic arithmetic that touches no memory the
// caller owns.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
            self.events.fetch_add(1, Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
            self.events.fetch_add(1, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.live.fetch_sub(layout.size() - new_size, Relaxed);
            }
            self.events.fetch_add(1, Relaxed);
        }
        new_ptr
    }
}
