//! A counting global allocator for heap high-water measurements.
//!
//! The population-scale test needs *peak resident heap* per cell to
//! show that memory tracks participants, not population. `VmHWM` is
//! monotonic for the process lifetime, so it cannot compare cells run in
//! one binary; instead the test binaries install [`CountingAllocator`] as
//! their `#[global_allocator]` and bracket each cell with
//! [`reset_peak`](CountingAllocator::reset_peak) /
//! [`peak_bytes`](CountingAllocator::peak_bytes).
//!
//! The counter tracks *net live bytes* (allocations minus deallocations,
//! reallocations as a delta) and maintains the running maximum with a
//! compare-and-swap loop. Overhead is a few relaxed atomic updates per
//! allocation — invisible next to the workloads being measured.
//!
//! Beyond the high-water use, the allocator also counts *allocation
//! events* and *live blocks*, and [`CountingAllocator::snapshot`] /
//! [`CountingAllocator::delta_since`] bracket a region with one call on
//! each side — the steady-state round-loop test uses this to assert that
//! a warmed-up flexible round leaves no net bytes or blocks behind but
//! the reward list its outcome retains.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A point-in-time reading of a [`CountingAllocator`]'s counters, taken
/// with [`CountingAllocator::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Live heap bytes at the snapshot.
    pub live_bytes: usize,
    /// Live heap blocks (allocations not yet freed) at the snapshot.
    pub live_blocks: usize,
    /// Cumulative allocation events (alloc/alloc_zeroed/realloc calls)
    /// since process start.
    pub allocations: usize,
}

/// The change between two [`AllocSnapshot`]s, from
/// [`CountingAllocator::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Net live-byte growth over the bracket (negative: the region freed
    /// more than it allocated).
    pub net_bytes: isize,
    /// Net live-block growth over the bracket.
    pub net_blocks: isize,
    /// Allocation events performed inside the bracket (churn: alloc+free
    /// pairs count here even when the net deltas are zero).
    pub allocations: usize,
}

/// A [`System`]-backed allocator that tracks live bytes and their peak.
///
/// Install one as the global allocator and bracket measured regions:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: CountingAllocator = CountingAllocator::new();
///
/// ALLOC.reset_peak();
/// run_cell();
/// let peak = ALLOC.peak_bytes();
/// ```
pub struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
    blocks: AtomicUsize,
    events: AtomicUsize,
}

impl CountingAllocator {
    /// A fresh counter (all zeros).
    pub const fn new() -> Self {
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            blocks: AtomicUsize::new(0),
            events: AtomicUsize::new(0),
        }
    }

    /// Currently live heap bytes routed through this allocator.
    pub fn current_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Reads all counters at once, for [`delta_since`](Self::delta_since)
    /// bracketing. The three loads are not mutually atomic, so take
    /// snapshots at points where no other thread is allocating (or accept
    /// a few events of skew).
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            live_bytes: self.live.load(Ordering::Relaxed),
            live_blocks: self.blocks.load(Ordering::Relaxed),
            allocations: self.events.load(Ordering::Relaxed),
        }
    }

    /// The net heap growth and allocation churn since `start`.
    pub fn delta_since(&self, start: &AllocSnapshot) -> AllocDelta {
        let now = self.snapshot();
        AllocDelta {
            net_bytes: now.live_bytes as isize - start.live_bytes as isize,
            net_blocks: now.live_blocks as isize - start.live_blocks as isize,
            allocations: now.allocations.wrapping_sub(start.allocations),
        }
    }

    /// High-water mark of [`current_bytes`](Self::current_bytes) since the
    /// last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current live count, so the
    /// next [`peak_bytes`](Self::peak_bytes) reflects only the bracketed
    /// region.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn add(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // CAS-max: lift the peak only while we still exceed it.
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            match self
                .peak
                .compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => peak = actual,
            }
        }
    }

    fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: delegates every operation to `System`; the bookkeeping is
// side-effect-free atomic arithmetic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.add(layout.size());
            self.blocks.fetch_add(1, Ordering::Relaxed);
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.sub(layout.size());
        self.blocks.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.add(layout.size());
            self.blocks.fetch_add(1, Ordering::Relaxed);
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
            // One event, block count unchanged: the old block becomes the
            // new one.
            self.events.fetch_add(1, Ordering::Relaxed);
        }
        new_ptr
    }
}
