//! The benchmark's global allocator: `abw_obs`'s [`CountingAlloc`],
//! which feeds the `HeapAllocs` / `HeapBytes` cost counters behind the
//! `alloc.*` layer metrics, plus the live and peak heap bytes behind
//! `peak_heap_mb`.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use abw_obs::prof::CountingAlloc;

/// Bytes currently allocated.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so every
// access is `Relaxed`.

/// Delegates to [`CountingAlloc`] and keeps the counters above.
pub struct Tracking;

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, which upholds the `GlobalAlloc` contract by
// delegating to `System`; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { CountingAlloc.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from
        // `CountingAlloc`, with this `layout`, as the caller guarantees.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `ptr`/`layout`/`new_size` obligations
        // pass through as is.
        let new = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let (old, new_size) = (layout.size() as u64, new_size as u64);
            if new_size >= old {
                grew(new_size - old);
            } else {
                shrank(old - new_size);
            }
        }
        new
    }
}

/// Starts a new high-water mark at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
