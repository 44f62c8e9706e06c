//! Counting global allocator: bytes requested inside a bracket.
//!
//! Allocation counts are the one cost figure that repeats exactly from
//! run to run, so they gate where wall clock on a shared host cannot.
//! Counting is off outside a bracket: set-up, input generation and the
//! harness's own bookkeeping never reach the counters.
//!
//! Two brackets exist. [`count`] sums the bytes requested (growth only
//! for `realloc`) — allocation pressure of a timed region. [`live`]
//! tracks requested minus released bytes — what a structure still holds
//! when the bracket closes. The counters are per thread: a bracket sees
//! exactly the allocations of the thread that opened it, which is the
//! thread running the serial, in-process work being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator the harness binary installs.
pub struct CountingAlloc;

struct Counters {
    counting: Cell<bool>,
    requested: Cell<u64>,
    track_live: Cell<bool>,
    live: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor runs after teardown.
    static COUNTERS: Counters = const {
        Counters {
            counting: Cell::new(false),
            requested: Cell::new(0),
            track_live: Cell::new(false),
            live: Cell::new(0),
        }
    };
}

#[inline]
fn on_grow(bytes: usize) {
    let _ = COUNTERS.try_with(|c| {
        if c.counting.get() {
            c.requested.set(c.requested.get() + bytes as u64);
        }
        if c.track_live.get() {
            c.live.set(c.live.get() + bytes as i64);
        }
    });
}

#[inline]
fn on_shrink(bytes: usize) {
    let _ = COUNTERS.try_with(|c| {
        if c.track_live.get() {
            c.live.set(c.live.get() - bytes as i64);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// only thread-local `Cell`s and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            on_grow(new_size - layout.size());
        } else {
            on_shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` with counting on; returns its result and the bytes requested
/// while it ran. Brackets do not nest.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNTERS.with(|c| {
        c.counting.set(true);
        c.requested.get()
    });
    let result = f();
    let after = COUNTERS.with(|c| {
        c.counting.set(false);
        c.requested.get()
    });
    (result, after - before)
}

/// Run `f` with live tracking on; returns its result and the bytes
/// requested inside the bracket that are still held when it closes.
/// Releasing a block that predates the bracket would be subtracted too,
/// so callers keep older data alive across it. Brackets do not nest.
pub fn live<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTERS.with(|c| {
        c.live.set(0);
        c.track_live.set(true);
    });
    let result = f();
    let held = COUNTERS.with(|c| {
        c.track_live.set(false);
        c.live.get()
    });
    (result, held.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator too (see main.rs).
    #[test]
    fn brackets_count_only_what_happens_inside() {
        let outside = vec![0u8; 1 << 20];
        let (kept, requested) = count(|| {
            let a = vec![1u8; 4096];
            let b = vec![2u8; 1000];
            drop(a);
            b
        });
        assert_eq!(requested, 5096, "both allocations counted, nothing outside leaks in");
        drop(outside);
        let (_, after) = count(|| ());
        assert_eq!(after, 0, "an empty bracket counts nothing");

        let (held, live_bytes) = live(|| {
            let scratch = vec![3u8; 8192];
            let keep = vec![4u8; 2048];
            drop(scratch);
            keep
        });
        assert_eq!(live_bytes, 2048, "only the survivor is live");
        drop((kept, held));
    }
}
