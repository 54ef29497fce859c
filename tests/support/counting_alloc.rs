//! The counting `#[global_allocator]` shared by the allocation
//! regression suites: `crates/ga/tests/zero_alloc.rs`,
//! `crates/segment/tests/zero_alloc.rs`, `tests/serve_overload.rs`,
//! `tests/serve_churn_alloc.rs` and `tests/clip_ingest_alloc.rs`. A suite includes it with
//! `#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`,
//! which installs the allocator for that whole test binary.
//!
//! It keeps four tallies, and each suite reads the one its claim
//! needs:
//!
//! * a per-thread count of every allocation ([`allocations_during`]).
//!   Tests running side by side cannot pollute each other's counts, so
//!   suites with many tests read this one;
//! * a process-wide count of every allocation ([`allocations`]). It
//!   also sees work handed to other threads, so a suite reading it is a
//!   test binary with a single `#[test]`;
//! * a process-wide count of allocations of at least [`LARGE`] bytes
//!   ([`large_allocations`]), with a ring of the most recent sizes
//!   ([`recent_large_sizes`]) for the failure message;
//! * a largest-allocation tally, per thread ([`largest_during`]) and
//!   process-wide. The process-wide one restarts at [`watch`] and also
//!   counts the allocations at least as large as the watched size
//!   ([`watched`]).
//!
//! Counting never allocates and never re-enters the allocator: the
//! per-thread counter is a `const`-initialised `Cell` with no
//! destructor, and the rest are fixed-size atomics.

// Each suite reads only the tallies it asserts on.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at or above this many bytes count as "large": the
/// frame-buffer / arena / scratch tier the session slot pool exists to
/// recycle. At the churn test's 160x120 resolution the smallest
/// full-frame plane is a u8 plane (19 200 B), while per-clip result
/// vectors (poses, tracking, quality — storage that leaves the session
/// inside the returned analysis and so cannot be recycled) stay below
/// ~8 KiB, so 16 KiB cleanly splits the two tiers.
pub const LARGE: usize = 16 * 1024;

/// System allocator plus the four tallies.
struct CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static THREAD_LARGEST: Cell<usize> = const { Cell::new(0) };
}

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static RECENT_LARGE_SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static WATCH_AT: AtomicUsize = AtomicUsize::new(usize::MAX);
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static WATCHED_SIZES: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

fn count(size: usize) {
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_LARGEST.try_with(|m| m.set(m.get().max(size)));
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        let n = LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        RECENT_LARGE_SIZES[n % RECENT_LARGE_SIZES.len()].store(size, Ordering::Relaxed);
    }
    LARGEST.fetch_max(size, Ordering::Relaxed);
    if size >= WATCH_AT.load(Ordering::Relaxed) {
        let n = WATCHED.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = WATCHED_SIZES.get(n) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers to the system allocator; the counters are a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns the allocations it made on this thread. That
/// is all of them when `f` runs on this thread alone, which a zero
/// count itself proves: starting a thread allocates on the starting
/// thread (each per-thread suite's `starting_a_thread_allocates_on_the_caller`),
/// and no measured path hands work to a thread that already exists.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns the largest single allocation, in bytes, that
/// it made on this thread (0 for none).
pub fn largest_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let outer = THREAD_LARGEST.with(|m| m.replace(0));
    let out = f();
    let largest = THREAD_LARGEST.with(|m| m.replace(outer.max(m.get())));
    (out, largest)
}

/// Allocations so far on every thread of the process.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations of at least [`LARGE`] bytes so far, process-wide.
pub fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.load(Ordering::Relaxed)
}

/// The sizes of up to the 16 most recent large allocations.
pub fn recent_large_sizes() -> Vec<usize> {
    RECENT_LARGE_SIZES
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .filter(|&s| s != 0)
        .collect()
}

/// Restarts the largest-allocation tally, counting from now on every
/// allocation of at least `at_least` bytes.
pub fn watch(at_least: usize) {
    WATCH_AT.store(usize::MAX, Ordering::Relaxed);
    WATCHED.store(0, Ordering::Relaxed);
    for slot in &WATCHED_SIZES {
        slot.store(0, Ordering::Relaxed);
    }
    LARGEST.store(0, Ordering::Relaxed);
    WATCH_AT.store(at_least, Ordering::Relaxed);
}

/// What the largest-allocation tally saw since [`watch`].
#[derive(Debug)]
pub struct Watched {
    /// The largest single allocation, bytes.
    pub largest: usize,
    /// Allocations of at least the watched size.
    pub count: usize,
    /// Their sizes, in order (the first 16).
    pub sizes: Vec<usize>,
}

/// The largest-allocation tally since [`watch`].
pub fn watched() -> Watched {
    let count = WATCHED.load(Ordering::Relaxed);
    Watched {
        largest: LARGEST.load(Ordering::Relaxed),
        count,
        sizes: WATCHED_SIZES
            .iter()
            .take(count)
            .map(|s| s.load(Ordering::Relaxed))
            .collect(),
    }
}
