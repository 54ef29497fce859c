//! A persistent, work-conserving worker pool with a per-dispatch epoch
//! barrier.
//!
//! The serve layer fans session steps out on every supervisor tick; at
//! high tick rates a thread create/join per tick would dominate the
//! (small) per-tick work. [`WorkerPool`] keeps the workers alive across
//! dispatches: [`WorkerPool::run`] publishes one job under a mutex,
//! resets a shared claim cursor, bumps an epoch and wakes every worker.
//! Each worker then claims items one at a time from the cursor until
//! none are left, decrements a `remaining` counter, and the last one
//! wakes the caller. No worker owns a fixed share: a worker that
//! finishes a cheap item claims the next one while another is still on
//! a heavy item, so the dispatch ends when the work does, not when the
//! unluckiest fixed share does. `run` does not return until every
//! worker has checked in, so the job closure may safely borrow the
//! caller's stack — the same guarantee `std::thread::scope` gives,
//! without the per-call spawn.
//!
//! [`WorkerPool::run_each`] hands each claimed item out as a `&mut`
//! into the caller's slice, in the order a [`ClaimOrder`] fixes —
//! heaviest first, so the longest item starts first and the others
//! fill the dispatch around it.
//!
//! Determinism: the pool decides *when* and *on which thread* an item
//! runs, never *what* it computes. Each item is claimed exactly once,
//! and callers give every item its own output slot (the serve manager:
//! a per-session outbox merged in session order after the barrier; the
//! eval matrix: one result slot per cell), so no output can depend on
//! which thread ran an item or in what interleaving.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job reference published for one epoch. Lifetime-erased; see the
/// safety argument on [`WorkerPool::run`].
type Job = &'static (dyn Fn(usize) + Sync);

#[derive(Default)]
struct PoolState {
    /// Bumped once per dispatch; workers run one claim loop per epoch.
    epoch: u64,
    /// Items in the current dispatch: claims `0..items` are valid.
    items: usize,
    /// The current epoch's job (cleared by the caller on completion).
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch (all of
    /// them count, including those that found nothing to claim — that
    /// is the barrier).
    remaining: usize,
    /// Set when an item's job panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    /// The next unclaimed item of the current epoch. Reset under the
    /// state lock before the epoch is published, so every worker that
    /// sees the new epoch sees the reset cursor.
    cursor: AtomicUsize,
    /// Signalled on a new epoch (and on shutdown).
    work_cv: Condvar,
    /// Signalled by the last worker to finish an epoch.
    done_cv: Condvar,
}

/// Long-lived worker threads dispatched with [`WorkerPool::run`].
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState::default()),
            cursor: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("slj-pool-{index}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// The number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `job(i)` exactly once for every item `i < items` across the
    /// pool and blocks until all workers have passed the epoch barrier.
    ///
    /// Items are claimed in increasing order, one at a time, by
    /// whichever worker is free; any number of items may be dispatched
    /// on any number of workers.
    ///
    /// # Panics
    ///
    /// Panics with `"a worker pool job panicked"` if any item's job
    /// panicked. Every other item still runs, and the panic surfaces
    /// only after every worker has reached the barrier, so the pool
    /// stays consistent for the next dispatch — as a scoped-thread
    /// fan-out would.
    pub fn run(&self, items: usize, job: &(dyn Fn(usize) + Sync)) {
        if items == 0 {
            return;
        }
        // SAFETY: the job reference is only reachable by workers during
        // the epoch published below, and this function does not return
        // until `remaining == 0` — i.e. until every worker is done with
        // it — so erasing the lifetime to 'static never lets a worker
        // outlive the borrow.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut state = self.inner.state.lock().expect("pool state poisoned");
        self.inner.cursor.store(0, Ordering::Relaxed);
        state.job = Some(job);
        state.items = items;
        state.remaining = self.workers.len();
        state.panicked = false;
        state.epoch = state.epoch.wrapping_add(1);
        self.inner.work_cv.notify_all();
        while state.remaining != 0 {
            state = self.inner.done_cv.wait(state).expect("pool state poisoned");
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked {
            panic!("a worker pool job panicked");
        }
    }

    /// Runs `job(i, &mut items[i])` exactly once for every item, claimed
    /// in `order` (see [`WorkerPool::run`] for the claim and panic
    /// rules).
    ///
    /// # Panics
    ///
    /// Panics before dispatching anything if `order` was not built for
    /// `items.len()` items.
    pub fn run_each<T: Send>(
        &self,
        items: &mut [T],
        order: &ClaimOrder,
        job: &(dyn Fn(usize, &mut T) + Sync),
    ) {
        assert_eq!(
            order.len(),
            items.len(),
            "claim order built for {} items, dispatched on {}",
            order.len(),
            items.len()
        );
        let base = SlicePtr(items.as_mut_ptr());
        self.run(order.len(), &|claim| {
            let index = order.index(claim);
            // SAFETY: `order` is a permutation of `0..items.len()` (the
            // only thing `ClaimOrder` can hold, and its length was
            // checked above), and `run` hands out each claim exactly
            // once, so every element is borrowed by exactly one job.
            // `run` returns only after every job is done, so no borrow
            // outlives `items`.
            let item = unsafe { &mut *base.get().add(index) };
            job(index, item);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The base of the slice [`WorkerPool::run_each`] hands out. Sharing it
/// is sound because the claims it is offset by are disjoint.
struct SlicePtr<T>(*mut T);

impl<T> SlicePtr<T> {
    /// A method, not a field read, so a closure captures the whole
    /// `Sync` wrapper rather than the bare pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced at disjoint indices, one job
// per element, and the elements themselves are `Send`.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// The order in which [`WorkerPool::run_each`] claims a slice's items:
/// a permutation of its indices, heaviest first, ties in index order.
///
/// Keep one across dispatches: rebuilding it reuses its storage and
/// never sorts with an allocating algorithm.
#[derive(Debug, Clone, Default)]
pub struct ClaimOrder {
    /// `(Reverse(weight), index)`, ascending — keys are unique, so the
    /// order is total and deterministic.
    keys: Vec<(Reverse<usize>, usize)>,
}

impl ClaimOrder {
    /// Rebuilds the order for one item per weight: descending weight,
    /// and items of equal weight in index order.
    pub fn heaviest_first(&mut self, weights: impl IntoIterator<Item = usize>) {
        self.keys.clear();
        self.keys.extend(
            weights
                .into_iter()
                .enumerate()
                .map(|(index, weight)| (Reverse(weight), index)),
        );
        self.keys.sort_unstable();
    }

    /// Items the order covers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the order covers no items.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The item claimed `claim`-th.
    pub fn index(&self, claim: usize) -> usize {
        self.keys[claim].1
    }

    /// The item indices in claim order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.iter().map(|&(_, index)| index)
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, items) = {
            let mut state = inner.state.lock().expect("pool state poisoned");
            while !state.shutdown && state.epoch == seen_epoch {
                state = inner.work_cv.wait(state).expect("pool state poisoned");
            }
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            (state.job.expect("job published with epoch"), state.items)
        };
        let mut panicked = false;
        loop {
            let claim = inner.cursor.fetch_add(1, Ordering::Relaxed);
            if claim >= items {
                break;
            }
            panicked |= catch_unwind(AssertUnwindSafe(|| job(claim))).is_err();
        }
        let mut state = inner.state.lock().expect("pool state poisoned");
        if panicked {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            inner.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn runs_every_shard_exactly_once() {
        let pool = WorkerPool::new(3);
        for items in [1usize, 2, 3, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            for round in 1..=20usize {
                pool.run(items, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for h in &hits {
                    assert_eq!(h.load(Ordering::Relaxed), round, "{items} items");
                }
            }
        }
    }

    #[test]
    fn fewer_shards_than_workers_skips_the_rest() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        pool.run(2, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_shards_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("no item should run"));
    }

    #[test]
    fn more_items_than_workers_are_claimed_by_free_workers() {
        // The first item claimed blocks until every other item has run.
        // Only a worker that claims items as it frees up can run them
        // all; a fixed split would leave the blocked worker's share
        // unrun and deadlock.
        const ITEMS: usize = 9;
        let pool = WorkerPool::new(2);
        let done = Mutex::new(0usize);
        let all_done = Condvar::new();
        let timed_out = AtomicUsize::new(0);
        pool.run(ITEMS, &|i| {
            if i == 0 {
                let guard = done.lock().unwrap();
                let (guard, wait) = all_done
                    .wait_timeout_while(guard, Duration::from_secs(60), |n| *n < ITEMS - 1)
                    .unwrap();
                drop(guard);
                if wait.timed_out() {
                    timed_out.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                *done.lock().unwrap() += 1;
                all_done.notify_all();
            }
        });
        assert_eq!(timed_out.load(Ordering::Relaxed), 0, "items went unclaimed");
        assert_eq!(*done.lock().unwrap(), ITEMS - 1);
    }

    #[test]
    fn claims_follow_the_order_heaviest_first() {
        let mut order = ClaimOrder::default();
        order.heaviest_first([0, 1, 8, 1, 0, 3]);
        assert_eq!(order.indices().collect::<Vec<_>>(), [2, 5, 1, 3, 0, 4]);
        // One worker claims strictly in order.
        let pool = WorkerPool::new(1);
        let mut items = [0usize; 6];
        let seen = Mutex::new(Vec::new());
        pool.run_each(&mut items, &order, &|i, item| {
            *item = i + 10;
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), [2, 5, 1, 3, 0, 4]);
        assert_eq!(items, [10, 11, 12, 13, 14, 15]);
        // Rebuilding reuses the order for a different item count.
        order.heaviest_first([5, 5]);
        assert_eq!(order.indices().collect::<Vec<_>>(), [0, 1]);
        order.heaviest_first(std::iter::empty());
        assert!(order.is_empty());
    }

    #[test]
    fn borrows_caller_stack_mutably_through_disjoint_shards() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 50];
        let mut order = ClaimOrder::default();
        order.heaviest_first((0..data.len()).map(|i| i % 7));
        for round in 1..=10 {
            pool.run_each(&mut data, &order, &|i, slot| *slot += i + 1);
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, round * (i + 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "claim order")]
    fn a_claim_order_for_another_length_is_refused() {
        let pool = WorkerPool::new(2);
        let mut order = ClaimOrder::default();
        order.heaviest_first([1, 2, 3]);
        pool.run_each(&mut [0u8; 2], &order, &|_, _| {});
    }

    #[test]
    fn panicking_job_propagates_after_the_barrier_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(5, &|i| {
                if i == 1 {
                    panic!("boom");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate to the caller");
        assert_eq!(hits.load(Ordering::Relaxed), 4, "the other items still ran");
        // The pool is still consistent: the next dispatch runs cleanly.
        hits.store(0, Ordering::Relaxed);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
