//! Persistent host workers for the rasterizer's row tiles.
//!
//! The simulated device shades with parallel pixel pipes; the simulator's
//! analogue is a process-wide pool of host threads that run a draw's row
//! tiles beside the calling thread. The pool starts on first use with one
//! worker per host core but the caller's. A worker polls for the next job
//! for [`SPIN`] after finishing one, so back-to-back draws reach it
//! without a wake-up, and then parks on a condition variable.
//!
//! A job owns its items. The caller and the workers claim them one at a
//! time by index, run them and hand each back with its result, so items
//! move between threads by value and no thread borrows another's data.
//! The caller works through the queue like any worker and claims whatever
//! no worker has taken, so a busy or descheduled worker never leaves a
//! job slower than the caller running it alone. Results come back in item
//! order, whichever thread ran each one.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a worker polls for the next job before it parks. Handing a
/// job to a polling worker took ~0.3 µs and to a parked one ~13 µs on a
/// shared 2-vCPU x86-64 VM; the database layer submits its draws tens of
/// microseconds apart.
const SPIN: Duration = Duration::from_micros(50);

/// Upper bound on the host threads a job runs on, caller included.
const MAX_THREADS: usize = 8;

/// The payload of a panic caught while running an item.
pub(crate) type Panic = Box<dyn Any + Send>;

/// What a posted job offers the workers: claim and run items until none
/// is left.
trait Work: Send + Sync {
    fn work(&self);
}

/// One item of a job, before and after it ran.
enum Slot<T, R> {
    Queued(T),
    Claimed,
    Done(T, Result<R, Panic>),
}

struct Job<T, R, I, F> {
    slots: Vec<Mutex<Slot<T, R>>>,
    /// The next unclaimed slot; claims past the end find nothing.
    next: AtomicUsize,
    /// Builds one thread's scratch state, at its first claim.
    init: I,
    run: F,
}

/// Lock a mutex whose data every update leaves valid, so a panic while it
/// was held (which the pool never lets happen inside a lock) does not
/// matter.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T, R, S, I, F> Work for Job<T, R, I, F>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, &mut T) -> R + Send + Sync,
{
    fn work(&self) {
        let mut scratch = None;
        loop {
            // The slot's mutex hands the item over; the index only needs
            // to be unique.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else {
                return;
            };
            let Slot::Queued(mut item) = std::mem::replace(&mut *lock(slot), Slot::Claimed) else {
                unreachable!("slot {i} claimed twice");
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                (self.run)(scratch.get_or_insert_with(&self.init), &mut item)
            }));
            if result.is_err() {
                scratch = None;
            }
            *lock(slot) = Slot::Done(item, result);
        }
    }
}

/// The workers' view of the pool.
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// `State::epoch`, readable without the lock by polling workers.
    epoch: AtomicU64,
}

struct State {
    /// The job on offer, if any.
    job: Option<Arc<dyn Work>>,
    /// Bumped each time a job is posted (and at shutdown).
    epoch: u64,
    /// Workers parked on `Shared::wake`.
    parked: usize,
    shutdown: bool,
}

/// A set of persistent worker threads.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Start `workers` threads. A thread the OS refuses is left out.
    pub(crate) fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                parked: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpudb-raster-{i}"))
                    .spawn(move || worker(&shared))
                    .ok()
            })
            .collect();
        Pool { shared, handles }
    }

    /// The process-wide pool: one worker per available host core but the
    /// caller's, at most [`MAX_THREADS`] threads in all, started on first
    /// use. `None` when the caller has the host to itself (for instance
    /// under a one-CPU affinity mask), so jobs run on the calling thread.
    pub(crate) fn global() -> Option<&'static Pool> {
        static POOL: OnceLock<Option<Pool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let pool = Pool::new(threads.min(MAX_THREADS) - 1);
            (!pool.handles.is_empty()).then_some(pool)
        })
        .as_ref()
    }

    /// Offer a job to the workers; returns its epoch.
    fn post(&self, job: Arc<dyn Work>) -> u64 {
        let mut state = lock(&self.shared.state);
        state.job = Some(job);
        state.epoch += 1;
        self.shared.epoch.store(state.epoch, Ordering::Release);
        let epoch = state.epoch;
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.shared.wake.notify_all();
        }
        epoch
    }

    /// Withdraw the job posted at `epoch`, unless a later one replaced it.
    fn retract(&self, epoch: u64) {
        let mut state = lock(&self.shared.state);
        if state.epoch == epoch {
            state.job = None;
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.shutdown = true;
        state.epoch += 1;
        self.shared.epoch.store(state.epoch, Ordering::Release);
        drop(state);
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // Items run under `catch_unwind`, so a worker cannot panic.
            let _ = handle.join();
        }
    }
}

fn worker(shared: &Shared) {
    let mut seen = 0;
    loop {
        let polling = Instant::now();
        while shared.epoch.load(Ordering::Acquire) == seen && polling.elapsed() < SPIN {
            std::hint::spin_loop();
        }
        let job = {
            let mut state = lock(&shared.state);
            while state.epoch == seen {
                state.parked += 1;
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
            if state.shutdown {
                return;
            }
            seen = state.epoch;
            state.job.clone()
        };
        // The clone drops here, before the next poll, so the caller can
        // take its job back as soon as every claimed item is done.
        if let Some(job) = job {
            job.work();
        }
    }
}

/// Run `run` over every item, on the calling thread and, when `pool` is
/// given and there is more than one item, on the pool's workers. Each
/// thread builds its scratch state with `init` before its first item.
/// Returns every item with its result, in item order; a panic while
/// running an item is caught and returned in its place.
pub(crate) fn run_all<T, R, S, I, F>(
    pool: Option<&Pool>,
    items: Vec<T>,
    init: I,
    run: F,
) -> Vec<(T, Result<R, Panic>)>
where
    T: Send + 'static,
    R: Send + 'static,
    I: Fn() -> S + Send + Sync + 'static,
    F: Fn(&mut S, &mut T) -> R + Send + Sync + 'static,
{
    let pooled = items.len() > 1;
    let mut job = Arc::new(Job {
        slots: items
            .into_iter()
            .map(|t| Mutex::new(Slot::Queued(t)))
            .collect(),
        next: AtomicUsize::new(0),
        init,
        run,
    });
    let posted = pool
        .filter(|_| pooled)
        .map(|pool| (pool, pool.post(Arc::clone(&job) as Arc<dyn Work>)));
    job.work();
    if let Some((pool, epoch)) = posted {
        pool.retract(epoch);
    }
    // Every item is claimed; wait for the workers still running one to
    // hand it back and let go of the job.
    let mut waits = 0u32;
    let job = loop {
        match Arc::try_unwrap(job) {
            Ok(job) => break job,
            Err(shared) => {
                job = shared;
                waits += 1;
                if waits < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    };
    job.slots
        .into_iter()
        .map(
            |slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Slot::Done(item, result) => (item, result),
                Slot::Queued(_) | Slot::Claimed => unreachable!("every slot is run"),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn squares(pool: Option<&Pool>, n: u64) -> Vec<(u64, u64)> {
        run_all(
            pool,
            (0..n).collect(),
            || 0u64,
            |calls, x: &mut u64| {
                *calls += 1;
                *x * *x
            },
        )
        .into_iter()
        .map(|(x, r)| (x, r.unwrap()))
        .collect()
    }

    #[test]
    fn results_come_back_in_item_order() {
        let pool = Pool::new(3);
        for n in [0, 1, 2, 7, 100] {
            let expected: Vec<_> = (0..n).map(|x| (x, x * x)).collect();
            assert_eq!(squares(Some(&pool), n), expected);
            assert_eq!(squares(None, n), expected);
        }
    }

    #[test]
    fn a_panicking_item_is_returned_and_the_rest_still_run() {
        let pool = Pool::new(2);
        for pool in [Some(&pool), None] {
            let results = run_all(
                pool,
                (0..16).collect(),
                || (),
                |_, x: &mut i32| {
                    assert!(*x != 5, "item five");
                    *x
                },
            );
            for (i, (x, r)) in results.into_iter().enumerate() {
                assert_eq!(x, i as i32);
                match r {
                    Ok(v) => assert_eq!(v, x),
                    Err(payload) => {
                        assert_eq!(x, 5);
                        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Pool::new(2);
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (pool, barrier) = (&pool, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..50 {
                        let n = 1 + (t * 7 + round) % 13;
                        let expected: Vec<_> = (0..n).map(|x| (x, x * x)).collect();
                        assert_eq!(squares(Some(pool), n), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(2);
        assert_eq!(squares(Some(&pool), 9).len(), 9);
        drop(pool);
        let idle = Pool::new(1);
        std::thread::sleep(SPIN * 4);
        drop(idle);
    }
}
