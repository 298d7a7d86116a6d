//! The scoped worker pool and the deterministic, order-preserving `par_map`.
//!
//! Work distribution is a shared pull queue (a mutex around an enumerated iterator): workers
//! take the next `(index, item)` pair when they become free, so uneven point costs balance
//! automatically. Results travel back over an [`mpsc`] channel tagged with their input index
//! and are written into their input slot, which is what makes the output order — and
//! therefore every CSV and curve family derived from it — independent of scheduling.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Process-wide default worker count; `0` means "ask [`std::thread::available_parallelism`]".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// `true` on threads spawned by a `mess-exec` pool. Nested parallel calls check this
    /// and run inline, so the configured worker count is a *process-wide* cap rather than a
    /// per-nesting-level multiplier.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Per-thread override of the default worker count (see [`with_default_threads`]);
    /// `0` means "no override, use the process-wide default".
    static THREAD_OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `true` when the current thread is a `mess-exec` worker (a parallel call made here would
/// run inline rather than spawn a second level of threads).
pub fn in_worker() -> bool {
    IN_WORKER.with(|flag| flag.get())
}

/// Marks the current thread as a pool worker for the duration of the returned guard.
struct WorkerMark;

impl WorkerMark {
    fn enter() -> WorkerMark {
        IN_WORKER.with(|flag| flag.set(true));
        WorkerMark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|flag| flag.set(false));
    }
}

/// Sets the process-wide default worker count used by [`ExecConfig::default`].
///
/// `0` restores the built-in default (one worker per available hardware thread). The harness
/// binary maps its `--threads N` flag to this so every driver it calls — none of which take a
/// thread-count parameter — inherits the setting.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The default worker count seen by the current thread: a [`with_default_threads`]
/// override if one is active here, else the last [`set_default_threads`] value, else the
/// available hardware parallelism (at least 1).
pub fn default_threads() -> usize {
    let overridden = THREAD_OVERRIDE.with(|cell| cell.get());
    if overridden != 0 {
        return overridden;
    }
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Runs `f` with this thread's default worker count overridden to `threads` (`0` removes
/// the override), restoring the previous value afterwards — panic-safe.
///
/// This is the per-*run* counterpart to the process-wide [`set_default_threads`]: a
/// resident service executing several runs concurrently gives each run its requested
/// worker count by wrapping the run's top-level call, without the runs racing on one
/// global. Parallel calls made *inside* pool workers run inline anyway (see
/// [`in_worker`]), so overriding the spawning thread is sufficient to control the run's
/// entire fan-out.
pub fn with_default_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let previous = THREAD_OVERRIDE.with(|cell| {
        let previous = cell.get();
        cell.set(threads);
        previous
    });
    let _restore = Restore(previous);
    f()
}

/// Configuration of a parallel execution: how many workers to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads; `0` means "use [`default_threads`]".
    pub threads: usize,
}

impl Default for ExecConfig {
    /// The default configuration defers to the process-wide setting (see
    /// [`set_default_threads`]).
    fn default() -> Self {
        ExecConfig { threads: 0 }
    }
}

impl ExecConfig {
    /// A configuration with exactly `threads` workers (`0` defers to [`default_threads`]).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads }
    }

    /// A strictly sequential configuration (one worker, runs inline on the caller's thread).
    pub fn sequential() -> Self {
        ExecConfig { threads: 1 }
    }

    /// Picks where the parallelism of a two-level fan-out should live, given that the outer
    /// level has `legs` items whose bodies contain their *own* parallel calls (for example
    /// per-platform legs that each run a parallel sweep).
    ///
    /// Nested parallel calls run inline on pool workers, so an outer map with fewer legs
    /// than the pool has workers would strand the rest of the pool. In that case this
    /// returns [`ExecConfig::sequential`] — the outer level iterates inline on the caller's
    /// thread (not a marked worker) and the inner calls keep the full pool. With enough
    /// legs to fill the pool it returns [`ExecConfig::default`] and the outer level fans
    /// out. Either way the output is identical; only the schedule changes.
    ///
    /// Use the plain default for outer maps whose bodies are purely sequential — running
    /// those legs concurrently is always right.
    pub fn for_fanout(legs: usize) -> Self {
        if legs >= default_threads() {
            ExecConfig::default()
        } else {
            ExecConfig::sequential()
        }
    }

    /// The worker count this configuration resolves to, never zero.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => default_threads(),
            n => n,
        }
    }
}

/// Maps `f` over `items` with the process-default worker count, preserving input order.
///
/// Equivalent to [`par_map_with`] with [`ExecConfig::default`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Send + Sync,
{
    par_map_with(&ExecConfig::default(), items, f)
}

/// Maps `f(index, item)` over `items` on a scoped worker pool and returns the results **in
/// input order**, regardless of how the items were scheduled across workers.
///
/// * The pool is scoped ([`std::thread::scope`]): threads are spawned inside the call and
///   joined before it returns, so `f` may borrow from the caller's stack without `Arc` or
///   `'static` bounds.
/// * Workers pull items from a shared queue, so costly items do not serialize behind cheap
///   ones; with one worker (or one item) the map runs inline on the caller's thread, making
///   the sequential and parallel paths take literally the same code path through `f`.
/// * `f` must be deterministic per `(index, item)` for the *output* to be deterministic —
///   the pool guarantees ordering, not the purity of the closure.
/// * Called from inside a `mess-exec` worker (see [`in_worker`]), the map runs inline
///   regardless of `config`: the configured worker count caps the *process*, it does not
///   multiply per nesting level.
///
/// # Panics
///
/// If `f` panics for any item, the pool cancels: workers finish their in-flight items but
/// pull nothing further from the queue, and the earliest-indexed captured panic is resumed
/// on the caller's thread (for the canonical "item 0 is broken" case that is the same panic
/// the sequential path would have surfaced first, without first paying for the rest of the
/// sweep).
pub fn par_map_with<T, R, F>(config: &ExecConfig, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Send + Sync,
{
    let n = items.len();
    let workers = if in_worker() {
        1
    } else {
        config.resolved_threads().min(n).max(1)
    };
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Metrics are one relaxed load when observability is off; when on, the gauge tracks
    // not-yet-pulled items (add n, dec per pull, drain the remainder after the scope so a
    // cancelled run leaves the gauge balanced).
    let metrics = crate::obs::ExecMetrics::if_enabled();
    let map_start = metrics.map(|m| {
        m.queue_depth.add(n as i64);
        std::time::Instant::now()
    });

    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    // Set by the first worker that catches a panic: the run is doomed (the panic will be
    // resumed), so the other workers stop pulling fresh items instead of burning wall-clock
    // on simulations whose results will never be returned.
    let cancelled = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            let cancelled = &cancelled;
            scope.spawn(move || {
                let _mark = WorkerMark::enter();
                while !cancelled.load(Ordering::Relaxed) {
                    // Take the next item while holding the lock only for the pull itself.
                    let Some((index, item)) = queue.lock().expect("work queue poisoned").next()
                    else {
                        return;
                    };
                    if let (Some(m), Some(start)) = (metrics, map_start) {
                        m.items.inc();
                        m.queue_depth.dec();
                        m.wait.observe(start.elapsed().as_secs_f64());
                    }
                    let run_start = metrics.map(|_| std::time::Instant::now());
                    let result = catch_unwind(AssertUnwindSafe(|| f(index, item)));
                    if let (Some(m), Some(start)) = (metrics, run_start) {
                        m.run.observe(start.elapsed().as_secs_f64());
                    }
                    if result.is_err() {
                        cancelled.store(true, Ordering::Relaxed);
                    }
                    if tx.send((index, result)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        for (index, result) in rx {
            match result {
                Ok(value) => slots[index] = Some(value),
                Err(payload) => match &first_panic {
                    Some((seen, _)) if *seen < index => {}
                    _ => first_panic = Some((index, payload)),
                },
            }
        }
    });

    if let Some(m) = metrics {
        let leftover = queue.lock().expect("work queue poisoned").len();
        m.queue_depth.add(-(leftover as i64));
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every input index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_input_order() {
        // Make early items the slowest so a naive completion-order collect would reverse.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_with(&ExecConfig::with_threads(8), items, |i, x| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_thread_count_yields_identical_output() {
        let work = |threads| {
            par_map_with(
                &ExecConfig::with_threads(threads),
                (0..100).collect(),
                |i, x: u64| (i as u64) ^ x.wrapping_mul(0x9E3779B97F4A7C15),
            )
        };
        let reference = work(1);
        for threads in [2, 3, 8, 32] {
            assert_eq!(work(threads), reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        let out = par_map_with(&ExecConfig::with_threads(16), vec![1], |_, x: u32| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![2]);

        // Two items on two workers run concurrently: each waits for the other to have
        // started, so neither could finish on a serialized schedule.
        let gate = AtomicU64::new(0);
        par_map_with(&ExecConfig::with_threads(2), vec![(); 2], |_, ()| {
            assert_ne!(std::thread::current().id(), caller);
            gate.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while gate.load(Ordering::SeqCst) < 2 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "items did not overlap"
                );
                std::hint::spin_loop();
            }
        });
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_items_run_exactly_once() {
        let count = AtomicU64::new(0);
        let sum: u64 = par_map_with(
            &ExecConfig::with_threads(7),
            (1..=1000u64).collect(),
            |_, x| {
                count.fetch_add(1, Ordering::Relaxed);
                x
            },
        )
        .into_iter()
        .sum();
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        // The scoped pool must accept non-'static borrows (specs, factories, configs).
        let base = vec![10u64, 20, 30];
        let out = par_map_with(&ExecConfig::with_threads(2), vec![0usize, 1, 2], |_, i| {
            base[i]
        });
        assert_eq!(out, base);
    }

    #[test]
    fn panic_of_the_smallest_index_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(
                &ExecConfig::with_threads(4),
                (0..32).collect(),
                |i, _x: u64| {
                    if i == 3 || i == 20 {
                        panic!("boom at {i}");
                    }
                    i
                },
            )
        }));
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, "boom at 3");
    }

    #[test]
    fn panic_cancels_the_remaining_queue() {
        let executed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(
                &ExecConfig::with_threads(4),
                (0..64).collect(),
                |i, _x: u64| {
                    executed.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        panic!("first item is broken");
                    }
                    // Slow enough that the cancellation flag is set while the first wave of
                    // items is still in flight.
                    std::thread::sleep(std::time::Duration::from_millis(5));
                },
            )
        }));
        assert!(result.is_err(), "the panic must propagate");
        assert!(
            executed.load(Ordering::SeqCst) < 64,
            "workers must stop pulling fresh items once the run is doomed, ran {}",
            executed.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn nested_par_map_runs_inline_capping_total_threads() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        // The outer map gets 4 workers; each item runs another "4-worker" map. Without the
        // nesting guard this would spawn up to 16 inner threads; with it, every inner item
        // must execute on its outer worker's thread.
        let distinct: HashSet<ThreadId> = par_map_with(
            &ExecConfig::with_threads(4),
            (0..8).collect::<Vec<u32>>(),
            |_, _| {
                assert!(in_worker(), "outer closures run on marked pool workers");
                let inner_threads = par_map_with(
                    &ExecConfig::with_threads(4),
                    (0..4).collect::<Vec<u32>>(),
                    |_, _| std::thread::current().id(),
                );
                let here = std::thread::current().id();
                assert!(
                    inner_threads.iter().all(|id| *id == here),
                    "nested maps must run inline on the outer worker"
                );
                here
            },
        )
        .into_iter()
        .collect();
        assert!(distinct.len() <= 4, "outer pool stayed within its cap");
        assert!(!in_worker(), "the caller's thread is not a worker");
    }

    #[test]
    fn default_threads_round_trips_and_resolves() {
        // Serialize against other tests touching the global via a local lock-step: the
        // global is process-wide, so restore it before leaving.
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(ExecConfig::default().resolved_threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
        assert_eq!(ExecConfig::sequential().resolved_threads(), 1);
        assert_eq!(ExecConfig::with_threads(5).resolved_threads(), 5);
    }

    #[test]
    fn with_default_threads_overrides_then_restores() {
        // Run on a private thread so the process-wide DEFAULT_THREADS poked by other tests
        // cannot interfere with the thread-local under test.
        std::thread::spawn(|| {
            let outside = default_threads();
            let inside = with_default_threads(3, || {
                assert_eq!(default_threads(), 3);
                assert_eq!(ExecConfig::default().resolved_threads(), 3);
                // Nested overrides shadow and restore like a stack.
                with_default_threads(2, || assert_eq!(default_threads(), 2));
                default_threads()
            });
            assert_eq!(inside, 3);
            assert_eq!(default_threads(), outside, "override must not leak");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn with_default_threads_restores_on_panic() {
        std::thread::spawn(|| {
            let outside = default_threads();
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_default_threads(7, || panic!("boom"));
            }));
            assert!(result.is_err());
            assert_eq!(default_threads(), outside);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn override_caps_the_fanout_of_this_thread_only() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        std::thread::spawn(|| {
            let distinct: HashSet<ThreadId> = with_default_threads(1, || {
                par_map((0..16).collect(), |_, _x: u32| std::thread::current().id())
            })
            .into_iter()
            .collect();
            assert_eq!(distinct.len(), 1, "a 1-thread override must run inline");
        })
        .join()
        .unwrap();
    }
}
