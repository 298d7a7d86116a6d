//! `mess-exec`: deterministic parallel execution for sweeps, experiments and validation runs.
//!
//! The Mess methodology is embarrassingly parallel at the *point* level: a characterization
//! is tens of independent (store-mix, pause) simulations, and a paper figure is a bag of
//! independent per-platform or per-workload legs. This crate turns that structure into
//! wall-clock speedup without sacrificing the framework's reproducibility guarantees:
//!
//! * [`par_map`] / [`par_map_with`] — an order-preserving parallel map over a scoped worker
//!   pool (`std::thread::scope` + `std::sync::mpsc`). Results come back **in input order
//!   regardless of scheduling**, so curve families and CSV files are byte-identical at any
//!   thread count. It is the one scheduler: sweep points, per-platform legs and the members
//!   of a scenario campaign (`--experiment all`) all fan out through it.
//! * [`CancelToken`] — cooperative cancellation that callers check before starting work.
//! * [`ExecConfig`] / [`set_default_threads`] — the worker-count knob. It defaults to
//!   [`std::thread::available_parallelism`]; the harness `--threads N` flag sets the
//!   process-wide default so every driver inherits it.
//!
//! The crate is deliberately **std-only** (no rayon/crossbeam): the jobs it schedules are
//! whole simulations — milliseconds to minutes each — so a pull queue over a mutex plus one
//! result channel is already within noise of a work-stealing runtime, and the framework
//! keeps building in offline environments.
//!
//! # When to parallelize (and when not to)
//!
//! Reach for this crate when **all** of the following hold:
//!
//! 1. **The jobs are independent simulations.** Each worker must build its *own* backend and
//!    `Engine` (see the factory pattern below). Sharing one mutable backend across points is
//!    exactly the coupling that forced the old sequential sweep.
//! 2. **Each job is coarse.** A sweep point simulates hundreds of thousands of cycles;
//!    that dwarfs the ~µs of queue/channel overhead per item. Do *not* `par_map` over
//!    per-request or per-cycle work — the engine's inner loop stays sequential by design.
//! 3. **Determinism is preserved per job.** The pool guarantees output *ordering*; each
//!    closure must itself be a pure function of its `(index, item)` input (seeded RNG, no
//!    shared mutable state, no wall-clock dependence) for end-to-end byte-identical output.
//!
//! Prefer the sequential path (`ExecConfig::sequential()`, or just a `for` loop) when jobs
//! are sub-millisecond or when they contend on one resource (a shared trace file, one
//! recording backend). Nesting, on the other hand, is safe by construction: a parallel call
//! made *inside* a pool worker runs inline (see [`in_worker`]), so the configured worker
//! count is a process-wide cap — `--threads 4` means four simulation threads, not four per
//! nesting level.
//!
//! # The factory pattern
//!
//! Parallel callers hand out a `Send + Sync` *factory* and let each worker build privately:
//!
//! ```
//! use mess_exec::{par_map_with, ExecConfig};
//!
//! struct Backend {
//!     latency: u64,
//! }
//! let factory = || Backend { latency: 100 }; // Send + Sync: capture only shared config
//! let points = vec![0u32, 20, 40];
//! let results = par_map_with(&ExecConfig::with_threads(2), points, |_, pause| {
//!     let backend = factory(); // built inside the worker: no Send needed on Backend itself
//!     backend.latency + pause as u64
//! });
//! assert_eq!(results, vec![100, 120, 140]);
//! ```
//!
//! `mess_bench::characterize` and the `mess-platforms` model factory follow this shape: the
//! factory captures only the (shared, immutable) platform spec, the backend lives and dies
//! on the worker thread.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cancel;
mod obs;
pub mod pool;

pub use cancel::CancelToken;
pub use pool::{
    default_threads, in_worker, par_map, par_map_with, set_default_threads, with_default_threads,
    ExecConfig,
};
