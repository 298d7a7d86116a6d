//! Umbrella crate of the Mess reproduction.
//!
//! Re-exports every crate of the workspace under one name so the examples and integration
//! tests (and downstream users who just want "the framework") need a single dependency:
//!
//! * [`types`] — units, requests, the [`types::MemoryBackend`] interface v2 and its
//!   conformance suite;
//! * [`exec`] — deterministic parallel execution: the order-preserving `par_map` worker
//!   pool and the job-graph runner behind every parallel sweep and experiment campaign;
//! * [`core`] — bandwidth–latency curves, curve families, metrics, the Mess analytical
//!   simulator (the paper's primary contribution), and the persistent `CurveSet` artifact
//!   that carries characterized families between runs;
//! * [`dram`] — the cycle-level multi-channel DRAM reference model;
//! * [`memmodels`] — the fixed-latency, M/D/1 and internal-DDR baselines;
//! * [`cxl`] — the CXL memory-expander model, manufacturer curves and remote-socket emulation;
//! * [`cpu`] — the multi-core front-end with a write-allocate LLC and MSHR-limited parallelism;
//! * [`mod@bench`] — the Mess benchmark (pointer-chase + traffic generator + sweeps +
//!   traces);
//! * [`workloads`] — STREAM, LMbench, multichase, GUPS, HPCG-proxy and the SPEC-like suite;
//! * [`platforms`] — the Table I platform configurations and the memory-model factory;
//! * [`profiler`] — curve positioning, stress scores and timeline analysis;
//! * [`scenario`] — the declarative scenario layer: serializable experiment specs
//!   (workloads × models × platforms × sweeps), the
//!   `run_scenario_observed`/`run_campaign_observed` engine, and the builtin registry
//!   (`builtin_spec`) behind every paper figure. To regenerate a figure from code, run
//!   its builtin spec; the `mess-harness` binary does exactly that for `-e <id>`.
//!
//! # The CPU↔memory interface (v2)
//!
//! Everything above meets at one trait: [`types::MemoryBackend`], the reproduction of "the
//! standard interface between the CPU and external memory simulators". Since the v2
//! redesign the protocol is *event-driven*: issuers batch a whole cycle's requests into one
//! [`types::MemoryBackend::issue`] call, drain completions (ordered by completion cycle,
//! then acceptance sequence) into a reusable buffer, and jump their clock straight to
//! `min(next core event, backend.next_event())` instead of ticking every cycle:
//!
//! ```text
//!     tick(now) ──▶ drain_completed(&mut buf) ──▶ issue(&batch) ──▶ next_event()
//!        ▲                                                              │
//!        └─────────────── now = min(core event, backend event) ◀────────┘
//! ```
//!
//! Latency-bound runs skip the hundreds of dead cycles between a request and its
//! completion (messbench reports the payoff as `cpu.cycles_per_tick`), while
//! bandwidth-bound runs pay one virtual call per cycle instead of one per request.
//!
//! # Parallel execution
//!
//! Above the per-run protocol sits [`exec`]: sweeps and experiment campaigns fan their
//! independent legs out to a scoped worker pool whose results are reassembled **in input
//! order**, so every curve family and CSV is byte-identical at any thread count (the
//! `mess-bench` determinism suite pins this at 1/2/8 workers). Parallel callers never share
//! a backend; they share a `Send + Sync` *factory* — a closure, or a
//! [`platforms::ModelFactory`] — and each worker builds a private model and a private
//! [`cpu::Engine`]. The harness binary's `--threads N` maps to
//! [`exec::set_default_threads`].
//!
//! # Backend authors' guide
//!
//! New memory models implement the seven required methods of [`types::MemoryBackend`] —
//! analytical models get the ordering, zero-allocation drains and `next_event` for free by
//! keeping in-flight requests in a [`types::CompletionQueue`] — and then prove the contract
//! by calling [`types::conformance::check`] with a factory closure in a test. The suite
//! enforces determinism, idempotent/gap-tolerant ticks, drain ordering, next-event honesty
//! and back-pressure accounting; the factory-level test in [`platforms`] runs it against
//! every model the experiment factory can build. The full protocol contract lives in the
//! [`types::backend`] module docs.
//!
//! Two `Send` requirements come with the parallel paths: backends must be `Send` (they are
//! built inside — and may be moved onto — `mess-exec` workers; the platform factory hands
//! out `Box<dyn MemoryBackend + Send>`), and op streams are `Send` by trait definition
//! ([`cpu::OpStream`] has `Send` as a supertrait). Both are free for plain simulation
//! state; pin them with a compile-time `fn assert_send<T: Send>()` test next to your
//! conformance test, as every in-tree backend does.
//!
//! ```
//! use mess::platforms::PlatformId;
//!
//! let skylake = PlatformId::IntelSkylake.spec();
//! assert_eq!(skylake.cores, 24);
//! ```

#![warn(missing_docs)]

pub use mess_bench as bench;
pub use mess_core as core;
pub use mess_cpu as cpu;
pub use mess_cxl as cxl;
pub use mess_dram as dram;
pub use mess_exec as exec;
pub use mess_memmodels as memmodels;
pub use mess_platforms as platforms;
pub use mess_profiler as profiler;
pub use mess_scenario as scenario;
pub use mess_types as types;
pub use mess_workloads as workloads;
