//! The standard CPU↔memory interface (v2) and shared statistics.
//!
//! Every memory model in the framework — the fixed-latency, M/D/1 and simple-DDR baselines,
//! the cycle-level DRAM model, the CXL expander, and the Mess analytical simulator itself —
//! implements [`MemoryBackend`], mirroring the paper's observation that the Mess simulator
//! integrates through "the standard interfaces between the CPU and external memory
//! simulators".
//!
//! # The v2 protocol: issue / drain / next_event
//!
//! The interface is *event-driven*: issuers are not required to call
//! [`tick`](MemoryBackend::tick) on every CPU cycle. One interaction round looks like this:
//!
//! ```text
//!   issuer                                  backend
//!     │  tick(now)                             │   advance internal state to `now`
//!     ├───────────────────────────────────────▶│
//!     │  drain_completed(&mut buf) -> n        │   append all completions due at `now`,
//!     ├───────────────────────────────────────▶│   ordered by (complete_cycle, sequence)
//!     │  issue(&batch) -> IssueOutcome         │   accept a prefix of the batch,
//!     ├───────────────────────────────────────▶│   back-pressure the rest
//!     │  next_event() -> Option<Cycle>         │   earliest future cycle at which state
//!     ├───────────────────────────────────────▶│   can change
//!     │                                        │
//!     │  now = max(next core event,            │
//!     │            backend.next_event())       │   ← the issuer *skips* the dead cycles
//!     └─ repeat ──────────────────────────────▶│
//! ```
//!
//! Compared to the v1 lockstep protocol (`tick` + `try_enqueue` per request, every cycle),
//! v2 lets a latency-bound issuer jump over the hundreds of dead cycles between a request
//! and its completion, and lets a bandwidth-bound issuer hand over a whole cycle's worth of
//! requests in one virtual call.
//!
//! # Contract (what the conformance suite enforces)
//!
//! The rules below are checked mechanically by [`crate::conformance::check`] — run it
//! against any new backend rather than trusting the comments:
//!
//! 1. **Determinism.** The same tick/issue sequence yields the same completions and the
//!    same statistics.
//! 2. **Idempotent, gap-tolerant tick.** `tick(now)` with `now` equal to or below the
//!    current cycle is a no-op; jumping the clock forward in one call is equivalent to
//!    stepping through every intermediate cycle, provided no issues happen in between.
//! 3. **Prefix acceptance.** [`issue`](MemoryBackend::issue) accepts a *prefix* of the
//!    batch: requests are considered in order and the first rejection stops the call.
//!    [`IssueOutcome::accepted`] reports the prefix length; one rejection is recorded in
//!    [`MemoryStats::rejected`] per stopped call.
//! 4. **Drain ordering.** [`drain_completed`](MemoryBackend::drain_completed) appends
//!    completions sorted by completion cycle, ties broken by acceptance sequence, and
//!    returns the number appended. The caller owns (and reuses) the buffer; the backend
//!    never clears it and allocates nothing per drain.
//! 5. **Next-event honesty.** While [`pending`](MemoryBackend::pending) is non-zero,
//!    [`next_event`](MemoryBackend::next_event) returns `Some`. The returned cycle may be
//!    *earlier* than the next real state change (the issuer just ticks once more), but it
//!    must never be later than the cycle at which the next completion becomes drainable —
//!    otherwise a cycle-skipping issuer would observe completions late.
//! 6. **Next-event precision.** After a tick and drain, the promise is strictly in the
//!    future, repeated calls without a state change agree, and advancing the clock to a
//!    cycle before the promise (a *dead tick*) drains nothing and never moves the promise
//!    earlier. See the precision notes in the authors' guide below.
//!
//! ## The `next_event` precision contract
//!
//! `next_event` answers one question: *how far may the issuer fast-forward without
//! observing anything late?* Two bounds satisfy the letter of the honesty rule:
//!
//! * an **exact bound** — the first cycle at which the backend's observable state actually
//!   changes (a completion becomes drainable, or internal scheduling commits a decision
//!   that future completions depend on);
//! * a **conservative bound** — any earlier cycle. The issuer ticks, nothing happens, and
//!   the backend promises again. Correct, but every unnecessary wake-up costs a full
//!   tick/drain/issue/next-event round through the issuer.
//!
//! The degenerate conservative bound is returning `now + 1` whenever work is queued. That
//! is a **performance bug, not a correctness bug**: the conformance suite still passes
//! (every completion is observed on time) but a cycle-skipping issuer degrades to per-cycle
//! lockstep on exactly the backend that is most expensive to tick — this was the detailed
//! DRAM model's behaviour before its event engine, and it single-handedly erased the
//! protocol's speedup on low-occupancy traffic. Aim for the exact bound on the hot path:
//! command-scheduling readiness is almost always a maximum of absolute deadlines that can
//! be computed without stepping, as `mess-dram`'s controller does (see its crate docs). If
//! an exact bound is genuinely unreachable, return the tightest deadline you can prove and
//! let new arrivals re-sharpen it on the next tick — a *stale-early* promise costs one
//! wake-up; a *late* promise is a contract violation the suite rejects.
//!
//! # Backend authors' guide
//!
//! To add a memory model:
//!
//! 1. Implement the seven required methods. For models that decide the completion time at
//!    acceptance (every analytical model), keep in-flight requests in a
//!    [`crate::CompletionQueue`] — it provides the ordering guarantee, the zero-alloc
//!    drain and `next_ready()` (your `next_event`) for free.
//! 2. Record completions into a [`MemoryStats`] and return it **by value** from
//!    [`stats`](MemoryBackend::stats); per-window measurements are taken by the caller with
//!    [`StatsWindow`] (the paper's snapshot-and-diff uncore-counter pattern).
//! 3. **Make the model `Send`.** The parallel sweep and experiment paths (`mess-exec`)
//!    build every backend inside a worker thread through a `Send + Sync` factory — a
//!    closure capturing only shared configuration — and the `mess-platforms` factory hands
//!    out `Box<dyn MemoryBackend + Send>`. Plain simulation state (queues, counters,
//!    configs) is `Send` automatically; avoid `Rc`, thread-local handles and raw pointers.
//!    Add a compile-time `fn assert_send<T: Send>()` test next to your conformance test so
//!    a regression fails at the type level instead of deep inside a harness driver.
//! 4. Wire the model into `mess_platforms::MemoryModelKind` if experiments should be able
//!    to select it (that is also what makes it constructible through
//!    `mess_platforms::ModelFactory`, the factory the parallel drivers consume).
//! 5. Add a test calling [`crate::conformance::check`] with a factory closure for your
//!    backend; the factory-level test in `mess-platforms` will pick it up as well once it
//!    is constructible through the factory.

use crate::request::{AccessKind, Completion, Request};
use crate::units::{Bandwidth, Bytes, Cycle, Frequency, Latency, CACHE_LINE_BYTES};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error returned by [`MemoryBackend::try_enqueue`] when the request cannot be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EnqueueError {
    /// The backend's request queue for this access kind is full; the issuer must retry on a
    /// later cycle. This back-pressure is what couples core stalls to memory saturation.
    Full,
}

impl fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::Full => write!(f, "memory request queue is full"),
        }
    }
}

impl Error for EnqueueError {}

/// The result of one batched [`MemoryBackend::issue`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Number of requests accepted, always a prefix of the batch: `batch[..accepted]` were
    /// taken, `batch[accepted..]` must be re-offered on a later cycle.
    pub accepted: usize,
}

impl IssueOutcome {
    /// An outcome accepting the whole batch of `len` requests.
    pub const fn all(len: usize) -> Self {
        IssueOutcome { accepted: len }
    }

    /// `true` when every request of a batch of `len` was accepted.
    pub const fn is_complete(&self, len: usize) -> bool {
        self.accepted == len
    }
}

/// Row-buffer outcome counters (paper Fig. 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowBufferStats {
    /// Accesses that found their row already open (row-buffer hit).
    pub hits: u64,
    /// Accesses that found the bank precharged (row-buffer empty): one activate needed.
    pub empties: u64,
    /// Accesses that found a different row open (row-buffer miss/conflict): precharge +
    /// activate needed.
    pub misses: u64,
}

impl RowBufferStats {
    /// Total number of classified accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.empties + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were classified.
    pub fn hit_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Empty rate in `[0, 1]`.
    pub fn empty_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.empties as f64 / t as f64
        }
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

/// Cumulative statistics maintained by every [`MemoryBackend`].
///
/// Counters are monotonically increasing; window-level quantities (the "uncore counters" of
/// the Mess benchmark) are obtained by snapshotting and diffing — see [`StatsWindow`] for
/// the ergonomic form and [`MemoryStats::delta`] for the raw operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Completed read requests.
    pub reads_completed: u64,
    /// Completed write requests.
    pub writes_completed: u64,
    /// Requests rejected because a queue was full.
    pub rejected: u64,
    /// Sum of read round-trip latencies in cycles (for average-latency computation).
    pub read_latency_cycles: u64,
    /// Sum of write acknowledge latencies in cycles.
    pub write_latency_cycles: u64,
    /// Row-buffer outcome counters (zero for analytical models that do not model banks).
    pub row_buffer: RowBufferStats,
}

impl MemoryStats {
    /// Records one completion into the counters.
    pub fn record_completion(&mut self, completion: &Completion) {
        let lat = completion.latency().as_u64();
        match completion.kind {
            AccessKind::Read => {
                self.reads_completed += 1;
                self.read_latency_cycles += lat;
            }
            AccessKind::Write => {
                self.writes_completed += 1;
                self.write_latency_cycles += lat;
            }
        }
    }

    /// Records a rejected enqueue attempt.
    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Total bytes moved to or from memory (one cache line per completion).
    pub fn total_bytes(&self) -> Bytes {
        Bytes::new(self.total_completed() * CACHE_LINE_BYTES)
    }

    /// Average read latency in cycles; zero if no reads completed.
    pub fn avg_read_latency_cycles(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_cycles as f64 / self.reads_completed as f64
        }
    }

    /// Average read latency converted to nanoseconds at the given CPU frequency.
    pub fn avg_read_latency(&self, freq: Frequency) -> Latency {
        Latency::from_ns(self.avg_read_latency_cycles() / freq.as_ghz())
    }

    /// Counter difference `self - earlier`, for per-window measurements.
    ///
    /// Counters are monotonic, so with a genuine earlier snapshot the subtraction is exact.
    /// Every field uses *saturating* subtraction: feeding snapshots in the wrong order
    /// clamps the affected counters to zero rather than panicking in debug builds and
    /// wrapping in release builds (the counters disagreeing by design — e.g. comparing
    /// windows of two different backends — is a caller bug either way, but a zero delta is
    /// diagnosable while a wrapped `u64` poisons every derived bandwidth figure).
    pub fn delta(&self, earlier: &MemoryStats) -> MemoryStats {
        MemoryStats {
            reads_completed: self.reads_completed.saturating_sub(earlier.reads_completed),
            writes_completed: self
                .writes_completed
                .saturating_sub(earlier.writes_completed),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            read_latency_cycles: self
                .read_latency_cycles
                .saturating_sub(earlier.read_latency_cycles),
            write_latency_cycles: self
                .write_latency_cycles
                .saturating_sub(earlier.write_latency_cycles),
            row_buffer: RowBufferStats {
                hits: self.row_buffer.hits.saturating_sub(earlier.row_buffer.hits),
                empties: self
                    .row_buffer
                    .empties
                    .saturating_sub(earlier.row_buffer.empties),
                misses: self
                    .row_buffer
                    .misses
                    .saturating_sub(earlier.row_buffer.misses),
            },
        }
    }

    /// Bandwidth achieved by this (delta) statistics block over `elapsed_cycles` of CPU time
    /// at frequency `freq`.
    pub fn bandwidth_over(&self, elapsed_cycles: Cycle, freq: Frequency) -> Bandwidth {
        let elapsed = elapsed_cycles.to_latency(freq);
        Bandwidth::from_bytes_over(self.total_bytes(), elapsed)
    }

    /// The observed read/write composition of the completed traffic.
    pub fn rw_ratio(&self) -> crate::RwRatio {
        crate::RwRatio::from_counts(self.reads_completed, self.writes_completed)
    }
}

/// A measurement window over a backend's cumulative counters: the snapshot-and-diff pattern
/// the Mess benchmark uses with the real machines' uncore PMU counters.
///
/// ```
/// use mess_types::{Cycle, Frequency, MemoryBackend, Request, StatsWindow};
/// # use mess_types::{Completion, CompletionQueue, IssueOutcome, MemoryStats};
/// # struct Echo { now: Cycle, q: CompletionQueue, stats: MemoryStats }
/// # impl MemoryBackend for Echo {
/// #     fn tick(&mut self, now: Cycle) { if now > self.now { self.now = now; } }
/// #     fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
/// #         for r in batch { self.q.schedule(Completion { id: r.id, addr: r.addr, kind: r.kind,
/// #             issue_cycle: r.issue_cycle, complete_cycle: r.issue_cycle + 10, core: r.core }); }
/// #         IssueOutcome::all(batch.len())
/// #     }
/// #     fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
/// #         self.q.drain_due(self.now, &mut self.stats, out)
/// #     }
/// #     fn next_event(&self) -> Option<Cycle> { self.q.next_ready() }
/// #     fn pending(&self) -> usize { self.q.len() }
/// #     fn stats(&self) -> MemoryStats { self.stats }
/// #     fn name(&self) -> &str { "echo" }
/// # }
/// # let mut backend = Echo { now: Cycle::ZERO, q: CompletionQueue::new(), stats: MemoryStats::default() };
/// let window = StatsWindow::open(&backend);
/// backend.issue(&[Request::read(0, 0x40, Cycle::ZERO, 0)]);
/// backend.tick(Cycle::new(100));
/// let mut buf = Vec::new();
/// backend.drain_completed(&mut buf);
/// let delta = window.measure(&backend);
/// assert_eq!(delta.reads_completed, 1);
/// let bw = delta.bandwidth_over(Cycle::new(100), Frequency::from_ghz(2.0));
/// assert!(bw.as_gbs() > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StatsWindow {
    baseline: MemoryStats,
}

impl StatsWindow {
    /// Opens a window at the backend's current counter values.
    pub fn open<B: MemoryBackend + ?Sized>(backend: &B) -> Self {
        StatsWindow {
            baseline: backend.stats(),
        }
    }

    /// The counters accumulated since the window was opened.
    pub fn measure<B: MemoryBackend + ?Sized>(&self, backend: &B) -> MemoryStats {
        backend.stats().delta(&self.baseline)
    }

    /// The counters accumulated since the window was opened, then restarts the window at the
    /// current values (for back-to-back windows without gaps).
    pub fn lap<B: MemoryBackend + ?Sized>(&mut self, backend: &B) -> MemoryStats {
        let current = backend.stats();
        let delta = current.delta(&self.baseline);
        self.baseline = current;
        delta
    }
}

/// The standard interface between a CPU model (or trace replayer) and a memory model.
///
/// See the [module documentation](self) for the full protocol, the contract and the
/// authors' guide. In short, per interaction round the issuer calls
/// [`tick`](MemoryBackend::tick), [`drain_completed`](MemoryBackend::drain_completed),
/// [`issue`](MemoryBackend::issue) and then fast-forwards its clock using
/// [`next_event`](MemoryBackend::next_event).
pub trait MemoryBackend {
    /// Advances the backend's internal state up to the CPU cycle `now`.
    ///
    /// `tick` is idempotent for the same `now`, ignores clock rollbacks, and must tolerate
    /// gaps of any size (cycle-skipping issuers jump straight to the next event).
    fn tick(&mut self, now: Cycle);

    /// Offers a batch of requests at the current cycle; the backend accepts a prefix.
    ///
    /// Requests are considered in order; the first one that does not fit stops the call and
    /// records one rejection in [`MemoryStats::rejected`]. An empty batch is a no-op.
    fn issue(&mut self, batch: &[Request]) -> IssueOutcome;

    /// Appends all completions whose completion cycle is `<=` the last ticked cycle to
    /// `out`, ordered by (completion cycle, acceptance sequence), and returns how many were
    /// appended.
    ///
    /// The buffer is caller-owned and reused across calls: the backend must not clear it
    /// and must not allocate per call beyond what `Vec::push` requires.
    fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize;

    /// The earliest future cycle at which the backend's observable state can change (a
    /// completion becomes drainable or internal scheduling makes progress), or `None` when
    /// the backend is idle.
    ///
    /// Must return `Some` whenever [`pending`](MemoryBackend::pending) is non-zero. May be
    /// conservative (early) but never later than the next completion's drain cycle — and
    /// the closer it is to exact, the fewer wake-ups a cycle-skipping issuer burns (see
    /// the precision contract in the [module docs](self)).
    fn next_event(&self) -> Option<Cycle>;

    /// Number of requests accepted but not yet drained.
    fn pending(&self) -> usize;

    /// A snapshot of the cumulative statistics, by value.
    ///
    /// Snapshots are cheap (`MemoryStats` is `Copy`); use [`StatsWindow`] for per-window
    /// measurements.
    fn stats(&self) -> MemoryStats;

    /// Human-readable model name, used in experiment outputs (for example
    /// `"fixed-latency"`, `"mess"`, `"ddr4-2666 x6"`).
    fn name(&self) -> &str;

    /// Convenience single-request issue, for tests and simple drivers.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::Full`] when the backend cannot accept the request this cycle.
    fn try_enqueue(&mut self, request: Request) -> Result<(), EnqueueError> {
        if self.issue(std::slice::from_ref(&request)).accepted == 1 {
            Ok(())
        } else {
            Err(EnqueueError::Full)
        }
    }
}

impl<B: MemoryBackend + ?Sized> MemoryBackend for Box<B> {
    fn tick(&mut self, now: Cycle) {
        (**self).tick(now)
    }
    fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
        (**self).issue(batch)
    }
    fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
        (**self).drain_completed(out)
    }
    fn next_event(&self) -> Option<Cycle> {
        (**self).next_event()
    }
    fn pending(&self) -> usize {
        (**self).pending()
    }
    fn stats(&self) -> MemoryStats {
        (**self).stats()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<B: MemoryBackend + ?Sized> MemoryBackend for &mut B {
    fn tick(&mut self, now: Cycle) {
        (**self).tick(now)
    }
    fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
        (**self).issue(batch)
    }
    fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
        (**self).drain_completed(out)
    }
    fn next_event(&self) -> Option<Cycle> {
        (**self).next_event()
    }
    fn pending(&self) -> usize {
        (**self).pending()
    }
    fn stats(&self) -> MemoryStats {
        (**self).stats()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn completion(kind: AccessKind, lat: u64) -> Completion {
        Completion {
            id: RequestId(0),
            addr: 0,
            kind,
            issue_cycle: Cycle::new(100),
            complete_cycle: Cycle::new(100 + lat),
            core: 0,
        }
    }

    #[test]
    fn stats_record_and_average() {
        let mut s = MemoryStats::default();
        s.record_completion(&completion(AccessKind::Read, 200));
        s.record_completion(&completion(AccessKind::Read, 400));
        s.record_completion(&completion(AccessKind::Write, 100));
        assert_eq!(s.reads_completed, 2);
        assert_eq!(s.writes_completed, 1);
        assert_eq!(s.total_completed(), 3);
        assert!((s.avg_read_latency_cycles() - 300.0).abs() < 1e-12);
        let lat = s.avg_read_latency(Frequency::from_ghz(2.0));
        assert!((lat.as_ns() - 150.0).abs() < 1e-12);
        assert_eq!(s.total_bytes().as_u64(), 3 * CACHE_LINE_BYTES);
    }

    #[test]
    fn stats_delta_and_bandwidth() {
        let mut s = MemoryStats::default();
        for _ in 0..10 {
            s.record_completion(&completion(AccessKind::Read, 100));
        }
        let snapshot = s;
        for _ in 0..90 {
            s.record_completion(&completion(AccessKind::Read, 100));
        }
        let d = s.delta(&snapshot);
        assert_eq!(d.reads_completed, 90);
        // 90 lines * 64 B over 1000 cycles at 1 GHz = 5.76 GB/s.
        let bw = d.bandwidth_over(Cycle::new(1000), Frequency::from_ghz(1.0));
        assert!((bw.as_gbs() - 5.76).abs() < 1e-9);
    }

    #[test]
    fn delta_saturates_uniformly_on_misordered_snapshots() {
        // The policy is saturating subtraction on *every* counter: a swapped snapshot pair
        // yields all-zero deltas instead of a debug panic on some fields and a wrap on
        // others.
        let mut earlier = MemoryStats::default();
        for _ in 0..5 {
            earlier.record_completion(&completion(AccessKind::Read, 100));
            earlier.record_completion(&completion(AccessKind::Write, 50));
        }
        earlier.record_rejection();
        earlier.row_buffer.hits = 3;
        earlier.row_buffer.empties = 2;
        earlier.row_buffer.misses = 1;
        let later = MemoryStats::default();
        let d = later.delta(&earlier);
        assert_eq!(
            d,
            MemoryStats::default(),
            "misordered delta must clamp to zero: {d:?}"
        );
        // And the correct order still subtracts exactly.
        let d = earlier.delta(&later);
        assert_eq!(d, earlier);
    }

    #[test]
    fn stats_window_measures_and_laps() {
        // A window over a raw stats block via a tiny in-test backend.
        struct Fixed(MemoryStats);
        impl MemoryBackend for Fixed {
            fn tick(&mut self, _: Cycle) {}
            fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
                IssueOutcome::all(batch.len())
            }
            fn drain_completed(&mut self, _: &mut Vec<Completion>) -> usize {
                0
            }
            fn next_event(&self) -> Option<Cycle> {
                None
            }
            fn pending(&self) -> usize {
                0
            }
            fn stats(&self) -> MemoryStats {
                self.0
            }
            fn name(&self) -> &str {
                "fixed-stats"
            }
        }
        let mut backend = Fixed(MemoryStats::default());
        let mut window = StatsWindow::open(&backend);
        backend
            .0
            .record_completion(&completion(AccessKind::Read, 10));
        assert_eq!(window.measure(&backend).reads_completed, 1);
        assert_eq!(window.lap(&backend).reads_completed, 1);
        // After the lap the baseline moved: the same counters now measure zero.
        assert_eq!(window.measure(&backend).reads_completed, 0);
    }

    #[test]
    fn row_buffer_rates_sum_to_one() {
        let rb = RowBufferStats {
            hits: 84,
            empties: 13,
            misses: 3,
        };
        assert_eq!(rb.total(), 100);
        let sum = rb.hit_rate() + rb.empty_rate() + rb.miss_rate();
        assert!((sum - 1.0).abs() < 1e-12);
        let empty = RowBufferStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn rw_ratio_of_stats() {
        let mut s = MemoryStats::default();
        for _ in 0..3 {
            s.record_completion(&completion(AccessKind::Read, 10));
        }
        s.record_completion(&completion(AccessKind::Write, 10));
        assert_eq!(s.rw_ratio().read_percent(), 75);
    }

    #[test]
    fn enqueue_error_display() {
        assert_eq!(
            EnqueueError::Full.to_string(),
            "memory request queue is full"
        );
    }

    #[test]
    fn issue_outcome_helpers() {
        let o = IssueOutcome::all(4);
        assert_eq!(o.accepted, 4);
        assert!(o.is_complete(4));
        assert!(!IssueOutcome { accepted: 3 }.is_complete(4));
    }

    #[test]
    fn avg_latency_with_no_reads_is_zero() {
        let s = MemoryStats::default();
        assert_eq!(s.avg_read_latency_cycles(), 0.0);
        assert_eq!(s.avg_read_latency(Frequency::from_ghz(2.0)), Latency::ZERO);
    }
}
