//! The cycle-level execution engine: cores + LLC + memory backend.

use crate::cache::{CacheConfig, CacheStats, LastLevelCache};
use crate::core::{Core, CoreStats};
use crate::ops::OpStream;
use crate::program::OpBlock;
use mess_types::{
    AccessKind, Bandwidth, Completion, Cycle, Frequency, Latency, MemoryBackend, MemoryStats,
    Request, RequestId, StatsWindow,
};
use serde::{Deserialize, Serialize};

/// Configuration of the simulated CPU.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Number of cores (one op stream per core).
    pub cores: u32,
    /// Core clock frequency; also the clock of the memory interface.
    pub frequency: Frequency,
    /// Shared last-level cache geometry.
    pub llc: CacheConfig,
    /// Miss-status holding registers per core: the core's memory-level parallelism limit.
    pub mshrs_per_core: u32,
    /// LLC hit latency (load-to-use for a hit).
    pub llc_hit_latency: Latency,
    /// On-chip latency added to every memory access on top of the backend's latency
    /// (request path through the cache hierarchy and NoC plus the return path).
    pub on_chip_latency: Latency,
}

impl CpuConfig {
    /// A server-class out-of-order core configuration (Skylake/Graviton-like): generous MSHRs
    /// and a large shared LLC.
    pub fn server_class(cores: u32, frequency: Frequency) -> Self {
        CpuConfig {
            cores,
            frequency,
            llc: CacheConfig::new(8 * 1024 * 1024, 16),
            mshrs_per_core: 12,
            llc_hit_latency: Latency::from_ns(18.0),
            on_chip_latency: Latency::from_ns(45.0),
        }
    }

    /// A small in-order core configuration (OpenPiton Ariane-like): two MSHRs and a small LLC,
    /// which caps the achievable memory bandwidth regardless of the memory device.
    pub fn in_order_ariane(cores: u32, frequency: Frequency) -> Self {
        CpuConfig {
            cores,
            frequency,
            llc: CacheConfig::new(4 * 1024 * 1024, 4),
            mshrs_per_core: 2,
            llc_hit_latency: Latency::from_ns(10.0),
            on_chip_latency: Latency::from_ns(30.0),
        }
    }

    /// A GPU-streaming-multiprocessor-like configuration: many outstanding requests per lane
    /// and a cache that does not help (streaming working sets), with a long on-chip latency.
    pub fn gpu_sm_class(sms: u32, frequency: Frequency) -> Self {
        CpuConfig {
            cores: sms,
            frequency,
            llc: CacheConfig::disabled(),
            mshrs_per_core: 48,
            llc_hit_latency: Latency::from_ns(30.0),
            on_chip_latency: Latency::from_ns(250.0),
        }
    }
}

/// When the engine should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopCondition {
    /// Stop when every core's stream is exhausted and all memory requests have drained.
    AllStreamsDone,
    /// Stop when the given core's stream is exhausted (background cores may still be running).
    /// This is how the Mess benchmark stops: the pointer-chase core finishes its fixed number
    /// of loads while the traffic-generator cores loop forever.
    CoreDone(usize),
    /// Stop once this many memory requests have completed.
    MemoryOps(u64),
}

/// The result of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Core frequency (for unit conversions).
    pub frequency: Frequency,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Memory-system statistics accumulated during the run (delta, not cumulative).
    pub memory: MemoryStats,
    /// Memory bandwidth achieved over the run.
    pub bandwidth: Bandwidth,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Total retired instructions across cores.
    pub total_instructions: u64,
    /// Whether the run hit the cycle limit before its stop condition.
    pub hit_cycle_limit: bool,
}

impl RunReport {
    /// Elapsed wall-clock time of the simulated run.
    pub fn elapsed(&self) -> Latency {
        Cycle::new(self.cycles).to_latency(self.frequency)
    }

    /// Aggregate instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// Average load-to-use latency of the dependent loads executed by `core` (the
    /// pointer-chase measurement of the Mess benchmark).
    pub fn dependent_load_latency(&self, core: usize) -> Option<Latency> {
        let stats = self.core_stats.get(core)?;
        if stats.dependent_loads == 0 {
            return None;
        }
        Some(Latency::from_ns(
            stats.avg_dependent_load_latency_cycles() / self.frequency.as_ghz(),
        ))
    }

    /// The read/write composition of the memory traffic observed during the run.
    pub fn rw_ratio(&self) -> mess_types::RwRatio {
        self.memory.rw_ratio()
    }
}

/// Bookkeeping for an in-flight read fill, held in its issuing core's slab.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: RequestId,
    dependent: bool,
    issued_at: u64,
}

/// What a request in the per-cycle issue batch is for.
#[derive(Debug, Clone, Copy)]
enum IssueMeta {
    /// A cache-fill read on behalf of `core`.
    Fill { core: usize, dependent: bool },
    /// A dirty-line writeback; no core waits on it.
    Writeback,
}

/// The cycle-level engine tying cores, the LLC and a memory backend together.
pub struct Engine {
    config: CpuConfig,
    cores: Vec<Core>,
    /// Per core, the cycle at which it may next execute an op: its `busy_until` while
    /// [`Core::can_issue`] allows and no fill of it waits for a retry, else `u64::MAX`
    /// (see [`Engine::run`]).
    ready_at: Vec<u64>,
    /// Cores whose stream is exhausted.
    cores_done: usize,
    streams: Vec<Box<dyn OpStream>>,
    /// Per-core refill buffers of packed ops: the core-advance fast path is an array read
    /// from here, with one virtual `fill_block` call per [`OpBlock`] instead of per op.
    blocks: Vec<OpBlock>,
    /// Per-core cursor into `blocks` (index of the next unexecuted op).
    block_pos: Vec<usize>,
    llc: LastLevelCache,
    next_request_id: u64,
    /// In-flight read fills, one slab per issuing core. A core holds at most
    /// `mshrs_per_core` fills, so the per-completion lookup is a short linear scan over a
    /// dense slab — measurably cheaper than a hash map on the drain hot path.
    in_flight: Vec<Vec<InFlight>>,
    /// Total entries across the `in_flight` slabs.
    in_flight_count: usize,
    /// Memory requests that were rejected (queue full) and must be retried, per core fills.
    retry_fills: Vec<(usize, Request, bool)>,
    /// Dirty writebacks waiting to be accepted by the backend.
    retry_writebacks: Vec<Request>,
    /// Reusable per-cycle issue batch (requests and aligned metadata).
    issue_batch: Vec<Request>,
    issue_meta: Vec<IssueMeta>,
    /// Reusable completion-drain buffer: one allocation for the engine's lifetime, shared
    /// across runs, so the steady-state drain path never touches the allocator.
    drain_buf: Vec<Completion>,
    /// Requests accepted by the backend during the current run (a plain local tally,
    /// flushed to the metric registry at run end when observability is enabled).
    run_issued: u64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.cores.len())
            .field("in_flight", &self.in_flight_count)
            .finish()
    }
}

impl Engine {
    /// Creates an engine from homogeneous streams (one per core).
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match `config.cores`.
    pub fn new<S: OpStream + 'static>(config: CpuConfig, streams: Vec<S>) -> Self {
        let boxed: Vec<Box<dyn OpStream>> = streams
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn OpStream>)
            .collect();
        Engine::from_boxed(config, boxed)
    }

    /// Creates an engine from heterogeneous (boxed) streams, one per core.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match `config.cores`.
    pub fn from_boxed(config: CpuConfig, streams: Vec<Box<dyn OpStream>>) -> Self {
        assert_eq!(
            streams.len(),
            config.cores as usize,
            "one op stream per core is required"
        );
        Engine {
            cores: (0..config.cores).map(Core::new).collect(),
            ready_at: vec![0; config.cores as usize],
            cores_done: 0,
            blocks: (0..config.cores).map(|_| OpBlock::new()).collect(),
            block_pos: vec![0; config.cores as usize],
            llc: LastLevelCache::new(config.llc),
            next_request_id: 0,
            in_flight: (0..config.cores).map(|_| Vec::new()).collect(),
            in_flight_count: 0,
            retry_fills: Vec::new(),
            retry_writebacks: Vec::new(),
            issue_batch: Vec::new(),
            issue_meta: Vec::new(),
            drain_buf: Vec::new(),
            run_issued: 0,
            streams,
            config,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        id
    }

    /// Runs the engine against `backend` until `stop` is met or `max_cycles` elapse.
    ///
    /// The main loop speaks the v2 [`MemoryBackend`] protocol: all requests generated in one
    /// cycle are handed over in a single batched [`MemoryBackend::issue`] call, and instead
    /// of ticking the backend on every CPU cycle the loop jumps straight to the next cycle
    /// at which anything can happen — `min`(next core event, `backend.next_event()`). For a
    /// latency-bound workload (every core blocked on a dependent load) this skips the
    /// hundreds of dead cycles per memory access that the old lockstep loop burned.
    ///
    /// Each wake visits only what is due. The engine keeps a dense per-core `ready_at`: the
    /// cycle at which the core may next execute, or `u64::MAX` while it is blocked on a
    /// dependent load, has every MSHR in use, has a fill waiting for a retry, or is done.
    /// It is refreshed only where a core's state changes (after `execute`, a completion, a
    /// retry or rejection, and when the stream runs out), so the core loop tests one `u64`
    /// per core and the next core event is a minimum over that array.
    pub fn run<B: MemoryBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        stop: StopCondition,
        max_cycles: u64,
    ) -> RunReport {
        let hit_cycles = self
            .config
            .llc_hit_latency
            .to_cycles(self.config.frequency)
            .as_u64()
            .max(1);
        let on_chip_cycles = self
            .config
            .on_chip_latency
            .to_cycles(self.config.frequency)
            .as_u64();
        let window = StatsWindow::open(backend);
        let mut completed_memory_ops = 0u64;
        let mut completions = std::mem::take(&mut self.drain_buf);
        let mut now = 0u64;
        let mut hit_cycle_limit = true;
        // Observability tallies: plain locals (plus `run_issued`), unconditionally
        // maintained — a few integer adds per *event*, not per cycle — and flushed to the
        // registry once at run end. The hot loop never touches an atomic.
        let mut ticks = 0u64;
        let mut drain_batches = 0u64;
        let llc_before = *self.llc.stats();
        self.run_issued = 0;
        self.cores_done = self.cores.iter().filter(|c| c.done).count();
        for core_idx in 0..self.cores.len() {
            self.refresh_ready(core_idx);
        }

        while now < max_cycles {
            ticks += 1;
            backend.tick(Cycle::new(now));

            // Collect completions and unblock cores.
            completions.clear();
            backend.drain_completed(&mut completions);
            if !completions.is_empty() {
                drain_batches += 1;
            }
            for c in &completions {
                completed_memory_ops += 1;
                if c.kind == AccessKind::Write {
                    continue;
                }
                // Backends echo `request.core` into the completion (the conformance suite
                // enforces it), which routes the lookup to one short slab; fall back to a
                // full scan rather than leaking the entry if a backend mislabels a core.
                let found = self
                    .in_flight
                    .get(c.core as usize)
                    .and_then(|slab| slab.iter().position(|f| f.id == c.id))
                    .map(|pos| (c.core as usize, pos))
                    .or_else(|| {
                        self.in_flight.iter().enumerate().find_map(|(idx, slab)| {
                            slab.iter().position(|f| f.id == c.id).map(|pos| (idx, pos))
                        })
                    });
                let Some((slab_idx, pos)) = found else {
                    continue;
                };
                let meta = self.in_flight[slab_idx].swap_remove(pos);
                self.in_flight_count -= 1;
                let core = &mut self.cores[slab_idx];
                core.outstanding = core.outstanding.saturating_sub(1);
                if meta.dependent && core.blocked_on == Some(c.id) {
                    // Data usable after the on-chip return path.
                    let usable = c.complete_cycle.as_u64() + on_chip_cycles;
                    core.busy_until = core.busy_until.max(usable);
                    core.blocked_on = None;
                    // The dependent-load latency and the stall it caused are the same
                    // difference; compute it once and book it into both counters.
                    let latency = usable.saturating_sub(meta.issued_at);
                    core.stats.dependent_load_latency_cycles += latency;
                    core.stats.stall_cycles += latency;
                }
                self.refresh_ready(slab_idx);
            }

            // Re-offer previously rejected requests first (writebacks, then fills), so
            // back-pressured work keeps its priority over new operations.
            self.retry_rejected(backend);

            // Advance cores; they append their memory requests to the issue batch.
            debug_assert!(self.issue_batch.is_empty());
            for core_idx in 0..self.cores.len() {
                // `ready_at` folds in `can_issue` and a pending retry: a core with a rejected
                // fill outstanding must wait for the retry to succeed.
                debug_assert_eq!(
                    self.ready_at[core_idx] <= now,
                    self.cores[core_idx].can_issue(now, self.config.mshrs_per_core)
                        && !self.retry_pending(core_idx),
                    "ready_at of core {core_idx} is stale"
                );
                if self.ready_at[core_idx] > now {
                    continue;
                }
                // Buffered block cursor: the steady-state path is an array read plus a
                // branch. The stream's virtual `fill_block` runs once per block, and a
                // zero-length refill marks exhaustion exactly where `next_op() == None`
                // used to — streams are pure deterministic generators, so pulling ops a
                // block ahead is observably identical.
                let pos = self.block_pos[core_idx];
                let packed = if pos < self.blocks[core_idx].len() {
                    self.block_pos[core_idx] = pos + 1;
                    self.blocks[core_idx].get(pos)
                } else if self.streams[core_idx].fill_block(&mut self.blocks[core_idx]) > 0 {
                    self.block_pos[core_idx] = 1;
                    self.blocks[core_idx].get(0)
                } else {
                    let core = &mut self.cores[core_idx];
                    core.done = true;
                    core.stats.finished_at = now;
                    self.cores_done += 1;
                    self.ready_at[core_idx] = u64::MAX;
                    continue;
                };
                self.execute(core_idx, packed, now, hit_cycles);
                self.refresh_ready(core_idx);
            }

            // One virtual call hands the whole cycle's requests to the backend.
            self.flush_issue_batch(backend, false);

            // Stop-condition evaluation.
            let stop_now = match stop {
                StopCondition::AllStreamsDone => {
                    self.cores_done == self.cores.len()
                        && self.in_flight_count == 0
                        && self.retry_fills.is_empty()
                        && self.retry_writebacks.is_empty()
                        && backend.pending() == 0
                }
                StopCondition::CoreDone(idx) => self.cores.get(idx).map(|c| c.done).unwrap_or(true),
                StopCondition::MemoryOps(n) => completed_memory_ops >= n,
            };
            if stop_now {
                hit_cycle_limit = false;
                now += 1;
                break;
            }
            // Clamp the jump so a run that hits the cycle budget reports exactly
            // `max_cycles` elapsed, like the lockstep loop did.
            now = self.next_cycle(now, backend).min(max_cycles);
        }

        completions.clear();
        self.drain_buf = completions;
        if let Some(metrics) = crate::obs::EngineMetrics::if_enabled() {
            let labels = [("backend", backend.name())];
            metrics.runs.with(&labels).inc();
            metrics.ticks.with(&labels).add(ticks);
            metrics.cycles.with(&labels).add(now);
            metrics
                .cycles_skipped
                .with(&labels)
                .add(now.saturating_sub(ticks));
            metrics.sim_ops.with(&labels).add(completed_memory_ops);
            metrics.issued.with(&labels).add(self.run_issued);
            metrics.drain_batches.with(&labels).add(drain_batches);
            // The cache's counters accumulate over the engine's runs; flush this run's share.
            let hits = |s: &CacheStats| s.load_hits + s.store_hits;
            let misses = |s: &CacheStats| s.load_misses + s.store_misses;
            let llc = self.llc.stats();
            metrics
                .llc_hits
                .with(&labels)
                .add(hits(llc) - hits(&llc_before));
            metrics
                .llc_misses
                .with(&labels)
                .add(misses(llc) - misses(&llc_before));
            metrics
                .llc_writebacks
                .with(&labels)
                .add(llc.writebacks - llc_before.writebacks);
        }
        let memory = window.measure(backend);
        let bandwidth = memory.bandwidth_over(Cycle::new(now.max(1)), self.config.frequency);
        RunReport {
            cycles: now,
            frequency: self.config.frequency,
            core_stats: self.cores.iter().map(|c| c.stats).collect(),
            memory,
            bandwidth,
            llc: *self.llc.stats(),
            total_instructions: self.cores.iter().map(|c| c.stats.instructions).sum(),
            hit_cycle_limit,
        }
    }

    /// Whether a rejected fill of `core_idx` waits in the retry queue.
    fn retry_pending(&self, core_idx: usize) -> bool {
        self.retry_fills.iter().any(|(c, _, _)| *c == core_idx)
    }

    /// Recomputes `ready_at[core_idx]` from the core's state (see [`Engine::run`]).
    fn refresh_ready(&mut self, core_idx: usize) {
        let core = &self.cores[core_idx];
        let ready = core.can_issue(core.busy_until, self.config.mshrs_per_core)
            && !self.retry_pending(core_idx);
        self.ready_at[core_idx] = if ready { core.busy_until } else { u64::MAX };
    }

    /// Re-offers previously rejected writebacks and fills as one batch, ahead of new work.
    fn retry_rejected<B: MemoryBackend + ?Sized>(&mut self, backend: &mut B) {
        if self.retry_writebacks.is_empty() && self.retry_fills.is_empty() {
            return;
        }
        debug_assert!(self.issue_batch.is_empty());
        for req in self.retry_writebacks.drain(..) {
            self.issue_batch.push(req);
            self.issue_meta.push(IssueMeta::Writeback);
        }
        for (core, req, dependent) in self.retry_fills.drain(..) {
            self.issue_batch.push(req);
            self.issue_meta.push(IssueMeta::Fill { core, dependent });
        }
        self.flush_issue_batch(backend, true);
    }

    /// Issues the pending batch and routes the accepted/rejected split: accepted fills are
    /// registered as in flight, rejected requests go (back) to the retry queues.
    ///
    /// Backends accept a *prefix* (they stop at the first request that does not fit), so
    /// after a rejection the suffix is re-offered with the rejected head parked in a retry
    /// queue — one stuffed channel must not starve requests bound for idle channels, which
    /// the v1 per-request protocol tried independently.
    ///
    /// `retried` marks a batch of re-offered requests: a core whose retried fill is accepted
    /// may execute again. A fresh fill changes no core state when it is accepted.
    fn flush_issue_batch<B: MemoryBackend + ?Sized>(&mut self, backend: &mut B, retried: bool) {
        let mut start = 0;
        while start < self.issue_batch.len() {
            let outcome = backend.issue(&self.issue_batch[start..]);
            self.run_issued += outcome.accepted as u64;
            for i in start..start + outcome.accepted {
                if let IssueMeta::Fill { core, dependent } = self.issue_meta[i] {
                    let request = &self.issue_batch[i];
                    self.in_flight[core].push(InFlight {
                        id: request.id,
                        dependent,
                        issued_at: request.issue_cycle.as_u64(),
                    });
                    self.in_flight_count += 1;
                    if retried {
                        self.refresh_ready(core);
                    }
                }
            }
            let rejected = start + outcome.accepted;
            if rejected >= self.issue_batch.len() {
                break;
            }
            match self.issue_meta[rejected] {
                IssueMeta::Fill { core, dependent } => {
                    self.retry_fills
                        .push((core, self.issue_batch[rejected], dependent));
                    self.ready_at[core] = u64::MAX;
                }
                IssueMeta::Writeback => self.retry_writebacks.push(self.issue_batch[rejected]),
            }
            start = rejected + 1;
        }
        self.issue_batch.clear();
        self.issue_meta.clear();
    }

    /// The next cycle at which anything can happen: the earliest core able to act, or the
    /// backend's next event while memory work is outstanding.
    fn next_cycle<B: MemoryBackend + ?Sized>(&self, now: u64, backend: &B) -> u64 {
        let mut next = self
            .ready_at
            .iter()
            .fold(u64::MAX, |a, &b| a.min(b))
            .max(now + 1);
        // A core that is blocked, has its MSHRs full or waits for a retry has a fill in
        // flight or in the retry queue; either way the backend's next event wakes it.
        let wait_memory = self.in_flight_count > 0
            || !self.retry_fills.is_empty()
            || !self.retry_writebacks.is_empty()
            || backend.pending() > 0;
        if wait_memory {
            let event = backend.next_event().map_or(now + 1, |c| c.as_u64());
            next = next.min(event.max(now + 1));
        }
        if next == u64::MAX {
            now + 1
        } else {
            next
        }
    }

    /// Executes one packed operation on one core at cycle `now`; memory requests are
    /// appended to the issue batch.
    ///
    /// Dispatches on the packed tag bits directly — the hot loop never rebuilds the [`Op`]
    /// enum it would immediately match apart again.
    fn execute(
        &mut self,
        core_idx: usize,
        op: crate::program::PackedOp,
        now: u64,
        hit_cycles: u64,
    ) {
        let request_path_cycles = 1u64;
        let payload = op.payload();
        match op.tag() {
            crate::program::TAG_COMPUTE => {
                let core = &mut self.cores[core_idx];
                core.stats.instructions += payload;
                core.busy_until = now + payload;
            }
            crate::program::TAG_STORE => {
                {
                    let core = &mut self.cores[core_idx];
                    core.stats.instructions += 1;
                    core.stats.stores += 1;
                    core.busy_until = now + 1;
                }
                let result = self.llc.access(payload, true);
                if !result.hit {
                    // Write-allocate: the fill read is issued on behalf of the store, but the
                    // core does not wait for it.
                    self.issue_fill(core_idx, payload, false, now + request_path_cycles);
                }
                if let Some(victim) = result.writeback {
                    self.issue_writeback(core_idx, victim, now + request_path_cycles);
                }
            }
            tag => {
                let dependent = tag == crate::program::TAG_DEPENDENT_LOAD;
                self.cores[core_idx].stats.instructions += 1;
                self.cores[core_idx].stats.loads += 1;
                if dependent {
                    self.cores[core_idx].stats.dependent_loads += 1;
                }
                let result = self.llc.access(payload, false);
                if result.hit {
                    let core = &mut self.cores[core_idx];
                    if dependent {
                        core.busy_until = now + hit_cycles;
                        core.stats.dependent_load_latency_cycles += hit_cycles;
                    } else {
                        core.busy_until = now + 1;
                    }
                } else {
                    self.issue_fill(core_idx, payload, dependent, now + request_path_cycles);
                }
                if let Some(victim) = result.writeback {
                    self.issue_writeback(core_idx, victim, now + request_path_cycles);
                }
            }
        }
    }

    fn issue_fill(&mut self, core_idx: usize, addr: u64, dependent: bool, issue_cycle: u64) {
        let id = self.fresh_id();
        let request = Request {
            id,
            addr,
            kind: AccessKind::Read,
            issue_cycle: Cycle::new(issue_cycle),
            core: core_idx as u32,
        };
        let core = &mut self.cores[core_idx];
        core.outstanding += 1;
        core.stats.memory_reads += 1;
        if dependent {
            core.blocked_on = Some(id);
        }
        self.issue_batch.push(request);
        self.issue_meta.push(IssueMeta::Fill {
            core: core_idx,
            dependent,
        });
    }

    fn issue_writeback(&mut self, core_idx: usize, addr: u64, issue_cycle: u64) {
        let id = self.fresh_id();
        let request = Request {
            id,
            addr,
            kind: AccessKind::Write,
            issue_cycle: Cycle::new(issue_cycle),
            core: core_idx as u32,
        };
        self.cores[core_idx].stats.memory_writes += 1;
        self.issue_batch.push(request);
        self.issue_meta.push(IssueMeta::Writeback);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, VecStream};
    use mess_memmodels::FixedLatencyModel;
    use mess_types::CACHE_LINE_BYTES;

    fn fixed_backend(ns: f64, freq: Frequency) -> FixedLatencyModel {
        FixedLatencyModel::new(Latency::from_ns(ns), freq)
    }

    #[test]
    fn dependent_load_stall_accounting_is_booked_once_per_completion() {
        // A disabled cache makes every dependent load miss, so each one stalls the core for
        // exactly the backend latency plus the on-chip return path. Both the latency and the
        // stall counters must book that same difference once per load — no double counting,
        // no drift between the two.
        let freq = Frequency::from_ghz(1.0);
        let config = CpuConfig {
            cores: 1,
            frequency: freq,
            llc: CacheConfig::disabled(),
            mshrs_per_core: 4,
            llc_hit_latency: Latency::from_ns(1.0),
            on_chip_latency: Latency::from_ns(10.0),
        };
        let loads = 8u64;
        let ops: Vec<Op> = (0..loads)
            .map(|i| Op::dependent_load(i * CACHE_LINE_BYTES))
            .collect();
        let mut backend = fixed_backend(60.0, freq);
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 1_000_000);
        let stats = &report.core_stats[0];
        assert_eq!(stats.dependent_loads, loads);
        // 60 cycles of backend latency + 10 cycles on-chip return path per load.
        assert_eq!(stats.dependent_load_latency_cycles, loads * 70);
        assert_eq!(stats.stall_cycles, stats.dependent_load_latency_cycles);
    }

    #[test]
    fn compute_only_stream_retires_one_instruction_per_cycle() {
        let config = CpuConfig::server_class(1, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(60.0, config.frequency);
        let mut engine = Engine::new(config, vec![VecStream::new(vec![Op::compute(1000)])]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 100_000);
        assert!(!report.hit_cycle_limit);
        assert_eq!(report.total_instructions, 1000);
        assert!(
            report.ipc() > 0.9,
            "compute IPC should approach 1, got {}",
            report.ipc()
        );
        assert_eq!(report.memory.total_completed(), 0);
    }

    #[test]
    fn pointer_chase_latency_is_memory_plus_on_chip() {
        let config = CpuConfig::server_class(1, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(50.0, config.frequency);
        // 200 dependent loads, each to a new line far apart (always missing).
        let ops: Vec<Op> = (0..200)
            .map(|i| Op::dependent_load(i * 1024 * 1024))
            .collect();
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
        let lat = report
            .dependent_load_latency(0)
            .expect("dependent loads executed");
        // 50 ns memory + 45 ns on-chip = ~95 ns (+1 cycle request path).
        assert!((lat.as_ns() - 95.0).abs() < 5.0, "load-to-use {lat}");
        assert_eq!(report.core_stats[0].dependent_loads, 200);
    }

    #[test]
    fn llc_hits_are_fast_and_do_not_reach_memory() {
        let config = CpuConfig::server_class(1, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(50.0, config.frequency);
        // Two passes over a tiny working set: the second pass hits.
        let mut ops = Vec::new();
        for _pass in 0..2 {
            for i in 0..64u64 {
                ops.push(Op::dependent_load(i * CACHE_LINE_BYTES));
            }
        }
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
        assert_eq!(report.llc.load_misses, 64);
        assert_eq!(report.llc.load_hits, 64);
        assert_eq!(report.memory.reads_completed, 64);
    }

    #[test]
    fn store_stream_generates_half_read_half_write_memory_traffic() {
        let config = CpuConfig {
            llc: CacheConfig::new(256 * 1024, 8),
            ..CpuConfig::server_class(1, Frequency::from_ghz(2.0))
        };
        let mut backend = fixed_backend(50.0, config.frequency);
        // Stream stores over a working set 8x the LLC, twice, so dirty evictions reach steady state.
        let lines = 2 * 256 * 1024 / CACHE_LINE_BYTES * 8;
        let ops: Vec<Op> = (0..lines)
            .map(|i| Op::store(i * CACHE_LINE_BYTES))
            .collect();
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 50_000_000);
        let ratio = report.rw_ratio();
        assert!(
            (ratio.read_fraction() - 0.5).abs() < 0.03,
            "write-allocate store traffic should be ~50/50, got {ratio}"
        );
    }

    #[test]
    fn mshr_limit_caps_memory_level_parallelism() {
        // With a fixed-latency backend the achieved bandwidth is proportional to the MSHR
        // count (Little's law), which is how the OpenPiton Ariane cores cap at low bandwidth.
        let freq = Frequency::from_ghz(2.0);
        let run_with = |mshrs: u32| {
            let config = CpuConfig {
                mshrs_per_core: mshrs,
                llc: CacheConfig::disabled(),
                ..CpuConfig::server_class(1, freq)
            };
            let mut backend = fixed_backend(100.0, freq);
            let ops: Vec<Op> = (0..4000u64)
                .map(|i| Op::load(i * CACHE_LINE_BYTES))
                .collect();
            let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
            let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
            report.bandwidth.as_gbs()
        };
        let bw2 = run_with(2);
        let bw16 = run_with(16);
        assert!(
            bw16 > bw2 * 4.0,
            "MSHRs should scale bandwidth: {bw2} vs {bw16}"
        );
    }

    #[test]
    fn core_done_stop_condition_leaves_background_cores_running() {
        let config = CpuConfig::server_class(2, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(50.0, config.frequency);
        let primary: Vec<Op> = (0..100).map(|i| Op::dependent_load(i * 4096)).collect();
        let background: Vec<Op> = (0..1_000_000)
            .map(|i| Op::load(1 << 30 | (i * 64)))
            .collect();
        let streams: Vec<Box<dyn OpStream>> = vec![
            Box::new(VecStream::new(primary)),
            Box::new(VecStream::new(background)),
        ];
        let mut engine = Engine::from_boxed(config, streams);
        let report = engine.run(&mut backend, StopCondition::CoreDone(0), 10_000_000);
        assert!(!report.hit_cycle_limit);
        assert_eq!(report.core_stats[0].dependent_loads, 100);
        assert!(
            report.core_stats[1].loads > 0,
            "background core must have made progress"
        );
        assert!(
            report.core_stats[1].finished_at == 0,
            "background core never finishes"
        );
    }

    #[test]
    fn memory_ops_stop_condition() {
        let config = CpuConfig::server_class(1, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(50.0, config.frequency);
        let ops: Vec<Op> = (0..10_000u64).map(|i| Op::load(i * 1024 * 64)).collect();
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::MemoryOps(500), 10_000_000);
        assert!(!report.hit_cycle_limit);
        assert!(report.memory.total_completed() >= 500);
        assert!(report.memory.total_completed() < 1_000);
    }

    #[test]
    #[should_panic(expected = "one op stream per core")]
    fn stream_count_must_match_cores() {
        let config = CpuConfig::server_class(4, Frequency::from_ghz(2.0));
        let _ = Engine::new(config, vec![VecStream::new(vec![Op::compute(1)])]);
    }

    /// Counts how often the engine actually calls `tick` — the observable difference
    /// between the old per-cycle lockstep loop and the v2 cycle-skipping loop.
    struct TickCounting<B> {
        inner: B,
        ticks: u64,
        issue_calls: u64,
        issued_requests: u64,
    }

    impl<B: MemoryBackend> MemoryBackend for TickCounting<B> {
        fn tick(&mut self, now: Cycle) {
            self.ticks += 1;
            self.inner.tick(now);
        }
        fn issue(&mut self, batch: &[Request]) -> mess_types::IssueOutcome {
            self.issue_calls += 1;
            self.issued_requests += batch.len() as u64;
            self.inner.issue(batch)
        }
        fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
            self.inner.drain_completed(out)
        }
        fn next_event(&self) -> Option<Cycle> {
            self.inner.next_event()
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
        fn stats(&self) -> MemoryStats {
            self.inner.stats()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    #[test]
    fn latency_bound_runs_skip_dead_cycles() {
        // A dependent-load chain against a 100 ns memory leaves ~290 dead cycles per load.
        // The lockstep loop ticked the backend once per elapsed cycle; the v2 loop must
        // tick only a handful of times per load (issue + completion + wake-up).
        let config = CpuConfig {
            llc: CacheConfig::disabled(),
            ..CpuConfig::server_class(1, Frequency::from_ghz(2.0))
        };
        let mut backend = TickCounting {
            inner: fixed_backend(100.0, config.frequency),
            ticks: 0,
            issue_calls: 0,
            issued_requests: 0,
        };
        let ops: Vec<Op> = (0..200).map(|i| Op::dependent_load(i * 4096)).collect();
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
        assert!(!report.hit_cycle_limit);
        assert_eq!(report.memory.reads_completed, 200);
        assert!(
            report.cycles > 50_000,
            "the chain must still take its full simulated time, got {} cycles",
            report.cycles
        );
        assert!(
            backend.ticks * 20 < report.cycles,
            "cycle skipping must make tick calls rare: {} ticks over {} cycles",
            backend.ticks,
            report.cycles
        );
    }

    #[test]
    fn bandwidth_bound_runs_batch_their_issues() {
        // Many cores missing every cycle: requests generated in one cycle must arrive at
        // the backend through one batched issue call, not one virtual call each.
        let config = CpuConfig {
            llc: CacheConfig::disabled(),
            ..CpuConfig::server_class(8, Frequency::from_ghz(2.0))
        };
        let mut backend = TickCounting {
            inner: fixed_backend(100.0, config.frequency),
            ticks: 0,
            issue_calls: 0,
            issued_requests: 0,
        };
        let streams: Vec<VecStream> = (0..8)
            .map(|core| {
                VecStream::new(
                    (0..500u64)
                        .map(|i| Op::load((core << 32) | (i * 64)))
                        .collect(),
                )
            })
            .collect();
        let mut engine = Engine::new(config, streams);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
        assert_eq!(report.memory.reads_completed, 8 * 500);
        assert!(
            backend.issue_calls < backend.issued_requests / 4,
            "eight cores' requests should batch: {} issue calls for {} requests",
            backend.issue_calls,
            backend.issued_requests
        );
    }

    #[test]
    fn rejection_for_one_core_does_not_starve_the_others() {
        // Backends accept a prefix and stop at the first rejection; the engine must re-offer
        // the rest of the batch so a stuffed channel cannot park requests bound elsewhere.
        struct RejectEvenLines {
            inner: FixedLatencyModel,
            rejections: u64,
        }
        impl MemoryBackend for RejectEvenLines {
            fn tick(&mut self, now: Cycle) {
                self.inner.tick(now);
            }
            fn issue(&mut self, batch: &[Request]) -> mess_types::IssueOutcome {
                for (i, r) in batch.iter().enumerate() {
                    if (r.addr / 64) % 2 == 0 {
                        self.rejections += 1;
                        return mess_types::IssueOutcome { accepted: i };
                    }
                    let one = self.inner.issue(std::slice::from_ref(r));
                    debug_assert_eq!(one.accepted, 1);
                }
                mess_types::IssueOutcome::all(batch.len())
            }
            fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
                self.inner.drain_completed(out)
            }
            fn next_event(&self) -> Option<Cycle> {
                self.inner.next_event()
            }
            fn pending(&self) -> usize {
                self.inner.pending()
            }
            fn stats(&self) -> MemoryStats {
                self.inner.stats()
            }
            fn name(&self) -> &str {
                "reject-even-lines"
            }
        }

        let config = CpuConfig {
            llc: CacheConfig::disabled(),
            ..CpuConfig::server_class(2, Frequency::from_ghz(2.0))
        };
        // Core 0 targets even lines (always rejected); core 1 targets odd lines.
        let even: Vec<Op> = (0..100u64).map(|i| Op::load(i * 2 * 64)).collect();
        let odd: Vec<Op> = (0..100u64).map(|i| Op::load((i * 2 + 1) * 64)).collect();
        let mut engine = Engine::new(config, vec![VecStream::new(even), VecStream::new(odd)]);
        let mut backend = RejectEvenLines {
            inner: fixed_backend(50.0, Frequency::from_ghz(2.0)),
            rejections: 0,
        };
        let report = engine.run(&mut backend, StopCondition::MemoryOps(100), 100_000);
        assert!(
            !report.hit_cycle_limit,
            "core 1's loads must complete despite core 0's stall"
        );
        assert_eq!(
            report.memory.reads_completed, 100,
            "all odd-line loads should finish"
        );
        assert!(
            backend.rejections > 0,
            "core 0's requests were actually being rejected"
        );
    }

    #[test]
    fn cycle_limit_is_reported() {
        let config = CpuConfig::server_class(1, Frequency::from_ghz(2.0));
        let mut backend = fixed_backend(50.0, config.frequency);
        let ops: Vec<Op> = (0..100_000u64)
            .map(|i| Op::dependent_load(i * 64 * 1024))
            .collect();
        let mut engine = Engine::new(config, vec![VecStream::new(ops)]);
        let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 1_000);
        assert!(report.hit_cycle_limit);
        assert_eq!(report.cycles, 1_000);
    }
}
