//! Criterion benchmarks for the Mess reproduction.
//!
//! This crate holds no library code; its `benches/` directory contains:
//!
//! * `simulation_speed` — the memory-model simulation-speed comparison of paper §V-B
//!   (fixed latency vs M/D/1 vs internal DDR vs DRAMsim3/Ramulator-like vs detailed DRAM vs
//!   the Mess simulator), on both bandwidth-bound (`stream`) and latency-bound
//!   (`pointer-chase`) traffic. Besides the Criterion timings it prints one
//!   `sim_ops_per_sec shape=<shape> model=<model> value=<rate>` line per entry and writes
//!   `BENCH_simspeed.json` (schema in this crate's `README.md`), so the simulation-speed
//!   trajectory accumulates across PRs. `-- --quick` shrinks it to a CI smoke test;
//!   CI builds it with the `release-bench` profile (`lto = "thin"`, one codegen unit).
//! * `figures` — one timed entry point per paper figure/table, each running the
//!   figure's builtin scenario spec through the scenario engine;
//! * `parallel_sweep` — the `mess-exec` parallel characterization sweep at 1 vs 4 workers
//!   (acceptance bar: ≥2× at 4 workers on a ≥4-thread host).
//!
//! The test module below holds the *deterministic* counterpart of the `simulation_speed`
//! acceptance bar: wall-clock speedups are host-dependent, but the number of backend
//! interactions per simulated cycle is not, so CI asserts the cycle-skipping behaviour
//! itself rather than a timing.

#![warn(missing_docs)]

#[cfg(test)]
mod tests {
    use mess_cpu::{Engine, OpStream, StopCondition, VecStream};
    use mess_platforms::{build_memory_model, MemoryModelKind, PlatformId};
    use mess_scenario::engine::scaled_platform;
    use mess_scenario::Fidelity;
    use mess_types::{Completion, Cycle, IssueOutcome, MemoryBackend, MemoryStats, Request};

    /// Counts how often the engine interacts with the backend: the host-independent
    /// observable behind the simulation-speed win.
    struct TickCounting<B> {
        inner: B,
        ticks: u64,
    }

    impl<B: MemoryBackend> MemoryBackend for TickCounting<B> {
        fn tick(&mut self, now: Cycle) {
            self.ticks += 1;
            self.inner.tick(now);
        }
        fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
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

    /// The detailed DRAM model used to force per-cycle lockstep on low-occupancy traffic
    /// (`next_event` returned `now + 1` whenever anything was queued), which is exactly why
    /// it dominated sweep wall-clock. With the exact event engine a pointer-chase must tick
    /// it a handful of times per load, not once per cycle.
    #[test]
    fn detailed_dram_pointer_chase_skips_cycles() {
        let platform = scaled_platform(&PlatformId::IntelSkylake.spec(), Fidelity::Quick);
        let backend = build_memory_model(MemoryModelKind::DetailedDram, &platform, None)
            .expect("detailed model builds");
        let mut counting = TickCounting {
            inner: backend,
            ticks: 0,
        };
        let cpu = platform.cpu_config();
        let chase =
            mess_bench::PointerChaseConfig::sized_against_llc(cpu.llc.capacity_bytes, 4_000);
        let mut streams: Vec<Box<dyn OpStream>> = vec![Box::new(chase.stream())];
        for _ in 1..cpu.cores {
            streams.push(Box::new(VecStream::new(Vec::new())));
        }
        let mut engine = Engine::from_boxed(cpu, streams);
        let report = engine.run(&mut counting, StopCondition::MemoryOps(2_000), 500_000_000);
        assert!(report.memory.total_completed() >= 2_000);
        assert!(
            report.cycles > 100_000,
            "a pointer chase over DRAM must burn real simulated time, got {} cycles",
            report.cycles
        );
        // Pre-rewrite the engine ticked the detailed model once per cycle (ticks ≈ cycles).
        // The exact next_event must cut that by far more than the 3× speedup bar; allow a
        // wide margin so the assertion stays robust to scheduling details.
        assert!(
            counting.ticks * 10 < report.cycles,
            "detailed DRAM no longer skips cycles: {} ticks over {} cycles",
            counting.ticks,
            report.cycles
        );
    }
}
