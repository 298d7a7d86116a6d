//! Factory-level conformance: every memory model the experiment factory can build must
//! honour the v2 `MemoryBackend` contract. This is the test that keeps the protocol
//! enforced for *all nine* backends at once, including future additions to the factory,
//! plus the end-to-end pin that the detailed DRAM model lets the engine skip cycles.

use mess_cpu::{Engine, OpStream, StopCondition, VecStream};
use mess_platforms::{build_memory_model, MemoryModelKind, PlatformId, PlatformRef};
use mess_types::{
    conformance, Completion, Cycle, IssueOutcome, MemoryBackend, MemoryStats, Request,
};

const ALL_KINDS: [MemoryModelKind; 9] = [
    MemoryModelKind::FixedLatency,
    MemoryModelKind::Md1Queue,
    MemoryModelKind::InternalDdr,
    MemoryModelKind::Dramsim3Like,
    MemoryModelKind::RamulatorLike,
    MemoryModelKind::Ramulator2Like,
    MemoryModelKind::DetailedDram,
    MemoryModelKind::Mess,
    MemoryModelKind::CxlExpander,
];

#[test]
fn every_factory_model_passes_the_conformance_suite() {
    let platform = PlatformId::IntelSkylake.spec();
    for kind in ALL_KINDS {
        let curves = kind.needs_curves().then(|| platform.reference_family());
        conformance::check(|| {
            build_memory_model(kind, &platform, curves.clone()).expect("model builds")
        });
    }
}

/// Counts how often the engine interacts with the backend: the host-independent
/// observable behind the event engine's simulation-speed win.
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

/// A pointer chase is low-occupancy traffic with work queued most of the time. A detailed
/// DRAM model whose `next_event` answered `now + 1` whenever anything is queued would drag
/// the engine into per-cycle lockstep here; its exact event engine must be ticked a
/// handful of times per load instead. The conformance suite above cannot see this: its
/// `next_event` precision contract still accepts a backend that answers `now + 1` while
/// work is queued.
#[test]
fn detailed_dram_pointer_chase_skips_cycles() {
    // The quick-fidelity Skylake: at most 8 cores and 1–4 channels.
    let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
    let backend = build_memory_model(MemoryModelKind::DetailedDram, &platform, None)
        .expect("detailed model builds");
    let mut counting = TickCounting {
        inner: backend,
        ticks: 0,
    };
    let cpu = platform.cpu_config();
    let chase = mess_bench::PointerChaseConfig::sized_against_llc(cpu.llc.capacity_bytes, 4_000);
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
    // Per-cycle lockstep means ticks ≈ cycles; skipping must cut that by more than 10×.
    assert!(
        counting.ticks * 10 < report.cycles,
        "detailed DRAM no longer skips cycles: {} ticks over {} cycles",
        counting.ticks,
        report.cycles
    );
}
