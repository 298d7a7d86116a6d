//! Pins the wake pattern of STREAM Copy on the detailed-DRAM reference.
//!
//! The event engine and the per-channel calendar decide *when* the engine wakes and how
//! often the backend is ticked. A schedule that stays cycle-exact can still wake at other
//! cycles, and a different wake pattern changes which requests find a full queue: the
//! rejection count moves while every completion cycle (what `event_equivalence` checks)
//! and every printed bandwidth (the harness CSVs omit rejections) stay the same. This test
//! pins the whole `MemoryStats` block, rejections included, the elapsed cycles and the
//! number of backend `tick` calls of one STREAM Copy run on the quick Skylake platform.

use mess_cpu::{Engine, StopCondition};
use mess_platforms::{PlatformId, PlatformRef};
use mess_types::{
    Completion, Cycle, IssueOutcome, MemoryBackend, MemoryStats, Request, RowBufferStats,
};
use mess_workloads::stream::{StreamConfig, StreamKernel};

/// Counts `tick` calls on the wrapped backend.
struct CountTicks<B> {
    inner: B,
    ticks: u64,
}

impl<B: MemoryBackend> MemoryBackend for CountTicks<B> {
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

#[test]
fn stream_copy_on_quick_skylake_keeps_its_wake_pattern() {
    let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
    let cpu = platform.cpu_config();
    let config = StreamConfig {
        kernel: StreamKernel::Copy,
        // Arrays of one LLC, as `stream_bandwidths` sizes them for the characterization
        // figures: the arrays evict each other, so dirty writebacks fill the write queues and
        // some requests are rejected. Arrays at the 4 MiB floor fit in the LLC and would
        // pin no write traffic and no rejections.
        array_bytes: cpu.llc.capacity_bytes,
        iterations: 1,
        cores: cpu.cores,
    };
    let mut dram = CountTicks {
        inner: platform.build_dram(),
        ticks: 0,
    };
    let mut engine = Engine::from_boxed(cpu, config.streams());
    let report = engine.run(&mut dram, StopCondition::AllStreamsDone, 80_000_000);
    assert!(!report.hit_cycle_limit);
    assert_eq!(
        report.memory,
        MemoryStats {
            reads_completed: 1_081_344,
            writes_completed: 344_064,
            rejected: 201,
            read_latency_cycles: 335_043_237,
            write_latency_cycles: 255_839_006,
            row_buffer: RowBufferStats {
                hits: 1_325_308,
                empties: 18_100,
                misses: 82_000,
            },
        }
    );
    assert_eq!(report.cycles, 3_615_154);
    assert_eq!(dram.ticks, 1_466_501);
}
