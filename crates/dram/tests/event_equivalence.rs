//! Equivalence regression for the event-driven DRAM rewrite.
//!
//! Drives two identical [`DramSystem`]s through the same randomized request schedule: one
//! through the production event engine (`tick` jumped straight between `next_event` cycles),
//! one through the retained cycle-by-cycle reference scheduler
//! ([`DramSystem::tick_reference`]). Per-request completion cycles, row-buffer outcomes and
//! the cumulative statistics must be bit-identical — the event engine is an optimization,
//! never a model change.

use mess_dram::controller::ControllerConfig;
use mess_dram::{DramConfig, DramPreset, DramSystem};
use mess_types::{AccessKind, Completion, Cycle, Frequency, MemoryBackend, Request, RequestId};

/// Deterministic splitmix-style generator (no dependency on the rand stand-in's evolution).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One scheduled batch: at `cycle`, offer `batch`.
struct Step {
    cycle: u64,
    batch: Vec<Request>,
}

/// A random mix of latency-bound singles, streaming bursts, write-heavy phases and long idle
/// gaps (to cross refresh deadlines), deterministic per seed.
fn random_schedule(seed: u64, requests: usize) -> Vec<Step> {
    let mut rng = Mix(seed);
    let mut steps = Vec::new();
    let mut id = 0u64;
    let mut cycle = 0u64;
    while (id as usize) < requests {
        let phase = rng.below(4);
        let (burst, gap) = match phase {
            // Pointer-chase regime: single requests, long dead time.
            0 => (1, 200 + rng.below(900)),
            // Streaming bursts back to back.
            1 => (1 + rng.below(16), 1 + rng.below(6)),
            // Write-drain pressure: enough writes to cross the high watermark.
            2 => (8 + rng.below(24), 2 + rng.below(8)),
            // Idle gap past a refresh interval.
            _ => (1, 10_000 + rng.below(30_000)),
        };
        let mut batch = Vec::new();
        for _ in 0..burst {
            if id as usize >= requests {
                break;
            }
            let addr = match rng.below(3) {
                // Sequential run (row hits).
                0 => (id % 512) * 64,
                // Strided conflicts.
                1 => rng.below(64) * 0x8_0000,
                // Uniform random.
                _ => rng.below(1 << 24) * 64,
            };
            // Write-heavy in the drain-pressure phase, ~25 % writes elsewhere.
            let roll = rng.below(8);
            let kind = if (phase == 2 && roll < 4) || roll == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            batch.push(Request {
                id: RequestId(id),
                addr,
                kind,
                issue_cycle: Cycle::new(cycle),
                core: (id % 8) as u32,
            });
            id += 1;
        }
        steps.push(Step { cycle, batch });
        cycle += gap;
    }
    steps
}

/// What one drive observed, keyed for exact comparison.
struct Observed {
    /// (request id, completion cycle) in drain order.
    completions: Vec<(u64, u64)>,
    accepted: Vec<u64>,
    stats: mess_types::MemoryStats,
    row_stats: mess_types::RowBufferStats,
}

fn drive(sys: &mut DramSystem, steps: &[Step], event_driven: bool) -> Observed {
    let mut completions = Vec::new();
    let mut accepted = Vec::new();
    let mut buf: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    let mut step_idx = 0usize;
    let horizon = steps.last().map(|s| s.cycle).unwrap_or(0) + 4_000_000;
    loop {
        if event_driven {
            sys.tick(Cycle::new(now));
        } else {
            sys.tick_reference(Cycle::new(now));
        }
        buf.clear();
        sys.drain_completed(&mut buf);
        for c in &buf {
            completions.push((c.id.0, c.complete_cycle.as_u64()));
        }
        while step_idx < steps.len() && steps[step_idx].cycle == now {
            let outcome = sys.issue(&steps[step_idx].batch);
            for r in &steps[step_idx].batch[..outcome.accepted] {
                accepted.push(r.id.0);
            }
            step_idx += 1;
        }
        if step_idx >= steps.len() && sys.pending() == 0 {
            break;
        }
        assert!(now < horizon, "schedule never drained");
        let next_script = steps.get(step_idx).map(|s| s.cycle);
        now = if event_driven {
            let event = sys.next_event().map(|c| c.as_u64());
            match (event, next_script) {
                (Some(e), Some(s)) => e.min(s),
                (Some(e), None) => e,
                (None, Some(s)) => s,
                (None, None) => now + 1,
            }
            .max(now + 1)
        } else {
            now + 1
        };
    }
    Observed {
        completions,
        accepted,
        stats: sys.stats(),
        row_stats: sys.row_stats(),
    }
}

fn assert_equivalent(config: DramConfig, seed: u64, requests: usize) {
    let name = format!(
        "{:?} x{} {:?} seed {seed}",
        config.preset, config.channels, config.controller
    );
    let steps = random_schedule(seed, requests);
    let mut event = DramSystem::new(config.clone());
    let mut reference = DramSystem::new(config);
    let a = drive(&mut event, &steps, true);
    let b = drive(&mut reference, &steps, false);
    assert_eq!(
        a.accepted, b.accepted,
        "{name}: acceptance decisions diverged"
    );
    assert_eq!(
        a.completions, b.completions,
        "{name}: per-request completion cycles diverged"
    );
    assert_eq!(a.stats, b.stats, "{name}: statistics diverged");
    assert_eq!(
        a.row_stats, b.row_stats,
        "{name}: row-buffer outcomes diverged"
    );
    assert_eq!(
        a.completions.len(),
        a.accepted.len(),
        "{name}: every accepted request completed"
    );
}

#[test]
fn ddr4_single_channel_event_tick_matches_reference() {
    // One channel concentrates every request: deepest queues, most write-drain churn.
    assert_equivalent(
        DramConfig::new(DramPreset::Ddr4_2666, 1, Frequency::from_ghz(2.0)),
        0xB0BA_CAFE,
        600,
    );
}

#[test]
fn ddr5_dual_channel_event_tick_matches_reference() {
    assert_equivalent(
        DramConfig::new(DramPreset::Ddr5_4800, 2, Frequency::from_ghz(2.5)),
        0x5EED_0001,
        600,
    );
}

#[test]
fn hbm_many_channel_event_tick_matches_reference() {
    assert_equivalent(
        DramConfig::new(DramPreset::Hbm2, 8, Frequency::from_ghz(2.0)),
        0xDEAD_BEEF,
        600,
    );
}

#[test]
fn refreshless_optane_event_tick_matches_reference() {
    // tRFC = 0 disables refresh entirely: the pure command-scheduling path.
    assert_equivalent(
        DramConfig::new(DramPreset::OptaneLike, 2, Frequency::from_ghz(2.0)),
        0x0C7A_AE5C,
        300,
    );
}

#[test]
fn plain_fcfs_event_tick_matches_reference() {
    // FCFS serves the queue head only: a cached head must never let a later arrival by.
    let mut config = DramConfig::new(DramPreset::Ddr4_2666, 1, Frequency::from_ghz(2.0));
    config.controller.fr_fcfs = false;
    assert_equivalent(config, 0xFCF5_0001, 600);
}

#[test]
fn shallow_queue_event_tick_matches_reference() {
    // Four-deep queues: full-queue wake-ups, rejected batches and write-drain switches run
    // all the time, each of which moves or drops the cached winner.
    let mut config = DramConfig::new(DramPreset::Ddr4_2666, 1, Frequency::from_ghz(2.0));
    config.controller = ControllerConfig {
        read_queue_depth: 4,
        write_queue_depth: 4,
        write_high_watermark: 3,
        write_low_watermark: 1,
        fr_fcfs: true,
    };
    assert_equivalent(config, 0x5A11_0004, 600);
}
