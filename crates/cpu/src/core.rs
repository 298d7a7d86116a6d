//! Per-core execution state.

use mess_types::RequestId;
use serde::{Deserialize, Serialize};

/// Statistics of one simulated core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Retired instructions (compute blocks retire one per cycle).
    pub instructions: u64,
    /// Executed load operations.
    pub loads: u64,
    /// Executed store operations.
    pub stores: u64,
    /// Dependent (pointer-chase) loads executed.
    pub dependent_loads: u64,
    /// Sum of load-to-use latencies of dependent loads, in cycles.
    pub dependent_load_latency_cycles: u64,
    /// Memory read requests issued on behalf of this core (fills).
    pub memory_reads: u64,
    /// Memory write requests issued on behalf of this core (dirty writebacks).
    pub memory_writes: u64,
    /// Cycles spent stalled waiting for a dependent load.
    pub stall_cycles: u64,
    /// Cycle at which this core's stream finished (0 if it never finished).
    pub finished_at: u64,
}

impl CoreStats {
    /// Average load-to-use latency of the dependent loads, in cycles.
    pub fn avg_dependent_load_latency_cycles(&self) -> f64 {
        if self.dependent_loads == 0 {
            0.0
        } else {
            self.dependent_load_latency_cycles as f64 / self.dependent_loads as f64
        }
    }

    /// Instructions per cycle over `cycles` of execution.
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }
}

/// Execution state of one core.
#[derive(Debug)]
pub struct Core {
    /// Core index (also used as the `core` field of memory requests).
    pub id: u32,
    /// The core is busy (computing or finishing a cache hit) until this cycle.
    pub busy_until: u64,
    /// Outstanding read fills (MSHR occupancy).
    pub outstanding: u32,
    /// Dependent load this core is blocked on, if any.
    pub blocked_on: Option<RequestId>,
    /// `true` once the op stream is exhausted.
    pub done: bool,
    /// Per-core statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Creates an idle core.
    pub fn new(id: u32) -> Self {
        Core {
            id,
            busy_until: 0,
            outstanding: 0,
            blocked_on: None,
            done: false,
            stats: CoreStats::default(),
        }
    }

    /// Whether the core can start a new operation at `now` given its MSHR limit.
    pub fn can_issue(&self, now: u64, mshr_limit: u32) -> bool {
        !self.done
            && self.blocked_on.is_none()
            && self.busy_until <= now
            && self.outstanding < mshr_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_core_can_issue() {
        let c = Core::new(3);
        assert_eq!(c.id, 3);
        assert!(c.can_issue(0, 2));
    }

    #[test]
    fn blocked_or_busy_or_full_core_cannot_issue() {
        let mut c = Core::new(0);
        c.busy_until = 10;
        assert!(!c.can_issue(5, 4));
        assert!(c.can_issue(10, 4));
        c.blocked_on = Some(RequestId(7));
        assert!(!c.can_issue(20, 4));
        c.blocked_on = None;
        c.outstanding = 4;
        assert!(!c.can_issue(20, 4));
        c.outstanding = 3;
        assert!(c.can_issue(20, 4));
        c.done = true;
        assert!(!c.can_issue(20, 4));
    }

    #[test]
    fn stats_averages() {
        let mut s = CoreStats::default();
        assert_eq!(s.avg_dependent_load_latency_cycles(), 0.0);
        s.dependent_loads = 4;
        s.dependent_load_latency_cycles = 800;
        assert_eq!(s.avg_dependent_load_latency_cycles(), 200.0);
        s.instructions = 500;
        assert_eq!(s.ipc(1000), 0.5);
        assert_eq!(s.ipc(0), 0.0);
    }
}
