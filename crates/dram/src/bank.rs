//! Flat, data-oriented per-bank state.
//!
//! Every bank tracks its open row and the earliest cycles at which the next column access,
//! precharge and activate commands may be issued, enforcing tRCD, tRP, tRAS and tWR. The
//! state of all banks of one channel lives in [`BankArray`], a structure-of-arrays keyed by
//! the flat `(rank, bank)` index, which the controller resolves once per request at enqueue:
//! the FR-FCFS scheduler evaluates the oldest queued request of each (bank, row hit) group
//! against its bank once per issued command (plus new arrivals against the cached winner),
//! and four dense `Vec<u64>`
//! columns keep that scan in a handful of cache lines instead of striding over an array of
//! structs.

use crate::timing::TimingCycles;
use serde::{Deserialize, Serialize};

/// Row-buffer outcome of an access, before the access is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The requested row is already open.
    Hit,
    /// The bank is precharged; an activate is needed.
    Empty,
    /// A different row is open; precharge + activate are needed.
    Miss,
}

/// Sentinel marking a precharged bank (no open row). Real row indices are derived from
/// physical addresses and never reach this value.
const NO_OPEN_ROW: u64 = u64::MAX;

/// The state of every bank of one channel, as a structure of arrays.
///
/// All four timing columns are indexed by the same flat `(rank, bank)` index the controller
/// computes once per request. Entries are absolute CPU-cycle deadlines; a fresh bank is
/// precharged and idle (all deadlines zero).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankArray {
    /// Currently open row per bank, [`NO_OPEN_ROW`] when precharged.
    open_row: Vec<u64>,
    /// Earliest cycle a column command to the open row may issue (tRCD after activate).
    column_ready: Vec<u64>,
    /// Earliest cycle a precharge may issue (tRAS after activate, tWR after a write burst).
    precharge_ready: Vec<u64>,
    /// Earliest cycle an activate may issue (tRP after precharge).
    activate_ready: Vec<u64>,
}

impl BankArray {
    /// Creates `n` precharged, idle banks.
    pub fn new(n: usize) -> Self {
        BankArray {
            open_row: vec![NO_OPEN_ROW; n],
            column_ready: vec![0; n],
            precharge_ready: vec![0; n],
            activate_ready: vec![0; n],
        }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// `true` when the array holds no banks.
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// The currently open row of bank `i`, if any.
    pub fn open_row(&self, i: usize) -> Option<u64> {
        match self.open_row[i] {
            NO_OPEN_ROW => None,
            row => Some(row),
        }
    }

    /// Classifies an access to `row` against the current state of bank `i`.
    pub fn classify(&self, i: usize, row: u64) -> RowOutcome {
        match self.open_row[i] {
            NO_OPEN_ROW => RowOutcome::Empty,
            open if open == row => RowOutcome::Hit,
            _ => RowOutcome::Miss,
        }
    }

    /// Earliest cycle at which a column command for `row` can issue on bank `i`, assuming any
    /// required precharge/activate commands are issued as early as the bank state allows,
    /// starting no earlier than `not_before` (which encodes channel-level constraints such as
    /// tRRD/tFAW and refresh blocking for the activate).
    pub fn earliest_column(&self, i: usize, row: u64, not_before: u64, t: &TimingCycles) -> u64 {
        self.column_for(i, self.classify(i, row), not_before, t)
    }

    /// [`BankArray::earliest_column`] for an access already classified as `outcome`.
    ///
    /// The row enters only through the outcome: every row hit of bank `i` shares one column
    /// cycle, and so does every access that is not a hit.
    pub fn column_for(
        &self,
        i: usize,
        outcome: RowOutcome,
        not_before: u64,
        t: &TimingCycles,
    ) -> u64 {
        match outcome {
            RowOutcome::Hit => self.column_ready[i].max(not_before),
            RowOutcome::Empty => {
                let act = self.activate_ready[i].max(not_before);
                act + t.rcd
            }
            RowOutcome::Miss => {
                let pre = self.precharge_ready[i].max(not_before);
                let act = (pre + t.rp).max(self.activate_ready[i]);
                act + t.rcd
            }
        }
    }

    /// Performs the access on bank `i`: updates the bank state as if precharge/activate were
    /// issued as in [`BankArray::earliest_column`] and the column command issued at
    /// `column_cycle`.
    ///
    /// `is_write` controls the write-recovery constraint on the following precharge.
    /// Returns the outcome that was in effect before the access.
    pub fn access(
        &mut self,
        i: usize,
        row: u64,
        column_cycle: u64,
        is_write: bool,
        t: &TimingCycles,
    ) -> RowOutcome {
        let outcome = self.classify(i, row);
        if outcome != RowOutcome::Hit {
            // An activate happened tRCD before the column command.
            let activate_cycle = column_cycle.saturating_sub(t.rcd);
            self.precharge_ready[i] = activate_cycle + t.ras;
            self.open_row[i] = row;
        }
        // Column-to-column spacing within this bank.
        self.column_ready[i] = self.column_ready[i].max(column_cycle + t.ccd);
        // A write delays the earliest precharge by the write recovery time after its data.
        if is_write {
            self.precharge_ready[i] = self.precharge_ready[i].max(column_cycle + t.write_data_end())
        } else {
            self.precharge_ready[i] = self.precharge_ready[i].max(column_cycle + t.read_data_end())
        }
        outcome
    }

    /// Closes bank `i` (explicit precharge) at `cycle`.
    pub fn precharge(&mut self, i: usize, cycle: u64, t: &TimingCycles) {
        let pre = self.precharge_ready[i].max(cycle);
        self.open_row[i] = NO_OPEN_ROW;
        self.activate_ready[i] = self.activate_ready[i].max(pre + t.rp);
    }

    /// Blocks every bank until `cycle` and closes all rows (refresh).
    pub fn block_all_until(&mut self, cycle: u64) {
        for row in &mut self.open_row {
            *row = NO_OPEN_ROW;
        }
        for ready in &mut self.activate_ready {
            *ready = (*ready).max(cycle);
        }
        for ready in &mut self.column_ready {
            *ready = (*ready).max(cycle);
        }
        for ready in &mut self.precharge_ready {
            *ready = (*ready).max(cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DramPreset;
    use mess_types::Frequency;

    fn timing() -> TimingCycles {
        DramPreset::Ddr4_2666
            .timing()
            .to_cpu_cycles(Frequency::from_ghz(2.0))
    }

    fn one_bank() -> BankArray {
        BankArray::new(1)
    }

    #[test]
    fn classification_follows_open_row() {
        let t = timing();
        let mut b = one_bank();
        assert_eq!(b.classify(0, 7), RowOutcome::Empty);
        b.access(0, 7, 100, false, &t);
        assert_eq!(b.open_row(0), Some(7));
        assert_eq!(b.classify(0, 7), RowOutcome::Hit);
        assert_eq!(b.classify(0, 8), RowOutcome::Miss);
    }

    #[test]
    fn banks_are_independent() {
        let t = timing();
        let mut banks = BankArray::new(4);
        assert_eq!(banks.len(), 4);
        banks.access(1, 9, 100, false, &t);
        assert_eq!(banks.classify(1, 9), RowOutcome::Hit);
        assert_eq!(banks.classify(0, 9), RowOutcome::Empty);
        assert_eq!(banks.classify(2, 9), RowOutcome::Empty);
        assert_eq!(banks.open_row(3), None);
    }

    #[test]
    fn hit_is_faster_than_empty_is_faster_than_miss() {
        let t = timing();
        // Empty bank.
        let empty = one_bank().earliest_column(0, 5, 1000, &t);
        // Bank with the target row open and column-ready in the past.
        let mut hitting = one_bank();
        hitting.access(0, 5, 100, false, &t);
        let hit = hitting.earliest_column(0, 5, 1000, &t);
        // Bank with a different row open.
        let mut missing = one_bank();
        missing.access(0, 9, 100, false, &t);
        let miss = missing.earliest_column(0, 5, 1000, &t);
        assert!(hit < empty, "hit {hit} should precede empty {empty}");
        assert!(empty < miss, "empty {empty} should precede miss {miss}");
        assert_eq!(empty - 1000, t.rcd);
        assert!(miss - 1000 >= t.rp + t.rcd);
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let t = timing();
        let mut after_read = one_bank();
        after_read.access(0, 3, 1000, false, &t);
        let mut after_write = one_bank();
        after_write.access(0, 3, 1000, true, &t);
        // A subsequent miss (to row 4) must precharge, which a write pushes further out.
        let read_next = after_read.earliest_column(0, 4, 1000, &t);
        let write_next = after_write.earliest_column(0, 4, 1000, &t);
        assert!(write_next > read_next);
    }

    #[test]
    fn tras_respected_on_fast_row_switch() {
        let t = timing();
        let mut b = one_bank();
        b.access(0, 1, 10, false, &t);
        // A miss right away cannot precharge before tRAS expires (activate was at 10 - rcd,
        // clamped to 0, so precharge_ready >= activate + tRAS).
        let col = b.earliest_column(0, 2, 11, &t);
        assert!(col >= t.ras.saturating_sub(t.rcd) + t.rp + t.rcd);
    }

    #[test]
    fn block_all_until_closes_every_row() {
        let t = timing();
        let mut banks = BankArray::new(3);
        banks.access(0, 1, 10, false, &t);
        banks.access(2, 4, 10, false, &t);
        banks.block_all_until(5000);
        for i in 0..3 {
            assert_eq!(banks.open_row(i), None);
            assert!(banks.earliest_column(i, 1, 0, &t) >= 5000 + t.rcd);
        }
    }

    #[test]
    fn precharge_closes_row() {
        let t = timing();
        let mut b = one_bank();
        b.access(0, 1, 10, false, &t);
        b.precharge(0, 500, &t);
        assert_eq!(b.open_row(0), None);
        assert_eq!(b.classify(0, 1), RowOutcome::Empty);
    }
}
