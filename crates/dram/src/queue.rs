//! A controller queue with the per-bank index the FR-FCFS group scan walks.
//!
//! Besides the queued requests in arrival order, the queue keeps two kinds of bitmasks
//! over queue positions: one per flat bank (the positions of that bank's entries) and one
//! of the row hits (the positions whose row is the open row of their bank). With them the
//! scheduler finds the oldest entry of every (bank, row hit) group with a few bit
//! operations per group instead of classifying every entry (`controller` module docs,
//! "Group scan"). The masks cover queues of at most 64 entries, which includes every
//! default depth; a deeper queue keeps no index and is scanned entry by entry.

use crate::bank::{BankArray, RowOutcome};
use mess_types::Request;
use std::collections::VecDeque;
use std::ops::Index;

/// The deepest queue the position bitmasks cover.
const MAX_INDEXED: usize = 64;

/// A request waiting in a controller queue.
///
/// Holds only what the scheduler reads, with the flat bank index resolved once at enqueue:
/// 64 bytes, one cache line per entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedRequest {
    pub(crate) request: Request,
    /// Row within the bank.
    pub(crate) row: u64,
    pub(crate) arrival: u64,
    /// System-level acceptance sequence, echoed in the completion for drain-order ties.
    pub(crate) seq: u64,
    /// Flat `(rank, bank)` index into the channel's [`BankArray`].
    pub(crate) bank: u32,
    /// Slot of the request's rank in the activate-window rings.
    pub(crate) rank: u32,
}

/// One read or write queue of a channel controller.
#[derive(Debug)]
pub(crate) struct RequestQueue {
    entries: VecDeque<QueuedRequest>,
    /// Per flat bank, the positions of its entries; empty when the queue is not indexed.
    bank_positions: Vec<u64>,
    /// Positions whose row is the open row of their bank.
    hit_positions: u64,
}

/// The mask of positions `start..end` (`end <= 64`).
pub(crate) fn positions(start: usize, end: usize) -> u64 {
    let below = |n: usize| if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    below(end) & !below(start)
}

/// `mask` with position `idx` taken out and every later position moved down by one, as
/// `VecDeque::remove` moves the entries.
fn remove_position(mask: u64, idx: usize) -> u64 {
    let below = (1u64 << idx) - 1;
    (mask & below) | ((mask >> 1) & !below)
}

impl RequestQueue {
    /// An empty queue of capacity `depth` over `banks` flat banks.
    pub(crate) fn new(depth: usize, banks: usize) -> Self {
        let indexed = depth <= MAX_INDEXED;
        RequestQueue {
            entries: VecDeque::new(),
            bank_positions: if indexed { vec![0; banks] } else { Vec::new() },
            hit_positions: 0,
        }
    }

    /// Whether the position bitmasks are maintained.
    pub(crate) fn indexed(&self) -> bool {
        !self.bank_positions.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn back(&self) -> Option<&QueuedRequest> {
        self.entries.back()
    }

    /// Positions of the entries of flat bank `bank`.
    pub(crate) fn bank_positions(&self, bank: u32) -> u64 {
        self.bank_positions[bank as usize]
    }

    /// Positions whose row is the open row of their bank.
    pub(crate) fn hit_positions(&self) -> u64 {
        self.hit_positions
    }

    /// Appends `q`, classified against the current bank state.
    pub(crate) fn push(&mut self, q: QueuedRequest, banks: &BankArray) {
        if self.indexed() {
            let bit = 1u64 << self.entries.len();
            self.bank_positions[q.bank as usize] |= bit;
            if banks.classify(q.bank as usize, q.row) == RowOutcome::Hit {
                self.hit_positions |= bit;
            }
        }
        self.entries.push_back(q);
    }

    /// Removes and returns the entry at position `idx`.
    pub(crate) fn remove(&mut self, idx: usize) -> QueuedRequest {
        let q = self.entries.remove(idx).expect("selected index is valid");
        if self.indexed() {
            for mask in &mut self.bank_positions {
                *mask = remove_position(*mask, idx);
            }
            self.hit_positions = remove_position(self.hit_positions, idx);
        }
        q
    }

    /// Re-marks the row hits of flat bank `bank` after it opened `row`.
    pub(crate) fn row_opened(&mut self, bank: u32, row: u64) {
        if !self.indexed() {
            return;
        }
        let mut pending = self.bank_positions[bank as usize];
        while pending != 0 {
            let pos = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if self.entries[pos].row == row {
                self.hit_positions |= 1 << pos;
            } else {
                self.hit_positions &= !(1 << pos);
            }
        }
    }

    /// Clears every row hit: a refresh closed all rows.
    pub(crate) fn rows_closed(&mut self) {
        self.hit_positions = 0;
    }

    /// Whether the index agrees with the entries and the bank state (for debug checks).
    pub(crate) fn index_matches(&self, banks: &BankArray) -> bool {
        if !self.indexed() {
            return true;
        }
        let mut hits = 0u64;
        for (pos, q) in self.entries.iter().enumerate() {
            if (self.bank_positions[q.bank as usize] >> pos) & 1 == 0 {
                return false;
            }
            if banks.classify(q.bank as usize, q.row) == RowOutcome::Hit {
                hits |= 1 << pos;
            }
        }
        // Every entry's bit is present, so a total of `len` bits leaves no stray one.
        let marked: u32 = self.bank_positions.iter().map(|m| m.count_ones()).sum();
        hits == self.hit_positions && marked as usize == self.entries.len()
    }
}

impl Index<usize> for RequestQueue {
    type Output = QueuedRequest;

    fn index(&self, idx: usize) -> &QueuedRequest {
        &self.entries[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_masks() {
        assert_eq!(positions(0, 0), 0);
        assert_eq!(positions(2, 5), 0b11100);
        assert_eq!(positions(0, 64), u64::MAX);
        assert_eq!(positions(63, 64), 1 << 63);
        assert_eq!(remove_position(0b1011, 1), 0b101);
        assert_eq!(remove_position(0b1011, 0), 0b101);
        assert_eq!(remove_position(1 << 63, 63), 0);
        assert_eq!(remove_position(1 << 63, 0), 1 << 62);
    }
}
