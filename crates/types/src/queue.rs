//! A completion scheduler shared by the analytical memory models.
//!
//! Every backend that decides a request's completion time at acceptance (the fixed-latency,
//! M/D/1, simple-DDR, approximate-external-simulator, CXL-expander and Mess models) keeps
//! its in-flight requests in a [`CompletionQueue`]. The queue provides, for free, the three
//! guarantees of the v2 [`crate::MemoryBackend`] contract that are easy to get subtly
//! wrong:
//!
//! * drains are ordered by (completion cycle, acceptance sequence);
//! * drains reuse the caller's buffer and allocate nothing themselves;
//! * [`CompletionQueue::next_ready`] is exactly the backend's `next_event`.

use crate::backend::MemoryStats;
use crate::request::Completion;
use crate::units::Cycle;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled completion, ordered by (cycle, sequence).
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: u64,
    seq: u64,
    completion: Completion,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A min-queue of scheduled completions with ordered, zero-allocation drains.
///
/// Internally a two-lane structure exploiting how the analytical backends actually
/// schedule: completion times decided at acceptance are (almost) always non-decreasing, so
/// the common case is a plain ring-buffer append and pop — no sift, no per-request
/// `O(log n)` heap traffic. A schedule that arrives *out* of order (e.g. a short-latency
/// channel overtaking a queued long one) spills to a min-heap, and drains merge the two
/// lanes by `(cycle, sequence)` — the observable order is identical to a single heap in
/// every case.
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    /// The monotone fast lane: entries here are in non-decreasing `(at, seq)` order.
    fifo: VecDeque<Scheduled>,
    /// Spill lane for schedules that arrive out of order relative to the fifo's tail.
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl CompletionQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Schedules `completion` for release at its `complete_cycle`.
    ///
    /// Acceptance order is remembered: two completions due on the same cycle drain in the
    /// order they were scheduled.
    pub fn schedule(&mut self, completion: Completion) {
        let entry = Scheduled {
            at: completion.complete_cycle.as_u64(),
            seq: self.seq,
            completion,
        };
        self.seq += 1;
        match self.fifo.back() {
            Some(back) if entry < *back => self.heap.push(Reverse(entry)),
            _ => self.fifo.push_back(entry),
        }
    }

    /// The cycle of the earliest scheduled completion, if any — a backend's `next_event`.
    pub fn next_ready(&self) -> Option<Cycle> {
        let fifo = self.fifo.front();
        let heap = self.heap.peek().map(|Reverse(s)| s);
        match (fifo, heap) {
            (Some(f), Some(h)) => Some(Cycle::new(f.at.min(h.at))),
            (Some(f), None) => Some(Cycle::new(f.at)),
            (None, Some(h)) => Some(Cycle::new(h.at)),
            (None, None) => None,
        }
    }

    /// Appends every completion due at or before `now` to `out` (ordered by cycle then
    /// sequence), records each into `stats`, and returns how many were appended.
    pub fn drain_due(
        &mut self,
        now: Cycle,
        stats: &mut MemoryStats,
        out: &mut Vec<Completion>,
    ) -> usize {
        let now = now.as_u64();
        let mut drained = 0;
        loop {
            // Two-lane merge: take whichever head is smaller by (cycle, sequence); the
            // smaller head is the earliest entry overall, so if it is not due, nothing is.
            let take_fifo = match (self.fifo.front(), self.heap.peek()) {
                (Some(f), Some(Reverse(h))) => {
                    if f.at.min(h.at) > now {
                        break;
                    }
                    *f < *h
                }
                (Some(f), None) => {
                    if f.at > now {
                        break;
                    }
                    true
                }
                (None, Some(Reverse(h))) => {
                    if h.at > now {
                        break;
                    }
                    false
                }
                (None, None) => break,
            };
            let s = if take_fifo {
                self.fifo.pop_front().expect("peeked entry exists")
            } else {
                self.heap.pop().expect("peeked entry exists").0
            };
            stats.record_completion(&s.completion);
            out.push(s.completion);
            drained += 1;
        }
        drained
    }

    /// Number of scheduled, undrained completions.
    pub fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessKind, RequestId};

    fn completion(id: u64, complete: u64) -> Completion {
        Completion {
            id: RequestId(id),
            addr: id * 64,
            kind: AccessKind::Read,
            issue_cycle: Cycle::ZERO,
            complete_cycle: Cycle::new(complete),
            core: 0,
        }
    }

    #[test]
    fn drains_in_cycle_then_sequence_order() {
        let mut q = CompletionQueue::new();
        q.schedule(completion(0, 300));
        q.schedule(completion(1, 100));
        q.schedule(completion(2, 100));
        q.schedule(completion(3, 200));
        assert_eq!(q.next_ready(), Some(Cycle::new(100)));
        let mut stats = MemoryStats::default();
        let mut out = Vec::new();
        let n = q.drain_due(Cycle::new(250), &mut stats, &mut out);
        assert_eq!(n, 3);
        let ids: Vec<u64> = out.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "same-cycle ties keep acceptance order");
        assert_eq!(stats.reads_completed, 3);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_ready(), Some(Cycle::new(300)));
    }

    #[test]
    fn drain_appends_without_clearing() {
        let mut q = CompletionQueue::new();
        q.schedule(completion(7, 10));
        let mut stats = MemoryStats::default();
        let mut out = vec![completion(99, 1)];
        q.drain_due(Cycle::new(10), &mut stats, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id.0, 99, "caller-owned contents are preserved");
    }

    #[test]
    fn empty_queue_has_no_next_event() {
        let q = CompletionQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_ready(), None);
    }
}
