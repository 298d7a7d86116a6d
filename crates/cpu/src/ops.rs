//! Abstract operations executed by the simulated cores.

use crate::program::{OpBlock, PackedOp};
use serde::{Deserialize, Serialize};

/// One operation of a core's instruction stream.
///
/// The Mess benchmark kernels, the STREAM/LMbench/multichase workloads and the SPEC-like
/// synthetic suite are all expressed as streams of these operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// A load from `addr`. If `dependent` is `true`, the core blocks until the data returns
    /// (a pointer-chase link); otherwise the load only occupies an MSHR.
    Load {
        /// Byte address accessed.
        addr: u64,
        /// Whether the next operation depends on this load's data.
        dependent: bool,
    },
    /// A store to `addr`. Stores never block the core (store-buffer semantics) but interact
    /// with the cache's write-allocate policy.
    Store {
        /// Byte address accessed.
        addr: u64,
    },
    /// `cycles` cycles of computation that neither access memory nor stall on it (the
    /// traffic generator's configurable `nop` loop).
    Compute {
        /// Number of busy cycles.
        cycles: u32,
    },
}

impl Op {
    /// An independent (non-blocking) load.
    pub const fn load(addr: u64) -> Op {
        Op::Load {
            addr,
            dependent: false,
        }
    }

    /// A dependent load: the core cannot proceed until the data arrives.
    pub const fn dependent_load(addr: u64) -> Op {
        Op::Load {
            addr,
            dependent: true,
        }
    }

    /// A store.
    pub const fn store(addr: u64) -> Op {
        Op::Store { addr }
    }

    /// A block of computation.
    pub const fn compute(cycles: u32) -> Op {
        Op::Compute { cycles }
    }

    /// Number of retired instructions this operation represents (compute blocks retire one
    /// instruction per cycle, memory operations one each).
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Load { .. } | Op::Store { .. } => 1,
            Op::Compute { cycles } => *cycles as u64,
        }
    }

    /// `true` if this operation touches memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }
}

/// A source of operations for one core.
///
/// Streams are pulled one operation at a time; returning `None` means the core has finished
/// its work (infinite background streams simply never return `None`).
///
/// `Send` is a supertrait: the parallel sweep and experiment paths (`mess-exec`) build
/// engines inside worker threads and may move prepared streams into them, so a stream type
/// that cannot cross threads should fail here, at the type level, rather than deep inside a
/// harness driver. Streams are plain generator state (a cursor, a seed, a config), so the
/// bound is free in practice.
pub trait OpStream: Send {
    /// Produces the next operation, or `None` when the stream is exhausted.
    fn next_op(&mut self) -> Option<Op>;

    /// Clears `out` and refills it with the next batch of operations, returning the new
    /// length. Returning `0` means the stream is exhausted — exactly when `next_op` would
    /// return `None`; a *partial* block does **not** imply exhaustion until a subsequent
    /// call returns `0`.
    ///
    /// This is the engine's hot-path entry point: one virtual call buys up to
    /// [`OP_BLOCK_CAPACITY`](crate::program::OP_BLOCK_CAPACITY) operations. The default
    /// implementation delegates to `next_op`, which monomorphizes per concrete stream type —
    /// so even streams that don't override it stop paying per-op virtual dispatch. The
    /// workload generators ([`ProgramStream`](crate::program::ProgramStream) and the
    /// hand-written streams in `mess-workloads`/`mess-bench`) have one packed step function
    /// that both `next_op` and this method call, so the two paths cannot diverge.
    ///
    /// The block sequence must match the `next_op` sequence op-for-op; the block-boundary
    /// tests in `mess-workloads` and `mess-bench` pin this for every shipped stream.
    fn fill_block(&mut self, out: &mut OpBlock) -> usize {
        out.fill_with(|| self.next_op().map(PackedOp::pack))
    }

    /// A short label used in reports.
    fn label(&self) -> &str {
        "stream"
    }
}

/// A finite stream backed by a vector of operations.
#[derive(Debug, Clone)]
pub struct VecStream {
    ops: std::vec::IntoIter<Op>,
    label: String,
}

impl VecStream {
    /// Creates a stream that yields `ops` once, in order.
    pub fn new(ops: Vec<Op>) -> Self {
        VecStream {
            ops: ops.into_iter(),
            label: "vec".to_string(),
        }
    }

    /// Creates a labelled stream.
    pub fn with_label(ops: Vec<Op>, label: impl Into<String>) -> Self {
        VecStream {
            ops: ops.into_iter(),
            label: label.into(),
        }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_constructors() {
        assert_eq!(
            Op::load(0x40),
            Op::Load {
                addr: 0x40,
                dependent: false
            }
        );
        assert_eq!(
            Op::dependent_load(0x40),
            Op::Load {
                addr: 0x40,
                dependent: true
            }
        );
        assert_eq!(Op::store(0x80), Op::Store { addr: 0x80 });
        assert_eq!(Op::compute(7), Op::Compute { cycles: 7 });
    }

    #[test]
    fn instruction_accounting() {
        assert_eq!(Op::load(0).instructions(), 1);
        assert_eq!(Op::store(0).instructions(), 1);
        assert_eq!(Op::compute(25).instructions(), 25);
        assert!(Op::load(0).is_memory());
        assert!(!Op::compute(1).is_memory());
    }

    #[test]
    fn vec_stream_yields_in_order_then_ends() {
        let mut s = VecStream::with_label(vec![Op::load(0), Op::store(64)], "t");
        assert_eq!(s.label(), "t");
        assert_eq!(s.next_op(), Some(Op::load(0)));
        assert_eq!(s.next_op(), Some(Op::store(64)));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn default_fill_block_matches_next_op_including_exhaustion() {
        let ops: Vec<Op> = (0..600).map(|i| Op::load(i * 64)).collect();
        let mut by_op = VecStream::new(ops.clone());
        let mut by_block = VecStream::new(ops);
        let mut expected = Vec::new();
        while let Some(op) = by_op.next_op() {
            expected.push(op);
        }
        let mut got = Vec::new();
        let mut block = crate::program::OpBlock::new();
        loop {
            let n = by_block.fill_block(&mut block);
            assert_eq!(n, block.len());
            if n == 0 {
                break;
            }
            got.extend(block.as_slice().iter().map(|p| p.unpack()));
        }
        assert_eq!(got, expected);
        // Once exhausted, every further refill stays empty.
        assert_eq!(by_block.fill_block(&mut block), 0);
    }
}
