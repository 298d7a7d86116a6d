//! Compiled request programs: flat, pre-resolved op buffers the engine consumes in blocks.
//!
//! Pulling operations one at a time costs a virtual [`crate::ops::OpStream::next_op`]
//! call, an enum decode and (for the random workloads) an RNG dispatch *per operation*.
//! This module is the block-based form every shipped workload compiles to:
//!
//! * [`PackedOp`] — one `u64` per operation: a 2-bit kind tag (load / dependent load /
//!   store / compute) in the top bits, the byte address (or the compute-cycle count)
//!   inline in the low bits;
//! * [`OpBlock`] — a small fixed-capacity refill buffer of packed ops. The engine pulls
//!   one block at a time through [`OpStream::fill_block`], so the steady-state per-op path
//!   is an array read plus a tag branch — the virtual dispatch is amortized over
//!   [`OP_BLOCK_CAPACITY`] operations;
//! * [`OpProgram`] / [`ProgramStream`] — a flat packed body plus a repeat/trip-count
//!   header. A STREAM kernel compiles to its literal per-line micro-sequence with a
//!   per-trip address stride and a trip count; a strided latency sweep is a one-op body
//!   with a wrapping stride; a pointer chase is one pre-materialized (possibly partial)
//!   lap repeated up to its load count. Executing a program never calls a closure, never
//!   draws from an RNG and never branches on workload configuration.
//!
//! Generators that cannot be a fixed program (GUPS, the HPCG proxy, the Mess traffic
//! lanes) keep one packed step function and refill through [`OpBlock::fill_with`].
//!
//! [`OpStream::fill_block`]: crate::ops::OpStream::fill_block

use crate::ops::Op;

/// Number of operations one [`OpBlock`] holds (2 KiB of packed ops per core).
pub const OP_BLOCK_CAPACITY: usize = 256;

/// Tag value of an independent load.
pub(crate) const TAG_LOAD: u64 = 0;
/// Tag value of a dependent (pointer-chase) load.
pub(crate) const TAG_DEPENDENT_LOAD: u64 = 1;
/// Tag value of a store.
pub(crate) const TAG_STORE: u64 = 2;
/// Tag value of a compute block.
pub(crate) const TAG_COMPUTE: u64 = 3;

/// Bit position of the 2-bit tag.
const TAG_SHIFT: u32 = 62;
/// Mask of the 62 payload bits (byte address, or compute cycles).
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// One operation packed into a single `u64`.
///
/// Layout: bits 63–62 hold the kind tag, bits 61–0 hold the byte address (memory
/// operations) or the cycle count (compute blocks). The packed form supports constant-time
/// address offsetting ([`PackedOp::offset_by`]), which is how [`ProgramStream`] advances a
/// program body across array lines without rewriting it.
///
/// Addresses must fit in 62 bits (4 EiB of address space); [`PackedOp::pack`] panics
/// otherwise. Every address any workload in this workspace generates is far below that
/// bound — the limit exists so the tag bits can live inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(u64);

impl PackedOp {
    /// Exclusive upper bound of a memory operation's byte address (2^62).
    pub const ADDRESS_LIMIT: u64 = 1 << TAG_SHIFT;

    /// Packs `op` into its one-word form.
    ///
    /// # Panics
    ///
    /// Panics if a memory operation's address does not fit in the 62-bit payload.
    #[inline]
    pub fn pack(op: Op) -> PackedOp {
        match op {
            Op::Load { addr, dependent } => {
                assert!(
                    addr <= PAYLOAD_MASK,
                    "address {addr:#x} exceeds the 62-bit packed-op range"
                );
                let tag = if dependent {
                    TAG_DEPENDENT_LOAD
                } else {
                    TAG_LOAD
                };
                PackedOp(tag << TAG_SHIFT | addr)
            }
            Op::Store { addr } => {
                assert!(
                    addr <= PAYLOAD_MASK,
                    "address {addr:#x} exceeds the 62-bit packed-op range"
                );
                PackedOp(TAG_STORE << TAG_SHIFT | addr)
            }
            Op::Compute { cycles } => PackedOp(TAG_COMPUTE << TAG_SHIFT | cycles as u64),
        }
    }

    /// An independent load.
    #[inline]
    pub fn load(addr: u64) -> PackedOp {
        PackedOp::pack(Op::load(addr))
    }

    /// A dependent load.
    #[inline]
    pub fn dependent_load(addr: u64) -> PackedOp {
        PackedOp::pack(Op::dependent_load(addr))
    }

    /// A store.
    #[inline]
    pub fn store(addr: u64) -> PackedOp {
        PackedOp::pack(Op::store(addr))
    }

    /// A compute block.
    #[inline]
    pub fn compute(cycles: u32) -> PackedOp {
        PackedOp::pack(Op::compute(cycles))
    }

    /// Decodes the packed form back into an [`Op`].
    #[inline]
    pub fn unpack(self) -> Op {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> TAG_SHIFT {
            TAG_LOAD => Op::Load {
                addr: payload,
                dependent: false,
            },
            TAG_DEPENDENT_LOAD => Op::Load {
                addr: payload,
                dependent: true,
            },
            TAG_STORE => Op::Store { addr: payload },
            _ => Op::Compute {
                cycles: payload as u32,
            },
        }
    }

    /// `true` if this operation touches memory (anything but a compute block).
    #[inline]
    pub fn is_memory(self) -> bool {
        self.0 >> TAG_SHIFT != TAG_COMPUTE
    }

    /// Returns this op with `delta` bytes added to its address; compute blocks are returned
    /// unchanged. The sum must stay within the 62-bit payload: checked here in debug builds
    /// only, since [`OpProgram::stream`] checks a program's largest sum once, up front.
    #[inline]
    pub fn offset_by(self, delta: u64) -> PackedOp {
        if self.is_memory() {
            debug_assert!(
                (self.0 & PAYLOAD_MASK) + delta <= PAYLOAD_MASK,
                "offset pushes the address out of the 62-bit packed-op range"
            );
            PackedOp(self.0 + delta)
        } else {
            self
        }
    }

    /// The raw packed word.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The 2-bit kind tag (one of the crate's `TAG_*` values).
    #[inline]
    pub(crate) fn tag(self) -> u64 {
        self.0 >> TAG_SHIFT
    }

    /// The 62-bit payload: the byte address of a memory op, or a compute block's cycles.
    #[inline]
    pub(crate) fn payload(self) -> u64 {
        self.0 & PAYLOAD_MASK
    }
}

impl From<Op> for PackedOp {
    fn from(op: Op) -> PackedOp {
        PackedOp::pack(op)
    }
}

/// A fixed-capacity refill buffer of packed operations.
///
/// The engine keeps one block per core and refills it through
/// [`OpStream::fill_block`](crate::ops::OpStream::fill_block); between refills the per-op
/// hot path is `block.get(pos)` — an array read.
#[derive(Debug, Clone)]
pub struct OpBlock {
    ops: Vec<PackedOp>,
}

impl OpBlock {
    /// An empty block with [`OP_BLOCK_CAPACITY`] slots.
    pub fn new() -> Self {
        OpBlock {
            ops: Vec::with_capacity(OP_BLOCK_CAPACITY),
        }
    }

    /// Removes every op (capacity is retained).
    #[inline]
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Number of ops currently in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the block holds no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `true` once the block holds [`OP_BLOCK_CAPACITY`] ops.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ops.len() >= OP_BLOCK_CAPACITY
    }

    /// Appends one op. Filling past [`OP_BLOCK_CAPACITY`] is a bug in the producing stream
    /// (checked in debug builds).
    #[inline]
    pub fn push(&mut self, op: PackedOp) {
        debug_assert!(!self.is_full(), "OpBlock overfilled past its capacity");
        self.ops.push(op);
    }

    /// The op at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> PackedOp {
        self.ops[index]
    }

    /// The filled prefix as a slice.
    pub fn as_slice(&self) -> &[PackedOp] {
        &self.ops
    }

    /// Clears the block and refills it from `next` until the block is full or `next`
    /// returns `None`, returning the new length — the body of every
    /// [`OpStream::fill_block`](crate::ops::OpStream::fill_block).
    #[inline]
    pub fn fill_with(&mut self, mut next: impl FnMut() -> Option<PackedOp>) -> usize {
        self.ops.clear();
        while !self.is_full() {
            match next() {
                Some(op) => self.ops.push(op),
                None => break,
            }
        }
        self.ops.len()
    }
}

impl Default for OpBlock {
    fn default() -> Self {
        OpBlock::new()
    }
}

/// How many more passes a program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    /// Repeat forever (background traffic lanes).
    Infinite,
    /// Run this many passes, then report exhaustion.
    Finite(u64),
}

/// A compiled request program: a flat packed body plus its repeat header.
///
/// The body is emitted `trips_per_pass` times per pass; every memory op's address is
/// shifted by the current trip offset, which advances by `stride` bytes per trip. With
/// `wrap` unset the offset resets to zero at each pass boundary (a STREAM iteration
/// restarting at the first line); with `wrap = Some(w)` the offset accumulates modulo `w`
/// across the whole run (a strided latency sweep wrapping around its working set).
/// `passes = None` repeats forever; `total_ops` caps the number of operations emitted
/// regardless of position (how a finite load count truncates an infinite lap program).
#[derive(Debug, Clone)]
pub struct OpProgram {
    body: Vec<PackedOp>,
    trips_per_pass: u64,
    stride: u64,
    wrap: Option<u64>,
    passes: Option<u64>,
    total_ops: Option<u64>,
}

impl OpProgram {
    /// A program that emits `body` once per trip, `trips_per_pass` times per pass, with no
    /// stride, repeating forever.
    pub fn new(body: Vec<PackedOp>, trips_per_pass: u64) -> Self {
        OpProgram {
            body,
            trips_per_pass,
            stride: 0,
            wrap: None,
            passes: None,
            total_ops: None,
        }
    }

    /// Sets the per-trip address stride in bytes.
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self
    }

    /// Makes the trip offset accumulate modulo `wrap` across pass boundaries instead of
    /// resetting per pass.
    pub fn with_wrap(mut self, wrap: u64) -> Self {
        self.wrap = Some(wrap.max(1));
        self
    }

    /// Bounds the program to `passes` passes.
    pub fn with_passes(mut self, passes: u64) -> Self {
        self.passes = Some(passes);
        self
    }

    /// Caps the total number of operations emitted.
    pub fn with_total_ops(mut self, total_ops: u64) -> Self {
        self.total_ops = Some(total_ops);
        self
    }

    /// Number of ops in the packed body (the compile-time materialization cost).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The largest offset the cursor adds to a body address, or `None` if it overflows
    /// `u64`, for a program that emits at least one op. Without a wrap that is the offset
    /// of the last trip of a pass; with one, the trip offsets are multiples of the stride
    /// modulo the wrap, whose largest is `wrap − gcd(stride, wrap)` once they have wrapped.
    fn max_offset(&self) -> Option<u64> {
        let trip_cap = |ops: u64| ops.div_ceil(self.body.len() as u64);
        let trips = [
            self.passes.map(|p| p.saturating_mul(self.trips_per_pass)),
            self.total_ops.map(trip_cap),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(u64::MAX);
        match self.wrap {
            None => (trips.min(self.trips_per_pass) - 1).checked_mul(self.stride),
            Some(w) => match (trips - 1).checked_mul(self.stride) {
                Some(linear) if linear < w => Some(linear),
                _ => Some(w - gcd(self.stride % w, w)),
            },
        }
    }

    /// Panics unless every memory op's address plus the largest trip offset fits in the
    /// 62-bit payload (a program that emits at least one op).
    fn check_offset_range(&self) {
        let offset = self.max_offset();
        if offset == Some(0) {
            return;
        }
        let memory = self.body.iter().filter(|op| op.is_memory());
        if let Some(top) = memory.map(|op| op.payload()).max() {
            assert!(
                offset
                    .and_then(|offset| top.checked_add(offset))
                    .is_some_and(|end| end <= PAYLOAD_MASK),
                "address {top:#x} plus the largest trip offset exceeds the 62-bit packed-op range"
            );
        }
    }

    /// Builds the executable cursor over this program.
    ///
    /// # Panics
    ///
    /// Panics if a memory op's address plus the largest trip offset the cursor can reach
    /// does not fit in the 62-bit payload: the cursor offsets packed words without a check,
    /// so such a program would emit ops with a corrupted kind tag.
    pub fn stream(mut self, label: impl Into<String>) -> ProgramStream {
        // A wrapped offset only needs the stride modulo the wrap; with both below a wrap of
        // at most 2^63, `advance_trip`'s `offset + stride` cannot overflow before it reduces.
        if let Some(w) = self.wrap {
            self.stride %= w;
        }
        let remaining = self.total_ops.unwrap_or(u64::MAX);
        let passes = match self.passes {
            Some(n) => Passes::Finite(n),
            None => Passes::Infinite,
        };
        let done = self.body.is_empty()
            || self.trips_per_pass == 0
            || passes == Passes::Finite(0)
            || remaining == 0;
        if !done {
            self.check_offset_range();
        }
        ProgramStream {
            body: self.body.into_boxed_slice(),
            trips_per_pass: self.trips_per_pass,
            stride: self.stride,
            wrap: self.wrap,
            passes,
            remaining,
            idx: 0,
            trip: 0,
            pass: 0,
            offset: 0,
            done,
            label: label.into(),
        }
    }
}

/// Greatest common divisor (`gcd(0, b) = b`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while a != 0 {
        (a, b) = (b % a, a);
    }
    b
}

/// The executing cursor of an [`OpProgram`] — an [`OpStream`](crate::ops::OpStream) whose
/// refill path is a tight loop over the packed body.
#[derive(Debug, Clone)]
pub struct ProgramStream {
    body: Box<[PackedOp]>,
    trips_per_pass: u64,
    stride: u64,
    wrap: Option<u64>,
    passes: Passes,
    /// Ops left under the `total_ops` cap (`u64::MAX` when uncapped).
    remaining: u64,
    idx: usize,
    trip: u64,
    pass: u64,
    offset: u64,
    done: bool,
    label: String,
}

impl ProgramStream {
    /// Produces the next packed op, or `None` when the program is exhausted.
    #[inline]
    pub fn next_packed(&mut self) -> Option<PackedOp> {
        if self.done {
            return None;
        }
        let op = self.body[self.idx].offset_by(self.offset);
        self.idx += 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            self.done = true;
        } else if self.idx == self.body.len() {
            self.idx = 0;
            self.advance_trip();
        }
        Some(op)
    }

    /// Advances the trip/pass/offset header state after a full body emission.
    #[inline]
    fn advance_trip(&mut self) {
        self.trip += 1;
        self.offset += self.stride;
        if let Some(w) = self.wrap {
            self.offset %= w;
        }
        if self.trip == self.trips_per_pass {
            self.trip = 0;
            self.pass += 1;
            if self.wrap.is_none() {
                self.offset = 0;
            }
            if let Passes::Finite(n) = self.passes {
                if self.pass >= n {
                    self.done = true;
                }
            }
        }
    }
}

impl crate::ops::OpStream for ProgramStream {
    fn next_op(&mut self) -> Option<Op> {
        self.next_packed().map(PackedOp::unpack)
    }

    fn fill_block(&mut self, out: &mut OpBlock) -> usize {
        out.fill_with(|| self.next_packed())
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpStream;

    #[test]
    fn packed_round_trip_preserves_every_kind() {
        for op in [
            Op::load(0x8_0000_0040),
            Op::dependent_load(0x40_0000_0000),
            Op::store(0x3_0000_0000),
            Op::compute(u32::MAX),
            Op::compute(0),
            Op::load(0),
        ] {
            assert_eq!(PackedOp::pack(op).unpack(), op);
        }
    }

    #[test]
    fn packed_memory_predicate_and_offset() {
        assert!(PackedOp::load(64).is_memory());
        assert!(PackedOp::store(64).is_memory());
        assert!(!PackedOp::compute(5).is_memory());
        assert_eq!(PackedOp::load(64).offset_by(128), PackedOp::load(192));
        assert_eq!(PackedOp::compute(5).offset_by(128), PackedOp::compute(5));
    }

    #[test]
    #[should_panic(expected = "62-bit packed-op range")]
    fn packing_a_wild_address_panics() {
        let _ = PackedOp::load(1 << 62);
    }

    #[test]
    #[should_panic(expected = "62-bit packed-op range")]
    fn a_wrapping_stride_past_the_packed_range_panics_at_build() {
        // Offsets 0, 2^61, 2^62, 3·2^61 (mod 2^63): the third op would spill into the tag.
        let _ = OpProgram::new(vec![PackedOp::dependent_load(0x7_0000_0000)], 1)
            .with_stride(1 << 61)
            .with_wrap(1 << 63)
            .with_total_ops(8)
            .stream("t");
    }

    #[test]
    #[should_panic(expected = "62-bit packed-op range")]
    fn a_per_pass_stride_past_the_packed_range_panics_at_build() {
        let _ = OpProgram::new(vec![PackedOp::load(1 << 61)], 3)
            .with_stride(1 << 60)
            .with_passes(1)
            .stream("t");
    }

    #[test]
    fn programs_that_stay_in_range_build() {
        // In each program the last reachable address is exactly the largest packable one.
        let top = PackedOp::ADDRESS_LIMIT - 1;
        let _ = OpProgram::new(vec![PackedOp::load(top - 2 * 64)], 3)
            .with_stride(64)
            .with_passes(u64::MAX)
            .stream("t");
        // A wrap keeps the offset below it, however many trips run.
        let _ = OpProgram::new(vec![PackedOp::load(top - 960)], 1)
            .with_stride(64)
            .with_wrap(1024)
            .stream("t");
        // Only the trips the op cap lets run count.
        let _ = OpProgram::new(vec![PackedOp::load(top - 64)], 1)
            .with_stride(64)
            .with_wrap(1 << 63)
            .with_total_ops(2)
            .stream("t");
        // A program that emits nothing, or strides nothing, is never offset.
        let _ = OpProgram::new(vec![PackedOp::load(top)], 1 << 40)
            .with_stride(64)
            .with_total_ops(0)
            .stream("t");
        let _ = OpProgram::new(vec![PackedOp::load(top)], 1 << 40).stream("t");
    }

    #[test]
    fn block_fills_to_capacity_and_clears() {
        let mut b = OpBlock::new();
        assert!(b.is_empty());
        for i in 0..OP_BLOCK_CAPACITY {
            assert!(!b.is_full());
            b.push(PackedOp::load(i as u64 * 64));
        }
        assert!(b.is_full());
        assert_eq!(b.len(), OP_BLOCK_CAPACITY);
        assert_eq!(b.get(3), PackedOp::load(192));
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn program_strides_and_resets_per_pass() {
        // Two ops per trip, stride 64, two trips per pass, two passes: a miniature STREAM
        // kernel over two lines, run twice.
        let body = vec![PackedOp::load(0x1000), PackedOp::store(0x2000)];
        let mut s = OpProgram::new(body, 2)
            .with_stride(64)
            .with_passes(2)
            .stream("t");
        let mut got = Vec::new();
        while let Some(op) = s.next_op() {
            got.push(op);
        }
        let one_pass = [
            Op::load(0x1000),
            Op::store(0x2000),
            Op::load(0x1040),
            Op::store(0x2040),
        ];
        let expected: Vec<Op> = one_pass.iter().chain(one_pass.iter()).copied().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn wrapping_stride_accumulates_modulo_across_passes() {
        // One-op body, stride 256, wrapping at 1024: the lat_mem_rd address pattern.
        let mut s = OpProgram::new(vec![PackedOp::dependent_load(0)], 1)
            .with_stride(256)
            .with_wrap(1024)
            .with_total_ops(6)
            .stream("t");
        let mut addrs = Vec::new();
        while let Some(Op::Load { addr, .. }) = s.next_op() {
            addrs.push(addr);
        }
        assert_eq!(addrs, vec![0, 256, 512, 768, 0, 256]);
    }

    #[test]
    fn total_ops_caps_an_infinite_program() {
        let mut s = OpProgram::new(vec![PackedOp::load(0)], 1)
            .with_total_ops(5)
            .stream("t");
        let mut n = 0;
        while s.next_op().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn empty_or_zero_trip_programs_are_exhausted_immediately() {
        assert_eq!(OpProgram::new(Vec::new(), 4).stream("t").next_op(), None);
        let body = vec![PackedOp::load(0)];
        assert_eq!(OpProgram::new(body.clone(), 0).stream("t").next_op(), None);
        assert_eq!(
            OpProgram::new(body, 1).with_passes(0).stream("t").next_op(),
            None
        );
    }

    #[test]
    fn fill_block_and_next_op_agree() {
        let make = || {
            OpProgram::new(vec![PackedOp::load(0x100), PackedOp::compute(3)], 5)
                .with_stride(64)
                .with_passes(7)
                .stream("t")
        };
        let mut by_op = make();
        let mut by_block = make();
        let mut expected = Vec::new();
        while let Some(op) = by_op.next_op() {
            expected.push(op);
        }
        let mut got = Vec::new();
        let mut block = OpBlock::new();
        while by_block.fill_block(&mut block) > 0 {
            got.extend(block.as_slice().iter().map(|p| p.unpack()));
        }
        assert_eq!(got, expected);
        assert_eq!(got.len(), 2 * 5 * 7);
    }
}
