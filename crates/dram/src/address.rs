//! Physical-address to DRAM-coordinate mapping.
//!
//! The mapping follows the interleaving commonly used by server memory controllers:
//! consecutive cache lines rotate across channels, then across bank groups and banks, so that
//! streaming traffic exploits channel- and bank-level parallelism while staying inside an open
//! row for as long as possible.

use mess_types::CACHE_LINE_BYTES;
use serde::{Deserialize, Serialize};

/// The DRAM coordinates of one cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramCoord {
    /// Memory channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank index within the channel (bank-group flattened).
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
    /// Column (cache-line granularity) within the row.
    pub column: u64,
}

/// Address-mapping configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AddressMapping {
    channels: u32,
    ranks: u32,
    banks: u32,
    /// Cache lines per row (row_bytes / 64).
    lines_per_row: u64,
    /// `log2` of (channels, lines per row, banks, ranks) when all four are powers of two:
    /// decode then shifts and masks instead of dividing. A deserialized mapping divides.
    #[serde(skip)]
    shifts: Option<[u32; 4]>,
}

/// Two mappings are equal when their geometries are: the shifts follow from the geometry.
impl PartialEq for AddressMapping {
    fn eq(&self, other: &Self) -> bool {
        let geometry = |m: &Self| (m.channels, m.ranks, m.banks, m.lines_per_row);
        geometry(self) == geometry(other)
    }
}

impl Eq for AddressMapping {}

impl AddressMapping {
    /// Creates a mapping for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `row_bytes` is smaller than a cache line.
    pub fn new(channels: u32, ranks: u32, banks: u32, row_bytes: u64) -> Self {
        assert!(
            channels > 0 && ranks > 0 && banks > 0,
            "geometry dimensions must be non-zero"
        );
        assert!(
            row_bytes >= CACHE_LINE_BYTES,
            "row must hold at least one cache line"
        );
        let lines_per_row = row_bytes / CACHE_LINE_BYTES;
        let dims = [channels as u64, lines_per_row, banks as u64, ranks as u64];
        let shifts = dims
            .iter()
            .all(|d| d.is_power_of_two())
            .then(|| dims.map(u64::trailing_zeros));
        AddressMapping {
            channels,
            ranks,
            banks,
            lines_per_row,
            shifts,
        }
    }

    /// Number of channels in the mapping.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Number of banks per channel.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Decodes a byte address into DRAM coordinates.
    ///
    /// Bit layout (from least significant): line offset | channel | column | bank | rank | row.
    /// Interleaving consecutive lines across channels first maximises channel parallelism for
    /// sequential streams, as real controllers do. The bank index is additionally XOR-hashed
    /// with folded row bits (a permutation-based interleaving, as in real memory controllers)
    /// so that power-of-two-strided streams from different cores do not all collide in the
    /// same bank.
    pub fn decode(&self, addr: u64) -> DramCoord {
        match self.shifts {
            Some(shifts) => Self::decode_by_shifts(addr, shifts),
            None => self.decode_by_division(addr),
        }
    }

    /// [`AddressMapping::decode`] for a geometry whose four dimensions are powers of two,
    /// given their `log2`s.
    fn decode_by_shifts(
        addr: u64,
        [channel_bits, column_bits, bank_bits, rank_bits]: [u32; 4],
    ) -> DramCoord {
        let low = |x: u64, bits: u32| x & ((1u64 << bits) - 1);
        let line = addr / CACHE_LINE_BYTES;
        let channel = low(line, channel_bits) as u32;
        let rest = line >> channel_bits;
        let column = low(rest, column_bits);
        let rest = rest >> column_bits;
        let bank_raw = low(rest, bank_bits);
        let rest = rest >> bank_bits;
        let rank = low(rest, rank_bits) as u32;
        let row = rest >> rank_bits;
        let bank = low(bank_raw ^ Self::fold(row), bank_bits) as u32;
        DramCoord {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// [`AddressMapping::decode`] for any geometry, by runtime division.
    fn decode_by_division(&self, addr: u64) -> DramCoord {
        let line = addr / CACHE_LINE_BYTES;
        let channel = (line % self.channels as u64) as u32;
        let rest = line / self.channels as u64;
        let column = rest % self.lines_per_row;
        let rest = rest / self.lines_per_row;
        let bank_raw = rest % self.banks as u64;
        let rest = rest / self.banks as u64;
        let rank = (rest % self.ranks as u64) as u32;
        let row = rest / self.ranks as u64;
        let bank = ((bank_raw ^ Self::fold(row)) % self.banks as u64) as u32;
        DramCoord {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// The folded row bits XORed into the bank index.
    fn fold(row: u64) -> u64 {
        row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(6, 2, 16, 8192)
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        let m = mapping();
        let coords: Vec<DramCoord> = (0..12).map(|i| m.decode(i * CACHE_LINE_BYTES)).collect();
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(c.channel, (i % 6) as u32);
        }
        // Lines 0 and 6 land on the same channel, consecutive columns.
        assert_eq!(coords[0].channel, coords[6].channel);
        assert_eq!(coords[6].column, coords[0].column + 1);
        assert_eq!(coords[0].row, coords[6].row);
    }

    #[test]
    fn sequential_stream_stays_in_row_before_switching_bank() {
        let m = mapping();
        // A streaming run covers one 8 KiB row on each of the six channels before the
        // stream moves to another bank.
        let run = 8192 / CACHE_LINE_BYTES * CACHE_LINE_BYTES * 6;
        let first = m.decode(0);
        let last_in_run = m.decode(run - CACHE_LINE_BYTES);
        let next = m.decode(run);
        assert_eq!(first.bank, last_in_run.bank);
        assert_eq!(first.row, last_in_run.row);
        assert_ne!((next.bank, next.row), (first.bank, first.row));
    }

    #[test]
    fn unaligned_addresses_map_like_their_line() {
        let m = mapping();
        assert_eq!(m.decode(0x1000), m.decode(0x103F));
        assert_ne!(m.decode(0x1000), m.decode(0x1040));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_channels_panics() {
        let _ = AddressMapping::new(0, 1, 16, 8192);
    }

    proptest! {
        #[test]
        fn prop_coordinates_are_in_range(addr in 0u64..1u64 << 44) {
            let m = mapping();
            let c = m.decode(addr);
            prop_assert!(c.channel < 6);
            prop_assert!(c.rank < 2);
            prop_assert!(c.bank < 16);
            prop_assert!(c.column < 8192 / 64);
        }

        #[test]
        fn prop_shift_decode_matches_division(
            addr in 0u64..1u64 << 50,
            channel_bits in 0u32..4,
            rank_bits in 0u32..3,
            bank_bits in 0u32..7,
            row_bits in 6u32..15,
        ) {
            let m = AddressMapping::new(1 << channel_bits, 1 << rank_bits, 1 << bank_bits, 1 << row_bits);
            prop_assert!(m.shifts.is_some());
            prop_assert_eq!(m.decode(addr), m.decode_by_division(addr));
        }

        #[test]
        fn prop_six_channels_decode_by_division(
            addr in 0u64..1u64 << 50,
            rank_bits in 0u32..3,
            bank_bits in 0u32..7,
            row_bits in 6u32..15,
        ) {
            let m = AddressMapping::new(6, 1 << rank_bits, 1 << bank_bits, 1 << row_bits);
            prop_assert!(m.shifts.is_none());
            prop_assert_eq!(m.decode(addr), m.decode_by_division(addr));
            prop_assert!(m.decode(addr).channel < 6);
        }

        #[test]
        fn prop_decode_is_injective_per_line(a in 0u64..1u64 << 34, b in 0u64..1u64 << 34) {
            let m = mapping();
            let la = a / CACHE_LINE_BYTES;
            let lb = b / CACHE_LINE_BYTES;
            if la != lb {
                prop_assert_ne!(m.decode(a), m.decode(b));
            } else {
                prop_assert_eq!(m.decode(a), m.decode(b));
            }
        }
    }
}
