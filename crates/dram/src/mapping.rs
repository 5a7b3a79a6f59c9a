//! Machine-physical address → DRAM location mapping.
//!
//! As in real systems (and as the paper notes in §II-A), the machine-physical
//! address produced by CTE translation is converted into
//! `col:row:bank:channel` coordinates by a *static* mapping function. We use
//! a Ramulator-style `Ro:Ra:Bg:Ba:Co:Ch` layout over 64 B block indices:
//! consecutive blocks interleave across channels first, then walk a row
//! (row-buffer-friendly for streaming and page migrations), then spread
//! across banks, bank groups, ranks, and finally rows.

use dylect_sim_core::MachineAddr;

use crate::config::DramGeometry;

/// Decoded DRAM coordinates of one 64 B block.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Flat bank index within the rank (bank group folded in).
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// 64 B column (block) index within the row.
    pub column: u64,
}

/// The static address-mapping function.
///
/// Every field of the layout is a power of two, so decoding is a chain of
/// shifts and masks; the shifts are precomputed from the geometry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AddressMapper {
    geometry: DramGeometry,
    column_shift: u32,
    bank_shift: u32,
    rank_shift: u32,
    row_shift: u32,
}

impl AddressMapper {
    /// Creates a mapper for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the channel, rank, bank or blocks-per-row count is not a
    /// power of two.
    pub fn new(geometry: DramGeometry) -> Self {
        let bits = |name: &str, n: u64| {
            assert!(
                n.is_power_of_two(),
                "address mapping needs a power-of-two {name} count, got {n}"
            );
            n.trailing_zeros()
        };
        let column_shift = bits("channel", geometry.channels as u64);
        let bank_shift = column_shift + bits("blocks-per-row", geometry.blocks_per_row());
        let rank_shift = bank_shift + bits("bank", geometry.banks_total() as u64);
        let row_shift = rank_shift + bits("rank", geometry.ranks as u64);
        AddressMapper {
            geometry,
            column_shift,
            bank_shift,
            rank_shift,
            row_shift,
        }
    }

    /// Returns the geometry this mapper was built for.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Decodes a machine-physical address into DRAM coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is beyond the configured
    /// capacity.
    pub fn decode(&self, addr: MachineAddr) -> Location {
        let g = &self.geometry;
        debug_assert!(
            addr.raw() < g.capacity_bytes(),
            "address {addr} beyond capacity"
        );
        let x = addr.block_index();
        let field = |lo: u32, hi: u32| (x >> lo) & ((1u64 << (hi - lo)) - 1);
        Location {
            channel: field(0, self.column_shift) as u32,
            rank: field(self.rank_shift, self.row_shift) as u32,
            bank: field(self.bank_shift, self.rank_shift) as u32,
            row: x >> self.row_shift,
            column: field(self.column_shift, self.bank_shift),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dylect_sim_core::BLOCK_BYTES;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramGeometry::ddr4_with_capacity(1 << 30, 8))
    }

    #[test]
    fn consecutive_blocks_walk_a_row() {
        let m = mapper();
        // One channel, so consecutive blocks share bank/row until the row
        // (128 blocks) is exhausted.
        let a = m.decode(MachineAddr::new(0));
        let b = m.decode(MachineAddr::new(BLOCK_BYTES));
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn row_crossing_changes_bank() {
        let m = mapper();
        let row_bytes = 8192;
        let a = m.decode(MachineAddr::new(row_bytes - BLOCK_BYTES));
        let b = m.decode(MachineAddr::new(row_bytes));
        assert_ne!((a.bank, a.column), (b.bank, b.column));
        assert_eq!(b.column, 0);
        assert_eq!(b.bank, a.bank + 1);
    }

    #[test]
    fn decode_is_injective_over_a_sample() {
        let m = mapper();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let loc = m.decode(MachineAddr::new(i * BLOCK_BYTES * 97 % (1 << 30)));
            assert!(seen.insert((loc.channel, loc.rank, loc.bank, loc.row, loc.column)));
        }
    }

    /// The Ro:Ra:Ba:Co:Ch layout as a mixed-radix div/mod chain.
    fn decode_div_mod(g: &DramGeometry, addr: MachineAddr) -> Location {
        let mut x = addr.block_index();
        let channel = (x % g.channels as u64) as u32;
        x /= g.channels as u64;
        let column = x % g.blocks_per_row();
        x /= g.blocks_per_row();
        let bank = (x % g.banks_total() as u64) as u32;
        x /= g.banks_total() as u64;
        let rank = (x % g.ranks as u64) as u32;
        x /= g.ranks as u64;
        Location {
            channel,
            rank,
            bank,
            row: x,
            column,
        }
    }

    #[test]
    fn shift_decode_matches_div_mod_over_a_sample() {
        let mut geometries = vec![
            DramGeometry::ddr4_with_capacity(1 << 30, 8),
            DramGeometry::ddr4_with_capacity(1 << 30, 16),
        ];
        let mut multi = DramGeometry::ddr4_with_capacity(1 << 30, 4);
        multi.channels = 2;
        multi.rows /= 2;
        geometries.push(multi);
        for g in geometries {
            let m = AddressMapper::new(g);
            let mut rng = dylect_sim_core::rng::Rng::new(0xADD2);
            for _ in 0..20_000 {
                let addr = MachineAddr::new(rng.next_below(g.capacity_bytes()));
                assert_eq!(m.decode(addr), decode_div_mod(&g, addr), "{addr} in {g:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two rank count, got 6")]
    fn rejects_non_power_of_two_ranks() {
        let _ = AddressMapper::new(DramGeometry::ddr4_with_capacity(6 << 20, 6));
    }

    #[test]
    fn coordinates_within_bounds() {
        let m = mapper();
        let g = *m.geometry();
        for i in (0..(1u64 << 30)).step_by(64 * 1013) {
            let loc = m.decode(MachineAddr::new(i));
            assert!(loc.channel < g.channels);
            assert!(loc.rank < g.ranks);
            assert!(loc.bank < g.banks_total());
            assert!(loc.row < g.rows);
            assert!(loc.column < g.blocks_per_row());
        }
    }
}
