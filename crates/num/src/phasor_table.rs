//! A table of unit phasors in single precision, stored in blocks of
//! eight rows for the imaging focus pass.
//!
//! The imaging engine correlates every window with every row of a
//! per-cell steering table ([`crate::simd::focus_rows`]). Its entries
//! are unit phasors, so single precision loses at most `2⁻²⁵` per
//! component (under `6e-8` in modulus, about a nanometre of path at
//! 2.4 GHz) and halves the table. The focus kernel multiplies the
//! stored `f32` phasors as they are, in single precision, and carries
//! its row sums in `f64` (see there for the error bound); [`get`] and
//! [`row`] widen entries exactly to `f64` for everything else.
//!
//! **Layout.** Rows are padded to a multiple of [`PhasorTable::BLOCK_ROWS`]
//! (eight) and grouped into blocks. A block stores its aperture elements
//! in order, and each element holds the block's eight real parts and
//! then its eight imaginary parts (64 B), so one element of eight rows
//! is one 32-byte load of each. Padding rows hold zeros; the focus
//! kernel, in both its scalar and its AVX2 form, sums them with the
//! rest of their block and discards the result. The kernel is the only
//! reader of whole blocks: everything else addresses single entries, or
//! one row, by `(row, element)`.
//!
//! [`get`]: PhasorTable::get
//! [`row`]: PhasorTable::row

use crate::Complex64;

/// One aperture element of one block: the block's eight real parts,
/// then its eight imaginary parts.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
pub(crate) struct BlockElement {
    pub(crate) re: [f32; PhasorTable::BLOCK_ROWS],
    pub(crate) im: [f32; PhasorTable::BLOCK_ROWS],
}

/// `rows × row_len` phasors rounded to `f32`, in eight-row blocks (see
/// the module docs).
#[derive(Clone, Debug)]
pub struct PhasorTable {
    rows: usize,
    row_len: usize,
    /// Block-major: element `k` of block `b` at `b·row_len + k`.
    data: Vec<BlockElement>,
}

impl PhasorTable {
    /// Rows per block; the row count is padded up to a multiple of it.
    pub const BLOCK_ROWS: usize = 8;

    /// An all-zero table of `rows` rows of `row_len` phasors, in one
    /// allocation of `⌈rows/8⌉·row_len·64` bytes.
    ///
    /// # Panics
    /// Panics if `row_len` is zero or the size overflows.
    pub fn zeros(rows: usize, row_len: usize) -> Self {
        assert!(row_len > 0, "a phasor table row needs at least one element");
        let elements = rows
            .div_ceil(Self::BLOCK_ROWS)
            .checked_mul(row_len)
            .expect("phasor table size overflows");
        Self {
            rows,
            row_len,
            data: vec![BlockElement::default(); elements],
        }
    }

    /// Rows, not counting the padding.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Phasors per row.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Row `r`, element `k`'s place: its element's index in `data` and
    /// its lane.
    fn index(&self, r: usize, k: usize) -> (usize, usize) {
        assert!(
            r < self.rows && k < self.row_len,
            "phasor ({r}, {k}) outside a {} × {} table",
            self.rows,
            self.row_len
        );
        (
            r / Self::BLOCK_ROWS * self.row_len + k,
            r % Self::BLOCK_ROWS,
        )
    }

    /// Stores `z` at row `r`, element `k`, rounding each part to the
    /// nearest `f32`.
    ///
    /// # Panics
    /// Panics if `(r, k)` is outside the table.
    pub fn set(&mut self, r: usize, k: usize, z: Complex64) {
        let (i, lane) = self.index(r, k);
        self.data[i].re[lane] = z.re as f32;
        self.data[i].im[lane] = z.im as f32;
    }

    /// The phasor at row `r`, element `k`, widened exactly to `f64`.
    ///
    /// # Panics
    /// Panics if `(r, k)` is outside the table.
    pub fn get(&self, r: usize, k: usize) -> Complex64 {
        let (i, lane) = self.index(r, k);
        widen(&self.data[i], lane)
    }

    /// Row `r`'s phasors in element order, widened exactly to `f64`.
    ///
    /// # Panics
    /// Panics if `r` is not a row of the table.
    pub fn row(&self, r: usize) -> impl DoubleEndedIterator<Item = Complex64> + '_ {
        let (start, lane) = self.index(r, 0);
        self.data[start..start + self.row_len]
            .iter()
            .map(move |e| widen(e, lane))
    }

    /// The blocks in row order, each `row_len` elements long; the last
    /// one carries the padding rows.
    pub(crate) fn blocks(&self) -> std::slice::ChunksExact<'_, BlockElement> {
        self.data.chunks_exact(self.row_len)
    }
}

/// Lane `lane` of one element as an `f64` phasor (exact).
fn widen(e: &BlockElement, lane: usize) -> Complex64 {
    Complex64::new(f64::from(e.re[lane]), f64::from(e.im[lane]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_to_whole_blocks_and_round_trips_f32_values() {
        let mut t = PhasorTable::zeros(9, 3);
        assert_eq!((t.rows(), t.row_len()), (9, 3));
        // Two blocks of 3 elements, 64 B each.
        assert_eq!(size_of::<BlockElement>(), 64);
        assert_eq!(t.blocks().len(), 2);
        assert!(t.blocks().all(|b| b.len() == 3));
        for r in 0..9 {
            for k in 0..3 {
                t.set(r, k, Complex64::new(r as f64 + 0.25, -(k as f64) - 0.5));
            }
        }
        for r in 0..9 {
            let row: Vec<Complex64> = t.row(r).collect();
            for (k, z) in row.into_iter().enumerate() {
                assert_eq!(z, Complex64::new(r as f64 + 0.25, -(k as f64) - 0.5));
                assert_eq!(t.get(r, k), z);
            }
        }
        // Row 8 sits in lane 0 of the second block; the padding lanes
        // stay zero.
        let last = &t.blocks().nth(1).unwrap()[2];
        assert_eq!((last.re[0], last.im[0]), (8.25, -2.5));
        assert!(last.re[1..].iter().chain(&last.im[1..]).all(|&x| x == 0.0));
    }

    #[test]
    fn set_rounds_each_part_to_the_nearest_f32() {
        let mut t = PhasorTable::zeros(1, 1);
        let z = Complex64::cis(0.3);
        t.set(0, 0, z);
        let got = t.get(0, 0);
        assert_eq!(got.re, f64::from(z.re as f32));
        assert_eq!(got.im, f64::from(z.im as f32));
        assert!((got - z).abs() < 6e-8);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_a_padding_row() {
        let _ = PhasorTable::zeros(9, 2).get(9, 0);
    }
}
