//! Coarse region bitmaps (paper §5.3).
//!
//! For each region WALRUS stores a bitmap of the pixels covered by the
//! region's member windows, used by the image-matching step to compute the
//! area covered by (possibly overlapping) matched regions. To cut storage,
//! the paper keeps one bit per `k × k` pixel block — e.g. the §6.4
//! configuration stores a 16×16 (32-byte) bitmap per region regardless of
//! image size.
//!
//! This implementation follows that design: a [`RegionBitmap`] is a fixed
//! `gw × gh` grid of bits over a `width × height` image. A grid cell is set
//! when any member window overlaps it; the *area* of a bitmap is the total
//! number of image pixels in set cells (edge cells can be smaller than
//! interior ones, which the accounting respects exactly).

/// A coarse occupancy bitmap over an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionBitmap {
    width: usize,
    height: usize,
    gw: usize,
    gh: usize,
    bits: Vec<u64>,
}

impl RegionBitmap {
    /// Creates an empty bitmap with a `grid × grid` cell layout over a
    /// `width × height` image (the paper's 16×16 default corresponds to
    /// `grid = 16`). The grid is clamped so cells are at least one pixel.
    pub fn new(width: usize, height: usize, grid: usize) -> Self {
        assert!(width > 0 && height > 0 && grid > 0, "degenerate bitmap");
        let gw = grid.min(width);
        let gh = grid.min(height);
        let words = (gw * gh).div_ceil(64);
        Self { width, height, gw, gh, bits: vec![0; words] }
    }

    /// Image width this bitmap covers.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height this bitmap covers.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid columns.
    pub fn grid_width(&self) -> usize {
        self.gw
    }

    /// Grid rows.
    pub fn grid_height(&self) -> usize {
        self.gh
    }

    /// Storage footprint in bytes (the paper quotes 32 bytes for 16×16).
    pub fn storage_bytes(&self) -> usize {
        (self.gw * self.gh).div_ceil(8)
    }

    #[inline]
    fn idx(&self, cx: usize, cy: usize) -> usize {
        cy * self.gw + cx
    }

    /// Whether grid cell `(cx, cy)` is set.
    #[inline]
    pub fn get_cell(&self, cx: usize, cy: usize) -> bool {
        let i = self.idx(cx, cy);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets grid cell `(cx, cy)`.
    #[inline]
    pub fn set_cell(&mut self, cx: usize, cy: usize) {
        let i = self.idx(cx, cy);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Pixel extent of grid cell `(cx, cy)`: `(x0, y0, w, h)`. Cells tile
    /// the image as evenly as possible.
    pub fn cell_pixels(&self, cx: usize, cy: usize) -> (usize, usize, usize, usize) {
        let x0 = cx * self.width / self.gw;
        let x1 = (cx + 1) * self.width / self.gw;
        let y0 = cy * self.height / self.gh;
        let y1 = (cy + 1) * self.height / self.gh;
        (x0, y0, x1 - x0, y1 - y0)
    }

    /// Marks every cell overlapped by the `w × h` pixel window rooted at
    /// `(x, y)` (clipped to the image).
    pub fn mark_window(&mut self, x: usize, y: usize, w: usize, h: usize) {
        if x >= self.width || y >= self.height || w == 0 || h == 0 {
            return;
        }
        let x1 = (x + w).min(self.width); // exclusive
        let y1 = (y + h).min(self.height);
        // Cell range overlapping [x, x1) × [y, y1).
        let cx0 = x * self.gw / self.width;
        let cy0 = y * self.gh / self.height;
        let cx1 = ((x1 - 1) * self.gw / self.width).min(self.gw - 1);
        let cy1 = ((y1 - 1) * self.gh / self.height).min(self.gh - 1);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                self.set_cell(cx, cy);
            }
        }
    }

    /// Number of image pixels in set cells.
    pub fn area(&self) -> usize {
        self.area_of(self.bits.iter().copied())
    }

    /// Pixel area of the cells set in `words`, a bit set laid out like this
    /// bitmap's own. Integer-exact against summing [`Self::cell_pixels`]
    /// over the set cells.
    fn area_of(&self, words: impl Iterator<Item = u64>) -> usize {
        if self.width % self.gw == 0 && self.height % self.gh == 0 {
            // The grid divides the image: every cell has the same extent.
            let cells: usize = words.map(|w| w.count_ones() as usize).sum();
            return cells * (self.width / self.gw) * (self.height / self.gh);
        }
        // Cells differ by a pixel: tabulate column widths and row heights
        // once, then walk the cells in bit order.
        let extents = |len: usize, cells: usize| -> Vec<usize> {
            (0..cells).map(|c| (c + 1) * len / cells - c * len / cells).collect()
        };
        let (col_w, row_h) = (extents(self.width, self.gw), extents(self.height, self.gh));
        let mut cells = (0..self.gh).flat_map(|cy| (0..self.gw).map(move |cx| (cx, cy)));
        let mut total = 0;
        for word in words {
            for (bit, (cx, cy)) in (0..64).zip(&mut cells) {
                if word >> bit & 1 == 1 {
                    total += col_w[cx] * row_h[cy];
                }
            }
        }
        total
    }

    /// Number of set cells.
    pub fn cells_set(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn assert_same_layout(&self, other: &RegionBitmap) {
        assert_eq!(
            (self.width, self.height, self.gw, self.gh),
            (other.width, other.height, other.gw, other.gh),
            "bitmap layouts differ"
        );
    }

    /// Unions `other` into `self`. Panics when layouts differ.
    pub fn union_in_place(&mut self, other: &RegionBitmap) {
        self.assert_same_layout(other);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Makes `self` an empty bitmap with `like`'s layout, keeping its
    /// allocation — an accumulator reused from one union to the next.
    pub fn reset_like(&mut self, like: &RegionBitmap) {
        (self.width, self.height, self.gw, self.gh) = (like.width, like.height, like.gw, like.gh);
        self.bits.clear();
        self.bits.resize(like.bits.len(), 0);
    }

    /// The union of `self` and `other`.
    pub fn union(&self, other: &RegionBitmap) -> RegionBitmap {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// Pixel area of the union without materializing it.
    pub fn union_area(&self, other: &RegionBitmap) -> usize {
        self.assert_same_layout(other);
        self.area_of(self.bits.iter().zip(&other.bits).map(|(a, b)| a | b))
    }

    /// True when no cell is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Fraction of the image covered (`area / (width·height)`).
    pub fn coverage(&self) -> f64 {
        self.area() as f64 / (self.width * self.height) as f64
    }

    /// The raw bit words backing this bitmap (for persistence).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reconstructs a bitmap from its raw parts (inverse of reading
    /// [`RegionBitmap::words`] alongside the geometry accessors). Returns
    /// `None` when the geometry is inconsistent.
    pub fn from_words(
        width: usize,
        height: usize,
        gw: usize,
        gh: usize,
        bits: Vec<u64>,
    ) -> Option<Self> {
        if width == 0 || height == 0 || gw == 0 || gh == 0 || gw > width || gh > height {
            return None;
        }
        if bits.len() != (gw * gh).div_ceil(64) {
            return None;
        }
        // Reject set bits beyond the last cell (would corrupt counts).
        let tail_bits = (gw * gh) % 64;
        if tail_bits != 0 {
            let mask = !0u64 << tail_bits;
            if bits.last().copied().unwrap_or(0) & mask != 0 {
                return None;
            }
        }
        Some(Self { width, height, gw, gh, bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitmap() {
        let b = RegionBitmap::new(128, 96, 16);
        assert!(b.is_empty());
        assert_eq!(b.area(), 0);
        assert_eq!(b.cells_set(), 0);
        assert_eq!(b.coverage(), 0.0);
    }

    #[test]
    fn paper_storage_claim() {
        // §6.4: "with each region, we stored a 16×16 (32 byte) bitmap".
        let b = RegionBitmap::new(128, 96, 16);
        assert_eq!(b.storage_bytes(), 32);
    }

    #[test]
    fn full_cover() {
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(0, 0, 64, 64);
        assert_eq!(b.area(), 64 * 64);
        assert_eq!(b.cells_set(), 256);
        assert!((b.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_window_marks_overlapped_cells() {
        // 64×64 image, 16×16 grid → 4-px cells. Window (4,4,8,8) spans
        // cells (1..=2, 1..=2).
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(4, 4, 8, 8);
        assert_eq!(b.cells_set(), 4);
        assert_eq!(b.area(), 4 * 16);
        assert!(b.get_cell(1, 1) && b.get_cell(2, 2));
        assert!(!b.get_cell(0, 0) && !b.get_cell(3, 3));
    }

    #[test]
    fn partial_cell_overlap_sets_cell() {
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(3, 3, 2, 2); // straddles cells (0,0),(1,0),(0,1),(1,1)
        assert_eq!(b.cells_set(), 4);
    }

    #[test]
    fn window_clipped_at_edges() {
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(60, 60, 100, 100);
        assert_eq!(b.cells_set(), 1);
        assert!(b.get_cell(15, 15));
        // Fully outside: no-op.
        b.mark_window(64, 0, 4, 4);
        b.mark_window(0, 70, 4, 4);
        assert_eq!(b.cells_set(), 1);
    }

    #[test]
    fn area_respects_uneven_cells() {
        // 10×10 image on a 3×3 grid: cells are 3/3/4 wide.
        let b = RegionBitmap::new(10, 10, 3);
        let mut total = 0;
        for cy in 0..3 {
            for cx in 0..3 {
                let (_, _, w, h) = b.cell_pixels(cx, cy);
                total += w * h;
            }
        }
        assert_eq!(total, 100, "cells must tile the image exactly");
        let mut full = b.clone();
        full.mark_window(0, 0, 10, 10);
        assert_eq!(full.area(), 100);
    }

    #[test]
    fn grid_clamped_for_tiny_images() {
        let mut b = RegionBitmap::new(4, 2, 16);
        assert_eq!(b.grid_width(), 4);
        assert_eq!(b.grid_height(), 2);
        b.mark_window(0, 0, 1, 1);
        assert_eq!(b.area(), 1);
    }

    #[test]
    fn union_and_union_area() {
        let mut a = RegionBitmap::new(64, 64, 16);
        let mut b = RegionBitmap::new(64, 64, 16);
        a.mark_window(0, 0, 16, 16); // cells (0..=3, 0..=3)
        b.mark_window(8, 8, 16, 16); // cells (2..=5, 2..=5)
        let union = a.union(&b);
        assert_eq!(union.cells_set(), 16 + 16 - 4);
        assert_eq!(a.union_area(&b), union.area());
        // Union is commutative.
        assert_eq!(b.union(&a), union);
        // a unchanged by non-destructive union.
        assert_eq!(a.cells_set(), 16);
    }

    #[test]
    fn overlapping_windows_do_not_double_count() {
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(0, 0, 32, 32);
        let area1 = b.area();
        b.mark_window(0, 0, 32, 32);
        b.mark_window(16, 16, 16, 16);
        assert_eq!(b.area(), area1, "re-marking covered space adds nothing");
    }

    /// The definition `area` and `union_area` must reproduce: the pixel
    /// extent of every cell set in either bitmap, summed cell by cell.
    fn area_by_cells(a: &RegionBitmap, b: &RegionBitmap) -> usize {
        let mut total = 0;
        for cy in 0..a.grid_height() {
            for cx in 0..a.grid_width() {
                if a.get_cell(cx, cy) || b.get_cell(cx, cy) {
                    let (_, _, w, h) = a.cell_pixels(cx, cy);
                    total += w * h;
                }
            }
        }
        total
    }

    #[test]
    fn area_matches_per_cell_reference_on_any_geometry() {
        let mut state = 0x5EEDu64;
        let mut next = move |below: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        // Dividing grids, non-dividing ones, width < grid (clamped to
        // 1-pixel cells), more than 64 cells per row.
        let geometries = [
            (128, 96, 16),
            (64, 64, 16),
            (100, 75, 16),
            (130, 97, 16),
            (10, 10, 3),
            (4, 2, 16),
            (7, 5, 16),
            (1000, 3, 96),
            (33, 200, 9),
        ];
        for (width, height, grid) in geometries {
            for _ in 0..40 {
                let mut a = RegionBitmap::new(width, height, grid);
                let mut b = RegionBitmap::new(width, height, grid);
                for bitmap in [&mut a, &mut b] {
                    for _ in 0..next(4) {
                        let (x, y) = (next(width), next(height));
                        bitmap.mark_window(x, y, 1 + next(width / 2 + 1), 1 + next(height / 2 + 1));
                    }
                }
                let empty = RegionBitmap::new(width, height, grid);
                assert_eq!(a.area(), area_by_cells(&a, &empty), "{width}x{height}/{grid}");
                assert_eq!(a.union_area(&b), area_by_cells(&a, &b), "{width}x{height}/{grid}");
                assert_eq!(a.union(&b).area(), a.union_area(&b));
                let mut acc = RegionBitmap::new(1, 1, 1);
                acc.reset_like(&a);
                assert_eq!(acc, empty);
                acc.union_in_place(&a);
                assert_eq!(acc, a);
            }
            let mut full = RegionBitmap::new(width, height, grid);
            full.mark_window(0, 0, width, height);
            assert_eq!(full.area(), width * height);
        }
    }

    #[test]
    #[should_panic(expected = "bitmap layouts differ")]
    fn union_layout_mismatch_panics() {
        let a = RegionBitmap::new(64, 64, 16);
        let b = RegionBitmap::new(32, 64, 16);
        let _ = a.union_area(&b);
    }

    #[test]
    fn zero_sized_window_is_noop() {
        let mut b = RegionBitmap::new(64, 64, 16);
        b.mark_window(10, 10, 0, 5);
        b.mark_window(10, 10, 5, 0);
        assert!(b.is_empty());
    }
}
