//! The dynamic-programming sliding-window algorithm (paper §5.2,
//! Figures 3–5).
//!
//! ## The identity the algorithm rests on
//!
//! For the non-standard Haar decomposition, the upper-left `m × m` corner of
//! the transform of a `ω × ω` window equals the full transform of the window
//! box-averaged down to `m × m` (verified in `haar2d::tests`). Since a
//! signature only needs the `s × s` corner, each window can be represented
//! by the truncated transform of side `m(ω) = min(ω, s)` — this is what
//! makes the paper's "exactly NS" auxiliary-space bound hold — and the
//! truncation is *closed under merging*: the truncated transform of a
//! `ω × ω` window is computed from the `m(ω)/2 × m(ω)/2` corners of its four
//! `ω/2` sub-windows by the paper's `computeSingleWindow` —
//!
//! 1. `copyBlocks` tiles the three detail quadrants of the output from the
//!    corresponding quadrants of the four inputs (Figure 3), and
//! 2. recursion computes the output's upper-left quadrant (the transform of
//!    the averages matrix `A`) from the inputs' upper-left quadrants,
//!    bottoming out at `2 × 2` with one round of averaging/differencing over
//!    the four input DC values (Figure 4, steps 2–5).
//!
//! ## Sweep
//!
//! `computeSlidingWindows` (Figure 5) iterates `ω = 2, 4, …, ω_max`. Level
//! `ω` keeps windows rooted at multiples of `dist = min(ω, t)`; because all
//! quantities are powers of two, the roots of the four sub-windows of any
//! level-`ω` window always lie on the level-`ω/2` grid. Total work is
//! `O(N·S·log ω_max)` versus the naive `O(N·ω²_max)`.

use crate::sliding::{normalize_signature_matrix, SlidingParams, WindowSignature};
use crate::{Result, WaveletError};
use walrus_guard::Guard;

/// Every window signature of one sweep as flat data: a `windows × dims`
/// row-major coefficient matrix beside the windows' roots and sizes, in the
/// sweep's output order (window size ascending, then row-major by root).
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureMatrix {
    /// Coefficients per signature: `s² × channels`, channel-major.
    pub dims: usize,
    /// `windows.len() × dims` coefficients; row `i` is the signature of
    /// `windows[i]`.
    pub coeffs: Vec<f32>,
    /// `(x, y, ω)` — root pixel and side — of each window.
    pub windows: Vec<(usize, usize, usize)>,
}

impl SignatureMatrix {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the sweep produced no window.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The signature of window `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.coeffs[i * self.dims..(i + 1) * self.dims]
    }
}

/// Geometry of one level of the DP sweep. A level's storage is, per channel,
/// `rows × cols` cells of `m × m` floats, row-major: the truncated raw
/// wavelet transforms of every window of side `omega`. Level 1 is the
/// caller's plane itself (every pixel is its own 1×1 window whose
/// "transform" is the raw intensity — paper Figure 5's `W¹[i,j]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Level {
    /// Window side this level represents.
    omega: usize,
    /// Stride between adjacent window roots.
    dist: usize,
    /// Number of root positions horizontally.
    cols: usize,
    /// Number of root positions vertically.
    rows: usize,
    /// Side of the stored transform corner (`min(ω, max(s, 2))`, or 1 at
    /// level 1 — the floor of 2 keeps the merge base case well-formed when
    /// `s = 1`).
    m: usize,
}

impl Level {
    fn pixels(width: usize, height: usize) -> Self {
        Self { omega: 1, dist: 1, cols: width, rows: height, m: 1 }
    }

    /// The next level (`2ω`), or `None` when a `2ω` window no longer fits
    /// in the image.
    fn next(&self, width: usize, height: usize, params: &SlidingParams) -> Option<Self> {
        let omega = self.omega * 2;
        if omega > width || omega > height {
            return None;
        }
        let dist = params.dist(omega);
        Some(Self {
            omega,
            dist,
            cols: (width - omega) / dist + 1,
            rows: (height - omega) / dist + 1,
            m: omega.min(params.s.max(2)),
        })
    }

    /// Floats per row of cells.
    fn row_len(&self) -> usize {
        self.cols * self.m * self.m
    }

    /// Fills one output row of the merge into `next`: the truncated
    /// transforms of all level-`2ω` windows rooted at `y = row · next.dist`,
    /// from this level's cells in `data`. `out_row` is the `next.row_len()`
    /// row slice of the next level's buffer. Rows are independent, which is
    /// what the parallel sweep exploits.
    ///
    /// All sizes are powers of two, so the sub-windows' roots `x`, `x + ω/2`
    /// lie on this level's grid at cells `col · step` and `col · step +
    /// half_cells`: no pixel coordinate is divided back into a cell index.
    fn fill_merge_row(&self, data: &[f32], next: &Level, row: usize, out_row: &mut [f32]) {
        let step = next.dist / self.dist;
        let half_cells = self.omega / self.dist;
        let (in_sz, out_sz) = (self.m * self.m, next.m * next.m);
        debug_assert_eq!(step * self.dist, next.dist);
        debug_assert_eq!(half_cells * self.dist, next.omega / 2);
        debug_assert_eq!(out_row.len(), next.row_len());
        debug_assert!(row * step + half_cells < self.rows);
        debug_assert!((next.cols - 1) * step + half_cells < self.cols);
        let row_len = self.row_len();
        let top = &data[row * step * row_len..][..row_len];
        let bottom = &data[(row * step + half_cells) * row_len..][..row_len];
        for (col, out) in out_row.chunks_exact_mut(out_sz).enumerate() {
            let left = col * step * in_sz;
            let right = left + half_cells * in_sz;
            compute_single_window(
                &top[left..left + in_sz],
                &top[right..right + in_sz],
                &bottom[left..left + in_sz],
                &bottom[right..right + in_sz],
                self.m,
                out,
                next.m,
            );
        }
    }
}

/// The paper's `computeSingleWindow` (Figure 4): computes the truncated
/// (`m × m`) transform of a window from the `m/2 × m/2` corners of the
/// transforms of its four sub-windows. `W1..W4` are the top-left, top-right,
/// bottom-left and bottom-right sub-windows; `in_stride` is the row stride
/// of the input slices (their stored side, ≥ `m/2`); `out` is an `m × m`
/// row-major buffer.
pub fn compute_single_window(
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    in_stride: usize,
    out: &mut [f32],
    m: usize,
) {
    debug_assert!(m >= 2 && m.is_power_of_two());
    debug_assert!(in_stride >= m / 2);
    debug_assert_eq!(out.len(), m * m);
    let out_stride = m;
    let mut size = m;
    // Iterative version of the paper's tail recursion: copyBlocks at sizes
    // m, m/2, …, 4, then the 2×2 base case (Figure 4 steps 2–5).
    while size > 2 {
        copy_blocks(w1, w2, w3, w4, in_stride, out, out_stride, size);
        size /= 2;
    }
    let a1 = w1[0];
    let a2 = w2[0];
    let a3 = w3[0];
    let a4 = w4[0];
    out[0] = (a1 + a2 + a3 + a4) / 4.0;
    out[1] = (-a1 + a2 - a3 + a4) / 4.0; // horizontal detail
    out[out_stride] = (-a1 - a2 + a3 + a4) / 4.0; // vertical detail
    out[out_stride + 1] = (a1 - a2 - a3 + a4) / 4.0; // diagonal detail
}

/// The paper's `copyBlocks` (Figure 3): tiles the three detail quadrants of
/// the size-`size` output corner from the size-`size/4` detail quadrants of
/// the four inputs. Each output quadrant `[q, 0] / [0, q] / [q, q]`
/// (`q = size/2`) is a 2×2 mosaic of the inputs' corresponding quadrants
/// (`h = size/4`), laid out by the sub-windows' spatial positions.
#[allow(clippy::too_many_arguments)] // mirrors the paper's procedure signature
fn copy_blocks(
    w1: &[f32],
    w2: &[f32],
    w3: &[f32],
    w4: &[f32],
    in_stride: usize,
    out: &mut [f32],
    out_stride: usize,
    size: usize,
) {
    debug_assert!(size >= 4);
    let q = size / 2;
    let h = size / 4;
    let inputs = [(w1, 0usize, 0usize), (w2, 1, 0), (w3, 0, 1), (w4, 1, 1)];
    for &(qx, qy) in &[(1usize, 0usize), (0, 1), (1, 1)] {
        // Output quadrant origin and input quadrant origin.
        let (ox, oy) = (qx * q, qy * q);
        let (ix, iy) = (qx * h, qy * h);
        for &(input, tx, ty) in &inputs {
            for j in 0..h {
                let src = (iy + j) * in_stride + ix;
                let dst = (oy + ty * h + j) * out_stride + ox + tx * h;
                if h == 1 {
                    // Single-coefficient rows dominate the merge at small
                    // quadrant sizes; a direct store avoids memcpy overhead.
                    out[dst] = input[src];
                } else {
                    out[dst..dst + h].copy_from_slice(&input[src..src + h]);
                }
            }
        }
    }
}

/// The paper's `computeSlidingWindows` (Figure 5): computes `s × s`
/// signatures for all sliding windows with sizes in `[ω_min, ω_max]` via
/// the dynamic-programming merge. Output order matches
/// [`super::naive::compute_signatures_naive`] exactly.
///
/// ```
/// use walrus_wavelet::sliding::compute_signatures;
/// use walrus_wavelet::SlidingParams;
///
/// let plane: Vec<f32> = (0..16 * 16).map(|i| (i % 7) as f32 / 7.0).collect();
/// let params = SlidingParams { s: 2, omega_min: 8, omega_max: 8, stride: 4 };
/// let sigs = compute_signatures(&[&plane], 16, 16, &params)?;
/// assert_eq!(sigs.len(), 9); // 3×3 roots at stride 4
/// assert_eq!(sigs[0].coeffs.len(), 4); // 2×2 signature, one channel
/// # Ok::<(), walrus_wavelet::WaveletError>(())
/// ```
pub fn compute_signatures(
    planes: &[&[f32]],
    width: usize,
    height: usize,
    params: &SlidingParams,
) -> Result<Vec<WindowSignature>> {
    compute_signatures_with_threads(planes, width, height, params, 0)
}

/// [`compute_signatures`] with an explicit worker count; see
/// [`compute_signature_matrix`], whose rows this repacks into one
/// [`WindowSignature`] per window.
pub fn compute_signatures_with_threads(
    planes: &[&[f32]],
    width: usize,
    height: usize,
    params: &SlidingParams,
    threads: usize,
) -> Result<Vec<WindowSignature>> {
    let matrix = compute_signature_matrix(planes, width, height, params, threads, &Guard::none())?;
    Ok(matrix
        .windows
        .iter()
        .zip(matrix.coeffs.chunks_exact(matrix.dims))
        .map(|(&(x, y, omega), coeffs)| WindowSignature { x, y, omega, coeffs: coeffs.to_vec() })
        .collect())
}

/// The sweep itself, writing every signature straight into one
/// [`SignatureMatrix`]. `threads = 0` resolves via
/// [`walrus_parallel::resolve_threads`] (`WALRUS_THREADS`, then available
/// parallelism); `threads <= 1` runs fully serial. The sweep parallelizes
/// the two independent axes of each level — color channels and window rows —
/// and the per-row signature assembly; the output is **byte-identical** for
/// every thread count (work is partitioned, no floating-point
/// re-association).
///
/// The [`Guard`] is polled once per DP level and between row tasks inside
/// each level's merge and signature assembly, so a cancelled or
/// deadline-expired sweep stops within one row of work and returns
/// [`WaveletError::Interrupted`]. An unarmed guard costs nothing.
pub fn compute_signature_matrix(
    planes: &[&[f32]],
    width: usize,
    height: usize,
    params: &SlidingParams,
    threads: usize,
    guard: &Guard,
) -> Result<SignatureMatrix> {
    params.validate()?;
    if planes.is_empty() {
        return Err(WaveletError::BadParams("no channel planes supplied".into()));
    }
    for p in planes {
        if p.len() != width * height {
            return Err(WaveletError::NotSquare { width, height: p.len() / width.max(1) });
        }
    }
    if width < params.omega_min || height < params.omega_min {
        return Err(WaveletError::ImageTooSmall { width, height, omega_min: params.omega_min });
    }
    let threads = walrus_parallel::resolve_threads(threads);

    let s = params.s;
    let dims = params.signature_dims(planes.len());
    let total = params.total_windows(width, height);
    let mut out = SignatureMatrix {
        dims,
        coeffs: vec![0.0; total * dims],
        windows: Vec::with_capacity(total),
    };
    // Per-coefficient level normalization of an `s × s` corner, read off a
    // matrix of ones: the DC term's factor is exactly 1.
    let mut scale = vec![1.0f32; s * s];
    normalize_signature_matrix(&mut scale, s);

    // Two sets of per-channel level buffers, swapped after every merge;
    // level 1 is read from the caller's planes.
    let mut level = Level::pixels(width, height);
    let mut current: Vec<Vec<f32>> = vec![Vec::new(); planes.len()];
    let mut merged: Vec<Vec<f32>> = vec![Vec::new(); planes.len()];
    while level.omega * 2 <= params.omega_max {
        guard.poll()?;
        let Some(next) = level.next(width, height, params) else { break };
        let sources: Vec<&[f32]> = if level.omega == 1 {
            planes.to_vec()
        } else {
            current.iter().map(Vec::as_slice).collect()
        };
        let tasks: Vec<(usize, usize, &mut [f32])> = merged
            .iter_mut()
            .enumerate()
            .flat_map(|(c, data)| {
                data.resize(next.rows * next.row_len(), 0.0);
                data.chunks_exact_mut(next.row_len())
                    .enumerate()
                    .map(move |(row, slice)| (c, row, slice))
            })
            .collect();
        walrus_parallel::parallel_for_guarded(threads, guard, tasks, |(c, row, slice)| {
            level.fill_merge_row(sources[c], &next, row, slice);
        })
        .map_err(WaveletError::Interrupted)?;
        std::mem::swap(&mut current, &mut merged);
        level = next;

        if level.omega >= params.omega_min {
            let first = out.windows.len();
            for row in 0..level.rows {
                out.windows
                    .extend((0..level.cols).map(|col| (col * level.dist, row * level.dist, level.omega)));
            }
            debug_assert!(s <= level.m);
            let rows = &mut out.coeffs[first * dims..out.windows.len() * dims];
            let tasks: Vec<(usize, &mut [f32])> =
                rows.chunks_exact_mut(level.cols * dims).enumerate().collect();
            walrus_parallel::parallel_for_guarded(threads, guard, tasks, |(row, sigs)| {
                // The `s × s` corner of each channel's cell, level-normalized,
                // lands in the window's slice of the matrix row.
                let cell_sz = level.m * level.m;
                for (c, data) in current.iter().enumerate() {
                    let cells = &data[row * level.row_len()..][..level.row_len()];
                    for (cell, sig) in cells.chunks_exact(cell_sz).zip(sigs.chunks_exact_mut(dims)) {
                        let sig = &mut sig[c * s * s..(c + 1) * s * s];
                        for ((line, raw), factors) in sig
                            .chunks_exact_mut(s)
                            .zip(cell.chunks_exact(level.m))
                            .zip(scale.chunks_exact(s))
                        {
                            for ((v, &r), &k) in line.iter_mut().zip(raw).zip(factors) {
                                *v = r * k;
                            }
                        }
                    }
                }
            })
            .map_err(WaveletError::Interrupted)?;
        }
    }
    debug_assert_eq!(out.windows.len(), total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar2d;
    use crate::sliding::compute_signatures_naive;

    fn demo_plane(width: usize, height: usize, salt: usize) -> Vec<f32> {
        (0..width * height)
            .map(|i| ((i * 31 + salt * 13 + 7) % 19) as f32 / 19.0)
            .collect()
    }

    fn assert_same(a: &[WindowSignature], b: &[WindowSignature], tol: f32) {
        assert_eq!(a.len(), b.len(), "window counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.x, x.y, x.omega), (y.x, y.y, y.omega), "window order differs");
            assert_eq!(x.coeffs.len(), y.coeffs.len());
            for (c, d) in x.coeffs.iter().zip(&y.coeffs) {
                assert!(
                    (c - d).abs() <= tol,
                    "window ({}, {}, ω={}) coeff {c} vs {d}",
                    x.x,
                    x.y,
                    x.omega
                );
            }
        }
    }

    #[test]
    fn dp_matches_naive_square_image() {
        let plane = demo_plane(32, 32, 0);
        let params = SlidingParams { s: 2, omega_min: 2, omega_max: 32, stride: 2 };
        let dp = compute_signatures(&[&plane], 32, 32, &params).unwrap();
        let naive = compute_signatures_naive(&[&plane], 32, 32, &params).unwrap();
        assert_same(&dp, &naive, 1e-4);
    }

    #[test]
    fn dp_matches_naive_rectangular_image() {
        let plane = demo_plane(48, 24, 1);
        let params = SlidingParams { s: 4, omega_min: 4, omega_max: 16, stride: 4 };
        let dp = compute_signatures(&[&plane], 48, 24, &params).unwrap();
        let naive = compute_signatures_naive(&[&plane], 48, 24, &params).unwrap();
        assert_same(&dp, &naive, 1e-4);
    }

    #[test]
    fn dp_matches_naive_multi_channel() {
        let a = demo_plane(16, 16, 2);
        let b = demo_plane(16, 16, 3);
        let c = demo_plane(16, 16, 4);
        let params = SlidingParams { s: 2, omega_min: 4, omega_max: 8, stride: 1 };
        let dp = compute_signatures(&[&a, &b, &c], 16, 16, &params).unwrap();
        let naive = compute_signatures_naive(&[&a, &b, &c], 16, 16, &params).unwrap();
        assert_same(&dp, &naive, 1e-4);
    }

    #[test]
    fn dp_matches_naive_large_signature() {
        // s = ω/2 and s = ω edge cases.
        let plane = demo_plane(16, 16, 5);
        for s in [8usize, 16] {
            let params = SlidingParams { s, omega_min: 16, omega_max: 16, stride: 16 };
            let dp = compute_signatures(&[&plane], 16, 16, &params).unwrap();
            let naive = compute_signatures_naive(&[&plane], 16, 16, &params).unwrap();
            assert_same(&dp, &naive, 1e-4);
        }
    }

    #[test]
    fn dp_matches_naive_s1() {
        // Degenerate 1×1 signatures (pure window means).
        let plane = demo_plane(16, 16, 6);
        let params = SlidingParams { s: 1, omega_min: 2, omega_max: 16, stride: 1 };
        let dp = compute_signatures(&[&plane], 16, 16, &params).unwrap();
        let naive = compute_signatures_naive(&[&plane], 16, 16, &params).unwrap();
        assert_same(&dp, &naive, 1e-4);
    }

    #[test]
    fn dp_matches_naive_stride_larger_than_small_windows() {
        // t = 8 > ω for ω ∈ {2, 4}: effective stride collapses to ω.
        let plane = demo_plane(32, 32, 7);
        let params = SlidingParams { s: 2, omega_min: 2, omega_max: 16, stride: 8 };
        let dp = compute_signatures(&[&plane], 32, 32, &params).unwrap();
        let naive = compute_signatures_naive(&[&plane], 32, 32, &params).unwrap();
        assert_same(&dp, &naive, 1e-4);
    }

    #[test]
    fn single_window_merge_reproduces_full_transform() {
        // Merge the four quadrant transforms of an 8×8 image and compare
        // against the direct transform.
        let side = 8;
        let img = demo_plane(side, side, 8);
        let full = haar2d::nonstandard_forward(&img, side).unwrap();
        let mut quads = Vec::new();
        for &(qx, qy) in &[(0usize, 0usize), (1, 0), (0, 1), (1, 1)] {
            let mut q = Vec::with_capacity(16);
            for j in 0..4 {
                for i in 0..4 {
                    q.push(img[(qy * 4 + j) * side + qx * 4 + i]);
                }
            }
            quads.push(haar2d::nonstandard_forward(&q, 4).unwrap());
        }
        let mut merged = vec![0.0f32; side * side];
        compute_single_window(&quads[0], &quads[1], &quads[2], &quads[3], 4, &mut merged, side);
        for (a, b) in merged.iter().zip(&full) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn threaded_sweep_is_byte_identical_to_serial() {
        // The determinism guarantee the query/ingest engine relies on:
        // outputs match bit-for-bit, not just within a tolerance.
        let a = demo_plane(48, 32, 12);
        let b = demo_plane(48, 32, 13);
        let c = demo_plane(48, 32, 14);
        let planes: Vec<&[f32]> = vec![&a, &b, &c];
        let params = SlidingParams { s: 2, omega_min: 4, omega_max: 16, stride: 4 };
        let serial = compute_signatures_with_threads(&planes, 48, 32, &params, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = compute_signatures_with_threads(&planes, 48, 32, &params, threads).unwrap();
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!((p.x, p.y, p.omega), (s.x, s.y, s.omega));
                for (cp, cs) in p.coeffs.iter().zip(&s.coeffs) {
                    assert_eq!(cp.to_bits(), cs.to_bits(), "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn guarded_sweep_matches_unguarded_and_interrupts() {
        use walrus_guard::{Guard, Interrupt};
        let plane = demo_plane(32, 32, 15);
        let params = SlidingParams { s: 2, omega_min: 4, omega_max: 16, stride: 4 };
        // Unarmed guard: identical output.
        let plain = compute_signatures_with_threads(&[&plane[..]], 32, 32, &params, 1).unwrap();
        let guarded =
            compute_signature_matrix(&[&plane[..]], 32, 32, &params, 1, &Guard::none()).unwrap();
        assert_eq!(plain.len(), guarded.len());
        for (i, p) in plain.iter().enumerate() {
            assert_eq!((p.x, p.y, p.omega), guarded.windows[i]);
            assert_eq!(p.coeffs, guarded.row(i));
        }
        // Pre-tripped guard: interrupted before any level completes.
        let guard = Guard::none().trip_after(0, Interrupt::Cancelled);
        let err =
            compute_signature_matrix(&[&plane[..]], 32, 32, &params, 1, &guard).unwrap_err();
        assert_eq!(err, WaveletError::Interrupted(Interrupt::Cancelled));
        // Tripping mid-sweep also interrupts (poll budget exhausted inside
        // the level loop rather than before it).
        let guard = Guard::none().trip_after(10, Interrupt::DeadlineExceeded);
        let err =
            compute_signature_matrix(&[&plane[..]], 32, 32, &params, 4, &guard).unwrap_err();
        assert_eq!(err, WaveletError::Interrupted(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn merge_stops_when_window_exceeds_image() {
        let plane = demo_plane(8, 8, 10);
        let params = SlidingParams { s: 2, omega_min: 2, omega_max: 64, stride: 1 };
        let sigs = compute_signatures(&[&plane], 8, 8, &params).unwrap();
        assert!(sigs.iter().all(|s| s.omega <= 8));
        let naive = compute_signatures_naive(&[&plane], 8, 8, &params).unwrap();
        assert_same(&sigs, &naive, 1e-4);
    }

    #[test]
    fn level_geometry_follows_stride_rule() {
        let params = SlidingParams { s: 2, omega_min: 2, omega_max: 8, stride: 4 };
        let l1 = Level::pixels(32, 32);
        let l2 = l1.next(32, 32, &params).unwrap();
        assert_eq!((l2.omega, l2.dist), (2, 2));
        assert_eq!(l2.cols, (32 - 2) / 2 + 1);
        let l4 = l2.next(32, 32, &params).unwrap();
        assert_eq!((l4.omega, l4.dist), (4, 4));
        let l8 = l4.next(32, 32, &params).unwrap();
        assert_eq!((l8.omega, l8.dist), (8, 4));
        assert_eq!(l8.cols, (32 - 8) / 4 + 1);
        assert_eq!(l8.m, 2); // min(8, s) = s: the paper's NS space bound
        assert_eq!(Level::pixels(8, 8).next(8, 8, &params).map(|l| l.rows), Some(4));
        assert!(l8.next(8, 8, &params).is_none(), "a 16-window does not fit an 8-image");
    }
}
