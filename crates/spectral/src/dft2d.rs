//! 2-D discrete Fourier transforms and the centered log-magnitude spectrum.

use crate::fft::{fft, ifft};
use crate::Complex64;
use decamouflage_imaging::{Channels, Image};

/// A complex-valued 2-D frequency grid produced by [`dft2_planned`].
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum2D {
    width: usize,
    height: usize,
    data: Vec<Complex64>,
}

impl Spectrum2D {
    /// Grid width (same as the source image width).
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Coefficient at frequency `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, u: usize, v: usize) -> Complex64 {
        assert!(u < self.width && v < self.height);
        self.data[v * self.width + u]
    }

    /// Borrows the raw coefficient buffer (row-major).
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Applies `fftshift`: swaps quadrants so the DC component moves to the
    /// grid centre. Returns a new spectrum.
    ///
    /// The per-pixel index arithmetic `nu = (u + half_w) % w` partitions
    /// each row into exactly two contiguous runs, so every output row is
    /// assembled from two flat `copy_from_slice` segments.
    pub fn shifted(&self) -> Spectrum2D {
        let (w, h) = (self.width, self.height);
        let mut out = vec![Complex64::ZERO; w * h];
        let half_w = w / 2;
        let half_h = h / 2;
        let split = w - half_w;
        for (v, src_row) in self.data.chunks_exact(w).enumerate() {
            let nv = (v + half_h) % h;
            let out_row = &mut out[nv * w..(nv + 1) * w];
            // u in [0, split) lands at u + half_w; u in [split, w) wraps.
            out_row[half_w..].copy_from_slice(&src_row[..split]);
            out_row[..half_w].copy_from_slice(&src_row[split..]);
        }
        Spectrum2D { width: w, height: h, data: out }
    }

    /// Log-magnitude image `log(1 + |F|)` normalised to `[0, 1]`.
    ///
    /// This is the paper's "centered spectrum" visualisation when called on
    /// a [`Spectrum2D::shifted`] spectrum.
    pub fn log_magnitude(&self) -> Image {
        let mut mags: Vec<f64> = self.data.iter().map(|c| (1.0 + c.norm()).ln()).collect();
        let scale = normalisation_scale(&mags);
        for m in mags.iter_mut() {
            *m *= scale;
        }
        Image::from_gray_plane(self.width, self.height, mags)
            .expect("buffer sized w*h by construction")
    }

    /// The raw log-magnitudes `log(1 + |F|)` of every coefficient, flat on
    /// the *unshifted* grid.
    ///
    /// This is the shared front half of [`Spectrum2D::centered_log_magnitude`]
    /// and the fused CSP pass ([`crate::csp::count_csp_in_spectrum`]): an
    /// engine scoring both methods computes these transcendentals once and
    /// hands the buffer to each consumer.
    pub fn log_magnitudes(&self) -> Vec<f64> {
        self.data.iter().map(|c| (1.0 + c.norm()).ln()).collect()
    }

    /// Fused `shifted().log_magnitude()` without materialising the shifted
    /// complex grid.
    ///
    /// Magnitudes are computed flat on the *unshifted* grid, the maximum is
    /// folded there (`f64::max` never rounds, so the fold is exact under
    /// any traversal order), and the normalised values are placed through
    /// the same two-contiguous-segment row mapping as [`Spectrum2D::shifted`].
    /// Output is bit-identical to the staged pipeline; it just skips one
    /// full-grid `Complex64` clone and the per-pixel scatter.
    pub fn centered_log_magnitude(&self) -> Image {
        self.centered_log_magnitude_from(&self.log_magnitudes())
    }

    /// [`Spectrum2D::centered_log_magnitude`] given the precomputed
    /// [`Spectrum2D::log_magnitudes`] buffer of this spectrum.
    ///
    /// # Panics
    ///
    /// Panics if `mags` does not have one entry per coefficient.
    pub fn centered_log_magnitude_from(&self, mags: &[f64]) -> Image {
        let (w, h) = (self.width, self.height);
        assert_eq!(mags.len(), w * h, "log-magnitude buffer shape mismatch");
        let scale = normalisation_scale(mags);
        let half_w = w / 2;
        let half_h = h / 2;
        let split = w - half_w;
        let mut out = vec![0.0f64; w * h];
        for (y, out_row) in out.chunks_exact_mut(w).enumerate() {
            // Inverse of `nv = (v + half_h) % h`: this output row reads
            // source row `sv`.
            let sv = (y + h - half_h) % h;
            let mags_row = &mags[sv * w..(sv + 1) * w];
            let (out_lo, out_hi) = out_row.split_at_mut(half_w);
            for (o, &m) in out_lo.iter_mut().zip(&mags_row[split..]) {
                *o = m * scale;
            }
            for (o, &m) in out_hi.iter_mut().zip(&mags_row[..split]) {
                *o = m * scale;
            }
        }
        Image::from_gray_plane(w, h, out).expect("buffer sized w*h by construction")
    }
}

/// `1/max` normalisation factor of the historical `log_magnitude` loop:
/// a plain `f64::max` fold seeded with `f64::MIN`, zero when nothing is
/// positive. Order-independent because `max` selects, never rounds.
fn normalisation_scale(mags: &[f64]) -> f64 {
    let mut max = f64::MIN;
    for &m in mags {
        max = max.max(m);
    }
    if max > 0.0 {
        1.0 / max
    } else {
        0.0
    }
}

thread_local! {
    /// Reusable row/column buffers for [`dft2_planned`]. The FFT *plans*
    /// are already cached per-length inside [`crate::fft`]; this adds the
    /// packing and column buffers on top so a corpus run stops allocating
    /// them per row pair and per column batch.
    static DFT2_SCRATCH: std::cell::RefCell<Dft2Scratch> =
        std::cell::RefCell::new(Dft2Scratch::default());
}

#[derive(Debug, Default)]
struct Dft2Scratch {
    packed: Vec<Complex64>,
    cols: Vec<Complex64>,
}

/// Columns gathered per batch of the column pass: 128 contiguous bytes of
/// each grid row per sweep.
const COLUMN_BATCH: usize = 8;

/// Forward 2-D DFT of a grayscale image (RGB inputs are converted to
/// luminance first). Row transforms run first, then column transforms.
///
/// Because the input rows are real-valued, two rows are packed into one
/// complex transform (`z = a + i b`) and separated afterwards using the
/// conjugate symmetry `A[k] = (Z[k] + conj(Z[N-k]))/2`,
/// `B[k] = (Z[k] - conj(Z[N-k]))/(2i)` — halving the row-pass cost. The
/// column pass transforms eight columns per sweep down the grid.
/// Packing and column buffers are thread-local and persist across calls.
pub fn dft2_planned(img: &Image) -> Spectrum2D {
    DFT2_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // Borrow the luma plane: for Gray inputs this is the stored plane
        // itself — no copy between the image and the transform.
        let luma = img.luma();
        let (w, h) = (img.width(), img.height());
        let mut grid: Vec<Complex64> = luma.iter().map(|&v| Complex64::from_real(v)).collect();
        row_pass(&mut grid, w, h, &mut scratch.packed);
        column_pass(&mut grid, w, h, &mut scratch.cols, fft);
        Spectrum2D { width: w, height: h, data: grid }
    })
}

/// Forward transform of every row of the real-valued `w x h` grid, two rows
/// per complex FFT (see [`dft2_planned`]).
fn row_pass(grid: &mut [Complex64], w: usize, h: usize, packed: &mut Vec<Complex64>) {
    let mut pair = 0;
    while pair + 1 < h {
        let (ya, yb) = (pair, pair + 1);
        packed.clear();
        packed.extend((0..w).map(|x| Complex64::new(grid[ya * w + x].re, grid[yb * w + x].re)));
        fft(packed);
        for k in 0..w {
            let z_k = packed[k];
            let z_nk = packed[(w - k) % w].conj();
            let a = (z_k + z_nk) * 0.5;
            let b = Complex64::new(0.5 * (z_k.im - z_nk.im), 0.5 * (z_nk.re - z_k.re));
            grid[ya * w + k] = a;
            grid[yb * w + k] = b;
        }
        pair += 2;
    }
    if pair < h {
        // Odd row count: transform the last row alone.
        fft(&mut grid[pair * w..(pair + 1) * w]);
    }
}

/// Applies `transform` to every column of the `w x h` grid.
///
/// Columns go [`COLUMN_BATCH`] at a time: each grid row contributes one
/// contiguous run of up to eight values, scattered into eight contiguous
/// column buffers, and the transformed columns return the same way. Each
/// column sees exactly the transform of the one-column-at-a-time loop; only
/// the memory traffic changes (a strided single-column gather reads a whole
/// cache line per row to use one value of it).
fn column_pass(
    grid: &mut [Complex64],
    w: usize,
    h: usize,
    cols: &mut Vec<Complex64>,
    transform: fn(&mut [Complex64]),
) {
    cols.resize(COLUMN_BATCH * h, Complex64::ZERO);
    for x0 in (0..w).step_by(COLUMN_BATCH) {
        let batch = COLUMN_BATCH.min(w - x0);
        for (y, row) in grid.chunks_exact(w).enumerate() {
            for (c, &v) in row[x0..x0 + batch].iter().enumerate() {
                cols[c * h + y] = v;
            }
        }
        for col in cols.chunks_exact_mut(h).take(batch) {
            transform(col);
        }
        for (y, row) in grid.chunks_exact_mut(w).enumerate() {
            for (c, v) in row[x0..x0 + batch].iter_mut().enumerate() {
                *v = cols[c * h + y];
            }
        }
    }
}

/// Inverse 2-D DFT back to a real image (the imaginary residue is dropped).
pub fn idft2(spec: &Spectrum2D) -> Image {
    let (w, h) = (spec.width, spec.height);
    let mut grid = spec.data.clone();
    column_pass(&mut grid, w, h, &mut Vec::new(), ifft);
    for row in grid.chunks_exact_mut(w) {
        ifft(row);
    }
    let mut img = Image::zeros(w, h, Channels::Gray);
    for y in 0..h {
        for x in 0..w {
            img.set(x, y, 0, grid[y * w + x].re);
        }
    }
    img
}

/// The paper's *centered spectrum*: `fftshift` of the 2-D DFT followed by
/// `log(1 + |F|)` normalised to `[0, 1]` (Equation 4 of the paper).
pub fn centered_spectrum(img: &Image) -> Image {
    dft2_planned(img).centered_log_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_coefficient_is_sample_sum() {
        let img = Image::from_fn_gray(4, 3, |x, y| (x + y) as f64);
        let spec = dft2_planned(&img);
        let sum: f64 = img.plane(0).iter().sum();
        assert!((spec.get(0, 0).re - sum).abs() < 1e-9);
        assert!(spec.get(0, 0).im.abs() < 1e-9);
    }

    #[test]
    fn packed_row_pass_matches_unpacked_reference() {
        // Reference: transform rows one at a time, then columns.
        for (w, h) in [(8usize, 6usize), (7, 5), (9, 9)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 7 + y * 13) % 53) as f64);
            let fast = dft2_planned(&img);
            let mut grid: Vec<Complex64> =
                img.plane(0).iter().map(|&v| Complex64::from_real(v)).collect();
            for row in grid.chunks_exact_mut(w) {
                fft(row);
            }
            column_pass_one_at_a_time(&mut grid, w, h);
            for (i, (a, b)) in fast.as_slice().iter().zip(grid.iter()).enumerate() {
                assert!((*a - *b).norm() < 1e-6, "{w}x{h} bin {i}: {a} vs {b}");
            }
        }
    }

    /// The historical column loop: one strided column gathered, transformed
    /// and scattered back at a time.
    fn column_pass_one_at_a_time(grid: &mut [Complex64], w: usize, h: usize) {
        let mut col = Vec::with_capacity(h);
        for x in 0..w {
            col.clear();
            col.extend((0..h).map(|y| grid[y * w + x]));
            fft(&mut col);
            for (y, &v) in col.iter().enumerate() {
                grid[y * w + x] = v;
            }
        }
    }

    #[test]
    fn batched_column_pass_is_bit_identical_to_one_column_at_a_time() {
        // Widths below and not divisible by the batch exercise the tail;
        // lengths cover radix-2, mixed-radix and Bluestein (prime) paths and
        // even/odd row counts. Repeated `dft2_planned` calls reuse scratch.
        for (w, h) in
            [(1usize, 4usize), (7, 5), (9, 12), (13, 8), (17, 17), (8, 8), (16, 6), (24, 9)]
        {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 29 + y * 23) % 71) as f64 - 11.0);
            let mut rows: Vec<Complex64> =
                img.plane(0).iter().map(|&v| Complex64::from_real(v)).collect();
            row_pass(&mut rows, w, h, &mut Vec::new());
            let mut reference = rows.clone();
            column_pass_one_at_a_time(&mut reference, w, h);
            let mut batched = rows;
            column_pass(&mut batched, w, h, &mut Vec::new(), fft);
            let bits = |g: &[Complex64]| -> Vec<(u64, u64)> {
                g.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&batched), bits(&reference), "{w}x{h}");
            for _ in 0..2 {
                assert_eq!(bits(dft2_planned(&img).as_slice()), bits(&reference), "{w}x{h}");
            }
        }
    }

    #[test]
    fn idft2_inverts_dft2() {
        for (w, h) in [(8usize, 8usize), (7, 5), (16, 9)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 31 + y * 17) % 97) as f64);
            let back = idft2(&dft2_planned(&img));
            assert!(back.approx_eq(&img, 1e-6), "{w}x{h} roundtrip failed");
        }
    }

    #[test]
    fn shift_moves_dc_to_center() {
        let img = Image::filled(8, 8, Channels::Gray, 10.0);
        let spec = dft2_planned(&img).shifted();
        // For a constant image everything but DC is 0; DC lands at (4, 4).
        assert!(spec.get(4, 4).norm() > 1.0);
        assert!(spec.get(0, 0).norm() < 1e-9);
    }

    #[test]
    fn shift_is_involution_for_even_sizes() {
        let img = Image::from_fn_gray(8, 6, |x, y| (x * y) as f64);
        let spec = dft2_planned(&img);
        let twice = spec.shifted().shifted();
        for (a, b) in spec.as_slice().iter().zip(twice.as_slice()) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn log_magnitude_is_normalised() {
        let img = Image::from_fn_gray(16, 16, |x, y| ((x ^ y) * 16) as f64);
        let mag = dft2_planned(&img).shifted().log_magnitude();
        assert!(mag.min_sample() >= 0.0);
        assert!((mag.max_sample() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_centered_log_magnitude_is_bit_identical_to_staged() {
        // Even/odd dimensions exercise both segment splits of the shift.
        for (w, h) in [(8usize, 8usize), (7, 5), (12, 9), (9, 12), (1, 4), (5, 1)] {
            let img = Image::from_fn_gray(w, h, |x, y| ((x * 13 + y * 7) % 31) as f64 - 4.0);
            let spec = dft2_planned(&img);
            let staged = spec.shifted().log_magnitude();
            let fused = spec.centered_log_magnitude();
            assert_eq!(staged, fused, "{w}x{h}");
        }
    }

    #[test]
    fn centered_spectrum_of_smooth_image_peaks_at_center() {
        let img = Image::from_fn_gray(32, 32, |x, y| {
            100.0 + 50.0 * ((x as f64) * 0.1).sin() + 30.0 * ((y as f64) * 0.08).cos()
        });
        let spec = centered_spectrum(&img);
        let (cx, cy) = (16, 16);
        assert!((spec.get(cx, cy, 0) - 1.0).abs() < 1e-9, "peak must be at center");
        // Far corners carry much less energy.
        assert!(spec.get(0, 0, 0) < 0.8);
    }

    #[test]
    fn periodic_pattern_creates_off_center_peaks() {
        // A strong period-4 comb produces energy away from DC — the
        // signature the steganalysis detector looks for.
        let img =
            Image::from_fn_gray(32, 32, |x, y| if x % 4 == 0 && y % 4 == 0 { 255.0 } else { 20.0 });
        let spec = centered_spectrum(&img);
        // Peak at spatial frequency 32/4 = 8 bins from DC: position (24, 16).
        assert!(spec.get(24, 16, 0) > 0.85, "side peak too weak: {}", spec.get(24, 16, 0));
    }

    #[test]
    fn rgb_input_is_converted_to_luma() {
        let rgb = Image::from_fn_rgb(8, 8, |x, y| [(x * y) as f64, 0.0, 0.0]);
        let gray = rgb.to_gray();
        let a = dft2_planned(&rgb);
        let b = dft2_planned(&gray);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((*x - *y).norm() < 1e-9);
        }
    }

    #[test]
    fn spectrum_accessors() {
        let img = Image::zeros(6, 4, Channels::Gray);
        let spec = dft2_planned(&img);
        assert_eq!(spec.width(), 6);
        assert_eq!(spec.height(), 4);
        assert_eq!(spec.as_slice().len(), 24);
    }
}
