//! Property-based tests (proptest) for the spectral substrate.

use decamouflage_imaging::{Channels, Image};
use decamouflage_spectral::components::{count_components, label_components, Connectivity};
use decamouflage_spectral::csp::{count_csp, count_csp_planned, CspConfig};
use decamouflage_spectral::dft2d::{centered_spectrum, dft2_planned, idft2};
use decamouflage_spectral::fft::{dft_naive, fft, ifft};
use decamouflage_spectral::mixed_radix::{is_smooth, MixedRadixPlan};
use decamouflage_spectral::radial::radial_profile;
use decamouflage_spectral::spectrum::{binarize, fill_ratio, low_pass_mask};
use decamouflage_spectral::Complex64;
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    (1usize..=max_len).prop_flat_map(|n| {
        proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), n)
            .prop_map(|pairs| pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

fn arb_image() -> impl Strategy<Value = Image> {
    (2usize..=16, 2usize..=16).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=255, w * h)
            .prop_map(move |data| Image::from_u8(w, h, Channels::Gray, &data).unwrap())
    })
}

fn arb_binary_image() -> impl Strategy<Value = Image> {
    (2usize..=12, 2usize..=12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(0u8..=1, w * h).prop_map(move |data| {
            Image::from_gray_plane(w, h, data.into_iter().map(f64::from).collect()).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fft_matches_naive_dft(signal in arb_signal(40)) {
        let mut fast = signal.clone();
        fft(&mut fast);
        let naive = dft_naive(&signal);
        for (a, b) in fast.iter().zip(naive.iter()) {
            prop_assert!((*a - *b).norm() < 1e-6 * signal.len() as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft(signal in arb_signal(48)) {
        let mut data = signal.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(signal.iter()) {
            prop_assert!((*a - *b).norm() < 1e-8 * signal.len() as f64);
        }
    }

    #[test]
    fn parseval_holds(signal in arb_signal(36)) {
        let time: f64 = signal.iter().map(|v| v.norm_sqr()).sum();
        let mut freq = signal.clone();
        fft(&mut freq);
        let spec: f64 = freq.iter().map(|v| v.norm_sqr()).sum::<f64>() / signal.len() as f64;
        prop_assert!((time - spec).abs() < 1e-6 * time.max(1.0));
    }

    #[test]
    fn mixed_radix_matches_naive_on_smooth_lengths(seed in 0u64..1000) {
        let smooth_lengths = [6usize, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30];
        let n = smooth_lengths[(seed % smooth_lengths.len() as u64) as usize];
        prop_assert!(is_smooth(n));
        let signal: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(((seed + i as u64) % 97) as f64, (i as f64 * 0.3).sin()))
            .collect();
        let plan = MixedRadixPlan::new(n);
        let fast = plan.forward(&signal);
        let naive = dft_naive(&signal);
        for (a, b) in fast.iter().zip(naive.iter()) {
            prop_assert!((*a - *b).norm() < 1e-7 * n as f64);
        }
    }

    #[test]
    fn dft2_roundtrip(img in arb_image()) {
        let back = idft2(&dft2_planned(&img));
        prop_assert!(back.approx_eq(&img, 1e-6));
    }

    #[test]
    fn centered_spectrum_is_normalised(img in arb_image()) {
        let spec = centered_spectrum(&img);
        prop_assert!(spec.min_sample() >= 0.0);
        prop_assert!(spec.max_sample() <= 1.0 + 1e-12);
    }

    #[test]
    fn component_count_bounded_by_set_pixels(img in arb_binary_image()) {
        let set = img.plane(0).iter().filter(|&&v| v != 0.0).count();
        let count = count_components(&img, Connectivity::Eight, 1);
        prop_assert!(count <= set);
        // Eight-connectivity merges at least as much as four.
        let four = count_components(&img, Connectivity::Four, 1);
        prop_assert!(count <= four);
    }

    #[test]
    fn component_areas_sum_to_set_pixels(img in arb_binary_image()) {
        let set = img.plane(0).iter().filter(|&&v| v != 0.0).count();
        let total: usize = label_components(&img, Connectivity::Eight)
            .iter()
            .map(|c| c.area)
            .sum();
        prop_assert_eq!(total, set);
    }

    #[test]
    fn low_pass_mask_only_removes(img in arb_image(), radius in 0.0f64..20.0) {
        let spec = centered_spectrum(&img);
        let masked = low_pass_mask(&spec, radius);
        for (m, s) in masked.plane(0).iter().zip(spec.plane(0)) {
            prop_assert!(*m == 0.0 || (*m - *s).abs() < 1e-12);
        }
    }

    #[test]
    fn binarize_fill_ratio_is_monotone_in_threshold(img in arb_image()) {
        let spec = centered_spectrum(&img);
        let low = fill_ratio(&binarize(&spec, 0.2));
        let high = fill_ratio(&binarize(&spec, 0.8));
        prop_assert!(high <= low);
    }

    #[test]
    fn planned_dft2_matches_one_column_at_a_time_reference(img in arb_image()) {
        // The batched column pass behind the engine's steganalysis scoring
        // must match the historical per-column loop bit for bit, including
        // widths below and not divisible by the batch and non-power-of-two
        // (mixed-radix and Bluestein) sizes, which `arb_image`'s 2..=16
        // dimensions exercise.
        let reference = dft2_one_column_at_a_time(&img);
        let planned = dft2_planned(&img);
        prop_assert_eq!(planned.width(), img.width());
        prop_assert_eq!(planned.height(), img.height());
        prop_assert_eq!(spectrum_bits(planned.as_slice()), spectrum_bits(&reference));
    }

    #[test]
    fn planned_csp_matches_staged_pipeline(img in arb_image(), threshold in 0.3f64..0.95) {
        let mut config = CspConfig::default();
        config.binarize_threshold = threshold;
        let staged = count_csp(&img, &config);
        let fused = count_csp_planned(&img, &config);
        prop_assert_eq!(fused.count, staged.count);
        prop_assert_eq!(fused.components, staged.components);
    }

    #[test]
    fn radial_profile_accounts_for_every_pixel(img in arb_image()) {
        let profile = radial_profile(&img);
        let total: usize = profile.count.iter().sum();
        prop_assert_eq!(total, img.width() * img.height());
        for r in 0..profile.len() {
            if profile.count[r] > 0 {
                prop_assert!(profile.max[r] >= profile.mean[r] - 1e-12);
            }
        }
    }
}

/// The historical 2-D transform, kept verbatim as the bit-identity reference
/// for `dft2_planned`: the same packed-row pass, then one strided column
/// gathered, transformed and scattered back at a time.
fn dft2_one_column_at_a_time(img: &Image) -> Vec<Complex64> {
    let luma = img.luma();
    let (w, h) = (img.width(), img.height());
    let mut grid: Vec<Complex64> = luma.iter().map(|&v| Complex64::from_real(v)).collect();

    // Rows: two real rows per complex FFT.
    let mut pair = 0;
    while pair + 1 < h {
        let (ya, yb) = (pair, pair + 1);
        let mut packed: Vec<Complex64> =
            (0..w).map(|x| Complex64::new(grid[ya * w + x].re, grid[yb * w + x].re)).collect();
        fft(&mut packed);
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
        let y = pair;
        let mut row: Vec<Complex64> = grid[y * w..(y + 1) * w].to_vec();
        fft(&mut row);
        grid[y * w..(y + 1) * w].copy_from_slice(&row);
    }
    // Columns.
    let mut col = vec![Complex64::ZERO; h];
    for x in 0..w {
        for y in 0..h {
            col[y] = grid[y * w + x];
        }
        let mut col_vec = std::mem::take(&mut col);
        fft(&mut col_vec);
        for (y, &v) in col_vec.iter().enumerate() {
            grid[y * w + x] = v;
        }
        col = col_vec;
    }
    grid
}

fn spectrum_bits(grid: &[Complex64]) -> Vec<(u64, u64)> {
    grid.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

#[test]
fn planned_dft2_matches_reference_on_batch_tails_and_profile_sizes() {
    // Widths 1, 7, 9, 13 and 17 leave a partial column batch; 97 and 31 are
    // primes past the mixed-radix factors (Bluestein on both axes); 56x44
    // and 616x3 take the mixed-radix path, 616 = 2³·7·11 in every row.
    for (w, h) in
        [(1usize, 4usize), (7, 5), (9, 12), (13, 8), (17, 17), (97, 31), (56, 44), (616, 3)]
    {
        let img = Image::from_fn_gray(w, h, |x, y| ((x * 13 + y * 29) % 251) as f64);
        let reference = dft2_one_column_at_a_time(&img);
        assert_eq!(
            spectrum_bits(dft2_planned(&img).as_slice()),
            spectrum_bits(&reference),
            "{w}x{h}"
        );
    }
    let img = Image::from_fn_gray(97, 31, |x, y| ((x * 13 + y * 29) % 251) as f64);
    let config = CspConfig::default();
    assert_eq!(count_csp_planned(&img, &config).count, count_csp(&img, &config).count);
}

// ---------------------------------------------------------------------------
// Vectorized-kernel equivalence suite (ISSUE 6): the dispatching radix-2
// implementation (twiddle plans + optional AVX butterflies) against the
// historical scalar loop, including NaN/inf-poisoned signals, and the fused
// CSP pass on poisoned images.
// ---------------------------------------------------------------------------

use std::f64::consts::PI;

/// The historical scalar radix-2 loop, kept verbatim as the bit-identity
/// reference for the dispatching implementation (same copy as the unit test
/// inside `fft.rs`, duplicated here because that one is crate-private).
fn radix2_scalar_reference(data: &mut [Complex64]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let theta = -2.0 * PI / len as f64;
        let w_len = Complex64::from_polar_unit(theta);
        for chunk in data.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(len / 2);
            let mut w = Complex64::ONE;
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let t = *b * w;
                let av = *a;
                *a = av + t;
                *b = av - t;
                w *= w_len;
            }
        }
        len <<= 1;
    }
}

/// Bit equality modulo NaN payloads (see `imaging/src/simd.rs` module docs:
/// IEEE NaN propagation through commutable `fadd`/`fmul` is not pinned by
/// the compiler, so when two distinct NaNs meet, either payload may win).
fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn arb_poisoned_component() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ]
}

fn arb_poisoned_pow2_signal() -> impl Strategy<Value = Vec<Complex64>> {
    (1u32..=7).prop_flat_map(|bits| {
        proptest::collection::vec((arb_poisoned_component(), arb_poisoned_component()), 1 << bits)
            .prop_map(|pairs| pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

fn arb_poisoned_image() -> impl Strategy<Value = Image> {
    (3usize..=12, 3usize..=12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(arb_poisoned_component(), w * h)
            .prop_map(move |data| Image::from_gray_plane(w, h, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn radix2_matches_scalar_reference_on_poisoned_signals(
        input in arb_poisoned_pow2_signal(),
    ) {
        let mut reference = input.clone();
        radix2_scalar_reference(&mut reference);
        let mut fast = input;
        fft(&mut fast);
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert!(
                bits_match(a.re, b.re) && bits_match(a.im, b.im),
                "element {}: {:?} vs {:?}",
                i,
                a,
                b
            );
        }
    }

    #[test]
    fn csp_on_poisoned_images_never_panics(img in arb_poisoned_image()) {
        // NaN magnitudes fail every `>= threshold` comparison, so both the
        // staged and the fused pass must agree and return a sane report.
        let config = CspConfig::default();
        let staged = count_csp(&img, &config);
        let fused = count_csp_planned(&img, &config);
        prop_assert_eq!(fused.count, staged.count);
        prop_assert_eq!(fused.components, staged.components);
        prop_assert!(staged.count <= img.width() * img.height());
    }
}
