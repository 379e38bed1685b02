//! Mixed-radix Cooley–Tukey FFT for composite lengths.
//!
//! The image sizes this framework meets in practice (336, 392, 448, 504,
//! 560, 616, …) are highly composite: products of 2, 3, 5, 7 and 11. The
//! Cooley–Tukey decomposition `N = r * m` reduces such lengths to tiny
//! prime-length DFTs plus twiddle multiplications in `O(N log N)`, avoiding
//! the ~3x padded-transform overhead of Bluestein's algorithm. Lengths with
//! a large prime factor still fall back to Bluestein (handled by
//! [`crate::fft`]).
//!
//! The transform is decimation in time, run iteratively from a plan built
//! once per length:
//!
//! 1. gather the input into leaf order (mixed-radix digit reversal), so
//!    every sub-transform's decimated subsequences sit in contiguous
//!    windows of its block;
//! 2. run one combine stage per prime factor, innermost first, each in
//!    place over blocks of length `len = r * m`:
//!
//! ```text
//! X[k1 + m*j] = Σ_{n1=0}^{r-1} W_N^{n1 (k1 + m j) N/len} · S_{n1}[k1]
//! ```
//!
//! For a fixed `k1` the `r` inputs `S_{n1}[k1]` and the `r` outputs share
//! the same positions `k1 + m*n1` of the block, so each radix-`r` combine
//! runs through an `r`-element local buffer. The stage's twiddles are
//! precomputed in reading order; they are the entries
//! `W_N^{(n1·k·N/len) mod N}` of one `e^{-2πi k/N}` table, each output is
//! accumulated from zero in ascending `n1`, and the `n1 = 0` term keeps its
//! multiply by the unit twiddle (which turns an infinite input into NaN
//! exactly as the full product does). The results are therefore the same
//! bits as the textbook recursion over the same table, which the tests keep
//! as an oracle.

use crate::Complex64;
use std::f64::consts::PI;

/// Largest prime factor that the mixed-radix path handles before the
/// caller should fall back to Bluestein.
pub const MAX_SMALL_PRIME: usize = 13;

/// Returns the smallest prime factor of `n` (n >= 2).
fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut p = 3;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 2;
    }
    n
}

/// Whether `n` is a product of primes `<= MAX_SMALL_PRIME` (such lengths
/// take the fast mixed-radix path).
pub fn is_smooth(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut m = n;
    for p in [2usize, 3, 5, 7, 11, 13] {
        while m.is_multiple_of(p) {
            m /= p;
        }
    }
    m == 1
}

/// Precomputed iterative plan for one length.
///
/// Built once per length and cached per thread by [`crate::fft`]: a
/// transform then only gathers its input into leaf order and runs the
/// stages in place, without allocating.
#[derive(Debug)]
pub struct MixedRadixPlan {
    n: usize,
    /// `permutation[p]` is the input index that sits at position `p` before
    /// the first stage.
    permutation: Vec<usize>,
    /// Combine stages in execution order: innermost (shortest blocks)
    /// first, the full-length combine last.
    stages: Vec<Stage>,
}

/// One radix-`radix` combine over every contiguous block of length
/// `radix * m`.
#[derive(Debug)]
struct Stage {
    radix: usize,
    m: usize,
    /// `twiddles[(k1 * radix + j) * radix + n1]` is the twiddle of input
    /// `n1` in output `k1 + m*j` — the order in which the combine reads them.
    twiddles: Vec<Complex64>,
}

impl MixedRadixPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not smooth (check [`is_smooth`] first).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "length must be non-zero");
        assert!(is_smooth(n), "length {n} has a prime factor > {MAX_SMALL_PRIME}");
        let mut factors = Vec::new();
        let mut m = n;
        while m > 1 {
            let p = smallest_prime_factor(m);
            factors.push(p);
            m /= p;
        }
        let table: Vec<Complex64> =
            (0..n).map(|k| Complex64::from_polar_unit(-2.0 * PI * k as f64 / n as f64)).collect();

        // Leaf order, built from the innermost split outwards: a block of
        // radix `r` holds its `n1`-th decimated subsequence (input indices
        // `n1 + r*i`) in its `n1`-th window.
        let mut permutation = vec![0];
        for &r in factors.iter().rev() {
            permutation =
                (0..r).flat_map(|n1| permutation.iter().map(move |&i| n1 + r * i)).collect();
        }

        let mut stages = Vec::with_capacity(factors.len());
        let mut len = 1;
        for &r in factors.iter().rev() {
            let m = len;
            len *= r;
            // This stage's W_len is W_N^{N/len}.
            let unit = n / len;
            let mut twiddles = Vec::with_capacity(r * len);
            for k1 in 0..m {
                for j in 0..r {
                    let k = k1 + m * j;
                    twiddles.extend((0..r).map(|n1| table[(n1 * k * unit) % n]));
                }
            }
            stages.push(Stage { radix: r, m, twiddles });
        }
        Self { n, permutation, stages }
    }

    /// The transform length.
    pub const fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial length 1.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Forward transform (no normalisation), out of place.
    pub fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.n];
        self.forward_into(input, &mut out);
        out
    }

    /// Forward transform (no normalisation) of `input` written into `out`,
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the plan's.
    pub fn forward_into(&self, input: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(input.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        for (o, &i) in out.iter_mut().zip(&self.permutation) {
            *o = input[i];
        }
        for stage in &self.stages {
            let (m, tw) = (stage.m, stage.twiddles.as_slice());
            match stage.radix {
                2 => combine::<2>(out, m, tw),
                3 => combine::<3>(out, m, tw),
                5 => combine::<5>(out, m, tw),
                7 => combine::<7>(out, m, tw),
                11 => combine::<11>(out, m, tw),
                13 => combine::<13>(out, m, tw),
                r => unreachable!("radix {r} exceeds MAX_SMALL_PRIME"),
            }
        }
    }
}

/// One radix-`R` stage in place over every block of length `R * m`:
/// `block[k1 + m*j] = Σ_{n1} block[k1 + m*n1] · W(k1, j, n1)`, accumulated
/// from zero in ascending `n1`, with `twiddles` in the [`Stage`] layout.
fn combine<const R: usize>(data: &mut [Complex64], m: usize, twiddles: &[Complex64]) {
    debug_assert_eq!(twiddles.len(), R * R * m);
    for block in data.chunks_exact_mut(R * m) {
        for (k1, tw) in twiddles.chunks_exact(R * R).enumerate() {
            let mut x = [Complex64::ZERO; R];
            for (n1, v) in x.iter_mut().enumerate() {
                *v = block[k1 + m * n1];
            }
            for (j, row) in tw.chunks_exact(R).enumerate() {
                let mut acc = Complex64::ZERO;
                for (&v, &w) in x.iter().zip(row) {
                    acc += v * w;
                }
                block[k1 + m * j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft_naive, fft, ifft};
    use proptest::prelude::*;

    /// The historical recursive transform, kept verbatim as the bit-identity
    /// oracle for the iterative plan: same factor order and twiddle table,
    /// combine reading `table[(n1·k·unit) % n]` with a direction branch.
    struct RecursiveReference {
        n: usize,
        factors: Vec<usize>,
        twiddles: Vec<Complex64>,
    }

    impl RecursiveReference {
        fn new(n: usize) -> Self {
            let mut factors = Vec::new();
            let mut m = n;
            while m > 1 {
                let p = smallest_prime_factor(m);
                factors.push(p);
                m /= p;
            }
            let twiddles = (0..n)
                .map(|k| Complex64::from_polar_unit(-2.0 * PI * k as f64 / n as f64))
                .collect();
            Self { n, factors, twiddles }
        }

        #[inline]
        fn twiddle(&self, k: usize, forward: bool) -> Complex64 {
            let t = self.twiddles[k % self.n];
            if forward {
                t
            } else {
                t.conj()
            }
        }

        fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
            assert_eq!(input.len(), self.n, "input length mismatch");
            let mut out = vec![Complex64::ZERO; self.n];
            let mut scratch = vec![Complex64::ZERO; self.n];
            self.recurse(input, 0, 1, &mut out, &mut scratch, self.n, 0, true);
            out
        }

        #[allow(clippy::too_many_arguments)]
        fn recurse(
            &self,
            input: &[Complex64],
            offset: usize,
            stride: usize,
            out: &mut [Complex64],
            scratch: &mut [Complex64],
            len: usize,
            depth: usize,
            forward: bool,
        ) {
            if len == 1 {
                out[0] = input[offset];
                return;
            }
            let r = self.factors[depth];
            let m = len / r;

            // Transform each of the r decimated subsequences of length m.
            for n1 in 0..r {
                self.recurse(
                    input,
                    offset + n1 * stride,
                    stride * r,
                    &mut scratch[n1 * m..(n1 + 1) * m],
                    &mut out[n1 * m..(n1 + 1) * m],
                    m,
                    depth + 1,
                    forward,
                );
            }

            // Combine: X[k1 + m*j] = Σ_{n1} W_N^{n1 (k1 + m j)} · S_{n1}[k1].
            // Twiddle index scaled by the global stride of this recursion level:
            // this level's W_N uses N = len, so global k = index * (self.n/len).
            let unit = self.n / len;
            for k1 in 0..m {
                for j in 0..r {
                    let k = k1 + m * j;
                    let mut acc = Complex64::ZERO;
                    for n1 in 0..r {
                        let tw = self.twiddle(n1 * k * unit, forward);
                        acc += scratch[n1 * m + k1] * tw;
                    }
                    out[k] = acc;
                }
            }
        }

        /// The historical `ifft` of a smooth length: conjugate, forward,
        /// conjugate, then `fft::ifft`'s division by `N`.
        fn inverse(&self, input: &[Complex64]) -> Vec<Complex64> {
            let conj: Vec<Complex64> = input.iter().map(|v| v.conj()).collect();
            let n = self.n as f64;
            self.forward(&conj).into_iter().map(|v| v.conj() / n).collect()
        }
    }

    /// Bit equality, with any NaN matching any NaN (IEEE leaves NaN payload
    /// propagation to the compiler's operand order).
    fn same_bits(a: &[Complex64], b: &[Complex64]) -> Result<(), String> {
        let eq = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        if a.len() != b.len() {
            return Err(format!("length {} vs {}", a.len(), b.len()));
        }
        match a.iter().zip(b).position(|(x, y)| !(eq(x.re, y.re) && eq(x.im, y.im))) {
            None => Ok(()),
            Some(i) => Err(format!("bin {i}: {:?} vs {:?}", a[i], b[i])),
        }
    }

    /// Asserts `fft`, `ifft` and the plan's own `forward` reproduce the
    /// recursive oracle bit for bit on `input`.
    fn check_against_reference(input: &[Complex64]) -> Result<(), String> {
        let n = input.len();
        let reference = RecursiveReference::new(n);
        let plan = MixedRadixPlan::new(n);
        let expected = reference.forward(input);
        same_bits(&plan.forward(input), &expected).map_err(|e| format!("n={n} plan: {e}"))?;
        let mut fast = input.to_vec();
        fft(&mut fast);
        same_bits(&fast, &expected).map_err(|e| format!("n={n} fft: {e}"))?;
        let mut back = input.to_vec();
        ifft(&mut back);
        same_bits(&back, &reference.inverse(input)).map_err(|e| format!("n={n} ifft: {e}"))
    }

    /// Every length the plan serves: smooth and not a power of two.
    fn smooth_non_pow2_lengths(max: usize) -> impl Iterator<Item = usize> {
        (2..=max).filter(|&n| is_smooth(n) && !n.is_power_of_two())
    }

    #[test]
    fn iterative_plan_is_bit_identical_to_recursion_for_every_smooth_length() {
        // 2..=1232 covers 616 = 2³·7·11 and its doubling, and every radix
        // up to 13 in every stage position.
        let lengths: Vec<usize> = smooth_non_pow2_lengths(1232).collect();
        assert!(lengths.contains(&616) && lengths.contains(&1183)); // 1183 = 7·13²
        for n in lengths {
            check_against_reference(&signal(n)).unwrap();
        }
    }

    #[test]
    fn non_finite_inputs_follow_the_recursion_nan_for_nan() {
        // The unit-twiddle multiply must survive: inf · (1 + 0i) has a NaN
        // imaginary part, so an infinite sample poisons its outputs exactly
        // as in the recursion.
        for n in [6usize, 15, 77, 448] {
            let mut input = signal(n);
            input[0] = Complex64::new(f64::INFINITY, 0.0);
            input[n / 2] = Complex64::new(-1.0, f64::NEG_INFINITY);
            input[n - 1] = Complex64::new(f64::NAN, -0.0);
            check_against_reference(&input).unwrap();
            let mut only_inf = vec![Complex64::ZERO; n];
            only_inf[1] = Complex64::new(f64::INFINITY, 0.0);
            check_against_reference(&only_inf).unwrap();
        }
    }

    fn arb_smooth_signal() -> impl Strategy<Value = Vec<Complex64>> {
        let lengths: Vec<usize> = smooth_non_pow2_lengths(700).collect();
        (0..lengths.len()).prop_flat_map(move |i| {
            proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), lengths[i]).prop_map(|pairs| {
                pairs.into_iter().map(|(re, im)| Complex64::new(re, im)).collect()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn iterative_plan_matches_recursion_on_random_finite_inputs(
            input in arb_smooth_signal(),
        ) {
            let verdict = check_against_reference(&input);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.61).sin() * 5.0, (i as f64 * 1.7).cos()))
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).norm() < tol, "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn smoothness_detection() {
        for n in [1usize, 2, 6, 336, 392, 448, 504, 560, 616, 1024] {
            assert!(is_smooth(n), "{n} should be smooth");
        }
        for n in [17usize, 34, 226, 997] {
            assert!(!is_smooth(n), "{n} should not be smooth");
        }
        assert!(!is_smooth(0));
    }

    #[test]
    fn matches_naive_dft_for_smooth_lengths() {
        for n in [2usize, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 21, 35, 36, 60, 112] {
            let plan = MixedRadixPlan::new(n);
            let input = signal(n);
            let fast = plan.forward(&input);
            let naive = dft_naive(&input);
            assert_close(&fast, &naive, 1e-8 * n as f64);
        }
    }

    #[test]
    fn matches_naive_for_profile_sizes() {
        for n in [336usize, 448] {
            let plan = MixedRadixPlan::new(n);
            let input = signal(n);
            assert_close(&plan.forward(&input), &dft_naive(&input), 1e-7 * n as f64);
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        for n in [6usize, 35, 112, 336] {
            let input = signal(n);
            let mut back = MixedRadixPlan::new(n).forward(&input);
            ifft(&mut back);
            assert_close(&back, &input, 1e-9 * n as f64);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = MixedRadixPlan::new(1);
        let input = vec![Complex64::new(3.0, -4.0)];
        assert_eq!(plan.forward(&input), input);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 1);
    }

    #[test]
    #[should_panic(expected = "prime factor")]
    fn rejects_rough_lengths() {
        let _ = MixedRadixPlan::new(34); // 2 * 17
    }

    #[test]
    fn plan_factorisation_is_complete() {
        let plan = MixedRadixPlan::new(360);
        let product: usize = plan.stages.iter().map(|s| s.radix).product();
        assert_eq!(product, 360);
        for f in plan.stages.iter().map(|s| s.radix) {
            assert!(f <= MAX_SMALL_PRIME);
        }
    }

    #[test]
    fn linearity_holds() {
        let n = 105; // 3 * 5 * 7
        let plan = MixedRadixPlan::new(n);
        let a = signal(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let combined: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * 2.0 + *y * 0.5).collect();
        let fa = plan.forward(&a);
        let fb = plan.forward(&b);
        let fc = plan.forward(&combined);
        for i in 0..n {
            let expected = fa[i] * 2.0 + fb[i] * 0.5;
            assert!((fc[i] - expected).norm() < 1e-8);
        }
    }
}
