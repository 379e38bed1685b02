//! Criterion benchmarks for the substrate layers: scalers, rank filters,
//! SSIM, FFT/CSP and the synthetic generator. These are not paper tables —
//! they document where the detection milliseconds go and guard against
//! performance regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use decamouflage_datasets::{synthesize, DatasetProfile, SampleGenerator, SynthesisParams};
use decamouflage_imaging::filter::{gaussian_blur, minimum_filter};
use decamouflage_imaging::scale::{resize, ScaleAlgorithm, Scaler};
use decamouflage_imaging::{Image, Size};
use decamouflage_metrics::{mse, ssim, SsimConfig};
use decamouflage_spectral::csp::{count_csp, CspConfig};
use decamouflage_spectral::dft2d::dft2_planned;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_image(n: usize) -> Image {
    let params = SynthesisParams {
        width: n,
        height: n,
        base_cell: (n / 4).max(4),
        ..SynthesisParams::default()
    };
    synthesize(&params, &mut StdRng::seed_from_u64(42))
}

fn bench_scalers(c: &mut Criterion) {
    let img = test_image(448);
    let mut group = c.benchmark_group("scale_448_to_112");
    group.sample_size(10);
    for algo in ScaleAlgorithm::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), &algo, |b, &algo| {
            b.iter(|| resize(&img, 112, 112, algo).unwrap())
        });
    }
    // Prebuilt scaler amortises coefficient construction.
    let scaler =
        Scaler::new(Size::square(448), Size::square(112), ScaleAlgorithm::Bilinear).unwrap();
    group.bench_function("bilinear_prebuilt", |b| b.iter(|| scaler.apply(&img).unwrap()));
    group.finish();
}

fn bench_filters(c: &mut Criterion) {
    let img = test_image(448);
    let mut group = c.benchmark_group("filter_448");
    group.sample_size(10);
    group.bench_function("minimum_2x2", |b| b.iter(|| minimum_filter(&img, 2).unwrap()));
    group.bench_function("minimum_3x3", |b| b.iter(|| minimum_filter(&img, 3).unwrap()));
    group.bench_function("gaussian_sigma1.5", |b| b.iter(|| gaussian_blur(&img, 1.5).unwrap()));
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let a = test_image(448);
    let b_img = a.map(|v| (v + 3.0).min(255.0));
    let mut group = c.benchmark_group("metrics_448");
    group.sample_size(10);
    group.bench_function("mse", |b| b.iter(|| mse(&a, &b_img).unwrap()));
    group.bench_function("ssim", |b| b.iter(|| ssim(&a, &b_img, &SsimConfig::default()).unwrap()));
    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let pow2 = test_image(512); // radix-2 path
    let smooth = test_image(448); // 2^6 * 7: mixed-radix path
    let prime = test_image(443); // prime: Bluestein path
    let mut group = c.benchmark_group("spectral");
    group.sample_size(10);
    group.bench_function("dft2_512_radix2", |b| b.iter(|| dft2_planned(&pow2)));
    group.bench_function("dft2_448_mixed_radix", |b| b.iter(|| dft2_planned(&smooth)));
    group.bench_function("dft2_443_bluestein", |b| b.iter(|| dft2_planned(&prime)));
    group.bench_function("csp_448_full_pipeline", |b| {
        b.iter(|| count_csp(&smooth, &CspConfig::default()))
    });
    group.finish();
}

fn bench_dataset_generation(c: &mut Criterion) {
    let generator = SampleGenerator::new(DatasetProfile::neurips_like(), ScaleAlgorithm::Bilinear);
    let mut group = c.benchmark_group("datasets");
    group.sample_size(10);
    group.bench_function("synthesize_448", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            generator.benign(i % 64)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scalers,
    bench_filters,
    bench_metrics,
    bench_spectral,
    bench_dataset_generation
);
criterion_main!(benches);
