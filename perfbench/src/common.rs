//! What every workload shares: the run context, set-up timing, timed
//! rounds with host normalisation, and the metric list a run prints.

use crate::host::{self, HostClock, Ref, NOMINAL_REF_MS};
use crate::layers::decode_layer;
use crate::stats::{iqr_share, median, normalise_rate, normalise_time, percentile};
use crate::trace::LayerTotal;
use decamouflage_core::calibrate::calibrate_engine_whitebox_sources;
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{DetectionEngine, DirectorySource, MethodSet, StreamConfig};
use decamouflage_imaging::scale::ScalerCache;
use decamouflage_imaging::Size;
use decamouflage_serve::service::SERVICE_METHODS;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads, handler threads and client connections: the load comes
/// from one process with this many of each.
pub const WORKERS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
    pub clock: HostClock,
}

impl Ctx {
    /// Seconds of production rounds: the whole run untraced, half of it
    /// when the traced replay takes the other half.
    pub fn production_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// A named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// A run's result: operation counts, the correctness gate and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches found by the correctness gate, one line each.
    pub mismatches: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

/// White-box thresholds from the calibration split under `dir`, through
/// the production streaming calibration entry point.
pub fn calibrate(target: Size, dir: &std::path::Path) -> Result<ThresholdSet, String> {
    let engine = DetectionEngine::new(target).with_methods(MethodSet::of(SERVICE_METHODS));
    let open = |class: &str| DirectorySource::open(dir.join(class)).map_err(|e| e.to_string());
    let config = StreamConfig::default().with_threads(WORKERS);
    let calibration = calibrate_engine_whitebox_sources(
        &engine,
        &mut open("benign")?,
        &mut open("attack")?,
        &config,
    )
    .map_err(|e| e.to_string())?;
    if calibration.quarantined() > 0 {
        return Err(format!("{} calibration images quarantined", calibration.quarantined()));
    }
    Ok(calibration.thresholds)
}

/// Set-up timings: raw seconds and host-normalised seconds per repeat.
pub struct Setup<T> {
    pub value: T,
    pub raw_s: Vec<f64>,
    pub norm_s: Vec<f64>,
}

/// Runs `setup` [`SETUP_REPEATS`] times from cold scaler plans, each
/// bracketed by reference samples. `teardown` disposes of all but the
/// last result, untimed. Every repeat must produce the same thresholds.
pub fn timed_setup<T>(
    clock: &mut HostClock,
    mut setup: impl FnMut() -> Result<(T, ThresholdSet), String>,
    mut teardown: impl FnMut(T),
) -> Result<Setup<(T, ThresholdSet)>, String> {
    let mut raw_s = Vec::new();
    let mut norm_s = Vec::new();
    let mut kept: Option<(T, ThresholdSet)> = None;
    for _ in 0..SETUP_REPEATS {
        ScalerCache::global().clear();
        let started = Instant::now();
        let built = setup()?;
        let raw = started.elapsed().as_secs_f64();
        let reference = clock.bracket(raw);
        raw_s.push(raw);
        norm_s.push(normalise_time(raw, reference.wall, reference.cpu));
        if let Some((previous, thresholds)) = kept.take() {
            if thresholds != built.1 {
                return Err("set-up repeats calibrated different thresholds".into());
            }
            teardown(previous);
        }
        kept = Some(built);
    }
    Ok(Setup { value: kept.expect("at least one repeat"), raw_s, norm_s })
}

/// One production round's raw measurements.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Images scored to a verdict.
    pub scored: usize,
    /// The round's latency samples in ms (per request for checks, the
    /// chunk latency for scans).
    pub latencies_ms: Vec<f64>,
    /// The reference reading bracketing the round.
    pub reference: Ref,
}

impl Round {
    fn images_per_s(&self) -> f64 {
        self.scored as f64 / self.wall_s
    }

    fn cpu_ms_per_image(&self) -> f64 {
        self.cpu_s * 1e3 / self.scored as f64
    }

    fn latency_p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 50.0)
    }

    /// The round's latencies restated at nominal host speed.
    pub fn normalised_latencies(&self) -> impl Iterator<Item = f64> + '_ {
        self.latencies_ms
            .iter()
            .map(|&l| normalise_time(l, self.reference.wall, self.reference.cpu))
    }
}

/// Runs production rounds until `seconds` have passed (at least two),
/// bracketing each with reference samples and timing its process CPU.
/// `round` returns `(images scored, latency samples)`.
pub fn timed_rounds(
    clock: &mut HostClock,
    seconds: f64,
    mut round: impl FnMut() -> Result<(usize, Vec<f64>), String>,
) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let (scored, latencies_ms) = round()?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu0;
        if scored == 0 {
            return Err("a round scored no image".into());
        }
        let reference = clock.bracket(wall_s);
        println!(
            "round {}: wall {wall_s:.4} s, cpu {cpu_s:.4} s, {scored} scored, reference {:.3} ms wall {:.3} ms cpu",
            rounds.len(),
            reference.wall,
            reference.cpu
        );
        rounds.push(Round { wall_s, cpu_s, scored, latencies_ms, reference });
    }
    Ok(rounds)
}

/// Medians over rounds of the raw and the normalised per-round values.
pub struct RoundSummary {
    pub images_per_s: (f64, f64),
    pub cpu_ms_per_image: (f64, f64),
    pub latency_p50_ms: (f64, f64),
}

/// Also prints the spread of each over the run's rounds, raw and
/// normalised, as diagnostics.
pub fn summarise(rounds: &[Round]) -> RoundSummary {
    let both = |name: &str, raw: &dyn Fn(&Round) -> f64, norm: &dyn Fn(&Round, f64) -> f64| {
        let raws: Vec<f64> = rounds.iter().map(raw).collect();
        let norms: Vec<f64> = rounds.iter().zip(&raws).map(|(r, &v)| norm(r, v)).collect();
        println!(
            "rounds: {name} IQR/median over {} rounds: raw {:.4}, normalised {:.4}",
            rounds.len(),
            iqr_share(&raws),
            iqr_share(&norms)
        );
        (median(&raws), median(&norms))
    };
    let wall_time = |r: &Round, v: f64| normalise_time(v, r.reference.wall, r.reference.cpu);
    let wall_rate = |r: &Round, v: f64| normalise_rate(v, r.reference.wall, r.reference.cpu);
    // CPU time does not count the time the host took away, and the
    // reference's CPU time swings with core sharing far more than the
    // program's does (see README.md), so CPU time is left as measured.
    let cpu_time = |_: &Round, v: f64| v;
    RoundSummary {
        images_per_s: both("images_per_s", &Round::images_per_s, &wall_rate),
        cpu_ms_per_image: both("cpu_ms_per_image", &Round::cpu_ms_per_image, &cpu_time),
        latency_p50_ms: both("latency_p50_ms", &Round::latency_p50_ms, &wall_time),
    }
}

/// The end-to-end metrics every workload prints, in `BENCHMARK.json`
/// order; `raw.*` copies go to the per-layer list.
pub fn end_to_end(
    setup_norm: &[f64],
    summary: &RoundSummary,
    peak_rss_mb: f64,
    verdict_accuracy: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", median(setup_norm), "s");
    m.push("images_per_s", summary.images_per_s.1, "1/s");
    m.push("cpu_ms_per_image", summary.cpu_ms_per_image.1, "ms");
    m.push("latency_p50_ms", summary.latency_p50_ms.1, "ms");
    m.push("peak_rss_mb", peak_rss_mb, "MiB");
    m.push("verdict_accuracy", verdict_accuracy, "ratio");
    m
}

/// The `raw.*` and `host.*` per-layer metrics.
pub fn host_metrics(m: &mut Metrics, clock: &HostClock, setup_raw: &[f64], summary: &RoundSummary) {
    let reference = clock.median_since(0);
    m.push("host.ref_ms", reference.wall, "ms");
    m.push("host.ref_cpu_ms", reference.cpu, "ms");
    m.push("host.speed_factor", NOMINAL_REF_MS / reference.cpu, "ratio");
    m.push("host.steal_factor", reference.wall / reference.cpu, "ratio");
    m.push("raw.setup_s", median(setup_raw), "s");
    m.push("raw.images_per_s", summary.images_per_s.0, "1/s");
    m.push("raw.cpu_ms_per_image", summary.cpu_ms_per_image.0, "ms");
    m.push("raw.latency_p50_ms", summary.latency_p50_ms.0, "ms");
}

/// The codec-layer metrics both replays print: normalised mean µs per
/// decode by format and per rejected body, and decodes and rejections per
/// pass over the inputs.
pub fn push_codec_layers(
    m: &mut Metrics,
    totals: &BTreeMap<&'static str, LayerTotal>,
    passes: usize,
    mean: &dyn Fn(&str) -> f64,
) {
    const FORMATS: [&str; 3] = ["png", "jpeg", "bmp"];
    for format in FORMATS {
        m.push(format!("codec.decode_us.{format}"), mean(decode_layer(format)), "us");
    }
    m.push("codec.reject_us", mean("codec.reject"), "us");
    let per_pass = |layer: &str| totals.get(layer).map_or(0, |t| t.calls) as f64 / passes as f64;
    m.push("codec.decoded", FORMATS.iter().map(|f| per_pass(decode_layer(f))).sum(), "count");
    m.push("codec.rejected", per_pass("codec.reject"), "count");
}

/// The engine-layer metrics both replays print, as normalised mean µs per
/// call, plus the DFT's share of traced layer time and its cost per unit
/// of `w·h·log₂√(w·h)` work.
pub fn push_engine_layers(
    m: &mut Metrics,
    mean: &dyn Fn(&str) -> f64,
    dft_ns: f64,
    dft_work: f64,
    layer_ns: u64,
    norm: &dyn Fn(f64) -> f64,
) {
    m.push("engine.validate_us", mean("engine.validate"), "us");
    m.push("scale.round_trip_us", mean("scale.round_trip"), "us");
    m.push("filter.rank_us", mean("filter.rank"), "us");
    m.push("imaging.luma_us", mean("imaging.luma"), "us");
    m.push("metrics.mse_us", mean("metrics.mse"), "us");
    m.push("metrics.ssim_reference_us", mean("metrics.ssim_reference"), "us");
    m.push("metrics.ssim_us", mean("metrics.ssim"), "us");
    m.push("spectral.dft_us", mean("spectral.dft"), "us");
    m.push("spectral.dft_ns_per_n2log2n", norm(dft_ns / dft_work.max(1.0)), "ns");
    m.push("spectral.dft_share", dft_ns / layer_ns.max(1) as f64, "ratio");
    m.push("spectral.csp_us", mean("spectral.csp"), "us");
    m.push("ensemble.vote_us", mean("ensemble.vote"), "us");
}

/// The serve-layer per-layer metrics and their units.
pub const SERVE_METRICS: &[(&str, &str)] = &[
    ("serve.parse_us", "us"),
    ("serve.read_body_us", "us"),
    ("serve.write_us", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.status.2xx", "count"),
    ("serve.status.4xx", "count"),
    ("serve.status.5xx", "count"),
    ("serve.shed", "count"),
    ("serve.latency_tail_ms", "ms"),
    ("serve.latency_tail_pct", "%"),
    ("serve.latency_tail_n", "count"),
];
