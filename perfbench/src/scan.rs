//! `scan-table7`: resumable directory scans of the paper's Table 7 source
//! sizes through `DirectorySource` → `scan_shard`, checkpointing every
//! chunk, plus the traced replay of the same scan.

use crate::common::{
    self, push_codec_layers, push_engine_layers, Ctx, Metrics, Outcome, SERVE_METRICS, WORKERS,
};
use crate::host;
use crate::inputs;
use crate::layers::{decode_layer, majority, same_scores, Pipeline};
use crate::stats::{dft_work, normalise_time};
use crate::trace::{layer_totals, parents_self_time, Recorder, Span};
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{
    scan_shard, BufferPool, CorpusFingerprint, DetectionEngine, DirectorySource, MethodSet,
    ScanCheckpoint, ScoreVector, ShardSpec, StreamConfig,
};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::codec::decode_auto_into;
use decamouflage_imaging::Image;
use decamouflage_serve::service::SERVICE_METHODS;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Benign/attack pairs in the corpus: 64 images, one CLI-default chunk.
const PAIRS: u64 = 32;
/// Calibration pairs (two per source size).
const CALIBRATION_PAIRS: u64 = 6;
/// The CLI's default chunk size.
const CHUNK: usize = 64;

/// Container spans: a lane's share of one replay pass.
const LANE: &str = "lane";
const CONTAINERS: &[&str] = &[LANE];

struct Inputs {
    corpus: PathBuf,
    labels: Vec<bool>,
    calibration: PathBuf,
}

fn make_inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let generator = inputs::seeded(DatasetProfile::neurips_like(), ctx.seed);
    let corpus = ctx.work.join("corpus");
    let calibration = ctx.work.join("calibration");
    let labels = inputs::write_scan_corpus(&generator, PAIRS, ctx.seed, &corpus)?;
    inputs::write_calibration(&generator, CALIBRATION_PAIRS, &calibration)?;
    Ok(Inputs { corpus, labels, calibration })
}

fn engine() -> DetectionEngine {
    DetectionEngine::new(DatasetProfile::neurips_like().target_size)
        .with_methods(MethodSet::of(SERVICE_METHODS))
}

/// One production scan of the whole corpus from a fresh checkpoint,
/// persisted to `checkpoint` at every chunk boundary. Returns the final
/// checkpoint and the time until the first chunk was durable.
fn production_scan(
    engine: &DetectionEngine,
    corpus: &Path,
    checkpoint: &Path,
) -> Result<(ScanCheckpoint, f64), String> {
    let started = Instant::now();
    let mut source = DirectorySource::open(corpus).map_err(|e| e.to_string())?;
    let fingerprint = CorpusFingerprint::of_keys(source.shard_keys());
    let kept = source.restrict_to_shard(ShardSpec::full());
    let fresh = ScanCheckpoint::new(ShardSpec::full(), fingerprint, engine.methods());
    let config = StreamConfig::default().with_chunk_size(CHUNK).with_threads(WORKERS);
    let mut first_durable = None;
    let done = scan_shard(
        engine,
        &mut source,
        &kept,
        &config,
        fresh,
        |ckpt| {
            ckpt.save(checkpoint)?;
            first_durable.get_or_insert_with(|| started.elapsed().as_secs_f64() * 1e3);
            Ok(())
        },
        |_, _| {},
    )
    .map_err(|e| e.to_string())?;
    Ok((done, first_durable.expect("scan_shard persists at least once")))
}

/// The scan's scores per corpus index, from a checkpoint.
fn rows(checkpoint: &ScanCheckpoint) -> Vec<(usize, ScoreVector)> {
    checkpoint
        .scored_indices()
        .iter()
        .enumerate()
        .map(|(row, &index)| (index, checkpoint.score_vector_at(row)))
        .collect()
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let gen_started = Instant::now();
    let inputs = make_inputs(ctx)?;
    println!(
        "inputs: {} images, generated in {:.3} s",
        inputs.labels.len(),
        gen_started.elapsed().as_secs_f64()
    );

    // Set-up: calibrate, build the engine, scan to the first verdicts (a
    // warm-up directory of the calibration attacks, two per source size).
    let warm = ctx.work.join("warm");
    std::fs::create_dir_all(&warm).map_err(|e| e.to_string())?;
    for (i, entry) in
        std::fs::read_dir(inputs.calibration.join("attack")).map_err(|e| e.to_string())?.enumerate()
    {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::copy(&path, warm.join(format!("{i:03}.png"))).map_err(|e| e.to_string())?;
    }
    let warm_ckpt = ctx.work.join("warm.ckpt");
    let setup = common::timed_setup(
        &mut ctx.clock,
        || {
            let thresholds =
                common::calibrate(DatasetProfile::neurips_like().target_size, &inputs.calibration)?;
            let engine = engine();
            production_scan(&engine, &warm, &warm_ckpt)?;
            Ok((engine, thresholds))
        },
        drop,
    )?;
    let (engine, thresholds) = &setup.value;

    host::reset_peak_rss()?;
    let ckpt_path = ctx.work.join("scan.ckpt");
    let mut last = None;
    let seconds = ctx.production_seconds();
    let rounds = common::timed_rounds(&mut ctx.clock, seconds, || {
        let (checkpoint, first_chunk_ms) = production_scan(engine, &inputs.corpus, &ckpt_path)?;
        let scored = checkpoint.scored_indices().len();
        last = Some(checkpoint);
        Ok((scored, vec![first_chunk_ms]))
    })?;
    let peak_rss = host::peak_rss_mb()?;
    let final_checkpoint = last.expect("at least two rounds");
    let persisted = ScanCheckpoint::load(&ckpt_path).map_err(|e| e.to_string())?;
    let production = rows(&persisted);

    // Correctness gate and accuracy, against the traced replay.
    let replay = replay(ctx, engine, thresholds, &inputs)?;
    let mut mismatches = Vec::new();
    let returned = rows(&final_checkpoint);
    let same_rows = returned.len() == production.len()
        && returned.iter().zip(&production).all(|(a, b)| a.0 == b.0 && same_scores(&a.1, &b.1));
    if !same_rows {
        mismatches.push("persisted checkpoint differs from the returned one".into());
    }
    if production.len() != inputs.labels.len() || !final_checkpoint.quarantined().is_empty() {
        mismatches.push(format!(
            "scan scored {} of {} images ({} quarantined)",
            production.len(),
            inputs.labels.len(),
            final_checkpoint.quarantined().len()
        ));
    }
    let pipeline = Pipeline::new(engine.target(), thresholds)?;
    let mut correct_verdicts = 0;
    for (index, scores) in &production {
        let Some((replayed, votes)) = replay.results.get(*index) else {
            mismatches.push(format!("image {index}: not replayed"));
            continue;
        };
        if !same_scores(scores, replayed) {
            mismatches.push(format!("image {index}: checkpoint scores differ from the replay"));
        }
        let mut scratch = Recorder::new(Instant::now(), 0);
        let verdict = majority(&pipeline.vote(&mut scratch, scores));
        if verdict != majority(votes) {
            mismatches.push(format!("image {index}: verdict differs from the replay's vote"));
        }
        correct_verdicts += usize::from(verdict == inputs.labels[*index]);
    }
    let accuracy = correct_verdicts as f64 / inputs.labels.len() as f64;

    let summary = common::summarise(&rounds);
    let end_to_end = common::end_to_end(&setup.norm_s, &summary, peak_rss, accuracy);
    let mut per_layer = replay.metrics;
    common::host_metrics(&mut per_layer, &ctx.clock, &setup.raw_s, &summary);
    let production_s_per_image = 1.0 / summary.images_per_s.1;
    per_layer.push("trace.overhead_ratio", replay.s_per_image / production_s_per_image, "ratio");
    let attempted = (rounds.len() * inputs.labels.len() + replay.images) as u64;
    let scored = rounds.iter().map(|r| r.scored).sum::<usize>() + replay.images;
    Ok(Outcome { attempted, failed: attempted - scored as u64, mismatches, end_to_end, per_layer })
}

/// What the replay hands back: per-index scores and votes of its last
/// pass, its per-layer metrics and its normalised seconds per image.
struct Replay {
    results: Vec<(ScoreVector, Vec<(decamouflage_core::MethodId, bool)>)>,
    metrics: Metrics,
    s_per_image: f64,
    images: usize,
}

/// A chunk handed to the helper lane: the decoded images and the shared
/// claim cursor.
struct Job {
    images: Arc<Vec<Image>>,
    cursor: Arc<AtomicUsize>,
    base: usize,
}

type ScoredRow = (
    usize,
    Result<(ScoreVector, Vec<(decamouflage_core::MethodId, bool)>, (usize, usize)), String>,
);

/// Validates, scores and votes on the chunk items this lane claims.
fn drain(
    rec: &mut Recorder,
    engine: &DetectionEngine,
    pipeline: &Pipeline,
    job: &Job,
) -> Vec<ScoredRow> {
    let mut out = Vec::new();
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(image) = job.images.get(i) else { break };
        let unit = job.base + i;
        let result = rec
            .span("engine.validate", || engine.validate_image(image))
            .map_err(|e| e.to_string())
            .and_then(|()| pipeline.score(rec, image))
            .map(|scored| {
                let votes = pipeline.vote(rec, &scored.scores);
                (scored.scores, votes, scored.grid)
            });
        out.push((unit, result));
    }
    out
}

/// The traced replay: the production scan's order and concurrency —
/// serial pull of a chunk (read, sniff+decode into a buffer pool), the
/// chunk scored by the calling lane plus one helper lane, rows recorded
/// and the checkpoint saved at the chunk boundary and at the end — with
/// the benchmark's span around every call. One pass in an untraced run,
/// passes for the second half of a traced one.
fn replay(
    ctx: &mut Ctx,
    engine: &DetectionEngine,
    thresholds: &ThresholdSet,
    inputs: &Inputs,
) -> Result<Replay, String> {
    let pipeline = Pipeline::new(engine.target(), thresholds)?;
    let mut source = DirectorySource::open(&inputs.corpus).map_err(|e| e.to_string())?;
    let paths = source.paths().to_vec();
    let fingerprint = CorpusFingerprint::of_keys(source.shard_keys());
    let kept = source.restrict_to_shard(ShardSpec::full());
    let ckpt_path = ctx.work.join("replay.ckpt");
    let budget = if ctx.trace { ctx.seconds / 2.0 } else { 0.0 };
    let first_sample = ctx.clock.samples().len() - 1;
    let epoch = Instant::now();
    let pool_telemetry = decamouflage_telemetry::Telemetry::enabled();
    let mut results = vec![None; paths.len()];
    let mut main = Recorder::new(epoch, 0);
    let mut passes = Vec::new();
    let mut checkpoint_bytes = 0u64;
    let mut dft_work_total = 0.0;

    let helper_spans = std::thread::scope(|scope| -> Result<Vec<Span>, String> {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Vec<ScoredRow>>();
        let pipeline = &pipeline;
        let helper = scope.spawn(move || {
            let mut rec = Recorder::new(epoch, 1);
            while let Ok(job) = rec.span("stream.idle", || job_rx.recv()) {
                let rows = drain(&mut rec, engine, pipeline, &job);
                if done_tx.send(rows).is_err() {
                    break;
                }
            }
            rec.spans
        });
        let started = Instant::now();
        while passes.is_empty() || started.elapsed().as_secs_f64() < budget {
            let pass_start = main.now();
            // Like the production stream, each scan starts a fresh pool.
            let mut pool =
                BufferPool::with_telemetry(StreamConfig::default().pool_capacity, &pool_telemetry);
            let mut checkpoint =
                ScanCheckpoint::new(ShardSpec::full(), fingerprint, engine.methods());
            for (chunk_no, chunk) in paths.chunks(CHUNK).enumerate() {
                let base = chunk_no * CHUNK;
                let mut images = Vec::with_capacity(chunk.len());
                for path in chunk {
                    let bytes = main
                        .span("stream.read", || std::fs::read(path))
                        .map_err(|e| e.to_string())?;
                    let start = main.now();
                    let decoded = decode_auto_into(&bytes, &mut |n| pool.take(n));
                    let end = main.now();
                    match decoded {
                        Ok((format, image)) => {
                            main.record(decode_layer(format.name()), start, end);
                            images.push(image);
                        }
                        Err(e) => {
                            main.record("codec.reject", start, end);
                            return Err(format!("{}: {e}", path.display()));
                        }
                    }
                }
                let job =
                    Job { images: Arc::new(images), cursor: Arc::new(AtomicUsize::new(0)), base };
                job_tx
                    .send(Job {
                        images: Arc::clone(&job.images),
                        cursor: Arc::clone(&job.cursor),
                        base,
                    })
                    .map_err(|_| "replay helper lane exited".to_string())?;
                let mut rows = drain(&mut main, engine, pipeline, &job);
                let theirs = main
                    .span("stream.idle", || done_rx.recv())
                    .map_err(|_| "replay helper lane exited".to_string())?;
                rows.extend(theirs);
                rows.sort_by_key(|(unit, _)| *unit);
                let images = Arc::try_unwrap(job.images)
                    .map_err(|_| "chunk images still shared".to_string())?;
                main.span("stream.recycle", || {
                    images.into_iter().for_each(|image| pool.recycle(image))
                });
                for (unit, result) in rows {
                    let (scores, votes, (w, h)) =
                        result.map_err(|e| format!("{}: {e}", paths[unit].display()))?;
                    main.span("persist.record", || {
                        checkpoint.record(kept[unit], &Ok(scores.clone()))
                    })
                    .map_err(|e| e.to_string())?;
                    results[unit] = Some((scores, votes));
                    dft_work_total += dft_work(w, h);
                    if checkpoint.done().is_multiple_of(CHUNK) {
                        main.span("persist.save", || checkpoint.save(&ckpt_path))
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            main.span("persist.save", || checkpoint.save(&ckpt_path)).map_err(|e| e.to_string())?;
            checkpoint_bytes = std::fs::metadata(&ckpt_path).map_err(|e| e.to_string())?.len();
            let pass_end = main.now();
            passes.push((pass_start, pass_end));
            ctx.clock.bracket((pass_end - pass_start) as f64 / 1e9);
        }
        drop(job_tx);
        helper.join().map_err(|_| "replay helper lane panicked".to_string())
    })?;

    let mut spans = main.spans;
    spans.extend(helper_spans);
    for &(start, end) in &passes {
        for lane in 0..WORKERS {
            spans.push(Span { layer: LANE, lane, start, end });
        }
    }
    let reference = ctx.clock.median_since(first_sample);
    let norm = |ns: f64| normalise_time(ns, reference.wall, reference.cpu);
    let totals = layer_totals(&spans, CONTAINERS);
    let (unit_ns, unaccounted_ns) = parents_self_time(&spans, LANE, CONTAINERS);
    let images = passes.len() * paths.len();
    let pass_ns: u64 = passes.iter().map(|(s, e)| e - s).sum();
    let idle_ns = totals.get("stream.idle").map_or(0, |t| t.ns);
    let layer_ns: u64 =
        totals.iter().filter(|(k, _)| **k != "stream.idle").map(|(_, t)| t.ns).sum();
    let dft_ns = totals.get("spectral.dft").map_or(0, |t| t.ns) as f64;
    let hits = pool_telemetry.counter("decam_stream_buffer_pool_hits_total", &[]).value() as f64;
    let misses =
        pool_telemetry.counter("decam_stream_buffer_pool_misses_total", &[]).value() as f64;

    let mut m = Metrics::default();
    let mean = |layer: &str| norm(totals.get(layer).map_or(0.0, |t| t.mean_us()));
    push_codec_layers(&mut m, &totals, passes.len(), &mean);
    m.push("stream.read_us", mean("stream.read"), "us");
    m.push("stream.idle_share", idle_ns as f64 / unit_ns as f64, "ratio");
    m.push("stream.pool_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.push("persist.save_us", mean("persist.save"), "us");
    m.push("persist.checkpoint_bytes", checkpoint_bytes as f64, "bytes");
    push_engine_layers(&mut m, &mean, dft_ns, dft_work_total, layer_ns, &norm);
    push_absent_serve(&mut m);
    m.push("trace.coverage", 1.0 - unaccounted_ns as f64 / unit_ns as f64, "ratio");
    m.push("trace.unaccounted_us", norm(unaccounted_ns as f64 / 1e3 / images as f64), "us");
    let s_per_image = norm(pass_ns as f64 / 1e9 / images as f64);
    let results = results
        .into_iter()
        .map(|r| r.ok_or_else(|| "replay missed an image".to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Replay { results, metrics: m, s_per_image, images })
}

/// The serve-layer metrics, which a scan does not exercise: printed as 0
/// so every workload prints every per-layer metric.
fn push_absent_serve(m: &mut Metrics) {
    for (name, unit) in SERVE_METRICS {
        m.push(*name, 0.0, unit);
    }
}
