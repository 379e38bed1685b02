//! `check-128` and `check-mixed`: a closed loop of `POST /check` requests
//! from [`WORKERS`] client connections against an in-process
//! `serve::Server` with [`WORKERS`] handlers, plus the traced replay.

use crate::common::{
    self, push_codec_layers, push_engine_layers, Ctx, Metrics, Outcome, SERVE_METRICS, WORKERS,
};
use crate::host;
use crate::inputs::{self, Expect, Request, MAX_BODY_BYTES};
use crate::layers::{decode_layer, majority, same_scores, Pipeline};
use crate::stats::{dft_work, median, normalise_time, tail};
use crate::trace::{layer_totals, parents_self_time, Recorder, Span};
use decamouflage_core::persist::ThresholdSet;
use decamouflage_core::{DegradePolicy, DetectionEngine, MethodSet, ScoreVector};
use decamouflage_datasets::DatasetProfile;
use decamouflage_imaging::Size;
use decamouflage_serve::http::{
    parse_head, read_head, read_sized_body, BodyPlan, HttpError, Response,
};
use decamouflage_serve::service::{decode_image, CheckOutcome, Verdict, SERVICE_METHODS};
use decamouflage_serve::{DetectionService, Server, ServerConfig, ServerHandle};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which `/check` traffic mix runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 128² RGB PNG / JPEG q90 / BMP bodies, target 32².
    Rgb128,
    /// Caltech-like 392²–616² PNG / JPEG bodies with a quarter hostile,
    /// thresholds calibrated on NeurIPS-like images, target 112².
    Mixed,
}

/// Benign/attack pairs per pass over the traffic.
const PAIRS_128: u64 = 48;
const PAIRS_MIXED: u64 = 12;
/// Calibration pairs: 128² images are cheap, Table 7 sizes are not.
const CALIBRATION_PAIRS_128: u64 = 16;
const CALIBRATION_PAIRS_MIXED: u64 = 6;
/// The server's request-head cap (its default).
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// The container spans of the check replay: the client's request (the
/// unit) and the handler's whole connection.
const REQUEST: &str = "request";
const HANDLE: &str = "serve.handle";
const CONTAINERS: &[&str] = &[REQUEST, HANDLE];

/// A `/check` result as the benchmark compares it: what came back.
#[derive(Debug, Clone)]
enum Answer {
    Verdict { attack: bool, scores: ScoreVector },
    Reject { status: u16, tag: String },
}

impl Answer {
    fn same(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Verdict { attack: a, scores: s }, Self::Verdict { attack: b, scores: t }) => {
                a == b && same_scores(s, t)
            }
            (Self::Reject { status: a, tag: s }, Self::Reject { status: b, tag: t }) => {
                a == b && s == t
            }
            _ => false,
        }
    }

    /// Whether the answer honours the request's contract (status, fault
    /// tag); verdict labels are scored as accuracy, not checked here.
    fn honours(&self, expect: Expect) -> bool {
        match (self, expect) {
            (Self::Verdict { .. }, Expect::Verdict { .. }) => true,
            (Self::Reject { status, tag }, Expect::Reject { status: s, tag: t }) => {
                *status == s && tag.as_str() == t
            }
            _ => false,
        }
    }
}

struct Inputs {
    requests: Vec<Request>,
    calibration: std::path::PathBuf,
    target: Size,
}

fn make_inputs(ctx: &Ctx, mix: Mix) -> Result<Inputs, String> {
    let calibration = ctx.work.join("calibration");
    match mix {
        Mix::Rgb128 => {
            let generator = inputs::seeded(inputs::rgb128(), ctx.seed);
            inputs::write_calibration(&generator, CALIBRATION_PAIRS_128, &calibration)?;
            let requests = inputs::check128_requests(&generator, PAIRS_128, ctx.seed)?;
            Ok(Inputs { requests, calibration, target: inputs::rgb128().target_size })
        }
        Mix::Mixed => {
            // The paper's cross-dataset protocol: calibrate on one corpus,
            // check uploads from another.
            let train = inputs::seeded(DatasetProfile::neurips_like(), ctx.seed);
            inputs::write_calibration(&train, CALIBRATION_PAIRS_MIXED, &calibration)?;
            let uploads = inputs::seeded(DatasetProfile::caltech_like(), ctx.seed);
            let requests = inputs::check_mixed_requests(&uploads, PAIRS_MIXED, ctx.seed)?;
            Ok(Inputs { requests, calibration, target: DatasetProfile::caltech_like().target_size })
        }
    }
}

struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<decamouflage_serve::DrainReport>>,
}

fn start_server(target: Size, thresholds: &ThresholdSet) -> Result<Running, String> {
    let service = DetectionService::new(target, thresholds, DegradePolicy::Strict)?;
    let config = ServerConfig { handlers: WORKERS, ..ServerConfig::default() };
    let server = Server::bind(config, service).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, handle, thread })
}

fn stop_server(server: Running) -> Result<(), String> {
    server.handle.shutdown();
    let report = server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server run: {e}"))?;
    if report.drained {
        Ok(())
    } else {
        Err(format!("server drain left {} requests in flight", report.in_flight_at_exit))
    }
}

/// One request/response exchange: the latency from the start of the
/// request write to the last response byte, and the raw response.
fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(f64, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let started = Instant::now();
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).map_err(|e| format!("read: {e}"))?;
    Ok((started.elapsed().as_secs_f64() * 1e3, response))
}

/// The string value of `"key":"..."` in a flat JSON body.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    body[at..].split('"').next()
}

/// The number value of `"key":...` in a flat JSON body.
fn json_num(body: &str, key: &str) -> Option<f64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    body[at..].split([',', '}']).next()?.trim().parse().ok()
}

/// Parses a `/check` response into an [`Answer`].
fn parse_answer(response: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
    let status: u16 =
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            format!("no status line in {:?}", text.chars().take(40).collect::<String>())
        })?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    if status != 200 {
        let tag = json_str(body, "fault").or_else(|| json_str(body, "error")).unwrap_or("");
        return Ok(Answer::Reject { status, tag: tag.to_string() });
    }
    let attack = match json_str(body, "verdict") {
        Some("attack") => true,
        Some("benign") => false,
        other => return Err(format!("200 without a verdict: {other:?}")),
    };
    let mut scores = ScoreVector::splat(f64::NAN);
    for &id in SERVICE_METHODS {
        let value = json_num(body, id.name())
            .ok_or_else(|| format!("200 without a {} score", id.name()))?;
        scores.set(id, value);
    }
    Ok(Answer::Verdict { attack, scores })
}

/// One closed-loop pass over the requests from [`WORKERS`] clients.
/// Returns `(request index, latency ms, answer)` per request.
fn production_round(
    addr: SocketAddr,
    requests: &[Request],
) -> Vec<(usize, f64, Result<Answer, String>)> {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else { break };
                    match exchange(addr, &request.bytes) {
                        Ok((ms, response)) => mine.push((i, ms, parse_answer(&response))),
                        Err(e) => mine.push((i, f64::NAN, Err(e))),
                    }
                }
                out.lock().expect("round results lock").extend(mine);
            });
        }
    });
    let mut out = out.into_inner().expect("round results lock");
    out.sort_by_key(|(i, _, _)| *i);
    out
}

pub fn run(ctx: &mut Ctx, mix: Mix) -> Result<Outcome, String> {
    let gen_started = Instant::now();
    let inputs = make_inputs(ctx, mix)?;
    println!(
        "inputs: {} requests, generated in {:.3} s",
        inputs.requests.len(),
        gen_started.elapsed().as_secs_f64()
    );
    let warm_up = inputs
        .requests
        .iter()
        .find(|r| matches!(r.expect, Expect::Verdict { .. }))
        .ok_or("no valid request")?;
    let target = inputs.target;
    let calibration_target = match mix {
        Mix::Rgb128 => target,
        Mix::Mixed => DatasetProfile::neurips_like().target_size,
    };

    // Set-up: calibrate, build the service, bind, first verdict.
    let setup = common::timed_setup(
        &mut ctx.clock,
        || {
            let thresholds = common::calibrate(calibration_target, &inputs.calibration)?;
            let server = start_server(target, &thresholds)?;
            let (_, response) = exchange(server.addr, &warm_up.bytes)?;
            match parse_answer(&response)? {
                Answer::Verdict { .. } => Ok((server, thresholds)),
                other => Err(format!("warm-up request answered {other:?}")),
            }
        },
        |server| {
            if let Err(e) = stop_server(server) {
                eprintln!("warning: {e}");
            }
        },
    )?;
    let (server, thresholds) = setup.value;

    host::reset_peak_rss()?;
    let mut reference: Option<Vec<Result<Answer, String>>> = None;
    let mut mismatches = Vec::new();
    let mut failed = 0u64;
    let mut statuses = [0u64; 4]; // 2xx, 4xx, 5xx, shed (503)
    let seconds = ctx.production_seconds();
    let rounds = common::timed_rounds(&mut ctx.clock, seconds, || {
        let results = production_round(server.addr, &inputs.requests);
        let mut latencies = Vec::new();
        for (i, ms, answer) in &results {
            let request = &inputs.requests[*i];
            match answer {
                Ok(answer) if answer.honours(request.expect) => {
                    if let Answer::Verdict { .. } = answer {
                        latencies.push(*ms);
                    }
                }
                other => {
                    failed += 1;
                    mismatches.push(format!(
                        "request {i} ({}): {other:?} breaks {:?}",
                        request.kind, request.expect
                    ));
                }
            }
            if let Ok(answer) = answer {
                let status = match answer {
                    Answer::Verdict { .. } => 200,
                    Answer::Reject { status, .. } => *status,
                };
                let slot = match status {
                    503 => 3,
                    200..=299 => 0,
                    400..=499 => 1,
                    _ => 2,
                };
                statuses[slot] += 1;
            }
        }
        let answers: Vec<Result<Answer, String>> = results.into_iter().map(|(_, _, a)| a).collect();
        match &reference {
            None => reference = Some(answers),
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&answers).enumerate() {
                    if !matches!((a, b), (Ok(a), Ok(b)) if a.same(b)) {
                        mismatches.push(format!("request {i}: answer changed between rounds"));
                    }
                }
            }
        }
        Ok((latencies.len(), latencies))
    })?;
    let peak_rss = host::peak_rss_mb()?;
    stop_server(server)?;

    let engine = DetectionEngine::new(target).with_methods(MethodSet::of(SERVICE_METHODS));
    let pipeline = Pipeline::new(target, &thresholds)?;
    let replay = replay(ctx, &engine, &pipeline, &inputs.requests)?;

    // Correctness gate: production answers equal the replay's, and the
    // replay honours every contract itself.
    let production = reference.expect("at least two rounds");
    let (mut valid, mut right) = (0usize, 0usize);
    for (i, request) in inputs.requests.iter().enumerate() {
        let Some(replayed) = &replay.answers[i] else {
            mismatches.push(format!("request {i}: not replayed"));
            continue;
        };
        if !replayed.honours(request.expect) {
            mismatches.push(format!(
                "request {i} ({}): replay {replayed:?} breaks {:?}",
                request.kind, request.expect
            ));
        }
        match &production[i] {
            Ok(answer) if answer.same(replayed) => {}
            other => mismatches.push(format!(
                "request {i} ({}): production {other:?} differs from replay {replayed:?}",
                request.kind
            )),
        }
        if let (Expect::Verdict { attack }, Ok(Answer::Verdict { attack: verdict, .. })) =
            (request.expect, &production[i])
        {
            valid += 1;
            right += usize::from(attack == *verdict);
        }
    }
    let accuracy = right as f64 / valid.max(1) as f64;

    let summary = common::summarise(&rounds);
    let end_to_end = common::end_to_end(&setup.norm_s, &summary, peak_rss, accuracy);
    let normalised: Vec<f64> =
        rounds.iter().flat_map(common::Round::normalised_latencies).collect();
    let mut per_layer = replay.metrics;
    let per_round = |count: u64| count as f64 / rounds.len() as f64;
    let tail = tail(&normalised).unwrap_or((50.0, median(&normalised), normalised.len()));
    let serve: [f64; 11] = [
        replay.serve[0],
        replay.serve[1],
        replay.serve[2],
        replay.serve[3],
        per_round(statuses[0]),
        per_round(statuses[1]),
        per_round(statuses[2]),
        per_round(statuses[3]),
        tail.1,
        tail.0,
        tail.2 as f64,
    ];
    for ((name, unit), value) in SERVE_METRICS.iter().zip(serve) {
        per_layer.push(*name, value, unit);
    }
    common::host_metrics(&mut per_layer, &ctx.clock, &setup.raw_s, &summary);
    per_layer.push("trace.overhead_ratio", replay.s_per_image * summary.images_per_s.1, "ratio");
    println!("latency tail: p{} = {:.3} ms over {} requests", tail.0, tail.1, tail.2);
    let attempted = rounds.len() as u64 * inputs.requests.len() as u64 + replay.requests as u64;
    Ok(Outcome { attempted, failed, mismatches, end_to_end, per_layer })
}

/// A replay handler lane's spans, its `(request id, answer)` pairs and
/// the DFT work it did.
type HandlerLane = (Recorder, Vec<(usize, Answer)>, f64);

struct Replay {
    /// The replay's own answer per request (last pass).
    answers: Vec<Option<Answer>>,
    metrics: Metrics,
    /// Normalised mean µs of parse, body read, write, and transport ms.
    serve: [f64; 4],
    /// Normalised wall seconds per scored image.
    s_per_image: f64,
    requests: usize,
}

/// Serves one replayed connection through the serve and engine layers,
/// returning the request id and the replay's answer.
fn replay_connection(
    rec: &mut Recorder,
    stream: TcpStream,
    engine: &DetectionEngine,
    pipeline: &Pipeline,
    dft_work_total: &mut f64,
) -> Result<(usize, Answer), String> {
    let opened = rec.now();
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let start = rec.now();
    let head = read_head(&mut reader, MAX_HEADER_BYTES)
        .map_err(|e| format!("{e:?}"))?
        .ok_or("peer sent no request")
        .and_then(|bytes| parse_head(&bytes).map_err(|_| "bad request head"))?;
    let id = inputs::request_id(&head);
    rec.record("serve.parse", start, rec.now());
    let body = rec.span("serve.read_body", || match head.body_plan() {
        Ok(BodyPlan::Sized(length)) => read_sized_body(&mut reader, length, MAX_BODY_BYTES),
        Ok(BodyPlan::Chunked) => Err(HttpError::BadRequest("chunked".into())),
        Err(e) => Err(e),
    });
    let (answer, response) = match body {
        Err(HttpError::BodyTooLarge) => (
            Answer::Reject { status: 413, tag: "body-too-large".into() },
            Response::json(413, "{\"error\":\"body-too-large\"}".into()),
        ),
        Err(e) => return Err(format!("request {id}: {e:?}")),
        Ok(body) => {
            let start = rec.now();
            let decoded = decode_image(&body);
            let layer =
                decoded.as_ref().map_or("codec.reject", |(format, _)| decode_layer(format.name()));
            rec.record(layer, start, rec.now());
            let outcome = match decoded {
                Err(failure) => CheckOutcome::Quarantined {
                    fault: failure.fault(),
                    detail: failure.into_detail(),
                },
                Ok((_, image)) => {
                    match rec.span("engine.validate", || engine.validate_image(&image)) {
                        Err(err) => CheckOutcome::Quarantined {
                            fault: err.cause.kind(),
                            detail: err.to_string(),
                        },
                        Ok(()) => {
                            let scored = pipeline.score(rec, &image)?;
                            *dft_work_total += dft_work(scored.grid.0, scored.grid.1);
                            let votes = pipeline.vote(rec, &scored.scores);
                            let verdict = Verdict {
                                is_attack: majority(&votes),
                                degraded: false,
                                votes,
                                unavailable: Vec::new(),
                            };
                            CheckOutcome::Verdict { scores: scored.scores, verdict }
                        }
                    }
                }
            };
            let answer = match &outcome {
                CheckOutcome::Verdict { scores, verdict } => {
                    Answer::Verdict { attack: verdict.is_attack, scores: scores.clone() }
                }
                CheckOutcome::Quarantined { fault, .. } => {
                    Answer::Reject { status: 422, tag: (*fault).to_string() }
                }
                _ => unreachable!("the replay builds only verdicts and quarantines"),
            };
            (answer, Response::json(outcome.status(), outcome.to_json()))
        }
    };
    let mut stream = stream;
    rec.span("serve.write", || {
        let _ = response.write_to(&mut stream);
        let _ = stream.shutdown(Shutdown::Both);
    });
    rec.record(HANDLE, opened, rec.now());
    Ok((id, answer))
}

/// The traced replay: the same requests from the same number of clients
/// against the benchmark's own handler loop, which runs the serve layer's
/// public parse/read/write functions and the engine's layers with a span
/// around every call. One pass untraced, or passes for the traced half of
/// the run.
fn replay(
    ctx: &mut Ctx,
    engine: &DetectionEngine,
    pipeline: &Pipeline,
    requests: &[Request],
) -> Result<Replay, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let budget = if ctx.trace { ctx.seconds / 2.0 } else { 0.0 };
    let first_sample = ctx.clock.samples().len() - 1;
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let mut answers: Vec<Option<Answer>> = vec![None; requests.len()];
    let mut spans: Vec<Span> = Vec::new();
    let mut passes = 0usize;
    let mut dft_total = 0.0;
    let mut pass_ns = 0u64;
    let mut scored = 0usize;

    std::thread::scope(|scope| -> Result<(), String> {
        let handlers: Vec<_> = (0..WORKERS)
            .map(|lane| {
                let listener = listener.try_clone().map_err(|e| e.to_string());
                let stop = &stop;
                scope.spawn(move || -> Result<HandlerLane, String> {
                    let listener = listener?;
                    let mut rec = Recorder::new(epoch, lane);
                    let mut out = Vec::new();
                    let mut work = 0.0;
                    loop {
                        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
                        if stop.load(Ordering::SeqCst) {
                            return Ok((rec, out, work));
                        }
                        out.push(replay_connection(&mut rec, stream, engine, pipeline, &mut work)?);
                    }
                })
            })
            .collect();
        let started = Instant::now();
        let mut client_error = None;
        while passes == 0 || started.elapsed().as_secs_f64() < budget {
            let cursor = AtomicUsize::new(0);
            let pass_start = Instant::now();
            let clients: Vec<Result<Recorder, String>> = std::thread::scope(|inner| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|c| {
                        let cursor = &cursor;
                        inner.spawn(move || -> Result<Recorder, String> {
                            let mut rec = Recorder::new(epoch, 100 + c);
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(request) = requests.get(i) else { return Ok(rec) };
                                let start = rec.now();
                                let mut stream =
                                    TcpStream::connect(addr).map_err(|e| e.to_string())?;
                                stream.set_nodelay(true).map_err(|e| e.to_string())?;
                                stream.write_all(&request.bytes).map_err(|e| e.to_string())?;
                                let mut sink = Vec::new();
                                stream.read_to_end(&mut sink).map_err(|e| e.to_string())?;
                                rec.record(REQUEST, start, rec.now());
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                    .collect()
            });
            let pass = pass_start.elapsed();
            pass_ns += pass.as_nanos() as u64;
            for client in clients {
                match client {
                    Ok(rec) => spans.extend(rec.spans),
                    Err(e) => client_error = Some(e),
                }
            }
            passes += 1;
            scored +=
                requests.iter().filter(|r| matches!(r.expect, Expect::Verdict { .. })).count();
            ctx.clock.bracket(pass.as_secs_f64());
            if client_error.is_some() {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        for _ in 0..WORKERS {
            // Wakes each handler's blocking accept so it sees the stop flag.
            let _ = TcpStream::connect(addr);
        }
        for handler in handlers {
            let (rec, out, work) =
                handler.join().map_err(|_| "replay handler panicked".to_string())??;
            spans.extend(rec.spans);
            dft_total += work;
            for (id, answer) in out {
                if let Some(slot) = answers.get_mut(id) {
                    *slot = Some(answer);
                }
            }
        }
        client_error.map_or(Ok(()), Err)
    })?;

    let reference = ctx.clock.median_since(first_sample);
    let norm = |x: f64| normalise_time(x, reference.wall, reference.cpu);
    let totals = layer_totals(&spans, CONTAINERS);
    let request_ns: u64 = spans.iter().filter(|s| s.layer == REQUEST).map(Span::len).sum();
    let n_requests = spans.iter().filter(|s| s.layer == REQUEST).count();
    let (handle_ns, unaccounted_ns) = parents_self_time(&spans, HANDLE, CONTAINERS);
    let layer_ns: u64 = totals.values().map(|t| t.ns).sum();
    let dft_ns = totals.get("spectral.dft").map_or(0, |t| t.ns) as f64;

    let mut m = Metrics::default();
    let mean = |layer: &str| norm(totals.get(layer).map_or(0.0, |t| t.mean_us()));
    push_codec_layers(&mut m, &totals, passes, &mean);
    // A check does not pass through the directory stream or checkpoints.
    for (name, unit) in [
        ("stream.read_us", "us"),
        ("stream.idle_share", "ratio"),
        ("stream.pool_hit_ratio", "ratio"),
        ("persist.save_us", "us"),
        ("persist.checkpoint_bytes", "bytes"),
    ] {
        m.push(name, 0.0, unit);
    }
    push_engine_layers(&mut m, &mean, dft_ns, dft_total, layer_ns, &norm);
    let unit_ns = request_ns as f64;
    m.push("trace.coverage", 1.0 - unaccounted_ns as f64 / unit_ns, "ratio");
    m.push(
        "trace.unaccounted_us",
        norm(unaccounted_ns as f64 / 1e3 / n_requests.max(1) as f64),
        "us",
    );
    let transport_ms =
        norm((request_ns - handle_ns.min(request_ns)) as f64 / 1e6 / n_requests.max(1) as f64);
    let serve = [mean("serve.parse"), mean("serve.read_body"), mean("serve.write"), transport_ms];
    let s_per_image = norm(pass_ns as f64 / 1e9 / scored.max(1) as f64);
    Ok(Replay { answers, metrics: m, serve, s_per_image, requests: n_requests })
}
