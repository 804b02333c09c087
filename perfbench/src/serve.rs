//! The serve session: an in-process daemon (`Server::bind` on a socket
//! under `.perfbench/`) serving a trained model, driven open-loop.
//!
//! Requests are due on a fixed schedule at each rate of a short ladder
//! and are sent over at most `nproc` connections whether or not earlier
//! replies have arrived; each connection pipelines its requests. Most
//! requests are predicts of a few suite test clips; every
//! [`SCAN_EVERY`]-th is a `scan` of a small layout, which runs the direct
//! scan path beside the queued micro-batch path. Latency is timed from
//! each request's due time, so a stall also charges the requests queued
//! behind it. After the ladder, a saturation phase makes a fixed number
//! of requests due at once and measures how fast the daemon answers
//! them. Every reply is checked against offline `predict_batch` or
//! `scan`; a busy or error reply is a failure and misses the latency
//! limit.
//!
//! The session runs in the traced run of `train-biased`, on the model
//! that run has just trained, and reports the server and API layers.

use crate::layers::Layers;
use crate::report::{median, quantile_sorted, Checks, Sampler};
use crate::setup::Seeds;
use crate::trace::Tracer;
use hotspot_core::api::{
    ClipSpec, Json, PredictRequest, PredictResponse, Request, ScanRequest, ServeCounters,
};
use hotspot_core::{HotspotDetector, ModelFile, ScanConfig, ScanReport};
use hotspot_datagen::LayoutSpec;
use hotspot_geometry::Clip;
use hotspot_server::{client_roundtrip, ClientConn, Engine, ServeModel, Server, ServerConfig};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Offered rates, requests per second. The first is the reference rate
/// at which the end-to-end latency is reported.
const LADDER: [u32; 4] = [200, 400, 600, 800];
/// Names of the per-rate metrics, in ladder order.
const RUNG_METRICS: [[&str; 4]; 4] = [
    [
        "serve.r200.sent",
        "serve.r200.ok",
        "serve.r200.failed",
        "serve.r200.p99_ms",
    ],
    [
        "serve.r400.sent",
        "serve.r400.ok",
        "serve.r400.failed",
        "serve.r400.p99_ms",
    ],
    [
        "serve.r600.sent",
        "serve.r600.ok",
        "serve.r600.failed",
        "serve.r600.p99_ms",
    ],
    [
        "serve.r800.sent",
        "serve.r800.ok",
        "serve.r800.failed",
        "serve.r800.p99_ms",
    ],
];
/// Share of the run spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.4;
/// Share of the run spent at each of the other rates.
const RATE_SHARE: f64 = 0.15;
/// Requests per run second made due at once in the saturation phase.
const SATURATION_PER_SECOND: usize = 150;
/// Predict p99 limit a rate must meet, ms.
const LATENCY_LIMIT_MS: f64 = 25.0;
/// Every `SCAN_EVERY`-th request is a scan op.
const SCAN_EVERY: usize = 25;
const CLIPS_PER_PREDICT: usize = 4;
/// Distinct predict requests (clip sets) the schedule cycles through.
const PREDICT_POOL: usize = 64;
/// Distinct small layouts the scan ops cycle through (3×3 tiles, 25
/// windows at stride 600 nm).
const SCAN_POOL: usize = 2;
const SCAN_TILES: usize = 3;
/// Most requests one connection keeps unanswered: past it the sender
/// reads replies instead of sending, so neither side's socket buffer can
/// fill up and stall the other.
const MAX_IN_FLIGHT: usize = 64;
/// How long to wait for the last replies of a phase, beyond its last due
/// time, before counting them missing.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict(usize),
    Scan(usize),
}

/// The distinct requests, rendered once, with their offline references.
struct Pool {
    predict_lines: Vec<String>,
    scan_lines: Vec<String>,
    predict_refs: Vec<Vec<f32>>,
    scan_refs: Vec<ScanReport>,
}

impl Pool {
    fn line(&self, kind: Kind) -> &str {
        match kind {
            Kind::Predict(i) => &self.predict_lines[i],
            Kind::Scan(i) => &self.scan_lines[i],
        }
    }

    /// The kind of the request with sequence number `seq`.
    fn kind(&self, seq: usize) -> Kind {
        if seq % SCAN_EVERY == SCAN_EVERY - 1 {
            Kind::Scan((seq / SCAN_EVERY) % self.scan_lines.len())
        } else {
            Kind::Predict(seq % self.predict_lines.len())
        }
    }
}

/// One scheduled request: when it is due after the phase start, and
/// what it is.
struct Planned<'a> {
    due: Duration,
    kind: Kind,
    line: &'a str,
}

#[derive(Debug, Clone, Default)]
struct Record {
    sent: Option<Instant>,
    replied: Option<Instant>,
    reply: String,
    queue_depth: usize,
}

/// Outcome of one phase: a ladder rate, or the saturation phase (rate 0).
struct Rung {
    rate: u32,
    kinds: Vec<Kind>,
    sent: usize,
    ok: usize,
    failed: usize,
    predict_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    achieved_rps: f64,
    late_ms: Vec<f64>,
    service_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    queue_depth_max: usize,
    replies: Vec<String>,
    spans: Vec<(usize, Instant, Instant)>,
}

impl Rung {
    /// Predict p99 over every predict, failures counted as missing the
    /// limit.
    fn p99(&self) -> f64 {
        let mut v = self.predict_ms.clone();
        v.sort_by(f64::total_cmp);
        quantile_sorted(&v, 0.99)
    }

    fn passes(&self) -> bool {
        self.failed == 0 && self.p99() <= LATENCY_LIMIT_MS
    }
}

/// Serves `detector` through an in-process daemon for `seconds` of
/// open-loop traffic built from `clips` and seeded small layouts; sets
/// the server, API and serve-ladder metrics and records one span per
/// answered request.
pub fn session(
    detector: &mut HotspotDetector,
    clips: &[Clip],
    seeds: &Seeds,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let model_file = ModelFile {
        resolution_nm: detector.pipeline().resolution_nm(),
        grid: detector.pipeline().grid_dim(),
        k: detector.pipeline().coefficients(),
        blob: detector.export_parameters(),
    };
    let model = match ServeModel::from_parts(&model_file, None) {
        Ok(m) => m,
        Err(e) => {
            checks.check(false, || format!("serve model: {}", e.message));
            return;
        }
    };

    // Request pool: seeded clip sets, and small layouts for the scan ops.
    let mut sampler = Sampler::new(seeds.sample);
    let sets: Vec<Vec<Clip>> = (0..PREDICT_POOL)
        .map(|_| {
            (0..CLIPS_PER_PREDICT)
                .map(|_| clips[sampler.below(clips.len())].clone())
                .collect()
        })
        .collect();
    let layouts: Vec<Clip> = (0..SCAN_POOL)
        .map(|i| LayoutSpec::uniform(SCAN_TILES, SCAN_TILES, seeds.layout ^ i as u64).build())
        .collect();
    let scan_config = ScanConfig::new(600).expect("positive stride");
    let pool = Pool {
        predict_lines: sets
            .iter()
            .enumerate()
            .map(|(i, s)| predict_line(i, s))
            .collect(),
        scan_lines: layouts
            .iter()
            .enumerate()
            .map(|(i, l)| scan_line(i, l))
            .collect(),
        predict_refs: sets
            .iter()
            .map(|s| detector.predict_batch(s).expect("offline predict"))
            .collect(),
        scan_refs: layouts
            .iter()
            .map(|l| detector.scan(l, &scan_config).expect("offline scan"))
            .collect(),
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = nproc.clamp(1, 2);
    if let Err(e) = std::fs::create_dir_all(".perfbench") {
        checks.check(false, || format!("create .perfbench: {e}"));
        return;
    }
    let socket = PathBuf::from(format!(".perfbench/serve-{}.sock", std::process::id()));
    let server = match Server::bind(model, &ServerConfig::new(&socket)) {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, || format!("bind daemon socket: {e}"));
            return;
        }
    };
    let engine = server.engine().clone();
    let daemon = std::thread::spawn(move || server.run());
    let phases = drive(&socket, &engine, &pool, seconds, connections);
    let counters = engine.counters();
    let shutdown = Request::Shutdown {
        id: "perfbench".into(),
    }
    .render();
    checks.check(client_roundtrip(&socket, &shutdown).is_ok(), || {
        "daemon shutdown request failed".into()
    });
    match daemon.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => checks.check(false, || format!("daemon failed: {e}")),
        Err(_) => checks.check(false, || "daemon thread panicked".into()),
    }
    let (rungs, saturation) = match phases {
        Ok(p) => p,
        Err(e) => {
            checks.check(false, || format!("serve session failed: {e}"));
            return;
        }
    };
    for rung in rungs.iter().chain([&saturation]) {
        check_replies(rung, &pool, checks);
        let open = tracer.begin("serve.phase", u64::from(rung.rate));
        for &(seq, due, replied) in &rung.spans {
            tracer.record("serve.request", seq as u64, due, replied);
        }
        tracer.end(open);
    }
    serve_layers(&rungs, &saturation, &counters, layers);
    api_layers(&pool, &rungs[0], layers);
}

/// Runs every rate of the ladder in turn, then the saturation phase,
/// each to completion.
fn drive(
    socket: &Path,
    engine: &Engine,
    pool: &Pool,
    seconds: f64,
    connections: usize,
) -> io::Result<(Vec<Rung>, Rung)> {
    let mut tries = 0;
    while ClientConn::connect(socket).is_err() {
        tries += 1;
        if tries > 1000 {
            return Err(io::Error::other("daemon socket never accepted"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Warm-up: one predict and one scan, closed-loop.
    let mut warm = ClientConn::connect(socket)?;
    warm.request(pool.line(Kind::Predict(0)))?;
    warm.request(pool.line(Kind::Scan(0)))?;
    drop(warm);
    // One connection per client thread, kept open across phases.
    let mut streams = (0..connections)
        .map(|_| UnixStream::connect(socket))
        .collect::<io::Result<Vec<_>>>()?;

    let mut seq = 0usize;
    let mut phase = |rate: u32, count: usize, spacing: f64| {
        let plan: Vec<Planned> = (0..count)
            .map(|j| {
                let kind = pool.kind(seq + j);
                Planned {
                    due: Duration::from_secs_f64(j as f64 * spacing),
                    kind,
                    line: pool.line(kind),
                }
            })
            .collect();
        let first = seq;
        seq += count;
        run_phase(&mut streams, engine, rate, first, &plan)
    };
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let share = if i == 0 { REFERENCE_SHARE } else { RATE_SHARE };
        let count = ((seconds * share * f64::from(rate)).round() as usize).max(1);
        rungs.push(phase(rate, count, 1.0 / f64::from(rate))?);
    }
    let count = ((seconds * SATURATION_PER_SECOND as f64).round() as usize).max(1);
    let saturation = phase(0, count, 0.0)?;
    Ok((rungs, saturation))
}

fn predict_line(i: usize, clips: &[Clip]) -> String {
    Request::Predict(PredictRequest {
        id: format!("p{i}"),
        clips: clips.iter().map(ClipSpec::from_clip).collect(),
        threshold: 0.5,
    })
    .render()
}

fn scan_line(i: usize, layout: &Clip) -> String {
    Request::Scan(ScanRequest {
        id: format!("s{i}"),
        layout: ClipSpec::from_clip(layout),
        stride_nm: 600,
        window_nm: 1200,
        threshold: 0.5,
        include_windows: true,
    })
    .render()
}

/// One phase: connection `c` sends requests `c, c + C, c + 2C, ...` at
/// their due times from its own thread, reading replies in between.
fn run_phase(
    streams: &mut [UnixStream],
    engine: &Engine,
    rate: u32,
    first_seq: usize,
    plan: &[Planned<'_>],
) -> io::Result<Rung> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let connections = streams.len();
    let mine = |c: usize| plan.iter().enumerate().skip(c).step_by(connections);
    let results: Vec<io::Result<Vec<Record>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let own: Vec<&Planned> = mine(c).map(|(_, p)| p).collect();
                scope.spawn(move || drive_connection(stream, engine, &own, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let mut rung = Rung {
        rate,
        kinds: plan.iter().map(|p| p.kind).collect(),
        sent: 0,
        ok: 0,
        failed: 0,
        predict_ms: Vec::new(),
        scan_ms: Vec::new(),
        achieved_rps: 0.0,
        late_ms: Vec::new(),
        service_ms: Vec::new(),
        wait_ms: Vec::new(),
        queue_depth_max: 0,
        replies: vec![String::new(); plan.len()],
        spans: Vec::new(),
    };
    let mut last_reply = t0;
    for (c, records) in results.into_iter().enumerate() {
        let mut prev_reply: Option<Instant> = None;
        for ((idx, p), r) in mine(c).zip(records?) {
            let due = t0 + p.due;
            if let Some(sent) = r.sent {
                rung.sent += 1;
                rung.late_ms
                    .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                rung.queue_depth_max = rung.queue_depth_max.max(r.queue_depth);
                if let Some(replied) = r.replied {
                    // The daemon serves a connection's requests in order,
                    // so a request starts when it was sent or when the one
                    // before it was answered, whichever is later.
                    let start = prev_reply.map_or(sent, |pr| pr.max(sent));
                    rung.service_ms.push((replied - start).as_secs_f64() * 1e3);
                    rung.wait_ms.push((start - sent).as_secs_f64() * 1e3);
                    prev_reply = Some(replied);
                    last_reply = last_reply.max(replied);
                    rung.spans.push((first_seq + idx, due, replied));
                }
            }
            let latency = match r.replied {
                Some(replied) if ok_reply(&r.reply) => {
                    rung.ok += 1;
                    replied.saturating_duration_since(due).as_secs_f64() * 1e3
                }
                _ => {
                    rung.failed += 1;
                    f64::INFINITY
                }
            };
            match p.kind {
                Kind::Predict(_) => rung.predict_ms.push(latency),
                Kind::Scan(_) => rung.scan_ms.push(latency),
            }
            rung.replies[idx] = r.reply;
        }
    }
    let scheduled = plan.last().map_or(0.0, |p| p.due.as_secs_f64());
    let span = (last_reply - t0).as_secs_f64().max(scheduled);
    rung.achieved_rps = rung.ok as f64 / span;
    Ok(rung)
}

/// Whether a reply line is a successful (`"ok": true`) reply.
fn ok_reply(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false)
}

/// One connection's open-loop sender and reply reader.
fn drive_connection(
    stream: &mut UnixStream,
    engine: &Engine,
    plan: &[&Planned<'_>],
    t0: Instant,
) -> io::Result<Vec<Record>> {
    let mut records = vec![Record::default(); plan.len()];
    let mut next = 0;
    let mut answered = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let give_up = t0 + plan.last().map_or(Duration::ZERO, |p| p.due) + DRAIN_GRACE;
    while answered < plan.len() {
        let now = Instant::now();
        if next < plan.len() && now >= t0 + plan[next].due && next - answered < MAX_IN_FLIGHT {
            // Queue depth is sampled at each send, not on an extra thread.
            records[next].queue_depth = engine.queue_len();
            records[next].sent = Some(Instant::now());
            stream.write_all(plan[next].line.as_bytes())?;
            stream.write_all(b"\n")?;
            next += 1;
            continue;
        }
        if now >= give_up {
            break;
        }
        if answered == next {
            std::thread::sleep((t0 + plan[next].due).saturating_duration_since(now));
            continue;
        }
        let until = if next < plan.len() && next - answered < MAX_IN_FLIGHT {
            (t0 + plan[next].due).saturating_duration_since(now)
        } else {
            give_up.saturating_duration_since(now)
        };
        stream.set_read_timeout(Some(until.max(Duration::from_micros(50))))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    if answered < next {
                        records[answered].replied = Some(at);
                        records[answered].reply =
                            String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                        answered += 1;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(records)
}

/// Every reply must match offline `predict_batch` (bit-exact scores) or
/// offline `scan` (the wire's fixed-precision scores and flags).
fn check_replies(rung: &Rung, pool: &Pool, checks: &mut Checks) {
    for (reply, &kind) in rung.replies.iter().zip(&rung.kinds) {
        let ok = match kind {
            Kind::Scan(i) => scan_reply_matches(reply, &format!("s{i}"), &pool.scan_refs[i]),
            Kind::Predict(i) => {
                let want = &pool.predict_refs[i];
                PredictResponse::parse(reply).is_ok_and(|r| {
                    r.id == format!("p{i}")
                        && r.scores.len() == want.len()
                        && r.scores
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                        && r.hotspots.iter().zip(want).all(|(&h, &s)| h == (s > 0.5))
                })
            }
        };
        checks.check(ok, || {
            format!("{} rps {kind:?}: reply {:.200}", rung.rate, reply)
        });
    }
}

fn scan_reply_matches(reply: &str, id: &str, want: &ScanReport) -> bool {
    let Ok(v) = Json::parse(reply) else {
        return false;
    };
    let Some(windows) = v
        .get("report")
        .and_then(|r| r.get("windows"))
        .and_then(Json::as_arr)
    else {
        return false;
    };
    v.get("id").and_then(Json::as_str) == Some(id)
        && v.get("ok").and_then(Json::as_bool) == Some(true)
        && windows.len() == want.windows.len()
        && windows.iter().zip(&want.windows).all(|(w, r)| {
            matches!(w.get("score"), Some(Json::Num(tok)) if *tok == format!("{:.6}", r.score))
                && w.get("hotspot").and_then(Json::as_bool) == Some(r.hotspot)
        })
}

fn serve_layers(rungs: &[Rung], saturation: &Rung, counters: &ServeCounters, layers: &mut Layers) {
    layers.set("server.batches", counters.batches as f64);
    if counters.batches > 0 {
        layers.set(
            "server.clips_per_batch",
            counters.clips as f64 / counters.batches as f64,
        );
    }
    layers.set("server.max_batch", counters.max_batch as f64);
    layers.set("server.rejected_busy", counters.rejected_busy as f64);
    layers.set(
        "server.queue_depth_max",
        rungs.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
    );
    let reference = &rungs[0];
    layers.set("server.service_ms", median(&reference.service_ms));
    layers.set("server.wait_ms", median(&reference.wait_ms));
    layers.set("server.generator_late_ms", median(&reference.late_ms));
    let mut predict = reference.predict_ms.clone();
    predict.sort_by(f64::total_cmp);
    layers.set("serve.predict_p50_ms", quantile_sorted(&predict, 0.5));
    let mut scan = reference.scan_ms.clone();
    scan.sort_by(f64::total_cmp);
    layers.set("serve.scan_op_p50_ms", quantile_sorted(&scan, 0.5));
    layers.set("serve.saturation_rps", saturation.achieved_rps);
    let best = rungs.iter().filter(|r| r.passes()).map(|r| r.achieved_rps);
    layers.set("serve.max_rate_rps", best.fold(0.0, f64::max));
    for (rung, names) in rungs.iter().zip(RUNG_METRICS) {
        layers.set(names[0], rung.sent as f64);
        layers.set(names[1], rung.ok as f64);
        layers.set(names[2], rung.failed as f64);
        layers.set(names[3], rung.p99());
    }
}

/// Median `Request::parse` time over the pool's request lines and
/// `PredictResponse::render` time over the reference rate's replies.
fn api_layers(pool: &Pool, reference: &Rung, layers: &mut Layers) {
    let mut parse_us = Vec::new();
    for line in pool.predict_lines.iter().chain(&pool.scan_lines) {
        let t = Instant::now();
        let parsed = Request::parse(line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.is_ok());
    }
    let mut render_us = Vec::new();
    for reply in reference.replies.iter().take(256) {
        if let Ok(parsed) = PredictResponse::parse(reply) {
            let t = Instant::now();
            let line = parsed.render();
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(line);
        }
    }
    layers.set("api.parse_us", median(&parse_us));
    if !render_us.is_empty() {
        layers.set("api.render_us", median(&render_us));
    }
}
