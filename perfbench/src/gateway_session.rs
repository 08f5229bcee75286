//! `gateway_session`: the traffic a design tool sends to `stbus serve`.
//!
//! Closed-loop clients, one `X-Tenant` each, hold a persistent keep-alive
//! connection (reconnecting when the gateway closes it at its keep-alive
//! cap) and run design sessions over the paper apps: a cold workload-mode
//! `/synthesize`, an identical repeat, then a chain of
//! `{"artifact","delta"}` requests. The gateway journals into a directory
//! under the working directory; after the session the benchmark replays
//! the journal.
//!
//! Set-up spawns the gateway on a journal recorded by an untimed prep
//! session with disjoint seeds (recovery included), waits until `/stats`
//! answers, and sends one warm-up request per client.
//!
//! Every response's `it`/`ti` bus counts are checked against an
//! in-process cold solve of the same (delta-patched) workload. The traced
//! run also repeats each request's work in process through the public
//! pipeline calls; request latency minus that cost is the service time.

use crate::layers::{self, Counters};
use crate::plan::{GatewayPlan, Session, Step, SETUP_REPS};
use crate::report::Report;
use crate::stats::{median, Failure, Latencies, RatioMean};
use crate::trace::{LayerTimes, Tracer};
use stbus_core::phase3::SynthesisEngine;
use stbus_core::pipeline::{AnalysisArtifact, AnalysisKey, Collected, CollectionKey, Pipeline};
use stbus_core::synthesizer::Exact;
use stbus_core::{exec, SolverKind};
use stbus_gateway::json::{self, Value};
use stbus_gateway::wire::{self, WorkRequest, WorkSpec};
use stbus_gateway::{Gateway, GatewayConfig};
use stbus_milp::{Binding, WarmStart};
use stbus_sim::CrossbarConfig;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a client waits on one response before counting it failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP response.
struct Response {
    status: u16,
    body: String,
}

/// A client on one persistent keep-alive connection, reconnecting when
/// the gateway closes it.
struct Client {
    addr: SocketAddr,
    tenant: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    connects: u64,
}

impl Client {
    fn new(addr: SocketAddr, tenant: &str) -> Self {
        Self {
            addr,
            tenant: tenant.to_string(),
            stream: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    /// One request/response exchange; any transport failure drops the
    /// connection so the next request reconnects.
    fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        let result = self.exchange(path, body);
        if result.is_err() {
            self.stream = None;
            self.buf.clear();
        }
        result
    }

    fn exchange(&mut self, path: &str, body: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            self.stream = Some(stream);
            self.buf.clear();
            self.connects += 1;
        }
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nX-Tenant: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.tenant,
            body.len()
        );
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request.as_bytes())?;
        let (response, close) = read_response(stream, &mut self.buf)?;
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Reads one `Content-Length`-framed response; also reports whether the
/// server announced `Connection: close`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(Response, bool)> {
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        fill(stream, buf)?;
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let length =
        length.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
    while buf.len() < header_end + length {
        fill(stream, buf)?;
    }
    let body = String::from_utf8_lossy(&buf[header_end..header_end + length]).to_string();
    buf.drain(..header_end + length);
    Ok((Response { status, body }, close))
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// `GET /stats` on a one-shot connection, parsed.
fn stats(addr: SocketAddr) -> Result<Value, String> {
    let fetch = || -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        stream.write_all(b"GET /stats HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
        let mut buf = Vec::new();
        let (response, _) = read_response(&mut stream, &mut buf)?;
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "/stats answered {}",
                response.status
            )));
        }
        Ok(response.body)
    };
    let body = fetch().map_err(|e| format!("/stats: {e}"))?;
    json::parse(&body).map_err(|e| format!("/stats body: {e}"))
}

fn counter(stats: &Value, section: &str, field: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(field))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// The request body a step sends, given the previous response's artifact.
fn body_of(step: &Step, artifact: &str) -> String {
    match step {
        Step::Synthesize { body, .. } => body.clone(),
        Step::Delta { delta } => format!("{{\"artifact\":\"{artifact}\",\"delta\":{delta}}}"),
    }
}

/// Bus counts (`it`, `ti`) of a design.
type Buses = (usize, usize);

/// Expected bus counts of every step of `session`, from in-process cold
/// solves of the same (delta-patched) workload, plus the full-crossbar
/// bus count.
fn expectations(session: &Session) -> Result<(Vec<Buses>, usize), String> {
    let mut out = Vec::with_capacity(session.steps.len());
    let Step::Synthesize { body, .. } = &session.steps[0] else {
        return Err("sessions open with a cold request".into());
    };
    let request = wire::parse_synthesize(body)?;
    let WorkSpec::Workload(spec) = &request.work else {
        return Err("sessions use workload mode".into());
    };
    let app = spec.build();
    let full = CrossbarConfig::full(app.spec.num_targets()).num_buses()
        + CrossbarConfig::full(app.spec.num_initiators()).num_buses();
    let mut params = request.params.clone();
    let mut collected = Pipeline::collect(&app, &params);
    let solve = |c: &Collected<'_>, p: &stbus_core::DesignParams| {
        c.analyze(p)
            .synthesize(&Exact::default())
            .map(|s| (s.it.num_buses, s.ti.num_buses))
            .map_err(|e| format!("{}: cold solve failed: {e}", session.suite))
    };
    for step in &session.steps {
        match step {
            Step::Synthesize { repeat: true, .. } => {
                let first = *out.last().ok_or("a repeat needs a cold request first")?;
                out.push(first);
            }
            Step::Synthesize { .. } => out.push(solve(&collected, &params)?),
            Step::Delta { .. } => {
                let delta = wire::parse_delta(&body_of(step, "00"))?.delta;
                if let Some(theta) = delta.threshold {
                    params = params.with_overlap_threshold(theta);
                }
                collected = collected.apply_delta(&delta).map_err(|e| e.to_string())?;
                out.push(solve(&collected, &params)?);
            }
        }
    }
    Ok((out, full))
}

/// What one measured request produced.
#[derive(Debug, Clone)]
struct Outcome {
    delta: bool,
    latency_ms: f64,
    parse_us: f64,
    failure: Option<Failure>,
    buses: Buses,
    full: usize,
    exact: bool,
}

/// Runs one client's sessions, checking every response.
fn run_client(
    tracer: &Tracer,
    first_request: u64,
    addr: SocketAddr,
    tenant: &str,
    sessions: &[Session],
    expected: &[(Vec<Buses>, usize)],
) -> (Vec<Outcome>, u64) {
    let mut client = Client::new(addr, tenant);
    let mut out = Vec::new();
    let mut request = first_request;
    for (session, (buses, full)) in sessions.iter().zip(expected) {
        let mut artifact: Option<String> = None;
        let mut broken = false;
        for (step, &want) in session.steps.iter().zip(buses) {
            request += 1;
            let delta = matches!(step, Step::Delta { .. });
            let mut outcome = Outcome {
                delta,
                latency_ms: 0.0,
                parse_us: 0.0,
                failure: None,
                buses: want,
                full: *full,
                exact: false,
            };
            if broken {
                outcome.failure = Some(Failure::NoResponse(
                    "an earlier request of the chain failed".into(),
                ));
                out.push(outcome);
                continue;
            }
            let body = body_of(step, artifact.as_deref().unwrap_or(""));
            let parse_start = Instant::now();
            let parsed = tracer.span("gateway.parse", None, request, |_| {
                wire::parse_synthesize_route(&body)
            });
            outcome.parse_us = parse_start.elapsed().as_secs_f64() * 1e6;
            debug_assert!(parsed.is_ok());
            let start = Instant::now();
            let response = tracer.span("gateway.request", None, request, |_| {
                client.post("/synthesize", &body)
            });
            outcome.latency_ms = start.elapsed().as_secs_f64() * 1e3;
            let checked = match response {
                Err(e) => Err(Failure::NoResponse(e.to_string())),
                Ok(r) if r.status != 200 => Err(Failure::from_status(r.status)),
                Ok(r) => check(&r.body, want).map(|(next, exact)| {
                    artifact = Some(next);
                    exact
                }),
            };
            match checked {
                Ok(exact) => outcome.exact = exact,
                Err(f) => {
                    outcome.failure = Some(f);
                    broken = true;
                }
            }
            out.push(outcome);
        }
    }
    (out, client.connects.saturating_sub(1))
}

/// Checks a `/synthesize` response against the expected bus counts;
/// returns its artifact address and whether both directions were exact.
fn check(body: &str, want: Buses) -> Result<(String, bool), Failure> {
    let mismatch = |what: String| Failure::Mismatch(what);
    let value = json::parse(body).map_err(|e| mismatch(format!("response body: {e}")))?;
    let side = |key: &str| -> Result<(usize, bool), Failure> {
        let v = value
            .get(key)
            .ok_or_else(|| mismatch(format!("no `{key}` in response")))?;
        let buses = v
            .get("num_buses")
            .and_then(Value::as_u64)
            .ok_or_else(|| mismatch(format!("no `{key}.num_buses`")))?;
        let engine = v.get("engine").and_then(Value::as_str);
        Ok((buses as usize, engine == Some("exact")))
    };
    let (it, it_exact) = side("it")?;
    let (ti, ti_exact) = side("ti")?;
    if (it, ti) != want {
        return Err(mismatch(format!(
            "gateway designed {it}+{ti} buses, in-process cold solve {}+{}",
            want.0, want.1
        )));
    }
    let artifact = value
        .get("artifact")
        .and_then(Value::as_str)
        .ok_or_else(|| mismatch("no `artifact` in response".into()))?;
    Ok((artifact.to_string(), it_exact && ti_exact))
}

fn config(dir: &Path) -> GatewayConfig {
    GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        log_requests: false,
        journal_dir: Some(dir.to_path_buf()),
        ..GatewayConfig::default()
    }
}

fn stop(gateway: Gateway) {
    gateway.shutdown();
    gateway.join();
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Records the prep journal: every prep session through one client.
fn record_prep(plan: &GatewayPlan, dir: &Path) -> Result<(), String> {
    let gateway = Gateway::spawn(&config(dir)).map_err(|e| format!("prep gateway: {e}"))?;
    let mut client = Client::new(gateway.addr(), "prep");
    let mut result = Ok(());
    'sessions: for session in &plan.prep {
        let mut artifact = String::new();
        for step in &session.steps {
            match client.post("/synthesize", &body_of(step, &artifact)) {
                Ok(r) if r.status == 200 => {
                    artifact = json::parse(&r.body)
                        .ok()
                        .and_then(|v| v.get("artifact").and_then(Value::as_str).map(String::from))
                        .unwrap_or_default();
                }
                Ok(r) => {
                    result = Err(format!(
                        "prep request answered {}: {}",
                        r.status,
                        r.body.trim()
                    ));
                    break 'sessions;
                }
                Err(e) => {
                    result = Err(format!("prep request: {e}"));
                    break 'sessions;
                }
            }
        }
    }
    // Close the connection first: shutdown waits for open connections.
    drop(client);
    stop(gateway);
    result
}

/// One set-up: spawn on a copy of the prep journal (recovery included),
/// wait for `/stats`, send the warm-up flight. Returns the gateway, the
/// set-up seconds and the spawn milliseconds.
fn set_up(plan: &GatewayPlan, dir: &Path) -> Result<(Gateway, f64, f64), String> {
    let start = Instant::now();
    let gateway = Gateway::spawn(&config(dir)).map_err(|e| format!("spawn: {e}"))?;
    let spawn_ms = start.elapsed().as_secs_f64() * 1e3;
    let addr = gateway.addr();
    stats(addr)?;
    let warm: Vec<Result<u16, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .warmup
            .iter()
            .enumerate()
            .map(|(c, body)| {
                s.spawn(move || {
                    Client::new(addr, &format!("client-{c}"))
                        .post("/synthesize", body)
                        .map(|r| r.status)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    let setup_s = start.elapsed().as_secs_f64();
    if let Some(bad) = warm.into_iter().find(|r| *r != Ok(200)) {
        stop(gateway);
        return Err(format!("warm-up request failed: {bad:?}"));
    }
    Ok((gateway, setup_s, spawn_ms))
}

/// Runs the workload.
///
/// # Errors
///
/// On a failed set-up or prep session, a replay that differs or fails,
/// or a metric that cannot be reported.
pub fn run(seed: u64, seconds: u64, tracer: &Tracer, out: &Path) -> Result<Report, String> {
    let dir = out.join(format!("gateway-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let result = run_in(seed, seconds, tracer, &dir);
    let _ = fs::remove_dir_all(&dir);
    result
}

fn run_in(seed: u64, seconds: u64, tracer: &Tracer, dir: &Path) -> Result<Report, String> {
    let plan = GatewayPlan::new(seed, seconds);

    // Inputs and their expected outputs (untimed).
    let all: Vec<&Session> = plan.clients.iter().flatten().collect();
    let flat = exec::map(&all, exec::parallelism(), |s| expectations(s));
    let flat = flat.into_iter().collect::<Result<Vec<_>, String>>()?;
    let mut expected = Vec::new();
    let mut rest = flat.as_slice();
    for sessions in &plan.clients {
        let (mine, tail) = rest.split_at(sessions.len());
        expected.push(mine.to_vec());
        rest = tail;
    }

    let prep = dir.join("prep");
    record_prep(&plan, &prep)?;
    let recovered_records = stbus_journal::read_journal(&prep)
        .map_err(|e| format!("reading prep journal: {e}"))?
        .records
        .len();

    // Set-up, repeated on fresh copies of the prep journal; the last
    // gateway serves the measured session.
    let mut setup_s = Vec::new();
    let mut spawn_ms = Vec::new();
    let mut live: Option<(Gateway, PathBuf)> = None;
    for k in 0..SETUP_REPS {
        if let Some((old, _)) = live.take() {
            stop(old);
        }
        let copy = dir.join(format!("setup-{k}"));
        copy_dir(&prep, &copy).map_err(|e| format!("copying prep journal: {e}"))?;
        let (gateway, s, ms) = set_up(&plan, &copy)?;
        setup_s.push(s);
        spawn_ms.push(ms);
        live = Some((gateway, copy));
    }
    let (gateway, journal_dir) = live.expect("at least one set-up");
    let addr = gateway.addr();

    let before = match stats(addr) {
        Ok(before) => before,
        Err(e) => {
            stop(gateway);
            return Err(e);
        }
    };
    let start = Instant::now();
    let results: Vec<(Vec<Outcome>, u64)> = std::thread::scope(|s| {
        // Requests are numbered across clients in plan order, as the
        // traced in-process pass numbers them.
        let mut first_request = 0;
        let handles: Vec<_> = plan
            .clients
            .iter()
            .zip(&expected)
            .enumerate()
            .map(|(c, (sessions, want))| {
                let tenant = format!("client-{c}");
                let first = first_request;
                first_request += sessions.iter().map(|x| x.steps.len() as u64).sum::<u64>();
                s.spawn(move || run_client(tracer, first, addr, &tenant, sessions, want))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = stats(addr);
    stop(gateway);
    let after = after?;

    let journal =
        stbus_journal::read_journal(&journal_dir).map_err(|e| format!("reading journal: {e}"))?;
    let journal_bytes = fs::metadata(journal_dir.join(stbus_journal::JOURNAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let replay_start = Instant::now();
    let replay = stbus_gateway::replay::replay_journal(
        &journal.records,
        NonZeroUsize::new(exec::parallelism()),
    );
    let replay_s = replay_start.elapsed().as_secs_f64();
    if !replay.is_clean() {
        return Err(format!(
            "journal replay: {} differed, {} failed of {} records",
            replay.diffs,
            replay.failed,
            journal.records.len()
        ));
    }
    let replayed = replay.matched + replay.diffs + replay.failed;

    // Metrics.
    let outcomes: Vec<&Outcome> = results.iter().flat_map(|(o, _)| o).collect();
    let reconnects: u64 = results.iter().map(|(_, r)| r).sum();
    let mut latencies = Latencies::default();
    let mut deltas = Latencies::default();
    let mut bus_saving = RatioMean::new("full-crossbar buses", "designed buses");
    let mut exact = 0;
    for o in &outcomes {
        let tally = |l: &mut Latencies| match &o.failure {
            None => l.record(o.latency_ms),
            Some(f) => l.fail(f.clone()),
        };
        tally(&mut latencies);
        if o.delta {
            tally(&mut deltas);
        }
        if o.failure.is_none() {
            bus_saving.add(o.full as f64, (o.buses.0 + o.buses.1) as f64);
            exact += usize::from(o.exact);
        }
    }
    let mut report = Report::default();
    report.common(&setup_s, &latencies, wall_s, "requests")?;
    report.ratio("bus_saving_x", &bus_saving);
    report.exact_share(exact, latencies.attempted());
    let d50 = deltas.percentile(50.0)?;
    report.e2e(
        "delta_ms_p50",
        "ms",
        d50.value,
        format!("{} delta requests, {} beyond", d50.samples, d50.beyond),
    );
    report.e2e(
        "replay_records_per_s",
        "1/s",
        replayed as f64 / replay_s,
        format!("{replayed} records replayed in {replay_s:.3} s"),
    );

    if tracer.enabled() {
        let inproc = in_process_costs(&plan, tracer)?;
        let times = LayerTimes::of(&tracer.spans());
        let served_ms: f64 = latencies.successes().iter().sum();
        layers::shares(
            &mut report,
            &times,
            &["phase1", "phase2", "phase3"],
            served_ms,
            "summed request latency",
        );
        layers::phase3(&mut report, &times, &inproc.counters);
        let mut service = Latencies::default();
        let mut parse = Latencies::default();
        for (o, cost) in outcomes.iter().zip(&inproc.per_request_ms) {
            if o.failure.is_none() {
                service.record(o.latency_ms - cost);
            }
            parse.record(o.parse_us);
        }
        for (name, p) in [
            ("gateway.service_ms_p50", 50.0),
            ("gateway.service_ms_p90", 90.0),
        ] {
            let pct = service.percentile(p)?;
            report.layer(
                name,
                "ms",
                pct.value,
                format!("request latency − in-process cost; {} samples", pct.samples),
            );
        }
        let p = parse.percentile(50.0)?;
        report.layer(
            "gateway.parse_us_p50",
            "us",
            p.value,
            format!("wire::parse_synthesize_route; {} samples", p.samples),
        );
        report.layer(
            "gateway.reconnects",
            "count",
            reconnects as f64,
            "connections reopened after the keep-alive cap",
        );
        cache_layers(&mut report, &before, &after);
        report.layer(
            "journal.recovery_ms",
            "ms",
            median(&spawn_ms),
            format!(
                "Gateway::spawn on the prep journal, median of {}",
                spawn_ms.len()
            ),
        );
        report.layer(
            "journal.recovered_records",
            "count",
            recovered_records as f64,
            "records in the recovered prep journal",
        );
        report.layer(
            "journal.records",
            "count",
            journal.records.len() as f64,
            "records in the session's journal",
        );
        report.layer(
            "journal.bytes",
            "bytes",
            journal_bytes as f64,
            "journal.log size",
        );
        report.layer(
            "journal.replay_ms",
            "ms",
            replay_s * 1e3,
            "gateway::replay::replay_journal",
        );
        report.layer(
            "journal.replay_differed",
            "count",
            replay.diffs as f64,
            "replayed records whose outcome differed",
        );
    }
    Ok(report)
}

/// Cache and admission counters over the measured session.
fn cache_layers(report: &mut Report, before: &Value, after: &Value) {
    let delta = |section: &str, field: &str| {
        counter(after, section, field).saturating_sub(counter(before, section, field))
    };
    let mut waits = 0;
    for cache in ["collect_cache", "analysis_cache", "resynth_cache"] {
        let hits = delta(cache, "hits");
        let lookups = hits + delta(cache, "misses") + delta(cache, "inflight_waits");
        waits += delta(cache, "inflight_waits");
        report.layer(
            &format!("gateway.{cache}.hit_share"),
            "share",
            hits as f64 / lookups.max(1) as f64,
            format!("{hits} hits of {lookups} lookups"),
        );
    }
    report.layer(
        "gateway.inflight_waits",
        "count",
        waits as f64,
        "single-flight waits, all caches",
    );
    for field in ["delta_reuse", "delta_miss", "rejected"] {
        report.layer(
            &format!("gateway.{field}"),
            "count",
            delta("requests", field) as f64,
            "/stats counter over the session",
        );
    }
}

/// The traced run's in-process repeat of every measured request.
struct InProcess {
    per_request_ms: Vec<f64>,
    counters: Counters,
}

/// Repeats each measured request's work in process, through the public
/// pipeline calls the gateway makes for it: collect, analysis artifact,
/// `analyze_with` and synthesize for a cold request; `analyze_with` and
/// synthesize for a cache hit; `reanalyze` and a warm-started
/// synthesize for a delta. Requests are numbered as in the session.
fn in_process_costs(plan: &GatewayPlan, tracer: &Tracer) -> Result<InProcess, String> {
    let strategy =
        SolverKind::Exact.synthesizer_full(NonZeroUsize::new(exec::parallelism()), None, None);
    let mut per_request_ms = Vec::new();
    let mut counters = Counters::default();
    let mut request = 0u64;
    for session in plan.clients.iter().flatten() {
        let Step::Synthesize { body, .. } = &session.steps[0] else {
            return Err("sessions open with a cold request".into());
        };
        let Ok(WorkRequest::Synthesize(cold)) = wire::parse_synthesize_route(body) else {
            return Err("cold request does not parse".into());
        };
        let WorkSpec::Workload(spec) = &cold.work else {
            return Err("sessions use workload mode".into());
        };
        let app = spec.build();
        // What the gateway deposits: traffic, analysis, params, bindings.
        let mut stored: Option<(
            stbus_core::phase1::CollectedTraffic,
            AnalysisArtifact,
            stbus_core::DesignParams,
            Binding,
            Binding,
        )> = None;
        for step in &session.steps {
            request += 1;
            let start = Instant::now();
            let solved = tracer.span("inproc", None, request, |root| -> Result<_, String> {
                match (step, &stored) {
                    (Step::Synthesize { repeat: false, .. }, _)
                    | (Step::Synthesize { .. }, None) => {
                        let params = cold.params.clone();
                        let collected = tracer.span("phase1", root, request, |_| {
                            Pipeline::collect(&app, &params)
                        });
                        let artifact = tracer.span("phase2", root, request, |_| {
                            collected.analysis_artifact(&params)
                        });
                        let analyzed = tracer.span("phase2", root, request, |_| {
                            collected.analyze_with(&artifact, &params)
                        });
                        let s = tracer
                            .span("phase3", root, request, |_| analyzed.synthesize(&*strategy))
                            .map_err(|e| e.to_string())?;
                        Ok(Some((
                            collected.traffic().clone(),
                            artifact,
                            params,
                            s.it.clone(),
                            s.ti.clone(),
                        )))
                    }
                    (Step::Synthesize { .. }, Some((traffic, artifact, params, _, _))) => {
                        let collected = Collected::from_cached(&app, params, traffic.clone());
                        let analyzed = tracer.span("phase2", root, request, |_| {
                            collected.analyze_with(artifact, params)
                        });
                        let s = tracer
                            .span("phase3", root, request, |_| analyzed.synthesize(&*strategy))
                            .map_err(|e| e.to_string())?;
                        counters_add(&mut counters, &s.it, &s.ti);
                        Ok(None)
                    }
                    (Step::Delta { .. }, None) => Err("a delta needs a stored artifact".into()),
                    (Step::Delta { .. }, Some((traffic, artifact, params, warm_it, warm_ti))) => {
                        let delta = wire::parse_delta(&body_of(step, "00"))?.delta;
                        let collected = Collected::from_cached(&app, params, traffic.clone());
                        let re = tracer.span("phase2", root, request, |_| {
                            collected
                                .analyze_with(artifact, params)
                                .reanalyze(&delta)
                                .map_err(|e| e.to_string())
                        })?;
                        let base = re.params().clone();
                        let warmed = |b: &Binding| {
                            let mut p = base.clone();
                            p.solve_limits = p
                                .solve_limits
                                .clone()
                                .with_warm_start(WarmStart::new(b.clone()));
                            p
                        };
                        let (it, ti) = tracer.span("phase3", root, request, |_| {
                            Ok::<_, String>((
                                strategy
                                    .synthesize(re.pre_it(), &warmed(warm_it))
                                    .map_err(|e| e.to_string())?,
                                strategy
                                    .synthesize(re.pre_ti(), &warmed(warm_ti))
                                    .map_err(|e| e.to_string())?,
                            ))
                        })?;
                        let analysis = AnalysisArtifact::from_parts(
                            CollectionKey::of(&base),
                            AnalysisKey::of(&base),
                            (re.pre_it().stats.clone(), re.pre_it().profile.clone()),
                            (re.pre_ti().stats.clone(), re.pre_ti().profile.clone()),
                        );
                        Ok(Some((
                            re.collected().traffic().clone(),
                            analysis,
                            base,
                            it,
                            ti,
                        )))
                    }
                }
            })?;
            per_request_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some((traffic, analysis, params, it, ti)) = solved {
                counters_add(&mut counters, &it, &ti);
                stored = Some((traffic, analysis, params, it.binding, ti.binding));
            }
        }
    }
    Ok(InProcess {
        per_request_ms,
        counters,
    })
}

fn counters_add(
    counters: &mut Counters,
    it: &stbus_core::phase3::SynthesisOutcome,
    ti: &stbus_core::phase3::SynthesisOutcome,
) {
    for o in [it, ti] {
        counters.nodes += o.stats.nodes;
        counters.probes += o.probes.len() as u64;
        counters.infeasible_probes += o.probes.iter().filter(|(_, ok)| !ok).count() as u64;
        debug_assert!(o.engine == SynthesisEngine::Exact);
    }
}
