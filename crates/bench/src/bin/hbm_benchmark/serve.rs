//! `serve_mix`: an in-process `Server` (1 shard, 2 workers) driven over
//! TCP from 2 keep-alive connections with a fixed mix — 88% warm
//! `/simulate` round-robin over four small bodies, 10% `/estimate` of the
//! same bodies, 2% cold `/simulate` (a fresh trace seed, so the server
//! generates and flattens traces on the request path). The run's seed
//! picks every trace seed. The mix repeats in blocks of 50 requests with
//! the two connections' cold requests half a block apart, so every run
//! sends the same shares and two cold requests never overlap.
//!
//! The timed load is a closed loop: each connection sends its next request
//! when the previous reply arrives (two callers that wait for replies), a
//! fixed number of requests. It gives throughput and latency percentiles. The traced run adds an
//! open loop at a fixed rate, latency timed from each request's scheduled
//! send time, and reports how late its generator ran. Its percentiles are
//! not end-to-end metrics: on a 2-vCPU host the generator's sleeps and
//! wake-ups compete with the server for the CPUs, and their run-to-run
//! spread was several times the closed loop's.
//! Every response is byte-compared with the library's own answer for that
//! body.

use crate::common::{
    oracle_matches, report_model, report_par, report_peak_rss, time_predicts, traced_cell,
    EngineTotals, RunCfg, WORKERS,
};
use crate::metrics::Outcome;
use crate::spans::{Open, Tracer, NO_LAYER};
use crate::stats::{median, percentile};
use hbm_core::rng::splitmix64;
use hbm_core::{ArbitrationKind, EngineScratch, FaultPlan, ReplacementKind, SimBuilder, Workload};
use hbm_experiments::common::TracePool;
use hbm_model::predict::{predict, ModelConfig};
use hbm_model::FaultSummary;
use hbm_serve::http::{read_response, write_request};
use hbm_serve::json::{Json, JsonLimits};
use hbm_serve::proto::{estimate_to_json, parse_sim_request, report_to_json};
use hbm_serve::server::{Server, ServerConfig, ServerStats};
use hbm_serve::shutdown::ShutdownFlag;
use hbm_traces::analysis::WorkloadSummary;
use hbm_traces::{TraceOptions, WorkloadSpec};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per block of the mix: 44 warm, 5 estimate, 1 cold.
const BLOCK: usize = 50;
/// Client connections (and client threads).
const CONNECTIONS: usize = 2;
/// A request sent this much later than it could have been counts as late.
const LATE_S: f64 = 1e-3;

/// One `/simulate` body whose answer the benchmark computes itself.
#[derive(Debug, Clone)]
struct SimCase {
    spec: WorkloadSpec,
    trace_seed: u64,
    p: usize,
    k: usize,
    q: usize,
    arbitration: (&'static str, ArbitrationKind),
    replacement: (&'static str, ReplacementKind),
    /// One outage window `(start, end, channels)`.
    outage: Option<(u64, u64, usize)>,
    sim_seed: u64,
}

impl SimCase {
    fn body(&self) -> String {
        let workload = match self.spec {
            WorkloadSpec::Cyclic { pages, reps } => {
                format!(r#""kind": "cyclic", "pages": {pages}, "reps": {reps}"#)
            }
            WorkloadSpec::Zipf { pages, len, alpha } => {
                format!(r#""kind": "zipf", "pages": {pages}, "len": {len}, "alpha": {alpha:?}"#)
            }
            WorkloadSpec::Uniform { pages, len } => {
                format!(r#""kind": "uniform", "pages": {pages}, "len": {len}"#)
            }
            other => unreachable!("no body template for {other:?}"),
        };
        let faults = self.outage.map_or(String::new(), |(s, e, c)| {
            format!(r#", "faults": {{"outages": [{{"start": {s}, "end": {e}, "channels": {c}}}]}}"#)
        });
        format!(
            r#"{{"workload": {{{workload}, "seed": {}}}, "p": {}, "k": {}, "q": {}, "arbitration": {}, "replacement": "{}", "seed": {}{faults}}}"#,
            self.trace_seed,
            self.p,
            self.k,
            self.q,
            self.arbitration.0,
            self.replacement.0,
            self.sim_seed,
        )
    }

    fn faults(&self) -> FaultPlan {
        self.outage
            .map_or_else(FaultPlan::new, |(s, e, c)| FaultPlan::new().outage(s, e, c))
    }

    fn builder(&self) -> SimBuilder {
        SimBuilder::new()
            .hbm_slots(self.k)
            .channels(self.q)
            .arbitration(self.arbitration.1)
            .replacement(self.replacement.1)
            .seed(self.sim_seed)
            .fault_plan(self.faults())
    }

    fn workload(&self) -> Workload {
        self.spec
            .workload(self.p, self.trace_seed, TraceOptions::default())
    }

    fn model_config(&self) -> ModelConfig {
        let mut cfg = ModelConfig::new(self.k, self.q, self.arbitration.1, self.replacement.1);
        let plan = self.faults();
        if !plan.is_empty() {
            cfg = cfg.faults(FaultSummary::from_plan(&plan, self.q));
        }
        cfg
    }

    fn summary(&self) -> WorkloadSummary {
        WorkloadSummary::from_spec_opts(self.spec, self.trace_seed, self.p, TraceOptions::default())
    }

    /// The exact `/simulate` response body, from a plain `SimBuilder` run.
    fn golden_simulate(&self) -> Result<String, String> {
        let report = self
            .builder()
            .try_run(&self.workload())
            .map_err(|e| e.to_string())?;
        Ok(report_to_json(&report))
    }

    /// The exact `/estimate` response body.
    fn golden_estimate(&self) -> String {
        estimate_to_json(&predict(&self.summary(), &self.model_config()))
    }
}

/// The four warm bodies: cyclic, zipf, uniform, and cyclic with an outage.
fn warm_cases(seed: u64, smoke: bool) -> Vec<SimCase> {
    let mut s = seed;
    let sim_seed = splitmix64(&mut s);
    let cyclic = WorkloadSpec::Cyclic { pages: 32, reps: 4 };
    let len = if smoke { 200 } else { 500 };
    let case = |spec, trace_seed, k, q, arbitration, replacement, outage| SimCase {
        spec,
        trace_seed,
        p: 4,
        k,
        q,
        arbitration,
        replacement,
        outage,
        sim_seed,
    };
    let priority = ("\"priority\"", ArbitrationKind::Priority);
    let lru = ("lru", ReplacementKind::Lru);
    vec![
        case(cyclic, splitmix64(&mut s), 24, 2, priority, lru, None),
        case(
            WorkloadSpec::Zipf {
                pages: 128,
                len,
                alpha: 1.1,
            },
            splitmix64(&mut s),
            64,
            1,
            ("\"fifo\"", ArbitrationKind::Fifo),
            ("clock", ReplacementKind::Clock),
            None,
        ),
        case(
            WorkloadSpec::Uniform { pages: 128, len },
            splitmix64(&mut s),
            64,
            2,
            ("\"random_pick\"", ArbitrationKind::RandomPick),
            ("random", ReplacementKind::Random),
            None,
        ),
        case(
            cyclic,
            splitmix64(&mut s),
            24,
            2,
            priority,
            lru,
            Some((50, 80, 1)),
        ),
    ]
}

/// A cold body: Dataset 3 with a trace seed no other request used.
fn cold_case(trace_seed: u64, smoke: bool) -> SimCase {
    let (pages, reps) = if smoke { (32, 4) } else { (128, 16) };
    SimCase {
        spec: WorkloadSpec::Cyclic { pages, reps },
        trace_seed,
        p: 8,
        k: 4 * pages as usize,
        q: 2,
        arbitration: ("\"priority\"", ArbitrationKind::Priority),
        replacement: ("lru", ReplacementKind::Lru),
        outage: None,
        sim_seed: 1,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Req {
    Warm(usize),
    Estimate(usize),
    /// A cold `/simulate` with this trace seed.
    Cold(u64),
}

impl Req {
    fn class(self) -> usize {
        match self {
            Req::Warm(_) => 0,
            Req::Estimate(_) => 1,
            Req::Cold(_) => 2,
        }
    }

    fn cold_seed(self) -> Option<u64> {
        match self {
            Req::Cold(seed) => Some(seed),
            _ => None,
        }
    }

    fn span_name(self) -> &'static str {
        ["request.warm", "request.estimate", "request.cold"][self.class()]
    }
}

/// The bodies and expected responses every connection draws from.
struct Mix {
    seed: u64,
    smoke: bool,
    /// `(body, expected /simulate response, expected /estimate response)`.
    warm: Vec<(String, String, String)>,
}

impl Mix {
    fn new(cfg: &RunCfg, out: &mut Outcome) -> Option<(Mix, Vec<SimCase>)> {
        let cases = warm_cases(cfg.seed, cfg.smoke);
        let mut warm = Vec::new();
        for c in &cases {
            match c.golden_simulate() {
                Ok(g) => warm.push((c.body(), g, c.golden_estimate())),
                Err(e) => {
                    out.check(false, || format!("golden run failed: {e}"));
                    return None;
                }
            }
        }
        Some((
            Mix {
                seed: cfg.seed,
                smoke: cfg.smoke,
                warm,
            },
            cases,
        ))
    }

    /// Connection `conn`'s request sequence in load phase `phase`: blocks
    /// of 50 requests with 44 warm, 5 estimate and 1 cold, the two
    /// connections' cold requests half a block apart. Cold trace seeds
    /// are fresh per request and phase.
    fn stream(&self, conn: usize, phase: u64) -> impl Iterator<Item = Req> + '_ {
        let mut rng = self.seed ^ (phase << 32) ^ (0x5EED_0000 + conn as u64);
        let cold_at = conn * BLOCK / CONNECTIONS;
        let (mut warm, mut est) = (conn, conn);
        (0..).map(move |i: usize| {
            let j = i % BLOCK;
            if j == cold_at {
                Req::Cold(splitmix64(&mut rng))
            } else if j % 10 == 7 {
                est += 1;
                Req::Estimate(est % self.warm.len())
            } else {
                warm += 1;
                Req::Warm(warm % self.warm.len())
            }
        })
    }

    /// Path, body and expected response of `req` (cold responses are
    /// checked after the run).
    fn request(&self, req: Req) -> (&'static str, String, Option<&str>) {
        match req {
            Req::Warm(i) => ("/simulate", self.warm[i].0.clone(), Some(&self.warm[i].1)),
            Req::Estimate(i) => ("/estimate", self.warm[i].0.clone(), Some(&self.warm[i].2)),
            Req::Cold(seed) => ("/simulate", cold_case(seed, self.smoke).body(), None),
        }
    }
}

/// One keep-alive connection that re-dials after a transport error.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            let _ = s.set_nodelay(true);
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let deadline = Instant::now() + Duration::from_secs(30);
        let result = write_request(stream, method, path, body)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream, deadline).map_err(|e| format!("read: {e}")));
        if result.is_err() {
            self.stream = None;
        }
        result
    }
}

/// What one connection saw.
#[derive(Default)]
struct Log {
    /// Latency in seconds per class (warm, estimate, cold).
    latency: [Vec<f64>; 3],
    /// Open loop only: how late each request was sent.
    late: Vec<f64>,
    requests: u64,
    /// Non-200 responses, transport errors, and wrong response bodies.
    failures: u64,
    /// Cold `(trace seed, response body)` pairs, checked after the run.
    cold: Vec<(u64, Vec<u8>)>,
    /// Requests per kind, for the worker busy-time estimate.
    counts: HashMap<Req, u64>,
}

impl Log {
    fn record(
        &mut self,
        req: Req,
        latency: f64,
        result: Result<(u16, Vec<u8>), String>,
        expect: Option<&str>,
    ) {
        self.requests += 1;
        self.latency[req.class()].push(latency);
        let key = match req {
            Req::Cold(_) => Req::Cold(0),
            r => r,
        };
        *self.counts.entry(key).or_default() += 1;
        match result {
            Ok((200, body)) => match (req, expect) {
                (Req::Cold(seed), _) => self.cold.push((seed, body)),
                (_, Some(e)) if body == e.as_bytes() => {}
                _ => self.failures += 1,
            },
            Ok(_) | Err(_) => self.failures += 1,
        }
    }

    fn merge(logs: Vec<Log>) -> Log {
        let mut all = Log::default();
        for l in logs {
            for c in 0..3 {
                all.latency[c].extend(&l.latency[c]);
            }
            all.late.extend(l.late);
            all.requests += l.requests;
            all.failures += l.failures;
            all.cold.extend(l.cold);
            for (k, n) in l.counts {
                *all.counts.entry(k).or_default() += n;
            }
        }
        all
    }

    fn all_latencies(&self) -> Vec<f64> {
        self.latency.concat()
    }
}

/// Closed loop: every connection sends its next request when the previous
/// reply arrives, `per_conn` requests each. Returns the merged log and the
/// wall time.
fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    phase: u64,
    per_conn: usize,
    trace: Option<(&Tracer, &Open)>,
) -> (Log, f64) {
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut log = Log::default();
                    barrier.wait();
                    for req in mix.stream(conn, phase).take(per_conn) {
                        let (path, body, expect) = mix.request(req);
                        let span = trace.map(|(t, parent)| {
                            t.start_trace(req.span_name(), "serve", Some(parent))
                        });
                        let t0 = Instant::now();
                        let result = client.roundtrip("POST", path, body.as_bytes());
                        let latency = t0.elapsed().as_secs_f64();
                        if let (Some((t, _)), Some(span)) = (trace, span) {
                            t.end(span);
                        }
                        log.record(req, latency, result, expect);
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<Log> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (Log::merge(logs), start.elapsed().as_secs_f64())
    })
}

/// Open loop: every connection sends on a fixed schedule of `rate`
/// requests per second for `dur`; latency runs from the scheduled send
/// time, so a stall also delays every request queued behind it.
fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    phase: u64,
    dur: Duration,
    rate: f64,
    trace: Option<(&Tracer, &Open)>,
) -> Log {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut log = Log::default();
                    let mut reqs = mix.stream(conn, phase);
                    barrier.wait();
                    let start = Instant::now();
                    let mut prev_done = start;
                    for i in 0u32.. {
                        let due = start + interval * i;
                        if due >= start + dur {
                            break;
                        }
                        let req = reqs.next().expect("the mix never ends");
                        let (path, body, expect) = mix.request(req);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let span = trace.map(|(t, parent)| {
                            t.start_trace(req.span_name(), "serve", Some(parent))
                        });
                        let sent = Instant::now();
                        let result = client.roundtrip("POST", path, body.as_bytes());
                        let done = Instant::now();
                        if let (Some((t, _)), Some(span)) = (trace, span) {
                            t.end(span);
                        }
                        log.late.push(
                            sent.saturating_duration_since(due.max(prev_done))
                                .as_secs_f64(),
                        );
                        log.record(req, done.duration_since(due).as_secs_f64(), result, expect);
                        prev_done = done;
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Log::merge(logs)
}

/// A server running on a thread of this process.
struct LocalServer {
    addr: SocketAddr,
    flag: ShutdownFlag,
    handle: JoinHandle<std::io::Result<ServerStats>>,
}

impl LocalServer {
    fn start() -> Result<LocalServer, String> {
        let config = ServerConfig {
            shards: 1,
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let flag = ShutdownFlag::new();
        let run_flag = flag.clone();
        let handle = std::thread::spawn(move || server.run(&run_flag));
        Ok(LocalServer { addr, flag, handle })
    }

    /// Drains the server and waits for every one of its threads.
    fn stop(self) -> Result<ServerStats, String> {
        self.flag.trip();
        match self.handle.join() {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(e)) => Err(format!("server error: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// The `/healthz` counters `cold_runs`, `warm_runs`, `rejected`, `shed`.
    fn health(&self) -> Option<[u64; 4]> {
        let (status, body) = Client::new(self.addr)
            .roundtrip("GET", "/healthz", b"")
            .ok()?;
        if status != 200 {
            return None;
        }
        let v = Json::parse(std::str::from_utf8(&body).ok()?).ok()?;
        let field = |f: &str| v.get(f).and_then(Json::as_u64);
        Some([
            field("cold_runs")?,
            field("warm_runs")?,
            field("rejected")?,
            field("shed")?,
        ])
    }
}

/// Sends every warm body once to `/simulate` (and, with `estimate`, once
/// to `/estimate`), checking each response.
fn send_each(addr: SocketAddr, mix: &Mix, estimate: bool, out: &mut Outcome) {
    let mut client = Client::new(addr);
    for i in 0..mix.warm.len() {
        let reqs = [Some(Req::Warm(i)), estimate.then_some(Req::Estimate(i))];
        for req in reqs.into_iter().flatten() {
            let (path, body, expect) = mix.request(req);
            let r = client.roundtrip("POST", path, body.as_bytes());
            out.check(
                matches!(&r, Ok((200, b)) if Some(b.as_slice()) == expect.map(str::as_bytes)),
                || format!("{req:?}: {:?}", r.map(|(s, _)| s)),
            );
        }
    }
}

/// Times one cold start: bind, the first request on each warm body, drain.
fn cold_start(mix: &Mix, out: &mut Outcome) -> Option<f64> {
    let t = Instant::now();
    let server = match LocalServer::start() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e);
            return None;
        }
    };
    send_each(server.addr, mix, false, out);
    let stopped = server.stop();
    let dt = t.elapsed().as_secs_f64();
    out.check(stopped.is_ok(), || format!("{stopped:?}"));
    Some(dt)
}

/// Byte-compares every cold response with its golden body (in parallel).
fn check_cold(log: &Log, smoke: bool, out: &mut Outcome) {
    let wrong: Vec<bool> = hbm_par::parallel_map_with(&log.cold, WORKERS, |(seed, body)| {
        cold_case(*seed, smoke)
            .golden_simulate()
            .map_or(true, |g| g.as_bytes() != body.as_slice())
    });
    let bad = wrong.iter().filter(|&&w| w).count();
    out.count(0, bad as u64);
    if bad > 0 {
        eprintln!("[hbm_benchmark] serve_mix FAILED: {bad} cold responses differ from SimBuilder");
    }
}

pub struct Serve {
    smoke: bool,
}

impl Serve {
    pub fn new(smoke: bool) -> Serve {
        Serve { smoke }
    }

    fn cold_starts(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    /// Requests per connection for a closed loop meant to last about `secs`
    /// on the benchmark host (~10 000 requests/s per connection), at least
    /// one block of the mix. A count, not a deadline, so every run sends the
    /// same requests and its memory use does not depend on its speed.
    fn closed_requests(&self, secs: f64) -> usize {
        let per_conn_rate = if self.smoke { 500.0 } else { 10_000.0 };
        ((secs * per_conn_rate) as usize).max(BLOCK)
    }

    /// The traced open loop's rate per connection.
    fn rate(&self) -> f64 {
        if self.smoke {
            100.0
        } else {
            1000.0
        }
    }

    pub fn run(&self, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome::new("serve_mix");
        let Some((mix, _)) = Mix::new(cfg, &mut out) else {
            return out;
        };
        let setups: Vec<f64> = (0..self.cold_starts())
            .filter_map(|_| cold_start(&mix, &mut out))
            .collect();
        let server = match LocalServer::start() {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || e);
                return out;
            }
        };
        send_each(server.addr, &mix, true, &mut out);
        let per_conn = self.closed_requests(cfg.seconds * 0.75);
        let (load, wall) = closed_loop(server.addr, &mix, 1, per_conn, None);
        let stopped = server.stop();
        out.check(stopped.is_ok(), || format!("{stopped:?}"));
        out.count(load.requests, load.failures);
        check_cold(&load, cfg.smoke, &mut out);
        let latency = load.all_latencies();
        out.set("setup_s", median(&setups), setups.len());
        out.set(
            "ops_per_s",
            load.requests as f64 / wall,
            load.requests as usize,
        );
        out.set("p50_ms", percentile(&latency, 0.50) * 1e3, latency.len());
        out.set("p99_ms", percentile(&latency, 0.99) * 1e3, latency.len());
        report_peak_rss(&mut out, Some(crate::sys::peak_rss_mb()));
        out
    }

    /// The traced run: an untraced closed-loop reference, then — under the
    /// root span — the in-process decomposition of every distinct body,
    /// the oracle checks, and a traced closed and open loop whose client
    /// spans are per request class.
    pub fn traced(&self, cfg: &RunCfg, tracer: &Tracer) -> (Outcome, u64) {
        let mut out = Outcome::new("serve_mix");
        let Some((mix, cases)) = Mix::new(cfg, &mut out) else {
            return (out, 0);
        };
        let server = match LocalServer::start() {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || e);
                return (out, 0);
            }
        };
        send_each(server.addr, &mix, true, &mut out);
        let load_dur = Duration::from_secs_f64(cfg.seconds * 0.1);
        let per_conn = self.closed_requests(cfg.seconds * 0.1);
        let (reference, reference_wall) = closed_loop(server.addr, &mix, 1, per_conn, None);
        out.count(reference.requests, reference.failures);
        check_cold(&reference, cfg.smoke, &mut out);
        let reference_rps = reference.requests as f64 / reference_wall;

        let root = tracer.start_trace("workload", NO_LAYER, None);
        let decomposed = self.decompose(&mut out, tracer, &root, &mix, &cases);

        let load = tracer.start_trace("load", NO_LAYER, Some(&root));
        let before = server.health();
        let (closed, closed_wall) =
            closed_loop(server.addr, &mix, 2, per_conn, Some((tracer, &load)));
        let open = open_loop(
            server.addr,
            &mix,
            3,
            load_dur,
            self.rate(),
            Some((tracer, &load)),
        );
        let after = server.health();
        tracer.end(load);
        let root_id = root.id();
        tracer.end(root);
        let stopped = server.stop();
        out.check(stopped.is_ok(), || format!("{stopped:?}"));
        for log in [&closed, &open] {
            out.count(log.requests, log.failures);
            check_cold(log, cfg.smoke, &mut out);
        }

        let warm_p50 = median(&closed.latency[0]);
        let in_process = median(&decomposed.warm_cost);
        out.set(
            "serve.unattributed_frac",
            (warm_p50 - in_process) / warm_p50,
            closed.latency[0].len(),
        );
        out.set(
            "serve.cold_over_warm",
            median(&closed.latency[2]) / warm_p50,
            closed.latency[2].len(),
        );
        let late = open.late.iter().filter(|&&l| l > LATE_S).count();
        out.set(
            "serve.late_frac",
            late as f64 / open.late.len().max(1) as f64,
            open.late.len(),
        );
        if let (Some(b), Some(a)) = (before, after) {
            for (i, name) in [
                "serve.cold_runs",
                "serve.warm_runs",
                "serve.rejected",
                "serve.shed",
            ]
            .into_iter()
            .enumerate()
            {
                out.set(name, a[i].saturating_sub(b[i]) as f64, 1);
            }
        }
        let busy: f64 = closed
            .counts
            .iter()
            .map(|(req, n)| *n as f64 * decomposed.cost(*req))
            .sum();
        report_par(&mut out, WORKERS, busy, closed_wall, decomposed.max_cost());
        out.set(
            "trace.overhead_frac",
            reference_rps / (closed.requests as f64 / closed_wall) - 1.0,
            1,
        );
        (out, root_id)
    }

    /// Runs every distinct body through the layers the server calls —
    /// JSON, protocol parse, trace generation, flatten, engine, report
    /// serialization; summary and model for `/estimate` — repeating each
    /// to take medians, then checks the results against the oracle.
    fn decompose(
        &self,
        out: &mut Outcome,
        tracer: &Tracer,
        root: &Open,
        mix: &Mix,
        cases: &[SimCase],
    ) -> Decomposed {
        let reps = if self.smoke { 3 } else { 50 };
        let cold_reps = if self.smoke { 2 } else { 5 };
        let limits = JsonLimits::default();
        let mut d = Decomposed::default();
        let mut totals = EngineTotals::default();
        let (mut gen_s, mut flat_s, mut refs, mut pages) = (0.0, 0.0, 0, 0);
        let mut scratch = EngineScratch::default();
        let mut sims = Vec::new();
        // A cold body no load phase sends.
        let cold_seed = mix.stream(0, 0).find_map(Req::cold_seed);
        let cold = cold_case(cold_seed.expect("the mix sends cold requests"), self.smoke);
        let sim_cases: Vec<(&SimCase, String)> = cases
            .iter()
            .zip(&mix.warm)
            .map(|(c, w)| (c, w.1.clone()))
            .chain([(&cold, cold.golden_simulate().unwrap_or_default())])
            .collect();
        let rss_before = crate::sys::rss_mb().unwrap_or(0.0);
        for (i, (case, golden)) in sim_cases.iter().enumerate() {
            let is_cold = i == cases.len();
            let body = case.body();
            let mut pool: Option<TracePool> = None;
            let (mut costs, mut setups, mut runs) = (Vec::new(), Vec::new(), Vec::new());
            let mut last = None;
            for rep in 0..if is_cold { cold_reps } else { reps } {
                let span = tracer.start_trace("body", NO_LAYER, Some(root));
                tracer.time("json.parse", "json", &span, || Json::parse(&body).is_ok());
                let (req, parse_s) = tracer.time("proto.parse", "proto", &span, || {
                    parse_sim_request(body.as_bytes(), &limits)
                });
                let mut cost = parse_s;
                let Ok(req) = req else {
                    out.check(false, || format!("body does not parse: {body}"));
                    tracer.end(span);
                    break;
                };
                if is_cold || pool.is_none() {
                    let (p, g) = tracer.time("traces.generate", "traces", &span, || {
                        TracePool::generate(
                            req.workload.spec,
                            req.p,
                            req.workload.trace_seed,
                            req.workload.opts,
                        )
                    });
                    let (flat, f) = tracer.time("flat.build", "flat", &span, || p.flat(req.p));
                    if rep == 0 {
                        gen_s += g;
                        flat_s += f;
                        refs += flat.total_refs();
                        pages += flat.total_pages();
                    }
                    if is_cold {
                        cost += g + f;
                    }
                    pool = Some(p);
                }
                let flat = pool.as_ref().expect("generated above").flat(req.p);
                match traced_cell(tracer, &span, &case.builder(), &flat, &mut scratch) {
                    Ok((report, setup_s, run_s)) => {
                        let (json, json_s) =
                            tracer.time("proto.report_json", "proto", &span, || {
                                report_to_json(&report)
                            });
                        out.check(json == *golden, || {
                            format!("decomposed body differs: {body}")
                        });
                        cost += setup_s + run_s + json_s;
                        setups.push(setup_s);
                        runs.push(run_s);
                        last = Some((report, flat));
                    }
                    Err(e) => {
                        out.check(false, || e);
                    }
                }
                costs.push(cost);
                tracer.end(span);
            }
            if let Some((report, flat)) = last {
                totals.add(&report, median(&setups), median(&runs));
                let (ok, _) = tracer.time("oracle.check", "oracle", root, || {
                    oracle_matches(&case.builder(), &flat, &report)
                });
                d.oracle_cells += 1;
                if !out.check(ok, || format!("oracle mismatch: {body}")) {
                    d.oracle_mismatches += 1;
                }
                sims.push(report.makespan);
            }
            if is_cold {
                d.cold_cost = median(&costs);
            } else {
                d.warm_cost.push(median(&costs));
            }
        }
        let rss_delta = crate::sys::rss_mb().unwrap_or(0.0) - rss_before;

        let mut summaries = Vec::new();
        let mut summary_s = 0.0;
        for (case, w) in cases.iter().zip(&mix.warm) {
            let mut costs = Vec::new();
            let mut summary_times = Vec::new();
            let mut summary = None;
            for _ in 0..reps {
                let span = tracer.start_trace("body", NO_LAYER, Some(root));
                tracer.time("json.parse", "json", &span, || Json::parse(&w.0).is_ok());
                let (_, parse_s) = tracer.time("proto.parse", "proto", &span, || {
                    parse_sim_request(w.0.as_bytes(), &limits).is_ok()
                });
                let (s, sum_s) =
                    tracer.time("analysis.summary", "analysis", &span, || case.summary());
                let (pred, pred_s) = tracer.time("model.predict", "model", &span, || {
                    predict(&s, &case.model_config())
                });
                let (json, json_s) = tracer.time("proto.estimate_json", "proto", &span, || {
                    estimate_to_json(&pred)
                });
                out.check(json == w.2, || {
                    format!("decomposed estimate differs: {}", w.0)
                });
                costs.push(parse_s + sum_s + pred_s + json_s);
                summary_times.push(sum_s);
                summary = Some(s);
                tracer.end(span);
            }
            summary_s += median(&summary_times);
            d.estimate_cost.push(median(&costs));
            summaries.extend(summary);
        }
        let model_cells: Vec<_> = summaries
            .iter()
            .zip(cases)
            .map(|(s, c)| (s, c.model_config()))
            .collect();
        let ((preds, predict_ns), _) = tracer.time("model.predict", "model", root, || {
            time_predicts(&model_cells, 100_000)
        });
        let pairs: Vec<_> = preds.into_iter().zip(sims.iter().copied()).collect();

        out.set("traces.gen_s", gen_s, sim_cases.len());
        out.set("traces.refs", refs as f64, sim_cases.len());
        out.set("flat.build_s", flat_s, sim_cases.len());
        out.set(
            "flat.ns_per_ref",
            flat_s * 1e9 / refs.max(1) as f64,
            sim_cases.len(),
        );
        out.set("flat.pages", pages as f64, sim_cases.len());
        out.set("flat.rss_delta_mb", rss_delta, 1);
        totals.report(out);
        out.set("analysis.summary_s", summary_s, cases.len());
        out.set("model.predict_ns", predict_ns, model_cells.len());
        report_model(out, &pairs);
        out.set("oracle.cells", d.oracle_cells as f64, d.oracle_cells);
        out.set(
            "oracle.mismatches",
            d.oracle_mismatches as f64,
            d.oracle_cells,
        );
        d
    }
}

/// Median in-process cost of each request kind, from the decomposition.
#[derive(Debug, Default)]
struct Decomposed {
    warm_cost: Vec<f64>,
    estimate_cost: Vec<f64>,
    cold_cost: f64,
    oracle_cells: usize,
    oracle_mismatches: usize,
}

impl Decomposed {
    fn cost(&self, req: Req) -> f64 {
        match req {
            Req::Warm(i) => self.warm_cost.get(i).copied().unwrap_or(0.0),
            Req::Estimate(i) => self.estimate_cost.get(i).copied().unwrap_or(0.0),
            Req::Cold(_) => self.cold_cost,
        }
    }

    fn max_cost(&self) -> f64 {
        self.warm_cost
            .iter()
            .chain(&self.estimate_cost)
            .fold(self.cold_cost, |m, &c| m.max(c))
    }
}
