//! The service workload: an in-process `serenity_serve::Server` — two
//! workers, a default cache, the adaptive backend, as `serenity serve
//! --threads 2` runs — driven over loopback by two closed-loop clients,
//! each holding one keep-alive connection.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hasher;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;
use serenity_core::backend::AdaptiveBackend;
use serenity_core::{CancelToken, CompileCache};
use serenity_ir::fxhash::FxHasher;
use serenity_ir::json::{from_json_checked, ImportLimits};
use serenity_serve::http::Request;
use serenity_serve::{CompileService, Server, ServerConfig, ServiceConfig};

use crate::inputs::ServePlan;
use crate::report::{layers, rss_peak_mb, Metric, Outcome};
use crate::stats::{blocked_percentile, geomean, least_disturbed, percentile, ratio, BLOCK};
use crate::trace::Recorder;

/// Load threads, each with one connection (and server workers to match).
const CLIENTS: usize = 2;
/// Requests of the traced run.
const TRACED_REQUESTS: usize = 300;

fn service() -> CompileService {
    CompileService::new(
        Arc::new(AdaptiveBackend::default()),
        Arc::new(CompileCache::new()),
        ServiceConfig::default(),
    )
}

/// A keep-alive HTTP/1.1 client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.writer.write_all(&request)
    }

    fn receive(&mut self) -> io::Result<(u16, String)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or(bad("status"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-response"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(|_| bad("utf-8 body"))?))
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.receive()
    }
}

/// The `result` object of a compile response, as the bytes the server sent.
fn result_of(body: &str) -> Option<&str> {
    let start = body.strip_prefix("{\"result\":")?;
    Some(&start[..start.rfind(",\"meta\":")?])
}

fn hash(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// A running server whose cache holds the initial family. Dropping it
/// stops the server; close every client connection first, or a worker waits
/// out its read timeout.
pub struct Warm {
    server: Option<Server>,
}

impl Warm {
    /// Spawns a server and runs the cold pass over the initial family.
    pub fn start(plan: &ServePlan) -> Result<Warm, String> {
        let config = ServerConfig { threads: CLIENTS, ..ServerConfig::default() };
        let server = Server::spawn(config, Arc::new(service())).map_err(|e| e.to_string())?;
        let warm = Warm { server: Some(server) };
        let mut client = Client::connect(warm.addr()).map_err(|e| e.to_string())?;
        for input in &plan.graphs[..plan.initial] {
            match client.request("POST", "/compile", &input.json) {
                Ok((200, _)) => {}
                Ok((status, body)) => {
                    return Err(format!("cold pass: {}: {status} {body}", input.id))
                }
                Err(e) => return Err(format!("cold pass: {}: {e}", input.id)),
            }
        }
        Ok(warm)
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running until dropped").addr()
    }

    fn status(&self) -> Value {
        Client::connect(self.addr())
            .and_then(|mut c| c.request("GET", "/status", ""))
            .ok()
            .and_then(|(_, body)| serde_json::from_str(&body).ok())
            .unwrap_or(Value::Null)
    }
}

impl Drop for Warm {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

struct Sample {
    graph: usize,
    ms: f64,
    /// When the response arrived, in seconds since the timed run started.
    done: f64,
    status: u16,
    result: u64,
}

/// The timed run: both clients walk the request stream for `seconds`, or
/// until it ends; then every served `result` is compared with an in-process
/// compile of the same graph. `corrupt` damages one served result first, so
/// tests can see the gate fire.
pub fn run(plan: &ServePlan, warm: Warm, setup_s: f64, seconds: f64, corrupt: bool) -> Outcome {
    let next = AtomicUsize::new(0);
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_loop(plan, warm.addr(), &next, started, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    drop(warm);

    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for (s, notes) in per_client {
        samples.extend(s);
        failures.extend(notes);
    }
    if corrupt {
        if let Some(sample) = samples.iter_mut().find(|s| s.status == 200) {
            sample.result ^= 1;
        }
    }

    // The gate: one cold, single-threaded in-process compile per distinct
    // graph, through a fresh service each, is the oracle. The initial family
    // is always checked: its results are the run's quality metrics, which
    // then do not depend on how far the run got. A failed reference counts
    // once per request that needed it, or once on its own if none did.
    let served: BTreeSet<usize> = samples.iter().map(|s| s.graph).collect();
    let (mut attempted, mut failed) = (samples.len() as u64, 0u64);
    let mut reference: HashMap<usize, String> = HashMap::new();
    for graph in served.iter().copied().chain(0..plan.initial).collect::<BTreeSet<_>>() {
        let input = &plan.graphs[graph];
        match service().compile_result_json(&input.graph) {
            Ok(text) => {
                reference.insert(graph, text);
            }
            Err(e) => {
                failures.push(format!("{}: reference compile failed: {e}", input.id));
                if !served.contains(&graph) {
                    attempted += 1;
                    failed += 1;
                }
            }
        }
    }
    // One check per request: its status, then its `result` bytes.
    for sample in &samples {
        let id = &plan.graphs[sample.graph].id;
        if sample.status != 200 {
            failed += 1;
            failures.push(format!("{id}: HTTP {}", sample.status));
        } else if reference.get(&sample.graph).is_none_or(|text| hash(text) != sample.result) {
            failed += 1;
            failures.push(format!("{id}: served result differs from the in-process compile"));
        }
    }
    failures.truncate(20);

    let (mut peak, mut arena) = (Vec::new(), Vec::new());
    for (graph, input) in plan.graphs[..plan.initial].iter().enumerate() {
        let Some(text) = reference.get(&graph) else { continue };
        let result: Value = serde_json::from_str(text).expect("service results are JSON");
        if let Some(p) = result["peak_bytes"].as_u64().filter(|&p| p > 0) {
            peak.push(input.kahn_peak() as f64 / p as f64);
        }
        if let Some(a) = result["arena_bytes"].as_u64().filter(|&a| a > 0) {
            arena.push(input.kahn_arena() as f64 / a as f64);
        }
    }

    // Timings are taken per block of consecutive responses; every block of
    // 100 holds the stream's ten fresh cells.
    samples.sort_by(|a, b| a.done.total_cmp(&b.done));
    let latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let n = latencies.len();
    let ends: Vec<f64> = samples.iter().skip(BLOCK - 1).step_by(BLOCK).map(|s| s.done).collect();
    let durations: Vec<f64> =
        std::iter::once(0.0).chain(ends.iter().copied()).zip(&ends).map(|(a, b)| b - a).collect();
    let rate = least_disturbed(&durations).map_or(n as f64 / wall, |d| BLOCK as f64 / d);
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let fresh = served.iter().filter(|&&g| g >= plan.initial).count();
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::sampled("latency_ms.p50", "ms", blocked_percentile(&latencies, BLOCK, 0.5), n),
            Metric::sampled("latency_ms.p90", "ms", blocked_percentile(&latencies, BLOCK, 0.9), n),
            Metric::sampled("ops_per_s", "1/s", Some(rate), n),
            Metric::new("rss_peak_mb", "MB", rss_peak_mb()),
            Metric::new("peak_reduction_x", "x", geomean(&peak)),
            Metric::new("arena_reduction_x", "x", geomean(&arena)),
        ],
        extra: vec![
            Metric::sampled("latency_ms.p99", "ms", percentile(&sorted, 0.99), n),
            Metric::new("failed_frac", "ratio", failed as f64 / attempted.max(1) as f64),
            Metric::new("fresh_graphs", "count", fresh as f64),
        ],
        failures,
    }
}

/// One client's closed loop; a request that gets no response is a sample
/// with status 0.
fn client_loop(
    plan: &ServePlan,
    addr: SocketAddr,
    next: &AtomicUsize,
    started: Instant,
    deadline: Duration,
) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::new();
    let mut notes = Vec::new();
    let mut client = Client::connect(addr);
    while started.elapsed() < deadline {
        let Some(&graph) = plan.sequence.get(next.fetch_add(1, Ordering::Relaxed)) else {
            break;
        };
        let t = Instant::now();
        let response = match client.as_mut() {
            Ok(conn) => conn.request("POST", "/compile", &plan.graphs[graph].json),
            Err(e) => Err(io::Error::new(e.kind(), format!("cannot connect: {e}"))),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let done = started.elapsed().as_secs_f64();
        match response {
            Ok((status, body)) => {
                let result = hash(result_of(&body).unwrap_or(""));
                samples.push(Sample { graph, ms, done, status, result });
            }
            Err(e) => {
                notes.push(format!("{}: {e}", plan.graphs[graph].id));
                samples.push(Sample { graph, ms, done, status: 0, result: 0 });
                client = Client::connect(addr);
            }
        }
    }
    (samples, notes)
}

fn delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let get = |v: &Value| path.iter().fold(v, |v, key| &v[*key]).as_u64().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// One serial pass over the traced requests against a freshly warmed
/// server.
struct Pass {
    wall: Duration,
    latency_ms: Vec<f64>,
    /// Each response's `result` bytes (`None` on a failed request).
    results: Vec<Option<String>>,
    /// The service's own time for each request (`meta.request_micros`).
    served_ms: Vec<f64>,
    before: Value,
    after: Value,
}

fn pass(
    plan: &ServePlan,
    requests: &[usize],
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let warm = Warm::start(plan)?;
    let before = warm.status();
    let started = Instant::now();
    let connect = || Client::connect(warm.addr());
    let mut client = match rec.as_deref_mut() {
        Some(rec) => rec.time("client.connect", None, "client", connect),
        None => connect(),
    }
    .map_err(|e| e.to_string())?;
    let (mut latency_ms, mut results, mut served_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &graph) in requests.iter().enumerate() {
        let body = &plan.graphs[graph].json;
        let t = Instant::now();
        let response = match rec.as_deref_mut() {
            Some(rec) => {
                let id = format!("request {i}: {}", plan.graphs[graph].id);
                let span = rec.open("request", None, &id);
                let sent = rec.time("client.write", Some(span), &id, || {
                    client.send("POST", "/compile", body)
                });
                let got = sent
                    .and_then(|()| rec.time("client.read", Some(span), &id, || client.receive()));
                rec.close(span);
                got
            }
            None => client.request("POST", "/compile", body),
        };
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = response.ok().filter(|(status, _)| *status == 200).map(|(_, body)| body);
        let meta: Value =
            ok.as_deref().and_then(|b| serde_json::from_str(b).ok()).unwrap_or(Value::Null);
        served_ms.push(meta["meta"]["request_micros"].as_u64().unwrap_or(0) as f64 / 1e3);
        results.push(ok.as_deref().and_then(result_of).map(str::to_string));
    }
    let wall = started.elapsed();
    drop(client);
    let after = warm.status();
    Ok(Pass { wall, latency_ms, results, served_ms, before, after })
}

/// The traced run: the first requests of the stream, sent serially, once
/// untraced and once traced (client connect/write/read spans) against
/// identically warmed servers. Then a shadow `CompileService` handles the
/// same sequence serially, so its cache evolves the same way, and the
/// import of the same bodies is timed on its own.
pub fn trace(plan: &ServePlan, rec: &mut Recorder) -> Outcome {
    let requests: Vec<usize> = plan.sequence.iter().copied().take(TRACED_REQUESTS).collect();
    let (untraced, traced) = match (pass(plan, &requests, None), pass(plan, &requests, Some(rec))) {
        (Ok(u), Ok(t)) => (u, t),
        (Err(e), _) | (_, Err(e)) => {
            return Outcome {
                attempted: requests.len() as u64,
                failed: requests.len() as u64,
                metrics: layers(&[]),
                extra: vec![],
                failures: vec![e],
            }
        }
    };

    let shadow = service();
    let cancel = CancelToken::new();
    let request = |body: &str| Request {
        method: "POST".to_string(),
        path: "/compile".to_string(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    for input in &plan.graphs[..plan.initial] {
        shadow.handle(&request(&input.json), &cancel);
    }
    let mut failures = Vec::new();
    for (i, &graph) in requests.iter().enumerate() {
        let input = &plan.graphs[graph];
        let id = format!("request {i}: {}", input.id);
        let r = request(&input.json);
        let response = rec.time("serve.handle", None, &id, || shadow.handle(&r, &cancel));
        let _ = rec.time("ir.json.parse", None, &id, || {
            from_json_checked(&input.json, &ImportLimits::default())
        });
        let shadow_result = response.as_ref().and_then(|r| result_of(&r.body));
        let served = [&untraced.results[i], &traced.results[i]];
        if shadow_result.is_none() || served.iter().any(|s| s.as_deref() != shadow_result) {
            failures.push(format!("{id}: served and shadow results differ or failed"));
        }
    }

    let status = |path: &[&str]| delta(&traced.before, &traced.after, path);
    let (hits, misses) = (status(&["cache", "hits"]), status(&["cache", "misses"]));
    let http_ms: f64 = traced
        .latency_ms
        .iter()
        .zip(&traced.served_ms)
        .map(|(client, served)| client - served)
        .sum();
    let untraced_ms: f64 = untraced.latency_ms.iter().sum();
    let compile_p50 = traced.after["compile_latency"]["p50_micros"].as_u64().unwrap_or(0);
    let measured = [
        ("ir.json.parse_ms", rec.total_ms("ir.json.parse")),
        ("serve.handle_ms", rec.total_ms("serve.handle")),
        ("serve.http_ms", http_ms),
        ("serve.compile_latency_ms.p50", compile_p50 as f64 / 1e3),
        ("core.cache.hit_ratio", ratio(hits, hits + misses)),
        ("core.cache.insertions", status(&["cache", "insertions"])),
        ("core.cache.evictions", status(&["cache", "evictions"])),
        ("serve.singleflight.coalesced", status(&["singleflight", "coalesced"])),
        ("serve.shed", status(&["robustness", "shed"])),
        ("trace.coverage", ratio(rec.children_ms("request"), untraced_ms)),
        ("trace.overhead", ratio(traced.wall.as_secs_f64(), untraced.wall.as_secs_f64())),
    ];
    let failed = failures.len() as u64;
    failures.truncate(20);
    Outcome {
        attempted: requests.len() as u64,
        failed,
        metrics: layers(&measured),
        extra: vec![Metric::new("trace.untraced_ms", "ms", untraced_ms)],
        failures,
    }
}
