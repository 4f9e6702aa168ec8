//! The socket layer: a `std::net` thread-per-connection server with a
//! bounded accept queue and a per-compile client-disconnect watchdog.
//!
//! # Threading model
//!
//! One acceptor thread pushes accepted connections into a bounded queue;
//! a fixed pool of worker threads pops them and runs the keep-alive
//! request loop. When the queue is full the acceptor answers `503` inline
//! and drops the connection — under overload the service sheds load at
//! the door instead of accumulating unbounded compile backlog.
//!
//! # Disconnect cancellation
//!
//! A compile can run for seconds; a client that hangs up mid-compile
//! should stop consuming a worker. While a compile runs, a watchdog
//! thread `peek`s the connection (via [`TcpStream::try_clone`], with a
//! short shared read timeout): end-of-stream means the client is gone, and
//! the watchdog trips the request's [`CancelToken`] so the pipeline bails
//! at its next check point. This is sound precisely because the worker
//! thread never reads the socket while the compile is in flight — the
//! watchdog is the only reader, and it only peeks. Once the compile
//! finishes the worker restores its own (longer) read timeout before the
//! next keep-alive request.
//!
//! # Panic containment and self-healing
//!
//! Request handling runs under `catch_unwind`: a panic anywhere in the
//! service (a backend bug, an injected fault) is contained to the one
//! request, which gets a structured `500` before its connection closes.
//! The panicking worker thread then *recycles itself* — it spawns an
//! identical replacement and exits — so the pool never shrinks no matter
//! how many requests crash. Both events are counted
//! (`robustness.worker_panics` / `workers_respawned` on `GET /status`).

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use serenity_core::fault::panic_message;
use serenity_core::{CancelToken, FaultPoint};

use crate::http::{read_request, write_response, ReadError};
use crate::service::{CompileService, ErrorKind};

/// Socket-level configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads (each handles one connection at a time).
    pub threads: usize,
    /// Accepted connections waiting for a worker before the acceptor
    /// starts shedding with `503`.
    pub queue_capacity: usize,
    /// Hard cap on a request body (pre-allocation check against the
    /// declared `Content-Length`).
    pub max_body_bytes: u64,
    /// Per-read socket timeout between requests on a keep-alive
    /// connection; an idle connection is closed after this long.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_capacity: 64,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// How often the disconnect watchdog polls the socket while a compile is
/// in flight. Also the shared socket read timeout during that window.
const WATCHDOG_TICK: Duration = Duration::from_millis(100);

struct Inner {
    service: Arc<CompileService>,
    config: ServerConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Live worker threads. Held by `Inner` (not `Server`) because a
    /// worker that recycles itself after a contained panic registers its
    /// replacement here; `Server::join` drains until it is empty.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips the shutdown flag and wakes every thread that might be
    /// blocked: workers on the condvar, the acceptor via a throwaway
    /// connection to our own listener.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running compile server (see the module docs).
pub struct Server {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
}

/// A cloneable remote control for a running [`Server`]: lets a signal
/// monitor (or any other thread) trigger the same graceful drain as
/// [`Server::shutdown`] without borrowing the server itself.
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle").field("addr", &self.inner.addr).finish()
    }
}

impl ShutdownHandle {
    /// Begins the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.inner.addr).finish()
    }
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    pub fn spawn(config: ServerConfig, service: Arc<CompileService>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        service.robustness().queue_capacity.store(config.queue_capacity as u64, Ordering::Relaxed);
        let inner = Arc::new(Inner {
            service,
            config,
            addr,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        {
            let mut workers = inner.workers.lock().unwrap_or_else(PoisonError::into_inner);
            for _ in 0..threads {
                let inner = Arc::clone(&inner);
                workers.push(std::thread::spawn(move || worker_loop(&inner)));
            }
        }

        Ok(Server { inner, acceptor: Some(acceptor) })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Asks the server to stop: no new connections are accepted, queued
    /// connections are drained, and workers exit after their current
    /// connection. Returns immediately; use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// A remote control that can trigger the same graceful drain from
    /// another thread (e.g. a SIGTERM monitor) while [`Server::join`]
    /// holds the server itself.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { inner: Arc::clone(&self.inner) }
    }

    /// Blocks until the server has fully stopped (either via
    /// [`Server::shutdown`], a [`ShutdownHandle`], or an authorised
    /// `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Workers may recycle themselves (registering replacements) while
        // we drain, so re-check until the list is empty.
        loop {
            let handle = {
                let mut workers = self.inner.workers.lock().unwrap_or_else(PoisonError::into_inner);
                workers.pop()
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Inner) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Responses go out in one write each (see `write_response`); with
        // Nagle off they leave at once instead of waiting for the client's
        // delayed ACK. Set before the shed path below writes.
        let _ = stream.set_nodelay(true);
        let mut queue = inner.lock_queue();
        if queue.len() >= inner.config.queue_capacity {
            drop(queue);
            // Shed at the door: a full queue means every worker is busy
            // and a backlog is already waiting. The baked-in Retry-After
            // header tells clients this is transient.
            inner.service.robustness().shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                503,
                &error_body(ErrorKind::Overload, "request queue is full"),
                false,
                false,
            );
            continue;
        }
        queue.push_back(stream);
        inner.service.robustness().queue_depth.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        inner.wake.notify_one();
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let stream = {
            let mut queue = inner.lock_queue();
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = inner
                    .wake
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let Some(stream) = stream else { return };
        inner.service.robustness().queue_depth.fetch_sub(1, Ordering::Relaxed);
        if handle_connection(stream, inner) {
            // A request panicked on this thread. The unwind was contained
            // and the client got its 500, but the thread retires anyway
            // and hands its slot to a fresh replacement: the pool never
            // shrinks, and a worker with possibly-poisoned thread-locals
            // never serves another request. Register the replacement
            // BEFORE exiting so `Server::join` cannot observe a gap.
            let replacement = {
                let inner = Arc::clone(inner);
                std::thread::spawn(move || worker_loop(&inner))
            };
            inner.workers.lock().unwrap_or_else(PoisonError::into_inner).push(replacement);
            inner.service.robustness().workers_respawned.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Serves one connection, then shuts the socket down explicitly. Returns
/// whether a request panicked (the worker then recycles itself).
///
/// The explicit `shutdown` matters: a detached watchdog may still hold a
/// cloned fd for up to one tick, and a plain drop would delay the FIN
/// until that clone closes — `shutdown` sends it immediately, so clients
/// reading to end-of-stream see the connection end when the response does.
fn handle_connection(mut stream: TcpStream, inner: &Inner) -> bool {
    let panicked = serve_connection(&mut stream, inner);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    panicked
}

/// Runs the keep-alive request loop on one connection until the client
/// closes, errs, or the server shuts down. Returns whether a request
/// panicked.
fn serve_connection(stream: &mut TcpStream, inner: &Inner) -> bool {
    if stream.set_read_timeout(Some(inner.config.read_timeout)).is_err() {
        return false;
    }
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let request = match read_request(stream, inner.config.max_body_bytes) {
            Ok(request) => request,
            // Normal ends of a connection: peer closed, or went idle past
            // the timeout.
            Err(ReadError::Closed | ReadError::Timeout | ReadError::Io(_)) => return false,
            Err(e @ ReadError::Malformed(_)) => {
                let _ = write_response(
                    stream,
                    400,
                    &error_body(ErrorKind::Http, &e.to_string()),
                    false,
                    false,
                );
                return false;
            }
            // An oversized body is a property of the request, not the
            // moment: no Retry-After on this 413.
            Err(e @ ReadError::BodyTooLarge { .. }) => {
                let _ = write_response(
                    stream,
                    413,
                    &error_body(ErrorKind::Limit, &e.to_string()),
                    false,
                    false,
                );
                return false;
            }
        };
        let keep_alive = request.keep_alive();
        let is_compile = request.method == "POST" && request.path == "/compile";

        let cancel = CancelToken::new();
        let watchdog = if is_compile { spawn_watchdog(stream, &cancel) } else { None };
        // Contain any panic in the service: the one request dies with a
        // structured 500, never the worker (and never the process).
        let handled = catch_unwind(AssertUnwindSafe(|| inner.service.handle(&request, &cancel)));
        if let Some(done) = watchdog {
            // Signal the watchdog and move on WITHOUT joining it: it may
            // be mid-`peek` and joining would add up to a full tick to
            // every response. A lingering watchdog is harmless — `peek`
            // never consumes bytes, and it exits at its next wake-up.
            done.store(true, Ordering::SeqCst);
            // The watchdog shortened the shared read timeout; restore ours
            // before the next keep-alive read.
            if stream.set_read_timeout(Some(inner.config.read_timeout)).is_err() {
                return false;
            }
        }
        let response = match handled {
            Ok(response) => response,
            Err(payload) => {
                inner.service.robustness().worker_panics.fetch_add(1, Ordering::Relaxed);
                let detail = serde_json::to_string(&panic_message(payload.as_ref()))
                    .unwrap_or_else(|_| "\"\"".to_string());
                let body = format!(
                    "{{\"error\":{{\"kind\":\"{}\",\"detail\":{detail}}}}}",
                    ErrorKind::Panic.as_str()
                );
                let _ = write_response(stream, 500, &body, false, false);
                return true;
            }
        };

        let Some(response) = response else {
            // Client disconnected mid-compile: nothing to write.
            return false;
        };
        // Injected socket-reset fault: drop the connection instead of
        // writing the compile response, exactly as a flaky network would.
        if is_compile {
            if let Some(fault) = inner.service.fault() {
                if fault.should_fire(FaultPoint::SocketReset) {
                    inner.service.robustness().socket_resets.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let wrote = write_response(
            stream,
            response.status,
            &response.body,
            keep_alive,
            response.retry_after,
        )
        .is_ok();
        if response.shutdown {
            inner.begin_shutdown();
            return false;
        }
        if !wrote || !keep_alive {
            return false;
        }
    }
}

/// JSON error body for transport-level failures (the service never saw
/// the request, so this mirrors its `{"error":{kind,detail}}` shape).
fn error_body(kind: ErrorKind, detail: &str) -> String {
    let detail = serde_json::to_string(detail).unwrap_or_else(|_| "\"\"".to_string());
    format!("{{\"error\":{{\"kind\":\"{}\",\"detail\":{detail}}}}}", kind.as_str())
}

/// Watches `stream` for end-of-file while a compile runs, tripping
/// `cancel` if the client goes away. Returns the done flag (the thread is
/// detached — see `handle_connection`), or `None` if the socket could not
/// be cloned (then the compile simply runs without disconnect detection).
fn spawn_watchdog(stream: &TcpStream, cancel: &CancelToken) -> Option<Arc<AtomicBool>> {
    let clone = stream.try_clone().ok()?;
    // Shared with the worker's handle of the socket — restored by the
    // worker after the compile (the worker does not read meanwhile).
    clone.set_read_timeout(Some(WATCHDOG_TICK)).ok()?;
    let done = Arc::new(AtomicBool::new(false));
    let cancel = cancel.clone();
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let mut probe = [0u8; 1];
        while !flag.load(Ordering::SeqCst) {
            match clone.peek(&mut probe) {
                // End of stream: the client hung up.
                Ok(0) => {
                    cancel.cancel();
                    return;
                }
                // Bytes waiting (a pipelined request): the client is
                // alive; stop polling so we don't spin on the ready data.
                Ok(_) => return,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                // Any hard socket error: treat the client as gone.
                Err(_) => {
                    cancel.cancel();
                    return;
                }
            }
        }
    });
    Some(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use serenity_core::backend::AdaptiveBackend;
    use serenity_core::CompileCache;
    use serenity_ir::json::to_json;
    use serenity_ir::{DType, GraphBuilder, Padding};
    use std::io::{Read as _, Write as _};

    fn demo_graph() -> serenity_ir::Graph {
        let mut b = GraphBuilder::new("server-demo");
        let x = b.image_input("x", 8, 8, 4, DType::F32);
        let l = b.conv1x1(x, 4).unwrap();
        let r = b.conv1x1(x, 4).unwrap();
        let cat = b.concat(&[l, r]).unwrap();
        let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same).unwrap();
        b.mark_output(y);
        b.finish()
    }

    fn spawn_server() -> Server {
        let service = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig { allow_shutdown: true, ..ServiceConfig::default() },
        );
        Server::spawn(ServerConfig { threads: 2, ..ServerConfig::default() }, Arc::new(service))
            .unwrap()
    }

    /// Sends one request and reads one full response off the same
    /// connection; returns (status, body).
    fn roundtrip(stream: &mut TcpStream, raw: &str) -> (u16, String) {
        stream.write_all(raw.as_bytes()).unwrap();
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> (u16, String) {
        let mut bytes = Vec::new();
        let mut byte = [0u8; 1];
        while !bytes.ends_with(b"\r\n\r\n") {
            assert_ne!(stream.read(&mut byte).unwrap(), 0, "connection closed mid-head");
            bytes.push(byte[0]);
        }
        let head = String::from_utf8(bytes).unwrap();
        let status: u16 =
            head.split(' ').nth(1).expect("status line").parse().expect("numeric status");
        let length: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string)
            })
            .expect("content-length header")
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    fn post(path: &str, body: &str) -> String {
        format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
    }

    #[test]
    fn end_to_end_compile_over_a_real_socket() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let graph_json = to_json(&demo_graph());

        // Two compiles and a status check on ONE keep-alive connection.
        let (status, body) = roundtrip(&mut stream, &post("/compile", &graph_json));
        assert_eq!(status, 200, "{body}");
        let first: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(first["result"]["peak_bytes"].as_u64().unwrap() > 0);

        let (status, body) = roundtrip(&mut stream, &post("/compile", &graph_json));
        assert_eq!(status, 200);
        let second: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(second["result"], first["result"], "repeat compile is bit-identical");
        assert!(second["meta"]["cache_hits"].as_u64().unwrap() > 0, "second run hits the cache");

        let (status, body) = roundtrip(&mut stream, "GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 200);
        let parsed: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(parsed["cache"]["hits"].as_u64().unwrap() > 0);

        drop(stream);
        server.shutdown();
        server.join();
    }

    #[test]
    fn bad_requests_get_clean_http_errors() {
        let server = spawn_server();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let (status, body) = roundtrip(&mut stream, &post("/compile", "{not json"));
        assert_eq!(status, 400, "{body}");

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let (status, _) = roundtrip(&mut stream, "GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, 404);

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let (status, body) = roundtrip(&mut stream, "BOGUS\r\n\r\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("http"), "{body}");

        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_route_stops_the_server() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let (status, body) = roundtrip(
            &mut stream,
            "POST /shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(status, 200, "{body}");
        // join() returning proves the acceptor and all workers exited.
        server.join();
    }

    #[test]
    fn keep_alive_responses_do_not_wait_for_a_delayed_ack() {
        // Each response is one write on a socket with Nagle off: 25 health
        // checks on one connection take a few ms. A response sent as two
        // writes waits ~40 ms on the client's delayed ACK (~1 s for 25).
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let started = std::time::Instant::now();
        for _ in 0..25 {
            let (status, _) = roundtrip(&mut stream, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(status, 200);
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(250), "25 keep-alive requests took {elapsed:?}");
        drop(stream);
        server.shutdown();
        server.join();
    }

    #[test]
    fn client_disconnect_mid_compile_is_survivable() {
        let server = spawn_server();
        let graph_json = to_json(&demo_graph());
        // Fire a compile and hang up without reading the response.
        {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(post("/compile", &graph_json).as_bytes()).unwrap();
        } // dropped: client gone
          // The server must still answer subsequent requests normally.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let (status, body) = roundtrip(&mut stream, &post("/compile", &graph_json));
        assert_eq!(status, 200, "{body}");
        server.shutdown();
        server.join();
    }
}
