//! The TCP server: `std::net::TcpListener` + a fixed worker pool over
//! one shared [`QueryAnswerer`] (the immutable [`ServeState`](crate::ServeState) or the
//! epoch-swapping [`DynamicServeState`](crate::DynamicServeState)).
//!
//! Architecture (std only, no async runtime):
//!
//! * the calling thread runs the accept loop on a non-blocking
//!   listener, feeding connections through a bounded [`TaskQueue`]
//!   (back-pressure: a full queue blocks `accept`, the kernel backlog
//!   absorbs the burst);
//! * `workers` scoped threads pop connections and speak the
//!   line-delimited JSON protocol until the peer hangs up;
//! * shutdown is cooperative: a `shutdown` request, the appearance of
//!   the configured signal file, or an accept error flips one shared
//!   [`AtomicBool`]; the accept loop closes the queue and every worker
//!   drains out. [`serve`] then returns a final [`ServerReport`].
//!
//! `std::thread::scope` is what lets workers borrow the answerer with
//! zero `Arc`: the compiler proves every worker exits before `serve`
//! returns.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::Value;

use crate::engine::QueryAnswerer;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::pool::TaskQueue;
use crate::protocol::{err_response, ok_response, ErrorCode, ProtocolError, Query, Request};

/// Tuning knobs of one [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Per-request guard: a request whose line stalls longer than this
    /// after its first byte gets a `timeout` error and a closed
    /// connection. Idle connections (no partial request) are exempt.
    pub request_timeout: Duration,
    /// Oversize guard: a request line longer than this gets a
    /// `too_large` error and a closed connection.
    pub max_line_bytes: usize,
    /// Capacity of the accept → worker hand-off queue.
    pub queue_depth: usize,
    /// When set, the server polls for this file and shuts down
    /// gracefully as soon as it exists (the signal-file alternative to
    /// a `shutdown` request).
    pub signal_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            request_timeout: Duration::from_secs(10),
            max_line_bytes: 1 << 20,
            queue_depth: 128,
            signal_file: None,
        }
    }
}

/// What a finished [`serve`] run reports.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Final request metrics (also dumped by the CLI on shutdown).
    pub metrics: MetricsSnapshot,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// Polling tick of the accept loop and of blocked worker reads: bounds
/// how stale a shutdown signal can go unnoticed.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Runs the server until shutdown; blocks the calling thread.
///
/// The listener may be bound to port 0 — read the ephemeral port back
/// with `listener.local_addr()` *before* calling this.
pub fn serve<S: QueryAnswerer>(
    listener: TcpListener,
    state: &S,
    config: &ServeConfig,
) -> std::io::Result<ServerReport> {
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    let metrics = Metrics::new();
    let connections = AtomicU64::new(0);
    let queue: TaskQueue<TcpStream> = TaskQueue::new(config.queue_depth.max(1));
    let started = Instant::now();
    let mut accept_error: Option<std::io::Error> = None;

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| {
                while let Some(stream) = queue.pop() {
                    handle_connection(stream, state, config, &metrics, &stop, started);
                }
            });
        }
        while !stop.load(Ordering::Acquire) {
            if let Some(path) = &config.signal_file {
                if path.exists() {
                    stop.store(true, Ordering::Release);
                    break;
                }
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    connections.fetch_add(1, Ordering::Relaxed);
                    if queue.push(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    accept_error = Some(e);
                    stop.store(true, Ordering::Release);
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
        queue.close();
    });

    match accept_error {
        Some(e) => Err(e),
        None => Ok(ServerReport {
            metrics: metrics.snapshot(),
            connections: connections.load(Ordering::Relaxed),
        }),
    }
}

/// Speaks the protocol on one connection until the peer hangs up, a
/// guard trips, or the server stops.
fn handle_connection<S: QueryAnswerer>(
    stream: TcpStream,
    state: &S,
    config: &ServeConfig,
    metrics: &Metrics,
    stop: &AtomicBool,
    started: Instant,
) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    // Short socket timeout = the polling tick; the *request* timeout is
    // enforced against `deadline` below, so a slow trickled request and
    // a stopped server are both noticed within one tick.
    let _ = stream.set_read_timeout(Some(POLL_TICK));

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut deadline: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete line already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos > config.max_line_bytes {
                oversize(&mut stream, config, metrics);
                return;
            }
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            deadline = None;
            let line = String::from_utf8_lossy(&line_bytes[..pos]);
            let line = line.trim_end_matches('\r').trim();
            if line.is_empty() {
                continue;
            }
            if stop.load(Ordering::Acquire) {
                let e = ProtocolError::new(ErrorCode::ShuttingDown, "server is shutting down");
                let _ = write_line(&mut stream, &err_response(None, &e));
                return;
            }
            let t0 = Instant::now();
            let (slot, ok, response, shutdown) = dispatch(state, metrics, started, line);
            metrics.record(slot, ok, t0.elapsed());
            if write_line(&mut stream, &response).is_err() {
                return;
            }
            if shutdown {
                stop.store(true, Ordering::Release);
                return;
            }
        }
        if buf.len() > config.max_line_bytes {
            oversize(&mut stream, config, metrics);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if buf.is_empty() {
                    deadline = Some(Instant::now() + config.request_timeout);
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        let e = ProtocolError::new(
                            ErrorCode::Timeout,
                            format!(
                                "request stalled past the {} ms timeout",
                                config.request_timeout.as_millis()
                            ),
                        );
                        metrics.record(None, false, Duration::ZERO);
                        let _ = write_line(&mut stream, &err_response(None, &e));
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Answers `too_large` for a request line over the size cap; the
/// caller closes the connection (there is no reliable way to resync
/// mid-stream).
fn oversize(stream: &mut TcpStream, config: &ServeConfig, metrics: &Metrics) {
    let e = ProtocolError::new(
        ErrorCode::TooLarge,
        format!("request line exceeds {} bytes", config.max_line_bytes),
    );
    metrics.record(None, false, Duration::ZERO);
    let _ = write_line(stream, &err_response(None, &e));
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    stream.write_all(&out)
}

/// Parses and answers one request line. Returns the metrics slot (when
/// the query type was recognized), whether the response is a success,
/// the rendered response, and whether the request asked the server to
/// shut down.
fn dispatch<S: QueryAnswerer>(
    state: &S,
    metrics: &Metrics,
    started: Instant,
    line: &str,
) -> (Option<usize>, bool, String, bool) {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => return (None, false, err_response(None, &e), false),
    };
    let slot = Some(req.query.slot());
    match req.query {
        Query::Shutdown => {
            let result = Value::Object(vec![("stopping".to_string(), Value::Bool(true))]);
            (slot, true, ok_response(req.id, "shutdown", result), true)
        }
        Query::Stats => {
            // Snapshot *before* this request is recorded; uptime rides
            // along so clients can derive sustained QPS.
            let mut m = metrics.snapshot().to_value();
            if let Value::Object(entries) = &mut m {
                entries.push((
                    "uptime_ms".to_string(),
                    Value::U64(started.elapsed().as_millis().min(u64::MAX as u128) as u64),
                ));
            }
            let v = state.stats_value(Some(m));
            (slot, true, ok_response(req.id, "stats", v), false)
        }
        _ => match state.answer(&req) {
            Ok(v) => (slot, true, ok_response(req.id, req.query.name(), v), false),
            Err(e) => (slot, false, err_response(req.id, &e), false),
        },
    }
}
