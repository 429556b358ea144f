//! The TCP server: a pool of handler threads that accept connections
//! themselves, per-connection sessions, and pipelined request batches.
//!
//! # Connection lifecycle
//!
//! ```text
//! handler pool (N threads), each blocked in accept on one listener
//!                                            │ one connection at a time
//!                                            ▼
//!                      ┌─ read and decode a batch of ≤ max_pipeline
//!                      │  frames (first blocks with a timeout so an
//!                      │  idle connection notices shutdown; the rest
//!                      │  only if already buffered); count it
//!                      ├─ answer each request in order, one sync
//!                      │  NameService call apiece, appending each
//!                      │  framed response to the output buffer
//!                      ├─ one write_all of the whole batch's responses
//!                      └─ repeat until EOF / framing error / the
//!                         shutdown flag (read after every batch, so
//!                         a busy connection notices it too)
//!                               │
//!                               ▼
//!                 session drop: every held name released,
//!                 then the handler returns to accept
//! ```
//!
//! # Where backpressure lives
//!
//! Two bounds, innermost out:
//!
//! 1. **Per-connection in-flight cap** (`max_pipeline`): a handler
//!    never decodes more than this many requests before answering
//!    them, so a client that floods the socket sees TCP flow control,
//!    not unbounded server memory.
//! 2. **Handler pool** (`handlers` threads): at most this many
//!    connections are accepted and served concurrently; the rest wait
//!    in the kernel's listen backlog (and then in the clients'
//!    `connect`) until a handler returns to `accept`.
//!
//! # No allocation per frame
//!
//! A connection owns three buffers for its whole life — the payload
//! buffer frames are read into, the batch of decoded requests, and the
//! output buffer responses are framed into — and every batch reuses
//! them. Once they have grown to the connection's largest batch, an
//! `Acquire` or `Release` frame allocates nothing on the server; only
//! error details and `Stats` bodies do. The payload buffer keeps the
//! capacity of the largest frame read (at most [`MAX_FRAME_LEN`])
//! until the connection ends.
//!
//! # RAII over the wire
//!
//! A connection's acquired names live in a per-connection session.
//! Whatever ends the connection — clean EOF, a framing error, a
//! client process crash — the handler releases every held name before
//! taking the next connection. In-process callers get this from
//! [`NameGuard`](renaming_service::NameGuard) drops; network callers
//! get it from their socket closing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use renaming_service::{Name, NameService};
use serde_json::{json, Value};

use crate::protocol::{
    read_frame_into, ProtocolError, Request, Response, Status, WireError, MAX_FRAME_LEN,
};

/// Tuning knobs for a [`NameServer`]. `Default` is sized for tests and
/// small deployments; `renaming-server` exposes `handlers` and
/// `max_pipeline` as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads — the bound on concurrently *served*
    /// connections. Each idle handler blocks in `accept`; connections
    /// beyond it wait in the kernel's listen backlog, so
    /// persistent-connection workloads (the load generator) want
    /// `handlers >=` their connection count.
    pub handlers: usize,
    /// Per-connection in-flight request cap: the most frames a handler
    /// reads before answering them; their responses go out in one
    /// write.
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            handlers: 8,
            max_pipeline: 32,
        }
    }
}

/// How long a handler blocks waiting for an idle connection's next
/// frame before re-checking the shutdown flag; a busy connection
/// re-checks it after every batch instead. Also bounds how long a
/// mid-frame stall (a peer that sent a length prefix and nothing else)
/// can hold a handler.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// State shared by every handler and the handle.
#[derive(Debug)]
struct Shared {
    service: NameService,
    config: ServerConfig,
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: AtomicBool,
    connections_live: AtomicUsize,
    connections_total: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    /// Flips the shutdown flag and wakes every handler blocked in
    /// `accept` with one throwaway self-connection per handler
    /// (idempotent).
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for _ in 0..self.config.handlers {
                drop(TcpStream::connect(self.addr));
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running renaming server.
///
/// [`bind`](Self::bind) reserves the port (so `127.0.0.1:0` callers can
/// read [`local_addr`](Self::local_addr) before any traffic), then
/// either [`run`](Self::run) until shutdown or [`spawn`](Self::spawn)
/// and keep a [`ServerHandle`].
#[derive(Debug)]
pub struct NameServer {
    shared: Arc<Shared>,
}

impl NameServer {
    /// Binds a listener and wraps `service` for serving. The service is
    /// consumed: the server owns it for its lifetime. A `handlers` or
    /// `max_pipeline` of 0 is served as 1.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: NameService,
        config: ServerConfig,
    ) -> io::Result<NameServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let config = ServerConfig {
            handlers: config.handlers.max(1),
            max_pipeline: config.max_pipeline.max(1),
        };
        Ok(NameServer {
            shared: Arc::new(Shared {
                service,
                config,
                listener,
                addr,
                shutdown: AtomicBool::new(false),
                connections_live: AtomicUsize::new(0),
                connections_total: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port chosen).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The wrapped service (e.g. for asserting occupancy in tests).
    pub fn service(&self) -> &NameService {
        &self.shared.service
    }

    /// Serves until a `Shutdown` request flips the flag: [`spawn`] then
    /// [`ServerHandle::join`], so when `run` returns every handler has
    /// stopped and every session has been released.
    ///
    /// [`spawn`]: Self::spawn
    ///
    /// # Errors
    ///
    /// As for [`spawn`] and [`ServerHandle::join`]. Accept errors on
    /// individual connections are skipped, not fatal.
    pub fn run(self) -> io::Result<()> {
        self.spawn()?.join()
    }

    /// Starts the handler pool, returning a handle that knows the
    /// address and can stop/join it.
    ///
    /// # Errors
    ///
    /// Propagates thread spawn failures; the handlers already started
    /// are then stopped and joined.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let mut handle = ServerHandle {
            handlers: Vec::with_capacity(self.shared.config.handlers),
            shared: self.shared,
        };
        for i in 0..handle.shared.config.handlers {
            let shared = Arc::clone(&handle.shared);
            handle.handlers.push(
                std::thread::Builder::new()
                    .name(format!("renaming-net-handler-{i}"))
                    .spawn(move || handler_loop(&shared))?,
            );
        }
        Ok(handle)
    }
}

/// A running server (from [`NameServer::spawn`]). Dropping the handle
/// stops the server and joins its threads.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The underlying [`NameService`], for out-of-band inspection while
    /// the server runs — e.g. reading the concurrency oracle's verdict
    /// after wire traffic has drained.
    pub fn service(&self) -> &NameService {
        &self.shared.service
    }

    /// Signals shutdown and waits for every handler to finish (and thus
    /// every session to be released). A connection in use is closed
    /// after the batch it is serving, an idle one within 200 ms (the
    /// read timeout).
    ///
    /// # Errors
    ///
    /// As for [`join`](Self::join).
    pub fn stop(mut self) -> io::Result<()> {
        self.shared.begin_shutdown();
        self.join_handlers()
    }

    /// Waits for the server to stop on its own (a wire `Shutdown`).
    ///
    /// # Errors
    ///
    /// An error if a handler thread panicked.
    pub fn join(mut self) -> io::Result<()> {
        self.join_handlers()
    }

    fn join_handlers(&mut self) -> io::Result<()> {
        let mut result = Ok(());
        for handler in self.handlers.drain(..) {
            if handler.join().is_err() {
                result = Err(io::Error::other("a handler thread panicked"));
            }
        }
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.handlers.is_empty() {
            self.shared.begin_shutdown();
            let _ = self.join_handlers();
        }
    }
}

/// One handler thread: accept a connection, serve it to completion,
/// repeat until shutdown. An idle handler blocks in `accept`;
/// [`Shared::begin_shutdown`] wakes it with a self-connection, which is
/// dropped unserved like any connection accepted after the flag flips.
fn handler_loop(shared: &Shared) {
    while !shared.shutting_down() {
        // An accept error ends only that attempt.
        if let Ok((stream, _)) = shared.listener.accept() {
            if !shared.shutting_down() {
                serve_connection(shared, stream);
            }
        }
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    shared.connections_live.fetch_add(1, Ordering::Relaxed);
    shared.connections_total.fetch_add(1, Ordering::Relaxed);
    let mut session: Vec<Name> = Vec::new();
    let outcome = serve(shared, stream, &mut session);
    // RAII over the wire: however the connection ended, its names come
    // back.
    for name in session.drain(..) {
        let Ok(()) = shared.service.release_name(name);
    }
    if matches!(outcome, Err(WireError::Protocol(_))) {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    shared.connections_live.fetch_sub(1, Ordering::Relaxed);
}

/// What the idle wait saw on the connection.
enum Wait {
    Data,
    Eof,
    Idle,
    Err(io::Error),
}

/// Blocks (bounded by the socket read timeout) until the connection has
/// at least one readable byte, hit EOF, or went idle long enough to
/// re-check shutdown.
fn wait_for_data(reader: &mut BufReader<&TcpStream>) -> Wait {
    match reader.fill_buf() {
        Ok([]) => Wait::Eof,
        Ok(_) => Wait::Data,
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Wait::Idle
        }
        Err(e) => Wait::Err(e),
    }
}

fn serve(shared: &Shared, stream: TcpStream, session: &mut Vec<Name>) -> Result<(), WireError> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(&stream);
    let mut payload = Vec::new();
    let mut batch: Vec<Result<Request, ProtocolError>> = Vec::new();
    let mut out = Vec::new();
    loop {
        match wait_for_data(&mut reader) {
            Wait::Data => {}
            Wait::Eof => return Ok(()),
            Wait::Idle => {
                if shared.shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Wait::Err(e) => return Err(e.into()),
        }
        // Drain what is already buffered, up to the in-flight cap —
        // this cap is the innermost backpressure layer. A framing error
        // returns before any of the batch is answered.
        batch.clear();
        loop {
            if !read_frame_into(&mut reader, MAX_FRAME_LEN, &mut payload)? {
                return Ok(());
            }
            batch.push(Request::decode(&payload));
            if batch.len() >= shared.config.max_pipeline || reader.buffer().is_empty() {
                break;
            }
        }
        // Counted before any answer, so a `Stats` body includes its own
        // frame and the rest of its batch.
        shared.requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
        out.clear();
        let mut shutdown_now = false;
        for request in &batch {
            let response = if shutdown_now {
                Response::Error {
                    status: Status::ShuttingDown,
                    detail: "server is shutting down".to_string(),
                }
            } else {
                shutdown_now = matches!(request, Ok(Request::Shutdown));
                answer(shared, session, request)
            };
            response.encode_frame_into(&mut out)?;
        }
        (&stream).write_all(&out)?;
        if shutdown_now {
            shared.begin_shutdown();
        }
        // A connection that never idles for `READ_TIMEOUT` would never
        // reach the idle check above, so the flag is also read once per
        // batch.
        if shared.shutting_down() {
            return Ok(());
        }
    }
}

/// Answers one decoded request with one sync service call.
fn answer(
    shared: &Shared,
    session: &mut Vec<Name>,
    request: &Result<Request, ProtocolError>,
) -> Response {
    match request {
        Ok(Request::Acquire) => match shared.service.acquire_name() {
            Ok(name) => {
                session.push(name);
                Response::Name(name.value() as u64)
            }
            Err(exhausted) => Response::Error {
                status: Status::Exhausted,
                detail: exhausted.to_string(),
            },
        },
        Ok(Request::Release { name }) => {
            match session.iter().position(|held| held.value() as u64 == *name) {
                Some(pos) => {
                    let Ok(()) = shared.service.release_name(session.swap_remove(pos));
                    Response::Released
                }
                None => Response::Error {
                    status: Status::NotHeld,
                    detail: format!("name {name} is not held by this connection"),
                },
            }
        }
        Ok(Request::Stats) => Response::Stats(stats_json(shared, session.len())),
        Ok(Request::Shutdown) => Response::ShuttingDown,
        // The frame boundary held, so the stream can resync: answer
        // Malformed and keep the connection.
        Err(error) => Response::Error {
            status: Status::Malformed,
            detail: error.to_string(),
        },
    }
}

/// One latency histogram as JSON: count, mean, interpolated p50/p99,
/// and the non-empty `[bucket_floor_nanos, count]` pairs.
fn histogram_json(snapshot: &renaming_service::HistogramSnapshot) -> Value {
    let buckets: Vec<Value> = snapshot
        .nonzero_buckets()
        .into_iter()
        .map(|(floor, count)| json!([floor, count]))
        .collect();
    json!({
        "count": snapshot.count(),
        "mean_nanos": snapshot.mean_nanos(),
        "p50_nanos": snapshot.quantile(0.5),
        "p99_nanos": snapshot.quantile(0.99),
        "sum_nanos": snapshot.sum_nanos(),
        "buckets": buckets,
    })
}

/// The `Stats` response body: server counters, this connection's
/// session, the service's occupancy and worker-conservation counters,
/// (when the service was built with metrics) both histograms, and
/// (when it was built with the concurrency oracle) the oracle's
/// event-counter summary.
fn stats_json(shared: &Shared, session_held: usize) -> Value {
    let service = &shared.service;
    // Occupancy before the oracle summary: a release records in the
    // oracle before the backend frees the slot, so a zero read here
    // means the summary below already counts every release.
    let occupancy = service.held();
    let latency = match service.metrics() {
        Some(metrics) => {
            let snap = metrics.snapshot();
            json!({
                "acquire": histogram_json(&snap.acquire),
                "release": histogram_json(&snap.release),
            })
        }
        None => Value::Null,
    };
    let oracle = match service.oracle() {
        Some(oracle) => {
            let summary = oracle.summary();
            json!({
                "participants": summary.participants,
                "starts": summary.starts,
                "wins": summary.wins,
                "releases": summary.releases,
                "guard_drops": summary.guard_drops,
                "released": summary.released(),
                "fails": summary.fails,
                "live": summary.live,
                "snapshots": summary.snapshots,
                "record_violations": summary.record_violations,
            })
        }
        None => Value::Null,
    };
    json!({
        "server": {
            "connections_live": shared.connections_live.load(Ordering::Relaxed),
            "connections_total": shared.connections_total.load(Ordering::Relaxed),
            "requests": shared.requests.load(Ordering::Relaxed),
            "protocol_errors": shared.protocol_errors.load(Ordering::Relaxed),
            "handlers": shared.config.handlers,
            "max_pipeline": shared.config.max_pipeline,
            "shutting_down": shared.shutting_down(),
        },
        "session": { "held": session_held },
        "service": {
            "algorithm": service.algorithm(),
            "occupancy": occupancy,
            "capacity": service.capacity(),
            "namespace_size": service.namespace_size(),
            "workers": {
                "created": service.worker_count(),
                "pooled": service.pooled_workers(),
                "retired": service.retired_workers(),
            },
        },
        "latency": latency,
        "oracle": oracle,
    })
}
