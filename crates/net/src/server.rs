//! The TCP server: bounded handler pool, per-connection sessions, and
//! pipelined request batches.
//!
//! # Connection lifecycle
//!
//! ```text
//! accept thread ──sync_channel(pending)──▶ handler pool (N threads)
//!                                            │ one connection at a time
//!                                            ▼
//!                      ┌─ read and decode a batch of ≤ max_pipeline
//!                      │  frames (first blocks with a timeout so
//!                      │  shutdown is noticed; the rest only if
//!                      │  already buffered); count it
//!                      ├─ answer each request in order, one sync
//!                      │  NameService call apiece, appending each
//!                      │  framed response to the output buffer
//!                      ├─ one write_all of the whole batch's responses
//!                      └─ repeat until EOF / Shutdown / framing error
//!                               │
//!                               ▼
//!                 session drop: every held name released
//! ```
//!
//! # Where backpressure lives
//!
//! Three bounds, innermost out:
//!
//! 1. **Per-connection in-flight cap** (`max_pipeline`): a handler
//!    never decodes more than this many requests before answering
//!    them, so a client that floods the socket sees TCP flow control,
//!    not unbounded server memory.
//! 2. **Handler pool** (`handlers` threads): at most this many
//!    connections are *served* concurrently; the rest wait accepted
//!    but unserved in the channel.
//! 3. **Pending-connection channel** (`pending_connections`): when it
//!    fills, the accept thread blocks and the listen backlog (and then
//!    the clients' `connect`) absorbs the rest.
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
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use renaming_service::{Name, NameService};
use serde_json::{json, Value};

use crate::protocol::{
    read_frame_into, ProtocolError, Request, Response, Status, WireError, MAX_FRAME_LEN,
};

/// Tuning knobs for a [`NameServer`]. `Default` is sized for tests and
/// small deployments; the bins expose every field as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads — the bound on concurrently *served*
    /// connections. Connections beyond it sit accepted-but-unserved in
    /// the pending channel, so persistent-connection workloads (the
    /// load generator) want `handlers >=` their connection count.
    pub handlers: usize,
    /// Per-connection in-flight request cap: the most frames a handler
    /// reads before answering them; their responses go out in one
    /// write.
    pub max_pipeline: usize,
    /// Bound of the accepted-but-unserved connection queue.
    pub pending_connections: usize,
    /// How long a handler blocks waiting for a connection's next frame
    /// before re-checking the shutdown flag. Also bounds how long a
    /// mid-frame stall (a peer that sent a length prefix and nothing
    /// else) can hold a handler.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            handlers: 8,
            max_pipeline: 32,
            pending_connections: 16,
            read_timeout: Duration::from_millis(200),
        }
    }
}

/// State shared by the accept loop, every handler, and the handle.
#[derive(Debug)]
struct Shared {
    service: NameService,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    connections_live: AtomicUsize,
    connections_total: AtomicU64,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    /// Flips the shutdown flag and pokes the accept loop awake with a
    /// throwaway self-connection (idempotent).
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            drop(TcpStream::connect(self.addr));
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
/// either [`run`](Self::run) on the current thread or
/// [`spawn`](Self::spawn) a background [`ServerHandle`].
#[derive(Debug)]
pub struct NameServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl NameServer {
    /// Binds a listener and wraps `service` for serving. The service is
    /// consumed: the server owns it for its lifetime.
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
            pending_connections: config.pending_connections.max(1),
            ..config
        };
        Ok(NameServer {
            listener,
            shared: Arc::new(Shared {
                service,
                config,
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

    /// Serves on the calling thread until a `Shutdown` request (or
    /// [`ServerHandle::stop`]) flips the flag: spawns the handler pool,
    /// runs the accept loop, then joins every handler — so when `run`
    /// returns, every session has been released.
    ///
    /// # Errors
    ///
    /// Propagates handler-thread spawn failures; accept errors on
    /// individual connections are counted, not fatal.
    pub fn run(self) -> io::Result<()> {
        let config = self.shared.config.clone();
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            std::sync::mpsc::sync_channel(config.pending_connections);
        let rx = Arc::new(Mutex::new(rx));
        let mut handlers = Vec::with_capacity(config.handlers);
        for i in 0..config.handlers {
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&rx);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("renaming-net-handler-{i}"))
                    .spawn(move || handler_loop(&shared, &rx))?,
            );
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down() {
                        break;
                    }
                    // Blocking send: the channel bound is the
                    // outermost backpressure layer.
                    if tx.send(stream).is_err() {
                        break;
                    }
                    if self.shared.shutting_down() {
                        break;
                    }
                }
                Err(_) if self.shared.shutting_down() => break,
                Err(_) => continue,
            }
        }
        drop(tx);
        for handle in handlers {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle that
    /// knows the address and can stop/join it.
    ///
    /// # Errors
    ///
    /// Propagates thread spawn failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("renaming-net-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            shared,
            thread: Some(thread),
        })
    }
}

/// A running background server (from [`NameServer::spawn`]). Dropping
/// the handle stops the server and joins its threads.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
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
    /// every session to be released).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's terminal error, if any.
    pub fn stop(mut self) -> io::Result<()> {
        self.shared.begin_shutdown();
        self.join_inner()
    }

    /// Waits for the server to stop on its own (a wire `Shutdown`).
    ///
    /// # Errors
    ///
    /// As for [`stop`](Self::stop).
    pub fn join(mut self) -> io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.thread.take() {
            Some(thread) => thread.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shared.begin_shutdown();
            let _ = self.join_inner();
        }
    }
}

/// One handler thread: take a connection, serve it to completion,
/// repeat until shutdown. An idle handler blocks in `recv` without
/// waking; the accept loop drops the sender at shutdown, which ends it.
fn handler_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    while !shared.shutting_down() {
        let next = rx.lock().expect("receiver lock never poisoned").recv();
        let Ok(stream) = next else { return };
        serve_connection(shared, stream);
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    shared.connections_live.fetch_add(1, Ordering::Relaxed);
    shared.connections_total.fetch_add(1, Ordering::Relaxed);
    let mut session: Vec<Name> = Vec::new();
    let outcome = serve(shared, stream, &mut session);
    // RAII over the wire: however the connection ended, its names come
    // back. (`ReleaseUnsupported` backends would leak here by design —
    // a server wants a release-capable backend, which all built-ins
    // are.)
    for name in session.drain(..) {
        let _ = shared.service.release_name(name);
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
fn wait_for_data(reader: &mut BufReader<TcpStream>) -> Wait {
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
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
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
        writer.write_all(&out)?;
        if shutdown_now {
            shared.begin_shutdown();
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
            Err(error) => Response::from_error(&error),
        },
        Ok(Request::Release { name }) => {
            match session.iter().position(|held| held.value() as u64 == *name) {
                Some(pos) => {
                    let held = session.swap_remove(pos);
                    match shared.service.release_name(held) {
                        Ok(()) => Response::Released,
                        Err(error) => Response::from_error(&error),
                    }
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
