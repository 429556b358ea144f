//! The wire workloads: an in-process `NameServer` and one connection.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use renaming_net::{
    read_frame, write_frame, Client, ClientError, NameServer, Request, Response, ServerConfig,
    ServerHandle, MAX_FRAME_LEN,
};
use renaming_service::{Algorithm, NameService, SeedPolicy};
use serde_json::Value;

use crate::gate::{Checks, Occupancy};
use crate::trace::{Recorder, ROOT};
use crate::{round_deadline, Config, Phase, Rig, Round};

/// Names the server is built for.
pub(crate) const CAPACITY: usize = 1024;
/// Names the client holds at once.
pub(crate) const HOLD: usize = 16;
/// Churn operations run during set-up, before timing starts.
const WARMUP_OPS: usize = 2000;

/// A service with builder defaults except algorithm, capacity and seed
/// (and latency metrics when a probe reads them).
pub(crate) fn service(cfg: &Config, capacity: usize, metrics: bool) -> NameService {
    let mut builder = NameService::builder(Algorithm::Rebatching, capacity)
        .seed_policy(SeedPolicy::Fixed(cfg.seed));
    if metrics {
        builder = builder.metrics(true);
    }
    if cfg.oracle {
        builder = builder.oracle(true);
    }
    builder
        .build()
        .expect("ReBatching builds at the benchmark's capacities")
}

/// `server.requests` from a `Stats` body.
pub(crate) fn server_requests(stats: &Value) -> Option<u64> {
    stats.get("server")?.get("requests")?.as_u64()
}

/// The server side shared by both wire workloads, plus the
/// generator-side record of what it issued.
struct Server {
    handle: ServerHandle,
    occupancy: Occupancy,
    failed: u64,
}

impl Server {
    fn start(cfg: &Config, metrics: bool) -> Self {
        let service = service(cfg, CAPACITY, metrics);
        let occupancy = Occupancy::new(service.namespace_size());
        let handle = NameServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .and_then(NameServer::spawn)
            .expect("bind and spawn the server on loopback");
        Self {
            handle,
            occupancy,
            failed: 0,
        }
    }

    fn name_max_ratio(&self) -> f64 {
        self.occupancy
            .max_issued()
            .map_or(f64::NAN, |max| (max + 1) as f64 / CAPACITY as f64)
    }

    /// End-of-run checks once every name is back: the server counted
    /// exactly the frames sent, and the service drained.
    fn finish(self, checks: &mut Checks, stats: &Value, frames: u64) {
        let requests = server_requests(stats);
        checks.expect(requests == Some(frames), || {
            format!("server counted {requests:?} requests, the client sent {frames} frames")
        });
        checks.occupancy(&self.occupancy);
        checks.service(self.handle.service());
        self.handle.stop().expect("stop the server");
    }
}

/// `wire_serial`: one `Client`, one request in flight, churning a hold
/// window of [`HOLD`] names.
pub(crate) struct Serial {
    server: Server,
    client: Client,
    held: VecDeque<u64>,
    frames: u64,
}

impl Serial {
    pub(crate) fn start(cfg: &Config, metrics: bool) -> Self {
        let server = Server::start(cfg, metrics);
        let client = Client::connect(server.handle.addr()).expect("connect to the server");
        let mut rig = Self {
            server,
            client,
            held: VecDeque::with_capacity(HOLD),
            frames: 0,
        };
        while rig.held.len() < HOLD {
            rig.acquire();
        }
        for _ in 0..WARMUP_OPS / 2 {
            rig.release();
            rig.acquire();
        }
        rig
    }

    fn acquire(&mut self) -> bool {
        self.frames += 1;
        match self.client.acquire() {
            Ok(name) => {
                self.server.occupancy.acquired(name);
                self.held.push_back(name);
                true
            }
            Err(ClientError::Server { .. }) => {
                self.server.failed += 1;
                false
            }
            Err(e) => panic!("wire transport failed: {e}"),
        }
    }

    fn release(&mut self) -> bool {
        let Some(name) = self.held.pop_front() else {
            return true;
        };
        self.server.occupancy.released(name);
        self.frames += 1;
        match self.client.release(name) {
            Ok(()) => true,
            Err(ClientError::Server { .. }) => {
                self.server.failed += 1;
                false
            }
            Err(e) => panic!("wire transport failed: {e}"),
        }
    }

    /// The server's `Stats` body (one more frame).
    fn stats(&mut self) -> Value {
        self.frames += 1;
        self.client.stats().expect("stats round trip")
    }

    /// The server's service, for reading its metrics.
    pub(crate) fn service(&self) -> &NameService {
        self.server.handle.service()
    }
}

impl Rig for Serial {
    const PINNED: bool = true;

    fn setup(cfg: &Config) -> Self {
        Self::start(cfg, false)
    }

    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Phase {
        let mut phase = Phase::default();
        let mut recorder = trace.map(|epoch| Recorder::new(epoch, "wire_serial"));
        let failed_before = self.server.failed;
        let start = Instant::now();
        let mut request = 0u64;
        for round in 0..rounds {
            let deadline = round_deadline(start, duration, round, rounds);
            let mut r = Round::default();
            let round_start = Instant::now();
            loop {
                let t0 = Instant::now();
                self.release();
                let t1 = Instant::now();
                self.acquire();
                let t2 = Instant::now();
                r.release.record((t1 - t0).as_nanos() as u64);
                r.acquire.record((t2 - t1).as_nanos() as u64);
                r.ops += 2;
                if let Some(rec) = recorder.as_mut() {
                    rec.record("client.release", t0, t1, ROOT, request);
                    rec.record("client.acquire", t1, t2, ROOT, request + 1);
                }
                request += 2;
                if t2 >= deadline {
                    r.seconds = (t2 - round_start).as_secs_f64();
                    break;
                }
            }
            phase.rounds.push(r);
        }
        phase.attempted = phase.rounds.iter().map(|r| r.ops).sum();
        phase.failed = self.server.failed - failed_before;
        phase.recorders.extend(recorder);
        phase
    }

    fn name_max_ratio(&self) -> f64 {
        self.server.name_max_ratio()
    }

    fn finish(mut self, checks: &mut Checks) {
        while !self.held.is_empty() {
            self.release();
        }
        let stats = self.stats();
        drop(self.client);
        self.server.finish(checks, &stats, self.frames);
    }
}

/// `wire_pipelined`: one connection speaking the protocol directly, in
/// windows of [`HOLD`] releases (the previous window's names) followed
/// by [`HOLD`] acquires, flushed once and read back in full.
pub(crate) struct Pipelined {
    server: Server,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    window: Vec<u64>,
    frames: u64,
    flushes: u64,
}

/// Timestamps of one window, for latency and spans.
struct WindowTimes {
    flush: Instant,
    /// Per response: when its read started and when it was decoded.
    responses: Vec<(Instant, Instant)>,
    /// Per request: encode start and end.
    encodes: Vec<(Instant, Instant)>,
}

impl Pipelined {
    pub(crate) fn start(cfg: &Config) -> Self {
        let server = Server::start(cfg, false);
        let stream = TcpStream::connect(server.handle.addr()).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut rig = Self {
            server,
            reader,
            writer: BufWriter::new(stream),
            window: Vec::with_capacity(HOLD),
            frames: 0,
            flushes: 0,
        };
        for _ in 0..WARMUP_OPS / 4 {
            rig.window(HOLD, false);
        }
        rig
    }

    /// Sends one window: a release for every held name, then `acquires`
    /// acquires; reads every response. `timed` collects timestamps.
    fn window(&mut self, acquires: usize, timed: bool) -> Option<WindowTimes> {
        let releases = std::mem::take(&mut self.window);
        let frames = releases.len() + acquires;
        let mut times = timed.then(|| WindowTimes {
            flush: Instant::now(),
            responses: Vec::with_capacity(frames),
            encodes: Vec::with_capacity(frames),
        });
        let requests = releases
            .iter()
            .map(|&name| Request::Release { name })
            .chain(std::iter::repeat_n(Request::Acquire, acquires));
        for request in requests {
            if let Request::Release { name } = request {
                self.server.occupancy.released(name);
            }
            let t0 = Instant::now();
            write_frame(&mut self.writer, &request.encode()).expect("write a frame");
            if let Some(times) = times.as_mut() {
                times.encodes.push((t0, Instant::now()));
            }
        }
        if let Some(times) = times.as_mut() {
            times.flush = Instant::now();
        }
        self.writer.flush().expect("flush the window");
        self.frames += frames as u64;
        self.flushes += 1;
        for i in 0..frames {
            let t0 = Instant::now();
            let payload = read_frame(&mut self.reader, MAX_FRAME_LEN)
                .expect("read a response")
                .expect("server closed the connection mid-window");
            let response = Response::decode(&payload).expect("decode a response");
            if let Some(times) = times.as_mut() {
                times.responses.push((t0, Instant::now()));
            }
            match (i < releases.len(), response) {
                (true, Response::Released) => {}
                (false, Response::Name(name)) => {
                    self.server.occupancy.acquired(name);
                    self.window.push(name);
                }
                (_, Response::Error { .. }) => self.server.failed += 1,
                (_, other) => panic!("unexpected response in window position {i}: {other:?}"),
            }
        }
        times
    }

    /// The server's `Stats` body (one more frame).
    pub(crate) fn stats(&mut self) -> Value {
        write_frame(&mut self.writer, &Request::Stats.encode()).expect("write stats");
        self.writer.flush().expect("flush stats");
        self.frames += 1;
        let payload = read_frame(&mut self.reader, MAX_FRAME_LEN)
            .expect("read stats")
            .expect("server closed the connection");
        match Response::decode(&payload).expect("decode stats") {
            Response::Stats(value) => value,
            other => panic!("expected stats, got {other:?}"),
        }
    }

    pub(crate) fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl Rig for Pipelined {
    const PINNED: bool = true;

    fn setup(cfg: &Config) -> Self {
        Self::start(cfg)
    }

    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Phase {
        let mut phase = Phase::default();
        let mut recorder = trace.map(|epoch| Recorder::new(epoch, "wire_pipelined"));
        let failed_before = self.server.failed;
        let start = Instant::now();
        let mut request = 0u64;
        for round in 0..rounds {
            let deadline = round_deadline(start, duration, round, rounds);
            let mut r = Round::default();
            let round_start = Instant::now();
            loop {
                let releases = self.window.len();
                let times = self.window(HOLD, true).expect("timed window");
                let end = times.responses.last().map_or(times.flush, |&(_, t)| t);
                for (i, &(_, done)) in times.responses.iter().enumerate() {
                    let latency = (done - times.flush).as_nanos() as u64;
                    if i < releases {
                        r.release.record(latency);
                    } else {
                        r.acquire.record(latency);
                    }
                }
                r.ops += times.responses.len() as u64;
                if let Some(rec) = recorder.as_mut() {
                    let first = times.encodes.first().map_or(times.flush, |&(t, _)| t);
                    let parent = rec.record("net.window", first, end, ROOT, request);
                    for (i, &(t0, t1)) in times.encodes.iter().enumerate() {
                        rec.record("net.encode", t0, t1, parent, request + i as u64);
                    }
                    for (i, &(t0, t1)) in times.responses.iter().enumerate() {
                        rec.record("net.decode", t0, t1, parent, request + i as u64);
                    }
                }
                request += times.responses.len() as u64;
                if end >= deadline {
                    r.seconds = (end - round_start).as_secs_f64();
                    break;
                }
            }
            phase.rounds.push(r);
        }
        phase.attempted = phase.rounds.iter().map(|r| r.ops).sum();
        phase.failed = self.server.failed - failed_before;
        phase.recorders.extend(recorder);
        phase
    }

    fn name_max_ratio(&self) -> f64 {
        self.server.name_max_ratio()
    }

    fn finish(mut self, checks: &mut Checks) {
        self.window(0, false);
        let stats = self.stats();
        drop(self.reader);
        drop(self.writer);
        self.server.finish(checks, &stats, self.frames);
    }
}
