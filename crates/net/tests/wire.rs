//! Over-the-wire integration tests: exhaustion as a graceful status,
//! RAII release of a dropped connection's names, malformed traffic,
//! pipelining, the load generator, and graceful shutdown — all against
//! a real server on a loopback ephemeral port.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use renaming_net::{
    loadgen, read_frame, write_frame, Client, ClientError, LoadConfig, NameServer, Request,
    Response, ServerConfig, ServerHandle, Status, WireError, MAX_FRAME_LEN,
};
use renaming_service::{Algorithm, NameService, SeedPolicy};
use serde_json::Value;

/// The paper's three algorithms; the connection-lifecycle tests run on
/// each of them.
const PAPER_ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Rebatching,
    Algorithm::Adaptive,
    Algorithm::FastAdaptive,
];

/// Spawns a server over `algorithm` with the given capacity; metrics
/// and the concurrency oracle on, handlers sized for
/// the tests' connection counts. With the oracle enabled, every test
/// in this file doubles as a wire-level history check.
fn spawn_server(algorithm: Algorithm, capacity: usize) -> ServerHandle {
    spawn_server_with(algorithm, capacity, ServerConfig::default())
}

/// [`spawn_server`] with a non-default server configuration.
fn spawn_server_with(algorithm: Algorithm, capacity: usize, config: ServerConfig) -> ServerHandle {
    let service = NameService::builder(algorithm, capacity)
        .metrics(true)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(7))
        .build()
        .expect("service builds");
    NameServer::bind("127.0.0.1:0", service, config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

fn server_counter(stats: &Value, key: &str) -> u64 {
    stats
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats carry server.{key}: {stats}"))
}

/// Reads one response frame off a raw connection.
fn read_response(reader: &mut impl std::io::Read) -> Response {
    let payload = read_frame(reader, MAX_FRAME_LEN)
        .expect("response")
        .expect("still open");
    Response::decode(&payload).expect("decodes")
}

fn occupancy(stats: &Value) -> u64 {
    stats
        .get("service")
        .and_then(|s| s.get("occupancy"))
        .and_then(|o| o.as_u64())
        .expect("stats carry service.occupancy")
}

/// Polls the server's stats until `predicate` holds or the deadline
/// passes; returns the last stats seen.
fn poll_stats(client: &mut Client, predicate: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if predicate(&stats) || Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The ISSUE's wire exhaustion scenario: a capacity-1 strong namespace
/// (LinearScan gives namespace exactly 1), a second client's acquire
/// answers `Exhausted` — gracefully, the connection stays usable — and
/// a release heals it.
#[test]
fn exhaustion_is_graceful_and_release_heals() {
    let handle = spawn_server(Algorithm::LinearScan, 1);
    let mut first = Client::connect(handle.addr()).expect("connect");
    let mut second = Client::connect(handle.addr()).expect("connect");

    let name = first.acquire().expect("the single name");
    let error = second.acquire().expect_err("namespace is full");
    assert!(error.is_exhausted(), "got {error}");
    match &error {
        ClientError::Server { status, detail } => {
            assert_eq!(*status, Status::Exhausted);
            assert!(!detail.is_empty(), "detail carries the library display");
        }
        other => panic!("expected a server status, got {other}"),
    }

    // The same connection is still good: release on the first client
    // heals the namespace for the second.
    first.release(name).expect("release");
    let healed = second.acquire().expect("heals after release");
    assert_eq!(healed, name, "strong namespace of size 1 has one name");
    second.release(healed).expect("release");
    handle.stop().expect("stop");
}

/// RAII over the wire: dropping a client connection without releasing
/// returns every name it held — occupancy provably returns to zero in
/// the `Stats` answer, and the oracle's event counters agree that the
/// forced drain released exactly the wins.
#[test]
fn dropped_connection_releases_its_names() {
    for algorithm in PAPER_ALGORITHMS {
        let handle = spawn_server(algorithm, 16);
        let mut observer = Client::connect(handle.addr()).expect("connect");

        let mut holder = Client::connect(handle.addr()).expect("connect");
        let names = holder.acquire_many(3).expect("pipeline");
        assert!(names.iter().all(Result::is_ok), "{algorithm:?}: {names:?}");
        let stats = poll_stats(&mut observer, |s| occupancy(s) == 3);
        assert_eq!(occupancy(&stats), 3, "{algorithm:?}");

        // Drop the holder without releasing anything.
        drop(holder);
        let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
        assert_eq!(
            occupancy(&stats),
            0,
            "{algorithm:?}: dropped session must drain: {stats}"
        );

        // The session drain went through the recorded release path: the
        // oracle saw three wins and three matching releases, none live.
        let oracle = stats.get("oracle").expect("oracle section");
        assert_eq!(
            oracle.get("wins").and_then(Value::as_u64),
            Some(3),
            "{algorithm:?}"
        );
        assert_eq!(
            oracle.get("released").and_then(Value::as_u64),
            Some(3),
            "{algorithm:?}"
        );
        assert_eq!(
            oracle.get("live").and_then(Value::as_u64),
            Some(0),
            "{algorithm:?}"
        );
        assert_eq!(
            oracle.get("record_violations").and_then(Value::as_u64),
            Some(0),
            "{algorithm:?}"
        );
        handle.stop().expect("stop");
    }
}

/// Pipelined acquires answer in request order, with per-request
/// statuses: a capacity-2 namespace answering a depth-4 pipeline gives
/// two names then two graceful `Exhausted`s.
#[test]
fn pipeline_mixes_names_and_exhaustion_in_order() {
    let handle = spawn_server(Algorithm::LinearScan, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcomes = client.acquire_many(4).expect("pipeline");
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{outcomes:?}");
    for outcome in &outcomes[2..] {
        assert!(
            matches!(outcome, Err(e) if e.is_exhausted()),
            "{outcomes:?}"
        );
    }
    handle.stop().expect("stop");
}

/// A pipeline longer than the server's in-flight cap is read in several
/// batches and still answered in request order: linear scan hands out
/// the lowest free name, so ten acquires over a cap of four answer
/// names 0 to 9 in turn.
#[test]
fn pipeline_longer_than_the_cap_answers_in_request_order() {
    let config = ServerConfig {
        max_pipeline: 4,
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(Algorithm::LinearScan, 16, config);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let names: Vec<u64> = client
        .acquire_many(10)
        .expect("pipeline")
        .into_iter()
        .map(|outcome| outcome.expect("within capacity"))
        .collect();
    assert_eq!(names, (0..10).collect::<Vec<u64>>());
    let stats = client.stats().expect("stats");
    assert_eq!(occupancy(&stats), 10);
    assert_eq!(server_counter(&stats, "requests"), 11, "10 acquires + this stats");
    handle.stop().expect("stop");
}

/// `bind` serves a `handlers` or `max_pipeline` of 0 as 1: `Stats`
/// reports both as 1, a three-deep pipeline (one frame per batch) is
/// answered in request order, and every frame is counted.
#[test]
fn zero_handlers_and_pipeline_are_served_as_one() {
    let config = ServerConfig {
        handlers: 0,
        max_pipeline: 0,
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(Algorithm::LinearScan, 8, config);
    let addr = handle.addr();
    let (done, served) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let names: Vec<u64> = client
            .acquire_many(3)
            .expect("pipeline")
            .into_iter()
            .map(|outcome| outcome.expect("within capacity"))
            .collect();
        let _ = done.send((names, client.stats().expect("stats")));
    });
    // With no handler thread nothing would answer: fail, do not hang.
    let (names, stats) = served
        .recv_timeout(Duration::from_secs(10))
        .expect("served within 10 s");
    client.join().expect("client thread");
    assert_eq!(names, vec![0, 1, 2]);
    assert_eq!(server_counter(&stats, "handlers"), 1);
    assert_eq!(server_counter(&stats, "max_pipeline"), 1);
    assert_eq!(
        server_counter(&stats, "requests"),
        4,
        "3 acquires + this stats"
    );
    handle.stop().expect("stop");
}

/// A framing error ends the connection: a raw connection holding three
/// names sends a `u32::MAX` length prefix, the server closes it, counts
/// one protocol error and drains the session through the recorded
/// release path.
#[test]
fn framing_error_closes_the_connection_and_drains_its_names() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut raw = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..3 {
        write_frame(&mut raw, &Request::Acquire.encode()).expect("frame");
    }
    raw.flush().expect("flush");
    for _ in 0..3 {
        assert!(matches!(read_response(&mut reader), Response::Name(_)));
    }
    raw.write_all(&u32::MAX.to_le_bytes()).expect("hostile prefix");
    raw.flush().expect("flush");
    let closed = read_frame(&mut reader, MAX_FRAME_LEN);
    assert!(
        matches!(closed, Ok(None) | Err(WireError::Io(_))),
        "the server must close the connection, got {closed:?}"
    );

    let mut observer = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut observer, |s| {
        occupancy(s) == 0 && server_counter(s, "protocol_errors") == 1
    });
    assert_eq!(occupancy(&stats), 0, "session drained: {stats}");
    assert_eq!(server_counter(&stats, "protocol_errors"), 1);
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(3));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(3));
    handle.stop().expect("stop");
}

/// A frame that arrives in two parts 50 ms apart, split inside its
/// length prefix, is reassembled and answered.
#[test]
fn a_frame_split_across_two_writes_is_answered() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut raw = stream.try_clone().expect("clone");
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Acquire.encode()).expect("frame");
    let (head, tail) = frame.split_at(3);
    raw.write_all(head).expect("first part");
    std::thread::sleep(Duration::from_millis(50));
    raw.write_all(tail).expect("second part");
    let mut reader = std::io::BufReader::new(stream);
    assert!(matches!(read_response(&mut reader), Response::Name(_)));
    handle.stop().expect("stop");
}

/// `read_timeout` bounds a mid-frame stall: a connection that holds two
/// names, then sends a length prefix and only part of the payload, is
/// disconnected and its names come back. The server's only handler then
/// serves the next client.
#[test]
fn a_mid_frame_stall_is_disconnected_and_its_names_released() {
    let config = ServerConfig {
        handlers: 1,
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(Algorithm::Rebatching, 16, config);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    // Bounds the test, not the server: a stall the server never ends
    // fails as a timeout below instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut raw = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..2 {
        write_frame(&mut raw, &Request::Acquire.encode()).expect("frame");
    }
    raw.flush().expect("flush");
    for _ in 0..2 {
        assert!(matches!(read_response(&mut reader), Response::Name(_)));
    }

    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Acquire.encode()).expect("frame");
    raw.write_all(&frame[..frame.len() - 1])
        .expect("a length prefix and all but the last payload byte");
    let closed = read_frame(&mut reader, MAX_FRAME_LEN);
    assert!(
        match &closed {
            Ok(None) => true,
            Err(WireError::Io(e)) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        },
        "the server must close the stalled connection, got {closed:?}"
    );

    let mut next = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut next, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "stalled session drained: {stats}");
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(2));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(2));
    let name = next.acquire().expect("the next client is served");
    next.release(name).expect("release");
    handle.stop().expect("stop");
}

/// A `Shutdown` in the middle of a batch is answered in place; the rest
/// of the batch is refused with `ShuttingDown`, and the server stops.
#[test]
fn shutdown_mid_batch_refuses_the_rest_of_the_batch() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut raw = stream.try_clone().expect("clone");
    let mut window = Vec::new();
    for request in [Request::Acquire, Request::Shutdown, Request::Acquire] {
        write_frame(&mut window, &request.encode()).expect("frame");
    }
    raw.write_all(&window).expect("one write, so one batch");
    let mut reader = std::io::BufReader::new(stream);
    assert!(matches!(read_response(&mut reader), Response::Name(_)));
    assert_eq!(read_response(&mut reader), Response::ShuttingDown);
    match read_response(&mut reader) {
        Response::Error { status, .. } => assert_eq!(status, Status::ShuttingDown),
        other => panic!("expected a ShuttingDown error, got {other:?}"),
    }
    handle.join().expect("server stopped on its own");
}

/// Payload-level garbage (unknown opcode, wrong version) answers
/// `Malformed` and keeps the connection usable; the `NotHeld` guard
/// rejects releasing a name this connection never acquired.
#[test]
fn malformed_requests_and_foreign_releases_are_rejected_gracefully() {
    let handle = spawn_server(Algorithm::Rebatching, 8);

    // Speak framed garbage by hand: a well-framed payload with an
    // unknown opcode...
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut raw = stream.try_clone().expect("clone");
    write_frame(&mut raw, &[1u8, 0x7f]).expect("frame");
    // ...and one with a bad version.
    write_frame(&mut raw, &[9u8, 1u8]).expect("frame");
    raw.flush().expect("flush");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..2 {
        let payload = renaming_net::read_frame(&mut reader, renaming_net::MAX_FRAME_LEN)
            .expect("response")
            .expect("still open");
        match renaming_net::Response::decode(&payload).expect("decodes") {
            renaming_net::Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // The connection survived: a real acquire still works on it.
    write_frame(&mut raw, &Request::Acquire.encode()).expect("frame");
    raw.flush().expect("flush");
    let payload = renaming_net::read_frame(&mut reader, renaming_net::MAX_FRAME_LEN)
        .expect("response")
        .expect("still open");
    assert!(matches!(
        renaming_net::Response::decode(&payload).expect("decodes"),
        renaming_net::Response::Name(_)
    ));
    drop(raw);
    drop(reader);

    // A separate client cannot release names it does not hold.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let name = client.acquire().expect("acquire");
    let mut thief = Client::connect(handle.addr()).expect("connect");
    match thief.release(name).expect_err("not this connection's name") {
        ClientError::Server { status, .. } => assert_eq!(status, Status::NotHeld),
        other => panic!("expected NotHeld, got {other}"),
    }
    client.release(name).expect("rightful owner releases");
    handle.stop().expect("stop");
}

/// The `Stats` answer carries the documented shape: server counters,
/// service occupancy/capacity/workers, and — with metrics on — both
/// latency histograms with counts and interpolated quantiles. Each
/// acquire and release counts exactly once, whether it arrived alone or
/// in a pipelined batch.
#[test]
fn stats_shape_is_complete() {
    let handle = spawn_server(Algorithm::FastAdaptive, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let name = client.acquire().expect("acquire");
    client.release(name).expect("release");
    for name in client.acquire_many(2).expect("pipeline") {
        client
            .release(name.expect("within capacity"))
            .expect("release");
    }
    let stats = client.stats().expect("stats");

    let server = stats.get("server").expect("server section");
    assert!(server.get("connections_live").and_then(Value::as_u64) >= Some(1));
    // Every frame sent, the `Stats` frame included: 1 + 1 + 2 + 2 + 1.
    assert_eq!(server.get("requests").and_then(Value::as_u64), Some(7));
    let service = stats.get("service").expect("service section");
    assert_eq!(service.get("capacity").and_then(Value::as_u64), Some(8));
    let workers = service.get("workers").expect("workers section");
    for key in ["created", "pooled", "retired"] {
        assert!(workers.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
    let latency = stats.get("latency").expect("latency section");
    let acquire = latency.get("acquire").expect("acquire histogram");
    assert_eq!(acquire.get("count").and_then(Value::as_u64), Some(3));
    assert!(acquire.get("p99_nanos").and_then(Value::as_f64).is_some());
    let release = latency.get("release").expect("release histogram");
    assert_eq!(release.get("count").and_then(Value::as_u64), Some(3));
    let oracle = stats.get("oracle").expect("oracle section");
    for key in [
        "participants",
        "starts",
        "wins",
        "releases",
        "guard_drops",
        "released",
        "fails",
        "live",
        "snapshots",
        "record_violations",
    ] {
        assert!(oracle.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
    for key in ["starts", "wins", "released"] {
        assert_eq!(oracle.get(key).and_then(Value::as_u64), Some(3), "{key}");
    }
    handle.stop().expect("stop");
}

/// The ISSUE's wire-level oracle scenario: several concurrent clients
/// churn acquire/release over loopback against an oracle-instrumented
/// service. After the traffic drains, the `Stats` oracle summary
/// accounts for every operation and the full history verdict — read
/// out of band through [`ServerHandle::service`] — is clean and
/// drained: no overlapping holds, bounds respected, workers conserved.
#[test]
fn wire_churn_yields_a_clean_oracle_verdict() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let clients = 4usize;
    let rounds = 40usize;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::connect(handle.addr()).expect("connect");
                for round in 0..rounds {
                    if round % 4 == 3 {
                        // Every fourth round pipelines a pair, so a
                        // multi-request server batch is in the history.
                        let names = client.acquire_many(2).expect("pipeline");
                        for name in names {
                            client.release(name.expect("within capacity")).expect("release");
                        }
                    } else {
                        let name = client.acquire().expect("within capacity");
                        client.release(name).expect("release");
                    }
                }
            });
        }
    });

    let expected_wins = (clients * (rounds + rounds / 4)) as u64;
    let mut observer = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "churn must drain: {stats}");
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(expected_wins));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(expected_wins));
    assert_eq!(oracle.get("live").and_then(Value::as_u64), Some(0));
    assert_eq!(oracle.get("record_violations").and_then(Value::as_u64), Some(0));

    // Out-of-band verdict: replay the full recorded history.
    let verdict = handle
        .service()
        .oracle_verdict()
        .expect("server built with the oracle");
    assert!(
        verdict.is_clean(),
        "wire churn must check out: {:?}",
        verdict.history.violations
    );
    assert!(verdict.drained(), "nothing held after the churn");
    assert!(verdict.history.complete, "history replays to completion");
    assert_eq!(verdict.history.wins, expected_wins);
    assert_eq!(verdict.history.released(), expected_wins);
    handle.stop().expect("stop");
}

/// The load generator's churn loop, serial and pipelined: every
/// operation succeeds and is sampled once, the latency summary is
/// ordered, and the drained names leave occupancy at 0 with every oracle
/// win released.
#[test]
fn loadgen_churn_completes_and_drains() {
    let handle = spawn_server(Algorithm::Rebatching, 64);
    for pipeline in [1, 4] {
        let config = LoadConfig {
            connections: 2,
            ops_per_connection: 150,
            pipeline,
            hold: 4,
        };
        let report = loadgen::run(handle.addr(), &config).expect("load run completes");
        assert_eq!(
            (report.errors, report.exhausted),
            (0, 0),
            "pipeline {pipeline}"
        );
        assert_eq!(report.acquire.count, 300, "pipeline {pipeline}");
        assert_eq!(report.release.count, 300, "pipeline {pipeline}");
        assert_eq!(report.ops, 600, "pipeline {pipeline}");
        assert!(
            report.acquire.p99_nanos >= report.acquire.p50_nanos && report.acquire.p50_nanos > 0.0,
            "pipeline {pipeline}: {:?}",
            report.acquire
        );
    }

    let mut observer = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "loadgen drains its names: {stats}");
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(600));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(600));
    handle.stop().expect("stop");
}

/// A wire `Shutdown` is acknowledged, stops the accept loop, and joins
/// every handler — `join` returning proves the graceful path, and a
/// fresh connection afterwards must not be served.
#[test]
fn graceful_shutdown_over_the_wire() {
    for algorithm in PAPER_ALGORITHMS {
        let handle = spawn_server(algorithm, 8);
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("acknowledged");
        handle.join().expect("server stopped on its own");

        // The listener is gone (or at best refuses service): a new client
        // cannot complete a round trip.
        if let Ok(mut late) = Client::connect(addr) {
            assert!(
                late.acquire().is_err(),
                "{algorithm:?}: no service after shutdown"
            );
        }
    }
}
