//! Allocation guard for the server's steady-state frame path: once a
//! connection's buffers have grown, pipelined windows of releases and
//! acquires allocate nothing anywhere in the process.
//!
//! The counting global allocator sees every thread, so this binary
//! holds exactly one test, and its client speaks the protocol from
//! buffers it allocated before counting starts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use renaming_net::{write_frame, NameServer, Request, Response, ServerConfig};
use renaming_service::{Algorithm, NameService};

/// Counts every allocation, zeroed allocation and reallocation, and
/// leaves the work to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches one atomic and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`; the caller's guarantees carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Names held between windows: each window releases them and acquires
/// as many again, as perfbench's `wire_pipelined` workload does.
const HOLD: usize = 16;
/// Windows run before counting, so every buffer reaches its size.
const WARMUP_WINDOWS: usize = 200;
const COUNTED_WINDOWS: u64 = 1000;

/// A client that speaks the protocol from preallocated buffers.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    acquire: Vec<u8>,
    /// A framed `Release`; its last 8 bytes are the name.
    release: Vec<u8>,
    window: Vec<u8>,
    held: Vec<u64>,
}

impl RawClient {
    fn connect(stream: TcpStream) -> Self {
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let framed = |request: &Request| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &request.encode()).expect("frame a request");
            frame
        };
        let acquire = framed(&Request::Acquire);
        let release = framed(&Request::Release { name: 0 });
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone the stream")),
            writer: stream,
            window: Vec::with_capacity(HOLD * (acquire.len() + release.len())),
            acquire,
            release,
            held: Vec::with_capacity(HOLD),
        }
    }

    /// One write of a release per held name and `acquires` acquires,
    /// then every response read back.
    fn window(&mut self, acquires: usize) {
        self.window.clear();
        let name_at = self.release.len() - 8;
        for &name in &self.held {
            self.release[name_at..].copy_from_slice(&name.to_le_bytes());
            self.window.extend_from_slice(&self.release);
        }
        for _ in 0..acquires {
            self.window.extend_from_slice(&self.acquire);
        }
        self.writer.write_all(&self.window).expect("send the window");
        let releases = self.held.len();
        self.held.clear();
        let mut payload = [0u8; 16];
        for i in 0..releases + acquires {
            let mut prefix = [0u8; 4];
            self.reader.read_exact(&mut prefix).expect("read a prefix");
            let len = u32::from_le_bytes(prefix) as usize;
            self.reader
                .read_exact(&mut payload[..len])
                .expect("read a payload");
            match Response::decode(&payload[..len]) {
                Ok(Response::Released) if i < releases => {}
                Ok(Response::Name(name)) if i >= releases => self.held.push(name),
                other => panic!("window position {i}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn pipelined_acquire_and_release_frames_allocate_nothing() {
    let service = NameService::builder(Algorithm::Rebatching, 1024)
        .build()
        .expect("service builds");
    // One handler, which serves this test's connection.
    let config = ServerConfig {
        handlers: 1,
        ..ServerConfig::default()
    };
    let handle = NameServer::bind("127.0.0.1:0", service, config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server");
    let mut client = RawClient::connect(TcpStream::connect(handle.addr()).expect("connect"));
    for _ in 0..WARMUP_WINDOWS {
        client.window(HOLD);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..COUNTED_WINDOWS {
        client.window(HOLD);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    client.window(0);
    assert_eq!(handle.service().held(), 0, "every name released");
    handle.stop().expect("stop");
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {COUNTED_WINDOWS} windows of {HOLD} releases + {HOLD} \
         acquires ({} per window)",
        allocations as f64 / COUNTED_WINDOWS as f64
    );
}
