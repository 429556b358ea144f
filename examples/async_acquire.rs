//! Domain scenario: renaming inside an async connection handler.
//!
//! A server multiplexes many logical connections onto a few OS threads;
//! each connection needs a small dense id (a seat) while it is live —
//! for a per-seat buffer, a hazard slot, a shard index. Thread ids are
//! useless (tasks migrate), and task ids are sparse. Loose renaming is
//! the right primitive, and `AsyncNameService` exposes it as
//! `acquire().await`. An acquire is a handful of TAS probes that never
//! waits on another thread, so the future completes on its first poll
//! and the executor thread goes straight back to driving other
//! connections. What the facade adds is ownership: the seat's guard is
//! `'static` and can move to whichever thread finishes the connection.
//!
//! No external runtime is involved — the future is hand-rolled over
//! std's `Waker`/`Poll`, and this example drives it with the
//! workspace's own minimal executors (`exec::block_on`,
//! `exec::drive_all`).
//!
//! ```text
//! cargo run --release --example async_acquire
//! ```

use loose_renaming::prelude::*;
use loose_renaming::service::exec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let connections = 24;
    let service = AsyncNameService::new(
        NameService::builder(Algorithm::Rebatching, connections)
            .seed_policy(SeedPolicy::Entropy)
            .build()?,
    );
    println!(
        "seat table: {} seats for up to {} concurrent connections",
        service.namespace_size(),
        connections
    );

    // Phase 1: one executor thread, a full batch of connection handlers
    // in flight at once. `drive_all` interleaves the handlers' polls on
    // one stack, and every connection gets a distinct seat.
    let handler = |id: usize| {
        let service = &service;
        async move {
            let seat = service.acquire().await.expect("within capacity");
            (id, seat)
        }
    };
    let mut seats: Vec<(usize, AsyncNameGuard)> = exec::drive_all((0..connections).map(handler));
    seats.sort_by_key(|(_, seat)| seat.value());
    println!("\nconnection -> seat (all live at once, one executor thread)");
    for (id, seat) in &seats {
        println!("  conn {id:>2} -> seat {seat}");
    }
    assert_eq!(service.held(), connections);

    // Connections hang up: dropping the guard recycles the seat.
    seats.clear();
    assert_eq!(service.held(), 0);
    println!("\nall connections closed; every seat recycled");

    // Phase 2: several executor threads, churning connections. Guards
    // are `'static` (they hold an `Arc` to the service), so a seat can
    // migrate to whichever thread finishes the connection.
    let threads = 4;
    let per_thread = 50;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let service = &service;
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let seat = exec::block_on(service.acquire()).expect("within capacity");
                    assert!(seat.value() < service.namespace_size());
                    // ... serve the connection, then hang up ...
                    drop(seat);
                }
            });
        }
    });
    assert_eq!(service.held(), 0);
    println!(
        "churned {} connections across {threads} executor threads through {} seats; \
         table empty again",
        threads * per_thread,
        service.namespace_size()
    );
    Ok(())
}
