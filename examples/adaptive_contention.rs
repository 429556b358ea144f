//! Adaptive renaming: names scale with the *actual* contention `k`, not
//! with the system bound `n` (§5 of the paper).
//!
//! A service is provisioned for 4096 clients, but tonight only a handful
//! show up. The adaptive backends hand out names of value `O(k)`; the
//! provisioned capacity costs memory, not name size.
//!
//! ```text
//! cargo run --release --example adaptive_contention
//! ```

use loose_renaming::prelude::*;

/// `k` concurrent acquisitions against a fresh service; returns the
/// largest name handed out while all `k` are held.
fn largest_name_at_contention(
    algorithm: Algorithm,
    capacity: usize,
    k: usize,
    seed: u64,
) -> Result<usize, Box<dyn std::error::Error>> {
    let service = NameService::builder(algorithm, capacity)
        .seed_policy(SeedPolicy::Fixed(seed))
        .build()?;
    let guards: Vec<NameGuard<&NameService>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..k)
            .map(|_| {
                let service = &service;
                scope.spawn(move || service.acquire().expect("capacity"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let max = guards.iter().map(NameGuard::value).max().expect("k >= 1");
    Ok(max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let capacity = 4096;
    println!("system bound n = {capacity}; measuring the largest assigned name per contention k\n");
    println!("  k   largest name (adaptive)  largest name (fast adaptive)");
    println!("  ---------------------------------------------------------");
    for k in [1usize, 2, 4, 8, 16, 32, 64] {
        // Fresh services per round so every round starts from an empty
        // namespace.
        let max_adaptive =
            largest_name_at_contention(Algorithm::Adaptive, capacity, k, 1000 + k as u64)?;
        let max_fast =
            largest_name_at_contention(Algorithm::FastAdaptive, capacity, k, 77 + k as u64)?;
        println!("  {k:>3}  {max_adaptive:>23}  {max_fast:>27}");
    }
    let provisioned = NameService::builder(Algorithm::Adaptive, capacity)
        .build()?
        .namespace_size();
    println!(
        "\nboth stay O(k) — far below the {provisioned} locations provisioned for n = {capacity}"
    );
    Ok(())
}
