//! Quickstart: 32 threads pick unique names through the `NameService`
//! front-end, across three selectable backends.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use loose_renaming::prelude::*;

fn run_backend(algorithm: Algorithm, threads: usize) -> Result<(), Box<dyn std::error::Error>> {
    let service = NameService::builder(algorithm, threads)
        .seed_policy(SeedPolicy::Fixed(42))
        .build()?;
    println!(
        "{:<24} capacity {:>3}, namespace {:>4} names",
        service.algorithm(),
        service.capacity(),
        service.namespace_size(),
    );

    // Each thread acquires and *returns its guard*, so all names are held
    // simultaneously — uniqueness among live guards is the guarantee.
    let guards: Vec<NameGuard<&NameService>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let service = &service;
                scope.spawn(move || service.acquire().expect("within capacity"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect()
    });

    // Uniqueness is the whole point — double-check it.
    let mut names: Vec<usize> = guards.iter().map(NameGuard::value).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), threads, "duplicate names!");
    let max = names.last().copied().unwrap_or(0);
    println!(
        "    {} threads -> {} unique names, all within 0..{} (largest: {})",
        threads,
        names.len(),
        service.namespace_size(),
        max,
    );
    drop(guards);
    assert_eq!(service.held(), 0);
    println!("    all names recycled on guard drop\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let threads = 32;
    println!("one acquire per thread, three interchangeable backends:\n");
    for algorithm in [
        Algorithm::Rebatching,
        Algorithm::Adaptive,
        Algorithm::FastAdaptive,
    ] {
        run_backend(algorithm, threads)?;
    }

    // Drop-based recycling: the same namespace serves wave after wave.
    let service = NameService::builder(Algorithm::Rebatching, threads)
        .seed_policy(SeedPolicy::Fixed(7))
        .build()?;
    for wave in 0..3 {
        let guards: Vec<NameGuard<&NameService>> = (0..threads)
            .map(|_| service.acquire().expect("within capacity"))
            .collect();
        println!("wave {wave}: holding {} names", guards.len());
        drop(guards); // all recycled here
    }
    assert_eq!(service.held(), 0);
    println!("all waves recycled; 0 names held");
    Ok(())
}
