//! A miniature model server: one process-wide [`ProgramCache`], one
//! [`BatchScheduler`] per hot program, many concurrent request threads —
//! including the persistent sharded runtime (`num_shards > 1`: one
//! long-lived shard worker pool forming and running every batch). This is
//! the executable version of the request lifecycle described in
//! `docs/ARCHITECTURE.md`.
//!
//! Run with `cargo run -p lobster-serve --example serve`. The example prints
//! the cache behaviour (miss → compile, hits, coalesced concurrent
//! requests) and the scheduler's batching statistics, so it doubles as a
//! quick tour of the serving knobs.

use lobster::{FactSet, ProvenanceKind, Value};
use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
use std::sync::Arc;
use std::time::Duration;

const REACHABILITY: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

fn main() {
    // --- The cache: each distinct program compiles once per process. ------
    let cache = Arc::new(ProgramCache::with_budget(1 << 20));

    // Eight "handler threads" race for the same program. Exactly one
    // compiles; the other seven block and share the artifact.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache
                    .get_or_compile(REACHABILITY, ProvenanceKind::AddMultProb)
                    .expect("program compiles")
            })
        })
        .collect();
    let program = handles
        .into_iter()
        .map(|h| h.join().expect("handler thread"))
        .next_back()
        .expect("eight handlers ran");
    let stats = cache.stats();
    println!(
        "cache: {} compile(s) for 8 concurrent requests \
         ({} miss, {} coalesced, {} hit)",
        stats.compiles, stats.misses, stats.coalesced, stats.hits
    );
    // Re-requesting is now a pure hit.
    cache
        .get_or_compile(REACHABILITY, ProvenanceKind::AddMultProb)
        .expect("cached");
    println!("cache: re-request hits ({} total hits)", cache.stats().hits);

    // --- The scheduler: one fix-point per mini-batch, on a persistent ----
    // --- runtime. ---------------------------------------------------------
    // `max_batch_size` caps how many requests share a fix-point;
    // `max_queue_delay` bounds how long the first request of a batch can
    // wait for company. With `num_shards` = 2 the scheduler spawns its
    // two shard workers ONCE, here — they form every batch below and run
    // it, paying no per-batch spawn/join.
    let scheduler = BatchScheduler::new(
        program,
        SchedulerConfig::default()
            .with_max_batch_size(16)
            .with_max_queue_delay(Duration::from_millis(2))
            .with_num_shards(2),
    );

    // Sixty-four independent requests, submitted as fast as possible.
    let tickets: Vec<_> = (0..64u32)
        .map(|i| {
            let mut request = FactSet::new();
            request.add("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.9));
            request.add("edge", &[Value::U32(i + 1), Value::U32(i + 2)], Some(0.9));
            scheduler.submit(request)
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let i = i as u32;
        let result = ticket.wait().expect("request served");
        let p = result.probability("path", &[Value::U32(i), Value::U32(i + 2)]);
        assert!((p - 0.81).abs() < 1e-9, "request {i}: {p}");
    }
    let stats = scheduler.stats();
    println!(
        "scheduler: {} requests in {} batch(es) over 2 persistent shard workers \
         (largest {}, {} full / {} timer flushes, {} shard chunks)",
        stats.samples,
        stats.batches,
        stats.largest_batch,
        stats.full_flushes,
        stats.timer_flushes,
        stats.sharded_chunks,
    );
    assert!(
        stats.batches < stats.samples,
        "batching amortized at least one fix-point"
    );
    assert!(
        stats.sharded_chunks >= stats.batches,
        "every batch fanned out across the persistent shard workers"
    );
}
