//! Serving throughput: one-request-at-a-time vs the batching scheduler on
//! the CLUTRR workload, written to `BENCH_serve.json`.
//!
//! The baseline (`sequential`) serves requests through the *same*
//! [`BatchScheduler`] stack with batching disabled (`max_batch_size = 1`) —
//! one fix-point and one dispatch per request, which is what a
//! Scallop-style server does. The batched runs turn the batching knob up and
//! pay one fix-point per mini-batch. A `direct-loop` row (plain in-process
//! loop, no scheduler, no threads) is also recorded so the dispatch overhead
//! itself is visible. Every configuration is run `--repeats` times through
//! [`lobster_bench::measure`] and reports its fastest run (for the fixed
//! request count, the best throughput): wall time, samples/sec and p50/p99
//! request latency, with the spread of the runs' wall times alongside.
//!
//! A `sharded` mode is also measured: the same scheduler with each pooled
//! batch fanned out across shard devices (`SchedulerConfig::num_shards`,
//! backed by the scheduler's persistent `DynShardedExecutor`), recorded
//! next to its single-device counterpart so the cost/win of multi-device
//! execution is visible.
//!
//! An `executor` pair isolates the persistent-runtime win itself: the same
//! sharded batches driven through one long-lived `DynShardedExecutor`
//! (`persistent-BxS`) versus a fresh executor constructed — shard threads
//! spawned and joined — for every batch (`spawn-per-batch-BxS`, the pre-
//! persistent-runtime behaviour). The delta is pure spawn/teardown and
//! session-setup overhead; the fix-point work is identical.
//!
//! Run with `cargo run -p lobster-bench --release --bin serve_throughput`.
//! Knobs:
//!
//! * `LOBSTER_BENCH_QUICK=1` — shrink the workload for a CI smoke run.
//! * `--requests N`, `--chain-length L` — workload size overrides.
//! * `--assert-batched-not-slower` — exit non-zero unless the largest batch
//!   size reaches at least the sequential throughput (the CI gate).
//! * `--assert-speedup X` — exit non-zero unless the largest batch size
//!   reaches `X ×` the sequential throughput.
//! * `--assert-sharded-factor X` — exit non-zero unless 2-way sharding
//!   reaches `X ×` the single-device throughput at the same batch size
//!   (the CI gate uses `0.9`). Shard devices execute on threads, so on a
//!   machine with a single CPU the shards of a batch cannot overlap at all;
//!   the gate is only enforced when at least 2 CPUs are available (the
//!   factor is still measured and recorded either way).
//! * `--assert-persistent-factor X` — exit non-zero unless the persistent
//!   executor reaches `X ×` the spawn-per-batch throughput on the same
//!   batches (the CI gate uses `1.0`: removing per-batch spawn/join must
//!   never cost throughput).

use lobster::ProvenanceKind;
use lobster_bench::{measure, print_header, scaled, Args, Artifact, Samples};
use lobster_serve::json::{obj, Json};
use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
use lobster_workloads::clutrr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Latency/throughput figures for one configuration.
struct Measurement {
    label: String,
    batch_size: usize,
    /// Shard devices each batch fans out across (1 = single device).
    num_shards: usize,
    /// Wall time in seconds: this run's, or after [`sample`] every run's.
    walls: Samples,
    latencies_ms: Samples,
    fixpoints: u64,
}

impl Measurement {
    fn samples_per_sec(&self) -> f64 {
        self.latencies_ms.values().len() as f64 / self.walls.min().max(1e-12)
    }

    fn json(&self, sequential_sps: f64) -> Json {
        self.walls.row(
            1.0,
            [
                ("label", Json::from(self.label.as_str())),
                ("batch_size", Json::from(self.batch_size)),
                ("num_shards", Json::from(self.num_shards)),
                ("wall_s", Json::Num(self.walls.min())),
                ("samples_per_sec", Json::Num(self.samples_per_sec())),
                ("p50_ms", Json::Num(self.latencies_ms.percentile(50.0))),
                ("p99_ms", Json::Num(self.latencies_ms.percentile(99.0))),
                ("fixpoints", Json::from(self.fixpoints)),
                (
                    "speedup_vs_sequential",
                    Json::Num(self.samples_per_sec() / sequential_sps.max(1e-12)),
                ),
            ],
        )
    }
}

/// The fastest of `n` runs (for a fixed request count, the best throughput)
/// with the wall times of all `n`.
fn sample(n: usize, run: impl Fn() -> Measurement) -> Measurement {
    let mut runs = Vec::new();
    let walls = measure(n, || {
        runs.push(run());
        Duration::from_secs_f64(runs[runs.len() - 1].walls.min())
    });
    let fastest = runs
        .into_iter()
        .min_by(|a, b| a.walls.min().total_cmp(&b.walls.min()));
    Measurement {
        walls,
        ..fastest.expect("measure takes at least one sample")
    }
}

/// A plain in-process loop — no scheduler, no threads, no dispatch. Not the
/// baseline (a server cannot run this way), but recorded so the scheduler's
/// own overhead is visible next to the batching win. `run_one` executes one
/// request, so the same loop measures the `DynProgram` match-dispatch path
/// (`direct-loop`) and the statically-typed `Program` path (`direct-typed`);
/// the ratio of the two is the provenance-erasure overhead.
fn run_direct(
    label: &str,
    requests: &[lobster::FactSet],
    run_one: &(dyn Fn(&lobster::FactSet) + '_),
) -> Measurement {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(requests.len());
    for request in requests {
        let t = Instant::now();
        run_one(request);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Measurement {
        label: label.to_string(),
        batch_size: 1,
        num_shards: 1,
        walls: Samples::new(vec![start.elapsed().as_secs_f64()]),
        latencies_ms: Samples::new(latencies),
        fixpoints: requests.len() as u64,
    }
}

/// The batching scheduler at a given `max_batch_size` and shard count:
/// requests are submitted open-loop (all at once, as a loaded server's queue
/// would look) and awaited in submission order; each latency spans
/// submit → result read.
fn run_batched(
    program: &std::sync::Arc<lobster::DynProgram>,
    requests: &[lobster::FactSet],
    batch_size: usize,
    num_shards: usize,
) -> Measurement {
    let scheduler = BatchScheduler::new(
        std::sync::Arc::clone(program),
        SchedulerConfig::default()
            .with_max_batch_size(batch_size)
            .with_max_queue_delay(Duration::from_millis(2))
            .with_num_shards(num_shards),
    );
    let label = if num_shards > 1 {
        format!("sharded-{batch_size}x{num_shards}")
    } else if batch_size == 1 {
        "sequential".to_string()
    } else {
        format!("batched-{batch_size}")
    };
    // Clone the request payloads before starting the clock: a real client
    // constructs its request once, so the copy is not part of serving time.
    let payloads: Vec<lobster::FactSet> = requests.to_vec();
    let start = Instant::now();
    let tickets: Vec<(Instant, lobster_serve::Ticket)> = payloads
        .into_iter()
        .map(|request| (Instant::now(), scheduler.submit(request)))
        .collect();
    let latencies: Vec<f64> = tickets
        .into_iter()
        .map(|(submitted, ticket)| {
            ticket.wait().expect("request served");
            submitted.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let wall = start.elapsed();
    // A batch pays one fix-point per *chunk*; the scheduler counts the
    // chunks its batches actually executed (spills included).
    let fixpoints = scheduler.stats().sharded_chunks;
    Measurement {
        label,
        batch_size,
        num_shards,
        walls: Samples::new(vec![wall.as_secs_f64()]),
        latencies_ms: Samples::new(latencies),
        fixpoints,
    }
}

/// The same sharded batches driven either through one persistent
/// `DynShardedExecutor` (constructed before the clock starts, shard workers
/// reused by every batch) or through a fresh executor per batch (shard
/// threads spawned and joined inside the loop — the per-call model the
/// persistent runtime replaced). Batch payloads are cloned outside the
/// timed region in both modes; each request's latency is its batch's
/// execution time.
fn run_executor(
    program: &std::sync::Arc<lobster::DynProgram>,
    requests: &[lobster::FactSet],
    batch_size: usize,
    num_shards: usize,
    persistent: bool,
) -> Measurement {
    let config = lobster::ShardConfig::default().with_num_shards(num_shards);
    let batches: Vec<Vec<lobster::FactSet>> = requests
        .chunks(batch_size)
        .map(<[lobster::FactSet]>::to_vec)
        .collect();
    let label = if persistent {
        format!("persistent-{batch_size}x{num_shards}")
    } else {
        format!("spawn-per-batch-{batch_size}x{num_shards}")
    };
    let held = persistent.then(|| program.sharded_executor(config.clone()));
    let mut latencies = Vec::with_capacity(requests.len());
    let mut fixpoints = 0u64;
    let start = Instant::now();
    for batch in batches {
        let t = Instant::now();
        let n = batch.len();
        let (_, stats) = match &held {
            Some(executor) => executor.run_batch_owned(batch).expect("batch runs"),
            None => program
                .sharded_executor(config.clone())
                .run_batch_owned(batch)
                .expect("batch runs"),
        };
        fixpoints += stats.executed_chunks as u64;
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.extend(std::iter::repeat(elapsed_ms).take(n));
    }
    Measurement {
        label,
        batch_size,
        num_shards,
        walls: Samples::new(vec![start.elapsed().as_secs_f64()]),
        latencies_ms: Samples::new(latencies),
        fixpoints,
    }
}

fn main() {
    let args = Args::from_env();
    // Multiples of the largest batch size, so no configuration pays a
    // trailing partial batch (and its queue-delay timer) by construction.
    let requests_n: usize = args.value("--requests").unwrap_or_else(|| scaled(96, 64));
    if requests_n < 4 {
        eprintln!("--requests must be at least 4 (the smallest batched configuration)");
        std::process::exit(2);
    }
    let chain_length: usize = args.value("--chain-length").unwrap_or_else(|| scaled(5, 4));
    let repeats: usize = args.value("--repeats").unwrap_or(3).max(1);
    let assert_not_slower = args.has("--assert-batched-not-slower");
    let assert_speedup: Option<f64> = args.value("--assert-speedup");
    let assert_sharded_factor: Option<f64> = args.value("--assert-sharded-factor");
    let assert_persistent_factor: Option<f64> = args.value("--assert-persistent-factor");

    print_header(
        "Serving throughput — batched scheduler vs one-request-at-a-time",
        "CLUTRR workload; one fix-point per batch vs one per request",
    );

    // Compile once through the serving cache — the same path a server takes.
    let cache = ProgramCache::new();
    let program = cache
        .get_or_compile(clutrr::PROGRAM, ProvenanceKind::DiffTop1Proof)
        .expect("CLUTRR program compiles");
    assert_eq!(cache.stats().compiles, 1);

    let mut rng = StdRng::seed_from_u64(42);
    let requests: Vec<lobster::FactSet> = (0..requests_n)
        .map(|_| {
            clutrr::generate(chain_length, &mut rng)
                .facts()
                .to_fact_set()
        })
        .collect();
    println!(
        "{requests_n} requests, chain length {chain_length}, provenance {}\n",
        ProvenanceKind::DiffTop1Proof
    );

    // The statically-typed twin of the cached program: same source, same
    // provenance, same options — the only difference is that every API call
    // goes through zero-cost static dispatch instead of the `DynProgram`
    // `match`. The throughput ratio of the two direct loops is therefore
    // the match-dispatch overhead (ROADMAP: provenance-erased hot path).
    let typed_program = lobster::Lobster::builder(clutrr::PROGRAM)
        .compile_typed::<lobster_provenance::DiffTop1Proof>()
        .expect("CLUTRR program compiles (typed)");

    let run_dyn = |request: &lobster::FactSet| {
        program
            .run_batch(std::slice::from_ref(request))
            .expect("request runs");
    };
    let run_typed = |request: &lobster::FactSet| {
        typed_program
            .run_batch(std::slice::from_ref(request))
            .expect("request runs");
    };

    // Warm up allocators and the simulated device so the sequential baseline
    // is not penalized for going first.
    run_direct("warmup", &requests[..requests_n.min(4)], &run_dyn);
    let kernel_time_before = program.device().stats().kernel_time;

    // Every configuration (the baseline included) is measured several times
    // and keeps its fastest run: wall times here are milliseconds, so a
    // single descheduling blip otherwise dominates the comparison. One
    // selection rule for every row — the CI gates compare like with like.
    let direct = sample(repeats, || run_direct("direct-loop", &requests, &run_dyn));
    let direct_typed = sample(repeats, || {
        run_direct("direct-typed", &requests, &run_typed)
    });
    let sequential = sample(repeats, || run_batched(&program, &requests, 1, 1));
    let batch_sizes: Vec<usize> = [4usize, 8, 16, 32]
        .iter()
        .copied()
        .filter(|b| *b <= requests_n)
        .collect();
    let batched: Vec<Measurement> = batch_sizes
        .iter()
        .map(|b| sample(repeats, || run_batched(&program, &requests, *b, 1)))
        .collect();
    // Sharded serving at the largest batch size: every pooled batch fans out
    // across 2 and 4 shard devices. Compared against the single-device run
    // of the same batch size (its "single-device counterpart").
    let largest_batch = *batch_sizes.last().expect("at least one batch size");
    let sharded: Vec<Measurement> = [2usize, 4]
        .iter()
        .map(|s| {
            sample(repeats, || {
                run_batched(&program, &requests, largest_batch, *s)
            })
        })
        .collect();
    // The persistent-runtime pair: identical 2-way-sharded batches, with and
    // without per-batch executor construction. A smallish batch size keeps
    // the batch count high enough that per-batch spawn/join overhead is a
    // visible slice of the wall time; extra repeats (these are the shortest
    // walls measured here) keep the ≥ 1.0× CI gate off the noise floor.
    let exec_batch = 8usize.min(requests_n);
    let exec_repeats = repeats.max(5);
    let spawn_per_batch = sample(exec_repeats, || {
        run_executor(&program, &requests, exec_batch, 2, false)
    });
    let persistent = sample(exec_repeats, || {
        run_executor(&program, &requests, exec_batch, 2, true)
    });

    let seq_sps = sequential.samples_per_sec();
    println!(
        "{:<20} {:>10} {:>14} {:>10} {:>10} {:>10} {:>9}",
        "config", "fixpoints", "samples/sec", "p50 (ms)", "p99 (ms)", "wall (s)", "speedup"
    );
    for m in [&direct, &direct_typed, &sequential]
        .into_iter()
        .chain(&batched)
        .chain(&sharded)
        .chain([&spawn_per_batch, &persistent])
    {
        println!(
            "{:<20} {:>10} {:>14.1} {:>10.2} {:>10.2} {:>10.3} {:>8.2}x",
            m.label,
            m.fixpoints,
            m.samples_per_sec(),
            m.latencies_ms.percentile(50.0),
            m.latencies_ms.percentile(99.0),
            m.walls.min(),
            m.samples_per_sec() / seq_sps.max(1e-12),
        );
    }

    // BENCH_serve.json — machine-readable record, uploaded as a CI artifact.
    let persistent_factor =
        persistent.samples_per_sec() / spawn_per_batch.samples_per_sec().max(1e-12);
    // Provenance-erasure cost: > 1.0 means the typed program out-ran the
    // `DynProgram` `match`-dispatch path on identical work.
    let dispatch_overhead_factor =
        direct_typed.samples_per_sec() / direct.samples_per_sec().max(1e-12);
    // Where the (single-device) serving wall time went, per kernel bucket.
    // Sharded rows run on split shard devices and are attributed in
    // BENCH_kernels.json instead.
    let kernel_time = program
        .device()
        .stats()
        .kernel_time
        .delta_since(&kernel_time_before);
    println!(
        "\ndispatch overhead (typed vs dyn direct loop): {dispatch_overhead_factor:.3}x \
         — one match per batch API call"
    );
    // The artifact may carry an `overload` section written by the
    // `serve_load` load generator; a throughput rerun keeps it.
    let artifact = Artifact::new("BENCH_serve.json", false);
    let rows = |ms: &[Measurement]| Json::Arr(ms.iter().map(|m| m.json(seq_sps)).collect());
    artifact.write(
        obj([
            ("workload", Json::from("clutrr")),
            (
                "provenance",
                Json::from(ProvenanceKind::DiffTop1Proof.to_string().as_str()),
            ),
            ("requests", Json::from(requests_n)),
            ("chain_length", Json::from(chain_length)),
            ("direct_loop", direct.json(seq_sps)),
            ("direct_typed", direct_typed.json(seq_sps)),
            (
                "dispatch_overhead_factor",
                Json::Num(dispatch_overhead_factor),
            ),
            (
                "kernel_time_ms",
                obj([
                    ("sort_ms", Json::Num(kernel_time.sort_ns as f64 / 1e6)),
                    ("join_ms", Json::Num(kernel_time.join_ns as f64 / 1e6)),
                    ("unique_ms", Json::Num(kernel_time.unique_ns as f64 / 1e6)),
                    ("other_ms", Json::Num(kernel_time.other_ns as f64 / 1e6)),
                ]),
            ),
            ("sequential", sequential.json(seq_sps)),
            ("batched", rows(&batched)),
            ("sharded", rows(&sharded)),
            (
                "executor",
                Json::Arr(vec![
                    spawn_per_batch.json(seq_sps),
                    persistent.json(seq_sps),
                ]),
            ),
            ("persistent_vs_spawn_factor", Json::Num(persistent_factor)),
        ]),
        Some("overload"),
    );

    let largest = batched.last().expect("at least one batch size");
    let speedup = largest.samples_per_sec() / seq_sps.max(1e-12);
    if assert_not_slower && speedup < 1.0 {
        eprintln!(
            "FAIL: batched throughput ({:.1}/s at batch {}) below sequential ({seq_sps:.1}/s)",
            largest.samples_per_sec(),
            largest.batch_size,
        );
        std::process::exit(1);
    }
    if let Some(required) = assert_speedup {
        if speedup < required {
            eprintln!(
                "FAIL: batched speedup {speedup:.2}x at batch {} below required {required:.2}x",
                largest.batch_size,
            );
            std::process::exit(1);
        }
    }
    if let Some(required) = assert_sharded_factor {
        // Gate on 2-way sharding against its single-device counterpart (the
        // same batch size, one device): sharding must not tax throughput by
        // more than the allowed factor, and ideally wins.
        let two_way = sharded
            .iter()
            .find(|m| m.num_shards == 2)
            .expect("2-way sharded configuration measured");
        let factor = two_way.samples_per_sec() / largest.samples_per_sec().max(1e-12);
        let cpus = artifact.mode.cpus;
        if cpus < 2 {
            // Shards run on threads: with one CPU the two halves of every
            // batch serialize, so the factor only reflects the machine, not
            // the executor. Record it, but don't gate on it.
            println!(
                "sharded(2) vs single-device at batch {}: {factor:.2}x — gate skipped \
                 ({cpus} CPU available, shards cannot overlap)",
                largest.batch_size
            );
        } else if factor < required {
            eprintln!(
                "FAIL: sharded(2) throughput {:.1}/s is {factor:.2}x single-device \
                 {:.1}/s at batch {}, below required {required:.2}x",
                two_way.samples_per_sec(),
                largest.samples_per_sec(),
                largest.batch_size,
            );
            std::process::exit(1);
        } else {
            println!(
                "sharded(2) vs single-device at batch {}: {factor:.2}x (required ≥ {required:.2}x)",
                largest.batch_size
            );
        }
    }
    if let Some(required) = assert_persistent_factor {
        // The persistent executor runs the exact same chunks as the
        // spawn-per-batch loop minus thread spawn/join and session setup, so
        // it must never lose throughput (CI gates at 1.0).
        if persistent_factor < required {
            eprintln!(
                "FAIL: persistent executor {:.1}/s is {persistent_factor:.2}x the \
                 spawn-per-batch {:.1}/s at batch {exec_batch}, below required {required:.2}x",
                persistent.samples_per_sec(),
                spawn_per_batch.samples_per_sec(),
            );
            std::process::exit(1);
        }
        println!(
            "persistent vs spawn-per-batch at batch {exec_batch}: \
             {persistent_factor:.2}x (required ≥ {required:.2}x)"
        );
    }
}
