//! Incremental fix-point maintenance cost, written to `BENCH_incremental.json`.
//!
//! The question the artifact answers: after a session has materialized a
//! fix-point, what does a small delta cost relative to evaluating from
//! scratch — and does that cost scale with `|Δ|` or with `|DB|`? Each row
//! measures one chain-shaped transitive-closure workload (the worst case for
//! from-scratch evaluation: a chain of `n` edges needs `n` fix-point
//! iterations and derives `n(n+1)/2` paths):
//!
//! * `from_scratch_ms` — a fresh session evaluating the whole database.
//! * `delta1_ms` / `delta16_ms` — inserting 1 / 16 new edges into the
//!   materialized session and running `run_incremental`, which drains the
//!   tuple-level semi-naive frontier in a handful of iterations regardless
//!   of database size (`delta1_iterations` records how many).
//! * `retract1_ms` — retracting one edge, which takes the stratum-level
//!   delete/re-derive path and is expected to cost about a from-scratch run;
//!   it is recorded so the fallback's price is visible, not hidden.
//!
//! Run with `cargo run -p lobster-bench --release --bin incremental_bench`.
//! Knobs:
//!
//! * `--quick` / `LOBSTER_BENCH_QUICK=1` — shrink the workloads for a CI
//!   smoke run.
//! * `--repeats N` — samples per timing (default 3) through
//!   [`lobster_bench::measure`]; each `*_ms` field is their minimum.
//! * `--assert-delta-factor X` — exit non-zero unless the `|Δ|=1` update on
//!   the largest workload is at least `X ×` cheaper than from-scratch.
//!
//! The artifact stamps `quick_mode` and `cpus` like every other bench
//! artifact, so a degraded regeneration is self-describing.

use lobster::{FactSet, Lobster, Unit, Value};
use lobster_bench::{measure, print_header, quick_mode, Args, Artifact, Samples};
use lobster_serve::json::{obj, Json};
use std::time::Instant;

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// One measured workload size; every timing is in seconds.
struct Row {
    edges: usize,
    path_tuples: usize,
    from_scratch: Samples,
    scratch_iterations: usize,
    delta1: Samples,
    delta1_iterations: usize,
    delta16: Samples,
    retract1: Samples,
}

impl Row {
    fn scratch_over_delta1(&self) -> f64 {
        self.from_scratch.min() / self.delta1.min().max(1e-9)
    }

    fn json(&self) -> Json {
        let mut row = obj([
            ("edges", Json::from(self.edges)),
            ("path_tuples", Json::from(self.path_tuples)),
            ("scratch_iterations", Json::from(self.scratch_iterations)),
            ("delta1_iterations", Json::from(self.delta1_iterations)),
            ("scratch_over_delta1", Json::Num(self.scratch_over_delta1())),
        ]);
        let mut spread = obj([]);
        for (key, samples) in [
            ("from_scratch_ms", &self.from_scratch),
            ("delta1_ms", &self.delta1),
            ("delta16_ms", &self.delta16),
            ("retract1_ms", &self.retract1),
        ] {
            row.set(key, Json::Num(samples.min() * 1e3));
            spread.set(key, samples.row(1e3, []));
        }
        row.set("spread", spread);
        row
    }
}

fn chain(from: u32, count: usize) -> FactSet {
    let mut facts = FactSet::new();
    for i in 0..count as u32 {
        facts.add(
            "edge",
            &[Value::U32(from + i), Value::U32(from + i + 1)],
            None,
        );
    }
    facts
}

fn main() {
    let args = Args::from_env();
    let quick = quick_mode() || args.has("--quick");
    let repeats: usize = args.value("--repeats").unwrap_or(3).max(1);
    let assert_delta_factor: Option<f64> = args.value("--assert-delta-factor");
    let sizes: &[usize] = if quick {
        &[32, 64, 128]
    } else {
        &[128, 512, 1024]
    };

    print_header(
        "Incremental maintenance — delta updates against materialized fix-points",
        "delta cost must track |Δ|, not |DB|; chain TC is the worst case for from-scratch",
    );

    let program = Lobster::builder(TC)
        .compile_typed::<Unit>()
        .expect("TC compiles");

    let mut rows: Vec<Row> = Vec::new();
    for &edges in sizes {
        // From-scratch reference: a fresh session per repeat, timed over the
        // full evaluation only (fact registration excluded on both paths).
        let mut scratch_iterations = 0;
        let from_scratch = measure(repeats, || {
            let mut session = program.session();
            session.insert_facts(&chain(0, edges)).expect("chain facts");
            let start = Instant::now();
            let result = session.run().expect("TC runs");
            let elapsed = start.elapsed();
            assert_eq!(result.len("path"), edges * (edges + 1) / 2);
            scratch_iterations = result.stats.iterations;
            elapsed
        });

        // Materialize once; every delta repeat starts from a clone so the
        // measured update always applies to the same stable fix-point.
        let mut base = program.session();
        let ids = base.insert_facts(&chain(0, edges)).expect("chain facts");
        base.run_incremental().expect("materializes");

        let mut delta1_iterations = 0;
        let measure_insert = |delta: usize, iterations: Option<&mut usize>| {
            let mut out_iterations = 0;
            let wall = measure(repeats, || {
                let mut session = base.clone();
                session
                    .insert_facts(&chain(edges as u32, delta))
                    .expect("delta facts");
                let start = Instant::now();
                let result = session.run_incremental().expect("delta update runs");
                let elapsed = start.elapsed();
                let grown = edges + delta;
                assert_eq!(result.len("path"), grown * (grown + 1) / 2);
                out_iterations = result.stats.iterations;
                elapsed
            });
            if let Some(slot) = iterations {
                *slot = out_iterations;
            }
            wall
        };
        let delta1 = measure_insert(1, Some(&mut delta1_iterations));
        let delta16 = measure_insert(16, None);

        let retract1 = measure(repeats, || {
            let mut session = base.clone();
            assert_eq!(session.retract_facts(&ids[..1]), 1);
            let start = Instant::now();
            let result = session.run_incremental().expect("retraction runs");
            let elapsed = start.elapsed();
            // Dropping edge (0, 1) removes exactly the `edges` paths that
            // started at node 0.
            assert_eq!(result.len("path"), edges * (edges + 1) / 2 - edges);
            elapsed
        });

        rows.push(Row {
            edges,
            path_tuples: edges * (edges + 1) / 2,
            from_scratch,
            scratch_iterations,
            delta1,
            delta1_iterations,
            delta16,
            retract1,
        });
    }

    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "edges", "paths", "scratch(ms)", "Δ=1(ms)", "Δ=16(ms)", "retract", "factor"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>8.1}x",
            r.edges,
            r.path_tuples,
            r.from_scratch.min() * 1e3,
            r.delta1.min() * 1e3,
            r.delta16.min() * 1e3,
            r.retract1.min() * 1e3,
            r.scratch_over_delta1(),
        );
    }

    let largest = rows.last().expect("at least one size");
    let largest_factor = largest.scratch_over_delta1();
    let delta_gate = match assert_delta_factor {
        None => "not-requested",
        Some(required) if largest_factor < required => {
            eprintln!(
                "FAIL: |Δ|=1 update on {} edges is only {largest_factor:.2}x cheaper than \
                 from-scratch, below required {required:.2}x",
                largest.edges
            );
            "failed"
        }
        Some(required) => {
            println!(
                "|Δ|=1 on {} edges: {largest_factor:.2}x cheaper than from-scratch \
                 (required ≥ {required:.2}x)",
                largest.edges
            );
            "passed"
        }
    };

    Artifact::new("BENCH_incremental.json", quick).write(
        obj([
            ("workload", Json::from("chain-transitive-closure")),
            ("provenance", Json::from("unit")),
            ("repeats", Json::from(repeats)),
            ("sizes", Json::Arr(rows.iter().map(Row::json).collect())),
            ("largest_scratch_over_delta1", Json::Num(largest_factor)),
            ("delta_factor_gate", Json::from(delta_gate)),
        ]),
        None,
    );

    if delta_gate == "failed" {
        std::process::exit(1);
    }
}
