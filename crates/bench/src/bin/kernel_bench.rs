//! Kernel-layer throughput: every hot kernel at parallelism 1/2/4/8 plus an
//! end-to-end transitive-closure fix-point, written to `BENCH_kernels.json`.
//!
//! Each kernel row reports the minimum wall time of the `--repeats` samples
//! [`lobster_bench::measure`] takes at a given worker count over the *same*
//! input data, so `speedup_vs_p1` isolates what the parallel decomposition
//! (radix scatter, merge-path partitioning, partitioned hash builds,
//! radix-grouped probes) actually buys on this machine. A
//! `kernel_time_ms` section breaks the device's accumulated chunk-execution
//! (busy) time into the sort/join/unique buckets of
//! [`lobster_gpu::KernelTime`], and `kernel_wall_ms` does the same for
//! enqueue-to-completion wall time — busy exceeding wall means pool lanes
//! overlapped; wall far above busy/lanes means the pool queued. This is what
//! lets serving-layer numbers (`BENCH_serve.json`) be attributed to
//! individual kernels; `docs/PERFORMANCE.md` walks through reading both.
//!
//! Run with `cargo run -p lobster-bench --release --bin kernel_bench`.
//! Knobs:
//!
//! * `--quick` / `LOBSTER_BENCH_QUICK=1` — shrink the workload for a CI
//!   smoke run.
//! * `--rows N` — per-kernel input size override.
//! * `--assert-parallel-factor X` — exit non-zero unless sort, unique *and*
//!   hash_build at parallelism 4 each reach `X ×` the parallelism-1
//!   throughput. Kernel pool workers are threads, so on a single-CPU
//!   machine they cannot overlap; the gate is skipped (but the factors
//!   still recorded) when fewer than 2 CPUs are available.
//! * `--assert-merge-join-factor X` — exit non-zero unless the merge join
//!   (pre-sorted build side, no index) beats a hash join *including* its
//!   index build by `X ×` at parallelism 4 — the wall-clock case the
//!   compiler's sort-order pass exploits when it picks
//!   `JoinStrategy::Merge`.
//! * `--assert-encoded-factor X` — exit non-zero unless the wide-string
//!   fix-point moves `X ×` fewer host↔device bytes with dictionary-encoded
//!   storage than with full-width storage (the `bytes_per_fixpoint`
//!   fields of the artifact's `wide_string` rows). Transfer volume is
//!   deterministic for a given workload, so this gate never self-skips on
//!   small runners; the wall-clock ratio is recorded alongside but not
//!   gated (too noisy on shared CI machines).
//!
//! `BENCH_kernels.json` records the machine context (`cpus`) and each
//! gate's outcome (`not-requested` / `passed` / `failed` /
//! `skipped-single-cpu`), so a recorded run is self-describing: a missing
//! speedup on a one-CPU runner is distinguishable from a regression.

use lobster::{Lobster, RuntimeOptions, SymbolTable, Value};
use lobster_bench::{measure, print_header, quick_mode, Args, Artifact, Samples};
use lobster_gpu::{kernels, Device, DeviceConfig, HashIndex, KernelTime};
use lobster_provenance::Unit;
use lobster_serve::json::{obj, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];

/// One measured configuration of one kernel; `wall` is in seconds.
struct Row {
    kernel: &'static str,
    parallelism: usize,
    rows: usize,
    wall: Samples,
}

impl Row {
    fn json(&self, p1_wall: f64) -> Json {
        self.wall.row(
            1e3,
            [
                ("kernel", Json::from(self.kernel)),
                ("parallelism", Json::from(self.parallelism)),
                ("rows", Json::from(self.rows)),
                ("wall_ms", Json::Num(self.wall.min() * 1e3)),
                (
                    "speedup_vs_p1",
                    Json::Num(p1_wall / self.wall.min().max(1e-12)),
                ),
            ],
        )
    }
}

fn device_with(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        min_parallel_rows: 1024,
        ..DeviceConfig::default()
    })
}

fn refs(cols: &[Vec<u64>]) -> Vec<&[u64]> {
    cols.iter().map(|c| c.as_slice()).collect()
}

fn random_cols(rng: &mut StdRng, rows: usize, arity: usize, key_space: u64) -> Vec<Vec<u64>> {
    (0..arity)
        .map(|_| (0..rows).map(|_| rng.gen_range(0..key_space)).collect())
        .collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::from_env();
    let quick = quick_mode() || args.has("--quick");
    let scale = |full: usize, small: usize| if quick { small } else { full };
    // Quick mode still uses enough rows that per-chunk compute dominates
    // thread-spawn overhead on small CI runners — the ≥1.0× gate measures
    // the decomposition, not the spawn cost.
    let rows: usize = args
        .value("--rows")
        .unwrap_or_else(|| scale(400_000, 150_000));
    let repeats: usize = args.value("--repeats").unwrap_or(3).max(1);
    let assert_factor: Option<f64> = args.value("--assert-parallel-factor");
    let assert_merge_factor: Option<f64> = args.value("--assert-merge-join-factor");
    let assert_encoded_factor: Option<f64> = args.value("--assert-encoded-factor");
    let tc_edges = scale(400, 120);

    print_header(
        "Kernel throughput — parallel radix sort, segmented dedup, chunked joins",
        "same inputs at 1/2/4/8 workers; speedups isolate the parallel decomposition",
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Shared inputs. Small key spaces create the duplicate/match density a
    // fix-point actually sees.
    let table = random_cols(&mut rng, rows, 2, (rows as u64 / 2).max(8));
    let tags: Vec<f64> = (0..rows)
        .map(|_| rng.gen_range(0..1 << 20) as f64 * 0.5)
        .collect();
    let counts: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..4)).collect();
    let indices: Vec<u64> = (0..rows).map(|_| rng.gen_range(0..rows as u64)).collect();
    let build = random_cols(&mut rng, rows, 1, (rows as u64 / 4).max(4));
    let probe = random_cols(&mut rng, rows, 1, (rows as u64 / 4).max(4));
    let half = rows / 2;

    let mut rows_out: Vec<Row> = Vec::new();
    let mut times_out: Vec<(usize, KernelTime, KernelTime)> = Vec::new();
    for &p in &PARALLELISMS {
        let device = device_with(p);
        // Inputs that must be pre-sorted are prepared outside the timings.
        let perm = kernels::sort_permutation(&device, &refs(&table));
        let (sorted, sorted_tags) =
            kernels::apply_permutation(&device, &perm, &refs(&table), &tags);
        let (a_half, at_half) = (
            sorted
                .iter()
                .map(|c| c[..half].to_vec())
                .collect::<Vec<_>>(),
            &sorted_tags[..half],
        );
        let index = HashIndex::build(&device, &refs(&build), 2);
        let index_mono = HashIndex::build_partitioned(&device, &refs(&build), 2, 1);
        // The merge join's precondition — *both* sides sorted on the key —
        // is prepared outside the timings, exactly as the executor sees it
        // when sort-order inference picks the merge path (stable partitions
        // are maintained sorted; the sort is never paid per join). The
        // hash_join_with_build row runs over the same sorted inputs so the
        // two rows compare the strategies the compiler actually chooses
        // between.
        let build_perm = kernels::sort_permutation(&device, &refs(&build));
        let (sorted_build, _) =
            kernels::apply_permutation(&device, &build_perm, &refs(&build), &tags);
        let probe_perm = kernels::sort_permutation(&device, &refs(&probe));
        let (sorted_probe, _) =
            kernels::apply_permutation(&device, &probe_perm, &refs(&probe), &tags);

        let mut bench = |kernel: &'static str, f: &mut dyn FnMut()| {
            let wall = measure(repeats, || {
                let start = Instant::now();
                f();
                start.elapsed()
            });
            rows_out.push(Row {
                kernel,
                parallelism: p,
                rows,
                wall,
            });
        };

        bench("sort", &mut || {
            let perm = kernels::sort_permutation(&device, &refs(&table));
            device.arena().recycle_shared(perm);
        });
        bench("unique", &mut || {
            let (cols, _tags) =
                kernels::unique(&device, &refs(&sorted), &sorted_tags, |a, b| a + b);
            for col in cols {
                device.arena().recycle_shared(col);
            }
        });
        bench("scan", &mut || {
            let (offsets, _) = kernels::scan(&device, &counts);
            device.arena().recycle_shared(offsets);
        });
        bench("merge", &mut || {
            let (cols, _tags) = kernels::merge(
                &device,
                &refs(&sorted),
                &sorted_tags,
                &refs(&a_half),
                at_half,
            );
            for col in cols {
                device.arena().recycle_shared(col);
            }
        });
        bench("difference", &mut || {
            let (cols, _tags) =
                kernels::difference(&device, &refs(&sorted), &sorted_tags, &refs(&a_half), half);
            for col in cols {
                device.arena().recycle_shared(col);
            }
        });
        bench("eval", &mut || {
            let col0 = &sorted[0];
            let col1 = &sorted[1];
            let (cols, src) = kernels::eval(&device, rows, 2, |range, sink| {
                let mut out = [0u64; 2];
                for i in range {
                    if col0[i] % 5 != 0 {
                        out[0] = col0[i].wrapping_mul(3) + 1;
                        out[1] = col1[i] ^ col0[i];
                        sink.emit(i, &out);
                    }
                }
            });
            for col in cols {
                device.arena().recycle_shared(col);
            }
            device.arena().recycle_shared(src);
        });
        bench("gather", &mut || {
            let out = kernels::gather(&device, &indices, &sorted[0]);
            device.arena().recycle_shared(out);
        });
        bench("hash_build", &mut || {
            // The partitioned index build: hash once, radix-scatter row ids
            // by partition, build the per-partition slot tables in parallel.
            let fresh = HashIndex::build(&device, &refs(&build), 2);
            fresh.recycle(&device);
        });
        bench("hash_join", &mut || {
            // Partitioned index (the default at this row count), so counting
            // and joining run radix-grouped against cache-resident
            // partitions.
            let counts = kernels::count_matches(&device, &index, &refs(&probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) =
                kernels::hash_join(&device, &index, &refs(&probe), &counts, &offsets, total);
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        bench("hash_join_monolithic", &mut || {
            // Same probe against a single-partition index: the pre-partition
            // layout, one big slot table, no probe grouping. The gap to the
            // `hash_join` row is what partitioning buys at this row count.
            let counts = kernels::count_matches(&device, &index_mono, &refs(&probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::hash_join(
                &device,
                &index_mono,
                &refs(&probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        bench("hash_join_with_build", &mut || {
            // The per-iteration cost when the index cannot be reused (the
            // non-static case): build, count, scan, join.
            let fresh = HashIndex::build(&device, &refs(&sorted_build), 2);
            let counts = kernels::count_matches(&device, &fresh, &refs(&sorted_probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::hash_join(
                &device,
                &fresh,
                &refs(&sorted_probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });
        bench("merge_join", &mut || {
            // The index-free path `JoinStrategy::Merge` compiles to: binary
            // searches over the sorted build side, no build step at all.
            let counts = kernels::merge_count(&device, &refs(&sorted_build), &refs(&sorted_probe));
            let (offsets, total) = kernels::scan(&device, &counts);
            let (bi, pi) = kernels::merge_join(
                &device,
                &refs(&sorted_build),
                &refs(&sorted_probe),
                &counts,
                &offsets,
                total,
            );
            for col in [counts, offsets, bi, pi] {
                device.arena().recycle_shared(col);
            }
        });

        let stats = device.stats();
        times_out.push((p, stats.kernel_time, stats.kernel_wall));
    }

    // End-to-end: the canonical transitive-closure fix-point, whose cost is
    // dominated by exactly the kernels measured above.
    let tc_source = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    let mut e2e_rows: Vec<Row> = Vec::new();
    for &p in &PARALLELISMS {
        let wall = measure(repeats, || {
            // The e2e row uses the production chunking threshold: small
            // fix-point iterations stay sequential, exactly as served
            // traffic would run them.
            let device = Device::new(DeviceConfig {
                parallelism: p,
                ..DeviceConfig::default()
            });
            let program = Lobster::builder(tc_source)
                .device(device)
                .compile_typed::<Unit>()
                .expect("TC compiles");
            let mut session = program.session();
            for i in 0..tc_edges as u32 {
                session
                    .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], None)
                    .expect("edge fact");
            }
            let start = Instant::now();
            let result = session.run().expect("TC runs");
            assert!(result.len("path") > tc_edges);
            start.elapsed()
        });
        e2e_rows.push(Row {
            kernel: "transitive_closure",
            parallelism: p,
            rows: tc_edges,
            wall,
        });
    }

    // Wide-string workload: the same transitive closure, but over *symbol*
    // keys — long entity names interned to ids — once with dictionary-encoded
    // storage (the default) and once with full-width storage. Encoded, the
    // two symbol columns of every table pack into a single narrow word
    // column, so every sort / merge / difference / dedup / join over stored
    // rows touches roughly half the bytes. `bytes_per_fixpoint` is the
    // host↔device transfer volume the run records at GPU-region boundaries
    // (the final boundary copies the whole fix-point database back), which
    // is deterministic for a given workload; wall time rides along for
    // context.
    struct WideRow {
        mode: &'static str,
        wall: Samples,
        bytes: usize,
    }
    let sym_source = "type edge(x: symbol, y: symbol)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";
    let sym_edges = tc_edges;
    let symbols = SymbolTable::global();
    let ids: Vec<u32> = (0..=sym_edges as u32)
        .map(|i| symbols.intern(&format!("entity-with-a-rather-long-name-{i:06}")))
        .collect();
    let mut wide_rows: Vec<WideRow> = Vec::new();
    for (mode, encoded) in [("encoded", true), ("full_width", false)] {
        let mut bytes = 0;
        let wall = measure(repeats, || {
            let device = Device::new(DeviceConfig {
                parallelism: 4,
                ..DeviceConfig::default()
            });
            let program = Lobster::builder(sym_source)
                .device(device.clone())
                .options(RuntimeOptions::default().with_encode_columns(encoded))
                .compile_typed::<Unit>()
                .expect("symbol TC compiles");
            let mut session = program.session();
            for pair in ids.windows(2) {
                session
                    .add_fact(
                        "edge",
                        &[Value::Symbol(pair[0]), Value::Symbol(pair[1])],
                        None,
                    )
                    .expect("edge fact");
            }
            let before = device.stats();
            let start = Instant::now();
            let result = session.run().expect("symbol TC runs");
            let wall = start.elapsed();
            // Transfer volume is deterministic, so every sample moves the
            // same bytes.
            let moved = device.stats().delta_since(&before);
            bytes = moved.bytes_to_device + moved.bytes_to_host;
            assert!(result.len("path") > sym_edges);
            wall
        });
        wide_rows.push(WideRow { mode, wall, bytes });
    }
    let wide_at = |mode: &str| {
        wide_rows
            .iter()
            .find(|r| r.mode == mode)
            .expect("wide-string row measured")
    };
    let encoded_width_factor =
        wide_at("full_width").bytes as f64 / (wide_at("encoded").bytes as f64).max(1.0);
    let encoded_wall_factor =
        wide_at("full_width").wall.min() / wide_at("encoded").wall.min().max(1e-12);

    let wall_at = |rows: &[Row], kernel: &str, p: usize| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.parallelism == p)
            .map(|r| r.wall.min())
            .expect("row measured")
    };
    println!(
        "{:<20} {:>12} {:>6} {:>12} {:>9}",
        "kernel", "rows", "par", "wall (ms)", "speedup"
    );
    for r in rows_out.iter().chain(&e2e_rows) {
        let rows = if r.kernel == "transitive_closure" {
            &e2e_rows
        } else {
            &rows_out
        };
        let base = wall_at(rows, r.kernel, 1);
        println!(
            "{:<20} {:>12} {:>6} {:>12.3} {:>8.2}x",
            r.kernel,
            r.rows,
            r.parallelism,
            r.wall.min() * 1e3,
            base / r.wall.min().max(1e-12),
        );
    }

    for r in &wide_rows {
        println!(
            "{:<20} {:>12} {:>6} {:>12.3} {:>9.2}MB",
            format!("sym_tc_{}", r.mode),
            sym_edges,
            4,
            r.wall.min() * 1e3,
            r.bytes as f64 / 1e6,
        );
    }

    let factor =
        |kernel: &str| wall_at(&rows_out, kernel, 1) / wall_at(&rows_out, kernel, 4).max(1e-12);
    let sort_factor = factor("sort");
    let unique_factor = factor("unique");
    let hash_build_factor = factor("hash_build");
    // How much the sorted-build merge path buys over paying a fresh hash
    // index every join, at the gate parallelism.
    let merge_factor = wall_at(&rows_out, "hash_join_with_build", 4)
        / wall_at(&rows_out, "merge_join", 4).max(1e-12);
    let artifact = Artifact::new("BENCH_kernels.json", quick);
    let cpus = artifact.mode.cpus;

    // Evaluate the gates *before* writing the JSON so each outcome is
    // recorded alongside the numbers it judged; the process still exits
    // non-zero after the write when a requested gate failed.
    let parallel_gate = match assert_factor {
        None => "not-requested",
        Some(_) if cpus < 2 => {
            // Kernel pool workers are threads; on one CPU they serialize, so
            // the factor measures the machine, not the kernels.
            println!(
                "sort x4 {sort_factor:.2}x / unique x4 {unique_factor:.2}x / \
                 hash_build x4 {hash_build_factor:.2}x — gate skipped \
                 ({cpus} CPU available, workers cannot overlap)"
            );
            "skipped-single-cpu"
        }
        Some(required)
            if sort_factor < required
                || unique_factor < required
                || hash_build_factor < required =>
        {
            eprintln!(
                "FAIL: parallel(4) sort {sort_factor:.2}x / unique {unique_factor:.2}x / \
                 hash_build {hash_build_factor:.2}x below required {required:.2}x vs sequential"
            );
            "failed"
        }
        Some(required) => {
            println!(
                "sort x4 {sort_factor:.2}x / unique x4 {unique_factor:.2}x / \
                 hash_build x4 {hash_build_factor:.2}x (required ≥ {required:.2}x)"
            );
            "passed"
        }
    };
    let merge_gate = match assert_merge_factor {
        None => "not-requested",
        Some(required) if merge_factor < required => {
            eprintln!(
                "FAIL: merge join {merge_factor:.2}x vs hash-join-with-build, \
                 below required {required:.2}x"
            );
            "failed"
        }
        Some(required) => {
            println!(
                "merge join {merge_factor:.2}x vs hash-join-with-build (required ≥ {required:.2}x)"
            );
            "passed"
        }
    };
    let encoded_gate = match assert_encoded_factor {
        None => "not-requested",
        Some(required) if encoded_width_factor < required => {
            eprintln!(
                "FAIL: encoded wide-string fix-point moved only {encoded_width_factor:.2}x \
                 fewer bytes than full-width, below required {required:.2}x"
            );
            "failed"
        }
        Some(required) => {
            println!(
                "encoded wide-string fix-point: {encoded_width_factor:.2}x fewer bytes, \
                 {encoded_wall_factor:.2}x wall (required ≥ {required:.2}x bytes)"
            );
            "passed"
        }
    };

    let rows_json = |rows: &[Row]| {
        Json::Arr(
            rows.iter()
                .map(|r| r.json(wall_at(rows, r.kernel, 1)))
                .collect(),
        )
    };
    let time_buckets = |pick: fn(&(usize, KernelTime, KernelTime)) -> &KernelTime| {
        let bucket = |(p, t): (usize, &KernelTime)| {
            obj([
                ("parallelism", Json::from(p)),
                ("sort_ms", Json::Num(t.sort_ns as f64 / 1e6)),
                ("join_ms", Json::Num(t.join_ns as f64 / 1e6)),
                ("unique_ms", Json::Num(t.unique_ns as f64 / 1e6)),
                ("other_ms", Json::Num(t.other_ns as f64 / 1e6)),
            ])
        };
        Json::Arr(times_out.iter().map(|e| bucket((e.0, pick(e)))).collect())
    };
    let wide_json = |r: &WideRow| {
        r.wall.row(
            1e3,
            [
                ("mode", Json::from(r.mode)),
                ("edges", Json::from(sym_edges)),
                ("parallelism", Json::from(4usize)),
                ("wall_ms", Json::Num(r.wall.min() * 1e3)),
                ("bytes_per_fixpoint", Json::from(r.bytes)),
            ],
        )
    };
    artifact.write(
        obj([
            ("workload", Json::from("synthetic-kernels")),
            ("rows", Json::from(rows)),
            ("tc_edges", Json::from(tc_edges)),
            ("kernels", rows_json(&rows_out)),
            ("e2e", rows_json(&e2e_rows)),
            (
                "wide_string",
                Json::Arr(wide_rows.iter().map(wide_json).collect()),
            ),
            ("kernel_time_ms", time_buckets(|e| &e.1)),
            ("kernel_wall_ms", time_buckets(|e| &e.2)),
            ("sort_parallel4_factor", Json::Num(sort_factor)),
            ("unique_parallel4_factor", Json::Num(unique_factor)),
            ("hash_build_parallel4_factor", Json::Num(hash_build_factor)),
            (
                "merge_vs_hash_build_parallel4_factor",
                Json::Num(merge_factor),
            ),
            ("encoded_width_factor", Json::Num(encoded_width_factor)),
            ("encoded_wall_factor", Json::Num(encoded_wall_factor)),
            ("parallel_factor_gate", Json::from(parallel_gate)),
            ("merge_join_gate", Json::from(merge_gate)),
            ("encoded_gate", Json::from(encoded_gate)),
        ]),
        None,
    );

    if parallel_gate == "failed" || merge_gate == "failed" || encoded_gate == "failed" {
        std::process::exit(1);
    }
}
