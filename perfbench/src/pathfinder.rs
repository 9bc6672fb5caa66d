//! `pathfinder-batch`: paper Fig. 9 differentiable inference. Pathfinder
//! grid-10 samples under diff-top-1-proofs are submitted by one thread to an
//! in-process `BatchScheduler` (batch 32, one shard per CPU), which waits for
//! all of them; the unit of work is that wave.

use crate::layers::{ms, ratio, CoreCalls, Sheet};
use crate::{median_ms, say, stats, Ctx, Measured, SetupTimes, Tally, LAYER_REPS};
use lobster::{
    DiffTop1Proof, DynProgram, FactSet, InputFactId, InputFactRegistry, Lobster, Provenance,
    ProvenanceKind, RunResult, ShardConfig, Value,
};
use lobster_baselines::ScallopEngine;
use lobster_serve::{BatchScheduler, SchedulerConfig};
use lobster_workloads::{pathfinder, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const GRID: u32 = 10;
/// Distinct samples per run; every wave submits all of them.
const POOL: usize = 128;
const BATCH: usize = 32;
/// Waves between two groups of timed set-ups.
const SETUP_EVERY: usize = 10;
/// Passes over the pool made by each traced probe.
const PROBE_PASSES: usize = 3;
/// Largest |Δp| accepted against the oracle.
pub const TOLERANCE: f64 = 1e-9;

/// The expected output probability of every tuple of `relation`, from the
/// tuple-at-a-time `ScallopEngine` under diff-top-1-proofs. Every fact's
/// probability is registered before the tags are built: the proof
/// provenance reads probabilities from its registry, and an empty registry
/// makes every proof weigh 1.0.
pub fn scallop_outputs(
    program: &str,
    facts: &WorkloadFacts,
    relation: &str,
) -> Vec<(Vec<Value>, f64)> {
    let ram = lobster_datalog::parse(program).expect("program parses").ram;
    let registry = InputFactRegistry::new();
    for (_, _, prob) in &facts.facts {
        registry.register(*prob, None);
    }
    let provenance = DiffTop1Proof::new(registry);
    let tagged: Vec<(String, Vec<u64>, _)> = facts
        .facts
        .iter()
        .enumerate()
        .map(|(i, (rel, values, prob))| {
            let tag = provenance.input_tag(InputFactId(i as u32), *prob);
            (rel.clone(), values.iter().map(Value::encode).collect(), tag)
        })
        .collect();
    let db = ScallopEngine::new(provenance.clone())
        .run(&ram, &tagged)
        .expect("the stand-in has no timeout");
    db.get(relation)
        .map(|rows| {
            rows.iter()
                .map(|(row, tag)| {
                    let tuple = row.iter().map(|&w| Value::U32(w as u32)).collect();
                    (tuple, provenance.output(tag).probability)
                })
                .collect()
        })
        .unwrap_or_default()
}

fn compile() -> DynProgram {
    Lobster::builder(pathfinder::PROGRAM)
        .provenance(ProvenanceKind::DiffTop1Proof)
        .compile()
        .expect("Pathfinder compiles")
}

fn verify(tally: &mut Tally, sample: usize, expected: f64, result: Result<RunResult, String>) {
    match result {
        Ok(result) => {
            let got = result.probability("endpoints_connected", &[]);
            tally.check((got - expected).abs() <= TOLERANCE, || {
                format!("sample {sample}: p = {got}, oracle {expected}")
            });
        }
        Err(e) => tally.check(false, || format!("sample {sample}: {e}")),
    }
}

pub fn run(ctx: &Ctx) -> Measured {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x9A7F_0000);
    let samples: Vec<WorkloadFacts> = (0..POOL)
        .map(|i| pathfinder::generate(GRID, i % 2 == 0, &mut rng).facts())
        .collect();
    let expected: Vec<f64> = samples
        .iter()
        .map(|s| {
            scallop_outputs(pathfinder::PROGRAM, s, "endpoints_connected")
                .first()
                .map_or(0.0, |(_, p)| *p)
        })
        .collect();
    let fact_sets: Vec<FactSet> = samples.iter().map(WorkloadFacts::to_fact_set).collect();
    println!(
        "pathfinder-batch: {POOL} grid-{GRID} samples per wave, batch {BATCH}, {} shards",
        ctx.nproc
    );

    let config = SchedulerConfig::default()
        .with_max_batch_size(BATCH)
        .with_num_shards(ctx.nproc);
    let build = || BatchScheduler::new(Arc::new(compile()), config.clone());
    let mut setup = SetupTimes::default();
    let scheduler = setup.time(build);
    let mut sheet = Sheet::default();
    if ctx.traced {
        sheet.set(
            "datalog.parse_ms",
            median_ms(LAYER_REPS, || lobster_datalog::parse(pathfinder::PROGRAM)),
        );
        sheet.set("core.compile_ms", median_ms(LAYER_REPS, compile));
    }

    let mut tally = Tally::default();
    let wave = |tally: &mut Tally| {
        let requests = fact_sets.clone();
        let start = Instant::now();
        let tickets: Vec<_> = requests.into_iter().map(|f| scheduler.submit(f)).collect();
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let took = ms(start.elapsed());
        for (i, result) in results.into_iter().enumerate() {
            verify(tally, i, expected[i], result.map_err(|e| e.to_string()));
        }
        took
    };
    wave(&mut tally);

    let before = scheduler.stats();
    let mut waves_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed() < ctx.seconds || waves_ms.len() < 2 {
        waves_ms.push(wave(&mut tally));
        if waves_ms.len() % SETUP_EVERY == 0 {
            setup.time(build);
        }
    }
    let after = scheduler.stats();
    let setup_s = setup.median_s();
    say(
        "setup_s",
        setup_s,
        "s",
        &format!(
            "median of {} compiles + schedulers with shard workers, in groups spread over the run",
            setup.count()
        ),
    );
    let summary = stats::Summary::of(&waves_ms);
    // Samples per second at the median wave, robust to a stalled wave.
    let throughput = POOL as f64 / (summary.p50 / 1e3);
    say(
        "samples_per_s",
        throughput,
        "1/s",
        &format!("{} waves", waves_ms.len()),
    );
    say("wave_ms", summary.p50, "ms", &summary.describe("ms"));

    if ctx.traced {
        let batches = (after.batches - before.batches) as f64;
        sheet.set(
            "serve.batch_size_mean",
            ratio((after.samples - before.samples) as f64, batches),
        );
        sheet.set(
            "serve.timer_flush_frac",
            ratio((after.timer_flushes - before.timer_flushes) as f64, batches),
        );
        let program = Arc::clone(scheduler.program());
        drop(scheduler);
        let batches: Vec<&[FactSet]> = fact_sets.chunks(BATCH).collect();
        // Single-device batches: the core/apm/gpu split of one fix-point.
        let mut calls = CoreCalls::default();
        for _ in 0..PROBE_PASSES {
            for (b, batch) in batches.iter().enumerate() {
                let results = calls.observe(
                    program.device(),
                    || program.run_batch(batch),
                    |r| {
                        r.as_ref()
                            .ok()
                            .and_then(|v| v.first())
                            .map(|r| r.stats.clone())
                            .unwrap_or_default()
                    },
                );
                for (i, result) in results.into_iter().flatten().enumerate() {
                    let index = b * BATCH + i;
                    verify(&mut tally, index, expected[index], Ok(result));
                }
            }
        }
        calls.record(&mut sheet, "Program::run_batch (single device)");
        // The same batches across the shard devices.
        let executor = program.sharded_executor(ShardConfig::default().with_num_shards(ctx.nproc));
        let (mut batch_ms, mut imbalance, mut steals, mut spills) = (Vec::new(), Vec::new(), 0, 0);
        for _ in 0..PROBE_PASSES {
            for (b, batch) in batches.iter().enumerate() {
                let owned = batch.to_vec();
                let start = Instant::now();
                let outcome = executor.run_batch_owned(owned);
                batch_ms.push(ms(start.elapsed()));
                match outcome {
                    Ok((results, shard_stats)) => {
                        let busy: Vec<f64> = shard_stats
                            .device_stats
                            .iter()
                            .map(|d| d.kernel_time.total_ns() as f64)
                            .collect();
                        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
                        let max = busy.iter().copied().fold(0.0, f64::max);
                        imbalance.push(ratio(max, mean));
                        steals += shard_stats.steals;
                        spills += shard_stats.spills;
                        for (i, result) in results.into_iter().enumerate() {
                            let index = b * BATCH + i;
                            verify(&mut tally, index, expected[index], Ok(result));
                        }
                    }
                    Err(e) => tally.check(false, || format!("sharded batch {b}: {e}")),
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let core_batch_ms = mean(&batch_ms);
        let sched_batch_ms = ratio(
            waves_ms.iter().sum::<f64>(),
            (waves_ms.len() * batches.len()) as f64,
        );
        sheet.set("core.batch_ms", core_batch_ms);
        sheet.set("core.shard_imbalance", mean(&imbalance));
        sheet.set("core.steals", steals as f64 / PROBE_PASSES as f64);
        sheet.set("core.spills", spills as f64 / PROBE_PASSES as f64);
        sheet.set("serve.exec_ms", core_batch_ms);
        sheet.set("serve.sched_ms", sched_batch_ms - core_batch_ms);
        println!(
            "  decomposition of one scheduled batch: {sched_batch_ms:.4} ms = sharded \
             executor {core_batch_ms:.4} + scheduler residual {:.4}",
            sched_batch_ms - core_batch_ms
        );
        sheet.set("trace.p50_ms", summary.p50);
        sheet.set("trace.throughput_per_s", throughput);
    }
    Measured {
        setup_s,
        p50_ms: summary.p50,
        throughput_per_s: throughput,
        tally,
        sheet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_weighs_proofs_by_the_registered_probabilities() {
        // One edge of probability 0.3 between the two endpoints.
        let mut facts = WorkloadFacts::new();
        facts.push("edge", vec![Value::U32(0), Value::U32(1)], Some(0.3));
        facts.push("is_endpoint", vec![Value::U32(0)], Some(0.99));
        facts.push("is_endpoint", vec![Value::U32(1)], Some(0.99));
        let out = scallop_outputs(pathfinder::PROGRAM, &facts, "endpoints_connected");
        assert_eq!(out.len(), 1);
        assert!((out[0].1 - 0.3 * 0.99 * 0.99).abs() < 1e-12, "{out:?}");
        // Lobster agrees with the oracle.
        let program = compile();
        let mut session = program.session();
        for (rel, values, prob) in &facts.facts {
            session.add_fact(rel, values, *prob).expect("fact fits");
        }
        let p = session
            .run()
            .expect("runs")
            .probability("endpoints_connected", &[]);
        assert!((p - out[0].1).abs() <= TOLERANCE);
    }
}
