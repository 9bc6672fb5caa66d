//! Cross-shard differential suite: a `ShardedExecutor` must be
//! indistinguishable from single-device `run_batch` — same tuples, same
//! probabilities, same gradients (and through them the proof supports) — for
//! every shard count, provenance kind, skew shape, and memory-budget spill.
//!
//! Like the other property tests in this crate, randomness comes from a
//! seeded stream of cases (the offline stand-in for proptest): failures
//! print the case seed so the batch can be replayed.

use lobster::{
    Device, DeviceConfig, DynProgram, FactSet, Lobster, Program, ProvenanceKind, SessionProvenance,
    ShardConfig, ShardedExecutor, Value,
};
use lobster_provenance::DiffTop1Proof;
use lobster_workloads::clutrr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 6;

/// The three reasoning modes the differential suite must cover: plain
/// probabilities (tags), top-1 proofs, and differentiable proofs
/// (gradients).
const KINDS: [ProvenanceKind; 3] = [
    ProvenanceKind::AddMultProb,
    ProvenanceKind::Top1Proof,
    ProvenanceKind::DiffTop1Proof,
];

/// Exact (bit-level) agreement of two results: identical relation sets,
/// identical tuple order, identical probabilities, identical gradient
/// vectors. No tolerance — the sharded path computes each sample with the
/// same kernels in the same order, so the floats must match exactly.
fn assert_identical(got: &lobster::RunResult, want: &lobster::RunResult, what: &str) {
    assert_eq!(got.relations(), want.relations(), "{what}: relation sets");
    for rel in want.relations() {
        assert_eq!(
            got.relation(rel),
            want.relation(rel),
            "{what}: `{rel}` rows (tuples, probabilities, or gradients) diverged"
        );
    }
}

fn assert_batches_identical(got: &[lobster::RunResult], want: &[lobster::RunResult], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result counts");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_identical(g, w, &format!("{what}, sample {i}"));
    }
}

/// A random CLUTRR-like batch: kinship chains of varying length (varying
/// per-sample fact counts), batch sizes from empty to a dozen samples.
fn random_clutrr_batch(seed: u64) -> Vec<FactSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let batch_size = rng.gen_range(0usize..12);
    (0..batch_size)
        .map(|_| {
            let chain = rng.gen_range(2usize..6);
            clutrr::generate(chain, &mut rng).facts().to_fact_set()
        })
        .collect()
}

#[test]
fn sharded_is_bit_identical_to_single_device_across_kinds_and_shard_counts() {
    for kind in KINDS {
        let program = DynProgram::compile(clutrr::PROGRAM, kind).unwrap();
        for case in 0..CASES {
            let seed = 0x5AAD + case;
            let samples = random_clutrr_batch(seed);
            let reference = program.run_batch(&samples).unwrap();
            for shards in 1..=4 {
                let sharded = program
                    .sharded_executor(ShardConfig::default().with_num_shards(shards))
                    .run_batch(&samples)
                    .unwrap();
                assert_batches_identical(
                    &sharded,
                    &reference,
                    &format!("kind {kind}, seed {seed:#x}, shards {shards}"),
                );
            }
        }
    }
}

#[test]
fn a_persistent_executor_stays_bit_identical_across_many_reused_batches() {
    // The persistent worker pool changes *when* work runs (long-lived
    // threads, shared queue, recycled sessions and fork registries) but may
    // never change *what* it computes: one executor serving a stream of
    // differently-shaped random batches must agree bit-for-bit with the
    // single-device reference on every one of them.
    for kind in KINDS {
        let program = DynProgram::compile(clutrr::PROGRAM, kind).unwrap();
        let executor = program.sharded_executor(ShardConfig::default().with_num_shards(3));
        for case in 0..CASES * 3 {
            let seed = 0xC0FFEE + case;
            let samples = random_clutrr_batch(seed);
            let reference = program.run_batch(&samples).unwrap();
            let sharded = executor.run_batch(&samples).unwrap();
            assert_batches_identical(
                &sharded,
                &reference,
                &format!("kind {kind}, seed {seed:#x}, persistent batch {case}"),
            );
        }
    }
}

#[test]
fn empty_batch_agrees_for_every_shard_count() {
    let program = DynProgram::compile(clutrr::PROGRAM, ProvenanceKind::DiffTop1Proof).unwrap();
    let reference = program.run_batch(&[]).unwrap();
    assert!(reference.is_empty());
    for shards in 1..=4 {
        let sharded = program
            .sharded_executor(ShardConfig::default().with_num_shards(shards))
            .run_batch(&[])
            .unwrap();
        assert!(sharded.is_empty(), "shards {shards}");
    }
}

#[test]
fn batch_smaller_than_shard_count_agrees_and_leaves_shards_idle() {
    let program = Lobster::builder(clutrr::PROGRAM)
        .compile_typed::<DiffTop1Proof>()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let samples: Vec<FactSet> = (0..2)
        .map(|_| clutrr::generate(3, &mut rng).facts().to_fact_set())
        .collect();
    let reference = program.run_batch(&samples).unwrap();

    let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(4));
    let (sharded, stats) = executor.run_batch_with_stats(&samples).unwrap();
    assert_batches_identical(&sharded, &reference, "2 samples over 4 shards");
    // Two samples can occupy at most two shards; the plan must not
    // manufacture empty chunks for the idle ones.
    assert_eq!(stats.planned_chunks, 2);
    assert_eq!(stats.executed_chunks, 2);
    assert_eq!(stats.per_shard_samples.iter().sum::<usize>(), 2);
    // Two chunks can occupy at most two shards (a fast shard may steal the
    // second chunk, so exactly how many work is scheduling-dependent).
    let busy = stats.per_shard_samples.iter().filter(|&&n| n > 0).count();
    assert!((1..=2).contains(&busy), "stats: {stats:?}");
}

/// A transitive-closure chain sample over a disjoint node range, sized by
/// edge count — the knob the skew and spill tests below turn.
fn tc_chain(edges: u32, base: u32) -> FactSet {
    let mut facts = FactSet::new();
    for i in 0..edges {
        facts.add(
            "edge",
            &[Value::U32(base + i), Value::U32(base + i + 1)],
            Some(0.95),
        );
    }
    facts
}

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

#[test]
fn pathological_sample_is_carved_out_and_stolen_work_still_agrees() {
    let program = Lobster::builder(TC)
        .compile_typed::<DiffTop1Proof>()
        .unwrap();
    // One sample holds 60 of ~74 facts — far beyond the skew threshold —
    // while seven small samples fill the rest of the batch.
    let mut samples = vec![tc_chain(60, 0)];
    for k in 0..7 {
        samples.push(tc_chain(2, 1000 + 10 * k));
    }
    let reference = program.run_batch(&samples).unwrap();

    let executor = ShardedExecutor::new(
        program,
        ShardConfig::default()
            .with_num_shards(2)
            .with_skew_factor(1.5),
    );
    let (sharded, stats) = executor.run_batch_with_stats(&samples).unwrap();
    assert_batches_identical(&sharded, &reference, "skewed batch over 2 shards");
    // The pathological sample became its own unassigned work unit next to
    // the two packed bins, so three chunks were pooled for two shards: the
    // shard that avoids the monster (or finishes it first) takes the rest.
    assert_eq!(stats.planned_chunks, 3, "stats: {stats:?}");
    assert_eq!(stats.executed_chunks, 3);
    assert_eq!(stats.spills, 0);
    assert_eq!(stats.per_shard_samples.iter().sum::<usize>(), 8);
}

/// The smallest device budget (in bytes) at which `program.run_batch` over
/// `samples` succeeds, found by bisection. Execution is deterministic, so
/// the success/failure frontier is a single stable threshold.
fn minimal_working_budget<P: SessionProvenance>(
    program: &Program<P>,
    samples: &[FactSet],
) -> usize {
    let fits = |budget: usize| {
        let device = Device::new(DeviceConfig {
            memory_limit: Some(budget),
            ..DeviceConfig::default()
        });
        program.with_device(device).run_batch(samples).is_ok()
    };
    let mut lo = 8usize; // fails: no fix-point fits in 8 bytes
    let mut hi = 1 << 24; // succeeds: far beyond any test batch
    assert!(!fits(lo), "8-byte budget unexpectedly sufficient");
    assert!(fits(hi), "16 MiB budget unexpectedly insufficient");
    while hi - lo > 16 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[test]
fn shard_budget_forcing_a_spill_still_agrees_with_the_unsharded_path() {
    let program = Lobster::builder(TC)
        .compile_typed::<DiffTop1Proof>()
        .unwrap();
    // Eight identically-shaped samples over disjoint node ranges: the
    // database cost is exactly additive, so a 4-sample chunk needs twice
    // the budget of a 2-sample chunk.
    let samples: Vec<FactSet> = (0..8).map(|k| tc_chain(12, 1000 * k)).collect();
    let reference = program.run_batch(&samples).unwrap();

    // A per-shard budget of 1.5× the 2-sample minimum sits strictly between
    // "half a shard's plan fits" and "a shard's whole 4-sample plan fits".
    let two_sample_budget = minimal_working_budget(&program, &samples[..2]);
    let shard_budget = two_sample_budget + two_sample_budget / 2;
    let shard_device = |_: usize| {
        Device::new(DeviceConfig {
            memory_limit: Some(shard_budget),
            ..DeviceConfig::default()
        })
    };
    let executor = ShardedExecutor::with_devices(
        program,
        vec![shard_device(0), shard_device(1)],
        ShardConfig::default(),
    );
    let (sharded, stats) = executor.run_batch_with_stats(&samples).unwrap();

    // Both planned 4-sample chunks overflowed their shard budget, split in
    // half, and the halves ran — results still agree exactly with the
    // unconstrained single-device run.
    assert_batches_identical(&sharded, &reference, "spilled batch over 2 shards");
    assert!(stats.spills >= 2, "stats: {stats:?}");
    assert_eq!(stats.planned_chunks, 2);
    assert!(stats.executed_chunks >= 4, "stats: {stats:?}");
    assert_eq!(stats.per_shard_samples.iter().sum::<usize>(), 8);
}

#[test]
fn a_budget_no_split_can_satisfy_reports_the_oom() {
    let program = Lobster::builder(TC)
        .compile_typed::<DiffTop1Proof>()
        .unwrap();
    let samples: Vec<FactSet> = (0..4).map(|k| tc_chain(12, 1000 * k)).collect();
    let tiny = Device::new(DeviceConfig {
        memory_limit: Some(64),
        ..DeviceConfig::default()
    });
    let executor = ShardedExecutor::with_devices(
        program,
        vec![tiny.clone(), tiny],
        ShardConfig::default().with_max_spill_depth(2),
    );
    let err = executor.run_batch(&samples).unwrap_err();
    assert!(
        matches!(
            err,
            lobster::LobsterError::Execution(lobster_apm::ExecError::Device(_))
        ),
        "expected a device OOM, got {err:?}"
    );
}
