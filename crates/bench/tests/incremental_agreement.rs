//! Incremental-maintenance differential suite: after every step of a random
//! insert/retract/reweight trace, `Session::run_incremental` must be
//! bit-identical — tuples, probabilities, proofs-through-gradients — to a
//! from-scratch `Session::run` on the very same session. The same session is
//! deliberately the reference: retraction burns fact ids without reusing
//! them, so both paths see identical ids and identical tie-breaks.
//!
//! Like the other differential suites in this crate, randomness comes from a
//! seeded stream of cases; failures print the seed so a trace can be
//! replayed.

use lobster::{
    Device, DeviceConfig, DynProgram, DynSession, FactSet, Lobster, LobsterError, ProvenanceKind,
    RuntimeOptions, Value,
};
use lobster_apm::ExecError;
use lobster_provenance::{AddMultProb, InputFactId, Unit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TC: &str = "type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path";

/// The three reasoning modes the tentpole demands (probabilities, proofs,
/// gradients). `Unit` — the tuple-level delta path — is exercised separately.
const KINDS: [ProvenanceKind; 3] = [
    ProvenanceKind::AddMultProb,
    ProvenanceKind::Top1Proof,
    ProvenanceKind::DiffTop1Proof,
];

const PARALLELISM: [usize; 2] = [1, 4];

fn device(parallelism: usize) -> Device {
    Device::new(DeviceConfig {
        parallelism,
        ..DeviceConfig::default()
    })
}

/// Exact (bit-level) agreement: identical relation sets, identical tuple
/// order, identical probabilities, identical gradient vectors. No tolerance.
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

/// One random trace step applied to a session over a small node domain (so
/// inserts collide with existing edges and retracts hit real support).
fn random_step(
    session: &mut DynSession,
    live: &mut Vec<InputFactId>,
    rng: &mut StdRng,
    probabilistic: bool,
) {
    let roll: f64 = rng.gen_range(0.0f64..1.0);
    if roll < 0.55 || live.is_empty() {
        // Insert a small batch of random edges.
        let count = rng.gen_range(1usize..4);
        let mut facts = FactSet::new();
        for _ in 0..count {
            let x = rng.gen_range(0u32..8);
            let y = rng.gen_range(0u32..8);
            let prob = probabilistic.then(|| rng.gen_range(0.05f64..1.0));
            facts.add("edge", &[Value::U32(x), Value::U32(y)], prob);
        }
        live.extend(session.insert_facts(&facts).unwrap());
    } else if roll < 0.85 {
        // Retract a random batch of previously inserted facts.
        let count = rng.gen_range(1usize..live.len().min(3) + 1);
        let mut ids = Vec::new();
        for _ in 0..count {
            ids.push(live.swap_remove(rng.gen_range(0..live.len())));
        }
        assert_eq!(session.retract_facts(&ids), ids.len());
    } else if probabilistic {
        // Reweight a surviving fact (a training-loop step).
        let id = live[rng.gen_range(0..live.len())];
        session.set_fact_probability(id, rng.gen_range(0.05f64..1.0));
    }
}

fn run_trace(kind: ProvenanceKind, parallelism: usize, seed: u64, steps: usize) {
    let program = Lobster::builder(TC)
        .device(device(parallelism))
        .provenance(kind)
        .compile()
        .unwrap();
    let mut session = program.session();
    let mut live: Vec<InputFactId> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        random_step(&mut session, &mut live, &mut rng, kind.is_probabilistic());
        let incremental = session.run_incremental().unwrap();
        let scratch = session.run().unwrap();
        assert_identical(
            &incremental,
            &scratch,
            &format!("kind {kind}, parallelism {parallelism}, seed {seed:#x}, step {step}"),
        );
    }
}

#[test]
fn random_traces_stay_bit_identical_across_kinds_and_parallelism() {
    for kind in KINDS {
        for parallelism in PARALLELISM {
            for case in 0..3u64 {
                run_trace(kind, parallelism, 0xDE17A + case, 10);
            }
        }
    }
}

#[test]
fn unit_traces_exercise_the_tuple_level_delta_path() {
    // Insert-only Unit refreshes take the semi-naive tuple-level path
    // (delta-exact provenance); mixed traces fall back per step. Both must
    // agree with from-scratch.
    for parallelism in PARALLELISM {
        for case in 0..3u64 {
            run_trace(ProvenanceKind::Unit, parallelism, 0x0DD + case, 12);
        }
    }
}

#[test]
fn insert_only_trace_grows_a_materialized_chain() {
    // A pure insertion stream on the delta path: every step extends a chain
    // by one edge, which must re-derive exactly the new paths.
    let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
    let mut session = program.session();
    for i in 0..16u32 {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(i), Value::U32(i + 1)], None);
        session.insert_facts(&facts).unwrap();
        let incremental = session.run_incremental().unwrap();
        let scratch = session.run().unwrap();
        assert_identical(&incremental, &scratch, &format!("chain step {i}"));
        let expected = ((i as usize + 1) * (i as usize + 2)) / 2;
        assert_eq!(incremental.len("path"), expected, "step {i}");
        if i > 0 {
            // Proof the tuple-level path ran: a from-scratch fix point needs
            // one iteration per chain hop, while the delta drains in a
            // handful regardless of |DB|.
            assert!(
                incremental.stats.iterations < scratch.stats.iterations,
                "step {i}: delta took {} iterations, scratch {}",
                incremental.stats.iterations,
                scratch.stats.iterations
            );
            assert!(
                incremental.stats.iterations <= 4,
                "step {i}: delta frontier did not drain quickly ({} iterations)",
                incremental.stats.iterations
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Delta edge-case property tests (satellite): idempotence, no-op retracts,
// retract-then-reinsert, and the zero-kernel empty delta.
// ---------------------------------------------------------------------------

#[test]
fn double_insert_is_idempotent() {
    let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();

    let mut once = program.session();
    let mut edge = FactSet::new();
    edge.add("edge", &[Value::U32(0), Value::U32(1)], None);
    once.insert_facts(&edge).unwrap();
    let want = once.run_incremental().unwrap();

    let mut twice = program.session();
    twice.insert_facts(&edge).unwrap();
    twice.run_incremental().unwrap();
    // Materialized state exists; the duplicate arrives as a delta.
    twice.insert_facts(&edge).unwrap();
    let got = twice.run_incremental().unwrap();

    assert_identical(&got, &want, "double insert");
    assert_identical(&got, &twice.run().unwrap(), "double insert vs scratch");
}

#[test]
fn retracting_a_nonexistent_fact_is_a_noop() {
    let program = DynProgram::compile(TC, ProvenanceKind::AddMultProb).unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
    let ids = session.insert_facts(&facts).unwrap();
    let before = session.run_incremental().unwrap();

    // An id that was never issued, then a double retract of a real id.
    assert_eq!(session.retract_facts(&[InputFactId(999)]), 0);
    let after = session.run_incremental().unwrap();
    assert_identical(&after, &before, "retract of unknown id");

    assert_eq!(session.retract_facts(&ids), 1);
    assert_eq!(session.retract_facts(&ids), 0, "second retract is a no-op");
    let empty = session.run_incremental().unwrap();
    assert_identical(&empty, &session.run().unwrap(), "after double retract");
    assert!(empty.is_empty("path"));
}

#[test]
fn retract_then_reinsert_restores_bit_identical_state() {
    let program = DynProgram::compile(TC, ProvenanceKind::AddMultProb).unwrap();
    let mut session = program.session();
    let mut base = FactSet::new();
    base.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
    base.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.5));
    session.insert_facts(&base).unwrap();
    let mut extra = FactSet::new();
    extra.add("edge", &[Value::U32(2), Value::U32(3)], Some(0.25));
    let extra_ids = session.insert_facts(&extra).unwrap();
    let original = session.run_incremental().unwrap();

    assert_eq!(session.retract_facts(&extra_ids), 1);
    session.run_incremental().unwrap();
    session.insert_facts(&extra).unwrap();
    let restored = session.run_incremental().unwrap();

    // AddMultProb outputs are id-free, so the restored state must match the
    // original bit for bit — and, as always, the from-scratch reference.
    assert_identical(&restored, &original, "retract-then-reinsert");
    assert_identical(&restored, &session.run().unwrap(), "vs scratch");
}

#[test]
fn empty_delta_launches_zero_kernels() {
    for kind in [ProvenanceKind::Unit, ProvenanceKind::DiffTop1Proof] {
        let program = DynProgram::compile(TC, kind).unwrap();
        let mut session = program.session();
        let mut facts = FactSet::new();
        for i in 0..6u32 {
            facts.add(
                "edge",
                &[Value::U32(i), Value::U32(i + 1)],
                kind.is_probabilistic().then_some(0.5),
            );
        }
        session.insert_facts(&facts).unwrap();
        let first = session.run_incremental().unwrap();
        assert!(first.stats.kernel_launches > 0, "materializing run works");

        let before = program.device().stats().kernel_launches;
        let cached = session.run_incremental().unwrap();
        let after = program.device().stats().kernel_launches;
        assert_eq!(after, before, "kind {kind}: empty delta launched kernels");
        assert_eq!(cached.stats.kernel_launches, 0);
        assert_identical(&cached, &first, "kind {kind}: cached result");
    }
}

#[test]
fn prob_update_refresh_matches_scratch_and_keeps_gradient_ids() {
    // The training-loop pattern: reweight inputs between incremental runs.
    let program = DynProgram::compile(TC, ProvenanceKind::DiffTop1Proof).unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.9));
    facts.add("edge", &[Value::U32(1), Value::U32(2)], Some(0.5));
    let ids = session.insert_facts(&facts).unwrap();
    session.run_incremental().unwrap();

    session.set_fact_probability(ids[1], 0.75);
    let refreshed = session.run_incremental().unwrap();
    assert_identical(&refreshed, &session.run().unwrap(), "after reweight");
    let target = [Value::U32(0), Value::U32(2)];
    assert!((refreshed.probability("path", &target) - 0.675).abs() < 1e-12);
    // Gradient ids survive the refresh: they still name the original facts.
    let grad = refreshed.gradient("path", &target);
    assert!(grad
        .iter()
        .any(|(id, g)| *id == ids[0] && (*g - 0.75).abs() < 1e-12));
    assert!(grad
        .iter()
        .any(|(id, g)| *id == ids[1] && (*g - 0.9).abs() < 1e-12));
}

#[test]
fn reset_clears_materialized_state() {
    // Satellite regression: a recycled session must not leak a previous
    // request's deltas through the materialized fix point.
    let program = DynProgram::compile(TC, ProvenanceKind::Unit).unwrap();
    let mut session = program.session();
    let mut facts = FactSet::new();
    facts.add("edge", &[Value::U32(0), Value::U32(1)], None);
    session.insert_facts(&facts).unwrap();
    assert_eq!(session.run_incremental().unwrap().len("path"), 1);
    assert!(session.is_materialized());
    session.reset();
    assert!(
        !session.is_materialized(),
        "reset session kept a materialized fix point"
    );
    assert!(
        session.run_incremental().unwrap().is_empty("path"),
        "reset session leaked the previous request's facts"
    );
}

/// An `edge` chain `from → from + 1 → … → to`, every edge at probability 0.9.
fn edge_chain(from: u32, to: u32) -> FactSet {
    let mut facts = FactSet::new();
    for i in from..to {
        facts.add("edge", &[Value::U32(i), Value::U32(i + 1)], Some(0.9));
    }
    facts
}

/// A retry after a failed refresh must agree with a from-scratch run on the
/// same session: the same `Ok`, or the same `Err`.
fn assert_retry_agrees_with_scratch(
    retry: &Result<lobster::RunResult, LobsterError>,
    scratch: &Result<lobster::RunResult, LobsterError>,
    relation: &str,
    what: &str,
) {
    match (retry, scratch) {
        (Ok(got), Ok(want)) => assert_identical(got, want, what),
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
        _ => panic!(
            "{what}: retry and from-scratch disagree: retry {:?}, scratch {:?}",
            retry.as_ref().map(|r| r.len(relation)),
            scratch.as_ref().map(|r| r.len(relation)),
        ),
    }
}

#[test]
fn a_failed_refresh_leaves_no_state_a_retry_could_trust() {
    // Two strata (`succ`, then the recursive `reach`) under a tight
    // iteration cap: a 6-edge chain materializes, but 20 more edges push
    // `reach` past the cap mid-refresh, after `succ` has already been
    // recomputed. A retry must not trust that half-refreshed state — it has
    // to agree with a from-scratch run on the same session: the same `Ok`,
    // or the same `Err`.
    const TWO_STRATA: &str = "type edge(x: u32, y: u32)
        rel succ(x, y) = edge(x, y)
        rel reach(x, y) = succ(x, y) or (reach(x, z) and succ(z, y))
        query reach";
    let program = Lobster::builder(TWO_STRATA)
        .options(RuntimeOptions {
            max_iterations: 10,
            ..RuntimeOptions::default()
        })
        .compile_typed::<AddMultProb>()
        .unwrap();
    let mut session = program.session();
    session.insert_facts(&edge_chain(0, 6)).unwrap();
    assert!(session.run_incremental().is_ok(), "6 edges fit the cap");
    session.insert_facts(&edge_chain(6, 26)).unwrap();
    assert!(
        session.run_incremental().is_err(),
        "26 edges exceed the cap"
    );
    let retry = session.run_incremental();
    let scratch = session.run();
    assert_retry_agrees_with_scratch(&retry, &scratch, "reach", "retry after a failed refresh");
}

#[test]
fn a_refresh_that_runs_out_of_device_memory_leaves_no_state_a_retry_could_trust() {
    // A 6-edge chain materializes within an 8 KiB device budget, but 54 more
    // edges run the refresh out of memory. Measured at parallelism 1 and 4:
    // TC materializes `Ok(21)` and OOMs on the refresh for budgets of 1 to
    // 12 KiB under `Unit` (the tuple-delta path) and 1 to 24 KiB under
    // `AddMultProb` (the re-derive path); from 16 KiB and 32 KiB
    // respectively every run returns `Ok(1830)`.
    for kind in [ProvenanceKind::Unit, ProvenanceKind::AddMultProb] {
        for parallelism in PARALLELISM {
            let what = format!("{kind:?} at parallelism {parallelism}");
            let program = Lobster::builder(TC)
                .device(Device::new(DeviceConfig {
                    parallelism,
                    memory_limit: Some(8 * 1024),
                    ..DeviceConfig::default()
                }))
                .provenance(kind)
                .compile()
                .unwrap();
            let mut session = program.session();
            session.insert_facts(&edge_chain(0, 6)).unwrap();
            let materialized = session.run_incremental().map(|r| r.len("path"));
            assert_eq!(materialized.ok(), Some(21), "{what}: 6 edges fit");
            session.insert_facts(&edge_chain(6, 60)).unwrap();
            let refresh = session.run_incremental().map(|r| r.len("path"));
            assert!(
                matches!(refresh, Err(LobsterError::Execution(ExecError::Device(_)))),
                "{what}: 60 edges must run the refresh out of memory, got {refresh:?}"
            );
            let retry = session.run_incremental();
            let scratch = session.run();
            assert_retry_agrees_with_scratch(&retry, &scratch, "path", &what);
        }
    }
}
