//! Differential test for the compiler's merge-join path: with identical
//! seeded inputs, a program compiled normally — merge joins wherever
//! sort-order inference allows them — must produce *bit-identical* results
//! to the hash-only reference compile: same tuples in the same stored
//! order, same probability bits, same gradients — across provenance kinds
//! and device parallelism levels.
//!
//! Both sides run the batched RAM ([`batch_transform`]) over an encoded
//! database, the way `Program::run_batch` executes a one-sample batch.
//!
//! The guarantee rests on the hash index's ascending-build-row match order
//! (documented on `HashIndex::for_each_match`): a merge join emits the same
//! (build, probe) pairs in the same order, so every downstream gather,
//! dedup, and provenance combine sees identical operands.

use crate::compiler::{compile_stratum, compile_stratum_hash_only, CompiledStratum};
use crate::executor::run_strata;
use crate::{batch_transform, Database, EncodingSpec, Executor, RuntimeOptions};
use lobster_gpu::{Device, DeviceConfig};
use lobster_provenance::{
    AddMultProb, DiffTop1Proof, InputFactRegistry, MaxMinProb, Output, Provenance, Unit,
};
use lobster_ram::{RamProgram, Stratum, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARALLELISMS: [usize; 2] = [1, 4];

/// A compile entry point: the normal one or the hash-only reference.
type Compile = fn(&Stratum, &RamProgram) -> CompiledStratum;

const TRANSITIVE_CLOSURE: &str = "
    type edge(x: u32, y: u32)
    rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
    query path
";

const SAME_GENERATION: &str = "
    type parent(p: u32, c: u32)
    rel sg(x, y) = parent(p, x), parent(p, y), x != y
    rel sg(x, y) = parent(a, x), parent(b, y), sg(a, b)
    query sg
";

const CSPA: &str = "
    type assign(dst: u32, src: u32)
    type dereference(p: u32, v: u32)
    rel value_flow(x, y) = assign(y, x)
    rel value_flow(x, y) = assign(x, z), memory_alias(z, y)
    rel value_flow(x, y) = value_flow(x, z), value_flow(z, y)
    rel memory_alias(x, w) = dereference(y, x), value_alias(y, z), dereference(z, w)
    rel value_alias(x, y) = value_flow(z, x), value_flow(z, y)
    rel value_alias(x, y) = value_flow(z, x), memory_alias(z, w), value_flow(w, y)
    rel value_flow(x, x) = assign(x, y)
    rel value_flow(x, x) = assign(y, x)
    rel memory_alias(x, x) = assign(y, x)
    rel memory_alias(x, x) = assign(x, y)
    query value_flow
    query value_alias
    query memory_alias
";

/// One probabilistic input fact: relation, the two `u32` columns, and the
/// fact's probability.
type Fact = (&'static str, [u32; 2], f64);

/// Join sites compiled to the merge path across every stratum of `ram`.
fn merge_joins(ram: &RamProgram, compile: Compile) -> usize {
    ram.strata.iter().map(|s| compile(s, ram).merge_joins).sum()
}

/// Runs the batched `ram` over `facts` as sample 0 of an encoded database
/// and returns the rows of every output relation with their outputs.
fn run<P: Provenance>(
    ram: &RamProgram,
    make: fn(InputFactRegistry) -> P,
    parallelism: usize,
    compile: Compile,
    facts: &[Fact],
) -> Vec<Vec<(Tuple, Output)>> {
    let registry = InputFactRegistry::new();
    let provenance = make(registry.clone());
    let spec = EncodingSpec {
        symbol_constants: ram.symbol_constants(),
        widen_u32: ram.has_u32_arithmetic(),
    };
    let mut db = Database::new_encoded(ram.schemas.clone(), provenance.clone(), &spec);
    for &(relation, [a, b], prob) in facts {
        let tag = provenance.input_tag(registry.register(Some(prob), None), Some(prob));
        let row = [Value::U32(0), Value::U32(a), Value::U32(b)];
        db.insert(relation, &row, tag);
    }
    let device = Device::new(DeviceConfig {
        parallelism,
        // Low threshold so parallelism-4 runs actually chunk the small
        // seeded workloads instead of falling back to sequential loops.
        min_parallel_rows: 64,
        ..DeviceConfig::default()
    });
    db.seal(&device);
    let exec = Executor::new(device, provenance.clone(), RuntimeOptions::default());
    run_strata(&exec, &mut db, ram, compile).expect("program runs");
    let output = |(tuple, tag)| (tuple, provenance.output(&tag));
    ram.outputs
        .iter()
        .map(|relation| db.rows(relation).into_iter().map(output).collect())
        .collect()
}

/// Asserts that both compiles give bit-identical results at every
/// parallelism: same tuples in the same stored order, equal probability
/// bits, equal gradients.
fn differential_for<P: Provenance>(
    name: &str,
    ram: &RamProgram,
    make: fn(InputFactRegistry) -> P,
    facts: &[Fact],
) {
    let kind = make(InputFactRegistry::new()).name();
    for p in PARALLELISMS {
        let merge = run(ram, make, p, compile_stratum, facts);
        let hash = run(ram, make, p, compile_stratum_hash_only, facts);
        for (rel, (m, h)) in ram.outputs.iter().zip(merge.iter().zip(&hash)) {
            let context = format!("{name} ({kind}, parallelism {p}): `{rel}`");
            assert_eq!(m.len(), h.len(), "{context} cardinality");
            for (i, ((mt, mo), (ht, ho))) in m.iter().zip(h).enumerate() {
                assert_eq!(mt, ht, "{context} tuple {i}");
                assert_eq!(
                    mo.probability.to_bits(),
                    ho.probability.to_bits(),
                    "{context} tuple {i} probability"
                );
                assert_eq!(mo.gradient, ho.gradient, "{context} tuple {i} gradient");
            }
        }
    }
}

/// Runs the differential for every provenance kind and parallelism level
/// and returns the normal compile's merge-join count over the batched RAM.
fn differential(name: &str, source: &str, facts: &[Fact]) -> usize {
    let ram = batch_transform(&lobster_datalog::parse(source).expect("parses").ram);
    assert_eq!(
        merge_joins(&ram, compile_stratum_hash_only),
        0,
        "{name}: the reference compile must stay on the hash path"
    );
    differential_for(name, &ram, |_| Unit::new(), facts);
    differential_for(name, &ram, |_| AddMultProb::new(), facts);
    differential_for(name, &ram, |_| MaxMinProb::new(), facts);
    differential_for(name, &ram, DiffTop1Proof::new, facts);
    merge_joins(&ram, compile_stratum)
}

/// `count` facts of `relation` over `0..nodes` with probabilities drawn from
/// `rng`, in the draw order the seeds were chosen for.
fn random_facts(rng: &mut StdRng, relation: &'static str, count: usize, nodes: u32) -> Vec<Fact> {
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..nodes);
            let b = rng.gen_range(0..nodes);
            (relation, [a, b], rng.gen_range(0.3..1.0))
        })
        .collect()
}

/// Same Generation: its `parent ⋈ parent` base rule is the suite's
/// merge-eligible join, so the two compiles genuinely take different paths.
#[test]
fn same_generation_merge_join_is_bit_identical() {
    let facts = random_facts(&mut StdRng::seed_from_u64(11), "parent", 220, 28);
    let merges = differential("same-generation", SAME_GENERATION, &facts);
    assert!(merges >= 1, "same-generation compiles no merge join");
}

/// Transitive closure stays on the hash path (its probe side is a column
/// swap, sorted prefix 0): the merge path must never touch programs it
/// does not apply to.
#[test]
fn transitive_closure_stays_on_the_hash_path() {
    let facts = random_facts(&mut StdRng::seed_from_u64(12), "edge", 160, 40);
    assert_eq!(
        differential("transitive-closure", TRANSITIVE_CLOSURE, &facts),
        0
    );
}

/// CSPA: non-linear mutual recursion — the join-heavy stress case of
/// Table 4. The semi-naive variants whose two join inputs are stable or
/// recent partitions (`value_flow ⋈ value_flow`, `value_flow ⋈
/// memory_alias`, `dereference ⋈ value_alias`) read both sides sorted on
/// the key and take the merge path; the rest stay on the hash path.
#[test]
fn cspa_is_bit_identical_across_join_strategies() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut facts = random_facts(&mut rng, "assign", 150, 24);
    facts.extend(random_facts(&mut rng, "dereference", 80, 24));
    let merges = differential("cspa", CSPA, &facts);
    assert!(merges >= 1, "cspa compiles no merge join");
}
