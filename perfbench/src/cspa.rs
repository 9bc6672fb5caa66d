//! `cspa`: the Table-4 pointer analysis (Unit provenance) over the three
//! synthetic inputs, each evaluated from scratch with `Session::run`.
//!
//! Inputs come from a fixed pool of [`VARIANTS`] generator seeds; `--seed`
//! picks the variant. Each variant's expected output is committed in
//! `digests/cspa.txt`, produced by the independent tuple-at-a-time
//! `SouffleEngine` (`--regen-digests`), because that engine takes tens of
//! seconds per variant — too slow to run on every benchmark run.

use crate::digest::{self, Digest, RelationDigest};
use crate::layers::{ms, CoreCalls, Sheet};
use crate::{median_ms, say, stats, Ctx, Measured, SetupTimes, Tally, LAYER_REPS};
use lobster::{Lobster, Program, RunResult, Unit};
use lobster_baselines::SouffleEngine;
use lobster_workloads::cspa::{self, CspaSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The three Table-4 inputs at the quick-mode sizes (a quarter of the
/// full variable counts). Half size takes ~35 s per round and ~8 GB; full
/// size exhausts 16 GB.
pub const INPUTS: [(&str, u32); 3] = [("httpd", 75), ("linux", 125), ("postgres", 100)];

/// Average assignment out-degree, as in Table 4.
const DEGREE: u32 = 2;

/// Distinct input variants with committed digests.
pub const VARIANTS: u64 = 16;

const DIGESTS: &str = include_str!("../digests/cspa.txt");

/// The variant a seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// The three inputs of a variant, generated in [`INPUTS`] order.
pub fn generate(variant: u64) -> Vec<CspaSample> {
    let mut rng = StdRng::seed_from_u64(0xC5FA_0000 + variant);
    INPUTS
        .iter()
        .map(|&(name, vars)| cspa::generate(name, vars, DEGREE, &mut rng))
        .collect()
}

/// The committed digest of one input of a variant.
///
/// # Panics
///
/// Panics when the digest file lacks the entry or is malformed.
pub fn committed_digest(variant: u64, input: &str) -> Digest {
    let mut digest = Digest::new();
    for line in DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [v, name, relation, count, hash] = fields[..] else {
            panic!("malformed digest line: {line}");
        };
        if v.parse::<u64>().ok() == Some(variant) && name == input {
            digest.insert(
                relation.to_string(),
                RelationDigest {
                    count: count.parse().expect("digest count"),
                    hash: u64::from_str_radix(hash, 16).expect("digest hash"),
                },
            );
        }
    }
    assert!(
        !digest.is_empty(),
        "no committed digest for variant {variant} input {input}"
    );
    digest
}

/// The oracle: the queried relations as derived by `SouffleEngine`.
fn souffle_digest(sample: &CspaSample, queries: &[String]) -> Digest {
    let ram = lobster_datalog::parse(cspa::PROGRAM)
        .expect("CSPA parses")
        .ram;
    let db = SouffleEngine::default()
        .run(&ram, &sample.facts.encoded_discrete())
        .expect("the stand-in has no timeout");
    digest::of_rows(&db, queries)
}

/// Prints the digest file for every variant (redirect it into
/// `digests/cspa.txt`).
pub fn regen_digests() {
    let program = compile();
    println!("# CSPA output digests: variant input relation tuple-count hash.");
    println!("# Produced by `SouffleEngine` via `perfbench --regen-digests`.");
    for v in 0..VARIANTS {
        for sample in generate(v) {
            for (relation, d) in souffle_digest(&sample, program.queries()) {
                println!("{v} {} {relation} {d}", sample.name);
            }
        }
    }
}

fn compile() -> Program<Unit> {
    Lobster::builder(cspa::PROGRAM)
        .compile_typed::<Unit>()
        .expect("CSPA compiles")
}

/// One from-scratch evaluation: open a session, load the facts, run.
/// Returns the result and the wall time of the whole evaluation.
fn evaluate(
    program: &Program<Unit>,
    sample: &CspaSample,
    calls: Option<&mut CoreCalls>,
) -> (Result<RunResult, lobster::LobsterError>, Duration) {
    let start = Instant::now();
    let mut session = program.session();
    sample
        .facts
        .add_to_session(&mut session)
        .expect("generated facts match the program");
    let result = match calls {
        Some(calls) => calls.observe(
            program.device(),
            || session.run(),
            |r| r.as_ref().map(|r| r.stats.clone()).unwrap_or_default(),
        ),
        None => session.run(),
    };
    (result, start.elapsed())
}

/// Checks one evaluation against its expected digest.
fn verify(
    tally: &mut Tally,
    name: &str,
    expected: &Digest,
    result: &Result<RunResult, lobster::LobsterError>,
) {
    match result {
        Ok(result) => {
            let got = digest::of_result(result);
            let diff = digest::first_difference(expected, &got);
            tally.check(diff.is_none(), || {
                format!("{name}: {}", diff.unwrap_or_default())
            });
        }
        Err(e) => tally.check(false, || format!("{name}: {e}")),
    }
}

/// The inputs and expected digests of one variant.
struct Variant {
    index: u64,
    samples: Vec<CspaSample>,
    expected: Vec<Digest>,
}

impl Variant {
    fn new(index: u64) -> Variant {
        let samples = generate(index);
        let expected = samples
            .iter()
            .map(|s| committed_digest(index, &s.name))
            .collect();
        Variant {
            index,
            samples,
            expected,
        }
    }
}

pub fn run(ctx: &Ctx) -> Measured {
    // Evaluation cost differs between variants by up to a third, so rounds
    // rotate over all of them, starting at the variant the seed picks.
    let first = variant(ctx.seed);
    let variants: Vec<Variant> = (0..VARIANTS)
        .map(|i| Variant::new((first + i) % VARIANTS))
        .collect();
    println!(
        "cspa: inputs httpd/linux/postgres at 75/125/100 vars, rounds rotate over \
         {VARIANTS} variants from variant {first}"
    );

    let mut sheet = Sheet::default();
    let mut setup = SetupTimes::default();
    let program = setup.time(compile);
    if ctx.traced {
        sheet.set(
            "datalog.parse_ms",
            median_ms(LAYER_REPS, || lobster_datalog::parse(cspa::PROGRAM)),
        );
    }

    let mut tally = Tally::default();
    let mut calls = CoreCalls::default();
    let round = |v: &Variant, tally: &mut Tally, mut calls: Option<&mut CoreCalls>| {
        let mut took_ms = Vec::new();
        for (sample, want) in v.samples.iter().zip(&v.expected) {
            let (result, took) = evaluate(&program, sample, calls.as_deref_mut());
            took_ms.push(ms(took));
            let what = format!("variant {} {}", v.index, sample.name);
            verify(tally, &what, want, &result);
        }
        took_ms
    };
    // Warm-up round: fills the arena pools and pages in the allocator.
    round(&variants[0], &mut tally, None);

    let mut rounds_ms = Vec::new();
    let mut per_input_ms: Vec<Vec<f64>> = vec![Vec::new(); INPUTS.len()];
    let started = Instant::now();
    while started.elapsed() < ctx.seconds || rounds_ms.len() < 2 {
        let v = &variants[(1 + rounds_ms.len()) % variants.len()];
        let took = round(v, &mut tally, ctx.traced.then_some(&mut calls));
        for (times, t) in per_input_ms.iter_mut().zip(&took) {
            times.push(*t);
        }
        rounds_ms.push(took.iter().sum::<f64>());
        setup.time(compile);
    }
    let setup_s = setup.median_s();
    say(
        "setup_s",
        setup_s,
        "s",
        &format!(
            "median of {} compiles (with device) in groups spread over the run",
            setup.count()
        ),
    );
    let summary = stats::Summary::of(&rounds_ms);
    // Evaluations per second at the median round, robust to a stalled round.
    let throughput = INPUTS.len() as f64 / (summary.p50 / 1e3);
    say(
        "eval_s",
        summary.p50 / 1e3,
        "s",
        &format!(
            "median round of 3 from-scratch runs, n={} rounds",
            summary.n
        ),
    );
    for ((name, _), times) in INPUTS.iter().zip(&per_input_ms) {
        let all: Vec<String> = times.iter().map(|t| format!("{t:.0}")).collect();
        say(
            &format!("eval_{name}_ms"),
            stats::median(times),
            "ms",
            &format!("median of [{}]", all.join(", ")),
        );
    }
    say(
        "throughput_per_s",
        throughput,
        "1/s",
        "from-scratch evaluations per second",
    );

    if ctx.traced {
        sheet.set("core.compile_ms", setup_s * 1e3);
        calls.record(&mut sheet, "Session::run");
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
    fn every_variant_has_a_committed_digest_per_input() {
        for v in 0..VARIANTS {
            for (name, _) in INPUTS {
                let d = committed_digest(v, name);
                assert_eq!(d.len(), 3, "variant {v} {name}");
                assert!(d.values().all(|r| r.count > 0));
            }
        }
    }

    #[test]
    fn inputs_depend_only_on_the_variant() {
        let a = generate(3);
        let b = generate(3);
        let c = generate(4);
        assert_eq!(a[0].facts.facts, b[0].facts.facts);
        assert_ne!(a[0].facts.facts, c[0].facts.facts);
        assert_eq!(variant(3), variant(3 + VARIANTS));
    }
}
