//! `cspa-edit`: writes beside reads on incremental maintenance. CSPA-httpd
//! is materialized, then a cycle repeats: single-edge `assign` inserts, each
//! followed by `run_incremental`, each of those followed by a read (an empty
//! delta), and one retraction of the cycle's inserts, which returns the
//! state to the base. The unit of work is one such operation.
//!
//! Retraction cost differs between input variants by up to a third, so one
//! session per variant is materialized and the cycles rotate over them,
//! starting at the variant `--seed` picks.

use crate::cspa::{committed_digest, generate, variant, INPUTS, VARIANTS};
use crate::digest::{self, Digest};
use crate::layers::{ms, ratio, CoreCalls, Sheet};
use crate::{median_ms, say, stats, Ctx, Measured, Tally};
use lobster::{FactSet, InputFactId, Lobster, Program, RunResult, Session, Unit, Value};
use lobster_workloads::cspa::{self, CspaSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Inserts (each followed by a read) per cycle before the retraction.
const INSERTS_PER_CYCLE: usize = 8;
/// Compile repetitions timed for the compile part of `setup_s`.
const COMPILE_REPS: usize = 31;

type Outcome = Result<RunResult, lobster::LobsterError>;

/// One materialized base: the httpd input of a variant.
struct Base {
    variant: u64,
    sample: CspaSample,
    digest: Digest,
    edges: BTreeSet<(u32, u32)>,
}

impl Base {
    fn new(variant: u64) -> Base {
        let sample = generate(variant).swap_remove(0);
        let edges = sample
            .facts
            .facts
            .iter()
            .filter(|(rel, _, _)| rel == "assign")
            .map(|(_, v, _)| match v[..] {
                [Value::U32(a), Value::U32(b)] => (a, b),
                _ => unreachable!("assign is (u32, u32)"),
            })
            .collect();
        Base {
            variant,
            digest: committed_digest(variant, &sample.name),
            sample,
            edges,
        }
    }

    /// `INSERTS_PER_CYCLE` distinct single-edge `assign` facts absent from
    /// this base.
    fn cycle_edges(&self, rng: &mut StdRng) -> Vec<(u32, u32)> {
        let vars = INPUTS[0].1;
        let mut taken = BTreeSet::new();
        while taken.len() < INSERTS_PER_CYCLE {
            let edge = (rng.gen_range(0..vars), rng.gen_range(0..vars));
            if edge.0 != edge.1 && !self.edges.contains(&edge) {
                taken.insert(edge);
            }
        }
        taken.into_iter().collect()
    }

    /// A session holding this base's facts.
    fn session(&self, program: &Program<Unit>) -> Session<Unit> {
        let mut session = program.session();
        self.sample
            .facts
            .add_to_session(&mut session)
            .expect("generated facts match the program");
        session
    }
}

fn compile() -> Program<Unit> {
    Lobster::builder(cspa::PROGRAM)
        .compile_typed::<Unit>()
        .expect("CSPA compiles")
}

fn check_digest(tally: &mut Tally, what: &str, expected: &Digest, result: &Outcome) {
    match result {
        Ok(result) => {
            let diff = digest::first_difference(expected, &digest::of_result(result));
            tally.check(diff.is_none(), || {
                format!("{what}: {}", diff.unwrap_or_default())
            });
        }
        Err(e) => tally.check(false, || format!("{what}: {e}")),
    }
}

pub fn run(ctx: &Ctx) -> Measured {
    let first = variant(ctx.seed);
    let bases: Vec<Base> = (0..VARIANTS)
        .map(|i| Base::new((first + i) % VARIANTS))
        .collect();
    println!(
        "cspa-edit: httpd ({} vars) of {VARIANTS} variants from variant {first}, \
         {INSERTS_PER_CYCLE} inserts + reads then one retraction per cycle",
        INPUTS[0].1
    );
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xED17_0000);

    // Once per run, before anything is timed: the state after the first
    // cycle's inserts must equal a from-scratch run over base + inserts.
    let mut tally = Tally::default();
    let first_edges = bases[0].cycle_edges(&mut rng);
    let first_digest = {
        let program = compile();
        let mut scratch = bases[0].session(&program);
        for &(dst, src) in &first_edges {
            scratch
                .add_fact("assign", &[Value::U32(dst), Value::U32(src)], None)
                .expect("fact fits");
        }
        match scratch.run() {
            Ok(fresh) => Some(digest::of_result(&fresh)),
            Err(e) => {
                tally.check(false, || format!("from-scratch run: {e}"));
                None
            }
        }
    };

    // Set-up: compile, then load and materialize every base.
    let compile_ms = median_ms(COMPILE_REPS, compile);
    let program = compile();
    let mut materialize_ms = Vec::new();
    let mut sessions: Vec<Session<Unit>> = bases
        .iter()
        .map(|base| {
            let start = Instant::now();
            let mut session = base.session(&program);
            let result = session.run_incremental();
            materialize_ms.push(ms(start.elapsed()));
            check_digest(
                &mut tally,
                &format!("materialized base of variant {}", base.variant),
                &base.digest,
                &result,
            );
            session
        })
        .collect();
    let setup_s = (compile_ms + stats::median(&materialize_ms)) / 1e3;
    say(
        "setup_s",
        setup_s,
        "s",
        &format!(
            "compile (median of {COMPILE_REPS}) + load and materialize (median of {VARIANTS})"
        ),
    );
    let mut sheet = Sheet::default();
    if ctx.traced {
        sheet.set(
            "datalog.parse_ms",
            median_ms(COMPILE_REPS, || lobster_datalog::parse(cspa::PROGRAM)),
        );
        sheet.set("core.compile_ms", compile_ms);
    }

    let mut calls = CoreCalls::default();
    let (mut insert_ms, mut read_ms, mut retract_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insert_iterations, mut retract_iterations) = (Vec::new(), Vec::new());
    let mut cycle_ms = Vec::new();
    // One timed `run_incremental`; traced runs also charge it to the layers.
    let mut refresh = |session: &mut Session<Unit>| -> (Outcome, f64) {
        let start = Instant::now();
        let result = if ctx.traced {
            calls.observe(
                program.device(),
                || session.run_incremental(),
                |r| r.as_ref().map(|r| r.stats.clone()).unwrap_or_default(),
            )
        } else {
            session.run_incremental()
        };
        (result, ms(start.elapsed()))
    };
    let started = Instant::now();
    while started.elapsed() < ctx.seconds || cycle_ms.len() < 2 {
        let which = cycle_ms.len() % bases.len();
        let (base, session) = (&bases[which], &mut sessions[which]);
        let edges = if cycle_ms.is_empty() {
            first_edges.clone()
        } else {
            base.cycle_edges(&mut rng)
        };
        let mut ids: Vec<InputFactId> = Vec::new();
        let mut cycle = 0.0;
        let mut last_insert = None;
        for (dst, src) in edges {
            let mut delta = FactSet::new();
            delta.add("assign", &[Value::U32(dst), Value::U32(src)], None);
            let start = Instant::now();
            let new_ids = session.insert_facts(&delta);
            let load_ms = ms(start.elapsed());
            let (result, refresh_ms) = refresh(session);
            insert_ms.push(load_ms + refresh_ms);
            cycle += load_ms + refresh_ms;
            match new_ids {
                Ok(new_ids) => ids.extend(new_ids),
                Err(e) => tally.check(false, || format!("insert_facts: {e}")),
            }
            if let Ok(r) = &result {
                insert_iterations.push(r.stats.iterations as f64);
            }
            tally.check(result.is_ok(), || "insert refresh failed".to_string());
            last_insert = Some(result);

            let (read, took) = refresh(session);
            read_ms.push(took);
            cycle += took;
            tally.check(read.is_ok(), || "read failed".to_string());
        }
        if let (true, Some(want), Some(got)) = (cycle_ms.is_empty(), &first_digest, &last_insert) {
            check_digest(
                &mut tally,
                "post-insert state vs from-scratch run",
                want,
                got,
            );
        }
        let start = Instant::now();
        let removed = session.retract_facts(&ids);
        let unload_ms = ms(start.elapsed());
        let (result, refresh_ms) = refresh(session);
        retract_ms.push(unload_ms + refresh_ms);
        cycle += unload_ms + refresh_ms;
        cycle_ms.push(cycle);
        tally.check(removed == INSERTS_PER_CYCLE, || {
            format!("retracted {removed} of {INSERTS_PER_CYCLE} facts")
        });
        if let Ok(r) = &result {
            retract_iterations.push(r.stats.iterations as f64);
        }
        check_digest(
            &mut tally,
            &format!("variant {} after retraction", base.variant),
            &base.digest,
            &result,
        );
    }

    let (insert, read, retract, cycle) = (
        stats::Summary::of(&insert_ms),
        stats::Summary::of(&read_ms),
        stats::Summary::of(&retract_ms),
        stats::Summary::of(&cycle_ms),
    );
    // Operations per second at the median cycle, robust to a stalled cycle.
    let throughput = (2 * INSERTS_PER_CYCLE + 1) as f64 / (cycle.p50 / 1e3);
    say("insert_ms", insert.p50, "ms", &insert.describe("ms"));
    say("read_ms", read.p50, "ms", &read.describe("ms"));
    say("retract_ms", retract.p50, "ms", &retract.describe("ms"));
    say("cycle_ms", cycle.p50, "ms", &cycle.describe("ms"));
    say(
        "throughput_per_s",
        throughput,
        "1/s",
        "operations per second at the median cycle",
    );

    if ctx.traced {
        calls.record(&mut sheet, "Session::run_incremental");
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        sheet.set("apm.refresh_insert_iterations", mean(&insert_iterations));
        sheet.set("apm.refresh_retract_iterations", mean(&retract_iterations));
        sheet.set("trace.p50_ms", insert.p50);
        sheet.set("trace.throughput_per_s", throughput);
    }
    Measured {
        setup_s,
        p50_ms: insert.p50,
        throughput_per_s: throughput,
        tally,
        sheet,
    }
}
