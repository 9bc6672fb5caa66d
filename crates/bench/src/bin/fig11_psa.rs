//! Figure 11: Lobster's speedup over Scallop on Probabilistic Static Analysis
//! across seven subject programs, plus the ProbLog exact-inference baseline
//! (which times out on everything except the smallest input, as in the
//! paper).
//!
//! Run with `cargo run -p lobster-bench --release --bin fig11_psa`.

use lobster::{Lobster, MaxMinProb};
use lobster_baselines::ProblogEngine;
use lobster_bench::{
    baseline_failure, paper_outcome, print_header, quick_mode, run_lobster, run_scallop,
    scallop_facts, speedup,
};
use lobster_workloads::psa;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    print_header(
        "Figure 11 — Probabilistic Static Analysis, speedup over Scallop",
        "paper reports sunflow-core 14.16x, sunflow 14.47x, biojava 1.59x, graphchi 18.73x, avrora 12.38x, pmd 1.18x, jme3 6.59x; ProbLog times out everywhere except sunflow-core",
    );
    let paper = [14.16, 14.47, 1.59, 18.73, 12.38, 1.18, 6.59];
    let mut rng = StdRng::seed_from_u64(11);
    // ProbLog gets a scaled-down stand-in for the paper's 2-hour budget.
    let problog_budget = Duration::from_secs(if quick_mode() { 1 } else { 10 });
    println!(
        "{:<14} {:>20} {:>20} {:>9} {:>8} {:>20}",
        "program", "scallop (s)", "lobster (s)", "speedup", "paper", "problog"
    );
    let program = Lobster::builder(psa::PROGRAM)
        .compile_typed::<MaxMinProb>()
        .expect("program compiles");
    for (i, (name, nodes, degree)) in psa::FIG11_PROGRAMS.iter().enumerate() {
        let nodes = if quick_mode() { nodes / 5 } else { *nodes };
        let sample = psa::generate(name, nodes.max(50), *degree, &mut rng);
        let (lobster, _) = run_lobster(&program, &sample.facts);
        let prov = MaxMinProb::new();
        let scallop = run_scallop(
            psa::PROGRAM,
            prov,
            &scallop_facts(&prov, &sample.facts),
            None,
        );
        // ProbLog: exact inference over the same facts with a timeout.
        let ram = lobster_datalog::parse(psa::PROGRAM)
            .expect("program compiles")
            .ram;
        let problog_engine = ProblogEngine::new().with_timeout(Some(problog_budget));
        let problog_facts = sample.facts.encoded_probabilistic();
        let problog = paper_outcome(
            || problog_engine.run(&ram, &problog_facts),
            baseline_failure,
        );
        println!(
            "{:<14} {:>20} {:>20} {:>9} {:>7.2}x {:>20}",
            sample.name,
            scallop.cell(),
            lobster.cell(),
            speedup(&scallop, &lobster),
            paper[i],
            problog.cell()
        );
    }
}
