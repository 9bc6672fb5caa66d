//! Figure 13: speedup over Soufflé on Transitive Closure for Lobster and the
//! FVLog stand-in across twelve graphs.
//!
//! Run with `cargo run -p lobster-bench --release --bin fig13_tc`.

use lobster::{Device, Lobster, Unit, Value};
use lobster_bench::{print_header, quick_mode, run_fvlog, run_lobster, run_souffle, speedup};
use lobster_workloads::graphs::{self, NamedGraph};
use lobster_workloads::WorkloadFacts;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn edge_facts(edges: &[(u32, u32)]) -> WorkloadFacts {
    let mut facts = WorkloadFacts::new();
    for &(a, b) in edges {
        facts.push("edge", vec![Value::U32(a), Value::U32(b)], None);
    }
    facts
}

fn main() {
    print_header(
        "Figure 13 — Transitive Closure, speedup over Soufflé",
        "paper: Lobster consistently beats Soufflé (up to ~80x) and often beats FVLog",
    );
    let mut rng = StdRng::seed_from_u64(13);
    let program = Lobster::builder(graphs::TRANSITIVE_CLOSURE)
        .compile_typed::<Unit>()
        .expect("program compiles");
    println!(
        "{:<16} {:>8} {:>20} {:>20} {:>20} {:>12} {:>12}",
        "graph", "edges", "souffle (s)", "lobster (s)", "fvlog (s)", "lobster spd", "fvlog spd"
    );
    for graph in graphs::FIG13_GRAPHS {
        let graph = if quick_mode() {
            NamedGraph {
                nodes: graph.nodes / 4,
                ..graph
            }
        } else {
            graph
        };
        let edges = graph.edges(&mut rng);
        let facts = edge_facts(&edges);
        let discrete: Vec<(String, Vec<u64>)> = facts.encoded_discrete();

        let souffle = run_souffle(graphs::TRANSITIVE_CLOSURE, &discrete, None);
        let (lobster, _) = run_lobster(&program, &facts);
        let fvlog = run_fvlog(graphs::TRANSITIVE_CLOSURE, Device::default(), &facts);
        println!(
            "{:<16} {:>8} {:>20} {:>20} {:>20} {:>12} {:>12}",
            graph.name,
            edges.len(),
            souffle.cell(),
            lobster.cell(),
            fvlog.cell(),
            speedup(&souffle, &lobster),
            speedup(&souffle, &fvlog)
        );
    }
}
