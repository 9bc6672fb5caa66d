//! Table 3: runtime of Lobster versus FVLog on the Same Generation task,
//! including the out-of-memory entries produced by the device memory budget.
//!
//! Run with `cargo run -p lobster-bench --release --bin table3_samegen`.

use lobster::{Device, DeviceConfig, Lobster, Unit, Value};
use lobster_bench::{print_header, quick_mode, run_fvlog, run_lobster};
use lobster_workloads::graphs::{self, NamedGraph};
use lobster_workloads::WorkloadFacts;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated device memory budget. Same Generation on dense graphs produces
/// quadratic intermediate results, so some inputs exceed the budget — the OOM
/// entries of the paper's Table 3.
fn budget() -> usize {
    if quick_mode() {
        64 << 20
    } else {
        256 << 20
    }
}

fn main() {
    print_header(
        "Table 3 — Same Generation runtime (seconds)",
        "paper: Lobster is at least 2x faster than FVLog per dataset; both systems OOM on some inputs",
    );
    let mut rng = StdRng::seed_from_u64(3);
    println!(
        "{:<16} {:>8} {:>20} {:>20}",
        "dataset", "edges", "lobster (s)", "fvlog (s)"
    );
    for graph in graphs::TABLE3_GRAPHS {
        let graph = if quick_mode() {
            NamedGraph {
                nodes: graph.nodes / 3,
                ..graph
            }
        } else {
            graph
        };
        let edges = graph.edges(&mut rng);
        let mut facts = WorkloadFacts::new();
        for &(p, c) in &edges {
            facts.push("parent", vec![Value::U32(p), Value::U32(c)], None);
        }
        let device_config = DeviceConfig {
            memory_limit: Some(budget()),
            ..DeviceConfig::default()
        };

        // Lobster with the full optimization set and a budgeted device.
        let program = Lobster::builder(graphs::SAME_GENERATION)
            .device(Device::new(device_config.clone()))
            .compile_typed::<Unit>()
            .expect("program compiles");
        let (lobster, _) = run_lobster(&program, &facts);

        // FVLog: same device budget, no APM optimizations.
        let fvlog = run_fvlog(graphs::SAME_GENERATION, Device::new(device_config), &facts);

        println!(
            "{:<16} {:>8} {:>20} {:>20}",
            graph.name,
            edges.len(),
            lobster.cell(),
            fvlog.cell()
        );
    }
}
