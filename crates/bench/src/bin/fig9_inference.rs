//! Figure 9: Lobster's speedup over Scallop on neurosymbolic *inference* for
//! the four differentiable tasks (pre-trained perception, symbolic execution
//! per sample).
//!
//! Run with `cargo run -p lobster-bench --release --bin fig9_inference`.

use lobster::{DiffTop1Proof, Lobster};
use lobster_bench::{
    print_header, quick_mode, run_lobster, run_scallop, scaled, scallop_facts, speedup, Outcome,
    Samples, PAPER_SAMPLES,
};
use lobster_provenance::InputFactRegistry;
use lobster_workloads::{clutrr, hwf, pacman, pathfinder, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Task {
    name: &'static str,
    program: &'static str,
    samples: Vec<WorkloadFacts>,
    paper_speedup: f64,
}

/// The task total, summed rank by rank: its median sums the medians.
fn total(outcomes: &[Outcome]) -> Outcome {
    let mut sum = vec![0.0; PAPER_SAMPLES];
    for o in outcomes {
        match o {
            Outcome::Ok(s) => sum.iter_mut().zip(s.values()).for_each(|(t, v)| *t += v),
            other => return other.clone(),
        }
    }
    Outcome::Ok(Samples::new(sum))
}

fn main() {
    print_header(
        "Figure 9 — inference speedup over Scallop",
        "paper reports CLUTTR 3.69x, HWF 1.22x, Pathfinder 1.55x, Pacman 2.11x",
    );
    let mut rng = StdRng::seed_from_u64(9);
    let n = scaled(12, 3);
    let tasks = vec![
        Task {
            name: "CLUTTR",
            program: clutrr::PROGRAM,
            samples: (0..n)
                .map(|_| clutrr::generate(scaled(8, 4), &mut rng).facts())
                .collect(),
            paper_speedup: 3.69,
        },
        Task {
            name: "HWF",
            program: hwf::PROGRAM,
            samples: (0..n)
                .map(|_| hwf::generate(scaled(7, 3), &mut rng).facts())
                .collect(),
            paper_speedup: 1.22,
        },
        Task {
            name: "Pathfinder",
            program: pathfinder::PROGRAM,
            samples: (0..n)
                .map(|i| pathfinder::generate(scaled(10, 5) as u32, i % 2 == 0, &mut rng).facts())
                .collect(),
            paper_speedup: 1.55,
        },
        Task {
            name: "Pacman",
            program: pacman::PROGRAM,
            samples: (0..n)
                .map(|_| pacman::generate(scaled(15, 5) as u32, &mut rng).facts())
                .collect(),
            paper_speedup: 2.11,
        },
    ];

    println!(
        "{:<12} {:>20} {:>20} {:>10} {:>10}",
        "task", "scallop (s)", "lobster (s)", "speedup", "paper"
    );
    for task in &tasks {
        // One compiled program serves every sample of the task.
        let program = Lobster::builder(task.program)
            .compile_typed::<DiffTop1Proof>()
            .expect("program compiles");
        let lobster_outcomes: Vec<Outcome> = task
            .samples
            .iter()
            .map(|facts| run_lobster(&program, facts).0)
            .collect();
        let scallop_outcomes: Vec<Outcome> = task
            .samples
            .iter()
            .map(|facts| {
                let registry = InputFactRegistry::new();
                let prov = DiffTop1Proof::new(registry);
                run_scallop(
                    task.program,
                    prov.clone(),
                    &scallop_facts(&prov, facts),
                    None,
                )
            })
            .collect();
        let lobster_total = total(&lobster_outcomes);
        let scallop_total = total(&scallop_outcomes);
        println!(
            "{:<12} {:>20} {:>20} {:>10} {:>9.2}x",
            task.name,
            scallop_total.cell(),
            lobster_total.cell(),
            speedup(&scallop_total, &lobster_total),
            task.paper_speedup
        );
    }
    if quick_mode() {
        println!("(quick mode: workloads were shrunk; speedups are less pronounced)");
    }
}
