//! Table 4: runtime of Lobster versus FVLog on the Context-Sensitive Pointer
//! Analysis (httpd, linux, postgres).
//!
//! Run with `cargo run -p lobster-bench --release --bin table4_cspa`.

use lobster::{Device, Lobster, Unit};
use lobster_bench::{print_header, quick_mode, run_fvlog, run_lobster};
use lobster_workloads::cspa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "Table 4 — CSPA runtime (seconds)",
        "paper: Lobster and FVLog are approximately matched (geomean 1.27x in Lobster's favour)",
    );
    let mut rng = StdRng::seed_from_u64(4);
    println!(
        "{:<12} {:>8} {:>20} {:>20} {:>10}",
        "dataset", "facts", "lobster (s)", "fvlog (s)", "ratio"
    );
    let mut ratios = Vec::new();
    let program = Lobster::builder(cspa::PROGRAM)
        .compile_typed::<Unit>()
        .expect("program compiles");
    for (name, vars, degree) in cspa::TABLE4_PROGRAMS {
        let vars = if quick_mode() { vars / 4 } else { vars };
        let sample = cspa::generate(name, vars.max(40), degree, &mut rng);
        let (lobster, _) = run_lobster(&program, &sample.facts);
        let fvlog = run_fvlog(cspa::PROGRAM, Device::default(), &sample.facts);
        let ratio = match (fvlog.seconds(), lobster.seconds()) {
            (Some(f), Some(l)) => {
                ratios.push(f / l.max(1e-9));
                format!("{:.2}x", f / l.max(1e-9))
            }
            _ => "-".to_string(),
        };
        println!(
            "{:<12} {:>8} {:>20} {:>20} {:>10}",
            sample.name,
            sample.facts.len(),
            lobster.cell(),
            fvlog.cell(),
            ratio
        );
    }
    if !ratios.is_empty() {
        let geomean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        println!(
            "geometric-mean speedup of Lobster over FVLog: {:.2}x (paper: 1.27x)",
            geomean.exp()
        );
    }
}
