//! The repository benchmark: four workloads from kernel to wire.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cspa|pathfinder-batch|clutrr-wire|cspa-edit|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in this process and prints, last, one
//! JSON line: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Lines before it name every measured number with its unit and
//! sample count, and stamp the machine and run. `--workload all` runs every
//! workload untraced and traced, each in a child process of its own, and
//! prints the tracing overhead. See `perfbench/README.md`.

mod clutrr;
mod cspa;
mod cspa_edit;
mod digest;
mod layers;
mod openloop;
mod pathfinder;
mod stats;

use layers::Sheet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["cspa", "pathfinder-batch", "clutrr-wire", "cspa-edit"];

/// Repetitions behind the median of a per-layer set-up timing.
pub const LAYER_REPS: usize = 101;

/// End-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// What a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// CPUs available to the process.
    pub nproc: usize,
}

/// Operations attempted and failed, where a wrong output is a failure.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Counts one operation; `ok == false` is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Median set-up time over the repetitions.
    pub setup_s: f64,
    /// Median latency of the workload's unit of work.
    pub p50_ms: f64,
    /// Units of work per second.
    pub throughput_per_s: f64,
    /// Operations and oracle verdicts.
    pub tally: Tally,
    /// Per-layer readings (traced runs only).
    pub sheet: Sheet,
}

/// Prints one named human-readable reading.
pub fn say(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<28} {value:>14.4} {unit:<6} {note}");
}

/// Repeated timings of a workload's set-up, taken in small groups spread
/// over the run. Where set-up takes well under a millisecond, the machine's
/// speed drifts by a quarter between groups a second apart, so one burst of
/// repetitions would measure the moment rather than the set-up.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Set-ups timed per group.
    pub const GROUP: usize = 11;

    /// Runs `setup` [`Self::GROUP`] times, timing each, and returns the
    /// last result. Earlier results are dropped outside the timing.
    pub fn time<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..Self::GROUP {
            drop(last.take());
            let start = Instant::now();
            let built = setup();
            self.0.push(start.elapsed().as_secs_f64());
            last = Some(built);
        }
        last.expect("a group times at least one set-up")
    }

    /// The median set-up time, in seconds.
    pub fn median_s(&self) -> f64 {
        stats::median(&self.0)
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.0.len()
    }
}

/// Median milliseconds of `f` over `reps` calls.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            layers::ms(start.elapsed())
        })
        .collect();
    stats::median(&times)
}

/// The process's peak resident set, in bytes (`VmHWM`).
fn peak_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib * 1024
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    regen_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        traced: false,
        regen_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--regen-digests" => args.regen_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    if !args.regen_digests && args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The commit of the checkout, read from `.git` without leaving it.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

fn mem_total_mib() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kib| kib / 1024)
}

/// A JSON string literal (the harness only quotes plain text).
fn quote(text: &str) -> String {
    lobster_serve::json::Json::from(text).to_compact()
}

fn print_descriptor(args: &Args, nproc: usize) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "descriptor {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"nproc\": {nproc}, \"mem_total_mib\": {}, \"git_commit\": {}, \"rustc\": {}, \
         \"profile\": \"{profile}\"}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.traced,
        mem_total_mib(),
        quote(&git_commit()),
        quote(&rustc_version()),
    );
}

fn metric_json(rows: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|&(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run_one(args: &Args, nproc: usize) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.traced,
        nproc,
    };
    print_descriptor(args, nproc);
    let mut measured = match args.workload.as_str() {
        "cspa" => cspa::run(&ctx),
        "pathfinder-batch" => pathfinder::run(&ctx),
        "clutrr-wire" => clutrr::run(&ctx),
        "cspa-edit" => cspa_edit::run(&ctx),
        other => return Err(format!("unknown workload {other}")),
    };
    let rss = peak_rss_bytes();
    let peak_rss_mb = layers::mib(rss);
    let tally = &measured.tally;
    say("peak_rss_mb", peak_rss_mb, "MiB", "VmHWM of this process");
    say(
        "failed_frac",
        layers::ratio(tally.failed as f64, tally.attempted as f64),
        "frac",
        &format!("{} of {} operations", tally.failed, tally.attempted),
    );
    if let Some(failure) = &tally.first_failure {
        println!("  first failure: {failure}");
    }
    let rows: Vec<(&str, f64, &str)> = if args.traced {
        let accounted = layers::ratio(measured.sheet.get("gpu.peak_mb"), peak_rss_mb);
        measured.sheet.set("gpu.accounted_frac", accounted);
        measured.sheet.rows()
    } else {
        let values = [
            measured.setup_s,
            measured.p50_ms,
            measured.throughput_per_s,
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    let tally = &measured.tally;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metric_json(&rows)
    );
    Ok(())
}

/// Reads `metrics.<name>.value` from a result line.
fn metric_of(result: &lobster_serve::json::Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--workload all`: every workload untraced then traced, each in a child
/// process, followed by the tracing overhead on the end-to-end metrics.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut overhead = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut last_lines = Vec::new();
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            if !out.status.success() {
                return Err(format!(
                    "{workload} --trace {trace} exited with {}",
                    out.status
                ));
            }
            let last = stdout.lines().last().unwrap_or_default();
            let parsed = lobster_serve::json::parse(last)
                .map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
            all_correct &= parsed.get("correct").and_then(|c| c.as_bool()) == Some(true);
            last_lines.push(parsed);
        }
        for (plain, traced) in [
            ("p50_ms", "trace.p50_ms"),
            ("throughput_per_s", "trace.throughput_per_s"),
        ] {
            if let (Some(a), Some(b)) = (
                metric_of(&last_lines[0], plain),
                metric_of(&last_lines[1], traced),
            ) {
                overhead.push((workload, plain, a, b));
            }
        }
    }
    println!("\ntracing overhead (traced run minus untraced run, same seed):");
    for (workload, metric, untraced, traced) in overhead {
        println!(
            "  {workload:<18} {metric:<18} untraced {untraced:>12.4}  traced {traced:>12.4}  \
             diff {:>+10.4} ({:+.1}%)",
            traced - untraced,
            100.0 * layers::ratio(traced - untraced, untraced)
        );
    }
    if all_correct {
        Ok(())
    } else {
        Err("some workload reported incorrect output".to_string())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = if args.regen_digests {
        cspa::regen_digests();
        Ok(())
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, nproc)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in `BENCHMARK.json` are the ones this program emits.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let spec = lobster_serve::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn metric_json_keeps_every_digit() {
        let line = metric_json(&[("p50_ms", 1.234_567_890_123, "ms")]);
        assert_eq!(
            line,
            "{\"p50_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}}"
        );
    }
}
