//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each figure/table has a dedicated binary in `src/bin/` that prints the
//! measured numbers next to the values reported in the paper. Absolute
//! numbers differ (the paper's testbed is a 40-core Xeon with an RTX 2080
//! Ti / A100; this reproduction runs the GPU as a simulated device), but the
//! *shape* of each result — which system wins, how speedups scale with
//! problem size, where systems time out or run out of memory — is what the
//! harness reproduces.
//!
//! Set `LOBSTER_BENCH_QUICK=1` to shrink every workload for a fast smoke run.
//! Every bin samples through [`measure`], writes through [`Artifact`] and
//! reads its flags through [`Args`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod train;

use lobster::{Device, Program, Provenance, SessionProvenance, Value};
use lobster_baselines::{BaselineError, FvlogEngine, ScallopEngine, SouffleEngine};
use lobster_serve::json::{obj, parse, Json};
use lobster_workloads::WorkloadFacts;
use std::time::{Duration, Instant};

/// Whether quick mode is enabled (`LOBSTER_BENCH_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("LOBSTER_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scales a workload size down in quick mode.
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// The fidelity a benchmark artifact was produced at: whether the workload
/// was shrunk (`quick_mode`) and how many CPUs the measuring machine had.
/// Both are stamped into every artifact, so a committed artifact
/// self-describes and a degraded regeneration is detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactMode {
    /// The artifact was produced with a shrunk (smoke-run) workload.
    pub quick_mode: bool,
    /// CPUs available to the measuring machine.
    pub cpus: usize,
}

impl ArtifactMode {
    /// The mode the current process would produce artifacts at. `quick`
    /// ORs in a bin-specific flag (e.g. `--quick`) on top of
    /// [`quick_mode()`].
    pub fn current(quick: bool) -> Self {
        ArtifactMode {
            quick_mode: quick_mode() || quick,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// A degraded artifact is one a full-fidelity artifact must not be
    /// silently replaced by: a shrunk workload, or a machine where worker
    /// threads cannot overlap.
    pub fn is_degraded(&self) -> bool {
        self.quick_mode || self.cpus < 2
    }
}

/// Reads an existing artifact, `None` when it is absent or not valid JSON.
fn read_json(path: &str) -> Option<Json> {
    parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The mode stamped in an artifact or section (unstamped counts as unknown).
fn mode_of(doc: &Json) -> Option<ArtifactMode> {
    Some(ArtifactMode {
        quick_mode: doc.get("quick_mode")?.as_bool()?,
        cpus: doc.get("cpus")?.as_u64()? as usize,
    })
}

/// Reads the mode stamped in an existing artifact.
pub fn read_artifact_mode(path: &str) -> Option<ArtifactMode> {
    mode_of(&read_json(path)?)
}

/// When a degraded run (quick mode, or fewer than 2 CPUs) is about to
/// replace the full-fidelity artifact at `path`: a loud warning, and the
/// note to stamp into the new artifact as `mode_warning`.
pub fn degraded_overwrite_warning(path: &str, mode: ArtifactMode) -> Option<String> {
    overwrite_note(path, read_artifact_mode(path), mode)
}

/// [`degraded_overwrite_warning`] against the `previous` mode of `what`.
fn overwrite_note(
    what: &str,
    previous: Option<ArtifactMode>,
    mode: ArtifactMode,
) -> Option<String> {
    let previous = previous.filter(|p| mode.is_degraded() && !p.is_degraded())?;
    let run = match (mode.quick_mode, mode.cpus < 2) {
        (true, true) => format!("a quick-mode, {}-CPU run", mode.cpus),
        (true, false) => "a quick-mode run".to_string(),
        (false, _) => format!("a {}-CPU run", mode.cpus),
    };
    let note = format!(
        "{run} overwrote a full-fidelity artifact (was quick_mode: {}, cpus: {}); \
         numbers are not comparable with the committed history — regenerate \
         full-mode on a multi-CPU machine before committing",
        previous.quick_mode, previous.cpus,
    );
    eprintln!("\n{}", "!".repeat(72));
    eprintln!("WARNING: {what}: {note}");
    eprintln!("{}\n", "!".repeat(72));
    Some(note)
}

/// Six significant digits: the precision artifacts record measurements at.
fn rounded(value: Json) -> Json {
    match value {
        Json::Num(n) if n.fract() != 0.0 => Json::Num(format!("{n:.5e}").parse().unwrap_or(n)),
        Json::Arr(items) => Json::Arr(items.into_iter().map(rounded).collect()),
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().map(|(k, v)| (k, rounded(v))).collect()),
        other => other,
    }
}

/// The one writer of `BENCH_*.json` artifacts: it stamps `quick_mode`,
/// `cpus` and, over a full-fidelity one, a degraded run's `mode_warning`.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The artifact file.
    pub path: String,
    /// The fidelity this process measures at.
    pub mode: ArtifactMode,
}

impl Artifact {
    /// The artifact at `path`, written at [`ArtifactMode::current`]`(quick)`.
    pub fn new(path: &str, quick: bool) -> Self {
        Artifact {
            path: path.to_string(),
            mode: ArtifactMode::current(quick),
        }
    }

    /// `body` stamped with this run's mode, judged against `previous`.
    fn stamped(&self, what: &str, previous: Option<ArtifactMode>, mut body: Json) -> Json {
        body.set("quick_mode", Json::Bool(self.mode.quick_mode));
        body.set("cpus", Json::from(self.mode.cpus));
        if let Some(note) = overwrite_note(what, previous, self.mode) {
            body.set("mode_warning", Json::from(note.as_str()));
        }
        body
    }

    /// Writes the object `body` as the whole artifact. `keep` names a
    /// section another bin owns, carried over from the existing file.
    pub fn write(&self, body: Json, keep: Option<&str>) {
        let previous = read_json(&self.path);
        let mut doc = self.stamped(&self.path, previous.as_ref().and_then(mode_of), body);
        if let Some(name) = keep {
            if let Some(section) = previous.as_ref().and_then(|p| p.get(name)) {
                doc.set(name, section.clone());
                println!("kept the existing `{name}` section of {}", self.path);
            }
        }
        std::fs::write(&self.path, rounded(doc).to_pretty()).expect("artifact path is writable");
        println!("\nwrote {}", self.path);
    }

    /// Replaces the top-level section `name` with the object `body`, leaving
    /// every other key as it is. The section carries its own stamps, judged
    /// against the section it replaces.
    pub fn write_section(&self, name: &str, body: Json) {
        let mut doc = read_json(&self.path).unwrap_or(Json::Obj(Vec::new()));
        let what = format!("the `{name}` section of {}", self.path);
        let section = self.stamped(&what, doc.get(name).and_then(mode_of), body);
        doc.set(name, section);
        std::fs::write(&self.path, rounded(doc).to_pretty()).expect("artifact path is writable");
        println!("\nwrote {what}");
    }
}

/// Nearest-rank percentile of an ascending slice, the element at rank
/// `round(p / 100 × (n − 1))`; `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((p / 100.0) * (n - 1) as f64).round() as usize).min(n - 1)],
    }
}

/// The samples of one measurement, sorted ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.percentile(0.0)
    }

    /// The nearest-rank median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The nearest-rank `p`-th percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    /// An artifact row: `fields`, then the spread every timed row carries —
    /// `median`, `p10` and `p90` in the row's unit (samples times `scale`)
    /// and the sample count `samples`.
    pub fn row<const N: usize>(&self, scale: f64, fields: [(&str, Json); N]) -> Json {
        let mut row = obj(fields);
        for (key, p) in [("median", 50.0), ("p10", 10.0), ("p90", 90.0)] {
            row.set(key, Json::Num(self.percentile(p) * scale));
        }
        row.set("samples", Json::from(self.0.len()));
        row
    }
}

/// The one timing primitive: `n` samples (at least one) of `run`, in
/// seconds. `run` returns its own wall time, so it can leave setup out.
pub fn measure(n: usize, mut run: impl FnMut() -> Duration) -> Samples {
    Samples::new((0..n.max(1)).map(|_| run().as_secs_f64()).collect())
}

/// [`measure`] for a run that can fail: the first failure ends the
/// measurement and is returned, so a failed run is never repeated.
pub fn try_measure<E>(n: usize, mut f: impl FnMut() -> Result<Duration, E>) -> Result<Samples, E> {
    let walls = (0..n.max(1)).map(|_| f().map(|wall| wall.as_secs_f64()));
    walls.collect::<Result<_, _>>().map(Samples::new)
}

/// The command-line flags of a bench bin.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments.
    pub fn from_env() -> Self {
        Args(std::env::args().collect())
    }

    /// Whether the switch `flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The value following `flag`, parsed; panics when it does not parse.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let raw = self.0.iter().skip_while(|a| *a != flag).nth(1)?;
        let parsed = raw.parse();
        Some(parsed.unwrap_or_else(|_| panic!("{flag} takes a number, got {raw:?}")))
    }
}

/// Samples the paper bins take of every system on every workload.
pub const PAPER_SAMPLES: usize = 3;

/// Times `run` [`PAPER_SAMPLES`] times; a failed run is not repeated, and
/// `failed` turns its error into the outcome (OOM, timeout).
pub fn paper_outcome<T, E>(
    mut run: impl FnMut() -> Result<T, E>,
    failed: impl FnOnce(E) -> Outcome,
) -> Outcome {
    try_measure(PAPER_SAMPLES, || {
        let start = Instant::now();
        run().map(|_| start.elapsed())
    })
    .map_or_else(failed, Outcome::Ok)
}

/// The outcome of running one system on one workload.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed; the wall time of every sample, in seconds.
    Ok(Samples),
    /// Ran out of (simulated device) memory.
    Oom,
    /// Hit the timeout.
    Timeout,
}

impl Outcome {
    /// The median runtime in seconds, if the run completed.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Ok(samples) => Some(samples.median()),
            _ => None,
        }
    }

    /// Formats the outcome like the paper's tables (`OOM`, `timeout`, or
    /// the median seconds followed by the p10–p90 range).
    pub fn cell(&self) -> String {
        match self {
            Outcome::Ok(s) => {
                let [median, p10, p90] = [50.0, 10.0, 90.0].map(|p| s.percentile(p));
                format!("{median:.2} ({p10:.2}–{p90:.2})")
            }
            Outcome::Oom => "OOM".to_string(),
            Outcome::Timeout => "timeout".to_string(),
        }
    }
}

/// Formats a speedup of `baseline` over `system` (`baseline / system`).
pub fn speedup(baseline: &Outcome, system: &Outcome) -> String {
    match (baseline.seconds(), system.seconds()) {
        (Some(b), Some(s)) if s > 0.0 => format!("{:.2}x", b / s),
        _ => "-".to_string(),
    }
}

/// Prints a header for a figure/table reproduction.
pub fn print_header(title: &str, paper_summary: &str) {
    println!("\n=== {title} ===");
    println!("paper: {paper_summary}");
    println!("{}", "-".repeat(72));
}

/// Runs a probabilistic or discrete workload on a compiled Lobster
/// [`Program`] through [`paper_outcome`] and returns the symbolic runtime
/// together with the number of facts in the queried relation.
///
/// The program carries its own device and runtime options (set them on the
/// [`lobster::Lobster::builder`] chain); this helper opens a fresh session
/// per call, so one compiled program can be reused across measurements.
///
/// # Panics
///
/// Panics when a fact is malformed — bench workloads are trusted inputs.
pub fn run_lobster<P: SessionProvenance>(
    program: &Program<P>,
    facts: &WorkloadFacts,
) -> (Outcome, usize) {
    let mut session = program.session();
    facts
        .add_to_session(&mut session)
        .expect("workload facts must match the program");
    let mut total = 0;
    let outcome = paper_outcome(
        // The result is returned, so dropping it stays out of the timing.
        || {
            let result = session.run()?;
            total = result.relations().iter().map(|r| result.len(r)).sum();
            Ok(result)
        },
        |e| match e {
            lobster::LobsterError::Execution(lobster_apm::ExecError::Device(_)) => Outcome::Oom,
            lobster::LobsterError::Execution(lobster_apm::ExecError::Timeout { .. }) => {
                Outcome::Timeout
            }
            other => panic!("unexpected failure: {other}"),
        },
    );
    (outcome, total)
}

/// A tuple-at-a-time baseline's failure as an outcome (only timeouts are).
pub fn baseline_failure(e: BaselineError) -> Outcome {
    match e {
        BaselineError::Timeout { .. } => Outcome::Timeout,
        other => panic!("unexpected baseline failure: {other}"),
    }
}

/// Runs a workload on the Scallop baseline with the given provenance.
///
/// # Panics
///
/// Panics when the program fails to compile.
pub fn run_scallop<P: Provenance>(
    program: &str,
    provenance: P,
    facts: &[(String, Vec<u64>, P::Tag)],
    timeout: Option<Duration>,
) -> Outcome {
    let ram = lobster_datalog::parse(program)
        .expect("benchmark program compiles")
        .ram;
    let engine = ScallopEngine::new(provenance).with_timeout(timeout);
    paper_outcome(|| engine.run(&ram, facts), baseline_failure)
}

/// Runs a discrete workload on the Soufflé baseline.
///
/// # Panics
///
/// Panics when the program fails to compile.
pub fn run_souffle(
    program: &str,
    facts: &[(String, Vec<u64>)],
    timeout: Option<Duration>,
) -> Outcome {
    let ram = lobster_datalog::parse(program)
        .expect("benchmark program compiles")
        .ram;
    let engine = SouffleEngine::default().with_timeout(timeout);
    paper_outcome(|| engine.run(&ram, facts), baseline_failure)
}

/// Runs a discrete workload on the FVLog stand-in on `device`; any failure
/// is the device running out of memory.
///
/// # Panics
///
/// Panics when the program fails to compile.
pub fn run_fvlog(program: &str, device: Device, facts: &WorkloadFacts) -> Outcome {
    let ram = lobster_datalog::parse(program)
        .expect("benchmark program compiles")
        .ram;
    let (engine, facts) = (FvlogEngine::new(device), facts.encoded_discrete());
    paper_outcome(|| engine.run(&ram, &facts), |_| Outcome::Oom)
}

/// Converts probabilistic workload facts into Scallop-baseline facts for a
/// provenance, registering probabilities through `input_tag`.
pub fn scallop_facts<P: Provenance>(
    provenance: &P,
    facts: &WorkloadFacts,
) -> Vec<(String, Vec<u64>, P::Tag)> {
    facts
        .facts
        .iter()
        .enumerate()
        .map(|(i, (rel, values, prob))| {
            let tag = provenance.input_tag(lobster_provenance::InputFactId(i as u32), *prob);
            (rel.clone(), values.iter().map(Value::encode).collect(), tag)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_formatting() {
        assert_eq!(Outcome::Oom.cell(), "OOM");
        assert_eq!(Outcome::Timeout.cell(), "timeout");
        let secs = |v: &[f64]| Outcome::Ok(Samples::new(v.to_vec()));
        assert_eq!(secs(&[1.5]).cell(), "1.50 (1.50–1.50)");
        assert_eq!(secs(&[1.7, 1.5, 1.6]).cell(), "1.60 (1.50–1.70)");
        assert_eq!(speedup(&secs(&[4.0, 9.0, 3.0]), &secs(&[2.0])), "2.00x");
        assert_eq!(speedup(&Outcome::Oom, &secs(&[1.0])), "-");
    }

    /// A temporary artifact path unique to one test of this process.
    fn temp_artifact(test: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("lobster-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json").to_str().unwrap().to_string();
        (dir, path)
    }

    const FULL: ArtifactMode = ArtifactMode {
        quick_mode: false,
        cpus: 8,
    };
    const DEGRADED: ArtifactMode = ArtifactMode {
        quick_mode: true,
        cpus: 1,
    };

    #[test]
    fn samples_and_percentile_give_nearest_rank_answers() {
        let one = Samples::new(vec![5.0]);
        for p in [0.0, 10.0, 50.0, 90.0, 100.0] {
            assert_eq!(one.percentile(p), 5.0);
        }
        assert_eq!((one.min(), one.median()), (5.0, 5.0));
        // n = 2: rank round(0.5) = 1, so the median is the larger sample.
        let two = Samples::new(vec![3.0, 1.0]);
        assert_eq!(two.values(), &[1.0, 3.0]);
        assert_eq!(
            (two.min(), two.median(), two.percentile(100.0)),
            (1.0, 3.0, 3.0)
        );
        let odd = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            [0.0, 10.0, 50.0, 90.0, 100.0].map(|p| odd.percentile(p)),
            [1.0, 1.0, 3.0, 5.0, 5.0]
        );
        assert_eq!(Samples::default().median(), 0.0);
        // The rule `serve_throughput` and `serve_load` each carried a copy
        // of before the harness owned it.
        let previous_copy = |sorted: &[f64], p: f64| {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank.min(sorted.len() - 1)]
        };
        let fixed: Vec<f64> = (0..37)
            .map(|i| f64::from((i * 7919) % 101) * 0.25)
            .collect();
        let samples = Samples::new(fixed);
        for p in 0..=100 {
            let p = f64::from(p);
            assert_eq!(
                samples.percentile(p),
                previous_copy(samples.values(), p),
                "p{p}"
            );
        }
    }

    #[test]
    fn measure_sorts_samples_and_try_measure_stops_at_the_first_failure() {
        let mut walls = [3u64, 1, 2].into_iter();
        let samples = measure(3, || Duration::from_millis(walls.next().unwrap()));
        assert_eq!(samples.values(), &[0.001, 0.002, 0.003]);
        assert_eq!(measure(0, || Duration::ZERO).values().len(), 1);
        let mut calls = 0;
        let failed = try_measure(3, || {
            calls += 1;
            if calls == 2 {
                Err("oom")
            } else {
                Ok(Duration::ZERO)
            }
        });
        assert_eq!((failed, calls), (Err("oom"), 2));
    }

    #[test]
    fn args_parse_switches_and_values() {
        let args = Args(
            ["--quick", "--repeats", "5", "--factor", "1.5"]
                .map(String::from)
                .to_vec(),
        );
        assert!(args.has("--quick") && !args.has("--other"));
        assert_eq!(args.value::<usize>("--repeats"), Some(5));
        assert_eq!(args.value::<f64>("--factor"), Some(1.5));
        assert_eq!(args.value::<usize>("--rows"), None);
    }

    #[test]
    fn writer_stamps_the_mode_and_warns_only_on_degraded_overwrites() {
        let (dir, path) = temp_artifact("writer-stamps");
        let read = || parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let full = Artifact {
            path: path.clone(),
            mode: FULL,
        };
        full.write(obj([("x", Json::Num(1.0))]), None);
        assert_eq!(read_artifact_mode(&path), Some(FULL));
        assert_eq!(read().get("x"), Some(&Json::Num(1.0)));
        assert!(read().get("mode_warning").is_none());
        // Full over full: no warning.
        full.write(obj([("x", Json::Num(2.0))]), None);
        assert!(read().get("mode_warning").is_none());
        // Degraded over full: stamped.
        let degraded = Artifact {
            path: path.clone(),
            mode: DEGRADED,
        };
        degraded.write(obj([("x", Json::Num(3.0))]), None);
        assert_eq!(read_artifact_mode(&path), Some(DEGRADED));
        let note = read()
            .get("mode_warning")
            .and_then(Json::as_str)
            .map(String::from);
        assert!(note.expect("stamped").contains("quick-mode"));
        // Measurements are recorded at six significant digits; integers as-is.
        let third = obj([
            ("x", Json::Num(1.0 / 3.0)),
            ("n", Json::from(123_456_789u64)),
        ]);
        degraded.write(third, None);
        assert_eq!(read().get("x"), Some(&Json::Num(0.333333)));
        assert_eq!(read().get("n").and_then(Json::as_u64), Some(123_456_789));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_artifact_write_keeps_the_named_section() {
        let (dir, path) = temp_artifact("writer-keeps");
        std::fs::write(&path, r#"{"old": 1, "overload": {"accepted": 7}}"#).unwrap();
        let artifact = Artifact {
            path: path.clone(),
            mode: FULL,
        };
        artifact.write(obj([("new", Json::Num(2.0))]), Some("overload"));
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.get("old").is_none());
        assert_eq!(doc.get("new"), Some(&Json::Num(2.0)));
        let kept = doc.get("overload").and_then(|o| o.get("accepted"));
        assert_eq!(kept, Some(&Json::Num(7.0)));
        // Without `keep`, the section goes with the rest of the old file.
        artifact.write(obj([("new", Json::Num(3.0))]), None);
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.get("overload").is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn section_write_leaves_other_keys_and_stamps_itself() {
        let (dir, path) = temp_artifact("writer-section");
        let top = r#"{"quick_mode": false, "cpus": 8, "batched": [1, 2],
            "overload": {"quick_mode": false, "cpus": 4, "accepted": 7}}"#;
        std::fs::write(&path, top).unwrap();
        let read = || parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let before = read();
        let degraded = Artifact {
            path: path.clone(),
            mode: DEGRADED,
        };
        degraded.write_section("overload", obj([("accepted", Json::Num(9.0))]));
        let doc = read();
        for key in ["quick_mode", "cpus", "batched"] {
            assert_eq!(doc.get(key), before.get(key), "{key}");
        }
        assert!(doc.get("mode_warning").is_none());
        let section = doc.get("overload").expect("section written");
        assert_eq!(mode_of(section), Some(DEGRADED));
        assert_eq!(section.get("accepted"), Some(&Json::Num(9.0)));
        assert!(section.get("mode_warning").is_some());
        // Degraded over degraded: nothing of higher fidelity is lost.
        degraded.write_section("overload", obj([("accepted", Json::Num(10.0))]));
        assert!(read()
            .get("overload")
            .unwrap()
            .get("mode_warning")
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_scaling() {
        // The env var is not set in tests, so the full size is returned.
        if !quick_mode() {
            assert_eq!(scaled(100, 10), 100);
        }
    }

    #[test]
    fn artifact_mode_round_trips_and_guards_degraded_overwrites() {
        let dir = std::env::temp_dir().join(format!("lobster-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        // Absent file: unknown mode, no warning whatever the writer's mode.
        assert_eq!(read_artifact_mode(path), None);
        let degraded = ArtifactMode {
            quick_mode: true,
            cpus: 1,
        };
        assert!(degraded_overwrite_warning(path, degraded).is_none());
        // A committed full-mode artifact must not be silently replaced.
        std::fs::write(path, "{\"quick_mode\": false, \"cpus\": 8, \"x\": 1}").unwrap();
        assert_eq!(
            read_artifact_mode(path),
            Some(ArtifactMode {
                quick_mode: false,
                cpus: 8
            })
        );
        let note = degraded_overwrite_warning(path, degraded).expect("warns");
        assert!(note.contains("quick-mode"), "{note}");
        // A full-fidelity writer over a full artifact: no warning.
        let full = ArtifactMode {
            quick_mode: false,
            cpus: 8,
        };
        assert!(!full.is_degraded());
        assert!(degraded_overwrite_warning(path, full).is_none());
        // Degraded over degraded: also fine (nothing of higher fidelity is
        // lost).
        std::fs::write(path, "{\"quick_mode\": true, \"cpus\": 1}").unwrap();
        assert!(degraded_overwrite_warning(path, degraded).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_lobster_and_scallop_on_a_tiny_workload() {
        use lobster_workloads::graphs;
        let mut facts = WorkloadFacts::new();
        for i in 0..20u32 {
            facts.push("edge", vec![Value::U32(i), Value::U32(i + 1)], None);
        }
        let program = lobster::Lobster::builder(graphs::TRANSITIVE_CLOSURE)
            .compile_typed::<lobster::Unit>()
            .unwrap();
        let (outcome, derived) = run_lobster(&program, &facts);
        assert!(outcome.seconds().is_some());
        assert_eq!(derived, 210);
        let baseline = run_scallop(
            graphs::TRANSITIVE_CLOSURE,
            lobster::Unit::new(),
            &scallop_facts(&lobster::Unit::new(), &facts),
            None,
        );
        assert!(baseline.seconds().is_some());
    }
}
