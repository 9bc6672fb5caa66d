//! `clutrr-wire`: CLUTRR chain-5 diff-top-1-proofs requests through `Server`
//! and `Client` over loopback TCP with the default server configuration
//! (one shard, so batches run on the session pool). One connection per CPU
//! first runs closed-loop to measure capacity, then open-loop at a fixed
//! ladder of offered rates, timing every request from its due time.

use crate::layers::{ms, ratio, CoreCalls, Sheet};
use crate::pathfinder::{scallop_outputs, TOLERANCE};
use crate::{median_ms, openloop, say, stats, Ctx, Measured, SetupTimes, Tally, LAYER_REPS};
use lobster::{FactSet, ProvenanceKind, Value};
use lobster_serve::{
    Client, ClientError, KeyStore, ProgramCache, Quota, Reply, Server, ServerConfig,
};
use lobster_workloads::{clutrr, WorkloadFacts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAIN: usize = 5;
/// Distinct requests per run, cycled through by every phase.
const POOL: usize = 256;
const KEY: &str = "perfbench";
/// Offered rates of the open-loop ladder, requests per second.
const LADDER: [f64; 4] = [100.0, 200.0, 400.0, 600.0];
/// The light rung, whose median latency is the end-to-end `p50_ms`.
const LIGHT: f64 = 100.0;
/// The heavy rung.
const HEAVY: f64 = 400.0;
/// A rung is sustained when its tail latency and its generator lag over
/// the last tenth of the rung stay within this limit.
const LIMIT_MS: f64 = 25.0;
/// Share of the measured time spent in the slices that alternate the
/// closed-loop phase with the light rung.
const SLICED_SHARE: f64 = 0.6;
/// Slices the end-to-end readings take their medians over.
const SLICES: usize = 5;
/// Completions per window over which the closed-loop rate is measured.
const WINDOW: usize = 100;
/// Passes over the pool made by each traced probe.
const PROBE_PASSES: usize = 2;

type Expected = Vec<(Vec<Value>, f64)>;

fn verify(
    tally: &mut Tally,
    sample: usize,
    expected: &Expected,
    reply: Result<Reply, ClientError>,
) {
    let reply = match reply {
        Ok(reply) if reply.ok() => reply,
        Ok(reply) => {
            return tally.check(false, || {
                format!("request {sample} refused: {}", reply.code().unwrap_or("?"))
            })
        }
        Err(e) => return tally.check(false, || format!("request {sample}: {e}")),
    };
    let wrong = (reply.len("answer") != expected.len())
        || expected
            .iter()
            .any(|(tuple, p)| (reply.probability("answer", tuple) - p).abs() > TOLERANCE);
    tally.check(!wrong, || {
        format!(
            "request {sample}: answer {:?}, oracle {expected:?}",
            reply.json().get("relations")
        )
    });
}

struct Rung {
    rate: f64,
    latency: stats::Summary,
    lag: stats::Summary,
    /// Median lag over the last tenth of the rung: a growing backlog.
    end_lag_ms: f64,
}

impl Rung {
    fn sustained(&self) -> bool {
        let tail = self.latency.tail.map_or(self.latency.p50, |(_, v)| v);
        tail <= LIMIT_MS && self.end_lag_ms <= LIMIT_MS
    }
}

fn serve() -> (Server, Arc<ProgramCache>) {
    let cache = Arc::new(ProgramCache::new());
    let program = cache
        .get_or_compile(clutrr::PROGRAM, ProvenanceKind::DiffTop1Proof)
        .expect("CLUTRR compiles");
    let keys = KeyStore::new();
    keys.add_key(KEY, Quota::unlimited());
    let config = ServerConfig {
        cache: Some(Arc::clone(&cache)),
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", 0), program, keys, config).expect("loopback binds");
    (server, cache)
}

type Done = (usize, Result<Reply, ClientError>, Duration);

/// Every connection sends its next request as soon as the last is
/// answered, for `duration`. Returns each request's sample, reply and
/// completion offset.
fn closed_loop(clients: &mut [Client], fact_sets: &[FactSet], duration: Duration) -> Vec<Done> {
    let lanes = clients.len();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = lane;
                    while start.elapsed() < duration {
                        let reply = client.run(&fact_sets[i % POOL]);
                        out.push((i % POOL, reply, start.elapsed()));
                        i += lanes;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop lane panicked"))
            .collect()
    })
}

/// Completion rate of a closed-loop phase: the median over windows of
/// [`WINDOW`] consecutive completions, robust to a stalled window.
/// A phase too short for one such window (a small `--seconds`) is one
/// window over all its completions.
fn capacity(replies: &[Done]) -> f64 {
    let mut done_s: Vec<f64> = replies.iter().map(|(_, _, d)| d.as_secs_f64()).collect();
    done_s.sort_by(f64::total_cmp);
    if done_s.len() < 2 {
        return done_s.len() as f64 / done_s.last().copied().unwrap_or(1.0);
    }
    let window = WINDOW.min(done_s.len() - 1);
    let rates: Vec<f64> = done_s
        .windows(window + 1)
        .step_by(window)
        .map(|w| window as f64 / (w[window] - w[0]))
        .collect();
    stats::median(&rates)
}

pub fn run(ctx: &Ctx) -> Measured {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC1_0000);
    let samples: Vec<WorkloadFacts> = (0..POOL)
        .map(|_| clutrr::generate(CHAIN, &mut rng).facts())
        .collect();
    let expected: Vec<Expected> = samples
        .iter()
        .map(|s| scallop_outputs(clutrr::PROGRAM, s, "answer"))
        .collect();
    let fact_sets: Vec<FactSet> = samples.iter().map(WorkloadFacts::to_fact_set).collect();
    let lanes = ctx.nproc.clamp(1, 2);
    println!("clutrr-wire: {POOL} chain-{CHAIN} requests, {lanes} connections over loopback TCP");

    let mut setup = SetupTimes::default();
    let (server, cache) = setup.time(serve);
    let mut sheet = Sheet::default();
    if ctx.traced {
        sheet.set(
            "datalog.parse_ms",
            median_ms(LAYER_REPS, || lobster_datalog::parse(clutrr::PROGRAM)),
        );
        sheet.set(
            "core.compile_ms",
            median_ms(LAYER_REPS, || {
                lobster::Lobster::builder(clutrr::PROGRAM)
                    .provenance(ProvenanceKind::DiffTop1Proof)
                    .compile()
            }),
        );
    }
    let addr = server.local_addr();
    let mut clients: Vec<Client> = (0..lanes)
        .map(|_| Client::connect(addr, KEY).expect("loopback connects"))
        .collect();

    let mut tally = Tally::default();
    for i in 0..POOL {
        let reply = clients[i % lanes].run(&fact_sets[i]);
        verify(&mut tally, i, &expected[i], reply);
    }
    let sched_before = server.scheduler().stats();

    // The run is cut into slices, each a closed-loop phase followed by the
    // light rung; the end-to-end readings are medians over the slices, so a
    // stretch of slow wake-ups on the host moves one slice, not the run.
    let half_slice = ctx.seconds.mul_f64(SLICED_SHARE / (2 * SLICES) as f64);
    let (mut capacities, mut light_p50s, mut light_out) = (Vec::new(), Vec::new(), Vec::new());
    let mut completed = 0;
    for _ in 0..SLICES {
        let replies = closed_loop(&mut clients, &fact_sets, half_slice);
        completed += replies.len();
        capacities.push(capacity(&replies));
        for (i, reply, _) in replies {
            verify(&mut tally, i, &expected[i], reply);
        }
        setup.time(serve);
        let out = openloop::run(LIGHT, half_slice, &mut clients, |client, i| {
            client.run(&fact_sets[i as usize % POOL])
        });
        let latencies: Vec<f64> = out.iter().map(|(t, _)| ms(t.latency())).collect();
        light_p50s.push(stats::median(&latencies));
        light_out.extend(out);
        setup.time(serve);
    }
    let capacity = stats::median(&capacities);
    let light_p50 = stats::median(&light_p50s);
    say(
        "throughput_per_s",
        capacity,
        "1/s",
        &format!(
            "closed-loop capacity: median of {SLICES} slices, {completed} requests on {lanes} \
             connections"
        ),
    );
    say(
        "light_p50_ms",
        light_p50,
        "ms",
        &format!("{LIGHT} rps, from due time: median of {SLICES} slice medians"),
    );

    // The rest of the ladder, one rung after another.
    let rung_for = ctx
        .seconds
        .mul_f64((1.0 - SLICED_SHARE) / (LADDER.len() - 1) as f64);
    let mut rungs = Vec::new();
    let mut all_lags = Vec::new();
    for rate in LADDER {
        let out = if rate == LIGHT {
            std::mem::take(&mut light_out)
        } else {
            openloop::run(rate, rung_for, &mut clients, |client, i| {
                client.run(&fact_sets[i as usize % POOL])
            })
        };
        let latencies: Vec<f64> = out.iter().map(|(t, _)| ms(t.latency())).collect();
        let lags: Vec<f64> = out.iter().map(|(t, _)| ms(t.lag())).collect();
        let last_tenth = &lags[lags.len() - (lags.len() / 10).max(1)..];
        all_lags.extend_from_slice(&lags);
        rungs.push(Rung {
            rate,
            latency: stats::Summary::of(&latencies),
            lag: stats::Summary::of(&lags),
            end_lag_ms: stats::median(last_tenth),
        });
        for (t, reply) in out {
            let i = t.index as usize % POOL;
            verify(&mut tally, i, &expected[i], reply);
        }
        setup.time(serve);
    }
    let setup_s = setup.median_s();
    say(
        "setup_s",
        setup_s,
        "s",
        &format!(
            "median of {} cache compiles + server binds, in groups spread over the run",
            setup.count()
        ),
    );
    for rung in &rungs {
        say(
            &format!("latency_at_{}rps_ms", rung.rate),
            rung.latency.p50,
            "ms",
            &rung.latency.describe("ms"),
        );
        say(
            &format!("gen.lag_at_{}rps_ms", rung.rate),
            rung.lag.p50,
            "ms",
            &format!(
                "{}; end-of-rung median {:.3} ms",
                rung.lag.describe("ms"),
                rung.end_lag_ms
            ),
        );
    }
    let rung_at = |rate: f64| {
        rungs
            .iter()
            .find(|r| r.rate == rate)
            .expect("rung on ladder")
    };
    let (light, heavy) = (rung_at(LIGHT), rung_at(HEAVY));
    let tail_of = |r: &Rung| r.latency.tail.map_or(r.latency.p50, |(_, v)| v);
    say(
        "light_tail_ms",
        tail_of(light),
        "ms",
        &light.latency.describe("ms"),
    );
    say(
        "heavy_p50_ms",
        heavy.latency.p50,
        "ms",
        &format!("{HEAVY} rps"),
    );
    say(
        "heavy_tail_ms",
        tail_of(heavy),
        "ms",
        &heavy.latency.describe("ms"),
    );
    let max_rate = rungs
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    say(
        "max_rate_rps",
        max_rate,
        "1/s",
        &format!("highest rung with tail and end-of-rung lag <= {LIMIT_MS} ms"),
    );
    let lag = stats::Summary::of(&all_lags);
    say(
        "gen.lag_p99_ms",
        lag.tail.map_or(lag.p50, |(_, v)| v),
        "ms",
        &format!("generator lateness over all rungs ({})", lag.describe("ms")),
    );

    if ctx.traced {
        let after = server.scheduler().stats();
        let batches = (after.batches - sched_before.batches) as f64;
        sheet.set(
            "serve.batch_size_mean",
            ratio((after.samples - sched_before.samples) as f64, batches),
        );
        sheet.set(
            "serve.timer_flush_frac",
            ratio(
                (after.timer_flushes - sched_before.timer_flushes) as f64,
                batches,
            ),
        );
        sheet.set("serve.shed", server.admission_stats().shed as f64);
        sheet.set("serve.rejected", server.stats().requests_rejected as f64);
        sheet.set("serve.cache_misses", cache.stats().misses as f64);
        // Three timings of the same requests, one at a time: the session
        // alone, the scheduler in front of it, and the wire in front of that.
        let program = Arc::clone(server.scheduler().program());
        let mut calls = CoreCalls::default();
        let (mut sched, mut wire) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..PROBE_PASSES {
            for (i, sample) in samples.iter().enumerate() {
                let mut session = program.session();
                for (rel, values, prob) in &sample.facts {
                    session.add_fact(rel, values, *prob).expect("fact fits");
                }
                let result = calls.observe(
                    program.device(),
                    || session.run(),
                    |r| r.as_ref().map(|r| r.stats.clone()).unwrap_or_default(),
                );
                tally.check(result.is_ok(), || format!("direct run {i} failed"));

                let request = fact_sets[i].clone();
                let start = Instant::now();
                let result = server.scheduler().submit(request).wait();
                sched += start.elapsed();
                tally.check(result.is_ok(), || format!("scheduled run {i} failed"));

                let start = Instant::now();
                let reply = clients[0].run(&fact_sets[i]);
                wire += start.elapsed();
                verify(&mut tally, i, &expected[i], reply);
            }
        }
        let n = (PROBE_PASSES * POOL) as f64;
        calls.record(&mut sheet, "DynSession::run");
        let exec_ms = calls.mean_wall_ms();
        let (sched_total, wire_total) = (ms(sched) / n, ms(wire) / n);
        sheet.set("serve.exec_ms", exec_ms);
        sheet.set("serve.sched_ms", sched_total - exec_ms);
        sheet.set("serve.wire_ms", wire_total - sched_total);
        println!(
            "  decomposition of Client::run (mean of {n} requests): {wire_total:.4} ms = \
             serve.exec_ms {exec_ms:.4} + serve.sched_ms {:.4} + serve.wire_ms {:.4}",
            sched_total - exec_ms,
            wire_total - sched_total
        );
        sheet.set("trace.p50_ms", light_p50);
        sheet.set("trace.throughput_per_s", capacity);
    }
    drop(clients);
    server.shutdown();
    Measured {
        setup_s,
        p50_ms: light_p50,
        throughput_per_s: capacity,
        tally,
        sheet,
    }
}
