//! The batching request scheduler.

use crate::error::ServeError;
use lobster::{DynProgram, DynShardedExecutor, FactSet, InputFactId, RunResult, ShardConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Duration;

/// Counters describing the batches a scheduler has run (see
/// [`BatchScheduler::stats`]).
pub use lobster::BatchStats as SchedulerStats;

/// Knobs trading per-request latency against batched throughput.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// A batch is flushed as soon as it holds this many requests.
    pub max_batch_size: usize,
    /// A batch is flushed this long after its *oldest* request arrived, even
    /// if it is not full — bounding the queueing latency a request can pay.
    pub max_queue_delay: Duration,
    /// Number of shard devices the scheduler's executor runs on, one worker
    /// thread each. `1` (the default) is one shard on the program's own
    /// device; above 1, batches fan out over devices derived with
    /// `Device::split_shards`, overlapping fix-points of *slices of the same
    /// batch*, and an idle shard worker may form the next batch while its
    /// siblings still run the last one. Results — tuples, probabilities,
    /// request-local gradient ids — are identical either way.
    ///
    /// The shard devices' memory budgets sum to the program device's
    /// `memory_limit` *however many batches execute concurrently*. A chunk
    /// that overflows its shard's budget spills (splits and retries) rather
    /// than failing outright.
    pub num_shards: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_size: 32,
            max_queue_delay: Duration::from_millis(2),
            num_shards: 1,
        }
    }
}

impl SchedulerConfig {
    /// Builder-style setter for [`SchedulerConfig::max_batch_size`].
    pub fn with_max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }

    /// Builder-style setter for [`SchedulerConfig::max_queue_delay`].
    pub fn with_max_queue_delay(mut self, delay: Duration) -> Self {
        self.max_queue_delay = delay;
        self
    }

    /// Builder-style setter for [`SchedulerConfig::num_shards`].
    pub fn with_num_shards(mut self, n: usize) -> Self {
        self.num_shards = n.max(1);
        self
    }
}

/// A pending request's handle: redeem it with [`Ticket::wait`] (or
/// [`Ticket::wait_timeout`] when the caller holds a deadline).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<RunResult, ServeError>>,
    /// The scheduler's shutdown flag, for telling a clean shutdown apart
    /// from a worker that died without responding. `Weak`: a stray ticket
    /// must not outlive the scheduler's state.
    shutdown: Weak<AtomicBool>,
}

impl Ticket {
    /// Blocks until the batch containing this request has run and returns
    /// this request's result.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Lobster`] when the batch failed to execute
    /// (every request of the failing batch receives the same error),
    /// [`ServeError::ShutDown`] when the scheduler was shut down before the
    /// request was served, or [`ServeError::Disconnected`] when the worker
    /// holding the request died without responding *and* the scheduler was
    /// not shutting down — a crash, not a clean drain.
    pub fn wait(self) -> Result<RunResult, ServeError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => Err(self.disconnect_error()),
        }
    }

    /// Like [`Ticket::wait`], but gives up after `timeout`.
    ///
    /// A timeout abandons only the *wait*: the request stays in the
    /// scheduler and still runs (and is still counted); its result is
    /// discarded when it arrives. Remote clients holding a response
    /// deadline use this so a slow batch cannot pin a connection thread
    /// forever.
    ///
    /// # Errors
    ///
    /// [`ServeError::TimedOut`] when `timeout` elapses first; otherwise as
    /// [`Ticket::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<RunResult, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.disconnect_error()),
        }
    }

    /// Non-blocking probe: `Some(result)` once the batch has run.
    pub fn try_wait(&self) -> Option<Result<RunResult, ServeError>> {
        self.rx.try_recv().ok()
    }

    /// The reply vanished without being sent: a clean shutdown only if the
    /// scheduler actually was shutting down (or is gone entirely — its
    /// `Drop` drains before releasing the flag, so an unreachable flag
    /// implies the drain finished). Anything else is a dead worker.
    fn disconnect_error(&self) -> ServeError {
        match self.shutdown.upgrade() {
            Some(shutdown) if !shutdown.load(Ordering::SeqCst) => ServeError::Disconnected,
            _ => ServeError::ShutDown,
        }
    }
}

/// Accumulates per-request [`FactSet`]s into mini-batches and runs each
/// batch in one fix-point instead of one per request (the paper's batched
/// evaluation, applied to serving).
///
/// The scheduler owns no thread and no queue of its own: it holds **one**
/// persistent [`DynShardedExecutor`], built with the scheduler, whose shard
/// workers both form the batches (flushing when a batch fills up to
/// [`SchedulerConfig::max_batch_size`] or its oldest request has waited
/// [`SchedulerConfig::max_queue_delay`]) and run them. A request therefore
/// crosses one thread hop — from the submitter to the shard worker that
/// replies — and a batch pays neither session setup nor thread spawn/join.
/// See `docs/ARCHITECTURE.md` for the full request lifecycle.
///
/// Requests are submitted with [`BatchScheduler::submit`], which returns a
/// [`Ticket`] immediately. Derived tuples and probabilities are identical
/// to running the same requests in one [`DynProgram::run_batch`] call:
/// samples are isolated by the sample-id column, whatever batch each
/// request lands in. Gradient entries are rewritten to *request-local* fact
/// ids — `InputFactId(i)` is the `i`-th fact added to the submitted
/// [`FactSet`] — with entries for inline program facts dropped, so they too
/// are independent of batch placement.
///
/// Dropping the scheduler drains the queue (every queued request still
/// runs) and joins the shard workers.
pub struct BatchScheduler {
    program: Arc<DynProgram>,
    executor: DynShardedExecutor,
    /// Number of inline program facts a session pre-registers; a request's
    /// own fact ids start after these.
    inline_facts: u32,
    /// Set when the scheduler starts dropping; read by [`Ticket`]s.
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("executor", &self.executor)
            .finish()
    }
}

impl BatchScheduler {
    /// Builds the scheduler's executor for `program` with the given knobs,
    /// spawning its shard workers.
    pub fn new(program: Arc<DynProgram>, config: SchedulerConfig) -> Self {
        let inline_facts = program.session().fact_count() as u32;
        let executor = program.batching_executor(
            ShardConfig::default().with_num_shards(config.num_shards),
            config.max_batch_size,
            config.max_queue_delay,
        );
        BatchScheduler {
            program,
            executor,
            inline_facts,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The program this scheduler serves.
    pub fn program(&self) -> &Arc<DynProgram> {
        &self.program
    }

    /// The executor whose shard workers batch and run every request.
    pub(crate) fn executor(&self) -> &DynShardedExecutor {
        &self.executor
    }

    /// Enqueues one request and returns its [`Ticket`] without blocking.
    ///
    /// Malformed requests (unknown relation, wrong arity) are rejected here,
    /// before they can reach a batch: the returned ticket yields the
    /// [`LobsterError::BadFact`](lobster::LobsterError::BadFact) immediately,
    /// and the requests they would have been co-batched with are unaffected.
    pub fn submit(&self, facts: FactSet) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let (inline, len) = (self.inline_facts, facts.len() as u32);
        self.executor.submit(
            facts,
            Box::new(move |outcome| {
                // The executor reports ids as if the request had run alone:
                // inline program facts first, then the request's own facts.
                // Shift those to the request's `FactSet` positions and drop
                // the inline ones.
                let outcome = outcome.map_err(ServeError::Lobster).map(|mut result| {
                    result.map_gradient_ids(|id| {
                        id.0.checked_sub(inline)
                            .filter(|local| *local < len)
                            .map(InputFactId)
                    });
                    result
                });
                // A dropped ticket just discards the result.
                let _ = tx.send(outcome);
            }),
        );
        Ticket {
            rx,
            shutdown: Arc::downgrade(&self.shutdown),
        }
    }

    /// Requests currently waiting in the queue (not yet formed into a
    /// batch).
    pub fn queued(&self) -> usize {
        self.executor.queued()
    }

    /// Requests formed into batches that have not finished replying.
    pub fn executing(&self) -> usize {
        self.executor.executing()
    }

    /// Requests the scheduler currently holds: queued plus executing. This
    /// is the depth an [`AdmissionController`](crate::AdmissionController)
    /// caps — everything a newly accepted request could wait behind.
    pub fn pending(&self) -> usize {
        // Read `executing` first: a request moving queue → batch between
        // the two reads is then counted twice (transiently high), never
        // missed — admission control must over-count, not under-count.
        let executing = self.executing();
        executing + self.queued()
    }

    /// Convenience: submit one request and block for its result.
    ///
    /// # Errors
    ///
    /// See [`Ticket::wait`].
    pub fn run_one(&self, facts: FactSet) -> Result<RunResult, ServeError> {
        self.submit(facts).wait()
    }

    /// A snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        self.executor.batch_stats()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        // The executor field drops next: its workers run every queued
        // request, then exit.
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster::{ProvenanceKind, Value};

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn edge_request(a: u32, b: u32, p: f64) -> FactSet {
        let mut facts = FactSet::new();
        facts.add("edge", &[Value::U32(a), Value::U32(b)], Some(p));
        facts
    }

    /// The two executor shapes: one shard on the program's device, and a
    /// split device whose two workers race each other to form batches.
    const SHARDS: [usize; 2] = [1, 2];

    fn program() -> Arc<DynProgram> {
        Arc::new(DynProgram::compile(TC, ProvenanceKind::AddMultProb).unwrap())
    }

    #[test]
    fn single_request_round_trips() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        let result = scheduler.run_one(edge_request(0, 1, 0.75)).unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.75).abs() < 1e-9);
        let stats = scheduler.stats();
        assert_eq!((stats.batches, stats.samples), (1, 1));
    }

    #[test]
    fn a_full_batch_flushes_without_waiting_for_the_timer() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                // A timer long enough that a timer flush would hang the test.
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait().unwrap();
            let (a, b) = (i as u32, i as u32 + 1);
            assert!(
                (result.probability("path", &[Value::U32(a), Value::U32(b)]) - 0.5).abs() < 1e-9
            );
        }
        assert!(scheduler.stats().full_flushes >= 1);
    }

    #[test]
    fn sharded_batches_round_trip_with_correct_results() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                .with_max_queue_delay(Duration::from_secs(30))
                .with_num_shards(2),
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| scheduler.submit(edge_request(i * 10, i * 10 + 1, 0.25 + 0.1 * f64::from(i))))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let result = ticket.wait().unwrap();
            let (a, b) = (i as u32 * 10, i as u32 * 10 + 1);
            let expected = 0.25 + 0.1 * i as f64;
            assert!(
                (result.probability("path", &[Value::U32(a), Value::U32(b)]) - expected).abs()
                    < 1e-9
            );
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 4);
        // One full batch of 4 over 2 shards executes exactly 2 chunks (one
        // fix-point each) — the counter measures, it does not model.
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.sharded_chunks, 2);
    }

    #[test]
    fn the_persistent_executor_serves_many_batches_and_tears_down_cleanly() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(2)
                .with_max_queue_delay(Duration::from_secs(30))
                .with_num_shards(2),
        );
        // 40 full batches through the same two shard workers. Every result
        // must be correct and every batch must pay its chunks — reuse may
        // not corrupt, leak, or accumulate.
        for round in 0..40u32 {
            let a = scheduler.submit(edge_request(round * 10, round * 10 + 1, 0.5));
            let b = scheduler.submit(edge_request(round * 10 + 2, round * 10 + 3, 0.5));
            for (ticket, x) in [(a, round * 10), (b, round * 10 + 2)] {
                let result = ticket.wait().unwrap();
                assert!(
                    (result.probability("path", &[Value::U32(x), Value::U32(x + 1)]) - 0.5).abs()
                        < 1e-9,
                    "round {round}"
                );
            }
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 80);
        assert_eq!(stats.batches, 40);
        // Two single-request chunks per batch, no spills: measured, not
        // modeled — a leak across batches would show up here.
        assert_eq!(stats.sharded_chunks, 80);
        drop(scheduler); // joins the shard workers
    }

    #[test]
    fn single_shard_batches_reuse_the_worker_session_without_fact_leakage() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1)),
        );
        // Sequential single-request batches all run on the one shard
        // worker's persistent session; a fact leaking between batches would
        // surface as an extra
        // `path` tuple or a wrong probability in a later request.
        for i in 0..30u32 {
            let result = scheduler
                .run_one(edge_request(0, 1, 0.1 + 0.02 * i as f64))
                .unwrap();
            let expected = 0.1 + 0.02 * f64::from(i);
            assert!(
                (result.probability("path", &[Value::U32(0), Value::U32(1)]) - expected).abs()
                    < 1e-9,
                "batch {i}"
            );
            assert_eq!(result.len("path"), 1, "batch {i}: leaked facts");
        }
    }

    #[test]
    fn drop_drains_queued_requests() {
        for shards in SHARDS {
            let scheduler = BatchScheduler::new(
                program(),
                SchedulerConfig::default()
                    .with_max_batch_size(64)
                    .with_max_queue_delay(Duration::from_secs(30))
                    .with_num_shards(shards),
            );
            let tickets: Vec<Ticket> = (0..3)
                .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
                .collect();
            drop(scheduler);
            for ticket in tickets {
                assert!(ticket.wait().is_ok(), "shards={shards}");
            }
        }
    }

    #[test]
    fn trickled_requests_with_two_shards_are_all_served_without_phantom_batches() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(4)
                .with_max_queue_delay(Duration::from_micros(200))
                .with_num_shards(2),
        );
        // Trickle requests so timer flushes race both batch-forming shard
        // workers against the queue (the stale-deadline case: one worker
        // drains while the other still holds the old front's expired
        // deadline).
        let mut tickets = Vec::new();
        for i in 0..20u32 {
            tickets.push(scheduler.submit(edge_request(i, i + 1, 0.5)));
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.samples, 20);
        // Every counted flush carried at least one request.
        assert!(stats.batches <= 20, "stats: {stats:?}");
        assert_eq!(stats.full_flushes + stats.timer_flushes, stats.batches);
    }

    #[test]
    fn malformed_requests_are_rejected_at_submit_without_harming_the_batch() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(2)
                .with_max_queue_delay(Duration::from_millis(20)),
        );
        let good = scheduler.submit(edge_request(0, 1, 0.5));
        let mut unknown = FactSet::new();
        unknown.add("ghost", &[Value::U32(0)], None);
        let mut wrong_arity = FactSet::new();
        wrong_arity.add("edge", &[Value::U32(0)], None);
        // Both malformed requests fail immediately (no queueing), each with
        // its own BadFact...
        for bad in [scheduler.submit(unknown), scheduler.submit(wrong_arity)] {
            match bad.wait() {
                Err(ServeError::Lobster(lobster::LobsterError::BadFact { .. })) => {}
                other => panic!("expected BadFact, got {other:?}"),
            }
        }
        // ...while the co-submitted good request is served normally.
        let result = good.wait().unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_dead_sender_is_a_disconnect_while_the_scheduler_lives() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        // Forge the failure `wait` must classify: the reply sender vanished
        // (as after a worker crash) while the scheduler is alive and healthy.
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let ticket = Ticket {
            rx,
            shutdown: Arc::downgrade(&scheduler.shutdown),
        };
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Disconnected);
        // The scheduler itself keeps serving after the lost request.
        assert!(scheduler.run_one(edge_request(0, 1, 0.5)).is_ok());
    }

    #[test]
    fn a_dead_sender_during_shutdown_is_a_clean_shutdown() {
        let scheduler = BatchScheduler::new(program(), SchedulerConfig::default());
        let shutdown = Arc::clone(&scheduler.shutdown);
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let mid_shutdown = Ticket {
            rx,
            shutdown: Arc::downgrade(&shutdown),
        };
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let after_teardown = Ticket {
            rx,
            shutdown: Arc::downgrade(&scheduler.shutdown),
        };
        drop(scheduler);
        // The shutdown flag is set (observed via our kept Arc)...
        assert_eq!(mid_shutdown.wait().unwrap_err(), ServeError::ShutDown);
        drop(shutdown);
        // ...and once the flag itself is gone (drain finished), an
        // unresolvable Weak means the same thing.
        assert_eq!(after_teardown.wait().unwrap_err(), ServeError::ShutDown);
    }

    #[test]
    fn wait_timeout_bounds_the_wait_without_cancelling_the_request() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(64)
                // A flush timer long enough that only shutdown drains.
                .with_max_queue_delay(Duration::from_secs(30)),
        );
        let ticket = scheduler.submit(edge_request(0, 1, 0.5));
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(20)).unwrap_err(),
            ServeError::TimedOut
        );
        // The abandoned request is still in the scheduler and still runs —
        // the drop-drain executes it (samples counts served requests).
        drop(scheduler);
    }

    #[test]
    fn wait_timeout_returns_the_result_when_the_batch_beats_the_deadline() {
        let scheduler = BatchScheduler::new(
            program(),
            SchedulerConfig::default()
                .with_max_batch_size(1)
                .with_max_queue_delay(Duration::from_millis(1)),
        );
        let ticket = scheduler.submit(edge_request(0, 1, 0.75));
        let result = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert!((result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pending_tracks_queued_plus_executing() {
        for shards in SHARDS {
            let scheduler = BatchScheduler::new(
                program(),
                SchedulerConfig::default()
                    .with_max_batch_size(64)
                    .with_max_queue_delay(Duration::from_secs(30))
                    .with_num_shards(shards),
            );
            assert_eq!(scheduler.pending(), 0);
            let tickets: Vec<Ticket> = (0..3)
                .map(|i| scheduler.submit(edge_request(i, i + 1, 0.5)))
                .collect();
            // Nothing has flushed (the timer is 30s): all three are queued.
            assert_eq!(scheduler.pending(), 3, "shards={shards}");
            drop(scheduler);
            for ticket in tickets {
                assert!(ticket.wait().is_ok(), "shards={shards}");
            }
        }
    }

    #[test]
    fn execution_failures_reach_every_request_in_the_batch() {
        // A device with a absurdly small memory budget makes every run OOM,
        // even after spilling — an execution error `submit` cannot screen
        // out, so the whole batch reports it.
        let program = Arc::new(
            lobster::Lobster::builder(TC)
                .device(lobster::Device::new(lobster::DeviceConfig {
                    parallelism: 1,
                    memory_limit: Some(8),
                    hash_table_expansion: 2,
                    min_parallel_rows: 4096,
                }))
                .provenance(ProvenanceKind::AddMultProb)
                .compile()
                .unwrap(),
        );
        for shards in SHARDS {
            let scheduler = BatchScheduler::new(
                Arc::clone(&program),
                SchedulerConfig::default()
                    .with_max_batch_size(2)
                    .with_max_queue_delay(Duration::from_secs(30))
                    .with_num_shards(shards),
            );
            let a = scheduler.submit(edge_request(0, 1, 0.5));
            let b = scheduler.submit(edge_request(1, 2, 0.5));
            assert!(
                matches!(a.wait(), Err(ServeError::Lobster(_))),
                "shards={shards}"
            );
            assert!(
                matches!(b.wait(), Err(ServeError::Lobster(_))),
                "shards={shards}"
            );
        }
    }
}
