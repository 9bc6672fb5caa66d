//! Multi-device sharded batch execution: [`ShardedExecutor`],
//! [`ShardConfig`], and [`ShardRunStats`].
//!
//! [`Program::run_batch`] isolates samples with a leading sample-id column,
//! which makes the sample the natural unit of *horizontal* partitioning: a
//! batch can be split across several [`Device`] instances, each shard running
//! its own fix-point over its slice of the samples, and the per-shard results
//! merged back into the caller's order. The executor here does exactly that:
//!
//! * **Workers are persistent.** Constructing an executor spawns one worker
//!   thread per shard device; every batch is fed to those same threads over
//!   a shared work queue, and the threads are only torn down when the
//!   executor is dropped. Each worker keeps a long-lived [`Session`] on its
//!   shard, so a batch pays neither thread spawn/join nor session setup —
//!   the steady-state overheads a serving layer cares about at high request
//!   rates. Several threads may call [`ShardedExecutor::run_batch`]
//!   concurrently; their chunks interleave in the shared queue and each
//!   caller gets exactly its own results.
//! * **Workers also form batches.** Samples queued one at a time with
//!   [`ShardedExecutor::submit`] wait in the executor's request queue. A
//!   worker with no chunk to run takes the batch-forming role: it flushes
//!   the queue into one batch once the batch is full, the oldest sample has
//!   waited the executor's queue delay, or shutdown begins, and plans that
//!   batch straight into the work queue. The worker that retires a batch's
//!   last chunk delivers every sample's reply, so a request crosses no
//!   thread besides the shard worker that runs it.
//! * **Partitioning** is cost-aware: samples are greedily bin-packed over the
//!   shards by descending fact count (longest-processing-time order), so a
//!   mix of large and small samples still balances. A pathologically large
//!   sample — one whose cost exceeds [`ShardConfig::skew_factor`] × the ideal
//!   per-shard share — is carved out as its own work unit instead of pinning
//!   a whole shard's plan to it.
//! * **Execution** is work-stealing: planned chunks go into the shared pool
//!   and each worker takes the most expensive pending chunk whenever it is
//!   idle, so a shard that finishes early steals the work a skewed plan
//!   would have left stranded.
//! * **Memory budgets** are per shard: shard devices are derived with
//!   [`Device::split_shards`], dividing the parent budget `n` ways (one shard
//!   is the parent device itself). Each shard device also owns its own
//!   persistent *kernel* worker pool (sized by the split parallelism and
//!   joined when the shard device drops with the executor), so shard-level
//!   parallelism here multiplies with kernel-level parallelism inside each
//!   shard — see `docs/PERFORMANCE.md` for how to budget the two against
//!   the machine's cores. A chunk that overflows its shard's budget is
//!   *spilled* — split in half and requeued — so a batch that fits the
//!   aggregate budget still completes, it just pays extra fix-points.
//! * **Results agree bit-for-bit with the unsharded path.** Samples never
//!   interact (the sample-id column keys every join), tables are kept in
//!   sorted order, and gradient ids are remapped from shard-local to global
//!   registration order, so `run_batch` returns exactly what
//!   [`Program::run_batch`] would have — whatever the shard count, plan,
//!   steal schedule, or batch interleaving. The per-result
//!   [`ExecutionStats`] are the one exception: they describe the chunk that
//!   actually ran.
//!
//! # Example: one executor, many batches
//!
//! ```
//! use lobster::{FactSet, Lobster, ShardConfig, ShardedExecutor, Value};
//! use lobster_provenance::AddMultProb;
//!
//! let program = Lobster::builder(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//! )
//! .compile_typed::<AddMultProb>()
//! .unwrap();
//!
//! // Spawns the two shard workers once...
//! let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
//! // ...and reuses them for every batch. No per-batch spawn/join.
//! for round in 0..10u32 {
//!     let mut sample = FactSet::new();
//!     sample.add("edge", &[Value::U32(round), Value::U32(round + 1)], Some(0.5));
//!     let results = executor.run_batch(&[sample.clone(), sample]).unwrap();
//!     assert_eq!(results.len(), 2);
//! }
//! // Dropping the executor joins the workers.
//! drop(executor);
//! ```
//!
//! On a hot path that owns its batch, [`ShardedExecutor::run_batch_owned`]
//! hands the samples to the workers without copying a single fact; a server
//! that receives samples one request at a time hands each to
//! [`ShardedExecutor::submit`] and lets the workers batch them.
//!
//! [`ExecutionStats`]: lobster_apm::ExecutionStats

use crate::error::LobsterError;
use crate::program::Program;
use crate::session::{FactSet, RunResult, Session};
use lobster_apm::ExecError;
use lobster_gpu::{Device, DeviceError, DeviceStats};
use lobster_provenance::{InputFactId, SessionProvenance};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the sharded executor.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard devices the batch is partitioned across.
    pub num_shards: usize,
    /// A sample whose cost exceeds `skew_factor ×` the ideal per-shard share
    /// (total cost / shards) is planned as its own work unit, eligible for
    /// stealing, instead of anchoring one shard's whole plan.
    pub skew_factor: f64,
    /// How many times a chunk may be split in half after a device
    /// out-of-memory before the error is reported. Each split halves the
    /// working-set a shard must hold at once.
    pub max_spill_depth: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            num_shards: 1,
            skew_factor: 2.0,
            max_spill_depth: 4,
        }
    }
}

impl ShardConfig {
    /// Builder-style setter for [`ShardConfig::num_shards`].
    pub fn with_num_shards(mut self, n: usize) -> Self {
        self.num_shards = n.max(1);
        self
    }

    /// Builder-style setter for [`ShardConfig::skew_factor`].
    pub fn with_skew_factor(mut self, factor: f64) -> Self {
        self.skew_factor = factor.max(1.0);
        self
    }

    /// Builder-style setter for [`ShardConfig::max_spill_depth`].
    pub fn with_max_spill_depth(mut self, depth: u32) -> Self {
        self.max_spill_depth = depth;
        self
    }
}

/// What one sharded run did: how the batch was cut, how the shards shared
/// the work, and what each device paid.
#[derive(Debug, Clone, Default)]
pub struct ShardRunStats {
    /// Work units the plan produced (bins plus carved-out skewed samples).
    pub planned_chunks: usize,
    /// Work units actually executed (spills add chunks beyond the plan).
    pub executed_chunks: usize,
    /// Chunks executed by a shard other than the one the plan assigned
    /// (carved-out skew chunks are unassigned and never count as steals).
    pub steals: usize,
    /// Chunk splits forced by a shard running out of device memory.
    pub spills: usize,
    /// Samples executed by each shard, indexed by shard.
    pub per_shard_samples: Vec<usize>,
    /// Device counters of each shard for *this run* (deltas against the
    /// counters at run start, so reusing the executor across batches does
    /// not accumulate; `live_bytes`/`peak_bytes` are the device's current
    /// and high-water gauges), indexed by shard. Includes the per-kernel
    /// time breakdown — `DeviceStats::kernel_time` is summed chunk-execution
    /// (busy) time across the shard's kernel pool lanes, and
    /// `DeviceStats::kernel_wall` is enqueue-to-completion wall time — so a
    /// serving layer can attribute a batch's cost to sort/join/unique work
    /// per shard and spot pool contention (wall ≫ busy / lanes).
    /// Attribution assumes runs on one executor do not overlap — concurrent
    /// `run_batch` calls share devices and blur each other's deltas (the
    /// results themselves are unaffected).
    pub device_stats: Vec<DeviceStats>,
}

impl ShardRunStats {
    /// The per-shard device counters folded into one aggregate record.
    pub fn merged_device_stats(&self) -> DeviceStats {
        let mut merged = DeviceStats::default();
        for stats in &self.device_stats {
            merged.merge(stats);
        }
        merged
    }
}

/// Counters describing the batches the workers formed out of
/// [`ShardedExecutor::submit`]ted samples (runs started with
/// [`ShardedExecutor::run_batch`] are not counted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches formed and run.
    pub batches: u64,
    /// Chunks those batches executed — one fix-point each, spills included.
    pub sharded_chunks: u64,
    /// Samples served across all batches.
    pub samples: u64,
    /// Batches flushed because they reached the maximum batch size.
    pub full_flushes: u64,
    /// Batches flushed by the queue-delay timer (or the shutdown drain).
    pub timer_flushes: u64,
    /// Largest batch formed so far.
    pub largest_batch: usize,
}

/// Receives the result of one sample queued with
/// [`ShardedExecutor::submit`]. It runs on the shard worker that retires the
/// sample's batch, so it must be quick and must not panic.
pub type Reply = Box<dyn FnOnce(Result<RunResult, LobsterError>) + Send>;

/// One schedulable unit of work: a set of samples (global indices, ascending)
/// that one shard runs as a single `run_batch` fix-point.
#[derive(Debug, Clone)]
struct Chunk {
    /// Global sample indices, ascending.
    samples: Vec<usize>,
    /// Total cost of the samples (fact counts).
    cost: u64,
    /// The shard the packing plan assigned this chunk to; `None` for
    /// carved-out skewed samples, which belong to whoever grabs them.
    planned_shard: Option<usize>,
    /// How many out-of-memory splits produced this chunk.
    spill_depth: u32,
}

/// Greedy cost-aware partition of `costs` into at most `num_shards` bins,
/// with samples above the skew threshold carved out as their own chunks.
fn plan_chunks(costs: &[u64], num_shards: usize, skew_factor: f64) -> Vec<Chunk> {
    let total: u64 = costs.iter().sum();
    let ideal = total as f64 / num_shards.max(1) as f64;
    let threshold = skew_factor * ideal;

    let mut chunks = Vec::new();
    let mut packable: Vec<usize> = Vec::new();
    for (i, &cost) in costs.iter().enumerate() {
        // Only a sample that dominates the ideal share is carved out; when
        // every sample is equally huge (ideal ≈ cost) packing stays even.
        if num_shards > 1 && cost as f64 > threshold {
            chunks.push(Chunk {
                samples: vec![i],
                cost,
                planned_shard: None,
                spill_depth: 0,
            });
        } else {
            packable.push(i);
        }
    }

    // Longest-processing-time greedy packing of the rest: place each sample,
    // largest first, on the currently lightest bin. Ties break on the lower
    // index so the plan is deterministic.
    packable.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut bins: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); num_shards.max(1)];
    for i in packable {
        let lightest = bins
            .iter()
            .enumerate()
            .min_by_key(|(b, (load, _))| (*load, *b))
            .map(|(b, _)| b)
            .expect("at least one bin");
        bins[lightest].0 += costs[i];
        bins[lightest].1.push(i);
    }
    for (b, (cost, mut samples)) in bins.into_iter().enumerate() {
        if samples.is_empty() {
            continue;
        }
        samples.sort_unstable();
        chunks.push(Chunk {
            samples,
            cost,
            planned_shard: Some(b),
            spill_depth: 0,
        });
    }
    chunks
}

/// A run's results in caller order plus what the shards did (device deltas
/// are filled in by the caller that snapshotted them).
type RunOutcome = Result<(Vec<RunResult>, ShardRunStats), LobsterError>;

/// Where a finished run's outcome goes.
enum Done {
    /// A [`ShardedExecutor::run_batch_owned`] caller blocked on the channel.
    Caller(mpsc::Sender<RunOutcome>),
    /// A batch formed from the request queue: one reply per sample.
    Replies(Vec<Reply>),
}

/// The mutable half of one run's shared state, guarded by
/// [`RunShared::progress`].
struct RunProgress {
    /// Chunks of this run that are queued or executing. Spills raise it,
    /// completions (and failure drains) lower it; the chunk that brings it
    /// to zero delivers the outcome.
    remaining: usize,
    /// Merged results in caller order, filled in as chunks complete.
    results: Vec<Option<RunResult>>,
    /// First unrecoverable error. Once set, the run's still-pending chunks
    /// are drained without executing.
    error: Option<LobsterError>,
    /// Chunks the plan produced.
    planned: usize,
    /// Chunks executed by a shard other than the planned one.
    steals: usize,
    /// Out-of-memory chunk splits.
    spills: usize,
    /// Chunks executed (spill halves included).
    executed: usize,
    /// Samples executed by each shard.
    per_shard_samples: Vec<usize>,
    /// Taken by the chunk that finishes the run.
    done: Option<Done>,
}

/// One batch in flight: the owned samples, the gradient-remap layout, and
/// the progress the workers update. Shared by every worker holding one of
/// the run's chunks.
struct RunShared {
    /// The batch, owned for the duration of the run — workers are long-lived
    /// threads and cannot borrow from the submitting stack frame.
    samples: Vec<FactSet>,
    /// Each sample's offset into the registration order its gradient ids
    /// are reported in: the unsharded batch's for `run_batch`, and zero for
    /// every sample of a formed batch (each reply reads as if its sample had
    /// run alone).
    global_offsets: Vec<u32>,
    /// Submission sequence number — a deterministic tie-breaker when chunks
    /// of several concurrent runs have equal cost.
    seq: u64,
    progress: Mutex<RunProgress>,
}

/// Locks a mutex, recovering from poison. The persistent runtime must keep
/// serving after a worker panic (the panic is converted into a run error by
/// [`ChunkPanicGuard`]), and every critical section here leaves its state
/// usable even when a caller-supplied closure panicked mid-update: a failed
/// run's partial results are discarded wholesale, and the queue mutations
/// themselves (`extend`, `swap_remove`, `drain`) cannot unwind half-done.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl RunShared {
    /// Retires one chunk of this run; the last one delivers the run's
    /// outcome. `update` is applied to the progress under the same lock.
    ///
    /// Poison-tolerant: if a previous holder panicked before its decrement
    /// (the only panic window — `update` runs first), the count still
    /// reflects that un-retired chunk, and its [`ChunkPanicGuard`] performs
    /// the missing retirement through this same path.
    fn retire_chunk(&self, pool: &PoolShared, update: impl FnOnce(&mut RunProgress)) {
        let mut progress = lock_recover(&self.progress);
        update(&mut progress);
        progress.remaining -= 1;
        if progress.remaining > 0 {
            return;
        }
        let outcome = match progress.error.take() {
            Some(e) => Err(e),
            None => Ok((
                progress
                    .results
                    .drain(..)
                    .map(|r| r.expect("every sample ran"))
                    .collect(),
                ShardRunStats {
                    planned_chunks: progress.planned,
                    executed_chunks: progress.executed,
                    steals: progress.steals,
                    spills: progress.spills,
                    per_shard_samples: std::mem::take(&mut progress.per_shard_samples),
                    device_stats: Vec::new(),
                },
            )),
        };
        let done = progress.done.take().expect("a run finishes once");
        drop(progress);
        match done {
            Done::Caller(tx) => {
                // A caller that stopped waiting just discards the outcome.
                let _ = tx.send(outcome);
            }
            Done::Replies(replies) => pool.deliver(replies, outcome),
        }
    }

    fn failed(&self) -> bool {
        lock_recover(&self.progress).error.is_some()
    }
}

/// One entry of the worker pool's queue: a chunk plus the run it belongs to.
struct WorkItem {
    run: Arc<RunShared>,
    chunk: Chunk,
}

/// A sample queued by [`ShardedExecutor::submit`], waiting to be batched.
struct Request {
    facts: FactSet,
    /// Planning cost, computed at submission so forming a batch under the
    /// queue lock stays cheap.
    cost: u64,
    reply: Reply,
    /// The flush timer of a batch runs from its *oldest* request, so
    /// queueing latency is bounded by the queue delay even when every
    /// worker was busy while the request waited.
    enqueued: Instant,
}

/// Everything the workers share, guarded by [`PoolShared::state`].
#[derive(Default)]
struct PoolState {
    /// Pending chunks across all in-flight runs.
    chunks: Vec<WorkItem>,
    /// Submitted samples not yet formed into a batch.
    requests: VecDeque<Request>,
    /// Samples of formed batches whose replies are not delivered yet.
    executing: usize,
    /// Issues [`RunShared::seq`] numbers.
    next_seq: u64,
    /// Set by [`ShardedExecutor::drop`]; workers flush the request queue at
    /// once and exit when both queues are empty.
    shutdown: bool,
    stats: BatchStats,
}

/// State shared between the executor handle and its persistent workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when chunks or requests arrive, or shutdown begins.
    work: Condvar,
    /// The configuration in effect, `num_shards` matching the shard devices.
    config: ShardConfig,
    /// Fact ids `0..inline_facts` are the program's inline facts, identical
    /// in every shard and in the global order.
    inline_facts: u32,
    /// Static per-relation planning weights from the program's cost model,
    /// shared by the planner, the request queue and the spill path.
    weights: BTreeMap<String, u64>,
    /// A formed batch holds at most this many samples.
    max_batch_size: usize,
    /// How long the oldest queued sample may wait for its batch to fill.
    max_queue_delay: Duration,
}

impl PoolShared {
    /// Takes the most expensive pending chunk (ties: oldest run, then lowest
    /// leading sample index, so the drain order is deterministic). With no
    /// chunk pending the worker forms the next batch from the request queue,
    /// and sleeps while there is nothing to do. Returns `None` on shutdown
    /// once both queues are empty.
    ///
    /// The lock is released while waiting, so a sibling may form the batch
    /// first: the flush deadline is re-derived from the *current* oldest
    /// request on every pass, so a fresh request is never flushed against a
    /// drained request's expired deadline, and an emptied queue flushes no
    /// phantom batch.
    fn next_item(&self) -> Option<WorkItem> {
        let mut state = lock_recover(&self.state);
        loop {
            let best = state
                .chunks
                .iter()
                .enumerate()
                .max_by_key(|(_, item)| {
                    (
                        item.chunk.cost,
                        std::cmp::Reverse(item.run.seq),
                        std::cmp::Reverse(item.chunk.samples[0]),
                    )
                })
                .map(|(i, _)| i);
            if let Some(best) = best {
                return Some(state.chunks.swap_remove(best));
            }
            let Some(oldest) = state.requests.front() else {
                if state.shutdown {
                    return None;
                }
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            };
            // A delay too long to represent never expires.
            let deadline = oldest.enqueued.checked_add(self.max_queue_delay);
            let now = Instant::now();
            let expired = deadline.is_some_and(|deadline| now >= deadline);
            if state.requests.len() >= self.max_batch_size || state.shutdown || expired {
                self.form_batch(&mut state);
                continue;
            }
            // Whether this wake is a timeout or a notify, the next pass
            // re-checks everything against the current queue.
            state = match deadline {
                Some(deadline) => {
                    self.work
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
                None => self
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            };
        }
    }

    /// Moves up to `max_batch_size` queued requests into one batch and plans
    /// it into the chunk queue.
    fn form_batch(&self, state: &mut PoolState) {
        let n = state.requests.len().min(self.max_batch_size);
        let stats = &mut state.stats;
        stats.batches += 1;
        stats.samples += n as u64;
        stats.largest_batch = stats.largest_batch.max(n);
        if n == self.max_batch_size {
            stats.full_flushes += 1;
        } else {
            stats.timer_flushes += 1;
        }
        // Queued → executing under the one lock, so `pending` never sees a
        // request in neither state.
        state.executing += n;
        let (mut samples, mut costs, mut replies) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for request in state.requests.drain(..n) {
            samples.push(request.facts);
            costs.push(request.cost);
            replies.push(request.reply);
        }
        self.launch(state, samples, &costs, vec![0; n], Done::Replies(replies));
        // A batch usually carries one chunk per shard; this worker takes one
        // as soon as it releases the lock.
        self.work.notify_all();
    }

    /// Plans `samples` into chunks and queues them; the caller wakes the
    /// workers.
    fn launch(
        &self,
        state: &mut PoolState,
        samples: Vec<FactSet>,
        costs: &[u64],
        global_offsets: Vec<u32>,
        done: Done,
    ) {
        let chunks = plan_chunks(costs, self.config.num_shards, self.config.skew_factor);
        let run = Arc::new(RunShared {
            global_offsets,
            seq: state.next_seq,
            progress: Mutex::new(RunProgress {
                remaining: chunks.len(),
                results: vec![None; samples.len()],
                error: None,
                planned: chunks.len(),
                steals: 0,
                spills: 0,
                executed: 0,
                per_shard_samples: vec![0; self.config.num_shards],
                done: Some(done),
            }),
            samples,
        });
        state.next_seq += 1;
        state
            .chunks
            .extend(chunks.into_iter().map(|chunk| WorkItem {
                run: Arc::clone(&run),
                chunk,
            }));
    }

    /// Hands a formed batch's outcome to its requests' replies.
    fn deliver(&self, replies: Vec<Reply>, outcome: RunOutcome) {
        {
            let mut state = lock_recover(&self.state);
            state.executing -= replies.len();
            if let Ok((_, stats)) = &outcome {
                state.stats.sharded_chunks += stats.executed_chunks as u64;
            }
        }
        match outcome {
            Ok((results, _)) => {
                for (reply, result) in replies.into_iter().zip(results) {
                    reply(Ok(result));
                }
            }
            Err(e) => {
                for reply in replies {
                    reply(Err(e.clone()));
                }
            }
        }
    }
}

/// While armed, marks the chunk's run as failed if the worker unwinds
/// mid-execution — so a panicking worker turns into a run error for the
/// submitter instead of a hang.
struct ChunkPanicGuard<'a> {
    run: Arc<RunShared>,
    pool: &'a PoolShared,
    armed: bool,
}

impl Drop for ChunkPanicGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.run.retire_chunk(self.pool, |progress| {
            progress.error.get_or_insert(LobsterError::Internal {
                message: "shard worker panicked while executing a chunk".to_string(),
            });
        });
    }
}

/// Runs batches of one compiled [`Program`] across several shard devices,
/// over a pool of worker threads that live as long as the executor.
///
/// Construction derives the shard devices from the program's own device with
/// [`Device::split_shards`] (dividing its memory budget and kernel workers)
/// and spawns one worker thread per shard — each holding a persistent
/// [`Session`] on its shard, so repeated batches re-pay neither thread
/// spawn/join nor session setup. [`ShardedExecutor::run_batch`] plans
/// (cost-aware bin-packing with skew carve-outs), executes (work-stealing
/// shared queue, out-of-memory spills), and merges (caller order, global
/// gradient ids); [`ShardedExecutor::submit`] queues single samples that the
/// workers batch themselves — see the module docs above for a worked
/// example. Dropping the executor runs every queued sample, then joins the
/// workers.
pub struct ShardedExecutor<P: SessionProvenance> {
    /// The parent program (unsharded device) — used for validation; workers
    /// hold their own shard-bound clones.
    program: Program<P>,
    /// The shard devices, in worker order — retained for per-run stat deltas
    /// and [`ShardedExecutor::shard_devices`].
    shard_devices: Vec<Device>,
    pool: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl<P: SessionProvenance> std::fmt::Debug for ShardedExecutor<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("num_shards", &self.shard_devices.len())
            .field("config", &self.pool.config)
            .field("max_batch_size", &self.pool.max_batch_size)
            .field("max_queue_delay", &self.pool.max_queue_delay)
            .finish()
    }
}

impl<P: SessionProvenance> ShardedExecutor<P> {
    /// Creates an executor over `config.num_shards` devices derived from the
    /// program's device, spawning one persistent worker thread per shard.
    /// Samples passed to [`ShardedExecutor::submit`] are batched with
    /// whatever else is queued when a worker comes free, without waiting.
    pub fn new(program: Program<P>, config: ShardConfig) -> Self {
        Self::batching(program, config, usize::MAX, Duration::ZERO)
    }

    /// Like [`ShardedExecutor::new`], with the batch-forming window for
    /// [`ShardedExecutor::submit`]: a batch is flushed once it holds
    /// `max_batch_size` samples, or once its oldest sample has waited
    /// `max_queue_delay`.
    pub fn batching(
        program: Program<P>,
        config: ShardConfig,
        max_batch_size: usize,
        max_queue_delay: Duration,
    ) -> Self {
        let devices = program.device().split_shards(config.num_shards.max(1));
        Self::spawn(program, devices, config, max_batch_size, max_queue_delay)
    }

    /// Creates an executor over explicit shard devices (overriding
    /// [`Device::split_shards`]-derived budgets — e.g. heterogeneous
    /// devices). `config.num_shards` is ignored in favour of `devices.len()`.
    pub fn with_devices(program: Program<P>, devices: Vec<Device>, config: ShardConfig) -> Self {
        Self::spawn(program, devices, config, usize::MAX, Duration::ZERO)
    }

    fn spawn(
        program: Program<P>,
        devices: Vec<Device>,
        config: ShardConfig,
        max_batch_size: usize,
        max_queue_delay: Duration,
    ) -> Self {
        assert!(!devices.is_empty(), "at least one shard device");
        let pool = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            config: ShardConfig {
                num_shards: devices.len(),
                ..config
            },
            // A fresh session pre-registers exactly the program's inline
            // facts, so their count comes straight off the compiled artifact.
            inline_facts: program.artifact.compiled.facts.len() as u32,
            weights: program.cost_model().relation_weights().clone(),
            max_batch_size: max_batch_size.max(1),
            max_queue_delay,
        });
        let workers = devices
            .iter()
            .enumerate()
            .map(|(shard_idx, device)| {
                let shard_program = program.with_device(device.clone());
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("lobster-shard-{shard_idx}"))
                    .spawn(move || worker_loop(shard_idx, &shard_program, &pool))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardedExecutor {
            program,
            shard_devices: devices,
            pool,
            workers,
        }
    }

    /// Number of shard devices (and persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.shard_devices.len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ShardConfig {
        &self.pool.config
    }

    /// The shard devices, indexed by shard.
    pub fn shard_devices(&self) -> Vec<&Device> {
        self.shard_devices.iter().collect()
    }

    /// Runs `samples` across the shards and returns one [`RunResult`] per
    /// sample in the caller's order — exactly the results
    /// [`Program::run_batch`] would produce on one device.
    ///
    /// The borrowed samples are copied once into the run (workers are
    /// long-lived threads and cannot borrow from this stack frame); a caller
    /// that owns its batch avoids the copy with
    /// [`ShardedExecutor::run_batch_owned`].
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts, or on execution failure of
    /// any chunk (an out-of-memory chunk is first split up to
    /// [`ShardConfig::max_spill_depth`] times).
    pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
        self.run_batch_with_stats(samples)
            .map(|(results, _)| results)
    }

    /// Like [`ShardedExecutor::run_batch`], additionally reporting how the
    /// batch was partitioned and what each shard did.
    ///
    /// # Errors
    ///
    /// See [`ShardedExecutor::run_batch`].
    pub fn run_batch_with_stats(
        &self,
        samples: &[FactSet],
    ) -> Result<(Vec<RunResult>, ShardRunStats), LobsterError> {
        self.run_batch_owned(samples.to_vec())
    }

    /// Runs an owned batch across the shards — the zero-copy variant of
    /// [`ShardedExecutor::run_batch`] for callers that already own their
    /// samples: the fact sets are handed to the workers as-is, nothing is
    /// cloned.
    ///
    /// # Errors
    ///
    /// See [`ShardedExecutor::run_batch`].
    pub fn run_batch_owned(
        &self,
        samples: Vec<FactSet>,
    ) -> Result<(Vec<RunResult>, ShardRunStats), LobsterError> {
        // Snapshot every shard's counters up front so the reported device
        // stats are this run's *deltas*, not the executor's lifetime
        // accumulation (the executor is meant to be reused across batches).
        let before: Vec<DeviceStats> = self.shard_devices.iter().map(Device::stats).collect();
        let device_deltas = || {
            self.shard_devices
                .iter()
                .zip(&before)
                .map(|(d, b)| d.stats().delta_since(b))
                .collect::<Vec<_>>()
        };
        if samples.is_empty() {
            return Ok((
                Vec::new(),
                ShardRunStats {
                    per_shard_samples: vec![0; self.num_shards()],
                    device_stats: device_deltas(),
                    ..ShardRunStats::default()
                },
            ));
        }
        // Validate every sample up front — the same rule set as `run_batch`
        // — so no shard starts a fix-point for a batch that is going to be
        // rejected.
        for facts in &samples {
            self.program.validate_facts(facts)?;
        }

        // Global registration order: `run_batch` hands out ids inline facts
        // first, then sample 0's facts, sample 1's, … Gradient remapping
        // needs each sample's global offset into that order.
        let mut global_offsets = Vec::with_capacity(samples.len());
        let mut offset = 0u32;
        for sample in &samples {
            global_offsets.push(offset);
            offset += sample.len() as u32;
        }
        let costs: Vec<u64> = samples
            .iter()
            .map(|s| sample_cost(s, &self.pool.weights))
            .collect();

        let (tx, rx) = mpsc::channel();
        self.pool.launch(
            &mut lock_recover(&self.pool.state),
            samples,
            &costs,
            global_offsets,
            Done::Caller(tx),
        );
        // Woken only once the queue lock is released, so no worker wakes
        // straight into a held lock.
        self.pool.work.notify_all();
        // Sleep until the workers have retired every chunk (completed,
        // spilled into retired halves, or drained after a failure). A
        // panicked chunk surfaces as the run's error, not as a hang.
        let (results, mut stats) = rx.recv().map_err(|_| LobsterError::Internal {
            message: "sharded run dropped without finishing".to_string(),
        })??;
        stats.device_stats = device_deltas();
        Ok((results, stats))
    }

    /// Queues one sample for the workers to batch with other submitted
    /// samples (see the module docs) and returns at once. `reply` receives
    /// exactly what `run_batch(&[facts])` would return for it — the batch it
    /// lands in is invisible, gradient ids included.
    ///
    /// Malformed facts (unknown relation, wrong arity) are rejected here:
    /// `reply` receives the [`LobsterError::BadFact`] before this returns,
    /// and no batch ever sees the sample.
    pub fn submit(&self, facts: FactSet, reply: Reply) {
        if let Err(e) = self.program.validate_facts(&facts) {
            reply(Err(e));
            return;
        }
        let cost = sample_cost(&facts, &self.pool.weights);
        let queued = {
            let mut state = lock_recover(&self.pool.state);
            state.requests.push_back(Request {
                facts,
                cost,
                reply,
                enqueued: Instant::now(),
            });
            state.requests.len()
        };
        // Wake a worker only on the transitions it acts on: the first
        // request of a batch (a sleeper must start the flush timer) and a
        // full batch (a timed sleeper can flush early). Requests in between
        // are picked up at flush time regardless.
        if queued == 1 || queued >= self.pool.max_batch_size {
            self.pool.work.notify_one();
        }
    }

    /// Submitted samples waiting to be formed into a batch.
    pub fn queued(&self) -> usize {
        lock_recover(&self.pool.state).requests.len()
    }

    /// Samples of formed batches whose replies are not delivered yet.
    pub fn executing(&self) -> usize {
        lock_recover(&self.pool.state).executing
    }

    /// A snapshot of the batch-forming counters.
    pub fn batch_stats(&self) -> BatchStats {
        lock_recover(&self.pool.state).stats.clone()
    }
}

impl<P: SessionProvenance> Drop for ShardedExecutor<P> {
    fn drop(&mut self) {
        // Setting the flag under the queue lock serializes with
        // `next_item`'s check-then-wait — a worker that read
        // `shutdown == false` is guaranteed to be inside `wait` (lock
        // released) before the notification fires. The workers then flush
        // every queued request and exit once both queues are empty.
        lock_recover(&self.pool.state).shutdown = true;
        self.pool.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One persistent shard worker: run chunks, and form batches when there is
/// none, until shutdown. The session — registry, inline facts, batch-fork
/// scratch — is built once and reused by every chunk this worker executes.
///
/// The worker must outlive any single chunk: a panic inside a chunk (a bug —
/// well-formed batches return errors instead) is caught, the chunk's run is
/// failed by its [`ChunkPanicGuard`], and the worker rebuilds its session
/// (whose internal state the unwind may have poisoned) and keeps serving.
/// Letting the unwind kill the thread instead would silently shrink a
/// persistent executor until, with every worker dead, `run_batch` callers
/// block forever on a queue nobody drains.
fn worker_loop<P: SessionProvenance>(shard_idx: usize, program: &Program<P>, pool: &PoolShared) {
    let mut session = program.session();
    while let Some(item) = pool.next_item() {
        // `AssertUnwindSafe` is sound here: the only state crossing the
        // catch boundary is the session (rebuilt below on panic) and the
        // item's run (failed by the guard; its submitter sees the error).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_item(shard_idx, &session, item, pool);
        }));
        if outcome.is_err() {
            session = program.session();
        }
    }
}

/// Executes (or retires) one queued chunk on this worker's shard.
fn execute_item<P: SessionProvenance>(
    shard_idx: usize,
    session: &Session<P>,
    item: WorkItem,
    pool: &PoolShared,
) {
    let WorkItem { run, chunk } = item;
    // A failed run's remaining chunks are drained without executing, so the
    // run finishes as soon as every in-flight chunk has been retired.
    if run.failed() {
        run.retire_chunk(pool, |_| {});
        return;
    }
    let mut guard = ChunkPanicGuard {
        run: Arc::clone(&run),
        pool,
        armed: true,
    };
    // Borrow the chunk's samples out of the run — a chunk execution (and any
    // spill retry) copies no fact payloads and repeats no validation (every
    // sample was validated once at submission).
    let chunk_samples: Vec<&FactSet> = chunk.samples.iter().map(|&g| &run.samples[g]).collect();
    match session.run_batch_refs_prevalidated(&chunk_samples) {
        Ok(chunk_results) => {
            // The guard stays armed through retirement: if the merge below
            // panics, the decrement never ran, and the guard performs the
            // missing retirement (failing the run) through the
            // poison-tolerant lock — the submitter neither hangs on a
            // never-retired chunk nor double-counts a retired one.
            run.retire_chunk(pool, |progress| {
                let mut local_offset = 0u32;
                for (&global, mut result) in chunk.samples.iter().zip(chunk_results) {
                    let sample_len = run.samples[global].len() as u32;
                    remap_gradients(
                        &mut result,
                        pool.inline_facts,
                        local_offset,
                        sample_len,
                        run.global_offsets[global],
                    );
                    progress.results[global] = Some(result);
                    local_offset += sample_len;
                }
                progress.executed += 1;
                progress.per_shard_samples[shard_idx] += chunk.samples.len();
                if chunk
                    .planned_shard
                    .is_some_and(|planned| planned != shard_idx)
                {
                    progress.steals += 1;
                }
            });
            guard.armed = false;
        }
        Err(e)
            if is_oom(&e)
                && chunk.samples.len() > 1
                && chunk.spill_depth < pool.config.max_spill_depth =>
        {
            // Spill: halve the working set and requeue both halves (for any
            // idle shard to pick up). The halves preserve ascending sample
            // order, so merged results — and the gradient remap — are
            // unaffected.
            let mid = chunk.samples.len() / 2;
            let (left, right) = chunk.samples.split_at(mid);
            let half = |indices: &[usize]| Chunk {
                cost: indices
                    .iter()
                    .map(|&g| sample_cost(&run.samples[g], &pool.weights))
                    .sum(),
                samples: indices.to_vec(),
                planned_shard: Some(shard_idx),
                spill_depth: chunk.spill_depth + 1,
            };
            let halves = [half(left), half(right)].map(|chunk| WorkItem {
                run: Arc::clone(&run),
                chunk,
            });
            // Two halves in, the original out — net one more outstanding
            // chunk, never zero mid-spill. Queueing under the same lock
            // leaves no panic window between the accounting and the
            // submission (a guard firing in such a window would fail the
            // run while `remaining` counted halves nobody queued, hanging
            // the submitter).
            {
                let mut progress = lock_recover(&run.progress);
                progress.spills += 1;
                progress.remaining += 1;
                lock_recover(&pool.state).chunks.extend(halves);
                pool.work.notify_all();
            }
            guard.armed = false;
        }
        Err(e) => {
            // Unrecoverable (or spill-exhausted): fail the run. Chunks of
            // this run still queued are drained by whichever workers take
            // them.
            guard.armed = false;
            run.retire_chunk(pool, |progress| {
                progress.error.get_or_insert(e);
            });
        }
    }
}

/// The planning cost of one sample — the sum of its facts' relation weights
/// from the program's static cost model (relations feeding many or recursive
/// joins count for more than pure-output relations), at least 1 so empty
/// samples still occupy a slot. Facts for relations the model has never seen
/// weigh 1, so the model degrades to plain fact counting. The single cost
/// function shared by the planner and the spill path, so requeued halves
/// compete in the work-stealing queue on the same scale as planned chunks.
fn sample_cost(facts: &FactSet, weights: &BTreeMap<String, u64>) -> u64 {
    facts
        .facts()
        .map(|(relation, _, _, _)| weights.get(relation).copied().unwrap_or(1))
        .sum::<u64>()
        .max(1)
}

/// `true` for the device out-of-memory error the spill path can recover from
/// by shrinking the working set.
fn is_oom(e: &LobsterError) -> bool {
    matches!(
        e,
        LobsterError::Execution(ExecError::Device(DeviceError::OutOfMemory { .. }))
    )
}

/// Rewrites one chunk-local result's gradient ids into the registration
/// order the run reports: inline-fact ids (`0..inline`) are shared and
/// unchanged; the sample's own facts move from the chunk's offset to the
/// sample's global offset. Sample isolation guarantees no other ids can
/// occur; any that do are dropped rather than silently pointed at another
/// sample's facts.
fn remap_gradients(
    result: &mut RunResult,
    inline: u32,
    local_offset: u32,
    sample_len: u32,
    global_offset: u32,
) {
    result.map_gradient_ids(|id| {
        if id.0 < inline {
            return Some(id);
        }
        let local = id.0 - inline;
        local
            .checked_sub(local_offset)
            .filter(|rel| *rel < sample_len)
            .map(|rel| InputFactId(inline + global_offset + rel))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Lobster;
    use lobster_provenance::{DiffAddMultProb, Unit};
    use lobster_ram::Value;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    fn chain(len: u32, base: u32) -> FactSet {
        let mut facts = FactSet::new();
        for i in 0..len {
            facts.add(
                "edge",
                &[Value::U32(base + i), Value::U32(base + i + 1)],
                Some(0.9),
            );
        }
        facts
    }

    #[test]
    fn plan_balances_uniform_costs() {
        let chunks = plan_chunks(&[3, 3, 3, 3, 3, 3], 3, 2.0);
        assert_eq!(chunks.len(), 3);
        for chunk in &chunks {
            assert_eq!(chunk.cost, 6);
            assert_eq!(chunk.samples.len(), 2);
            assert!(chunk.planned_shard.is_some());
        }
        // Every sample appears exactly once.
        let mut all: Vec<usize> = chunks.iter().flat_map(|c| c.samples.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn plan_carves_out_skewed_samples() {
        // Sample 2 holds 60 of 70 facts: far beyond 2× the ideal share
        // (70/2 = 35), so it becomes its own unassigned chunk.
        let chunks = plan_chunks(&[5, 5, 60], 2, 1.5);
        let skewed: Vec<&Chunk> = chunks
            .iter()
            .filter(|c| c.planned_shard.is_none())
            .collect();
        assert_eq!(skewed.len(), 1);
        assert_eq!(skewed[0].samples, vec![2]);
        // The remaining samples are packed over the two shards.
        let packed: u64 = chunks
            .iter()
            .filter(|c| c.planned_shard.is_some())
            .map(|c| c.cost)
            .sum();
        assert_eq!(packed, 10);
    }

    #[test]
    fn plan_with_fewer_samples_than_shards_skips_empty_bins() {
        let chunks = plan_chunks(&[2, 4], 4, 2.0);
        assert_eq!(chunks.len(), 2);
        for chunk in &chunks {
            assert_eq!(chunk.samples.len(), 1);
        }
    }

    #[test]
    fn sharded_run_matches_unsharded_results() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let samples: Vec<FactSet> = (0..7).map(|i| chain(2 + i % 3, i * 10)).collect();
        let reference = program.run_batch(&samples).unwrap();
        for shards in 1..=4 {
            let executor = ShardedExecutor::new(
                program.clone(),
                ShardConfig::default().with_num_shards(shards),
            );
            let (results, stats) = executor.run_batch_with_stats(&samples).unwrap();
            assert_eq!(results.len(), reference.len());
            assert_eq!(stats.per_shard_samples.iter().sum::<usize>(), samples.len());
            for (got, want) in results.iter().zip(&reference) {
                assert_eq!(got.relations(), want.relations());
                for rel in want.relations() {
                    assert_eq!(got.relation(rel), want.relation(rel), "shards={shards}");
                }
            }
        }
    }

    #[test]
    fn owned_batches_match_borrowed_ones() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let samples: Vec<FactSet> = (0..5).map(|i| chain(2, i * 10)).collect();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let borrowed = executor.run_batch(&samples).unwrap();
        let (owned, _) = executor.run_batch_owned(samples).unwrap();
        for (a, b) in borrowed.iter().zip(&owned) {
            assert_eq!(a.relations(), b.relations());
            for rel in a.relations() {
                assert_eq!(a.relation(rel), b.relation(rel));
            }
        }
    }

    #[test]
    fn empty_batch_is_an_empty_result() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(3));
        let (results, stats) = executor.run_batch_with_stats(&[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.planned_chunks, 0);
        assert_eq!(stats.executed_chunks, 0);
    }

    #[test]
    fn bad_facts_are_rejected_before_any_shard_runs() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let mut bad = FactSet::new();
        bad.add("ghost", &[Value::U32(0)], None);
        let err = executor.run_batch(&[chain(2, 0), bad]).unwrap_err();
        assert!(matches!(err, LobsterError::BadFact { .. }));
        // No shard device saw any work.
        for device in executor.shard_devices() {
            assert_eq!(device.stats().kernel_launches, 0);
        }
    }

    #[test]
    fn failures_with_sleeping_siblings_never_hang_the_run() {
        use lobster_gpu::DeviceConfig;
        // Three single-sample chunks over two shards with a budget no split
        // can satisfy: one worker fails while the other may be anywhere in
        // its take-item/wait cycle. Repeat on the SAME executor to give
        // every interleaving (and the failed-run drain path) many chances —
        // each run must error out, never deadlock, and never poison the
        // persistent pool for the next run.
        let program = Lobster::builder(TC)
            .device(lobster_gpu::Device::new(DeviceConfig {
                parallelism: 1,
                memory_limit: Some(32),
                ..DeviceConfig::default()
            }))
            .compile_typed::<Unit>()
            .unwrap();
        let samples: Vec<FactSet> = (0..3).map(|i| chain(3, i * 100)).collect();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        for _ in 0..20 {
            let err = executor.run_batch(&samples).unwrap_err();
            assert!(matches!(err, LobsterError::Execution(_)));
        }
    }

    #[test]
    fn reused_executors_report_per_run_device_stats_not_lifetime_totals() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let samples: Vec<FactSet> = (0..4).map(|i| chain(3, i * 10)).collect();
        let (_, first) = executor.run_batch_with_stats(&samples).unwrap();
        let (_, second) = executor.run_batch_with_stats(&samples).unwrap();
        let (a, b) = (
            first.merged_device_stats().kernel_launches,
            second.merged_device_stats().kernel_launches,
        );
        assert!(a > 0);
        // Identical work → identical per-run counters; a cumulative snapshot
        // would have doubled on the second run.
        assert_eq!(a, b);
    }

    #[test]
    fn a_hundred_batches_reuse_the_same_workers_without_stat_creep() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let reference = program.run_batch(&[chain(2, 0), chain(3, 10)]).unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default().with_num_shards(2));
        let mut first_run_launches = None;
        for round in 0..120 {
            let (results, stats) = executor
                .run_batch_with_stats(&[chain(2, 0), chain(3, 10)])
                .unwrap();
            // Same work every round → the per-run device deltas must not
            // grow with executor age...
            let launches = stats.merged_device_stats().kernel_launches;
            let expected = *first_run_launches.get_or_insert(launches);
            assert_eq!(launches, expected, "round {round}");
            // ...and neither may the per-run chunk counters.
            assert_eq!(stats.executed_chunks, stats.planned_chunks, "round {round}");
            // Results stay bit-identical to the unsharded reference.
            for (got, want) in results.iter().zip(&reference) {
                for rel in want.relations() {
                    assert_eq!(got.relation(rel), want.relation(rel), "round {round}");
                }
            }
        }
    }

    #[test]
    fn concurrent_runs_on_one_executor_stay_isolated() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let batches: Vec<Vec<FactSet>> = (0..4u32)
            .map(|t| {
                (0..5)
                    .map(|i| chain(1 + (t + i) % 3, t * 1000 + i * 10))
                    .collect()
            })
            .collect();
        let references: Vec<_> = batches
            .iter()
            .map(|batch| program.run_batch(batch).unwrap())
            .collect();
        let executor = Arc::new(ShardedExecutor::new(
            program,
            ShardConfig::default().with_num_shards(2),
        ));
        let handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(t, batch)| {
                let executor = Arc::clone(&executor);
                let batch = batch.clone();
                std::thread::spawn(move || {
                    let mut last = None;
                    for _ in 0..6 {
                        last = Some(executor.run_batch(&batch).unwrap());
                    }
                    (t, last.expect("six runs"))
                })
            })
            .collect();
        for handle in handles {
            // Each concurrent caller receives exactly its own batch's
            // results, bit-identical to the unsharded reference — chunks of
            // the four interleaved runs never cross-contaminate.
            let (t, results) = handle.join().expect("runner thread");
            assert_eq!(results.len(), references[t].len());
            for (i, (got, want)) in results.iter().zip(&references[t]).enumerate() {
                for rel in want.relations() {
                    assert_eq!(
                        got.relation(rel),
                        want.relation(rel),
                        "thread {t} sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dropping_an_executor_joins_its_workers() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        // Never-used executors tear down cleanly...
        drop(ShardedExecutor::new(
            program.clone(),
            ShardConfig::default().with_num_shards(3),
        ));
        // ...as do heavily-used ones, including right after a failed run.
        let executor =
            ShardedExecutor::new(program.clone(), ShardConfig::default().with_num_shards(2));
        for i in 0..8 {
            executor.run_batch(&[chain(2, i * 10)]).unwrap();
        }
        drop(executor);
        use lobster_gpu::DeviceConfig;
        let tiny = Lobster::builder(TC)
            .device(lobster_gpu::Device::new(DeviceConfig {
                parallelism: 1,
                memory_limit: Some(32),
                ..DeviceConfig::default()
            }))
            .compile_typed::<Unit>()
            .unwrap();
        let executor = ShardedExecutor::new(tiny, ShardConfig::default().with_num_shards(2));
        assert!(executor.run_batch(&[chain(3, 0)]).is_err());
        drop(executor); // must not hang on the drained failed run
    }

    #[test]
    fn executor_reports_shard_devices_and_config() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let executor = ShardedExecutor::new(
            program,
            ShardConfig::default()
                .with_num_shards(3)
                .with_skew_factor(1.5)
                .with_max_spill_depth(2),
        );
        assert_eq!(executor.num_shards(), 3);
        assert_eq!(executor.shard_devices().len(), 3);
        assert!((executor.config().skew_factor - 1.5).abs() < 1e-12);
        assert_eq!(executor.config().max_spill_depth, 2);
    }

    /// Submits every sample and collects the replies in submission order.
    fn submit_all(
        executor: &ShardedExecutor<DiffAddMultProb>,
        samples: &[FactSet],
    ) -> Vec<mpsc::Receiver<Result<RunResult, LobsterError>>> {
        samples
            .iter()
            .map(|sample| {
                let (tx, rx) = mpsc::channel();
                executor.submit(
                    sample.clone(),
                    Box::new(move |outcome| {
                        let _ = tx.send(outcome);
                    }),
                );
                rx
            })
            .collect()
    }

    #[test]
    fn submitted_samples_are_batched_and_reply_as_if_run_alone() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let samples: Vec<FactSet> = (0..9).map(|i| chain(1 + i % 3, i * 10)).collect();
        for shards in [1, 2] {
            let executor = ShardedExecutor::batching(
                program.clone(),
                ShardConfig::default().with_num_shards(shards),
                4,
                Duration::from_millis(1),
            );
            let replies = submit_all(&executor, &samples);
            for (i, (rx, sample)) in replies.into_iter().zip(&samples).enumerate() {
                let got = rx.recv().unwrap().unwrap();
                // Whatever batch the sample landed in, its reply — gradient
                // ids included — is the one-sample batch's result.
                let want = program.run_batch(std::slice::from_ref(sample)).unwrap();
                for rel in want[0].relations() {
                    assert_eq!(
                        got.relation(rel),
                        want[0].relation(rel),
                        "shards={shards} sample {i}"
                    );
                }
            }
            let stats = executor.batch_stats();
            assert_eq!(stats.samples, 9, "shards={shards}");
            assert!(stats.largest_batch <= 4, "shards={shards}: {stats:?}");
            assert_eq!(stats.full_flushes + stats.timer_flushes, stats.batches);
            assert!(stats.sharded_chunks >= stats.batches);
            assert_eq!(executor.queued() + executor.executing(), 0);
        }
    }

    #[test]
    fn bad_submitted_facts_are_rejected_before_queueing() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let executor = ShardedExecutor::new(program, ShardConfig::default());
        let mut bad = FactSet::new();
        bad.add("ghost", &[Value::U32(0)], None);
        let rx = submit_all(&executor, &[bad]).remove(0);
        // Replied before `submit` returned.
        let err = rx.try_recv().unwrap().unwrap_err();
        assert!(matches!(err, LobsterError::BadFact { .. }));
        assert_eq!(executor.queued(), 0);
        assert_eq!(executor.batch_stats(), BatchStats::default());
    }

    #[test]
    fn dropping_an_executor_runs_every_submitted_sample() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        let samples: Vec<FactSet> = (0..5).map(|i| chain(2, i * 10)).collect();
        for shards in [1, 2] {
            // A window no test waits out: only the shutdown drain flushes.
            let executor = ShardedExecutor::batching(
                program.clone(),
                ShardConfig::default().with_num_shards(shards),
                64,
                Duration::from_secs(30),
            );
            let replies = submit_all(&executor, &samples);
            assert_eq!(executor.queued(), 5);
            drop(executor);
            for rx in replies {
                assert!(rx.recv().unwrap().is_ok(), "shards={shards}");
            }
        }
    }

    #[test]
    fn a_poisoned_queue_lock_does_not_take_down_the_executor() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffAddMultProb>()
            .unwrap();
        for shards in [1, 2] {
            let executor = Arc::new(ShardedExecutor::batching(
                program.clone(),
                ShardConfig::default().with_num_shards(shards),
                1,
                Duration::from_millis(1),
            ));
            // Poison the queue mutex: a thread panics while holding it.
            // Every lock site — submit, the workers' batch forming, replies,
            // Drop's drain — must recover the guard instead of cascading the
            // panic.
            let poisoner = {
                let executor = Arc::clone(&executor);
                std::thread::spawn(move || {
                    let _guard = executor.pool.state.lock().unwrap();
                    panic!("deliberate poison");
                })
            };
            assert!(poisoner.join().is_err(), "the poisoner must panic");
            assert!(executor.pool.state.lock().is_err(), "lock not poisoned");
            // The executor still serves, counts, and drains.
            let rx = submit_all(&executor, &[chain(2, 0)]).remove(0);
            assert!(rx.recv().unwrap().is_ok(), "shards={shards}");
            assert!(executor.run_batch(&[chain(2, 0)]).is_ok());
            assert_eq!(executor.queued(), 0);
            let late = submit_all(&executor, &[chain(2, 10)]).remove(0);
            drop(Arc::into_inner(executor).expect("sole owner"));
            assert!(late.recv().unwrap().is_ok(), "drop must still drain");
        }
    }
}
