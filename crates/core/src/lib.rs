//! Lobster: a GPU-accelerated framework for neurosymbolic programming.
//!
//! This crate is the user-facing API of the Lobster reproduction. It ties
//! together the Datalog front-end (`lobster-datalog`), the RAM and APM
//! intermediate representations (`lobster-ram`, `lobster-apm`), the simulated
//! GPU device (`lobster-gpu`), and the provenance semiring library
//! (`lobster-provenance`) around a compile-once / session-per-request split:
//!
//! * [`Program`] — the immutable compiled artifact: parsed, stratified,
//!   RAM-compiled, and batch-transformed exactly once. Programs are
//!   `Arc`-shared internally, so cloning one (or sending clones to worker
//!   threads) costs a pointer copy. Build one with [`Lobster::builder`].
//! * [`Session`] — cheap per-request state: the request's input facts and
//!   the registry that issues their ids. Open one per sample/request with
//!   [`Program::session`]; nothing a session does is visible to any other
//!   session of the same program.
//! * [`DynProgram`] — a provenance-erased program whose reasoning mode was
//!   picked at *run time* from a [`ProvenanceKind`] (e.g. parsed from a
//!   config file), for servers that must not hard-code the semiring.
//!
//! # Typed usage
//!
//! Pick the reasoning mode at compile time by choosing a provenance type:
//!
//! ```
//! use lobster::{Lobster, Value};
//! use lobster_provenance::DiffTop1Proof;
//!
//! // Compile once...
//! let program = Lobster::builder(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//! )
//! .compile_typed::<DiffTop1Proof>()
//! .unwrap();
//!
//! // ...then open a cheap session per sample.
//! let mut session = program.session();
//! session.add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9)).unwrap();
//! session.add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.8)).unwrap();
//! let result = session.run().unwrap();
//! let p = result.probability("path", &[Value::U32(0), Value::U32(2)]);
//! assert!((p - 0.72).abs() < 1e-9);
//! ```
//!
//! # Runtime provenance selection
//!
//! A server reading the reasoning mode from configuration parses a
//! [`ProvenanceKind`] and gets a [`DynProgram`]; the rest of the API is
//! identical:
//!
//! ```
//! use lobster::{Lobster, ProvenanceKind, Value};
//!
//! let kind: ProvenanceKind = "addmultprob".parse().unwrap();
//! let program = Lobster::builder(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//! )
//! .provenance(kind)
//! .compile()
//! .unwrap();
//! let mut session = program.session();
//! session.add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5)).unwrap();
//! let p = session.run().unwrap().probability("path", &[Value::U32(0), Value::U32(1)]);
//! assert!((p - 0.5).abs() < 1e-9);
//! ```
//!
//! # Batched execution
//!
//! [`Program::run_batch`] runs a whole mini-batch of independent samples in
//! one fix-point (paper Section 4.3). All fact registration is scoped to the
//! call — repeated batches never accumulate state:
//!
//! ```
//! use lobster::{FactSet, Lobster, Value};
//! use lobster_provenance::Unit;
//!
//! let program = Lobster::builder(
//!     "type edge(x: u32, y: u32)
//!      rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!      query path",
//! )
//! .compile_typed::<Unit>()
//! .unwrap();
//! let mut sample = FactSet::new();
//! sample.add("edge", &[Value::U32(0), Value::U32(1)], None);
//! let results = program.run_batch(&[sample.clone(), sample]).unwrap();
//! assert_eq!(results.len(), 2);
//! ```
//!
//! For differentiable provenances, [`RunResult::gradient`] exposes the
//! gradient of every output probability with respect to every input fact —
//! which is what lets an upstream network train end-to-end.
//!
//! # Serving
//!
//! A server builds on two properties of this API: a [`Program`] is an
//! immutable, `Arc`-shared artifact (compile once, share across every
//! request thread), and [`Program::run_batch`] pays one fix-point for a
//! whole mini-batch of independent requests. The `lobster-serve` crate
//! packages both behind a **persistent runtime** — everything structural is
//! built once and recycled, so a warm request pays only validation,
//! queueing, and its share of a fix-point:
//!
//! * `ProgramCache` — a keyed cache `(source hash, provenance kind, options
//!   fingerprint) → Arc<DynProgram>` with LRU eviction by compiled size, so
//!   each distinct program compiles once per process no matter how many
//!   threads race for it. The key ingredients live here:
//!   [`Lobster::source_hash`] / [`Program::source_hash`] identify what was
//!   compiled, [`RuntimeOptions::fingerprint`] identifies how, and
//!   [`Program::compiled_size_bytes`] weighs the artifact for eviction.
//! * `BatchScheduler` — accumulates per-request [`FactSet`]s into
//!   mini-batches (one fix-point per batch) with `max_batch_size` /
//!   `max_queue_delay` knobs, routing each result back to its caller. It
//!   holds **one** long-lived [`DynShardedExecutor`] whose shard workers
//!   form and run every batch it ever serves — `num_shards = 1` is simply
//!   one shard on the program's own device.
//!
//! See `docs/ARCHITECTURE.md` for the full request lifecycle (diagram, knob
//! reference, shard-vs-batch guidance) and the `serve` example in
//! `lobster-serve` for the end-to-end flow.
//!
//! ## Multi-device sharding
//!
//! Because the sample-id column isolates every sample of a batch, a batch
//! can also be partitioned *across devices*: a [`ShardedExecutor`] spawns
//! one persistent worker thread per shard device (derived from the
//! program's device) at construction, feeds every batch to those workers
//! over a shared queue, runs one fix-point per shard slice, and merges the
//! per-shard results back into the caller's order — with tuples,
//! probabilities, and gradients identical to the single-device
//! [`Program::run_batch`]. Samples handed over one at a time with
//! [`ShardedExecutor::submit`] are batched by the workers themselves. The
//! batching scheduler exposes the shard count as
//! `SchedulerConfig::num_shards`, so batches fan out without any change to
//! clients.
//!
//! *When to shard.* Sharding pays off when a single batch's fix-point is
//! the bottleneck and spare devices (or cores — shard devices execute on
//! threads) are idle: large batches, deep recursions, or a latency target
//! the full-batch fix-point misses. For small batches the extra fix-points
//! per batch cost more than the overlap wins — measure with the
//! `serve_throughput` bench, which records sharded rows next to their
//! single-device counterparts (and the persistent-executor vs.
//! spawn-per-batch pair that isolates the worker-pool win itself).
//!
//! *Budget knobs.* Shard devices are derived with
//! [`Device::split_shards`](lobster_gpu::Device::split_shards): the parent
//! memory budget and kernel workers are divided `N` ways, so an `N`-shard
//! executor stays within its program's memory envelope, and within its
//! worker envelope as long as `N` does not exceed the device's parallelism
//! (each shard keeps at least one worker, so more shards than workers
//! oversubscribes). Because the executor is persistent and shared, that
//! envelope spans every concurrent `run_batch` caller. A chunk that
//! overflows its shard's budget is split in half and retried
//! ([`ShardConfig::max_spill_depth`] bounds how often), so batches that fit
//! the aggregate budget still complete.
//!
//! *Skew behavior.* Samples are bin-packed over shards by fact count
//! (largest first). A pathologically large sample — beyond
//! [`ShardConfig::skew_factor`] × the ideal per-shard share — becomes its
//! own work unit, and idle shards steal pending work units, so one monster
//! sample delays only itself, not the whole batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod error;
mod program;
mod scheduler;
mod session;
mod sharded;

pub use dynamic::{DynProgram, DynSession, DynShardedExecutor};
pub use error::LobsterError;
pub use program::{Lobster, LobsterBuilder, Program};
pub use scheduler::{plan_offload, OffloadPlan};
pub use session::{FactSet, RunResult, Session};
pub use sharded::{BatchStats, Reply, ShardConfig, ShardRunStats, ShardedExecutor};

// Re-export the pieces users routinely need alongside the program/session.
pub use lobster_apm::{ExecutionStats, RuntimeOptions};
pub use lobster_gpu::{Arena, ArenaStats, Device, DeviceConfig, DeviceStats, KernelTime};
pub use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactId,
    InputFactRegistry, MaxMinProb, Output, Provenance, ProvenanceKind, SessionProvenance,
    Top1Proof, Unit,
};
pub use lobster_ram::{Diagnostic, Severity, SymbolTable, Value, ValueType};
