//! Serving layer for Lobster: an Arc-shared compiled-program cache and a
//! batching request scheduler on a persistent execution runtime.
//!
//! The paper's headline win is amortizing one fix-point over many batched
//! samples (Section 4.3); the PR 1 API split made the compiled [`Program`]
//! an immutable, `Arc`-shareable artifact. This crate turns those two
//! properties into a server runtime in which everything structural is built
//! once and recycled — compiled programs, shard worker threads and their
//! sessions — so a warm request pays only validation, queueing, and its
//! share of a fix-point:
//!
//! * [`ProgramCache`] — a keyed cache `(source hash, provenance kind,
//!   options fingerprint) → Arc<DynProgram>` so each distinct program
//!   compiles **once per process** and every request/thread shares the
//!   artifact. Eviction is LRU over the compiled artifact's estimated
//!   resident size ([`DynProgram::compiled_size_bytes`]), bounded by a
//!   configurable byte budget. Concurrent requests for the same key are
//!   coalesced: exactly one thread compiles, the rest block on the result.
//! * [`BatchScheduler`] — accumulates per-request [`FactSet`]s into
//!   mini-batches, paying one fix-point per batch instead of one per
//!   request. Latency/throughput trade-off is controlled by
//!   [`SchedulerConfig::max_batch_size`] and
//!   [`SchedulerConfig::max_queue_delay`]; results are routed back to each
//!   caller over a per-request channel. Plain `std` threads and `mpsc` —
//!   no async runtime dependency. The scheduler itself owns no thread: it
//!   holds **one** persistent [`DynShardedExecutor`] whose shard workers —
//!   spawned at construction, joined on drop — form every batch and run
//!   it, fanned out across [`SchedulerConfig::num_shards`] shard devices
//!   with identical results (one shard is the program's own device). See
//!   the "Multi-device sharding" section of the `lobster` crate docs and
//!   `docs/ARCHITECTURE.md` for the full request lifecycle, knob
//!   reference, and shard-vs-batch guidance.
//! * [`Server`] — the network front end: a std-TCP, length-prefixed JSON
//!   protocol over the scheduler, with per-key token-bucket quotas
//!   ([`KeyStore`]), queue-depth admission control that sheds overload
//!   with a structured retry-after ([`AdmissionController`]), a `metrics`
//!   op serializing every stats surface above, and graceful drain —
//!   in-flight requests resolve, new connections are refused. Plain
//!   `std::net` and threads, matching the scheduler's no-async stance.
//!   [`Client`] is the reference protocol implementation.
//!
//! # Example
//!
//! The whole serving path — cache and persistent sharded scheduler — in one
//! place (`examples/serve.rs` is the narrated version):
//!
//! ```
//! use lobster::{FactSet, ProvenanceKind, Value};
//! use lobster_serve::{BatchScheduler, ProgramCache, SchedulerConfig};
//! use std::time::Duration;
//!
//! const SRC: &str = "type edge(x: u32, y: u32)
//!     rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
//!     query path";
//!
//! // Compile once per process, share everywhere.
//! let cache = ProgramCache::new();
//! let program = cache.get_or_compile(SRC, ProvenanceKind::AddMultProb).unwrap();
//! assert_eq!(cache.stats().compiles, 1);
//! // A second request for the same program is a cache hit.
//! let again = cache.get_or_compile(SRC, ProvenanceKind::AddMultProb).unwrap();
//! assert_eq!(cache.stats().hits, 1);
//!
//! // Serve requests through a batching scheduler: one fix-point per batch,
//! // fanned out across 2 shard devices by the scheduler's persistent
//! // executor (its two shard workers are spawned HERE, once — not per
//! // batch).
//! let scheduler = BatchScheduler::new(
//!     program,
//!     SchedulerConfig::default()
//!         .with_max_batch_size(8)
//!         .with_max_queue_delay(Duration::from_millis(1))
//!         .with_num_shards(2),
//! );
//! for round in 0..4u32 {
//!     let mut request = FactSet::new();
//!     request.add("edge", &[Value::U32(round), Value::U32(round + 1)], Some(0.9));
//!     let result = scheduler.submit(request).wait().unwrap();
//!     let p = result.probability("path", &[Value::U32(round), Value::U32(round + 1)]);
//!     assert!((p - 0.9).abs() < 1e-9);
//! }
//! assert_eq!(scheduler.stats().samples, 4);
//! # drop(again);
//! ```
//!
//! [`Program`]: lobster::Program
//! [`DynProgram::compiled_size_bytes`]: lobster::DynProgram::compiled_size_bytes
//! [`DynShardedExecutor`]: lobster::DynShardedExecutor
//! [`FactSet`]: lobster::FactSet

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod auth;
mod cache;
mod error;
pub mod json;
mod net;
mod scheduler;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats};
pub use auth::{AuthError, AuthStats, KeyStore, Quota};
pub use cache::{CacheKey, CacheStats, ProgramCache};
pub use error::ServeError;
pub use net::{Client, ClientError, Reply, Server, ServerConfig, ServerStats};
pub use scheduler::{BatchScheduler, SchedulerConfig, SchedulerStats, Ticket};
