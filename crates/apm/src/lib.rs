//! APM — the Abstract Parallel Machine.
//!
//! APM is Lobster's low-level intermediate language (paper Section 3.2): an
//! assembly-style, SSA, control-flow-free program over vector registers,
//! designed so that *any* APM program maps efficiently onto a GPU. This crate
//! contains:
//!
//! * the APM instruction set ([`Instr`], mirroring Table 1 of the paper),
//! * the RAM → APM compiler: [`compile_stratum`] mirrors the translation
//!   rules of Appendix A, including the semi-naive expansion of joins over
//!   the stable / recent / delta partitions of the database, and picks the
//!   merge or hash path per join site from inferred sort order;
//!   [`compile_stratum_delta`] widens the expansion for incremental
//!   re-evaluation. The compiler takes no options;
//! * the batch transform ([`batch_transform`], Section 4.3) that prepends
//!   a sample-id column so many samples share one fix point;
//! * the tagged, columnar [`Database`] that holds every relation on the
//!   (simulated) device, with [`refresh_database`] for incremental
//!   maintenance;
//! * the [`Executor`] that runs one compiled stratum at a time to its fix
//!   point (Algorithm 1, [`Executor::run_stratum`]; callers loop over the
//!   strata) with the optimizations of Section 4: arena allocation & buffer
//!   reuse and hash-index reuse via static registers, configured by
//!   [`RuntimeOptions`].
//!
//! The executor is generic over the provenance semiring, so the same compiled
//! program supports discrete, probabilistic, and differentiable reasoning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod compiler;
mod config;
mod database;
mod executor;
mod incremental;
mod isa;
#[cfg(test)]
mod merge_join_differential;

pub use batch::batch_transform;
pub use compiler::{compile_stratum, compile_stratum_delta, CompiledStratum};
pub use config::{fnv1a, fnv1a_extend, RuntimeOptions};
pub use database::{Database, EncodingSpec, SortedTable};
pub use executor::{ExecError, ExecutionStats, Executor};
pub use incremental::{refresh_database, EdbContent};
pub use isa::{ApmProgram, DbPart, Instr, RegId};
