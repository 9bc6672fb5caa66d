//! Baseline systems used by the paper's evaluation.
//!
//! Lobster is compared against four systems in the paper; this crate
//! implements an architectural stand-in for each so the comparison figures
//! can be regenerated on the same machine:
//!
//! * [`ScallopEngine`] — the primary baseline: a CPU, tuple-at-a-time,
//!   BTree-indexed, semi-naive Datalog engine with the same provenance
//!   semiring framework (per-tuple tag bookkeeping), mirroring Scallop's
//!   execution model.
//! * [`SouffleEngine`] — a discrete-only, multi-threaded CPU engine (no tag
//!   overhead, parallel joins), standing in for Soufflé.
//! * [`ProblogEngine`] — exact probabilistic inference: full DNF proof
//!   enumeration followed by exact weighted model counting, reproducing
//!   ProbLog's exponential behaviour (and its timeouts).
//! * [`FvlogEngine`] — a GPU (simulated) columnar engine standing in for
//!   FVLog. It shares Lobster's stratum compiler, join selection included,
//!   but lacks static registers, buffer reuse and provenance.
//!
//! All engines consume the same RAM programs produced by the
//! `lobster-datalog` front-end, so every system under test runs the *same*
//! logic program — exactly the methodology of the paper's Section 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dnf;
mod fvlog;
mod problog;
mod scallop;
mod souffle;
mod tuple;

pub use dnf::{DnfProofs, DnfTag};
pub use fvlog::{FvlogDatabase, FvlogEngine};
pub use problog::{ProblogDatabase, ProblogEngine};
pub use scallop::{ScallopEngine, TaggedFact};
pub use souffle::SouffleEngine;
pub use tuple::{BaselineError, TupleDatabase, TupleEngine};
