//! The Relational Algebra Machine (RAM): Lobster's mid-level intermediate
//! representation.
//!
//! The Datalog front-end (`lobster-datalog`) compiles a user-level program
//! into a RAM program (Figure 4 of the paper): an ordered list of *strata*,
//! each containing rules of the form `ρ ← ε` where `ε` is a relational
//! algebra expression over project (`π`), select (`σ`), join (`⊲⊳`), union,
//! product, and intersect. The APM back-end (`lobster-apm`) then lowers each
//! stratum to APM instructions for execution on the (simulated) GPU.
//!
//! This crate also defines the data model shared by every layer:
//!
//! * [`Value`] / [`ValueType`] — 64-bit encoded cell values,
//! * [`SymbolTable`] — string interning for symbolic constants,
//! * [`ExprProgram`] — the bytecode stack machine of Section 5.2 used to
//!   evaluate projection and selection expressions row-by-row on the device.
//!
//! # Static analysis
//!
//! The [`passes`] module analyzes a finished [`RamProgram`] and produces
//! facts the compiler, executor, and schedulers consume:
//!
//! * [`passes::validate_program`] — full structural validation (schemas,
//!   arities, column bounds, operand types), reporting *every* error with
//!   rule provenance instead of stopping at the first like
//!   [`RamProgram::validate`];
//! * [`passes::expr_sorted_prefix`] / [`passes::join_strategy`] — sort-order
//!   inference yielding per-join [`passes::JoinStrategy`] hints (merge-path
//!   vs hash build+probe);
//! * [`passes::live_relations`] / [`passes::dead_rules`] — output
//!   reachability and dead-rule detection;
//! * [`passes::CostModel`] — static per-relation weights refining the
//!   fact-count costs used by batch planners;
//! * [`passes::lint_program`] — the combined diagnostics report
//!   ([`passes::Diagnostic`]) surfaced by `Program::diagnostics()` and the
//!   `lobster-lint` tool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod encoding;
mod expr;
pub mod passes;
mod program;
mod symbols;
mod value;

pub use analysis::{count_recursive_joins, is_linear_recursive, StratumAnalysis};
pub use encoding::{Group, Lane, RelationLayout, SymbolDict};
pub use expr::{BinaryOp, ByteOp, ExprProgram, RowProjection, ScalarExpr, UnaryOp};
pub use passes::{Diagnostic, IrError, JoinStrategy, RuleRef, Severity};
pub use program::{RamExpr, RamProgram, RamRule, RelationSchema, Stratum, ValidationError};
pub use symbols::SymbolTable;
pub use value::{Tuple, Value, ValueType};
