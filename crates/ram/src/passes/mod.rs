//! Multi-pass static analysis over RAM programs.
//!
//! The passes in this module compute compile-time facts about a
//! [`RamProgram`](crate::RamProgram) that downstream layers consume instead
//! of guessing at run time:
//!
//! * [`validate_program`] — the IR validator: schema, arity, column-bound,
//!   and type consistency for every expression of every rule. The APM
//!   compiler runs it under `debug_assertions` after each rewrite; the core
//!   builder runs it unconditionally at compile time.
//! * [`expr_sorted_prefix`] / [`join_strategy`] — sort-order inference:
//!   propagates the sorted-table column-prefix invariant through
//!   project/select/join so each join site statically knows whether both
//!   inputs arrive sorted on the join prefix, yielding a per-join
//!   [`JoinStrategy`] hint the executor uses to pick a merge-path join over
//!   a hash build+probe.
//! * [`live_relations`] / [`dead_rules`] — relation liveness:
//!   reachability from the program's output relations, identifying rules
//!   that can never contribute to any queried result (reported by the
//!   `dead-rule` lint).
//! * [`CostModel`] — a static cost model: per-relation and per-stratum
//!   weights (join participation, recursion, arity) that refine the
//!   fact-count costs used by the sharded batch planner.
//! * [`lint_program`] — the diagnostics report: validator errors plus
//!   warnings (cartesian products, non-linear recursion, unused inputs,
//!   constant-false filters, dead rules), each carrying rule provenance.

mod cost;
mod lint;
mod liveness;
mod sort_order;
mod validate;

pub use cost::{CostModel, StratumCost};
pub use lint::{lint_program, Diagnostic, Severity};
pub use liveness::{dead_rules, live_relations};
pub use sort_order::{
    expr_sorted_prefix, join_strategy, merge_eligible_joins, projection_sorted_prefix, JoinStrategy,
};
pub use validate::{validate_program, IrError, IrErrorKind};

use std::fmt;

/// Provenance of a diagnostic or validation error: which rule of which
/// stratum it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// Stratum index in evaluation order.
    pub stratum: usize,
    /// Rule index within the stratum.
    pub rule: usize,
    /// The rule's target relation.
    pub target: String,
}

impl fmt::Display for RuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stratum {}, rule {} (`{}`)",
            self.stratum, self.rule, self.target
        )
    }
}
