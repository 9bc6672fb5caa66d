//! Relation liveness and dead-rule detection.
//!
//! A relation is *live* when it can contribute tuples to one of the
//! program's declared outputs: every output relation is live, and the
//! bodies of rules deriving a live relation make their referenced relations
//! live in turn. Rules whose target is not live can never influence a
//! queried result — they are *dead*, which the `dead-rule` lint reports.
//!
//! Programs that declare no outputs are treated as "everything is
//! observable" (the session API allows querying any relation), so nothing
//! is dead in that case.

use super::RuleRef;
use crate::RamProgram;
use std::collections::BTreeSet;

/// The set of relations reachable (backwards through rule bodies) from the
/// program's outputs. With no declared outputs, every schema relation is
/// considered live.
pub fn live_relations(ram: &RamProgram) -> BTreeSet<String> {
    if ram.outputs.is_empty() {
        return ram.schemas.keys().cloned().collect();
    }
    let mut live: BTreeSet<String> = ram.outputs.iter().cloned().collect();
    loop {
        let mut grew = false;
        for stratum in &ram.strata {
            for rule in &stratum.rules {
                if !live.contains(&rule.target) {
                    continue;
                }
                let mut referenced = Vec::new();
                rule.expr.referenced_relations(&mut referenced);
                for name in referenced {
                    grew |= live.insert(name);
                }
            }
        }
        if !grew {
            return live;
        }
    }
}

/// The rules whose target relation is not live — evaluating them can never
/// change any output.
pub fn dead_rules(ram: &RamProgram) -> Vec<RuleRef> {
    let live = live_relations(ram);
    let mut dead = Vec::new();
    for (stratum_idx, stratum) in ram.strata.iter().enumerate() {
        for (rule_idx, rule) in stratum.rules.iter().enumerate() {
            if !live.contains(&rule.target) {
                dead.push(RuleRef {
                    stratum: stratum_idx,
                    rule: rule_idx,
                    target: rule.target.clone(),
                });
            }
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamExpr, RamRule, RelationSchema, Stratum, ValueType};
    use std::collections::BTreeMap;

    /// edge → path (output), plus an unrelated `scratch` relation derived
    /// from `noise` that nothing queries.
    fn program_with_dead_branch() -> RamProgram {
        let mut schemas = BTreeMap::new();
        for name in ["edge", "path", "noise", "scratch"] {
            schemas.insert(
                name.to_string(),
                RelationSchema::new(name, vec![ValueType::U32, ValueType::U32]),
            );
        }
        RamProgram {
            schemas,
            strata: vec![
                Stratum {
                    relations: vec!["path".into()],
                    rules: vec![RamRule {
                        target: "path".into(),
                        expr: RamExpr::relation("edge"),
                    }],
                    recursive: false,
                },
                Stratum {
                    relations: vec!["scratch".into()],
                    rules: vec![RamRule {
                        target: "scratch".into(),
                        expr: RamExpr::relation("noise"),
                    }],
                    recursive: false,
                },
            ],
            outputs: vec!["path".into()],
        }
    }

    #[test]
    fn liveness_reaches_backwards_from_outputs() {
        let ram = program_with_dead_branch();
        let live = live_relations(&ram);
        assert!(live.contains("path"));
        assert!(live.contains("edge"));
        assert!(!live.contains("scratch"));
        assert!(!live.contains("noise"));
    }

    #[test]
    fn no_outputs_means_everything_is_live() {
        let mut ram = program_with_dead_branch();
        ram.outputs.clear();
        assert_eq!(live_relations(&ram).len(), ram.schemas.len());
        assert!(dead_rules(&ram).is_empty());
    }

    #[test]
    fn dead_rules_carry_provenance() {
        let ram = program_with_dead_branch();
        let dead = dead_rules(&ram);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].stratum, 1);
        assert_eq!(dead[0].rule, 0);
        assert_eq!(dead[0].target, "scratch");
    }
}
