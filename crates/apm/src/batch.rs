//! Batched evaluation (paper Section 4.3).
//!
//! Deep-learning pipelines process *batches* of samples. Lobster folds a
//! whole batch into a single database by prepending a sample-id column to
//! every relation: facts from different samples can never join because every
//! join key is widened by one to include the sample id, and parallelism over
//! the batch falls out of the existing row-level parallelism.
//!
//! [`batch_transform`] performs the corresponding program transformation on a
//! RAM program: every relation gains a leading `u32` sample column, every
//! projection passes the sample column through, every selection shifts its
//! column references by one, and every join / intersection widens its key by
//! one. Products become sample-keyed joins so that cross products also stay
//! within a sample.

use lobster_ram::{
    RamExpr, RamProgram, RamRule, RelationSchema, RowProjection, ScalarExpr, Stratum, ValueType,
};

/// Shifts every column reference in a scalar expression by `delta`.
fn shift_expr(expr: &ScalarExpr, delta: usize) -> ScalarExpr {
    match expr {
        ScalarExpr::Col(i) => ScalarExpr::Col(i + delta),
        ScalarExpr::Const(v) => ScalarExpr::Const(*v),
        ScalarExpr::Binary { op, ty, lhs, rhs } => ScalarExpr::Binary {
            op: *op,
            ty: *ty,
            lhs: Box::new(shift_expr(lhs, delta)),
            rhs: Box::new(shift_expr(rhs, delta)),
        },
        ScalarExpr::Unary { op, ty, expr } => ScalarExpr::Unary {
            op: *op,
            ty: *ty,
            expr: Box::new(shift_expr(expr, delta)),
        },
    }
}

/// Rebuilds a projection so that column 0 (the sample id) passes through and
/// all other references are shifted by one.
fn shift_projection(proj: &RowProjection) -> RowProjection {
    // Reconstruct scalar expressions from the projection's structure: the
    // permutation fast path gives us the sources directly; otherwise we shift
    // the compiled programs' column references by recompiling from the
    // original scalar expressions is impossible (they are gone), so the
    // projection stores its expressions — we rebuild from `permutation` or
    // shift the bytecode.
    if let Some(perm) = &proj.permutation {
        let mut outputs = vec![ScalarExpr::Col(0)];
        outputs.extend(perm.iter().map(|&c| ScalarExpr::Col(c + 1)));
        return RowProjection::new(outputs, None);
    }
    // General case: shift every PushCol in the compiled programs.
    let mut shifted = proj.clone();
    for program in &mut shifted.programs {
        for op in &mut program.ops {
            if let lobster_ram::ByteOp::PushCol(i) = op {
                *i += 1;
            }
        }
    }
    if let Some(filter) = &mut shifted.filter {
        for op in &mut filter.ops {
            if let lobster_ram::ByteOp::PushCol(i) = op {
                *i += 1;
            }
        }
    }
    // Prepend the sample column as output 0.
    let mut programs = vec![ScalarExpr::Col(0).compile()];
    programs.extend(shifted.programs);
    RowProjection {
        programs,
        permutation: None,
        filter: shifted.filter,
    }
}

fn transform_expr(expr: &RamExpr) -> RamExpr {
    match expr {
        RamExpr::Relation(name) => RamExpr::Relation(name.clone()),
        RamExpr::Project { input, proj } => RamExpr::Project {
            input: Box::new(transform_expr(input)),
            proj: shift_projection(proj),
        },
        RamExpr::Select { input, cond } => RamExpr::Select {
            input: Box::new(transform_expr(input)),
            cond: shift_expr(cond, 1),
        },
        RamExpr::Join { left, right, width } => RamExpr::Join {
            left: Box::new(transform_expr(left)),
            right: Box::new(transform_expr(right)),
            width: width + 1,
        },
        RamExpr::Intersect(l, r) => {
            RamExpr::Intersect(Box::new(transform_expr(l)), Box::new(transform_expr(r)))
        }
        RamExpr::Union(l, r) => {
            RamExpr::Union(Box::new(transform_expr(l)), Box::new(transform_expr(r)))
        }
        // A cross product within a batch must still match on the sample id,
        // so it becomes a width-1 join on the new leading column.
        RamExpr::Product(l, r) => RamExpr::Join {
            left: Box::new(transform_expr(l)),
            right: Box::new(transform_expr(r)),
            width: 1,
        },
    }
}

/// Transforms a RAM program for batched evaluation: every relation gains a
/// leading sample-id column and every operator is widened accordingly.
pub fn batch_transform(program: &RamProgram) -> RamProgram {
    let schemas = program
        .schemas
        .iter()
        .map(|(name, schema)| {
            let mut types = vec![ValueType::U32];
            types.extend(schema.arg_types.iter().copied());
            (name.clone(), RelationSchema::new(name.clone(), types))
        })
        .collect();
    let strata = program
        .strata
        .iter()
        .map(|stratum| Stratum {
            relations: stratum.relations.clone(),
            recursive: stratum.recursive,
            rules: stratum
                .rules
                .iter()
                .map(|rule| RamRule {
                    target: rule.target.clone(),
                    expr: transform_expr(&rule.expr),
                })
                .collect(),
        })
        .collect();
    RamProgram {
        schemas,
        strata,
        outputs: program.outputs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Executor, RuntimeOptions};
    use lobster_datalog::parse;
    use lobster_gpu::Device;
    use lobster_provenance::Unit;
    use lobster_ram::Value;

    #[test]
    fn batched_program_has_wider_schemas_and_joins() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))",
        )
        .unwrap();
        let batched = batch_transform(&compiled.ram);
        assert_eq!(batched.schemas["edge"].arity(), 3);
        assert_eq!(batched.schemas["path"].arity(), 3);
        batched.validate().unwrap();
        let mut join_widths = Vec::new();
        for stratum in &batched.strata {
            for rule in &stratum.rules {
                rule.expr.visit(&mut |e| {
                    if let RamExpr::Join { width, .. } = e {
                        join_widths.push(*width);
                    }
                });
            }
        }
        assert!(
            join_widths.iter().all(|&w| w >= 2),
            "joins must include the sample column"
        );
    }

    #[test]
    fn samples_do_not_leak_into_each_other() {
        let compiled = parse(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .unwrap();
        let batched = batch_transform(&compiled.ram);
        let device = Device::sequential();
        let mut db = Database::new(batched.schemas.clone(), Unit::new());
        // Sample 0: edge 0 -> 1; sample 1: edge 1 -> 2. Without batching the
        // combined graph would contain the path 0 -> 2.
        db.insert("edge", &[Value::U32(0), Value::U32(0), Value::U32(1)], ());
        db.insert("edge", &[Value::U32(1), Value::U32(1), Value::U32(2)], ());
        db.seal(&device);
        let exec = Executor::new(device, Unit::new(), RuntimeOptions::default());
        crate::executor::run_strata(&exec, &mut db, &batched, crate::compile_stratum).unwrap();
        let rows = db.rows("path");
        assert_eq!(
            rows.len(),
            2,
            "each sample derives exactly its own edge as a path"
        );
        assert!(rows
            .iter()
            .all(|(t, _)| !(t[1] == Value::U32(0) && t[2] == Value::U32(2))));
    }

    #[test]
    fn batched_product_becomes_sample_join() {
        let compiled = parse(
            "type a(x: u32)
             type b(y: u32)
             rel pair(x, y) = a(x), b(y)",
        )
        .unwrap();
        let batched = batch_transform(&compiled.ram);
        let mut saw_product = false;
        let mut saw_sample_join = false;
        for stratum in &batched.strata {
            for rule in &stratum.rules {
                rule.expr.visit(&mut |e| match e {
                    RamExpr::Product(_, _) => saw_product = true,
                    RamExpr::Join { width: 1, .. } => saw_sample_join = true,
                    _ => {}
                });
            }
        }
        assert!(!saw_product);
        assert!(saw_sample_join);
    }
}
