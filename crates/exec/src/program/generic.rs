//! Family 4 — generic kernels: everything else the function registry
//! accepts (`*_cate_where`, `drawdown`, `ew_avg`, `median`, `top`, BOOL
//! columns, multi-argument and scalar-call arguments). One pooled
//! [`WindowAggSet`] over all of a window's generic aggregates, i.e. the
//! interpreter's own slots (`SharedNumeric` for projection functions,
//! `Box<dyn Aggregator>` otherwise) fed from the row view. Slow, but inside
//! the program — sharing the scan, the sort skip, the frame guard and the
//! deadline cadence with the other families.
//!
//! The contract is the set's own: [`step_view`] a row through its view — a
//! stored one, or the encoded request row, which the fold steps last —
//! `outputs_into` the values. There is no retract: the interpreter's
//! aggregators cannot forget a row, and the sweep re-folds every generic
//! aggregate.

use openmldb_sql::plan::BoundAggregate;
use openmldb_types::{Error, Result, RowView};

use super::expression::ExprKernel;
use super::field::str_without_view;
use crate::window::WindowAggSet;

/// The generic state over `aggs` (`None`: the window has none), or the
/// error [`WindowAggSet::new`] rejects them with.
pub(super) fn build_generic(aggs: &[BoundAggregate]) -> Result<Option<WindowAggSet>> {
    let refs: Vec<&BoundAggregate> = aggs.iter().collect();
    (!refs.is_empty())
        .then(|| WindowAggSet::new(&refs))
        .transpose()
}

/// Step a row, through its validated `view`.
#[inline]
pub(super) fn step_view(
    generic: &mut Option<WindowAggSet>,
    view: Option<&RowView<'_>>,
) -> Result<()> {
    match generic {
        Some(set) => set.update_view(view.ok_or_else(str_without_view)?),
        None => Ok(()),
    }
}

/// The expression kernel `spec` failed on the row `view` reads. The
/// interpreter walks slots in aggregate order, so a generic aggregate bound
/// *earlier* that also fails on this row owns the error; expression kernels
/// run first here, so feed those aggregates now (the fold is being
/// abandoned either way).
#[cold]
pub(super) fn first_error(
    err: Error,
    spec: &ExprKernel,
    generic: &mut Option<WindowAggSet>,
    view: Option<&RowView<'_>>,
) -> Error {
    let fed = match (generic, view) {
        (Some(set), Some(v)) => set.update_first(spec.generic_before, v),
        _ => Ok(()),
    };
    fed.err().unwrap_or(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::testkit::*;
    use crate::program::WindowProgram;
    use openmldb_sql::functions::lookup;
    use openmldb_sql::plan::PhysExpr;
    use openmldb_sql::BinaryOp;
    use openmldb_types::{CompactCodec, Row, Value};

    #[test]
    fn generic_kernels_run_everything_else_inside_the_program() {
        use BinaryOp::*;
        let positive = bin(Gt, col(2), lit(Value::Bigint(0)));
        let aggs = vec![
            agg_of("count_where", vec![col(5), positive.clone()]),
            agg_of("avg_cate_where", vec![col(5), positive.clone(), col(6)]),
            agg_of("median", vec![col(5)]),
            agg_of("top", vec![col(3), lit(Value::Bigint(3))]),
            agg_of("drawdown", vec![col(5)]),
            agg_of("ew_avg", vec![col(5), lit(Value::Double(0.5))]),
            // Projection functions over non-lowerable arguments keep the
            // interpreter's SharedNumeric semantics (and share one slot).
            agg_of(
                "sum",
                vec![PhysExpr::ScalarCall {
                    func: lookup("abs").expect("builtin"),
                    args: vec![col(2)],
                }],
            ),
            agg_of(
                "max",
                vec![PhysExpr::ScalarCall {
                    func: lookup("abs").expect("builtin"),
                    args: vec![col(2)],
                }],
            ),
            agg_of("count", vec![lit(Value::Bigint(1))]),
            agg_of(
                "distinct_count",
                vec![bin(Mul, col(2), lit(Value::Bigint(2)))],
            ),
            // Mixed in: one kernel of each other family.
            agg("sum", 3, 0),
            agg_of("avg", vec![bin(Mul, col(5), lit(Value::Double(2.0)))]),
            agg_of("distinct_count", vec![col(6)]),
        ];
        let rows: Vec<Row> = (0..50).map(row).collect();
        let (expected, got) = fold_both(&aggs, &rows, Some(&row(51)));
        assert_eq!(expected, got);

        let codec = CompactCodec::new(schema());
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
        assert_eq!(wp.generic.len(), 10);
        assert_eq!((wp.kernels.len(), wp.exprs.len(), wp.maps.len()), (1, 1, 1));
        assert!(wp.needs_view);
    }

    #[test]
    fn first_failing_slot_owns_the_error_across_families() {
        use BinaryOp::*;
        // Both fail on the same row: `sum_where` trips on a STRING condition,
        // the expression kernel overflows. The interpreter reports whichever
        // aggregate is bound first.
        let type_error = agg_of("sum_where", vec![col(3), col(6)]);
        let overflow = agg_of("sum", vec![bin(Mul, col(3), col(3))]);
        let rows = vec![Row::new(vec![
            Value::string("k1"),
            Value::Timestamp(1_000),
            Value::Int(1),
            Value::Bigint(i64::MAX),
            Value::Float(0.0),
            Value::Double(0.0),
            Value::string("not-a-bool"),
            Value::Null,
        ])];
        // A generic aggregate that does not fail, bound before both.
        let fine = agg_of("median", vec![col(5)]);
        for aggs in [
            vec![type_error.clone(), overflow.clone()],
            vec![overflow.clone(), type_error.clone()],
            vec![fine, overflow.clone(), type_error.clone()],
        ] {
            for (rows, request) in [(rows.clone(), None), (vec![], Some(rows[0].clone()))] {
                let (expected, got) = try_fold_both(&aggs, &rows, request.as_ref());
                assert_eq!(expected.expect_err("fails"), got.expect_err("fails"));
            }
        }
    }

    #[test]
    fn only_plans_the_interpreter_rejects_fail_to_compile() {
        let codec = CompactCodec::new(schema());
        let w = window();
        // `topn_frequency`'s N must be a literal: `WindowAggSet::new` rejects
        // it, so the window is refused with that reason.
        let a = agg_of("topn_frequency", vec![col(6), col(2)]);
        let err = WindowProgram::compile(&w, &[&a], &codec).expect_err("rejected");
        assert!(err.to_string().contains("constant literal"), "{err}");
        let refs = [&a];
        assert!(WindowAggSet::new(&refs).is_err());
        // String sums compile (generic family) and fail at run time with
        // the interpreter's own type error.
        let a = agg("sum", 6, 0);
        let (expected, got) = try_fold_both(&[a], &[row(1)], None);
        assert_eq!(
            expected.expect_err("type error"),
            got.expect_err("type error")
        );
    }
}
