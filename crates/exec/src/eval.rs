//! Interpreter for compiled expressions ([`PhysExpr`]).
//!
//! Column offsets and function bindings were resolved at plan time, so
//! evaluation is a flat tree walk — the reproduction's stand-in for the
//! LLVM-JIT'd code of the original system.

use openmldb_sql::plan::PhysExpr;
use openmldb_sql::BinaryOp;
use openmldb_types::{DataType, Error, Result, RowView, Value};

use crate::scalar;

/// A source of column values for expression evaluation — either a decoded
/// `&[Value]` row or a borrowed [`RowView`] over the compact encoding, so
/// the streaming scan→aggregate path can evaluate aggregate arguments
/// without decoding whole rows first.
pub trait ColumnSource {
    /// The value of column `i` (owned; borrowed sources promote in place —
    /// allocation-free for every type but strings).
    fn column(&self, i: usize) -> Result<Value>;
}

impl ColumnSource for [Value] {
    fn column(&self, i: usize) -> Result<Value> {
        self.get(i)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("column index {i} out of bounds")))
    }
}

impl ColumnSource for RowView<'_> {
    fn column(&self, i: usize) -> Result<Value> {
        self.get_value(i)
    }
}

/// Evaluate `expr` against `row`, with aggregate results supplied in `aggs`
/// (indexed by `PhysExpr::AggRef`).
pub fn evaluate(expr: &PhysExpr, row: &[Value], aggs: &[Value]) -> Result<Value> {
    evaluate_with(expr, row, aggs)
}

/// [`evaluate`] generalized over the column source, shared by the decoded
/// and the in-place ([`RowView`]) paths.
pub fn evaluate_with<S: ColumnSource + ?Sized>(
    expr: &PhysExpr,
    row: &S,
    aggs: &[Value],
) -> Result<Value> {
    match expr {
        PhysExpr::Literal(v) => Ok(v.clone()),
        PhysExpr::Column(i) => row.column(*i),
        PhysExpr::AggRef(i) => aggs
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("aggregate index {i} out of bounds"))),
        PhysExpr::Binary { op, left, right } => {
            let l = evaluate_with(left, row, aggs)?;
            // Short-circuit AND/OR with SQL three-valued-ish semantics
            // (NULL treated as false in boolean context).
            match op {
                BinaryOp::And => {
                    if !l.as_bool()? {
                        return Ok(Value::Bool(false));
                    }
                    let r = evaluate_with(right, row, aggs)?;
                    return Ok(Value::Bool(r.as_bool()?));
                }
                BinaryOp::Or => {
                    if l.as_bool()? {
                        return Ok(Value::Bool(true));
                    }
                    let r = evaluate_with(right, row, aggs)?;
                    return Ok(Value::Bool(r.as_bool()?));
                }
                _ => {}
            }
            let r = evaluate_with(right, row, aggs)?;
            binary(*op, &l, &r)
        }
        PhysExpr::Not(e) => {
            let v = evaluate_with(e, row, aggs)?;
            Ok(Value::Bool(!v.as_bool()?))
        }
        PhysExpr::IsNull { expr, negated } => {
            let v = evaluate_with(expr, row, aggs)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        PhysExpr::ScalarCall { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(evaluate_with(a, row, aggs)?);
            }
            // The def resolves to its dispatch id in O(1) (pointer offset
            // into the builtin table) — no per-row string match.
            match scalar::resolve_def(func) {
                Some(id) => scalar::call_id(id, &vals),
                None => scalar::call(func.name, &vals),
            }
        }
        PhysExpr::Case {
            branches,
            else_expr,
        } => {
            for (cond, value) in branches {
                if evaluate_with(cond, row, aggs)?.as_bool()? {
                    return evaluate_with(value, row, aggs);
                }
            }
            match else_expr {
                Some(e) => evaluate_with(e, row, aggs),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Apply a binary operator with SQL NULL propagation (any NULL operand makes
/// a NULL result for arithmetic/comparison).
pub fn binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    Ok(match op {
        Eq => Value::Bool(l.sql_eq(r)),
        NotEq => Value::Bool(!l.sql_eq(r)),
        Lt => Value::Bool(l.total_cmp(r).is_lt()),
        LtEq => Value::Bool(l.total_cmp(r).is_le()),
        Gt => Value::Bool(l.total_cmp(r).is_gt()),
        GtEq => Value::Bool(l.total_cmp(r).is_ge()),
        And => Value::Bool(l.as_bool()? && r.as_bool()?),
        Or => Value::Bool(l.as_bool()? || r.as_bool()?),
        Add | Sub | Mul | Mod => {
            // Integer-preserving arithmetic when both sides are integral.
            let integral = matches!(
                (l.data_type(), r.data_type()),
                (
                    Some(DataType::Int) | Some(DataType::Bigint) | Some(DataType::Timestamp),
                    Some(DataType::Int) | Some(DataType::Bigint) | Some(DataType::Timestamp)
                )
            );
            if integral {
                let (a, b) = (l.as_i64()?, r.as_i64()?);
                let v = match op {
                    Add => a.checked_add(b),
                    Sub => a.checked_sub(b),
                    Mul => a.checked_mul(b),
                    Mod => {
                        if b == 0 {
                            return Ok(Value::Null);
                        }
                        a.checked_rem(b)
                    }
                    _ => unreachable!(),
                }
                .ok_or_else(|| Error::Eval(format!("integer overflow in {}", op.symbol())))?;
                Value::Bigint(v)
            } else {
                let (a, b) = (l.as_f64()?, r.as_f64()?);
                let v = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Mod => a % b,
                    _ => unreachable!(),
                };
                Value::Double(v)
            }
        }
        Div => {
            let b = r.as_f64()?;
            if b == 0.0 {
                Value::Null
            } else {
                Value::Double(l.as_f64()? / b)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> PhysExpr {
        PhysExpr::Column(i)
    }
    fn lit(v: Value) -> PhysExpr {
        PhysExpr::Literal(v)
    }
    fn bin(op: BinaryOp, l: PhysExpr, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic_and_nulls() {
        let row = vec![Value::Bigint(10), Value::Null, Value::Double(4.0)];
        let e = bin(BinaryOp::Add, col(0), lit(Value::Bigint(5)));
        assert_eq!(evaluate(&e, &row, &[]).unwrap(), Value::Bigint(15));
        let e = bin(BinaryOp::Add, col(0), col(1));
        assert_eq!(evaluate(&e, &row, &[]).unwrap(), Value::Null);
        let e = bin(BinaryOp::Mul, col(0), col(2));
        assert_eq!(evaluate(&e, &row, &[]).unwrap(), Value::Double(40.0));
    }

    #[test]
    fn division_is_double_and_null_on_zero() {
        let e = bin(BinaryOp::Div, lit(Value::Bigint(7)), lit(Value::Bigint(2)));
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Double(3.5));
        let e = bin(BinaryOp::Div, lit(Value::Bigint(7)), lit(Value::Bigint(0)));
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Null);
        let e = bin(BinaryOp::Mod, lit(Value::Bigint(7)), lit(Value::Bigint(0)));
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_cross_type() {
        let e = bin(BinaryOp::Gt, lit(Value::Int(3)), lit(Value::Double(2.5)));
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Bool(true));
        let e = bin(
            BinaryOp::Eq,
            lit(Value::string("a")),
            lit(Value::string("a")),
        );
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn and_or_short_circuit() {
        // Right side would error (string as bool), but left decides.
        let e = bin(
            BinaryOp::And,
            lit(Value::Bool(false)),
            lit(Value::string("boom")),
        );
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Bool(false));
        let e = bin(
            BinaryOp::Or,
            lit(Value::Bool(true)),
            lit(Value::string("boom")),
        );
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn agg_refs_read_precomputed_results() {
        let e = bin(BinaryOp::Add, PhysExpr::AggRef(0), lit(Value::Bigint(1)));
        assert_eq!(
            evaluate(&e, &[], &[Value::Bigint(41)]).unwrap(),
            Value::Bigint(42)
        );
        assert!(evaluate(&PhysExpr::AggRef(3), &[], &[]).is_err());
    }

    #[test]
    fn is_null_and_case() {
        let e = PhysExpr::IsNull {
            expr: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(evaluate(&e, &[], &[]).unwrap(), Value::Bool(true));
        let case = PhysExpr::Case {
            branches: vec![(
                bin(BinaryOp::Gt, col(0), lit(Value::Bigint(0))),
                lit(Value::string("pos")),
            )],
            else_expr: Some(Box::new(lit(Value::string("neg")))),
        };
        assert_eq!(
            evaluate(&case, &[Value::Bigint(5)], &[]).unwrap(),
            Value::string("pos")
        );
        assert_eq!(
            evaluate(&case, &[Value::Bigint(-5)], &[]).unwrap(),
            Value::string("neg")
        );
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        let e = bin(
            BinaryOp::Mul,
            lit(Value::Bigint(i64::MAX)),
            lit(Value::Bigint(2)),
        );
        assert!(evaluate(&e, &[], &[]).is_err());
    }
}
