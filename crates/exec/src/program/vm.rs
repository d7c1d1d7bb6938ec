//! The scalar expression VM: select-list, WHERE and LAST JOIN residual
//! expressions flattened into a register-machine program over a reusable
//! value stack ([`ExprProgram`]), with constant subtrees folded at compile
//! time and scalar calls dispatched through [`ScalarFuncId`] (no per-row
//! name lookup).

use openmldb_sql::plan::PhysExpr;
use openmldb_sql::BinaryOp;
use openmldb_types::{Error, Result, Value};

use crate::eval::{binary, evaluate};
use crate::scalar::{self, ScalarFuncId};

/// One flat instruction. Jump targets are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    /// Push constant-pool entry.
    Const(u16),
    /// Push input row column.
    Col(u16),
    /// Push precomputed aggregate output.
    Agg(u16),
    /// Pop two, apply [`binary`] (NULL propagation included), push result.
    Bin(BinaryOp),
    /// Pop one, push `Bool(!v.as_bool()?)`.
    Not,
    /// Pop one, push `Bool(v.is_null() != negated)`.
    IsNull { negated: bool },
    /// Pop `argc` arguments, call the builtin, push the result.
    Call { id: ScalarFuncId, argc: u8 },
    /// Short-circuit AND probe: pop the left side; when falsy push
    /// `Bool(false)` and jump past the right side.
    AndProbe { target: u16 },
    /// Short-circuit OR probe: pop the left side; when truthy push
    /// `Bool(true)` and jump past the right side.
    OrProbe { target: u16 },
    /// Pop one, push `Bool(v.as_bool()?)` (the AND/OR result coercion).
    BoolCast,
    /// Pop a CASE branch condition; jump to the next branch when falsy.
    JumpIfFalse { target: u16 },
    /// Unconditional jump (end of a taken CASE branch).
    Jump { target: u16 },
    /// Push NULL (CASE with no ELSE).
    PushNull,
}

/// A compiled scalar expression: flat instructions plus a constant pool,
/// evaluated over a caller-provided stack buffer that is reused across
/// evaluations (zero allocations once warm).
#[derive(Debug, Clone)]
pub struct ExprProgram {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    max_stack: usize,
}

/// Builder state while lowering one [`PhysExpr`] tree.
struct ExprCompiler {
    instrs: Vec<Instr>,
    consts: Vec<Value>,
    depth: usize,
    max_depth: usize,
}

impl ExprCompiler {
    fn push(&mut self, i: Instr, net: isize) -> std::result::Result<(), String> {
        if self.instrs.len() >= u16::MAX as usize {
            return Err("expression program too long".into());
        }
        self.instrs.push(i);
        self.depth = self
            .depth
            .checked_add_signed(net)
            .ok_or("expression program stack underflow at compile time")?;
        self.max_depth = self.max_depth.max(self.depth);
        Ok(())
    }

    /// Reserve a jump-family instruction whose target is patched later.
    fn placeholder(&mut self, i: Instr, net: isize) -> std::result::Result<usize, String> {
        let at = self.instrs.len();
        self.push(i, net)?;
        Ok(at)
    }

    fn patch(&mut self, at: usize) -> std::result::Result<(), String> {
        let target = u16::try_from(self.instrs.len()).map_err(|_| "expression program too long")?;
        match self.instrs.get_mut(at) {
            Some(
                Instr::AndProbe { target: t }
                | Instr::OrProbe { target: t }
                | Instr::JumpIfFalse { target: t }
                | Instr::Jump { target: t },
            ) => {
                *t = target;
                Ok(())
            }
            _ => Err("patched a non-jump instruction".into()),
        }
    }

    fn push_const(&mut self, v: Value) -> std::result::Result<u16, String> {
        // Small pools: linear dedup is cheaper than a map and keeps `Value`
        // hashing out of the picture.
        if let Some(i) = self.consts.iter().position(|c| *c == v) {
            return Ok(i as u16);
        }
        let i = u16::try_from(self.consts.len()).map_err(|_| "constant pool too large")?;
        self.consts.push(v);
        Ok(i)
    }

    fn emit(&mut self, e: &PhysExpr) -> std::result::Result<(), String> {
        // Constant folding: a subtree that evaluates with no row and no
        // aggregate outputs read neither (every builtin in the dispatch
        // table is pure), so it collapses to one `Const`. Folding is skipped
        // when compile-time evaluation errors (an input read, or e.g. a
        // constant overflow) so the runtime error surfaces exactly as the
        // interpreter would produce it.
        if !matches!(e, PhysExpr::Literal(_)) {
            if let Ok(v) = evaluate(e, &[], &[]) {
                let i = self.push_const(v)?;
                return self.push(Instr::Const(i), 1);
            }
        }
        match e {
            PhysExpr::Literal(v) => {
                let i = self.push_const(v.clone())?;
                self.push(Instr::Const(i), 1)
            }
            PhysExpr::Column(i) => {
                let i = u16::try_from(*i).map_err(|_| "column index too large")?;
                self.push(Instr::Col(i), 1)
            }
            PhysExpr::AggRef(i) => {
                let i = u16::try_from(*i).map_err(|_| "aggregate index too large")?;
                self.push(Instr::Agg(i), 1)
            }
            PhysExpr::Binary { op, left, right } => match op {
                BinaryOp::And => {
                    self.emit(left)?;
                    let probe = self.placeholder(Instr::AndProbe { target: 0 }, -1)?;
                    self.emit(right)?;
                    self.push(Instr::BoolCast, 0)?;
                    self.patch(probe)
                }
                BinaryOp::Or => {
                    self.emit(left)?;
                    let probe = self.placeholder(Instr::OrProbe { target: 0 }, -1)?;
                    self.emit(right)?;
                    self.push(Instr::BoolCast, 0)?;
                    self.patch(probe)
                }
                _ => {
                    self.emit(left)?;
                    self.emit(right)?;
                    self.push(Instr::Bin(*op), -1)
                }
            },
            PhysExpr::Not(e) => {
                self.emit(e)?;
                self.push(Instr::Not, 0)
            }
            PhysExpr::IsNull { expr, negated } => {
                self.emit(expr)?;
                self.push(Instr::IsNull { negated: *negated }, 0)
            }
            PhysExpr::ScalarCall { func, args } => {
                let id = scalar::resolve_def(func)
                    .ok_or_else(|| format!("scalar `{}` not in the dispatch table", func.name))?;
                for a in args {
                    self.emit(a)?;
                }
                let argc = u8::try_from(args.len()).map_err(|_| "too many call arguments")?;
                self.push(Instr::Call { id, argc }, 1 - args.len() as isize)
            }
            PhysExpr::Case {
                branches,
                else_expr,
            } => {
                let mut ends = Vec::with_capacity(branches.len());
                for (cond, val) in branches {
                    self.emit(cond)?;
                    let next = self.placeholder(Instr::JumpIfFalse { target: 0 }, -1)?;
                    self.emit(val)?;
                    ends.push(self.placeholder(Instr::Jump { target: 0 }, -1)?);
                    self.patch(next)?;
                }
                match else_expr {
                    Some(e) => self.emit(e)?,
                    None => self.push(Instr::PushNull, 1)?,
                }
                for end in ends {
                    self.patch(end)?;
                }
                Ok(())
            }
        }
    }
}

fn underflow() -> Error {
    Error::Eval("expression program stack underflow".into())
}

/// Operand `i` of `pool` (constants, row columns or aggregate outputs).
#[inline(always)]
fn fetch(pool: &[Value], i: u16, what: &str) -> Result<Value> {
    pool.get(i as usize)
        .cloned()
        .ok_or_else(|| Error::Eval(format!("{what} {i} out of bounds")))
}

impl ExprProgram {
    /// Lower one expression tree, or explain why it cannot be compiled.
    pub fn compile(e: &PhysExpr) -> std::result::Result<ExprProgram, String> {
        let mut c = ExprCompiler {
            instrs: Vec::new(),
            consts: Vec::new(),
            depth: 0,
            max_depth: 0,
        };
        c.emit(e)?;
        if c.depth != 1 {
            return Err("expression program must produce exactly one value".into());
        }
        Ok(ExprProgram {
            instrs: c.instrs,
            consts: c.consts,
            max_stack: c.max_depth,
        })
    }

    /// Number of instructions (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Evaluate against `row`/`aggs`, using `stack` as the reusable value
    /// stack. Semantics (NULL propagation, short-circuit AND/OR, CASE
    /// fallthrough, error surfaces) match [`crate::evaluate`] exactly.
    pub fn eval(&self, row: &[Value], aggs: &[Value], stack: &mut Vec<Value>) -> Result<Value> {
        // A bare operand (`Agg(i)` / `Col(i)` / `Const(i)` — most select
        // columns of a feature script) is its own result: no stack traffic.
        if let [only] = self.instrs.as_slice() {
            match *only {
                Instr::Const(i) => return fetch(&self.consts, i, "constant"),
                Instr::Col(i) => return fetch(row, i, "column index"),
                Instr::Agg(i) => return fetch(aggs, i, "aggregate index"),
                _ => {}
            }
        }
        stack.clear();
        if stack.capacity() < self.max_stack {
            // Cold: first evaluation through a pooled stack grows it once.
            stack.reserve(self.max_stack);
        }
        let mut pc = 0usize;
        while let Some(instr) = self.instrs.get(pc) {
            pc += 1;
            match *instr {
                Instr::Const(i) => stack.push(fetch(&self.consts, i, "constant")?),
                Instr::Col(i) => stack.push(fetch(row, i, "column index")?),
                Instr::Agg(i) => stack.push(fetch(aggs, i, "aggregate index")?),
                Instr::PushNull => stack.push(Value::Null),
                Instr::Bin(op) => {
                    let r = stack.pop().ok_or_else(underflow)?;
                    let l = stack.pop().ok_or_else(underflow)?;
                    stack.push(binary(op, &l, &r)?);
                }
                Instr::Not => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(!v.as_bool()?));
                }
                Instr::IsNull { negated } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(v.is_null() != negated));
                }
                Instr::BoolCast => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    stack.push(Value::Bool(v.as_bool()?));
                }
                Instr::AndProbe { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if !v.as_bool()? {
                        stack.push(Value::Bool(false));
                        pc = target as usize;
                    }
                }
                Instr::OrProbe { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if v.as_bool()? {
                        stack.push(Value::Bool(true));
                        pc = target as usize;
                    }
                }
                Instr::JumpIfFalse { target } => {
                    let v = stack.pop().ok_or_else(underflow)?;
                    if !v.as_bool()? {
                        pc = target as usize;
                    }
                }
                Instr::Jump { target } => pc = target as usize,
                Instr::Call { id, argc } => {
                    let at = stack
                        .len()
                        .checked_sub(argc as usize)
                        .ok_or_else(underflow)?;
                    let v = scalar::call_id(id, &stack[at..])?;
                    stack.truncate(at);
                    stack.push(v);
                }
            }
        }
        stack.pop().ok_or_else(underflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmldb_sql::functions::lookup;

    fn check_expr(e: &PhysExpr, row: &[Value], aggs: &[Value]) {
        let p = ExprProgram::compile(e).expect("compiles");
        let mut stack = Vec::new();
        let got = p.eval(row, aggs, &mut stack);
        let want = evaluate(e, row, aggs);
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(w, g);
                assert_eq!(w.data_type(), g.data_type());
            }
            (Err(_), Err(_)) => {}
            _ => panic!("diverged: {want:?} vs {got:?}"),
        }
    }

    #[test]
    fn expr_program_matches_interpreter() {
        use BinaryOp::*;
        let row = vec![
            Value::Bigint(10),
            Value::Null,
            Value::Double(4.5),
            Value::string("abc"),
            Value::Bool(true),
        ];
        let aggs = vec![Value::Bigint(41), Value::Double(2.5)];
        let col = |i: usize| PhysExpr::Column(i);
        let lit = |v: Value| PhysExpr::Literal(v);
        let bin = |op, l: PhysExpr, r: PhysExpr| PhysExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let cases: Vec<PhysExpr> = vec![
            bin(Add, col(0), lit(Value::Bigint(5))),
            bin(Add, col(0), col(1)),
            bin(Mul, col(0), col(2)),
            bin(Div, col(0), lit(Value::Bigint(0))),
            bin(Mod, col(0), lit(Value::Bigint(0))),
            bin(Lt, col(0), col(2)),
            bin(Eq, col(3), lit(Value::string("abc"))),
            bin(And, col(4), bin(Gt, col(0), lit(Value::Bigint(3)))),
            bin(And, lit(Value::Bool(false)), bin(Div, col(0), col(1))),
            bin(Or, col(4), bin(Div, col(0), col(1))),
            PhysExpr::Not(Box::new(col(4))),
            PhysExpr::IsNull {
                expr: Box::new(col(1)),
                negated: false,
            },
            PhysExpr::IsNull {
                expr: Box::new(col(0)),
                negated: true,
            },
            bin(Add, PhysExpr::AggRef(0), lit(Value::Bigint(1))),
            bin(Mul, PhysExpr::AggRef(1), col(2)),
            PhysExpr::AggRef(7), // out of bounds: both must error
            PhysExpr::Case {
                branches: vec![
                    (
                        bin(Gt, col(0), lit(Value::Bigint(100))),
                        lit(Value::string("big")),
                    ),
                    (
                        bin(Gt, col(0), lit(Value::Bigint(5))),
                        lit(Value::string("mid")),
                    ),
                ],
                else_expr: Some(Box::new(lit(Value::string("small")))),
            },
            PhysExpr::Case {
                branches: vec![(bin(Lt, col(0), lit(Value::Bigint(0))), col(2))],
                else_expr: None,
            },
        ];
        for e in &cases {
            check_expr(e, &row, &aggs);
        }
    }

    #[test]
    fn expr_program_dispatches_scalar_calls_and_folds_constants() {
        let abs = PhysExpr::ScalarCall {
            func: lookup("abs").expect("builtin"),
            args: vec![PhysExpr::Column(0)],
        };
        check_expr(&abs, &[Value::Bigint(-7)], &[]);

        // A fully constant subtree folds to a single Const instruction.
        let folded = PhysExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(PhysExpr::ScalarCall {
                func: lookup("abs").expect("builtin"),
                args: vec![PhysExpr::Literal(Value::Bigint(-4))],
            }),
            right: Box::new(PhysExpr::Literal(Value::Bigint(2))),
        };
        let p = ExprProgram::compile(&folded).expect("compiles");
        assert_eq!(p.len(), 1, "constant subtree should fold: {p:?}");
        let mut stack = Vec::new();
        assert_eq!(
            p.eval(&[], &[], &mut stack).expect("eval"),
            Value::Bigint(6)
        );

        // Constant folding must not swallow runtime errors: an overflowing
        // constant expression stays structural and errors at eval time.
        let overflow = PhysExpr::Binary {
            op: BinaryOp::Mul,
            left: Box::new(PhysExpr::Literal(Value::Bigint(i64::MAX))),
            right: Box::new(PhysExpr::Literal(Value::Bigint(2))),
        };
        let p = ExprProgram::compile(&overflow).expect("compiles");
        assert!(p.eval(&[], &[], &mut stack).is_err());
    }
}
