//! The functional interpreter: sequential, global-name-space, value-level
//! execution of the HPF/Fortran 90D subset.
//!
//! This is the third tool of the paper's application development environment
//! (§1: "the environment integrates a HPF/Fortran 90D compiler, a functional
//! interpreter and the source based performance prediction tool"). Here it
//! serves three roles: semantics oracle for the compiler, source of
//! data-dependent execution profiles for the machine simulator, and
//! critical-variable resolution of last resort.
//!
//! A run lowers the program once (`lower.rs`: names to slots,
//! statements to profile rows) and then executes the lowered tree over
//! slot-indexed storage: `Copy` scalars and typed arrays.

use crate::data::{self, Data, Operand};
use crate::lower::{
    self, Ax, ElemRef, Ex, Forall, ForallItem, Kind, Program, Stmt, Sub, Subscr, Sx, WhereItem,
};
use crate::profile::{ExecutionProfile, StmtStats};
use hpf_lang::ast::{Intrinsic, TypeSpec};
use hpf_lang::sema::AnalyzedProgram;
use hpf_lang::value::Value;
use hpf_lang::value_ops::{self as ops, Scalar};
use hpf_lang::Span;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for EvalError {}

/// Boxed so that results on the hot path stay small.
type R<T> = Result<T, Box<EvalError>>;

fn fault(message: impl Into<String>, span: Span) -> Box<EvalError> {
    Box::new(EvalError {
        message: message.into(),
        span,
    })
}

/// Outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Lines produced by PRINT statements.
    pub output: Vec<String>,
    /// Dynamic statement statistics.
    pub profile: ExecutionProfile,
    /// Final values of all scalar variables (inspection hook for tests).
    pub scalars: BTreeMap<String, Value>,
}

/// The step budget of [`run`].
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

/// Run the functional interpreter over an analyzed program.
pub fn run(analyzed: &AnalyzedProgram) -> Result<RunOutcome, EvalError> {
    run_with_limit(analyzed, DEFAULT_STEP_LIMIT)
}

/// Run with an explicit step budget (guards non-terminating DO WHILE loops).
///
/// One step is charged per AST expression node evaluated, per DO / DO
/// WHILE trip, per scalar or element store, per element of an array
/// operation, per FORALL index-space point and WHERE mask element, and per
/// PRINT or I/O statement. The run fails once the total exceeds
/// `step_limit`; because the total only grows, the outcome depends only
/// on the total, not on when within a statement the steps are charged.
pub fn run_with_limit(
    analyzed: &AnalyzedProgram,
    step_limit: u64,
) -> Result<RunOutcome, EvalError> {
    let prog = lower::lower(analyzed);
    let mut ev = Evaluator {
        mem: Mem {
            scalars: prog.scalars.iter().map(|(_, init)| *init).collect(),
            arrays: prog
                .arrays
                .iter()
                .map(|(n, ty, shape)| Array::new(n, *ty, shape))
                .collect(),
            idx: vec![0; prog.index_regs],
        },
        ctr: Counter {
            steps: 0,
            limit: step_limit,
        },
        stats: vec![StmtStats::default(); prog.rows.len()],
        seen: vec![false; prog.rows.len()],
        output: Vec::new(),
        stopped: false,
        scratch: Vec::new(),
        prog: &prog,
    };
    ev.block(&prog.stmts).map_err(|e| *e)?;
    let rows = prog
        .rows
        .iter()
        .zip(ev.stats)
        .zip(&ev.seen)
        .filter(|(_, &seen)| seen)
        .map(|((&key, stats), _)| (key, stats));
    let profile = ExecutionProfile::from_rows(rows, ev.ctr.steps);
    let scalars = prog
        .scalars
        .iter()
        .zip(&ev.mem.scalars)
        .map(|((name, _), &v)| (name.clone(), value(v, &prog.strings)))
        .collect();
    Ok(RunOutcome {
        output: ev.output,
        profile,
        scalars,
    })
}

/// One array's bounds and typed elements.
struct Array {
    name: String,
    lbounds: Vec<i64>,
    extents: Vec<usize>,
    /// Column-major stride of each dimension.
    strides: Vec<usize>,
    data: Data,
}

impl Array {
    fn new(name: &str, ty: TypeSpec, shape: &[(i64, i64)]) -> Array {
        let extents: Vec<usize> = shape
            .iter()
            .map(|(lb, ub)| (ub - lb + 1).max(0) as usize)
            .collect();
        let strides = extents
            .iter()
            .scan(1usize, |s, &e| {
                let here = *s;
                *s *= e;
                Some(here)
            })
            .collect();
        let n = extents.iter().product();
        Array {
            name: name.to_string(),
            lbounds: shape.iter().map(|(lb, _)| *lb).collect(),
            extents,
            strides,
            data: Data::zeroed(ty, n),
        }
    }
}

/// Everything an expression reads.
struct Mem {
    scalars: Vec<Scalar>,
    arrays: Vec<Array>,
    /// FORALL index registers.
    idx: Vec<i64>,
}

/// The step budget.
struct Counter {
    steps: u64,
    limit: u64,
}

impl Counter {
    #[inline]
    fn tick(&mut self, n: u64, span: Span) -> R<()> {
        self.steps = self.steps.saturating_add(n);
        if self.steps > self.limit {
            Err(fault("step limit exceeded (non-terminating loop?)", span))
        } else {
            Ok(())
        }
    }
}

/// An array value: borrowed from storage or computed.
struct AVal<'m> {
    extents: Cow<'m, [usize]>,
    data: Cow<'m, Data>,
}

impl AVal<'_> {
    fn owned(extents: Vec<usize>, data: Data) -> AVal<'static> {
        AVal {
            extents: Cow::Owned(extents),
            data: Cow::Owned(data),
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

/// A scalar or array evaluation result.
enum Val<'m> {
    S(Scalar),
    A(AVal<'m>),
}

impl<'m> Val<'m> {
    fn array(&self) -> Option<&AVal<'m>> {
        match self {
            Val::A(a) => Some(a),
            Val::S(_) => None,
        }
    }

    fn scalar(&self) -> Option<Scalar> {
        match self {
            Val::S(s) => Some(*s),
            Val::A(_) => None,
        }
    }
    /// A value that no longer borrows storage.
    fn into_owned(self) -> Val<'static> {
        match self {
            Val::S(s) => Val::S(s),
            Val::A(a) => Val::A(AVal::owned(a.extents.into_owned(), a.data.into_owned())),
        }
    }
}

/// A set of FORALL index tuples, `stride` registers each, stored flat.
struct Tuples {
    stride: usize,
    count: usize,
    data: Vec<i64>,
}

impl Tuples {
    fn get(&self, t: usize) -> &[i64] {
        &self.data[t * self.stride..(t + 1) * self.stride]
    }
}

struct Evaluator<'p> {
    prog: &'p Program,
    mem: Mem,
    ctr: Counter,
    stats: Vec<StmtStats>,
    /// Rows that exist in the profile (reached at least once).
    seen: Vec<bool>,
    output: Vec<String>,
    stopped: bool,
    /// FORALL gather buffer: (element offset, value), reused.
    scratch: Vec<(usize, Scalar)>,
}

// ---- expressions -----------------------------------------------------------

fn eval_int(m: &Mem, c: &mut Counter, e: &Sx, span: Span) -> R<i64> {
    eval_s(m, c, e)?
        .as_i64()
        .ok_or_else(|| fault("expected integer value", span))
}

/// Column-major offset of an element reference.
#[inline]
fn elem_offset(m: &Mem, c: &mut Counter, e: &ElemRef, span: Span) -> R<usize> {
    let mut off = 0usize;
    for (d, dim) in e.dims.iter().enumerate() {
        let i = match &dim.sub {
            Subscr::Affine(r, k) => m.idx[*r].wrapping_add(*k),
            Subscr::Const(k) => *k,
            Subscr::Expr(x) => eval_int(m, c, x, span)?,
        };
        let rel = i.wrapping_sub(dim.lb);
        if rel < 0 || rel as usize >= dim.extent {
            return Err(out_of_bounds(&m.arrays[e.arr].name, i, d, span));
        }
        off += rel as usize * dim.stride;
    }
    Ok(off)
}

#[cold]
fn out_of_bounds(name: &str, i: i64, d: usize, span: Span) -> Box<EvalError> {
    fault(
        format!("index {i} out of bounds in dimension {} of `{name}`", d + 1),
        span,
    )
}

fn eval_s(m: &Mem, c: &mut Counter, e: &Sx) -> R<Scalar> {
    match e {
        Sx::Const(v) => Ok(*v),
        Sx::Index(r) => Ok(Scalar::Int(m.idx[*r])),
        Sx::Var(s) => Ok(m.scalars[*s]),
        Sx::Elem(el, span) => {
            let off = elem_offset(m, c, el, *span)?;
            Ok(m.arrays[el.arr].data.get(off))
        }
        Sx::Binary(op, lr, span) => {
            let l = eval_s(m, c, &lr.0)?;
            let r = eval_s(m, c, &lr.1)?;
            ops::binary(*op, l, r).ok_or_else(|| fault("bad operands", *span))
        }
        Sx::Unary(op, x, span) => ops::unary(*op, eval_s(m, c, x)?)
            .ok_or_else(|| fault("bad operand for unary operator", *span)),
        Sx::Call(intr, args, span) => call(m, c, *intr, args, *span),
        Sx::Reduce(intr, args, span) => reduce(m, c, *intr, args, *span),
        Sx::Fail(msg, span) => Err(fault(&**msg, *span)),
    }
}

/// An elemental intrinsic on scalar arguments (kept out of line so that
/// `eval_s` stays small).
#[inline(never)]
fn call(m: &Mem, c: &mut Counter, intr: Intrinsic, args: &[Sx], span: Span) -> R<Scalar> {
    let mut buf = [Scalar::Int(0); 8];
    let mut vec;
    let vals: &mut [Scalar] = if args.len() <= buf.len() {
        &mut buf[..args.len()]
    } else {
        vec = vec![Scalar::Int(0); args.len()];
        &mut vec
    };
    for (v, a) in vals.iter_mut().zip(args) {
        *v = eval_s(m, c, a)?;
    }
    ops::intrinsic(intr, vals)
        .ok_or_else(|| fault(format!("bad arguments to {}", intr.name()), span))
}

fn eval_ex<'m>(m: &'m Mem, c: &mut Counter, e: &Ex) -> R<Val<'m>> {
    match e {
        Ex::S(s) => eval_s(m, c, s).map(Val::S),
        Ex::A(a) => eval_a(m, c, a).map(Val::A),
    }
}

fn eval_args<'m>(m: &'m Mem, c: &mut Counter, args: &[Ex]) -> R<Vec<Val<'m>>> {
    args.iter().map(|a| eval_ex(m, c, a)).collect()
}

/// Column-major offsets selected by a section of `a`, plus its extents
/// (one per triplet subscript).
fn section(
    m: &Mem,
    c: &mut Counter,
    a: &Array,
    subs: &[Sub],
    span: Span,
) -> R<(Vec<usize>, Vec<usize>)> {
    if subs.len() != a.extents.len() {
        return Err(fault(
            format!("rank mismatch: `{}` has rank {}", a.name, a.extents.len()),
            span,
        ));
    }
    // Per-dimension index lists.
    let mut lists: Vec<Vec<i64>> = Vec::with_capacity(subs.len());
    let mut extents = Vec::new();
    for (d, s) in subs.iter().enumerate() {
        match s {
            Sub::Index(e) => lists.push(vec![eval_int(m, c, e, span)?]),
            Sub::Range(lo, hi, stride) => {
                let lb = a.lbounds[d];
                let lo = match lo {
                    Some(e) => eval_int(m, c, e, span)?,
                    None => lb,
                };
                let hi = match hi {
                    Some(e) => eval_int(m, c, e, span)?,
                    None => lb + a.extents[d] as i64 - 1,
                };
                let step = match stride {
                    Some(e) => eval_int(m, c, e, span)?,
                    None => 1,
                };
                if step == 0 {
                    return Err(fault("section stride of zero", span));
                }
                let mut list = Vec::new();
                let mut i = lo;
                while if step > 0 { i <= hi } else { i >= hi } {
                    list.push(i);
                    i += step;
                }
                extents.push(list.len());
                lists.push(list);
            }
        }
    }
    let total: usize = lists.iter().map(Vec::len).product();
    if total == 0 {
        return Ok((Vec::new(), extents));
    }
    // Every listed index occurs in some element: bounds-check once per
    // dimension, then sum per-dimension offset contributions.
    let mut parts: Vec<Vec<usize>> = Vec::with_capacity(lists.len());
    for (d, list) in lists.iter().enumerate() {
        let mut part = Vec::with_capacity(list.len());
        for &i in list {
            let rel = i.wrapping_sub(a.lbounds[d]);
            if rel < 0 || rel as usize >= a.extents[d] {
                return Err(fault(
                    format!("section index {i} out of bounds in dimension {}", d + 1),
                    span,
                ));
            }
            part.push(rel as usize * a.strides[d]);
        }
        parts.push(part);
    }
    // Cartesian product in column-major order (first dimension fastest).
    let mut offsets = Vec::with_capacity(total);
    let mut counters = vec![0usize; parts.len()];
    for _ in 0..total {
        offsets.push(counters.iter().zip(&parts).map(|(&k, p)| p[k]).sum());
        for d in 0..counters.len() {
            counters[d] += 1;
            if counters[d] < parts[d].len() {
                break;
            }
            counters[d] = 0;
        }
    }
    Ok((offsets, extents))
}

fn eval_a<'m>(m: &'m Mem, c: &mut Counter, e: &Ax) -> R<AVal<'m>> {
    match e {
        Ax::Whole(slot) => {
            let a = &m.arrays[*slot];
            Ok(AVal {
                extents: Cow::Borrowed(&a.extents),
                data: Cow::Borrowed(&a.data),
            })
        }
        Ax::Section(sec, span) => {
            let a = &m.arrays[sec.0];
            let (offsets, extents) = section(m, c, a, &sec.1, *span)?;
            c.tick(offsets.len() as u64, *span)?;
            Ok(AVal::owned(extents, a.data.gather(&offsets)))
        }
        Ax::Unary(op, x, span) => {
            let a = eval_a(m, c, x)?;
            c.tick(a.len() as u64, *span)?;
            let data = data::unary(*op, &a.data)
                .ok_or_else(|| fault("bad array operand for unary operator", *span))?;
            Ok(AVal::owned(a.extents.into_owned(), data))
        }
        Ax::Binary(op, lr, span) => {
            let l = eval_ex(m, c, &lr.0)?;
            let r = eval_ex(m, c, &lr.1)?;
            let extents = match (&l, &r) {
                (Val::A(a), Val::A(b)) if a.extents != b.extents => {
                    return Err(fault("operands not conformable", *span))
                }
                (Val::A(a), _) | (_, Val::A(a)) => a.extents.to_vec(),
                _ => unreachable!("lowered as a scalar expression"),
            };
            let n: usize = extents.iter().product();
            c.tick(n as u64, *span)?;
            fn operand<'a>(v: &'a Val) -> Operand<'a> {
                match v {
                    Val::S(s) => Operand::Scalar(*s),
                    Val::A(a) => Operand::Array(&a.data),
                }
            }
            let data = data::binary(*op, &operand(&l), &operand(&r), n)
                .ok_or_else(|| fault("bad operands", *span))?;
            Ok(AVal::owned(extents, data))
        }
        Ax::Elemental(intr, args, span) => {
            let vals = eval_args(m, c, args)?;
            let Some(shape) = vals.iter().find_map(Val::array) else {
                unreachable!("lowered with an array argument")
            };
            if vals
                .iter()
                .filter_map(Val::array)
                .any(|a| a.extents != shape.extents)
            {
                return Err(fault("elemental intrinsic operands not conformable", *span));
            }
            let n = shape.len();
            c.tick(n as u64, *span)?;
            let mut buf = Vec::with_capacity(vals.len());
            let mut out = Vec::with_capacity(n);
            for off in 0..n {
                buf.clear();
                buf.extend(vals.iter().map(|v| match v {
                    Val::S(s) => *s,
                    Val::A(a) => a.data.get(off),
                }));
                out.push(
                    ops::intrinsic(*intr, &buf)
                        .ok_or_else(|| fault(format!("bad arguments to {}", intr.name()), *span))?,
                );
            }
            // A zero-size result keeps the kind the intrinsic would give.
            let int_args = vals.iter().all(|v| match v {
                Val::S(s) => matches!(s, Scalar::Int(_)),
                Val::A(a) => matches!(*a.data, Data::Int(_)),
            });
            let empty = match intr {
                Intrinsic::Int | Intrinsic::Nint => TypeSpec::Integer,
                Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max | Intrinsic::Mod if int_args => {
                    TypeSpec::Integer
                }
                _ => TypeSpec::Real,
            };
            Ok(AVal::owned(shape.extents.to_vec(), Data::pack(out, empty)))
        }
        Ax::Transform(intr, args, span) => transform(m, c, *intr, args, *span),
    }
}

/// CSHIFT / TSHIFT / EOSHIFT / TRANSPOSE / MATMUL.
fn transform<'m>(
    m: &'m Mem,
    c: &mut Counter,
    intr: Intrinsic,
    args: &[Ex],
    span: Span,
) -> R<AVal<'m>> {
    let vals = eval_args(m, c, args)?;
    let arg = |i: usize, what: &str| {
        vals.get(i)
            .and_then(Val::array)
            .ok_or_else(|| fault(format!("{what} of non-array"), span))
    };
    match intr {
        Intrinsic::Transpose => {
            let a = arg(0, "transpose")?;
            c.tick(a.len() as u64, span)?;
            let [n0, n1] = a.extents[..] else {
                return Err(fault("TRANSPOSE needs rank 2", span));
            };
            Ok(AVal::owned(vec![n1, n0], data::transpose(&a.data, n0, n1)))
        }
        Intrinsic::MatMul => match (
            vals.first().and_then(Val::array),
            vals.get(1).and_then(Val::array),
        ) {
            (Some(a), Some(b)) if a.extents.len() == 2 && b.extents.len() == 2 => {
                let (mm, k) = (a.extents[0], a.extents[1]);
                let (k2, n) = (b.extents[0], b.extents[1]);
                if k != k2 {
                    return Err(fault("MATMUL inner dimensions disagree", span));
                }
                c.tick((mm * n * k) as u64, span)?;
                Ok(AVal::owned(
                    vec![mm, n],
                    data::matmul(&a.data, &b.data, mm, k, n),
                ))
            }
            _ => Err(fault("MATMUL needs two rank-2 arrays", span)),
        },
        // CSHIFT, TSHIFT, EOSHIFT.
        _ => {
            let a = arg(0, "shift")?;
            let shift = vals
                .get(1)
                .and_then(Val::scalar)
                .and_then(Scalar::as_i64)
                .ok_or_else(|| fault("shift amount must be scalar integer", span))?;
            let dim = match vals.get(2) {
                Some(v) => v.scalar().and_then(Scalar::as_i64).unwrap_or(1) as usize,
                None => 1,
            };
            c.tick(a.len() as u64, span)?;
            if dim == 0 || dim > a.extents.len() {
                return Err(fault("bad shift dimension", span));
            }
            let circular = intr == Intrinsic::CShift;
            let data = data::shift(&a.data, &a.extents, dim - 1, shift, circular);
            Ok(AVal::owned(a.extents.to_vec(), data))
        }
    }
}

/// SUM / PRODUCT / MAXVAL / MINVAL / MAXLOC / MINLOC / DOT_PRODUCT / SIZE.
#[inline(never)]
fn reduce(m: &Mem, c: &mut Counter, intr: Intrinsic, args: &[Ex], span: Span) -> R<Scalar> {
    use Intrinsic::*;
    let vals = eval_args(m, c, args)?;
    let first = vals.first().and_then(Val::array);
    match intr {
        Sum | Product | MaxVal | MinVal => {
            let a = first.ok_or_else(|| fault("reduction of non-array", span))?;
            c.tick(a.len() as u64, span)?;
            data::reduce(intr, &a.data).ok_or_else(|| fault("non-numeric reduction", span))
        }
        MaxLoc | MinLoc => {
            let a = first.ok_or_else(|| fault("maxloc of non-array", span))?;
            if a.extents.len() != 1 {
                return Err(fault(
                    "MAXLOC/MINLOC restricted to rank-1 in the subset",
                    span,
                ));
            }
            c.tick(a.len() as u64, span)?;
            let mut best: Option<(usize, f64)> = None;
            for i in 0..a.len() {
                let x = a
                    .data
                    .get(i)
                    .as_f64()
                    .ok_or_else(|| fault("non-numeric maxloc", span))?;
                let better = match best {
                    None => true,
                    Some((_, b)) => {
                        if intr == MaxLoc {
                            x > b
                        } else {
                            x < b
                        }
                    }
                };
                if better {
                    best = Some((i, x));
                }
            }
            // Fortran returns a rank-1 result array; the subset returns the
            // 1-based position as a scalar INTEGER.
            Ok(Scalar::Int(best.map(|(i, _)| i as i64 + 1).unwrap_or(0)))
        }
        DotProduct => match (first, vals.get(1).and_then(Val::array)) {
            (Some(a), Some(b)) if a.extents == b.extents => {
                c.tick(2 * a.len() as u64, span)?;
                Ok(Scalar::Real(data::dot(&a.data, &b.data)))
            }
            _ => Err(fault("DOT_PRODUCT of non-conformable arrays", span)),
        },
        Size => {
            let a = first.ok_or_else(|| fault("SIZE of non-array", span))?;
            match vals.get(1) {
                None => Ok(Scalar::Int(a.len() as i64)),
                Some(d) => {
                    let d = d.scalar().and_then(Scalar::as_i64).unwrap_or(1) as usize;
                    if d == 0 || d > a.extents.len() {
                        return Err(fault("SIZE dim out of range", span));
                    }
                    Ok(Scalar::Int(a.extents[d - 1] as i64))
                }
            }
        }
        _ => Err(fault(
            format!(
                "{} is not supported by the functional interpreter",
                intr.name()
            ),
            span,
        )),
    }
}

/// A scalar as a front-end value.
fn value(v: Scalar, strings: &[String]) -> Value {
    match v {
        Scalar::Int(i) => Value::Int(i),
        Scalar::Real(r) => Value::Real(r),
        Scalar::Logical(b) => Value::Logical(b),
        Scalar::Str(i) => Value::Str(strings[i as usize].clone()),
    }
}

/// Whole-array (`subs: None`) or section assignment. The right-hand
/// side is fully evaluated before any element is stored.
fn assign_array(
    m: &mut Mem,
    c: &mut Counter,
    arr: usize,
    subs: Option<&[Sub]>,
    rhs: &Ex,
    span: Span,
) -> R<()> {
    // Own the value before storing: it may read the target itself.
    let v = eval_ex(m, c, rhs)?.into_owned();
    let target = &m.arrays[arr];
    let offsets = match subs {
        None => None,
        Some(subs) => Some(section(m, c, target, subs, span)?.0),
    };
    let n = offsets.as_ref().map_or(target.data.len(), Vec::len);
    c.tick(n as u64, span)?;
    let data = &mut m.arrays[arr].data;
    match v {
        Val::S(s) => match &offsets {
            None => (0..n).for_each(|k| data.set(k, s)),
            Some(o) => o.iter().for_each(|&k| data.set(k, s)),
        },
        Val::A(a) => {
            if a.len() != n {
                return Err(fault(
                    format!(
                        "shape mismatch in assignment: section has {n} elements, RHS has {}",
                        a.len()
                    ),
                    span,
                ));
            }
            data.scatter(offsets.as_deref(), &a.data);
        }
    }
    Ok(())
}

// ---- statements ------------------------------------------------------------

impl Evaluator<'_> {
    fn block(&mut self, stmts: &[Stmt]) -> R<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, st: &Stmt) -> R<()> {
        if self.stopped {
            return Ok(());
        }
        let (row, span) = (st.row, st.span);
        self.seen[row] = true;
        self.stats[row].executions += 1;
        let (m, c) = (&mut self.mem, &mut self.ctr);
        c.tick(st.steps, span)?;
        match &st.kind {
            Kind::Scalar { slot, coerce, rhs } => {
                let v = eval_s(m, c, rhs)?;
                m.scalars[*slot] = coerce.apply(v);
            }
            Kind::Element { elem, rhs } => {
                let v = eval_s(m, c, rhs)?;
                let off = elem_offset(m, c, elem, span)?;
                m.arrays[elem.arr].data.set(off, v);
            }
            Kind::Array { arr, subs, rhs } => assign_array(m, c, *arr, subs.as_deref(), rhs, span)?,
            Kind::Forall(f) => {
                let top = Tuples {
                    stride: 0,
                    count: 1,
                    data: Vec::new(),
                };
                self.forall(f, &top)?;
            }
            Kind::Where {
                mask,
                body,
                elsewhere,
            } => self.where_(row, span, mask, body, elsewhere)?,
            Kind::Do { var, bounds, body } => {
                let lo = eval_int(m, c, &bounds.0, span)?;
                let hi = eval_int(m, c, &bounds.1, span)?;
                let step = match &bounds.2 {
                    Some(s) => eval_int(m, c, s, span)?,
                    None => 1,
                };
                if step == 0 {
                    return Err(fault("DO step of zero", span));
                }
                let mut i = lo;
                while !self.stopped && if step > 0 { i <= hi } else { i >= hi } {
                    self.ctr.tick(1, span)?;
                    self.stats[row].iterations += 1;
                    // The DO variable holds an INTEGER whatever its type.
                    self.mem.scalars[*var] = Scalar::Int(i);
                    self.block(body)?;
                    i = i.wrapping_add(step);
                }
            }
            Kind::DoWhile { cond, steps, body } => {
                while !self.stopped {
                    self.ctr.tick(*steps, span)?;
                    match eval_s(&self.mem, &mut self.ctr, cond)? {
                        Scalar::Logical(true) => {}
                        Scalar::Logical(false) => break,
                        _ => return Err(fault("DO WHILE condition must be scalar LOGICAL", span)),
                    }
                    self.ctr.tick(1, span)?;
                    self.stats[row].iterations += 1;
                    self.block(body)?;
                }
            }
            Kind::If { arms, else_body } => {
                for (cond, steps, body) in arms {
                    self.ctr.tick(*steps, span)?;
                    let taken = match eval_s(&self.mem, &mut self.ctr, cond)? {
                        Scalar::Logical(b) => b,
                        _ => return Err(fault("IF condition must be scalar LOGICAL", span)),
                    };
                    let st = &mut self.stats[row];
                    st.mask_total += 1;
                    if taken {
                        st.mask_true += 1;
                        return self.block(body);
                    }
                }
                self.block(else_body)?;
            }
            Kind::Print(items) => {
                // Items are separated by one blank, as are array elements.
                let strings = &self.prog.strings;
                let mut words = Vec::with_capacity(items.len());
                for e in items {
                    words.push(match eval_ex(m, c, e)? {
                        Val::S(v) => value(v, strings).to_string(),
                        Val::A(a) => (0..a.len())
                            .map(|j| value(a.data.get(j), strings).to_string())
                            .collect::<Vec<_>>()
                            .join(" "),
                    });
                }
                self.output.push(words.join(" "));
            }
            Kind::Io => {}
            Kind::Stop => self.stopped = true,
            Kind::Fail(msg) => return Err(fault(&**msg, span)),
        }
        Ok(())
    }

    /// FORALL over every tuple of `outer` (the enclosing FORALLs' active
    /// index tuples; a single empty tuple at top level). Each body
    /// assignment evaluates its right-hand side over the whole combined
    /// index set into the scratch buffer before storing anything.
    fn forall(&mut self, f: &Forall, outer: &Tuples) -> R<()> {
        let base = f.base;
        let stride = base + f.triplets.len();
        let mut active = Tuples {
            stride,
            count: 0,
            data: Vec::new(),
        };
        let mut ranges: Vec<(i64, i64, i64)> = Vec::with_capacity(f.triplets.len());
        for t in 0..outer.count {
            self.seen[f.row] = true;
            let (m, c) = (&mut self.mem, &mut self.ctr);
            m.idx[..base].copy_from_slice(outer.get(t));
            // All triplet bounds are evaluated before any index takes a value.
            c.tick(f.triplet_steps, f.span)?;
            ranges.clear();
            for (lo, hi, st) in &f.triplets {
                let lo = eval_int(m, c, lo, f.span)?;
                let hi = eval_int(m, c, hi, f.span)?;
                let step = match st {
                    Some(s) => eval_int(m, c, s, f.span)?,
                    None => 1,
                };
                if step == 0 {
                    return Err(fault("FORALL stride of zero", f.span));
                }
                let count = hi
                    .wrapping_sub(lo)
                    .wrapping_div(step)
                    .wrapping_add(1)
                    .max(0);
                ranges.push((lo, count, step));
            }
            let total = ranges.iter().fold(1i64, |p, r| p.wrapping_mul(r.1)).max(0) as u64;
            c.tick(total, f.span)?;
            if let Some((_, mask_steps)) = &f.mask {
                c.tick(total.saturating_mul(*mask_steps), f.span)?;
            }
            // Enumerate the index space, first triplet fastest.
            let mut kept = 0u64;
            let mut counters = vec![0i64; ranges.len()];
            for _ in 0..total {
                for (d, (&(lo, _, step), &k)) in ranges.iter().zip(&counters).enumerate() {
                    m.idx[base + d] = lo.wrapping_add(k.wrapping_mul(step));
                }
                let keep = match &f.mask {
                    None => true,
                    Some((mask, _)) => match eval_s(m, c, mask)? {
                        Scalar::Logical(b) => b,
                        _ => return Err(fault("FORALL mask must be scalar LOGICAL", f.span)),
                    },
                };
                if keep {
                    kept += 1;
                    active.data.extend_from_slice(&m.idx[..stride]);
                    active.count += 1;
                }
                for d in 0..counters.len() {
                    counters[d] += 1;
                    if counters[d] < ranges[d].1 {
                        break;
                    }
                    counters[d] = 0;
                }
            }
            let st = &mut self.stats[f.row];
            if f.mask.is_some() {
                st.mask_total += total;
                st.mask_true += kept;
            }
            st.iterations += kept;
        }

        for item in &f.body {
            match item {
                ForallItem::Assign {
                    target,
                    rhs,
                    steps,
                    span,
                } => {
                    if active.count == 0 {
                        continue;
                    }
                    let elem = target.as_ref().map_err(|msg| fault(&**msg, *span))?;
                    let (m, c) = (&mut self.mem, &mut self.ctr);
                    c.tick((active.count as u64).saturating_mul(*steps), *span)?;
                    let mut scratch = std::mem::take(&mut self.scratch);
                    scratch.clear();
                    for t in 0..active.count {
                        m.idx[..stride].copy_from_slice(active.get(t));
                        let v = eval_s(m, c, rhs)?;
                        let off = elem_offset(m, c, elem, *span)?;
                        scratch.push((off, v));
                    }
                    let data = &mut m.arrays[elem.arr].data;
                    for &(off, v) in &scratch {
                        data.set(off, v);
                    }
                    self.scratch = scratch;
                }
                ForallItem::Nested(inner) => self.forall(inner, &active)?,
                ForallItem::Fail(msg, span) => return Err(fault(&**msg, *span)),
            }
        }
        Ok(())
    }

    /// WHERE / ELSEWHERE: the mask is evaluated once; each body
    /// assignment then stores its right-hand side where the mask holds
    /// (ELSEWHERE: where it does not).
    fn where_(
        &mut self,
        row: usize,
        span: Span,
        mask: &Ex,
        body: &[WhereItem],
        elsewhere: &[WhereItem],
    ) -> R<()> {
        let (m, c) = (&mut self.mem, &mut self.ctr);
        let mask: Vec<bool> = match eval_ex(m, c, mask)? {
            Val::A(a) => (0..a.len()).map(|i| a.data.get(i).truthy()).collect(),
            Val::S(_) => return Err(fault("WHERE mask must be an array", span)),
        };
        let trues = mask.iter().filter(|&&b| b).count() as u64;
        let st = &mut self.stats[row];
        st.mask_total += mask.len() as u64;
        st.mask_true += trues;
        c.tick(mask.len() as u64, span)?;

        for (items, negate) in [(body, false), (elsewhere, true)] {
            for item in items {
                let (target, rhs, steps, span) = match item {
                    WhereItem::Assign {
                        target,
                        rhs,
                        steps,
                        span,
                    } => (target, rhs, steps, span),
                    WhereItem::Fail(msg, span) => return Err(fault(&**msg, *span)),
                };
                c.tick(*steps, *span)?;
                // Own the value: the target may be one of its operands.
                let v = eval_ex(m, c, rhs)?.into_owned();
                let arr = *target.as_ref().map_err(|msg| fault(&**msg, *span))?;
                let target = &mut m.arrays[arr];
                if mask.len() < target.data.len() {
                    return Err(fault("WHERE mask and target not conformable", *span));
                }
                for (off, &on) in mask.iter().enumerate().take(target.data.len()) {
                    if on == negate {
                        continue;
                    }
                    let x = match &v {
                        Val::S(s) => *s,
                        Val::A(a) => {
                            if *a.extents != target.extents[..] {
                                return Err(fault("WHERE operands not conformable", *span));
                            }
                            a.data.get(off)
                        }
                    };
                    target.data.set(off, x);
                }
            }
        }
        Ok(())
    }
}
