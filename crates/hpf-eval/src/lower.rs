//! Lowering: resolve an analyzed program once into the evaluator's IR.
//!
//! Every scalar variable, array and FORALL index gets a dense slot, every
//! statement a dense profile row, and every expression is split into a
//! scalar-valued ([`Sx`]) or array-valued ([`Ax`]) tree whose names are
//! already resolved. PARAMETERs become constants. Statically known
//! errors (an undefined name, an array where a scalar is required) become
//! `Fail` nodes that raise the same error when — and only when — the
//! evaluator reaches them.
//!
//! Each root expression carries its node count: the evaluator charges one
//! step per AST node, and since every node of an expression is evaluated
//! exactly once, it can charge the whole count up front.

use hpf_lang::ast::{self, BinOp, Expr, Intrinsic, Stmt as AstStmt, Subscript, TypeSpec, UnOp};
use hpf_lang::sema::{AnalyzedProgram, SymbolKind};
use hpf_lang::value::Value;
use hpf_lang::value_ops::Scalar;
use hpf_lang::Span;
use std::collections::BTreeMap;

/// `(lower, upper)` bound of each array dimension.
pub(crate) type Shape = Vec<(i64, i64)>;

/// A lowered program.
pub(crate) struct Program {
    pub stmts: Vec<Stmt>,
    /// Scalar variables in name order: name, initial value.
    pub scalars: Vec<(String, Scalar)>,
    /// Arrays: name, element type, shape.
    pub arrays: Vec<(String, TypeSpec, Shape)>,
    /// Span key of each profile row.
    pub rows: Vec<(u32, u32)>,
    /// String literals referenced by [`Scalar::Str`].
    pub strings: Vec<String>,
    /// Number of FORALL index registers (deepest nesting × triplets).
    pub index_regs: usize,
}

/// Type coercion applied when a scalar variable is assigned.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Coerce {
    Int,
    Real,
    /// LOGICAL variables store what they are given.
    Keep,
}

impl Coerce {
    #[inline]
    pub(crate) fn apply(self, v: Scalar) -> Scalar {
        match self {
            Coerce::Int => Scalar::Int(v.as_i64().unwrap_or(0)),
            Coerce::Real => Scalar::Real(v.as_f64().unwrap_or(0.0)),
            Coerce::Keep => v,
        }
    }
}

/// A scalar-valued expression.
pub(crate) enum Sx {
    Const(Scalar),
    /// FORALL index register.
    Index(usize),
    /// Scalar variable slot.
    Var(usize),
    /// Array element.
    Elem(Box<ElemRef>, Span),
    Unary(UnOp, Box<Sx>, Span),
    Binary(BinOp, Box<(Sx, Sx)>, Span),
    /// Elemental intrinsic applied to scalars.
    Call(Intrinsic, Box<[Sx]>, Span),
    /// Scalar-valued transformational intrinsic (SUM, MAXLOC, SIZE, …).
    Reduce(Intrinsic, Box<[Ex]>, Span),
    Fail(Box<str>, Span),
}

/// An array element reference, with the array's (static) bounds copied
/// into each subscript so that no lookup is needed to address it.
pub(crate) struct ElemRef {
    pub arr: usize,
    pub dims: Box<[Dim]>,
}

/// One subscript of an [`ElemRef`] and the bounds of its dimension.
pub(crate) struct Dim {
    pub sub: Subscr,
    pub lb: i64,
    pub extent: usize,
    pub stride: usize,
}

/// An element subscript. FORALL-index forms (`I`, `I + c`, `I - c`,
/// `c + I`) and INTEGER constants are recognised so that addressing them
/// evaluates no expression; the arithmetic (wrapping) is unchanged.
pub(crate) enum Subscr {
    /// Index register plus a constant.
    Affine(usize, i64),
    Const(i64),
    Expr(Sx),
}

impl Subscr {
    fn new(sx: Sx) -> Subscr {
        use Scalar::Int;
        match sx {
            Sx::Index(r) => Subscr::Affine(r, 0),
            Sx::Const(Int(c)) => Subscr::Const(c),
            Sx::Binary(op, lr, span) => {
                let affine = match (op, &*lr) {
                    (BinOp::Add, (Sx::Index(r), Sx::Const(Int(k))))
                    | (BinOp::Add, (Sx::Const(Int(k)), Sx::Index(r))) => Some((*r, *k)),
                    (BinOp::Sub, (Sx::Index(r), Sx::Const(Int(k)))) => Some((*r, k.wrapping_neg())),
                    _ => None,
                };
                match affine {
                    Some((r, k)) => Subscr::Affine(r, k),
                    None => Subscr::Expr(Sx::Binary(op, lr, span)),
                }
            }
            other => Subscr::Expr(other),
        }
    }
}

/// An array-valued expression.
pub(crate) enum Ax {
    /// A whole array, read in place.
    Whole(usize),
    /// An array section `arr(subs)` with at least one triplet.
    Section(Box<(usize, Box<[Sub]>)>, Span),
    Unary(UnOp, Box<Ax>, Span),
    Binary(BinOp, Box<(Ex, Ex)>, Span),
    /// Elemental intrinsic with at least one array argument.
    Elemental(Intrinsic, Box<[Ex]>, Span),
    /// Array-valued transformational intrinsic (shifts, TRANSPOSE, MATMUL).
    Transform(Intrinsic, Box<[Ex]>, Span),
}

/// Either kind of expression.
pub(crate) enum Ex {
    S(Sx),
    A(Ax),
}

/// One subscript of a section.
pub(crate) enum Sub {
    Index(Sx),
    Range(Option<Sx>, Option<Sx>, Option<Sx>),
}

/// A lowered statement: its profile row, its span, the steps it charges
/// on entry (the node counts of the expressions it evaluates once, plus
/// one per scalar store or I/O statement), and what it does.
pub(crate) struct Stmt {
    pub row: usize,
    pub span: Span,
    pub steps: u64,
    pub kind: Kind,
}

pub(crate) enum Kind {
    /// `var = rhs`.
    Scalar {
        slot: usize,
        coerce: Coerce,
        rhs: Sx,
    },
    /// `arr(i, j, …) = rhs`.
    Element {
        elem: ElemRef,
        rhs: Sx,
    },
    /// `arr = rhs` (`subs: None`) or `arr(section) = rhs`.
    Array {
        arr: usize,
        subs: Option<Box<[Sub]>>,
        rhs: Ex,
    },
    Forall(Box<Forall>),
    /// WHERE / ELSEWHERE; the mask's node count is the entry charge.
    Where {
        mask: Ex,
        body: Vec<WhereItem>,
        elsewhere: Vec<WhereItem>,
    },
    Do {
        var: usize,
        bounds: Box<(Sx, Sx, Option<Sx>)>,
        body: Vec<Stmt>,
    },
    /// The condition's node count is charged per evaluation.
    DoWhile {
        cond: Sx,
        steps: u64,
        body: Vec<Stmt>,
    },
    If {
        /// (condition, its node count, body).
        arms: Vec<(Sx, u64, Vec<Stmt>)>,
        else_body: Vec<Stmt>,
    },
    Print(Vec<Ex>),
    /// Parallel I/O: a counted no-op for the functional semantics.
    Io,
    Stop,
    Fail(Box<str>),
}

/// A FORALL statement or construct.
pub(crate) struct Forall {
    pub row: usize,
    pub span: Span,
    /// First index register of this FORALL's triplets; registers below it
    /// belong to enclosing FORALLs.
    pub base: usize,
    pub triplets: Vec<(Sx, Sx, Option<Sx>)>,
    pub triplet_steps: u64,
    pub mask: Option<(Sx, u64)>,
    pub body: Vec<ForallItem>,
}

pub(crate) enum ForallItem {
    /// `target = rhs` per active index tuple. `target` holds the error
    /// raised if there is at least one tuple and the target is invalid.
    Assign {
        target: Result<ElemRef, Box<str>>,
        rhs: Sx,
        steps: u64,
        span: Span,
    },
    Nested(Box<Forall>),
    Fail(Box<str>, Span),
}

pub(crate) enum WhereItem {
    Assign {
        target: Result<usize, Box<str>>,
        rhs: Ex,
        steps: u64,
        span: Span,
    },
    Fail(Box<str>, Span),
}

/// AST node count of an expression: the steps its evaluation charges.
pub(crate) fn nodes(e: &Expr) -> u64 {
    1 + match e {
        Expr::IntLit(..) | Expr::RealLit(..) | Expr::LogicalLit(..) | Expr::StrLit(..) => 0,
        Expr::Ref(r) => sub_nodes(&r.subs),
        Expr::Intrinsic { args, .. } => args.iter().map(nodes).sum(),
        Expr::Unary { operand, .. } => nodes(operand),
        Expr::Binary { lhs, rhs, .. } => nodes(lhs) + nodes(rhs),
    }
}

fn sub_nodes(subs: &[Subscript]) -> u64 {
    subs.iter()
        .map(|s| match s {
            Subscript::Index(e) => nodes(e),
            Subscript::Triplet { lo, hi, stride } => [lo, hi, stride]
                .iter()
                .flat_map(|p| p.iter())
                .map(nodes)
                .sum(),
        })
        .sum()
}

/// Lower an analyzed program.
pub(crate) fn lower(analyzed: &AnalyzedProgram) -> Program {
    let mut l = Lower {
        analyzed,
        scalar_slots: BTreeMap::new(),
        coerces: Vec::new(),
        array_slots: BTreeMap::new(),
        arrays: Vec::new(),
        scope: Vec::new(),
        row_of: BTreeMap::new(),
        rows: Vec::new(),
        strings: Vec::new(),
        index_regs: 0,
    };
    let mut scalars = Vec::new();
    for (name, sym) in &analyzed.symbols {
        match &sym.kind {
            SymbolKind::Scalar => {
                let (coerce, init) = match sym.ty {
                    TypeSpec::Integer => (Coerce::Int, Scalar::Int(0)),
                    TypeSpec::Logical => (Coerce::Keep, Scalar::Logical(false)),
                    _ => (Coerce::Real, Scalar::Real(0.0)),
                };
                l.scalar_slots.insert(name.as_str(), scalars.len());
                l.coerces.push(coerce);
                scalars.push((name.clone(), init));
            }
            SymbolKind::Array { shape } => {
                l.array_slots.insert(name.as_str(), l.arrays.len());
                l.arrays.push((name.clone(), sym.ty, shape.clone()));
            }
            _ => {}
        }
    }
    let stmts = l.stmts(&analyzed.program.body);
    Program {
        stmts,
        scalars,
        arrays: l.arrays,
        rows: l.rows,
        strings: l.strings,
        index_regs: l.index_regs,
    }
}

struct Lower<'a> {
    analyzed: &'a AnalyzedProgram,
    scalar_slots: BTreeMap<&'a str, usize>,
    coerces: Vec<Coerce>,
    array_slots: BTreeMap<&'a str, usize>,
    arrays: Vec<(String, TypeSpec, Shape)>,
    /// FORALL index names in scope; an index's register is its position.
    scope: Vec<&'a str>,
    row_of: BTreeMap<(u32, u32), usize>,
    rows: Vec<(u32, u32)>,
    strings: Vec<String>,
    index_regs: usize,
}

fn fail(msg: impl Into<String>, span: Span) -> Sx {
    Sx::Fail(msg.into().into_boxed_str(), span)
}

impl<'a> Lower<'a> {
    /// The profile row of a statement span (statements sharing a span key
    /// share a row, as they share an `ExecutionProfile` entry).
    fn row(&mut self, span: Span) -> usize {
        let key = (span.line, span.start);
        let next = self.rows.len();
        *self.row_of.entry(key).or_insert_with(|| {
            self.rows.push(key);
            next
        })
    }

    fn stmts(&mut self, body: &'a [AstStmt]) -> Vec<Stmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, st: &'a AstStmt) -> Stmt {
        let span = st.span();
        let row = self.row(span);
        let (steps, kind) = self
            .kind(st, row)
            .unwrap_or_else(|msg| (0, Kind::Fail(msg.into())));
        Stmt {
            row,
            span,
            steps,
            kind,
        }
    }

    /// A statement's entry steps and lowered form; `Err` is the error it
    /// raises when reached.
    fn kind(&mut self, st: &'a AstStmt, row: usize) -> Result<(u64, Kind), String> {
        let int = "expected scalar integer, found array";
        Ok(match st {
            AstStmt::Assign { lhs, rhs, .. } => {
                let steps = nodes(rhs) + sub_nodes(&lhs.subs);
                if let Some(&arr) = self.array_slots.get(lhs.name.as_str()) {
                    if !lhs.subs.is_empty() && lhs.subs.iter().all(Subscript::is_index) {
                        let elem = self.elem(arr, &lhs.subs)?;
                        let rhs = self.scalar(rhs, "cannot assign array to array element");
                        return Ok((steps + 1, Kind::Element { elem, rhs }));
                    }
                    let subs = (!lhs.subs.is_empty()).then(|| self.subs(&lhs.subs));
                    let rhs = self.expr(rhs);
                    return Ok((steps, Kind::Array { arr, subs, rhs }));
                }
                let Some(&slot) = self.scalar_slots.get(lhs.name.as_str()) else {
                    return Err(format!("`{}` is not a variable", lhs.name));
                };
                if !lhs.subs.is_empty() {
                    return Err(format!("`{}` is not an array", lhs.name));
                }
                let Ex::S(rhs) = self.expr(rhs) else {
                    return Err("cannot assign array to scalar".into());
                };
                let coerce = self.coerces[slot];
                (steps + 1, Kind::Scalar { slot, coerce, rhs })
            }
            AstStmt::Forall { header, body, span } => (
                0,
                Kind::Forall(Box::new(self.forall(header, body, row, *span))),
            ),
            AstStmt::Where {
                mask,
                body,
                elsewhere,
                ..
            } => (
                nodes(mask),
                Kind::Where {
                    mask: self.expr(mask),
                    body: self.where_items(body),
                    elsewhere: self.where_items(elsewhere),
                },
            ),
            AstStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let Some(&var) = self.scalar_slots.get(var.as_str()) else {
                    return Err(format!("DO variable `{var}` is not a scalar variable"));
                };
                let bounds = Box::new((
                    self.scalar(lo, int),
                    self.scalar(hi, int),
                    step.as_ref().map(|s| self.scalar(s, int)),
                ));
                let steps = nodes(lo) + nodes(hi) + step.as_ref().map_or(0, nodes);
                let body = self.stmts(body);
                (steps, Kind::Do { var, bounds, body })
            }
            AstStmt::DoWhile { cond, body, .. } => {
                let steps = nodes(cond);
                let cond = self.scalar(cond, "DO WHILE condition must be scalar LOGICAL");
                let body = self.stmts(body);
                (0, Kind::DoWhile { cond, steps, body })
            }
            AstStmt::If {
                arms, else_body, ..
            } => {
                let arms = arms
                    .iter()
                    .map(|(c, b)| {
                        let cond = self.scalar(c, "IF condition must be scalar LOGICAL");
                        (cond, nodes(c), self.stmts(b))
                    })
                    .collect();
                let else_body = self.stmts(else_body);
                (0, Kind::If { arms, else_body })
            }
            // The subset has no user procedures; CALL is accepted by the
            // parser for completeness but has no executable semantics.
            AstStmt::Call { name, .. } => {
                return Err(format!(
                    "CALL to `{name}` — user procedures are outside the subset"
                ))
            }
            AstStmt::Print { items, .. } => (
                items.iter().map(nodes).sum::<u64>() + 1,
                Kind::Print(items.iter().map(|e| self.expr(e)).collect()),
            ),
            AstStmt::Stop { .. } => (0, Kind::Stop),
            AstStmt::Io { .. } => (1, Kind::Io),
        })
    }

    fn forall(
        &mut self,
        header: &'a ast::ForallHeader,
        body: &'a [AstStmt],
        row: usize,
        span: Span,
    ) -> Forall {
        // Triplet bounds see enclosing FORALL indices, not their siblings.
        let int = "expected scalar integer, found array";
        let triplets = header
            .triplets
            .iter()
            .map(|t| {
                (
                    self.scalar(&t.lo, int),
                    self.scalar(&t.hi, int),
                    t.stride.as_ref().map(|s| self.scalar(s, int)),
                )
            })
            .collect();
        let triplet_steps = header
            .triplets
            .iter()
            .map(|t| nodes(&t.lo) + nodes(&t.hi) + t.stride.as_ref().map_or(0, nodes))
            .sum();
        let base = self.scope.len();
        self.scope
            .extend(header.triplets.iter().map(|t| t.var.as_str()));
        self.index_regs = self.index_regs.max(self.scope.len());
        let mask = header.mask.as_ref().map(|m| {
            (
                self.scalar(m, "FORALL mask must be scalar LOGICAL"),
                nodes(m),
            )
        });
        let body = body
            .iter()
            .map(|st| match st {
                AstStmt::Assign { lhs, rhs, span } => {
                    let target = if lhs.subs.iter().any(|s| !s.is_index()) {
                        Err("expected element subscript, found section".to_string())
                    } else {
                        match self.array_slots.get(lhs.name.as_str()) {
                            Some(&arr) => self.elem(arr, &lhs.subs),
                            None => Err(format!("`{}` is not an array", lhs.name)),
                        }
                    };
                    ForallItem::Assign {
                        target: target.map_err(String::into_boxed_str),
                        rhs: self.scalar(
                            rhs,
                            "array-valued RHS inside FORALL body is outside the subset",
                        ),
                        steps: nodes(rhs) + sub_nodes(&lhs.subs),
                        span: *span,
                    }
                }
                AstStmt::Forall {
                    header, body, span, ..
                } => {
                    let row = self.row(*span);
                    ForallItem::Nested(Box::new(self.forall(header, body, row, *span)))
                }
                other => ForallItem::Fail(
                    "only assignments and nested FORALLs are allowed in a FORALL body".into(),
                    other.span(),
                ),
            })
            .collect();
        self.scope.truncate(base);
        Forall {
            row,
            span,
            base,
            triplets,
            triplet_steps,
            mask,
            body,
        }
    }

    fn where_items(&mut self, stmts: &'a [AstStmt]) -> Vec<WhereItem> {
        stmts
            .iter()
            .map(|st| match st {
                AstStmt::Assign { lhs, rhs, span } => {
                    let target = match self.array_slots.get(lhs.name.as_str()) {
                        None => Err("WHERE assignment target must be an array".into()),
                        Some(_) if !lhs.subs.is_empty() => Err(
                            "sections on WHERE assignment targets are outside the subset".into(),
                        ),
                        Some(&arr) => Ok(arr),
                    };
                    WhereItem::Assign {
                        target,
                        rhs: self.expr(rhs),
                        steps: nodes(rhs),
                        span: *span,
                    }
                }
                other => WhereItem::Fail(
                    "WHERE body must contain only assignments".into(),
                    other.span(),
                ),
            })
            .collect()
    }

    /// A constant, interning strings into the literal table.
    fn constant(&mut self, v: &Value) -> Scalar {
        match v {
            Value::Int(i) => Scalar::Int(*i),
            Value::Real(r) => Scalar::Real(*r),
            Value::Logical(b) => Scalar::Logical(*b),
            Value::Str(s) => {
                self.strings.push(s.clone());
                Scalar::Str(self.strings.len() as u32 - 1)
            }
        }
    }

    /// Lower `e`, which must be scalar; an array becomes a `Fail(msg)`.
    fn scalar(&mut self, e: &'a Expr, msg: &str) -> Sx {
        match self.expr(e) {
            Ex::S(s) => s,
            Ex::A(_) => fail(msg, e.span()),
        }
    }

    /// Element reference `arr(subs)`, all subscripts being indices; a rank
    /// mismatch is the out-of-bounds error it raises when reached.
    fn elem(&mut self, arr: usize, subs: &'a [Subscript]) -> Result<ElemRef, String> {
        let (name, _, shape) = &self.arrays[arr];
        if subs.len() != shape.len() {
            return Err(format!("index out of bounds for `{name}`"));
        }
        let bounds: Vec<(i64, usize)> = shape
            .iter()
            .map(|&(lb, ub)| (lb, (ub - lb + 1).max(0) as usize))
            .collect();
        let mut stride = 1;
        let mut dims = Vec::with_capacity(subs.len());
        for (s, (lb, extent)) in subs.iter().zip(bounds) {
            let Subscript::Index(e) = s else {
                unreachable!("callers pass index subscripts only")
            };
            let sx = self.scalar(e, "expected scalar integer, found array");
            dims.push(Dim {
                sub: Subscr::new(sx),
                lb,
                extent,
                stride,
            });
            stride *= extent;
        }
        Ok(ElemRef {
            arr,
            dims: dims.into(),
        })
    }

    fn subs(&mut self, subs: &'a [Subscript]) -> Box<[Sub]> {
        let int = "expected scalar integer, found array";
        subs.iter()
            .map(|s| match s {
                Subscript::Index(e) => Sub::Index(self.scalar(e, int)),
                Subscript::Triplet { lo, hi, stride } => Sub::Range(
                    lo.as_ref().map(|e| self.scalar(e, int)),
                    hi.as_ref().map(|e| self.scalar(e, int)),
                    stride.as_ref().map(|e| self.scalar(e, int)),
                ),
            })
            .collect()
    }

    fn expr(&mut self, e: &'a Expr) -> Ex {
        match e {
            Expr::IntLit(v, _) => Ex::S(Sx::Const(Scalar::Int(*v))),
            Expr::RealLit(v, _) => Ex::S(Sx::Const(Scalar::Real(*v))),
            Expr::LogicalLit(v, _) => Ex::S(Sx::Const(Scalar::Logical(*v))),
            Expr::StrLit(s, _) => Ex::S(Sx::Const(self.constant(&Value::Str(s.clone())))),
            Expr::Ref(r) => self.reference(r),
            Expr::Intrinsic { name, args, span } => {
                let args: Box<[Ex]> = args.iter().map(|a| self.expr(a)).collect();
                use Intrinsic::*;
                match name {
                    CShift | TShift | EoShift | Transpose | MatMul => {
                        Ex::A(Ax::Transform(*name, args, *span))
                    }
                    Sum | Product | MaxVal | MinVal | MaxLoc | MinLoc | DotProduct | Size
                    | Spread => Ex::S(Sx::Reduce(*name, args, *span)),
                    _ if args.iter().any(|a| matches!(a, Ex::A(_))) => {
                        Ex::A(Ax::Elemental(*name, args, *span))
                    }
                    _ => Ex::S(Sx::Call(
                        *name,
                        args.into_vec()
                            .into_iter()
                            .map(|a| match a {
                                Ex::S(s) => s,
                                Ex::A(_) => unreachable!("checked above"),
                            })
                            .collect(),
                        *span,
                    )),
                }
            }
            Expr::Unary { op, operand, span } => match self.expr(operand) {
                Ex::S(s) => Ex::S(Sx::Unary(*op, Box::new(s), *span)),
                Ex::A(a) => Ex::A(Ax::Unary(*op, Box::new(a), *span)),
            },
            Expr::Binary { op, lhs, rhs, span } => match (self.expr(lhs), self.expr(rhs)) {
                (Ex::S(l), Ex::S(r)) => Ex::S(Sx::Binary(*op, Box::new((l, r)), *span)),
                (l, r) => Ex::A(Ax::Binary(*op, Box::new((l, r)), *span)),
            },
        }
    }

    fn reference(&mut self, r: &'a ast::DataRef) -> Ex {
        let name = r.name.as_str();
        if r.subs.is_empty() {
            // FORALL indices shadow everything; PARAMETERs are constants.
            if let Some(reg) = self.scope.iter().rposition(|&v| v == name) {
                return Ex::S(Sx::Index(reg));
            }
            if let Some(SymbolKind::Parameter { value }) =
                self.analyzed.symbols.get(name).map(|s| &s.kind)
            {
                return Ex::S(Sx::Const(self.constant(value)));
            }
            if let Some(&slot) = self.scalar_slots.get(name) {
                return Ex::S(Sx::Var(slot));
            }
            if let Some(&arr) = self.array_slots.get(name) {
                return Ex::A(Ax::Whole(arr));
            }
        } else if let Some(&arr) = self.array_slots.get(name) {
            if r.subs.iter().all(Subscript::is_index) {
                return Ex::S(match self.elem(arr, &r.subs) {
                    Ok(elem) => Sx::Elem(Box::new(elem), r.span),
                    Err(msg) => fail(msg, r.span),
                });
            }
            let subs = self.subs(&r.subs);
            return Ex::A(Ax::Section(Box::new((arr, subs)), r.span));
        } else if self.scalar_slots.contains_key(name) {
            return Ex::S(fail(format!("`{name}` is not an array"), r.span));
        }
        Ex::S(fail(format!("undefined variable `{name}`"), r.span))
    }
}
