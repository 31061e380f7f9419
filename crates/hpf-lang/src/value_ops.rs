//! Scalar operator semantics shared by the const-evaluator (`sema`) and the
//! functional interpreter (`hpf-eval`).
//!
//! Fortran mixed-mode rules: INTEGER op INTEGER stays INTEGER (with truncating
//! division and wrapping overflow); any REAL operand promotes the operation
//! to REAL. The operators act on the `Copy` [`Scalar`]; the `apply_*`
//! functions are the same operators over [`Value`].

use crate::ast::{BinOp, Intrinsic, UnOp};
use crate::value::Value;

/// A `Copy` scalar operand. `Str` is an opaque string handle (the
/// evaluator's string-literal index); every operator rejects it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    Int(i64),
    Real(f64),
    Logical(bool),
    Str(u32),
}

impl Scalar {
    /// Numeric coercion to f64 (Fortran mixed-mode arithmetic).
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(v as f64),
            Scalar::Real(v) => Some(v),
            _ => None,
        }
    }

    /// Integer view, truncating reals.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(v),
            Scalar::Real(v) => Some(v as i64),
            _ => None,
        }
    }

    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Logical(b) => Some(b),
            _ => None,
        }
    }

    /// Truthiness of a mask element.
    #[inline]
    pub fn truthy(self) -> bool {
        matches!(self, Scalar::Logical(true))
    }
}

/// The operand view of a value (strings become an opaque handle).
fn operand(v: &Value) -> Scalar {
    match v {
        Value::Int(i) => Scalar::Int(*i),
        Value::Real(r) => Scalar::Real(*r),
        Value::Logical(b) => Scalar::Logical(*b),
        Value::Str(_) => Scalar::Str(0),
    }
}

/// An operator result as a value (operators never produce strings).
fn result(s: Scalar) -> Value {
    match s {
        Scalar::Int(i) => Value::Int(i),
        Scalar::Real(r) => Value::Real(r),
        Scalar::Logical(b) => Value::Logical(b),
        Scalar::Str(_) => unreachable!("operators never produce strings"),
    }
}

/// Apply a unary operator to a value; `None` on a type error.
pub fn apply_unary(op: UnOp, v: &Value) -> Option<Value> {
    unary(op, operand(v)).map(result)
}

/// Apply a binary operator to values; `None` on a type error.
pub fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    binary(op, operand(l), operand(r)).map(result)
}

/// Apply an *elemental* intrinsic to scalar values; `None` if the
/// intrinsic is transformational (array-valued) or arguments are malformed.
pub fn apply_intrinsic_scalar(intr: Intrinsic, args: &[Value]) -> Option<Value> {
    let args: Vec<Scalar> = args.iter().map(operand).collect();
    intrinsic(intr, &args).map(result)
}

/// Apply a unary operator; `None` on a type error.
#[inline]
pub fn unary(op: UnOp, v: Scalar) -> Option<Scalar> {
    match (op, v) {
        (UnOp::Neg, Scalar::Int(i)) => Some(Scalar::Int(i.wrapping_neg())),
        (UnOp::Neg, Scalar::Real(r)) => Some(Scalar::Real(-r)),
        (UnOp::Plus, Scalar::Int(_) | Scalar::Real(_)) => Some(v),
        (UnOp::Not, Scalar::Logical(b)) => Some(Scalar::Logical(!b)),
        _ => None,
    }
}

/// REAL arithmetic (`op` is one of `+ - * / **`).
#[inline]
pub fn arith_f(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => a.powf(b),
    }
}

/// INTEGER arithmetic (`op` is one of `+ - * / **`); `None` on division
/// by zero.
#[inline]
pub fn arith_i(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        _ => {
            if b >= 0 {
                a.wrapping_pow(b.min(u32::MAX as i64) as u32)
            } else if a.abs() == 1 {
                // INTEGER ** negative is 0 (or ±1) in Fortran.
                a.pow((-b % 2) as u32)
            } else {
                0
            }
        }
    })
}

#[inline]
pub fn is_arith(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow
    )
}

/// Apply a binary operator; `None` on a type error.
#[inline]
pub fn binary(op: BinOp, l: Scalar, r: Scalar) -> Option<Scalar> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Pow => match (l, r) {
            (Scalar::Real(a), Scalar::Real(b)) => Some(Scalar::Real(arith_f(op, a, b))),
            (Scalar::Int(a), Scalar::Int(b)) => arith_i(op, a, b).map(Scalar::Int),
            _ => Some(Scalar::Real(arith_f(op, l.as_f64()?, r.as_f64()?))),
        },
        Eq | Ne | Lt | Le | Gt | Ge => {
            if let (Scalar::Logical(a), Scalar::Logical(b)) = (l, r) {
                return match op {
                    Eq => Some(Scalar::Logical(a == b)),
                    Ne => Some(Scalar::Logical(a != b)),
                    _ => None,
                };
            }
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            Some(Scalar::Logical(match op {
                Eq => a == b,
                Ne => a != b,
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                _ => a >= b,
            }))
        }
        And | Or | Eqv | Neqv => {
            let a = l.as_bool()?;
            let b = r.as_bool()?;
            Some(Scalar::Logical(match op {
                And => a && b,
                Or => a || b,
                Eqv => a == b,
                _ => a != b,
            }))
        }
    }
}

/// Apply an *elemental* intrinsic to scalar arguments; `None` if the
/// intrinsic is transformational or the arguments are malformed.
pub fn intrinsic(intr: Intrinsic, args: &[Scalar]) -> Option<Scalar> {
    use Intrinsic::*;
    let f1 = |f: fn(f64) -> f64| args.first()?.as_f64().map(|v| Scalar::Real(f(v)));
    match intr {
        Abs => match *args.first()? {
            Scalar::Int(v) => Some(Scalar::Int(v.abs())),
            Scalar::Real(v) => Some(Scalar::Real(v.abs())),
            _ => None,
        },
        Sqrt => f1(f64::sqrt),
        Exp => f1(f64::exp),
        Log => f1(f64::ln),
        Log10 => f1(f64::log10),
        Sin => f1(f64::sin),
        Cos => f1(f64::cos),
        Tan => f1(f64::tan),
        Atan => f1(f64::atan),
        Min | Max => {
            if args.iter().all(|a| matches!(a, Scalar::Int(_))) {
                let it = args.iter().filter_map(|a| a.as_i64());
                Some(Scalar::Int(if intr == Min { it.min()? } else { it.max()? }))
            } else {
                let mut best = args.first()?.as_f64()?;
                for a in &args[1..] {
                    let v = a.as_f64()?;
                    best = if intr == Min {
                        best.min(v)
                    } else {
                        best.max(v)
                    };
                }
                Some(Scalar::Real(best))
            }
        }
        Mod => match (*args.first()?, *args.get(1)?) {
            (Scalar::Int(a), Scalar::Int(b)) if b != 0 => Some(Scalar::Int(a % b)),
            (a, b) => Some(Scalar::Real(a.as_f64()? % b.as_f64()?)),
        },
        Sign => {
            let a = args.first()?.as_f64()?;
            let b = args.get(1)?.as_f64()?;
            let m = a.abs();
            Some(Scalar::Real(if b < 0.0 { -m } else { m }))
        }
        Int | Nint => {
            let a = args.first()?.as_f64()?;
            Some(Scalar::Int(if intr == Nint {
                a.round() as i64
            } else {
                a as i64
            }))
        }
        Real | Dble | Float => Some(Scalar::Real(args.first()?.as_f64()?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    #[test]
    fn integer_division_truncates() {
        assert_eq!(
            apply_binary(BinOp::Div, &Value::Int(7), &Value::Int(2)),
            Some(Value::Int(3))
        );
        assert_eq!(
            apply_binary(BinOp::Div, &Value::Int(7), &Value::Int(0)),
            None
        );
    }

    #[test]
    fn mixed_mode_promotes() {
        assert_eq!(
            apply_binary(BinOp::Add, &Value::Int(1), &Value::Real(0.5)),
            Some(Value::Real(1.5))
        );
    }

    #[test]
    fn integer_pow() {
        assert_eq!(
            apply_binary(BinOp::Pow, &Value::Int(2), &Value::Int(10)),
            Some(Value::Int(1024))
        );
        assert_eq!(
            apply_binary(BinOp::Pow, &Value::Int(2), &Value::Int(-1)),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn relationals() {
        assert_eq!(
            apply_binary(BinOp::Le, &Value::Int(3), &Value::Real(3.0)),
            Some(Value::Logical(true))
        );
        assert_eq!(
            apply_binary(BinOp::Eq, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(false))
        );
        assert_eq!(
            apply_binary(BinOp::Lt, &Value::Logical(true), &Value::Logical(false)),
            None
        );
    }

    #[test]
    fn logicals() {
        assert_eq!(
            apply_binary(BinOp::And, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(false))
        );
        assert_eq!(
            apply_binary(BinOp::Neqv, &Value::Logical(true), &Value::Logical(false)),
            Some(Value::Logical(true))
        );
    }

    #[test]
    fn intrinsic_scalars() {
        use crate::ast::Intrinsic as I;
        assert_eq!(
            apply_intrinsic_scalar(I::Abs, &[Value::Int(-3)]),
            Some(Value::Int(3))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Sqrt, &[Value::Real(4.0)]),
            Some(Value::Real(2.0))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Min, &[Value::Int(3), Value::Int(1), Value::Int(2)]),
            Some(Value::Int(1))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Mod, &[Value::Int(7), Value::Int(3)]),
            Some(Value::Int(1))
        );
        assert_eq!(
            apply_intrinsic_scalar(I::Nint, &[Value::Real(2.6)]),
            Some(Value::Int(3))
        );
        assert_eq!(apply_intrinsic_scalar(I::Sum, &[Value::Int(1)]), None);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(
            apply_unary(UnOp::Neg, &Value::Real(2.0)),
            Some(Value::Real(-2.0))
        );
        assert_eq!(
            apply_unary(UnOp::Not, &Value::Logical(false)),
            Some(Value::Logical(true))
        );
        assert_eq!(apply_unary(UnOp::Not, &Value::Int(1)), None);
    }
}
