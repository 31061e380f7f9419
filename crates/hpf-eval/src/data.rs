//! Typed array storage and the whole-array kernels that work on it.
//!
//! REAL and DOUBLE PRECISION arrays are `Vec<f64>`, INTEGER arrays
//! `Vec<i64>`. LOGICAL arrays keep one [`Scalar`] per element because
//! stores into them are not coerced, so they may hold any scalar kind.
//! Elements are in column-major order.

use hpf_lang::ast::{BinOp, Intrinsic, TypeSpec, UnOp};
use hpf_lang::value_ops::{self as ops, Scalar};

/// Element storage of one array (or array temporary).
#[derive(Debug, Clone)]
pub(crate) enum Data {
    Real(Vec<f64>),
    Int(Vec<i64>),
    Mixed(Vec<Scalar>),
}

impl Data {
    /// Storage of `n` elements of type `ty`, zero- or `.FALSE.`-filled.
    pub(crate) fn zeroed(ty: TypeSpec, n: usize) -> Data {
        match ty {
            TypeSpec::Integer => Data::Int(vec![0; n]),
            TypeSpec::Real | TypeSpec::DoublePrecision => Data::Real(vec![0.0; n]),
            TypeSpec::Logical => Data::Mixed(vec![Scalar::Logical(false); n]),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Data::Real(v) => v.len(),
            Data::Int(v) => v.len(),
            Data::Mixed(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Scalar {
        match self {
            Data::Real(v) => Scalar::Real(v[i]),
            Data::Int(v) => Scalar::Int(v[i]),
            Data::Mixed(v) => v[i],
        }
    }

    /// Store with the array's type coercion (none for LOGICAL storage).
    #[inline]
    pub(crate) fn set(&mut self, i: usize, x: Scalar) {
        match self {
            Data::Real(v) => v[i] = x.as_f64().unwrap_or(0.0),
            Data::Int(v) => v[i] = x.as_i64().unwrap_or(0),
            Data::Mixed(v) => v[i] = x,
        }
    }

    /// Store `src[k]` at `offsets[k]` (or at `k` when `offsets` is `None`).
    pub(crate) fn scatter(&mut self, offsets: Option<&[usize]>, src: &Data) {
        match (self, src, offsets) {
            (Data::Real(t), Data::Real(s), None) => t.copy_from_slice(s),
            (Data::Real(t), Data::Real(s), Some(o)) => {
                for (&off, &x) in o.iter().zip(s) {
                    t[off] = x;
                }
            }
            (t, s, None) => {
                for k in 0..s.len() {
                    t.set(k, s.get(k));
                }
            }
            (t, s, Some(o)) => {
                for (k, &off) in o.iter().enumerate() {
                    t.set(off, s.get(k));
                }
            }
        }
    }

    /// The elements at `offsets`, in that order, with the same storage type.
    pub(crate) fn gather(&self, offsets: &[usize]) -> Data {
        match self {
            Data::Real(v) => Data::Real(offsets.iter().map(|&o| v[o]).collect()),
            Data::Int(v) => Data::Int(offsets.iter().map(|&o| v[o]).collect()),
            Data::Mixed(v) => Data::Mixed(offsets.iter().map(|&o| v[o]).collect()),
        }
    }

    /// Pack computed scalars, using typed storage when every element has
    /// the same numeric kind. `empty` is the storage of a zero-size result.
    pub(crate) fn pack(v: Vec<Scalar>, empty: TypeSpec) -> Data {
        if v.is_empty() {
            return Data::zeroed(empty, 0);
        }
        if v.iter().all(|x| matches!(x, Scalar::Real(_))) {
            Data::Real(v.into_iter().filter_map(Scalar::as_f64).collect())
        } else if v.iter().all(|x| matches!(x, Scalar::Int(_))) {
            Data::Int(v.into_iter().filter_map(Scalar::as_i64).collect())
        } else {
            Data::Mixed(v)
        }
    }
}

/// One operand of an elementwise binary operation.
pub(crate) enum Operand<'a> {
    Scalar(Scalar),
    Array(&'a Data),
}

impl Operand<'_> {
    #[inline]
    fn get(&self, i: usize) -> Scalar {
        match self {
            Operand::Scalar(s) => *s,
            Operand::Array(d) => d.get(i),
        }
    }

    fn is_int(&self) -> bool {
        matches!(
            self,
            Operand::Scalar(Scalar::Int(_)) | Operand::Array(Data::Int(_))
        )
    }
}

/// Elementwise `l op r` over `n` elements; `None` on an operand type error.
/// A zero-size result is INTEGER for arithmetic on INTEGER operands, REAL
/// for other arithmetic and LOGICAL otherwise.
pub(crate) fn binary(op: BinOp, l: &Operand, r: &Operand, n: usize) -> Option<Data> {
    let v = (0..n)
        .map(|i| ops::binary(op, l.get(i), r.get(i)))
        .collect::<Option<Vec<_>>>()?;
    let empty = match (ops::is_arith(op), l.is_int() && r.is_int()) {
        (true, true) => TypeSpec::Integer,
        (true, false) => TypeSpec::Real,
        (false, _) => TypeSpec::Logical,
    };
    Some(Data::pack(v, empty))
}

/// Elementwise unary operator; `None` on an operand type error.
pub(crate) fn unary(op: UnOp, a: &Data) -> Option<Data> {
    let v = (0..a.len())
        .map(|i| ops::unary(op, a.get(i)))
        .collect::<Option<Vec<_>>>()?;
    let empty = match (op, a) {
        (UnOp::Not, _) | (_, Data::Mixed(_)) => TypeSpec::Logical,
        (_, Data::Int(_)) => TypeSpec::Integer,
        (_, Data::Real(_)) => TypeSpec::Real,
    };
    Some(Data::pack(v, empty))
}

/// SUM / PRODUCT / MAXVAL / MINVAL, folding left to right from the first
/// element. Zero-size arrays give the identity of the operation: INTEGER
/// 0 / 1 for INTEGER arrays, REAL 0 / 1 otherwise, and -inf / +inf for
/// MAXVAL / MINVAL. `None` on a non-numeric element.
pub(crate) fn reduce(intr: Intrinsic, a: &Data) -> Option<Scalar> {
    use Intrinsic::*;
    if a.len() == 0 {
        return Some(match (intr, a) {
            (Sum, Data::Int(_)) => Scalar::Int(0),
            (Product, Data::Int(_)) => Scalar::Int(1),
            (Sum, _) => Scalar::Real(0.0),
            (Product, _) => Scalar::Real(1.0),
            (MaxVal, _) => Scalar::Real(f64::NEG_INFINITY),
            _ => Scalar::Real(f64::INFINITY),
        });
    }
    match a {
        Data::Real(v) => {
            let f: fn(f64, f64) -> f64 = match intr {
                Sum => |x, y| x + y,
                Product => |x, y| x * y,
                MaxVal => f64::max,
                _ => f64::min,
            };
            Some(Scalar::Real(v[1..].iter().fold(v[0], |acc, &x| f(acc, x))))
        }
        Data::Int(v) => {
            let f: fn(i64, i64) -> i64 = match intr {
                Sum => i64::wrapping_add,
                Product => i64::wrapping_mul,
                MaxVal => std::cmp::max,
                _ => std::cmp::min,
            };
            Some(Scalar::Int(v[1..].iter().fold(v[0], |acc, &x| f(acc, x))))
        }
        Data::Mixed(v) => {
            let mut acc = v[0];
            for &x in &v[1..] {
                acc = match intr {
                    Sum => ops::binary(BinOp::Add, acc, x),
                    Product => ops::binary(BinOp::Mul, acc, x),
                    MaxVal => ops::intrinsic(Max, &[acc, x]),
                    _ => ops::intrinsic(Min, &[acc, x]),
                }?;
            }
            Some(acc)
        }
    }
}

/// DOT_PRODUCT of two conformable arrays (non-numeric elements count as 0).
pub(crate) fn dot(a: &Data, b: &Data) -> f64 {
    let mut acc = 0.0f64;
    if let (Data::Real(x), Data::Real(y)) = (a, b) {
        for (p, q) in x.iter().zip(y) {
            acc += p * q;
        }
        return acc;
    }
    for i in 0..a.len() {
        acc += a.get(i).as_f64().unwrap_or(0.0) * b.get(i).as_f64().unwrap_or(0.0);
    }
    acc
}

/// CSHIFT (`circular`) or EOSHIFT along 0-based dimension `d`: element
/// `i` of the result comes from position `i + shift` along `d`, wrapped or
/// (off the end) filled with zero / `.FALSE.` of the first element's kind.
pub(crate) fn shift(a: &Data, extents: &[usize], d: usize, shift: i64, circular: bool) -> Data {
    fn go<T: Copy>(v: &[T], stride: usize, e: i64, shift: i64, circular: bool, fill: T) -> Vec<T> {
        (0..v.len())
            .map(|off| {
                let c = (off / stride) as i64 % e;
                let src = if circular {
                    c.wrapping_add(shift).rem_euclid(e)
                } else {
                    let s = c.wrapping_add(shift);
                    if s < 0 || s >= e {
                        return fill;
                    }
                    s
                };
                v[(off as i64 + (src - c) * stride as i64) as usize]
            })
            .collect()
    }
    let stride: usize = extents[..d].iter().product();
    let e = extents[d] as i64;
    if e == 0 {
        return a.clone();
    }
    match a {
        Data::Real(v) => Data::Real(go(v, stride, e, shift, circular, 0.0)),
        Data::Int(v) => Data::Int(go(v, stride, e, shift, circular, 0)),
        Data::Mixed(v) => {
            let fill = match v.first() {
                Some(Scalar::Int(_)) => Scalar::Int(0),
                Some(Scalar::Logical(_)) => Scalar::Logical(false),
                _ => Scalar::Real(0.0),
            };
            Data::Mixed(go(v, stride, e, shift, circular, fill))
        }
    }
}

/// TRANSPOSE of an `n0 × n1` array.
pub(crate) fn transpose(a: &Data, n0: usize, n1: usize) -> Data {
    let idx = |k: usize| (k / n1) + (k % n1) * n0;
    match a {
        Data::Real(v) => Data::Real((0..v.len()).map(|k| v[idx(k)]).collect()),
        Data::Int(v) => Data::Int((0..v.len()).map(|k| v[idx(k)]).collect()),
        Data::Mixed(v) => Data::Mixed((0..v.len()).map(|k| v[idx(k)]).collect()),
    }
}

/// MATMUL of an `m × k` by a `k × n` array (non-numeric elements are 0).
pub(crate) fn matmul(a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Data {
    let mut out = vec![0.0; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for p in 0..k {
                let x = a.get(i + p * m).as_f64().unwrap_or(0.0);
                let y = b.get(p + j * k).as_f64().unwrap_or(0.0);
                acc += x * y;
            }
            out[i + j * m] = acc;
        }
    }
    Data::Real(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(d: &Data) -> Vec<i64> {
        (0..d.len()).map(|i| d.get(i).as_i64().unwrap()).collect()
    }

    #[test]
    fn cshift_and_eoshift_rank1() {
        let a = Data::Int(vec![1, 2, 3, 4]);
        assert_eq!(ints(&shift(&a, &[4], 0, 1, true)), vec![2, 3, 4, 1]);
        assert_eq!(ints(&shift(&a, &[4], 0, -1, true)), vec![4, 1, 2, 3]);
        assert_eq!(ints(&shift(&a, &[4], 0, 5, true)), vec![2, 3, 4, 1]);
        assert_eq!(ints(&shift(&a, &[4], 0, 1, false)), vec![2, 3, 4, 0]);
        assert_eq!(ints(&shift(&a, &[4], 0, -2, false)), vec![0, 0, 1, 2]);
    }

    #[test]
    fn cshift_rank2_along_each_dim() {
        // 2x2 column-major [1,2,3,4] = [[1,3],[2,4]].
        let a = Data::Int(vec![1, 2, 3, 4]);
        assert_eq!(ints(&shift(&a, &[2, 2], 0, 1, true)), vec![2, 1, 4, 3]);
        assert_eq!(ints(&shift(&a, &[2, 2], 1, 1, true)), vec![3, 4, 1, 2]);
    }

    #[test]
    fn transpose_2x3() {
        let a = Data::Int((1..=6).collect());
        // A(i,j) = data[i + 2j]; T(j,i) = data'[j + 3i].
        assert_eq!(ints(&transpose(&a, 2, 3)), vec![1, 3, 5, 2, 4, 6]);
    }

    #[test]
    fn empty_reductions_are_identities() {
        use Intrinsic::*;
        let ie = Data::Int(vec![]);
        let re = Data::Real(vec![]);
        assert_eq!(reduce(Sum, &ie), Some(Scalar::Int(0)));
        assert_eq!(reduce(Product, &ie), Some(Scalar::Int(1)));
        assert_eq!(reduce(Sum, &re), Some(Scalar::Real(0.0)));
        assert_eq!(reduce(MinVal, &re), Some(Scalar::Real(f64::INFINITY)));
        assert_eq!(reduce(MaxVal, &re), Some(Scalar::Real(f64::NEG_INFINITY)));
    }
}
