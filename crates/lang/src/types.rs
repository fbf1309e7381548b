//! Runtime values and their arithmetic.
//!
//! The hardware operates on integer words (timestamps, counters, header
//! fields) and — for folds like EWMA — fixed-point quantities that we model
//! as `f64`. Division always yields a float, matching the ratio semantics the
//! paper's examples rely on (`R2.COUNT/R1.COUNT`, `perc.high/perc.tot`).

use crate::ast::{BinOp, UnaryOp};
use std::fmt;

/// The `infinity` sentinel as an integer timestamp: a dropped packet's
/// departure time. `Nanos::INFINITY` (`u64::MAX`) clamps to this on entry to
/// the query layer.
pub const INFINITY_NS: i64 = i64::MAX;

/// The type of a value or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (header fields, timestamps in ns, counters).
    Int,
    /// Double-precision float (EWMAs, ratios).
    Float,
    /// Boolean (predicates).
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

/// An error produced by value arithmetic on mismatched types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

impl Value {
    /// The value's type.
    #[must_use]
    pub fn ty(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// The zero value of a type (fold state initializer).
    #[must_use]
    pub fn zero(ty: ValueType) -> Value {
        match ty {
            ValueType::Int => Value::Int(0),
            ValueType::Float => Value::Float(0.0),
            ValueType::Bool => Value::Bool(false),
        }
    }

    /// Numeric view as `f64` (booleans are 0/1).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Integer view, truncating floats.
    #[must_use]
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Float(v) => *v as i64,
            Value::Bool(b) => i64::from(*b),
        }
    }

    /// Boolean view: `Bool` as itself, numbers by non-zeroness.
    #[must_use]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
        }
    }

    /// Coerce to a target type (used when a state variable's inferred type
    /// widens to float but a branch assigns an integer expression).
    #[must_use]
    pub fn coerce(&self, ty: ValueType) -> Value {
        match ty {
            ValueType::Int => Value::Int(self.as_i64()),
            ValueType::Float => Value::Float(self.as_f64()),
            ValueType::Bool => Value::Bool(self.truthy()),
        }
    }

    /// Apply a binary operator with int→float promotion.
    pub fn binop(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, TypeError> {
        use BinOp::*;
        match op {
            And => return Ok(Value::Bool(lhs.truthy() && rhs.truthy())),
            Or => return Ok(Value::Bool(lhs.truthy() || rhs.truthy())),
            _ => {}
        }
        if op.is_comparison() {
            let out = match (lhs, rhs) {
                (Value::Int(a), Value::Int(b)) => compare(op, a, b),
                (Value::Bool(a), Value::Bool(b)) => compare(op, a, b),
                (a, b)
                    if matches!(a, Value::Int(_) | Value::Float(_))
                        && matches!(b, Value::Int(_) | Value::Float(_)) =>
                {
                    compare_f64(op, a.as_f64(), b.as_f64())
                }
                (a, b) => {
                    return Err(TypeError(format!(
                        "cannot compare {} with {}",
                        a.ty(),
                        b.ty()
                    )))
                }
            };
            return Ok(Value::Bool(out));
        }
        // Arithmetic.
        match (lhs, rhs) {
            (Value::Bool(_), _) | (_, Value::Bool(_)) => {
                Err(TypeError(format!("arithmetic `{op}` on boolean operand")))
            }
            (Value::Int(a), Value::Int(b)) => Ok(match op {
                Add => Value::Int(a.wrapping_add(b)),
                Sub => Value::Int(a.wrapping_sub(b)),
                Mul => Value::Int(a.wrapping_mul(b)),
                Div => {
                    if b == 0 {
                        Value::Float(f64::NAN)
                    } else {
                        Value::Float(a as f64 / b as f64)
                    }
                }
                Mod => {
                    if b == 0 {
                        Value::Int(0)
                    } else {
                        Value::Int(a.wrapping_rem(b))
                    }
                }
                _ => unreachable!("handled above"),
            }),
            (a, b) => {
                let (x, y) = (a.as_f64(), b.as_f64());
                Ok(Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Mod => x % y,
                    _ => unreachable!("handled above"),
                }))
            }
        }
    }

    /// Apply a unary operator.
    pub fn unop(op: UnaryOp, v: Value) -> Result<Value, TypeError> {
        match (op, v) {
            (UnaryOp::Neg, Value::Int(x)) => Ok(Value::Int(x.wrapping_neg())),
            (UnaryOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
            (UnaryOp::Neg, Value::Bool(_)) => Err(TypeError("cannot negate a boolean".into())),
            (UnaryOp::Not, v) => Ok(Value::Bool(!v.truthy())),
        }
    }

    /// The result type of a binary operator applied to operand types.
    pub fn binop_type(op: BinOp, l: ValueType, r: ValueType) -> Result<ValueType, TypeError> {
        if op.is_logical() {
            return Ok(ValueType::Bool);
        }
        if op.is_comparison() {
            if (l == ValueType::Bool) != (r == ValueType::Bool) {
                return Err(TypeError(format!("cannot compare {l} with {r}")));
            }
            return Ok(ValueType::Bool);
        }
        if l == ValueType::Bool || r == ValueType::Bool {
            return Err(TypeError(format!("arithmetic `{op}` on boolean operand")));
        }
        Ok(match op {
            BinOp::Div => ValueType::Float,
            _ if l == ValueType::Float || r == ValueType::Float => ValueType::Float,
            _ => ValueType::Int,
        })
    }
}

fn compare<T: PartialOrd>(op: BinOp, a: T, b: T) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("not a comparison"),
    }
}

fn compare_f64(op: BinOp, a: f64, b: f64) -> bool {
    compare(op, a, b)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) if *v == INFINITY_NS => write!(f, "inf"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v:.6}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_stays_int_except_div() {
        assert_eq!(
            Value::binop(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::binop(BinOp::Div, Value::Int(1), Value::Int(4)).unwrap(),
            Value::Float(0.25)
        );
    }

    #[test]
    fn promotion_to_float() {
        assert_eq!(
            Value::binop(BinOp::Mul, Value::Float(0.5), Value::Int(4)).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn comparisons_yield_bool() {
        assert_eq!(
            Value::binop(BinOp::Gt, Value::Int(5), Value::Int(3)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binop(BinOp::Eq, Value::Int(INFINITY_NS), Value::Int(INFINITY_NS)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binop(BinOp::Le, Value::Float(1.5), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn logical_ops_use_truthiness() {
        assert_eq!(
            Value::binop(BinOp::And, Value::Bool(true), Value::Int(1)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::binop(BinOp::Or, Value::Bool(false), Value::Int(0)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_on_bool_rejected() {
        assert!(Value::binop(BinOp::Add, Value::Bool(true), Value::Int(1)).is_err());
        assert!(Value::unop(UnaryOp::Neg, Value::Bool(true)).is_err());
    }

    #[test]
    fn comparing_bool_with_int_rejected() {
        assert!(Value::binop(BinOp::Eq, Value::Bool(true), Value::Int(1)).is_err());
    }

    #[test]
    fn division_by_zero_is_nan_not_panic() {
        let v = Value::binop(BinOp::Div, Value::Int(1), Value::Int(0)).unwrap();
        match v {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn binop_type_rules() {
        assert_eq!(
            Value::binop_type(BinOp::Add, ValueType::Int, ValueType::Int).unwrap(),
            ValueType::Int
        );
        assert_eq!(
            Value::binop_type(BinOp::Div, ValueType::Int, ValueType::Int).unwrap(),
            ValueType::Float
        );
        assert_eq!(
            Value::binop_type(BinOp::Lt, ValueType::Int, ValueType::Float).unwrap(),
            ValueType::Bool
        );
        assert!(Value::binop_type(BinOp::Add, ValueType::Bool, ValueType::Int).is_err());
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(ValueType::Int), Value::Int(0));
        assert_eq!(Value::zero(ValueType::Float), Value::Float(0.0));
    }

    #[test]
    fn coercion() {
        assert_eq!(Value::Int(3).coerce(ValueType::Float), Value::Float(3.0));
        assert_eq!(Value::Float(3.7).coerce(ValueType::Int), Value::Int(3));
    }

    #[test]
    fn display_infinity() {
        assert_eq!(Value::Int(INFINITY_NS).to_string(), "inf");
    }
}
