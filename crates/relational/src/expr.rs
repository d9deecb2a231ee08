//! Scalar expressions and predicates.

use crate::schema::Schema;
use crate::tuple::Tuple;
use gsj_common::{GsjError, Result, Value};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Aggregate functions of the aggregation kernel and gSQL select lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(col)` — non-null count; `count(*)` is `Count` on any column
    /// with nulls disabled upstream.
    Count,
    /// `sum(col)`
    Sum,
    /// `avg(col)`
    Avg,
    /// `min(col)`
    Min,
    /// `max(col)`
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// One aggregate of a grouping: function, input column, output name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column; `"*"` with [`AggFunc::Count`] counts rows.
    pub col: String,
    /// Output attribute name.
    pub alias: String,
}

impl AggSpec {
    /// `count(*) as alias`.
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggSpec {
            func: AggFunc::Count,
            col: "*".into(),
            alias: alias.into(),
        }
    }

    /// `func(col) as alias`.
    pub fn new(func: AggFunc, col: impl Into<String>, alias: impl Into<String>) -> Self {
        AggSpec {
            func,
            col: col.into(),
            alias: alias.into(),
        }
    }
}

/// A scalar expression over one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference (may be alias-qualified; falls back to a unique
    /// base-name match, mirroring SQL's unqualified lookup).
    Col(String),
    /// Literal.
    Lit(Value),
    /// Comparison; evaluates to `Bool`, with SQL-style null rejection
    /// (a comparison against NULL is not satisfied).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on numerics.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `col IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// `Expr::Col` helper.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// `Expr::Lit` helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `left op right` helper.
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    /// `col = literal` — the most common predicate shape.
    pub fn col_eq(name: impl Into<String>, v: impl Into<Value>) -> Expr {
        Expr::cmp(CmpOp::Eq, Expr::col(name), Expr::lit(v))
    }

    /// Conjunction helper.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Resolve a possibly-qualified column against a schema: exact name
    /// first; *unqualified* names additionally fall back to a unique
    /// base-name match (SQL's unqualified lookup). A qualified name never
    /// matches another alias's attribute — `T2.pid` must not resolve to
    /// `T1.pid`.
    pub fn resolve_column(schema: &Schema, name: &str) -> Result<usize> {
        if let Some(i) = schema.position(name) {
            return Ok(i);
        }
        if name.contains('.') {
            return Err(GsjError::NotFound(format!(
                "column `{name}` in schema `{}({})`",
                schema.name(),
                schema.attrs().join(", ")
            )));
        }
        let base = Schema::base_name(name);
        let matches: Vec<usize> = schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| Schema::base_name(a) == base)
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(GsjError::NotFound(format!(
                "column `{name}` in schema `{}({})`",
                schema.name(),
                schema.attrs().join(", ")
            ))),
            _ => Err(GsjError::Schema(format!(
                "ambiguous column `{name}` in schema `{}`",
                schema.name()
            ))),
        }
    }

    /// Evaluate against one tuple.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<Value> {
        match self {
            Expr::Col(name) => {
                let i = Self::resolve_column(schema, name)?;
                Ok(tuple.get(i).clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(schema, tuple)?;
                let rv = r.eval(schema, tuple)?;
                if lv.is_null() || rv.is_null() {
                    // SQL: NULL comparisons are unknown; a filter treats
                    // unknown as not satisfied.
                    return Ok(Value::Bool(false));
                }
                let b = match op {
                    CmpOp::Eq => lv == rv,
                    CmpOp::Ne => lv != rv,
                    CmpOp::Lt => lv < rv,
                    CmpOp::Le => lv <= rv,
                    CmpOp::Gt => lv > rv,
                    CmpOp::Ge => lv >= rv,
                };
                Ok(Value::Bool(b))
            }
            Expr::Bin(op, l, r) => {
                let lv = l.eval(schema, tuple)?;
                let rv = r.eval(schema, tuple)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                let (a, b) = (
                    lv.as_f64().ok_or_else(|| type_err("numeric", &lv))?,
                    rv.as_f64().ok_or_else(|| type_err("numeric", &rv))?,
                );
                let out = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(GsjError::Eval("division by zero".into()));
                        }
                        a / b
                    }
                };
                // Preserve integer typing when both sides are ints and the
                // op is exact.
                if let (Value::Int(x), Value::Int(y)) = (&lv, &rv) {
                    match op {
                        BinOp::Add => return Ok(Value::Int(x + y)),
                        BinOp::Sub => return Ok(Value::Int(x - y)),
                        BinOp::Mul => return Ok(Value::Int(x * y)),
                        BinOp::Div => {}
                    }
                }
                Ok(Value::Float(out))
            }
            Expr::And(l, r) => {
                let lv = l.eval(schema, tuple)?.as_bool().unwrap_or(false);
                if !lv {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(
                    r.eval(schema, tuple)?.as_bool().unwrap_or(false),
                ))
            }
            Expr::Or(l, r) => {
                let lv = l.eval(schema, tuple)?.as_bool().unwrap_or(false);
                if lv {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(
                    r.eval(schema, tuple)?.as_bool().unwrap_or(false),
                ))
            }
            Expr::Not(e) => Ok(Value::Bool(
                !e.eval(schema, tuple)?.as_bool().unwrap_or(false),
            )),
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(schema, tuple)?.is_null())),
        }
    }

    /// Evaluate as a filter predicate.
    pub fn holds(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        Ok(self.eval(schema, tuple)?.as_bool().unwrap_or(false))
    }

    /// Column names referenced by this expression.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(c) => out.push(c.clone()),
            Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::Bin(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
        }
    }
}

fn type_err(expected: &str, got: &Value) -> GsjError {
    GsjError::Eval(format!("expected {expected}, got {}", got.type_name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> (Schema, Tuple) {
        (
            Schema::of("t", &["cid", "credit", "bal"]),
            Tuple::new(vec![
                Value::str("cid02"),
                Value::str("good"),
                Value::Int(110),
            ]),
        )
    }

    #[test]
    fn column_and_literal() {
        let (s, t) = env();
        assert_eq!(
            Expr::col("credit").eval(&s, &t).unwrap(),
            Value::str("good")
        );
        assert_eq!(Expr::lit(5i64).eval(&s, &t).unwrap(), Value::Int(5));
    }

    #[test]
    fn qualified_fallback_resolution() {
        let s = Schema::of("T", &["T.cid", "T.credit"]);
        let t = Tuple::new(vec![Value::str("x"), Value::str("good")]);
        // Unqualified name resolves through the base-name fallback.
        assert_eq!(
            Expr::col("credit").eval(&s, &t).unwrap(),
            Value::str("good")
        );
        // Exact qualified match still works.
        assert_eq!(Expr::col("T.cid").eval(&s, &t).unwrap(), Value::str("x"));
        // A foreign qualifier must NOT resolve by base name.
        assert!(Expr::col("U.cid").eval(&s, &t).is_err());
    }

    #[test]
    fn ambiguous_base_name_is_an_error() {
        let s = Schema::of("j", &["T1.cid", "T2.cid"]);
        let t = Tuple::new(vec![Value::str("a"), Value::str("b")]);
        assert!(matches!(
            Expr::col("cid").eval(&s, &t),
            Err(GsjError::Schema(_))
        ));
    }

    #[test]
    fn comparisons_and_null_rejection() {
        let (s, t) = env();
        assert!(Expr::col_eq("credit", "good").holds(&s, &t).unwrap());
        assert!(!Expr::col_eq("credit", "fair").holds(&s, &t).unwrap());
        let null_cmp = Expr::cmp(CmpOp::Eq, Expr::lit(Value::Null), Expr::lit(1i64));
        assert!(!null_cmp.holds(&s, &t).unwrap());
        // NOT (null = 1) is true under our two-valued filter semantics.
        assert!(Expr::Not(Box::new(null_cmp)).holds(&s, &t).unwrap());
    }

    #[test]
    fn arithmetic_with_int_preservation() {
        let (s, t) = env();
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::col("bal")),
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(e.eval(&s, &t).unwrap(), Value::Int(220));
        let div = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::lit(1i64)),
            Box::new(Expr::lit(0i64)),
        );
        assert!(div.eval(&s, &t).is_err());
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        let (s, t) = env();
        let true_and_true = Expr::col_eq("credit", "good").and(Expr::col_eq("cid", "cid02"));
        assert!(true_and_true.holds(&s, &t).unwrap());
        let false_or_true = Expr::col_eq("credit", "bad").or(Expr::col_eq("cid", "cid02"));
        assert!(false_or_true.holds(&s, &t).unwrap());
    }

    #[test]
    fn is_null_predicate() {
        let s = Schema::of("x", &["a"]);
        let t = Tuple::new(vec![Value::Null]);
        assert!(Expr::IsNull(Box::new(Expr::col("a")))
            .holds(&s, &t)
            .unwrap());
    }

    #[test]
    fn columns_are_collected() {
        let e = Expr::col_eq("a", 1i64).and(Expr::cmp(CmpOp::Lt, Expr::col("b"), Expr::col("c")));
        let mut cols = e.columns();
        cols.sort();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }
}
