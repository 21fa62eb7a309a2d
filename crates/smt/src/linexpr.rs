//! Linear expressions over real variables with exact rational coefficients.

use crate::term::RealVar;
use ccmatic_num::Rat;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A linear expression `Σᵢ cᵢ·xᵢ + k` with rational coefficients.
///
/// Zero-coefficient entries are never stored, so structural equality is
/// semantic equality.
///
/// ```
/// use ccmatic_smt::{LinExpr, term::RealVar};
/// use ccmatic_num::{int, rat};
/// let x = RealVar(0);
/// let y = RealVar(1);
/// let e = LinExpr::var(x) * rat(1, 2) + LinExpr::var(y) - LinExpr::constant(int(3));
/// assert_eq!(e.coeff(x), rat(1, 2));
/// assert_eq!(e.constant_part().clone(), int(-3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<RealVar, Rat>,
    constant: Rat,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// The constant expression `k`.
    pub fn constant(k: Rat) -> Self {
        LinExpr { coeffs: BTreeMap::new(), constant: k }
    }

    /// The expression `x` (coefficient 1).
    pub fn var(x: RealVar) -> Self {
        LinExpr::term(x, Rat::one())
    }

    /// The expression `c·x`.
    pub fn term(x: RealVar, c: Rat) -> Self {
        let mut coeffs = BTreeMap::new();
        if !c.is_zero() {
            coeffs.insert(x, c);
        }
        LinExpr { coeffs, constant: Rat::zero() }
    }

    /// Coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: RealVar) -> Rat {
        self.coeffs.get(&x).cloned().unwrap_or_else(Rat::zero)
    }

    /// The constant term.
    pub fn constant_part(&self) -> &Rat {
        &self.constant
    }

    /// True iff the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Iterate over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (RealVar, &Rat)> + '_ {
        self.coeffs.iter().map(|(v, c)| (*v, c))
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// Add `c·x` in place.
    pub fn add_term(&mut self, x: RealVar, c: &Rat) {
        if c.is_zero() {
            return;
        }
        let entry = self.coeffs.entry(x).or_insert_with(Rat::zero);
        *entry += c;
        if entry.is_zero() {
            self.coeffs.remove(&x);
        }
    }

    /// The variable part of the expression (constant dropped).
    pub fn var_part(&self) -> LinExpr {
        LinExpr { coeffs: self.coeffs.clone(), constant: Rat::zero() }
    }

    /// Scale every coefficient and the constant by `k`.
    pub fn scaled(&self, k: &Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
            constant: &self.constant * k,
        }
    }

    /// The lowest-numbered variable in the expression, if any.
    pub fn leading_var(&self) -> Option<RealVar> {
        self.coeffs.keys().next().copied()
    }

    /// Evaluate under an assignment. Variables missing from the assignment
    /// evaluate to zero.
    pub fn eval<F: Fn(RealVar) -> Rat>(&self, lookup: F) -> Rat {
        let mut acc = self.constant.clone();
        for (v, c) in self.iter() {
            acc += &(c * &lookup(v));
        }
        acc
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, other: LinExpr) -> LinExpr {
        for (v, c) in other.coeffs {
            self.add_term(v, &c);
        }
        self.constant += &other.constant;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, other: LinExpr) -> LinExpr {
        self + (-other)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr {
            coeffs: self.coeffs.into_iter().map(|(v, c)| (v, -c)).collect(),
            constant: -self.constant,
        }
    }
}

impl Mul<Rat> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: Rat) -> LinExpr {
        self.scaled(&k)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                if c == &Rat::one() {
                    write!(f, "x{}", v.0)?;
                } else {
                    write!(f, "{}·x{}", c, v.0)?;
                }
                first = false;
            } else if c.is_negative() {
                write!(f, " - {}·x{}", c.abs(), v.0)?;
            } else {
                write!(f, " + {}·x{}", c, v.0)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::{int, rat};

    fn x() -> RealVar {
        RealVar(0)
    }
    fn y() -> RealVar {
        RealVar(1)
    }

    #[test]
    fn construction_and_coeffs() {
        let e = LinExpr::var(x()) + LinExpr::term(y(), rat(2, 3)) + LinExpr::constant(int(5));
        assert_eq!(e.coeff(x()), int(1));
        assert_eq!(e.coeff(y()), rat(2, 3));
        assert_eq!(e.constant_part().clone(), int(5));
        assert_eq!(e.num_vars(), 2);
    }

    #[test]
    fn cancellation_removes_entries() {
        let e = LinExpr::var(x()) - LinExpr::var(x());
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn scaling() {
        let e = (LinExpr::var(x()) + LinExpr::constant(int(2))) * int(3);
        assert_eq!(e.coeff(x()), int(3));
        assert_eq!(e.constant_part().clone(), int(6));
        assert_eq!(e.scaled(&Rat::zero()), LinExpr::zero());
    }

    #[test]
    fn eval() {
        let e = LinExpr::var(x()) * int(2) + LinExpr::var(y()) + LinExpr::constant(int(1));
        let val = e.eval(|v| if v == x() { int(3) } else { int(10) });
        assert_eq!(val, int(17));
    }

    #[test]
    fn display() {
        let e = LinExpr::var(x()) - LinExpr::term(y(), int(2)) + LinExpr::constant(int(-1));
        assert_eq!(e.to_string(), "x0 - 2·x1 - 1");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!(LinExpr::constant(rat(1, 2)).to_string(), "1/2");
    }

    #[test]
    fn leading_var_is_lowest() {
        let e = LinExpr::var(y()) + LinExpr::var(x());
        assert_eq!(e.leading_var(), Some(x()));
        assert_eq!(LinExpr::zero().leading_var(), None);
    }
}
