//! Delta-rationals: rationals extended with an infinitesimal component.
//!
//! The general simplex procedure for linear *real* arithmetic must handle
//! strict inequalities. The standard trick (de Moura & Bjørner, "A fast
//! linear-arithmetic solver for DPLL(T)") replaces `x < c` with
//! `x ≤ c − δ` where `δ` is a symbolic positive infinitesimal. Values are
//! then pairs `(r, k)` representing `r + k·δ`, ordered lexicographically.
//! At the end of solving, any satisfying assignment over delta-rationals can
//! be converted to a plain rational model by choosing a concrete small `δ`.

use crate::Rat;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A value `real + delta·δ` where `δ` is an infinitesimal positive quantity.
///
/// ```
/// use ccmatic_num::{DeltaRat, int};
/// let just_below_one = DeltaRat::strictly_below(int(1));
/// assert!(just_below_one < DeltaRat::from(int(1)));
/// assert!(DeltaRat::from(int(0)) < just_below_one);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DeltaRat {
    /// Standard (real) part.
    pub real: Rat,
    /// Coefficient of the infinitesimal δ.
    pub delta: Rat,
}

impl DeltaRat {
    /// The value `r + k·δ`.
    pub fn new(real: Rat, delta: Rat) -> Self {
        DeltaRat { real, delta }
    }

    /// Zero.
    pub fn zero() -> Self {
        DeltaRat { real: Rat::zero(), delta: Rat::zero() }
    }

    /// The value infinitesimally below `r` (i.e. `r − δ`), used for strict
    /// upper bounds `x < r`.
    pub fn strictly_below(r: Rat) -> Self {
        DeltaRat { real: r, delta: Rat::from(-1i64) }
    }

    /// The value infinitesimally above `r` (i.e. `r + δ`), used for strict
    /// lower bounds `x > r`.
    pub fn strictly_above(r: Rat) -> Self {
        DeltaRat { real: r, delta: Rat::one() }
    }

    /// Concretize with a specific positive value for δ.
    pub fn eval(&self, delta_value: &Rat) -> Rat {
        &self.real + &(&self.delta * delta_value)
    }

    /// Scale by a rational factor.
    pub fn scale(&self, k: &Rat) -> DeltaRat {
        DeltaRat { real: &self.real * k, delta: &self.delta * k }
    }
}

impl From<Rat> for DeltaRat {
    fn from(r: Rat) -> Self {
        DeltaRat { real: r, delta: Rat::zero() }
    }
}

impl From<i64> for DeltaRat {
    fn from(v: i64) -> Self {
        DeltaRat::from(Rat::from(v))
    }
}

impl PartialOrd for DeltaRat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeltaRat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic: δ is smaller than any positive rational.
        self.real.cmp(&other.real).then_with(|| self.delta.cmp(&other.delta))
    }
}

impl Add for &DeltaRat {
    type Output = DeltaRat;
    fn add(self, other: &DeltaRat) -> DeltaRat {
        DeltaRat { real: &self.real + &other.real, delta: &self.delta + &other.delta }
    }
}

impl Sub for &DeltaRat {
    type Output = DeltaRat;
    fn sub(self, other: &DeltaRat) -> DeltaRat {
        DeltaRat { real: &self.real - &other.real, delta: &self.delta - &other.delta }
    }
}

impl Mul<&Rat> for &DeltaRat {
    type Output = DeltaRat;
    fn mul(self, k: &Rat) -> DeltaRat {
        self.scale(k)
    }
}

impl Neg for &DeltaRat {
    type Output = DeltaRat;
    fn neg(self) -> DeltaRat {
        DeltaRat { real: -&self.real, delta: -&self.delta }
    }
}

impl Add for DeltaRat {
    type Output = DeltaRat;
    fn add(self, other: DeltaRat) -> DeltaRat {
        &self + &other
    }
}

impl Sub for DeltaRat {
    type Output = DeltaRat;
    fn sub(self, other: DeltaRat) -> DeltaRat {
        &self - &other
    }
}

impl fmt::Display for DeltaRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta.is_zero() {
            write!(f, "{}", self.real)
        } else if self.delta.is_positive() {
            write!(f, "{}+{}δ", self.real, self.delta)
        } else {
            write!(f, "{}{}δ", self.real, self.delta)
        }
    }
}

impl fmt::Debug for DeltaRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeltaRat({})", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, rat};

    #[test]
    fn strict_bounds_order() {
        let one = DeltaRat::from(int(1));
        let below = DeltaRat::strictly_below(int(1));
        let above = DeltaRat::strictly_above(int(1));
        assert!(below < one);
        assert!(one < above);
        assert!(below < above);
        // δ is smaller than any positive rational gap.
        assert!(DeltaRat::from(rat(999999, 1000000)) < below);
    }

    #[test]
    fn arithmetic() {
        let a = DeltaRat::new(int(1), int(2));
        let b = DeltaRat::new(int(3), int(-1));
        assert_eq!(&a + &b, DeltaRat::new(int(4), int(1)));
        assert_eq!(&a - &b, DeltaRat::new(int(-2), int(3)));
        assert_eq!(a.scale(&int(2)), DeltaRat::new(int(2), int(4)));
        assert_eq!(-&a, DeltaRat::new(int(-1), int(-2)));
    }

    #[test]
    fn eval_concretizes() {
        let v = DeltaRat::strictly_below(int(1));
        assert_eq!(v.eval(&rat(1, 100)), rat(99, 100));
        let w = DeltaRat::strictly_above(int(0));
        assert_eq!(w.eval(&rat(1, 4)), rat(1, 4));
    }

    #[test]
    fn display() {
        assert_eq!(DeltaRat::from(int(2)).to_string(), "2");
        assert_eq!(DeltaRat::strictly_above(int(2)).to_string(), "2+1δ");
        assert_eq!(DeltaRat::strictly_below(int(2)).to_string(), "2-1δ");
    }
}
