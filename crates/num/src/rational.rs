//! Normalized arbitrary-precision rationals.
//!
//! Arithmetic has a machine-word fast path: when both operands' numerators
//! and denominators fit `i64` (the common case throughout the simplex
//! tableau), cross-products are computed in `i128` — which cannot overflow,
//! since `|n|, d ≤ 2^63` bounds every product by `2^126` and every sum of
//! two products by `2^127` — and the result is reduced with a binary gcd
//! before being stored back as inline [`BigInt`]s. The gcd and the
//! divisions run on `u64` whenever both magnitudes fit one (nearly always:
//! tableau values are small, so their cross-products are too), and on
//! `u128` otherwise. Only results
//! whose reduced numerator or denominator leaves the `i64` range touch the
//! heap-allocating bignum path.

use crate::gcd::{gcd_u128, gcd_u64};
use crate::{stats, BigInt};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den`.
///
/// Invariants: `den > 0`, `gcd(|num|, den) == 1`, and zero is `0/1`.
///
/// ```
/// use ccmatic_num::{rat, int};
/// assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
/// assert_eq!(rat(2, 4), rat(1, 2));
/// assert!(rat(-1, 2) < int(0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rat {
    num: BigInt,
    den: BigInt,
}

impl Rat {
    /// Construct `n / d`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(n: BigInt, d: BigInt) -> Self {
        assert!(!d.is_zero(), "rational with zero denominator");
        if let (Some(ns), Some(ds)) = (n.to_i64(), d.to_i64()) {
            // i128 absorbs the i64::MIN negation when flipping the sign
            // into the numerator.
            let (mut n, mut d) = (ns as i128, ds as i128);
            if d < 0 {
                n = -n;
                d = -d;
            }
            return Rat::from_i128_frac(n, d);
        }
        if n.is_zero() {
            return Rat::zero();
        }
        let g = n.gcd(&d);
        let mut num = &n / &g;
        let mut den = &d / &g;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Build a normalized rational from `n / d` with `d > 0`, both already
    /// reduced into `i128` range (cross-products of `i64` components).
    /// Counts one fast-path op, or a promotion if the reduced value still
    /// leaves the `i64` range. An integer (`d = 1`) needs no gcd.
    fn from_i128_frac(n: i128, d: i128) -> Rat {
        debug_assert!(d > 0);
        if n == 0 {
            stats::count_small();
            return Rat::zero();
        }
        let (n_abs, d) = (n.unsigned_abs(), d as u128);
        let (n_abs, d) = match (u64::try_from(n_abs), u64::try_from(d)) {
            _ if d == 1 => (n_abs, d),
            (Ok(a), Ok(b)) => {
                let g = gcd_u64(a, b);
                ((a / g) as u128, (b / g) as u128)
            }
            _ => {
                let g = gcd_u128(n_abs, d);
                (n_abs / g, d / g)
            }
        };
        // Both stay below 2^127 in magnitude, so the sign fits back on.
        let n = if n < 0 { -(n_abs as i128) } else { n_abs as i128 };
        let d = d as i128;
        match (i64::try_from(n), i64::try_from(d)) {
            (Ok(ns), Ok(ds)) => {
                stats::count_small();
                Rat { num: BigInt::from(ns), den: BigInt::from(ds) }
            }
            _ => {
                stats::count_promotion();
                Rat { num: BigInt::from(n), den: BigInt::from(d) }
            }
        }
    }

    /// The numerator/denominator as machine words, if both fit.
    fn small_parts(&self) -> Option<(i64, i64)> {
        Some((self.num.to_i64()?, self.den.to_i64()?))
    }

    /// `true` iff both numerator and denominator fit an `i64` — the
    /// precondition for the cross-multiplying arithmetic fast path. The
    /// simplex consults this to decide when a tableau row's coefficients
    /// have left the fast path and content normalization should fold the
    /// common factor into the row scale.
    pub fn is_small(&self) -> bool {
        self.small_parts().is_some()
    }

    /// The rational 0.
    pub fn zero() -> Self {
        Rat { num: BigInt::zero(), den: BigInt::one() }
    }

    /// The rational 1.
    pub fn one() -> Self {
        Rat { num: BigInt::one(), den: BigInt::one() }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff the value is > 0.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff the value is < 0.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff the denominator is 1.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Sign: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rat {
        assert!(!self.is_zero(), "reciprocal of zero");
        // Already normalized, so swapping is enough — no gcd required.
        if self.num.is_negative() {
            Rat { num: -&self.den, den: -&self.num }
        } else {
            Rat { num: self.den.clone(), den: self.num.clone() }
        }
    }

    /// Largest integer ≤ self, as a `BigInt`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.divmod(&self.den);
        if r.is_negative() {
            &q - &BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer ≥ self, as a `BigInt`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.divmod(&self.den);
        if r.is_positive() {
            &q + &BigInt::one()
        } else {
            q
        }
    }

    /// Approximate `f64` value (reporting only).
    pub fn to_f64(&self) -> f64 {
        // Scale so the division stays in range for huge operands.
        let nb = self.num.bits() as i64;
        let db = self.den.bits() as i64;
        if nb < 900 && db < 900 {
            self.num.to_f64() / self.den.to_f64()
        } else {
            // Shift both down; relative error is negligible for reporting.
            let shift = (nb.max(db) - 512).max(0) as usize;
            let scale = {
                let mut s = BigInt::one();
                let two = BigInt::from(2i64);
                for _ in 0..shift {
                    s = &s * &two;
                }
                s
            };
            (&self.num / &scale).to_f64() / (&self.den / &scale).to_f64()
        }
    }

    /// The midpoint `(a + b) / 2`.
    pub fn midpoint(a: &Rat, b: &Rat) -> Rat {
        (a + b) * Rat::new(BigInt::one(), BigInt::from(2i64))
    }

    /// Parse a decimal literal: `"3"`, `"-1.5"`, `"0.25"`, or a fraction
    /// `"3/4"`, `"-7/2"`.
    pub fn from_decimal_str(s: &str) -> Option<Rat> {
        if let Some((n, d)) = s.split_once('/') {
            let n = BigInt::from_decimal(n.trim())?;
            let d = BigInt::from_decimal(d.trim())?;
            if d.is_zero() {
                return None;
            }
            return Some(Rat::new(n, d));
        }
        match s.split_once('.') {
            None => BigInt::from_decimal(s).map(|n| Rat::new(n, BigInt::one())),
            Some((int_part, frac_part)) => {
                if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                let negative = int_part.starts_with('-');
                let int_val = if int_part == "-" || int_part.is_empty() {
                    BigInt::zero()
                } else {
                    BigInt::from_decimal(int_part)?
                };
                let frac_val = BigInt::from_decimal(frac_part)?;
                let mut den = BigInt::one();
                let ten = BigInt::from(10i64);
                for _ in 0..frac_part.len() {
                    den = &den * &ten;
                }
                let mag = &int_val.abs() * &den + &frac_val;
                let num = if negative { -mag } else { mag };
                Some(Rat::new(num, den))
            }
        }
    }

    /// Reference constructor that normalizes entirely on the `BigInt` limb
    /// path (differential-test hook; results must be bit-identical to
    /// [`Rat::new`]).
    #[doc(hidden)]
    pub fn ref_new(n: BigInt, d: BigInt) -> Rat {
        assert!(!d.is_zero(), "rational with zero denominator");
        if n.is_zero() {
            return Rat::zero();
        }
        let g = n.ref_gcd(&d);
        let mut num = n.ref_divmod(&g).0;
        let mut den = d.ref_divmod(&g).0;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Reference addition on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_add(&self, other: &Rat) -> Rat {
        Rat::ref_new(
            self.num.ref_mul(&other.den).ref_add(&other.num.ref_mul(&self.den)),
            self.den.ref_mul(&other.den),
        )
    }

    /// Reference subtraction on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_sub(&self, other: &Rat) -> Rat {
        Rat::ref_new(
            self.num.ref_mul(&other.den).ref_sub(&other.num.ref_mul(&self.den)),
            self.den.ref_mul(&other.den),
        )
    }

    /// Reference multiplication on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_mul(&self, other: &Rat) -> Rat {
        Rat::ref_new(self.num.ref_mul(&other.num), self.den.ref_mul(&other.den))
    }

    /// Reference division on the limb path (differential-test hook).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[doc(hidden)]
    pub fn ref_div(&self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "rational division by zero");
        Rat::ref_new(self.num.ref_mul(&other.den), self.den.ref_mul(&other.num))
    }

    /// Reference comparison via limb-path cross-multiplication
    /// (differential-test hook).
    #[doc(hidden)]
    pub fn ref_cmp(&self, other: &Rat) -> Ordering {
        self.num.ref_mul(&other.den).cmp(&other.num.ref_mul(&self.den))
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat { num: BigInt::from(v), den: BigInt::one() }
    }
}

impl From<BigInt> for Rat {
    fn from(v: BigInt) -> Self {
        Rat { num: v, den: BigInt::one() }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⇔  a·d vs c·b
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            stats::count_small();
            return (an as i128 * bd as i128).cmp(&(bn as i128 * ad as i128));
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl Neg for &Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -&self.num, den: self.den.clone() }
    }
}

impl Add for &Rat {
    type Output = Rat;
    fn add(self, other: &Rat) -> Rat {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            let n = an as i128 * bd as i128 + bn as i128 * ad as i128;
            let d = ad as i128 * bd as i128;
            return Rat::from_i128_frac(n, d);
        }
        Rat::new(&self.num * &other.den + &other.num * &self.den, &self.den * &other.den)
    }
}

impl Sub for &Rat {
    type Output = Rat;
    fn sub(self, other: &Rat) -> Rat {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            let n = an as i128 * bd as i128 - bn as i128 * ad as i128;
            let d = ad as i128 * bd as i128;
            return Rat::from_i128_frac(n, d);
        }
        Rat::new(&self.num * &other.den - &other.num * &self.den, &self.den * &other.den)
    }
}

impl Mul for &Rat {
    type Output = Rat;
    fn mul(self, other: &Rat) -> Rat {
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            return Rat::from_i128_frac(an as i128 * bn as i128, ad as i128 * bd as i128);
        }
        Rat::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &Rat {
    type Output = Rat;
    fn div(self, other: &Rat) -> Rat {
        assert!(!other.is_zero(), "rational division by zero");
        if let (Some((an, ad)), Some((bn, bd))) = (self.small_parts(), other.small_parts()) {
            let (mut n, mut d) = (an as i128 * bd as i128, ad as i128 * bn as i128);
            if d < 0 {
                n = -n;
                d = -d;
            }
            return Rat::from_i128_frac(n, d);
        }
        Rat::new(&self.num * &other.den, &self.den * &other.num)
    }
}

macro_rules! forward_binop_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                (&self).$method(&other)
            }
        }
        impl $trait<&Rat> for Rat {
            type Output = Rat;
            fn $method(self, other: &Rat) -> Rat {
                (&self).$method(other)
            }
        }
        impl $trait<Rat> for &Rat {
            type Output = Rat;
            fn $method(self, other: Rat) -> Rat {
                self.$method(&other)
            }
        }
    };
}

forward_binop_owned!(Add, add);
forward_binop_owned!(Sub, sub);
forward_binop_owned!(Mul, mul);
forward_binop_owned!(Div, div);

impl AddAssign<&Rat> for Rat {
    fn add_assign(&mut self, other: &Rat) {
        *self = &*self + other;
    }
}

impl SubAssign<&Rat> for Rat {
    fn sub_assign(&mut self, other: &Rat) {
        *self = &*self - other;
    }
}

impl MulAssign<&Rat> for Rat {
    fn mul_assign(&mut self, other: &Rat) {
        *self = &*self * other;
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rat({})", self)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, rat};

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-2, -4), rat(1, 2));
        assert_eq!(rat(2, -4), rat(-1, 2));
        assert_eq!(rat(0, 7), Rat::zero());
        assert!(rat(1, -2).denom().is_positive());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = rat(1, 0);
    }

    #[test]
    fn is_small_tracks_the_fast_path_boundary() {
        assert!(Rat::zero().is_small());
        assert!(rat(i64::MAX, 1).is_small());
        assert!(rat(i64::MIN, 1).is_small());
        assert!(rat(1, i64::MAX).is_small());
        // 2^63 in either component leaves the fast path.
        let big = &BigInt::from(i64::MAX) + &BigInt::one();
        assert!(!Rat::new(big.clone(), BigInt::one()).is_small());
        assert!(!Rat::new(BigInt::one(), big).is_small());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
        assert_eq!(rat(1, 2) - rat(1, 3), rat(1, 6));
        assert_eq!(rat(2, 3) * rat(3, 4), rat(1, 2));
        assert_eq!(rat(1, 2) / rat(1, 4), int(2));
        assert_eq!(-rat(1, 2), rat(-1, 2));
    }

    #[test]
    fn comparisons() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(7, 7) == int(1));
        assert!(rat(-3, 2) < int(-1));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(rat(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(rat(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(rat(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(int(5).floor(), BigInt::from(5i64));
        assert_eq!(int(5).ceil(), BigInt::from(5i64));
    }

    #[test]
    fn recip() {
        assert_eq!(rat(2, 3).recip(), rat(3, 2));
        assert_eq!(rat(-2, 3).recip(), rat(-3, 2));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rat::zero().recip();
    }

    #[test]
    fn parse_decimals() {
        assert_eq!(Rat::from_decimal_str("3").unwrap(), int(3));
        assert_eq!(Rat::from_decimal_str("-1.5").unwrap(), rat(-3, 2));
        assert_eq!(Rat::from_decimal_str("0.25").unwrap(), rat(1, 4));
        assert_eq!(Rat::from_decimal_str("3.6").unwrap(), rat(18, 5));
        assert_eq!(Rat::from_decimal_str("3/4").unwrap(), rat(3, 4));
        assert_eq!(Rat::from_decimal_str("-7/2").unwrap(), rat(-7, 2));
        assert!(Rat::from_decimal_str("1/0").is_none());
        assert!(Rat::from_decimal_str("abc").is_none());
        assert!(Rat::from_decimal_str("1.").is_none());
    }

    #[test]
    fn display() {
        assert_eq!(int(3).to_string(), "3");
        assert_eq!(rat(-3, 2).to_string(), "-3/2");
        assert_eq!(Rat::zero().to_string(), "0");
    }

    #[test]
    fn midpoint() {
        assert_eq!(Rat::midpoint(&int(1), &int(2)), rat(3, 2));
        assert_eq!(Rat::midpoint(&rat(-1, 2), &rat(1, 2)), Rat::zero());
    }

    #[test]
    fn to_f64() {
        assert_eq!(rat(1, 2).to_f64(), 0.5);
        assert_eq!(rat(-1, 4).to_f64(), -0.25);
    }
}
