//! Sign-magnitude arbitrary-precision integers with an inline `i64` fast
//! path.
//!
//! Values that fit a machine word — which is nearly everything the simplex
//! tableau ever holds, since coefficients start as small integers or halves
//! — are stored inline as [`Repr::Small`] and computed with checked `i64`
//! arithmetic (widening to `i128` on overflow). Only values outside the
//! `i64` range are *promoted* to the limb representation [`Repr::Big`]
//! (`u64` limbs, least significant first, no trailing zeros, `sign != 0`).
//!
//! Canonical-form invariant: a value is `Big` **iff** it does not fit an
//! `i64`. Every constructor and operation maintains this, so the derived
//! `PartialEq`/`Eq`/`Hash` remain structural equality of values and never
//! see the same number in two representations.
//!
//! Fast-path coverage is counted through [`crate::stats`]; see
//! [`crate::arith_snapshot`].

use crate::{gcd::gcd_u64, stats};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

/// Internal representation. `Small` covers the full `i64` range including
/// zero; `Big` is reserved for values strictly outside it.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline machine-word value.
    Small(i64),
    /// Limb representation for values outside the `i64` range.
    Big {
        /// -1 or 1 (never 0: zero is always `Small(0)`).
        sign: i8,
        /// Magnitude limbs, little-endian, no trailing zeros, non-empty.
        mag: Vec<u64>,
    },
}

/// An arbitrary-precision signed integer.
///
/// ```
/// use ccmatic_num::BigInt;
/// let a = BigInt::from(1_000_000_007i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

impl BigInt {
    /// The integer 0.
    pub fn zero() -> Self {
        BigInt(Repr::Small(0))
    }

    /// The integer 1.
    pub fn one() -> Self {
        BigInt(Repr::Small(1))
    }

    /// True iff `self == 0`.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// True iff `self > 0`.
    pub fn is_positive(&self) -> bool {
        self.signum() > 0
    }

    /// True iff `self < 0`.
    pub fn is_negative(&self) -> bool {
        self.signum() < 0
    }

    /// Sign of the value: -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i8,
            Repr::Big { sign, .. } => *sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match &self.0 {
            Repr::Small(v) => match v.checked_abs() {
                Some(a) => BigInt(Repr::Small(a)),
                // |i64::MIN| = 2^63 does not fit an i64.
                None => BigInt(Repr::Big { sign: 1, mag: vec![1 << 63] }),
            },
            Repr::Big { mag, .. } => BigInt(Repr::Big { sign: 1, mag: mag.clone() }),
        }
    }

    /// Construct from sign and magnitude limbs, normalizing trailing zeros
    /// and demoting to the inline representation whenever the value fits.
    fn from_parts(sign: i8, mut mag: Vec<u64>) -> Self {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        if mag.is_empty() {
            return BigInt::zero();
        }
        debug_assert!(sign == 1 || sign == -1);
        if mag.len() == 1 {
            let m = mag[0];
            if sign > 0 && m <= i64::MAX as u64 {
                return BigInt(Repr::Small(m as i64));
            }
            if sign < 0 && m <= (i64::MAX as u64) + 1 {
                return BigInt(Repr::Small((-(m as i128)) as i64));
            }
        }
        BigInt(Repr::Big { sign, mag })
    }

    /// View the value as (sign, magnitude limbs) without allocating: the
    /// inline variant is presented through a one-limb stack buffer.
    fn with_parts<R>(&self, f: impl FnOnce(i8, &[u64]) -> R) -> R {
        match &self.0 {
            Repr::Small(0) => f(0, &[]),
            Repr::Small(v) => f(v.signum() as i8, &[v.unsigned_abs()]),
            Repr::Big { sign, mag } => f(*sign, mag),
        }
    }

    /// Compare magnitudes, ignoring sign.
    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        Ordering::Equal
    }

    /// Magnitude addition: `a + b`.
    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let s = short.get(i).copied().unwrap_or(0);
            let (x, c1) = l.overflowing_add(s);
            let (x, c2) = x.overflowing_add(carry);
            carry = (c1 as u64) + (c2 as u64);
            out.push(x);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// Magnitude subtraction: `a - b`, requires `a >= b`.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &av) in a.iter().enumerate() {
            let s = b.get(i).copied().unwrap_or(0);
            let (x, b1) = av.overflowing_sub(s);
            let (x, b2) = x.overflowing_sub(borrow);
            borrow = (b1 as u64) + (b2 as u64);
            out.push(x);
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Magnitude schoolbook multiplication.
    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Magnitude division by a single limb. Returns (quotient, remainder).
    fn divmod_small(a: &[u64], d: u64) -> (Vec<u64>, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, rem as u64)
    }

    /// Magnitude long division: `a / b`, `a % b`. Requires `b != 0`.
    ///
    /// Uses simple shift-and-subtract on bits for the multi-limb case; the
    /// operand sizes in this workspace make the O(n·bits) cost irrelevant,
    /// and the algorithm is trivially auditable.
    fn divmod_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        debug_assert!(!b.is_empty());
        match Self::cmp_mag(a, b) {
            Ordering::Less => return (Vec::new(), a.to_vec()),
            Ordering::Equal => return (vec![1], Vec::new()),
            Ordering::Greater => {}
        }
        if b.len() == 1 {
            let (q, r) = Self::divmod_small(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Bitwise long division.
        let total_bits = a.len() * 64;
        let mut quot = vec![0u64; a.len()];
        let mut rem: Vec<u64> = Vec::new();
        for bit in (0..total_bits).rev() {
            // rem = rem << 1 | bit(a, bit)
            Self::shl1_in_place(&mut rem);
            let abit = (a[bit / 64] >> (bit % 64)) & 1;
            if abit == 1 {
                if rem.is_empty() {
                    rem.push(1);
                } else {
                    rem[0] |= 1;
                }
            }
            if Self::cmp_mag(&rem, b) != Ordering::Less {
                rem = Self::sub_mag(&rem, b);
                quot[bit / 64] |= 1 << (bit % 64);
            }
        }
        while quot.last() == Some(&0) {
            quot.pop();
        }
        (quot, rem)
    }

    /// In-place magnitude left shift by one bit.
    fn shl1_in_place(v: &mut Vec<u64>) {
        let mut carry = 0u64;
        for limb in v.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        if carry != 0 {
            v.push(carry);
        }
    }

    /// Limb-path addition, independent of representation.
    fn add_limbs(&self, other: &BigInt) -> BigInt {
        self.with_parts(|sa, ma| {
            other.with_parts(|sb, mb| {
                if sa == 0 {
                    return BigInt::from_parts(sb, mb.to_vec());
                }
                if sb == 0 {
                    return BigInt::from_parts(sa, ma.to_vec());
                }
                if sa == sb {
                    BigInt::from_parts(sa, Self::add_mag(ma, mb))
                } else {
                    match Self::cmp_mag(ma, mb) {
                        Ordering::Equal => BigInt::zero(),
                        Ordering::Greater => BigInt::from_parts(sa, Self::sub_mag(ma, mb)),
                        Ordering::Less => BigInt::from_parts(sb, Self::sub_mag(mb, ma)),
                    }
                }
            })
        })
    }

    /// Limb-path subtraction (addition with `other`'s sign flipped).
    fn sub_limbs(&self, other: &BigInt) -> BigInt {
        self.with_parts(|sa, ma| {
            other.with_parts(|sb, mb| {
                let sb = -sb;
                if sa == 0 {
                    return BigInt::from_parts(sb, mb.to_vec());
                }
                if sb == 0 {
                    return BigInt::from_parts(sa, ma.to_vec());
                }
                if sa == sb {
                    BigInt::from_parts(sa, Self::add_mag(ma, mb))
                } else {
                    match Self::cmp_mag(ma, mb) {
                        Ordering::Equal => BigInt::zero(),
                        Ordering::Greater => BigInt::from_parts(sa, Self::sub_mag(ma, mb)),
                        Ordering::Less => BigInt::from_parts(sb, Self::sub_mag(mb, ma)),
                    }
                }
            })
        })
    }

    /// Limb-path multiplication, independent of representation.
    fn mul_limbs(&self, other: &BigInt) -> BigInt {
        self.with_parts(|sa, ma| {
            other.with_parts(|sb, mb| {
                if sa == 0 || sb == 0 {
                    BigInt::zero()
                } else {
                    BigInt::from_parts(sa * sb, Self::mul_mag(ma, mb))
                }
            })
        })
    }

    /// Limb-path truncated division, independent of representation.
    /// Requires `other != 0`.
    fn divmod_limbs(&self, other: &BigInt) -> (BigInt, BigInt) {
        self.with_parts(|sa, ma| {
            other.with_parts(|sb, mb| {
                debug_assert!(sb != 0);
                if sa == 0 {
                    return (BigInt::zero(), BigInt::zero());
                }
                let (q, r) = Self::divmod_mag(ma, mb);
                (BigInt::from_parts(sa * sb, q), BigInt::from_parts(sa, r))
            })
        })
    }

    /// Limb-path gcd via Euclid on `divmod_limbs`.
    fn gcd_limbs(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.divmod_limbs(&b).1.abs();
            a = b;
            b = r;
        }
        a
    }

    /// Truncated division and remainder (round toward zero, like Rust's `/`
    /// and `%` on primitives). The remainder has the sign of `self`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn divmod(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            // i128 intermediates sidestep the lone i64 overflow case,
            // i64::MIN / -1 (quotient 2^63).
            let (a, b) = (*a as i128, *b as i128);
            let (q, r) = (a / b, a % b);
            return match i64::try_from(q) {
                Ok(qs) => {
                    stats::count_small();
                    (BigInt(Repr::Small(qs)), BigInt(Repr::Small(r as i64)))
                }
                Err(_) => {
                    stats::count_promotion();
                    (BigInt::from(q), BigInt(Repr::Small(r as i64)))
                }
            };
        }
        stats::count_big();
        self.divmod_limbs(other)
    }

    /// Greatest common divisor of the absolute values (always non-negative;
    /// `gcd(0, x) = |x|`).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            let a = gcd_u64(a.unsigned_abs(), b.unsigned_abs());
            // gcd(i64::MIN, i64::MIN) = 2^63 does not fit an i64.
            return if a <= i64::MAX as u64 {
                stats::count_small();
                BigInt(Repr::Small(a as i64))
            } else {
                stats::count_promotion();
                BigInt(Repr::Big { sign: 1, mag: vec![a] })
            };
        }
        stats::count_big();
        self.gcd_limbs(other)
    }

    /// Least common multiple of the absolute values (always non-negative;
    /// `lcm(0, x) = 0`). Computed as `|self / gcd · other|` so the
    /// intermediate never exceeds the result.
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let g = self.gcd(other);
        (&(self / &g) * other).abs()
    }

    /// Approximate conversion to `f64` (for reporting only; never used in
    /// solver decisions).
    pub fn to_f64(&self) -> f64 {
        match &self.0 {
            Repr::Small(v) => *v as f64,
            Repr::Big { sign, mag } => {
                let mut x = 0.0f64;
                for &limb in mag.iter().rev() {
                    x = x * 18446744073709551616.0 + limb as f64;
                }
                if *sign < 0 {
                    -x
                } else {
                    x
                }
            }
        }
    }

    /// Exact conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.0 {
            Repr::Small(v) => Some(*v),
            // Canonical form: Big is only used outside the i64 range.
            Repr::Big { .. } => None,
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> usize {
        match &self.0 {
            Repr::Small(0) => 0,
            Repr::Small(v) => 64 - v.unsigned_abs().leading_zeros() as usize,
            Repr::Big { mag, .. } => {
                let top = *mag.last().expect("Big magnitude is non-empty");
                (mag.len() - 1) * 64 + (64 - top.leading_zeros() as usize)
            }
        }
    }

    /// Parse a decimal string with optional leading `-`.
    pub fn from_decimal(s: &str) -> Option<BigInt> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (-1i8, rest),
            None => (1i8, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut mag: Vec<u64> = Vec::new();
        for b in digits.bytes() {
            // mag = mag * 10 + digit
            let mut carry = (b - b'0') as u128;
            for limb in mag.iter_mut() {
                let cur = (*limb as u128) * 10 + carry;
                *limb = cur as u64;
                carry = cur >> 64;
            }
            if carry != 0 {
                mag.push(carry as u64);
            }
        }
        Some(BigInt::from_parts(sign, mag))
    }

    /// Reference addition that always runs the limb path, regardless of
    /// representation. Differential-test hook only: results must be
    /// bit-identical to `+`.
    #[doc(hidden)]
    pub fn ref_add(&self, other: &BigInt) -> BigInt {
        self.add_limbs(other)
    }

    /// Reference subtraction on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_sub(&self, other: &BigInt) -> BigInt {
        self.sub_limbs(other)
    }

    /// Reference multiplication on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_mul(&self, other: &BigInt) -> BigInt {
        self.mul_limbs(other)
    }

    /// Reference truncated division on the limb path (differential-test
    /// hook).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    #[doc(hidden)]
    pub fn ref_divmod(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "BigInt division by zero");
        self.divmod_limbs(other)
    }

    /// Reference gcd on the limb path (differential-test hook).
    #[doc(hidden)]
    pub fn ref_gcd(&self, other: &BigInt) -> BigInt {
        self.gcd_limbs(other)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt(Repr::Small(v))
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v <= i64::MAX as u64 {
            BigInt(Repr::Small(v as i64))
        } else {
            BigInt(Repr::Big { sign: 1, mag: vec![v] })
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        if let Ok(s) = i64::try_from(v) {
            return BigInt(Repr::Small(s));
        }
        let sign = if v > 0 { 1 } else { -1 };
        let m = v.unsigned_abs();
        BigInt::from_parts(sign, vec![m as u64, (m >> 64) as u64])
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // Canonical form: a Big value lies strictly outside the i64
            // range, so its sign alone decides against any Small.
            (Repr::Small(_), Repr::Big { sign, .. }) => {
                if *sign > 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (Repr::Big { sign, .. }, Repr::Small(_)) => {
                if *sign > 0 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (Repr::Big { sign: sa, mag: ma }, Repr::Big { sign: sb, mag: mb }) => {
                match sa.cmp(sb) {
                    Ordering::Equal => {}
                    ord => return ord,
                }
                let mag_ord = Self::cmp_mag(ma, mb);
                if *sa >= 0 {
                    mag_ord
                } else {
                    mag_ord.reverse()
                }
            }
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(v) => match v.checked_neg() {
                Some(n) => BigInt(Repr::Small(n)),
                None => BigInt(Repr::Big { sign: 1, mag: vec![1 << 63] }),
            },
            Repr::Big { sign, mag } => BigInt::from_parts(-sign, mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        self.clone().neg()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_add(*b) {
                Some(s) => {
                    stats::count_small();
                    BigInt(Repr::Small(s))
                }
                None => {
                    stats::count_promotion();
                    BigInt::from(*a as i128 + *b as i128)
                }
            };
        }
        stats::count_big();
        self.add_limbs(other)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_sub(*b) {
                Some(s) => {
                    stats::count_small();
                    BigInt(Repr::Small(s))
                }
                None => {
                    stats::count_promotion();
                    BigInt::from(*a as i128 - *b as i128)
                }
            };
        }
        stats::count_big();
        self.sub_limbs(other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            return match a.checked_mul(*b) {
                Some(p) => {
                    stats::count_small();
                    BigInt(Repr::Small(p))
                }
                None => {
                    stats::count_promotion();
                    BigInt::from(*a as i128 * *b as i128)
                }
            };
        }
        stats::count_big();
        self.mul_limbs(other)
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.divmod(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.divmod(other).1
    }
}

macro_rules! forward_binop_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                (&self).$method(&other)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, other: &BigInt) -> BigInt {
                (&self).$method(other)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, other: BigInt) -> BigInt {
                self.$method(&other)
            }
        }
    };
}

forward_binop_owned!(Add, add);
forward_binop_owned!(Sub, sub);
forward_binop_owned!(Mul, mul);
forward_binop_owned!(Div, div);
forward_binop_owned!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Big { sign, mag } => (*sign, mag),
        };
        if sign < 0 {
            write!(f, "-")?;
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = mag.clone();
        let mut chunks: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = BigInt::divmod_small(&mag, CHUNK);
            chunks.push(r);
            mag = q;
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.iter().rev() {
            write!(f, "{:019}", c)?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({})", self)
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from(v)
    }

    /// True iff the value uses the inline representation.
    fn is_small(v: &BigInt) -> bool {
        matches!(v.0, Repr::Small(_))
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(!BigInt::one().is_zero());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(BigInt::one().to_string(), "1");
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(bi(4).lcm(&bi(6)), bi(12));
        assert_eq!(bi(-4).lcm(&bi(6)), bi(12));
        assert_eq!(bi(4).lcm(&bi(-6)), bi(12));
        assert_eq!(bi(7).lcm(&bi(7)), bi(7));
        assert_eq!(bi(0).lcm(&bi(5)), bi(0));
        assert_eq!(bi(5).lcm(&bi(0)), bi(0));
        assert_eq!(bi(1).lcm(&bi(9)), bi(9));
    }

    #[test]
    fn lcm_promotes_past_i64() {
        // lcm(2^62, 3·2^62) = 3·2^62 > i64::MAX must promote, not wrap.
        let a = bi(1i64 << 62);
        let b = &bi(3) * &bi(1i64 << 62);
        let l = a.lcm(&b);
        assert_eq!(l, b.abs());
        assert!(!is_small(&l));
        // Coprime pair whose product leaves i64.
        let p = bi(i64::MAX);
        let q = bi(i64::MAX - 1);
        assert_eq!(p.lcm(&q), &p * &q);
    }

    #[test]
    fn from_i64_roundtrip() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN + 1] {
            assert_eq!(bi(v).to_i64(), Some(v));
            assert_eq!(bi(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn i64_min_roundtrip() {
        let v = BigInt::from(i64::MIN);
        assert_eq!(v.to_string(), i64::MIN.to_string());
        assert_eq!(v.to_i64(), Some(i64::MIN));
    }

    #[test]
    fn add_small() {
        assert_eq!(&bi(2) + &bi(3), bi(5));
        assert_eq!(&bi(-2) + &bi(3), bi(1));
        assert_eq!(&bi(2) + &bi(-3), bi(-1));
        assert_eq!(&bi(-2) + &bi(-3), bi(-5));
        assert_eq!(&bi(2) + &bi(-2), bi(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let max = BigInt::from(u64::MAX);
        let sum = &max + &BigInt::one();
        assert_eq!(sum.to_string(), "18446744073709551616");
        assert_eq!(&sum - &BigInt::one(), max);
    }

    #[test]
    fn sub_small() {
        assert_eq!(&bi(10) - &bi(4), bi(6));
        assert_eq!(&bi(4) - &bi(10), bi(-6));
        assert_eq!(&bi(-4) - &bi(-10), bi(6));
    }

    #[test]
    fn mul_small() {
        assert_eq!(&bi(6) * &bi(7), bi(42));
        assert_eq!(&bi(-6) * &bi(7), bi(-42));
        assert_eq!(&bi(-6) * &bi(-7), bi(42));
        assert_eq!(&bi(0) * &bi(7), bi(0));
    }

    #[test]
    fn mul_multi_limb() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let max = BigInt::from(u64::MAX);
        let sq = &max * &max;
        assert_eq!(sq.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn divmod_small_values() {
        let (q, r) = bi(17).divmod(&bi(5));
        assert_eq!((q, r), (bi(3), bi(2)));
        let (q, r) = bi(-17).divmod(&bi(5));
        assert_eq!((q, r), (bi(-3), bi(-2)));
        let (q, r) = bi(17).divmod(&bi(-5));
        assert_eq!((q, r), (bi(-3), bi(2)));
        let (q, r) = bi(-17).divmod(&bi(-5));
        assert_eq!((q, r), (bi(3), bi(-2)));
    }

    #[test]
    fn divmod_multi_limb() {
        let a = BigInt::from_decimal("340282366920938463426481119284349108225").unwrap();
        let b = BigInt::from_decimal("18446744073709551615").unwrap();
        let (q, r) = a.divmod(&b);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = bi(1).divmod(&bi(0));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(5).gcd(&bi(0)), bi(5));
        assert_eq!(bi(7).gcd(&bi(13)), bi(1));
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-1));
        assert!(bi(-1) < bi(0));
        assert!(bi(0) < bi(1));
        assert!(bi(1) < bi(5));
        let big = BigInt::from_decimal("99999999999999999999999").unwrap();
        assert!(bi(i64::MAX) < big);
        assert!(-&big < bi(i64::MIN));
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in
            ["0", "1", "-1", "123456789012345678901234567890", "-987654321098765432109876543210"]
        {
            let v = BigInt::from_decimal(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!(BigInt::from_decimal("").is_none());
        assert!(BigInt::from_decimal("12a").is_none());
        assert!(BigInt::from_decimal("-").is_none());
    }

    #[test]
    fn bits_counts() {
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(bi(256).bits(), 9);
        let big = &BigInt::from(u64::MAX) + &BigInt::one();
        assert_eq!(big.bits(), 65);
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(42).to_f64(), 42.0);
        assert_eq!(bi(-42).to_f64(), -42.0);
        let big = BigInt::from_decimal("100000000000000000000").unwrap();
        assert!((big.to_f64() - 1e20).abs() < 1e6);
    }

    // --- canonical-form tests for the small-value representation ---

    #[test]
    fn canonical_form_at_the_i64_boundary() {
        // Values inside the i64 range must always be Small, even when they
        // arrive via limb-path constructors.
        assert!(is_small(&BigInt::from_decimal("9223372036854775807").unwrap()));
        assert!(is_small(&BigInt::from_decimal("-9223372036854775808").unwrap()));
        assert!(!is_small(&BigInt::from_decimal("9223372036854775808").unwrap()));
        assert!(!is_small(&BigInt::from_decimal("-9223372036854775809").unwrap()));
        // Structural equality across construction routes.
        assert_eq!(BigInt::from_decimal("9223372036854775807").unwrap(), bi(i64::MAX));
        assert_eq!(BigInt::from_decimal("-9223372036854775808").unwrap(), bi(i64::MIN));
    }

    #[test]
    fn demotion_after_shrinking() {
        // Grow past i64, come back: the result must be Small again so that
        // Eq/Hash stay structural.
        let max = bi(i64::MAX);
        let promoted = &max + &BigInt::one();
        assert!(!is_small(&promoted));
        assert_eq!(promoted.to_i64(), None);
        let back = &promoted - &BigInt::one();
        assert!(is_small(&back));
        assert_eq!(back, max);
    }

    #[test]
    fn negation_at_i64_min() {
        let min = bi(i64::MIN);
        let negated = -&min;
        assert_eq!(negated.to_string(), "9223372036854775808");
        assert!(!is_small(&negated));
        let round_trip = -&negated;
        assert!(is_small(&round_trip));
        assert_eq!(round_trip, min);
        assert_eq!(min.abs(), negated);
    }

    #[test]
    fn overflow_promotion_cases() {
        // i64::MIN / -1 is the only divmod case that leaves i64.
        let (q, r) = bi(i64::MIN).divmod(&bi(-1));
        assert_eq!(q.to_string(), "9223372036854775808");
        assert!(r.is_zero());
        // gcd(i64::MIN, i64::MIN) = 2^63.
        let g = bi(i64::MIN).gcd(&bi(i64::MIN));
        assert_eq!(g.to_string(), "9223372036854775808");
        // Near-max product promotes and agrees with the limb path.
        let a = bi(i64::MAX);
        let p = &a * &a;
        assert_eq!(p, a.ref_mul(&a));
        assert_eq!(p.to_string(), "85070591730234615847396907784232501249");
    }

    #[test]
    fn reference_ops_match_operators() {
        let vals =
            [bi(0), bi(1), bi(-1), bi(i64::MAX), bi(i64::MIN), &bi(i64::MAX) * &bi(i64::MAX)];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.ref_add(b), a + b);
                assert_eq!(a.ref_sub(b), a - b);
                assert_eq!(a.ref_mul(b), a * b);
                assert_eq!(a.ref_gcd(b), a.gcd(b));
                if !b.is_zero() {
                    assert_eq!(a.ref_divmod(b), a.divmod(b));
                }
            }
        }
    }
}
