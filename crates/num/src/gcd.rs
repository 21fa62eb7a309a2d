//! Binary (Stein) gcd on machine words.
//!
//! Euclid's algorithm costs one division per step, and a `u128` division
//! is a software routine; Stein's algorithm needs only shifts, compares
//! and subtractions, which are single instructions on `u64` and a couple
//! on `u128`. Every word-sized gcd in this crate and the simplex's
//! word-sized row merge goes through these two functions.

/// Greatest common divisor of two `u64`s (`gcd(0, x) = x`).
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        // Both odd from here on: their difference is even and nonzero
        // until they meet.
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Greatest common divisor of two `u128`s (`gcd(0, x) = x`); drops to
/// [`gcd_u64`] as soon as both operands fit a word.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if let (Ok(x), Ok(y)) = (u64::try_from(a), u64::try_from(b)) {
            return (gcd_u64(x, y) as u128) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallRng;

    fn euclid(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    /// Edge values: zero, one, the sign boundary 2⁶³, the word maximum,
    /// every power of two and their neighbours.
    fn edges() -> Vec<u64> {
        let mut v = vec![0, 1, 2, 3, 1 << 63, u64::MAX, u64::MAX - 1, i64::MAX as u64];
        for k in 0..64 {
            v.extend([1u64 << k, (1u64 << k).wrapping_sub(1), (1u64 << k) | 1]);
        }
        v
    }

    #[test]
    fn gcd_u64_matches_euclid_on_edges_and_random_pairs() {
        let vals = edges();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(gcd_u64(a, b) as u128, euclid(a as u128, b as u128), "gcd({a}, {b})");
            }
        }
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20_000 {
            // Shared power-of-two and odd factors make non-trivial gcds common.
            let f = rng.next_u64() >> rng.gen_range_usize(0, 64);
            let a = (rng.next_u64() >> rng.gen_range_usize(0, 64)).wrapping_mul(f);
            let b = (rng.next_u64() >> rng.gen_range_usize(0, 64)).wrapping_mul(f);
            assert_eq!(gcd_u64(a, b) as u128, euclid(a as u128, b as u128), "gcd({a}, {b})");
        }
    }

    #[test]
    fn gcd_u128_matches_euclid_across_the_word_boundary() {
        let mut vals: Vec<u128> = edges().into_iter().map(u128::from).collect();
        vals.extend([1u128 << 64, (1u128 << 64) + 1, 1u128 << 126, u128::MAX, 3u128 << 100]);
        for &a in &vals {
            for &b in &vals {
                assert_eq!(gcd_u128(a, b), euclid(a, b), "gcd({a}, {b})");
            }
        }
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..20_000 {
            let wide = |rng: &mut SmallRng| {
                ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128)
                    >> rng.gen_range_usize(0, 128)
            };
            let f = wide(&mut rng) >> 64;
            let (a, b) = (wide(&mut rng).wrapping_mul(f), wide(&mut rng).wrapping_mul(f));
            assert_eq!(gcd_u128(a, b), euclid(a, b), "gcd({a}, {b})");
        }
    }
}
