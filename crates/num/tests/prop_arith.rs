//! Randomized property tests for the exact-arithmetic substrate.
//!
//! These compare BigInt/Rat operations against i128 reference arithmetic on
//! ranges where i128 cannot overflow, and check algebraic laws on ranges
//! where it can. Each property runs a few hundred seeded-deterministic
//! cases (no external property-testing crate: the registry is unreachable
//! in this build environment).

use ccmatic_num::{BigInt, DeltaRat, Rat, SmallRng};

const CASES: usize = 256;

fn bi(v: i128) -> BigInt {
    BigInt::from(v)
}

fn any_i64(rng: &mut SmallRng) -> i64 {
    rng.next_u64() as i64
}

fn any_i128(rng: &mut SmallRng) -> i128 {
    ((rng.next_u64() as i128) << 64) | rng.next_u64() as i128
}

#[test]
fn add_sub_mul_match_i128() {
    let mut rng = SmallRng::seed_from_u64(1);
    for _ in 0..CASES {
        let a = rng.gen_range_i64(-1_000_000_000_000, 1_000_000_000_000) as i128;
        let b = rng.gen_range_i64(-1_000_000_000_000, 1_000_000_000_000) as i128;
        assert_eq!(&bi(a) + &bi(b), bi(a + b));
        assert_eq!(&bi(a) - &bi(b), bi(a - b));
        let am = rng.gen_range_i64(-1_000_000_000, 1_000_000_000) as i128;
        let bm = rng.gen_range_i64(-1_000_000_000, 1_000_000_000) as i128;
        assert_eq!(&bi(am) * &bi(bm), bi(am * bm));
    }
}

#[test]
fn divmod_matches_i128() {
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..CASES {
        let a = rng.gen_range_i64(-1_000_000_000_000, 1_000_000_000_000) as i128;
        let b = rng.gen_range_i64(-1_000_000, 1_000_000) as i128;
        if b == 0 {
            continue;
        }
        let (q, r) = bi(a).divmod(&bi(b));
        assert_eq!(q, bi(a / b));
        assert_eq!(r, bi(a % b));
    }
}

#[test]
fn divmod_reconstructs() {
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..CASES {
        let (a, b) = (any_i64(&mut rng), any_i64(&mut rng));
        if b == 0 {
            continue;
        }
        let (a, b) = (BigInt::from(a), BigInt::from(b));
        let (q, r) = a.divmod(&b);
        assert_eq!(&(&q * &b) + &r, a.clone());
        assert!(r.abs() < b.abs());
    }
}

#[test]
fn ring_laws_hold_on_full_i64_range() {
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..CASES {
        let a = BigInt::from(any_i64(&mut rng));
        let b = BigInt::from(any_i64(&mut rng));
        let c = BigInt::from(any_i64(&mut rng));
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c), "associativity");
        assert_eq!(&a + &b, &b + &a, "commutativity");
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c), "distributivity");
    }
}

#[test]
fn gcd_divides_both() {
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..CASES {
        let a = BigInt::from(any_i64(&mut rng));
        let b = BigInt::from(any_i64(&mut rng));
        let g = a.gcd(&b);
        if !g.is_zero() {
            assert!(a.divmod(&g).1.is_zero());
            assert!(b.divmod(&g).1.is_zero());
        } else {
            assert!(a.is_zero() && b.is_zero());
        }
    }
}

#[test]
fn display_parse_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(6);
    for _ in 0..CASES {
        let a = any_i128(&mut rng);
        let v = BigInt::from(a);
        let s = v.to_string();
        assert_eq!(BigInt::from_decimal(&s).unwrap(), v);
        assert_eq!(s, a.to_string());
    }
}

#[test]
fn ordering_matches_i128() {
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..CASES {
        let (a, b) = (any_i128(&mut rng), any_i128(&mut rng));
        assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b));
    }
}

fn small_rat(rng: &mut SmallRng) -> Rat {
    Rat::new(BigInt::from(rng.gen_range_i64(-1000, 1000)), BigInt::from(rng.gen_range_i64(1, 100)))
}

#[test]
fn rat_field_laws() {
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..CASES {
        let a = small_rat(&mut rng);
        let b = small_rat(&mut rng);
        let c = small_rat(&mut rng);
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        assert!((&a - &a).is_zero());
        if !a.is_zero() {
            assert_eq!(&a * &a.recip(), Rat::one());
        }
    }
}

#[test]
fn rat_ordering_consistent_with_f64() {
    let mut rng = SmallRng::seed_from_u64(9);
    for _ in 0..CASES {
        let an = rng.gen_range_i64(-1000, 1000);
        let ad = rng.gen_range_i64(1, 100);
        let bn = rng.gen_range_i64(-1000, 1000);
        let bd = rng.gen_range_i64(1, 100);
        let a = Rat::new(BigInt::from(an), BigInt::from(ad));
        let b = Rat::new(BigInt::from(bn), BigInt::from(bd));
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            assert_eq!(a < b, fa < fb);
        }
    }
}

#[test]
fn rat_floor_ceil_bracket() {
    let mut rng = SmallRng::seed_from_u64(10);
    for _ in 0..CASES {
        let a = Rat::new(
            BigInt::from(rng.gen_range_i64(-10_000, 10_000)),
            BigInt::from(rng.gen_range_i64(1, 100)),
        );
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        assert!(fl <= a && a <= ce);
        assert!(&ce - &fl <= Rat::one());
    }
}

fn small_delta(rng: &mut SmallRng) -> DeltaRat {
    DeltaRat::new(Rat::from(rng.gen_range_i64(-100, 100)), Rat::from(rng.gen_range_i64(-5, 5)))
}

#[test]
fn delta_order_is_total_and_translation_invariant() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..CASES {
        let a = small_delta(&mut rng);
        let b = small_delta(&mut rng);
        let t = DeltaRat::new(
            Rat::from(rng.gen_range_i64(-50, 50)),
            Rat::from(rng.gen_range_i64(-3, 3)),
        );
        assert_eq!((&a + &t).cmp(&(&b + &t)), a.cmp(&b));
    }
}

// --- differential suite: small-value fast path vs always-bignum reference ---
//
// The fast path (inline i64 + i128 intermediates) and the limb path (the
// `ref_*` hooks, which force limb arithmetic regardless of representation)
// must produce bit-identical values — same canonical representation, so
// plain `==` is the strongest possible check. The two random drivers below
// together perform well over 10^5 compared operations, with the value
// generators biased toward the overflow boundary (i64::MIN, near-i64::MAX
// products, ±2^62, √i64::MAX neighbourhoods) where promotions happen.

/// i64 values biased toward the promotion boundary.
fn boundary_i64(rng: &mut SmallRng) -> i64 {
    const SQRT_MAX: i64 = 3_037_000_499; // ⌊√i64::MAX⌋: products near ±2^63
    const SPECIALS: [i64; 14] = [
        0,
        1,
        -1,
        2,
        -2,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
        SQRT_MAX,
        -SQRT_MAX,
        SQRT_MAX + 1,
    ];
    match rng.gen_range_usize(0, 4) {
        0 => SPECIALS[rng.gen_range_usize(0, SPECIALS.len())],
        1 => rng.next_u64() as i64,
        2 => rng.gen_range_i64(-1000, 1000),
        _ => SQRT_MAX.saturating_add(rng.gen_range_i64(-4, 5)),
    }
}

/// BigInts spanning inline, just-promoted, and multi-limb values.
fn mixed_bigint(rng: &mut SmallRng) -> BigInt {
    match rng.gen_range_usize(0, 3) {
        0 => BigInt::from(boundary_i64(rng)),
        1 => BigInt::from(any_i128(rng)),
        _ => &BigInt::from(boundary_i64(rng)) * &BigInt::from(boundary_i64(rng)),
    }
}

#[test]
fn differential_bigint_fast_path_vs_limb_reference() {
    let mut rng = SmallRng::seed_from_u64(20);
    let mut ops = 0u64;
    for _ in 0..12_000 {
        let a = mixed_bigint(&mut rng);
        let b = mixed_bigint(&mut rng);
        assert_eq!(&a + &b, a.ref_add(&b), "add: {a:?} + {b:?}");
        assert_eq!(&a - &b, a.ref_sub(&b), "sub: {a:?} - {b:?}");
        assert_eq!(&a * &b, a.ref_mul(&b), "mul: {a:?} * {b:?}");
        assert_eq!(a.gcd(&b), a.ref_gcd(&b), "gcd: {a:?}, {b:?}");
        ops += 4;
        if !b.is_zero() {
            assert_eq!(a.divmod(&b), a.ref_divmod(&b), "divmod: {a:?}, {b:?}");
            ops += 1;
        }
    }
    assert!(ops >= 55_000, "differential coverage too thin: {ops} ops");
}

#[test]
fn differential_bigint_directed_boundary_cases() {
    let specials = [
        BigInt::from(0i64),
        BigInt::from(1i64),
        BigInt::from(-1i64),
        BigInt::from(i64::MAX),
        BigInt::from(i64::MIN),
        BigInt::from(i64::MIN + 1),
        BigInt::from(1i64 << 62),
        BigInt::from((i64::MAX as i128) + 1),
        BigInt::from((i64::MIN as i128) - 1),
        BigInt::from(i128::MAX),
        BigInt::from(i128::MIN),
        BigInt::from_decimal("340282366920938463426481119284349108225").unwrap(),
    ];
    for a in &specials {
        for b in &specials {
            assert_eq!(&(a + b), &a.ref_add(b));
            assert_eq!(&(a - b), &a.ref_sub(b));
            assert_eq!(&(a * b), &a.ref_mul(b));
            assert_eq!(a.gcd(b), a.ref_gcd(b));
            if !b.is_zero() {
                assert_eq!(a.divmod(b), a.ref_divmod(b));
            }
        }
    }
}

/// Rats spanning inline and promoted numerators/denominators, biased
/// toward gcd-normalization and overflow boundaries.
fn mixed_rat(rng: &mut SmallRng) -> Rat {
    let num = boundary_i64(rng);
    let den = match rng.gen_range_usize(0, 3) {
        0 => boundary_i64(rng),
        1 => rng.gen_range_i64(1, 100),
        _ => i64::MAX - rng.gen_range_i64(0, 3),
    };
    if den == 0 {
        return Rat::from(num);
    }
    Rat::new(BigInt::from(num), BigInt::from(den))
}

#[test]
fn differential_rat_fast_path_vs_limb_reference() {
    let mut rng = SmallRng::seed_from_u64(21);
    let mut ops = 0u64;
    for _ in 0..12_000 {
        let a = mixed_rat(&mut rng);
        let b = mixed_rat(&mut rng);
        assert_eq!(&a + &b, a.ref_add(&b), "add: {a:?} + {b:?}");
        assert_eq!(&a - &b, a.ref_sub(&b), "sub: {a:?} - {b:?}");
        assert_eq!(&a * &b, a.ref_mul(&b), "mul: {a:?} * {b:?}");
        assert_eq!(a.cmp(&b), a.ref_cmp(&b), "cmp: {a:?} vs {b:?}");
        ops += 4;
        if !b.is_zero() {
            assert_eq!(&a / &b, a.ref_div(&b), "div: {a:?} / {b:?}");
            ops += 1;
        }
    }
    assert!(ops >= 55_000, "differential coverage too thin: {ops} ops");
}

#[test]
fn differential_rat_gcd_normalization() {
    // Construction must reduce identically on both paths, including the
    // i64::MIN sign-flip and common factors that only cancel after the
    // cross-multiplication.
    let cases: [(i64, i64); 8] = [
        (i64::MIN, i64::MIN),
        (i64::MIN, -1),
        (i64::MIN, 2),
        (i64::MAX, i64::MAX),
        (i64::MAX - 1, i64::MAX - 1),
        (3_000_000_021, -9), // gcd 3, plus a sign flip into the numerator
        (1 << 62, -(1 << 61)),
        (0, i64::MIN),
    ];
    for (n, d) in cases {
        let fast = Rat::new(BigInt::from(n), BigInt::from(d));
        let reference = Rat::ref_new(BigInt::from(n), BigInt::from(d));
        assert_eq!(fast, reference, "Rat::new({n}, {d})");
        assert!(fast.denom().is_positive());
        assert_eq!(fast.numer().gcd(fast.denom()), BigInt::one(), "not fully reduced");
    }
    // Scaling numerator and denominator by a common factor must not change
    // the value, whichever path performs the reduction.
    let mut rng = SmallRng::seed_from_u64(22);
    for _ in 0..2_000 {
        let n = rng.gen_range_i64(-1_000_000, 1_000_000);
        let d = rng.gen_range_i64(1, 1_000_000);
        let k = rng.gen_range_i64(1, 3_000_000_000);
        let scaled =
            Rat::new(&BigInt::from(n) * &BigInt::from(k), &BigInt::from(d) * &BigInt::from(k));
        assert_eq!(scaled, Rat::new(BigInt::from(n), BigInt::from(d)));
        assert_eq!(scaled, Rat::ref_new(BigInt::from(n), BigInt::from(d)));
    }
}

#[test]
fn differential_rat_cross_products_at_word_boundaries() {
    // Components around 2^31.5 (√i64::MAX), 2^32 (√u64::MAX) and 2^62..2^63
    // put the i128 cross-products, before and after reduction, on every
    // side of the i64 and u64 boundaries, where the normalizer switches
    // between its u64 and u128 gcd and between inline and promoted results.
    const SQRT_MAX: i64 = 3_037_000_499;
    let parts: [i64; 14] = [
        1,
        6,
        SQRT_MAX,
        SQRT_MAX + 1,
        (1 << 32) - 1,
        1 << 32,
        (1 << 32) + 1,
        3 << 31,
        1 << 62,
        (1 << 62) + 2,
        i64::MAX - 1,
        i64::MAX,
        -(1 << 32),
        i64::MIN,
    ];
    let rats: Vec<Rat> = parts
        .iter()
        .flat_map(|&n| {
            parts
                .iter()
                .filter(|&&d| d > 0)
                .map(move |&d| Rat::new(BigInt::from(n), BigInt::from(d)))
        })
        .collect();
    let mut bands = [false; 3];
    for a in &rats {
        for b in &rats {
            if let (Some(an), Some(ad), Some(bn), Some(bd)) =
                (a.numer().to_i64(), a.denom().to_i64(), b.numer().to_i64(), b.denom().to_i64())
            {
                let m = (an as i128 * bd as i128 + bn as i128 * ad as i128).unsigned_abs();
                bands[if m <= i64::MAX as u128 {
                    0
                } else if m <= u64::MAX as u128 {
                    1
                } else {
                    2
                }] = true;
            }
            assert_eq!(a + b, a.ref_add(b), "add: {a:?} + {b:?}");
            assert_eq!(a - b, a.ref_sub(b), "sub: {a:?} - {b:?}");
            assert_eq!(a * b, a.ref_mul(b), "mul: {a:?} * {b:?}");
            assert_eq!(a.cmp(b), a.ref_cmp(b), "cmp: {a:?} vs {b:?}");
            if !b.is_zero() {
                assert_eq!(a / b, a.ref_div(b), "div: {a:?} / {b:?}");
            }
        }
    }
    assert_eq!(bands, [true; 3], "cross-products must land in every word band");
}

#[test]
fn differential_delta_rat_strict_bound_arithmetic() {
    // DeltaRat is componentwise Rat arithmetic; drive the strict-bound
    // constructors with boundary rationals and compare every component
    // against the limb-path reference.
    let mut rng = SmallRng::seed_from_u64(23);
    for _ in 0..4_000 {
        let r = mixed_rat(&mut rng);
        let s = mixed_rat(&mut rng);
        let below = DeltaRat::strictly_below(r.clone());
        let above = DeltaRat::strictly_above(s.clone());
        let sum = &below + &above;
        assert_eq!(sum.real, r.ref_add(&s));
        assert!(sum.delta.is_zero(), "-δ + δ must cancel exactly");
        let diff = &below - &above;
        assert_eq!(diff.real, r.ref_sub(&s));
        assert_eq!(diff.delta, Rat::from(-2i64));
        let k = mixed_rat(&mut rng);
        let scaled = below.scale(&k);
        assert_eq!(scaled.real, r.ref_mul(&k));
        assert_eq!(scaled.delta, Rat::from(-1i64).ref_mul(&k));
        // Strictness is preserved under order: x < r iff x ≤ r − δ.
        assert!(below < DeltaRat::from(r.clone()));
        assert!(above > DeltaRat::from(s.clone()));
    }
}

#[test]
fn fast_path_covers_small_workload() {
    // Sanity-check the observability story: a workload of small-coefficient
    // rational arithmetic (what the simplex tableau looks like) must be
    // almost entirely fast-path, and the counters must see it.
    let before = ccmatic_num::arith_snapshot();
    let mut rng = SmallRng::seed_from_u64(24);
    let mut acc = Rat::zero();
    for _ in 0..10_000 {
        let x = small_rat(&mut rng);
        let y = small_rat(&mut rng);
        acc = &(&acc + &(&x * &y)) - &x;
        if acc.numer().bits() > 40 {
            acc = small_rat(&mut rng);
        }
    }
    let stats = ccmatic_num::arith_snapshot().since(&before);
    // Other tests run concurrently in this process and add their own (big)
    // ops to the window, so only the monotone lower bound is safe here; the
    // ≥99% coverage acceptance check runs on the bench workload, where the
    // snapshot deltas are process-exclusive.
    assert!(stats.small_ops >= 30_000, "counter missed the workload: {stats:?}");
}

#[test]
fn delta_eval_preserves_order_for_small_delta() {
    let mut rng = SmallRng::seed_from_u64(12);
    for _ in 0..CASES {
        let a = small_delta(&mut rng);
        let b = small_delta(&mut rng);
        // For delta small enough, strict order over DeltaRat implies
        // non-strict order of the evaluations. (1/1000 is small enough
        // given real parts are integers and |delta coeff| <= 5.)
        let dv = Rat::new(BigInt::from(1i64), BigInt::from(1000i64));
        if a < b {
            assert!(a.eval(&dv) <= b.eval(&dv));
        }
    }
}
