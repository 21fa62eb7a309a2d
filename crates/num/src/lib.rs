//! Exact arbitrary-precision arithmetic for the CCmatic workspace.
//!
//! The simplex-based linear-real-arithmetic theory solver in the
//! `ccmatic-smt` crate pivots on exact rational tableaux; floating point
//! would silently break soundness and fixed-width integers overflow after a
//! few dozen pivots. This crate provides the three numeric types the solver
//! needs:
//!
//! * [`BigInt`] — sign-magnitude arbitrary-precision integer,
//! * [`Rat`] — normalized rational built on [`BigInt`],
//! * [`DeltaRat`] — a rational extended with an infinitesimal `δ` component,
//!   used to represent strict bounds (`x < c` becomes `x ≤ c − δ`).
//!
//! The types are deliberately simple (schoolbook multiplication, Knuth-style
//! long division): formulas in this workspace have at most a few thousand
//! atoms and coefficients that start as small integers or halves, so limb
//! counts stay tiny and asymptotics never matter. Simplicity and obvious
//! correctness win (the smoltcp design rule).
//!
//! Because coefficients are small, both [`BigInt`] and [`Rat`] carry an
//! inline machine-word fast path and promote to heap-allocated limbs only
//! on overflow; [`arith_snapshot`] exposes process-wide counters
//! ([`ArithStats`]) of fast-path coverage and promotions.

mod bigint;
mod delta;
mod gcd;
mod rational;
pub mod rng;
mod stats;

pub use bigint::BigInt;
pub use delta::DeltaRat;
pub use gcd::gcd_u64;
pub use rational::Rat;
pub use rng::SmallRng;
pub use stats::{snapshot as arith_snapshot, ArithStats};

/// Convenience constructor: the rational `n / d`.
///
/// # Panics
/// Panics if `d == 0`.
pub fn rat(n: i64, d: i64) -> Rat {
    Rat::new(BigInt::from(n), BigInt::from(d))
}

/// Convenience constructor: the integer rational `n`.
pub fn int(n: i64) -> Rat {
    Rat::from(n)
}
