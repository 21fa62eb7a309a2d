//! Tableau rows that leave the `i64` range inside `Solver::check`.
//!
//! Conjunctions of dense linear bounds whose coefficients sit near 2^62
//! make the simplex spill rows to `BigInt` entries during the search. Each
//! verdict is then checked without the simplex: a `Sat` model by exact
//! rational evaluation of every asserted atom, an `Unsat` verdict by
//! replaying its certificate in the independent proof checker.

use ccmatic_num::{int, Rat, SmallRng};
use ccmatic_proof::{check, UnsatCertificate};
use ccmatic_smt::lra::row_spills_total;
use ccmatic_smt::{Context, LinExpr, SatResult, Solver, Term};

/// A coefficient near ±2^62 two times in three, else a small integer.
fn coeff(rng: &mut SmallRng) -> Rat {
    let near = (1i64 << 62) + rng.gen_range_i64(-3, 4);
    match rng.gen_range_usize(0, 6) {
        0 | 1 => int(near),
        2 | 3 => int(-near),
        _ => int(rng.gen_range_i64(-3, 4)),
    }
}

#[test]
fn spilled_rows_give_independently_checked_verdicts() {
    let mut rng = SmallRng::seed_from_u64(0x5B11);
    let spills_before = row_spills_total();
    let (mut sat, mut unsat) = (0, 0);
    for _ in 0..40 {
        let mut ctx = Context::new();
        let xs: Vec<_> = (0..4).map(|i| ctx.real_var(format!("x{i}"))).collect();
        let mut parts: Vec<Term> = Vec::new();
        for &x in &xs {
            let bound = int(rng.gen_range_i64(1, 6));
            parts.push(ctx.le(LinExpr::var(x), LinExpr::constant(bound.clone())));
            parts.push(ctx.ge(LinExpr::var(x), LinExpr::constant(-bound)));
        }
        for _ in 0..rng.gen_range_usize(4, 9) {
            let mut lhs = LinExpr::zero();
            for &x in &xs {
                lhs.add_term(x, &coeff(&mut rng));
            }
            let rhs = LinExpr::constant(&int(1 << 62) * &int(rng.gen_range_i64(-12, 13)));
            parts.push(if rng.gen_bool(0.5) { ctx.le(lhs, rhs) } else { ctx.ge(lhs, rhs) });
        }
        let mut s = Solver::new();
        s.enable_proofs();
        for &t in &parts {
            s.assert(&ctx, t);
        }
        match s.check(&ctx) {
            SatResult::Sat => {
                let model = s.model().expect("a Sat verdict has a model");
                for &t in &parts {
                    assert!(model.satisfies(&ctx, t), "the model violates an asserted atom");
                }
                sat += 1;
            }
            SatResult::Unsat => {
                let len = s.proof_position().expect("an Unsat verdict carries a certificate");
                let cert = UnsatCertificate { steps: s.take_proof_steps() };
                assert_eq!(cert.steps.len(), len, "the certificate is the whole log");
                check(&cert).unwrap_or_else(|e| panic!("the checker rejected a certificate: {e}"));
                unsat += 1;
            }
            SatResult::Unknown => panic!("a check without an interrupt returned Unknown"),
        }
    }
    let spills = row_spills_total() - spills_before;
    assert!(spills > 0, "no row left the word range");
    assert!(sat > 3 && unsat > 3, "skewed sample: {sat} sat, {unsat} unsat");
    eprintln!("{sat} sat, {unsat} unsat, {spills} row spills");
}
