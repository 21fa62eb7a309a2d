//! Tests for trail-synchronized incremental theory solving.
//!
//! The theory bridge asserts and undoes simplex bounds in lockstep with the
//! SAT trail, and theory propagation enqueues implied atom literals with
//! lazy Farkas explanations. Neither may change a verdict. Each verdict is
//! checked without a second solver path: `Sat` models by exact evaluation
//! of the formula, `Unsat` verdicts by a certificate that the independent
//! checker accepts. A corrupted propagation explanation must be rejected by
//! that checker, and scoped checks must agree with fresh solvers.

use ccmatic_num::{int, rat, Rat, SmallRng};
use ccmatic_proof::{ProofStep, UnsatCertificate};
use ccmatic_smt::{Context, LinExpr, SatResult, Solver, Term};

/// A randomly generated formula AST we can both encode and evaluate
/// (same shape as the grid-oracle suite in `random_qflra.rs`).
#[derive(Debug, Clone)]
enum F {
    Atom { a: i64, b: i64, c: i64, rel: u8 }, // a·x + b·y REL c, rel in 0..4
    Not(Box<F>),
    And(Vec<F>),
    Or(Vec<F>),
}

fn gen_formula(rng: &mut SmallRng, depth: u32) -> F {
    if depth == 0 || rng.gen_bool(0.45) {
        return F::Atom {
            a: rng.gen_range_i64(-2, 3),
            b: rng.gen_range_i64(-2, 3),
            c: rng.gen_range_i64(-4, 5),
            rel: rng.gen_range_i64(0, 4) as u8,
        };
    }
    match rng.gen_range_i64(0, 3) {
        0 => F::Not(Box::new(gen_formula(rng, depth - 1))),
        1 => F::And((0..rng.gen_range_usize(2, 4)).map(|_| gen_formula(rng, depth - 1)).collect()),
        _ => F::Or((0..rng.gen_range_usize(2, 4)).map(|_| gen_formula(rng, depth - 1)).collect()),
    }
}

fn encode(ctx: &mut Context, f: &F, x: ccmatic_smt::RealVar, y: ccmatic_smt::RealVar) -> Term {
    match f {
        F::Atom { a, b, c, rel } => {
            let lhs = LinExpr::term(x, int(*a)) + LinExpr::term(y, int(*b));
            let rhs = LinExpr::constant(int(*c));
            match rel {
                0 => ctx.le(lhs, rhs),
                1 => ctx.lt(lhs, rhs),
                2 => ctx.ge(lhs, rhs),
                _ => ctx.gt(lhs, rhs),
            }
        }
        F::Not(g) => {
            let t = encode(ctx, g, x, y);
            ctx.not(t)
        }
        F::And(gs) => {
            let ts: Vec<Term> = gs.iter().map(|g| encode(ctx, g, x, y)).collect();
            ctx.and(ts)
        }
        F::Or(gs) => {
            let ts: Vec<Term> = gs.iter().map(|g| encode(ctx, g, x, y)).collect();
            ctx.or(ts)
        }
    }
}

fn eval(f: &F, x: &Rat, y: &Rat) -> bool {
    match f {
        F::Atom { a, b, c, rel } => {
            let lhs = &(x * &int(*a)) + &(y * &int(*b));
            let rhs = int(*c);
            match rel {
                0 => lhs <= rhs,
                1 => lhs < rhs,
                2 => lhs >= rhs,
                _ => lhs > rhs,
            }
        }
        F::Not(g) => !eval(g, x, y),
        F::And(gs) => gs.iter().all(|g| eval(g, x, y)),
        F::Or(gs) => gs.iter().any(|g| eval(g, x, y)),
    }
}

/// Solve one formula with proof logging and check the verdict
/// independently: a `Sat` model must satisfy the formula under exact
/// evaluation, an `Unsat` verdict must carry a certificate the checker
/// accepts.
fn solve_checked(f: &F) -> SatResult {
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let y = ctx.real_var("y");
    let t = encode(&mut ctx, f, x, y);
    let mut solver = Solver::new();
    solver.enable_proofs();
    solver.assert(&ctx, t);
    let result = solver.check(&ctx);
    match result {
        SatResult::Sat => {
            let m = solver.model().unwrap();
            let (xv, yv) = (m.real(x), m.real(y));
            assert!(eval(f, &xv, &yv), "model (x={xv}, y={yv}) does not satisfy {f:?}");
        }
        SatResult::Unsat => {
            let len = solver.proof_position().expect("unsat verdict must carry a certificate");
            let cert = UnsatCertificate { steps: solver.take_proof_steps() };
            assert_eq!(cert.steps.len(), len, "the certificate is the whole log");
            ccmatic_proof::check(&cert)
                .unwrap_or_else(|e| panic!("checker rejected the refutation of {f:?}: {e}"));
        }
        SatResult::Unknown => {}
    }
    result
}

#[test]
fn random_formula_verdicts_are_independently_checked() {
    let mut rng = SmallRng::seed_from_u64(20260808);
    let mut sat = 0;
    let mut unsat = 0;
    for round in 0..150 {
        let f = gen_formula(&mut rng, 3);
        match solve_checked(&f) {
            SatResult::Sat => sat += 1,
            SatResult::Unsat => unsat += 1,
            SatResult::Unknown => panic!("round {round}: unexpected Unknown (no interrupt armed)"),
        }
    }
    // Guard against a degenerate generator that only exercises one path.
    assert!(sat > 20, "only {sat} sat instances");
    assert!(unsat > 5, "only {unsat} unsat instances");
}

/// An unsat instance built so theory propagation must fire: `x ≤ 0` fixes
/// the (weaker / sibling) atoms `x ≥ 1` and `x ≥ 2` false, which unit-forces
/// the `y` atoms into the contradiction `y ≤ 0 ∧ y ≥ 1`.
fn propagation_unsat(ctx: &mut Context) -> Term {
    let x = ctx.real_var("x");
    let y = ctx.real_var("y");
    let x_low = ctx.le(ctx.var(x), ctx.constant(int(0)));
    let x_ge1 = ctx.ge(ctx.var(x), ctx.constant(int(1)));
    let x_ge2 = ctx.ge(ctx.var(x), ctx.constant(int(2)));
    let y_low = ctx.le(ctx.var(y), ctx.constant(int(0)));
    let y_high = ctx.ge(ctx.var(y), ctx.constant(int(1)));
    let c1 = ctx.or(vec![x_ge1, y_low]);
    let c2 = ctx.or(vec![x_ge2, y_high]);
    ctx.and(vec![x_low, c1, c2])
}

#[test]
fn certified_unsat_with_propagation_replays_clean() {
    let mut ctx = Context::new();
    let t = propagation_unsat(&mut ctx);
    let mut solver = Solver::new();
    solver.enable_proofs();
    solver.assert(&ctx, t);
    assert_eq!(solver.check(&ctx), SatResult::Unsat);
    let stats = solver.stats();
    assert!(stats.theory_props > 0, "propagation never fired: {stats:?}");
    assert!(stats.bounds_asserted > 0);
    let len = solver.proof_position().expect("unsat must carry a certificate");
    let cert = UnsatCertificate { steps: solver.take_proof_steps() };
    assert_eq!(cert.steps.len(), len, "the certificate is the whole log");
    // The propagation lemmas are in the log as theory steps with their
    // lazily generated Farkas explanations; the independent checker must
    // accept the whole refutation.
    let has_theory_step = cert
        .steps
        .iter()
        .any(|s| matches!(s, ProofStep::Theory { farkas, .. } if !farkas.is_empty()));
    assert!(has_theory_step, "no Farkas-witnessed theory lemma in the certificate");
    ccmatic_proof::check(&cert).expect("certificate must replay through the checker");
}

#[test]
fn corrupted_propagation_explanation_is_rejected() {
    let mut ctx = Context::new();
    let t = propagation_unsat(&mut ctx);
    let mut solver = Solver::new();
    solver.enable_proofs();
    solver.assert(&ctx, t);
    assert_eq!(solver.check(&ctx), SatResult::Unsat);
    let len = solver.proof_position().expect("unsat must carry a certificate");
    let cert = UnsatCertificate { steps: solver.take_proof_steps() };
    assert_eq!(cert.steps.len(), len, "the certificate is the whole log");
    ccmatic_proof::check(&cert).expect("uncorrupted certificate must replay");

    // Corrupt every theory step's Farkas witness in turn; each mutant must
    // be rejected (a negated coefficient can no longer witness
    // infeasibility of a conjunction of ≤/< rows).
    let mut corrupted = 0;
    for (i, step) in cert.steps.iter().enumerate() {
        let ProofStep::Theory { farkas, .. } = step else { continue };
        if farkas.is_empty() {
            continue;
        }
        let mut bad = cert.clone();
        let ProofStep::Theory { farkas, .. } = &mut bad.steps[i] else { unreachable!() };
        farkas[0].1 = -farkas[0].1.clone();
        assert!(
            ccmatic_proof::check(&bad).is_err(),
            "checker accepted a corrupted Farkas witness in step {i}"
        );
        corrupted += 1;
    }
    assert!(corrupted > 0, "no theory steps to corrupt — propagation produced no lemmas?");
}

/// A fresh solver over the conjunction of `parts`.
fn fresh_check(ctx: &Context, parts: &[Term]) -> SatResult {
    let mut s = Solver::new();
    for &t in parts {
        s.assert(ctx, t);
    }
    s.check(ctx)
}

#[test]
fn incremental_scopes_agree_with_fresh_solvers() {
    // Push/pop interleaved with checks: the synced-bounds cursor must
    // survive scope churn. Compare every verdict of one long-lived solver
    // with a fresh solver over base ∧ scope.
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let y = ctx.real_var("y");
    let base = {
        let le = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(10)));
        let ge = ctx.ge(ctx.var(x), ctx.constant(int(0)));
        ctx.and(vec![le, ge])
    };
    let mut inc = Solver::new();
    inc.assert(&ctx, base);
    assert_eq!(inc.check(&ctx), fresh_check(&ctx, &[base]));

    let mut verdicts = Vec::new();
    for k in 0..6i64 {
        let scoped = {
            let lo = ctx.ge(ctx.var(y), ctx.constant(int(2 * k)));
            let hi = ctx.le(ctx.var(y), ctx.constant(rat(2 * k + 1, 2)));
            let cap = ctx.ge(ctx.var(x), ctx.constant(int(11 - k)));
            let either = ctx.or(vec![hi, cap]);
            ctx.and(vec![lo, either])
        };
        inc.push();
        inc.assert(&ctx, scoped);
        let verdict = inc.check(&ctx);
        assert_eq!(verdict, fresh_check(&ctx, &[base, scoped]), "diverged in scope {k}");
        verdicts.push(verdict);
        inc.pop();
        assert_eq!(inc.check(&ctx), fresh_check(&ctx, &[base]), "diverged after pop {k}");
    }
    // Both verdicts occur, so the comparison can fail either way.
    assert!(verdicts.contains(&SatResult::Sat) && verdicts.contains(&SatResult::Unsat));
}
