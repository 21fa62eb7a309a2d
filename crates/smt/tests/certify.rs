//! End-to-end certificate tests: every `Unsat` verdict the solver produces
//! must come with a certificate the independent checker accepts, every `Sat`
//! verdict must survive an exact-rational model audit, and corrupting a real
//! solver-produced certificate must be detected.

use ccmatic_num::{int, SmallRng};
use ccmatic_proof::{check, CheckError, ProofStep, UnsatCertificate};
use ccmatic_smt::{Context, LinExpr, SatResult, Solver, Term};

/// A random formula AST over two real variables (same shapes as the scope
/// differential tests).
#[derive(Debug, Clone)]
enum F {
    Atom { a: i64, b: i64, c: i64, rel: u8 },
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

/// Fresh certified solver over the conjunction of `parts`; on `Unsat` the
/// certificate must exist and replay cleanly.
fn certified_verdict(ctx: &Context, parts: &[Term]) -> SatResult {
    let mut s = Solver::new();
    s.enable_proofs();
    for &t in parts {
        s.assert(ctx, t);
    }
    let out = s.check_certified(ctx);
    match out.result {
        SatResult::Unsat => {
            let len = out.certificate.expect("unsat verdict must carry a certificate");
            let cert = UnsatCertificate { steps: s.take_proof_steps() };
            assert_eq!(cert.steps.len(), len, "the certificate is the whole log");
            check(&cert).unwrap_or_else(|e| {
                panic!("checker rejected a solver-produced certificate: {e}\n{}", cert.to_text())
            });
        }
        SatResult::Sat => {
            assert_eq!(out.model_ok, Some(true), "model failed the exact-rational audit");
        }
        SatResult::Unknown => panic!("check without an interrupt returned Unknown"),
    }
    out.result
}

#[test]
fn random_unsat_instances_yield_accepted_certificates() {
    let mut rng = SmallRng::seed_from_u64(0xCE27);
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for _ in 0..60 {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let parts: Vec<Term> = (0..rng.gen_range_usize(1, 4))
            .map(|_| {
                let f = gen_formula(&mut rng, 2);
                encode(&mut ctx, &f, x, y)
            })
            .collect();
        match certified_verdict(&ctx, &parts) {
            SatResult::Sat => sat_seen += 1,
            SatResult::Unsat => unsat_seen += 1,
            SatResult::Unknown => unreachable!(),
        }
    }
    // The generator must actually exercise both verdicts.
    assert!(sat_seen > 5 && unsat_seen > 5, "skewed sample: {sat_seen} sat, {unsat_seen} unsat");
}

#[test]
fn scoped_probes_yield_accepted_certificates() {
    // CEGIS shape: one long-lived certified solver, scoped probes on top.
    // Certificates from later probes must replay even though earlier probes
    // left learned clauses and deletions in the log.
    let mut rng = SmallRng::seed_from_u64(0x5C07E5);
    for round in 0..15 {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let mut s = Solver::new();
        s.enable_proofs();
        let mut log = Vec::new();
        let base_f = gen_formula(&mut rng, 2);
        let base_t = encode(&mut ctx, &base_f, x, y);
        s.assert(&ctx, base_t);
        for probe_idx in 0..5 {
            let probe_f = gen_formula(&mut rng, 2);
            let probe_t = encode(&mut ctx, &probe_f, x, y);
            s.push();
            s.assert(&ctx, probe_t);
            let out = s.check_certified(&ctx);
            match out.result {
                SatResult::Unsat => {
                    let len = out.certificate.expect("unsat probe must carry a certificate");
                    log.extend(s.take_proof_steps());
                    let cert = UnsatCertificate { steps: log[..len].to_vec() };
                    check(&cert).unwrap_or_else(|e| {
                        panic!(
                            "round {round} probe {probe_idx}: checker rejected: {e}\n{}",
                            cert.to_text()
                        )
                    });
                }
                SatResult::Sat => assert_eq!(out.model_ok, Some(true)),
                SatResult::Unknown => panic!("check without an interrupt returned Unknown"),
            }
            s.pop();
        }
    }
}

/// A small deterministic UNSAT instance whose certificate contains both
/// theory lemmas and RUP steps: x ≥ 1 ∧ (x ≤ 0 ∨ x + y ≤ 0) ∧ y ≥ x.
fn solver_produced_certificate() -> UnsatCertificate {
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let y = ctx.real_var("y");
    let ge1 = ctx.ge(ctx.var(x), ctx.constant(int(1)));
    let le0 = ctx.le(ctx.var(x), ctx.constant(int(0)));
    let sum0 = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(0)));
    let disj = ctx.or(vec![le0, sum0]);
    let yx = ctx.ge(ctx.var(y), ctx.var(x));
    let mut s = Solver::new();
    s.enable_proofs();
    s.assert(&ctx, ge1);
    s.assert(&ctx, disj);
    s.assert(&ctx, yx);
    let out = s.check_certified(&ctx);
    assert_eq!(out.result, SatResult::Unsat);
    let len = out.certificate.expect("certificate");
    let cert = UnsatCertificate { steps: s.take_proof_steps() };
    assert_eq!(cert.steps.len(), len);
    cert
}

#[test]
fn mutated_certificates_are_rejected() {
    let pristine = solver_produced_certificate();
    check(&pristine).expect("pristine certificate replays");
    assert!(
        pristine.steps.iter().any(|s| matches!(s, ProofStep::Theory { .. })),
        "instance must exercise theory lemmas"
    );

    // Corruption class 1: drop a clause the refutation depends on. Dropping
    // any single input clause must break replay — the instance is minimal in
    // the sense that every asserted constraint participates.
    let mut rejected = 0;
    for (i, step) in pristine.steps.iter().enumerate() {
        if matches!(step, ProofStep::Input { .. }) {
            let mut cert = pristine.clone();
            cert.steps.remove(i);
            if check(&cert).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "no dropped-input corruption was detected");

    // Corruption class 2: perturb a Farkas coefficient. Scaling one
    // multiplier breaks either cancellation or the sign of the constant.
    let mut cert = pristine.clone();
    let mut perturbed = false;
    for step in &mut cert.steps {
        if let ProofStep::Theory { farkas, .. } = step {
            if let Some(entry) = farkas.first_mut() {
                entry.1 = &entry.1 + &int(7);
                perturbed = true;
                break;
            }
        }
    }
    assert!(perturbed);
    assert!(
        matches!(
            check(&cert),
            Err(CheckError::FarkasVarsDontCancel { .. }) | Err(CheckError::FarkasNotNegative(_))
        ),
        "perturbed Farkas coefficient was not detected"
    );

    // Corruption class 3: reorder a deletion to before the clause exists.
    let mut cert = pristine.clone();
    if let Some(pos) = cert.steps.iter().position(|s| matches!(s, ProofStep::Delete { .. })) {
        let d = cert.steps.remove(pos);
        cert.steps.insert(0, d);
        assert!(matches!(check(&cert), Err(CheckError::UnknownDelete(_))));
    } else {
        // No deletions in this log: synthesize the same class by deleting a
        // clause before it is introduced.
        let id = cert
            .steps
            .iter()
            .find_map(|s| match s {
                ProofStep::Input { id, .. } => Some(*id),
                _ => None,
            })
            .expect("log has input clauses");
        cert.steps.insert(0, ProofStep::Delete { id });
        assert!(matches!(check(&cert), Err(CheckError::UnknownDelete(_))));
    }

    // Corruption class 4: strip the atom definitions; Farkas steps become
    // uncheckable.
    let mut cert = pristine.clone();
    cert.steps.retain(|s| !matches!(s, ProofStep::Atom { .. }));
    assert!(matches!(check(&cert), Err(CheckError::UnknownAtom { .. })));

    // Corruption class 5: drop the closing empty clause.
    let mut cert = pristine;
    while matches!(cert.steps.last(), Some(ProofStep::Rup { lits, .. }) if lits.is_empty()) {
        cert.steps.pop();
    }
    assert_eq!(check(&cert), Err(CheckError::NoEmptyClause));
}

#[test]
fn uncertified_solver_has_no_certificate_but_same_verdicts() {
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let lo = ctx.ge(ctx.var(x), ctx.constant(int(2)));
    let hi = ctx.lt(ctx.var(x), ctx.constant(int(2)));
    let mut s = Solver::new();
    assert!(!s.proofs_enabled());
    s.assert(&ctx, lo);
    s.assert(&ctx, hi);
    let out = s.check_certified(&ctx);
    assert_eq!(out.result, SatResult::Unsat);
    assert!(out.certificate.is_none());
    assert!(s.take_proof_steps().is_empty());
}

#[test]
#[should_panic(expected = "proof logging must be enabled on an empty solver")]
fn enabling_proofs_after_an_assert_panics() {
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let lo = ctx.ge(ctx.var(x), ctx.constant(int(2)));
    let mut s = Solver::new();
    s.assert(&ctx, lo);
    s.enable_proofs();
}
