//! Optimization over solver calls: maximize a linear objective.
//!
//! The paper's worst-case-counterexample generation asks the verifier for a
//! trace *maximizing* `minₜ(uₜ − lₜ)` and does so "using binary search ...
//! calling the verifier multiple times in a single CEGIS iteration" (§3.1.2).
//! This module implements exactly that loop: probe `φ ∧ obj ≥ mid`,
//! tighten the bracket, keep the best model. Every probe is a scoped
//! re-check on one solver that already holds `φ`.

use crate::interrupt::Interrupt;
use crate::linexpr::LinExpr;
use crate::solver::{Model, SatResult, Solver};
use crate::term::Context;
use ccmatic_num::Rat;

/// Parameters for [`maximize_scoped`].
#[derive(Clone, Debug)]
pub struct MaximizeParams {
    /// Lower end of the search bracket; the objective is first tested for
    /// feasibility at this value.
    pub lo: Rat,
    /// Upper end of the bracket (an a-priori bound on the objective; the
    /// CCAC encodings always have one, e.g. a trace range can never exceed
    /// the total data the link can carry).
    pub hi: Rat,
    /// Stop when the bracket is narrower than this.
    pub precision: Rat,
    /// Optional deadline/cancellation polled inside every probe. When it
    /// fires before the first probe decides, the search reports
    /// [`MaximizeOutcome::Aborted`]; when it fires later, the best model
    /// found so far is returned (sound, possibly sub-maximal).
    pub interrupt: Interrupt,
    /// Collect an UNSAT certificate from every infeasible probe, as a
    /// length into the solver's proof log. The caller must have called
    /// [`Solver::enable_proofs`] before asserting the base (positions are
    /// taken here, logging happens there) and collects the logged steps
    /// with [`Solver::take_proof_steps`].
    pub certify: bool,
}

impl Default for MaximizeParams {
    fn default() -> Self {
        MaximizeParams {
            lo: Rat::zero(),
            hi: Rat::from(1_000_000i64),
            precision: Rat::new(1i64.into(), 64i64.into()),
            interrupt: Interrupt::none(),
            certify: false,
        }
    }
}

/// Result of [`maximize_scoped`].
///
/// Discarding the outcome silently conflates `Infeasible` with `Aborted`
/// (and loses the witness), so it is `#[must_use]`:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use ccmatic_smt::{maximize_scoped, Context, LinExpr, MaximizeParams, Solver};
/// use ccmatic_num::int;
/// let mut ctx = Context::new();
/// let x = ctx.real_var("x");
/// let base = ctx.le(ctx.var(x), ctx.constant(int(1)));
/// let mut solver = Solver::new();
/// solver.assert(&ctx, base);
/// // error: unused `MaximizeOutcome` that must be used
/// maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(x), &MaximizeParams::default());
/// ```
#[derive(Debug)]
#[must_use = "an Infeasible/Aborted outcome must not be conflated with Feasible"]
pub enum MaximizeOutcome {
    /// `φ ∧ obj ≥ lo` is unsatisfiable.
    Infeasible {
        /// Refutation of `φ ∧ obj ≥ lo` as a length into the solver's
        /// proof log, when [`MaximizeParams::certify`] is on and proof
        /// logging is active.
        certificate: Option<usize>,
    },
    /// Best feasible objective value found (within `precision` of the
    /// supremum, unless the interrupt fired mid-search) and a witnessing
    /// model.
    Feasible {
        /// The objective value achieved by `model`.
        value: Rat,
        /// A model achieving `value`.
        model: Model,
        /// Number of solver probes used.
        probes: u32,
        /// Refutations of `φ ∧ obj ≥ mid` for every probe that tightened
        /// the upper bracket, as increasing lengths into the solver's proof
        /// log, when [`MaximizeParams::certify`] is on: they justify that
        /// the search stopped near the true supremum.
        certificates: Vec<usize>,
    },
    /// The interrupt fired before the first probe
    /// decided feasibility: no claim is made either way. Reporting this
    /// separately from `Infeasible` is what keeps deadline-limited runs
    /// sound — an aborted probe must never masquerade as a certificate.
    Aborted,
}

/// Per-probe verdict.
enum Probe {
    Sat(Model),
    Unsat(Option<usize>),
    Unknown,
}

/// Maximize `objective` over a solver whose base constraints `φ` are
/// already asserted, by binary search on scoped solver calls: each probe
/// opens a scope and asserts `obj ≥ mid`, so the network model is encoded
/// once and lemmas learned in one probe speed up the next. Satisfiable
/// probes *keep* their scope — the bound they assert is implied by every
/// later threshold (the search only moves up), so leaving it in place is
/// sound and preserves everything learned while finding the model; only
/// unsatisfiable probes retract. The solver is returned at its original
/// scope depth.
///
/// Soundness: the returned model always satisfies `φ`; the returned value
/// is exactly `objective` evaluated in that model. Completeness: the true
/// supremum is less than `value + precision` (or above `hi`, which the
/// caller promises not to be possible).
pub fn maximize_scoped(
    ctx: &mut Context,
    solver: &mut Solver,
    objective: &LinExpr,
    params: &MaximizeParams,
) -> MaximizeOutcome {
    let mut probes = 0u32;
    let mut kept = 0u32;
    let saved_interrupt = std::mem::replace(&mut solver.interrupt, params.interrupt.clone());
    let mut probe = |ctx: &mut Context, solver: &mut Solver, threshold: &Rat| -> Probe {
        probes += 1;
        solver.push();
        let obj_ge = ctx.ge(objective.clone(), LinExpr::constant(threshold.clone()));
        solver.assert(ctx, obj_ge);
        if params.certify {
            // The certificate ends before the pop: popping the probe scope
            // logs the deletion of its clauses (the empty clause included).
            let out = solver.check_certified(ctx);
            match out.result {
                SatResult::Sat => {
                    assert_eq!(out.model_ok, Some(true), "probe model failed the exact audit");
                    kept += 1;
                    Probe::Sat(solver.model().cloned().expect("sat has a model"))
                }
                SatResult::Unsat => {
                    solver.pop();
                    Probe::Unsat(out.certificate)
                }
                SatResult::Unknown => {
                    solver.pop();
                    Probe::Unknown
                }
            }
        } else {
            match solver.check(ctx) {
                SatResult::Sat => {
                    kept += 1;
                    Probe::Sat(solver.model().cloned().expect("sat has a model"))
                }
                SatResult::Unsat => {
                    solver.pop();
                    Probe::Unsat(None)
                }
                SatResult::Unknown => {
                    solver.pop();
                    Probe::Unknown
                }
            }
        }
    };

    let outcome = match probe(ctx, solver, &params.lo) {
        Probe::Unsat(certificate) => MaximizeOutcome::Infeasible { certificate },
        Probe::Unknown => MaximizeOutcome::Aborted,
        Probe::Sat(first) => {
            let mut best_value = first.eval(objective);
            let mut best_model = first;
            let mut certificates = Vec::new();
            let mut hi = params.hi.clone();
            while &hi - &best_value > params.precision {
                let mid = Rat::midpoint(&best_value, &hi);
                match probe(ctx, solver, &mid) {
                    Probe::Sat(m) => {
                        best_value = m.eval(objective);
                        best_model = m;
                    }
                    Probe::Unsat(cert) => {
                        hi = mid;
                        certificates.extend(cert);
                    }
                    // Past the first probe a feasible witness is in hand;
                    // returning it early is sound (the trace is a real
                    // counterexample), it is merely not guaranteed
                    // worst-case.
                    Probe::Unknown => break,
                }
            }
            MaximizeOutcome::Feasible { value: best_value, model: best_model, probes, certificates }
        }
    };
    for _ in 0..kept {
        solver.pop();
    }
    solver.interrupt = saved_interrupt;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use ccmatic_num::{int, rat};

    /// `maximize_scoped` on a fresh solver holding only `base`.
    fn maximize_fresh(
        ctx: &mut Context,
        base: Term,
        objective: &LinExpr,
        params: &MaximizeParams,
    ) -> MaximizeOutcome {
        maximize_logged(ctx, base, objective, params).0
    }

    /// [`maximize_fresh`], plus the solver's proof log.
    fn maximize_logged(
        ctx: &mut Context,
        base: Term,
        objective: &LinExpr,
        params: &MaximizeParams,
    ) -> (MaximizeOutcome, Vec<ccmatic_proof::ProofStep>) {
        let mut solver = Solver::new();
        if params.certify {
            solver.enable_proofs();
        }
        solver.assert(ctx, base);
        let out = maximize_scoped(ctx, &mut solver, objective, params);
        assert_eq!(solver.depth(), 0, "search must return the solver at its original depth");
        (out, solver.take_proof_steps())
    }

    /// The certificate made of the first `len` steps of `log`.
    fn prefix(log: &[ccmatic_proof::ProofStep], len: usize) -> ccmatic_proof::UnsatCertificate {
        ccmatic_proof::UnsatCertificate { steps: log[..len].to_vec() }
    }

    #[test]
    fn maximize_simple_lp() {
        // max x subject to x + y <= 10, y >= 4  →  x = 6.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let c1 = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(10)));
        let c2 = ctx.ge(ctx.var(y), ctx.constant(int(4)));
        let base = ctx.and(vec![c1, c2]);
        let params = MaximizeParams {
            lo: int(-100),
            hi: int(100),
            precision: rat(1, 100),
            interrupt: Interrupt::none(),
            certify: false,
        };
        match maximize_fresh(&mut ctx, base, &LinExpr::var(x), &params) {
            MaximizeOutcome::Feasible { value, model, probes, .. } => {
                assert!(value > rat(599, 100), "value {value} too small");
                assert!(value <= int(6));
                assert!(&model.real(x) + &model.real(y) <= int(10));
                assert!(probes > 1, "binary search should take multiple probes");
            }
            MaximizeOutcome::Infeasible { .. } => panic!("feasible LP reported infeasible"),
            MaximizeOutcome::Aborted => unreachable!("no interrupt armed"),
        }
    }

    #[test]
    fn infeasible_base() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let c1 = ctx.lt(ctx.var(x), ctx.constant(int(0)));
        let c2 = ctx.gt(ctx.var(x), ctx.constant(int(0)));
        let base = ctx.and(vec![c1, c2]);
        let params = MaximizeParams::default();
        assert!(matches!(
            maximize_fresh(&mut ctx, base, &LinExpr::var(x), &params),
            MaximizeOutcome::Infeasible { .. }
        ));
    }

    #[test]
    fn maximize_respects_disjunction() {
        // max x subject to (x <= 3 ∨ x <= 7) — sup is 7.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let a = ctx.le(ctx.var(x), ctx.constant(int(3)));
        let b = ctx.le(ctx.var(x), ctx.constant(int(7)));
        let base = ctx.or(vec![a, b]);
        let params = MaximizeParams {
            lo: int(0),
            hi: int(100),
            precision: rat(1, 10),
            interrupt: Interrupt::none(),
            certify: false,
        };
        match maximize_fresh(&mut ctx, base, &LinExpr::var(x), &params) {
            MaximizeOutcome::Feasible { value, .. } => {
                assert!(value > rat(69, 10) && value <= int(7), "got {value}");
            }
            MaximizeOutcome::Infeasible { .. } => panic!(),
            MaximizeOutcome::Aborted => unreachable!("no interrupt armed"),
        }
    }

    #[test]
    fn scoped_maximize_matches_fresh() {
        // Same LP as `maximize_simple_lp`, searched twice on one long-lived
        // solver: the second search (warm, with the first one's lemmas)
        // must reach the same value as a fresh solver, and the solver must
        // come back usable.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let c1 = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(10)));
        let c2 = ctx.ge(ctx.var(y), ctx.constant(int(4)));
        let base = ctx.and(vec![c1, c2]);
        let params = MaximizeParams {
            lo: int(-100),
            hi: int(100),
            precision: rat(1, 100),
            interrupt: Interrupt::none(),
            certify: false,
        };
        let value_of = |out: MaximizeOutcome| match out {
            MaximizeOutcome::Feasible { value, .. } => value,
            other => panic!("feasible LP reported {other:?}"),
        };
        let fresh = value_of(maximize_fresh(&mut ctx, base, &LinExpr::var(x), &params));
        let mut solver = Solver::new();
        solver.assert(&ctx, base);
        for round in 0..2 {
            let value = value_of(maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(x), &params));
            assert_eq!(value, fresh, "round {round}: reused solver diverged from a fresh one");
            assert_eq!(solver.depth(), 0);
            assert_eq!(solver.check(&ctx), SatResult::Sat);
        }

        // Infeasible base through the same solver too.
        let kill = ctx.gt(ctx.var(x) + ctx.var(y), ctx.constant(int(50)));
        solver.assert(&ctx, kill);
        assert!(matches!(
            maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(x), &params),
            MaximizeOutcome::Infeasible { .. }
        ));
    }

    #[test]
    fn expired_deadline_aborts_instead_of_claiming_infeasible() {
        // A deadline in the past must abort the first probe — reporting
        // Infeasible here would fake a certificate.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let base = ctx.le(ctx.var(x), ctx.constant(int(10)));
        let params = MaximizeParams {
            interrupt: Interrupt::at(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..MaximizeParams::default()
        };
        let mut solver = Solver::new();
        solver.assert(&ctx, base);
        assert!(matches!(
            maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(x), &params),
            MaximizeOutcome::Aborted
        ));
        // The solver must come back at its original depth, with its own
        // (unarmed) interrupt, and usable.
        assert_eq!(solver.depth(), 0);
        assert_eq!(solver.check(&ctx), SatResult::Sat);
    }

    #[test]
    fn exact_hit_when_supremum_below_lo_bracket() {
        // max x subject to x = 5 with lo = 5: feasible immediately.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let base = ctx.eq(ctx.var(x), ctx.constant(int(5)));
        let params = MaximizeParams {
            lo: int(5),
            hi: int(10),
            precision: rat(1, 10),
            interrupt: Interrupt::none(),
            certify: false,
        };
        match maximize_fresh(&mut ctx, base, &LinExpr::var(x), &params) {
            MaximizeOutcome::Feasible { value, .. } => assert_eq!(value, int(5)),
            MaximizeOutcome::Infeasible { .. } => panic!(),
            MaximizeOutcome::Aborted => unreachable!("no interrupt armed"),
        }
    }

    #[test]
    fn certified_search_carries_checkable_certificates() {
        // max x subject to x + y <= 10, y >= 4, with certification: every
        // bracket-tightening infeasible probe must carry a certificate the
        // independent checker accepts.
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let c1 = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(10)));
        let c2 = ctx.ge(ctx.var(y), ctx.constant(int(4)));
        let base = ctx.and(vec![c1, c2]);
        let params = MaximizeParams {
            lo: int(-100),
            hi: int(100),
            precision: rat(1, 100),
            certify: true,
            ..MaximizeParams::default()
        };
        match maximize_logged(&mut ctx, base, &LinExpr::var(x), &params) {
            (MaximizeOutcome::Feasible { value, certificates, .. }, log) => {
                assert!(value > rat(599, 100) && value <= int(6));
                assert!(!certificates.is_empty(), "search must tighten the bracket");
                for &len in &certificates {
                    ccmatic_proof::check(&prefix(&log, len))
                        .expect("scoped-probe certificate replays");
                }
            }
            other => panic!("unexpected outcome {other:?}"),
        }

        // A bracket starting above the supremum is infeasible at the first
        // probe and must report a certificate on the spot.
        let params = MaximizeParams { lo: int(50), ..params };
        match maximize_logged(&mut ctx, base, &LinExpr::var(x), &params) {
            (MaximizeOutcome::Infeasible { certificate }, log) => {
                let len = certificate.expect("certified infeasibility carries a proof");
                ccmatic_proof::check(&prefix(&log, len))
                    .expect("infeasible-base certificate replays");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
