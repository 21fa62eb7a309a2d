//! The verifier: checks one concrete CCA against *all* network traces.
//!
//! Implements the paper's verifier role (CCAC): the query
//! `∃ τ. feasible(A*, τ) ∧ ¬desired(A*, τ)` for a concrete candidate `A*`.
//! With [`VerifyConfig::worst_case`] enabled it additionally asks for the
//! *worst-case counterexample* (§3.1.2): among all violating traces, one
//! maximizing the minimum width of the CCA-behaviour band
//! `minₜ (tokens(t) − S(t))`, found by binary search over solver calls —
//! each such trace prunes the largest possible range of candidate CCAs in
//! the generator.
//!
//! # Incremental mode
//!
//! The network model (link behaviour, sender bookkeeping, ¬desired, and the
//! WCE band bounds) is identical for every candidate; only the template
//! equalities change. With [`VerifyConfig::incremental`] (the default) the
//! verifier encodes the network model *once* into a long-lived solver's base
//! scope. Each `verify` call then pushes an assertion scope, asserts the
//! candidate's template constraints, checks, and pops — and the WCE binary
//! search runs as scoped re-checks on the same solver instead of building a
//! fresh solver per probe. Theory lemmas over base atoms survive the pops,
//! so successive candidates (and successive WCE probes) start warm.

use crate::template::CcaSpec;
use ccac_model::{
    alloc_net_vars, desired_property, network_constraints, sender_constraints, NetConfig, NetVars,
    Thresholds, Trace,
};
use ccmatic_cegis::Verdict;
use ccmatic_num::Rat;
use ccmatic_proof::Replayer;
use ccmatic_smt::{
    maximize, maximize_scoped, ClauseExchange, Context, Interrupt, LinExpr, MaximizeOutcome,
    MaximizeParams, RealVar, SatResult, SearchConfig, Solver, Term,
};
use std::sync::Arc;

/// Verification parameters.
#[derive(Clone, Debug)]
pub struct VerifyConfig {
    /// The network model shape.
    pub net: NetConfig,
    /// Performance targets.
    pub thresholds: Thresholds,
    /// Enable worst-case counterexample search (§3.1.2 "WCE").
    pub worst_case: bool,
    /// Bracket precision for the WCE binary search.
    pub wce_precision: Rat,
    /// Reuse one solver across candidates via push/pop assertion scopes
    /// instead of re-encoding the network model from scratch every call.
    /// Both paths are semantically identical (see `tests/verifier_scopes.rs`
    /// differentials); the from-scratch path is kept for exactly that
    /// comparison.
    pub incremental: bool,
    /// Certify every verdict: UNSAT answers (including every WCE
    /// binary-search infeasibility probe) must carry a DRAT+Farkas
    /// certificate that the independent checker in `ccmatic-proof` accepts,
    /// and SAT answers have their model re-evaluated exactly against every
    /// asserted term. A rejected certificate or failed model audit panics —
    /// it means the solver produced an unsound verdict.
    pub certify: bool,
    /// SAT search diversification (seed, restart schedule, decision noise)
    /// applied to the incremental solver and the from-scratch non-WCE
    /// solver. The default is the solver's canonical behavior; portfolio
    /// workers get [`SearchConfig::diversified`] profiles.
    pub search: SearchConfig,
    /// Trail-synchronized incremental theory solving with theory
    /// propagation (default). Off = the legacy reset-and-reassert bridge;
    /// kept as a same-build A/B escape hatch (`--no-theory-sync`).
    pub theory_sync: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            net: NetConfig::default(),
            thresholds: Thresholds::default(),
            worst_case: false,
            wce_precision: Rat::new(1i64.into(), 4i64.into()),
            incremental: true,
            certify: false,
            search: SearchConfig::default(),
            theory_sync: true,
        }
    }
}

/// Running totals for certify mode, reported by the bench harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct CertAudit {
    /// Certificates replayed by the independent checker.
    pub checked: u64,
    /// Total clauses derived across those replays (input + RUP + theory).
    pub clauses: u64,
    /// Total rendered size of those certificates, in bytes.
    pub bytes: u64,
    /// Proof steps the checker executed. A certificate that extends one the
    /// verifier's replayer already accepted costs only its new steps, so
    /// this is at most the summed certificate lengths.
    pub steps_replayed: u64,
    /// Wall-clock nanoseconds spent inside the checker.
    pub check_ns: u64,
}

impl CertAudit {
    /// Replay `cert` through the independent checker, resuming `replayer`
    /// where the certificate extends what it already accepted, and panic
    /// with the checker's diagnosis if it is rejected.
    fn replay(
        &mut self,
        replayer: &mut Replayer,
        cert: &ccmatic_proof::UnsatCertificate,
        what: &str,
    ) {
        let t0 = std::time::Instant::now();
        let replayed0 = replayer.steps_replayed();
        let stats = match replayer.check(cert) {
            Ok(stats) => stats,
            Err(e) => panic!("{what}: certificate rejected by the independent checker: {e}"),
        };
        self.checked += 1;
        self.clauses += stats.clauses as u64;
        self.bytes += stats.bytes;
        self.steps_replayed += replayer.steps_replayed() - replayed0;
        self.check_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Adds `other`'s totals to these.
    pub fn absorb(&mut self, other: &CertAudit) {
        self.checked += other.checked;
        self.clauses += other.clauses;
        self.bytes += other.bytes;
        self.steps_replayed += other.steps_replayed;
        self.check_ns += other.check_ns;
    }
}

/// The persistent encoding used by incremental mode: the network model sits
/// in the solver's base scope; candidates come and go in pushed scopes.
struct IncState {
    ctx: Context,
    nv: NetVars,
    solver: Solver,
    /// The WCE objective variable `m` with `m ≤ tokens(t) − S(t)` for all
    /// `t` asserted at base scope; `None` when `worst_case` is off.
    band: Option<RealVar>,
}

/// The verifier oracle. Counts its own solver probes so the Table-1 harness
/// can report verifier-call statistics (§4: "verifier calls are typically
/// fast").
pub struct CcaVerifier {
    /// Configuration used for every query. Mutating `net`, `thresholds`,
    /// `worst_case`, or `certify` after the first `verify` call requires
    /// [`CcaVerifier::reset`] to rebuild the cached incremental encoding.
    pub cfg: VerifyConfig,
    /// Total verify() invocations.
    pub calls: u64,
    /// Total underlying solver probes (> calls when WCE binary search runs).
    pub solver_probes: u64,
    /// Certificate-checking totals (all zero unless `cfg.certify`).
    pub cert_audit: CertAudit,
    /// Checks every certificate this verifier produces. The incremental
    /// solver logs its whole life into one proof log, so each certificate
    /// extends the previous one and only its new steps are replayed.
    replayer: Replayer,
    /// The checker-accepted certificate behind the most recent Pass
    /// verdict (`cfg.certify` only; cleared at the start of every verify
    /// call). The persistent result cache persists these so a cache hit
    /// can re-establish each solution's verdict without a solver.
    last_pass_cert: Option<ccmatic_proof::UnsatCertificate>,
    /// Lazily-built incremental state (`cfg.incremental` only).
    inc: Option<IncState>,
    /// Portfolio clause exchange plus this verifier's worker index, when
    /// attached.
    exchange: Option<(Arc<ClauseExchange>, usize)>,
    /// Admitted-import total already reported through
    /// [`CcaVerifier::exchange_clauses`].
    imports_reported: u64,
}

impl CcaVerifier {
    /// Build a verifier.
    pub fn new(cfg: VerifyConfig) -> Self {
        CcaVerifier {
            cfg,
            calls: 0,
            solver_probes: 0,
            cert_audit: CertAudit::default(),
            replayer: Replayer::new(),
            last_pass_cert: None,
            inc: None,
            exchange: None,
            imports_reported: 0,
        }
    }

    /// The certificate behind the most recent Pass verdict, when
    /// certifying (`None` after a Fail/Timeout or outside certify mode).
    pub fn take_last_pass_cert(&mut self) -> Option<ccmatic_proof::UnsatCertificate> {
        self.last_pass_cert.take()
    }

    /// Drop the cached incremental encoding (required after mutating `cfg`).
    pub fn reset(&mut self) {
        self.inc = None;
        self.replayer = Replayer::new();
    }

    /// Join a portfolio clause exchange as worker `worker`. Must be called
    /// before the first query so the incremental solver is built with
    /// sharing enabled; every participant must build an *identical* base
    /// encoding (same `net`, `thresholds`, `worst_case`), which is what
    /// makes exported clause variable numberings line up — the SAT core
    /// additionally guards every import against base-vocabulary mismatch.
    pub fn attach_exchange(&mut self, exchange: Arc<ClauseExchange>, worker: usize) {
        debug_assert!(self.inc.is_none(), "attach_exchange must precede the first query");
        self.exchange = Some((exchange, worker));
    }

    /// Run one clause-exchange round: publish this solver's eligible
    /// epoch-0 learned clauses and queue the siblings' publications for
    /// import (admitted inside the next solve, behind the certificate
    /// gate). Returns `(exported, newly_admitted_imports)`. A no-op
    /// without an attached exchange or outside incremental mode.
    pub fn exchange_clauses(&mut self, round: u64) -> (u64, u64) {
        let Some((exchange, worker)) = self.exchange.clone() else {
            return (0, 0);
        };
        if !self.cfg.incremental {
            return (0, 0);
        }
        self.ensure_inc();
        let st = self.inc.as_mut().expect("just built");
        let exports = st.solver.take_shared_exports();
        let exported = exports.len() as u64;
        exchange.publish(worker, round, exports);
        st.solver.queue_shared_imports(exchange.collect(worker, round));
        let admitted = st.solver.stats().shared_imported;
        let newly = admitted - self.imports_reported;
        self.imports_reported = admitted;
        (exported, newly)
    }

    /// Encode the template rule with *concrete* coefficients over the trace
    /// variables: for `t ∈ [0, T]`,
    /// `cwnd(t) = Σ αᵢ·cwnd(t−i) + Σ βᵢ·S(t−1−i) + γ`.
    pub fn template_constraints(ctx: &mut Context, nv: &NetVars, spec: &CcaSpec) -> Term {
        let mut cs = Vec::new();
        for t in 0..=nv.cfg().t_max() {
            let mut rhs = LinExpr::constant(spec.gamma.clone());
            for (i, a) in spec.alpha.iter().enumerate() {
                rhs = rhs + LinExpr::term(nv.cwnd(t - (i as i64 + 1)), a.clone());
            }
            for (i, b) in spec.beta.iter().enumerate() {
                // ack(t−i−1) = S(t−i−2)
                rhs = rhs + LinExpr::term(nv.s(t - (i as i64 + 2)), b.clone());
            }
            cs.push(ctx.eq(LinExpr::var(nv.cwnd(t)), rhs));
        }
        ctx.and(cs)
    }

    /// Build the violation query `feasible ∧ ¬desired` and return it with
    /// the trace variables (from-scratch path).
    fn violation_query(&self, ctx: &mut Context, spec: &CcaSpec) -> (NetVars, Term) {
        let nv = alloc_net_vars(ctx, &self.cfg.net);
        let net = network_constraints(ctx, &nv);
        let snd = sender_constraints(ctx, &nv);
        let tmpl = Self::template_constraints(ctx, &nv, spec);
        let parts = desired_property(ctx, &nv, &self.cfg.thresholds);
        let bad = ctx.not(parts.desired);
        let q = ctx.and(vec![net, snd, tmpl, bad]);
        (nv, q)
    }

    /// The WCE bracket parameters for this network shape.
    fn wce_params(&self, interrupt: &Interrupt) -> MaximizeParams {
        let hi = Rat::from((self.cfg.net.t_max() + self.cfg.net.history as i64).max(1));
        MaximizeParams {
            lo: Rat::zero(),
            hi,
            precision: self.cfg.wce_precision.clone(),
            conflict_budget: None,
            interrupt: interrupt.clone(),
            certify: self.cfg.certify,
            theory_sync: self.cfg.theory_sync,
        }
    }

    /// Check the candidate. `Ok(())` certifies it against every admitted
    /// trace; `Err(trace)` is a concrete counterexample.
    pub fn verify(&mut self, spec: &CcaSpec) -> Result<(), Trace> {
        match self.verify_interruptible(spec, &Interrupt::none()) {
            Verdict::Pass => Ok(()),
            Verdict::Fail(trace) => Err(trace),
            Verdict::Timeout => unreachable!("uninterrupted verify cannot time out"),
        }
    }

    /// Like [`CcaVerifier::verify`], but giving up with [`Verdict::Timeout`]
    /// once `interrupt` fires — polled inside the CDCL search loop, so a
    /// deadline is honored mid-query, not just between candidates. An
    /// interrupt firing mid-WCE-search after a violating trace was already
    /// found still returns that trace (sound, merely not worst-case).
    pub fn verify_interruptible(
        &mut self,
        spec: &CcaSpec,
        interrupt: &Interrupt,
    ) -> Verdict<Trace> {
        self.calls += 1;
        self.last_pass_cert = None;
        // The template needs S(t−1−lookback) for t = 0; the caller must
        // allocate enough history.
        debug_assert!(
            self.cfg.net.history > spec.beta.len(),
            "history {} too shallow for lookback {}",
            self.cfg.net.history,
            spec.beta.len()
        );
        if self.cfg.incremental {
            self.verify_incremental(spec, interrupt)
        } else {
            self.verify_from_scratch(spec, interrupt)
        }
    }

    fn verify_from_scratch(&mut self, spec: &CcaSpec, interrupt: &Interrupt) -> Verdict<Trace> {
        let mut ctx = Context::new();
        let (nv, query) = self.violation_query(&mut ctx, spec);
        if self.cfg.worst_case {
            // Maximize the minimum band width minₜ (tokens(t) − S(t)) over
            // the enforced window, so the returned trace pins down the
            // widest possible range of CCA behaviours.
            let m = ctx.real_var("band");
            let mut cs = vec![query];
            for t in 0..=self.cfg.net.t_max() {
                let band = nv.tokens(t) - LinExpr::var(nv.s(t));
                cs.push(ctx.le(LinExpr::var(m), band));
            }
            let base = ctx.and(cs);
            let params = self.wce_params(interrupt);
            match maximize(&mut ctx, base, &LinExpr::var(m), &params) {
                MaximizeOutcome::Infeasible { certificate } => {
                    self.solver_probes += 1;
                    if self.cfg.certify {
                        let cert = certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(&mut self.replayer, &cert, "WCE infeasibility");
                        self.last_pass_cert = Some(*cert);
                    }
                    Verdict::Pass
                }
                MaximizeOutcome::Feasible { model, probes, certificates, .. } => {
                    self.solver_probes += probes as u64;
                    // Every bracket-tightening infeasibility probe of the
                    // binary search carries its own certificate; the final
                    // model was already exact-audited inside `maximize`.
                    for cert in &certificates {
                        self.cert_audit.replay(&mut self.replayer, cert, "WCE bracket probe");
                    }
                    Verdict::Fail(Trace::from_model(&model, &nv))
                }
                MaximizeOutcome::Aborted => {
                    self.solver_probes += 1;
                    Verdict::Timeout
                }
            }
        } else {
            self.solver_probes += 1;
            let mut solver = Solver::new();
            solver.set_theory_sync(self.cfg.theory_sync);
            solver.interrupt = interrupt.clone();
            if self.cfg.certify {
                solver.enable_proofs();
            }
            solver.set_search_config(self.cfg.search.clone());
            solver.assert(&ctx, query);
            let res = if self.cfg.certify {
                let out = solver.check_certified(&ctx);
                match out.result {
                    SatResult::Unsat => {
                        let cert =
                            out.certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(&mut self.replayer, &cert, "verifier UNSAT verdict");
                        self.last_pass_cert = Some(cert);
                    }
                    SatResult::Sat => {
                        assert_eq!(
                            out.model_ok,
                            Some(true),
                            "counterexample model failed the exact audit"
                        );
                    }
                    SatResult::Unknown => {}
                }
                out.result
            } else {
                solver.check(&ctx)
            };
            match res {
                SatResult::Unsat => Verdict::Pass,
                SatResult::Sat => Verdict::Fail(Trace::from_model(solver.model().unwrap(), &nv)),
                SatResult::Unknown => Verdict::Timeout,
            }
        }
    }

    /// Build the long-lived incremental encoding if it does not exist yet.
    fn ensure_inc(&mut self) {
        if self.inc.is_none() {
            let mut ctx = Context::new();
            let nv = alloc_net_vars(&mut ctx, &self.cfg.net);
            let net = network_constraints(&mut ctx, &nv);
            let snd = sender_constraints(&mut ctx, &nv);
            let parts = desired_property(&mut ctx, &nv, &self.cfg.thresholds);
            let bad = ctx.not(parts.desired);
            let mut solver = Solver::new();
            solver.set_theory_sync(self.cfg.theory_sync);
            if self.cfg.certify {
                // Must be enabled before the base assertions so input
                // clauses (and later atom definitions) reach the proof log.
                solver.enable_proofs();
            }
            // Diversification must also precede the assertions: the seed
            // and phase policy apply to variables as they are created.
            solver.set_search_config(self.cfg.search.clone());
            solver.set_sharing(self.exchange.is_some());
            solver.assert(&ctx, net);
            solver.assert(&ctx, snd);
            solver.assert(&ctx, bad);
            let band = if self.cfg.worst_case {
                let m = ctx.real_var("band");
                for t in 0..=self.cfg.net.t_max() {
                    let band = nv.tokens(t) - LinExpr::var(nv.s(t));
                    let le = ctx.le(LinExpr::var(m), band);
                    solver.assert(&ctx, le);
                }
                Some(m)
            } else {
                None
            };
            self.inc = Some(IncState { ctx, nv, solver, band });
        }
    }

    fn verify_incremental(&mut self, spec: &CcaSpec, interrupt: &Interrupt) -> Verdict<Trace> {
        self.ensure_inc();
        let params = self.wce_params(interrupt);
        let st = self.inc.as_mut().expect("just built");

        st.solver.push();
        let tmpl = Self::template_constraints(&mut st.ctx, &st.nv, spec);
        st.solver.assert(&st.ctx, tmpl);
        let verdict = if let Some(m) = st.band {
            match maximize_scoped(&mut st.ctx, &mut st.solver, &LinExpr::var(m), &params) {
                MaximizeOutcome::Infeasible { certificate } => {
                    self.solver_probes += 1;
                    if self.cfg.certify {
                        let cert = certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(
                            &mut self.replayer,
                            &cert,
                            "scoped WCE infeasibility",
                        );
                        self.last_pass_cert = Some(*cert);
                    }
                    Verdict::Pass
                }
                MaximizeOutcome::Feasible { model, probes, certificates, .. } => {
                    self.solver_probes += probes as u64;
                    for cert in &certificates {
                        self.cert_audit.replay(
                            &mut self.replayer,
                            cert,
                            "scoped WCE bracket probe",
                        );
                    }
                    Verdict::Fail(Trace::from_model(&model, &st.nv))
                }
                MaximizeOutcome::Aborted => {
                    self.solver_probes += 1;
                    Verdict::Timeout
                }
            }
        } else {
            self.solver_probes += 1;
            let saved = std::mem::replace(&mut st.solver.interrupt, interrupt.clone());
            let res = if self.cfg.certify {
                // Snapshot before the pop below: popping the candidate scope
                // deletes its clauses (including any empty clause) from the
                // proof log.
                let out = st.solver.check_certified(&st.ctx);
                match out.result {
                    SatResult::Unsat => {
                        let cert =
                            out.certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(
                            &mut self.replayer,
                            &cert,
                            "incremental UNSAT verdict",
                        );
                        self.last_pass_cert = Some(cert);
                    }
                    SatResult::Sat => {
                        assert_eq!(
                            out.model_ok,
                            Some(true),
                            "counterexample model failed the exact audit"
                        );
                    }
                    SatResult::Unknown => {}
                }
                out.result
            } else {
                st.solver.check(&st.ctx)
            };
            st.solver.interrupt = saved;
            match res {
                SatResult::Unsat => Verdict::Pass,
                SatResult::Sat => {
                    Verdict::Fail(Trace::from_model(st.solver.model().unwrap(), &st.nv))
                }
                SatResult::Unknown => Verdict::Timeout,
            }
        };
        st.solver.pop();
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;
    use ccmatic_num::int;

    fn small_cfg() -> VerifyConfig {
        VerifyConfig {
            net: NetConfig {
                horizon: 6,
                history: 5,
                link_rate: Rat::one(),
                jitter: 1,
                buffer: None,
            },
            thresholds: Thresholds::default(),
            worst_case: false,
            wce_precision: Rat::new(1i64.into(), 4i64.into()),
            incremental: true,
            certify: false,
            search: SearchConfig::default(),
            theory_sync: true,
        }
    }

    #[test]
    fn rocc_verifies() {
        let mut v = CcaVerifier::new(small_cfg());
        assert!(v.verify(&known::rocc()).is_ok(), "RoCC must satisfy the property");
        assert_eq!(v.calls, 1);
    }

    #[test]
    fn zero_cwnd_refuted() {
        let mut v = CcaVerifier::new(small_cfg());
        let cex = v.verify(&known::const_cwnd(Rat::zero()));
        let trace = cex.expect_err("cwnd = 0 can never achieve utilization");
        // The counterexample must show low utilization with non-increasing cwnd.
        assert!(trace.utilization() < Rat::new(1i64.into(), 2i64.into()));
    }

    #[test]
    fn large_const_cwnd_refuted_by_queue() {
        let mut v = CcaVerifier::new(small_cfg());
        let cex = v.verify(&known::const_cwnd(int(20)));
        assert!(cex.is_err(), "cwnd = 20 must violate the delay bound");
    }

    #[test]
    fn copy_cwnd_refuted() {
        let mut v = CcaVerifier::new(small_cfg());
        assert!(
            v.verify(&known::copy_cwnd()).is_err(),
            "cwnd(t)=cwnd(t−1) is broken by adversarial initial windows"
        );
    }

    #[test]
    fn worst_case_counterexample_widens_band() {
        let mut plain = CcaVerifier::new(small_cfg());
        let mut wce = CcaVerifier::new(VerifyConfig { worst_case: true, ..small_cfg() });
        let spec = known::const_cwnd(Rat::zero());
        let t1 = plain.verify(&spec).expect_err("refuted");
        let t2 = wce.verify(&spec).expect_err("refuted");
        let band = |tr: &Trace| {
            (0..=tr.t_max)
                .map(|t| {
                    let tokens = &int(t + (-tr.t_min)) - tr.w_at(t);
                    &tokens - tr.s_at(t)
                })
                .min()
                .unwrap()
        };
        assert!(band(&t2) >= band(&t1), "WCE trace must have at least as wide a band");
        assert!(wce.solver_probes > 1, "WCE uses binary-search probes");
    }

    #[test]
    fn certify_mode_replays_certificates_on_every_path() {
        // Incremental + WCE, the richest path: the Pass verdict and every
        // bracket-tightening probe must carry checker-accepted certificates.
        let mut v =
            CcaVerifier::new(VerifyConfig { worst_case: true, certify: true, ..small_cfg() });
        assert!(v.verify(&known::rocc()).is_ok());
        assert!(v.cert_audit.checked >= 1, "the UNSAT verdict must be certified");
        assert!(v.cert_audit.bytes > 0);
        // A refuted candidate: the final model is exact-audited inside
        // `maximize`, and any infeasible probes are certified.
        assert!(v.verify(&known::const_cwnd(Rat::zero())).is_err());
        // From-scratch, non-WCE path.
        let mut v2 =
            CcaVerifier::new(VerifyConfig { incremental: false, certify: true, ..small_cfg() });
        assert!(v2.verify(&known::rocc()).is_ok());
        assert_eq!(v2.cert_audit.checked, 1);
        // Incremental, non-WCE path across multiple candidates.
        let mut v3 = CcaVerifier::new(VerifyConfig { certify: true, ..small_cfg() });
        assert!(v3.verify(&known::rocc()).is_ok());
        assert!(v3.verify(&known::const_cwnd(int(20))).is_err());
        assert!(v3.verify(&known::rocc()).is_ok());
        assert_eq!(v3.cert_audit.checked, 2, "both Pass verdicts certified");
    }

    #[test]
    fn repeated_candidates_reuse_one_encoding() {
        // Several verify calls on one incremental verifier must agree with
        // fresh from-scratch verifiers, candidate by candidate.
        let specs = [
            known::rocc(),
            known::const_cwnd(Rat::zero()),
            known::const_cwnd(int(20)),
            known::copy_cwnd(),
        ];
        let mut inc = CcaVerifier::new(small_cfg());
        for spec in &specs {
            let mut scratch = CcaVerifier::new(VerifyConfig { incremental: false, ..small_cfg() });
            assert_eq!(
                inc.verify(spec).is_ok(),
                scratch.verify(spec).is_ok(),
                "incremental and from-scratch verdicts diverged on {spec}"
            );
        }
        assert_eq!(inc.calls, specs.len() as u64);
    }
}
