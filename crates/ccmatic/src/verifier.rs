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
//! # Incremental verification
//!
//! The network model (link behaviour, sender bookkeeping, ¬desired, and the
//! WCE band bounds) is identical for every candidate; only the template
//! equalities change. The verifier encodes the network model *once* into a
//! long-lived solver's base scope. Each `verify` call then pushes an
//! assertion scope, asserts the candidate's template constraints, checks,
//! and pops — and the WCE binary search runs as scoped re-checks on the same
//! solver. Theory lemmas over base atoms survive the pops, so successive
//! candidates (and successive WCE probes) start warm.

use crate::template::CcaSpec;
use ccac_model::{
    alloc_net_vars, desired_property, network_constraints, sender_constraints, NetConfig, NetVars,
    Thresholds, Trace,
};
use ccmatic_cegis::Verdict;
use ccmatic_num::Rat;
use ccmatic_proof::{ProofStep, Replayer};
use ccmatic_smt::{
    maximize_scoped, Context, Interrupt, LinExpr, MaximizeOutcome, MaximizeParams, RealVar,
    SatResult, Solver, Term,
};

/// The type of [`VerifyConfig::search`]: empty, and read by nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchConfig {}

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
    /// Not read: every verifier reuses one solver across candidates via
    /// push/pop assertion scopes. Kept only so the `VerifyConfig` literals
    /// in the `perfbench/` workloads compile; delete it when those
    /// workloads stop naming it.
    pub incremental: bool,
    /// Certify every verdict: UNSAT answers (including every WCE
    /// binary-search infeasibility probe) must carry a DRAT+Farkas
    /// certificate that the independent checker in `ccmatic-proof` accepts,
    /// and SAT answers have their model re-evaluated exactly against every
    /// asserted term. A rejected certificate or failed model audit panics —
    /// it means the solver produced an unsound verdict.
    pub certify: bool,
    /// Not read: the SAT core has one fixed search strategy. Kept only so
    /// the `VerifyConfig` literals in the `perfbench/` workloads compile;
    /// delete it when those workloads stop naming it.
    pub search: SearchConfig,
    /// Not read: every solver runs trail-synchronized theory solving with
    /// theory propagation. Kept only so the `VerifyConfig` literals in the
    /// `perfbench/` workloads compile; delete it when those workloads stop
    /// naming it.
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
    /// Proof steps the checker executed. Every certificate is a prefix of
    /// the verifier's one proof log and each log step is applied once, so
    /// this is the length of the longest certificate, not the summed
    /// certificate lengths.
    pub steps_replayed: u64,
    /// Wall-clock nanoseconds spent inside the checker.
    pub check_ns: u64,
}

impl CertAudit {
    /// Hand the steps `solver` logged since the last audit to `replayer`,
    /// then check the certificates ending at `lens` (increasing lengths
    /// into the replayer's log) through the independent checker, and panic
    /// with the checker's diagnosis if one is rejected.
    fn replay(&mut self, replayer: &mut Replayer, solver: &mut Solver, lens: &[usize], what: &str) {
        let t0 = std::time::Instant::now();
        let replayed0 = replayer.steps_replayed();
        replayer.append(solver.take_proof_steps());
        for &len in lens {
            let stats = match replayer.check_prefix(len) {
                Ok(stats) => stats,
                Err(e) => panic!("{what}: certificate rejected by the independent checker: {e}"),
            };
            self.checked += 1;
            self.clauses += stats.clauses as u64;
            self.bytes += stats.bytes;
        }
        self.steps_replayed += replayer.steps_replayed() - replayed0;
        self.check_ns += t0.elapsed().as_nanos() as u64;
    }
}

/// The persistent encoding: the network model sits in the solver's base
/// scope; candidates come and go in pushed scopes.
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
    /// Holds the incremental solver's proof log and checks every
    /// certificate this verifier produces: each is a prefix of that one
    /// log, so each logged step is applied once.
    replayer: Replayer,
    /// The checker-accepted certificate behind the most recent Pass
    /// verdict, as its length in [`CcaVerifier::proof_log`] (`cfg.certify`
    /// only; cleared at the start of every verify call). The persistent
    /// result cache persists these so a cache hit can re-establish each
    /// solution's verdict without a solver.
    last_pass_cert: Option<usize>,
    /// Lazily-built incremental state.
    inc: Option<IncState>,
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
        }
    }

    /// The certificate behind the most recent Pass verdict, when
    /// certifying, as its length in [`CcaVerifier::proof_log`] (`None`
    /// after a Fail/Timeout or outside certify mode).
    pub fn take_last_pass_cert(&mut self) -> Option<usize> {
        self.last_pass_cert.take()
    }

    /// The proof log of the incremental solver, as far as its certificates
    /// have been checked (empty outside certify mode). Every certificate
    /// length this verifier hands out indexes it, until [`CcaVerifier::reset`]
    /// starts a new log.
    pub fn proof_log(&self) -> &[ProofStep] {
        self.replayer.log()
    }

    /// Drop the cached incremental encoding (required after mutating `cfg`).
    pub fn reset(&mut self) {
        self.inc = None;
        self.replayer = Replayer::new();
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

    /// The WCE bracket parameters for this network shape.
    fn wce_params(&self, interrupt: &Interrupt) -> MaximizeParams {
        let hi = Rat::from((self.cfg.net.t_max() + self.cfg.net.history as i64).max(1));
        MaximizeParams {
            lo: Rat::zero(),
            hi,
            precision: self.cfg.wce_precision.clone(),
            interrupt: interrupt.clone(),
            certify: self.cfg.certify,
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
        self.verify_incremental(spec, interrupt)
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
            if self.cfg.certify {
                // Must be enabled before the base assertions so input
                // clauses (and later atom definitions) reach the proof log.
                solver.enable_proofs();
            }
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
                        let len = certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(
                            &mut self.replayer,
                            &mut st.solver,
                            &[len],
                            "scoped WCE infeasibility",
                        );
                        self.last_pass_cert = Some(len);
                    }
                    Verdict::Pass
                }
                MaximizeOutcome::Feasible { model, probes, certificates, .. } => {
                    self.solver_probes += probes as u64;
                    if self.cfg.certify {
                        self.cert_audit.replay(
                            &mut self.replayer,
                            &mut st.solver,
                            &certificates,
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
                // The certificate ends before the pop below: popping the
                // candidate scope logs the deletion of its clauses
                // (including any empty clause).
                let out = st.solver.check_certified(&st.ctx);
                match out.result {
                    SatResult::Unsat => {
                        let len = out.certificate.expect("certify mode must produce a certificate");
                        self.cert_audit.replay(
                            &mut self.replayer,
                            &mut st.solver,
                            &[len],
                            "incremental UNSAT verdict",
                        );
                        self.last_pass_cert = Some(len);
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
    use ccmatic_num::{int, rat};

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
            certify: false,
            ..Default::default()
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

    /// Under the default model (horizon 9, history 5, link rate 1) and
    /// thresholds (util ≥ 1/2, delay ≤ 4), small constant windows starve
    /// the link but 3/2 and 2 satisfy the property: the link rate is fixed,
    /// so a constant window of 1.5–2 BDP is a valid CCA.
    #[test]
    fn constant_windows_split_on_the_defaults() {
        let mut v = CcaVerifier::new(VerifyConfig {
            net: NetConfig::default(),
            thresholds: Thresholds::default(),
            ..Default::default()
        });
        for c in [rat(1, 2), int(1)] {
            let trace = v.verify(&known::const_cwnd(c.clone())).expect_err("starves the link");
            assert!(trace.utilization() < rat(1, 2), "cwnd = {c}: utilization below 1/2");
        }
        for c in [rat(3, 2), int(2)] {
            assert!(v.verify(&known::const_cwnd(c.clone())).is_ok(), "cwnd = {c} verifies");
        }
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
        // `maximize_scoped`, and any infeasible probes are certified.
        assert!(v.verify(&known::const_cwnd(Rat::zero())).is_err());
        // Non-WCE path across multiple candidates on one verifier: one
        // certificate per Pass verdict.
        let mut v2 = CcaVerifier::new(VerifyConfig { certify: true, ..small_cfg() });
        assert!(v2.verify(&known::rocc()).is_ok());
        assert_eq!(v2.cert_audit.checked, 1);
        assert!(v2.verify(&known::const_cwnd(int(20))).is_err());
        assert!(v2.verify(&known::rocc()).is_ok());
        assert_eq!(v2.cert_audit.checked, 2, "both Pass verdicts certified");
    }

    #[test]
    fn repeated_candidates_reuse_one_encoding() {
        // Several verify calls on one verifier must agree with a fresh
        // verifier per candidate, and with each candidate's known verdict.
        let specs = [
            (known::rocc(), true),
            (known::const_cwnd(Rat::zero()), false),
            (known::const_cwnd(int(20)), false),
            (known::copy_cwnd(), false),
        ];
        let mut reused = CcaVerifier::new(small_cfg());
        for (spec, passes) in &specs {
            let verdict = reused.verify(spec).is_ok();
            let fresh = CcaVerifier::new(small_cfg()).verify(spec).is_ok();
            assert_eq!(verdict, fresh, "reused and fresh verdicts diverged on {spec}");
            assert_eq!(verdict, *passes, "wrong verdict on {spec}");
        }
        assert_eq!(reused.calls, specs.len() as u64);
    }
}
