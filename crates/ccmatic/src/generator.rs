//! The generator: proposes candidate CCAs consistent with all
//! counterexamples seen so far.
//!
//! The generator maintains one incremental SMT solver. Coefficients are
//! encoded with *selector booleans* over the discrete domain — the paper's
//! `ite` linearization (§3.1.2): a product `αᵢ·cwnd(t−i)` between a
//! coefficient variable and a trace-dependent variable becomes the family
//! of linear implications `(αᵢ = a) ⟹ product = a·cwnd(t−i)`, one per
//! domain value `a`.
//!
//! Each learned counterexample τ adds the constraint `σ(A, τ)`, i.e.
//! `feasible(A, τ) ⟹ desired(A, τ)`, where the feasibility encoding is the
//! crux of the paper's *range pruning*:
//!
//! * [`FeasibilityMode::Baseline`] — the trace eliminates exactly the CCA
//!   behaviours whose cumulative sends match the trace byte-for-byte
//!   (`∀t. A(t) = A_τ(t)`). Trivially evaded: the generator tweaks a
//!   coefficient so that `A` differs anywhere, forcing a fresh verifier
//!   call per tweak — the paper's observed pathology.
//! * [`FeasibilityMode::RangePruning`] — the trace eliminates the *range*
//!   of behaviours compatible with its service/waste schedule:
//!   `∀t. S_τ(t) ≤ A(t)  ∧  (W_τ(t) > W_τ(t−1) ⟹ A(t) ≤ C·(t+h) − W_τ(t))`
//!   (the paper's `[Sₜ, ∞]` / `[Sₜ, Cₜ−Wₜ]` intervals, derived by algebraic
//!   manipulation of the CCAC constraints).
//!
//! On top of the feasibility encoding sits *region pruning* (DESIGN.md
//! §11; always on, there is no unpruned path):
//!
//! * For no-cwnd shapes under range pruning, `learn` asserts σ in
//!   *region form* — the sender max-recursion is unrolled into per-step
//!   linear ledger expressions over the coefficient variables themselves,
//!   so a trace adds **zero** fresh real variables instead of `2·(T+1)`
//!   response variables plus tightness disjunctions. The encoding is
//!   logically equivalent (response variables are functionally determined
//!   by the coefficients); the differential suite pins the enumerated
//!   solution set to a brute-force verifier sweep.
//! * [`SmtGenerator::learn_refuted`] additionally walks the refuted
//!   candidate's coefficient neighbourhood (grid steps + symmetric tap
//!   swaps), asserting a propositional blocking clause for every
//!   neighbour the trace *concretely* refutes (checked by
//!   [`TraceReplay::refutes`], so each block is redundant with the
//!   asserted σ and outcomes are unchanged) — one trace kills a whole
//!   candidate region by SAT unit propagation instead of LRA reasoning.

use crate::replay::TraceReplay;
use crate::template::{CcaSpec, TemplateShape};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_num::Rat;
use ccmatic_proof::ProofStep;
use ccmatic_smt::{Context, Interrupt, LinExpr, RealVar, SatResult, Solver, Term};
use std::collections::VecDeque;

/// Replay checks the dominance BFS of [`SmtGenerator::learn_refuted`] may
/// spend per learned trace. Each check is a few hundred exact rational
/// operations — microseconds against the milliseconds a solver conflict
/// costs — but an unbounded walk over the Large domains could still visit
/// thousands of candidates per trace. The cap counts calls, not time: a
/// [`TraceReplay::refutes`] call walks a fixed number of trace steps per
/// problem, so the cap is a fixed amount of work and the CEGIS trajectory
/// depends only on the inputs. 512 is the cap the former wall-clock sizing
/// chose for most traces on the Large cells.
const REGION_BFS_CAP: usize = 512;

/// How much of the candidate space each counterexample eliminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeasibilityMode {
    /// Exact-trace matching (one behaviour per counterexample).
    Baseline,
    /// Interval feasibility (the §3.1.2 "range pruning" optimization).
    RangePruning,
}

/// One coefficient: its value variable plus the selector literal per
/// domain value.
struct Coeff {
    value: RealVar,
    selectors: Vec<(Rat, Term)>,
}

/// Outcome of one interruptible proposal attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proposal {
    /// A coefficient assignment consistent with everything learned so far.
    Candidate(CcaSpec),
    /// The space holds no further candidate.
    Exhausted,
    /// The interrupt fired before the solver could decide.
    Interrupted,
}

/// The SMT-backed generator.
pub struct SmtGenerator {
    ctx: Context,
    solver: Solver,
    shape: TemplateShape,
    /// The network model every learned trace must fit (seeding checks
    /// carried traces against it).
    pub(crate) net: NetConfig,
    thresholds: Thresholds,
    mode: FeasibilityMode,
    /// alphas (if any) then betas then gamma.
    coeffs: Vec<Coeff>,
    /// Concrete replayer gating every dominance/symmetry block and whether
    /// a warm-start seed gets the region BFS (must match this generator's
    /// net/thresholds/mode so `refutes` mirrors `learn`).
    pub(crate) replay: TraceReplay,
    /// The solver's proof log, as far as exhaustion claims have taken it
    /// (empty unless the solver logs proofs).
    proof_log: Vec<ProofStep>,
    /// The certificate backing the most recent base-level exhaustion claim
    /// (`propose` → [`Proposal::Exhausted`]), as its length in
    /// `proof_log`, when the solver logs proofs.
    exhaustion_len: Option<usize>,
    /// Counterexamples learned (kept for reporting).
    pub num_learned: u64,
    /// Blocking clauses asserted by the dominance/symmetry BFS of
    /// [`SmtGenerator::learn_refuted`] — each one a replay-verified
    /// candidate kill the SAT core can propagate without LRA help.
    pub regions_pruned: u64,
}

impl SmtGenerator {
    /// Create a generator over the given search space.
    pub fn new(
        shape: TemplateShape,
        net: NetConfig,
        thresholds: Thresholds,
        mode: FeasibilityMode,
    ) -> Self {
        Self::build(shape, net, thresholds, mode, false)
    }

    /// [`SmtGenerator::new`] with proof logging enabled from
    /// the first assertion, so base-level exhaustion claims (`propose` →
    /// [`Proposal::Exhausted`]) carry an UNSAT certificate, read through
    /// [`SmtGenerator::exhaustion_cert`]. The persistent result cache
    /// stores that certificate alongside the enumerated solution set.
    pub fn new_certified(
        shape: TemplateShape,
        net: NetConfig,
        thresholds: Thresholds,
        mode: FeasibilityMode,
    ) -> Self {
        Self::build(shape, net, thresholds, mode, true)
    }

    fn build(
        shape: TemplateShape,
        net: NetConfig,
        thresholds: Thresholds,
        mode: FeasibilityMode,
        certify: bool,
    ) -> Self {
        assert!(
            net.history > shape.lookback,
            "network history {} must exceed template lookback {}",
            net.history,
            shape.lookback
        );
        let mut ctx = Context::new();
        let mut solver = Solver::new();
        // Before any assertion: proof logging (when certifying) must see
        // every input clause.
        if certify {
            solver.enable_proofs();
        }
        let mut coeffs = Vec::new();
        let domain = shape.domain.values();
        let names: Vec<String> = Self::coeff_names(&shape);
        for name in &names {
            let value = ctx.real_var(name.clone());
            let mut selectors = Vec::with_capacity(domain.len());
            for a in &domain {
                let b = ctx.bool_var(format!("{name}={a}"));
                // Selector fixes the value.
                let eq = ctx.eq(LinExpr::var(value), LinExpr::constant(a.clone()));
                let bind = ctx.implies(b, eq);
                solver.assert(&ctx, bind);
                selectors.push((a.clone(), b));
            }
            // Exactly one selector: at least one…
            let at_least = ctx.or(selectors.iter().map(|(_, b)| *b).collect());
            solver.assert(&ctx, at_least);
            // …and pairwise exclusion.
            for i in 0..selectors.len() {
                for j in (i + 1)..selectors.len() {
                    let ni = ctx.not(selectors[i].1);
                    let nj = ctx.not(selectors[j].1);
                    let excl = ctx.or(vec![ni, nj]);
                    solver.assert(&ctx, excl);
                }
            }
            coeffs.push(Coeff { value, selectors });
        }
        let replay = TraceReplay::new(net.clone(), thresholds.clone(), mode);
        SmtGenerator {
            ctx,
            solver,
            shape,
            net,
            thresholds,
            mode,
            coeffs,
            replay,
            proof_log: Vec::new(),
            exhaustion_len: None,
            num_learned: 0,
            regions_pruned: 0,
        }
    }

    /// The steps of the certificate backing the most recent base-level
    /// exhaustion claim, if this generator certifies (see
    /// [`SmtGenerator::new_certified`]).
    pub fn exhaustion_cert(&self) -> Option<&[ProofStep]> {
        self.exhaustion_len.map(|len| &self.proof_log[..len])
    }

    /// One solver check. An Unsat is a whole-space exhaustion claim; when
    /// the solver logs proofs, its log up to that claim is kept for
    /// [`SmtGenerator::exhaustion_cert`].
    fn check_tracking_exhaustion(&mut self) -> SatResult {
        let result = self.solver.check(&self.ctx);
        if result == SatResult::Unsat && self.solver.proofs_enabled() {
            self.proof_log.extend(self.solver.take_proof_steps());
            self.exhaustion_len = self.solver.proof_position();
        }
        result
    }

    fn coeff_names(shape: &TemplateShape) -> Vec<String> {
        let mut names = Vec::new();
        if shape.use_cwnd {
            for i in 1..=shape.lookback {
                names.push(format!("α{i}"));
            }
        }
        for i in 1..=shape.lookback {
            names.push(format!("β{i}"));
        }
        names.push("γ".into());
        names
    }

    fn alpha(&self, i: usize) -> Option<&Coeff> {
        if self.shape.use_cwnd {
            Some(&self.coeffs[i])
        } else {
            None
        }
    }

    fn beta(&self, i: usize) -> &Coeff {
        let off = if self.shape.use_cwnd { self.shape.lookback } else { 0 };
        &self.coeffs[off + i]
    }

    fn gamma(&self) -> &Coeff {
        self.coeffs.last().unwrap()
    }

    /// Ask the solver for a coefficient assignment consistent with every
    /// learned counterexample, abandoning the search when `interrupt` fires
    /// (its deadline passed). [`Proposal::Exhausted`] is
    /// a completeness claim; the generator sets no conflict budget, so only
    /// the interrupt can leave the question open. The solver's own interrupt
    /// is restored to none before returning.
    pub fn propose(&mut self, interrupt: &Interrupt) -> Proposal {
        self.solver.interrupt = interrupt.clone();
        let result = match self.check_tracking_exhaustion() {
            SatResult::Sat => Proposal::Candidate(self.read_model()),
            SatResult::Unsat => Proposal::Exhausted,
            SatResult::Unknown => Proposal::Interrupted,
        };
        self.solver.interrupt = Interrupt::none();
        result
    }

    /// Read the current satisfying model as a coefficient assignment.
    fn read_model(&self) -> CcaSpec {
        let model = self.solver.model().expect("sat check leaves a model");
        let read = |c: &Coeff| model.real(c.value);
        let alpha = if self.shape.use_cwnd {
            (0..self.shape.lookback).map(|i| read(self.alpha(i).unwrap())).collect()
        } else {
            Vec::new()
        };
        let beta = (0..self.shape.lookback).map(|i| read(self.beta(i))).collect();
        let gamma = read(self.gamma());
        CcaSpec { alpha, beta, gamma }
    }

    /// Whether `spec` lies in this generator's search space: one domain
    /// value per coefficient.
    pub(crate) fn contains(&self, spec: &CcaSpec) -> bool {
        let flat = spec.flat();
        flat.len() == self.coeffs.len()
            && self.coeffs.iter().zip(&flat).all(|(c, v)| c.selectors.iter().any(|(a, _)| a == v))
    }

    /// Exclude one exact coefficient assignment (used between solutions when
    /// enumerating the full solution set): assert the negated conjunction
    /// of its selector literals.
    pub fn block(&mut self, spec: &CcaSpec) {
        let flat = spec.flat();
        debug_assert_eq!(flat.len(), self.coeffs.len());
        let mut nots = Vec::with_capacity(flat.len());
        for (coeff, v) in self.coeffs.iter().zip(&flat) {
            let sel = coeff
                .selectors
                .iter()
                .find(|(a, _)| a == v)
                .expect("blocked value must be in the domain")
                .1;
            nots.push(self.ctx.not(sel));
        }
        let clause = self.ctx.or(nots);
        self.solver.assert(&self.ctx, clause);
    }

    /// Learn a counterexample trace: assert `σ = feasible(A, τ) ⟹
    /// desired(A, τ)`. No-cwnd shapes under range pruning use the
    /// region-form encoding (directly over the coefficient variables, no
    /// per-trace response variables); everything else takes the
    /// response-variable path below.
    pub fn learn(&mut self, cex: &Trace) {
        self.num_learned += 1;
        if !self.shape.use_cwnd && self.mode == FeasibilityMode::RangePruning {
            self.learn_region_form(cex);
            return;
        }
        let n = self.num_learned;
        let t_end = self.net.t_max();
        let history = self.net.history as i64;
        let link_rate = self.net.link_rate.clone();

        // Fresh response variables for t ∈ [0, T].
        let cwnd: Vec<RealVar> =
            (0..=t_end).map(|t| self.ctx.real_var(format!("g{n}.cwnd[{t}]"))).collect();
        let a: Vec<RealVar> =
            (0..=t_end).map(|t| self.ctx.real_var(format!("g{n}.A[{t}]"))).collect();
        let cw = |t: i64| -> LinExpr {
            if t >= 0 {
                LinExpr::var(cwnd[t as usize])
            } else {
                LinExpr::constant(cex.cwnd_at(t).clone())
            }
        };
        let av = |t: i64| -> LinExpr {
            if t >= 0 {
                LinExpr::var(a[t as usize])
            } else {
                LinExpr::constant(cex.a_at(t).clone())
            }
        };

        let mut cs: Vec<Term> = Vec::new();

        // Template: cwnd(t) = Σ αᵢ·cwnd(t−i) + Σ βᵢ·S_τ(t−1−i) + γ.
        for t in 0..=t_end {
            let mut rhs = LinExpr::var(self.gamma().value);
            for i in 0..self.shape.lookback {
                // β tap is linear: the ack sample is a trace constant.
                let ack_sample = cex.s_at(t - i as i64 - 2).clone();
                rhs = rhs + LinExpr::term(self.beta(i).value, ack_sample);
            }
            if self.shape.use_cwnd {
                for i in 0..self.shape.lookback {
                    let back = t - i as i64 - 1;
                    if back < 0 {
                        // Historical cwnd is a trace constant: linear tap.
                        rhs = rhs
                            + LinExpr::term(
                                self.alpha(i).unwrap().value,
                                cex.cwnd_at(back).clone(),
                            );
                    } else {
                        // Product of two variables: ite-linearize through
                        // the selector booleans (§3.1.2).
                        let p = self.ctx.real_var(format!("g{n}.p{i}[{t}]"));
                        let selectors = self.alpha(i).unwrap().selectors.clone();
                        for (value, sel) in selectors {
                            let prod = LinExpr::term(cwnd[back as usize], value.clone());
                            let eq = self.ctx.eq(LinExpr::var(p), prod);
                            let bind = self.ctx.implies(sel, eq);
                            cs.push(bind);
                        }
                        rhs = rhs + LinExpr::var(p);
                    }
                }
            }
            cs.push(self.ctx.eq(LinExpr::var(cwnd[t as usize]), rhs));
        }

        // Sender rule: A(t) = max(A(t−1), S_τ(t−1) + cwnd(t)).
        for t in 0..=t_end {
            let prev = av(t - 1);
            let window = LinExpr::constant(cex.s_at(t - 1).clone()) + cw(t);
            let at = av(t);
            let ge1 = self.ctx.ge(at.clone(), prev.clone());
            let ge2 = self.ctx.ge(at.clone(), window.clone());
            let le1 = self.ctx.le(at.clone(), prev);
            let le2 = self.ctx.le(at, window);
            let tight = self.ctx.or(vec![le1, le2]);
            cs.push(ge1);
            cs.push(ge2);
            cs.push(tight);
        }

        // Feasibility of the trace against this candidate's behaviour.
        let mut feas = Vec::new();
        match self.mode {
            FeasibilityMode::Baseline => {
                for t in 0..=t_end {
                    feas.push(self.ctx.eq(av(t), LinExpr::constant(cex.a_at(t).clone())));
                }
            }
            FeasibilityMode::RangePruning => {
                for t in 0..=t_end {
                    // S_τ(t) ≤ A(t): the link never served data the CCA
                    // had not sent.
                    feas.push(self.ctx.ge(av(t), LinExpr::constant(cex.s_at(t).clone())));
                    // When the trace wasted tokens, the queue must have been
                    // at or below the token line.
                    if cex.waste_increased(t) {
                        let tokens = &(&link_rate * &Rat::from(t + history)) - cex.w_at(t);
                        feas.push(self.ctx.le(av(t), LinExpr::constant(tokens)));
                    }
                }
            }
        }
        let feasible = self.ctx.and(feas);

        // Desired property with trace-constant S and candidate-dependent
        // A/cwnd. Constant comparisons fold inside the context.
        let th = self.thresholds.clone();
        let work = cex.s_at(t_end) - cex.s_at(0);
        let target = &(&th.util * &link_rate) * &Rat::from(t_end);
        let util_ok = if work >= target { self.ctx.tru() } else { self.ctx.fls() };
        let cwnd_up = self.ctx.gt(cw(t_end), cw(0));
        let cwnd_down = self.ctx.lt(cw(t_end), cw(0));
        let mut queue_cs = Vec::new();
        for t in 0..=t_end {
            let queue = av(t) - LinExpr::constant(cex.s_at(t).clone());
            queue_cs.push(self.ctx.le(queue, LinExpr::constant(th.delay.clone())));
        }
        let queue_ok = self.ctx.and(queue_cs);
        let q_end = av(t_end) - LinExpr::constant(cex.s_at(t_end).clone());
        let q_start = av(0) - LinExpr::constant(cex.s_at(0).clone());
        let queue_down = self.ctx.lt(q_end, q_start);
        let c1 = self.ctx.or(vec![util_ok, cwnd_up]);
        let c2 = self.ctx.or(vec![queue_ok, queue_down, cwnd_down]);
        let desired = self.ctx.and(vec![c1, c2]);

        let sigma = self.ctx.implies(feasible, desired);
        cs.push(sigma);
        let all = self.ctx.and(cs);
        self.solver.assert(&self.ctx, all);
    }

    /// Region-form learning (no-cwnd + range pruning): assert σ(A, τ)
    /// directly over the coefficient variables.
    ///
    /// Without cwnd taps the template is linear in the coefficients, so
    /// `cwnd(k) = γ + Σᵢ βᵢ·S_τ(k−i−2)` is a linear expression with
    /// trace-constant multipliers, and the sender recursion
    /// `A(t) = max(A(t−1), S_τ(t−1) + cwnd(t))` unrolls to
    /// `A(t) = max(A_τ(−1), ℓ₀, …, ℓ_t)` with ledger terms
    /// `ℓ_k = S_τ(k−1) + cwnd(k)`. Every predicate over `A(t)` becomes a
    /// Boolean combination of linear atoms over the coefficients:
    ///
    /// * `A(t) ≥ b` ⟺ some max term reaches `b` (a disjunction),
    /// * `A(t) ≤ b` ⟺ every max term stays at or below `b` (a conjunction),
    /// * `A(T) < A(0) + d` ⟺ every `M_T` term is beaten by some `M_0`
    ///   term plus `d`,
    ///
    /// and `cwnd(T) > cwnd(0)` collapses to the single atom
    /// `Σᵢ βᵢ·(S_τ(T−i−2) − S_τ(−i−2)) > 0` (γ cancels). The encoding is
    /// logically equivalent to the response-variable path — response
    /// variables are functionally determined by the coefficients — so the
    /// excluded candidate set is identical (the differential suite pins the
    /// enumerated solution set to brute force) while the solver keeps
    /// working over the same handful of real variables no matter how many
    /// traces are learned.
    fn learn_region_form(&mut self, cex: &Trace) {
        let t_end = self.net.t_max();
        let history = self.net.history as i64;
        let link_rate = self.net.link_rate.clone();
        let gamma = self.gamma().value;
        let betas: Vec<RealVar> = (0..self.shape.lookback).map(|i| self.beta(i).value).collect();

        // cwnd(k) over the coefficient variables.
        let cwnd_expr = |k: i64| -> LinExpr {
            let mut e = LinExpr::var(gamma);
            for (i, b) in betas.iter().enumerate() {
                e = e + LinExpr::term(*b, cex.s_at(k - i as i64 - 2).clone());
            }
            e
        };
        // Ledger: A(t) = max(A_τ(−1), ledger[0..=t]).
        let ledger: Vec<LinExpr> = (0..=t_end)
            .map(|k| LinExpr::constant(cex.s_at(k - 1).clone()) + cwnd_expr(k))
            .collect();
        let a_init = cex.a_at(-1).clone();

        // Feasibility: S_τ(t) ≤ A(t), plus the waste-point upper bound.
        let mut feas = Vec::new();
        for t in 0..=t_end {
            let upto = &ledger[..=t as usize];
            feas.push(a_ge(&mut self.ctx, &a_init, upto, cex.s_at(t)));
            if cex.waste_increased(t) {
                let tokens = &(&link_rate * &Rat::from(t + history)) - cex.w_at(t);
                feas.push(a_le(&mut self.ctx, &a_init, upto, &tokens));
            }
        }
        let feasible = self.ctx.and(feas);

        // Desired property, same shape as the response-variable path.
        let th = self.thresholds.clone();
        let work = cex.s_at(t_end) - cex.s_at(0);
        let target = &(&th.util * &link_rate) * &Rat::from(t_end);
        let util_ok = if work >= target { self.ctx.tru() } else { self.ctx.fls() };
        let cwnd_up = self.ctx.gt(cwnd_expr(t_end), cwnd_expr(0));
        let cwnd_down = self.ctx.lt(cwnd_expr(t_end), cwnd_expr(0));
        let mut queue_cs = Vec::new();
        for t in 0..=t_end {
            let bound = cex.s_at(t) + &th.delay;
            queue_cs.push(a_le(&mut self.ctx, &a_init, &ledger[..=t as usize], &bound));
        }
        let queue_ok = self.ctx.and(queue_cs);
        // queue_down: A(T) − S_τ(T) < A(0) − S_τ(0), i.e. A(T) < A(0) + d
        // with d = S_τ(T) − S_τ(0).
        let d = cex.s_at(t_end) - cex.s_at(0);
        let m0 = [LinExpr::constant(a_init.clone()), ledger[0].clone()];
        let mut m_t: Vec<LinExpr> = Vec::with_capacity(ledger.len() + 1);
        m_t.push(LinExpr::constant(a_init.clone()));
        m_t.extend(ledger.iter().cloned());
        let mut conj = Vec::with_capacity(m_t.len());
        for m in &m_t {
            let mut ors = Vec::with_capacity(m0.len());
            for n in &m0 {
                ors.push(self.ctx.lt(m.clone(), n.clone() + LinExpr::constant(d.clone())));
            }
            conj.push(self.ctx.or(ors));
        }
        let queue_down = self.ctx.and(conj);

        let c1 = self.ctx.or(vec![util_ok, cwnd_up]);
        let c2 = self.ctx.or(vec![queue_ok, queue_down, cwnd_down]);
        let desired = self.ctx.and(vec![c1, c2]);
        let sigma = self.ctx.implies(feasible, desired);
        self.solver.assert(&self.ctx, sigma);
    }

    /// [`SmtGenerator::learn`] plus replay-verified *region blocking*: walk
    /// the refuted candidate's coefficient neighbourhood (one domain step
    /// per coefficient, breadth-first, plus symmetric β-tap swaps where the
    /// trace cannot tell two taps apart) and assert a propositional
    /// blocking clause for every neighbour the trace concretely refutes.
    ///
    /// Soundness: every block is gated by [`TraceReplay::refutes`], which
    /// implements exactly `¬σ(·, cex)` — and `σ(·, cex)` was just
    /// asserted, so each blocking clause is *redundant* with the learned
    /// constraint. Outcomes (solution set, exhaustion claims) are
    /// therefore unchanged; the payoff is that the SAT core excludes the
    /// refuted region by unit propagation over selector literals instead
    /// of rediscovering each kill through LRA conflicts.
    pub fn learn_refuted(&mut self, refuted: &CcaSpec, cex: &Trace) {
        self.learn(cex);
        let domain = self.shape.domain.values();
        if domain.len() < 2 {
            return;
        }
        let t_end = self.net.t_max();
        let start = refuted.flat();
        let mut seen: Vec<Vec<Rat>> = vec![start.clone()];
        let mut queue: VecDeque<Vec<Rat>> = VecDeque::from([start]);
        // Symmetry orbit seeds: β taps whose trace samples coincide at
        // every template read are interchangeable *on this trace*, so the
        // tap-swapped candidate fails identically — worth seeding even
        // though it is not a grid neighbour of the refuted point.
        for i in 0..refuted.beta.len() {
            for j in (i + 1)..refuted.beta.len() {
                if refuted.beta[i] == refuted.beta[j] {
                    continue;
                }
                let interchangeable =
                    (0..=t_end).all(|t| cex.s_at(t - i as i64 - 2) == cex.s_at(t - j as i64 - 2));
                if !interchangeable {
                    continue;
                }
                let mut swapped = refuted.clone();
                swapped.beta.swap(i, j);
                let flat = swapped.flat();
                if !seen.contains(&flat) && self.replay.refutes(&swapped, cex) {
                    self.block(&swapped);
                    self.regions_pruned += 1;
                    seen.push(flat.clone());
                    queue.push_back(flat);
                }
            }
        }
        let mut checked = 0usize;
        'bfs: while let Some(flat) = queue.pop_front() {
            for p in 0..flat.len() {
                let Some(di) = domain.iter().position(|v| v == &flat[p]) else { continue };
                for nd in [di.checked_sub(1), Some(di + 1)].into_iter().flatten() {
                    if nd >= domain.len() {
                        continue;
                    }
                    let mut nf = flat.clone();
                    nf[p] = domain[nd].clone();
                    if seen.contains(&nf) {
                        continue;
                    }
                    seen.push(nf.clone());
                    checked += 1;
                    let spec = self.spec_from_flat(&nf);
                    if self.replay.refutes(&spec, cex) {
                        self.block(&spec);
                        self.regions_pruned += 1;
                        queue.push_back(nf);
                    }
                    if checked >= REGION_BFS_CAP {
                        break 'bfs;
                    }
                }
            }
        }
    }

    /// Rebuild a [`CcaSpec`] from its [`CcaSpec::flat`] coefficient vector.
    fn spec_from_flat(&self, flat: &[Rat]) -> CcaSpec {
        let alphas = if self.shape.use_cwnd { self.shape.lookback } else { 0 };
        let (alpha, rest) = flat.split_at(alphas);
        let (beta, gamma) = rest.split_at(self.shape.lookback);
        CcaSpec { alpha: alpha.to_vec(), beta: beta.to_vec(), gamma: gamma[0].clone() }
    }
}

/// `max(a_init, terms…) ≥ b`: some max term reaches `b`. Constant atoms
/// fold inside the context.
fn a_ge(ctx: &mut Context, a_init: &Rat, terms: &[LinExpr], b: &Rat) -> Term {
    let mut ors = Vec::with_capacity(terms.len() + 1);
    ors.push(ctx.ge(LinExpr::constant(a_init.clone()), LinExpr::constant(b.clone())));
    for m in terms {
        ors.push(ctx.ge(m.clone(), LinExpr::constant(b.clone())));
    }
    ctx.or(ors)
}

/// `max(a_init, terms…) ≤ b`: every max term stays at or below `b`.
fn a_le(ctx: &mut Context, a_init: &Rat, terms: &[LinExpr], b: &Rat) -> Term {
    let mut ands = Vec::with_capacity(terms.len() + 1);
    ands.push(ctx.le(LinExpr::constant(a_init.clone()), LinExpr::constant(b.clone())));
    for m in terms {
        ands.push(ctx.le(m.clone(), LinExpr::constant(b.clone())));
    }
    ctx.and(ands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::{CcaVerifier, VerifyConfig};
    use crate::{known, template::TemplateShape};
    use ccmatic_num::int;

    /// An uninterrupted proposal; `None` means the space is exhausted.
    fn propose(g: &mut SmtGenerator) -> Option<CcaSpec> {
        match g.propose(&Interrupt::none()) {
            Proposal::Candidate(spec) => Some(spec),
            Proposal::Exhausted => None,
            Proposal::Interrupted => unreachable!("nothing can interrupt an unarmed proposal"),
        }
    }

    fn small_net() -> NetConfig {
        NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    #[test]
    fn fresh_generator_proposes_something() {
        let mut g = SmtGenerator::new(
            TemplateShape::no_cwnd_small(),
            small_net(),
            Thresholds::default(),
            FeasibilityMode::RangePruning,
        );
        let spec = propose(&mut g).expect("unconstrained space must have a candidate");
        // All coefficients must come from the domain.
        for c in spec.flat() {
            assert!(
                [int(-1), int(0), int(1)].contains(&c),
                "coefficient {c} outside the small domain"
            );
        }
    }

    #[test]
    fn blocking_excludes_exact_assignment() {
        let mut g = SmtGenerator::new(
            TemplateShape::no_cwnd_small(),
            small_net(),
            Thresholds::default(),
            FeasibilityMode::RangePruning,
        );
        let first = propose(&mut g).unwrap();
        g.block(&first);
        let second = propose(&mut g).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn blocking_everything_exhausts_space() {
        // Tiny custom domain {0,1}, lookback 1, no cwnd → 4 candidates.
        let shape = TemplateShape {
            lookback: 1,
            use_cwnd: false,
            domain: crate::template::CoeffDomain::Custom(vec![int(0), int(1)]),
        };
        let net =
            NetConfig { horizon: 3, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut g =
            SmtGenerator::new(shape, net, Thresholds::default(), FeasibilityMode::RangePruning);
        let mut seen = Vec::new();
        while let Some(spec) = propose(&mut g) {
            assert!(!seen.contains(&spec), "proposed a blocked candidate");
            g.block(&spec);
            seen.push(spec);
            assert!(seen.len() <= 4, "more proposals than the space size");
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn expired_deadline_interrupts_batch() {
        let mut g = SmtGenerator::new(
            TemplateShape::no_cwnd_small(),
            small_net(),
            Thresholds::default(),
            FeasibilityMode::RangePruning,
        );
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        assert_eq!(g.propose(&Interrupt::at(past)), Proposal::Interrupted);
        // The generator must remain usable afterwards.
        assert!(propose(&mut g).is_some());
    }

    #[test]
    fn learning_a_counterexample_rules_out_the_broken_candidate() {
        let net = small_net();
        let shape = TemplateShape::no_cwnd_small();
        let mut verifier = CcaVerifier::new(VerifyConfig {
            net: net.clone(),
            thresholds: Thresholds::default(),
            worst_case: false,
            wce_precision: Rat::new(1i64.into(), 4i64.into()),
            certify: false,
            ..Default::default()
        });
        let mut g =
            SmtGenerator::new(shape, net, Thresholds::default(), FeasibilityMode::RangePruning);
        // The all-zero candidate is broken; its counterexample must stop the
        // generator from proposing all-zero again.
        let zero = known::const_cwnd(Rat::zero());
        let cex = verifier.verify(&zero).expect_err("zero cwnd must be refuted");
        g.learn(&cex);
        for _ in 0..8 {
            let Some(next) = propose(&mut g) else {
                return; // exhausted — fine for this property
            };
            assert_ne!(next, zero, "generator re-proposed a refuted candidate");
            g.block(&next);
        }
    }

    #[test]
    fn range_pruning_learns_faster_than_baseline() {
        // Count how many distinct candidates each mode can still propose
        // after learning the same counterexample. Range pruning must prune
        // at least as many as baseline.
        let net =
            NetConfig { horizon: 4, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None };
        let shape = TemplateShape {
            lookback: 2,
            use_cwnd: false,
            domain: crate::template::CoeffDomain::Small,
        };
        let mut verifier = CcaVerifier::new(VerifyConfig {
            net: net.clone(),
            thresholds: Thresholds::default(),
            worst_case: true,
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            certify: false,
            ..Default::default()
        });
        let broken = CcaSpec { alpha: vec![], beta: vec![int(0), int(0)], gamma: int(0) };
        let cex = verifier.verify(&broken).expect_err("refuted");
        let count_remaining = |mode: FeasibilityMode| {
            let mut g = SmtGenerator::new(shape.clone(), net.clone(), Thresholds::default(), mode);
            g.learn(&cex);
            let mut n = 0;
            while let Some(spec) = propose(&mut g) {
                g.block(&spec);
                n += 1;
                if n > 27 {
                    break;
                }
            }
            n
        };
        let base = count_remaining(FeasibilityMode::Baseline);
        let rp = count_remaining(FeasibilityMode::RangePruning);
        assert!(
            rp <= base,
            "range pruning ({rp}) must not keep more candidates than baseline ({base})"
        );
    }
}
