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
//!   manipulation of the CCAC constraints), with the trace's losses read as
//!   constants on lossy networks (DESIGN.md §11.1).
//!
//! σ itself is written once (the private `sigma` module); `learn` reads
//! it over the solver and [`TraceReplay::refutes`] reads it in exact
//! arithmetic. On top of the feasibility encoding sits *region pruning*
//! (DESIGN.md §11; always on, there is no unpruned path):
//!
//! * For no-cwnd shapes under range pruning, `learn` reads σ in
//!   *region form* — the sender max-recursion is unrolled into per-step
//!   linear ledger expressions over the coefficient variables themselves,
//!   so a trace adds **zero** fresh real variables instead of `2·(T+1)`
//!   response variables plus tightness disjunctions. The encoding is
//!   logically equivalent (response variables are functionally determined
//!   by the coefficients); a unit test checks the two forms against
//!   replay candidate by candidate, and the differential suite pins the
//!   enumerated solution set to a brute-force verifier sweep.
//! * [`SmtGenerator::learn_refuted`] additionally walks the refuted
//!   candidate's coefficient neighbourhood (grid steps + symmetric tap
//!   swaps), asserting a propositional blocking clause for every
//!   neighbour the trace *concretely* refutes (checked by
//!   [`TraceReplay::refutes`], so each block is redundant with the
//!   asserted σ and outcomes are unchanged) — one trace kills a whole
//!   candidate region by SAT unit propagation instead of LRA reasoning.

use crate::replay::TraceReplay;
use crate::sigma::{sigma, Reading};
use crate::template::{CcaSpec, TemplateShape};
use ccac_model::model::max_terms;
use ccac_model::property;
use ccac_model::{NetConfig, Rel, Thresholds, Trace};
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
    /// alphas (if any) then betas then gamma.
    coeffs: Vec<Coeff>,
    /// The network, thresholds and feasibility mode every learned σ is
    /// read under, and the concrete reading of σ that gates every
    /// dominance/symmetry block and whether a warm-start seed gets the
    /// region BFS.
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
        SmtGenerator {
            ctx,
            solver,
            shape,
            coeffs,
            replay: TraceReplay::new(net, thresholds, mode),
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
        self.spec_from_flat(&self.coeffs.iter().map(|c| model.real(c.value)).collect::<Vec<_>>())
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
    /// desired(A, τ)`. No-cwnd shapes under range pruning read σ in
    /// region form (directly over the coefficient variables, no per-trace
    /// response variables); everything else reads it with fresh response
    /// variables.
    pub fn learn(&mut self, cex: &Trace) {
        self.num_learned += 1;
        let region = !self.shape.use_cwnd && self.replay.mode == FeasibilityMode::RangePruning;
        self.assert_sigma(cex, region);
    }

    /// Assert σ(A, τ) in region form or response-variable form.
    ///
    /// Region form: without cwnd taps the template is linear in the
    /// coefficients, so `cwnd(k) = γ + Σᵢ βᵢ·S_τ(k−i−2)` is a linear
    /// expression, and the sender recursion unrolls to
    /// `A(t) = max(A_τ(−1), ℓ₀, …, ℓ_t)` with ledger terms
    /// `ℓ_k = S_τ(k−1) + cwnd(k)`. Every comparison of two such maxima is
    /// a Boolean combination of linear atoms over the coefficients
    /// (`max X ≤ max Y` ⟺ every x is at or below some y, and so on). The
    /// two forms are logically equivalent — response variables are
    /// functionally determined by the coefficients — so the excluded
    /// candidate set is identical, while the region form keeps the solver
    /// on the same handful of real variables however many traces it
    /// learns.
    fn assert_sigma(&mut self, cex: &Trace, region: bool) {
        let t_end = self.replay.net.t_max();
        let fresh = (!region).then(|| {
            let n = self.num_learned;
            let mut vars = |q: &str| {
                (0..=t_end).map(|t| self.ctx.real_var(format!("g{n}.{q}[{t}]"))).collect()
            };
            (n, vars("cwnd"), vars("A"))
        });
        let alphas = if self.shape.use_cwnd { self.shape.lookback } else { 0 };
        let mut r = Symbolic { ctx: &mut self.ctx, coeffs: &self.coeffs, fresh, cs: Vec::new() };
        let sigma = sigma(&mut r, &self.replay, alphas, self.shape.lookback, cex);
        let Symbolic { ctx, mut cs, .. } = r;
        cs.push(sigma);
        let all = ctx.and(cs);
        self.solver.assert(&self.ctx, all);
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
        let t_end = self.replay.net.t_max();
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

/// σ read over the solver: a value is the max of a list of linear terms
/// over the coefficient variables (one term unless the region form
/// unrolled a sender recursion into it).
struct Symbolic<'a> {
    ctx: &'a mut Context,
    coeffs: &'a [Coeff],
    /// The response-variable form's trace number (which names its fresh
    /// variables) and fresh `cwnd(t)` and `A(t)` variables; `None` reads σ
    /// in region form.
    fresh: Option<(u64, Vec<RealVar>, Vec<RealVar>)>,
    /// Definitions of fresh variables, asserted with σ.
    cs: Vec<Term>,
}

impl property::Reading for Symbolic<'_> {
    type Val = Vec<LinExpr>;
    type Prop = Term;
    fn lit(&self, x: &Rat) -> Vec<LinExpr> {
        vec![LinExpr::constant(x.clone())]
    }
    fn sub(&self, a: Vec<LinExpr>, b: Vec<LinExpr>) -> Vec<LinExpr> {
        // σ subtracts only trace constants, and max X − y = max (X − y).
        let [y] = <[LinExpr; 1]>::try_from(b).expect("a difference subtracts a single term");
        a.into_iter().map(|x| x - y.clone()).collect()
    }
    fn cmp(&mut self, lhs: &Vec<LinExpr>, rel: Rel, rhs: &Vec<LinExpr>) -> Term {
        if rel == Rel::Eq {
            let le = self.cmp(lhs, Rel::Le, rhs);
            let ge = self.cmp(lhs, Rel::Ge, rhs);
            return self.ctx.and(vec![le, ge]);
        }
        // Between maxima: max X ≤ max Y (or <) iff every x is ≤ (or <)
        // some y; max X ≥ max Y iff every y is reached by some x;
        // max X > max Y iff some x is above every y.
        let ctx = &mut *self.ctx;
        let (outer, inner) = if rel == Rel::Ge { (rhs, lhs) } else { (lhs, rhs) };
        let mut ps = Vec::with_capacity(outer.len());
        for o in outer {
            let mut qs: Vec<Term> = inner
                .iter()
                .map(|i| {
                    let (x, y) = if rel == Rel::Ge { (i, o) } else { (o, i) };
                    rel.term(ctx, x.clone(), y.clone())
                })
                .collect();
            ps.push(match qs.len() {
                1 => qs.pop().expect("one term"),
                _ if rel == Rel::Gt => ctx.and(qs),
                _ => ctx.or(qs),
            });
        }
        if rel == Rel::Gt {
            ctx.or(ps)
        } else {
            ctx.and(ps)
        }
    }
    fn and(&mut self, ps: Vec<Term>) -> Term {
        self.ctx.and(ps)
    }
    fn or(&mut self, ps: Vec<Term>) -> Term {
        self.ctx.or(ps)
    }
}

impl Reading for Symbolic<'_> {
    fn tap(&mut self, c: usize, x: &Rat) -> Vec<LinExpr> {
        vec![LinExpr::term(self.coeffs[c].value, x.clone())]
    }
    fn product(&mut self, c: usize, t: i64, v: &Vec<LinExpr>) -> Vec<LinExpr> {
        // A product of two variables: ite-linearize through the selector
        // booleans (§3.1.2).
        let n = self.fresh.as_ref().expect("products only in the response-variable form").0;
        let p = self.ctx.real_var(format!("g{n}.p{c}[{t}]"));
        for (value, sel) in &self.coeffs[c].selectors {
            let eq = self.ctx.eq(LinExpr::var(p), v[0].scaled(value));
            let bind = self.ctx.implies(*sel, eq);
            self.cs.push(bind);
        }
        vec![LinExpr::var(p)]
    }
    fn add(&mut self, a: Vec<LinExpr>, b: Vec<LinExpr>) -> Vec<LinExpr> {
        // One side is a single term, and max X + y = max (X + y).
        let (xs, y) = if b.len() == 1 { (a, b) } else { (b, a) };
        let [y] = <[LinExpr; 1]>::try_from(y).expect("a sum has a single-term side");
        xs.into_iter().map(|x| x + y.clone()).collect()
    }
    fn cwnd(&mut self, t: i64, rhs: Vec<LinExpr>) -> Vec<LinExpr> {
        let Some((_, cwnd, _)) = &self.fresh else { return rhs };
        let x = LinExpr::var(cwnd[t as usize]);
        let def = self.ctx.eq(x.clone(), rhs[0].clone());
        self.cs.push(def);
        vec![x]
    }
    fn arrivals(&mut self, t: i64, prev: &Vec<LinExpr>, window: Vec<LinExpr>) -> Vec<LinExpr> {
        let Some((_, _, a)) = &self.fresh else { return [prev.clone(), window].concat() };
        let x = LinExpr::var(a[t as usize]);
        let max = max_terms(self.ctx, x.clone(), prev[0].clone(), window[0].clone());
        self.cs.extend(max);
        vec![x]
    }
    fn implies(&mut self, a: Term, b: impl FnOnce(&mut Self) -> Term) -> Term {
        let b = b(self);
        self.ctx.implies(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::CandidateIter;
    use crate::template::CoeffDomain;
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

    /// Whether σ as asserted in `g` admits `spec`: σ ∧ selectors(spec) is
    /// satisfiable.
    fn admits(g: &mut SmtGenerator, spec: &CcaSpec) -> bool {
        g.solver.push();
        for (coeff, v) in g.coeffs.iter().zip(spec.flat()) {
            let sel = coeff.selectors.iter().find(|(a, _)| a == &v).expect("in the domain").1;
            g.solver.assert(&g.ctx, sel);
        }
        let sat = g.solver.check(&g.ctx) == SatResult::Sat;
        g.solver.pop();
        sat
    }

    /// The three readings of σ agree. On verifier counterexamples (with
    /// and without WCE) over a 3³ no-cwnd space and a lookback-2 cwnd
    /// space, lossless and with a 1-BDP buffer, in both feasibility
    /// modes, `refutes(spec, τ)` holds for every candidate of the space
    /// exactly when σ(τ) ∧ selectors(spec) is Unsat, with σ read in the
    /// response-variable form and, without cwnd taps, in the region form.
    #[test]
    fn sigma_readings_agree_on_every_candidate() {
        let th = Thresholds::default();
        let net =
            NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut refuted = [0usize; 2];
        for (use_cwnd, every) in [(false, 1), (true, 23)] {
            let shape = TemplateShape { lookback: 2, use_cwnd, domain: CoeffDomain::Small };
            for buffer in [None, Some(int(1))] {
                let net = NetConfig { buffer, ..net.clone() };
                let traces: Vec<Trace> = CandidateIter::new(shape.clone())
                    .step_by(every)
                    .enumerate()
                    .filter_map(|(i, spec)| {
                        let mut v = CcaVerifier::new(VerifyConfig {
                            net: net.clone(),
                            thresholds: th.clone(),
                            worst_case: i % 2 == 1,
                            wce_precision: Rat::new(1i64.into(), 2i64.into()),
                            certify: false,
                            ..Default::default()
                        });
                        v.verify(&spec).err()
                    })
                    .collect();
                assert!(traces.len() >= 8, "{use_cwnd} {:?}: {} traces", net.buffer, traces.len());
                for mode in [FeasibilityMode::Baseline, FeasibilityMode::RangePruning] {
                    let replay = TraceReplay::new(net.clone(), th.clone(), mode);
                    for (k, cex) in traces.iter().enumerate() {
                        for region in [false, true] {
                            if region && use_cwnd {
                                continue;
                            }
                            let mut g =
                                SmtGenerator::new(shape.clone(), net.clone(), th.clone(), mode);
                            g.num_learned += 1;
                            g.assert_sigma(cex, region);
                            for spec in CandidateIter::new(shape.clone()) {
                                let refutes = replay.refutes(&spec, cex);
                                assert_eq!(
                                    refutes,
                                    !admits(&mut g, &spec),
                                    "{spec} on trace {k}: {mode:?}, region {region}, buffer {:?}",
                                    net.buffer
                                );
                                refuted[refutes as usize] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(refuted.iter().all(|&n| n > 100), "{refuted:?}");
    }
}
