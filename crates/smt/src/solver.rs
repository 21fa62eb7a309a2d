//! The lazy DPLL(T) combination: CDCL SAT core + simplex theory solver.

use crate::cnf::CnfBuilder;
use crate::interrupt::Interrupt;
use crate::linexpr::LinExpr;
use crate::lra::{RowExtreme, SimVar, Simplex, TheoryConflict};
use crate::sat::{Lit, SatSolver, SolveResult, TheoryHook, TheoryLemma, Var};
use crate::term::{BoolVar, Context, RealVar, Term, TermData};
use ccmatic_num::{DeltaRat, Rat};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-wide trail-sync counters across every [`Solver`] instance
/// (generator, verifier and WCE probes alike), in the mold of
/// `ccmatic_smt::pivots_total` / `ccmatic_num::arith_snapshot`: benches
/// bracket a region of interest with snapshots and report the deltas.
static THEORY_PROPS_TOTAL: AtomicU64 = AtomicU64::new(0);
static BOUNDS_ASSERTED_TOTAL: AtomicU64 = AtomicU64::new(0);
static BOUNDS_REUSED_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide snapshot of the trail-synchronized theory-solving counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TheoryCounters {
    /// Literals implied into SAT trails by theory propagation.
    pub theory_props: u64,
    /// Atom bounds asserted into simplex solvers at theory fixpoints.
    pub bounds_asserted: u64,
    /// Atom bounds retained across theory fixpoints instead of re-asserted.
    pub bounds_reused: u64,
}

/// Read the process-wide trail-sync counters.
pub fn theory_counters() -> TheoryCounters {
    TheoryCounters {
        theory_props: THEORY_PROPS_TOTAL.load(AtomicOrdering::Relaxed),
        bounds_asserted: BOUNDS_ASSERTED_TOTAL.load(AtomicOrdering::Relaxed),
        bounds_reused: BOUNDS_REUSED_TOTAL.load(AtomicOrdering::Relaxed),
    }
}

/// Result of a satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; a model is available.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The interrupt fired before a verdict was reached.
    Unknown,
}

/// A satisfying assignment.
#[derive(Clone, Debug, Default)]
pub struct Model {
    reals: HashMap<RealVar, Rat>,
    bools: HashMap<BoolVar, bool>,
}

impl Model {
    /// Value of a real variable (variables absent from every asserted atom
    /// default to zero, which is always consistent).
    pub fn real(&self, v: RealVar) -> Rat {
        self.reals.get(&v).cloned().unwrap_or_else(Rat::zero)
    }

    /// Value of a Boolean term variable (unconstrained variables default to
    /// `false`).
    pub fn bool_var(&self, v: BoolVar) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Evaluate a linear expression under the model.
    pub fn eval(&self, e: &LinExpr) -> Rat {
        e.eval(|v| self.real(v))
    }

    /// Iterate over the assigned real variables.
    pub fn reals(&self) -> impl Iterator<Item = (RealVar, &Rat)> + '_ {
        self.reals.iter().map(|(v, r)| (*v, r))
    }

    /// Evaluate a term under the model with exact rational arithmetic.
    /// This shares no code with the solving path, so it doubles as an
    /// independent soundness audit of `Sat` verdicts.
    pub fn satisfies(&self, ctx: &Context, t: Term) -> bool {
        match ctx.data(t) {
            TermData::True => true,
            TermData::False => false,
            TermData::BoolVar(b) => self.bool_var(*b),
            TermData::Atom(a) => {
                let atom = ctx.atom(*a);
                let v = self.eval(&atom.expr);
                if atom.strict {
                    v < atom.bound
                } else {
                    v <= atom.bound
                }
            }
            TermData::Not(inner) => !self.satisfies(ctx, *inner),
            TermData::And(ts) => ts.iter().all(|&s| self.satisfies(ctx, s)),
            TermData::Or(ts) => ts.iter().any(|&s| self.satisfies(ctx, s)),
        }
    }
}

/// Aggregate statistics over the lifetime of a [`Solver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// `check` invocations.
    pub checks: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// Total conflicts (SAT + theory).
    pub conflicts: u64,
    /// Theory consistency checks on full Boolean models.
    pub theory_checks: u64,
    /// Theory conflicts (blocking clauses learned from simplex).
    pub theory_conflicts: u64,
    /// Simplex pivots.
    pub pivots: u64,
    /// Arithmetic fast-path promotions (fast → bignum fallbacks). This is a
    /// *process-wide* snapshot from `ccmatic_num::arith_snapshot()`, not a
    /// per-solver count: take deltas around a region of interest.
    pub promotions: u64,
    /// Literals implied into the SAT trail by theory propagation.
    pub theory_props: u64,
    /// Atom bounds asserted into the simplex at theory fixpoints.
    pub bounds_asserted: u64,
    /// Atom bounds retained across theory fixpoints instead of re-asserted:
    /// the trail prefix that stayed in the simplex from one fixpoint to the
    /// next.
    pub bounds_reused: u64,
}

/// An incremental SMT solver for QF-LRA.
///
/// Assertions accumulate; `check` may be called repeatedly, and further
/// assertions (e.g. CEGIS blocking constraints) may be added between calls.
pub struct Solver {
    sat: SatSolver,
    cnf: CnfBuilder,
    simplex: Simplex,
    real_to_sim: HashMap<RealVar, SimVar>,
    /// Parallel to `cnf.atom_bindings()`: the simplex variable bounded by
    /// each atom.
    atom_slacks: Vec<SimVar>,
    /// `atom_slacks` length at each open `push`.
    scope_marks: Vec<usize>,
    /// Memo: multi-variable atom expression (in simplex-variable terms) →
    /// its slack, so atoms differing only in the bound share one slack.
    /// Sharing is what lets a bound on one atom propagate the truth value
    /// of its siblings. Stale entries are retired on `pop`.
    expr_slacks: HashMap<Vec<(SimVar, Rat)>, SimVar>,
    /// Every term passed to [`Solver::assert`], in order, for exact model
    /// auditing; truncated by `pop` in lockstep with the SAT scopes.
    asserted: Vec<Term>,
    /// `asserted` length at each open `push`.
    asserted_marks: Vec<usize>,
    model: Option<Model>,
    /// `check` invocations over the solver's lifetime.
    checks: u64,
    /// Lifetime atom bounds asserted at theory fixpoints.
    bounds_asserted: u64,
    /// Lifetime atom bounds retained across theory fixpoints.
    bounds_reused: u64,
    /// Optional deadline/cancellation for `check`; fires as
    /// [`SatResult::Unknown`], never a fake verdict.
    pub interrupt: Interrupt,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Empty solver.
    pub fn new() -> Self {
        Solver {
            sat: SatSolver::new(),
            cnf: CnfBuilder::new(),
            simplex: Simplex::new(),
            real_to_sim: HashMap::new(),
            atom_slacks: Vec::new(),
            scope_marks: Vec::new(),
            expr_slacks: HashMap::new(),
            asserted: Vec::new(),
            asserted_marks: Vec::new(),
            model: None,
            checks: 0,
            bounds_asserted: 0,
            bounds_reused: 0,
            interrupt: Interrupt::none(),
        }
    }

    /// Assert a term.
    pub fn assert(&mut self, ctx: &Context, t: Term) {
        self.model = None;
        self.asserted.push(t);
        self.cnf.assert_term(ctx, &mut self.sat, t);
    }

    /// Enable DRAT + Farkas proof logging into the solver's in-memory
    /// [`ccmatic_proof::MemorySink`], so `Unsat` verdicts from
    /// [`Solver::check_certified`] carry a replayable certificate.
    ///
    /// # Panics
    /// Panics unless the solver is empty: it must be called before anything
    /// is asserted, so the log covers every clause.
    pub fn enable_proofs(&mut self) {
        self.sat.enable_proofs();
    }

    /// Whether [`Solver::enable_proofs`] has been called.
    pub fn proofs_enabled(&self) -> bool {
        self.sat.proofs_enabled()
    }

    /// Open an assertion scope across the whole stack (SAT core, CNF memo
    /// tables, simplex tableau). Assertions made from here on are retracted
    /// by the matching [`Solver::pop`]; anything asserted before survives,
    /// as do learned clauses that only depend on it.
    pub fn push(&mut self) {
        self.sat.push();
        self.cnf.push();
        self.simplex.push();
        self.scope_marks.push(self.atom_slacks.len());
        self.asserted_marks.push(self.asserted.len());
    }

    /// Retract every assertion made since the matching [`Solver::push`].
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let mark = self.scope_marks.pop().expect("pop without matching push");
        let amark = self.asserted_marks.pop().expect("pop without matching push");
        self.model = None;
        self.sat.pop();
        self.cnf.pop();
        self.simplex.pop();
        self.atom_slacks.truncate(mark);
        self.asserted.truncate(amark);
        // Real variables first seen inside the scope mapped to simplex vars
        // that no longer exist; forget them so a later assert re-allocates.
        let live = self.simplex.num_vars() as u32;
        self.real_to_sim.retain(|_, s| s.0 < live);
        // Same for memoized slacks: a surviving slack only references
        // variables older than itself, so `slack < live` is exact.
        self.expr_slacks.retain(|_, s| s.0 < live);
    }

    /// Number of open scopes.
    pub fn depth(&self) -> u32 {
        self.scope_marks.len() as u32
    }

    /// Register in the simplex any atoms that appeared since the last check.
    fn register_new_atoms(&mut self, ctx: &Context) {
        while self.atom_slacks.len() < self.cnf.atom_bindings().len() {
            let (sat_var, atom_id) = self.cnf.atom_bindings()[self.atom_slacks.len()];
            let data = ctx.atom(atom_id).clone();
            // Single-variable unit-coefficient atoms bound the variable
            // itself; anything else gets a shared slack per expression
            // (memoized so atoms differing only in the bound — e.g. the
            // probes of a WCE binary search — land on one slack, letting a
            // bound asserted for one atom fix the truth value of another).
            let slack = if data.expr.num_vars() == 1 {
                let (v, c) = data.expr.iter().next().map(|(v, c)| (v, c.clone())).unwrap();
                debug_assert_eq!(c, Rat::one(), "canonical atoms have leading coefficient 1");
                self.sim_var(v)
            } else {
                let terms: Vec<(SimVar, Rat)> =
                    data.expr.iter().map(|(v, c)| (self.sim_var(v), c.clone())).collect();
                match self.expr_slacks.get(&terms) {
                    Some(&s) => s,
                    None => {
                        let s = self.simplex.define_slack(&terms);
                        self.expr_slacks.insert(terms, s);
                        s
                    }
                }
            };
            self.atom_slacks.push(slack);
            if self.sat.proofs_enabled() {
                // The certificate checker needs the arithmetic meaning of
                // each theory literal, in real-variable space.
                let expr: Vec<(u32, Rat)> =
                    data.expr.iter().map(|(v, c)| (v.0, c.clone())).collect();
                self.sat.log_atom_def(sat_var, &expr, &data.bound, data.strict);
            }
        }
    }

    fn sim_var(&mut self, v: RealVar) -> SimVar {
        if let Some(&s) = self.real_to_sim.get(&v) {
            return s;
        }
        let s = self.simplex.new_var();
        self.real_to_sim.insert(v, s);
        s
    }

    /// Decide satisfiability of the asserted formula.
    pub fn check(&mut self, ctx: &Context) -> SatResult {
        self.checks += 1;
        self.model = None;
        self.register_new_atoms(ctx);
        self.sat.interrupt = self.interrupt.clone();

        struct Bridge<'a> {
            simplex: &'a mut Simplex,
            /// The solve's interrupt, polled before every simplex pivot.
            interrupt: &'a Interrupt,
            /// (sat var, slack var, bound, strict) per atom.
            atoms: Vec<(Var, SimVar, Rat, bool)>,
            /// SAT variable → atom index.
            var_to_atom: HashMap<u32, usize>,
            /// Slack variable → indices of the atoms bounding it.
            slack_atoms: HashMap<u32, Vec<usize>>,
            /// Sorted slack ids; the propagation scan walks this instead of
            /// the map so lemma emission order is deterministic.
            slack_order: Vec<u32>,
            /// One entry per processed trail position: the simplex undo-log
            /// mark taken *before* that entry was handled (so positions stay
            /// trail-aligned even when an assert conflicts) and the number
            /// of atom entries in the trail prefix up to and including it.
            synced: Vec<(usize, u64)>,
            /// Scratch for `Simplex::drain_touched`.
            touched: Vec<SimVar>,
            /// Lifetime counters, merged into the solver after the solve.
            bounds_asserted: u64,
            bounds_reused: u64,
        }
        /// Re-tag a simplex conflict as a SAT clause: the tags already are
        /// literal codes, and the Farkas multipliers ride along so the proof
        /// log can record a checkable theory lemma.
        fn lemma(conflict: TheoryConflict) -> TheoryLemma {
            TheoryLemma {
                lits: conflict.tags.into_iter().map(Lit).collect(),
                farkas: conflict.farkas.into_iter().map(|(t, c)| (Lit(t), c)).collect(),
            }
        }
        impl Bridge<'_> {
            /// The simplex check under the solve's interrupt. A stop finds
            /// no conflict; the SAT loop, polling the same interrupt at its
            /// next fixpoint or final check, returns Unknown.
            fn simplex_check(&mut self) -> Result<(), TheoryLemma> {
                self.simplex.check_until(self.interrupt).unwrap_or(Ok(())).map_err(lemma)
            }

            /// Assert atom `ai`'s bound for polarity `holds`. The conflict
            /// clause must falsify the asserted literal, so the tag is the
            /// *negation* of what is currently true.
            fn assert_atom(&mut self, ai: usize, holds: bool) -> Result<(), TheoryConflict> {
                let (sat_var, slack, bound, strict) = &self.atoms[ai];
                if holds {
                    // expr ≤ bound (or < bound).
                    let b = if *strict {
                        DeltaRat::strictly_below(bound.clone())
                    } else {
                        DeltaRat::from(bound.clone())
                    };
                    let tag = Lit::neg(*sat_var).0;
                    self.simplex.assert_upper(*slack, b, tag)
                } else {
                    // ¬(expr ≤ bound) ⇒ expr > bound;
                    // ¬(expr < bound) ⇒ expr ≥ bound.
                    let b = if *strict {
                        DeltaRat::from(bound.clone())
                    } else {
                        DeltaRat::strictly_above(bound.clone())
                    };
                    let tag = Lit::pos(*sat_var).0;
                    self.simplex.assert_lower(*slack, b, tag)
                }
            }

            /// The upper bound on an atom's slack equivalent to the atom
            /// being true: `expr ≤ b` (`<` when strict).
            fn atom_true_bound(&self, ai: usize) -> DeltaRat {
                let (_, _, bound, strict) = &self.atoms[ai];
                if *strict {
                    DeltaRat::strictly_below(bound.clone())
                } else {
                    DeltaRat::from(bound.clone())
                }
            }

            /// Theory propagation: after a check, scan the atoms whose
            /// slacks the latest bound tightenings can decide and emit
            /// implied literals with Farkas explanations. They follow from
            /// the bounds alone, so they hold even after an interrupted
            /// check. Best-effort — a missed implication costs a decision,
            /// never soundness.
            fn scan_propagations(
                &mut self,
                assignment: &dyn Fn(Var) -> Option<bool>,
                implied: &mut Vec<TheoryLemma>,
            ) {
                let mut touched = std::mem::take(&mut self.touched);
                self.simplex.drain_touched(&mut touched);
                if touched.is_empty() {
                    self.touched = touched;
                    return;
                }
                let mut emitted: Vec<u32> = Vec::new();
                // Direct propagation: atoms sharing a touched slack compare
                // their bound against the slack's tightened interval.
                for &tv in &touched {
                    let Some(atom_idxs) = self.slack_atoms.get(&tv.0) else {
                        continue;
                    };
                    for &ai in atom_idxs {
                        let (sat_var, slack, _, _) = self.atoms[ai];
                        if assignment(sat_var).is_some() || emitted.contains(&sat_var.0) {
                            continue;
                        }
                        let tb = self.atom_true_bound(ai);
                        if let Some((u, tag)) = self.simplex.upper_bound(slack) {
                            // expr ≤ u ≤ b ⇒ the atom must be true.
                            if *u <= tb {
                                emitted.push(sat_var.0);
                                implied.push(TheoryLemma {
                                    lits: vec![Lit::pos(sat_var), Lit(tag)],
                                    farkas: vec![
                                        (Lit::pos(sat_var), Rat::one()),
                                        (Lit(tag), Rat::one()),
                                    ],
                                });
                                continue;
                            }
                        }
                        if let Some((l, tag)) = self.simplex.lower_bound(slack) {
                            // expr ≥ l > b ⇒ the atom must be false.
                            if tb < *l {
                                emitted.push(sat_var.0);
                                implied.push(TheoryLemma {
                                    lits: vec![Lit::neg(sat_var), Lit(tag)],
                                    farkas: vec![
                                        (Lit::neg(sat_var), Rat::one()),
                                        (Lit(tag), Rat::one()),
                                    ],
                                });
                            }
                        }
                    }
                }
                // Row propagation: a basic atom slack whose row mentions a
                // touched variable may have its reachable interval pinned on
                // one side of the atom bound. Guarded by a work cap so the
                // scan can never dominate the fixpoint it accelerates.
                const ROW_SCAN_CAP: usize = 16_384;
                if self.slack_atoms.len().saturating_mul(touched.len()) <= ROW_SCAN_CAP {
                    for &sv in &self.slack_order {
                        let atom_idxs = &self.slack_atoms[&sv];
                        let slack = SimVar(sv);
                        if !self.simplex.is_basic_var(slack)
                            || !touched.iter().any(|&t| self.simplex.row_mentions(slack, t))
                        {
                            continue;
                        }
                        let mut hi: Option<Option<RowExtreme>> = None;
                        let mut lo: Option<Option<RowExtreme>> = None;
                        for &ai in atom_idxs {
                            let (sat_var, _, _, _) = self.atoms[ai];
                            if assignment(sat_var).is_some() || emitted.contains(&sat_var.0) {
                                continue;
                            }
                            let tb = self.atom_true_bound(ai);
                            // Reachable maximum ≤ b ⇒ atom true.
                            let hi =
                                hi.get_or_insert_with(|| self.simplex.row_extreme(slack, true));
                            if let Some((reach, lams)) = hi {
                                if !lams.is_empty() && *reach <= tb {
                                    emitted.push(sat_var.0);
                                    let mut lits = vec![Lit::pos(sat_var)];
                                    let mut farkas = vec![(Lit::pos(sat_var), Rat::one())];
                                    for (tag, lam) in lams.iter() {
                                        lits.push(Lit(*tag));
                                        farkas.push((Lit(*tag), lam.clone()));
                                    }
                                    implied.push(TheoryLemma { lits, farkas });
                                    continue;
                                }
                            }
                            // Reachable minimum > b ⇒ atom false.
                            let lo =
                                lo.get_or_insert_with(|| self.simplex.row_extreme(slack, false));
                            if let Some((reach, lams)) = lo {
                                if !lams.is_empty() && tb < *reach {
                                    emitted.push(sat_var.0);
                                    let mut lits = vec![Lit::neg(sat_var)];
                                    let mut farkas = vec![(Lit::neg(sat_var), Rat::one())];
                                    for (tag, lam) in lams.iter() {
                                        lits.push(Lit(*tag));
                                        farkas.push((Lit(*tag), lam.clone()));
                                    }
                                    implied.push(TheoryLemma { lits, farkas });
                                }
                            }
                        }
                    }
                }
                self.touched = touched;
            }
        }
        impl TheoryHook for Bridge<'_> {
            fn final_check(
                &mut self,
                _assignment: &dyn Fn(Var) -> bool,
            ) -> Result<(), TheoryLemma> {
                // The solve loop guarantees a `trail_check` ran at this same
                // fixpoint (no trail change in between), so every asserted
                // atom bound is already in the simplex; just confirm
                // feasibility.
                self.simplex_check()
            }

            fn trail_check(
                &mut self,
                trail: &[Lit],
                low: usize,
                assignment: &dyn Fn(Var) -> Option<bool>,
                implied: &mut Vec<TheoryLemma>,
            ) -> Result<(), TheoryLemma> {
                // Retract bounds for trail entries beyond the stable prefix.
                // Our own cursor is authoritative: an earlier conflict exit
                // may have left it short of the watermark the SAT core
                // reported, in which case the missing entries are simply
                // (re-)asserted below.
                let keep = self.synced.len().min(low);
                if let Some(&(mark, _)) = self.synced.get(keep) {
                    self.simplex.undo_bounds_to(mark);
                }
                self.synced.truncate(keep);
                self.bounds_reused += self.synced.last().map_or(0, |&(_, n)| n);
                // Assert the suffix added since the last fixpoint.
                for &l in &trail[keep..] {
                    let mark = self.simplex.bound_mark();
                    let mut atoms = self.synced.last().map_or(0, |&(_, n)| n);
                    let ai = self.var_to_atom.get(&l.var().0).copied();
                    if ai.is_some() {
                        atoms += 1;
                        self.bounds_asserted += 1;
                    }
                    self.synced.push((mark, atoms));
                    if let Some(ai) = ai {
                        if let Err(conflict) = self.assert_atom(ai, !l.is_neg()) {
                            return Err(lemma(conflict));
                        }
                    }
                }
                self.simplex_check()?;
                self.scan_propagations(assignment, implied);
                Ok(())
            }
        }

        let atoms: Vec<(Var, SimVar, Rat, bool)> = self
            .cnf
            .atom_bindings()
            .iter()
            .zip(&self.atom_slacks)
            .map(|(&(sat_var, atom_id), &slack)| {
                let data = ctx.atom(atom_id);
                (sat_var, slack, data.bound.clone(), data.strict)
            })
            .collect();
        let mut var_to_atom = HashMap::new();
        let mut slack_atoms: HashMap<u32, Vec<usize>> = HashMap::new();
        for (ai, (sat_var, slack, _, _)) in atoms.iter().enumerate() {
            var_to_atom.insert(sat_var.0, ai);
            slack_atoms.entry(slack.0).or_default().push(ai);
        }
        let mut slack_order: Vec<u32> = slack_atoms.keys().copied().collect();
        slack_order.sort_unstable();
        // Bounds from a previous check's trail must not leak into this one:
        // the trail persists across solves, but the bridge's sync cursor
        // starts empty, so start the simplex empty too.
        self.simplex.reset_bounds();
        let stats_before = self.sat.stats;
        let mut bridge = Bridge {
            simplex: &mut self.simplex,
            interrupt: &self.interrupt,
            atoms,
            var_to_atom,
            slack_atoms,
            slack_order,
            synced: Vec::new(),
            touched: Vec::new(),
            bounds_asserted: 0,
            bounds_reused: 0,
        };
        let result = self.sat.solve(&mut bridge);
        let (ba, br) = (bridge.bounds_asserted, bridge.bounds_reused);
        self.bounds_asserted += ba;
        self.bounds_reused += br;
        BOUNDS_ASSERTED_TOTAL.fetch_add(ba, AtomicOrdering::Relaxed);
        BOUNDS_REUSED_TOTAL.fetch_add(br, AtomicOrdering::Relaxed);
        THEORY_PROPS_TOTAL.fetch_add(
            self.sat.stats.theory_props - stats_before.theory_props,
            AtomicOrdering::Relaxed,
        );
        match result {
            Some(SolveResult::Sat) => {
                self.extract_model(ctx);
                debug_assert!(
                    self.model_satisfies_asserted(ctx),
                    "extracted model violates an asserted term"
                );
                SatResult::Sat
            }
            Some(SolveResult::Unsat) => SatResult::Unsat,
            None => SatResult::Unknown,
        }
    }

    /// Exact-rational audit: every asserted term is true under the current
    /// model. `false` if no model is available.
    pub fn model_satisfies_asserted(&self, ctx: &Context) -> bool {
        match &self.model {
            Some(m) => self.asserted.iter().all(|&t| m.satisfies(ctx, t)),
            None => false,
        }
    }

    /// [`Solver::check`], plus evidence: `Unsat` verdicts carry the length
    /// of the proof log at that moment (when logging is on — see
    /// [`Solver::enable_proofs`]): the log's first that
    /// many steps refute the assertions, for independent replay by
    /// `ccmatic_proof`. `Sat` verdicts are audited by exact rational
    /// evaluation of every asserted term under the model.
    pub fn check_certified(&mut self, ctx: &Context) -> Certified {
        let result = self.check(ctx);
        match result {
            SatResult::Unsat => {
                Certified { result, certificate: self.sat.proof_position(), model_ok: None }
            }
            SatResult::Sat => Certified {
                result,
                certificate: None,
                model_ok: Some(self.model_satisfies_asserted(ctx)),
            },
            SatResult::Unknown => Certified { result, certificate: None, model_ok: None },
        }
    }

    /// Moves the proof steps logged since the previous call out of the
    /// solver, in order (none when logging is off). A caller
    /// that appends every batch to one log holds the log that
    /// certificate lengths index.
    pub fn take_proof_steps(&mut self) -> Vec<ccmatic_proof::ProofStep> {
        self.sat.take_proof_steps()
    }

    fn extract_model(&mut self, ctx: &Context) {
        let concrete = self.simplex.concrete_values();
        let mut model = Model::default();
        for (&rv, &sv) in &self.real_to_sim {
            model.reals.insert(rv, concrete[sv.0 as usize].clone());
        }
        // Boolean variables straight from the SAT assignment.
        let bindings: Vec<(BoolVar, Var)> = self.cnf.bool_bindings().collect();
        for (b, v) in bindings {
            model.bools.insert(b, self.sat.value(v));
        }
        let _ = ctx;
        self.model = Some(model);
    }

    /// The model from the last `Sat` check.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            checks: self.checks,
            decisions: self.sat.stats.decisions,
            conflicts: self.sat.stats.conflicts,
            theory_checks: self.sat.stats.theory_checks,
            theory_conflicts: self.sat.stats.theory_conflicts,
            pivots: self.simplex.pivots,
            promotions: ccmatic_num::arith_snapshot().promotions,
            theory_props: self.sat.stats.theory_props,
            bounds_asserted: self.bounds_asserted,
            bounds_reused: self.bounds_reused,
        }
    }
}

/// Verdict plus evidence, from [`Solver::check_certified`].
#[derive(Debug)]
pub struct Certified {
    /// The verdict, identical to what [`Solver::check`] returns.
    pub result: SatResult,
    /// On `Unsat` with proof logging on: the refutation, as its length in
    /// the solver's proof log (see [`Solver::take_proof_steps`]).
    pub certificate: Option<usize>,
    /// On `Sat`: whether every asserted term evaluated true under the model.
    pub model_ok: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::{int, rat};

    #[test]
    fn simple_sat_with_model() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let c1 = ctx.le(ctx.var(x) + ctx.var(y), ctx.constant(int(4)));
        let c2 = ctx.ge(ctx.var(x), ctx.constant(int(3)));
        let c3 = ctx.ge(ctx.var(y), ctx.constant(int(1)));
        let f = ctx.and(vec![c1, c2, c3]);
        let mut s = Solver::new();
        s.assert(&ctx, f);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(m.real(x) >= int(3));
        assert!(m.real(y) >= int(1));
        assert!(&m.real(x) + &m.real(y) <= int(4));
    }

    #[test]
    fn simple_unsat() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let c1 = ctx.lt(ctx.var(x), ctx.constant(int(0)));
        let c2 = ctx.gt(ctx.var(x), ctx.constant(int(0)));
        let mut s = Solver::new();
        s.assert(&ctx, c1);
        s.assert(&ctx, c2);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }

    #[test]
    fn disjunction_forces_theory_backtrack() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        // (x <= 0 ∨ x >= 10) ∧ x >= 5  →  x >= 10 branch.
        let a = ctx.le(ctx.var(x), ctx.constant(int(0)));
        let b = ctx.ge(ctx.var(x), ctx.constant(int(10)));
        let d = ctx.or(vec![a, b]);
        let c = ctx.ge(ctx.var(x), ctx.constant(int(5)));
        let mut s = Solver::new();
        s.assert(&ctx, d);
        s.assert(&ctx, c);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(x) >= int(10));
    }

    #[test]
    fn strict_inequalities_get_interior_models() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let c1 = ctx.gt(ctx.var(x), ctx.constant(int(0)));
        let c2 = ctx.lt(ctx.var(x), ctx.constant(rat(1, 1000)));
        let mut s = Solver::new();
        s.assert(&ctx, c1);
        s.assert(&ctx, c2);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let v = s.model().unwrap().real(x);
        assert!(v > int(0) && v < rat(1, 1000), "model {v} not strictly inside");
    }

    #[test]
    fn incremental_blocking() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        // x = 1 ∨ x = 2, enumerate both then unsat.
        let e1 = ctx.eq(ctx.var(x), ctx.constant(int(1)));
        let e2 = ctx.eq(ctx.var(x), ctx.constant(int(2)));
        let f = ctx.or(vec![e1, e2]);
        let mut s = Solver::new();
        s.assert(&ctx, f);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let v1 = s.model().unwrap().real(x);
        let block1 = ctx.ne(ctx.var(x), ctx.constant(v1.clone()));
        s.assert(&ctx, block1);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let v2 = s.model().unwrap().real(x);
        assert_ne!(v1, v2);
        let block2 = ctx.ne(ctx.var(x), ctx.constant(v2));
        s.assert(&ctx, block2);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }

    #[test]
    fn equalities_chain() {
        let mut ctx = Context::new();
        let vars: Vec<_> = (0..5).map(|i| ctx.real_var(format!("v{i}"))).collect();
        let mut s = Solver::new();
        // v0 = 1, v_{i+1} = v_i + 1  →  v4 = 5.
        let first = ctx.eq(ctx.var(vars[0]), ctx.constant(int(1)));
        s.assert(&ctx, first);
        for w in vars.windows(2) {
            let step = ctx.eq(ctx.var(w[1]), ctx.var(w[0]) + ctx.constant(int(1)));
            s.assert(&ctx, step);
        }
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert_eq!(s.model().unwrap().real(vars[4]), int(5));
    }

    #[test]
    fn bool_and_arith_mix() {
        let mut ctx = Context::new();
        let p = ctx.bool_var("p");
        let x = ctx.real_var("x");
        // p → x ≥ 3; ¬p → x ≤ −3; x ≥ 0 forces p.
        let ge3 = ctx.ge(ctx.var(x), ctx.constant(int(3)));
        let le_m3 = ctx.le(ctx.var(x), ctx.constant(int(-3)));
        let imp1 = ctx.implies(p, ge3);
        let np = ctx.not(p);
        let imp2 = ctx.implies(np, le_m3);
        let pos = ctx.ge(ctx.var(x), ctx.constant(int(0)));
        let mut s = Solver::new();
        s.assert(&ctx, imp1);
        s.assert(&ctx, imp2);
        s.assert(&ctx, pos);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let m = s.model().unwrap();
        assert!(m.real(x) >= int(3));
        if let crate::term::TermData::BoolVar(bv) = ctx.data(p).clone() {
            assert!(m.bool_var(bv));
        } else {
            panic!("expected bool var");
        }
    }

    #[test]
    fn unconstrained_check_is_sat() {
        let ctx = Context::new();
        let mut s = Solver::new();
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().is_some());
    }

    #[test]
    fn stats_count_checks() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let c = ctx.ge(ctx.var(x), ctx.constant(int(1)));
        let mut s = Solver::new();
        assert_eq!(s.stats().checks, 0);
        s.assert(&ctx, c);
        s.check(&ctx);
        s.check(&ctx);
        s.check(&ctx);
        assert_eq!(s.stats().checks, 3);
    }

    #[test]
    fn scoped_assertions_are_retracted() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let base = ctx.ge(ctx.var(x), ctx.constant(int(2)));
        let mut s = Solver::new();
        s.assert(&ctx, base);
        assert_eq!(s.check(&ctx), SatResult::Sat);

        s.push();
        let cap = ctx.lt(ctx.var(x), ctx.constant(int(1)));
        s.assert(&ctx, cap);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
        s.pop();

        // Base constraint alone is satisfiable again.
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(x) >= int(2));

        // A different scoped constraint gets a consistent view.
        s.push();
        let cap5 = ctx.le(ctx.var(x), ctx.constant(int(5)));
        s.assert(&ctx, cap5);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let v = s.model().unwrap().real(x);
        assert!(v >= int(2) && v <= int(5));
        s.pop();
    }

    #[test]
    fn scoped_fresh_variables_are_forgotten() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let base = ctx.ge(ctx.var(x), ctx.constant(int(0)));
        let mut s = Solver::new();
        s.assert(&ctx, base);
        assert_eq!(s.check(&ctx), SatResult::Sat);

        // y is first seen inside a scope; its simplex var dies with the pop.
        let y = ctx.real_var("y");
        s.push();
        let link = ctx.eq(ctx.var(y), ctx.var(x) + ctx.constant(int(7)));
        let ybig = ctx.ge(ctx.var(y), ctx.constant(int(100)));
        s.assert(&ctx, link);
        s.assert(&ctx, ybig);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(x) >= int(93));
        s.pop();

        // After the pop, y is unconstrained again and re-usable.
        s.push();
        let ysmall = ctx.le(ctx.var(y), ctx.constant(int(-50)));
        s.assert(&ctx, ysmall);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(y) <= int(-50));
        s.pop();
        assert_eq!(s.check(&ctx), SatResult::Sat);
    }

    #[test]
    fn nested_scopes_compose() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let mut s = Solver::new();
        let base = ctx.ge(ctx.var(x), ctx.constant(int(0)));
        s.assert(&ctx, base);
        s.push();
        let le10 = ctx.le(ctx.var(x), ctx.constant(int(10)));
        s.assert(&ctx, le10);
        s.push();
        let ge20 = ctx.ge(ctx.var(x), ctx.constant(int(20)));
        s.assert(&ctx, ge20);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
        s.pop();
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(x) <= int(10));
        s.pop();
        assert_eq!(s.depth(), 0);
        let ge20b = ctx.ge(ctx.var(x), ctx.constant(int(20)));
        s.assert(&ctx, ge20b);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        assert!(s.model().unwrap().real(x) >= int(20));
    }
}
