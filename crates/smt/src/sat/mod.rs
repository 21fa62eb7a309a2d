//! A CDCL SAT solver.
//!
//! Classic MiniSat-style architecture: two-watched-literal propagation,
//! first-UIP conflict analysis with clause learning, VSIDS branching through
//! an indexed max-heap, phase saving, and Luby-sequence restarts. Clauses
//! may be added between `solve` calls (the solver is incremental in the
//! add-only sense, which is exactly what CEGIS needs: the generator only
//! ever accumulates constraints).
//!
//! The solver also accepts a *theory hook*: when a full assignment is
//! reached, the hook may veto it with a conflict clause (lazy SMT). See
//! [`TheoryHook`].
//!
//! # Assertion scopes
//!
//! [`SatSolver::push`] opens a scope; [`SatSolver::pop`] discards every
//! variable and input clause added since the matching push. Learned clauses
//! are *retained* across a pop when they are derivable from the surviving
//! prefix alone. Retention is decided by **epochs**: every clause carries
//! the scope depth its derivation depends on (input clauses: the depth they
//! were added at; learned clauses: the max epoch over all resolved premises
//! and consumed level-0 facts; theory lemmas: the max creation depth of
//! their variables, since the theory's bound assertions are re-derived from
//! scratch on every check). A clause with epoch ≤ d is a logical consequence
//! of the assertions present at depth d, so keeping it after popping to
//! depth d cannot flip a Sat answer to Unsat — and dropping the rest keeps
//! the solver sound. Level-0 facts (the unit store) carry the same epochs
//! and are filtered identically; after a pop the watch lists are rebuilt
//! and propagation restarts from the trail head, so every surviving unit is
//! re-examined.

mod heap;

pub use heap::ActivityHeap;

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a polarity.
///
/// Encoded as `var << 1 | sign` where `sign == 1` means negated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Literal of `v` with the given truth value (`true` → positive).
    pub fn with_sign(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True iff this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite-polarity literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "¬" } else { "" }, self.var().0)
    }
}

/// Truth value of a variable in the partial assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    True,
    False,
    Undef,
}

/// A theory conflict clause, optionally carrying a Farkas witness for proof
/// logging: each `(lit, λ)` pairs a clause literal with a positive
/// coefficient such that the λ-weighted sum of the constraints asserted by
/// the literals' *negations* cancels every variable and leaves a negative
/// constant. An empty witness is legal (the lemma is then logged without one
/// and any certificate containing it will be rejected by the checker).
#[derive(Clone, Debug)]
pub struct TheoryLemma {
    /// The conflict clause: false under the assignment that was rejected.
    pub lits: Vec<Lit>,
    /// Farkas coefficients over a subset of `lits`.
    pub farkas: Vec<(Lit, ccmatic_num::Rat)>,
}

impl TheoryLemma {
    /// A lemma without a Farkas witness.
    pub fn new(lits: Vec<Lit>) -> Self {
        TheoryLemma { lits, farkas: Vec::new() }
    }
}

/// Theory hook consulted during the search (CDCL(T)).
pub trait TheoryHook {
    /// Called with the solver's complete assignment. Return `Ok(())` to
    /// accept, or a conflict lemma — a clause that is *false* under the
    /// current assignment — to reject it. The clause is learned and search
    /// continues. A hook that stops on the solve's interrupt returns
    /// `Ok(())` undecided; the solve loop re-polls it and returns Unknown.
    fn final_check(&mut self, assignment: &dyn Fn(Var) -> bool) -> Result<(), TheoryLemma>;

    /// Called at each propagation fixpoint with the trail so far (CDCL(T)
    /// eager pruning). Returning a conflict lemma prunes the subtree early;
    /// the clause must be false under the current partial assignment. The
    /// default accepts everything (pure lazy solving).
    ///
    /// `trail` is the solver's full assignment trail; `low` is the length of
    /// its longest prefix guaranteed unchanged since the previous call this
    /// `solve` (0 on the first call). The hook retracts theory state for
    /// entries it processed beyond `low` and asserts `trail[low..]` — so a
    /// fixpoint check pays for the assignments made since the last one, not
    /// for the whole trail.
    ///
    /// On a consistent check, the hook may append *implied literals* to
    /// `implied`: each lemma's first literal must be unassigned and entailed
    /// by the theory under the current trail, the remaining literals are
    /// currently-false premises, and the full clause is theory-valid (with
    /// an optional Farkas witness, exactly like a conflict lemma — it enters
    /// the proof log the same way). The solver stores each clause and
    /// enqueues the implied literal with it as reason.
    fn trail_check(
        &mut self,
        _trail: &[Lit],
        _low: usize,
        _assignment: &dyn Fn(Var) -> Option<bool>,
        _implied: &mut Vec<TheoryLemma>,
    ) -> Result<(), TheoryLemma> {
        Ok(())
    }
}

/// A no-op hook for pure SAT solving.
pub struct NoTheory;

impl TheoryHook for NoTheory {
    fn final_check(&mut self, _assignment: &dyn Fn(Var) -> bool) -> Result<(), TheoryLemma> {
        Ok(())
    }
}

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying (and theory-accepted) assignment was found.
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
}

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Deepest assertion scope this clause's derivation depends on; the
    /// clause survives a pop to depth `d` iff `epoch ≤ d`.
    epoch: u32,
    /// Id of this clause in the proof log (0 when logging is off).
    proof_id: u64,
}

/// Per-push bookkeeping needed to roll the solver back.
#[derive(Clone, Copy)]
struct ScopeFrame {
    /// Variable count at push time; vars ≥ this are dropped on pop.
    num_vars: u32,
}

/// Cumulative counters, useful for reproducing the paper's scalability
/// discussion.
#[derive(Clone, Copy, Default, Debug)]
pub struct SatStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of conflicts (propositional and theory).
    pub conflicts: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of theory `final_check` invocations.
    pub theory_checks: u64,
    /// Number of theory-originated conflict clauses.
    pub theory_conflicts: u64,
    /// Literals implied into the trail by theory propagation.
    pub theory_props: u64,
}

/// Conflicts allowed before the first restart; restart `i` waits
/// `LUBY_BASE * luby(i)` conflicts.
const LUBY_BASE: u64 = 100;

/// The CDCL solver.
pub struct SatSolver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// Watch lists: for each literal index, the clauses watching it.
    watches: Vec<Vec<usize>>,
    assign: Vec<LBool>,
    /// Saved phase for phase-saving.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    /// Length of the longest trail prefix guaranteed unchanged since the
    /// last `trail_check` handed to the theory hook.
    /// Clamped on every backtrack, zeroed on `pop` (which filters the
    /// level-0 trail non-prefix-wise) and at the start of each `solve`.
    theory_low: usize,
    activity: Vec<f64>,
    act_inc: f64,
    order: ActivityHeap,
    /// Scope depth at which unsatisfiability was derived; popping below it
    /// clears the verdict. `Some(_)` means the current clause set is unsat.
    unsat_at: Option<u32>,
    /// Units queued at level 0 by `add_clause` before `solve` runs, with
    /// their derivation epochs.
    pending_units: Vec<(Lit, u32)>,
    /// Scope depth each variable was created at.
    var_epoch: Vec<u32>,
    /// Derivation epoch of a variable's level-0 assignment (meaningful only
    /// while the variable is assigned at level 0).
    level0_epoch: Vec<u32>,
    /// Open assertion scopes.
    frames: Vec<ScopeFrame>,
    /// Statistics.
    pub stats: SatStats,
    /// Optional deadline/cancellation; `solve` polls it once per
    /// propagation fixpoint and gives up (`None` result) when it fires.
    pub interrupt: crate::interrupt::Interrupt,
    /// The proof log; `None` (the default) makes every logging hook a
    /// no-op.
    sink: Option<ccmatic_proof::MemorySink>,
    /// Live proof-log clause ids *not* tracked by `clauses`, indexed by
    /// derivation epoch: unit and level-0-satisfied input clauses, learned
    /// unit clauses, and unit theory lemmas. A pop to depth `d` deletes
    /// every id recorded at epochs > `d` (mirroring the trail filter and
    /// `pending_units` retention).
    extra_ids: Vec<Vec<u64>>,
    /// Id of the logged empty clause while the solver is unsat; deleted
    /// when a pop clears the verdict.
    unsat_proof: Option<u64>,
}

const ACT_DECAY: f64 = 1.0 / 0.95;
const ACT_RESCALE: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Create an empty solver.
    pub fn new() -> Self {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            theory_low: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            order: ActivityHeap::new(),
            unsat_at: None,
            pending_units: Vec::new(),
            var_epoch: Vec::new(),
            level0_epoch: Vec::new(),
            frames: Vec::new(),
            stats: SatStats::default(),
            interrupt: crate::interrupt::Interrupt::none(),
            sink: None,
            extra_ids: Vec::new(),
            unsat_proof: None,
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.assign.push(LBool::Undef);
        // Negative first: phase saving overwrites it on first assignment.
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.var_epoch.push(self.depth());
        self.level0_epoch.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v.0 as usize, 0.0);
        v
    }

    /// Current scope depth (number of open pushes).
    pub fn depth(&self) -> u32 {
        self.frames.len() as u32
    }

    /// True iff the current clause set has been proven unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        self.unsat_at.is_some()
    }

    fn set_unsat(&mut self, epoch: u32) {
        self.unsat_at = Some(self.unsat_at.map_or(epoch, |e| e.min(epoch)));
        // Conclude the proof with one empty clause (derivable by unit
        // propagation alone at every call site). Guarded so repeated
        // conclusions while already unsat log nothing new.
        if self.unsat_proof.is_none() {
            if let Some(sink) = self.sink.as_mut() {
                self.unsat_proof = Some(sink.log_rup(Vec::new()));
            }
        }
    }

    /// Start logging DRAT + Farkas steps into an in-memory proof log. Must
    /// be called on an empty solver so the log covers every clause.
    ///
    /// # Panics
    /// Panics if variables or clauses already exist.
    pub fn enable_proofs(&mut self) {
        assert!(
            self.num_vars == 0 && self.clauses.is_empty() && self.pending_units.is_empty(),
            "proof logging must be enabled on an empty solver"
        );
        self.sink = Some(ccmatic_proof::MemorySink::new());
    }

    /// The proof log's length so far, if logging is on: taken while
    /// [`SatSolver::is_unsat`] holds, the log's first that many steps are
    /// an UNSAT certificate.
    pub fn proof_position(&self) -> Option<usize> {
        self.sink.as_ref().map(|s| s.position())
    }

    /// Moves the steps logged since the previous call out of the log.
    pub fn take_proof_steps(&mut self) -> Vec<ccmatic_proof::ProofStep> {
        self.sink.as_mut().map(|s| s.take_steps()).unwrap_or_default()
    }

    /// Whether proof logging is on.
    pub fn proofs_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record the arithmetic meaning of SAT variable `v` in the proof log:
    /// `expr ≤ bound` (`<` when `strict`), with `expr` a sparse sum over
    /// real-variable indices. No-op when logging is off. Re-logging a
    /// recycled variable replaces its definition.
    pub fn log_atom_def(
        &mut self,
        v: Var,
        expr: &[(u32, ccmatic_num::Rat)],
        bound: &ccmatic_num::Rat,
        strict: bool,
    ) {
        if let Some(sink) = self.sink.as_mut() {
            sink.log_atom(v.0, expr.to_vec(), bound.clone(), strict);
        }
    }

    fn plog_input(&mut self, lits: &[Lit]) -> u64 {
        match self.sink.as_mut() {
            Some(s) => s.log_input(lits.iter().map(|l| l.0).collect()),
            None => 0,
        }
    }

    fn plog_rup(&mut self, lits: &[Lit]) -> u64 {
        match self.sink.as_mut() {
            Some(s) => s.log_rup(lits.iter().map(|l| l.0).collect()),
            None => 0,
        }
    }

    fn plog_theory(&mut self, lits: &[Lit], farkas: &[(Lit, ccmatic_num::Rat)]) -> u64 {
        match self.sink.as_mut() {
            Some(s) => s.log_theory(
                lits.iter().map(|l| l.0).collect(),
                farkas.iter().map(|(l, c)| (l.0, c.clone())).collect(),
            ),
            None => 0,
        }
    }

    fn plog_delete(&mut self, id: u64) {
        if id != 0 {
            if let Some(s) = self.sink.as_mut() {
                s.log_delete(id);
            }
        }
    }

    /// Track a live proof clause that `clauses` does not own (unit inputs,
    /// learned units, level-0-satisfied inputs) so the matching pop can
    /// delete it.
    fn plog_record_extra(&mut self, epoch: u32, id: u64) {
        if id == 0 {
            return;
        }
        let e = epoch as usize;
        if e >= self.extra_ids.len() {
            self.extra_ids.resize_with(e + 1, Vec::new);
        }
        self.extra_ids[e].push(id);
    }

    /// Open an assertion scope: clauses and variables added from here on are
    /// discarded by the matching [`SatSolver::pop`].
    pub fn push(&mut self) {
        self.frames.push(ScopeFrame { num_vars: self.num_vars });
    }

    /// Close the innermost scope, dropping its variables and input clauses.
    /// Learned clauses and level-0 facts whose derivations only involve the
    /// surviving prefix (epoch ≤ new depth) are kept.
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        let new_depth = self.frames.len() as u32;
        self.backtrack_to(0);
        // The level-0 trail is filtered (not truncated) below, so no prefix
        // is guaranteed stable for the theory hook.
        self.theory_low = 0;
        // Filter the level-0 trail: keep facts about surviving variables
        // whose derivations survive.
        let trail = std::mem::take(&mut self.trail);
        for l in trail {
            let v = l.var().0 as usize;
            // Clause indices shift below; level-0 reasons are never
            // dereferenced (analysis skips level-0 literals), so drop them.
            self.reason[v] = None;
            if l.var().0 < frame.num_vars && self.level0_epoch[v] <= new_depth {
                self.trail.push(l);
            } else {
                self.assign[v] = LBool::Undef;
                if l.var().0 < frame.num_vars {
                    self.order.insert(v, self.activity[v]);
                }
            }
        }
        // Drop per-variable state of the popped variables.
        let n = frame.num_vars as usize;
        self.num_vars = frame.num_vars;
        self.assign.truncate(n);
        self.phase.truncate(n);
        self.level.truncate(n);
        self.reason.truncate(n);
        self.activity.truncate(n);
        self.var_epoch.truncate(n);
        self.level0_epoch.truncate(n);
        self.order.truncate_ids(n);
        // Log deletions for everything about to be dropped — BEFORE any
        // later addition, so a popped clause can never justify a later RUP
        // step in the proof.
        if self.sink.is_some() {
            let mut dead: Vec<u64> = self
                .clauses
                .iter()
                .filter(|c| c.epoch > new_depth && c.proof_id != 0)
                .map(|c| c.proof_id)
                .collect();
            for e in (new_depth as usize + 1)..self.extra_ids.len() {
                dead.append(&mut self.extra_ids[e]);
            }
            for id in dead {
                self.plog_delete(id);
            }
        }
        self.extra_ids.truncate(new_depth as usize + 1);
        // Keep only clauses derivable from the surviving prefix. The epoch
        // invariant (clause epoch ≥ every literal's variable epoch)
        // guarantees no survivor mentions a dropped variable.
        self.clauses.retain(|c| c.epoch <= new_depth);
        // Rebuild the watch lists wholesale and re-run propagation from the
        // trail head: every falsified watch is rediscovered because its
        // negation sits on the retained level-0 trail.
        self.watches = vec![Vec::new(); 2 * n];
        for (idx, c) in self.clauses.iter().enumerate() {
            self.watches[c.lits[0].index()].push(idx);
            self.watches[c.lits[1].index()].push(idx);
        }
        self.prop_head = 0;
        self.pending_units.retain(|&(_, e)| e <= new_depth);
        if self.unsat_at.is_some_and(|e| e > new_depth) {
            self.unsat_at = None;
            // The empty clause's derivation died with the popped scope.
            if let Some(id) = self.unsat_proof.take() {
                self.plog_delete(id);
            }
        }
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Current value of a variable (meaningful after `SolveResult::Sat`).
    pub fn value(&self, v: Var) -> bool {
        matches!(self.assign[v.0 as usize], LBool::True)
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assign[l.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Add a clause. May be called at any time between `solve` calls;
    /// duplicate and tautological clauses are handled. Returns `false` if
    /// the clause set is now trivially unsatisfiable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        if self.is_unsat() {
            return false;
        }
        // The clause is an input assertion of the current scope. (Dropped
        // level-0-false literals only consume facts with epoch ≤ depth, so
        // the current depth still dominates the full derivation.)
        let epoch = self.depth();
        // The solver may be mid-model from a previous solve; new clauses are
        // integrated at level 0.
        self.backtrack_to(0);
        lits.sort();
        lits.dedup();
        // Tautology check: p and ¬p both present.
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        // The (deduplicated) clause enters the proof log as an input axiom
        // of the current scope.
        let input_id = self.plog_input(&lits);
        // Drop literals already false at level 0; satisfied clause check.
        let mut keep = Vec::with_capacity(lits.len());
        for &l in &lits {
            match self.lit_value(l) {
                LBool::True => {
                    // Satisfied at level 0: never stored, but it stays a live
                    // axiom of this scope in the proof.
                    self.plog_record_extra(epoch, input_id);
                    return true;
                }
                LBool::False => {}
                LBool::Undef => keep.push(l),
            }
        }
        // If level-0-false literals were dropped, the stored clause is a RUP
        // consequence of the input plus the live level-0 derivations; log it
        // as such and retire the input. (Not for the empty case — there
        // `set_unsat` logs the one empty clause, justified by the still-live
        // input.)
        let proof_id = if keep.len() != lits.len() && !keep.is_empty() {
            let rid = self.plog_rup(&keep);
            self.plog_delete(input_id);
            rid
        } else {
            input_id
        };
        match keep.len() {
            0 => {
                self.plog_record_extra(epoch, input_id);
                self.set_unsat(epoch);
                false
            }
            1 => {
                self.plog_record_extra(epoch, proof_id);
                self.pending_units.push((keep[0], epoch));
                true
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[keep[0].index()].push(idx);
                self.watches[keep[1].index()].push(idx);
                self.clauses.push(Clause { lits: keep, epoch, proof_id });
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        // At level 0 the fact's derivation epoch is the reason clause's
        // epoch joined with the epochs of the facts that falsified its other
        // literals; without a reason, conservatively the current depth.
        let epoch = if self.trail_lim.is_empty() {
            match reason {
                Some(ci) => {
                    let mut e = self.clauses[ci].epoch;
                    for &x in &self.clauses[ci].lits {
                        if x != l {
                            e = e.max(self.level0_epoch[x.var().0 as usize]);
                        }
                    }
                    e
                }
                None => self.depth(),
            }
        } else {
            0
        };
        self.enqueue_with_epoch(l, reason, epoch);
    }

    fn enqueue_with_epoch(&mut self, l: Lit, reason: Option<usize>, epoch: u32) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.is_neg() { LBool::False } else { LBool::True };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        if self.trail_lim.is_empty() {
            self.level0_epoch[v] = epoch;
        }
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Join of a clause's epoch with the level-0 facts falsifying it — the
    /// derivation epoch of a conflict detected at decision level 0.
    fn level0_conflict_epoch(&self, ci: usize) -> u32 {
        let mut e = self.clauses[ci].epoch;
        for &l in &self.clauses[ci].lits {
            e = e.max(self.level0_epoch[l.var().0 as usize]);
        }
        e
    }

    /// Propagate all queued assignments; returns a conflicting clause index
    /// on conflict.
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            let falsified = l.negated();
            let mut i = 0;
            // Take the watch list to appease the borrow checker; clauses
            // removed from it are re-added to other lists.
            let mut watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Ensure the falsified literal is at position 1.
                let (w0, w1) = (self.clauses[ci].lits[0], self.clauses[ci].lits[1]);
                if w0 == falsified {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], falsified);
                let first = self.clauses[ci].lits[0];
                let _ = w1;
                if self.lit_value(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != LBool::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.lit_value(first) == LBool::False {
                    // Conflict: restore the watch list and report.
                    self.watches[falsified.index()] = watch_list;
                    self.prop_head = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            self.watches[falsified.index()] = watch_list;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let idx = v.0 as usize;
        self.activity[idx] += self.act_inc;
        if self.activity[idx] > ACT_RESCALE {
            for a in self.activity.iter_mut() {
                *a /= ACT_RESCALE;
            }
            self.act_inc /= ACT_RESCALE;
            self.order.rebuild(&self.activity);
        }
        self.order.update(idx, self.activity[idx]);
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first), the backjump level, and the derivation epoch (the
    /// join over every resolved premise and consumed level-0 fact).
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars as usize];
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut reason_clause = conflict;
        let mut asserting: Option<Lit> = None;
        let mut epoch = 0u32;

        loop {
            epoch = epoch.max(self.clauses[reason_clause].epoch);
            let lits: Vec<Lit> = self.clauses[reason_clause].lits.clone();
            // Skip the asserting literal itself when walking a reason clause.
            for l in lits {
                if Some(l) == asserting {
                    continue;
                }
                let v = l.var().0 as usize;
                if seen[v] {
                    continue;
                }
                if self.level[v] == 0 {
                    // The resolution consumes this level-0 fact.
                    epoch = epoch.max(self.level0_epoch[v]);
                    continue;
                }
                seen[v] = true;
                self.bump_var(l.var());
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Pick the next trail literal to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().0 as usize] {
                    counter -= 1;
                    if counter == 0 {
                        // First UIP found.
                        learned.insert(0, l.negated());
                        let backjump = learned[1..]
                            .iter()
                            .map(|x| self.level[x.var().0 as usize])
                            .max()
                            .unwrap_or(0);
                        return (learned, backjump, epoch);
                    }
                    asserting = Some(l);
                    reason_clause =
                        self.reason[l.var().0 as usize].expect("UIP literal must have a reason");
                    break;
                }
            }
        }
    }

    fn backtrack_to(&mut self, target_level: u32) {
        while self.trail_lim.len() as u32 > target_level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().0 as usize;
                self.assign[v] = LBool::Undef;
                self.reason[v] = None;
                self.order.insert(v, self.activity[v]);
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
        self.theory_low = self.theory_low.min(self.trail.len());
        if target_level == 0 {
            self.prop_head = 0;
        }
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(idx) = self.order.pop_max() {
            if self.assign[idx] == LBool::Undef {
                return Some(Var(idx as u32));
            }
        }
        None
    }

    /// Conflicts allowed before restart number `restarts` (Luby sequence).
    fn restart_limit(restarts: u64) -> u64 {
        LUBY_BASE.saturating_mul(Self::luby(restarts))
    }

    /// Learn a clause produced by conflict analysis or the theory hook and
    /// backjump appropriately. `epoch` is the clause's derivation epoch.
    /// Returns `false` if this proves unsat.
    fn learn(&mut self, learned: Vec<Lit>, backjump: u32, epoch: u32) -> bool {
        self.stats.conflicts += 1;
        self.act_inc *= ACT_DECAY;
        if learned.is_empty() {
            self.set_unsat(epoch);
            return false;
        }
        self.backtrack_to(backjump);
        // First-UIP clauses (and unit theory lemmas re-entering through
        // here) are derivable by reverse unit propagation from their live
        // antecedents.
        let proof_id = self.plog_rup(&learned);
        if learned.len() == 1 {
            self.plog_record_extra(epoch, proof_id);
            if self.lit_value(learned[0]) == LBool::False {
                let e = epoch.max(self.level0_epoch[learned[0].var().0 as usize]);
                self.set_unsat(e);
                return false;
            }
            if self.lit_value(learned[0]) == LBool::Undef {
                self.enqueue_with_epoch(learned[0], None, epoch);
            }
            return true;
        }
        let idx = self.clauses.len();
        self.watches[learned[0].index()].push(idx);
        self.watches[learned[1].index()].push(idx);
        let assert_lit = learned[0];
        self.clauses.push(Clause { lits: learned, epoch, proof_id });
        if self.lit_value(assert_lit) == LBool::Undef {
            self.enqueue(assert_lit, Some(idx));
        }
        true
    }

    /// The Luby restart sequence (1,1,2,1,1,2,4,…).
    fn luby(mut i: u64) -> u64 {
        loop {
            // Smallest k with 2^k − 1 ≥ i + 1.
            let mut k = 1u64;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1 << (k - 1);
            }
            // Tail-recurse on the position within the previous block.
            i -= (1 << (k - 1)) - 1;
        }
    }

    /// Integrate theory-implied literals from a `trail_check` scan. Each
    /// lemma's first literal is the implied one; the rest are its
    /// currently-false premises. The clause is stored (entering the proof
    /// log as a theory lemma with its Farkas witness) and the implied
    /// literal enqueued with it as reason, so conflict analysis can resolve
    /// across it like any propagation. Returns `(progressed, consistent)`;
    /// `consistent == false` means unsat was derived.
    fn integrate_theory_implications(&mut self, implied: Vec<TheoryLemma>) -> (bool, bool) {
        let mut progressed = false;
        for lemma in implied {
            if lemma.lits.len() < 2 {
                // The bridge never emits premise-free implications; a unit
                // here could not be watched, so drop it defensively.
                debug_assert!(false, "premise-free theory implication");
                continue;
            }
            match self.lit_value(lemma.lits[0]) {
                // An earlier clause in this batch already propagated it.
                LBool::True => continue,
                LBool::False => {
                    // The whole clause is false: a genuine theory conflict.
                    // Route it through the standard path; the backjump
                    // invalidates the premises of the remaining batch, so
                    // drop it (the next scan re-derives anything still due).
                    let ok = self.handle_theory_conflict(lemma);
                    return (true, ok);
                }
                LBool::Undef => {}
            }
            let TheoryLemma { lits: mut clause, farkas } = lemma;
            debug_assert!(
                clause[1..].iter().all(|&l| self.lit_value(l) == LBool::False),
                "implication premises must be false under the current assignment"
            );
            let theory_id = self.plog_theory(&clause, &farkas);
            // Same epoch rule as conflict lemmas: valid whenever its atoms
            // exist (bounds are re-derived from the live atom set).
            let epoch = clause
                .iter()
                .map(|l| self.var_epoch[l.var().0 as usize])
                .max()
                .expect("len checked");
            // Watch the implied literal and the deepest premise so the
            // clause re-propagates correctly after backtracking.
            clause[1..].sort_by_key(|l| std::cmp::Reverse(self.level[l.var().0 as usize]));
            let idx = self.clauses.len();
            self.watches[clause[0].index()].push(idx);
            self.watches[clause[1].index()].push(idx);
            let implied_lit = clause[0];
            self.clauses.push(Clause { lits: clause, epoch, proof_id: theory_id });
            self.enqueue(implied_lit, Some(idx));
            self.stats.theory_props += 1;
            progressed = true;
        }
        (progressed, true)
    }

    /// Integrate a conflict clause reported by the theory: backjump to the
    /// clause's maximum decision level, store it, and run standard
    /// first-UIP analysis from it. Returns `false` if this proves unsat.
    fn handle_theory_conflict(&mut self, lemma: TheoryLemma) -> bool {
        let TheoryLemma { lits: mut clause, farkas } = lemma;
        self.stats.theory_conflicts += 1;
        debug_assert!(
            clause.iter().all(|&l| self.lit_value(l) == LBool::False),
            "theory conflict clause must be false under the current assignment"
        );
        // The lemma enters the proof with its Farkas witness before anything
        // is derived from it.
        let theory_id = self.plog_theory(&clause, &farkas);
        // A theory lemma is valid whenever its atoms exist: the theory
        // re-derives its bounds from the live atom set on every check, so
        // the lemma's epoch is the max creation depth of its variables.
        // This is the retention workhorse — lemmas over base-scope atoms
        // survive every candidate pop.
        let epoch = clause
            .iter()
            .map(|l| self.var_epoch[l.var().0 as usize])
            .max()
            .unwrap_or_else(|| self.depth());
        if clause.is_empty() {
            self.plog_record_extra(epoch, theory_id);
            self.set_unsat(epoch);
            return false;
        }
        // Keep the two highest-level literals in watch positions so the
        // all-false case is always detected by the last falsification.
        clause.sort_by_key(|l| std::cmp::Reverse(self.level[l.var().0 as usize]));
        let max_level = self.level[clause[0].var().0 as usize];
        if max_level == 0 {
            self.plog_record_extra(epoch, theory_id);
            let e = clause.iter().fold(epoch, |e, l| e.max(self.level0_epoch[l.var().0 as usize]));
            self.set_unsat(e);
            return false;
        }
        self.backtrack_to(max_level);
        if clause.len() == 1 {
            // Unit theory clause: fall back to direct learning (backjump so
            // the literal becomes assignable). `learn` re-logs the unit as a
            // (trivially RUP) consequence of the theory step.
            self.plog_record_extra(epoch, theory_id);
            self.backtrack_to(max_level - 1);
            return self.learn(clause, max_level - 1, epoch);
        }
        let idx = self.clauses.len();
        self.watches[clause[0].index()].push(idx);
        self.watches[clause[1].index()].push(idx);
        self.clauses.push(Clause { lits: clause, epoch, proof_id: theory_id });
        let (learned, backjump, learned_epoch) = self.analyze(idx);
        self.learn(learned, backjump, learned_epoch)
    }

    /// Solve the current clause set, consulting `theory` on partial and
    /// complete assignments. Returns `None` if the interrupt fired.
    pub fn solve(&mut self, theory: &mut dyn TheoryHook) -> Option<SolveResult> {
        if self.is_unsat() {
            return Some(SolveResult::Unsat);
        }
        self.backtrack_to(0);
        // The theory hook starts each solve with empty bound
        // state, so nothing of the trail has been processed yet.
        self.theory_low = 0;
        // Flush pending level-0 units.
        let units = std::mem::take(&mut self.pending_units);
        for (u, epoch) in units {
            match self.lit_value(u) {
                LBool::True => {
                    // Keep the stronger (older) epoch for the fact.
                    let v = u.var().0 as usize;
                    self.level0_epoch[v] = self.level0_epoch[v].min(epoch);
                }
                LBool::False => {
                    let e = epoch.max(self.level0_epoch[u.var().0 as usize]);
                    self.set_unsat(e);
                    return Some(SolveResult::Unsat);
                }
                LBool::Undef => self.enqueue_with_epoch(u, None, epoch),
            }
        }
        let mut conflicts_at_start = self.stats.conflicts;
        let mut restart_count = 0u64;
        let mut restart_limit = Self::restart_limit(restart_count);
        let interruptible = self.interrupt.is_armed();
        loop {
            // One poll per propagation fixpoint: propagate + the theory's
            // partial check dominate the clock reads by orders of magnitude.
            if interruptible && self.interrupt.triggered() {
                return None;
            }
            if let Some(ci) = self.propagate() {
                if self.trail_lim.is_empty() {
                    let e = self.level0_conflict_epoch(ci);
                    self.set_unsat(e);
                    return Some(SolveResult::Unsat);
                }
                let (learned, backjump, epoch) = self.analyze(ci);
                if !self.learn(learned, backjump, epoch) {
                    return Some(SolveResult::Unsat);
                }
                if self.stats.conflicts - conflicts_at_start >= restart_limit {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    restart_limit = Self::restart_limit(restart_count);
                    conflicts_at_start = self.stats.conflicts;
                    self.backtrack_to(0);
                }
                continue;
            }
            // Propagation fixpoint reached: give the theory an early look at
            // the partial assignment (CDCL(T) eager pruning). Hand over only
            // the trail suffix assigned since the last check; advance the
            // watermark *before* integrating implications (backtracks clamp
            // it back down, and the hook's own cursor is authoritative on
            // conflict exits).
            self.stats.theory_checks += 1;
            let low = self.theory_low;
            self.theory_low = self.trail.len();
            let mut implied = Vec::new();
            let assign = &self.assign;
            let lookup = |v: Var| match assign[v.0 as usize] {
                LBool::True => Some(true),
                LBool::False => Some(false),
                LBool::Undef => None,
            };
            match theory.trail_check(&self.trail, low, &lookup, &mut implied) {
                Ok(()) if !implied.is_empty() => {
                    let (progressed, consistent) = self.integrate_theory_implications(implied);
                    if !consistent {
                        return Some(SolveResult::Unsat);
                    }
                    if progressed {
                        continue;
                    }
                }
                Ok(()) => {}
                Err(clause) => {
                    if !self.handle_theory_conflict(clause) {
                        return Some(SolveResult::Unsat);
                    }
                    continue;
                }
            }
            match self.pick_branch_var() {
                Some(v) => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let phase = self.phase[v.0 as usize];
                    self.enqueue(Lit::with_sign(v, phase), None);
                }
                None => {
                    // Full assignment: final theory verdict.
                    self.stats.theory_checks += 1;
                    let assign = &self.assign;
                    let lookup = |v: Var| matches!(assign[v.0 as usize], LBool::True);
                    match theory.final_check(&lookup) {
                        // A hook that gave up on the interrupt accepts
                        // without deciding; re-poll before trusting it.
                        Ok(()) if interruptible && self.interrupt.triggered() => return None,
                        Ok(()) => return Some(SolveResult::Sat),
                        Err(clause) => {
                            if !self.handle_theory_conflict(clause) {
                                return Some(SolveResult::Unsat);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: &Var, pos: bool) -> Lit {
        Lit::with_sign(*v, pos)
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a)]));
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        assert!(s.value(a));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert!(s.add_clause(vec![Lit::pos(a)]));
        // Adding the opposite unit is detected as unsat at solve time.
        assert!(s.add_clause(vec![Lit::neg(a)]));
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Unsat));
    }

    #[test]
    fn chain_propagation() {
        // a, a→b, b→c, c→d : all true.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(vec![lit(&vars[0], true)]);
        for w in vars.windows(2) {
            s.add_clause(vec![lit(&w[0], false), lit(&w[1], true)]);
        }
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        for v in &vars {
            assert!(s.value(*v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_ij = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        // Each pigeon in some hole.
        for row in &p {
            s.add_clause(vec![Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        // No two pigeons share a hole.
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Unsat));
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // 3 free variables: exactly 8 models.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        // Ensure the vars appear in at least one clause.
        s.add_clause(vec![Lit::pos(vars[0]), Lit::neg(vars[0])]);
        let mut count = 0;
        loop {
            match s.solve(&mut NoTheory) {
                Some(SolveResult::Sat) => {
                    count += 1;
                    assert!(count <= 8, "more models than the space allows");
                    let block: Vec<Lit> =
                        vars.iter().map(|&v| Lit::with_sign(v, !s.value(v))).collect();
                    s.add_clause(block);
                }
                Some(SolveResult::Unsat) => break,
                None => panic!("no interrupt armed"),
            }
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn theory_hook_can_reject_and_refine() {
        // Theory: reject any model where a==true, forcing a=false.
        struct RejectA {
            a: Var,
        }
        impl TheoryHook for RejectA {
            fn final_check(&mut self, assignment: &dyn Fn(Var) -> bool) -> Result<(), TheoryLemma> {
                if assignment(self.a) {
                    Err(TheoryLemma::new(vec![Lit::neg(self.a)]))
                } else {
                    Ok(())
                }
            }
        }
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        let mut th = RejectA { a };
        assert_eq!(s.solve(&mut th), Some(SolveResult::Sat));
        assert!(!s.value(a));
        assert!(s.value(b));
    }

    #[test]
    fn random_3sat_consistency() {
        // Cross-check on small random 3-SAT instances against brute force.
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = 8usize;
            let m = rng.gen_range_usize(10, 40);
            let clauses: Vec<Vec<(usize, bool)>> = (0..m)
                .map(|_| (0..3).map(|_| (rng.gen_range_usize(0, n), rng.gen_bool(0.5))).collect())
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for mask in 0..(1u32 << n) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, pos)| ((mask >> v) & 1 == 1) == pos) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = SatSolver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&(v, pos)| Lit::with_sign(vars[v], pos)).collect());
            }
            let res = s.solve(&mut NoTheory);
            assert_eq!(
                res == Some(SolveResult::Sat),
                brute_sat,
                "solver disagrees with brute force"
            );
            if res == Some(SolveResult::Sat) {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&(v, pos)| s.value(vars[v]) == pos),
                        "model does not satisfy clause"
                    );
                }
            }
        }
    }

    #[test]
    fn restart_schedules_produce_expected_limits() {
        assert_eq!(SatSolver::restart_limit(0), 100);
        assert_eq!(SatSolver::restart_limit(2), 200);
        assert_eq!(SatSolver::restart_limit(6), 400);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(SatSolver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn pop_discards_scope_clauses() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::pos(a)]);
        s.push();
        s.add_clause(vec![Lit::neg(a)]);
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Unsat));
        s.pop();
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        assert!(s.value(a));
    }

    #[test]
    fn pop_discards_scope_variables() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![Lit::pos(a)]);
        s.push();
        let b = s.new_var();
        s.add_clause(vec![Lit::neg(a), Lit::pos(b)]);
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        assert!(s.value(b));
        s.pop();
        assert_eq!(s.num_vars(), 1);
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        assert!(s.value(a));
    }

    #[test]
    fn nested_scopes_unwind_independently() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        s.push();
        s.add_clause(vec![Lit::neg(a)]);
        s.push();
        s.add_clause(vec![Lit::neg(b)]);
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Unsat));
        s.pop();
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        assert!(!s.value(a) && s.value(b));
        s.pop();
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
    }

    #[test]
    fn base_learned_units_survive_pop() {
        // A chain forcing a=true lives in the base scope; a scoped
        // contradiction must not poison the base after pop.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        s.add_clause(vec![Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(vec![Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat));
        for depth in 0..3 {
            s.push();
            s.add_clause(vec![Lit::neg(vars[5 - depth])]);
            assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Unsat), "depth {depth}");
            s.pop();
            assert_eq!(s.solve(&mut NoTheory), Some(SolveResult::Sat), "after pop {depth}");
            assert!(vars.iter().all(|&v| s.value(v)));
        }
    }

    #[test]
    fn pop_matches_fresh_solver_on_random_instances() {
        // Differential: base ∪ scoped clauses, pop, then base ∪ new scoped
        // clauses must answer like a fresh solver on the same set.
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(99);
        for round in 0..30 {
            let n = 6usize;
            let gen_clauses = |rng: &mut SmallRng, m: usize| -> Vec<Vec<(usize, bool)>> {
                (0..m)
                    .map(|_| {
                        (0..3).map(|_| (rng.gen_range_usize(0, n), rng.gen_bool(0.5))).collect()
                    })
                    .collect()
            };
            let base = gen_clauses(&mut rng, 8);
            let scope_a = gen_clauses(&mut rng, 6);
            let scope_b = gen_clauses(&mut rng, 6);

            let solve_fresh = |sets: &[&Vec<Vec<(usize, bool)>>]| {
                let mut s = SatSolver::new();
                let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
                for set in sets {
                    for cl in set.iter() {
                        s.add_clause(cl.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect());
                    }
                }
                s.solve(&mut NoTheory).unwrap()
            };

            let mut s = SatSolver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &base {
                s.add_clause(cl.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect());
            }
            s.push();
            for cl in &scope_a {
                s.add_clause(cl.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect());
            }
            assert_eq!(
                s.solve(&mut NoTheory).unwrap(),
                solve_fresh(&[&base, &scope_a]),
                "round {round}: scope A"
            );
            s.pop();
            s.push();
            for cl in &scope_b {
                s.add_clause(cl.iter().map(|&(v, p)| Lit::with_sign(vars[v], p)).collect());
            }
            assert_eq!(
                s.solve(&mut NoTheory).unwrap(),
                solve_fresh(&[&base, &scope_b]),
                "round {round}: scope B after pop"
            );
            s.pop();
            assert_eq!(s.solve(&mut NoTheory).unwrap(), solve_fresh(&[&base]), "round {round}");
        }
    }
}
