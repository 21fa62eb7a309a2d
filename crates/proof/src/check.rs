//! Independent certificate replay: RUP propagation over the live clause set
//! plus Farkas summation for theory lemmas, over one append-only log whose
//! prefixes are the certificates.
//!
//! The checker keeps the unit-propagation closure of the live clauses (the
//! top-level assignment) between steps and extends it as clauses are
//! added, so a RUP check propagates only from the candidate's negation.
//! A deletion that removes a live unit or the reason of a closure literal
//! marks the closure stale, and the next RUP check rebuilds it from the
//! live units: a deleted clause never justifies a later step.

use crate::{ProofStep, UnsatCertificate};
use ccmatic_num::{gcd_u64, DeltaRat, Rat};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;

/// Counters from a successful replay. They describe the whole certificate,
/// whether its steps were applied for it or for a shorter certificate of
/// the same log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertStats {
    /// Steps in the certificate.
    pub steps: usize,
    /// Bytes of the certificate's text rendering.
    pub bytes: u64,
    /// Clauses added to the live set (input + RUP + theory).
    pub clauses: usize,
    /// RUP derivations checked.
    pub rup_checked: usize,
    /// Farkas certificates checked.
    pub theory_checked: usize,
    /// Deletions applied.
    pub deletions: usize,
    /// Unit propagations performed, keeping the top-level closure and
    /// checking RUP steps.
    pub propagations: u64,
}

/// Why a certificate was rejected. Every variant names the offending step id
/// where one exists, so corruption is diagnosable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A clause id was introduced twice.
    DuplicateId(u64),
    /// A deletion named an id that is unknown or already deleted.
    UnknownDelete(u64),
    /// A claimed RUP clause did not propagate to conflict.
    RupFailed(u64),
    /// A theory lemma carried no Farkas coefficients.
    EmptyFarkas(u64),
    /// A Farkas coefficient was zero or negative.
    NonPositiveFarkas(u64),
    /// A Farkas literal does not occur in the lemma clause.
    FarkasLitNotInClause { id: u64, lit: u32 },
    /// A Farkas literal's variable has no atom definition in scope.
    UnknownAtom { id: u64, var: u32 },
    /// The weighted constraint sum left a nonzero coefficient on a variable.
    FarkasVarsDontCancel { id: u64, var: u32 },
    /// The weighted constraint sum's constant is not negative.
    FarkasNotNegative(u64),
    /// Replay finished with no live verified empty clause.
    NoEmptyClause,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::DuplicateId(id) => write!(f, "clause id {id} introduced twice"),
            CheckError::UnknownDelete(id) => {
                write!(f, "deletion of unknown or already-deleted clause id {id}")
            }
            CheckError::RupFailed(id) => {
                write!(f, "clause id {id} is not derivable by reverse unit propagation")
            }
            CheckError::EmptyFarkas(id) => {
                write!(f, "theory lemma id {id} carries no Farkas coefficients")
            }
            CheckError::NonPositiveFarkas(id) => {
                write!(f, "theory lemma id {id} has a non-positive Farkas coefficient")
            }
            CheckError::FarkasLitNotInClause { id, lit } => {
                write!(f, "theory lemma id {id}: Farkas literal {lit} is not in the clause")
            }
            CheckError::UnknownAtom { id, var } => {
                write!(f, "theory lemma id {id}: variable {var} has no atom definition")
            }
            CheckError::FarkasVarsDontCancel { id, var } => {
                write!(f, "theory lemma id {id}: Farkas sum leaves variable {var} uncancelled")
            }
            CheckError::FarkasNotNegative(id) => {
                write!(f, "theory lemma id {id}: Farkas sum constant is not negative")
            }
            CheckError::NoEmptyClause => {
                write!(f, "no live verified empty clause at end of certificate")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// A variable's atom definition in the log.
#[derive(Clone, Copy)]
struct AtomRef {
    /// Index of the `Atom` step.
    step: usize,
    /// The lcm of the denominators of the atom's coefficients and bound:
    /// the factor that makes its row integral. Zero if it does not fit an
    /// `i64`.
    scale: i64,
}

struct ClauseRec {
    lits: Vec<u32>,
    /// Positions of the two watched literals (only meaningful for len ≥ 2).
    w0: usize,
    w1: usize,
}

#[derive(Default)]
struct Checker {
    /// SAT variable → its latest `Atom` step. The definition is read from
    /// the log, not copied.
    atoms: Vec<Option<AtomRef>>,
    slots: Vec<Option<ClauseRec>>,
    /// Clause id → slot. Entries persist after deletion (slot becomes `None`)
    /// so duplicate ids are still caught.
    id_to_slot: HashMap<u64, usize>,
    /// Literal code → slots watching it (clauses of length ≥ 2 only).
    watches: Vec<Vec<usize>>,
    /// Literal code → number of live unit clauses asserting it. Ordered, so
    /// a closure rebuild seeds units in a fixed order and the propagation
    /// count is a function of the certificate alone.
    units: BTreeMap<u32, u32>,
    /// Live empty clauses (axiomatic or verified).
    empties: u32,
    /// Variable → 0 unset, 1 true, −1 false. Between steps it holds the
    /// top-level closure; a RUP check assigns on top and undoes its part.
    assign: Vec<i8>,
    /// Assigned literals in order, for propagation and undo; between steps,
    /// the closure.
    trail: Vec<u32>,
    /// Variable → the slot whose clause put its closure literal on the
    /// trail, or [`UNIT`] for a seeded unit literal.
    reason: Vec<usize>,
    /// A deletion invalidated the closure; the next RUP check rebuilds it.
    stale: bool,
    /// The closure propagates to a conflict: every clause is RUP.
    conflict: bool,
    /// Farkas scratch: real variable → integer coefficient sum (zero
    /// between checks).
    farkas_acc: Vec<i128>,
    /// Real variables whose `farkas_acc` entry the current check set.
    farkas_touched: Vec<u32>,
    stats: CertStats,
}

/// The closure reason of a literal asserted by a live unit clause.
const UNIT: usize = usize::MAX;

/// Assigns `l` true and records it on the trail. Caller checks the current
/// value first.
fn assign_lit(assign: &mut [i8], trail: &mut Vec<u32>, l: u32) {
    assign[(l >> 1) as usize] = if l & 1 == 0 { 1 } else { -1 };
    trail.push(l);
}

fn lit_value(assign: &[i8], l: u32) -> Option<bool> {
    match assign[(l >> 1) as usize] {
        0 => None,
        1 => Some(l & 1 == 0),
        _ => Some(l & 1 == 1),
    }
}

impl Checker {
    fn ensure_lits(&mut self, lits: &[u32]) {
        for &l in lits {
            let need_w = l as usize | 1;
            if need_w >= self.watches.len() {
                self.watches.resize_with(need_w + 1, Vec::new);
            }
            let v = (l >> 1) as usize;
            if v >= self.assign.len() {
                self.assign.resize(v + 1, 0);
                self.reason.resize(v + 1, UNIT);
            }
        }
    }

    fn add_clause(&mut self, id: u64, lits: &[u32]) -> Result<(), CheckError> {
        if self.id_to_slot.contains_key(&id) {
            return Err(CheckError::DuplicateId(id));
        }
        let mut ls = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        self.ensure_lits(&ls);
        let slot = self.slots.len();
        // The literal the clause forces onto a current closure, if any.
        let mut implied = None;
        let (mut w0, mut w1) = (0, 1);
        let extend = !self.stale && !self.conflict;
        match ls.len() {
            0 => self.empties += 1,
            1 => {
                *self.units.entry(ls[0]).or_insert(0) += 1;
                implied = Some((ls[0], UNIT));
            }
            _ => {
                if extend {
                    // Watch two literals the closure leaves unfalsified;
                    // with one, the clause is unit (or satisfied), and with
                    // none it is falsified. A watched false literal stays
                    // false until the next rebuild unassigns everything.
                    let mut free =
                        (0..ls.len()).filter(|&j| lit_value(&self.assign, ls[j]) != Some(false));
                    match (free.next(), free.next()) {
                        (Some(a), Some(b)) => (w0, w1) = (a, b),
                        (Some(a), None) => {
                            (w0, w1) = (a, usize::from(a == 0));
                            implied = Some((ls[a], slot));
                        }
                        (None, _) => self.conflict = true,
                    }
                }
                self.watches[ls[w0] as usize].push(slot);
                self.watches[ls[w1] as usize].push(slot);
            }
        }
        self.slots.push(Some(ClauseRec { lits: ls, w0, w1 }));
        self.id_to_slot.insert(id, slot);
        self.stats.clauses += 1;
        if let (true, Some((l, why))) = (extend, implied) {
            self.extend_closure(l, why);
        }
        Ok(())
    }

    /// Adds `l`, forced by `reason`, to a current closure and propagates.
    fn extend_closure(&mut self, l: u32, reason: usize) {
        match lit_value(&self.assign, l) {
            Some(true) => {}
            Some(false) => self.conflict = true,
            None => {
                let start = self.trail.len();
                assign_lit(&mut self.assign, &mut self.trail, l);
                self.reason[(l >> 1) as usize] = reason;
                self.conflict = self.propagate(start);
            }
        }
    }

    /// Recomputes the closure from the live unit clauses.
    fn rebuild_closure(&mut self) {
        for l in self.trail.drain(..) {
            self.assign[(l >> 1) as usize] = 0;
        }
        self.stale = false;
        self.conflict = false;
        for &u in self.units.keys() {
            match lit_value(&self.assign, u) {
                Some(true) => {}
                Some(false) => {
                    self.conflict = true;
                    return;
                }
                None => {
                    assign_lit(&mut self.assign, &mut self.trail, u);
                    self.reason[(u >> 1) as usize] = UNIT;
                }
            }
        }
        self.conflict = self.propagate(0);
    }

    /// Whether the closure holds a literal of `lits` put there by `reason`.
    fn closure_rests_on(&self, lits: &[u32], reason: usize) -> bool {
        lits.iter().any(|&l| {
            lit_value(&self.assign, l) == Some(true) && self.reason[(l >> 1) as usize] == reason
        })
    }

    fn delete(&mut self, id: u64) -> Result<(), CheckError> {
        let Some(&slot) = self.id_to_slot.get(&id) else {
            return Err(CheckError::UnknownDelete(id));
        };
        let Some(rec) = self.slots[slot].take() else {
            return Err(CheckError::UnknownDelete(id));
        };
        match rec.lits.len() {
            0 => self.empties -= 1,
            1 => {
                if let Some(n) = self.units.get_mut(&rec.lits[0]) {
                    *n -= 1;
                    if *n == 0 {
                        self.units.remove(&rec.lits[0]);
                        self.stale |= self.closure_rests_on(&rec.lits, UNIT);
                    }
                }
            }
            _ => {
                for w in [rec.w0, rec.w1] {
                    self.watches[rec.lits[w] as usize].retain(|&s| s != slot);
                }
                self.stale |= self.closure_rests_on(&rec.lits, slot);
            }
        }
        // A conflicting closure stopped propagating midway, so which
        // clauses it rests on is not tracked: rebuild it.
        self.stale |= self.conflict;
        self.stats.deletions += 1;
        Ok(())
    }

    /// True iff assuming the negation of every literal in `lits` (on top of
    /// the closure of the live clauses) propagates to a conflict.
    fn rup_holds(&mut self, lits: &[u32]) -> bool {
        if self.empties > 0 {
            return true;
        }
        self.ensure_lits(lits);
        if self.stale {
            self.rebuild_closure();
        }
        if self.conflict {
            return true;
        }
        let closed = self.trail.len();
        let conflict = self.rup_inner(lits, closed);
        for l in self.trail.drain(closed..) {
            self.assign[(l >> 1) as usize] = 0;
        }
        conflict
    }

    fn rup_inner(&mut self, lits: &[u32], closed: usize) -> bool {
        // Assume the negation of the candidate clause…
        for &l in lits {
            let nl = l ^ 1;
            match lit_value(&self.assign, nl) {
                Some(true) => {}
                // A literal the closure or a complementary pair makes true.
                Some(false) => return true,
                None => assign_lit(&mut self.assign, &mut self.trail, nl),
            }
        }
        // …and propagate it over the watched clauses.
        self.propagate(closed)
    }

    /// Propagates the trail from position `qhead`; returns true on
    /// conflict.
    fn propagate(&mut self, mut qhead: usize) -> bool {
        while qhead < self.trail.len() {
            let l = self.trail[qhead];
            qhead += 1;
            self.stats.propagations += 1;
            if self.visit_watchers(l ^ 1) {
                return true;
            }
        }
        false
    }

    /// Visits every clause watching the now-false literal `fl`; returns true
    /// on conflict.
    fn visit_watchers(&mut self, fl: u32) -> bool {
        let mut ws = std::mem::take(&mut self.watches[fl as usize]);
        let mut i = 0;
        let mut conflict = false;
        while i < ws.len() {
            let slot = ws[i];
            // Deleted slots are purged from watch lists eagerly, so the slot
            // is live here.
            let rec = self.slots[slot].as_mut().expect("live watched clause");
            let fl_is_w0 = rec.lits[rec.w0] == fl;
            let other_pos = if fl_is_w0 { rec.w1 } else { rec.w0 };
            let other_lit = rec.lits[other_pos];
            if lit_value(&self.assign, other_lit) == Some(true) {
                i += 1;
                continue;
            }
            let mut repl = None;
            for (j, &lj) in rec.lits.iter().enumerate() {
                if j == rec.w0 || j == rec.w1 {
                    continue;
                }
                if lit_value(&self.assign, lj) != Some(false) {
                    repl = Some((j, lj));
                    break;
                }
            }
            if let Some((j, lj)) = repl {
                if fl_is_w0 {
                    rec.w0 = j;
                } else {
                    rec.w1 = j;
                }
                self.watches[lj as usize].push(slot);
                ws.swap_remove(i);
                continue;
            }
            match lit_value(&self.assign, other_lit) {
                None => {
                    assign_lit(&mut self.assign, &mut self.trail, other_lit);
                    self.reason[(other_lit >> 1) as usize] = slot;
                    i += 1;
                }
                Some(false) => {
                    conflict = true;
                    break;
                }
                Some(true) => unreachable!("handled above"),
            }
        }
        self.watches[fl as usize] = ws;
        conflict
    }

    /// The replay loop: applies `log[range]` in order.
    fn replay(&mut self, log: &[ProofStep], range: Range<usize>) -> Result<(), CheckError> {
        range.into_iter().try_for_each(|i| self.apply(log, i))
    }

    /// Applies step `i` of `log` to the checker state.
    fn apply(&mut self, log: &[ProofStep], i: usize) -> Result<(), CheckError> {
        let step = &log[i];
        self.stats.steps += 1;
        self.stats.bytes += step.byte_len();
        match step {
            ProofStep::Atom { var, expr, bound, .. } => {
                let v = *var as usize;
                if v >= self.atoms.len() {
                    self.atoms.resize(v + 1, None);
                }
                let scale = expr
                    .iter()
                    .map(|(_, c)| c)
                    .chain([bound])
                    .try_fold(1, |scale, r| lcm(scale, r.denom().to_i64()?))
                    .unwrap_or(0);
                self.atoms[v] = Some(AtomRef { step: i, scale });
            }
            ProofStep::Input { id, lits } => self.add_clause(*id, lits)?,
            ProofStep::Rup { id, lits } => {
                if !self.rup_holds(lits) {
                    return Err(CheckError::RupFailed(*id));
                }
                self.stats.rup_checked += 1;
                self.add_clause(*id, lits)?;
            }
            ProofStep::Theory { id, lits, farkas } => {
                self.check_farkas(log, *id, lits, farkas)?;
                self.stats.theory_checked += 1;
                self.add_clause(*id, lits)?;
            }
            ProofStep::Delete { id } => self.delete(*id)?,
        }
        Ok(())
    }

    /// The end-of-certificate test: a live verified empty clause.
    fn finish(&self) -> Result<CertStats, CheckError> {
        if self.empties == 0 {
            return Err(CheckError::NoEmptyClause);
        }
        Ok(self.stats)
    }

    /// Checks Farkas literal `l` with coefficient `lam` of lemma `id` —
    /// positive, in the clause, over a defined atom — and returns that
    /// atom. Both summations run these checks in literal order, so they
    /// reject with the same error.
    fn farkas_atom(&self, id: u64, lits: &[u32], l: u32, lam: &Rat) -> Result<AtomRef, CheckError> {
        if !lam.is_positive() {
            return Err(CheckError::NonPositiveFarkas(id));
        }
        if !lits.contains(&l) {
            return Err(CheckError::FarkasLitNotInClause { id, lit: l });
        }
        let var = l >> 1;
        match self.atoms.get(var as usize) {
            Some(&Some(atom)) => Ok(atom),
            _ => Err(CheckError::UnknownAtom { id, var }),
        }
    }

    /// Verifies the Farkas combination for theory lemma `id`: the weighted
    /// sum of the constraints asserted by the *negations* of the Farkas
    /// literals must cancel every variable and leave a negative constant
    /// (strict bounds contribute an infinitesimal −δ).
    ///
    /// The sum runs in checked machine words ([`Checker::word_sum`]) and
    /// reruns in exact rationals ([`Checker::farkas_exact`]) when a scaled
    /// multiplier or row entry does not fit a word or a sum overflows.
    fn check_farkas(
        &mut self,
        log: &[ProofStep],
        id: u64,
        lits: &[u32],
        farkas: &[(u32, Rat)],
    ) -> Result<(), CheckError> {
        if farkas.is_empty() {
            return Err(CheckError::EmptyFarkas(id));
        }
        match self.farkas_words(log, id, lits, farkas) {
            Some(verdict) => verdict,
            None => self.farkas_exact(log, id, lits, farkas),
        }
    }

    /// [`Checker::word_sum`], leaving the scratch clean.
    fn farkas_words(
        &mut self,
        log: &[ProofStep],
        id: u64,
        lits: &[u32],
        farkas: &[(u32, Rat)],
    ) -> Option<Result<(), CheckError>> {
        let verdict = self.word_sum(log, id, lits, farkas);
        for &v in &self.farkas_touched {
            self.farkas_acc[v as usize] = 0;
        }
        self.farkas_touched.clear();
        verdict
    }

    /// The Farkas sum in integers. Each atom's row times its scale `Dₐ`
    /// is integral, and `λ·row = (λ/Dₐ)·(Dₐ·row)`; multiplying every term
    /// by the lcm `L` of the denominators of the `λ/Dₐ` makes each
    /// multiplier an integer, and scaling by `L > 0` keeps which variables
    /// cancel and the constant's sign. Multipliers and integral rows must
    /// fit an `i64`; their products are exact in `i128` and sums are
    /// checked. `None` when that fails, leaving the verdict to the exact
    /// path. Leaves its sums in `farkas_acc` for the caller to clear.
    fn word_sum(
        &mut self,
        log: &[ProofStep],
        id: u64,
        lits: &[u32],
        farkas: &[(u32, Rat)],
    ) -> Option<Result<(), CheckError>> {
        let mut scale = 1i64;
        for (l, lam) in farkas {
            let atom = match self.farkas_atom(id, lits, *l, lam) {
                Ok(atom) => atom,
                Err(e) => return Some(Err(e)),
            };
            let den = lam.denom().to_i64()?.checked_mul(atom.scale).filter(|&d| d > 0)?;
            scale = lcm(scale, den)?;
        }
        // The constant `real + delta·δ`.
        let (mut real, mut delta) = (0i128, 0i128);
        for (l, lam) in farkas {
            let atom = self.atoms[(l >> 1) as usize].expect("checked above");
            let ProofStep::Atom { expr, bound, strict, .. } = &log[atom.step] else {
                unreachable!("atoms index Atom steps")
            };
            // `λ/Dₐ` times `L`, an integer.
            let den = lam.denom().to_i64()? * atom.scale;
            let lam = i128::from(lam.numer().to_i64()?.checked_mul(scale / den)?);
            let bound = i128::from(integral(bound, atom.scale)?);
            // Odd `l`: bound − expr ≥ 0, −δ if strict. Even `l`:
            // expr − bound ≥ 0, −δ if not strict (see `farkas_exact`).
            let held = l & 1 == 1;
            real = real.checked_add(if held { lam * bound } else { -(lam * bound) })?;
            if held == *strict {
                delta = delta.checked_sub(lam)?;
            }
            for (v, c) in expr {
                let add = lam * i128::from(integral(c, atom.scale)?);
                let v = *v as usize;
                if v >= self.farkas_acc.len() {
                    self.farkas_acc.resize(v + 1, 0);
                }
                let acc = &mut self.farkas_acc[v];
                if *acc == 0 {
                    self.farkas_touched.push(v as u32);
                }
                *acc = acc.checked_add(if held { -add } else { add })?;
            }
        }
        // The smallest uncancelled variable, as the exact path names it.
        let acc = &self.farkas_acc;
        if let Some(&var) = self.farkas_touched.iter().filter(|&&v| acc[v as usize] != 0).min() {
            return Some(Err(CheckError::FarkasVarsDontCancel { id, var }));
        }
        if (real, delta) >= (0, 0) {
            return Some(Err(CheckError::FarkasNotNegative(id)));
        }
        Some(Ok(()))
    }

    /// The Farkas sum in exact `DeltaRat` arithmetic.
    fn farkas_exact(
        &self,
        log: &[ProofStep],
        id: u64,
        lits: &[u32],
        farkas: &[(u32, Rat)],
    ) -> Result<(), CheckError> {
        let mut vars: HashMap<u32, Rat> = HashMap::new();
        let mut konst = DeltaRat::zero();
        for (l, lam) in farkas {
            let atom = self.farkas_atom(id, lits, *l, lam)?;
            let ProofStep::Atom { expr, bound, strict, .. } = &log[atom.step] else {
                unreachable!("atoms index Atom steps")
            };
            // The clause literal `l` is the negation of what was asserted.
            // Odd `l` (¬v in the clause) ⇒ the atom held: expr ≤ bound
            // (strict: < bound), i.e. g = bound − expr ≥ 0 with −δ if strict.
            // Even `l` (v in the clause) ⇒ the atom was refuted:
            // expr ≥ bound when the atom is strict, expr > bound otherwise,
            // i.e. g = expr − bound ≥ 0 with −δ if the atom is non-strict.
            let (negate_expr, gc) = if l & 1 == 1 {
                let delta = if *strict { -&Rat::one() } else { Rat::zero() };
                (true, DeltaRat::new(bound.clone(), delta))
            } else {
                let delta = if *strict { Rat::zero() } else { -&Rat::one() };
                (false, DeltaRat::new(-bound, delta))
            };
            konst = &konst + &gc.scale(lam);
            for (v, c) in expr {
                let mut add = lam * c;
                if negate_expr {
                    add = -add;
                }
                *vars.entry(*v).or_insert_with(Rat::zero) += &add;
            }
        }
        // The smallest uncancelled variable, so the diagnosis does not
        // depend on hash order.
        if let Some(var) = vars.iter().filter(|(_, c)| !c.is_zero()).map(|(v, _)| *v).min() {
            return Err(CheckError::FarkasVarsDontCancel { id, var });
        }
        if konst >= DeltaRat::zero() {
            return Err(CheckError::FarkasNotNegative(id));
        }
        Ok(())
    }
}

/// `lcm(a, b)` for positive `a` and `b`, if it fits an `i64`.
fn lcm(a: i64, b: i64) -> Option<i64> {
    (a / gcd_u64(a as u64, b as u64) as i64).checked_mul(b)
}

/// `r·scale` for a `scale` its denominator divides, if it fits an `i64`.
fn integral(r: &Rat, scale: i64) -> Option<i64> {
    r.numer().to_i64()?.checked_mul(scale / r.denom().to_i64()?)
}

/// Replays a standalone certificate from scratch. Returns replay counters
/// on success; the first invalid step otherwise.
pub fn check(cert: &UnsatCertificate) -> Result<CertStats, CheckError> {
    let mut ck = Checker::default();
    ck.replay(&cert.steps, 0..cert.steps.len())?;
    ck.finish()
}

/// An append-only proof log and the checker state after a prefix of it.
///
/// A solver that logs its whole life into one log hands out certificates
/// that are prefixes of it. The replayer holds that log itself: callers
/// [`Replayer::append`] the steps the solver's sink hands over, and a
/// certificate is a length into the log. [`Replayer::check_prefix`]
/// applies only the steps past the longest prefix checked so far, then
/// runs the end-of-certificate test. Nothing is compared: the prefix the
/// checker state describes is, by construction, the start of the log.
#[derive(Default)]
pub struct Replayer {
    ck: Checker,
    log: Vec<ProofStep>,
    /// Steps of `log` applied to `ck` (or consumed by a rejection).
    applied: usize,
    /// The first step rejection: it is in every longer prefix too.
    failed: Option<CheckError>,
    /// Steps executed over this replayer's life.
    replayed: u64,
}

impl Replayer {
    /// An empty replayer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `steps` to the log.
    pub fn append(&mut self, steps: Vec<ProofStep>) {
        self.log.extend(steps);
    }

    /// The log: every step appended so far, in order.
    pub fn log(&self) -> &[ProofStep] {
        &self.log
    }

    /// Checks the certificate made of the log's first `len` steps,
    /// applying only the steps past those already applied. The verdict and
    /// counters equal [`check`]'s on that prefix.
    ///
    /// # Panics
    /// Panics if `len` exceeds the log or is shorter than a prefix checked
    /// before: the state of a longer prefix cannot be rolled back.
    pub fn check_prefix(&mut self, len: usize) -> Result<CertStats, CheckError> {
        assert!(len <= self.log.len(), "certificate length {len} past the log's end");
        assert!(len >= self.applied, "certificate length {len} below a checked prefix");
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let steps0 = self.ck.stats.steps;
        let replayed = self.ck.replay(&self.log, self.applied..len);
        self.replayed += (self.ck.stats.steps - steps0) as u64;
        self.applied = len;
        if let Err(e) = replayed {
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.ck.finish()
    }

    /// Steps the checker has executed over this replayer's life: a
    /// deterministic measure of checking work.
    pub fn steps_replayed(&self) -> u64 {
        self.replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::{int, BigInt, SmallRng};

    /// A coefficient: a small integer, an integer near 2^62, a fraction,
    /// or a fraction whose denominator is near or past 2^63.
    fn coeff(rng: &mut SmallRng, kind: usize) -> Rat {
        let v = rng.gen_range_i64(-3, 4);
        match kind {
            0 => int(v),
            1 => &int(v) * &int(1 << 62),
            2 => Rat::new(BigInt::from(v), BigInt::from(rng.gen_range_i64(1, 5))),
            _ => Rat::new(
                BigInt::from(v),
                &BigInt::from(rng.gen_range_i64(1, 5)) * &BigInt::from(1i64 << 62),
            ),
        }
    }

    /// A positive Farkas multiplier.
    fn lambda(rng: &mut SmallRng, kind: usize) -> Rat {
        let v = rng.gen_range_i64(1, 6);
        match kind {
            0 => int(v),
            1 => &int(v) * &int(1 << 61),
            _ => Rat::new(BigInt::from(v), BigInt::from(rng.gen_range_i64(1, 7))),
        }
    }

    /// Random lemmas over small, huge and fractional data, most built to
    /// cancel, some with a bad multiplier, literal or atom: the word sum,
    /// when it answers, gives the exact sum's verdict, and `check_farkas`
    /// always does.
    #[test]
    fn word_farkas_agrees_with_the_exact_sum() {
        let mut rng = SmallRng::seed_from_u64(0xFA4C);
        let (mut answered, mut accepted, mut uncancelled, mut nonnegative) = (0, 0, 0, 0);
        let rounds = 3_000;
        for round in 0..rounds {
            let (kind, lam_kind) = (round % 4, rng.gen_range_usize(0, 3));
            let k = rng.gen_range_usize(1, 4);
            let mut log = Vec::new();
            let (mut lits, mut farkas) = (Vec::new(), Vec::new());
            // Σ ±λ·expr over the literals so far, per real variable.
            let mut sum = vec![Rat::zero(); 3];
            for var in 0..=k as u32 {
                let held = rng.gen_bool(0.5);
                let lam =
                    if var as usize == k && kind < 2 { int(1) } else { lambda(&mut rng, lam_kind) };
                let sign = if held { -&lam } else { lam.clone() };
                let expr: Vec<(u32, Rat)> = if var as usize == k && !rng.gen_bool(0.2) {
                    // Closing atom: cancels the sum so far.
                    (0..3u32).map(|v| (v, -&(&sum[v as usize] / &sign))).collect()
                } else {
                    (0..3u32).map(|v| (v, coeff(&mut rng, kind))).collect()
                };
                for (v, c) in &expr {
                    sum[*v as usize] += &(&sign * c);
                }
                let bound =
                    if kind >= 2 { coeff(&mut rng, kind) } else { int(rng.gen_range_i64(-5, 6)) };
                log.push(ProofStep::Atom { var, expr, bound, strict: rng.gen_bool(0.5) });
                let l = var << 1 | u32::from(held);
                lits.push(l);
                farkas.push((l, lam));
            }
            match rng.gen_range_usize(0, 20) {
                0 => farkas[0].1 = -&farkas[0].1,
                1 => {
                    lits.remove(0);
                }
                2 => {
                    let unknown = (k as u32 + 1) << 1;
                    lits.push(unknown);
                    farkas.push((unknown, int(1)));
                }
                _ => {}
            }
            let mut ck = Checker::default();
            ck.replay(&log, 0..log.len()).expect("atom steps apply");
            let exact = ck.farkas_exact(&log, 1, &lits, &farkas);
            if let Some(words) = ck.farkas_words(&log, 1, &lits, &farkas) {
                assert_eq!(words, exact, "round {round}");
                answered += 1;
                match words {
                    Ok(()) => accepted += 1,
                    Err(CheckError::FarkasVarsDontCancel { .. }) => uncancelled += 1,
                    Err(CheckError::FarkasNotNegative(_)) => nonnegative += 1,
                    Err(_) => {}
                }
            }
            assert!(ck.farkas_acc.iter().all(|&a| a == 0), "round {round}: scratch left dirty");
            assert_eq!(ck.check_farkas(&log, 1, &lits, &farkas), exact, "round {round}");
        }
        assert!(answered > rounds / 5 && answered < rounds, "{answered} of {rounds} in words");
        eprintln!("{answered} in words: {accepted} accepted, {uncancelled} uncancelled, {nonnegative} non-negative");
        assert!(accepted > 50 && uncancelled > 50 && nonnegative > 50);
    }
}
