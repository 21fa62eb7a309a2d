//! Independent certificate replay: RUP propagation over the live clause set
//! plus exact-rational Farkas summation for theory lemmas, resumable across
//! certificates that extend one another.

use crate::{ProofStep, UnsatCertificate};
use ccmatic_num::{DeltaRat, Rat};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Counters from a successful replay. They describe the whole certificate,
/// whether its steps were replayed now or resumed from an accepted prefix.
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
    /// Unit propagations performed across all RUP checks.
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

struct AtomDef {
    expr: Vec<(u32, Rat)>,
    bound: Rat,
    strict: bool,
}

struct ClauseRec {
    lits: Vec<u32>,
    /// Positions of the two watched literals (only meaningful for len ≥ 2).
    w0: usize,
    w1: usize,
}

#[derive(Default)]
struct Checker {
    atoms: HashMap<u32, AtomDef>,
    slots: Vec<Option<ClauseRec>>,
    /// Clause id → slot. Entries persist after deletion (slot becomes `None`)
    /// so duplicate ids are still caught.
    id_to_slot: HashMap<u64, usize>,
    /// Literal code → slots watching it (clauses of length ≥ 2 only).
    watches: Vec<Vec<usize>>,
    /// Literal code → number of live unit clauses asserting it. Ordered, so
    /// RUP checks seed units in a fixed order and the propagation count is
    /// a function of the certificate alone.
    units: BTreeMap<u32, u32>,
    /// Live empty clauses (axiomatic or verified).
    empties: u32,
    /// Variable → 0 unset, 1 true, −1 false (scratch; clean between checks).
    assign: Vec<i8>,
    /// Assigned literals in order, for propagation and undo.
    trail: Vec<u32>,
    stats: CertStats,
}

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
        match ls.len() {
            0 => self.empties += 1,
            1 => *self.units.entry(ls[0]).or_insert(0) += 1,
            _ => {
                self.watches[ls[0] as usize].push(slot);
                self.watches[ls[1] as usize].push(slot);
            }
        }
        self.slots.push(Some(ClauseRec { lits: ls, w0: 0, w1: 1 }));
        self.id_to_slot.insert(id, slot);
        self.stats.clauses += 1;
        Ok(())
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
                    }
                }
            }
            _ => {
                for w in [rec.w0, rec.w1] {
                    self.watches[rec.lits[w] as usize].retain(|&s| s != slot);
                }
            }
        }
        self.stats.deletions += 1;
        Ok(())
    }

    /// True iff assuming the negation of every literal in `lits` (on top of
    /// the live unit clauses) propagates to a conflict.
    fn rup_holds(&mut self, lits: &[u32]) -> bool {
        if self.empties > 0 {
            return true;
        }
        self.ensure_lits(lits);
        debug_assert!(self.trail.is_empty());
        let conflict = self.rup_inner(lits);
        for i in 0..self.trail.len() {
            let l = self.trail[i];
            self.assign[(l >> 1) as usize] = 0;
        }
        self.trail.clear();
        conflict
    }

    fn rup_inner(&mut self, lits: &[u32]) -> bool {
        // Assume the negation of the candidate clause…
        for &l in lits {
            let nl = l ^ 1;
            match lit_value(&self.assign, nl) {
                Some(true) => {}
                Some(false) => return true, // complementary pair: tautology
                None => assign_lit(&mut self.assign, &mut self.trail, nl),
            }
        }
        // …seed every live unit clause…
        for &u in self.units.keys() {
            match lit_value(&self.assign, u) {
                Some(true) => {}
                Some(false) => return true,
                None => assign_lit(&mut self.assign, &mut self.trail, u),
            }
        }
        // …and propagate over the watched clauses.
        let mut qhead = 0;
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

    /// Verifies the Farkas combination for theory lemma `id`: the weighted
    /// sum of the constraints asserted by the *negations* of the Farkas
    /// literals must cancel every variable and leave a negative constant
    /// (strict bounds contribute an infinitesimal −δ).
    fn check_farkas(&self, id: u64, lits: &[u32], farkas: &[(u32, Rat)]) -> Result<(), CheckError> {
        if farkas.is_empty() {
            return Err(CheckError::EmptyFarkas(id));
        }
        let mut vars: HashMap<u32, Rat> = HashMap::new();
        let mut konst = DeltaRat::zero();
        for (l, lam) in farkas {
            if !lam.is_positive() {
                return Err(CheckError::NonPositiveFarkas(id));
            }
            if !lits.contains(l) {
                return Err(CheckError::FarkasLitNotInClause { id, lit: *l });
            }
            let var = l >> 1;
            let Some(def) = self.atoms.get(&var) else {
                return Err(CheckError::UnknownAtom { id, var });
            };
            // The clause literal `l` is the negation of what was asserted.
            // Odd `l` (¬v in the clause) ⇒ the atom held: expr ≤ bound
            // (strict: < bound), i.e. g = bound − expr ≥ 0 with −δ if strict.
            // Even `l` (v in the clause) ⇒ the atom was refuted:
            // expr ≥ bound when the atom is strict, expr > bound otherwise,
            // i.e. g = expr − bound ≥ 0 with −δ if the atom is non-strict.
            let (negate_expr, gc) = if l & 1 == 1 {
                let delta = if def.strict { -&Rat::one() } else { Rat::zero() };
                (true, DeltaRat::new(def.bound.clone(), delta))
            } else {
                let delta = if def.strict { Rat::zero() } else { -&Rat::one() };
                (false, DeltaRat::new(-&def.bound, delta))
            };
            konst = &konst + &gc.scale(lam);
            for (v, c) in &def.expr {
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

/// Replays a certificate from scratch. Returns replay counters on success;
/// the first invalid step otherwise.
pub fn check(cert: &UnsatCertificate) -> Result<CertStats, CheckError> {
    Replayer::new().check(cert)
}

/// A checker that resumes from the last certificate it accepted.
///
/// It holds the checker state after the steps it has accepted and the steps
/// themselves. [`Replayer::check`] resumes only when those steps equal the
/// start of the new certificate, compared step by step; otherwise it starts
/// from an empty checker. Either way it then replays the rest and applies
/// the end-of-certificate test. A rejection resets the replayer, so a bad
/// certificate leaves no state behind.
#[derive(Default)]
pub struct Replayer {
    ck: Checker,
    /// The steps `ck` has replayed, in order.
    accepted: Vec<ProofStep>,
    /// Steps executed over this replayer's life, rejected replays included.
    replayed: u64,
}

impl Replayer {
    /// An empty replayer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks `cert`, replaying only the steps past the accepted prefix it
    /// shares. The verdict and counters equal [`check`]'s on the same
    /// certificate.
    pub fn check(&mut self, cert: &UnsatCertificate) -> Result<CertStats, CheckError> {
        if !cert.steps.starts_with(&self.accepted) {
            self.reset();
        }
        let start = self.accepted.len();
        match self.replay(&cert.steps[start..]) {
            Ok(stats) => {
                self.accepted.extend_from_slice(&cert.steps[start..]);
                Ok(stats)
            }
            Err(e) => {
                self.reset();
                Err(e)
            }
        }
    }

    /// Steps the checker has executed over this replayer's life: a
    /// deterministic measure of checking work.
    pub fn steps_replayed(&self) -> u64 {
        self.replayed
    }

    /// Drops the checker state and the accepted steps.
    fn reset(&mut self) {
        *self = Replayer { replayed: self.replayed, ..Replayer::default() };
    }

    /// The replay loop: applies `steps` to the checker state, then the
    /// end-of-certificate test.
    fn replay(&mut self, steps: &[ProofStep]) -> Result<CertStats, CheckError> {
        let ck = &mut self.ck;
        for step in steps {
            self.replayed += 1;
            ck.stats.steps += 1;
            ck.stats.bytes += step.byte_len();
            match step {
                ProofStep::Atom { var, expr, bound, strict } => {
                    ck.atoms.insert(
                        *var,
                        AtomDef { expr: expr.clone(), bound: bound.clone(), strict: *strict },
                    );
                }
                ProofStep::Input { id, lits } => ck.add_clause(*id, lits)?,
                ProofStep::Rup { id, lits } => {
                    if !ck.rup_holds(lits) {
                        return Err(CheckError::RupFailed(*id));
                    }
                    ck.stats.rup_checked += 1;
                    ck.add_clause(*id, lits)?;
                }
                ProofStep::Theory { id, lits, farkas } => {
                    ck.check_farkas(*id, lits, farkas)?;
                    ck.stats.theory_checked += 1;
                    ck.add_clause(*id, lits)?;
                }
                ProofStep::Delete { id } => ck.delete(*id)?,
            }
        }
        if ck.empties == 0 {
            return Err(CheckError::NoEmptyClause);
        }
        Ok(ck.stats)
    }
}
