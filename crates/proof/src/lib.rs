//! Self-contained UNSAT certificates and an independent checker.
//!
//! The solver side (`ccmatic-smt`, once proofs are enabled) logs a
//! DRAT-style clausal proof into a [`MemorySink`]: input clauses,
//! learned clauses claimed derivable by reverse unit propagation (RUP),
//! theory lemmas carrying Farkas coefficients, clause deletions, and atom
//! definitions binding SAT variables to linear-arithmetic constraints. The
//! log up to the moment a solver reports UNSAT is an UNSAT certificate.
//!
//! [`check`] replays a certificate **independently**: this crate depends only
//! on `ccmatic-num` and shares zero code with the solver. RUP steps are
//! checked by unit propagation over the live clause set; theory lemmas by
//! Farkas summation (the weighted sum of the negated literals' constraints
//! must cancel every variable and leave a negative constant), in checked
//! machine words with an exact-rational rerun on overflow or a fractional
//! coefficient. A certificate is accepted only if every derivation checks
//! out and a verified empty clause is live at the end.
//!
//! A solver that keeps one proof log for its whole life (an incremental
//! verifier) hands out certificates that are prefixes of that log, so each
//! extends the one before. A [`Replayer`] holds such a log itself: the
//! solver's [`MemorySink`] hands each logged step over once
//! ([`MemorySink::take_steps`]), and a certificate is a length into the
//! replayer's log ([`Replayer::check_prefix`]). The replayer applies each
//! step once, in log order, and runs the end-of-certificate test at every
//! length it is asked about. Each step's outcome depends only on the steps
//! before it, so the verdict and [`CertStats`] equal a replay from scratch
//! of the same prefix; [`check`] runs the same replay loop on a standalone
//! [`UnsatCertificate`].
//!
//! Literals use the dense encoding `var << 1 | sign` (odd = negated). The
//! encoding is re-stated here, not imported from the solver.

use ccmatic_num::Rat;

mod check;
mod text;
pub use check::{check, CertStats, CheckError, Replayer};
pub use text::steps_to_text;

/// One step of a proof log.
#[derive(Clone, Debug, PartialEq)]
pub enum ProofStep {
    /// Binds SAT variable `var` to the arithmetic atom `expr ≤ bound`
    /// (`< bound` when `strict`); `expr` is a sparse sum over real-variable
    /// indices. Re-binding the same `var` later is legal and replaces the
    /// definition (scope pops recycle variables); the solver's epoch
    /// invariant guarantees every clause mentioning the old binding is
    /// deleted before the variable is reused.
    Atom { var: u32, expr: Vec<(u32, Rat)>, bound: Rat, strict: bool },
    /// An input (axiom) clause: part of the formula being refuted.
    Input { id: u64, lits: Vec<u32> },
    /// A clause claimed derivable by reverse unit propagation.
    Rup { id: u64, lits: Vec<u32> },
    /// A theory lemma: the conjunction of the negations of `lits` is
    /// LRA-infeasible, witnessed by the Farkas combination `farkas`
    /// (literal → positive coefficient; all Farkas literals must occur in
    /// `lits`).
    Theory { id: u64, lits: Vec<u32>, farkas: Vec<(u32, Rat)> },
    /// Removes a previously added clause from the live set.
    Delete { id: u64 },
}

/// A complete proof log prefix ending in (at least one) verified empty
/// clause — everything the independent checker needs, with no references
/// back into solver state.
#[derive(Clone, Debug, Default)]
pub struct UnsatCertificate {
    pub steps: Vec<ProofStep>,
}

/// The solver's in-memory proof log: keeps each step until
/// [`MemorySink::take_steps`] moves it out, so a certificate is a position
/// in the log, never a copy of it. Clause-addition methods return the fresh
/// clause id (ids start at 1 and are never reused).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Steps logged since the last `take_steps`.
    pending: Vec<ProofStep>,
    /// Steps logged in total.
    steps: usize,
    next_id: u64,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, step: ProofStep) {
        self.steps += 1;
        self.pending.push(step);
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn log_atom(&mut self, var: u32, expr: Vec<(u32, Rat)>, bound: Rat, strict: bool) {
        self.push(ProofStep::Atom { var, expr, bound, strict });
    }

    pub fn log_input(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.push(ProofStep::Input { id, lits });
        id
    }

    pub fn log_rup(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.push(ProofStep::Rup { id, lits });
        id
    }

    pub fn log_theory(&mut self, lits: Vec<u32>, farkas: Vec<(u32, Rat)>) -> u64 {
        let id = self.fresh_id();
        self.push(ProofStep::Theory { id, lits, farkas });
        id
    }

    pub fn log_delete(&mut self, id: u64) {
        self.push(ProofStep::Delete { id });
    }

    /// Steps logged so far: a certificate taken now is the log's first
    /// `position()` steps. Solvers call this at the moment they conclude
    /// UNSAT.
    pub fn position(&self) -> usize {
        self.steps
    }

    /// Moves out the steps logged since the previous call, in order, for
    /// the caller to append to the log it holds.
    pub fn take_steps(&mut self) -> Vec<ProofStep> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests;
