//! Self-contained UNSAT certificates and an independent checker.
//!
//! The solver side (`ccmatic-smt`, behind its `proofs` feature) logs a
//! DRAT-style clausal proof through the [`ProofSink`] trait: input clauses,
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
//! ([`ProofSink::take_steps`]), and a certificate is a length into the
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
use std::fmt;
use std::io::Write;

mod check;
pub use check::{check, CertStats, CheckError, Replayer};

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

impl ProofStep {
    /// Renders the step as one line of the text format (used for size
    /// accounting and the streaming sink).
    pub fn render<W: fmt::Write>(&self, out: &mut W) {
        match self {
            ProofStep::Atom { var, expr, bound, strict } => {
                let _ = write!(out, "a {var} {} {bound}", u8::from(*strict));
                for (v, c) in expr {
                    let _ = write!(out, " {v}:{c}");
                }
            }
            ProofStep::Input { id, lits } => {
                let _ = write!(out, "i {id}");
                for l in lits {
                    let _ = write!(out, " {l}");
                }
            }
            ProofStep::Rup { id, lits } => {
                let _ = write!(out, "r {id}");
                for l in lits {
                    let _ = write!(out, " {l}");
                }
            }
            ProofStep::Theory { id, lits, farkas } => {
                let _ = write!(out, "t {id}");
                for l in lits {
                    let _ = write!(out, " {l}");
                }
                let _ = out.write_str(" f");
                for (l, c) in farkas {
                    let _ = write!(out, " {l}:{c}");
                }
            }
            ProofStep::Delete { id } => {
                let _ = write!(out, "d {id}");
            }
        }
        let _ = out.write_char('\n');
    }

    /// Length of the step's text rendering in bytes: the sum of the digit
    /// counts of its ids, literals and rationals and of its separators,
    /// computed without rendering.
    pub fn byte_len(&self) -> u64 {
        /// `" {x}"` for each `x`.
        fn spaced(lits: &[u32]) -> usize {
            lits.iter().map(|&l| 1 + digits(u64::from(l))).sum()
        }
        /// `" {l}:{c}"` for each `(l, c)`.
        fn pairs(terms: &[(u32, Rat)]) -> usize {
            terms.iter().map(|(l, c)| 2 + digits(u64::from(*l)) + c.display_len()).sum()
        }
        // Each line is a one-byte tag, a space, the first field and the
        // closing newline: 3 bytes around the fields below.
        let fields = match self {
            ProofStep::Atom { var, expr, bound, .. } => {
                // ` {strict} ` is three bytes.
                digits(u64::from(*var)) + 3 + bound.display_len() + pairs(expr)
            }
            ProofStep::Input { id, lits } | ProofStep::Rup { id, lits } => {
                digits(*id) + spaced(lits)
            }
            ProofStep::Theory { id, lits, farkas } => {
                digits(*id) + spaced(lits) + 2 + pairs(farkas)
            }
            ProofStep::Delete { id } => digits(*id),
        };
        (3 + fields) as u64
    }
}

/// Number of decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `steps` in the one-line-per-step text format: the text of a certificate
/// made of exactly these steps.
pub fn steps_to_text(steps: &[ProofStep]) -> String {
    let mut s = String::new();
    for step in steps {
        step.render(&mut s);
    }
    s
}

/// A complete proof log prefix ending in (at least one) verified empty
/// clause — everything the independent checker needs, with no references
/// back into solver state.
#[derive(Clone, Debug, Default)]
pub struct UnsatCertificate {
    pub steps: Vec<ProofStep>,
}

impl UnsatCertificate {
    /// The certificate in the one-line-per-step text format.
    pub fn to_text(&self) -> String {
        steps_to_text(&self.steps)
    }

    /// Parses the one-line-per-step text format back into a certificate:
    /// the exact inverse of [`UnsatCertificate::to_text`]. Persisted
    /// certificates (the on-disk result cache) round-trip through this;
    /// any malformed line is an error, never a silently dropped step, so a
    /// corrupted cache entry fails loudly and falls back to a fresh solve.
    pub fn from_text(text: &str) -> Result<UnsatCertificate, String> {
        fn num<T: std::str::FromStr>(
            tok: Option<&str>,
            what: &str,
            line: usize,
        ) -> Result<T, String> {
            tok.ok_or_else(|| format!("line {line}: missing {what}"))?
                .parse::<T>()
                .map_err(|_| format!("line {line}: bad {what}"))
        }
        fn rat(tok: &str, what: &str, line: usize) -> Result<Rat, String> {
            Rat::from_decimal_str(tok).ok_or_else(|| format!("line {line}: bad {what} `{tok}`"))
        }
        fn pair(tok: &str, what: &str, line: usize) -> Result<(u32, Rat), String> {
            let (l, c) =
                tok.split_once(':').ok_or_else(|| format!("line {line}: bad {what} `{tok}`"))?;
            let l = l.parse::<u32>().map_err(|_| format!("line {line}: bad {what} `{tok}`"))?;
            Ok((l, rat(c, what, line)?))
        }
        let mut steps = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let mut toks = raw.split_ascii_whitespace();
            let step = match toks.next() {
                None => continue, // blank line (e.g. a trailing newline)
                Some("a") => {
                    let var = num::<u32>(toks.next(), "atom var", line)?;
                    let strict = match toks.next() {
                        Some("0") => false,
                        Some("1") => true,
                        _ => return Err(format!("line {line}: bad strict flag")),
                    };
                    let bound = rat(
                        toks.next().ok_or_else(|| format!("line {line}: missing bound"))?,
                        "bound",
                        line,
                    )?;
                    let expr =
                        toks.map(|t| pair(t, "atom term", line)).collect::<Result<Vec<_>, _>>()?;
                    ProofStep::Atom { var, expr, bound, strict }
                }
                Some("i") => ProofStep::Input {
                    id: num::<u64>(toks.next(), "clause id", line)?,
                    lits: toks
                        .map(|t| num::<u32>(Some(t), "literal", line))
                        .collect::<Result<_, _>>()?,
                },
                Some("r") => ProofStep::Rup {
                    id: num::<u64>(toks.next(), "clause id", line)?,
                    lits: toks
                        .map(|t| num::<u32>(Some(t), "literal", line))
                        .collect::<Result<_, _>>()?,
                },
                Some("t") => {
                    let id = num::<u64>(toks.next(), "clause id", line)?;
                    let mut lits = Vec::new();
                    let mut saw_f = false;
                    for t in toks.by_ref() {
                        if t == "f" {
                            saw_f = true;
                            break;
                        }
                        lits.push(num::<u32>(Some(t), "literal", line)?);
                    }
                    if !saw_f {
                        return Err(format!("line {line}: theory step missing `f` marker"));
                    }
                    let farkas = toks
                        .map(|t| pair(t, "farkas term", line))
                        .collect::<Result<Vec<_>, _>>()?;
                    ProofStep::Theory { id, lits, farkas }
                }
                Some("d") => ProofStep::Delete { id: num::<u64>(toks.next(), "clause id", line)? },
                Some(tag) => return Err(format!("line {line}: unknown step tag `{tag}`")),
            };
            steps.push(step);
        }
        Ok(UnsatCertificate { steps })
    }
}

/// Aggregate counters a sink maintains as the solver logs, surfaced in
/// `SolverStats` so proof overhead is observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofLogStats {
    /// Total steps logged (including deletions and atom definitions).
    pub steps: u64,
    /// Clause-addition steps logged (input + RUP + theory).
    pub clauses: u64,
    /// Deletion steps logged.
    pub deletions: u64,
    /// Bytes of the text rendering of everything logged so far.
    pub bytes: u64,
}

/// Receives proof steps from a solver. Clause-addition methods return the
/// fresh clause id (ids start at 1 and are never reused).
pub trait ProofSink {
    fn log_atom(&mut self, var: u32, expr: Vec<(u32, Rat)>, bound: Rat, strict: bool);
    fn log_input(&mut self, lits: Vec<u32>) -> u64;
    fn log_rup(&mut self, lits: Vec<u32>) -> u64;
    fn log_theory(&mut self, lits: Vec<u32>, farkas: Vec<(u32, Rat)>) -> u64;
    fn log_delete(&mut self, id: u64);
    /// Steps logged so far, if this sink keeps them for
    /// [`ProofSink::take_steps`]: a certificate taken now is the log's
    /// first `position()` steps. Solvers call this at the moment they
    /// conclude UNSAT.
    fn position(&self) -> Option<usize> {
        None
    }
    /// Moves out the kept steps logged since the previous call, in order,
    /// for the caller to append to the log it holds.
    fn take_steps(&mut self) -> Vec<ProofStep> {
        Vec::new()
    }
    fn stats(&self) -> ProofLogStats;
}

/// In-memory sink: keeps each step until [`ProofSink::take_steps`] moves it
/// out, so a certificate is a position in the log, never a copy of it.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Steps logged since the last `take_steps`.
    pending: Vec<ProofStep>,
    next_id: u64,
    stats: ProofLogStats,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, step: ProofStep) {
        self.stats.steps += 1;
        self.stats.bytes += step.byte_len();
        self.pending.push(step);
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

impl ProofSink for MemorySink {
    fn log_atom(&mut self, var: u32, expr: Vec<(u32, Rat)>, bound: Rat, strict: bool) {
        self.push(ProofStep::Atom { var, expr, bound, strict });
    }

    fn log_input(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.push(ProofStep::Input { id, lits });
        id
    }

    fn log_rup(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.push(ProofStep::Rup { id, lits });
        id
    }

    fn log_theory(&mut self, lits: Vec<u32>, farkas: Vec<(u32, Rat)>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.push(ProofStep::Theory { id, lits, farkas });
        id
    }

    fn log_delete(&mut self, id: u64) {
        self.stats.deletions += 1;
        self.push(ProofStep::Delete { id });
    }

    fn position(&self) -> Option<usize> {
        Some(self.stats.steps as usize)
    }

    fn take_steps(&mut self) -> Vec<ProofStep> {
        std::mem::take(&mut self.pending)
    }

    fn stats(&self) -> ProofLogStats {
        self.stats
    }
}

/// Streaming sink: renders each step to a writer as it is logged, keeping
/// memory bounded. Keeps no steps, so it hands out no certificates (check
/// the streamed file with an external replay instead).
#[derive(Debug)]
pub struct WriterSink<W: Write> {
    writer: W,
    next_id: u64,
    stats: ProofLogStats,
    line: String,
}

impl<W: Write> WriterSink<W> {
    pub fn new(writer: W) -> Self {
        WriterSink { writer, next_id: 0, stats: ProofLogStats::default(), line: String::new() }
    }

    fn emit(&mut self, step: ProofStep) {
        self.line.clear();
        step.render(&mut self.line);
        self.stats.steps += 1;
        self.stats.bytes += self.line.len() as u64;
        let _ = self.writer.write_all(self.line.as_bytes());
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

impl<W: Write> ProofSink for WriterSink<W> {
    fn log_atom(&mut self, var: u32, expr: Vec<(u32, Rat)>, bound: Rat, strict: bool) {
        self.emit(ProofStep::Atom { var, expr, bound, strict });
    }

    fn log_input(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.emit(ProofStep::Input { id, lits });
        id
    }

    fn log_rup(&mut self, lits: Vec<u32>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.emit(ProofStep::Rup { id, lits });
        id
    }

    fn log_theory(&mut self, lits: Vec<u32>, farkas: Vec<(u32, Rat)>) -> u64 {
        let id = self.fresh_id();
        self.stats.clauses += 1;
        self.emit(ProofStep::Theory { id, lits, farkas });
        id
    }

    fn log_delete(&mut self, id: u64) {
        self.stats.deletions += 1;
        self.emit(ProofStep::Delete { id });
    }

    fn stats(&self) -> ProofLogStats {
        self.stats
    }
}

#[cfg(test)]
mod tests;
