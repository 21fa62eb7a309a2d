//! A domain-agnostic counterexample-guided inductive synthesis engine.
//!
//! CEGIS (Solar-Lezama et al.; Abate et al., CAV '18) solves `∃A. ∀τ. σ(A,τ)`
//! by alternating two oracles (the paper's Figure 1):
//!
//! * a [`Generator`] proposes a candidate `A*` consistent with every
//!   counterexample seen so far (checking only the finite set `X`),
//! * a [`Verifier`] searches for a trace `τ*` with `¬σ(A*, τ*)`.
//!
//! The loop ends when the verifier fails to find a counterexample (the
//! candidate is a *solution* — sound), or the generator's search space is
//! exhausted (*no solution exists* in the space — complete), or a budget
//! runs out.
//!
//! There is no third stage: counterexamples found elsewhere (a neighboring
//! problem instance, a fuzzer) are learned into the generator before the
//! run, like any counterexample the verifier produces.
//!
//! The engine is generic over candidate/counterexample types so the same
//! loop drives CCA synthesis (the `ccmatic` crate), ABR
//! verification tuning, and the unit-test toy domains below.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one batched (and possibly deadline-limited) proposal.
#[derive(Debug)]
pub struct BatchProposal<C> {
    /// At most `k` candidates, each consistent with every learned
    /// counterexample. Fewer than `k` claims nothing about what remains:
    /// generators without native batching return at most one. Only an
    /// empty proposal with `interrupted == false` claims the space is
    /// exhausted (a completeness claim: no solution exists).
    pub candidates: Vec<C>,
    /// The deadline fired mid-search; no exhaustion claim is made. Any
    /// candidates gathered before the interrupt are still valid.
    pub interrupted: bool,
}

/// Proposes candidates consistent with all counterexamples learned so far.
pub trait Generator {
    /// The kind of artifact being synthesized.
    type Candidate;
    /// The kind of counterexample the verifier produces.
    type CounterExample;

    /// Produce a candidate consistent with every counterexample passed to
    /// [`Generator::learn`], or `None` if the space is exhausted (which
    /// proves no solution exists).
    fn propose(&mut self) -> Option<Self::Candidate>;

    /// Incorporate a counterexample that broke `candidate`.
    fn learn(&mut self, candidate: &Self::Candidate, cex: &Self::CounterExample);

    /// Produce at most `k` candidates, optionally giving up at `deadline`.
    /// The default ignores `k` and the deadline and returns the one
    /// candidate [`Generator::propose`] yields; generators that can stop
    /// mid-search override it to honor the deadline. Only an empty,
    /// uninterrupted proposal claims the space is exhausted.
    ///
    /// The serial loop always asks for `k = 1` and no generator here reads
    /// `k`; the parameter stays only because the `perfbench/` workloads
    /// implement this signature.
    fn propose_batch(
        &mut self,
        k: usize,
        deadline: Option<Instant>,
    ) -> BatchProposal<Self::Candidate> {
        let _ = (k, deadline);
        BatchProposal { candidates: self.propose().into_iter().collect(), interrupted: false }
    }
}

/// A verifier's answer for one candidate.
#[derive(Clone, Debug)]
pub enum Verdict<X> {
    /// The candidate satisfies the specification for all traces.
    Pass,
    /// A concrete trace breaking the candidate.
    Fail(X),
    /// The deadline passed before the verifier decided; no claim is made
    /// either way.
    Timeout,
}

/// Checks candidates against the full (usually infinite) trace space.
pub trait Verifier {
    /// Must match the generator's candidate type.
    type Candidate;
    /// Must match the generator's counterexample type.
    type CounterExample;

    /// Return `Ok(())` if the candidate satisfies the specification for all
    /// traces, or a counterexample that breaks it.
    fn verify(&mut self, candidate: &Self::Candidate) -> Result<(), Self::CounterExample>;

    /// Like [`Verifier::verify`], but giving up (with [`Verdict::Timeout`])
    /// once `deadline` passes. The default ignores it and blocks until
    /// `verify` finishes — correct, but unable to honor a wall budget
    /// mid-query.
    ///
    /// `cancel` is not read: the loop always passes `None`, and no
    /// implementation polls it. It stays only because the `perfbench/`
    /// workloads implement this signature.
    fn verify_interruptible(
        &mut self,
        candidate: &Self::Candidate,
        deadline: Option<Instant>,
        cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Self::CounterExample> {
        let _ = (deadline, cancel);
        match self.verify(candidate) {
            Ok(()) => Verdict::Pass,
            Err(cex) => Verdict::Fail(cex),
        }
    }
}

/// Budget limits for a CEGIS run.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum generator/verifier round trips.
    pub max_iterations: u64,
    /// Wall-clock ceiling for the whole loop.
    pub max_wall: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_iterations: 10_000, max_wall: Duration::from_secs(3600) }
    }
}

/// Counters describing a finished (or aborted) run. These back the paper's
/// Table 1 (`# Itr` and `Time` columns) and its §4 scalability discussion.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Completed generator→verifier iterations.
    pub iterations: u64,
    /// Time spent inside `Generator::propose` + `learn`.
    pub generator_time: Duration,
    /// Time spent inside `Verifier::verify`.
    pub verifier_time: Duration,
    /// Number of verifier invocations (≥ iterations when the verifier is
    /// called multiple times per iteration, e.g. worst-case-counterexample
    /// binary search counts each probe via [`Stats::note_extra_verifier_calls`]).
    pub verifier_calls: u64,
    /// Candidates blocked by counterexample *region* generalization —
    /// replay-verified neighbors and symmetry images of a refuted candidate
    /// excluded beyond the refuted point itself.
    pub regions_pruned: u64,
    /// Always zero: no engine drops a learned trace for being subsumed by
    /// another. Kept only for the `perfbench/` workloads that read it.
    pub cex_subsumed: u64,
    /// Warm-start: carried counterexample traces the network model admits,
    /// asserted into the generator before the first proposal.
    pub warm_traces_seeded: u64,
    /// Warm-start: carried traces the network model rejects (a different
    /// shape, or a schedule the link cannot produce); nothing is asserted.
    pub warm_traces_rejected: u64,
    /// Warm-start: neighbor solutions that re-verified at the new
    /// thresholds and were admitted without any generator work.
    pub warm_solutions_confirmed: u64,
    /// Persistent-cache lookups answered by a certificate re-check instead
    /// of a solve.
    pub cache_hits: u64,
    /// Wall-clock milliseconds spent re-checking cached certificates.
    pub cache_cert_ms: f64,
    /// Total wall-clock of the run.
    pub wall: Duration,
}

impl Stats {
    /// Record verifier probes beyond the engine's own bookkeeping (used by
    /// verifiers that internally binary-search).
    pub fn note_extra_verifier_calls(&mut self, n: u64) {
        self.verifier_calls += n;
    }
}

/// Why a CEGIS run stopped.
#[derive(Clone, Debug)]
pub enum Outcome<C> {
    /// The verifier certified this candidate against all traces.
    Solution(C),
    /// The generator proved no candidate in its space can work.
    NoSolution,
    /// A budget limit was hit first.
    BudgetExhausted,
}

/// Result of [`run`]: the outcome plus counters.
#[derive(Clone, Debug)]
pub struct RunResult<C> {
    /// Why the loop stopped.
    pub outcome: Outcome<C>,
    /// Counters for reporting.
    pub stats: Stats,
}

/// Events surfaced to the progress callback of [`run_with_progress`].
#[derive(Debug)]
pub enum Event<'a, C, X> {
    /// The generator proposed a candidate (iteration number included).
    Proposed(u64, &'a C),
    /// The verifier broke the candidate with this counterexample.
    Refuted(u64, &'a C, &'a X),
    /// The verifier certified the candidate.
    Certified(u64, &'a C),
}

/// Run the CEGIS loop to completion under `budget`.
pub fn run<G, V>(generator: &mut G, verifier: &mut V, budget: &Budget) -> RunResult<G::Candidate>
where
    G: Generator,
    V: Verifier<Candidate = G::Candidate, CounterExample = G::CounterExample>,
{
    run_with_progress(generator, verifier, budget, |_| {})
}

/// [`run`]. `replay` is not read; kept because `perfbench/` calls it.
pub fn run_with_replay<G, V, R>(
    generator: &mut G,
    verifier: &mut V,
    replay: R,
    budget: &Budget,
) -> RunResult<G::Candidate>
where
    G: Generator,
    V: Verifier<Candidate = G::Candidate, CounterExample = G::CounterExample>,
    G::CounterExample: Clone,
    R: Fn(&G::Candidate, &G::CounterExample) -> bool,
{
    let _ = replay;
    run(generator, verifier, budget)
}

/// The serial CEGIS loop behind [`run`]: propose, verify, learn, invoking
/// `progress` on every event (the examples print the Figure-1 interaction
/// live with it).
pub fn run_with_progress<G, V, F>(
    generator: &mut G,
    verifier: &mut V,
    budget: &Budget,
    mut progress: F,
) -> RunResult<G::Candidate>
where
    G: Generator,
    V: Verifier<Candidate = G::Candidate, CounterExample = G::CounterExample>,
    F: FnMut(Event<'_, G::Candidate, G::CounterExample>),
{
    let start = Instant::now();
    // The deadline is threaded into both oracles so a single long proposal
    // or WCE binary search cannot blow far past `max_wall`.
    let deadline = start.checked_add(budget.max_wall);
    let mut stats = Stats::default();
    let outcome = loop {
        if stats.iterations >= budget.max_iterations || start.elapsed() >= budget.max_wall {
            break Outcome::BudgetExhausted;
        }
        stats.iterations += 1;
        let i = stats.iterations;

        let g0 = Instant::now();
        let proposal = generator.propose_batch(1, deadline);
        stats.generator_time += g0.elapsed();
        let Some(candidate) = proposal.candidates.into_iter().next() else {
            break if proposal.interrupted {
                Outcome::BudgetExhausted
            } else {
                Outcome::NoSolution
            };
        };
        progress(Event::Proposed(i, &candidate));

        let v0 = Instant::now();
        let verdict = verifier.verify_interruptible(&candidate, deadline, None);
        stats.verifier_time += v0.elapsed();
        stats.verifier_calls += 1;

        match verdict {
            Verdict::Pass => {
                progress(Event::Certified(i, &candidate));
                break Outcome::Solution(candidate);
            }
            Verdict::Fail(cex) => {
                progress(Event::Refuted(i, &candidate, &cex));
                let g1 = Instant::now();
                generator.learn(&candidate, &cex);
                stats.generator_time += g1.elapsed();
            }
            Verdict::Timeout => break Outcome::BudgetExhausted,
        }
    };
    stats.wall = start.elapsed();
    RunResult { outcome, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy domain: synthesize an integer in [0, 100] that is ≥ a hidden
    /// threshold. The generator enumerates; each counterexample is the
    /// value that failed (so the naive generator prunes one value per
    /// iteration — exactly the paper's "baseline" pathology) or a lower
    /// bound (the "range pruning" analogue).
    struct EnumGen {
        /// Values not yet excluded.
        remaining: Vec<i64>,
        /// Prune a whole prefix per counterexample (range pruning) or just
        /// the failing value (baseline).
        range_pruning: bool,
    }

    impl Generator for EnumGen {
        type Candidate = i64;
        type CounterExample = i64; // the largest value known to fail

        fn propose(&mut self) -> Option<i64> {
            self.remaining.first().copied()
        }

        fn learn(&mut self, candidate: &i64, cex: &i64) {
            if self.range_pruning {
                self.remaining.retain(|v| v > cex);
            } else {
                self.remaining.retain(|v| v != candidate);
            }
        }
    }

    struct ThresholdVerifier {
        hidden: i64,
        calls: u64,
        /// When set, return the *largest* failing value instead of the
        /// candidate itself — the toy analogue of the paper's worst-case
        /// counterexample: one cex prunes the whole failing prefix.
        worst_case: bool,
    }

    impl Verifier for ThresholdVerifier {
        type Candidate = i64;
        type CounterExample = i64;

        fn verify(&mut self, candidate: &i64) -> Result<(), i64> {
            self.calls += 1;
            if *candidate >= self.hidden {
                Ok(())
            } else if self.worst_case {
                Err(self.hidden - 1)
            } else {
                Err(*candidate)
            }
        }
    }

    #[test]
    fn finds_solution_baseline() {
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 37, calls: 0, worst_case: false };
        let r = run(&mut g, &mut v, &Budget::default());
        match r.outcome {
            Outcome::Solution(c) => assert_eq!(c, 37),
            other => panic!("expected solution, got {other:?}"),
        }
        assert_eq!(r.stats.iterations, 38, "baseline prunes one candidate per cex");
    }

    #[test]
    fn range_pruning_cuts_iterations() {
        // With range pruning + worst-case counterexamples, one cex removes
        // the whole failing prefix, converging in 2 iterations regardless
        // of the threshold — mirroring the paper's Table-1 effect.
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: true };
        let mut v = ThresholdVerifier { hidden: 37, calls: 0, worst_case: true };
        let r = run(&mut g, &mut v, &Budget::default());
        match r.outcome {
            Outcome::Solution(c) => assert_eq!(c, 37),
            other => panic!("expected solution, got {other:?}"),
        }
        assert!(r.stats.iterations <= 2, "range pruning should need ≤2 iterations");
    }

    #[test]
    fn exhaustion_proves_no_solution() {
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 1000, calls: 0, worst_case: false };
        let r = run(&mut g, &mut v, &Budget::default());
        assert!(matches!(r.outcome, Outcome::NoSolution));
        assert_eq!(r.stats.iterations, 102, "101 refutations + final empty propose");
    }

    #[test]
    fn iteration_budget_respected() {
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 1000, calls: 0, worst_case: false };
        let budget = Budget { max_iterations: 5, max_wall: Duration::from_secs(3600) };
        let r = run(&mut g, &mut v, &budget);
        assert!(matches!(r.outcome, Outcome::BudgetExhausted));
        assert_eq!(r.stats.iterations, 5);
    }

    /// The event log of one baseline run over `0..=top` against `hidden`.
    fn event_log(top: i64, hidden: i64, max_iterations: u64) -> (Outcome<i64>, Vec<String>) {
        let mut g = EnumGen { remaining: (0..=top).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden, calls: 0, worst_case: false };
        let budget = Budget { max_iterations, ..Budget::default() };
        let mut log = Vec::new();
        let r = run_with_progress(&mut g, &mut v, &budget, |e| {
            log.push(match e {
                Event::Proposed(i, c) => format!("P{i}:{c}"),
                Event::Refuted(i, c, x) => format!("R{i}:{c}:{x}"),
                Event::Certified(i, c) => format!("C{i}:{c}"),
            });
        });
        (r.outcome, log)
    }

    #[test]
    fn progress_events_fire_in_order() {
        let (outcome, log) = event_log(10, 2, 100);
        assert!(matches!(outcome, Outcome::Solution(2)));
        assert_eq!(log, ["P1:0", "R1:0:0", "P2:1", "R2:1:1", "P3:2", "C3:2"]);
        // Exhaustion: every candidate refuted, then an empty proposal that
        // emits nothing.
        let (outcome, log) = event_log(2, 100, 100);
        assert!(matches!(outcome, Outcome::NoSolution));
        assert_eq!(log, ["P1:0", "R1:0:0", "P2:1", "R2:1:1", "P3:2", "R3:2:2"]);
        // An iteration budget stops the loop before the next proposal.
        let (outcome, log) = event_log(10, 100, 2);
        assert!(matches!(outcome, Outcome::BudgetExhausted));
        assert_eq!(log, ["P1:0", "R1:0:0", "P2:1", "R2:1:1"]);
    }

    #[test]
    fn stats_track_verifier_calls() {
        let mut g = EnumGen { remaining: (0..=10).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 3, calls: 0, worst_case: false };
        let r = run(&mut g, &mut v, &Budget::default());
        assert_eq!(r.stats.verifier_calls, v.calls);
        assert_eq!(r.stats.verifier_calls, 4);
    }
}
