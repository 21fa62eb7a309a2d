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
//! The engine is generic over candidate/counterexample types so the same
//! loop drives CCA synthesis (the `ccmatic` crate), ABR
//! verification tuning, and the unit-test toy domains below.

pub mod portfolio;

pub use portfolio::{
    run_portfolio, PortfolioResult, PortfolioWorker, StepOutcome, StepReport, WorkerStats,
};

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

    /// Incorporate a counterexample that broke `candidate`. The engine may
    /// re-submit a counterexample it already learned (when the concrete
    /// replay prefilter kills a candidate with an old trace); generators
    /// are free to deduplicate.
    fn learn(&mut self, candidate: &Self::Candidate, cex: &Self::CounterExample);

    /// Produce at most `k` candidates, optionally giving up at `deadline`.
    /// The default ignores `k` and the deadline and returns the one
    /// candidate [`Generator::propose`] yields; generators that can stop
    /// mid-search override it to honor the deadline. Only an empty,
    /// uninterrupted proposal claims the space is exhausted.
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
    /// The deadline or cancellation fired before the verifier decided; no
    /// claim is made either way.
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
    /// once `deadline` passes or `cancel` is raised. The default ignores
    /// both and blocks until `verify` finishes — correct, but unable to
    /// honor a wall budget mid-query.
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
    /// Candidates killed by the concrete counterexample-replay prefilter —
    /// refuted by re-running an already-learned trace against the
    /// candidate's rule directly, without an SMT call.
    pub replay_hits: u64,
    /// Portfolio step reports discarded without being merged (work on a
    /// shard overtaken by a solution in a lower shard).
    pub speculative_wasted: u64,
    /// Shards pulled from the portfolio queue beyond each worker's first.
    pub shards_stolen: u64,
    /// Learned clauses published to the portfolio clause exchange.
    pub shared_clauses_exported: u64,
    /// Sibling clauses imported from the portfolio clause exchange.
    pub shared_clauses_imported: u64,
    /// Candidates blocked by counterexample *region* generalization —
    /// replay-verified neighbors and symmetry images of a refuted candidate
    /// excluded beyond the refuted point itself.
    pub regions_pruned: u64,
    /// Learned counterexample traces dropped (or evicted) because another
    /// asserted trace subsumes them — every candidate they refute, the
    /// subsuming trace refutes too.
    pub cex_subsumed: u64,
    /// Warm-start: carried counterexample traces that still refute their
    /// original candidate at the new thresholds and were re-asserted.
    pub warm_traces_seeded: u64,
    /// Warm-start: carried traces whose refutation did not survive the
    /// threshold change and were demoted to the replay prefilter only.
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
    /// The candidate was broken by this counterexample: a fresh one from
    /// the verifier, or a learned or seeded one the replay prefilter
    /// re-checked.
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
    run_with_progress(generator, verifier, |_, _| false, budget, Vec::new(), |_| {})
}

/// Serial CEGIS with the concrete counterexample-replay prefilter: before
/// paying for an SMT verifier call, re-run every learned trace against the
/// new candidate via `replay` (`replay(c, τ) == true` means τ concretely
/// refutes `c`). A replay kill counts as an iteration and is fed back
/// through [`Generator::learn`] with the old trace, but costs no verifier
/// call.
///
/// With an exact generator (one whose learned constraints exclude every
/// replay-refutable candidate, like the SMT generator) the prefilter never
/// fires on the serial path — it is a cross-check there, and pays off in
/// the portfolio engine where siblings propose candidates before each
/// other's counterexamples arrive. A consecutive-kill cap forces an SMT call every
/// `REPLAY_KILL_CAP` kills so inexact generators still make progress.
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
    run_with_progress(generator, verifier, replay, budget, Vec::new(), |_| {})
}

/// The serial CEGIS loop behind [`run`] and [`run_with_replay`]: propose,
/// replay-prefilter, verify, learn, invoking `progress` on every event
/// (the examples print the Figure-1 interaction live with it). A replay
/// kill emits [`Event::Proposed`] then [`Event::Refuted`] with the
/// replayed trace.
///
/// `seeds` pre-populate the replay cache. Each seed is a counterexample
/// carried over from a *different* problem instance (a neighboring sweep
/// point, a fuzzer); seeds are never asserted blindly — a seed only acts
/// when `replay(candidate, seed)` re-establishes, under the *current*
/// problem's semantics, that it concretely refutes the candidate at hand,
/// so an inapplicable seed is inert rather than unsound.
pub fn run_with_progress<G, V, R, F>(
    generator: &mut G,
    verifier: &mut V,
    replay: R,
    budget: &Budget,
    seeds: Vec<G::CounterExample>,
    mut progress: F,
) -> RunResult<G::Candidate>
where
    G: Generator,
    V: Verifier<Candidate = G::Candidate, CounterExample = G::CounterExample>,
    R: Fn(&G::Candidate, &G::CounterExample) -> bool,
    F: FnMut(Event<'_, G::Candidate, G::CounterExample>),
{
    let start = Instant::now();
    // The deadline is threaded into both oracles so a single long proposal
    // or WCE binary search cannot blow far past `max_wall`.
    let deadline = start.checked_add(budget.max_wall);
    let mut stats = Stats::default();
    let mut learned = seeds;
    let mut consecutive_kills = 0u32;
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

        if consecutive_kills < REPLAY_KILL_CAP {
            if let Some(cex) = learned.iter().find(|x| replay(&candidate, x)) {
                stats.replay_hits += 1;
                consecutive_kills += 1;
                progress(Event::Refuted(i, &candidate, cex));
                let g1 = Instant::now();
                generator.learn(&candidate, cex);
                stats.generator_time += g1.elapsed();
                continue;
            }
        }
        consecutive_kills = 0;

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
                learned.push(cex);
            }
            Verdict::Timeout => break Outcome::BudgetExhausted,
        }
    };
    stats.wall = start.elapsed();
    RunResult { outcome, stats }
}

/// After this many consecutive replay kills, [`run_with_progress`] forces an
/// SMT verifier call regardless, so a generator whose `learn` is weaker
/// than the replay semantics cannot starve the loop.
const REPLAY_KILL_CAP: u32 = 32;

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
        let r = run_with_progress(
            &mut g,
            &mut v,
            |_, _| false,
            &budget,
            Vec::new(),
            |e| {
                log.push(match e {
                    Event::Proposed(i, c) => format!("P{i}:{c}"),
                    Event::Refuted(i, c, x) => format!("R{i}:{c}:{x}"),
                    Event::Certified(i, c) => format!("C{i}:{c}"),
                });
            },
        );
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
    fn replay_kills_and_seeds_emit_proposed_then_refuted() {
        let fmt = |e: Event<'_, i64, i64>| match e {
            Event::Proposed(i, c) => format!("P{i}:{c}"),
            Event::Refuted(i, c, x) => format!("R{i}:{c}:{x}"),
            Event::Certified(i, c) => format!("C{i}:{c}"),
        };
        // A learned worst-case trace kills the next candidates by replay.
        let mut g = EnumGen { remaining: (0..=10).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 3, calls: 0, worst_case: true };
        let mut log = Vec::new();
        let replay = |c: &i64, x: &i64| c <= x;
        let r = run_with_progress(&mut g, &mut v, replay, &Budget::default(), Vec::new(), |e| {
            log.push(fmt(e))
        });
        assert!(matches!(r.outcome, Outcome::Solution(3)));
        assert_eq!(log, ["P1:0", "R1:0:2", "P2:1", "R2:1:2", "P3:2", "R3:2:2", "P4:3", "C4:3"]);
        assert_eq!((r.stats.replay_hits, r.stats.verifier_calls), (2, 2));
        // A seed acts exactly like a learned trace, before any verifier call.
        let mut g = EnumGen { remaining: (0..=10).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 3, calls: 0, worst_case: false };
        let mut log = Vec::new();
        let r = run_with_progress(&mut g, &mut v, replay, &Budget::default(), vec![1], |e| {
            log.push(fmt(e))
        });
        assert!(matches!(r.outcome, Outcome::Solution(3)));
        assert_eq!(log, ["P1:0", "R1:0:1", "P2:1", "R2:1:1", "P3:2", "R3:2:2", "P4:3", "C4:3"]);
        assert_eq!((r.stats.replay_hits, r.stats.verifier_calls), (2, 2));
    }

    #[test]
    fn replay_prefilter_saves_verifier_calls() {
        // Worst-case counterexamples + baseline (one-value-per-learn)
        // generator: the replay prefilter kills the whole failing prefix
        // without SMT calls, with the consecutive-kill cap forcing an
        // occasional real verification.
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: false };
        let mut v = ThresholdVerifier { hidden: 37, calls: 0, worst_case: true };
        let r = run_with_replay(&mut g, &mut v, |c, x| c <= x, &Budget::default());
        match r.outcome {
            Outcome::Solution(c) => assert_eq!(c, 37),
            other => panic!("expected solution, got {other:?}"),
        }
        // c0 verified (cex 36), c1..c32 replay-killed (cap), c33 verified,
        // c34..c36 replay-killed, c37 verified and certified.
        assert_eq!(r.stats.replay_hits, 35);
        assert_eq!(r.stats.verifier_calls, 3);
        assert_eq!(r.stats.iterations, 38);
        assert_eq!(v.calls, 3);
    }

    #[test]
    fn replay_never_fires_with_exact_generator() {
        // Range pruning learns exactly what replay checks, so the prefilter
        // must never fire — the serial-path cross-check the portfolio engine
        // relies on.
        let mut g = EnumGen { remaining: (0..=100).collect(), range_pruning: true };
        let mut v = ThresholdVerifier { hidden: 37, calls: 0, worst_case: true };
        let r = run_with_replay(&mut g, &mut v, |c, x| c <= x, &Budget::default());
        assert!(matches!(r.outcome, Outcome::Solution(37)));
        assert_eq!(r.stats.replay_hits, 0);
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
