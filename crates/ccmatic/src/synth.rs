//! End-to-end synthesis: wire the generator and verifier into the CEGIS
//! engine (the paper's Table-1 experiment, "time to synthesize first
//! solution"). Synthesis is one serial loop on one core, as in the paper,
//! and the generator has one configuration: region-form σ and the
//! replay-gated region BFS are always on (DESIGN.md §11).

use crate::generator::{FeasibilityMode, Proposal, SmtGenerator};
use crate::replay::TraceReplay;
use crate::template::{CcaSpec, TemplateShape};
use crate::verifier::{CcaVerifier, CertAudit, VerifyConfig};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_cegis::{BatchProposal, Budget, Generator, Outcome, Stats, Verdict, Verifier};
use ccmatic_num::Rat;
use ccmatic_smt::Interrupt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// The default of [`SynthOptions::dispatch_min`], which nothing reads. Kept
/// only for the `perfbench/` workloads that name it.
pub const DEFAULT_DISPATCH_MIN: u128 = 1024;

/// Which of the paper's §3.1.2 optimizations to enable — the three columns
/// of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptMode {
    /// No optimizations: exact-trace feasibility, first counterexample.
    Baseline,
    /// Range pruning (RP).
    RangePruning,
    /// Range pruning + worst-case counterexamples (RP+WCE).
    RangePruningWce,
}

impl OptMode {
    /// The feasibility encoding this mode uses.
    pub fn feasibility(self) -> FeasibilityMode {
        match self {
            OptMode::Baseline => FeasibilityMode::Baseline,
            _ => FeasibilityMode::RangePruning,
        }
    }

    /// Whether the verifier maximizes counterexample ranges.
    pub fn worst_case(self) -> bool {
        matches!(self, OptMode::RangePruningWce)
    }

    /// Table-1 column label.
    pub fn label(self) -> &'static str {
        match self {
            OptMode::Baseline => "Baseline",
            OptMode::RangePruning => "RP",
            OptMode::RangePruningWce => "RP+WCE",
        }
    }
}

/// All knobs of one synthesis run.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// The search space (Table 1's `Params`/`Domain` columns).
    pub shape: TemplateShape,
    /// Network model shape.
    pub net: NetConfig,
    /// Performance targets.
    pub thresholds: Thresholds,
    /// Optimization level (Table 1's method columns).
    pub mode: OptMode,
    /// Loop budget.
    pub budget: Budget,
    /// WCE binary-search precision.
    pub wce_precision: Rat,
    /// Not read: the verifier always reuses one solver through push/pop
    /// scopes. Kept only for the `perfbench/` workloads, like `threads`.
    pub incremental: bool,
    /// Not read: synthesis always runs one serial loop. Kept only so the
    /// `SynthOptions` literals in the `perfbench/` workloads compile.
    pub threads: usize,
    /// Not read: the search consumes no randomness. Kept only for the
    /// `perfbench/` workloads, like `threads`.
    pub seed: u64,
    /// Not read. Kept only for the `perfbench/` workloads, like `threads`.
    pub dispatch_min: u128,
    /// Certify every verifier verdict: UNSAT answers must carry a
    /// checker-accepted DRAT+Farkas certificate, SAT answers an
    /// exact-audited model (see [`VerifyConfig::certify`]).
    pub certify: bool,
    /// Not read: the generator always runs region pruning (region-form σ
    /// and the replay-gated region BFS, DESIGN.md §11). Kept only for the
    /// `perfbench/` workloads, like `threads`.
    pub region_pruning: bool,
    /// Not read: every solver a run builds (verifier, generator, WCE
    /// probes) runs trail-synchronized theory solving. Kept only for the
    /// `perfbench/` workloads, like `threads`.
    pub theory_sync: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            shape: TemplateShape::no_cwnd_small(),
            net: NetConfig::default(),
            thresholds: Thresholds::default(),
            mode: OptMode::RangePruningWce,
            budget: Budget::default(),
            wce_precision: Rat::new(1i64.into(), 4i64.into()),
            incremental: true,
            threads: 1,
            seed: 0,
            dispatch_min: DEFAULT_DISPATCH_MIN,
            certify: false,
            region_pruning: true,
            theory_sync: true,
        }
    }
}

/// Outcome of [`synthesize`].
#[derive(Debug)]
pub struct SynthResult {
    /// Solution / no-solution / budget.
    pub outcome: Outcome<CcaSpec>,
    /// Loop statistics (iterations, generator/verifier split — the columns
    /// of Table 1).
    pub stats: Stats,
    /// Underlying verifier probes (exceeds verifier calls when WCE
    /// binary-searches).
    pub verifier_probes: u64,
    /// Certificate-audit totals of the run's verifier (all zero unless
    /// `opts.certify`).
    pub cert_audit: CertAudit,
}

/// Adapter: [`SmtGenerator`] as a [`ccmatic_cegis::Generator`].
///
/// `learn` skips a trace it has already asserted (a seed list may repeat
/// one), so each trace constraint enters the solver once.
pub struct GenAdapter {
    /// The wrapped SMT generator.
    pub inner: SmtGenerator,
    /// Always zero: no learned trace is dropped except an exact duplicate.
    /// Kept only for the `perfbench/` workloads that read it.
    pub cex_subsumed: u64,
    /// Every (refuted candidate, trace) pair actually asserted, in order —
    /// the duplicate filter of `learn` and the warm-start carry for the
    /// next sweep point.
    refuted_log: Vec<(CcaSpec, Trace)>,
}

impl GenAdapter {
    /// Wrap `inner` with an empty refuted log.
    pub fn new(inner: SmtGenerator) -> Self {
        GenAdapter { inner, cex_subsumed: 0, refuted_log: Vec::new() }
    }

    /// The (refuted candidate, trace) pairs asserted during this run, for
    /// warm-starting a neighboring problem instance. Call it after the run:
    /// `learn` filters duplicates against the log.
    pub fn take_refuted_log(&mut self) -> Vec<(CcaSpec, Trace)> {
        std::mem::take(&mut self.refuted_log)
    }

    /// Learn `(refuted, trace)` pairs carried from another problem instance
    /// (a neighboring sweep point, a fuzzer) before the first proposal.
    ///
    /// A trace the network model rejects (`ccac_model::check_trace`: a
    /// different shape, or a schedule the link cannot produce) is counted
    /// in `stats.warm_traces_rejected` and asserts nothing. Every other
    /// trace is learned and counted in `stats.warm_traces_seeded`. σ(A, τ)
    /// holds for every solution A on every network-feasible τ (DESIGN.md
    /// §12.1), so asserting it removes no solution whatever `refuted` is.
    /// The refuted candidate only decides whether the region BFS runs:
    /// through [`Generator::learn`] when it lies in the search space and
    /// the trace still refutes it here, as the trace constraint alone
    /// otherwise (an off-grid γ from a fuzzer, or a pair whose refutation
    /// did not survive a threshold change).
    pub(crate) fn seed(&mut self, pairs: &[(CcaSpec, Trace)], stats: &mut Stats) {
        let g0 = Instant::now();
        for (refuted, trace) in pairs {
            if ccac_model::check_trace(trace, &self.inner.replay.net).is_err() {
                stats.warm_traces_rejected += 1;
                continue;
            }
            if self.inner.contains(refuted) && self.inner.replay.refutes(refuted, trace) {
                self.learn(refuted, trace);
            } else {
                self.inner.learn(trace);
            }
            stats.warm_traces_seeded += 1;
        }
        stats.generator_time += g0.elapsed();
    }
}

impl Generator for GenAdapter {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn propose(&mut self) -> Option<CcaSpec> {
        self.propose_batch(1, None).candidates.pop()
    }

    fn learn(&mut self, candidate: &CcaSpec, cex: &Trace) {
        if self.refuted_log.iter().any(|(_, t)| t == cex) {
            return;
        }
        self.inner.learn_refuted(candidate, cex);
        self.refuted_log.push((candidate.clone(), cex.clone()));
    }

    /// At most one candidate, whatever `k`; honors `deadline`.
    fn propose_batch(&mut self, _k: usize, deadline: Option<Instant>) -> BatchProposal<CcaSpec> {
        let (candidates, interrupted) = match self.inner.propose(&Interrupt { deadline }) {
            Proposal::Candidate(spec) => (vec![spec], false),
            Proposal::Exhausted => (Vec::new(), false),
            Proposal::Interrupted => (Vec::new(), true),
        };
        BatchProposal { candidates, interrupted }
    }
}

/// Adapter: [`CcaVerifier`] as a [`ccmatic_cegis::Verifier`].
pub struct VerAdapter {
    /// The wrapped verifier. Probe counts and certificate-audit totals are
    /// read off `inner` directly after the run.
    pub inner: CcaVerifier,
}

impl VerAdapter {
    /// Wrap `inner`.
    pub fn new(inner: CcaVerifier) -> Self {
        VerAdapter { inner }
    }
}

impl Verifier for VerAdapter {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn verify(&mut self, candidate: &CcaSpec) -> Result<(), Trace> {
        self.inner.verify(candidate)
    }

    fn verify_interruptible(
        &mut self,
        candidate: &CcaSpec,
        deadline: Option<Instant>,
        _cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Trace> {
        self.inner.verify_interruptible(candidate, &Interrupt { deadline })
    }
}

/// The generator for `opts`.
fn make_generator(opts: &SynthOptions) -> GenAdapter {
    // Certify mode also certifies the *generator*: base-level exhaustion
    // claims then carry an UNSAT certificate (retained by the result
    // cache as the enumeration-completeness proof).
    let build = if opts.certify { SmtGenerator::new_certified } else { SmtGenerator::new };
    let inner = build(
        opts.shape.clone(),
        opts.net.clone(),
        opts.thresholds.clone(),
        opts.mode.feasibility(),
    );
    GenAdapter::new(inner)
}

fn verify_config(opts: &SynthOptions) -> VerifyConfig {
    VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: opts.mode.worst_case(),
        wce_precision: opts.wce_precision.clone(),
        certify: opts.certify,
        ..VerifyConfig::default()
    }
}

/// The trace replay matching `opts`' generator semantics. The CEGIS loop
/// no longer reads it; kept because `perfbench/` calls it.
pub fn make_replay(opts: &SynthOptions) -> TraceReplay {
    TraceReplay::new(opts.net.clone(), opts.thresholds.clone(), opts.mode.feasibility())
}

/// Build the generator/verifier pair for `opts`.
pub fn build_loop(opts: &SynthOptions) -> (GenAdapter, VerAdapter) {
    (make_generator(opts), VerAdapter::new(CcaVerifier::new(verify_config(opts))))
}

/// Run CEGIS until the first solution (or exhaustion/budget): the serial
/// loop, exactly [`synthesize_seeded`] with no seeds.
pub fn synthesize(opts: &SynthOptions) -> SynthResult {
    synthesize_seeded(opts, &[])
}

/// Serial CEGIS warm-started from externally found counterexamples —
/// the fuzzer's feedback path. Every `(refuted, trace)` seed that the
/// network model admits is learned before the first proposal
/// ([`GenAdapter`]'s seeding, shared with the sweep's cross-point warm
/// start in [`crate::enumerate`]), so a seed can come from a different
/// threshold point — or from a simulator — and still be used soundly.
pub fn synthesize_seeded(opts: &SynthOptions, seeds: &[(CcaSpec, Trace)]) -> SynthResult {
    let (mut generator, mut verifier) = build_loop(opts);
    let mut warm = Stats::default();
    generator.seed(seeds, &mut warm);
    let mut run = ccmatic_cegis::run(&mut generator, &mut verifier, &opts.budget);
    run.stats.generator_time += warm.generator_time;
    run.stats.warm_traces_seeded = warm.warm_traces_seeded;
    run.stats.warm_traces_rejected = warm.warm_traces_rejected;
    run.stats.regions_pruned = generator.inner.regions_pruned;
    SynthResult {
        outcome: run.outcome,
        stats: run.stats,
        verifier_probes: verifier.inner.solver_probes,
        cert_audit: verifier.inner.cert_audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_all_with;
    use crate::template::CoeffDomain;
    use ccmatic_cegis::{run_with_progress, Event};
    use ccmatic_num::int;
    use std::time::Duration;

    /// A reduced configuration that keeps unit-test times low: shorter
    /// horizon and lookback 3 (RoCC needs taps at t−1 and t−3, so lookback
    /// 3 still contains it: 3³·... candidates).
    fn quick_opts(mode: OptMode) -> SynthOptions {
        SynthOptions {
            shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
            net: NetConfig {
                horizon: 6,
                history: 4,
                link_rate: Rat::one(),
                jitter: 1,
                buffer: None,
            },
            thresholds: Thresholds::default(),
            mode,
            budget: Budget { max_iterations: 400, max_wall: Duration::from_secs(240) },
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            certify: false,
            ..SynthOptions::default()
        }
    }

    #[test]
    fn certified_synthesis_checks_every_unsat_verdict() {
        let opts = SynthOptions { certify: true, ..quick_opts(OptMode::RangePruningWce) };
        let result = synthesize(&opts);
        let Outcome::Solution(_) = result.outcome else { panic!("no solution") };
        // The accepting Pass verdict (and every certified infeasibility
        // probe before it) must have been replayed by the checker.
        assert!(result.cert_audit.checked >= 1, "accepting verdict must be certified");
        assert!(result.cert_audit.bytes > 0);
    }

    #[test]
    fn synthesis_finds_a_working_cca_with_rp_wce() {
        let opts = quick_opts(OptMode::RangePruningWce);
        let result = synthesize(&opts);
        match result.outcome {
            Outcome::Solution(spec) => {
                // Sound by construction, but double-check with a fresh
                // verifier.
                let mut v = CcaVerifier::new(VerifyConfig {
                    net: opts.net.clone(),
                    thresholds: opts.thresholds.clone(),
                    worst_case: false,
                    wce_precision: opts.wce_precision.clone(),
                    certify: false,
                    ..Default::default()
                });
                assert!(v.verify(&spec).is_ok(), "synthesized CCA failed re-verification: {spec}");
            }
            other => panic!("expected a solution, got {other:?}"),
        }
        assert!(result.stats.iterations >= 1);
    }

    #[test]
    fn synthesized_solution_resembles_rocc() {
        // In the small no-cwnd space the survivors are RoCC-like: rate
        // taps that sum to ~0 with a positive additive term, i.e. cwnd ≈
        // bytes delivered over a recent window + constant.
        let opts = quick_opts(OptMode::RangePruningWce);
        let result = synthesize(&opts);
        let Outcome::Solution(spec) = result.outcome else { panic!("no solution") };
        let tap_sum = spec.beta.iter().fold(Rat::zero(), |acc, b| &acc + b);
        assert!(tap_sum.is_zero(), "rate taps should cancel (rate-proportional rule), got {spec}");
        assert!(spec.gamma > int(0), "needs a positive additive term, got {spec}");
    }

    /// `opts` at queue-delay threshold `delay`.
    fn at_delay(opts: &SynthOptions, delay: i64) -> SynthOptions {
        let thresholds = Thresholds { delay: int(delay), ..opts.thresholds.clone() };
        SynthOptions { thresholds, ..opts.clone() }
    }

    /// The refuted-pair carry of the complete delay ≤ 3 enumeration, the
    /// seeds the golden seeded record uses at delay ≤ 4.
    fn delay_3_carry() -> Vec<(CcaSpec, Trace)> {
        let opts = at_delay(&quick_opts(OptMode::RangePruningWce), 3);
        enumerate_all_with(&opts, None, None).carry.refuted
    }

    /// Learn `seeds`, then run the loop through `run_with_progress`,
    /// blocking each solution and running again until the space is
    /// exhausted, `max_solutions` are found or the iteration budget runs
    /// out. At every proposal, assert that no trace learned so far (seeded
    /// or from the verifier) refutes the candidate: the generator's learned
    /// constraints exclude whatever `TraceReplay::refutes` kills. Returns
    /// the number of proposals and the last outcome.
    fn cross_check(
        opts: &SynthOptions,
        seeds: &[(CcaSpec, Trace)],
        max_solutions: usize,
    ) -> (u64, Outcome<CcaSpec>) {
        let (mut generator, mut verifier) = build_loop(opts);
        let mut warm = Stats::default();
        generator.seed(seeds, &mut warm);
        assert_eq!(warm.warm_traces_rejected, 0, "every seed must be learned");
        let replay = make_replay(opts);
        let mut learned: Vec<Trace> = seeds.iter().map(|(_, t)| t.clone()).collect();
        let (mut proposals, mut solutions) = (0, 0);
        loop {
            let run = run_with_progress(&mut generator, &mut verifier, &opts.budget, |e| match e {
                Event::Proposed(_, c) => {
                    proposals += 1;
                    if let Some(k) = learned.iter().position(|t| replay.refutes(c, t)) {
                        panic!("learned trace #{k} refutes proposal {c}");
                    }
                }
                Event::Refuted(_, _, t) => learned.push(t.clone()),
                Event::Certified(..) => {}
            });
            match run.outcome {
                Outcome::Solution(spec) if solutions + 1 < max_solutions => {
                    solutions += 1;
                    generator.inner.block(&spec);
                }
                outcome => return (proposals, outcome),
            }
        }
    }

    #[test]
    fn learned_traces_never_refute_a_later_proposal() {
        for mode in [OptMode::Baseline, OptMode::RangePruning, OptMode::RangePruningWce] {
            let (proposals, outcome) = cross_check(&quick_opts(mode), &[], usize::MAX);
            assert!(matches!(outcome, Outcome::NoSolution) && proposals > 1, "{mode:?}");
        }
        // cwnd/Small takes minutes to a first solution at this scale, so
        // only its first iterations are checked.
        let rp = quick_opts(OptMode::RangePruning);
        let opts = SynthOptions {
            shape: TemplateShape { use_cwnd: true, ..rp.shape.clone() },
            budget: Budget { max_iterations: 6, ..rp.budget.clone() },
            ..rp
        };
        let (proposals, outcome) = cross_check(&opts, &[], 1);
        assert!(matches!(outcome, Outcome::BudgetExhausted) && proposals == 6);
        let seeded = at_delay(&quick_opts(OptMode::RangePruningWce), 4);
        let (_, outcome) = cross_check(&seeded, &delay_3_carry(), usize::MAX);
        assert!(matches!(outcome, Outcome::NoSolution));
    }

    #[test]
    fn seed_that_no_longer_refutes_its_candidate_is_still_learned() {
        let opts = at_delay(&quick_opts(OptMode::RangePruningWce), 4);
        let replay = make_replay(&opts);
        let (kept, stale): (Vec<_>, Vec<_>) =
            delay_3_carry().into_iter().partition(|(c, t)| replay.refutes(c, t));
        assert!(!stale.is_empty(), "some delay-3 pair must not refute its candidate at delay 4");
        // With only the pairs that still refute learned, the first proposal
        // is one a stale trace refutes.
        let (mut generator, _) = build_loop(&opts);
        generator.seed(&kept, &mut Stats::default());
        let first = generator.propose().expect("a candidate");
        assert!(stale.iter().any(|(_, t)| replay.refutes(&first, t)), "{first}");
        // Learning the stale traces too excludes it and every later
        // candidate they refute.
        let mut all = kept;
        all.extend(stale);
        cross_check(&opts, &all, 1);
    }

    #[test]
    fn traces_the_network_rejects_are_not_learned() {
        let opts = quick_opts(OptMode::RangePruningWce);
        let broken = CcaSpec { alpha: vec![], beta: vec![Rat::zero(); 3], gamma: Rat::zero() };
        let cex = CcaVerifier::new(verify_config(&opts)).verify(&broken).expect_err("broken");
        // One step short of the net's horizon.
        let mut short = cex.clone();
        short.t_max -= 1;
        for col in [&mut short.a, &mut short.s, &mut short.w, &mut short.l, &mut short.cwnd] {
            col.pop();
        }
        // S(T) one above the token line C·(T + h) − W(T).
        let mut raised = cex;
        let (t, i) = (raised.t_max, raised.s.len() - 1);
        let tokens =
            &(&opts.net.link_rate * &Rat::from(t + opts.net.history as i64)) - raised.w_at(t);
        raised.s[i] = &tokens + &Rat::one();
        raised.a[i] = raised.a[i].clone().max(raised.s[i].clone());
        let why = ccac_model::check_trace(&raised, &opts.net).unwrap_err();
        assert!(why.contains("tokens"), "{why}");

        let cold = synthesize(&opts);
        let seeded = synthesize_seeded(&opts, &[(broken.clone(), short), (broken, raised)]);
        assert_eq!((seeded.stats.warm_traces_seeded, seeded.stats.warm_traces_rejected), (0, 2));
        assert_eq!(format!("{:?}", seeded.outcome), format!("{:?}", cold.outcome));
        assert_eq!(seeded.stats.iterations, cold.stats.iterations);
        assert_eq!(seeded.verifier_probes, cold.verifier_probes);
    }
}
