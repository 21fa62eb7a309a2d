//! End-to-end synthesis: wire the generator and verifier into the CEGIS
//! engine (the paper's Table-1 experiment, "time to synthesize first
//! solution").
//!
//! With `threads > 1` and a large enough search space, synthesis runs as a
//! *portfolio*: each worker owns a diversified generator/verifier pair, the
//! candidate space is partitioned into coefficient-prefix shards workers
//! steal from a shared queue, counterexamples are broadcast into every
//! worker's replay cache, and (on the incremental path) short learned
//! clauses flow between the workers' SAT cores through a
//! [`ClauseExchange`]. Tiny spaces skip all of that: below
//! [`SynthOptions::dispatch_min`] candidates the serial loop wins on
//! per-candidate overhead alone, so the dispatcher falls back to it.

use crate::generator::{FeasibilityMode, Proposal, SmtGenerator};
use crate::replay::TraceReplay;
use crate::template::{CcaSpec, TemplateShape};
use crate::verifier::{CcaVerifier, CertAudit, VerifyConfig};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic_cegis::{
    BatchProposal, Budget, Generator, Outcome, PortfolioWorker, Stats, StepOutcome, StepReport,
    Verdict, Verifier, WorkerStats,
};
use ccmatic_num::Rat;
use ccmatic_smt::{ClauseExchange, Interrupt, SearchConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Search spaces smaller than this run serially even when `threads > 1`:
/// spinning up worker solvers and barrier rounds costs more than a tiny
/// space's whole enumeration.
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
    /// Use the verifier's incremental (push/pop scope) path. Also gates
    /// clause sharing: only incremental workers share an identical base
    /// encoding (and therefore SAT variable numbering).
    pub incremental: bool,
    /// Worker count: 1 runs the serial loop, >1 the shard-stealing
    /// portfolio with this many diversified generator/verifier pairs.
    pub threads: usize,
    /// Base RNG seed for search diversification. Worker `w` searches under
    /// [`SearchConfig::diversified`]`(seed, w)`; fixed seeds make portfolio
    /// runs reproducible.
    pub seed: u64,
    /// Below this many candidates the portfolio dispatcher falls back to
    /// the serial loop regardless of `threads`.
    pub dispatch_min: u128,
    /// Certify every verifier verdict: UNSAT answers must carry a
    /// checker-accepted DRAT+Farkas certificate, SAT answers an
    /// exact-audited model (see [`VerifyConfig::certify`]).
    pub certify: bool,
    /// Region pruning (DESIGN.md §11): region-form σ encoding, the
    /// replay-verified dominance BFS, and counterexample-trace
    /// subsumption. On by default; the differential suite turns it off to
    /// pin pruned == unpruned outcomes.
    pub region_pruning: bool,
    /// Trail-synchronized incremental theory solving in every solver this
    /// run builds (verifier, generator, WCE probes). On by default; the
    /// `--no-theory-sync` escape hatch exists for same-build A/B timing
    /// and the trail-sync differential suite.
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
    /// Aggregate certificate-audit totals across all worker verifiers
    /// (all zero unless `opts.certify`).
    pub cert_audit: CertAudit,
    /// Per-worker portfolio counters (empty for serial runs).
    pub workers: Vec<WorkerStats>,
}

/// Adapter: [`SmtGenerator`] as a [`ccmatic_cegis::Generator`].
///
/// Deduplicates learned traces (the engine re-submits a counterexample it
/// already holds whenever the replay prefilter kills a candidate with it,
/// and asserting the same trace constraint twice only bloats the solver)
/// and — with region pruning on — *subsumes* them: a new trace whose kill
/// set is contained in an already-asserted trace's
/// ([`TraceReplay::subsumes`]) is dropped before assertion, keeping the
/// per-propose assertion set to the strongest traces only.
pub struct GenAdapter {
    /// The wrapped SMT generator.
    pub inner: SmtGenerator,
    /// Traces asserted into `inner` (the subsumption skip is sound only
    /// against traces that really are asserted, so a portfolio worker
    /// clears it whenever it enters or leaves a shard scope).
    learned: Vec<Trace>,
    /// Subsumption oracle; must match `inner`'s configuration.
    replayer: TraceReplay,
    /// Whether subsumption filtering is enabled (mirrors
    /// [`SynthOptions::region_pruning`]).
    subsume: bool,
    /// Traces dropped because an already-asserted trace subsumed them.
    pub cex_subsumed: u64,
    /// Every (refuted candidate, trace) pair actually asserted, in order —
    /// the warm-start carry for the next sweep point, which re-validates
    /// each pair against *its* thresholds before re-asserting.
    refuted_log: Vec<(CcaSpec, Trace)>,
}

impl GenAdapter {
    /// Wrap `inner` with an empty learned-trace set. `replayer` must be
    /// built from the same net/thresholds/mode as `inner`.
    pub fn new(inner: SmtGenerator, replayer: TraceReplay, subsume: bool) -> Self {
        GenAdapter {
            inner,
            learned: Vec::new(),
            replayer,
            subsume,
            cex_subsumed: 0,
            refuted_log: Vec::new(),
        }
    }

    /// The (refuted candidate, trace) pairs asserted during this run, for
    /// warm-starting a neighboring problem instance.
    pub fn take_refuted_log(&mut self) -> Vec<(CcaSpec, Trace)> {
        std::mem::take(&mut self.refuted_log)
    }

    /// Seed `(refuted, trace)` pairs carried from another problem instance
    /// (a neighboring sweep point, a fuzzer), re-gating each through the
    /// replay semantics of *this* configuration: pairs that still refute
    /// their candidate are learned before the first proposal (counted in
    /// `stats.warm_traces_seeded`), the rest are returned for the replay
    /// prefilter, where every later use is re-gated individually
    /// (`stats.warm_traces_rejected`).
    ///
    /// A seeded candidate need not lie in the search space (e.g. a fuzzed γ
    /// outside the coefficient domain; sweep pairs always do). The region
    /// BFS around a refuted point only makes sense for representable
    /// candidates, so an off-grid pair asserts its trace constraint alone.
    pub(crate) fn seed(&mut self, pairs: &[(CcaSpec, Trace)], stats: &mut Stats) -> Vec<Trace> {
        let g0 = Instant::now();
        let mut replay_seeds = Vec::new();
        for (refuted, trace) in pairs {
            if !self.replayer.refutes(refuted, trace) {
                stats.warm_traces_rejected += 1;
                replay_seeds.push(trace.clone());
                continue;
            }
            if self.inner.contains(refuted) {
                self.learn(refuted, trace);
            } else {
                self.inner.learn(trace);
            }
            stats.warm_traces_seeded += 1;
        }
        stats.generator_time += g0.elapsed();
        replay_seeds
    }

    /// Restrict the generator to one shard scope; what it learns there
    /// vanishes with the scope, so the learned set starts empty.
    fn enter_shard(&mut self, prefix: &[Rat]) {
        self.inner.enter_shard(prefix);
        self.learned.clear();
        self.refuted_log.clear();
    }

    /// Leave the current shard scope, forgetting what was learned in it.
    fn exit_shard(&mut self) {
        self.inner.exit_shard();
        self.learned.clear();
        self.refuted_log.clear();
    }
}

impl Generator for GenAdapter {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn propose(&mut self) -> Option<CcaSpec> {
        self.propose_batch(1, None).candidates.pop()
    }

    fn learn(&mut self, candidate: &CcaSpec, cex: &Trace) {
        // Canonicalize the waste schedule so equal-service traces from
        // distinct probes become comparable (subsumption requires waste
        // domination, and solver models carry arbitrary waste slack). Keep
        // the original when minimal waste no longer refutes the candidate
        // — canonicalization can move waste points, and the learned
        // constraint must exclude `candidate` for CEGIS to progress (see
        // `Trace::canonicalize_waste`).
        let mut canon = cex.clone();
        self.replayer.canonicalize(&mut canon);
        let cex = if self.replayer.refutes(candidate, &canon) { &canon } else { cex };
        if self.learned.iter().any(|t| t == cex) {
            return;
        }
        if self.subsume && self.learned.iter().any(|t| self.replayer.subsumes(t, cex)) {
            // An asserted trace already excludes everything this one
            // would (the refuted candidate included) — skip the assertion.
            self.cex_subsumed += 1;
            return;
        }
        self.inner.learn_refuted(candidate, cex);
        self.learned.push(cex.clone());
        self.refuted_log.push((candidate.clone(), cex.clone()));
    }

    /// At most one candidate, whatever `k`; honors `deadline`.
    fn propose_batch(&mut self, _k: usize, deadline: Option<Instant>) -> BatchProposal<CcaSpec> {
        let (candidates, interrupted) =
            match self.inner.propose(&Interrupt { deadline, cancel: None }) {
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
        cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Trace> {
        let interrupt = Interrupt { deadline, cancel: cancel.cloned() };
        self.inner.verify_interruptible(candidate, &interrupt)
    }
}

/// The serial loop's search configuration: the run seed with the default
/// (deterministic) policies, so single-threaded behaviour is unchanged
/// from the pre-portfolio code.
fn serial_search(opts: &SynthOptions) -> SearchConfig {
    SearchConfig { seed: opts.seed, ..SearchConfig::default() }
}

/// The generator for `opts` searching under `search`: the serial loop's
/// and every portfolio worker's.
fn make_generator(opts: &SynthOptions, search: SearchConfig) -> GenAdapter {
    // Certify mode also certifies the *generator*: base-level exhaustion
    // claims then carry an UNSAT certificate (retained by the result
    // cache as the enumeration-completeness proof).
    let build =
        if opts.certify { SmtGenerator::new_certified } else { SmtGenerator::new_with_config };
    let mut inner = build(
        opts.shape.clone(),
        opts.net.clone(),
        opts.thresholds.clone(),
        opts.mode.feasibility(),
        search,
    );
    inner.set_region_pruning(opts.region_pruning);
    inner.set_theory_sync(opts.theory_sync);
    GenAdapter::new(inner, make_replay(opts), opts.region_pruning)
}

fn verify_config(opts: &SynthOptions, search: SearchConfig) -> VerifyConfig {
    VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: opts.mode.worst_case(),
        wce_precision: opts.wce_precision.clone(),
        incremental: opts.incremental,
        certify: opts.certify,
        search,
        theory_sync: opts.theory_sync,
    }
}

/// The replay prefilter matching `opts`' generator semantics.
pub fn make_replay(opts: &SynthOptions) -> TraceReplay {
    TraceReplay::new(opts.net.clone(), opts.thresholds.clone(), opts.mode.feasibility())
}

/// Build the generator/verifier pair for `opts`.
pub fn build_loop(opts: &SynthOptions) -> (GenAdapter, VerAdapter) {
    (
        make_generator(opts, serial_search(opts)),
        VerAdapter::new(CcaVerifier::new(verify_config(opts, serial_search(opts)))),
    )
}

/// Partition the candidate space into shards for `workers` workers: each
/// shard pins a prefix of the coefficient vector (in [`CcaSpec::flat`]
/// order) to one combination of domain values. The prefix length is the
/// smallest that yields at least one shard per worker, capped one short of
/// the full coefficient count so a shard always leaves the generator a
/// real sub-space to search.
///
/// Shards are ordered lexicographically by domain position; the portfolio
/// resolves simultaneous solutions in favour of the lowest shard, so this
/// order is part of the deterministic-outcome contract.
pub fn shard_plan(shape: &TemplateShape, workers: usize) -> Vec<Vec<Rat>> {
    let domain = shape.domain.values();
    if domain.is_empty() {
        return Vec::new();
    }
    let max_prefix = shape.num_coefficients().saturating_sub(1).max(1);
    let mut prefix_len = 1usize;
    let mut count = domain.len();
    while count < workers && prefix_len < max_prefix {
        prefix_len += 1;
        count = count.saturating_mul(domain.len());
    }
    let mut prefixes: Vec<Vec<Rat>> = vec![Vec::new()];
    for _ in 0..prefix_len {
        let mut next = Vec::with_capacity(prefixes.len() * domain.len());
        for p in &prefixes {
            for v in &domain {
                let mut q = p.clone();
                q.push(v.clone());
                next.push(q);
            }
        }
        prefixes = next;
    }
    prefixes
}

/// One portfolio worker: a diversified generator/verifier pair plus the
/// broadcast-counterexample replay cache.
struct CcaWorker {
    /// Learns exactly like the serial loop's generator, inside the current
    /// shard scope.
    generator: GenAdapter,
    verifier: CcaVerifier,
    shards: Arc<Vec<Vec<Rat>>>,
    /// Every counterexample this worker knows (own + broadcast), fed to the
    /// replay prefilter. Outlives shards. With region pruning on, kept
    /// subsumption-reduced: only traces no other cached trace subsumes.
    cached: Vec<Trace>,
    /// Broadcast traces dropped from (or evicted out of) the replay cache
    /// by subsumption.
    cex_subsumed: u64,
}

impl PortfolioWorker for CcaWorker {
    type Candidate = CcaSpec;
    type Cex = Trace;

    fn enter_shard(&mut self, shard: usize) {
        self.generator.enter_shard(&self.shards[shard]);
    }

    fn exit_shard(&mut self) {
        self.generator.exit_shard();
    }

    fn cache_cex(&mut self, cex: Trace) {
        if self.cached.contains(&cex) {
            return;
        }
        let replay = &self.generator.replayer;
        if self.generator.subsume {
            // Subsumption at the exchange boundary: an incoming trace a
            // cached one subsumes is dropped; cached traces the incoming
            // one subsumes are evicted. Either way every kill the dropped
            // trace could score, a surviving trace scores too, so the
            // prefilter loses no power while the scan stays short.
            if self.cached.iter().any(|t| replay.subsumes(t, &cex)) {
                self.cex_subsumed += 1;
                return;
            }
            let before = self.cached.len();
            self.cached.retain(|t| !replay.subsumes(&cex, t));
            self.cex_subsumed += (before - self.cached.len()) as u64;
        }
        self.cached.push(cex);
    }

    fn exchange(&mut self, round: u64) -> (u64, u64) {
        self.verifier.exchange_clauses(round)
    }

    fn step(
        &mut self,
        deadline: Option<Instant>,
        cancel: &Arc<AtomicBool>,
    ) -> StepReport<CcaSpec, Trace> {
        if cancel.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d) {
            return StepReport::bare(StepOutcome::Interrupted);
        }
        let interrupt = Interrupt { deadline, cancel: Some(cancel.clone()) };

        let gen_start = Instant::now();
        let proposal = self.generator.inner.propose(&interrupt);
        let mut generator_time = gen_start.elapsed();
        let spec = match proposal {
            Proposal::Candidate(spec) => spec,
            Proposal::Exhausted => {
                return StepReport { generator_time, ..StepReport::bare(StepOutcome::Exhausted) }
            }
            Proposal::Interrupted => {
                return StepReport { generator_time, ..StepReport::bare(StepOutcome::Interrupted) }
            }
        };

        // Replay prefilter over the broadcast cache: a known trace that
        // kills the candidate saves a verifier call. Learning it pins the
        // kill into the generator for the rest of this shard.
        let replay = &self.generator.replayer;
        if let Some(trace) = self.cached.iter().find(|t| replay.refutes(&spec, t)) {
            let learn_start = Instant::now();
            self.generator.learn(&spec, trace);
            generator_time += learn_start.elapsed();
            return StepReport {
                replay_hits: 1,
                generator_time,
                ..StepReport::bare(StepOutcome::Refuted)
            };
        }

        let ver_start = Instant::now();
        let verdict = self.verifier.verify_interruptible(&spec, &interrupt);
        let verifier_time = ver_start.elapsed();
        match verdict {
            Verdict::Pass => StepReport {
                verifier_calls: 1,
                generator_time,
                verifier_time,
                ..StepReport::bare(StepOutcome::Solution(spec))
            },
            Verdict::Fail(trace) => {
                let learn_start = Instant::now();
                self.generator.learn(&spec, &trace);
                self.cache_cex(trace.clone());
                generator_time += learn_start.elapsed();
                StepReport {
                    new_cexs: vec![trace],
                    verifier_calls: 1,
                    generator_time,
                    verifier_time,
                    ..StepReport::bare(StepOutcome::Refuted)
                }
            }
            Verdict::Timeout => StepReport {
                verifier_calls: 1,
                generator_time,
                verifier_time,
                ..StepReport::bare(StepOutcome::Interrupted)
            },
        }
    }
}

fn synthesize_portfolio(opts: &SynthOptions) -> SynthResult {
    let shards = Arc::new(shard_plan(&opts.shape, opts.threads));
    // Clause sharing requires identical base encodings (and thus variable
    // numbering) across workers — only the incremental path has one.
    let exchange = opts.incremental.then(|| Arc::new(ClauseExchange::new(opts.threads)));
    let mut workers: Vec<CcaWorker> = (0..opts.threads)
        .map(|w| {
            let search = SearchConfig::diversified(opts.seed, w);
            let mut verifier = CcaVerifier::new(verify_config(opts, search.clone()));
            if let Some(ex) = &exchange {
                verifier.attach_exchange(ex.clone(), w);
            }
            CcaWorker {
                generator: make_generator(opts, search),
                verifier,
                shards: shards.clone(),
                cached: Vec::new(),
                cex_subsumed: 0,
            }
        })
        .collect();
    let mut run = ccmatic_cegis::run_portfolio(&mut workers, shards.len(), &opts.budget);
    run.stats.regions_pruned = workers.iter().map(|w| w.generator.inner.regions_pruned).sum();
    run.stats.cex_subsumed =
        workers.iter().map(|w| w.cex_subsumed + w.generator.cex_subsumed).sum();
    let verifier_probes = workers.iter().map(|w| w.verifier.solver_probes).sum();
    let mut cert_audit = CertAudit::default();
    for w in &workers {
        cert_audit.absorb(&w.verifier.cert_audit);
    }
    SynthResult {
        outcome: run.outcome,
        stats: run.stats,
        verifier_probes,
        cert_audit,
        workers: run.workers,
    }
}

/// Run CEGIS until the first solution (or exhaustion/budget).
///
/// `opts.threads == 1` — or a search space below `opts.dispatch_min` —
/// runs the serial loop with the concrete replay prefilter (exactly
/// [`synthesize_seeded`] with no seeds); otherwise the
/// space is split into coefficient-prefix shards and `opts.threads`
/// diversified workers race over them through
/// [`ccmatic_cegis::run_portfolio`], sharing counterexamples (and, on the
/// incremental path, learned clauses) as they go.
pub fn synthesize(opts: &SynthOptions) -> SynthResult {
    if opts.threads <= 1 || opts.shape.search_space_size() < opts.dispatch_min {
        synthesize_seeded(opts, &[])
    } else {
        synthesize_portfolio(opts)
    }
}

/// Serial CEGIS warm-started from externally found counterexamples —
/// the fuzzer's feedback path. Each `(refuted, trace)` seed is re-gated
/// through the replay semantics of *this* configuration before the first
/// proposal ([`GenAdapter`]'s seeding, shared with the sweep's cross-point
/// warm start in [`crate::enumerate`]), so a seed can come from a
/// different threshold point — or from a simulator — and still be used
/// soundly.
pub fn synthesize_seeded(opts: &SynthOptions, seeds: &[(CcaSpec, Trace)]) -> SynthResult {
    let (mut generator, mut verifier) = build_loop(opts);
    let mut warm = Stats::default();
    let replay_seeds = generator.seed(seeds, &mut warm);
    let replayer = make_replay(opts);
    let replay = |c: &CcaSpec, cex: &Trace| replayer.refutes(c, cex);
    let mut run = ccmatic_cegis::run_with_progress(
        &mut generator,
        &mut verifier,
        replay,
        &opts.budget,
        replay_seeds,
        |_| {},
    );
    run.stats.generator_time += warm.generator_time;
    run.stats.warm_traces_seeded = warm.warm_traces_seeded;
    run.stats.warm_traces_rejected = warm.warm_traces_rejected;
    run.stats.regions_pruned = generator.inner.regions_pruned;
    run.stats.cex_subsumed = generator.cex_subsumed;
    SynthResult {
        outcome: run.outcome,
        stats: run.stats,
        verifier_probes: verifier.inner.solver_probes,
        cert_audit: verifier.inner.cert_audit,
        workers: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::CoeffDomain;
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
            incremental: true,
            threads: 1,
            seed: 0,
            dispatch_min: DEFAULT_DISPATCH_MIN,
            certify: false,
            region_pruning: true,
            theory_sync: true,
        }
    }

    #[test]
    fn dominated_serial_trace_is_subsumed_before_assertion() {
        use ccmatic_cegis::Generator as _;
        let opts = quick_opts(OptMode::RangePruningWce);
        let mut gen = make_generator(&opts, serial_search(&opts));
        let cand = CcaSpec::zero(&opts.shape);

        // A hand-built counterexample to the zero CCA: nothing is ever
        // sent or served, so the floors force the link to waste the whole
        // token line (W(t) = C·(t+h)) and utilization is zero.
        let (t_min, t_max) = (opts.net.t_min(), opts.net.t_max());
        let h = opts.net.history as i64;
        let len = (t_max - t_min + 1) as usize;
        let zeros = vec![Rat::zero(); len];
        let cex = Trace {
            t_min,
            t_max,
            a: zeros.clone(),
            s: zeros.clone(),
            w: (t_min..=t_max).map(|t| int(t + h)).collect(),
            l: zeros.clone(),
            cwnd: zeros,
        };
        gen.learn(&cand, &cex);
        assert_eq!(gen.cex_subsumed, 0);

        // A second probe's trace: same service schedule and pre-history,
        // different replayed arrivals, and a differently-slacked waste
        // schedule — exactly how equal-service counterexamples from
        // distinct candidates used to differ before canonicalization.
        let mut other = cex.clone();
        other.a[len - 1] = int(1);
        let ceiling = int(t_max + h);
        for i in (h as usize)..len {
            other.w[i] = ceiling.clone();
        }
        assert_ne!(other, cex);
        gen.learn(&cand, &other);
        assert_eq!(gen.cex_subsumed, 1, "dominated serial trace must be dropped, not asserted");
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
                    incremental: true,
                    certify: false,
                    search: SearchConfig::default(),
                    theory_sync: true,
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

    #[test]
    fn shard_plan_covers_the_space_and_scales_with_workers() {
        let shape = TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small };
        // One worker: a single-coefficient prefix, 3 shards.
        let small = shard_plan(&shape, 1);
        assert_eq!(small.len(), 3);
        assert!(small.iter().all(|p| p.len() == 1));
        // Four workers: 3 < 4, so the prefix grows to 2 coefficients.
        let wide = shard_plan(&shape, 4);
        assert_eq!(wide.len(), 9);
        assert!(wide.iter().all(|p| p.len() == 2));
        // Every shard is distinct.
        for i in 0..wide.len() {
            for j in (i + 1)..wide.len() {
                assert_ne!(wide[i], wide[j]);
            }
        }
    }

    #[test]
    fn shard_plan_prefix_never_consumes_the_whole_template() {
        // 2 coefficients total (β1, γ): even with absurd worker counts the
        // prefix is capped at 1 coefficient, leaving the generator a real
        // sub-space per shard.
        let shape = TemplateShape { lookback: 1, use_cwnd: false, domain: CoeffDomain::Small };
        let plan = shard_plan(&shape, 64);
        assert_eq!(plan.len(), 3);
        assert!(plan.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn tiny_spaces_dispatch_serially_even_with_many_threads() {
        // 3⁴ = 81 < DEFAULT_DISPATCH_MIN: the dispatcher must fall back to
        // the serial loop, so the result carries no per-worker stats.
        let opts = SynthOptions { threads: 4, ..quick_opts(OptMode::RangePruningWce) };
        assert!(opts.shape.search_space_size() < opts.dispatch_min);
        let result = synthesize(&opts);
        let Outcome::Solution(_) = result.outcome else { panic!("no solution") };
        assert!(result.workers.is_empty(), "serial fallback must not spin up workers");
    }
}
