//! The fuzzing engine: a seeded genetic search over schedule genomes,
//! with an exact-arithmetic confirmation tier and a verifier cross-check.
//!
//! # Pipeline
//!
//! 1. **Screen** (`f64`): every genome runs through the simulator
//!    ([`crate::fitness`]); the score is the margin to an objective
//!    violation, giving selection a gradient before any genome fails.
//! 2. **Confirm** (exact, spec targets only): a screened violation the
//!    corpus could still admit ([`Corpus::admits`]) is lifted to an exact
//!    rational trace ([`ccmatic::lift`]), gated through
//!    the native model checker (`ccac_model::check_trace` — partial waste
//!    can leave the feasibility band; such lifts are counted, not
//!    claimed), and judged by [`TraceReplay::refutes`] — the same verdict
//!    the synthesizer's own learn sites use.
//! 3. **Cross-check**: the SMT verifier rules on the target once,
//!    up front. A confirmed concrete failure on a candidate the verifier
//!    *certified* is a **model gap**: the UNSAT claim said this trace
//!    cannot exist, and here it is. Gaps are shrunk
//!    ([`crate::shrink()`]) and dumped as replayable JSON artifacts.
//! 4. **Feedback**: the corpus exports `(candidate, trace)` seeds for
//!    [`ccmatic::synth::synthesize_seeded`], warm-starting CEGIS with
//!    fuzz-found refutations.
//!
//! Everything is driven by one [`SmallRng`] stream; a `(config, seed)`
//! pair maps to exactly one report, bit for bit ([`FuzzReport::digest`]).

use crate::corpus::{genome_json, trace_json, Corpus, CorpusEntry};
use crate::fitness::{Fitness, FitnessConfig, ModelCca, Screen};
use crate::genome::{ScheduleGenome, BACKLOG_MAX, GENE_STEPS};
use crate::shrink::shrink;
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic::generator::FeasibilityMode;
use ccmatic::json::Json;
use ccmatic::lift::{LiftConfig, LiftError, Lifter};
use ccmatic::replay::TraceReplay;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{rat, Rat, SmallRng};
use ccmatic_simnet::{AimdCca, Cca, ConstCwnd};
use std::collections::HashSet;

/// What the fuzzer attacks.
#[derive(Clone, Debug)]
pub enum FuzzTarget {
    /// A linear-template candidate: full pipeline — exact confirmation,
    /// verifier cross-check, CEGIS seeds.
    Spec(CcaSpec),
    /// The simulator's stateful AIMD caricature: screen tier only (no
    /// exact model semantics exist for it, so no gap claims).
    Aimd,
    /// A fixed window, screen tier only.
    ConstSim(f64),
}

impl FuzzTarget {
    /// Diagnostic name.
    pub fn name(&self) -> String {
        match self {
            FuzzTarget::Spec(spec) => spec.to_string(),
            FuzzTarget::Aimd => "aimd".into(),
            FuzzTarget::ConstSim(c) => format!("const-sim({c})"),
        }
    }
}

/// All knobs of one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// RNG seed — the whole run is a pure function of `(config, seed)`.
    pub seed: u64,
    /// Generations to evolve.
    pub generations: usize,
    /// Population size (≥ 4).
    pub population: usize,
    /// Network shape shared by screen, lift, replay, and verifier.
    pub net: NetConfig,
    /// The objective being attacked.
    pub thresholds: Thresholds,
    /// Round-0 cwnd floor (model `cwnd(−h)`).
    pub initial_cwnd: Rat,
    /// The CCA under attack.
    pub target: FuzzTarget,
    /// Skip the up-front SMT verify (no model-gap detection; used by
    /// callers that already know the verdict or only want failures).
    pub skip_verify: bool,
}

impl FuzzConfig {
    /// Conservative defaults against a given target: 30 generations of 24
    /// genomes on the default lossless net.
    pub fn new(target: FuzzTarget, seed: u64) -> Self {
        FuzzConfig {
            seed,
            generations: 30,
            population: 24,
            net: NetConfig::default(),
            thresholds: Thresholds::default(),
            initial_cwnd: Rat::one(),
            target,
            skip_verify: false,
        }
    }
}

/// Run counters (the `--stats` fuzz line).
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzCounters {
    /// Genomes screened through the simulator.
    pub genomes_evaluated: u64,
    /// Distinct confirmed failures (exact for spec targets, screened for
    /// sim-only targets).
    pub failures_found: u64,
    /// Confirmed failures on a verifier-certified target — each one is a
    /// soundness bug in the encoding.
    pub model_gaps: u64,
    /// Corpus traces asserted into a seeded CEGIS run (filled by the
    /// caller that runs [`ccmatic::synth::synthesize_seeded`]).
    pub cex_seeded: u64,
    /// Among lifted genomes, those whose lift left the model's feasibility
    /// band (expected under partial waste), discarded unclaimed.
    pub lift_infeasible: u64,
    /// Screened violations never lifted: the corpus was full and their
    /// score could not evict its lowest entry, so no exact verdict could
    /// have changed the report.
    pub confirm_skipped: u64,
}

/// A minimized, replayable soundness violation: the verifier certified
/// `spec`, yet `genome`'s schedule concretely drives it to an objective
/// violation inside the model's feasibility band.
#[derive(Clone, Debug)]
pub struct ModelGapReport {
    /// The certified-yet-broken candidate.
    pub spec: CcaSpec,
    /// The shrunk schedule.
    pub genome: ScheduleGenome,
    /// The exact lifted trace (passes `check_trace`, refutes `spec`).
    pub trace: Trace,
    /// Network the claim was made under.
    pub net: NetConfig,
    /// Thresholds the claim was made under.
    pub thresholds: Thresholds,
    /// The lift's initial cwnd.
    pub initial_cwnd: Rat,
}

impl ModelGapReport {
    /// Replayable JSON artifact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spec", Json::Str(self.spec.to_string())),
            (
                "coefficients",
                Json::obj(vec![
                    (
                        "alpha",
                        Json::Arr(
                            self.spec.alpha.iter().map(|r| Json::Str(r.to_string())).collect(),
                        ),
                    ),
                    (
                        "beta",
                        Json::Arr(
                            self.spec.beta.iter().map(|r| Json::Str(r.to_string())).collect(),
                        ),
                    ),
                    ("gamma", Json::Str(self.spec.gamma.to_string())),
                ]),
            ),
            ("genome", genome_json(&self.genome)),
            (
                "net",
                Json::obj(vec![
                    ("horizon", Json::UInt(self.net.horizon as u64)),
                    ("history", Json::UInt(self.net.history as u64)),
                    ("link_rate", Json::Str(self.net.link_rate.to_string())),
                    ("jitter", Json::UInt(self.net.jitter as u64)),
                ]),
            ),
            (
                "thresholds",
                Json::obj(vec![
                    ("util", Json::Str(self.thresholds.util.to_string())),
                    ("delay", Json::Str(self.thresholds.delay.to_string())),
                ]),
            ),
            ("initial_cwnd", Json::Str(self.initial_cwnd.to_string())),
            ("trace", trace_json(&self.trace)),
        ])
    }
}

/// Outcome of a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Run counters.
    pub counters: FuzzCounters,
    /// Best screening score per generation (the fitness trajectory).
    pub best_fitness: Vec<f64>,
    /// The up-front verifier verdict on the target (`None` for sim-only
    /// targets or `skip_verify`).
    pub verifier_passed: Option<bool>,
    /// Minimized soundness violations (capped; `counters.model_gaps` keeps
    /// the true count).
    pub gaps: Vec<ModelGapReport>,
    /// Confirmed failures, ready for replay or CEGIS seeding.
    pub corpus: Corpus,
}

/// Cap on *stored* (shrunk + dumped) gap reports per run; shrinking is
/// expensive and one minimized witness per encoding bug is plenty.
const MAX_GAP_REPORTS: usize = 8;

impl FuzzReport {
    /// Deterministic content digest (FNV-1a over counters, the fitness
    /// trajectory's bit patterns, and corpus/gap genome fingerprints) —
    /// two runs of the same `(config, seed)` must produce equal digests.
    /// `confirm_skipped` is left out: it counts work avoided, not found.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        let c = &self.counters;
        for v in [c.genomes_evaluated, c.failures_found, c.model_gaps, c.lift_infeasible] {
            eat(v);
        }
        for f in &self.best_fitness {
            eat(f.to_bits());
        }
        for e in self.corpus.entries() {
            eat(e.genome.fingerprint());
        }
        for g in &self.gaps {
            eat(g.genome.fingerprint());
        }
        h
    }

    /// The `--stats` line.
    pub fn stats_line(&self) -> String {
        let c = &self.counters;
        format!(
            "fuzz: genomes evaluated {} · failures {} · model gaps {} · cex seeded {} · \
             confirm skipped {}",
            c.genomes_evaluated, c.failures_found, c.model_gaps, c.cex_seeded, c.confirm_skipped
        )
    }

    /// Machine-readable report (per-run column of `BENCH_fuzz.json`).
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        Json::obj(vec![
            (
                "counters",
                Json::obj(vec![
                    ("genomes_evaluated", Json::UInt(c.genomes_evaluated)),
                    ("failures_found", Json::UInt(c.failures_found)),
                    ("model_gaps", Json::UInt(c.model_gaps)),
                    ("cex_seeded", Json::UInt(c.cex_seeded)),
                    ("lift_infeasible", Json::UInt(c.lift_infeasible)),
                    ("confirm_skipped", Json::UInt(c.confirm_skipped)),
                ]),
            ),
            ("verifier_passed", self.verifier_passed.map(Json::Bool).unwrap_or(Json::Null)),
            ("best_fitness", Json::Arr(self.best_fitness.iter().map(|&f| Json::Num(f)).collect())),
            ("gaps", Json::Arr(self.gaps.iter().map(ModelGapReport::to_json).collect())),
            ("corpus_size", Json::UInt(self.corpus.len() as u64)),
            ("digest", Json::Str(format!("{:016x}", self.digest()))),
        ])
    }
}

fn verify_target(cfg: &FuzzConfig, spec: &CcaSpec) -> bool {
    let mut verifier = CcaVerifier::new(VerifyConfig {
        net: cfg.net.clone(),
        thresholds: cfg.thresholds.clone(),
        worst_case: false,
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    });
    verifier.verify(spec).is_ok()
}

/// The screen's CCA for one run, built once. `ModelCca` and `ConstCwnd`
/// are stateless; AIMD carries its window, so it restarts per genome.
enum ScreenCca {
    Model(ModelCca),
    Aimd(AimdCca),
    Const(ConstCwnd),
}

impl ScreenCca {
    fn new(target: &FuzzTarget) -> Self {
        match target {
            FuzzTarget::Spec(spec) => ScreenCca::Model(ModelCca::new(spec)),
            FuzzTarget::Aimd => ScreenCca::Aimd(AimdCca::standard()),
            FuzzTarget::ConstSim(c) => ScreenCca::Const(ConstCwnd(*c)),
        }
    }

    /// The CCA in its start state, for the next genome.
    fn fresh(&mut self) -> &mut dyn Cca {
        match self {
            ScreenCca::Model(cca) => cca,
            ScreenCca::Aimd(cca) => {
                *cca = AimdCca::standard();
                cca
            }
            ScreenCca::Const(cca) => cca,
        }
    }
}

/// Structured first generation: the benign baseline, classic adversaries,
/// and random fill — so the search starts from the known attack archetypes
/// instead of pure noise.
fn initial_population(rng: &mut SmallRng, rounds: usize, population: usize) -> Vec<ScheduleGenome> {
    let mut pop = Vec::with_capacity(population);
    pop.push(ScheduleGenome::ideal(rounds));
    // Permanent stall at the service floor.
    let mut stall = ScheduleGenome::ideal(rounds);
    stall.lambdas.fill(0);
    pop.push(stall);
    // Sawtooth jitter.
    let mut saw = ScheduleGenome::ideal(rounds);
    for (u, l) in saw.lambdas.iter_mut().enumerate() {
        *l = if u % 2 == 0 { 0 } else { GENE_STEPS };
    }
    pop.push(saw);
    // Ideal link, maximal initial queue.
    let mut flood = ScheduleGenome::ideal(rounds);
    flood.backlog_q = BACKLOG_MAX;
    pop.push(flood);
    while pop.len() < population {
        pop.push(ScheduleGenome::random(rng, rounds));
    }
    pop.truncate(population);
    pop
}

/// Evolve schedules against the target. Deterministic in `(cfg)`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    assert!(cfg.population >= 4, "population must hold elites + parents");
    assert!(cfg.net.buffer.is_none(), "fuzzing is defined for the lossless scope");
    let rounds = cfg.net.history + cfg.net.horizon;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let fitness_cfg = FitnessConfig {
        net: cfg.net.clone(),
        thresholds: cfg.thresholds.clone(),
        initial_cwnd: cfg.initial_cwnd.to_f64(),
    };
    let replay =
        TraceReplay::new(cfg.net.clone(), cfg.thresholds.clone(), FeasibilityMode::RangePruning);

    let (spec, verifier_passed) = match &cfg.target {
        FuzzTarget::Spec(spec) => {
            let passed = (!cfg.skip_verify).then(|| verify_target(cfg, spec));
            (Some(spec.clone()), passed)
        }
        _ => (None, None),
    };

    let mut counters = FuzzCounters::default();
    let mut corpus = Corpus::new();
    let mut gaps: Vec<ModelGapReport> = Vec::new();
    let mut best_fitness = Vec::with_capacity(cfg.generations);
    // Genomes already pushed through the exact tier (by fingerprint), so
    // elites re-screened every generation aren't re-lifted every time.
    let mut confirmed: HashSet<u64> = HashSet::new();

    let mut screen = Screen::new(&fitness_cfg);
    let mut lift = ExactLift::new(cfg);
    let mut cca = ScreenCca::new(&cfg.target);
    let mut population = initial_population(&mut rng, rounds, cfg.population);
    // Breeding writes each generation into the previous one's genomes, and
    // the score and rank buffers are reused, so after the first generation
    // a generation's screen and breeding allocate nothing.
    let mut next = population.clone();
    let mut scored: Vec<Fitness> = Vec::with_capacity(cfg.population);
    let mut order: Vec<usize> = Vec::with_capacity(cfg.population);
    for _gen in 0..cfg.generations {
        // Screen.
        scored.clear();
        for g in population.iter_mut() {
            counters.genomes_evaluated += 1;
            let backlog = g.backlog_f64();
            scored.push(screen.evaluate(cca.fresh(), g, backlog));
        }
        best_fitness.push(scored.iter().map(|f| f.score).fold(f64::NEG_INFINITY, f64::max));

        // Confirm flagged genomes.
        for (genome, fit) in population.iter().zip(&scored) {
            if fit.violated.is_none() || !confirmed.insert(genome.fingerprint()) {
                continue;
            }
            match &spec {
                Some(spec) => confirm_exact(
                    cfg,
                    spec,
                    &replay,
                    &mut lift,
                    genome,
                    fit.score,
                    verifier_passed,
                    &mut counters,
                    &mut corpus,
                    &mut gaps,
                ),
                None => {
                    // Sim-only target: the screen verdict is all there is.
                    let admitted = corpus.add(CorpusEntry {
                        genome: genome.clone(),
                        trace: None,
                        score: fit.score,
                    });
                    if admitted {
                        counters.failures_found += 1;
                    }
                }
            }
        }

        // Select & breed (elitism + tournament), deterministically. The
        // index tie-break makes the order total, so an unstable sort
        // ranks exactly as a stable one would.
        let by_score =
            |&a: &usize, &b: &usize| scored[b].score.total_cmp(&scored[a].score).then(a.cmp(&b));
        order.clear();
        order.extend(0..scored.len());
        order.sort_unstable_by(by_score);
        let elites = 2.min(scored.len());
        let tournament = |rng: &mut SmallRng| -> usize {
            let mut best = rng.gen_range_usize(0, scored.len());
            for _ in 0..2 {
                let other = rng.gen_range_usize(0, scored.len());
                if scored[other].score > scored[best].score {
                    best = other;
                }
            }
            best
        };
        for (k, child) in next.iter_mut().enumerate() {
            if k < elites {
                child.clone_from(&population[order[k]]);
                continue;
            }
            let a = tournament(&mut rng);
            if rng.gen_bool(0.7) {
                let b = tournament(&mut rng);
                population[a].crossover_into(&population[b], &mut rng, child);
            } else {
                child.clone_from(&population[a]);
            }
            child.mutate(&mut rng);
            if rng.gen_bool(0.3) {
                child.mutate(&mut rng);
            }
        }
        std::mem::swap(&mut population, &mut next);
    }

    FuzzReport { counters, best_fitness, verifier_passed, gaps, corpus }
}

/// The exact tier's reusable lift state: one lift configuration whose
/// schedule each genome overwrites in place, and one [`Lifter`]. Nearly
/// every lift of a broken window stops at an early round, and such a lift
/// allocates nothing once the buffers have grown.
struct ExactLift {
    cfg: LiftConfig,
    lifter: Lifter,
}

impl ExactLift {
    fn new(cfg: &FuzzConfig) -> Self {
        ExactLift {
            cfg: LiftConfig {
                initial_cwnd: cfg.initial_cwnd.clone(),
                ..LiftConfig::ideal(cfg.net.clone())
            },
            lifter: Lifter::default(),
        }
    }

    /// `lift_checked` of `spec` under `genome`'s schedule.
    fn lift(&mut self, spec: &CcaSpec, genome: &ScheduleGenome) -> Result<Trace, LiftError> {
        genome.write_lift_config(&mut self.cfg);
        self.lifter.lift_checked(spec, &self.cfg)
    }
}

/// The exact tier for one flagged genome: admission gate → lift →
/// feasibility gate → replay verdict → corpus/gap bookkeeping.
///
/// The admission gate comes first because a broken window's flagged
/// genomes all score alike (a constant cwnd's Δcwnd margin is 0), so once
/// the corpus is full nearly every later lift would be thrown away by
/// [`Corpus::add`]; skipping it leaves the corpus, the failure and gap
/// counts and the gaps exactly as they were.
#[allow(clippy::too_many_arguments)]
fn confirm_exact(
    cfg: &FuzzConfig,
    spec: &CcaSpec,
    replay: &TraceReplay,
    lift: &mut ExactLift,
    genome: &ScheduleGenome,
    score: f64,
    verifier_passed: Option<bool>,
    counters: &mut FuzzCounters,
    corpus: &mut Corpus,
    gaps: &mut Vec<ModelGapReport>,
) {
    if !corpus.admits(score) {
        counters.confirm_skipped += 1;
        return;
    }
    let trace = match lift.lift(spec, genome) {
        Ok(trace) => trace,
        Err(_) => {
            counters.lift_infeasible += 1;
            return;
        }
    };
    if !replay.refutes(spec, &trace) {
        // The screen runs this trajectory bit for bit (dyadic genes), so
        // this only fires if the `f64` verdict and the exact one part
        // ways; the exact one is authoritative.
        return;
    }
    let admitted =
        corpus.add(CorpusEntry { genome: genome.clone(), trace: Some(trace.clone()), score });
    if !admitted {
        return;
    }
    counters.failures_found += 1;
    if verifier_passed == Some(true) {
        // The verifier said no such trace exists. Minimize and report.
        counters.model_gaps += 1;
        if gaps.len() < MAX_GAP_REPORTS {
            // `shrink` keeps every edit the predicate accepts, so the last
            // trace accepted here is the shrunk genome's own lift.
            let mut small_trace = trace;
            let mut still_fails = |g: &ScheduleGenome| match lift.lift(spec, g) {
                Ok(t) if replay.refutes(spec, &t) => {
                    small_trace = t;
                    true
                }
                _ => false,
            };
            let small = shrink(genome, &mut still_fails);
            gaps.push(ModelGapReport {
                spec: spec.clone(),
                genome: small,
                trace: small_trace,
                net: cfg.net.clone(),
                thresholds: cfg.thresholds.clone(),
                initial_cwnd: cfg.initial_cwnd.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic::known;
    use ccmatic::lift::lift_checked;
    use ccmatic_num::int;

    fn net(history: usize) -> NetConfig {
        NetConfig { horizon: 6, history, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    fn quick(target: FuzzTarget, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            generations: 8,
            population: 16,
            net: net(5),
            thresholds: Thresholds::default(),
            initial_cwnd: Rat::one(),
            target,
            skip_verify: false,
        }
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let cfg = quick(FuzzTarget::Spec(known::const_cwnd(int(6))), 42);
        let (a, b) = (run_fuzz(&cfg), run_fuzz(&cfg));
        assert_eq!(a.digest(), b.digest(), "same (config, seed) must be bit-identical");
        let other = run_fuzz(&quick(FuzzTarget::Spec(known::const_cwnd(int(6))), 43));
        assert_ne!(a.digest(), other.digest(), "different seeds should explore differently");
    }

    #[test]
    fn broken_const_window_yields_exact_failures_and_no_gap() {
        // cwnd = 6 BDP over a delay threshold of 4: a genuine objective
        // violation the verifier also refutes — failures yes, gaps no.
        let cfg = quick(FuzzTarget::Spec(known::const_cwnd(int(6))), 7);
        let report = run_fuzz(&cfg);
        assert_eq!(report.verifier_passed, Some(false));
        assert!(
            report.counters.failures_found > 0,
            "fuzzer missed the standing queue of a cwnd-6 flow: {:?}",
            report.counters
        );
        assert_eq!(report.counters.model_gaps, 0);
        assert!(!report.corpus.is_empty());
        assert!(report.corpus.entries().iter().all(|e| e.trace.is_some()));
    }

    #[test]
    fn verified_rocc_yields_no_failures_and_no_gaps() {
        // Soundness: every corpus admission replays exactly; a verified
        // CCA admits no exact failure on any schedule, so zero failures
        // and zero gaps — on every seed we try.
        for seed in [1, 2] {
            let report = run_fuzz(&quick(FuzzTarget::Spec(known::rocc()), seed));
            assert_eq!(report.verifier_passed, Some(true));
            assert_eq!(
                report.counters.model_gaps, 0,
                "model gap claimed against verified RoCC (seed {seed})"
            );
            assert_eq!(
                report.counters.failures_found, 0,
                "exact failure claimed against verified RoCC (seed {seed})"
            );
        }
    }

    #[test]
    fn sim_only_target_collects_screen_failures_without_claims() {
        let report = run_fuzz(&quick(FuzzTarget::Aimd, 11));
        assert_eq!(report.verifier_passed, None, "sim-only targets make no verifier claim");
        assert_eq!(report.counters.model_gaps, 0);
        assert!(report.corpus.entries().iter().all(|e| e.trace.is_none()));
    }

    /// The run's reused screen (one `Screen`, one `ScreenCca`) scores
    /// every genome bit for bit as a fresh one-shot `evaluate` on a fresh
    /// CCA and the genome's `TableSchedule` does, genome after genome, so
    /// no simulator or CCA state leaks from one genome into the next.
    #[test]
    fn reused_screen_matches_one_shot_evaluate() {
        let cfg = quick(FuzzTarget::Aimd, 0);
        let fitness_cfg = FitnessConfig {
            net: cfg.net.clone(),
            thresholds: cfg.thresholds.clone(),
            initial_cwnd: 1.0,
        };
        let rounds = cfg.net.history + cfg.net.horizon;
        let targets = [
            FuzzTarget::Spec(known::eq_iii()),
            FuzzTarget::Spec(known::const_cwnd(int(6))),
            FuzzTarget::Aimd,
            FuzzTarget::ConstSim(0.5),
        ];
        let mut rng = SmallRng::seed_from_u64(29);
        let (mut flagged, mut clean) = (0, 0);
        for target in &targets {
            let mut screen = Screen::new(&fitness_cfg);
            let mut cca = ScreenCca::new(target);
            let mut scores = HashSet::new();
            for i in 0..400 {
                let mut genome = ScheduleGenome::random(&mut rng, rounds);
                let backlog = genome.backlog_f64();
                let reused = screen.evaluate(cca.fresh(), &mut genome, backlog);
                let mut fresh_cca: Box<dyn Cca> = match target {
                    FuzzTarget::Spec(spec) => Box::new(ModelCca::new(spec)),
                    FuzzTarget::Aimd => Box::new(AimdCca::standard()),
                    FuzzTarget::ConstSim(c) => Box::new(ConstCwnd(*c)),
                };
                let mut table = genome.table();
                let fresh =
                    crate::fitness::evaluate(fresh_cca.as_mut(), &mut table, backlog, &fitness_cfg);
                assert_eq!(
                    (reused.score.to_bits(), reused.violated),
                    (fresh.score.to_bits(), fresh.violated),
                    "{}: genome {i} scored differently on the reused screen",
                    target.name()
                );
                scores.insert(fresh.score.to_bits());
                if fresh.violated.is_some() {
                    flagged += 1;
                } else {
                    clean += 1;
                }
            }
            assert!(scores.len() > 10, "{}: only {} distinct scores", target.name(), scores.len());
        }
        assert!(flagged > 0 && clean > 0, "{flagged} flagged, {clean} clean");
    }

    /// A gap report carries the shrunk genome's own trace: the last trace
    /// the shrink predicate accepted, equal to lifting the shrunk genome
    /// again. The verdict is forced (`Some(true)` on a broken window) to
    /// reach the gap path.
    #[test]
    fn gap_report_trace_is_the_shrunk_genomes_lift() {
        let spec = known::const_cwnd(int(6));
        let cfg = quick(FuzzTarget::Spec(spec.clone()), 0);
        let replay = TraceReplay::new(
            cfg.net.clone(),
            cfg.thresholds.clone(),
            FeasibilityMode::RangePruning,
        );
        let rounds = cfg.net.history + cfg.net.horizon;
        // The first seeded noisy genome the window fails on; eager waste
        // keeps its lift feasible.
        let mut rng = SmallRng::seed_from_u64(4);
        let genome = std::iter::repeat_with(|| {
            let mut g = ScheduleGenome::random(&mut rng, rounds);
            g.omegas.fill(GENE_STEPS);
            g
        })
        .find(|g| {
            let trace = lift_checked(&spec, &g.lift_config(&cfg.net, &cfg.initial_cwnd));
            trace.is_ok_and(|t| replay.refutes(&spec, &t))
        })
        .unwrap();
        let (mut counters, mut corpus, mut gaps) = (FuzzCounters::default(), Corpus::new(), vec![]);
        confirm_exact(
            &cfg,
            &spec,
            &replay,
            &mut ExactLift::new(&cfg),
            &genome,
            1.0,
            Some(true),
            &mut counters,
            &mut corpus,
            &mut gaps,
        );
        assert_eq!(counters.model_gaps, 1, "{counters:?}");
        let gap = &gaps[0];
        assert_ne!(gap.genome, genome, "nothing was shrunk");
        let relift = lift_checked(&spec, &gap.genome.lift_config(&cfg.net, &cfg.initial_cwnd))
            .expect("the shrunk genome lifts feasibly");
        assert_eq!(gap.trace, relift);
        assert!(replay.refutes(&spec, &gap.trace));
    }

    #[test]
    fn corpus_seeds_feed_cegis() {
        let spec = known::const_cwnd(int(6));
        let cfg = quick(FuzzTarget::Spec(spec.clone()), 7);
        let report = run_fuzz(&cfg);
        let seeds = report.corpus.cegis_seeds(&spec);
        assert_eq!(seeds.len(), report.corpus.len());
        // Every seed refutes its candidate under the same configuration,
        // so synthesize_seeded learns it with the region BFS.
        let replay = TraceReplay::new(
            cfg.net.clone(),
            cfg.thresholds.clone(),
            FeasibilityMode::RangePruning,
        );
        for (cand, trace) in &seeds {
            assert!(replay.refutes(cand, trace));
        }
    }
}
