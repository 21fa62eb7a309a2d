//! The fuzz workload: `run_fuzz` with fuzz seed 7 against the four targets
//! of the repository's fuzz bench, on the ci network, population 64.
//!
//! It is the only workload that reaches the simulator screen, the lift,
//! the native CCAC checker and concrete replay. The broken constant windows
//! spend their time in the exact confirmation step; RoCC, which admits no
//! failure, spends it in the `f64` screen; Eq. (iii) adds an up-front
//! verifier call. A screen change and an exact-step change each have a
//! target where they show.

use crate::measure::{repeat_for, secs, Counters};
use crate::span::{in_span, Tracer};
use crate::{write_out, Args, Report};
use ccac_model::{check_trace, NetConfig, Thresholds};
use ccmatic::generator::FeasibilityMode;
use ccmatic::known;
use ccmatic::lift::lift_checked;
use ccmatic::replay::TraceReplay;
use ccmatic::template::CcaSpec;
use ccmatic_fuzz::{
    evaluate, run_fuzz, FitnessConfig, FuzzConfig, FuzzReport, FuzzTarget, ModelCca,
};
use ccmatic_num::{int, Rat};
use std::cell::RefCell;
use std::time::Instant;

/// Generations per target; the workload's length. A pass takes about 2 s,
/// so a run times about ten, and Eq. (iii)'s up-front verifier call
/// (~0.3 s) stays a minor share of a pass.
const GENERATIONS: usize = 500;

/// Repetitions of each micro-timed corpus call.
const MICRO_REPS: usize = 20;

/// Whether the fuzzer must break a target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// A broken window: at least one confirmed failure.
    Failure,
    /// Verified: no failure at all.
    NoFailure,
    /// Either, as long as no model gap appears.
    Either,
}

fn targets() -> Vec<(&'static str, CcaSpec, Expect)> {
    vec![
        ("const_cwnd_6", known::const_cwnd(int(6)), Expect::Failure),
        ("const_cwnd_0", known::const_cwnd(int(0)), Expect::Failure),
        ("rocc", known::rocc(), Expect::NoFailure),
        ("eq_iii", known::eq_iii(), Expect::Either),
    ]
}

/// The ci network (horizon 6), with history deep enough for the targets'
/// four-tap rules.
fn config(spec: &CcaSpec) -> FuzzConfig {
    FuzzConfig {
        seed: 7,
        generations: GENERATIONS,
        population: 64,
        net: NetConfig {
            horizon: 6,
            history: spec.beta.len().max(spec.alpha.len()) + 1,
            link_rate: Rat::one(),
            jitter: 1,
            buffer: None,
        },
        thresholds: Thresholds::default(),
        initial_cwnd: Rat::one(),
        target: FuzzTarget::Spec(spec.clone()),
        skip_verify: false,
    }
}

/// The configurations a pass runs, one per target.
fn configs() -> Vec<FuzzConfig> {
    targets().iter().map(|(_, spec, _)| config(spec)).collect()
}

/// One pass over the four targets: their reports and per-target walls.
struct PassResult {
    reports: Vec<FuzzReport>,
    walls: Vec<f64>,
    work: Counters,
}

impl PassResult {
    fn genomes(&self) -> u64 {
        self.reports.iter().map(|r| r.counters.genomes_evaluated).sum()
    }

    fn fingerprint(&self) -> String {
        let digests: Vec<String> =
            self.reports.iter().map(|r| format!("{:016x}", r.digest())).collect();
        format!("digests {} · pivots {}", digests.join(" "), self.work.pivots)
    }
}

/// `run_fuzz` on every target, each timed, optionally in a span per target.
fn fuzz_pass(tracer: Option<&RefCell<Tracer>>) -> (f64, PassResult) {
    let configs = configs();
    let before = Counters::now();
    let t0 = Instant::now();
    let mut reports = Vec::new();
    let mut walls = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        let t = Instant::now();
        reports.push(match tracer {
            Some(tr) => {
                tr.borrow_mut().set_iter(Some(i as u64));
                in_span(tr, "fuzz.run", || run_fuzz(cfg))
            }
            None => run_fuzz(cfg),
        });
        walls.push(secs(t));
    }
    let wall = secs(t0);
    (wall, PassResult { reports, walls, work: Counters::now().since(&before) })
}

/// Check every target's report against what it must yield.
fn check(report: &mut Report, pass: &PassResult) {
    for ((name, _, expect), r) in targets().iter().zip(&pass.reports) {
        let c = &r.counters;
        report.check(if c.model_gaps != 0 {
            Err(format!("{name}: {} model gaps", c.model_gaps))
        } else if *expect == Expect::Failure && c.failures_found == 0 {
            Err(format!("{name}: broken target survived the fuzzer"))
        } else if *expect == Expect::NoFailure && c.failures_found != 0 {
            Err(format!("{name}: {} failures claimed against a verified CCA", c.failures_found))
        } else {
            Ok(())
        });
    }
}

/// Mean nanoseconds per call of `f` over [`MICRO_REPS`] rounds of `items`.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for _ in 0..MICRO_REPS {
        for item in items {
            f(item);
        }
    }
    t0.elapsed().as_nanos() as f64 / (MICRO_REPS * items.len()) as f64
}

/// Time the screen, the lift, the native checker and replay on each
/// corpus genome of the pass, outside any span.
fn corpus_micro(report: &mut Report, pass: &PassResult) {
    let mut screen = Vec::new();
    let mut exact = Vec::new();
    for ((_, spec, _), r) in targets().iter().zip(&pass.reports) {
        let cfg = config(spec);
        for e in r.corpus.entries() {
            screen.push((spec.clone(), cfg.clone(), e.genome.clone()));
            if let Some(trace) = &e.trace {
                exact.push((spec.clone(), cfg.clone(), e.genome.clone(), trace.clone()));
            }
        }
    }
    let evaluate_ns = mean_ns(&screen, |(spec, cfg, genome)| {
        let fitness = FitnessConfig {
            net: cfg.net.clone(),
            thresholds: cfg.thresholds.clone(),
            initial_cwnd: cfg.initial_cwnd.to_f64(),
        };
        let mut cca = ModelCca::new(spec);
        let mut table = genome.table();
        std::hint::black_box(evaluate(&mut cca, &mut table, genome.backlog_f64(), &fitness));
    });
    let lift_ns = mean_ns(&exact, |(spec, cfg, genome, _)| {
        let lift = genome.lift_config(&cfg.net, &cfg.initial_cwnd);
        let _ = std::hint::black_box(lift_checked(spec, &lift));
    });
    let check_ns = mean_ns(&exact, |(_, cfg, _, trace)| {
        let _ = std::hint::black_box(check_trace(trace, &cfg.net));
    });
    let replays: Vec<_> = exact
        .iter()
        .map(|(spec, cfg, _, trace)| {
            let replay = TraceReplay::new(
                cfg.net.clone(),
                cfg.thresholds.clone(),
                FeasibilityMode::RangePruning,
            );
            (spec.clone(), replay, trace.clone())
        })
        .collect();
    let refutes_ns = mean_ns(&replays, |(spec, replay, trace)| {
        std::hint::black_box(replay.refutes(spec, trace));
    });
    let m = &mut report.metrics;
    m.set("fitness.evaluate_ns", evaluate_ns);
    m.set("lift.lift_checked_ns", lift_ns);
    m.set("ccac.check_trace_ns", check_ns);
    m.set("replay.refutes_calls", replays.len() as f64);
    m.set("replay.refutes_ns", refutes_ns);
}

/// Run the fuzz workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if !args.trace {
        let reps = repeat_for(args.seconds, configs, || {
            let (_, pass) = fuzz_pass(None);
            (pass.walls.clone(), pass)
        });
        let first = reps.runs[0].1.fingerprint();
        for (_, pass) in &reps.runs {
            check(&mut report, pass);
            report.same_trajectory(&first, &pass.fingerprint());
        }
        report.attempted = (targets().len() * reps.runs.len()) as u64;
        report.record_untraced(&reps);
        return report;
    }

    let (plain_wall, plain) = fuzz_pass(None);
    let tracer = RefCell::new(Tracer::default());
    let (wall, pass) = in_span(&tracer, "call", || fuzz_pass(Some(&tracer)));
    report.attempted = 2 * targets().len() as u64;
    check(&mut report, &plain);
    check(&mut report, &pass);
    report.same_trajectory(&plain.fingerprint(), &pass.fingerprint());
    corpus_micro(&mut report, &pass);
    let tracer = tracer.into_inner();
    let sum = |f: fn(&FuzzReport) -> u64| pass.reports.iter().map(f).sum::<u64>() as f64;
    let m = &mut report.metrics;
    for ((name, _, _), w) in targets().iter().zip(&pass.walls) {
        m.set(&format!("fuzz.run_s.{name}"), *w);
    }
    m.set("fuzz.genomes_evaluated", pass.genomes() as f64);
    m.set("fuzz.genomes_per_s", pass.genomes() as f64 / wall);
    m.set("fuzz.failures_found", sum(|r| r.counters.failures_found));
    m.set("fuzz.lift_infeasible", sum(|r| r.counters.lift_infeasible));
    pass.work.record(m);
    m.set("trace.overhead_s", wall - plain_wall);
    report.record_coverage(tracer.spans());
    println!(
        "genomes per second: {:.0} (plain run {:.0})",
        pass.genomes() as f64 / wall,
        plain.genomes() as f64 / plain_wall
    );
    write_out(args, "trace.jsonl", &crate::span::jsonl(tracer.spans()));
    report
}
