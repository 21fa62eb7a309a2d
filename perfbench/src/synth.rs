//! The Table-1 synthesis workload: the No-cwnd/Small cell at ci scale (81
//! candidates, horizon 6), RP+WCE on one solver thread, to the first
//! solution. The verifier takes nearly all of its wall, so verifier work
//! shows here and generator work should not move it.
//!
//! Why this cell: the generator caps its region search by the measured
//! cost of replay, so a space larger than that cap takes a different path
//! whenever the machine runs slower. No-cwnd/Large took 11 to 49
//! iterations (13 to 47 s) over five same-input runs; cwnd/Small capped at
//! 6 iterations took either 0.45 s or 1.8–2.3 s per call, switching within
//! a run. 81 candidates never reach the cap.

use crate::checks::{model_gaps, reverify};
use crate::measure::{repeat_for, secs, Counters};
use crate::span::{in_span, per_iter_s, totals_by_name, Tracer};
use crate::{write_out, Args, Report};
use ccac_model::{NetConfig, Thresholds, Trace};
use ccmatic::json::Json;
use ccmatic::synth::{
    build_loop, make_replay, synthesize, GenAdapter, OptMode, SynthOptions, VerAdapter,
    DEFAULT_DISPATCH_MIN,
};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic_cegis::{
    run_with_replay, BatchProposal, Budget, Generator, Outcome, Verdict, Verifier,
};
use ccmatic_num::{rat, Rat};
use std::cell::RefCell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn options(seed: u64) -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(100) },
        wce_precision: rat(1, 2),
        incremental: true,
        threads: 1,
        // One thread searches with the default policies, which consume no
        // randomness: the trajectory must not depend on the seed.
        seed,
        dispatch_min: DEFAULT_DISPATCH_MIN,
        certify: false,
        region_pruning: true,
        theory_sync: true,
    }
}

/// What one synthesis run did; its fingerprint is equal across runs of
/// the same inputs.
#[derive(Debug)]
struct Trajectory {
    outcome: Outcome<CcaSpec>,
    iterations: u64,
    probes: u64,
    regions_pruned: u64,
    cex_subsumed: u64,
    work: Counters,
}

impl Trajectory {
    fn fingerprint(&self) -> String {
        let outcome = match &self.outcome {
            Outcome::Solution(s) => format!("solution {s}"),
            Outcome::NoSolution => "no-solution".into(),
            Outcome::BudgetExhausted => "budget".into(),
        };
        format!(
            "{outcome} · iterations {} · probes {} · regions pruned {} · cex subsumed {} · pivots {}",
            self.iterations, self.probes, self.regions_pruned, self.cex_subsumed, self.work.pivots
        )
    }
}

/// `synthesize`, timed, with its counters bracketed.
fn timed_synthesize(opts: &SynthOptions) -> (f64, Trajectory) {
    let before = Counters::now();
    let t0 = Instant::now();
    let r = synthesize(opts);
    let wall = secs(t0);
    let traj = Trajectory {
        outcome: r.outcome,
        iterations: r.stats.iterations,
        probes: r.verifier_probes,
        regions_pruned: r.stats.regions_pruned,
        cex_subsumed: r.stats.cex_subsumed,
        work: Counters::now().since(&before),
    };
    (wall, traj)
}

/// The generator adapter with a span around every proposal and learn. Each
/// proposal starts a new CEGIS iteration.
struct TracedGen<'t> {
    inner: GenAdapter,
    tracer: &'t RefCell<Tracer>,
}

impl Generator for TracedGen<'_> {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    fn propose(&mut self) -> Option<CcaSpec> {
        self.propose_batch(1, None).candidates.into_iter().next()
    }

    fn learn(&mut self, candidate: &CcaSpec, cex: &Trace) {
        in_span(self.tracer, "generator.learn", || self.inner.learn(candidate, cex))
    }

    fn propose_batch(&mut self, k: usize, deadline: Option<Instant>) -> BatchProposal<CcaSpec> {
        let next = self.tracer.borrow().iter().map_or(1, |i| i + 1);
        self.tracer.borrow_mut().set_iter(Some(next));
        in_span(self.tracer, "generator.propose", || self.inner.propose_batch(k, deadline))
    }
}

/// The verifier adapter with a span around every verdict.
struct TracedVer<'t> {
    inner: VerAdapter,
    tracer: &'t RefCell<Tracer>,
}

impl Verifier for TracedVer<'_> {
    type Candidate = CcaSpec;
    type CounterExample = Trace;

    // The trait fixes the `Trace` error; it only exists on a refutation.
    #[allow(clippy::result_large_err)]
    fn verify(&mut self, candidate: &CcaSpec) -> Result<(), Trace> {
        in_span(self.tracer, "verifier.verify", || self.inner.verify(candidate))
    }

    fn verify_interruptible(
        &mut self,
        candidate: &CcaSpec,
        deadline: Option<Instant>,
        cancel: Option<&Arc<AtomicBool>>,
    ) -> Verdict<Trace> {
        in_span(self.tracer, "verifier.verify", || {
            self.inner.verify_interruptible(candidate, deadline, cancel)
        })
    }
}

/// The same work as `synthesize` at one thread (`build_loop` plus
/// `make_replay` driven by `run_with_replay`), with every layer call in a
/// span under one root span.
fn traced_synthesize(opts: &SynthOptions, tracer: &RefCell<Tracer>) -> (f64, Trajectory) {
    let before = Counters::now();
    let t0 = Instant::now();
    let traj = in_span(tracer, "call", || {
        let ((generator, verifier), replayer) =
            in_span(tracer, "setup.build_loop", || (build_loop(opts), make_replay(opts)));
        let mut generator = TracedGen { inner: generator, tracer };
        let mut verifier = TracedVer { inner: verifier, tracer };
        let replay = |c: &CcaSpec, cex: &Trace| {
            in_span(tracer, "replay.refutes", || replayer.refutes(c, cex))
        };
        let run = run_with_replay(&mut generator, &mut verifier, replay, &opts.budget);
        Trajectory {
            outcome: run.outcome,
            iterations: run.stats.iterations,
            probes: verifier.inner.inner.solver_probes,
            regions_pruned: generator.inner.inner.regions_pruned,
            cex_subsumed: generator.inner.cex_subsumed,
            work: Counters::default(),
        }
    });
    let wall = secs(t0);
    (wall, Trajectory { work: Counters::now().since(&before), ..traj })
}

/// The outcome check: a solution that re-verifies under a certifying
/// verifier and survives a short fuzz with no model gap.
fn check(opts: &SynthOptions, traj: &Trajectory) -> Result<(), String> {
    let Outcome::Solution(spec) = &traj.outcome else {
        return Err(format!(
            "no solution: {:?} after {} iterations",
            traj.outcome, traj.iterations
        ));
    };
    reverify(spec, &opts.net, &opts.thresholds)?;
    match model_gaps(spec, &opts.net, &opts.thresholds) {
        0 => Ok(()),
        n => Err(format!("{n} model gaps against certified solution {spec}")),
    }
}

/// Run the synthesis workload.
pub fn run(args: &Args) -> Report {
    let opts = options(args.seed);
    let mut report = Report::default();
    if !args.trace {
        let reps = repeat_for(
            args.seconds,
            || build_loop(&opts),
            || {
                let (wall, traj) = timed_synthesize(&opts);
                (vec![wall], traj)
            },
        );
        let first = &reps.runs[0].1;
        report.check(check(&opts, first));
        for (_, traj) in &reps.runs {
            report.same_trajectory(&first.fingerprint(), &traj.fingerprint());
        }
        report.attempted = reps.runs.len() as u64;
        report.record_untraced(&reps);
        return report;
    }

    let (plain_wall, plain) = timed_synthesize(&opts);
    let tracer = RefCell::new(Tracer::default());
    let (wall, traj) = traced_synthesize(&opts, &tracer);
    report.attempted = 2;
    report.check(check(&opts, &traj));
    report.same_trajectory(&plain.fingerprint(), &traj.fingerprint());

    let tracer = tracer.into_inner();
    let spans = tracer.spans();
    let totals = totals_by_name(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (verify_calls, verify_ns, _) = total("verifier.verify");
    let (_, propose_ns, propose_max_ns) = total("generator.propose");
    let (_, learn_ns, _) = total("generator.learn");
    let (replay_calls, replay_ns, _) = total("replay.refutes");
    let first_verify_ns =
        spans.iter().find(|s| s.name == "verifier.verify").map_or(0, |s| s.dur_ns());
    let m = &mut report.metrics;
    m.set("verifier.verify_s", verify_ns as f64 / 1e9);
    m.set("verifier.verify_calls", verify_calls as f64);
    m.set("verifier.solver_probes", traj.probes as f64);
    m.set("verifier.first_call_s", first_verify_ns as f64 / 1e9);
    traj.work.record(m);
    m.set("cegis.iterations", traj.iterations as f64);
    m.set("generator.propose_s", propose_ns as f64 / 1e9);
    m.set("generator.propose_max_s", propose_max_ns as f64 / 1e9);
    m.set("generator.learn_s", learn_ns as f64 / 1e9);
    m.set("generator.regions_pruned", traj.regions_pruned as f64);
    m.set("generator.cex_subsumed", traj.cex_subsumed as f64);
    m.set("replay.refutes_calls", replay_calls as f64);
    m.set("replay.refutes_ns", replay_ns as f64 / replay_calls.max(1) as f64);
    m.set("trace.overhead_s", wall - plain_wall);
    report.record_coverage(spans);
    println!(
        "split of the traced call ({wall:.3} s): verifier {:.1}% · generator {:.1}% (propose + learn)",
        100.0 * verify_ns as f64 / 1e9 / wall,
        100.0 * (propose_ns + learn_ns) as f64 / 1e9 / wall,
    );

    // The per-iteration series behind the §4 claim that verifier cost per
    // call stays flat while generator cost grows with learned traces.
    let propose = per_iter_s(spans, "generator.propose");
    let verify = per_iter_s(spans, "verifier.verify");
    let learn = per_iter_s(spans, "generator.learn");
    let series = propose
        .iter()
        .map(|(&i, &p)| {
            let at =
                |m: &std::collections::BTreeMap<u64, f64>| Json::Num(*m.get(&i).unwrap_or(&0.0));
            Json::obj(vec![
                ("iteration", Json::UInt(i)),
                ("propose_s", Json::Num(p)),
                ("verify_s", at(&verify)),
                ("learn_s", at(&learn)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("call_s", Json::Num(wall)),
        ("iterations", Json::Arr(series)),
    ]);
    write_out(args, "series.json", &doc.render());
    write_out(args, "trace.jsonl", &crate::span::jsonl(spans));
    report
}
