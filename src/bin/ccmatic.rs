//! The `ccmatic` command-line tool: synthesis, verification, enumeration,
//! assumption identification, and differential comparison from one binary.
//!
//! ```text
//! ccmatic synth   [--space no-cwnd-small|no-cwnd-large|cwnd-small|cwnd-large]
//!                 [--mode baseline|rp|rp-wce] [--util F] [--delay F]
//!                 [--budget-secs N] [--horizon N] [--lookback N] [--jitter N]
//!                 [--stats]       (kernel counters: pivots, promotions, coverage)
//!                 [--certify]     (checker-replayed proof certificates on every verdict)
//! ccmatic verify  --cca "b1,b2,b3,b4,g"   (β taps then γ; rationals like 3/2)
//!                 [--certify]
//! ccmatic enumerate [same space/threshold flags]
//!                 [--cache-dir DIR]  (certificate-backed persistent result cache)
//! ccmatic sweep   --axis delay|util --values "8,4,3.6,3"  [same space flags]
//!                 [--no-warm-start]  (independent points instead of carry-over)
//!                 [--cache-dir DIR] [--sweep-budget-secs N]
//! ccmatic assume  --cca "…"
//! ccmatic diff    --cca "…" --cca-b "…"
//! ccmatic fuzz    --cca "…" | --target aimd|const:X   (the CCA under attack)
//!                 [--fuzz-seed N] [--generations N] [--population N]
//!                 [--initial-cwnd F] [--out FILE.json]
//!                 [--fail-on-gap]     (exit non-zero if a model gap is found)
//!                 [--expect-failure]  (exit non-zero unless a failure is found)
//!                 [--seed-cegis]      (feed the corpus into a seeded CEGIS run)
//! ```
//!
//! Flags use simple `--key value` parsing (no external argument-parser
//! dependency, per the workspace dependency policy). A `--flag` the tool
//! does not read prints the usage text and exits with code 2, as does a
//! missing or unknown subcommand; exit code 1 means a run failed (DNF,
//! REFUTED, an unmet `--expect-failure`).

use ccac_model::{NetConfig, Thresholds};
use ccmatic::assumptions::describe;
use ccmatic::cache::ResultCache;
use ccmatic::differential::{compare, separating_environment};
use ccmatic::enumerate::enumerate_all_with;
use ccmatic::sweep::{render_table, sweep_with_config, SweepConfig};
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CcaSpec, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{rat, Rat};
use std::process::ExitCode;
use std::time::Duration;

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--space",
    "--mode",
    "--util",
    "--delay",
    "--budget-secs",
    "--horizon",
    "--lookback",
    "--jitter",
    "--cca",
    "--cca-b",
    "--cache-dir",
    "--axis",
    "--values",
    "--sweep-budget-secs",
    "--target",
    "--fuzz-seed",
    "--generations",
    "--population",
    "--initial-cwnd",
    "--out",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &[
    "--stats",
    "--certify",
    "--no-warm-start",
    "--fail-on-gap",
    "--expect-failure",
    "--seed-cegis",
];

/// Usage errors (an unknown flag or subcommand) exit with this code, apart
/// from exit 1 (a failed run) and a panic (101).
const EXIT_USAGE: u8 = 2;

struct Args(Vec<String>);

impl Args {
    /// The first `--flag` after the subcommand that the tool does not read.
    fn unknown_flag(&self) -> Option<&str> {
        let mut rest = self.0.iter().skip(1);
        while let Some(arg) = rest.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                rest.next();
            } else if arg.starts_with("--") && !SWITCHES.contains(&arg.as_str()) {
                return Some(arg);
            }
        }
        None
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.windows(2).find(|w| w[0] == key).map(|w| w[1].as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn rat(&self, key: &str) -> Option<Rat> {
        self.get(key).and_then(Rat::from_decimal_str)
    }
}

/// Snapshot of the process-wide kernel counters, for `--stats` deltas.
struct KernelSnapshot {
    arith: ccmatic_num::ArithStats,
    pivots: u64,
    row_spills: u64,
    theory: ccmatic_smt::TheoryCounters,
}

impl KernelSnapshot {
    fn take() -> Self {
        KernelSnapshot {
            arith: ccmatic_num::arith_snapshot(),
            pivots: ccmatic_smt::lra::pivots_total(),
            row_spills: ccmatic_smt::lra::row_spills_total(),
            theory: ccmatic_smt::theory_counters(),
        }
    }

    /// Print pivot, row-spill and arithmetic fast-path counters accumulated
    /// since the snapshot (to stderr, like the other progress chatter).
    fn report(&self) {
        let arith = ccmatic_num::arith_snapshot().since(&self.arith);
        let pivots = ccmatic_smt::lra::pivots_total().saturating_sub(self.pivots);
        let spills = ccmatic_smt::lra::row_spills_total().saturating_sub(self.row_spills);
        let theory = ccmatic_smt::theory_counters();
        let props = theory.theory_props.saturating_sub(self.theory.theory_props);
        let asserted = theory.bounds_asserted.saturating_sub(self.theory.bounds_asserted);
        let reused = theory.bounds_reused.saturating_sub(self.theory.bounds_reused);
        eprintln!(
            "kernel: pivots {} · row spills {} · promotions {} · fast-path {:.2}% ({} small / {} big ops)",
            pivots,
            spills,
            arith.promotions,
            arith.fast_fraction() * 100.0,
            arith.small_ops,
            arith.big_ops
        );
        // Trail-sync effectiveness: `reused` counts the atom bounds each
        // fixpoint kept without re-assertion (a reset-and-reassert bridge
        // would re-assert every one of them), `props` the literals the
        // theory decided for the SAT core.
        let total = asserted + reused;
        let pct = if total == 0 { 0.0 } else { reused as f64 / total as f64 * 100.0 };
        eprintln!(
            "theory: props {props} · bounds asserted {asserted} · reused {reused} ({pct:.2}%)"
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ccmatic <synth|verify|enumerate|sweep|assume|diff|fuzz> [flags]\n\
         flags: --space no-cwnd-small|no-cwnd-large|cwnd-small|cwnd-large\n\
         \x20      --mode baseline|rp|rp-wce   --util F --delay F\n\
         \x20      --budget-secs N --horizon N --lookback N --jitter N\n\
         \x20      --stats  (print kernel counters: pivots, promotions, fast-path coverage,\n\
         \x20                theory props, bounds asserted/reused)\n\
         \x20      --certify  (synth/verify: re-check every UNSAT verdict against a\n\
         \x20                  DRAT+Farkas certificate with the independent checker)\n\
         \x20      --cache-dir DIR  (enumerate/sweep: certificate-backed result cache)\n\
         \x20      --axis delay|util --values \"8,4,3.6,3\"  (sweep points)\n\
         \x20      --no-warm-start  (sweep: independent cold points, no carry-over)\n\
         \x20      --sweep-budget-secs N  (wall budget for the whole sweep)\n\
         \x20      --cca \"b1,b2,…,g\"  --cca-b \"…\"  (β taps then γ)\n\
         \x20      --target aimd|const:X  (fuzz: simulator-only target instead of --cca)\n\
         \x20      --fuzz-seed N --generations N --population N --initial-cwnd F\n\
         \x20      --out FILE.json --fail-on-gap --expect-failure --seed-cegis  (fuzz)"
    );
    ExitCode::from(EXIT_USAGE)
}

fn parse_spec(s: &str) -> Option<CcaSpec> {
    let parts: Vec<Rat> =
        s.split(',').map(|p| Rat::from_decimal_str(p.trim())).collect::<Option<Vec<_>>>()?;
    if parts.len() < 2 {
        return None;
    }
    let (beta, gamma) = parts.split_at(parts.len() - 1);
    Some(CcaSpec { alpha: Vec::new(), beta: beta.to_vec(), gamma: gamma[0].clone() })
}

fn shape_from(args: &Args) -> TemplateShape {
    let mut shape = match args.get("--space").unwrap_or("no-cwnd-small") {
        "no-cwnd-large" => TemplateShape::no_cwnd_large(),
        "cwnd-small" => TemplateShape::cwnd_small(),
        "cwnd-large" => TemplateShape::cwnd_large(),
        _ => TemplateShape::no_cwnd_small(),
    };
    if let Some(lb) = args.get("--lookback").and_then(|v| v.parse().ok()) {
        shape.lookback = lb;
    }
    shape
}

fn net_from(args: &Args, lookback: usize) -> NetConfig {
    let mut net = NetConfig::default();
    if let Some(h) = args.get("--horizon").and_then(|v| v.parse().ok()) {
        net.horizon = h;
    }
    if let Some(j) = args.get("--jitter").and_then(|v| v.parse().ok()) {
        net.jitter = j;
    }
    net.history = lookback + 1;
    net
}

fn thresholds_from(args: &Args) -> Thresholds {
    let mut th = Thresholds::default();
    if let Some(u) = args.rat("--util") {
        th.util = u;
    }
    if let Some(d) = args.rat("--delay") {
        th.delay = d;
    }
    th
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return usage();
    };
    let args = Args(argv);
    if let Some(flag) = args.unknown_flag() {
        eprintln!("unknown flag `{flag}`");
        return usage();
    }
    let shape = shape_from(&args);
    let net = net_from(&args, shape.lookback);
    let th = thresholds_from(&args);
    let budget_secs: u64 = args.get("--budget-secs").and_then(|v| v.parse().ok()).unwrap_or(300);
    let mode = match args.get("--mode").unwrap_or("rp-wce") {
        "baseline" => OptMode::Baseline,
        "rp" => OptMode::RangePruning,
        _ => OptMode::RangePruningWce,
    };
    let certify = args.has("--certify");
    let opts = SynthOptions {
        shape: shape.clone(),
        net: net.clone(),
        thresholds: th.clone(),
        mode,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(budget_secs) },
        wce_precision: rat(1, 2),
        certify,
        ..SynthOptions::default()
    };

    let kernel = args.has("--stats").then(KernelSnapshot::take);
    let code = match cmd.as_str() {
        "synth" => {
            eprintln!(
                "synthesizing over {} candidates ({} mode, util ≥ {}, delay ≤ {})…",
                shape.search_space_size(),
                mode.label(),
                th.util,
                th.delay
            );
            let r = synthesize(&opts);
            if kernel.is_some() {
                eprintln!("pruning: regions pruned {}", r.stats.regions_pruned);
            }
            if certify {
                // Reaching this line means every certificate was accepted —
                // a rejected one panics inside the verifier with the
                // checker's diagnosis.
                eprintln!(
                    "certified: {} certificates replayed ({} clauses, {} bytes, {} steps replayed, {:.1} ms in checker)",
                    r.cert_audit.checked,
                    r.cert_audit.clauses,
                    r.cert_audit.bytes,
                    r.cert_audit.steps_replayed,
                    r.cert_audit.check_ns as f64 / 1e6
                );
            }
            match r.outcome {
                Outcome::Solution(spec) => {
                    println!("SOLUTION  {spec}");
                    println!(
                        "iterations {} · verifier probes {} · {:.1}s",
                        r.stats.iterations,
                        r.verifier_probes,
                        r.stats.wall.as_secs_f64()
                    );
                    ExitCode::SUCCESS
                }
                Outcome::NoSolution => {
                    println!("NO SOLUTION in the search space (proven)");
                    ExitCode::SUCCESS
                }
                Outcome::BudgetExhausted => {
                    println!("DNF within {budget_secs}s ({} iterations)", r.stats.iterations);
                    ExitCode::FAILURE
                }
            }
        }
        "verify" => {
            let Some(spec) = args.get("--cca").and_then(parse_spec) else {
                return usage();
            };
            let mut net = net;
            net.history = spec.beta.len() + 1;
            let mut v = CcaVerifier::new(VerifyConfig {
                net,
                thresholds: th,
                worst_case: false,
                wce_precision: rat(1, 2),
                certify,
                ..Default::default()
            });
            let result = v.verify(&spec);
            if certify {
                eprintln!(
                    "certified: {} certificates replayed ({} clauses, {} bytes, {} steps replayed, {:.1} ms in checker)",
                    v.cert_audit.checked,
                    v.cert_audit.clauses,
                    v.cert_audit.bytes,
                    v.cert_audit.steps_replayed,
                    v.cert_audit.check_ns as f64 / 1e6
                );
            }
            match result {
                Ok(()) => {
                    println!("VERIFIED  {spec}");
                    ExitCode::SUCCESS
                }
                Err(cex) => {
                    println!("REFUTED   {spec}\ncounterexample:\n{cex}");
                    ExitCode::FAILURE
                }
            }
        }
        "enumerate" => {
            let cache = match args.get("--cache-dir").map(ResultCache::new) {
                Some(Ok(c)) => Some(c),
                Some(Err(e)) => {
                    eprintln!("cannot open cache dir: {e}");
                    return ExitCode::FAILURE;
                }
                None => None,
            };
            let out = enumerate_all_with(&opts, None, cache.as_ref());
            let r = &out.result;
            if out.from_cache {
                eprintln!(
                    "cache hit: answered by certificate re-check in {:.1} ms (0 solver probes)",
                    r.stats.cache_cert_ms
                );
            } else if let Some(why) = &out.cache_rejected {
                eprintln!("cache entry rejected ({why}); solved fresh");
            } else if out.stored {
                eprintln!("cache populated for future runs");
            }
            println!(
                "{} solution(s), exhaustive: {}, {} iterations",
                r.solutions.len(),
                r.complete,
                r.stats.iterations
            );
            for s in &r.solutions {
                println!("  {s}");
            }
            if kernel.is_some() {
                eprintln!(
                    "warm/cache: traces seeded {} · traces rejected {} · solutions confirmed {} · cache hits {} · cert {:.1} ms",
                    r.stats.warm_traces_seeded,
                    r.stats.warm_traces_rejected,
                    r.stats.warm_solutions_confirmed,
                    r.stats.cache_hits,
                    r.stats.cache_cert_ms
                );
            }
            ExitCode::SUCCESS
        }
        "sweep" => {
            let Some(values) = args.get("--values").and_then(|v| {
                v.split(',').map(|p| Rat::from_decimal_str(p.trim())).collect::<Option<Vec<_>>>()
            }) else {
                eprintln!("sweep needs --values \"8,4,3.6,3\" (comma-separated rationals)");
                return usage();
            };
            let cache = match args.get("--cache-dir").map(ResultCache::new) {
                Some(Ok(c)) => Some(c),
                Some(Err(e)) => {
                    eprintln!("cannot open cache dir: {e}");
                    return ExitCode::FAILURE;
                }
                None => None,
            };
            let cfg = SweepConfig {
                warm_start: !args.has("--no-warm-start"),
                cache,
                sweep_wall: args
                    .get("--sweep-budget-secs")
                    .and_then(|v| v.parse().ok())
                    .map(Duration::from_secs),
                ..Default::default()
            };
            let report = match args.get("--axis").unwrap_or("delay") {
                "util" => sweep_with_config(&opts, &values, |t, u| t.util = u.clone(), &cfg),
                "delay" => sweep_with_config(&opts, &values, |t, d| t.delay = d.clone(), &cfg),
                other => {
                    eprintln!("unknown sweep axis `{other}` (expected delay or util)");
                    return usage();
                }
            };
            print!("{}", render_table(&report.rows));
            println!("budget exceeded: {}", report.budget_exceeded);
            let cs = &report.cache_stats;
            if cs.hits + cs.misses + cs.rejected + cs.stores > 0 {
                println!(
                    "cache: {} hit(s) · {} miss(es) · {} rejected · {} stored · {:.1} ms in checker",
                    cs.hits, cs.misses, cs.rejected, cs.stores, cs.cert_ms
                );
            }
            if kernel.is_some() {
                for row in &report.rows {
                    let s = &row.result.stats;
                    eprintln!(
                        "point util {} delay {}: seeded {} · rejected {} · confirmed {} · cache hits {} · cert {:.1} ms · {:.1}s",
                        row.thresholds.util,
                        row.thresholds.delay,
                        s.warm_traces_seeded,
                        s.warm_traces_rejected,
                        s.warm_solutions_confirmed,
                        s.cache_hits,
                        s.cache_cert_ms,
                        s.wall.as_secs_f64()
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "fuzz" => {
            use ccmatic_fuzz::{run_fuzz, FuzzConfig, FuzzTarget};
            // Target: a linear-template spec (full pipeline: exact
            // confirmation + verifier cross-check + CEGIS seeding) or a
            // simulator-only CCA (screen tier alone).
            let target = if let Some(spec) = args.get("--cca").and_then(parse_spec) {
                FuzzTarget::Spec(spec)
            } else {
                match args.get("--target") {
                    Some("aimd") => FuzzTarget::Aimd,
                    Some(t) if t.starts_with("const:") => {
                        let Some(c) = t["const:".len()..].parse::<f64>().ok() else {
                            eprintln!("--target const:X needs a numeric window");
                            return usage();
                        };
                        FuzzTarget::ConstSim(c)
                    }
                    _ => {
                        eprintln!("fuzz needs --cca \"b1,…,g\" or --target aimd|const:X");
                        return usage();
                    }
                }
            };
            let mut net = net;
            if let FuzzTarget::Spec(spec) = &target {
                net.history = spec.beta.len() + 1;
                if args.has("--seed-cegis") {
                    // The seeded synthesis space needs history > lookback;
                    // fuzz at the same net so lifted traces replay 1:1.
                    net.history = net.history.max(shape.lookback + 1);
                }
            }
            let cfg = FuzzConfig {
                seed: args.get("--fuzz-seed").and_then(|v| v.parse().ok()).unwrap_or(0),
                generations: args.get("--generations").and_then(|v| v.parse().ok()).unwrap_or(30),
                population: args.get("--population").and_then(|v| v.parse().ok()).unwrap_or(24),
                net: net.clone(),
                thresholds: th.clone(),
                initial_cwnd: args.rat("--initial-cwnd").unwrap_or_else(Rat::one),
                target: target.clone(),
                skip_verify: false,
            };
            eprintln!(
                "fuzzing {} for {} generations × {} genomes (seed {})…",
                target.name(),
                cfg.generations,
                cfg.population,
                cfg.seed
            );
            let mut report = run_fuzz(&cfg);

            // Optional CEGIS feedback: warm-start a synthesis run of the
            // selected space with the fuzz-found refutations.
            if args.has("--seed-cegis") {
                if let FuzzTarget::Spec(spec) = &target {
                    let mut seed_opts = opts.clone();
                    seed_opts.net = net.clone();
                    let seeds = report.corpus.cegis_seeds(spec);
                    let r = ccmatic::synth::synthesize_seeded(&seed_opts, &seeds);
                    report.counters.cex_seeded = r.stats.warm_traces_seeded;
                    eprintln!(
                        "seeded cegis: {} traces seeded · {} rejected · {} iterations · {:?}",
                        r.stats.warm_traces_seeded,
                        r.stats.warm_traces_rejected,
                        r.stats.iterations,
                        r.outcome
                    );
                } else {
                    eprintln!("--seed-cegis needs a --cca target (skipped)");
                }
            }

            match report.verifier_passed {
                Some(true) => println!("VERIFIED  {}", target.name()),
                Some(false) => println!("REFUTED   {} (by the verifier)", target.name()),
                None => println!("SIM-ONLY  {}", target.name()),
            }
            println!(
                "failures {} · model gaps {} · corpus {} · best fitness {:.3}",
                report.counters.failures_found,
                report.counters.model_gaps,
                report.corpus.len(),
                report.best_fitness.last().copied().unwrap_or(f64::NEG_INFINITY)
            );
            for gap in &report.gaps {
                println!(
                    "MODEL GAP: verifier certified {} but a feasible trace refutes it",
                    gap.spec
                );
            }
            if kernel.is_some() {
                eprintln!("{}", report.stats_line());
            }
            if let Some(path) = args.get("--out") {
                if let Err(e) = std::fs::write(path, report.to_json().render()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("report written to {path}");
            }
            if args.has("--fail-on-gap") && report.counters.model_gaps > 0 {
                ExitCode::FAILURE
            } else if args.has("--expect-failure") && report.counters.failures_found == 0 {
                eprintln!("expected an objective violation; none found");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "assume" => {
            let Some(spec) = args.get("--cca").and_then(parse_spec) else {
                return usage();
            };
            let mut net = net;
            net.history = spec.beta.len().max(3) + 1;
            print!("{}", describe(&spec, &net, &th, &rat(1, 8)));
            ExitCode::SUCCESS
        }
        "diff" => {
            let (Some(a), Some(b)) =
                (args.get("--cca").and_then(parse_spec), args.get("--cca-b").and_then(parse_spec))
            else {
                return usage();
            };
            let mut net = net;
            net.history = a.beta.len().max(b.beta.len()).max(3) + 1;
            println!("{}", compare(&a, &b, &net, &th, &rat(1, 8)));
            match separating_environment(&a, &b, &net, &th) {
                Some(tr) => println!("\nseparating environment (breaks B, A proven safe):\n{tr}"),
                None => println!("\nno separating environment (A unsafe, or B as robust as A)"),
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    };
    if let Some(snapshot) = &kernel {
        snapshot.report();
    }
    code
}
