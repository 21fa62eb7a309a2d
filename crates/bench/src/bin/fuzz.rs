//! Fuzzing benchmark: adversarial-schedule search against broken and
//! verified CCAs, plus the seeded-CEGIS A/B that measures what fuzz-found
//! counterexamples are worth as warm-start seeds.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin fuzz -- [--budget-secs N] [--fuzz-seed N] \
//!     [--check BENCH_fuzz.json]
//! ```
//!
//! Emits `BENCH_fuzz.json` with, per fuzz run: the counter columns
//! (genomes evaluated, failures, model gaps, lift-infeasible discards,
//! skipped confirmations), the per-generation best-fitness trajectory,
//! and the verifier verdict — and for the A/B: cold vs seeded iteration
//! counts on a Table-1 cell.
//!
//! `--check FILE` reads FILE before the run and, after writing the fresh
//! `BENCH_fuzz.json`, compares every deterministic field with it:
//! counters, digests, best fitness, gaps, corpus sizes, the verifier
//! verdicts, the fuzz seed and the A/B's iteration and trace counts. Wall
//! times and the budget are ignored. Any difference is printed by path
//! and fails the run.
//!
//! Exit-code invariants (CI smoke relies on these):
//! * broken targets must yield failures and **zero** model gaps;
//! * verified targets must yield zero failures and zero gaps;
//! * the seeded run must agree with the cold run's outcome in no more
//!   iterations;
//! * with `--check`, no deterministic field may drift.

use ccac_model::Thresholds;
use ccmatic::known;
use ccmatic::synth::{synthesize, synthesize_seeded, SynthOptions};
use ccmatic::template::CcaSpec;
use ccmatic_bench::drift::{read_committed, report_drift};
use ccmatic_bench::{table1_rows, write_json, Json, Scale};
use ccmatic_cegis::Budget;
use ccmatic_fuzz::{run_fuzz, FuzzConfig, FuzzTarget};
use ccmatic_num::{int, Rat};
use std::process::ExitCode;
use std::time::Duration;

/// Fields that vary from run to run and are left out of `--check`.
fn nondeterministic(key: &str) -> bool {
    key == "budget_secs" || key.ends_with("_wall_s")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |key: &str| args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone());
    let budget_secs: u64 = flag("--budget-secs").and_then(|v| v.parse().ok()).unwrap_or(120);
    let fuzz_seed: u64 = flag("--fuzz-seed").and_then(|v| v.parse().ok()).unwrap_or(7);
    // Read before the run: the run rewrites `BENCH_fuzz.json`.
    let committed = match flag("--check") {
        None => None,
        Some(path) => match read_committed(&path) {
            Ok(doc) => Some((path, doc)),
            Err(e) => {
                eprintln!("fuzz: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let net = |history: usize| ccac_model::NetConfig {
        horizon: 6,
        history,
        link_rate: Rat::one(),
        jitter: 1,
        buffer: None,
    };
    let fuzz_cfg = |spec: CcaSpec| FuzzConfig {
        seed: fuzz_seed,
        generations: 12,
        population: 16,
        net: net(spec.beta.len().max(spec.alpha.len()) + 1),
        thresholds: Thresholds::default(),
        initial_cwnd: Rat::one(),
        target: FuzzTarget::Spec(spec),
        skip_verify: false,
    };

    // Named targets: two broken windows the fuzzer must break, two
    // verified CCAs it must leave standing.
    let cases: Vec<(&str, CcaSpec, bool)> = vec![
        ("const_cwnd_6", known::const_cwnd(int(6)), true),
        ("const_cwnd_0", known::const_cwnd(int(0)), true),
        ("rocc", known::rocc(), false),
        ("eq_iii", known::eq_iii(), false),
    ];
    let mut ok = true;
    let mut json_runs = Vec::new();
    for (name, spec, broken) in &cases {
        let report = run_fuzz(&fuzz_cfg(spec.clone()));
        let c = &report.counters;
        println!(
            "{name}: verifier {} · {}",
            match report.verifier_passed {
                Some(true) => "VERIFIED",
                Some(false) => "REFUTED",
                None => "-",
            },
            report.stats_line()
        );
        if c.model_gaps != 0 {
            eprintln!("{name}: MODEL GAP — a certified claim admits a concrete violation");
            ok = false;
        }
        if *broken && c.failures_found == 0 {
            eprintln!("{name}: broken CCA survived the fuzzer");
            ok = false;
        }
        // A *verifier-certified* target admits no exact failure by
        // definition (anything else is a gap, caught above); targets the
        // verifier refutes may legitimately fall either way.
        if report.verifier_passed == Some(true) && c.failures_found != 0 {
            eprintln!("{name}: exact failure claimed against a verified CCA");
            ok = false;
        }
        let mut run = vec![("name", Json::Str((*name).into()))];
        run.push(("report", report.to_json()));
        json_runs.push(Json::obj(run));
    }

    // Seeded-CEGIS A/B on the Table-1 No-cwnd/Small cell (CI scale):
    // fuzz two in-space broken candidates, feed their corpora into
    // `synthesize_seeded`, and compare iteration counts against the cold
    // loop on the same cell.
    let row = &table1_rows(Scale::Ci)[0];
    let opts = SynthOptions {
        shape: row.shape.clone(),
        net: row.net.clone(),
        thresholds: Thresholds::default(),
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(budget_secs) },
        ..SynthOptions::default()
    };
    let mut seeds = Vec::new();
    for gamma in [0i64, 6] {
        let broken = CcaSpec { alpha: vec![], beta: vec![int(0); 3], gamma: int(gamma) };
        let mut cfg = fuzz_cfg(broken.clone());
        cfg.net = row.net.clone();
        cfg.skip_verify = true; // verdict known (broken); only the corpus matters
        let report = run_fuzz(&cfg);
        println!("seed source γ={gamma}: {}", report.stats_line());
        seeds.extend(report.corpus.cegis_seeds(&broken));
    }
    println!("cold run on {}/{} …", row.params, row.domain_label);
    let cold = synthesize(&opts);
    println!("seeded run ({} fuzz traces) …", seeds.len());
    let seeded = synthesize_seeded(&opts, &seeds);
    let (ci, si) = (cold.stats.iterations, seeded.stats.iterations);
    println!(
        "A/B: cold {ci} iterations vs seeded {si} ({} traces seeded, {} rejected)",
        seeded.stats.warm_traces_seeded, seeded.stats.warm_traces_rejected,
    );
    // Seeding may legitimately change *which* solution the generator
    // reaches first; the invariant is kind-level agreement (solution /
    // no-solution / budget), since every returned solution is
    // verifier-checked inside the loop.
    let outcomes_agree =
        std::mem::discriminant(&cold.outcome) == std::mem::discriminant(&seeded.outcome);
    if !outcomes_agree {
        eprintln!("A/B outcome mismatch: cold {:?} vs seeded {:?}", cold.outcome, seeded.outcome);
        ok = false;
    }
    if si > ci {
        eprintln!("seeded run cost iterations ({si} > {ci}); warm seeds must not hurt");
        ok = false;
    }

    let json = Json::obj(vec![
        ("bench", Json::Str("fuzz".into())),
        ("fuzz_seed", Json::UInt(fuzz_seed)),
        ("budget_secs", Json::UInt(budget_secs)),
        ("runs", Json::Arr(json_runs)),
        (
            "seeded_cegis_ab",
            Json::obj(vec![
                ("cell", Json::Str(format!("{}/{}", row.params, row.domain_label))),
                ("fuzz_traces", Json::UInt(seeds.len() as u64)),
                ("cold_iterations", Json::UInt(ci)),
                ("seeded_iterations", Json::UInt(si)),
                ("traces_seeded", Json::UInt(seeded.stats.warm_traces_seeded)),
                ("traces_rejected", Json::UInt(seeded.stats.warm_traces_rejected)),
                ("outcomes_agree", Json::Bool(outcomes_agree)),
                ("cold_wall_s", Json::Num(cold.stats.wall.as_secs_f64())),
                ("seeded_wall_s", Json::Num(seeded.stats.wall.as_secs_f64())),
            ]),
        ),
    ]);
    let _ = write_json("BENCH_fuzz.json", &json);

    if let Some((path, doc)) = &committed {
        ok &= report_drift(path, &json, doc, &nondeterministic);
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
