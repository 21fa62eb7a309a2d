//! Regenerate §4's threshold observations (E3/E4): solution counts as the
//! utilization and delay targets move.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin threshold_sweep -- \
//!     [--scale ci|paper] [--budget-secs N] [--sweep-budget-secs N] \
//!     [--no-warm-start] [--cache-dir DIR] [--require-cached] [--out FILE] \
//!     [--check FILE]
//! ```
//!
//! Each axis runs its points sequentially, loose→tight. By default each
//! point is warm-started, carrying re-validated counterexample traces and
//! pre-verified solutions forward; `--no-warm-start` runs every point as
//! an independent cold enumeration, the reference the warm rows match.
//! With `--cache-dir` every point consults (and populates) the persistent
//! certificate-backed result cache; `--require-cached` then fails the run
//! unless *every* point was answered from the cache with zero solver
//! probes — CI uses this to prove the cache actually short-circuits.
//!
//! The sweep-level wall budget (`--sweep-budget-secs`, default
//! `--budget-secs`) bounds each whole axis: successive points get only the
//! wall that remains, and overruns are reported as `budget_exceeded` in
//! the JSON instead of silently blowing past the budget.
//!
//! Prints the Markdown report (no wall times, so a rerun prints the same
//! text; walls go to standard error) and emits
//! `BENCH_threshold_sweep.json` (or `--out FILE`) with the
//! machine-readable numbers. `results/threshold_sweep_ci.md` is the
//! warm ci report; CI compares it with a fresh run's output.
//!
//! Each axis also records the total bytes of its cache entries and the
//! number of certificate steps they hold (zero without `--cache-dir`):
//! both are a pure function of the inputs, so they gate proof size.
//!
//! `--check FILE` reads FILE before the run and, after writing the fresh
//! JSON, compares its per-point counts with it: solutions, completeness,
//! iterations, solver probes, the warm-start counters and cache hits, the
//! per-axis cache hits/misses/rejections/stores, entry bytes and
//! certificate steps, and `budget_exceeded`.
//! Wall times, certificate-check milliseconds and the budgets are
//! ignored. Any difference is printed by path and fails the run. Every
//! point of the ci sweep is exhaustive, so these counts do not depend on
//! the machine.

use ccac_model::Thresholds;
use ccmatic::cache::ResultCache;
use ccmatic::sweep::{render_table, sweep_with_config, SweepConfig, SweepReport};
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic_bench::drift::{read_committed, report_drift};
use ccmatic_bench::{table1_rows, write_json, Json, Scale};
use ccmatic_cegis::Budget;
use ccmatic_num::{int, rat, Rat};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fields that vary from run to run or machine to machine, left out of
/// `--check`.
fn unchecked(key: &str) -> bool {
    matches!(key, "budget_secs" | "sweep_budget_secs")
        || key.ends_with("wall_s")
        || key.ends_with("cert_ms")
}

/// Total bytes of the cache entries of `report`'s points and the steps of
/// the certificates they hold; zero without a cache.
fn entry_size(
    cache: Option<&ResultCache>,
    base: &SynthOptions,
    report: &SweepReport,
) -> (u64, u64) {
    let Some(cache) = cache else { return (0, 0) };
    let (mut bytes, mut steps) = (0, 0);
    for row in &report.rows {
        let opts = SynthOptions { thresholds: row.thresholds.clone(), ..base.clone() };
        let Ok(text) = std::fs::read_to_string(cache.entry_path(&opts)) else { continue };
        bytes += text.len() as u64;
        let entry = Json::parse(&text).expect("the sweep wrote or accepted this entry");
        let certs = entry.get("solution_certs").and_then(Json::as_arr).unwrap_or_default();
        for cert in certs.iter().chain(entry.get("exhaustion_cert")).filter_map(Json::as_str) {
            // One step per line.
            steps += cert.lines().count() as u64;
        }
    }
    (bytes, steps)
}

fn sweep_json(report: &SweepReport, values: &[Rat], wall_s: f64, size: (u64, u64)) -> Json {
    let cs = &report.cache_stats;
    Json::obj(vec![
        ("wall_s", Json::Num(wall_s)),
        ("budget_exceeded", Json::Bool(report.budget_exceeded)),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::UInt(cs.hits)),
                ("misses", Json::UInt(cs.misses)),
                ("rejected", Json::UInt(cs.rejected)),
                ("stores", Json::UInt(cs.stores)),
                ("entry_bytes", Json::UInt(size.0)),
                ("cert_steps", Json::UInt(size.1)),
                ("cert_ms", Json::Num(cs.cert_ms)),
            ]),
        ),
        (
            "points",
            Json::Arr(
                report
                    .rows
                    .iter()
                    .zip(values)
                    .map(|(row, v)| {
                        let s = &row.result.stats;
                        Json::obj(vec![
                            ("threshold", Json::Str(v.to_string())),
                            ("solutions", Json::UInt(row.result.solutions.len() as u64)),
                            ("complete", Json::Bool(row.result.complete)),
                            ("iterations", Json::UInt(s.iterations)),
                            ("wall_s", Json::Num(s.wall.as_secs_f64())),
                            ("solver_probes", Json::UInt(row.result.solver_probes)),
                            ("warm_traces_seeded", Json::UInt(s.warm_traces_seeded)),
                            ("warm_traces_rejected", Json::UInt(s.warm_traces_rejected)),
                            ("warm_solutions_confirmed", Json::UInt(s.warm_solutions_confirmed)),
                            ("cache_hits", Json::UInt(s.cache_hits)),
                            ("cache_cert_ms", Json::Num(s.cache_cert_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `--require-cached`: every point must have been answered by the cache
/// (certificate re-check only, zero solver probes).
fn require_cached(axis: &str, report: &SweepReport, values: &[Rat]) -> bool {
    let mut ok = true;
    for (row, v) in report.rows.iter().zip(values) {
        if row.result.stats.cache_hits == 0 || row.result.solver_probes > 0 {
            eprintln!(
                "require-cached FAILED: {axis} point {v} re-solved \
                 (cache hits {}, solver probes {})",
                row.result.stats.cache_hits, row.result.solver_probes
            );
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |k: &str| args.iter().any(|a| a == k);
    let opt = |k: &str| args.windows(2).find(|w| w[0] == k).map(|w| w[1].clone());
    let scale = if args.iter().any(|a| a == "paper") { Scale::Paper } else { Scale::Ci };
    let budget_secs: u64 = opt("--budget-secs").and_then(|v| v.parse().ok()).unwrap_or(600);
    let sweep_budget_secs: u64 =
        opt("--sweep-budget-secs").and_then(|v| v.parse().ok()).unwrap_or(budget_secs);
    let warm_start = !flag("--no-warm-start");
    let cache_dir = opt("--cache-dir");
    let out = opt("--out").unwrap_or_else(|| "BENCH_threshold_sweep.json".into());
    // Read before the run: `--out` may name the file being checked.
    let committed = match opt("--check") {
        None => None,
        Some(path) => match read_committed(&path) {
            Ok(doc) => Some((path, doc)),
            Err(e) => {
                eprintln!("threshold_sweep: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // The paper sweeps the No-cwnd/Large space; at ci scale we sweep the
    // Small row so the full sweep fits in minutes.
    let rows = table1_rows(scale);
    let row = match scale {
        Scale::Paper => &rows[1],
        Scale::Ci => &rows[0],
    };
    let base = SynthOptions {
        shape: row.shape.clone(),
        net: row.net.clone(),
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(budget_secs) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };

    let cache = cache_dir.as_ref().map(|d| ResultCache::new(d).expect("unusable --cache-dir"));
    let make_cfg = || SweepConfig {
        warm_start,
        cache: cache.clone(),
        sweep_wall: Some(Duration::from_secs(sweep_budget_secs)),
        ..Default::default()
    };

    println!(
        "# Threshold sweeps over {} / {} ({}, {sweep_budget_secs}s per axis)\n",
        row.params,
        row.domain_label,
        if warm_start { "sequential, warm-started" } else { "sequential, cold" }
    );

    // Both axes sweep loose→tight so the warm carry's nested-solution
    // pre-verification pays off.
    println!("## E4: delay sweep at util ≥ 1/2");
    println!("paper: 245 @ ≤8×RTT · 12 @ ≤4 · 9 @ ≤3.6 · 0 @ ≤3\n");
    let delay_values = [int(8), int(4), rat(18, 5), int(3)];
    let t0 = Instant::now();
    let delay_report =
        sweep_with_config(&base, &delay_values, |t, d| t.delay = d.clone(), &make_cfg());
    let delay_wall = t0.elapsed().as_secs_f64();
    println!("{}", render_table(&delay_report.rows));
    println!("budget exceeded: {}\n", delay_report.budget_exceeded);
    eprintln!("delay sweep wall: {delay_wall:.1}s");

    println!("## E3: utilization sweep at delay ≤ 4×RTT");
    println!("paper: 12 @ ≥50% · 2 @ ≥65% · 1 @ ≥70% (Eq. iii)\n");
    let util_values = [rat(1, 2), rat(13, 20), rat(7, 10)];
    let t0 = Instant::now();
    let util_report =
        sweep_with_config(&base, &util_values, |t, u| t.util = u.clone(), &make_cfg());
    let util_wall = t0.elapsed().as_secs_f64();
    println!("{}", render_table(&util_report.rows));
    println!("budget exceeded: {}", util_report.budget_exceeded);
    eprintln!("utilization sweep wall: {util_wall:.1}s");

    let size = |report: &SweepReport| entry_size(cache.as_ref(), &base, report);
    let json = Json::obj(vec![
        ("bench", Json::Str("threshold_sweep".into())),
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("budget_secs", Json::UInt(budget_secs)),
        ("sweep_budget_secs", Json::UInt(sweep_budget_secs)),
        ("warm_start", Json::Bool(warm_start)),
        ("params", Json::Str(row.params.into())),
        ("domain", Json::Str(row.domain_label.into())),
        ("delay_sweep", sweep_json(&delay_report, &delay_values, delay_wall, size(&delay_report))),
        (
            "utilization_sweep",
            sweep_json(&util_report, &util_values, util_wall, size(&util_report)),
        ),
    ]);
    let _ = write_json(&out, &json);

    let mut ok = true;
    if flag("--require-cached") {
        ok = require_cached("delay", &delay_report, &delay_values)
            & require_cached("util", &util_report, &util_values);
        if ok {
            println!("require-cached: every point answered by certificate re-check");
        }
    }
    if let Some((path, doc)) = &committed {
        ok &= report_drift(path, &json, doc, &unchecked);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
