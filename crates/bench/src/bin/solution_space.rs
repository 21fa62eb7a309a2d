//! Regenerate §4 "Extensions": exhaustively enumerate every solution in a
//! search space and report how much history each uses (the paper finds 12
//! RoCC variants in the No-cwnd/Large space: six using 2 RTTs of history,
//! six using 3).
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin solution_space -- [--scale ci|paper] [--budget-secs N] \
//!     [--check BENCH_solution_space.json]
//! ```
//!
//! Emits `BENCH_solution_space.json` with the machine-readable numbers.
//! The printed report holds no wall times, and a row the budget cut prints
//! only that it was cut, so the report of a fixed command is the same on
//! every runner.
//!
//! `--check FILE` reads FILE before the run and, after writing the fresh
//! report, compares it with FILE: every field except `wall_s` and
//! `budget_secs`. A row FILE marks incomplete is compared on
//! `complete` alone, because how far a budget-cut enumeration gets depends
//! on the runner. Any difference is printed by path and fails the run.

use ccac_model::Thresholds;
use ccmatic::enumerate::enumerate_all;
use ccmatic::known;
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic_bench::drift::{drift, read_committed, report};
use ccmatic_bench::{table1_rows, write_json, Json, Scale};
use ccmatic_cegis::Budget;
use ccmatic_num::{rat, Rat};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Every field where `fresh` drifted from `committed`, by path: all but
/// `wall_s` and `budget_secs`, and only `complete` on a row the
/// committed file marks incomplete.
fn drifts(fresh: &Json, committed: &Json) -> Vec<String> {
    let mut out = Vec::new();
    drift("", fresh, committed, &|k: &str| k == "budget_secs" || k == "rows", &mut out);
    let (fresh_rows, committed_rows) = (rows(fresh), rows(committed));
    if fresh_rows.len() != committed_rows.len() {
        out.push(format!(".rows: {} items (committed {})", fresh_rows.len(), committed_rows.len()));
        return out;
    }
    for (i, (x, y)) in fresh_rows.iter().zip(committed_rows).enumerate() {
        let path = format!(".rows[{i}]");
        if y.get("complete").and_then(Json::as_bool) == Some(false) {
            drift(&path, x, y, &|k: &str| k != "complete", &mut out);
        } else {
            drift(&path, x, y, &|k: &str| k == "wall_s", &mut out);
        }
    }
    out
}

fn rows(doc: &Json) -> &[Json] {
    doc.get("rows").and_then(Json::as_arr).unwrap_or_default()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |key: &str| args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone());
    let scale = if args.iter().any(|a| a == "paper") { Scale::Paper } else { Scale::Ci };
    let budget_secs: u64 = flag("--budget-secs").and_then(|v| v.parse().ok()).unwrap_or(600);
    // Read before the run: the run rewrites `BENCH_solution_space.json`.
    let committed = match flag("--check") {
        None => None,
        Some(path) => match read_committed(&path) {
            Ok(doc) => Some((path, doc)),
            Err(e) => {
                eprintln!("solution_space: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Row 1 = No-cwnd/Small (RoCC rediscovery), row 2 = No-cwnd/Large (the
    // 12-solution space).
    let rows = table1_rows(scale);
    let mut json_rows = Vec::new();
    for row in &rows[..2] {
        let opts = SynthOptions {
            shape: row.shape.clone(),
            net: row.net.clone(),
            thresholds: Thresholds::default(),
            mode: OptMode::RangePruningWce,
            budget: Budget {
                max_iterations: 1_000_000,
                max_wall: Duration::from_secs(budget_secs),
            },
            wce_precision: rat(1, 2),
            certify: false,
            ..Default::default()
        };
        println!(
            "\n## {} / {} — {} candidates",
            row.params,
            row.domain_label,
            row.shape.search_space_size()
        );
        let result = enumerate_all(&opts);
        let mut by_history: BTreeMap<usize, usize> = BTreeMap::new();
        for s in &result.solutions {
            *by_history.entry(s.history_used()).or_default() += 1;
        }
        if result.complete {
            let (n, iterations) = (result.solutions.len(), result.stats.iterations);
            println!("{n} solution(s); exhaustive; {iterations} iterations");
            // Taps past the last nonzero one read nothing, so a shorter
            // lookback holds RoCC too.
            let taps =
                |b: &[Rat]| b[..b.iter().rposition(|x| !x.is_zero()).map_or(0, |i| i + 1)].to_vec();
            let rocc = known::rocc();
            for s in &result.solutions {
                let is_rocc = taps(&s.beta) == taps(&rocc.beta) && s.gamma == rocc.gamma;
                let marker = if is_rocc { "  ← RoCC" } else { "" };
                println!("  {s}{marker}");
            }
            print!("history usage:");
            for (h, n) in &by_history {
                print!("  {n} use {h} RTTs;");
            }
            println!();
        } else {
            // How far a cut row gets depends on the runner.
            println!("cut by the budget before the enumeration finished");
        }
        json_rows.push(Json::obj(vec![
            ("params", Json::Str(row.params.into())),
            ("domain", Json::Str(row.domain_label.into())),
            ("solutions", Json::UInt(result.solutions.len() as u64)),
            ("complete", Json::Bool(result.complete)),
            ("iterations", Json::UInt(result.stats.iterations)),
            ("wall_s", Json::Num(result.stats.wall.as_secs_f64())),
            ("solver_probes", Json::UInt(result.solver_probes)),
            (
                "history_usage",
                Json::Obj(
                    by_history
                        .iter()
                        .map(|(h, n)| (h.to_string(), Json::UInt(*n as u64)))
                        .collect(),
                ),
            ),
        ]));
    }
    println!("\nPaper reference: 12 solutions in No-cwnd/Large (6 × 2 RTTs, 6 × 3 RTTs),");
    println!("all RoCC variants. Our counts are reported in EXPERIMENTS.md next to the");
    println!("paper's — the encoding re-derivation shifts exact counts, not the shape.");

    let json = Json::obj(vec![
        ("bench", Json::Str("solution_space".into())),
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("budget_secs", Json::UInt(budget_secs)),
        ("rows", Json::Arr(json_rows)),
    ]);
    write_json("BENCH_solution_space.json", &json).expect("write the solution-space report");
    match &committed {
        Some((path, doc)) if !report(path, &drifts(&json, doc)) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rows: Vec<(bool, u64, f64)>) -> Json {
        let rows = rows
            .into_iter()
            .map(|(complete, iterations, wall)| {
                Json::obj(vec![
                    ("complete", Json::Bool(complete)),
                    ("iterations", Json::UInt(iterations)),
                    ("wall_s", Json::Num(wall)),
                ])
            })
            .collect();
        Json::obj(vec![("budget_secs", Json::UInt(120)), ("rows", Json::Arr(rows))])
    }

    #[test]
    fn incomplete_rows_compare_on_completeness_alone() {
        let committed = record(vec![(true, 15, 1.0), (false, 16, 120.0)]);
        assert!(drifts(&record(vec![(true, 15, 2.0), (false, 40, 600.0)]), &committed).is_empty());
        assert_eq!(
            drifts(&record(vec![(true, 14, 1.0), (true, 40, 9.0)]), &committed),
            [".rows[0].iterations: 14 (committed 15)", ".rows[1].complete: true (committed false)"]
        );
    }
}
