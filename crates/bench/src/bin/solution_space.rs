//! Regenerate §4 "Extensions": exhaustively enumerate every solution in a
//! search space and report how much history each uses (the paper finds 12
//! RoCC variants in the No-cwnd/Large space: six using 2 RTTs of history,
//! six using 3).
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin solution_space -- [--scale ci|paper] [--budget-secs N]
//! ```
//!
//! Emits `BENCH_solution_space.json` with the machine-readable numbers.

use ccac_model::Thresholds;
use ccmatic::enumerate::enumerate_all;
use ccmatic::known;
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic_bench::{table1_rows, write_json, Json, Scale};
use ccmatic_cegis::Budget;
use ccmatic_num::rat;
use std::collections::BTreeMap;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "paper") { Scale::Paper } else { Scale::Ci };
    let budget_secs: u64 = args
        .windows(2)
        .find(|w| w[0] == "--budget-secs")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(600);

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
            region_pruning: true,
            ..Default::default()
        };
        println!(
            "\n## {} / {} — {} candidates",
            row.params,
            row.domain_label,
            row.shape.search_space_size()
        );
        let result = enumerate_all(&opts);
        println!(
            "{} solution(s); exhaustive: {}; {} iterations; {:.1}s",
            result.solutions.len(),
            result.complete,
            result.stats.iterations,
            result.stats.wall.as_secs_f64()
        );
        let mut by_history: BTreeMap<usize, usize> = BTreeMap::new();
        let rocc = known::rocc();
        for s in &result.solutions {
            *by_history.entry(s.history_used()).or_default() += 1;
            let marker =
                if s.beta == rocc.beta && s.gamma == rocc.gamma { "  ← RoCC" } else { "" };
            println!("  {s}{marker}");
        }
        print!("history usage:");
        for (h, n) in &by_history {
            print!("  {n} use {h} RTTs;");
        }
        println!();
        json_rows.push(Json::obj(vec![
            ("params", Json::Str(row.params.into())),
            ("domain", Json::Str(row.domain_label.into())),
            ("solutions", Json::UInt(result.solutions.len() as u64)),
            ("complete", Json::Bool(result.complete)),
            ("iterations", Json::UInt(result.stats.iterations)),
            ("wall_s", Json::Num(result.stats.wall.as_secs_f64())),
            ("solver_probes", Json::UInt(result.solver_probes)),
            ("threads", Json::UInt(1)),
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
    let _ = write_json("BENCH_solution_space.json", &json);
}
