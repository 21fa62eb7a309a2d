//! Regenerate Table 1: time and iterations to synthesize the first
//! solution, per search space × optimization method.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin table1 -- [--scale ci|paper] [--budget-secs N] [--stats] [--expected]
//! ```
//!
//! Default: CI scale with a 120 s per-cell budget. At `--scale paper` the
//! grid matches the paper's (3⁵ … 9⁹); expect the Baseline column to DNF,
//! exactly as the paper reports ("did not finish within a week" — our
//! budget substitutes for the week). Pass `--expected` to also print the
//! paper's reference numbers; by default the log carries only measured
//! results.

use ccmatic::synth::OptMode;
use ccmatic_bench::{
    fmt_duration, render_table1_json, run_cell, run_cell_with, table1_json, table1_rows,
    write_json, Scale,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "paper")
        || args.windows(2).any(|w| w[0] == "--scale" && w[1] == "paper")
    {
        Scale::Paper
    } else {
        Scale::Ci
    };
    let budget_secs: u64 = args
        .windows(2)
        .find(|w| w[0] == "--budget-secs")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(120);
    let show_stats = args.iter().any(|a| a == "--stats");
    // `--rows N` limits the grid to the first N rows; the cwnd rows' WCE
    // searches can exceed the per-cell budget by an hour at ci scale (the
    // wall budget is only checked between CEGIS iterations).
    let max_rows: usize = args
        .windows(2)
        .find(|w| w[0] == "--rows")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(usize::MAX);
    let budget = Duration::from_secs(budget_secs);

    println!("# Table 1 — time to synthesize first solution ({scale:?} scale, {budget_secs}s/cell budget)\n");
    // Measured results only by default: the paper's expected-shape table
    // is opt-in so CI logs aren't mistaken for measurements.
    if args.iter().any(|a| a == "--expected") {
        println!("Paper reference (Xeon 6226R, Z3 4.8.17, 1 core):");
        println!("  No-cwnd/Small : Baseline 100 itr / 3m  → RP 30/30s → RP+WCE 7/3s");
        println!("  No-cwnd/Large : Baseline DNF           → RP 60/1m  → RP+WCE 50/1m");
        println!("  cwnd/Small    : Baseline DNF           → RP 100/9m → RP+WCE 50/30s");
        println!("  cwnd/Large    : Baseline DNF           → RP 360/32h→ RP+WCE 80/45m\n");
    }

    let mut rows = table1_rows(scale);
    rows.truncate(max_rows);
    let mut results = Vec::new();
    for row in rows {
        let mut cells = Vec::new();
        for mode in [OptMode::Baseline, OptMode::RangePruning, OptMode::RangePruningWce] {
            eprintln!("running {} / {} / {} …", row.params, row.domain_label, mode.label());
            let cell = run_cell(&row, mode, budget);
            eprintln!(
                "  → {} in {} ({} iterations, {} verifier probes)",
                if cell.solved { "solved" } else { "DNF" },
                fmt_duration(cell.wall, true),
                cell.iterations,
                cell.verifier_probes,
            );
            if show_stats {
                eprintln!(
                    "  stats: {:.2} probes/iteration · {} pivots · {} promotions · fast-path {:.2}% · {} regions pruned",
                    cell.verifier_probes as f64 / cell.iterations.max(1) as f64,
                    cell.pivots,
                    cell.promotions,
                    cell.fast_fraction() * 100.0,
                    cell.regions_pruned,
                );
                eprintln!(
                    "  theory: {} props · {} bounds asserted · {} reused",
                    cell.theory_props, cell.bounds_asserted, cell.bounds_reused,
                );
            }
            cells.push(cell);
        }
        // Certified RP+WCE: every verdict carries a checker-replayed proof
        // certificate. Reported next to the uncertified cell so the
        // overhead factor is visible per row.
        eprintln!("running {} / {} / RP+WCE (certified) …", row.params, row.domain_label);
        let certified = run_cell_with(&row, OptMode::RangePruningWce, budget, |o| o.certify = true);
        let plain_wall = cells[2].wall;
        eprintln!(
            "  → {} in {} ({} proof clauses, {} cert bytes, {:.1} ms in checker, {:.2}x uncertified)",
            if certified.solved { "solved" } else { "DNF" },
            fmt_duration(certified.wall, true),
            certified.proof_clauses,
            certified.cert_bytes,
            certified.check_ms,
            certified.wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9),
        );
        cells.push(certified);
        results.push((row, cells));
    }

    let json = table1_json(scale, budget_secs, &results);
    println!("{}", render_table1_json(&json).expect("a run renders from its own JSON"));
    println!("\nDNF = no solution within the per-cell budget (the paper's analogue: one week).");
    println!("Each row's extra RP+WCE (certified) line: checker-replayed proofs on every verdict.");

    let _ = write_json("BENCH_table1.json", &json);
}
