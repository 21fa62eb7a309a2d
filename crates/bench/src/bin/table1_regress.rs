//! Compare a fresh `BENCH_table1.json` against a committed baseline and
//! fail on search drift or cost regressions of previously-solved cells.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin table1_regress -- baseline.json fresh.json
//! ```
//!
//! A cell regresses when the baseline solved it and the fresh run no
//! longer solves it, or reports other work counters: `iterations`,
//! `solver_probes`, `regions_pruned`, `pivots`, `bounds_asserted` or
//! `big_ops`. A CEGIS run is a pure function of its inputs, so each of
//! these repeats exactly on every run of the same code. The one loose
//! gate is a wall backstop: more than 2× the baseline wall, plus a 1 s
//! noise floor for scheduler jitter. Cells are matched by the identity
//! tuple (params, domain, method, certified);
//! baseline cells missing from the fresh run count as regressions,
//! fresh-only cells are ignored. Exit status is nonzero iff any cell
//! regressed.

use ccmatic_bench::Json;
use std::process::ExitCode;

/// Factor over the baseline wall beyond which a solved cell regressed.
const MAX_SLOWDOWN: f64 = 2.0;
/// Absolute seconds added to the allowance: sub-second cells vary more
/// than 2× run-to-run on shared CI runners.
const NOISE_FLOOR_S: f64 = 1.0;
/// The work counters a solved cell must repeat exactly.
const EXACT_KEYS: [&str; 6] =
    ["iterations", "solver_probes", "regions_pruned", "pivots", "bounds_asserted", "big_ops"];

/// Identity + measurement of one cell, flattened from the nested JSON.
struct Cell {
    key: String,
    solved: bool,
    counters: [u64; EXACT_KEYS.len()],
    wall_s: f64,
}

fn load(path: &str) -> Result<Vec<Cell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut cells = Vec::new();
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or(format!("{path}: no rows"))?;
    for row in rows {
        let params = row.get("params").and_then(Json::as_str).unwrap_or("?");
        let domain = row.get("domain").and_then(Json::as_str).unwrap_or("?");
        for cell in row.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            let get_bool = |k: &str| cell.get(k).and_then(Json::as_bool).unwrap_or(false);
            let get_num = |k: &str| cell.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let method = cell.get("method").and_then(Json::as_str).unwrap_or("?");
            cells.push(Cell {
                key: format!(
                    "{params} / {domain} / {method}{}",
                    if get_bool("certified") { " (certified)" } else { "" },
                ),
                solved: get_bool("solved"),
                counters: EXACT_KEYS.map(|k| get_num(k) as u64),
                wall_s: get_num("wall_s"),
            });
        }
    }
    Ok(cells)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: table1_regress <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("table1_regress: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = 0usize;
    let mut checked = 0usize;
    for base in baseline.iter().filter(|c| c.solved) {
        checked += 1;
        let allowance = base.wall_s * MAX_SLOWDOWN + NOISE_FLOOR_S;
        match fresh.iter().find(|c| c.key == base.key) {
            None => {
                regressions += 1;
                println!("REGRESSION  {}: solved in baseline, missing from fresh run", base.key);
            }
            Some(f) if !f.solved => {
                regressions += 1;
                println!(
                    "REGRESSION  {}: solved in {:.2}s in baseline, DNF in fresh run",
                    base.key, base.wall_s
                );
            }
            Some(f) if f.counters != base.counters => {
                regressions += 1;
                println!(
                    "REGRESSION  {}: counters drifted, {} {:?} → {:?}",
                    base.key,
                    EXACT_KEYS.join("/"),
                    base.counters,
                    f.counters
                );
            }
            Some(f) if f.wall_s > allowance => {
                regressions += 1;
                println!(
                    "REGRESSION  {}: {:.2}s → {:.2}s (allowed ≤ {:.2}s)",
                    base.key, base.wall_s, f.wall_s, allowance
                );
            }
            Some(f) => {
                println!("ok          {}: {:.2}s → {:.2}s", base.key, base.wall_s, f.wall_s);
            }
        }
    }
    println!("{checked} solved baseline cells checked, {regressions} regressed");
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
