//! Render the Markdown Table 1 from a committed `BENCH_table1.json`, and
//! check or rewrite the copy of it in a report, so prose cannot drift from
//! data.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin table1_report -- \
//!     [--json BENCH_table1.json] [--check FILE | --write FILE]
//! ```
//!
//! With no `--check`/`--write` the table goes to standard output.
//! `--check FILE` exits 1 unless FILE contains the rendered table verbatim.
//! `--write FILE` replaces FILE's table (the block of `|` lines starting at
//! the table header) with the rendered one.

use ccmatic_bench::{render_table1_json, Json};
use std::process::ExitCode;

/// First line of the table block in a report.
const HEADER: &str = "| Params | Domain | Search size | Method | # Itr | Time |";

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
}

/// `report` with its table block replaced by `table`, or `None` when it
/// has no table block.
fn replace_table(report: &str, table: &str) -> Option<String> {
    let start = report.find(HEADER)?;
    let len = report[start..]
        .split_inclusive('\n')
        .take_while(|line| line.starts_with('|'))
        .map(str::len)
        .sum::<usize>();
    Some(format!("{}{table}{}", &report[..start], &report[start + len..]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let json_path = arg(&args, "--json").unwrap_or("BENCH_table1.json");
    let table = match std::fs::read_to_string(json_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|doc| render_table1_json(&doc))
    {
        Ok(table) => table,
        Err(e) => {
            eprintln!("table1_report: cannot render {json_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (path, write) = match (arg(&args, "--check"), arg(&args, "--write")) {
        (Some(p), None) => (p, false),
        (None, Some(p)) => (p, true),
        (None, None) => {
            print!("{table}");
            return ExitCode::SUCCESS;
        }
        (Some(_), Some(_)) => {
            eprintln!("table1_report: pass --check or --write, not both");
            return ExitCode::FAILURE;
        }
    };
    let report = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("table1_report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(updated) = replace_table(&report, &table) else {
        eprintln!("table1_report: {path} has no Table-1 block");
        return ExitCode::FAILURE;
    };
    if write {
        if let Err(e) = std::fs::write(path, updated) {
            eprintln!("table1_report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    } else if updated != report {
        eprintln!("table1_report: {path} has drifted from {json_path}; expected table:\n{table}");
        eprintln!("re-render it with `table1_report --json {json_path} --write {path}`");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
