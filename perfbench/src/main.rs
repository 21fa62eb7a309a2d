//! Benchmark for the CCmatic crates, driven through their public entry
//! points from outside the program.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Runs one workload in this process, checks its outputs, prints every
//! metric by name with its unit, and ends standard output with one JSON
//! result object. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! runs the workload's call once plain and once with spans recorded, and
//! reports per-layer metrics. See `README.md` beside this crate.

mod checks;
mod fuzz;
mod measure;
mod metrics;
mod span;
mod sweep;
mod synth;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["synth-small-wce", "sweep-delay-certified", "fuzz-known"];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--out-dir <dir>]";

/// Command-line arguments.
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Passed to the solver as its search seed.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
    /// Where traced runs write their spans and series.
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics recorded by the workload.
    pub metrics: Metrics,
    /// Operations attempted: synthesis runs, sweep points or fuzz targets.
    pub attempted: u64,
    /// Failed output checks.
    pub failed: u64,
}

impl Report {
    /// Count a failed output check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            eprintln!("perfbench: check failed: {why}");
            self.failed += 1;
        }
    }

    /// Print a run's trajectory fingerprint, flagging one that differs
    /// from the first run's. A different trajectory is not a wrong output:
    /// the generator sizes its region search from measured replay time,
    /// so CPU contention can change how it gets to the same answer.
    pub fn same_trajectory(&mut self, first: &str, this: &str) {
        println!("trajectory: {this}");
        if this != first {
            println!("FLAG: trajectory differs from the first run's ({first})");
        }
    }

    /// Record how much of the traced call (span 0) its child spans cover,
    /// flagging less than 95%.
    pub fn record_coverage(&mut self, spans: &[span::Span]) {
        let covered = span::coverage(spans, 0);
        if covered < 0.95 {
            println!("FLAG: child spans cover only {:.1}% of the traced call", 100.0 * covered);
        }
        self.metrics.set("trace.coverage", covered);
    }

    /// Record the end-to-end metrics of an untraced run.
    pub fn record_untraced<R>(&mut self, reps: &measure::Repeated<R>) {
        let mut walls: Vec<f64> = reps.runs.iter().map(|(w, _)| w.iter().sum()).collect();
        walls.sort_by(f64::total_cmp);
        println!("timed calls: {} · walls {walls:?}", walls.len());
        self.metrics.set("setup_s", reps.setup_s());
        self.metrics.set("call_s", reps.call_s());
        self.metrics.set("peak_rss_mb", reps.peak_rss_mb);
    }
}

/// Write `contents` to `<out-dir>/<workload>-seed<n>.<suffix>`.
pub fn write_out(args: &Args, suffix: &str, contents: &str) {
    let path = args.out_dir.join(format!("{}-seed{}.{suffix}", args.workload, args.seed));
    match std::fs::write(&path, contents) {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench: {} seed {} for {} s{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let report = match args.workload.as_str() {
        "synth-small-wce" => synth::run(&args),
        "sweep-delay-certified" => sweep::run(&args),
        "fuzz-known" => fuzz::run(&args),
        other => unreachable!("workload {other} passed validation"),
    };
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    let unknown = report.metrics.unknown(schema);
    assert!(unknown.is_empty(), "metrics outside the schema: {unknown:?}");
    for (name, unit) in schema {
        println!("{name} = {} {unit}", report.metrics.get(name).unwrap_or(0.0));
    }
    let correct = report.failed == 0;
    println!("{}", report.metrics.result_line(schema, correct, report.attempted, report.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload fuzz-known --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fuzz-known", 3, 10.0, true)
        );
        assert_eq!(a.out_dir, PathBuf::from("perfbench/out"));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fuzz-known --seed x --seconds 1 --trace 0",
            "--workload fuzz-known --seed 1 --seconds 0 --trace 0",
            "--workload fuzz-known --seed 1 --seconds 1 --trace 2",
            "--workload fuzz-known --seed 1 --seconds 1",
            "--workload fuzz-known --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
