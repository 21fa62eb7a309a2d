//! Benchmark harness regenerating every table and figure of the paper.
//!
//! | Artifact | Regenerated by |
//! |---|---|
//! | Table 1 (synthesis time / iterations, 4 spaces × 3 methods) | `cargo run --release -p ccmatic-bench --bin table1` and `benches/table1.rs` |
//! | §4 in-text: RoCC rediscovery, 12-solution space | `--bin solution_space` |
//! | §4 threshold sweeps (2/1 at 65/70 % util; 245/9/0 at 8/3.6/3 RTT) | `--bin threshold_sweep` |
//! | §4 scalability in-text (verifier ≈ constant per call) | `benches/verifier_call.rs` |
//! | Figure 1 (CEGIS loop) | `examples/quickstart.rs` live trace |
//! | Solver substrate microbenchmarks | `benches/smt_micro.rs` |
//!
//! Absolute numbers differ from the paper (different solver, different
//! hardware, scaled-down horizons where a cell would not finish in CI);
//! the *shape* — which method wins, by what rough factor, where DNFs
//! appear — is the reproduction target. See EXPERIMENTS.md.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{rat, Rat};
use std::time::Duration;

pub mod drift;
pub mod micro;

pub use ccmatic::json;
pub use ccmatic::json::{write_json, Json};
pub use micro::{bench_case, MicroResult};

/// Scale at which to run the Table-1 grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced spaces (lookback 2–3, horizon 5–6) for CI-time runs.
    Ci,
    /// The paper's spaces (lookback 4, horizon 9). The baseline column
    /// DNFs here, as in the paper.
    Paper,
}

/// One row of Table 1: a search-space configuration.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Paper's `Params` column ("No cwnd" / "cwnd").
    pub params: &'static str,
    /// Paper's `Domain` column ("Small" / "Large").
    pub domain_label: &'static str,
    /// The search space.
    pub shape: TemplateShape,
    /// Network shape for this row.
    pub net: NetConfig,
}

/// The four rows of Table 1 at a given scale.
pub fn table1_rows(scale: Scale) -> Vec<Table1Row> {
    let (lookback, net) = match scale {
        Scale::Ci => (
            3usize,
            NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        ),
        Scale::Paper => (
            4usize,
            NetConfig { horizon: 9, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        ),
    };
    let shape = |use_cwnd: bool, domain: CoeffDomain| TemplateShape { lookback, use_cwnd, domain };
    vec![
        Table1Row {
            params: "No cwnd",
            domain_label: "Small",
            shape: shape(false, CoeffDomain::Small),
            net: net.clone(),
        },
        Table1Row {
            params: "No cwnd",
            domain_label: "Large",
            shape: shape(false, CoeffDomain::Large),
            net: net.clone(),
        },
        Table1Row {
            params: "cwnd",
            domain_label: "Small",
            shape: shape(true, CoeffDomain::Small),
            net: net.clone(),
        },
        Table1Row {
            params: "cwnd",
            domain_label: "Large",
            shape: shape(true, CoeffDomain::Large),
            net,
        },
    ]
}

/// Result of one Table-1 cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Method column label.
    pub method: &'static str,
    /// Iterations used (paper's `# Itr`).
    pub iterations: u64,
    /// Wall-clock (paper's `Time`).
    pub wall: Duration,
    /// Whether a solution was found within budget ("DNF" rows otherwise).
    pub solved: bool,
    /// Verifier solver probes (for the §4 scalability discussion).
    pub verifier_probes: u64,
    /// Candidates blocked by counterexample region generalization.
    pub regions_pruned: u64,
    /// Simplex pivots performed during this cell (process-wide delta).
    pub pivots: u64,
    /// Arithmetic fast-path promotions during this cell (process-wide
    /// delta); the kernel-regression canary paired with `small_ops`.
    pub promotions: u64,
    /// Arithmetic ops that stayed on the machine-word fast path during
    /// this cell (process-wide delta).
    pub small_ops: u64,
    /// Arithmetic ops on already-promoted bignum operands during this cell
    /// (process-wide delta).
    pub big_ops: u64,
    /// Literals implied into SAT trails by theory propagation during this
    /// cell (process-wide delta).
    pub theory_props: u64,
    /// Atom bounds asserted into the simplex during this cell
    /// (process-wide delta).
    pub bounds_asserted: u64,
    /// Atom bounds carried over trail fixpoints without re-assertion
    /// during this cell (process-wide delta) — the trail-sync win.
    pub bounds_reused: u64,
    /// Whether every verifier verdict was certified and checker-replayed.
    pub certified: bool,
    /// Clauses derived across all certificate replays (0 uncertified).
    pub proof_clauses: u64,
    /// Total rendered certificate size in bytes (0 uncertified).
    pub cert_bytes: u64,
    /// Proof steps the independent checker executed (0 uncertified).
    pub steps_replayed: u64,
    /// Wall-clock milliseconds spent in the independent checker.
    pub check_ms: f64,
}

impl CellResult {
    /// This cell as a `BENCH_*.json` record (wall, iterations, solver
    /// probes and the work counters).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("method", Json::Str(self.method.into())),
            ("solved", Json::Bool(self.solved)),
            ("iterations", Json::UInt(self.iterations)),
            ("wall_s", Json::Num(self.wall.as_secs_f64())),
            ("solver_probes", Json::UInt(self.verifier_probes)),
            ("regions_pruned", Json::UInt(self.regions_pruned)),
            ("pivots", Json::UInt(self.pivots)),
            ("promotions", Json::UInt(self.promotions)),
            ("small_ops", Json::UInt(self.small_ops)),
            ("big_ops", Json::UInt(self.big_ops)),
            ("theory_props", Json::UInt(self.theory_props)),
            ("bounds_asserted", Json::UInt(self.bounds_asserted)),
            ("bounds_reused", Json::UInt(self.bounds_reused)),
            ("certified", Json::Bool(self.certified)),
            ("proof_clauses", Json::UInt(self.proof_clauses)),
            ("cert_bytes", Json::UInt(self.cert_bytes)),
            ("steps_replayed", Json::UInt(self.steps_replayed)),
            ("check_ms", Json::Num(self.check_ms)),
        ])
    }

    /// Fraction of counted arithmetic ops that stayed on the fast path
    /// during this cell (1.0 when nothing was counted).
    pub fn fast_fraction(&self) -> f64 {
        let total = self.small_ops + self.promotions + self.big_ops;
        if total == 0 {
            1.0
        } else {
            self.small_ops as f64 / total as f64
        }
    }
}

/// Run one cell: a search space × an optimization mode, under a wall-clock
/// budget (the paper used "one week"; pass something smaller). See
/// [`run_cell_with`] for the certified leg.
pub fn run_cell(row: &Table1Row, mode: OptMode, max_wall: Duration) -> CellResult {
    run_cell_with(row, mode, max_wall, |_| {})
}

/// [`run_cell`] with `tweak` applied to the row's synthesis options, so
/// callers name the fields they change: `certify` makes every verifier
/// verdict carry a checker-replayed proof certificate (or exact model
/// audit) and reports the overhead.
pub fn run_cell_with(
    row: &Table1Row,
    mode: OptMode,
    max_wall: Duration,
    tweak: impl FnOnce(&mut SynthOptions),
) -> CellResult {
    let mut opts = SynthOptions {
        shape: row.shape.clone(),
        net: row.net.clone(),
        thresholds: Thresholds::default(),
        mode,
        budget: Budget { max_iterations: 1_000_000, max_wall },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };
    tweak(&mut opts);
    // Kernel counters are process-wide, so bracket the run with snapshots.
    let arith_before = ccmatic_num::arith_snapshot();
    let pivots_before = ccmatic_smt::lra::pivots_total();
    let theory_before = ccmatic_smt::theory_counters();
    let result = synthesize(&opts);
    let arith = ccmatic_num::arith_snapshot().since(&arith_before);
    let theory = ccmatic_smt::theory_counters();
    CellResult {
        method: mode.label(),
        iterations: result.stats.iterations,
        wall: result.stats.wall,
        solved: matches!(result.outcome, Outcome::Solution(_)),
        verifier_probes: result.verifier_probes,
        regions_pruned: result.stats.regions_pruned,
        pivots: ccmatic_smt::lra::pivots_total().saturating_sub(pivots_before),
        promotions: arith.promotions,
        small_ops: arith.small_ops,
        big_ops: arith.big_ops,
        theory_props: theory.theory_props.saturating_sub(theory_before.theory_props),
        bounds_asserted: theory.bounds_asserted.saturating_sub(theory_before.bounds_asserted),
        bounds_reused: theory.bounds_reused.saturating_sub(theory_before.bounds_reused),
        certified: opts.certify,
        proof_clauses: result.cert_audit.clauses,
        cert_bytes: result.cert_audit.bytes,
        steps_replayed: result.cert_audit.steps_replayed,
        check_ms: result.cert_audit.check_ns as f64 / 1e6,
    }
}

/// Pretty-print a duration the way the paper does (h/m/s).
pub fn fmt_duration(d: Duration, solved: bool) -> String {
    if !solved {
        return "DNF".into();
    }
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{:.1}s", s)
    }
}

/// A Table-1 run as its `BENCH_table1.json` document.
pub fn table1_json(
    scale: Scale,
    budget_secs: u64,
    results: &[(Table1Row, Vec<CellResult>)],
) -> Json {
    let rows = results
        .iter()
        .map(|(row, cells)| {
            Json::obj(vec![
                ("params", Json::Str(row.params.into())),
                ("domain", Json::Str(row.domain_label.into())),
                (
                    "search_size",
                    Json::UInt(row.shape.search_space_size().min(u64::MAX as u128) as u64),
                ),
                ("cells", Json::Arr(cells.iter().map(|c| c.to_json()).collect())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("bench", Json::Str("table1".into())),
        ("scale", Json::Str(format!("{scale:?}").to_lowercase())),
        ("budget_secs", Json::UInt(budget_secs)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Render Table 1 as Markdown from its `BENCH_table1.json` document. The
/// `table1` bin prints its run through this, and committed reports are
/// rendered with it from the committed JSON, so their rows cannot drift
/// from the data.
pub fn render_table1_json(doc: &Json) -> Result<String, String> {
    fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
        obj.get(key).ok_or_else(|| format!("missing `{key}`"))
    }
    fn text<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
        field(obj, key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))
    }
    fn flag(obj: &Json, key: &str) -> Result<bool, String> {
        field(obj, key)?.as_bool().ok_or_else(|| format!("`{key}` is not a bool"))
    }
    fn count(obj: &Json, key: &str) -> Result<u64, String> {
        match field(obj, key)? {
            Json::UInt(n) => Ok(*n),
            _ => Err(format!("`{key}` is not a count")),
        }
    }
    let rows = field(doc, "rows")?.as_arr().ok_or("`rows` is not an array")?;
    let mut out = String::from(
        "| Params | Domain | Search size | Method | # Itr | Time |\n|---|---|---|---|---|---|\n",
    );
    for row in rows {
        let cells = field(row, "cells")?.as_arr().ok_or("`cells` is not an array")?;
        for cell in cells {
            let method = text(cell, "method")?;
            let method = if flag(cell, "certified")? {
                format!("{method} (certified)")
            } else {
                method.to_string()
            };
            let solved = flag(cell, "solved")?;
            let iterations = count(cell, "iterations")?;
            let wall = field(cell, "wall_s")?.as_f64().ok_or("`wall_s` is not a number")?;
            out.push_str(&format!(
                "| {} | {} | {} | {method} | {} | {} |\n",
                text(row, "params")?,
                text(row, "domain")?,
                count(row, "search_size")?,
                if solved { iterations.to_string() } else { format!("{iterations}+") },
                fmt_duration(Duration::from_secs_f64(wall), solved),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_paper_grid() {
        let rows = table1_rows(Scale::Paper);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].shape.search_space_size(), 243); // 3^5
        assert_eq!(rows[1].shape.search_space_size(), 59049); // 9^5
        assert_eq!(rows[2].shape.search_space_size(), 19683); // 3^9
        assert_eq!(rows[3].shape.search_space_size(), 387420489); // 9^9
    }

    #[test]
    fn ci_rows_are_smaller() {
        let ci = table1_rows(Scale::Ci);
        let paper = table1_rows(Scale::Paper);
        for (c, p) in ci.iter().zip(&paper) {
            assert!(c.shape.search_space_size() <= p.shape.search_space_size());
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(3), true), "3.0s");
        assert_eq!(fmt_duration(Duration::from_secs(90), true), "1.5m");
        assert_eq!(fmt_duration(Duration::from_secs(7200), true), "2.0h");
        assert_eq!(fmt_duration(Duration::from_secs(1), false), "DNF");
    }

    #[test]
    fn committed_table1_report_matches_committed_json() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let json = std::fs::read_to_string(format!("{root}/BENCH_table1.json")).unwrap();
        let report = std::fs::read_to_string(format!("{root}/results/table1_ci.md")).unwrap();
        let table = render_table1_json(&Json::parse(&json).unwrap()).unwrap();
        assert!(
            report.contains(&table),
            "results/table1_ci.md has drifted from BENCH_table1.json; re-render it with \
             `cargo run --release -p ccmatic-bench --bin table1_report -- --write \
             results/table1_ci.md`"
        );
    }

    #[test]
    fn one_ci_cell_runs_end_to_end() {
        let rows = table1_rows(Scale::Ci);
        let cell = run_cell(&rows[0], OptMode::RangePruningWce, Duration::from_secs(180));
        assert!(cell.solved, "CI-scale RP+WCE cell must solve quickly");
        assert!(cell.iterations >= 1);

        // Rendered from the run's JSON: a solved row and a DNF certified row.
        let dnf = CellResult { solved: false, certified: true, ..cell.clone() };
        let results = vec![(rows[0].clone(), vec![cell.clone(), dnf])];
        let table = render_table1_json(&table1_json(Scale::Ci, 180, &results)).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        let itr = cell.iterations;
        assert!(lines[2].starts_with(&format!("| No cwnd | Small | 81 | RP+WCE | {itr} | ")));
        assert_eq!(
            lines[3],
            format!("| No cwnd | Small | 81 | RP+WCE (certified) | {itr}+ | DNF |")
        );
    }
}
