//! Benchmark tracking Table 1's headline cell: time to first solution with
//! each optimization level on the (CI-scale) No-cwnd/Small space. The full
//! paper-scale grid is the `table1` *binary*; this bench exists so
//! regressions in the synthesis pipeline show up in `cargo bench`.
//!
//! Run with `cargo bench -p ccmatic-bench --bench table1`.

use ccmatic::synth::OptMode;
use ccmatic_bench::{bench_case, run_cell, run_cell_with, table1_rows, Scale};
use std::time::Duration;

fn main() {
    let rows = table1_rows(Scale::Ci);
    let row = rows[0].clone(); // No cwnd / Small

    bench_case("table1/no_cwnd_small/rp_wce", 1, 5, || {
        let cell = run_cell(&row, OptMode::RangePruningWce, Duration::from_secs(120));
        assert!(cell.solved);
    });
    bench_case("table1/no_cwnd_small/rp_wce_certified", 1, 5, || {
        let cell = run_cell_with(&row, OptMode::RangePruningWce, Duration::from_secs(120), |o| {
            o.certify = true
        });
        assert!(cell.solved);
        assert!(cell.proof_clauses > 0, "certified run must have replayed certificates");
    });
    bench_case("table1/no_cwnd_small/rp", 1, 5, || {
        let cell = run_cell(&row, OptMode::RangePruning, Duration::from_secs(120));
        assert!(cell.solved);
    });

    // The Baseline column is measured separately with a short budget: it is
    // expected to be dramatically slower (the paper's DNF behaviour); we
    // record the time-to-budget rather than failing the bench.
    bench_case("table1/no_cwnd_small/baseline_budgeted", 0, 3, || {
        let _ = run_cell(&row, OptMode::Baseline, Duration::from_secs(2));
    });
}
