//! Certified verification of the known-CCA set plus a certified synthesis
//! cell: every UNSAT verdict (including each WCE binary-search
//! infeasibility probe) must carry a DRAT+Farkas certificate that the
//! independent checker in `ccmatic-proof` accepts, and every SAT verdict an
//! exact-audited model. A rejected certificate panics inside the verifier,
//! so this binary exiting 0 *is* the acceptance statement.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin certify -- [--budget-secs N]
//! ```
//!
//! Emits `BENCH_certify.json` with per-CCA certificate statistics and the
//! certified-vs-plain overhead factor on the No-cwnd/Small RP+WCE cell.

use ccac_model::Thresholds;
use ccmatic::known;
use ccmatic::synth::OptMode;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_bench::{run_cell, run_cell_with, table1_rows, write_json, Json, Scale};
use ccmatic_num::{rat, Rat};
use std::process::ExitCode;
use std::time::Duration;

fn certified_verify(spec: &CcaSpec, worst_case: bool) -> (bool, CcaVerifier) {
    let rows = table1_rows(Scale::Ci);
    let mut net = rows[0].net.clone();
    net.history = spec.beta.len().max(spec.alpha.len()) + 1;
    let mut v = CcaVerifier::new(VerifyConfig {
        net,
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: rat(1, 2),
        incremental: true,
        certify: true,
        search: Default::default(),
        theory_sync: true,
    });
    let pass = v.verify(spec).is_ok();
    (pass, v)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let budget_secs: u64 = args
        .windows(2)
        .find(|w| w[0] == "--budget-secs")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(120);

    // The known-CCA set: RoCC plus two reference variants the paper
    // discusses. Verdicts differ (RoCC passes, a constant window is
    // refuted); the invariant under test is that *every* verdict is backed
    // by an accepted certificate or an exact-audited model.
    let cases: Vec<(&str, CcaSpec)> = vec![
        ("rocc", known::rocc()),
        ("eq_iii", known::eq_iii()),
        ("const_cwnd_2", known::const_cwnd(Rat::from(2i64))),
    ];
    let mut json_cases = Vec::new();
    for (name, spec) in &cases {
        for worst_case in [false, true] {
            let (pass, v) = certified_verify(spec, worst_case);
            let a = v.cert_audit;
            println!(
                "{name}{}: {} — {} certificates replayed ({} clauses, {} bytes, {} steps replayed, {:.2} ms in checker)",
                if worst_case { " (WCE)" } else { "" },
                if pass { "VERIFIED" } else { "REFUTED" },
                a.checked,
                a.clauses,
                a.bytes,
                a.steps_replayed,
                a.check_ns as f64 / 1e6,
            );
            json_cases.push(Json::obj(vec![
                ("cca", Json::Str((*name).into())),
                ("worst_case", Json::Bool(worst_case)),
                ("verified", Json::Bool(pass)),
                ("certs_checked", Json::UInt(a.checked)),
                ("proof_clauses", Json::UInt(a.clauses)),
                ("cert_bytes", Json::UInt(a.bytes)),
                ("steps_replayed", Json::UInt(a.steps_replayed)),
                ("check_ms", Json::Num(a.check_ns as f64 / 1e6)),
                ("solver_probes", Json::UInt(v.solver_probes)),
            ]));
        }
    }

    // Certified synthesis on the Table-1 No-cwnd/Small RP+WCE cell, next to
    // the plain run, so the certification overhead factor is on record.
    let rows = table1_rows(Scale::Ci);
    let budget = Duration::from_secs(budget_secs);
    println!("\nrunning No-cwnd/Small RP+WCE, plain …");
    let plain = run_cell(&rows[0], OptMode::RangePruningWce, budget);
    println!("running No-cwnd/Small RP+WCE, certified …");
    let cert = run_cell_with(&rows[0], OptMode::RangePruningWce, budget, |o| o.certify = true);
    let overhead = cert.wall.as_secs_f64() / plain.wall.as_secs_f64().max(1e-9);
    println!(
        "plain {:.2}s vs certified {:.2}s → {overhead:.2}x overhead ({} proof clauses, {} cert bytes, {} steps replayed, {:.1} ms in checker)",
        plain.wall.as_secs_f64(),
        cert.wall.as_secs_f64(),
        cert.proof_clauses,
        cert.cert_bytes,
        cert.steps_replayed,
        cert.check_ms,
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("certify".into())),
        ("budget_secs", Json::UInt(budget_secs)),
        ("cases", Json::Arr(json_cases)),
        ("synth_plain", plain.to_json()),
        ("synth_certified", cert.to_json()),
        ("certify_overhead", Json::Num(overhead)),
    ]);
    let _ = write_json("BENCH_certify.json", &json);

    if !plain.solved || !cert.solved {
        eprintln!("certify: synthesis cell failed to solve within {budget_secs}s");
        return ExitCode::FAILURE;
    }
    if cert.proof_clauses == 0 || cert.cert_bytes == 0 {
        eprintln!("certify: certified run produced no certificates");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
