//! Fixed-seed golden records: kernel changes that claim to change only the
//! cost of a search (not its path) must leave every number here identical.
//!
//! The file holds exactly one `#[test]`: the pivot counts are read from the
//! process-wide `pivots_total()`, which other tests in the same binary
//! would otherwise bump concurrently.
//!
//! Pinned:
//! * the Table-1 No-cwnd/Small cell at ci scale (81 candidates, horizon 6),
//!   RP+WCE on one thread — solution, CEGIS iterations, solver probes,
//!   regions pruned, counterexamples subsumed and simplex pivots;
//! * the same record for the No-cwnd/Large cell at ci scale (6,561
//!   candidates), whose region search runs into its fixed cap;
//! * a certifying WCE verifier over the known-CCA set — per candidate the
//!   verdict, a digest of the counterexample trace, the probe count, the
//!   certificate bytes replayed by the independent checker and the pivots;
//! * `synthesize_seeded` on the same cell at delay ≤ 4, seeded from the
//!   refuted-pair carry of a complete enumeration at delay ≤ 3 — the carry
//!   digest, the warm seeded/rejected split and the search counters;
//! * the warm one-thread delay sweep through `sweep_with_config` — per
//!   point the solution set, iterations, probes, warm seeded/rejected/
//!   confirmed counts, regions pruned and counterexamples subsumed.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::enumerate::enumerate_all_with;
use ccmatic::fingerprint::fnv1a64;
use ccmatic::known;
use ccmatic::sweep::{sweep_with_config, SweepConfig};
use ccmatic::synth::{synthesize, synthesize_seeded, OptMode, SynthOptions, SynthResult};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{int, rat, Rat};
use ccmatic_smt::lra::pivots_total;
use std::time::Duration;

/// The ci-scale network; the known CCAs tap four acks back, so they need
/// one more step of history than the lookback-3 synthesis template.
fn ci_net(history: usize) -> NetConfig {
    NetConfig { horizon: 6, history, link_rate: Rat::one(), jitter: 1, buffer: None }
}

/// The Table-1 No-cwnd/Small cell at ci scale, RP+WCE on one thread.
fn ci_cell() -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: ci_net(4),
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(600) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    }
}

fn outcome(r: &SynthResult) -> String {
    match &r.outcome {
        Outcome::Solution(s) => format!("solution {s}"),
        other => format!("{other:?}"),
    }
}

/// The Table-1 No-cwnd/Large cell at ci scale, RP+WCE on one thread.
fn ci_large_cell() -> SynthOptions {
    let small = ci_cell();
    SynthOptions { shape: TemplateShape { domain: CoeffDomain::Large, ..small.shape }, ..small }
}

fn synth_record(opts: &SynthOptions) -> String {
    let p0 = pivots_total();
    let r = synthesize(opts);
    format!(
        "{} · iterations {} · probes {} · regions pruned {} · cex subsumed {} · pivots {}",
        outcome(&r),
        r.stats.iterations,
        r.verifier_probes,
        r.stats.regions_pruned,
        r.stats.cex_subsumed,
        pivots_total() - p0
    )
}

fn with_delay(opts: &SynthOptions, delay: Rat) -> SynthOptions {
    let mut opts = opts.clone();
    opts.thresholds.delay = delay;
    opts
}

fn seeded_record() -> String {
    let carry = enumerate_all_with(&with_delay(&ci_cell(), int(3)), None, None).carry;
    let p0 = pivots_total();
    let r = synthesize_seeded(&with_delay(&ci_cell(), int(4)), &carry.refuted);
    format!(
        "carry {} pairs {:016x} · {} · iterations {} · probes {} · warm seeded {} · \
         warm rejected {} · regions pruned {} · cex subsumed {} · pivots {}",
        carry.refuted.len(),
        fnv1a64(&format!("{:?}", carry.refuted)),
        outcome(&r),
        r.stats.iterations,
        r.verifier_probes,
        r.stats.warm_traces_seeded,
        r.stats.warm_traces_rejected,
        r.stats.regions_pruned,
        r.stats.cex_subsumed,
        pivots_total() - p0
    )
}

fn sweep_records() -> Vec<String> {
    let delays = [int(8), int(4), rat(18, 5), int(3)];
    let cfg = SweepConfig { threads: 1, warm_start: true, cache: None, sweep_wall: None };
    let report = sweep_with_config(&ci_cell(), &delays, |t, d| t.delay = d.clone(), &cfg);
    assert!(!report.budget_exceeded);
    report
        .rows
        .iter()
        .map(|row| {
            let (r, s) = (&row.result, &row.result.stats);
            format!(
                "delay {}: {} solutions {:016x} · iterations {} · probes {} · warm seeded {} \
                 · warm rejected {} · warm confirmed {} · regions pruned {} · cex subsumed {}",
                row.thresholds.delay,
                r.solutions.len(),
                fnv1a64(&format!("{:?}", r.solutions)),
                s.iterations,
                r.solver_probes,
                s.warm_traces_seeded,
                s.warm_traces_rejected,
                s.warm_solutions_confirmed,
                s.regions_pruned,
                s.cex_subsumed
            )
        })
        .collect()
}

fn verifier_records() -> Vec<String> {
    let mut v = CcaVerifier::new(VerifyConfig {
        net: ci_net(5),
        thresholds: Thresholds::default(),
        worst_case: true,
        wce_precision: rat(1, 2),
        certify: true,
        ..Default::default()
    });
    let set = [
        ("rocc", known::rocc()),
        ("eq_iii", known::eq_iii()),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero())),
        ("const_cwnd(6)", known::const_cwnd(int(6))),
        ("const_cwnd(20)", known::const_cwnd(int(20))),
        ("copy_cwnd", known::copy_cwnd()),
    ];
    set.iter()
        .map(|(name, spec)| {
            let (probes0, bytes0, p0) = (v.solver_probes, v.cert_audit.bytes, pivots_total());
            let verdict = match v.verify(spec) {
                Ok(()) => "pass".to_string(),
                Err(trace) => format!("fail {:016x}", fnv1a64(&format!("{trace:?}"))),
            };
            format!(
                "{name}: {verdict} · probes {} · cert bytes {} · pivots {}",
                v.solver_probes - probes0,
                v.cert_audit.bytes - bytes0,
                pivots_total() - p0
            )
        })
        .collect()
}

#[test]
fn search_trajectories_match_goldens() {
    assert_eq!(
        synth_record(&ci_cell()),
        "solution cwnd(t) = 1·ack(t−1) − 1·ack(t−3) + 1 · iterations 3 · probes 13 \
         · regions pruned 53 · cex subsumed 0 · pivots 1689"
    );
    assert_eq!(
        synth_record(&ci_large_cell()),
        "solution cwnd(t) = 1/2·ack(t−2) + 1/2 · iterations 11 · probes 61 \
         · regions pruned 3989 · cex subsumed 0 · pivots 6653"
    );
    assert_eq!(
        verifier_records(),
        [
            "rocc: pass · probes 1 · cert bytes 18743 · pivots 920",
            "eq_iii: fail 752e1436b53b0869 · probes 6 · cert bytes 152514 · pivots 2454",
            "const_cwnd(0): fail 0ee904dcce60a5d1 · probes 6 · cert bytes 240139 · pivots 246",
            "const_cwnd(6): fail 8a7ae03e2e8ef255 · probes 6 · cert bytes 224706 · pivots 240",
            "const_cwnd(20): fail a89dc44547fd1fcf · probes 6 · cert bytes 248792 · pivots 182",
            "copy_cwnd: fail 9039d8c244875164 · probes 6 · cert bytes 270178 · pivots 232",
        ]
    );
    assert_eq!(
        seeded_record(),
        "carry 7 pairs 99b5e3994c390064 · solution cwnd(t) = 1 · iterations 1 · probes 1 \
         · warm seeded 7 · warm rejected 0 · regions pruned 60 · cex subsumed 0 · pivots 291"
    );
    assert_eq!(
        sweep_records(),
        [
            "delay 8: 7 solutions 3412880f999f089a · iterations 15 · probes 49 · warm seeded 0 \
             · warm rejected 0 · warm confirmed 0 · regions pruned 75 · cex subsumed 0",
            "delay 4: 4 solutions 50c22085580013ce · iterations 1 · probes 22 · warm seeded 7 \
             · warm rejected 0 · warm confirmed 4 · regions pruned 138 · cex subsumed 0",
            "delay 18/5: 3 solutions 1ecfdc70515fafbd · iterations 1 · probes 9 · warm seeded 10 \
             · warm rejected 0 · warm confirmed 3 · regions pruned 170 · cex subsumed 0",
            "delay 3: 3 solutions 1ecfdc70515fafbd · iterations 1 · probes 3 · warm seeded 11 \
             · warm rejected 0 · warm confirmed 3 · regions pruned 170 · cex subsumed 0",
        ]
    );
}
