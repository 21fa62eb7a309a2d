//! Differential tests: trail-synchronized theory solving must not change
//! any observable verdict or synthesis outcome.
//!
//! The trail-sync bridge and its theory propagation only change *how* the
//! simplex core reaches a verdict (bounds tracked against the SAT trail,
//! implied atoms enqueued with lazy Farkas explanations) — never *which*
//! verdict. These tests pin that equivalence on the paper's reference
//! CCAs and on whole synthesis runs, comparing each against the same run
//! with the legacy reset-and-reassert bridge
//! (`theory_sync: false`, the `--no-theory-sync` escape hatch).

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{int, Rat};
use std::time::Duration;

fn net() -> NetConfig {
    NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
}

fn verifier(theory_sync: bool, worst_case: bool, incremental: bool) -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: net(),
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        incremental,
        certify: false,
        theory_sync,
        ..Default::default()
    })
}

#[test]
fn known_cca_verdicts_agree_across_sync_modes() {
    let cases: Vec<(&str, CcaSpec)> = vec![
        ("rocc", known::rocc()),
        ("eq_iii", known::eq_iii()),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero())),
        ("const_cwnd(20)", known::const_cwnd(int(20))),
        ("copy_cwnd", known::copy_cwnd()),
    ];
    for worst_case in [false, true] {
        for incremental in [false, true] {
            let mut synced = verifier(true, worst_case, incremental);
            let mut legacy = verifier(false, worst_case, incremental);
            for (name, spec) in &cases {
                let a = synced.verify(spec).is_ok();
                let b = legacy.verify(spec).is_ok();
                assert_eq!(
                    a,
                    b,
                    "verdict diverged for {name} (wce={worst_case}, inc={incremental}): \
                     sync says {}, legacy says {}",
                    if a { "pass" } else { "fail" },
                    if b { "pass" } else { "fail" },
                );
            }
        }
    }
}

fn opts(theory_sync: bool) -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(240) },
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        incremental: true,
        certify: false,
        region_pruning: true,
        theory_sync,
        ..Default::default()
    }
}

fn outcome_kind(o: &Outcome<CcaSpec>) -> &'static str {
    match o {
        Outcome::Solution(_) => "solution",
        Outcome::NoSolution => "no-solution",
        Outcome::BudgetExhausted => "budget",
    }
}

#[test]
fn synthesis_outcome_agrees_across_sync_modes() {
    let synced = synthesize(&opts(true));
    let legacy = synthesize(&opts(false));
    assert_eq!(
        outcome_kind(&synced.outcome),
        outcome_kind(&legacy.outcome),
        "outcome kind diverged between sync modes"
    );
    // Any solution must survive a fresh verifier — regardless of which
    // bridge found it (different search orders may surface different,
    // equally valid members of the solution set).
    for (label, result) in [("sync", &synced), ("no-sync", &legacy)] {
        if let Outcome::Solution(spec) = &result.outcome {
            let mut v = verifier(true, false, true);
            assert!(v.verify(spec).is_ok(), "{label} solution failed re-verification: {spec}");
        }
    }
}

#[test]
fn serial_synthesis_at_fixed_seed_is_reproducible_with_sync() {
    // Trail-sync introduces no hidden nondeterminism: two identical serial
    // runs in one process must match on every counter that reflects search
    // order, not just the outcome.
    let a = synthesize(&opts(true));
    let b = synthesize(&opts(true));
    assert_eq!(outcome_kind(&a.outcome), outcome_kind(&b.outcome));
    assert_eq!(a.stats.iterations, b.stats.iterations);
    assert_eq!(a.stats.cex_subsumed, b.stats.cex_subsumed);
    assert_eq!(a.verifier_probes, b.verifier_probes);
    if let (Outcome::Solution(sa), Outcome::Solution(sb)) = (&a.outcome, &b.outcome) {
        assert_eq!(sa, sb, "same seed, different solution");
    }
}
