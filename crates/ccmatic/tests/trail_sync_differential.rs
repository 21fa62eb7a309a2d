//! Verdict and synthesis tests for the trail-synchronized theory bridge.
//!
//! The bridge and its theory propagation only change *how* the simplex
//! core reaches a verdict (bounds tracked against the SAT trail, implied
//! atoms enqueued with lazy Farkas explanations), never *which* verdict.
//! These tests pin each reference CCA's verdict, on one long-lived
//! verifier whose bridge state outlives every candidate and on a fresh
//! verifier per candidate, and pin that whole synthesis runs repeat
//! exactly and find solutions a fresh verifier accepts.

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

fn verifier(worst_case: bool) -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: net(),
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        certify: false,
        ..Default::default()
    })
}

#[test]
fn known_cca_verdicts_are_pinned_on_reused_and_fresh_verifiers() {
    // (name, spec, passes)
    let cases: Vec<(&str, CcaSpec, bool)> = vec![
        ("rocc", known::rocc(), true),
        ("eq_iii", known::eq_iii(), false),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero()), false),
        ("const_cwnd(20)", known::const_cwnd(int(20)), false),
        ("copy_cwnd", known::copy_cwnd(), false),
    ];
    for worst_case in [false, true] {
        let mut reused = verifier(worst_case);
        for (name, spec, passes) in &cases {
            let a = reused.verify(spec).is_ok();
            let b = verifier(worst_case).verify(spec).is_ok();
            assert_eq!(a, b, "{name} (wce={worst_case}): reused and fresh verifiers disagree");
            assert_eq!(a, *passes, "{name} (wce={worst_case}): wrong verdict");
        }
    }
}

fn opts() -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(240) },
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        certify: false,
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
fn serial_synthesis_at_fixed_seed_is_reproducible_with_sync() {
    // Trail-sync introduces no hidden nondeterminism: two identical serial
    // runs in one process must match on every counter that reflects search
    // order, not just the outcome.
    let a = synthesize(&opts());
    let b = synthesize(&opts());
    assert_eq!(outcome_kind(&a.outcome), outcome_kind(&b.outcome));
    assert_eq!(a.stats.iterations, b.stats.iterations);
    assert_eq!(a.stats.cex_subsumed, b.stats.cex_subsumed);
    assert_eq!(a.verifier_probes, b.verifier_probes);
    let (Outcome::Solution(sa), Outcome::Solution(sb)) = (&a.outcome, &b.outcome) else {
        panic!("the No-cwnd/Small space has a solution: {:?}", a.outcome);
    };
    assert_eq!(sa, sb, "same seed, different solution");
    // The solution must survive a fresh verifier.
    assert!(verifier(false).verify(sa).is_ok(), "solution failed re-verification: {sa}");
}
