//! Scoped-verifier differentials: one long-lived `CcaVerifier` against a
//! fresh one per candidate.
//!
//! A long-lived verifier keeps the network model in its solver's base scope
//! and verifies each candidate in a pushed scope. That reuse must be a pure
//! performance matter: for every candidate it must agree with a fresh
//! verifier (the same code on a new encoding) and with the candidate's
//! known verdict, in both plain and worst-case-counterexample mode, and no
//! candidate's scope may leak into a later call.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{int, rat, Rat};

fn cfg(worst_case: bool) -> VerifyConfig {
    VerifyConfig {
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: rat(1, 4),
        certify: false,
        ..Default::default()
    }
}

fn known_specs() -> Vec<(&'static str, CcaSpec, bool)> {
    vec![
        ("rocc", known::rocc(), true),
        ("eq_iii", known::eq_iii(), false),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero()), false),
        ("const_cwnd(20)", known::const_cwnd(int(20)), false),
        ("copy_cwnd", known::copy_cwnd(), false),
    ]
}

#[test]
fn plain_mode_agrees_on_known_ccas() {
    // One long-lived verifier across all candidates, compared against a
    // fresh verifier per candidate.
    let mut inc = CcaVerifier::new(cfg(false));
    for (name, spec, expect_ok) in known_specs() {
        let mut fresh = CcaVerifier::new(cfg(false));
        let inc_verdict = inc.verify(&spec);
        let fresh_verdict = fresh.verify(&spec);
        assert_eq!(inc_verdict.is_ok(), fresh_verdict.is_ok(), "{name}: reused and fresh disagree");
        assert_eq!(inc_verdict.is_ok(), expect_ok, "{name}: wrong verdict");
    }
}

#[test]
fn wce_mode_agrees_on_known_ccas() {
    let mut inc = CcaVerifier::new(cfg(true));
    for (name, spec, expect_ok) in known_specs() {
        let mut fresh = CcaVerifier::new(cfg(true));
        let inc_verdict = inc.verify(&spec);
        let fresh_verdict = fresh.verify(&spec);
        assert_eq!(
            inc_verdict.is_ok(),
            fresh_verdict.is_ok(),
            "{name} (WCE): reused and fresh disagree"
        );
        assert_eq!(inc_verdict.is_ok(), expect_ok, "{name} (WCE): wrong verdict");
    }
    // WCE binary search really ran as scoped probes.
    assert!(inc.solver_probes > inc.calls, "WCE should probe more than once per call");
}

#[test]
fn wce_counterexamples_have_comparable_band_width() {
    // Both verifiers maximize the same objective with the same bracket, so
    // the minimum band widths they reach must agree to within the
    // precision. The reused verifier first refutes another candidate, so
    // its search runs warm, on lemmas and bridge state from that call.
    let spec = known::const_cwnd(Rat::zero());
    let band = |tr: &ccac_model::Trace| {
        (0..=tr.t_max)
            .map(|t| {
                let tokens = &int(t + (-tr.t_min)) - tr.w_at(t);
                &tokens - tr.s_at(t)
            })
            .min()
            .unwrap()
    };
    let mut inc = CcaVerifier::new(cfg(true));
    assert!(inc.verify(&known::copy_cwnd()).is_err());
    let mut fresh = CcaVerifier::new(cfg(true));
    let t_inc = inc.verify(&spec).expect_err("refuted");
    let t_fresh = fresh.verify(&spec).expect_err("refuted");
    let (b_inc, b_fresh) = (band(&t_inc), band(&t_fresh));
    let diff = if b_inc >= b_fresh { &b_inc - &b_fresh } else { &b_fresh - &b_inc };
    assert!(
        diff <= rat(1, 4),
        "band widths diverged beyond the bracket precision: {b_inc} vs {b_fresh}"
    );
}

#[test]
fn incremental_verifier_is_reusable_after_mixed_verdicts() {
    // Certify, refute, certify again — the pushed scopes must not leak
    // template equalities into later calls (a stale `cwnd(t) = 0` would
    // wrongly refute RoCC).
    let mut inc = CcaVerifier::new(cfg(false));
    assert!(inc.verify(&known::rocc()).is_ok());
    assert!(inc.verify(&known::const_cwnd(Rat::zero())).is_err());
    assert!(inc.verify(&known::rocc()).is_ok(), "stale scope state leaked into a later call");
    assert!(inc.verify(&known::copy_cwnd()).is_err());
    assert!(inc.verify(&known::rocc()).is_ok());
    assert_eq!(inc.calls, 5);
}
