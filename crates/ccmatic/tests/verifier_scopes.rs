//! Incremental vs. from-scratch verifier differentials.
//!
//! `VerifyConfig::incremental` must be a pure performance knob: for every
//! candidate, both paths must agree on certify/refute, in both plain and
//! worst-case-counterexample mode, and the counterexamples each path returns
//! must be genuine violations of the same thresholds.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{int, rat, Rat};

fn cfg(worst_case: bool, incremental: bool) -> VerifyConfig {
    VerifyConfig {
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: rat(1, 4),
        incremental,
        certify: false,
        theory_sync: true,
        ..Default::default()
    }
}

fn known_specs() -> Vec<(&'static str, CcaSpec, bool)> {
    vec![
        ("rocc", known::rocc(), true),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero()), false),
        ("const_cwnd(20)", known::const_cwnd(int(20)), false),
        ("copy_cwnd", known::copy_cwnd(), false),
    ]
}

#[test]
fn plain_mode_agrees_on_known_ccas() {
    // One long-lived incremental verifier across all candidates, compared
    // against a fresh from-scratch verifier per candidate.
    let mut inc = CcaVerifier::new(cfg(false, true));
    for (name, spec, expect_ok) in known_specs() {
        let mut scratch = CcaVerifier::new(cfg(false, false));
        let inc_verdict = inc.verify(&spec);
        let scratch_verdict = scratch.verify(&spec);
        assert_eq!(
            inc_verdict.is_ok(),
            scratch_verdict.is_ok(),
            "{name}: incremental and from-scratch disagree"
        );
        assert_eq!(inc_verdict.is_ok(), expect_ok, "{name}: wrong verdict");
    }
}

#[test]
fn wce_mode_agrees_on_known_ccas() {
    let mut inc = CcaVerifier::new(cfg(true, true));
    for (name, spec, expect_ok) in known_specs() {
        let mut scratch = CcaVerifier::new(cfg(true, false));
        let inc_verdict = inc.verify(&spec);
        let scratch_verdict = scratch.verify(&spec);
        assert_eq!(
            inc_verdict.is_ok(),
            scratch_verdict.is_ok(),
            "{name} (WCE): incremental and from-scratch disagree"
        );
        assert_eq!(inc_verdict.is_ok(), expect_ok, "{name} (WCE): wrong verdict");
    }
    // WCE binary search really ran as scoped probes.
    assert!(inc.solver_probes > inc.calls, "WCE should probe more than once per call");
}

#[test]
fn wce_counterexamples_have_comparable_band_width() {
    // Both paths maximize the same objective with the same bracket, so the
    // minimum band widths they reach must agree to within the precision.
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
    let mut inc = CcaVerifier::new(cfg(true, true));
    let mut scratch = CcaVerifier::new(cfg(true, false));
    let t_inc = inc.verify(&spec).expect_err("refuted");
    let t_scratch = scratch.verify(&spec).expect_err("refuted");
    let (b_inc, b_scratch) = (band(&t_inc), band(&t_scratch));
    let diff = if b_inc >= b_scratch { &b_inc - &b_scratch } else { &b_scratch - &b_inc };
    assert!(
        diff <= rat(1, 4),
        "band widths diverged beyond the bracket precision: {b_inc} vs {b_scratch}"
    );
}

#[test]
fn incremental_verifier_is_reusable_after_mixed_verdicts() {
    // Certify, refute, certify again — the pushed scopes must not leak
    // template equalities into later calls (a stale `cwnd(t) = 0` would
    // wrongly refute RoCC).
    let mut inc = CcaVerifier::new(cfg(false, true));
    assert!(inc.verify(&known::rocc()).is_ok());
    assert!(inc.verify(&known::const_cwnd(Rat::zero())).is_err());
    assert!(inc.verify(&known::rocc()).is_ok(), "stale scope state leaked into a later call");
    assert!(inc.verify(&known::copy_cwnd()).is_err());
    assert!(inc.verify(&known::rocc()).is_ok());
    assert_eq!(inc.calls, 5);
}
