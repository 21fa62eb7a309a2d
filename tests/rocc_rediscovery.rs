//! E1 at paper scale: RoCC and its variants verify against the full model
//! (horizon 9, history 5, jitter 1, util ≥ 1/2, queue ≤ 4), and the
//! canonical non-solutions are refuted with meaningful counterexamples.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{int, rat, Rat};

fn paper_verifier() -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: NetConfig::default(),         // horizon 9, history 5, C = 1, D = 1
        thresholds: Thresholds::default(), // util ≥ 1/2, delay ≤ 4
        worst_case: false,
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    })
}

#[test]
fn rocc_verifies_at_paper_scale() {
    let mut v = paper_verifier();
    assert!(
        v.verify(&known::rocc()).is_ok(),
        "RoCC must satisfy util ≥ 50% ∧ queue ≤ 4×RTT under 1×RTT jitter (paper §4)"
    );
}

#[test]
fn zero_and_small_windows_refuted_at_paper_scale() {
    let mut v = paper_verifier();
    let cex = v
        .verify(&known::const_cwnd(Rat::zero()))
        .expect_err("cwnd = 0 cannot achieve any utilization");
    assert!(cex.utilization() < rat(1, 2), "counterexample must show starvation");

    // cwnd pinned at exactly 1 BDP: the paper notes that without RoCC's
    // extra queue, jitter admits arbitrarily low utilization.
    let cex = v
        .verify(&known::const_cwnd(int(1)))
        .expect_err("cwnd = 1 BDP is vulnerable to jitter + eager waste");
    assert!(cex.utilization() < rat(1, 2));
}

#[test]
fn oversized_window_refuted_by_queue_at_paper_scale() {
    let mut v = paper_verifier();
    let cex = v
        .verify(&known::const_cwnd(int(20)))
        .expect_err("cwnd = 20 BDP must violate the 4×RTT queue bound");
    assert!(
        cex.max_queue() > int(4),
        "counterexample must exhibit the standing queue, got {}",
        cex.max_queue()
    );
}

#[test]
fn counterexample_traces_satisfy_network_invariants() {
    // Whatever trace the verifier produces must itself be a legal network
    // behaviour — token bucket, monotonicity, S ≤ A.
    let mut v = paper_verifier();
    let cex = v.verify(&known::copy_cwnd()).expect_err("copy-cwnd is refutable");
    let h = -cex.t_min;
    for t in cex.t_min..=cex.t_max {
        assert!(cex.s_at(t) <= cex.a_at(t), "S ≤ A at t={t}");
        let tokens = &Rat::from(t + h) - cex.w_at(t);
        assert!(cex.s_at(t) <= &tokens, "token bucket at t={t}");
        if t > cex.t_min {
            assert!(cex.s_at(t) >= cex.s_at(t - 1), "S monotone at t={t}");
            assert!(cex.a_at(t) >= cex.a_at(t - 1), "A monotone at t={t}");
            assert!(cex.w_at(t) >= cex.w_at(t - 1), "W monotone at t={t}");
        }
    }
}

#[test]
fn rocc_with_smaller_increment_still_verifies() {
    // Robustness of the family: the γ = +1 additive term can halve and the
    // rule still meets the default thresholds.
    let mut v = paper_verifier();
    let spec =
        CcaSpec { alpha: vec![], beta: vec![int(1), int(0), int(-1), int(0)], gamma: rat(1, 2) };
    assert!(v.verify(&spec).is_ok(), "ack(t−1) − ack(t−3) + 1/2 should also verify");
}

#[test]
fn two_rtt_window_variant_verifies() {
    // cwnd = ack(t−1) − ack(t−2) + 1 uses only 1 RTT of delivered bytes:
    // under jitter 1 the delivered window can shrink to zero for a step, so
    // this tighter rule risks starvation — accept either verdict but
    // require a *witness* when refuted (no solver flakiness).
    let mut v = paper_verifier();
    let spec =
        CcaSpec { alpha: vec![], beta: vec![int(1), int(-1), int(0), int(0)], gamma: int(1) };
    match v.verify(&spec) {
        Ok(()) => {}
        Err(cex) => {
            let violates_util = cex.utilization() < rat(1, 2);
            let violates_queue = cex.max_queue() > int(4);
            assert!(
                violates_util || violates_queue,
                "refutation must come with a property violation:\n{cex}"
            );
        }
    }
}
