//! Identifying assumptions and guarantees (§2's second query).
//!
//! The paper asks for assumptions "as logical constraints that (1) serve as
//! a high-level description of equivalence classes of counterexamples and
//! (2) are human interpretable", e.g. *"a network can delay packets by at
//! most 100 µs"*. §4.1 proposes templates of parameterized inequalities.
//!
//! This module implements that program for the three parameters of our
//! model whose satisfaction sets are *monotone*, which makes the weakest /
//! strongest constraint well-defined and findable by binary search over
//! verifier calls (each probe is a full `∀ traces` proof, not a test):
//!
//! * [`max_tolerated_jitter`] — the assumption "the network delays packets
//!   by at most D·RTT": the largest `D` under which the CCA still verifies.
//! * [`utilization_guarantee`] — the strongest utilization clause the CCA
//!   provably delivers at a fixed delay bound.
//! * [`delay_guarantee`] — the tightest queue bound the CCA provably
//!   maintains at a fixed utilization target.
//!
//! Monotonicity arguments (why binary search is sound) are in each item's
//! doc comment.

use crate::template::CcaSpec;
use crate::verifier::{CcaVerifier, VerifyConfig};
use ccac_model::{NetConfig, Thresholds};
use ccmatic_num::Rat;

/// Result of a guarantee search: the proven bound plus the probe count.
#[derive(Clone, Debug)]
pub struct Guarantee {
    /// The proven threshold (see the producing function for its meaning).
    pub value: Rat,
    /// Verifier probes spent.
    pub probes: u32,
}

fn verifies(spec: &CcaSpec, net: &NetConfig, thresholds: &Thresholds) -> bool {
    let mut v = CcaVerifier::new(VerifyConfig {
        net: net.clone(),
        thresholds: thresholds.clone(),
        worst_case: false,
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        certify: false,
        ..Default::default()
    });
    v.verify(spec).is_ok()
}

/// The largest jitter bound `D ∈ [0, max_d]` (in RTT units) under which
/// `spec` still satisfies `thresholds`, or `None` if it fails even at
/// `D = 0`.
///
/// Monotone because a larger `D` strictly enlarges the set of admitted
/// traces: a proof at `D` implies a proof at every `D' ≤ D`, so the
/// satisfied region is a prefix and linear/binary search applies (jitter is
/// integral in the model, so this walks down from `max_d`).
pub fn max_tolerated_jitter(
    spec: &CcaSpec,
    base_net: &NetConfig,
    thresholds: &Thresholds,
    max_d: usize,
) -> Option<Guarantee> {
    let mut probes = 0;
    // Binary search over the integral prefix property.
    let (mut lo, mut hi) = (0usize, max_d + 1); // invariant: verified(lo-1)… we search first failing D
                                                // First check D = 0.
    let mut net = base_net.clone();
    net.jitter = 0;
    probes += 1;
    if !verifies(spec, &net, thresholds) {
        return None;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let mut net = base_net.clone();
        net.jitter = mid;
        probes += 1;
        if verifies(spec, &net, thresholds) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Guarantee { value: Rat::from(lo as i64), probes })
}

/// The strongest utilization threshold in `[0, 1]` that `spec` provably
/// achieves (holding the delay bound of `thresholds` fixed), to within
/// `precision`.
///
/// Monotone because lowering the utilization target only weakens the
/// desired property (`util_ok` becomes easier), so the verified region is
/// `[0, u*]`.
pub fn utilization_guarantee(
    spec: &CcaSpec,
    net: &NetConfig,
    thresholds: &Thresholds,
    precision: &Rat,
) -> Option<Guarantee> {
    let mut probes = 0;
    let mut check = |u: &Rat| {
        probes += 1;
        let th = Thresholds { util: u.clone(), delay: thresholds.delay.clone() };
        verifies(spec, net, &th)
    };
    let mut lo = Rat::zero();
    let mut hi = Rat::one();
    if !check(&lo) {
        return None;
    }
    while &(&hi - &lo) > precision {
        let mid = Rat::midpoint(&lo, &hi);
        if check(&mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Guarantee { value: lo, probes })
}

/// The tightest delay bound (standing queue, BDP units) that `spec`
/// provably maintains (holding the utilization target fixed), to within
/// `precision`. Returns `None` when the CCA fails even at `max_delay`.
///
/// Monotone because raising the queue allowance only weakens `queue_ok`.
pub fn delay_guarantee(
    spec: &CcaSpec,
    net: &NetConfig,
    thresholds: &Thresholds,
    max_delay: &Rat,
    precision: &Rat,
) -> Option<Guarantee> {
    let mut probes = 0;
    let mut check = |d: &Rat| {
        probes += 1;
        let th = Thresholds { util: thresholds.util.clone(), delay: d.clone() };
        verifies(spec, net, &th)
    };
    if !check(max_delay) {
        return None;
    }
    let mut lo = Rat::zero(); // tightest conceivable
    let mut hi = max_delay.clone(); // known to verify
    while &(&hi - &lo) > precision {
        let mid = Rat::midpoint(&lo, &hi);
        if check(&mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Guarantee { value: hi, probes })
}

/// Render an assumption/guarantee report for one CCA — the "human
/// interpretable logical constraints" of §2.
pub fn describe(
    spec: &CcaSpec,
    net: &NetConfig,
    thresholds: &Thresholds,
    precision: &Rat,
) -> String {
    let mut out = format!("CCA: {spec}\n");
    match max_tolerated_jitter(spec, net, thresholds, 3) {
        Some(g) => out.push_str(&format!(
            "  assumption: network jitter ≤ {}×RTT   (fails beyond; {} proofs)\n",
            g.value, g.probes
        )),
        None => out.push_str("  assumption: none — fails even on a jitter-free link\n"),
    }
    match utilization_guarantee(spec, net, thresholds, precision) {
        Some(g) => out.push_str(&format!(
            "  guarantee: utilization ≥ {:.2}   ({} proofs)\n",
            g.value.to_f64(),
            g.probes
        )),
        None => out.push_str("  guarantee: no positive utilization provable\n"),
    }
    match delay_guarantee(spec, net, thresholds, &Rat::from(16i64), precision) {
        Some(g) => out.push_str(&format!(
            "  guarantee: queue ≤ {:.2} BDP   ({} proofs)\n",
            g.value.to_f64(),
            g.probes
        )),
        None => out.push_str("  guarantee: no queue bound ≤ 16 BDP provable\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;
    use ccmatic_num::{int, rat};

    fn net() -> NetConfig {
        NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    #[test]
    fn rocc_tolerates_default_jitter() {
        let g = max_tolerated_jitter(&known::rocc(), &net(), &Thresholds::default(), 2)
            .expect("RoCC verifies at D = 0");
        assert!(
            g.value >= int(1),
            "RoCC must tolerate at least the paper's 1×RTT jitter, got {}",
            g.value
        );
    }

    #[test]
    fn zero_cwnd_has_no_assumption() {
        assert!(
            max_tolerated_jitter(
                &known::const_cwnd(Rat::zero()),
                &net(),
                &Thresholds::default(),
                2
            )
            .is_none(),
            "cwnd = 0 fails even on an ideal link"
        );
    }

    #[test]
    fn rocc_utilization_guarantee_exceeds_half() {
        let g = utilization_guarantee(&known::rocc(), &net(), &Thresholds::default(), &rat(1, 8))
            .expect("RoCC achieves positive utilization");
        assert!(
            g.value >= rat(1, 2),
            "RoCC guarantees at least the paper's 50%, measured {}",
            g.value
        );
    }

    #[test]
    fn rocc_delay_guarantee_is_finite_and_reasonable() {
        let g =
            delay_guarantee(&known::rocc(), &net(), &Thresholds::default(), &int(16), &rat(1, 4))
                .expect("RoCC maintains a bounded queue");
        assert!(g.value <= int(5), "RoCC's provable queue bound ≈ 4, measured {}", g.value);
        assert!(g.value >= int(1), "a sub-BDP bound is impossible under jitter");
    }

    #[test]
    fn oversized_window_has_no_tight_delay_guarantee() {
        let g = delay_guarantee(
            &known::const_cwnd(int(10)),
            &net(),
            &Thresholds::default(),
            &int(16),
            &rat(1, 2),
        );
        if let Some(g) = g {
            assert!(
                g.value > int(4),
                "cwnd = 10 cannot prove a ≤4 BDP queue, measured {}",
                g.value
            );
        }
    }
}
