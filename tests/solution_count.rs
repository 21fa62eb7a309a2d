//! E2/E3/E4 on a reduced space: exhaustive enumeration structure. The
//! paper-scale counts (12 solutions in 9⁵, etc.) are regenerated by
//! `cargo run -p ccmatic-bench --bin solution_space`; this test pins the
//! *qualitative* claims at a size CI can afford (lookback 2, 3³ = 27
//! candidates — the space still contains the 2-RTT RoCC variant
//! `cwnd(t) = ack(t−1) − ack(t−2) + 1`):
//!
//! * every enumerated solution re-verifies (soundness),
//! * enumeration is exhaustive (completeness),
//! * the survivors are RoCC-like: rate-proportional taps (sum ≈ 0) with a
//!   non-negative additive term,
//! * tightening the delay threshold only removes solutions, and a
//!   sufficiently tight bound admits none.
//!
//! Utilization-threshold monotonicity is covered at unit level in
//! `ccmatic::sweep`.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::enumerate::enumerate_all;
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::Budget;
use ccmatic_num::{int, rat, Rat};
use std::time::Duration;

fn base_opts() -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 3000, max_wall: Duration::from_secs(420) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    }
}

#[test]
fn enumeration_sound_complete_and_rocc_like() {
    let opts = base_opts();
    let result = enumerate_all(&opts);
    assert!(result.complete, "3³ space must be exhausted within budget");
    assert!(
        !result.solutions.is_empty(),
        "the space contains ack(t−1) − ack(t−2) + 1, so it cannot be empty"
    );
    let mut v = CcaVerifier::new(VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: false,
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    });
    for s in &result.solutions {
        assert!(v.verify(s).is_ok(), "enumerated non-solution {s}");
        let tap_sum = s.beta.iter().fold(Rat::zero(), |acc, b| &acc + b);
        assert!(tap_sum.is_zero(), "solutions should be rate-proportional (taps cancel): {s}");
        assert!(!s.gamma.is_negative(), "negative additive terms shrink cwnd to zero: {s}");
    }
}

#[test]
fn delay_threshold_monotonicity_with_infeasible_floor() {
    let mut loose = base_opts();
    loose.thresholds.delay = int(8);
    let mut tight = base_opts();
    tight.thresholds.delay = int(4);
    let mut impossible = base_opts();
    impossible.thresholds.delay = rat(1, 2);

    let n_loose = enumerate_all(&loose);
    let n_tight = enumerate_all(&tight);
    let n_none = enumerate_all(&impossible);
    assert!(n_loose.complete && n_tight.complete && n_none.complete);
    assert!(
        n_loose.solutions.len() >= n_tight.solutions.len(),
        "loosening delay must not remove solutions ({} vs {})",
        n_loose.solutions.len(),
        n_tight.solutions.len()
    );
    assert!(
        n_none.solutions.is_empty(),
        "queue ≤ 1/2 BDP under 1 RTT jitter is unachievable (paper: none at ≤3×RTT)"
    );
}
