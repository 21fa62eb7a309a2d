//! §4 scalability claim: "The complexity of verifier formulation is fixed
//! across iterations … The verifier typically takes ≈0.5s to compute a
//! counterexample." This bench measures one verifier call in its three
//! regimes — certify (unsat), refute (sat), refute-with-WCE (binary
//! search) — on long-lived verifiers that keep the network encoding in
//! their base scope (push/pop per candidate).
//!
//! Run with `cargo bench -p ccmatic-bench --bench verifier_call`.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_bench::bench_case;
use ccmatic_num::{rat, Rat};

fn cfg(worst_case: bool) -> VerifyConfig {
    VerifyConfig {
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    }
}

fn main() {
    // Long-lived verifiers: the network encoding is amortized across
    // iterations, matching how CEGIS drives it.
    let mut certify = CcaVerifier::new(cfg(false));
    bench_case("certify_rocc", 1, 10, || {
        assert!(certify.verify(&known::rocc()).is_ok());
    });
    let mut refute = CcaVerifier::new(cfg(false));
    bench_case("refute_const_cwnd", 1, 10, || {
        assert!(refute.verify(&known::const_cwnd(Rat::zero())).is_err());
    });
    let mut wce = CcaVerifier::new(cfg(true));
    bench_case("refute_with_wce", 1, 10, || {
        assert!(wce.verify(&known::const_cwnd(Rat::zero())).is_err());
    });
}
