//! §4 scalability claim: "The complexity of verifier formulation is fixed
//! across iterations … The verifier typically takes ≈0.5s to compute a
//! counterexample." This bench measures one verifier call in its three
//! regimes — certify (unsat), refute (sat), refute-with-WCE (binary
//! search) — on both the from-scratch and incremental (push/pop scope)
//! verifier paths.
//!
//! Run with `cargo bench -p ccmatic-bench --bench verifier_call`.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_bench::bench_case;
use ccmatic_num::{rat, Rat};

fn cfg(worst_case: bool, incremental: bool) -> VerifyConfig {
    VerifyConfig {
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case,
        wce_precision: rat(1, 2),
        incremental,
        certify: false,
        theory_sync: true,
        ..Default::default()
    }
}

fn main() {
    for incremental in [false, true] {
        let tag = if incremental { "incremental" } else { "scratch" };
        // Long-lived verifiers: in incremental mode the network encoding is
        // amortized across iterations, matching how CEGIS drives it.
        let mut certify = CcaVerifier::new(cfg(false, incremental));
        bench_case(&format!("certify_rocc/{tag}"), 1, 10, || {
            assert!(certify.verify(&known::rocc()).is_ok());
        });
        let mut refute = CcaVerifier::new(cfg(false, incremental));
        bench_case(&format!("refute_const_cwnd/{tag}"), 1, 10, || {
            assert!(refute.verify(&known::const_cwnd(Rat::zero())).is_err());
        });
        let mut wce = CcaVerifier::new(cfg(true, incremental));
        bench_case(&format!("refute_with_wce/{tag}"), 1, 10, || {
            assert!(wce.verify(&known::const_cwnd(Rat::zero())).is_err());
        });
    }
}
