//! Output checks run outside the timed region.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_fuzz::{run_fuzz, FuzzConfig, FuzzTarget};
use ccmatic_num::{rat, Rat};

/// Re-verify `spec` with a fresh verifier that certifies its verdict (a
/// rejected certificate panics inside the verifier).
pub fn reverify(spec: &CcaSpec, net: &NetConfig, thresholds: &Thresholds) -> Result<(), String> {
    let mut verifier = CcaVerifier::new(VerifyConfig {
        net: net.clone(),
        thresholds: thresholds.clone(),
        worst_case: false,
        wce_precision: rat(1, 2),
        incremental: true,
        certify: true,
        search: Default::default(),
        theory_sync: true,
    });
    match verifier.verify(spec) {
        Ok(()) => Ok(()),
        Err(_) => Err(format!("solution {spec} fails re-verification")),
    }
}

/// Fuzz a verifier-certified `spec` briefly. Any exact failure found is a
/// model gap: a concrete trace the certified claim said cannot exist.
pub fn model_gaps(spec: &CcaSpec, net: &NetConfig, thresholds: &Thresholds) -> u64 {
    let report = run_fuzz(&FuzzConfig {
        seed: 7,
        generations: 30,
        population: 16,
        net: net.clone(),
        thresholds: thresholds.clone(),
        initial_cwnd: Rat::one(),
        target: FuzzTarget::Spec(spec.clone()),
        // The caller already holds the verdict; only concrete failures matter.
        skip_verify: true,
    });
    report.counters.failures_found
}
