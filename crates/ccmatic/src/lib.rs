//! CCmatic: CEGIS-based synthesis of provably robust congestion control.
//!
//! This crate is the reproduction of the HotNets '22 paper's contribution:
//! it answers the CCA-synthesis query
//!
//! ```text
//! ∃ CCA ∈ template.  ∀ network traces τ admitted by the CCAC model.
//!     feasible(CCA, τ) ⟹ desired(CCA, τ)
//! ```
//!
//! using the CEGIS loop of [`ccmatic-cegis`](../ccmatic_cegis/index.html)
//! with an SMT-backed generator and verifier
//! ([`ccmatic-smt`](../ccmatic_smt/index.html)), over the network model of
//! [`ccac-model`](../ccac_model/index.html).
//!
//! # Map to the paper
//!
//! | Paper concept (§) | Module |
//! |---|---|
//! | CCA template, Eq. (ii) (§3.1.1) | [`template`] |
//! | coefficient domains small/large (§4) | [`template::CoeffDomain`] |
//! | product linearization via `ite` (§3.1.2) | [`generator`] selector encoding |
//! | verifier = CCAC query (§3.1) | [`verifier`] |
//! | range pruning (§3.1.2) | [`generator::FeasibilityMode::RangePruning`] |
//! | worst-case counterexample (§3.1.2) | [`verifier::VerifyConfig::worst_case`] |
//! | synthesis of first solution (Table 1) | [`synth`] |
//! | exhaustive solution enumeration (§4) | [`enumerate`] |
//! | threshold sweeps (§4) | [`sweep`] |
//! | RoCC / Eq. (iii) reference points | [`known`] |
//! | identifying assumptions (§2, §4.1) | [`assumptions`] |
//! | differential comparison (§2) | [`differential`] |
//! | conditional templates (§4.1) | [`conditional`] |
//! | brute-force comparison point (§4) | [`brute`] |
//!
//! # Quickstart
//!
//! ```no_run
//! use ccmatic::{synth::{synthesize, OptMode, SynthOptions}, template::TemplateShape};
//!
//! let opts = SynthOptions {
//!     shape: TemplateShape::no_cwnd_small(),
//!     mode: OptMode::RangePruningWce,
//!     ..SynthOptions::default()
//! };
//! let result = synthesize(&opts);
//! println!("{:?}", result.outcome);
//! ```

// Verifier refutations return `Result<(), Trace>`; a `Trace` is a full
// counterexample and only materializes on the refute path, so its size on
// the Err variant is not a hot-path cost.
#![allow(clippy::result_large_err)]

pub mod assumptions;
pub mod brute;
pub mod cache;
pub mod conditional;
pub mod differential;
pub mod enumerate;
pub mod fingerprint;
pub mod generator;
pub mod json;
pub mod known;
pub mod lift;
pub mod replay;
mod sigma;
pub mod sweep;
pub mod synth;
pub mod template;
pub mod verifier;

pub use cache::{CacheStats, ResultCache};
pub use enumerate::{
    enumerate_all, enumerate_all_with, EnumerateResult, WarmEnumeration, WarmStart,
};
pub use replay::TraceReplay;
pub use sweep::{sweep_with_config, SweepConfig, SweepReport, SweepRow};
pub use synth::{synthesize, OptMode, SynthOptions, SynthResult};
pub use template::{CcaSpec, CoeffDomain, TemplateShape};
pub use verifier::{CcaVerifier, CertAudit, VerifyConfig};
