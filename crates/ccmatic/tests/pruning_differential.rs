//! Differential tests: the pruning layers (region-form feasibility
//! encoding, replay-gated region blocking) must be outcome-invisible.
//!
//! The unpruned reference is brute force: every candidate of the space,
//! each verified by a fresh [`CcaVerifier`] with no generator, no learned
//! trace and no replay involved. Exhaustive enumeration is where solution
//! identity is well-defined, so there the full solution *sets* are
//! asserted equal — on a no-cwnd space (region-form σ), a cwnd space
//! (response-variable σ with ite-linearized α products) and a Baseline-mode
//! space (exact-trace feasibility). A synthesis run may surface any member
//! of the set, so there only membership is asserted. The lossy cases
//! (finite buffers) check that σ reads a trace's losses the way the
//! network model does: with `L` ignored, a learned lossy trace may fail to
//! exclude the candidate it refuted, and enumeration re-proposes it until
//! the iteration cap.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::brute::CandidateIter;
use ccmatic::enumerate::enumerate_all;
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{int, rat, Rat};
use std::time::Duration;

fn base_opts(shape: TemplateShape, net: NetConfig) -> SynthOptions {
    SynthOptions {
        shape,
        net,
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 600, max_wall: Duration::from_secs(240) },
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        certify: false,
        ..Default::default()
    }
}

fn small_opts() -> SynthOptions {
    base_opts(
        TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
    )
}

/// Lookback 2, domain {−1,0,1}: 27 no-cwnd candidates.
fn tiny_opts() -> SynthOptions {
    base_opts(
        TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
        NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
    )
}

fn verifier(opts: &SynthOptions) -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: false,
        wce_precision: opts.wce_precision.clone(),
        certify: false,
        ..Default::default()
    })
}

/// Every candidate of `opts.shape` that a fresh verifier accepts, sorted.
fn brute_force_solutions(opts: &SynthOptions) -> Vec<String> {
    let mut set: Vec<String> = CandidateIter::new(opts.shape.clone())
        .filter(|spec| verifier(opts).verify(spec).is_ok())
        .map(|spec| spec.to_string())
        .collect();
    set.sort();
    set
}

/// The exhaustive CEGIS solution set of `opts`, sorted.
fn enumerated_solutions(opts: &SynthOptions) -> Vec<String> {
    let result = enumerate_all(opts);
    assert!(result.complete, "tiny space must be exhausted ({:?})", opts.shape);
    let mut set: Vec<String> = result.solutions.iter().map(|s| s.to_string()).collect();
    set.sort();
    set
}

fn reverify(opts: &SynthOptions, spec: &CcaSpec, tag: &str) {
    assert!(
        verifier(opts).verify(spec).is_ok(),
        "solution from {tag} run failed re-verification: {spec}"
    );
}

#[test]
fn outcomes_agree_with_and_without_pruning() {
    let opts = small_opts();
    let r = synthesize(&opts);
    let Outcome::Solution(spec) = &r.outcome else {
        panic!("the small no-cwnd space holds RoCC-like solutions, got {:?}", r.outcome)
    };
    assert!(
        brute_force_solutions(&opts).contains(&spec.to_string()),
        "synthesized {spec} is not in the brute-force solution set"
    );
}

#[test]
fn no_solution_proof_agrees_with_and_without_pruning() {
    // Demanding 100% utilization with a zero queue bound excludes the
    // whole space: brute force finds nothing, and synthesis must *prove*
    // emptiness, not time out.
    let mut opts = tiny_opts();
    opts.thresholds = Thresholds { util: Rat::one(), delay: Rat::zero() };
    assert!(brute_force_solutions(&opts).is_empty(), "the strict cell must have no solution");
    let r = synthesize(&opts);
    assert!(matches!(r.outcome, Outcome::NoSolution), "{:?}", r.outcome);
}

#[test]
fn enumeration_is_identical_with_and_without_pruning() {
    // Region blocking may only ever discard *refuted* candidates, so the
    // exhaustive solution set must equal the brute-force one.
    let opts = tiny_opts();
    let brute = brute_force_solutions(&opts);
    assert!(!brute.is_empty(), "tiny space is known to contain solutions");
    assert_eq!(enumerated_solutions(&opts), brute, "pruning changed the exhaustive solution set");
}

#[test]
fn cwnd_enumeration_matches_brute_force() {
    // Lookback 2 with cwnd taps: 243 candidates, of which only the
    // α = 0 rate rule survives.
    let opts = base_opts(
        TemplateShape { lookback: 2, use_cwnd: true, domain: CoeffDomain::Small },
        NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
    );
    let brute = brute_force_solutions(&opts);
    assert!(!brute.is_empty(), "the cwnd space is known to contain a solution");
    assert_eq!(enumerated_solutions(&opts), brute);
}

#[test]
fn baseline_enumeration_matches_brute_force() {
    let opts = SynthOptions { mode: OptMode::Baseline, ..tiny_opts() };
    let brute = brute_force_solutions(&opts);
    assert!(!brute.is_empty(), "tiny space is known to contain solutions");
    assert_eq!(enumerated_solutions(&opts), brute);
}

#[test]
fn certified_pruned_run_stays_green() {
    // Region blocking happens inside the generator; the verifier's proof
    // obligations are untouched, so certification must pass with pruning
    // on.
    let opts = SynthOptions { certify: true, ..small_opts() };
    let r = synthesize(&opts);
    let Outcome::Solution(spec) = &r.outcome else {
        panic!("expected a solution, got {:?}", r.outcome)
    };
    reverify(&opts, spec, "certified pruned");
    assert!(r.cert_audit.checked >= 1, "accepting verdict must be certified");
}

#[test]
fn pruning_counters_report_activity() {
    // Non-vacuity: on the small space the region layer must actually
    // block neighbors (otherwise the differential tests above compare a
    // pruned run that never pruned).
    let r = synthesize(&small_opts());
    assert!(matches!(r.outcome, Outcome::Solution(_)), "{:?}", r.outcome);
    assert!(
        r.stats.regions_pruned > 0,
        "region pruning never fired on the small no-cwnd space: {:?}",
        r.stats
    );
}

/// The exhaustive solution set on the tiny space with a finite buffer, in
/// every mode, equals brute force and is proven complete.
fn lossy_enumeration_matches_brute_force(buffer: Rat) {
    let mut opts = tiny_opts();
    opts.net.buffer = Some(buffer.clone());
    let brute = brute_force_solutions(&opts);
    assert!(!brute.is_empty(), "buffer {buffer}: the lossy tiny space has solutions");
    for mode in [OptMode::Baseline, OptMode::RangePruning, OptMode::RangePruningWce] {
        let opts = SynthOptions { mode, ..opts.clone() };
        assert_eq!(enumerated_solutions(&opts), brute, "buffer {buffer}, {mode:?}");
    }
}

#[test]
fn lossy_enumeration_matches_brute_force_half_bdp_buffer() {
    lossy_enumeration_matches_brute_force(rat(1, 2));
}

#[test]
fn lossy_enumeration_matches_brute_force_one_bdp_buffer() {
    lossy_enumeration_matches_brute_force(int(1));
}

#[test]
fn lossy_enumeration_matches_brute_force_two_bdp_buffer() {
    lossy_enumeration_matches_brute_force(int(2));
}
