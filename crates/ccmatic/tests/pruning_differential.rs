//! Differential tests: the pruning layers (region-form feasibility
//! encoding, replay-gated region blocking, counterexample subsumption)
//! must be outcome-invisible. A pruned and an unpruned run may walk the
//! search space in different orders, but every observable verdict —
//! solution found / space provably empty — must agree, every solution
//! must re-verify, and certification must stay green with pruning on.
//!
//! Solution *identity* is not asserted between pruned and unpruned
//! synthesis runs (either may surface a different, equally valid member
//! of the solution set). Exhaustive enumeration is the one place identity
//! is well-defined — there the full solution *sets* are asserted equal.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::enumerate::enumerate_all;
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::Rat;
use std::time::Duration;

fn base_opts(shape: TemplateShape, net: NetConfig, region_pruning: bool) -> SynthOptions {
    SynthOptions {
        shape,
        net,
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(240) },
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        certify: false,
        region_pruning,
        ..Default::default()
    }
}

fn small_opts(region_pruning: bool) -> SynthOptions {
    base_opts(
        TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        region_pruning,
    )
}

fn outcome_kind(o: &Outcome<CcaSpec>) -> &'static str {
    match o {
        Outcome::Solution(_) => "solution",
        Outcome::NoSolution => "no-solution",
        Outcome::BudgetExhausted => "budget",
    }
}

fn reverify(opts: &SynthOptions, spec: &CcaSpec, tag: &str) {
    let mut v = CcaVerifier::new(VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: false,
        wce_precision: opts.wce_precision.clone(),
        certify: false,
        ..Default::default()
    });
    assert!(v.verify(spec).is_ok(), "solution from {tag} run failed re-verification: {spec}");
}

#[test]
fn outcomes_agree_with_and_without_pruning() {
    let pruned = synthesize(&small_opts(true));
    let unpruned = synthesize(&small_opts(false));
    assert_eq!(
        outcome_kind(&pruned.outcome),
        outcome_kind(&unpruned.outcome),
        "verdict diverged: pruned {:?} vs unpruned {:?}",
        pruned.outcome,
        unpruned.outcome
    );
    // The small no-cwnd space is known to contain RoCC-like solutions.
    assert_eq!(outcome_kind(&pruned.outcome), "solution");
    for (r, tag) in [(&pruned, "pruned"), (&unpruned, "unpruned")] {
        if let Outcome::Solution(spec) = &r.outcome {
            reverify(&small_opts(true), spec, tag);
        }
    }
    // Pruning disabled must mean pruning *off*: both counters pinned
    // to zero, so a stray always-on code path can't hide.
    assert_eq!(unpruned.stats.regions_pruned, 0, "unpruned run");
    assert_eq!(unpruned.stats.cex_subsumed, 0, "unpruned run");
}

#[test]
fn no_solution_proof_agrees_with_and_without_pruning() {
    // Demanding 100% utilization with a zero queue bound excludes the
    // whole space. Blocking a region is only sound if every point in it
    // is genuinely refuted — an over-wide region would still reach
    // "no-solution" here, but an *unsound* pruning layer shows up in the
    // mirror-image test above (a pruned-away solution flips the verdict).
    // Here both settings must *prove* emptiness, not time out.
    for region_pruning in [true, false] {
        let mut opts = base_opts(
            TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
            NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
            region_pruning,
        );
        opts.thresholds = Thresholds { util: Rat::one(), delay: Rat::zero() };
        let r = synthesize(&opts);
        assert_eq!(
            outcome_kind(&r.outcome),
            "no-solution",
            "pruning={region_pruning}: {:?}",
            r.outcome
        );
    }
}

#[test]
fn enumeration_is_identical_with_and_without_pruning() {
    // The strongest agreement check: exhaustively enumerate a tiny space
    // (lookback 2, domain {−1,0,1} → 27 candidates) under both settings.
    // Region blocking and subsumption may only ever discard *refuted*
    // candidates, so the exhaustive solution sets must match exactly.
    let enumerate = |region_pruning: bool| {
        let mut opts = base_opts(
            TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
            NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
            region_pruning,
        );
        opts.budget = Budget { max_iterations: 600, max_wall: Duration::from_secs(240) };
        let result = enumerate_all(&opts);
        assert!(result.complete, "tiny space must be exhausted (pruning={region_pruning})");
        let mut set: Vec<String> = result.solutions.iter().map(|s| s.to_string()).collect();
        set.sort();
        set
    };
    let pruned = enumerate(true);
    let unpruned = enumerate(false);
    assert!(!unpruned.is_empty(), "tiny space is known to contain solutions");
    assert_eq!(pruned, unpruned, "pruning changed the exhaustive solution set");
}

#[test]
fn certified_pruned_run_stays_green() {
    // Region blocking happens inside the generator; the verifier's proof
    // obligations are untouched, so certification must pass with pruning
    // on.
    let opts = SynthOptions { certify: true, ..small_opts(true) };
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
    // pruned run that never pruned). Subsumption activity depends on the
    // counterexample schedule and is not asserted here.
    let r = synthesize(&small_opts(true));
    assert_eq!(outcome_kind(&r.outcome), "solution");
    assert!(
        r.stats.regions_pruned > 0,
        "region pruning never fired on the small no-cwnd space: {:?}",
        r.stats
    );
}
