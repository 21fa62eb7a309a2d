//! Fuzz corpus → CEGIS: `synthesize_seeded` must accept a fuzz corpus as
//! warm-start counterexamples, off-grid ones too.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::lift::lift_checked;
use ccmatic::synth::{synthesize_seeded, SynthOptions};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_fuzz::ScheduleGenome;
use ccmatic_num::{int, Rat};
use std::time::Duration;

fn small_net() -> NetConfig {
    NetConfig { horizon: 6, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None }
}

fn opts() -> SynthOptions {
    SynthOptions {
        shape: TemplateShape {
            lookback: 1,
            use_cwnd: false,
            domain: CoeffDomain::Custom(vec![int(0), int(6), int(7)]),
        },
        net: small_net(),
        thresholds: Thresholds::default(),
        budget: Budget { max_iterations: 200, max_wall: Duration::from_secs(120) },
        ..SynthOptions::default()
    }
}

/// A fuzz corpus warm-starts CEGIS: seeds that replay as refutations are
/// pre-learned (counted in `warm_traces_seeded`), and the loop still
/// reaches the right outcome.
#[test]
fn fuzz_seeds_warm_start_cegis() {
    let o = opts();
    let c1 = CcaSpec { alpha: vec![], beta: vec![int(0)], gamma: int(6) };
    let genome = ScheduleGenome::ideal(o.net.history + o.net.horizon);
    let trace =
        lift_checked(&c1, &genome.lift_config(&o.net, &int(7))).expect("eager lifts are feasible");

    let seeded = synthesize_seeded(&o, &[(c1, trace)]);
    assert_eq!(seeded.stats.warm_traces_seeded, 1, "the refuting seed must be pre-learned");
    assert_eq!(seeded.stats.warm_traces_rejected, 0);

    // γ = 0 (the all-zero candidate) trivially violates utilization; the
    // broken constants are excluded; the cell has no solution — seeded and
    // cold runs must agree on that.
    let cold = ccmatic::synth::synthesize(&o);
    match (&seeded.outcome, &cold.outcome) {
        (Outcome::NoSolution, Outcome::NoSolution) => {}
        other => panic!("seeded/cold outcome mismatch: {other:?}"),
    }
    assert!(
        seeded.stats.iterations <= cold.stats.iterations,
        "a pre-learned refutation cannot cost iterations: seeded {} vs cold {}",
        seeded.stats.iterations,
        cold.stats.iterations
    );

    // γ = 8 lies outside the domain: the seed asserts its trace alone, with
    // no region walk around a point the generator cannot name.
    let off = CcaSpec { alpha: vec![], beta: vec![int(0)], gamma: int(8) };
    let trace =
        lift_checked(&off, &genome.lift_config(&o.net, &int(7))).expect("eager lifts are feasible");
    let seeded = synthesize_seeded(&o, &[(off, trace)]);
    assert_eq!(seeded.stats.warm_traces_seeded, 1, "the off-grid seed must be pre-learned");
    assert!(matches!(seeded.outcome, Outcome::NoSolution), "{:?}", seeded.outcome);
}
