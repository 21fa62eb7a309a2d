//! Every solver a synthesis run builds, generators and WCE probes included,
//! runs the trail-synchronized theory bridge: a run reuses bounds across
//! theory fixpoints and propagates theory literals.
//!
//! The file holds exactly one `#[test]`: the trail-sync counters are
//! process-wide, and other tests in the same binary would bump them
//! concurrently.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{rat, Rat};
use ccmatic_smt::theory_counters;
use std::time::Duration;

#[test]
fn synthesis_runs_the_trail_sync_bridge() {
    let opts = SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(240) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };
    let before = theory_counters();
    let r = synthesize(&opts);
    let after = theory_counters();
    assert!(matches!(r.outcome, Outcome::Solution(_)), "{:?}", r.outcome);
    assert!(after.bounds_reused > before.bounds_reused, "no bounds reused across fixpoints");
    assert!(after.theory_props > before.theory_props, "no theory literal propagated");
}
