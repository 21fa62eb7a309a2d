//! `theory_sync: false` must reach every solver a portfolio run builds,
//! generators included: with the legacy reset-and-reassert bridge no
//! solver reuses trail-synchronized bounds or propagates theory literals.
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

fn opts(threads: usize, theory_sync: bool) -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(240) },
        wce_precision: rat(1, 2),
        incremental: true,
        threads,
        seed: 7,
        // Tiny space: force the portfolio path at >1 thread anyway.
        dispatch_min: 0,
        certify: false,
        region_pruning: true,
        theory_sync,
    }
}

#[test]
fn unsynced_runs_never_touch_the_trail_sync_bridge() {
    for threads in [1usize, 2, 4] {
        let before = theory_counters();
        let r = synthesize(&opts(threads, false));
        let after = theory_counters();
        assert!(matches!(r.outcome, Outcome::Solution(_)), "{threads} threads: {:?}", r.outcome);
        assert_eq!(
            (after.bounds_reused - before.bounds_reused, after.theory_props - before.theory_props),
            (0, 0),
            "{threads} threads: a solver ran trail-synchronized under theory_sync: false"
        );
    }
    // The counters do move when sync is on, so the check above can fail.
    let before = theory_counters();
    synthesize(&opts(2, true));
    assert!(theory_counters().bounds_reused > before.bounds_reused);
}
