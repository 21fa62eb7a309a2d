//! The wall budget is enforced inside solver queries, not only between
//! CEGIS iterations.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::Rat;
use std::time::{Duration, Instant};

#[test]
fn wall_budget_interrupts_mid_query_on_large_domain() {
    // The paper-scale No-cwnd/Large WCE searches run far past 5 s in
    // total; without the in-solver interrupt the loop could only notice the
    // deadline between iterations, long after it passed. Accept a ~3 s
    // grace for the fixpoint-poll granularity and scheduling.
    let opts = SynthOptions {
        shape: TemplateShape { lookback: 4, use_cwnd: false, domain: CoeffDomain::Large },
        net: NetConfig { horizon: 9, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(5) },
        wce_precision: Rat::new(1i64.into(), 2i64.into()),
        ..SynthOptions::default()
    };
    let start = Instant::now();
    let r = synthesize(&opts);
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(8), "run overshot its 5s wall budget: {elapsed:?}");
    if let Outcome::Solution(spec) = &r.outcome {
        let mut v = CcaVerifier::new(VerifyConfig {
            net: opts.net.clone(),
            thresholds: opts.thresholds.clone(),
            wce_precision: opts.wce_precision.clone(),
            ..Default::default()
        });
        assert!(v.verify(spec).is_ok(), "solution failed re-verification: {spec}");
    }
}
