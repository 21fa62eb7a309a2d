//! End-to-end smoke tests spanning every crate: one reduced synthesis run
//! validated in the simulator, the ABR pipeline, and the umbrella crate's
//! re-exports.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{synthesize, OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_abr::{verify as abr_verify, AbrConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{int, rat, Rat};
use ccmatic_simnet::{run_simulation, AdversarialSawtooth, LinearCca, SimConfig};
use std::time::Duration;

#[test]
fn synthesize_then_simulate() {
    let opts = SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 500, max_wall: Duration::from_secs(300) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };
    let result = synthesize(&opts);
    let Outcome::Solution(spec) = result.outcome else {
        panic!("reduced-space synthesis must find a solution, got {:?}", result.outcome)
    };
    // Proof carries over to behaviour: the synthesized CCA meets the
    // targets on a concrete adversarial schedule.
    let (alpha, beta, gamma) = spec.coefficients_f64();
    let mut cca = LinearCca { alpha, beta, gamma };
    let mut sched = AdversarialSawtooth::default();
    let sim = run_simulation(&mut cca, &mut sched, &SimConfig::default());
    assert!(sim.utilization >= 0.5, "{spec}: simulated utilization {}", sim.utilization);
    assert!(sim.max_queue <= 4.0, "{spec}: simulated queue {}", sim.max_queue);
}

#[test]
fn abr_pipeline_proves_and_refutes() {
    assert!(abr_verify(&AbrConfig::default()).is_ok());
    let starved = AbrConfig {
        bw_min: rat(1, 4),
        bw_max: rat(1, 2),
        min_high_chunks: 0,
        ..AbrConfig::default()
    };
    let trace = abr_verify(&starved).expect_err("starved band must stall");
    assert_eq!(trace.delivered.len(), starved.horizon);
}

#[test]
fn umbrella_reexports_work() {
    // The top-level crate exposes every subsystem under one roof.
    use ccmatic_repro as repro;
    let mut ctx = repro::smt::Context::new();
    let x = ctx.real_var("x");
    let c = ctx.ge(repro::smt::LinExpr::var(x), repro::smt::LinExpr::constant(int(1)));
    let mut s = repro::smt::Solver::new();
    s.assert(&ctx, c);
    assert_eq!(s.check(&ctx), repro::smt::SatResult::Sat);
    assert!(s.model().unwrap().real(x) >= int(1));

    let rocc = repro::synth::known::rocc();
    assert_eq!(rocc.history_used(), 3);
}
