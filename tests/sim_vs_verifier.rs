//! V1: cross-validation between the proof pipeline and the concrete
//! simulator. A CCA the verifier *certifies* must meet the performance
//! targets on every concrete schedule the simulator can throw at it (the
//! simulator's schedules are a strict subset of the verifier's adversary).

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{rat, Rat};
use ccmatic_simnet::{
    run_simulation, AdversarialSawtooth, IdealLink, LinearCca, LinkSchedule, RandomJitter,
    SimConfig,
};

fn verifier() -> CcaVerifier {
    CcaVerifier::new(VerifyConfig {
        net: NetConfig { horizon: 7, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case: false,
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    })
}

fn simulate_all_schedules(spec: &CcaSpec) -> Vec<(String, f64, f64)> {
    let (alpha, beta, gamma) = spec.coefficients_f64();
    let mut out = Vec::new();
    let schedules: Vec<Box<dyn LinkSchedule>> = vec![
        Box::new(IdealLink),
        Box::new(AdversarialSawtooth::default()),
        Box::new(AdversarialSawtooth { period: 2 }),
        Box::new(RandomJitter::new(1)),
        Box::new(RandomJitter::new(7)),
    ];
    for mut sched in schedules {
        let mut cca = LinearCca { alpha: alpha.clone(), beta: beta.clone(), gamma };
        let res = run_simulation(&mut cca, sched.as_mut(), &SimConfig::default());
        out.push((sched.name(), res.utilization, res.max_queue));
    }
    out
}

#[test]
fn certified_ccas_meet_targets_in_simulation() {
    let mut v = verifier();
    for spec in [known::rocc(), known::eq_iii()] {
        if v.verify(&spec).is_err() {
            // Eq (iii) may or may not survive our re-derived encoding at the
            // default thresholds (see EXPERIMENTS.md); only certified CCAs
            // participate in this cross-check.
            continue;
        }
        for (sched, util, max_queue) in simulate_all_schedules(&spec) {
            assert!(
                util >= 0.5 - 1e-9,
                "{spec} certified but measured {util:.3} utilization on {sched}"
            );
            assert!(
                max_queue <= 4.0 + 1e-9,
                "{spec} certified but measured queue {max_queue:.3} on {sched}"
            );
        }
    }
}

#[test]
fn rocc_is_certified_and_simulates_cleanly() {
    let mut v = verifier();
    assert!(v.verify(&known::rocc()).is_ok());
    for (sched, util, max_queue) in simulate_all_schedules(&known::rocc()) {
        assert!(util >= 0.5, "RoCC {util:.3} on {sched}");
        assert!(max_queue <= 4.0, "RoCC queue {max_queue:.3} on {sched}");
    }
}

#[test]
fn refuted_oversized_window_also_fails_in_simulation() {
    // For queue-violating CCAs the concrete simulator reproduces the
    // verifier's complaint even on the *ideal* schedule.
    let spec = known::const_cwnd(ccmatic_num::int(10));
    let mut v = verifier();
    assert!(v.verify(&spec).is_err());
    let (alpha, beta, gamma) = spec.coefficients_f64();
    let mut cca = LinearCca { alpha, beta, gamma };
    let mut sched = IdealLink;
    let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
    assert!(res.max_queue > 4.0, "simulated queue {}", res.max_queue);
}

#[test]
fn refuted_small_window_starves_under_adversarial_schedule() {
    // cwnd = 1 BDP: the verifier refutes it via jitter + eager waste; the
    // sawtooth schedule realizes a milder version of the same effect.
    let spec = known::const_cwnd(ccmatic_num::int(1));
    let mut v = verifier();
    assert!(v.verify(&spec).is_err());
    let (alpha, beta, gamma) = spec.coefficients_f64();
    let mut cca = LinearCca { alpha, beta, gamma };
    let mut sched = AdversarialSawtooth::default();
    let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
    assert!(
        res.utilization < 1.0 - 1e-6,
        "sawtooth should cost a cwnd-1 flow some utilization, got {}",
        res.utilization
    );
}

/// Adversarial genome-driven schedules: every exact trace the fuzzer lifts
/// from a simulator run must satisfy the CCAC feasibility constraints —
/// the native checker accepts it clause for clause. This is the bridge
/// invariant the whole model-gap protocol rests on: a lifted trace *is* a
/// point the verifier's ∀-adversary quantifies over.
#[test]
fn adversarially_lifted_traces_are_ccac_feasible() {
    use ccac_model::{check_sender_rule, check_trace};
    use ccmatic::lift::lift_checked;
    use ccmatic_fuzz::ScheduleGenome;
    use ccmatic_num::SmallRng;

    let net = NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None };
    let rounds = net.history + net.horizon;
    let mut rng = SmallRng::seed_from_u64(2024);

    // Structured adversaries plus random genomes, against a mix of broken
    // and verified CCAs.
    let mut genomes = vec![ScheduleGenome::ideal(rounds)];
    let mut stall = ScheduleGenome::ideal(rounds);
    stall.lambdas.fill(0);
    genomes.push(stall);
    let mut saw = ScheduleGenome::ideal(rounds);
    for (u, l) in saw.lambdas.iter_mut().enumerate() {
        *l = if u % 2 == 0 { 0 } else { 16 };
    }
    saw.backlog_q = 8;
    genomes.push(saw);
    for _ in 0..12 {
        genomes.push(ScheduleGenome::random(&mut rng, rounds));
    }

    let specs = [
        known::rocc(),
        known::eq_iii(),
        known::const_cwnd(ccmatic_num::int(6)),
        known::const_cwnd(Rat::zero()),
    ];
    let mut accepted = 0u32;
    for spec in &specs {
        for genome in &genomes {
            let cfg = genome.lift_config(&net, &Rat::one());
            // Partial waste (ω < 1) can leave the feasibility band — those
            // lifts are *rejected by the gate*, never silently accepted.
            if let Ok(trace) = lift_checked(spec, &cfg) {
                check_trace(&trace, &net).expect("gated lift must satisfy CCAC constraints");
                check_sender_rule(&trace).expect("lift must obey the sender max-rule");
                accepted += 1;
            }
        }
    }
    // Eager-waste genomes (ideal + stall + sawtooth all keep ω = 1) are
    // always feasible, so the gate can't have rejected everything.
    assert!(accepted >= (3 * specs.len()) as u32, "only {accepted} lifts accepted");
}

/// On dyadic schedules where `f64` arithmetic is exact (λ ∈ {0, 1}, eager
/// waste, integer windows), the simulator trajectory and the exact lift
/// agree bit for bit on the service column — the screen and the
/// confirmation tier are measuring the same network.
#[test]
fn f64_screen_and_exact_lift_agree_on_dyadic_schedules() {
    use ccmatic::lift::lift_schedule;
    use ccmatic_fuzz::{FitnessConfig, ModelCca};

    let net = NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None };
    let spec = known::const_cwnd(ccmatic_num::int(6));
    let mut genome = ccmatic_fuzz::ScheduleGenome::ideal(net.history + net.horizon);
    // λ alternates 0/1 — dyadic, so both arithmetics are exact.
    for (u, l) in genome.lambdas.iter_mut().enumerate() {
        if u % 3 == 0 {
            *l = 0;
        }
    }
    genome.backlog_q = 4; // 1 BDP

    let trace = lift_schedule(&spec, &genome.lift_config(&net, &Rat::one()));
    let fitness_cfg =
        FitnessConfig { net: net.clone(), thresholds: Thresholds::default(), initial_cwnd: 1.0 };
    let mut cca = ModelCca::new(&spec);
    let mut table = genome.table();
    ccmatic_fuzz::evaluate(&mut cca, &mut table, genome.backlog_f64(), &fitness_cfg);
    let sim = SimConfig {
        rounds: net.history + net.horizon,
        warmup: 0,
        link: ccmatic_simnet::LinkConfig {
            rate: 1.0,
            jitter: net.jitter,
            waste: ccmatic_simnet::WastePolicy::Eager,
        },
        initial_backlog: genome.backlog_f64(),
        initial_cwnd: 1.0,
    };
    let mut cca = ModelCca::new(&spec);
    let mut table = genome.table();
    let res = run_simulation(&mut cca, &mut table, &sim);

    // Simulator round u lands at trace row u + 1 (row 0 is the t_min
    // anchor); every served value must match the exact rational.
    for (u, s) in res.steps.iter().map(|r| r.served).enumerate() {
        let exact = trace.s[u + 1].to_f64();
        assert_eq!(s, exact, "service diverged at round {u}: sim {s} vs exact {exact}");
    }
}
