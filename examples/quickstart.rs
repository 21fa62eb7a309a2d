//! Quickstart: watch the CEGIS loop of Figure 1 run live on a reduced
//! search space, then validate the synthesized CCA in the simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ccac_model::{NetConfig, Thresholds};
use ccmatic::synth::{build_loop, OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_cegis::{run_with_progress, Budget, Event, Outcome};
use ccmatic_num::{rat, Rat};
use ccmatic_simnet::{run_simulation, AdversarialSawtooth, LinearCca, SimConfig};
use std::time::Duration;

fn main() {
    // A reduced version of the paper's "No cwnd / Small" configuration:
    // lookback 3 instead of 4 keeps the quickstart under a minute while
    // still containing RoCC (taps at t−1 and t−3).
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
    println!(
        "Synthesizing a CCA: search space {} candidates, targets util ≥ {} / queue ≤ {} BDP\n",
        opts.shape.search_space_size(),
        opts.thresholds.util,
        opts.thresholds.delay
    );

    let (mut generator, mut verifier) = build_loop(&opts);
    let result =
        run_with_progress(&mut generator, &mut verifier, &opts.budget, |event| match event {
            Event::Proposed(i, spec) => println!("[{i:>3}] generator proposes  {spec}"),
            Event::Refuted(i, _, cex) => println!(
                "[{i:>3}] verifier refutes    (util {:.2}, max queue {:.2})",
                cex.utilization().to_f64(),
                cex.max_queue().to_f64()
            ),
            Event::Certified(i, spec) => println!("[{i:>3}] verifier CERTIFIES  {spec} ✓"),
        });

    match result.outcome {
        Outcome::Solution(spec) => {
            println!(
                "\nsolution after {} iterations ({} verifier probes, {:.1}s generator / {:.1}s verifier)",
                result.stats.iterations,
                verifier.inner.solver_probes,
                result.stats.generator_time.as_secs_f64(),
                result.stats.verifier_time.as_secs_f64(),
            );
            // Behavioural validation in the concrete simulator.
            let (alpha, beta, gamma) = spec.coefficients_f64();
            let mut cca = LinearCca { alpha, beta, gamma };
            let mut sched = AdversarialSawtooth::default();
            let sim = run_simulation(&mut cca, &mut sched, &SimConfig::default());
            println!(
                "simulated under adversarial jitter: utilization {:.1}%, max queue {:.2} BDP",
                sim.utilization * 100.0,
                sim.max_queue
            );
        }
        Outcome::NoSolution => println!("\nno CCA in this space satisfies the property"),
        Outcome::BudgetExhausted => println!("\nbudget exhausted before convergence"),
    }
}
