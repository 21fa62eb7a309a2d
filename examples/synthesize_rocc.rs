//! E1: rediscover RoCC (paper §4, "Synthesized CCAs").
//!
//! Runs the paper's "No cwnd / Small" configuration (3⁵ = 243 candidates,
//! lookback 4) with range pruning + worst-case counterexamples, then checks
//! that the paper's RoCC rule itself verifies and enumerates every solution
//! in the space.
//!
//! ```sh
//! cargo run --release --example synthesize_rocc
//! ```

use ccac_model::Thresholds;
use ccmatic::enumerate::enumerate_all;
use ccmatic::known;
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic::template::TemplateShape;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::Budget;
use ccmatic_num::rat;
use std::time::Duration;

fn main() {
    let opts = SynthOptions {
        shape: TemplateShape::no_cwnd_small(),
        mode: OptMode::RangePruningWce,
        thresholds: Thresholds::default(),
        budget: Budget { max_iterations: 4000, max_wall: Duration::from_secs(900) },
        wce_precision: rat(1, 2),
        ..SynthOptions::default()
    };

    // First: the paper's RoCC must verify as-is.
    let mut verifier = CcaVerifier::new(VerifyConfig {
        net: opts.net.clone(),
        thresholds: opts.thresholds.clone(),
        worst_case: false,
        wce_precision: opts.wce_precision.clone(),
        certify: false,
        ..Default::default()
    });
    let rocc = known::rocc();
    match verifier.verify(&rocc) {
        Ok(()) => println!("RoCC `{rocc}` verifies against the model ✓"),
        Err(cex) => {
            println!("RoCC unexpectedly refuted! Counterexample:\n{cex}");
            return;
        }
    }

    // Then: enumerate the full solution set of the 3⁵ space.
    println!(
        "\nEnumerating all solutions in the No-cwnd/Small space ({} candidates)…",
        opts.shape.search_space_size()
    );
    let result = enumerate_all(&opts);
    println!(
        "{} solution(s), exhaustive: {}, {} iterations, {:.1}s total",
        result.solutions.len(),
        result.complete,
        result.stats.iterations,
        result.stats.wall.as_secs_f64(),
    );
    let mut found_rocc = false;
    for s in &result.solutions {
        let marker = if *s == rocc {
            found_rocc = true;
            "   ← RoCC"
        } else {
            ""
        };
        println!("  {s}{marker}   (uses {} RTTs of history)", s.history_used());
    }
    if found_rocc {
        println!("\nRoCC rediscovered, matching the paper's §4 result.");
    } else {
        println!("\nNote: RoCC not in the solution set under these exact thresholds;");
        println!("see EXPERIMENTS.md for the measured-vs-paper discussion.");
    }
}
