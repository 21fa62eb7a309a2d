//! Benchmark of exhaustive solution enumeration on a compact space — the
//! machinery behind the paper's "we ask CCmatic to produce all possible
//! solutions" result (E2) and the threshold sweeps (E3/E4).
//!
//! Run with `cargo bench -p ccmatic-bench --bench solution_space`.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::enumerate::enumerate_all;
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_bench::bench_case;
use ccmatic_cegis::Budget;
use ccmatic_num::{rat, Rat};
use std::time::Duration;

fn main() {
    let opts = SynthOptions {
        shape: TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 4, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 2000, max_wall: Duration::from_secs(300) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };
    bench_case("enumerate_lookback2_small", 1, 5, || {
        let r = enumerate_all(&opts);
        assert!(r.complete);
    });
}
