//! E3/E4: how the solution space reacts to the utilization and delay
//! thresholds (paper §4, "An interesting observation is how the solution
//! space changes as we change the utilization and delay thresholds").
//!
//! ```sh
//! cargo run --release --example threshold_sweep
//! ```

use ccac_model::{NetConfig, Thresholds};
use ccmatic::sweep::{render_table, sweep_with_config, SweepConfig};
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_cegis::Budget;
use ccmatic_num::{int, rat, Rat};
use std::time::Duration;

fn main() {
    // Reduced space (lookback 3, small domain) so the full sweep runs in
    // minutes on a laptop; `cargo run -p ccmatic-bench --bin solution_space`
    // runs the paper-scale version.
    let base = SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 3000, max_wall: Duration::from_secs(600) },
        wce_precision: rat(1, 2),
        certify: false,
        ..Default::default()
    };

    println!("## Delay sweep (util ≥ 1/2 fixed)\n");
    println!("Paper (9⁵ space): 245 solutions at ≤8×RTT, 9 at ≤3.6×RTT, 0 at ≤3×RTT.\n");
    let delays = [int(8), int(4), rat(18, 5), int(3), int(2)];
    // The default strategy runs loose→tight points in order, warm-starting
    // each from the previous one (same rows as a cold sweep, less work).
    let cfg = SweepConfig::default();
    let rows = sweep_with_config(&base, &delays, |th, d| th.delay = d.clone(), &cfg).rows;
    println!("{}", render_table(&rows));

    println!("## Utilization sweep (delay ≤ 4×RTT fixed)\n");
    println!("Paper (9⁵ space): 12 solutions at ≥50 %, 2 at ≥65 %, 1 at ≥70 % (Eq. iii).\n");
    let utils = [rat(1, 2), rat(13, 20), rat(7, 10), rat(9, 10)];
    let rows = sweep_with_config(&base, &utils, |th, u| th.util = u.clone(), &cfg).rows;
    println!("{}", render_table(&rows));

    println!("The qualitative shape matches the paper: counts shrink monotonically as");
    println!("either threshold tightens, and sufficiently tight delay bounds admit no CCA.");
}
