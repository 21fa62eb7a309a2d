//! Deterministic verifier grid: a seeded sample of Large-domain candidates
//! (half-integer coefficients in [−2, 2]), without and with historical
//! cwnd terms, verified with worst-case counterexamples (WCE) on the
//! ci-scale network — one long-lived incremental `CcaVerifier` per family.
//!
//! This isolates the verifier from the generator: the candidate sequence
//! is fixed by the seed, so the work counters (probes, pivots) and the
//! verdict/trace digest must be identical across kernel changes that only
//! alter the cost of arithmetic, while wall time and the arithmetic
//! counters (`promotions`, `big_ops`) show that cost.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin verify_grid -- [--seed N]
//! ```
//!
//! Emits `BENCH_verify_grid.json` with one record per family.

use ccac_model::Thresholds;
use ccmatic::fingerprint::fnv1a64;
use ccmatic::template::{CcaSpec, CoeffDomain};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_bench::{table1_rows, write_json, Json, Scale};
use ccmatic_num::{arith_snapshot, rat, Rat, SmallRng};
use ccmatic_smt::lra::pivots_total;
use std::time::Instant;

/// Candidates per family.
const COUNT: usize = 40;

/// Draw `count` candidates with `lookback` taps (plus cwnd taps when
/// `use_cwnd`) from the Large domain.
fn grid(seed: u64, count: usize, lookback: usize, use_cwnd: bool) -> Vec<CcaSpec> {
    let values = CoeffDomain::Large.values();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut draw = |n: usize| -> Vec<Rat> {
        (0..n).map(|_| values[rng.gen_range_usize(0, values.len())].clone()).collect()
    };
    (0..count)
        .map(|_| CcaSpec {
            alpha: if use_cwnd { draw(lookback) } else { Vec::new() },
            beta: draw(lookback),
            gamma: draw(1).remove(0),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 =
        args.windows(2).find(|w| w[0] == "--seed").and_then(|w| w[1].parse().ok()).unwrap_or(0);

    let rows = table1_rows(Scale::Ci);
    let (lookback, net) = (rows[1].shape.lookback, rows[1].net.clone());
    let mut families = Vec::new();
    for (family, use_cwnd) in [("no-cwnd", false), ("cwnd", true)] {
        // Distinct streams per family from the one seed.
        let specs =
            grid(seed.wrapping_mul(2).wrapping_add(use_cwnd as u64), COUNT, lookback, use_cwnd);
        let mut verifier = CcaVerifier::new(VerifyConfig {
            net: net.clone(),
            thresholds: Thresholds::default(),
            worst_case: true,
            wce_precision: rat(1, 2),
            incremental: true,
            certify: false,
            search: Default::default(),
            theory_sync: true,
        });
        let (arith0, pivots0) = (arith_snapshot(), pivots_total());
        let mut record = String::new();
        let mut passed = 0u64;
        let t0 = Instant::now();
        for spec in &specs {
            match verifier.verify(spec) {
                Ok(()) => {
                    passed += 1;
                    record.push_str(&format!("{spec}: pass\n"));
                }
                Err(trace) => record.push_str(&format!("{spec}: fail {trace:?}\n")),
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let arith = arith_snapshot().since(&arith0);
        let pivots = pivots_total() - pivots0;
        let digest = format!("{:016x}", fnv1a64(&record));
        println!(
            "{family}: {COUNT} candidates ({passed} pass) in {wall:.3} s · probes {} · pivots {pivots} \
             · small_ops {} · promotions {} · big_ops {} · digest {digest}",
            verifier.solver_probes, arith.small_ops, arith.promotions, arith.big_ops,
        );
        families.push(Json::obj(vec![
            ("family", Json::Str(family.into())),
            ("candidates", Json::UInt(COUNT as u64)),
            ("passed", Json::UInt(passed)),
            ("wall_s", Json::Num(wall)),
            ("probes", Json::UInt(verifier.solver_probes)),
            ("pivots", Json::UInt(pivots)),
            ("small_ops", Json::UInt(arith.small_ops)),
            ("promotions", Json::UInt(arith.promotions)),
            ("big_ops", Json::UInt(arith.big_ops)),
            ("digest", Json::Str(digest)),
        ]));
    }
    let json = Json::obj(vec![
        ("bench", Json::Str("verify_grid".into())),
        ("seed", Json::UInt(seed)),
        ("horizon", Json::UInt(net.horizon as u64)),
        ("lookback", Json::UInt(lookback as u64)),
        ("families", Json::Arr(families)),
    ]);
    write_json("BENCH_verify_grid.json", &json).expect("write the grid report");
}
