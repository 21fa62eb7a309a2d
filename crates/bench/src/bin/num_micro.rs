//! Microbenchmarks of the arithmetic kernel under the simplex: `Rat`
//! add/mul/cmp on the small-value fast path, `BigInt` gcd, a simplex
//! pivot kernel driven through the public `Simplex` API, and one verifier
//! call whose tableau is the densest the verifier builds. These back the
//! DESIGN.md §8 claim that the hot loop runs allocation-free on
//! machine-word operands.
//!
//! ```sh
//! cargo run --release -p ccmatic-bench --bin num_micro -- [--check BENCH_num_micro.json]
//! ```
//!
//! Emits `BENCH_num_micro.json` with per-case mean/min timings plus the
//! pivot, row-spill and arithmetic counters accumulated across the whole
//! run.
//!
//! `--check FILE` reads FILE before the run and, after writing the fresh
//! `BENCH_num_micro.json`, compares every field except the timings,
//! `small_ops` and `fast_fraction` with it: the case list, `pivots`,
//! `promotions`, `big_ops` and `row_spills`. Any difference is printed by
//! path and fails the run.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_bench::drift::{read_committed, report_drift};
use ccmatic_bench::{bench_case, write_json, Json, MicroResult};
use ccmatic_num::{rat, BigInt, DeltaRat, Rat, SmallRng};
use ccmatic_smt::lra::Simplex;
use std::hint::black_box;
use std::process::ExitCode;

/// Pre-generate small rational operands of the kind the LRA tableau holds:
/// single-digit numerators over denominators up to 16.
fn small_rats(n: usize, seed: u64) -> Vec<Rat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rat(rng.gen_range_i64(-9, 10), rng.gen_range_i64(1, 17))).collect()
}

fn rat_add_case(operands: &[Rat]) -> MicroResult {
    bench_case("rat_add", 3, 20, || {
        let mut acc = Rat::zero();
        for r in operands {
            acc += r;
        }
        black_box(&acc);
    })
}

fn rat_mul_case(operands: &[Rat]) -> MicroResult {
    bench_case("rat_mul", 3, 20, || {
        // Multiply in pairs rather than folding one product: a running
        // product would promote to bignum and measure the slow path.
        let mut acc = Rat::zero();
        for pair in operands.chunks_exact(2) {
            acc += &(&pair[0] * &pair[1]);
        }
        black_box(&acc);
    })
}

fn rat_cmp_case(operands: &[Rat]) -> MicroResult {
    bench_case("rat_cmp", 3, 20, || {
        let mut less = 0u32;
        for pair in operands.windows(2) {
            if pair[0] < pair[1] {
                less += 1;
            }
        }
        black_box(less);
    })
}

fn gcd_case() -> MicroResult {
    let mut rng = SmallRng::seed_from_u64(7);
    let pairs: Vec<(BigInt, BigInt)> = (0..2_000)
        .map(|_| {
            (
                BigInt::from(rng.gen_range_i64(i64::MIN / 2, i64::MAX / 2)),
                BigInt::from(rng.gen_range_i64(1, 1 << 40)),
            )
        })
        .collect();
    bench_case("bigint_gcd", 3, 20, || {
        let mut acc = 0u64;
        for (a, b) in &pairs {
            acc = acc.wrapping_add(a.gcd(b).to_i64().unwrap_or(0) as u64);
        }
        black_box(acc);
    })
}

/// A simplex kernel that pivots through a full chain on every iteration:
/// `n` variables chained by slack rows `s_i = x_i - x_{i+1}`, with bounds
/// that contradict the all-zero initial assignment. The tableau is rebuilt
/// each iteration — once pivoted to feasibility the basis stays feasible,
/// so reusing it would measure only bound bookkeeping.
fn simplex_pivot_case(n: usize) -> MicroResult {
    bench_case("simplex_pivot", 3, 20, || {
        let mut s = Simplex::new();
        let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
        // Bounding s_i ≤ -1 forces x to increase down the chain, driving
        // a pivot through every row.
        let slacks: Vec<_> = (0..n - 1)
            .map(|i| s.define_slack(&[(vars[i], Rat::one()), (vars[i + 1], -&Rat::one())]))
            .collect();
        let mut tag = 0u32;
        for &sl in &slacks {
            s.assert_upper(sl, DeltaRat::new(rat(-1, 1), Rat::zero()), tag).expect("consistent");
            tag += 1;
        }
        s.assert_lower(vars[0], DeltaRat::new(Rat::zero(), Rat::zero()), tag).expect("consistent");
        s.check().expect("feasible chain");
        black_box(s.raw_value(vars[n - 1]));
    })
}

/// One Eq. (iii) verifier call (no WCE) at horizon 6, history 5, on a
/// fresh verifier: 1,932 pivots on a tableau of about 150 rows, the
/// densest measured, where the chain above pivots two-entry rows. The
/// call refutes Eq. (iii) at this horizon; only its cost is measured.
fn verifier_eq_iii_case() -> MicroResult {
    let cfg = VerifyConfig {
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        worst_case: false,
        wce_precision: rat(1, 4),
        certify: false,
        ..Default::default()
    };
    bench_case("verifier_eq_iii", 1, 5, || {
        black_box(CcaVerifier::new(cfg.clone()).verify(&known::eq_iii()).is_err());
    })
}

/// Fields that vary from run to run (timings) or only count the
/// arithmetic fast path's bookkeeping, and are left out of `--check`.
fn unchecked(key: &str) -> bool {
    matches!(key, "mean_us" | "min_us" | "small_ops" | "fast_fraction")
}

fn case_json(r: &MicroResult) -> Json {
    Json::obj(vec![
        ("name", Json::Str(r.name.clone())),
        ("iters", Json::UInt(r.iters as u64)),
        ("mean_us", Json::Num(r.mean().as_secs_f64() * 1e6)),
        ("min_us", Json::Num(r.min.as_secs_f64() * 1e6)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // Read before the run: the run rewrites `BENCH_num_micro.json`.
    let committed = match args.windows(2).find(|w| w[0] == "--check") {
        None => None,
        Some(w) => match read_committed(&w[1]) {
            Ok(doc) => Some((w[1].clone(), doc)),
            Err(e) => {
                eprintln!("num_micro: cannot read {}: {e}", w[1]);
                return ExitCode::FAILURE;
            }
        },
    };
    let operands = small_rats(4_000, 42);
    let before = ccmatic_num::arith_snapshot();
    let pivots_before = ccmatic_smt::lra::pivots_total();
    let spills_before = ccmatic_smt::lra::row_spills_total();
    let results = [
        rat_add_case(&operands),
        rat_mul_case(&operands),
        rat_cmp_case(&operands),
        gcd_case(),
        simplex_pivot_case(40),
        verifier_eq_iii_case(),
    ];
    let arith = ccmatic_num::arith_snapshot().since(&before);
    let pivots = ccmatic_smt::lra::pivots_total().saturating_sub(pivots_before);
    let spills = ccmatic_smt::lra::row_spills_total().saturating_sub(spills_before);
    eprintln!(
        "kernel: pivots {} · row spills {} · promotions {} · fast-path {:.2}% ({} small / {} big ops)",
        pivots,
        spills,
        arith.promotions,
        arith.fast_fraction() * 100.0,
        arith.small_ops,
        arith.big_ops
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("num_micro".into())),
        ("cases", Json::Arr(results.iter().map(case_json).collect())),
        ("pivots", Json::UInt(pivots)),
        ("promotions", Json::UInt(arith.promotions)),
        ("small_ops", Json::UInt(arith.small_ops)),
        ("big_ops", Json::UInt(arith.big_ops)),
        ("row_spills", Json::UInt(spills)),
        ("fast_fraction", Json::Num(arith.fast_fraction())),
    ]);
    write_json("BENCH_num_micro.json", &json).expect("write the microbench report");
    match &committed {
        Some((path, doc)) if !report_drift(path, &json, doc, &unchecked) => ExitCode::FAILURE,
        _ => ExitCode::SUCCESS,
    }
}
