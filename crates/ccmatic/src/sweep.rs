//! Threshold sweeps over the solution space (§4: how the solution count
//! moves as the utilization and delay targets change).
//!
//! Each threshold value is an independent full enumeration. Two execution
//! strategies exist, picked by [`SweepConfig::warm_start`]:
//!
//! * **Cold (parallel):** the per-threshold runs fan out across a
//!   `std::thread::scope` worker pool. Every worker owns its own
//!   generator/verifier pair (built inside `enumerate_all`), so no solver
//!   state is shared; results are collected in input order, making the
//!   output deterministic and independent of both the thread count and the
//!   scheduling order. The pool size follows
//!   `std::thread::available_parallelism`, overridable with the
//!   `CCMATIC_SWEEP_THREADS` environment variable.
//! * **Warm (sequential):** points run in input order, each seeded with
//!   the previous point's [`WarmStart`] carry (re-validated counterexample
//!   traces + pre-verified solutions; see `enumerate` module docs). Callers
//!   should order values loose→tight so the nested-solution-set
//!   pre-verification pays off. Warm-starting is inherently sequential —
//!   `threads` is ignored — which also makes the row set trivially
//!   identical across thread counts.
//!
//! Both strategies enforce the optional *sweep-level* wall budget honestly:
//! each successive point's own deadline is clamped to the wall remaining
//! for the whole sweep, and points reached after the sweep deadline are
//! skipped outright (empty, incomplete rows) rather than silently blowing
//! through the budget.

use crate::cache::{CacheStats, ResultCache};
use crate::enumerate::{enumerate_all_with, EnumerateResult, WarmEnumeration, WarmStart};
use crate::synth::SynthOptions;
use ccac_model::Thresholds;
use ccmatic_cegis::Stats;
use ccmatic_num::Rat;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One row of a sweep report.
#[derive(Debug)]
pub struct SweepRow {
    /// The thresholds used.
    pub thresholds: Thresholds,
    /// The enumeration outcome at those thresholds.
    pub result: EnumerateResult,
}

/// Worker-pool size: `CCMATIC_SWEEP_THREADS` if set and valid (unparsable
/// values warn once on stderr), else the machine's available parallelism.
pub fn sweep_threads() -> usize {
    crate::env::env_threads_or_cores("CCMATIC_SWEEP_THREADS")
}

/// How to run a sweep (see the module docs for the two strategies).
#[derive(Debug)]
pub struct SweepConfig {
    /// Worker-pool size for the cold (parallel) strategy; ignored when
    /// warm-starting.
    pub threads: usize,
    /// Run sequentially, carrying a [`WarmStart`] between points.
    pub warm_start: bool,
    /// Persistent certificate-backed result cache consulted (and
    /// populated) per point.
    pub cache: Option<ResultCache>,
    /// Wall budget for the *whole sweep*; each point's own deadline is
    /// clamped to what remains of this.
    pub sweep_wall: Option<Duration>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { threads: sweep_threads(), warm_start: true, cache: None, sweep_wall: None }
    }
}

/// What [`sweep_with_config`] produced.
#[derive(Debug)]
pub struct SweepReport {
    /// One row per input value, in input order.
    pub rows: Vec<SweepRow>,
    /// True when any point was budget-truncated or skipped because the
    /// sweep-level wall ran out.
    pub budget_exceeded: bool,
    /// Aggregated cache counters (all zero when no cache was attached).
    pub cache_stats: CacheStats,
}

/// A placeholder row for a point the sweep deadline never let start.
fn skipped_result() -> EnumerateResult {
    EnumerateResult {
        solutions: Vec::new(),
        complete: false,
        stats: Stats::default(),
        solver_probes: 0,
    }
}

/// Clamp `opts`' wall budget to what remains before `sweep_deadline`.
/// Returns false — skip the point — when nothing remains.
fn clamp_to_sweep(opts: &mut SynthOptions, sweep_deadline: Option<Instant>) -> bool {
    if let Some(dl) = sweep_deadline {
        let left = dl.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        opts.budget.max_wall = opts.budget.max_wall.min(left);
    }
    true
}

fn fold_cache_stats(stats: &mut CacheStats, cfg_has_cache: bool, out: &WarmEnumeration) {
    if !cfg_has_cache {
        return;
    }
    if out.from_cache {
        stats.hits += 1;
        stats.cert_ms += out.result.stats.cache_cert_ms;
    } else if out.cache_rejected.is_some() {
        stats.rejected += 1;
    } else {
        stats.misses += 1;
    }
    if out.stored {
        stats.stores += 1;
    }
}

/// Enumerate the solution space once per threshold value, with `set`
/// writing each value into the run's thresholds, under `cfg`'s strategy.
/// Rows come back in the order of `values` regardless of which worker
/// finished first. The paper's §4 sweeps are the delay axis (at ≥50 %
/// utilization: 245 solutions at ≤8×RTT, 9 at ≤3.6×RTT, none at ≤3×RTT)
/// and the utilization axis (at ≤4×RTT: ≥65 % leaves 2 CCAs, ≥70 % only
/// Equation (iii)).
pub fn sweep_with_config<F>(
    base: &SynthOptions,
    values: &[Rat],
    set: F,
    cfg: &SweepConfig,
) -> SweepReport
where
    F: Fn(&mut Thresholds, &Rat) + Sync,
{
    let sweep_deadline = cfg.sweep_wall.map(|w| Instant::now() + w);
    if cfg.warm_start {
        sweep_sequential_warm(base, values, &set, cfg, sweep_deadline)
    } else {
        sweep_parallel_cold(base, values, &set, cfg, sweep_deadline)
    }
}

/// The warm strategy: input order, carrying each point's facts forward.
fn sweep_sequential_warm<F>(
    base: &SynthOptions,
    values: &[Rat],
    set: &F,
    cfg: &SweepConfig,
    sweep_deadline: Option<Instant>,
) -> SweepReport
where
    F: Fn(&mut Thresholds, &Rat) + Sync,
{
    let mut rows = Vec::with_capacity(values.len());
    let mut budget_exceeded = false;
    let mut cache_stats = CacheStats::default();
    let mut carry: Option<WarmStart> = None;
    for v in values {
        let mut opts = base.clone();
        set(&mut opts.thresholds, v);
        if !clamp_to_sweep(&mut opts, sweep_deadline) {
            budget_exceeded = true;
            rows.push(SweepRow { thresholds: opts.thresholds.clone(), result: skipped_result() });
            continue;
        }
        let warm = carry.take().filter(|w| !w.is_empty());
        let out = enumerate_all_with(&opts, warm.as_ref(), cfg.cache.as_ref());
        fold_cache_stats(&mut cache_stats, cfg.cache.is_some(), &out);
        if !out.result.complete {
            budget_exceeded = true;
        }
        carry = Some(out.carry);
        rows.push(SweepRow { thresholds: opts.thresholds.clone(), result: out.result });
    }
    SweepReport { rows, budget_exceeded, cache_stats }
}

/// The cold strategy: the original parallel fan-out, plus sweep-deadline
/// clamping at dispatch time and optional cache consultation per point.
fn sweep_parallel_cold<F>(
    base: &SynthOptions,
    values: &[Rat],
    set: &F,
    cfg: &SweepConfig,
    sweep_deadline: Option<Instant>,
) -> SweepReport
where
    F: Fn(&mut Thresholds, &Rat) + Sync,
{
    let n = values.len();
    let workers = cfg.threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let mut rows: Vec<Option<SweepRow>> = (0..n).map(|_| None).collect();
    let mut budget_exceeded = false;
    let mut cache_stats = CacheStats::default();
    let (tx, rx) = mpsc::channel::<(usize, Thresholds, Option<WarmEnumeration>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let cache = cfg.cache.as_ref();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let mut opts = base.clone();
                set(&mut opts.thresholds, &values[i]);
                let out = if clamp_to_sweep(&mut opts, sweep_deadline) {
                    Some(enumerate_all_with(&opts, None, cache))
                } else {
                    None
                };
                if tx.send((i, opts.thresholds, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, thresholds, out) in rx {
            let result = match out {
                Some(out) => {
                    fold_cache_stats(&mut cache_stats, cfg.cache.is_some(), &out);
                    if !out.result.complete {
                        budget_exceeded = true;
                    }
                    out.result
                }
                None => {
                    budget_exceeded = true;
                    skipped_result()
                }
            };
            rows[i] = Some(SweepRow { thresholds, result });
        }
    });
    let rows =
        rows.into_iter().map(|r| r.expect("every index was dispatched exactly once")).collect();
    SweepReport { rows, budget_exceeded, cache_stats }
}

/// Render sweep rows as a Markdown table (used by the bench binaries and
/// EXPERIMENTS.md).
pub fn render_table(rows: &[SweepRow]) -> String {
    let mut out = String::from("| util ≥ | delay ≤ | solutions | complete |\n|---|---|---|---|\n");
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            row.thresholds.util,
            row.thresholds.delay,
            row.result.solutions.len(),
            if row.result.complete { "yes" } else { "budget" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::OptMode;
    use crate::template::{CoeffDomain, TemplateShape};
    use ccac_model::NetConfig;
    use ccmatic_num::{int, rat};
    use std::time::Duration;

    fn tiny_base() -> SynthOptions {
        SynthOptions {
            shape: TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
            net: NetConfig {
                horizon: 5,
                history: 3,
                link_rate: ccmatic_num::Rat::one(),
                jitter: 1,
                buffer: None,
            },
            thresholds: Thresholds::default(),
            mode: OptMode::RangePruningWce,
            budget: ccmatic_cegis::Budget {
                max_iterations: 600,
                max_wall: Duration::from_secs(300),
            },
            wce_precision: rat(1, 2),
            incremental: true,
            threads: 1,
            seed: 0,
            dispatch_min: crate::synth::DEFAULT_DISPATCH_MIN,
            certify: false,
            region_pruning: true,
            theory_sync: true,
        }
    }

    /// The cold (parallel) strategy on `threads` workers.
    fn cold(threads: usize) -> SweepConfig {
        SweepConfig { threads, warm_start: false, cache: None, sweep_wall: None }
    }

    #[test]
    fn tighter_delay_never_adds_solutions() {
        let base = tiny_base();
        let values = [int(8), int(4), int(2)];
        let set = |th: &mut Thresholds, d: &Rat| th.delay = d.clone();
        let rows = sweep_with_config(&base, &values, set, &cold(sweep_threads())).rows;
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(
                w[0].result.solutions.len() >= w[1].result.solutions.len(),
                "solution count must shrink as the delay bound tightens"
            );
        }
        let table = render_table(&rows);
        assert!(table.contains("| solutions |") || table.contains("solutions"));
    }

    #[test]
    fn tighter_utilization_never_adds_solutions() {
        let base = tiny_base();
        let set = |th: &mut Thresholds, u: &Rat| th.util = u.clone();
        let rows =
            sweep_with_config(&base, &[rat(1, 2), rat(7, 10)], set, &cold(sweep_threads())).rows;
        assert!(
            rows[0].result.solutions.len() >= rows[1].result.solutions.len(),
            "solution count must shrink as the utilization target rises"
        );
    }

    #[test]
    fn zero_sweep_budget_skips_every_point_and_reports_it() {
        let base = tiny_base();
        let set = |th: &mut Thresholds, d: &Rat| th.delay = d.clone();
        for warm_start in [true, false] {
            let cfg = SweepConfig {
                threads: 2,
                warm_start,
                cache: None,
                sweep_wall: Some(Duration::ZERO),
            };
            let rep = sweep_with_config(&base, &[int(8), int(4)], set, &cfg);
            assert!(rep.budget_exceeded, "warm={warm_start}: exhausted budget must be reported");
            assert_eq!(rep.rows.len(), 2);
            for r in &rep.rows {
                assert!(!r.result.complete);
                assert!(r.result.solutions.is_empty());
                assert_eq!(r.result.solver_probes, 0, "skipped points must not touch solvers");
            }
        }
    }

    #[test]
    fn warm_sweep_matches_cold_rows() {
        let base = tiny_base();
        let values = [int(8), int(4), int(2)];
        let set = |th: &mut Thresholds, d: &Rat| th.delay = d.clone();
        let cold = sweep_with_config(&base, &values, set, &cold(1)).rows;
        let cfg = SweepConfig { threads: 1, warm_start: true, cache: None, sweep_wall: None };
        let warm = sweep_with_config(&base, &values, set, &cfg);
        assert!(!warm.budget_exceeded);
        for (i, (c, w)) in cold.iter().zip(&warm.rows).enumerate() {
            assert_eq!(c.result.solutions, w.result.solutions, "row {i}: warm ≠ cold");
            assert_eq!(c.result.complete, w.result.complete, "row {i}: completeness differs");
        }
        let seeded: u64 = warm.rows.iter().map(|r| r.result.stats.warm_traces_seeded).sum();
        let confirmed: u64 =
            warm.rows.iter().map(|r| r.result.stats.warm_solutions_confirmed).sum();
        assert!(seeded + confirmed > 0, "a loose→tight sweep must reuse something");
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let base = tiny_base();
        let values = [int(8), int(4), int(3), int(2)];
        let set = |th: &mut Thresholds, d: &Rat| th.delay = d.clone();
        let serial = sweep_with_config(&base, &values, set, &cold(1)).rows;
        let parallel = sweep_with_config(&base, &values, set, &cold(4)).rows;
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.thresholds.delay, b.thresholds.delay, "row {i}: order differs");
            assert_eq!(a.thresholds.delay, values[i], "row {i}: not in input order");
            assert_eq!(
                a.result.solutions, b.result.solutions,
                "row {i}: solution set depends on thread count"
            );
            assert_eq!(a.result.complete, b.result.complete, "row {i}: completeness differs");
        }
    }
}
