//! Timing, process-counter and memory helpers shared by the workloads.
//!
//! Every workload call is deterministic CPU work on one thread, so noise
//! from the machine can only add time to it. The machine this benchmark
//! was tuned on (2 virtual cores of a shared host) runs at one of two
//! speeds, the slower 40–60% slower, and switches between them every few
//! seconds; slow stretches of 10 s are common and some last minutes.
//! Process CPU time slows just as wall time does, so the slowdown is not
//! time taken away from this process but a slower core. A run therefore
//! reports the *fastest* timing it saw, and a call made of sequential
//! parts (sweep points, fuzz targets) is timed part by part: a 0.2 s part
//! finds a fast stretch far more often than a 1.5 s call does.

use crate::metrics::Metrics;
use ccmatic_num::ArithStats;
use ccmatic_smt::TheoryCounters;
use std::time::Instant;

/// Set-ups timed before each call. They are kept until all are timed, so
/// each builds in fresh memory as a first set-up does.
const SETUPS_PER_CALL: usize = 3;

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn fastest(walls: impl Iterator<Item = f64>) -> f64 {
    walls.fold(f64::INFINITY, f64::min)
}

/// Calls repeated by [`repeat_for`].
pub struct Repeated<R> {
    /// Each call's timed parts, in wall seconds, and its result.
    pub runs: Vec<(Vec<f64>, R)>,
    /// Wall seconds of every timed set-up.
    pub setup_walls: Vec<f64>,
    /// Peak resident memory after the first call, in MiB. Later calls
    /// repeat the same work, and how many there are depends on timing.
    pub peak_rss_mb: f64,
}

impl<R> Repeated<R> {
    /// The call's wall seconds with every part at its fastest: the sum,
    /// over the call's parts, of each part's fastest wall in the run.
    pub fn call_s(&self) -> f64 {
        let parts = self.runs[0].0.len();
        (0..parts).map(|k| fastest(self.runs.iter().map(|(w, _)| w[k]))).sum()
    }

    /// The fastest set-up's wall seconds.
    pub fn setup_s(&self) -> f64 {
        fastest(self.setup_walls.iter().copied())
    }
}

/// Repeat `call` for about `seconds`: at least once, and again only while
/// one more call as long as the last still fits. `call` returns the wall
/// seconds of each sequential part it times (the same parts on every
/// call), plus its result. Before each call, `setup` (the set-up work the
/// call begins with) is timed on its own.
pub fn repeat_for<S, R>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut() -> (Vec<f64>, R),
) -> Repeated<R> {
    let t0 = Instant::now();
    let mut out = Repeated { runs: Vec::new(), setup_walls: Vec::new(), peak_rss_mb: 0.0 };
    loop {
        let mut kept = Vec::with_capacity(SETUPS_PER_CALL);
        for _ in 0..SETUPS_PER_CALL {
            let t = Instant::now();
            kept.push(std::hint::black_box(setup()));
            out.setup_walls.push(secs(t));
        }
        drop(kept);
        let (parts, r) = call();
        let wall: f64 = parts.iter().sum();
        out.runs.push((parts, r));
        if out.runs.len() == 1 {
            out.peak_rss_mb = peak_rss_mb();
        }
        if secs(t0) + wall > seconds {
            return out;
        }
    }
}

/// A reading of the process-wide solver and arithmetic counters. The
/// benchmark runs one workload per process on one thread, so the delta of
/// two readings around a call is that call's work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simplex pivots.
    pub pivots: u64,
    /// Trail-synchronized theory counters.
    pub theory: TheoryCounters,
    /// Arithmetic fast-path counters.
    pub arith: ArithStats,
}

impl Counters {
    /// Read the counters now.
    pub fn now() -> Self {
        Counters {
            pivots: ccmatic_smt::lra::pivots_total(),
            theory: ccmatic_smt::theory_counters(),
            arith: ccmatic_num::arith_snapshot(),
        }
    }

    /// The work done since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (t, e) = (&self.theory, &earlier.theory);
        Counters {
            pivots: self.pivots - earlier.pivots,
            theory: TheoryCounters {
                theory_props: t.theory_props - e.theory_props,
                bounds_asserted: t.bounds_asserted - e.bounds_asserted,
                bounds_reused: t.bounds_reused - e.bounds_reused,
            },
            arith: self.arith.since(&earlier.arith),
        }
    }

    /// Record as the `smt.*` and `num.*` layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        m.set("smt.pivots", self.pivots as f64);
        m.set("smt.theory_props", self.theory.theory_props as f64);
        m.set("smt.bounds_asserted", self.theory.bounds_asserted as f64);
        m.set("smt.bounds_reused", self.theory.bounds_reused as f64);
        m.set("num.small_ops", self.arith.small_ops as f64);
        m.set("num.promotions", self.arith.promotions as f64);
        m.set("num.big_ops", self.arith.big_ops as f64);
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_runs_at_least_once_and_stops_when_the_next_call_overflows() {
        let once = repeat_for(0.0, || (), || (vec![5.0], ()));
        assert_eq!(once.runs.len(), 1);
        assert_eq!(once.call_s(), 5.0);
        assert_eq!(once.setup_walls.len(), SETUPS_PER_CALL);
        assert!(once.peak_rss_mb > 0.0);
        // 30 ms calls in 100 ms: after the second call (60 ms) a third
        // still fits, after the third (90 ms) a fourth does not.
        let mut claimed = [0.05, 0.03, 0.04].into_iter().cycle();
        let reps = repeat_for(
            0.1,
            || (),
            || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                (vec![claimed.next().unwrap()], ())
            },
        );
        assert!((2..=3).contains(&reps.runs.len()), "{} reps", reps.runs.len());
        assert_eq!(reps.call_s(), 0.03, "the fastest call is reported");
        assert_eq!(reps.setup_walls.len(), SETUPS_PER_CALL * reps.runs.len());
    }

    #[test]
    fn call_s_sums_each_parts_fastest_wall() {
        let reps = Repeated {
            runs: vec![(vec![1.0, 4.0], ()), (vec![2.0, 3.0], ())],
            setup_walls: vec![0.5, 0.25],
            peak_rss_mb: 1.0,
        };
        assert_eq!(reps.call_s(), 1.0 + 3.0);
        assert_eq!(reps.setup_s(), 0.25);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
