//! Simulation driver: CCA × link schedule → trajectory and metrics.

use crate::cca::{Cca, Observation};
use crate::link::{LinkConfig, LinkSchedule, LinkState};

/// Run parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of rounds to simulate.
    pub rounds: usize,
    /// Rounds to discard before computing steady-state metrics (ramp-up).
    pub warmup: usize,
    /// Link parameters.
    pub link: LinkConfig,
    /// Initial backlog in the queue (BDP units) — the adversarial initial
    /// condition of the verifier model.
    pub initial_backlog: f64,
    /// Initial cwnd used before the CCA has history.
    pub initial_cwnd: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rounds: 200,
            warmup: 20,
            link: LinkConfig::default(),
            initial_backlog: 0.0,
            initial_cwnd: 1.0,
        }
    }
}

/// One row of the trajectory.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Round index.
    pub t: usize,
    /// cwnd chosen this round.
    pub cwnd: f64,
    /// Cumulative arrivals after sending.
    pub arrivals: f64,
    /// Cumulative service after the link step.
    pub served: f64,
    /// Standing queue (arrivals − served).
    pub queue: f64,
    /// Cumulative wasted tokens.
    pub wasted: f64,
}

/// Aggregated outcome of a run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-round trajectory.
    pub steps: Vec<StepRecord>,
    /// `(S(end) − S(warmup)) / (C · window)` — steady-state utilization.
    pub utilization: f64,
    /// Max standing queue after warmup (BDP ≈ RTTs of delay at C = 1).
    pub max_queue: f64,
    /// Mean standing queue after warmup.
    pub avg_queue: f64,
}

/// Newest-first ack and cwnd samples the runner keeps for the CCA: a
/// lookback deeper than this reads the oldest kept sample.
pub(crate) const HISTORY_WINDOW: usize = 16;

/// The single-flow round loop and its state, reusable across runs: the
/// link's waste history is cleared between runs, not reallocated, and the
/// CCA's ack/cwnd windows are fixed arrays shifted in place, so a run
/// allocates nothing once the waste history has grown to `cfg.rounds`.
/// No trajectory is kept; callers fold over the [`StepRecord`]s as they
/// are produced ([`run_simulation`] collects them).
#[derive(Clone, Debug, Default)]
pub struct Simulator {
    link: LinkState,
    /// `acks[i]` is `ack(t−i−1)`; the first `len` entries are live.
    acks: [f64; HISTORY_WINDOW],
    /// `cwnds[i]` is `cwnd(t−i−1)`.
    cwnds: [f64; HISTORY_WINDOW],
    len: usize,
}

impl Simulator {
    /// A simulator at trace start.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute `cca` against the link for `cfg.rounds` rounds from the
    /// initial conditions, handing each round's record to `on_step` before
    /// the next round runs.
    pub fn run(
        &mut self,
        cca: &mut dyn Cca,
        schedule: &mut dyn LinkSchedule,
        cfg: &SimConfig,
        mut on_step: impl FnMut(&StepRecord),
    ) {
        self.link.reset();
        self.len = 0;
        let mut arrivals = cfg.initial_backlog;
        let mut served_prev = 0.0;
        for t in 0..cfg.rounds {
            // ACK feedback is one propagation unit old.
            let obs = Observation::new(t, &self.acks[..self.len], &self.cwnds[..self.len]);
            let cwnd =
                if t == 0 { cfg.initial_cwnd.max(cca.on_round(&obs)) } else { cca.on_round(&obs) };
            // Aggressive cwnd-limited sender.
            let window_target = served_prev + cwnd;
            arrivals = arrivals.max(window_target);
            // Link serves within its band (simulator steps are 1-based).
            let served = self.link.step(t + 1, arrivals, &cfg.link, schedule);
            on_step(&StepRecord {
                t,
                cwnd,
                arrivals,
                served,
                queue: arrivals - served,
                wasted: self.link.wasted,
            });
            self.push_history(served_prev, cwnd);
            served_prev = served;
        }
    }

    /// Shift both windows one slot older and store the newest samples.
    fn push_history(&mut self, ack: f64, cwnd: f64) {
        let kept = self.len.min(HISTORY_WINDOW - 1);
        self.acks.copy_within(..kept, 1);
        self.cwnds.copy_within(..kept, 1);
        self.acks[0] = ack;
        self.cwnds[0] = cwnd;
        self.len = kept + 1;
    }
}

/// Execute `cca` against the link for `cfg.rounds` rounds and collect the
/// trajectory and its steady-state metrics.
pub fn run_simulation(
    cca: &mut dyn Cca,
    schedule: &mut dyn LinkSchedule,
    cfg: &SimConfig,
) -> SimResult {
    let mut steps = Vec::with_capacity(cfg.rounds);
    Simulator::new().run(cca, schedule, cfg, |r| steps.push(*r));

    let w0 = cfg.warmup.min(cfg.rounds.saturating_sub(1));
    let window = (cfg.rounds - w0).max(1) as f64;
    let s_start = if w0 == 0 { 0.0 } else { steps[w0 - 1].served };
    let s_end = steps.last().map(|r| r.served).unwrap_or(0.0);
    let utilization = (s_end - s_start) / (cfg.link.rate * window);
    let tail = &steps[w0..];
    let max_queue = tail.iter().map(|r| r.queue).fold(0.0, f64::max);
    let avg_queue = tail.iter().map(|r| r.queue).sum::<f64>() / tail.len().max(1) as f64;

    SimResult { steps, utilization, max_queue, avg_queue }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::{AimdCca, ConstCwnd, LinearCca};
    use crate::link::{AdversarialSawtooth, IdealLink, RandomJitter};

    #[test]
    fn rocc_on_ideal_link_full_utilization_bounded_queue() {
        let mut cca = LinearCca::rocc();
        let mut sched = IdealLink;
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        assert!(res.utilization > 0.95, "utilization {}", res.utilization);
        // Paper: RoCC converges to a queue of BDP + MSS on an ideal link.
        assert!(res.max_queue <= 2.0 + 1e-6, "queue {}", res.max_queue);
    }

    #[test]
    fn rocc_survives_adversarial_jitter() {
        let mut cca = LinearCca::rocc();
        let mut sched = AdversarialSawtooth::default();
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        assert!(res.utilization >= 0.5, "utilization {}", res.utilization);
        assert!(res.max_queue <= 4.0 + 1e-6, "queue {}", res.max_queue);
    }

    #[test]
    fn rocc_drains_initial_backlog() {
        let mut cca = LinearCca::rocc();
        let mut sched = IdealLink;
        let cfg = SimConfig { initial_backlog: 50.0, warmup: 100, ..SimConfig::default() };
        let res = run_simulation(&mut cca, &mut sched, &cfg);
        assert!(res.max_queue <= 3.0, "backlog should drain, max queue {}", res.max_queue);
    }

    #[test]
    fn small_const_cwnd_starves_under_jitter() {
        // cwnd = 1 BDP exactly: eager waste + sawtooth jitter drop
        // utilization well below 1 (the paper's motivation for RoCC's +1).
        let mut cca = ConstCwnd(1.0);
        let mut sched = AdversarialSawtooth::default();
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        assert!(res.utilization < 0.95, "expected degraded utilization, got {}", res.utilization);
    }

    #[test]
    fn large_const_cwnd_builds_standing_queue() {
        let mut cca = ConstCwnd(10.0);
        let mut sched = IdealLink;
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        assert!(res.max_queue > 4.0, "expected standing queue > 4, got {}", res.max_queue);
        assert!(res.utilization > 0.95);
    }

    #[test]
    fn aimd_oscillates_but_keeps_link_busy() {
        let mut cca = AimdCca::standard();
        let mut sched = IdealLink;
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        assert!(res.utilization > 0.8, "AIMD utilization {}", res.utilization);
        // AIMD's sawtooth spends time above RoCC's queue bound.
        assert!(res.max_queue > 2.0, "AIMD max queue {}", res.max_queue);
    }

    #[test]
    fn random_jitter_runs_are_reproducible() {
        let cfg = SimConfig::default();
        let run = |seed| {
            let mut cca = LinearCca::rocc();
            let mut sched = RandomJitter::new(seed);
            run_simulation(&mut cca, &mut sched, &cfg).utilization
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn reused_simulator_repeats_fresh_runs() {
        // A long AIMD run fills the windows and the waste history; the
        // RoCC run after it must not see any of that state.
        let cfg = SimConfig::default();
        let mut sim = Simulator::new();
        sim.run(&mut AimdCca::standard(), &mut RandomJitter::new(5), &cfg, |_| {});
        let mut reused = Vec::new();
        sim.run(&mut LinearCca::rocc(), &mut RandomJitter::new(3), &cfg, |r| reused.push(*r));
        let fresh = run_simulation(&mut LinearCca::rocc(), &mut RandomJitter::new(3), &cfg);
        let bits = |r: &StepRecord| [r.cwnd, r.arrivals, r.served, r.wasted].map(f64::to_bits);
        assert_eq!(reused.len(), fresh.steps.len());
        for (a, b) in reused.iter().zip(&fresh.steps) {
            assert_eq!(bits(a), bits(b), "round {}", a.t);
        }
    }

    #[test]
    fn trajectory_invariants_hold() {
        let mut cca = LinearCca::rocc();
        let mut sched = RandomJitter::new(3);
        let res = run_simulation(&mut cca, &mut sched, &SimConfig::default());
        let mut prev_a = 0.0;
        let mut prev_s = 0.0;
        for r in &res.steps {
            assert!(r.arrivals >= prev_a - 1e-9, "A monotone");
            assert!(r.served >= prev_s - 1e-9, "S monotone");
            assert!(r.served <= r.arrivals + 1e-9, "S ≤ A");
            assert!(r.queue >= -1e-9, "queue nonnegative");
            prev_a = r.arrivals;
            prev_s = r.served;
        }
    }
}
