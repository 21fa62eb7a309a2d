//! The `f64` screening tier: run a genome through the simulator and score
//! how close the trajectory comes to violating the verifier's desired
//! property on the model window.
//!
//! Scores are *screens*, not verdicts: the simulator does not check the
//! model's feasibility band (partial waste can leave it), and `f64` is
//! exact only while the dyadic denominators (`16^t`) fit its mantissa, so
//! every flagged genome is re-derived in exact rationals, gated through
//! the model checker and judged by
//! [`TraceReplay::refutes`](ccmatic::replay::TraceReplay) before anything
//! is claimed. The screen's job is cheap gradient: continuous violation
//! margins the genetic search can climb even while every genome in the
//! population still satisfies the property.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::template::CcaSpec;
use ccmatic_simnet::{
    Cca, LinkConfig, LinkSchedule, Observation, SimConfig, Simulator, WastePolicy,
};

/// A [`CcaSpec`] evaluated under the *model's* observation convention:
/// `cwnd(t) = γ + Σᵢ αᵢ·cwnd(t−i−1) + Σᵢ βᵢ·S(t−i−2)`, with lookback past
/// the trace start reading the model anchors (`S = 0`) instead of the
/// simulator's saturate-at-oldest. The simulator's ACK sample is already
/// one round old (`ack_back(1)` is `S(t−2)`), so tap `i` reads
/// `ack_back(i + 1)` — the same samples [`ccmatic_simnet::LinearCca`]
/// reads; only the anchor past the trace start differs. The screen thus
/// runs, round for round, the CCA the exact lift runs.
pub struct ModelCca {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    gamma: f64,
}

impl ModelCca {
    /// Lower a spec's coefficients to `f64` (exact for the integer and
    /// dyadic coefficient domains the synthesizer searches).
    pub fn new(spec: &CcaSpec) -> Self {
        let (alpha, beta, gamma) = spec.coefficients_f64();
        ModelCca { alpha, beta, gamma }
    }
}

impl Cca for ModelCca {
    fn on_round(&mut self, obs: &Observation<'_>) -> f64 {
        let mut cwnd = self.gamma;
        for (i, a) in self.alpha.iter().enumerate() {
            cwnd += a * obs.cwnd_back(i + 1);
        }
        for (i, b) in self.beta.iter().enumerate() {
            // Model tap S(t−i−2) = ack_back(i + 1); rounds before 0 read
            // the anchor S = 0.
            let s = if i + 2 <= obs.t { obs.ack_back(i + 1) } else { 0.0 };
            cwnd += b * s;
        }
        cwnd
    }

    fn name(&self) -> String {
        "model-template".into()
    }
}

/// Which disjunct of the desired property a trajectory violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Utilization shortfall without cwnd growth (first clause).
    Starvation,
    /// Delay overshoot without queue drain or cwnd backoff (second clause).
    DelayOvershoot,
}

/// Screening outcome for one genome.
#[derive(Clone, Copy, Debug)]
pub struct Fitness {
    /// Selection score: the violation margin (higher = closer to breaking
    /// the property), plus a large bonus when a clause is fully violated.
    pub score: f64,
    /// `Some` iff the trajectory violates the property in `f64`.
    pub violated: Option<Violation>,
}

/// Bonus added once a clause is fully violated, so any violating genome
/// outranks every non-violating one.
const VIOLATION_BONUS: f64 = 1.0e3;

/// Network/threshold context for the screen (mirrors the verifier's).
#[derive(Clone, Debug)]
pub struct FitnessConfig {
    /// Network shape — fixes the simulated window to `history + horizon`
    /// rounds, with the property read on the model window `[0, T]`.
    pub net: NetConfig,
    /// The objective being fuzzed against.
    pub thresholds: Thresholds,
    /// Round-0 cwnd floor (mirrors `SimConfig::initial_cwnd`).
    pub initial_cwnd: f64,
}

impl FitnessConfig {
    fn sim_config(&self, initial_backlog: f64) -> SimConfig {
        SimConfig {
            rounds: self.net.history + self.net.horizon,
            warmup: 0,
            link: LinkConfig {
                rate: self.net.link_rate.to_f64(),
                jitter: self.net.jitter,
                waste: WastePolicy::Eager,
            },
            initial_backlog,
            initial_cwnd: self.initial_cwnd,
        }
    }
}

/// The screen's state for a run: one [`Simulator`], reset per genome,
/// and the configuration lowered to `f64` once. After the first genome
/// has sized the simulator's waste history, screening a genome allocates
/// nothing.
pub struct Screen {
    sim: Simulator,
    sim_cfg: SimConfig,
    history: usize,
    /// Required service over the window, `util · C · T`.
    target: f64,
    delay: f64,
}

impl Screen {
    /// A screen for `cfg`'s network and thresholds.
    pub fn new(cfg: &FitnessConfig) -> Self {
        let rate = cfg.net.link_rate.to_f64();
        Screen {
            sim: Simulator::new(),
            sim_cfg: cfg.sim_config(0.0),
            history: cfg.net.history,
            target: cfg.thresholds.util.to_f64() * rate * cfg.net.horizon as f64,
            delay: cfg.thresholds.delay.to_f64(),
        }
    }

    /// Run one genome's schedule against `cca` and score the trajectory
    /// against the desired property on the model window.
    ///
    /// Simulator round `u` is model time `t = u + 1 − h`, so the enforced
    /// window `t ∈ [0, T]` is rounds `[h−1, h+T−1]`; `t = 0` state comes
    /// from round `h−1` and `t = T` from the last round. Queue is `A − S`
    /// (the lossless scope). The fold runs as the rounds are produced, so
    /// the screen keeps no trajectory.
    pub fn evaluate(
        &mut self,
        cca: &mut dyn Cca,
        schedule: &mut dyn LinkSchedule,
        initial_backlog: f64,
    ) -> Fitness {
        self.sim_cfg.initial_backlog = initial_backlog;
        let first = self.history - 1; // round holding model t = 0

        let mut s0 = 0.0;
        let mut s_t = 0.0;
        let mut cwnd0 = 0.0;
        let mut cwnd_t = 0.0;
        let mut q0 = 0.0;
        let mut q_t = 0.0;
        let mut max_q = f64::NEG_INFINITY;
        self.sim.run(cca, schedule, &self.sim_cfg, |r| {
            if r.t < first {
                return;
            }
            if r.t == first {
                s0 = r.served;
                cwnd0 = r.cwnd;
                q0 = r.queue;
            }
            max_q = max_q.max(r.queue);
            s_t = r.served;
            cwnd_t = r.cwnd;
            q_t = r.queue;
        });

        // Clause 1 (¬util_ok ∧ ¬cwnd_up): margins must *all* be met, so the
        // binding one — the minimum — is the score.
        let score_a = (self.target - (s_t - s0)).min(cwnd0 - cwnd_t);
        let violated_a = self.target - (s_t - s0) > 0.0 && cwnd0 - cwnd_t >= 0.0;

        // Clause 2 (¬queue_ok ∧ ¬queue_down ∧ ¬cwnd_down).
        let score_b = (max_q - self.delay).min(q_t - q0).min(cwnd_t - cwnd0);
        let violated_b = max_q - self.delay > 0.0 && q_t - q0 >= 0.0 && cwnd_t - cwnd0 >= 0.0;

        let (score, violated) = if violated_a && (!violated_b || score_a >= score_b) {
            (score_a + VIOLATION_BONUS, Some(Violation::Starvation))
        } else if violated_b {
            (score_b + VIOLATION_BONUS, Some(Violation::DelayOvershoot))
        } else {
            (score_a.max(score_b), None)
        };
        Fitness { score, violated }
    }
}

/// One-shot [`Screen::evaluate`]: a fresh screen for `cfg`, one genome.
pub fn evaluate(
    cca: &mut dyn Cca,
    schedule: &mut dyn LinkSchedule,
    initial_backlog: f64,
    cfg: &FitnessConfig,
) -> Fitness {
    Screen::new(cfg).evaluate(cca, schedule, initial_backlog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::ScheduleGenome;
    use ccmatic::known;
    use ccmatic::lift::lift_schedule;
    use ccmatic_num::{int, Rat, SmallRng};
    use ccmatic_simnet::{run_simulation, IdealLink, TableSchedule};

    fn cfg(history: usize) -> FitnessConfig {
        FitnessConfig {
            net: NetConfig { horizon: 6, history, link_rate: Rat::one(), jitter: 1, buffer: None },
            thresholds: Thresholds::default(),
            initial_cwnd: 1.0,
        }
    }

    #[test]
    fn rocc_on_ideal_schedule_is_not_flagged() {
        let cfg = cfg(5);
        let mut cca = ModelCca::new(&known::rocc());
        let fit = evaluate(&mut cca, &mut IdealLink, 0.0, &cfg);
        assert!(fit.violated.is_none(), "RoCC flagged on the ideal link: {fit:?}");
    }

    #[test]
    fn oversized_const_window_overshoots_delay() {
        let cfg = cfg(5);
        let mut cca = ModelCca::new(&known::const_cwnd(int(8)));
        // Standing queue cwnd − BDP = 7 > 4 with a big initial backlog and
        // an ideal link; flat queue, flat cwnd.
        let fit = evaluate(&mut cca, &mut IdealLink, 7.0, &cfg);
        assert_eq!(fit.violated, Some(Violation::DelayOvershoot), "{fit:?}");
        assert!(fit.score > VIOLATION_BONUS - 10.0);
    }

    #[test]
    fn stalled_link_starves_the_zero_cca() {
        let cfg = cfg(5);
        let mut cca = ModelCca::new(&known::const_cwnd(Rat::zero()));
        let mut stall = TableSchedule { lambdas: vec![0.0], omegas: vec![1.0] };
        let fit = evaluate(&mut cca, &mut stall, 0.0, &cfg);
        assert_eq!(fit.violated, Some(Violation::Starvation), "{fit:?}");
    }

    /// The screen simulates the CCA the exact tier checks: on seeded
    /// random genomes, every round's service and cwnd in `f64` equal the
    /// exact lift's (genes are dyadic, so no rounding is involved).
    #[test]
    fn screen_trajectory_equals_the_lift() {
        let cfg = cfg(5);
        let rounds = cfg.net.history + cfg.net.horizon;
        for spec in [known::const_cwnd(int(6)), known::rocc(), known::eq_iii()] {
            let mut rng = SmallRng::seed_from_u64(17);
            for _ in 0..300 {
                let genome = ScheduleGenome::random(&mut rng, rounds);
                let sim = run_simulation(
                    &mut ModelCca::new(&spec),
                    &mut genome.table(),
                    &cfg.sim_config(genome.backlog_f64()),
                );
                let lift = lift_schedule(&spec, &genome.lift_config(&cfg.net, &Rat::one()));
                for (u, r) in sim.steps.iter().enumerate() {
                    let (s, cwnd) = (lift.s[u + 1].to_f64(), lift.cwnd[u + 1].to_f64());
                    assert!(
                        r.served == s && r.cwnd == cwnd,
                        "{spec}, round {u} of {genome:?}: screen S {} cwnd {}, lift S {s} cwnd {cwnd}",
                        r.served,
                        r.cwnd
                    );
                }
            }
        }
    }

    #[test]
    fn margins_rank_near_misses_above_far_misses() {
        let cfg = cfg(5);
        // Steady queue = cwnd − BDP: 3 (far from the delay bound 4) vs
        // 3¾ (near). Both satisfy the property; the nearer miss must score
        // higher so selection has a gradient to climb.
        let far =
            evaluate(&mut ModelCca::new(&known::const_cwnd(int(4))), &mut IdealLink, 0.0, &cfg);
        let near = evaluate(
            &mut ModelCca::new(&known::const_cwnd(ccmatic_num::rat(19, 4))),
            &mut IdealLink,
            0.0,
            &cfg,
        );
        assert!(far.violated.is_none() && near.violated.is_none());
        assert!(near.score > far.score, "near {near:?} vs far {far:?}");
    }
}
