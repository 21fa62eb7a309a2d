//! Exact-rational lifting of simulator schedules into verifier traces.
//!
//! [`lift_schedule`] executes a candidate [`CcaSpec`] against an explicit
//! per-step link schedule (band positions λ and waste fractions ω, the
//! exact-arithmetic twin of `ccmatic_simnet::TableSchedule`) and emits a
//! [`Trace`] in the verifier's shape: `t ∈ [−h, T]`, with simulator round
//! `u` landing at model time `t = u + 1 − h` and the `t = −h` row carrying
//! the initial conditions (`S = W = 0`, `A = ` initial backlog).
//!
//! Two conventions differ between the behavioural simulator and the SMT
//! model, and this module follows the **model** on both so that lifted
//! traces replay verbatim through [`TraceReplay`](crate::replay):
//!
//! * the CCA's freshest ACK sample when choosing `cwnd(t)` is `S(t−2)`
//!   (the model's one-unit ACK delay: `ack(t) = S(t−1)`, sampled at
//!   `t−1`), not the simulator's `S(t−1)`;
//! * lookback past the trace start reads the model's anchors — `S` is 0
//!   at and before `t = −h` — not the simulator's saturate-at-oldest.
//!
//! The cwnd step states no recursion of its own: it sums the terms of the
//! template's one statement (`template::rule`, which the verifier and σ
//! also read) over the lift's columns, in round coordinates, where `S`
//! and `cwnd` read 0 before round 0.
//!
//! The lifted trace is *constructed* feasible for eager waste (ω = 1):
//! the link step keeps `S` inside its band and waste only grows against
//! surplus tokens. Partial waste (ω < 1) can push a *later* service floor
//! above the arrival curve, which the model forbids, so every lifted trace
//! must pass [`ccac_model::check_trace`] before being treated as a model
//! behaviour — [`lift_checked`] bundles the two.
//!
//! [`lift_checked`] also stops at the first round whose lagged service
//! floor exceeds the arrivals, without lifting the remaining rounds. That
//! is sound: the link step never serves more than has arrived (`S ≤ A` at
//! every round, since `A` only grows and `S` is capped by `max(A, S_prev)`),
//! so at such a round `S ≤ A < floor`, and the floor `check_trace` applies
//! at that row is the same exact value — it rejects every such trace. The
//! stop only saves work on lifts the gate would reject; a lift that runs
//! to the end still goes through `check_trace`, the only feasibility gate.

use crate::template::{self, CcaSpec, Sample};
use ccac_model::{check_trace, NetConfig, Trace};
use ccmatic_num::Rat;

/// The schedule and initial conditions to lift under.
#[derive(Clone, Debug)]
pub struct LiftConfig {
    /// Network shape; must be lossless (`buffer: None`) and have history
    /// deep enough for the candidate (`beta.len() < history`,
    /// `alpha.len() < history`).
    pub net: NetConfig,
    /// Band position λ ∈ [0, 1] per simulator round (0-based; the last
    /// entry holds beyond the table, 1 — the ideal link — if empty).
    pub lambdas: Vec<Rat>,
    /// Waste fraction ω ∈ [0, 1] per round (last entry holds; 1 — eager
    /// waste — if empty).
    pub omegas: Vec<Rat>,
    /// `A(−h)`: adversarial initial backlog, ≥ 0.
    pub initial_backlog: Rat,
    /// `cwnd(−h)` and the round-0 floor `cwnd(0…) ≥` this before history
    /// exists (mirrors `SimConfig::initial_cwnd`).
    pub initial_cwnd: Rat,
}

impl LiftConfig {
    /// Ideal eager-waste lift: λ = 1, ω = 1, zero backlog, unit cwnd.
    pub fn ideal(net: NetConfig) -> Self {
        LiftConfig {
            net,
            lambdas: Vec::new(),
            omegas: Vec::new(),
            initial_backlog: Rat::zero(),
            initial_cwnd: Rat::one(),
        }
    }
}

/// Why [`lift_checked`] made no claim about the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiftError {
    /// The lift stopped at simulator round `round`: its lagged service
    /// floor exceeds the arrivals, so `S < floor` there.
    FloorAboveArrivals {
        /// The 0-based simulator round the lift stopped at.
        round: usize,
    },
    /// The finished trace failed [`check_trace`], with its message.
    Infeasible(String),
}

impl std::fmt::Display for LiftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiftError::FloorAboveArrivals { round } => {
                write!(f, "round {round}: service floor > A ≥ S (S below the floor)")
            }
            LiftError::Infeasible(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for LiftError {}

fn table_at(table: &[Rat], u: usize) -> Rat {
    let v = table.get(u).or_else(|| table.last()).cloned().unwrap_or_else(Rat::one);
    v.max(Rat::zero()).min(Rat::one())
}

/// Execute `spec` on the schedule in exact rational arithmetic and return
/// the verifier-shaped trace. The result is a *claimed* model behaviour;
/// callers must gate it through [`ccac_model::check_trace`] (partial waste
/// can break the lagged service floor) — see [`lift_checked`].
pub fn lift_schedule(spec: &CcaSpec, cfg: &LiftConfig) -> Trace {
    let mut lifter = Lifter::default();
    lifter.run(spec, cfg, false).expect("a lift that does not stop early always ends in a trace");
    lifter.trace(&cfg.net)
}

/// [`lift_schedule`] + the authoritative feasibility gate: `Err` means the
/// schedule drove the link outside the model's feasibility band (possible
/// whenever ω < 1) and the trace makes no claim about the model.
///
/// Returns [`LiftError::FloorAboveArrivals`] as soon as a round's lagged
/// service floor exceeds the arrivals, without lifting the rounds after
/// it: there `S ≤ A < floor`, which [`check_trace`] always rejects (see
/// the module docs). A lift that reaches the last round is returned only
/// if it passes [`check_trace`], so `lift_checked(..).is_ok()` equals
/// `check_trace(&lift_schedule(..)).is_ok()`.
///
/// One-shot form of [`Lifter::lift_checked`]; a caller lifting many
/// schedules should keep one [`Lifter`].
pub fn lift_checked(spec: &CcaSpec, cfg: &LiftConfig) -> Result<Trace, LiftError> {
    Lifter::default().lift_checked(spec, cfg)
}

/// Reusable lift state: the trace columns of the lift in progress. Once
/// they have grown to a schedule's length, a lift that stops early
/// allocates nothing; only a lift that reaches the last round allocates,
/// for the trace it hands out.
#[derive(Debug, Default)]
pub struct Lifter {
    a: Vec<Rat>,
    s: Vec<Rat>,
    w: Vec<Rat>,
    cwnd: Vec<Rat>,
}

impl Lifter {
    /// [`lift_checked`] on this lifter's buffers.
    pub fn lift_checked(&mut self, spec: &CcaSpec, cfg: &LiftConfig) -> Result<Trace, LiftError> {
        self.run(spec, cfg, true)?;
        let trace = self.trace(&cfg.net);
        check_trace(&trace, &cfg.net).map_err(LiftError::Infeasible)?;
        Ok(trace)
    }

    /// The lift itself, into the columns (row 0 holds the initial
    /// conditions, row `u + 1` simulator round `u`); with `stop_early`,
    /// `Err` at the first round whose lagged service floor exceeds the
    /// arrivals.
    fn run(&mut self, spec: &CcaSpec, cfg: &LiftConfig, stop_early: bool) -> Result<(), LiftError> {
        let h = cfg.net.history;
        let rounds = h + cfg.net.horizon;
        assert!(cfg.net.buffer.is_none(), "lifting is defined for the lossless scope only");
        assert!(spec.beta.len() < h, "β lookback {} needs history > it", spec.beta.len());
        assert!(spec.alpha.len() < h, "α lookback {} needs history > it", spec.alpha.len());
        assert!(h <= 16, "history {h} exceeds the simulator's 16-sample window");
        assert!(!cfg.initial_backlog.is_negative(), "A(−h) must be ≥ 0");

        let rate = &cfg.net.link_rate;
        let zero = Rat::zero();
        let Lifter { a, s, w, cwnd } = self;
        for col in [&mut *a, &mut *s, &mut *w, &mut *cwnd] {
            col.clear();
            col.reserve(rounds + 1);
        }
        // Row 0 is the model's t_min: the initial conditions. `w` doubles
        // as the waste history the lagged floor reads.
        a.push(cfg.initial_backlog.clone());
        s.push(Rat::zero());
        w.push(Rat::zero());
        cwnd.push(cfg.initial_cwnd.clone());
        let mut arrivals = cfg.initial_backlog.clone();

        for u in 0..rounds {
            // The template in round coordinates (round `k` is row `k + 1`).
            // Before round 0, S reads the anchor (0) and cwnd reads 0 (the
            // enforced window never reaches it), so neither adds a term.
            let taps = template::rule(spec.alpha.len(), spec.beta.len(), u as i64);
            let rule = taps.fold(Rat::zero(), |v, (c, x)| match x {
                Sample::One => &v + spec.coeff(c),
                Sample::S(k) | Sample::Cwnd(k) if k < 0 => v,
                Sample::S(k) => &v + &(spec.coeff(c) * &s[k as usize + 1]),
                Sample::Cwnd(k) => &v + &(spec.coeff(c) * &cwnd[k as usize + 1]),
            });
            let cwnd_u = if u == 0 { cfg.initial_cwnd.clone().max(rule) } else { rule };

            // Aggressive cwnd-limited sender; `s[u]` is the previous
            // round's service (0 before round 0).
            let s_prev = &s[u];
            arrivals = arrivals.max(s_prev + &cwnd_u);

            // Link step (1-based step index, exact twin of `LinkState::step`).
            let t_link = (u + 1) as i64;
            let tokens_now = &(rate * &Rat::from(t_link)) - &w[u];
            let floor = if t_link >= cfg.net.jitter as i64 {
                let lag = t_link - cfg.net.jitter as i64;
                &(rate * &Rat::from(lag)) - &w[lag as usize]
            } else {
                Rat::zero()
            };
            if stop_early && floor > arrivals {
                return Err(LiftError::FloorAboveArrivals { round: u });
            }
            let hi = tokens_now.clone().min(arrivals.clone()).max(s_prev.clone());
            let lo = floor.min(arrivals.clone()).max(s_prev.clone()).min(hi.clone());
            let lambda = table_at(&cfg.lambdas, u);
            let served = &lo + &(&lambda * &(&hi - &lo));
            let surplus = &tokens_now - &arrivals;
            let wasted = if surplus > zero {
                let omega = table_at(&cfg.omegas, u);
                &w[u] + &(&omega * &surplus)
            } else {
                w[u].clone()
            };

            a.push(arrivals.clone());
            s.push(served);
            w.push(wasted);
            cwnd.push(cwnd_u);
        }
        Ok(())
    }

    /// The finished lift as a verifier-shaped trace.
    fn trace(&self, net: &NetConfig) -> Trace {
        Trace {
            t_min: net.t_min(),
            t_max: net.t_max(),
            a: self.a.clone(),
            s: self.s.clone(),
            w: self.w.clone(),
            l: vec![Rat::zero(); self.a.len()],
            cwnd: self.cwnd.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::FeasibilityMode;
    use crate::known;
    use crate::replay::TraceReplay;
    use ccac_model::{check_sender_rule, Thresholds};
    use ccmatic_num::{int, rat};

    fn net(history: usize) -> NetConfig {
        NetConfig { horizon: 6, history, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    fn replay(net: &NetConfig) -> TraceReplay {
        TraceReplay::new(net.clone(), Thresholds::default(), FeasibilityMode::RangePruning)
    }

    /// Eager lifts are model-feasible by construction, across schedules.
    #[test]
    fn eager_lifts_always_pass_the_feasibility_gate() {
        let net = net(5);
        let schedules: Vec<Vec<Rat>> = vec![
            vec![],                                                   // ideal
            vec![Rat::zero(), Rat::one()],                            // hold-last burst
            (0..11).map(|u| rat(u % 5, 4).min(Rat::one())).collect(), // ragged
            vec![Rat::zero()],                                        // permanently stalled
        ];
        for spec in [known::rocc(), known::const_cwnd(int(6)), known::const_cwnd(Rat::zero())] {
            for lambdas in &schedules {
                let cfg = LiftConfig {
                    lambdas: lambdas.clone(),
                    initial_backlog: rat(1, 2),
                    ..LiftConfig::ideal(net.clone())
                };
                let trace = lift_schedule(&spec, &cfg);
                check_trace(&trace, &net)
                    .unwrap_or_else(|e| panic!("eager lift of {spec} infeasible: {e}"));
                check_sender_rule(&trace)
                    .unwrap_or_else(|e| panic!("lift of {spec} broke the sender rule: {e}"));
            }
        }
    }

    /// A lifted trace of a *verified* CCA never refutes it — lifting is
    /// sound w.r.t. the replay semantics (same template recursion, same
    /// sender rule, same feasibility encoding).
    #[test]
    fn lifted_traces_never_refute_a_verified_cca() {
        let net = net(5);
        let rocc = known::rocc();
        let replay = replay(&net);
        for seed_lambda in [Rat::zero(), rat(1, 2), Rat::one()] {
            let cfg = LiftConfig {
                lambdas: vec![seed_lambda],
                initial_backlog: int(2),
                ..LiftConfig::ideal(net.clone())
            };
            let trace = lift_checked(&rocc, &cfg).expect("eager lift feasible");
            assert!(!replay.refutes(&rocc, &trace), "lift refuted RoCC");
        }
    }

    /// The lift realizes genuine refutations: a constant window above
    /// BDP + delay threshold holds a standing queue the model property
    /// rejects, and the replayed (exact) verdict agrees.
    #[test]
    fn lift_produces_replayable_refutations_for_broken_ccas() {
        let net = net(5);
        let spec = known::const_cwnd(int(8));
        let cfg = LiftConfig { initial_backlog: int(7), ..LiftConfig::ideal(net.clone()) };
        let trace = lift_checked(&spec, &cfg).expect("eager lift feasible");
        assert!(
            replay(&net).refutes(&spec, &trace),
            "const cwnd 8 should be refuted by its own ideal-schedule trace"
        );
    }

    /// Partial waste can break the lagged service floor — the gate must
    /// catch it rather than let an infeasible trace masquerade as a model
    /// behaviour.
    #[test]
    fn partial_waste_lifts_are_gated_not_trusted() {
        let net = net(5);
        // Zero CCA on a stalled-then-open schedule with ω = 0: tokens are
        // never wasted during the idle phase, so the floor keeps climbing
        // while arrivals stay put.
        let spec = known::const_cwnd(Rat::zero());
        let cfg = LiftConfig {
            lambdas: vec![Rat::one()],
            omegas: vec![Rat::zero()],
            ..LiftConfig::ideal(net.clone())
        };
        let trace = lift_schedule(&spec, &cfg);
        assert!(
            check_trace(&trace, &net).is_err(),
            "never-waste lift of a silent sender must violate the service floor"
        );
        assert!(lift_checked(&spec, &cfg).is_err());
    }

    /// The early stop changes no verdict and no trace: over seeded random
    /// schedules (partial waste, backlogs up to 8), `lift_checked` accepts
    /// exactly the lifts `check_trace` accepts, with the same trace, and
    /// some rejections do stop before the last round. A reused `Lifter`
    /// returns what a fresh one does.
    #[test]
    fn early_stop_agrees_with_the_full_lift_and_the_gate() {
        use ccmatic_num::SmallRng;
        let net = net(5);
        let rounds = net.history + net.horizon;
        let mut rng = SmallRng::seed_from_u64(3);
        let fraction = |rng: &mut SmallRng| match rng.gen_range_usize(0, 4) {
            0 => Rat::zero(),
            1 => Rat::one(),
            _ => rat(rng.gen_range_i64(0, 9), 8),
        };
        let (mut accepted, mut rejected, mut stopped_early) = (0, 0, 0);
        let mut lifter = Lifter::default();
        for spec in [known::const_cwnd(Rat::zero()), known::rocc(), known::eq_iii()] {
            for _ in 0..300 {
                let cfg = LiftConfig {
                    lambdas: (0..rng.gen_range_usize(0, rounds + 1))
                        .map(|_| fraction(&mut rng))
                        .collect(),
                    omegas: (0..rng.gen_range_usize(0, rounds + 1))
                        .map(|_| fraction(&mut rng))
                        .collect(),
                    initial_backlog: rat(rng.gen_range_i64(0, 17), 2),
                    ..LiftConfig::ideal(net.clone())
                };
                let full = lift_schedule(&spec, &cfg);
                let gate = check_trace(&full, &net);
                match lift_checked(&spec, &cfg) {
                    Ok(trace) => {
                        assert!(gate.is_ok(), "{spec}: early stop accepted a gated lift");
                        assert_eq!(trace, full, "{spec}: accepted trace differs");
                        accepted += 1;
                    }
                    Err(_) => {
                        assert!(gate.is_err(), "{spec}: early stop rejected a feasible lift");
                        rejected += 1;
                    }
                }
                // One lifter reused across every schedule lifts as a fresh one.
                let reused = lifter.lift_checked(&spec, &cfg);
                assert_eq!(reused, lift_checked(&spec, &cfg), "{spec}: a reused lifter differs");
                if let Err(LiftError::FloorAboveArrivals { round }) = reused {
                    if round + 1 < rounds {
                        stopped_early += 1;
                    }
                }
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
        assert!(stopped_early > 0, "no lift stopped before its last round");
    }

    /// The t_min row carries the configured initial conditions and the
    /// trace has the verifier's exact shape.
    #[test]
    fn trace_shape_and_anchors() {
        let net = net(5);
        let cfg = LiftConfig {
            initial_backlog: rat(3, 2),
            initial_cwnd: int(2),
            ..LiftConfig::ideal(net.clone())
        };
        let trace = lift_schedule(&known::rocc(), &cfg);
        assert_eq!(trace.t_min, -5);
        assert_eq!(trace.t_max, 6);
        assert_eq!(trace.a.len(), net.num_steps());
        assert_eq!(trace.a_at(-5), &rat(3, 2));
        assert_eq!(trace.s_at(-5), &Rat::zero());
        assert_eq!(trace.w_at(-5), &Rat::zero());
        assert_eq!(trace.cwnd_at(-5), &int(2));
    }
}
