//! Concrete counterexample traces extracted from solver models.

use crate::model::NetVars;
use ccmatic_num::Rat;
use ccmatic_smt::Model;
use std::fmt;

/// A fully concrete execution trace of the network model.
///
/// Index 0 of every vector corresponds to `t = t_min = −h`; use
/// the `*_at` helpers (such as [`Trace::a_at`]) for time-indexed access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// First time index (−h).
    pub t_min: i64,
    /// Last time index (T).
    pub t_max: i64,
    /// Cumulative arrivals per step.
    pub a: Vec<Rat>,
    /// Cumulative service per step.
    pub s: Vec<Rat>,
    /// Cumulative wasted tokens per step.
    pub w: Vec<Rat>,
    /// Cumulative lost bytes per step (all zero in the lossless scope).
    pub l: Vec<Rat>,
    /// Congestion window per step.
    pub cwnd: Vec<Rat>,
}

impl Trace {
    /// Extract the trace values from a satisfying model.
    pub fn from_model(model: &Model, nv: &NetVars) -> Trace {
        let cfg = nv.cfg();
        let range = cfg.t_min()..=cfg.t_max();
        Trace {
            t_min: cfg.t_min(),
            t_max: cfg.t_max(),
            a: range.clone().map(|t| model.real(nv.a(t))).collect(),
            s: range.clone().map(|t| model.real(nv.s(t))).collect(),
            w: range.clone().map(|t| model.real(nv.w(t))).collect(),
            l: range.clone().map(|t| model.real(nv.l(t))).collect(),
            cwnd: range.map(|t| model.real(nv.cwnd(t))).collect(),
        }
    }

    fn idx(&self, t: i64) -> usize {
        assert!((self.t_min..=self.t_max).contains(&t), "time {t} out of trace range");
        (t - self.t_min) as usize
    }

    /// `A(t)`.
    pub fn a_at(&self, t: i64) -> &Rat {
        &self.a[self.idx(t)]
    }

    /// `S(t)`.
    pub fn s_at(&self, t: i64) -> &Rat {
        &self.s[self.idx(t)]
    }

    /// `W(t)`.
    pub fn w_at(&self, t: i64) -> &Rat {
        &self.w[self.idx(t)]
    }

    /// `L(t)`.
    pub fn l_at(&self, t: i64) -> &Rat {
        &self.l[self.idx(t)]
    }

    /// `cwnd(t)`.
    pub fn cwnd_at(&self, t: i64) -> &Rat {
        &self.cwnd[self.idx(t)]
    }

    /// Standing queue `A(t) − L(t) − S(t)`.
    pub fn queue_at(&self, t: i64) -> Rat {
        &(self.a_at(t) - self.l_at(t)) - self.s_at(t)
    }

    /// Whether waste increased at step `t` (i.e. `W(t) > W(t−1)`).
    pub fn waste_increased(&self, t: i64) -> bool {
        t > self.t_min && self.w_at(t) > self.w_at(t - 1)
    }

    /// Link utilization over the enforced window `[0, T]`:
    /// `(S(T) − S(0)) / (C·T)`, assuming `C = 1`.
    pub fn utilization(&self) -> Rat {
        let span = Rat::from(self.t_max);
        if span.is_zero() {
            return Rat::zero();
        }
        &(self.s_at(self.t_max) - self.s_at(0)) / &span
    }

    /// Maximum standing queue over `[0, T]`.
    pub fn max_queue(&self) -> Rat {
        (0..=self.t_max).map(|t| self.queue_at(t)).max().unwrap_or_else(Rat::zero)
    }

    /// Rewrite the waste schedule over `[0, T]` to the *minimal* one the
    /// service schedule admits, leaving `A`, `S`, `L`, `cwnd` and the
    /// pre-history waste untouched.
    ///
    /// Solver models are free to pick any `W` inside the feasible band, so
    /// two probes of the same verification query routinely return traces
    /// that differ only in arbitrary waste slack — which defeats trace
    /// subsumption (`W` domination is part of its premise). Canonicalizing
    /// to the unique minimum makes equal-`S` traces comparable again.
    ///
    /// For `u ≥ 0` the binding lower bounds on `W(u)` are waste
    /// monotonicity from `W(−1)` and the bounded-delay service floor
    /// `S(v+D) ≥ C·(v+h) − W(v)` for every `v ≤ u` with `v+D ≤ T`
    /// (`h = −t_min`, `D` = jitter); their running maximum
    ///
    /// `W′(u) = max(W(−1), max_{0 ≤ v ≤ u, v+D ≤ T} C·(v+h) − S(v+D))`
    ///
    /// is therefore itself feasible for the fixed `S`: it is monotone, meets
    /// every service floor by construction, and stays under the token-bucket
    /// cap `C·(u+h) − S(u)` because each term is `≤ W(v) ≤ W(u)`, which the
    /// original model kept under the cap. That last inequality also gives
    /// `W′ ≤ W` pointwise, so at every shared waste point the feasibility
    /// ceiling `C·(t+h) − W(t)` only rises. The waste-only-while-idle guard
    /// binds the *arrival* column, which replay re-derives per candidate and
    /// re-checks at every waste point, so any candidate replay accepts on
    /// the canonical trace has a genuine witness — refutations through it
    /// stay sound.
    ///
    /// The kill set is *not* a superset of the original's, though: where the
    /// model wasted earlier than the floors force, `W′` steps up later,
    /// creating waste points the original trace did not have — and each
    /// waste point adds an arrival-ceiling check to replay feasibility. In
    /// particular the candidate that *generated* the trace may no longer be
    /// refuted by the canonical form. Callers asserting a learned constraint
    /// must therefore re-check refutation of that candidate and keep the
    /// original trace when it fails (see `GenAdapter::learn`), or CEGIS can
    /// livelock re-proposing it.
    ///
    /// Two deliberate scope limits keep this sound: lossy traces are left
    /// alone (the loss rule pins the backlog to the token line exactly at
    /// drop points, so `W` is not free there), and the pre-history waste is
    /// preserved (its idle guard constrains the trace's *fixed* pre-history
    /// arrivals, which replay never re-checks).
    pub fn canonicalize_waste(&mut self, link_rate: &Rat, jitter: usize) {
        if self.l.iter().any(|l| !l.is_zero()) {
            return;
        }
        let h = -self.t_min;
        let d = jitter as i64;
        let mut floor = if self.t_min < 0 { self.w_at(-1).clone() } else { Rat::zero() };
        for u in 0..=self.t_max {
            if u + d <= self.t_max {
                let line = link_rate * &Rat::from(u + h);
                let need = &line - self.s_at(u + d);
                if need > floor {
                    floor = need;
                }
            }
            let i = self.idx(u);
            debug_assert!(
                floor <= self.w[i],
                "canonical waste exceeds the model's at t={u}: the source \
                 trace violates the bounded-delay service floor"
            );
            self.w[i] = floor.clone();
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "t", "A", "S", "W", "cwnd", "queue"
        )?;
        for t in self.t_min..=self.t_max {
            writeln!(
                f,
                "{:>4} {:>10} {:>10} {:>10} {:>10} {:>10}{}",
                t,
                fmt_rat(self.a_at(t)),
                fmt_rat(self.s_at(t)),
                fmt_rat(self.w_at(t)),
                fmt_rat(self.cwnd_at(t)),
                fmt_rat(&self.queue_at(t)),
                if t == -1 { "  ── window start ──" } else { "" },
            )?;
        }
        write!(
            f,
            "utilization {:.3}, max queue {:.3}",
            self.utilization().to_f64(),
            self.max_queue().to_f64()
        )
    }
}

fn fmt_rat(r: &Rat) -> String {
    if r.is_integer() {
        r.to_string()
    } else {
        format!("{:.3}", r.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{alloc_net_vars, network_constraints, NetConfig};
    use ccmatic_num::int;
    use ccmatic_smt::{Context, LinExpr, SatResult, Solver};

    #[test]
    fn trace_extraction_roundtrip() {
        let cfg =
            NetConfig { horizon: 3, history: 1, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let mut s = Solver::new();
        s.assert(&ctx, net);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let trace = Trace::from_model(s.model().unwrap(), &nv);
        assert_eq!(trace.t_min, -1);
        assert_eq!(trace.t_max, 3);
        // Extracted trace satisfies the constraints it was solved under.
        for t in trace.t_min..=trace.t_max {
            assert!(trace.s_at(t) <= trace.a_at(t), "S ≤ A violated at {t}");
            let tokens = &int(t + cfg.history as i64) - trace.w_at(t);
            assert!(trace.s_at(t) <= &tokens, "token bucket violated at {t}");
            if t > trace.t_min {
                assert!(trace.s_at(t) >= trace.s_at(t - 1), "S monotone");
                assert!(trace.a_at(t) >= trace.a_at(t - 1), "A monotone");
                assert!(trace.w_at(t) >= trace.w_at(t - 1), "W monotone");
            }
        }
        // Display renders without panicking and mentions the window marker.
        let shown = trace.to_string();
        assert!(shown.contains("window start"));
    }

    #[test]
    fn waste_canonicalization_is_minimal_sound_and_convergent() {
        let cfg =
            NetConfig { horizon: 6, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        // Force nonzero waste so canonicalization has real slack to strip.
        let wasted = ctx.ge(LinExpr::var(nv.w(cfg.t_max())), LinExpr::constant(int(2)));
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, wasted);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let original = Trace::from_model(s.model().unwrap(), &nv);

        let mut canon = original.clone();
        canon.canonicalize_waste(&cfg.link_rate, cfg.jitter);
        let h = cfg.history as i64;
        for t in 0..=canon.t_max {
            // Never more waste than the model chose, still monotone.
            assert!(canon.w_at(t) <= original.w_at(t), "W grew at {t}");
            assert!(canon.w_at(t) >= canon.w_at(t - 1), "W monotone at {t}");
            // The untouched service column still obeys the token bucket.
            let tokens = &int(t + h) - canon.w_at(t);
            assert!(canon.s_at(t) <= &tokens, "token bucket violated at {t}");
            // … and the bounded-delay service floor.
            let lag = t - cfg.jitter as i64;
            if lag >= canon.t_min {
                let floor = &int(lag + h) - canon.w_at(lag);
                assert!(canon.s_at(t) >= &floor, "service floor violated at {t}");
            }
        }
        // Only the enforced-window waste changes.
        for t in canon.t_min..0 {
            assert_eq!(canon.w_at(t), original.w_at(t), "pre-history waste touched at {t}");
        }
        assert_eq!(canon.a, original.a);
        assert_eq!(canon.s, original.s);
        assert_eq!(canon.l, original.l);
        assert_eq!(canon.cwnd, original.cwnd);

        // Idempotent: a canonical trace is a fixed point.
        let mut again = canon.clone();
        again.canonicalize_waste(&cfg.link_rate, cfg.jitter);
        assert_eq!(again.w, canon.w);

        // Traces differing only in waste slack converge to the same
        // schedule — the property that lets serial subsumption fire.
        let mut padded = original.clone();
        for t in 0..=padded.t_max {
            let i = padded.idx(t);
            padded.w[i] = original.w_at(t) + &int(1);
        }
        padded.canonicalize_waste(&cfg.link_rate, cfg.jitter);
        assert_eq!(padded.w, canon.w);

        // Lossy traces are left alone: the loss rule pins W there.
        let mut lossy = original.clone();
        let last = lossy.idx(lossy.t_max);
        lossy.l[last] = int(1);
        let before = lossy.w.clone();
        lossy.canonicalize_waste(&cfg.link_rate, cfg.jitter);
        assert_eq!(lossy.w, before);
    }
}
