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
    use ccmatic_smt::{Context, SatResult, Solver};

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
}
