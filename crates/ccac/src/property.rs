//! The desired property (the paper's §3.1.1 relaxation), stated once.
//!
//! [`desired`] writes `(util_ok ∨ cwnd_up) ∧ (queue_ok ∨ queue_down ∨
//! cwnd_down)` against a [`Reading`] of its values and truth values, with
//! the model's quantities `A`, `S`, `L` and `cwnd` read through a closure.
//! Two code paths read it:
//!
//! * the verifier's solver encoding, [`desired_property`], over the trace
//!   variables; [`base_query`] is the query every verifier asks;
//! * σ(A, τ) in `ccmatic`, with the candidate's windows and arrivals on a
//!   learned trace τ and τ's `S` and `L` as constants: as terms over the
//!   generator's coefficients (response-variable and region form) and as
//!   exact numbers (`TraceReplay::refutes`).

use crate::model::{network_constraints, sender_constraints, NetConfig, NetVars, Quantity, Rel};
use ccmatic_num::Rat;
use ccmatic_smt::{Context, LinExpr, Term};

/// Performance targets for the synthesized CCA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Thresholds {
    /// Minimum fraction of link capacity the CCA must use in steady state
    /// (`thresh_U`; the paper starts at 0.5).
    pub util: Rat,
    /// Maximum standing queue in BDP units ≡ queueing delay in RTTs at
    /// `C = 1` (`thresh_D`; the paper starts at 4).
    pub delay: Rat,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { util: Rat::new(1i64.into(), 2i64.into()), delay: Rat::from(4i64) }
    }
}

/// One reading of the property: what its values and truth values are.
pub trait Reading {
    /// A quantity, or a difference of quantities.
    type Val: Clone;
    /// A truth value.
    type Prop;
    /// The constant `x`.
    fn lit(&self, x: &Rat) -> Self::Val;
    /// `a − b`.
    fn sub(&self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// `lhs ⋈ rhs`.
    fn cmp(&mut self, lhs: &Self::Val, rel: Rel, rhs: &Self::Val) -> Self::Prop;
    /// The conjunction of what `f` hands its sink at every enforced step
    /// `t ∈ [0, t_end]`; a reading that can decide a step alone may stop at
    /// the first false one.
    fn all(
        &mut self,
        t_end: i64,
        mut f: impl FnMut(&mut Self, i64, &mut dyn FnMut(Self::Prop)),
    ) -> Self::Prop {
        let mut ps = Vec::new();
        for t in 0..=t_end {
            f(self, t, &mut |p| ps.push(p));
        }
        self.and(ps)
    }
    /// The conjunction of `ps` (true when `ps` is empty).
    fn and(&mut self, ps: Vec<Self::Prop>) -> Self::Prop;
    /// The disjunction of `ps` (false when `ps` is empty).
    fn or(&mut self, ps: Vec<Self::Prop>) -> Self::Prop;
}

/// The relaxed steady-state property on `net`'s enforced window
/// `t ∈ [0, T]`, where `at(r, q, t)` reads quantity `q` at step `t`:
///
/// ```text
/// (util_ok ∨ cwnd_up) ∧ (queue_ok ∨ queue_down ∨ cwnd_down)
/// util_ok    = S(T) − S(0) ≥ thresh_U · C · T
/// cwnd_up    = cwnd(T) > cwnd(0)          cwnd_down = cwnd(T) < cwnd(0)
/// queue_ok   = ∀t. queue(t) ≤ thresh_D    queue_down = queue(T) < queue(0)
/// queue(t)   = A(t) − L(t) − S(t)
/// ```
///
/// On a finite window with arbitrary initial conditions the best any CCA
/// can do is meet the target or move toward it; induction over
/// consecutive windows then yields the steady-state guarantee (the
/// paper's §3.1.1; DESIGN.md specializes the argument to this encoding).
pub fn desired<R: Reading>(
    r: &mut R,
    net: &NetConfig,
    th: &Thresholds,
    at: impl Fn(&R, Quantity, i64) -> R::Val,
) -> R::Prop {
    use Quantity::*;
    use Rel::*;
    let t_end = net.t_max();
    let queue = |r: &R, t| r.sub(r.sub(at(r, A, t), at(r, L, t)), at(r, S, t));
    let target = &(&th.util * &net.link_rate) * &Rat::from(t_end);
    let util_ok = r.cmp(&r.sub(at(r, S, t_end), at(r, S, 0)), Ge, &r.lit(&target));
    let cwnd_up = r.cmp(&at(r, Cwnd, t_end), Gt, &at(r, Cwnd, 0));
    let cwnd_down = r.cmp(&at(r, Cwnd, t_end), Lt, &at(r, Cwnd, 0));
    let delay = r.lit(&th.delay);
    let queue_ok = r.all(t_end, |r, t, ok| ok(r.cmp(&queue(r, t), Le, &delay)));
    let queue_down = r.cmp(&queue(r, t_end), Lt, &queue(r, 0));
    let rampup_or_util = r.or(vec![util_ok, cwnd_up]);
    let bounded_or_draining = r.or(vec![queue_ok, queue_down, cwnd_down]);
    r.and(vec![rampup_or_util, bounded_or_draining])
}

/// The solver reading: values are linear expressions, truth values terms.
impl Reading for Context {
    type Val = LinExpr;
    type Prop = Term;
    fn lit(&self, x: &Rat) -> LinExpr {
        LinExpr::constant(x.clone())
    }
    fn sub(&self, a: LinExpr, b: LinExpr) -> LinExpr {
        a - b
    }
    fn cmp(&mut self, lhs: &LinExpr, rel: Rel, rhs: &LinExpr) -> Term {
        rel.term(self, lhs.clone(), rhs.clone())
    }
    fn and(&mut self, ps: Vec<Term>) -> Term {
        Context::and(self, ps)
    }
    fn or(&mut self, ps: Vec<Term>) -> Term {
        Context::or(self, ps)
    }
}

/// [`desired`] over the trace variables `nv`.
pub fn desired_property(ctx: &mut Context, nv: &NetVars, th: &Thresholds) -> Term {
    desired(ctx, nv.cfg(), th, |_, q, t| LinExpr::var(nv.at(q, t)))
}

/// Every verifier's base query over `nv`, `network ∧ sender ∧ ¬desired`,
/// as its three conjuncts in the order they are asserted. With a
/// candidate's rule added, a model is a feasible trace on which the
/// candidate misses the property.
pub fn base_query(ctx: &mut Context, nv: &NetVars, th: &Thresholds) -> [Term; 3] {
    let net = network_constraints(ctx, nv);
    let snd = sender_constraints(ctx, nv);
    let desired = desired_property(ctx, nv, th);
    [net, snd, ctx.not(desired)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{alloc_net_vars, NetConfig};
    use ccmatic_num::int;
    use ccmatic_smt::{SatResult, Solver};

    #[test]
    fn ideal_full_rate_trace_satisfies_property() {
        // Pin an ideal trace: no waste, service at line rate, cwnd = 2,
        // no initial backlog. The property must hold (so ¬desired is unsat
        // together with the pinned trace).
        let cfg =
            NetConfig { horizon: 6, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let mut pins = Vec::new();
        for t in cfg.t_min()..=cfg.t_max() {
            // S(t) = t + h (full rate), W(t) = 0.
            pins.push(
                ctx.eq(LinExpr::var(nv.s(t)), LinExpr::constant(int(t + cfg.history as i64))),
            );
            pins.push(ctx.eq(LinExpr::var(nv.w(t)), LinExpr::zero()));
            pins.push(ctx.eq(LinExpr::var(nv.cwnd(t)), LinExpr::constant(int(2))));
        }
        // History arrivals consistent with the window: A(t) = S(t−1) + 2 for
        // history steps too (t−1 ≥ t_min).
        for t in (cfg.t_min() + 1)..0 {
            pins.push(
                ctx.eq(
                    LinExpr::var(nv.a(t)),
                    LinExpr::var(nv.s(t - 1)) + LinExpr::constant(int(2)),
                ),
            );
        }
        pins.push(ctx.eq(LinExpr::var(nv.a(cfg.t_min())), LinExpr::constant(int(2))));
        let pinned = ctx.and(pins);
        let mut s = Solver::new();
        for term in base_query(&mut ctx, &nv, &Thresholds::default()) {
            s.assert(&ctx, term);
        }
        s.assert(&ctx, pinned);
        assert_eq!(
            s.check(&ctx),
            SatResult::Unsat,
            "ideal full-rate trace must satisfy the desired property"
        );
    }

    #[test]
    fn starved_flat_cwnd_trace_violates_property() {
        // cwnd pinned to 0.1 with zero initial backlog: utilization ~10% and
        // cwnd flat → property violated, so ¬desired ∧ trace is SAT.
        let cfg =
            NetConfig { horizon: 6, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let mut pins = Vec::new();
        for t in cfg.t_min()..=cfg.t_max() {
            pins.push(ctx.eq(
                LinExpr::var(nv.cwnd(t)),
                LinExpr::constant(Rat::new(1i64.into(), 10i64.into())),
            ));
        }
        pins.push(ctx.eq(LinExpr::var(nv.a(cfg.t_min())), LinExpr::zero()));
        let pinned = ctx.and(pins);
        let mut s = Solver::new();
        for term in base_query(&mut ctx, &nv, &Thresholds::default()) {
            s.assert(&ctx, term);
        }
        s.assert(&ctx, pinned);
        assert_eq!(
            s.check(&ctx),
            SatResult::Sat,
            "a starving constant-cwnd trace must violate the desired property"
        );
    }
}
