//! σ(A, τ): what one learned counterexample τ says about a candidate A.
//!
//! `σ = feasible(A, τ) ⟹ desired(A, τ)`. The candidate's behaviour on τ's
//! service schedule comes from the template recursion and the sender
//! max-rule; `feasible` is the [`FeasibilityMode`]'s reading of whether
//! that behaviour fits τ's network; `desired` is the §3.1.1 property with
//! τ's `S`, `W` and `L` as constants. [`sigma`] states this once, against a
//! [`Reading`] of its values and truth values. It has three readings:
//!
//! * the generator's response-variable form: fresh `cwnd(t)` and `A(t)`
//!   variables per trace, α products ite-linearized (cwnd shapes, and
//!   every shape under Baseline);
//! * the generator's region form: every value is a max of linear terms
//!   over the coefficient variables, so a trace adds no variable (no-cwnd
//!   shapes under range pruning);
//! * exact [`Rat`] evaluation for one concrete candidate
//!   ([`TraceReplay::refutes`] is `¬σ`).
//!
//! Losses (`buffer: Some(B)`, DESIGN §11.1): the queue is `A − L_τ − S_τ`,
//! and range pruning asks `S_τ + L_τ ≤ A`, `A − L_τ ≤ tokens` where τ
//! wasted, `A − L_τ ≤ tokens + B`, and `A − L_τ ≥ tokens + B` where `L_τ`
//! grew. Under those, τ with `A` in place of `A_τ` satisfies every network
//! rule (`L ≤ A` follows from `S ≥ 0`), so σ excludes only candidates τ
//! really refutes. On lossless nets `L_τ ≡ 0` and no loss term is built.

use crate::generator::FeasibilityMode;
use crate::replay::TraceReplay;
use ccac_model::{Rel, Trace};
use ccmatic_num::Rat;

/// One reading of σ's candidate-dependent values and truth values.
pub(crate) trait Reading {
    /// A window or an arrival count of the candidate on τ's schedule.
    type Val: Clone;
    /// A truth value.
    type Prop;
    /// The trace constant `x`.
    fn lit(&mut self, x: &Rat) -> Self::Val;
    /// Coefficient `c` (an index into [`CcaSpec::flat`](crate::CcaSpec::flat))
    /// times the trace constant `x`.
    fn tap(&mut self, c: usize, x: &Rat) -> Self::Val;
    /// Coefficient `c` times the candidate's own window `v`, in `cwnd(t)`.
    fn product(&mut self, c: usize, t: i64, v: &Self::Val) -> Self::Val;
    fn add(&mut self, a: Self::Val, b: Self::Val) -> Self::Val;
    /// `cwnd(t) = rhs`.
    fn cwnd(&mut self, t: i64, rhs: Self::Val) -> Self::Val;
    /// `A(t) = max(prev, window)`.
    fn arrivals(&mut self, t: i64, prev: &Self::Val, window: Self::Val) -> Self::Val;
    fn cmp(&mut self, lhs: &Self::Val, rel: Rel, rhs: &Self::Val) -> Self::Prop;
    /// `lhs ⋈ x` for the trace constant `x`.
    fn bound(&mut self, lhs: &Self::Val, rel: Rel, x: &Rat) -> Self::Prop {
        let x = self.lit(x);
        self.cmp(lhs, rel, &x)
    }
    /// The conjunction of what `f` hands its sink at every enforced step;
    /// a reading that can decide a step alone may stop at the first false
    /// one.
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
    /// `a ⟹ b`; a reading that can decide `a` alone need not read `b`.
    fn implies(&mut self, a: Self::Prop, b: impl FnOnce(&mut Self) -> Self::Prop) -> Self::Prop;
}

/// σ(A, τ) for a template with `alphas` cwnd taps and `betas` ack taps,
/// under `p`'s network, thresholds and feasibility mode.
pub(crate) fn sigma<R: Reading>(
    r: &mut R,
    p: &TraceReplay,
    alphas: usize,
    betas: usize,
    cex: &Trace,
) -> R::Prop {
    use Rel::*;
    let (net, th) = (&p.net, &p.thresholds);
    let t_end = net.t_max();
    let steps = t_end as usize + 1;

    // Template: cwnd(t) = γ + Σᵢ βᵢ·S_τ(t−i−2) + Σᵢ αᵢ·cwnd(t−i−1); a
    // window before t = 0 is a trace constant.
    let mut cwnd: Vec<R::Val> = Vec::with_capacity(steps);
    for t in 0..=t_end {
        let mut v = r.tap(alphas + betas, &Rat::one());
        for i in 0..betas {
            let tap = r.tap(alphas + i, cex.s_at(t - i as i64 - 2));
            v = r.add(v, tap);
        }
        for i in 0..alphas {
            let back = t - i as i64 - 1;
            let tap = match usize::try_from(back) {
                Ok(back) => r.product(i, t, &cwnd[back]),
                Err(_) => r.tap(i, cex.cwnd_at(back)),
            };
            v = r.add(v, tap);
        }
        let v = r.cwnd(t, v);
        cwnd.push(v);
    }

    // Sender rule: A(t) = max(A(t−1), S_τ(t−1) + cwnd(t)), from A_τ(−1).
    let mut arr: Vec<R::Val> = Vec::with_capacity(steps);
    let before = r.lit(cex.a_at(-1));
    for t in 0..=t_end {
        let sent = r.lit(cex.s_at(t - 1));
        let window = r.add(cwnd[t as usize].clone(), sent);
        let a = r.arrivals(t, arr.last().unwrap_or(&before), window);
        arr.push(a);
    }

    // S_τ(t) + L_τ(t): what τ's link served or dropped by `t` (no sum is
    // formed on lossless nets).
    let gone = |t: i64| match cex.l_at(t) {
        lost if lost.is_zero() => cex.s_at(t).clone(),
        lost => cex.s_at(t) + lost,
    };

    // Feasibility of τ's network against the candidate's arrivals.
    let tokens = |t: i64| &(&net.link_rate * &Rat::from(t + net.history as i64)) - cex.w_at(t);
    let feasible = r.all(t_end, |r, t, feas| {
        let (a, lost) = (&arr[t as usize], cex.l_at(t));
        match p.mode {
            FeasibilityMode::Baseline => feas(r.bound(a, Eq, cex.a_at(t))),
            FeasibilityMode::RangePruning => {
                // The link never served (or dropped) data the candidate
                // had not sent.
                feas(r.bound(a, Ge, &gone(t)));
                // Where τ wasted tokens, the backlog sat at or below the
                // token line.
                if cex.waste_increased(t) {
                    feas(r.bound(a, Le, &(&tokens(t) + lost)));
                }
                // The buffer cap, met exactly wherever τ dropped data.
                if let Some(buffer) = &net.buffer {
                    let cap = &(&tokens(t) + buffer) + lost;
                    feas(r.bound(a, Le, &cap));
                    if lost > cex.l_at(t - 1) {
                        feas(r.bound(a, Ge, &cap));
                    }
                }
            }
        }
    });

    // Desired property, with queue(t) = A(t) − L_τ(t) − S_τ(t).
    r.implies(feasible, |r| {
        let work = cex.s_at(t_end) - cex.s_at(0);
        let target = &(&th.util * &net.link_rate) * &Rat::from(t_end);
        // A trace constant: the empty conjunction or disjunction.
        let util_ok = if work >= target { r.and(vec![]) } else { r.or(vec![]) };
        let cwnd_up = r.cmp(&cwnd[steps - 1], Gt, &cwnd[0]);
        let cwnd_down = r.cmp(&cwnd[steps - 1], Lt, &cwnd[0]);
        let queue_ok = r.all(t_end, |r, t, queue| {
            queue(r.bound(&arr[t as usize], Le, &(&gone(t) + &th.delay)));
        });
        // queue(T) < queue(0) ⟺ A(T) < A(0) + (S_τ + L_τ)(T) − (S_τ + L_τ)(0).
        let drained = r.lit(&(&gone(t_end) - &gone(0)));
        let drained = r.add(arr[0].clone(), drained);
        let queue_down = r.cmp(&arr[steps - 1], Lt, &drained);
        let c1 = r.or(vec![util_ok, cwnd_up]);
        let c2 = r.or(vec![queue_ok, queue_down, cwnd_down]);
        r.and(vec![c1, c2])
    })
}
