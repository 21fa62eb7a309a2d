//! σ(A, τ): what one learned counterexample τ says about a candidate A.
//!
//! `σ = feasible(A, τ) ⟹ desired(A, τ)`. The candidate's behaviour on τ's
//! service schedule comes from the template recursion
//! ([`template::rule`]) and the sender max-rule; `feasible` is the
//! [`FeasibilityMode`]'s reading of whether that behaviour fits τ's
//! network; `desired` is [`ccac_model::property::desired`], the property
//! the verifier refutes, with τ's `S` and `L` as constants. [`sigma`]
//! writes the feasibility part and reads the other two, against a
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
//! really refutes. On lossless nets `L_τ ≡ 0` and no buffer term is built.

use crate::generator::FeasibilityMode;
use crate::replay::TraceReplay;
use crate::template::{self, Sample};
use ccac_model::property::{self, desired};
use ccac_model::{Quantity, Rel, Trace};
use ccmatic_num::Rat;

/// One reading of σ: the property's reading of values (the candidate's
/// windows and arrival counts on τ's schedule, and τ's constants) and
/// truth values, plus what the template and the sender rule need.
pub(crate) trait Reading: property::Reading {
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
    /// `lhs ⋈ x` for the trace constant `x`.
    fn bound(&mut self, lhs: &Self::Val, rel: Rel, x: &Rat) -> Self::Prop {
        self.cmp(lhs, rel, &self.lit(x))
    }
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

    // The template on τ's schedule: a sample of S is a trace constant, and
    // so is a window before t = 0; a later window is the candidate's own.
    let mut cwnd: Vec<R::Val> = Vec::with_capacity(steps);
    for t in 0..=t_end {
        let v = template::rule(alphas, betas, t).fold(r.lit(&Rat::zero()), |v, (c, x)| {
            let tap = match x {
                Sample::One => r.tap(c, &Rat::one()),
                Sample::S(k) => r.tap(c, cex.s_at(k)),
                Sample::Cwnd(k) if k < 0 => r.tap(c, cex.cwnd_at(k)),
                Sample::Cwnd(k) => r.product(c, t, &cwnd[k as usize]),
            };
            r.add(v, tap)
        });
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

    // Feasibility of τ's network against the candidate's arrivals.
    let tokens = |t: i64| &(&net.link_rate * &Rat::from(t + net.history as i64)) - cex.w_at(t);
    let feasible = r.all(t_end, |r, t, feas| {
        let (a, lost) = (&arr[t as usize], cex.l_at(t));
        match p.mode {
            FeasibilityMode::Baseline => feas(r.bound(a, Eq, cex.a_at(t))),
            FeasibilityMode::RangePruning => {
                // The link never served (or dropped) data the candidate
                // had not sent.
                feas(r.bound(a, Ge, &(cex.s_at(t) + lost)));
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

    // The desired property, with τ's S and L as constants.
    r.implies(feasible, |r| {
        desired(r, net, th, |r, q, t| match q {
            Quantity::A => arr[t as usize].clone(),
            Quantity::Cwnd => cwnd[t as usize].clone(),
            Quantity::S => r.lit(cex.s_at(t)),
            Quantity::L => r.lit(cex.l_at(t)),
            Quantity::W => r.lit(cex.w_at(t)),
        })
    })
}
