//! Native (non-SMT) feasibility checking of concrete traces.
//!
//! The model's rules are written once, in [`crate::model`], against a
//! reading of its quantities. The solver encoding reads them as terms;
//! [`check_trace`] and [`check_sender_rule`] read them as exact rational
//! arithmetic over a concrete [`Trace`] and return the first violated rule
//! by name. This module holds that reading and nothing else: no rule is
//! stated here.
//!
//! The fuzzer's model-gap detector rests on this checker: a concrete,
//! network-feasible trace violating the objective that the verifier's
//! UNSAT verdict claims cannot exist exposes a bug in the solver pipeline
//! (CNF conversion, SAT search, simplex, theory propagation). With one
//! statement of the rules it no longer cross-checks a second hand-written
//! copy of them; the simulator (`ccmatic-simnet`) and the
//! `sim_vs_verifier` checks stay the independent semantic check.

use crate::model::{network_rules, sender_rule, Cmp, NetConfig, Quantity, Reading, Rule};
use crate::trace::Trace;
use ccmatic_num::Rat;

/// The concrete reading: quantities are the trace's numbers, and imposing
/// a rule checks it.
struct Check<'a>(&'a Trace);

impl Reading for Check<'_> {
    type Val = Rat;
    type Stop = String;
    fn at(&self, q: Quantity, t: i64) -> Rat {
        let tr = self.0;
        [&tr.a, &tr.s, &tr.w, &tr.l, &tr.cwnd][q as usize][(t - tr.t_min) as usize].clone()
    }
    fn lit(&self, k: Rat) -> Rat {
        k
    }
    fn impose(&mut self, name: &str, t: i64, rule: Rule<Rat>) -> Result<(), String> {
        let holds = |(lhs, rel, rhs): &Cmp<Rat>| rel.holds(lhs, rhs);
        let why = match &rule {
            Rule::Holds(c @ (lhs, _, rhs)) if !holds(c) => format!("{lhs} vs {rhs}"),
            Rule::If(g @ (gl, _, gr), c @ (lhs, _, rhs)) if holds(g) && !holds(c) => {
                format!("{gl} vs {gr} held, then {lhs} vs {rhs}")
            }
            Rule::Max(x, a, b) if x != a.max(b) => format!("{x} ≠ max({a}, {b})"),
            _ => return Ok(()),
        };
        Err(format!("{name} violated at t={t}: {why}"))
    }
}

/// Check every *network* constraint (the adversarial link's feasibility
/// band) against a concrete trace. Returns the first violated constraint,
/// by name.
pub fn check_trace(trace: &Trace, cfg: &NetConfig) -> Result<(), String> {
    if trace.t_min != cfg.t_min() || trace.t_max != cfg.t_max() {
        return Err(format!(
            "trace shape [{}, {}] does not match net [{}, {}]",
            trace.t_min,
            trace.t_max,
            cfg.t_min(),
            cfg.t_max()
        ));
    }
    network_rules(&mut Check(trace), cfg)
}

/// Check the aggressive cwnd-limited sender rule
/// `A(t) = max(A(t−1), S(t−1) + cwnd(t))` on the enforced window
/// `t ∈ [0, T]` against the trace's recorded arrival/cwnd columns.
pub fn check_sender_rule(trace: &Trace) -> Result<(), String> {
    sender_rule(&mut Check(trace), trace.t_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{alloc_net_vars, network_constraints, sender_constraints, NetVars};
    use ccmatic_num::{int, rat, SmallRng};
    use ccmatic_smt::{Context, LinExpr, SatResult, Solver, Term};

    fn cfg() -> NetConfig {
        NetConfig { horizon: 5, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    /// Every model the SMT solver accepts must pass the native checker —
    /// the two encodings of the same constraints agree on the accept side.
    #[test]
    fn smt_models_pass_the_native_checker() {
        let cfg = cfg();
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let snd = sender_constraints(&mut ctx, &nv);
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, snd);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let trace = Trace::from_model(s.model().unwrap(), &nv);
        check_trace(&trace, &cfg).expect("SMT-feasible trace rejected natively");
        check_sender_rule(&trace).expect("SMT sender rule rejected natively");
    }

    /// `vars = τ`: every variable of `nv` pinned to the trace's value.
    fn pin(ctx: &mut Context, nv: &NetVars, tr: &Trace) -> Term {
        let mut pins = Vec::new();
        for t in tr.t_min..=tr.t_max {
            let vars = [nv.a(t), nv.s(t), nv.w(t), nv.l(t), nv.cwnd(t)];
            let vals = [tr.a_at(t), tr.s_at(t), tr.w_at(t), tr.l_at(t), tr.cwnd_at(t)];
            for (x, v) in vars.into_iter().zip(vals) {
                pins.push(ctx.eq(LinExpr::var(x), LinExpr::constant(v.clone())));
            }
        }
        ctx.and(pins)
    }

    /// Move one entry of `tr` onto a neighbouring entry (which lands
    /// perturbations on the rules' boundaries) or by a small step, or
    /// shift a whole suffix of a column (which keeps it monotone).
    fn perturb(rng: &mut SmallRng, tr: &mut Trace) {
        let steps = tr.a.len();
        let i = rng.gen_range_usize(0, steps);
        let col = match rng.gen_range_usize(0, 5) {
            0 => &mut tr.a,
            1 => &mut tr.s,
            2 => &mut tr.w,
            3 => &mut tr.l,
            _ => &mut tr.cwnd,
        };
        let delta = rat(rng.gen_range_i64(-2, 3), 2);
        match rng.gen_range_usize(0, 4) {
            0 => col[i] = col[(i + 1).min(steps - 1)].clone(),
            1 => col[i] = col[i.saturating_sub(1)].clone(),
            2 => col[i] = &col[i] + &delta,
            _ => col[i..].iter_mut().for_each(|v| *v = &*v + &delta),
        }
    }

    /// The two readings of the rules agree: on solver traces, random
    /// perturbations of them and each trace's whole `W` column shifted by
    /// −1/2, lossless and with a finite buffer, `check_trace` accepts
    /// exactly the traces the solver encoding admits once every variable
    /// is pinned to the trace, and `check_sender_rule` likewise for the
    /// sender encoding. On a base whose link serves at the token line
    /// throughout, the service floor has slack `C` at jitter 1, so only the
    /// waste anchor `W(−h) = 0` rejects the shifted trace.
    #[test]
    fn checker_and_encoding_agree_on_perturbed_traces() {
        let mut rng = SmallRng::seed_from_u64(33);
        let mut seen = [[0u32; 2]; 2];
        for buffer in [None, Some(rat(1, 2)), Some(int(1))] {
            let cfg = NetConfig { buffer, ..cfg() };
            let mut ctx = Context::new();
            let nv = alloc_net_vars(&mut ctx, &cfg);
            let net = network_constraints(&mut ctx, &nv);
            let snd = sender_constraints(&mut ctx, &nv);
            // Base traces: constant-window senders, each also made to lose
            // data (where the buffer allows it), to waste tokens, to keep
            // the link busy throughout, or to serve at the token line.
            let (t_end, zero) = (cfg.t_max(), LinExpr::zero());
            let lossy = ctx.gt(LinExpr::var(nv.l(t_end)), zero.clone());
            let wasteful = ctx.gt(LinExpr::var(nv.w(t_end)), zero.clone());
            let busy = ctx.le(LinExpr::var(nv.w(t_end)), zero);
            let at_line = (cfg.t_min()..=t_end)
                .map(|t| ctx.eq(LinExpr::var(nv.s(t)), nv.tokens(t)))
                .collect();
            let at_line = ctx.and(at_line);
            for (window, extra) in [1, 3].into_iter().flat_map(|c| {
                [None, Some(lossy), Some(wasteful), Some(busy), Some(at_line)]
                    .map(|extra| (int(c), extra))
            }) {
                let mut s = Solver::new();
                s.assert(&ctx, net);
                s.assert(&ctx, snd);
                for t in cfg.t_min()..=t_end {
                    let fixed = ctx.eq(LinExpr::var(nv.cwnd(t)), LinExpr::constant(window.clone()));
                    s.assert(&ctx, fixed);
                }
                if let Some(e) = extra {
                    s.assert(&ctx, e);
                }
                if s.check(&ctx) != SatResult::Sat {
                    assert!(cfg.buffer.is_none() && extra == Some(lossy));
                    continue;
                }
                let base = Trace::from_model(s.model().unwrap(), &nv);
                let mut shifted = base.clone();
                shifted.w.iter_mut().for_each(|w| *w = &*w - &rat(1, 2));
                let perturbed = (0..60).map(|round| {
                    let mut tr = base.clone();
                    for _ in 0..=round % 3 {
                        perturb(&mut rng, &mut tr);
                    }
                    tr
                });
                for tr in perturbed.chain([shifted]) {
                    let pinned = pin(&mut ctx, &nv, &tr);
                    for (k, (rules, checked)) in
                        [(net, check_trace(&tr, &cfg)), (snd, check_sender_rule(&tr))]
                            .into_iter()
                            .enumerate()
                    {
                        let mut s = Solver::new();
                        s.assert(&ctx, rules);
                        s.assert(&ctx, pinned);
                        let sat = s.check(&ctx) == SatResult::Sat;
                        assert_eq!(checked.is_ok(), sat, "{:?}: {checked:?} on\n{tr}", cfg.buffer);
                        seen[k][sat as usize] += 1;
                    }
                }
            }
        }
        // Both verdicts occur for both rule sets.
        assert!(seen.iter().flatten().all(|&n| n > 20), "{seen:?}");
    }

    #[test]
    fn violations_are_caught_and_named() {
        let cfg = cfg();
        let mut ctx = Context::new();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let mut s = Solver::new();
        s.assert(&ctx, net);
        assert_eq!(s.check(&ctx), SatResult::Sat);
        let good = Trace::from_model(s.model().unwrap(), &nv);

        // Token-bucket violation.
        let mut bad = good.clone();
        let i = bad.s.len() - 1;
        bad.s[i] = int(1000);
        let err = check_trace(&bad, &cfg).unwrap_err();
        assert!(err.contains("tokens") || err.contains("A−L"), "got: {err}");

        // Service anchor violation.
        let mut bad = good.clone();
        bad.s[0] = int(1);
        assert!(check_trace(&bad, &cfg).is_err());

        // Waste while backlogged.
        let mut bad = good.clone();
        let last = bad.w.len() - 1;
        bad.a[last] = int(1000); // huge backlog …
        bad.w[last] = &bad.w[last - 1] + &int(1); // … yet waste grows
        assert!(check_trace(&bad, &cfg).is_err());

        // Shape mismatch.
        let other = NetConfig { horizon: 7, ..cfg.clone() };
        assert!(check_trace(&good, &other).is_err());
    }
}
