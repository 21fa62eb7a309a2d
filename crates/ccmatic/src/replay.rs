//! Concrete counterexample replay: re-run a learned trace against a
//! candidate's rule directly, with no SMT solver.
//!
//! The generator's `learn` asserts `σ(A, τ) = feasible(A, τ) ⟹
//! desired(A, τ)` symbolically over coefficient variables. For a *concrete*
//! candidate the same formula is exact rational arithmetic: this module is
//! the [`Rat`] reading of the one σ the generator also reads (see the
//! `sigma` module), so it states no recursion, feasibility or property of
//! its own. The agreement tests replay every verifier counterexample
//! against the candidate it refuted, and `generator::tests` pins
//! `refutes` to the solver's verdict on σ for whole candidate spaces.
//!
//! Inside the generator the check gates every region-BFS block and
//! decides whether a warm-start seed gets the region BFS at all. The
//! fuzzer's confirm step uses it to claim a concrete refutation. The CEGIS
//! loop does not call it; the test
//! `synth::tests::learned_traces_never_refute_a_later_proposal` runs the
//! loop and asserts that no learned trace ever refutes a later proposal.

use crate::generator::FeasibilityMode;
use crate::sigma::{sigma, Reading};
use crate::template::CcaSpec;
use ccac_model::property;
use ccac_model::{NetConfig, Rel, Thresholds, Trace};
use ccmatic_num::Rat;

/// Replays traces against candidates under one network/threshold/mode
/// configuration (must match the generator's).
#[derive(Clone, Debug)]
pub struct TraceReplay {
    pub(crate) net: NetConfig,
    pub(crate) thresholds: Thresholds,
    pub(crate) mode: FeasibilityMode,
}

impl TraceReplay {
    /// Build a replayer. `mode` must match the generator's feasibility
    /// encoding or `refutes` would disagree with `learn`.
    pub fn new(net: NetConfig, thresholds: Thresholds, mode: FeasibilityMode) -> Self {
        TraceReplay { net, thresholds, mode }
    }

    /// `true` iff `cex` concretely refutes `spec`: the candidate's
    /// behaviour on the trace's schedule is feasible yet undesired —
    /// exactly `¬σ(spec, cex)` from the generator's learned constraint.
    /// Traces of a different shape (or too shallow for the candidate's
    /// lookback) make no claim and return `false`.
    pub fn refutes(&self, spec: &CcaSpec, cex: &Trace) -> bool {
        if cex.t_min != self.net.t_min() || cex.t_max != self.net.t_max() {
            return false;
        }
        // Deepest sample: β taps need S(t−i−2), α taps cwnd(t−i−1).
        let deepest = (spec.beta.len() as i64 + 1).max(spec.alpha.len() as i64).max(1);
        if cex.t_min > -deepest {
            return false;
        }
        !sigma(&mut Eval(spec), self, spec.alpha.len(), spec.beta.len(), cex)
    }
}

/// σ read for one concrete candidate: values are exact numbers.
struct Eval<'a>(&'a CcaSpec);

impl property::Reading for Eval<'_> {
    type Val = Rat;
    type Prop = bool;
    fn lit(&self, x: &Rat) -> Rat {
        x.clone()
    }
    fn sub(&self, a: Rat, b: Rat) -> Rat {
        a - b
    }
    fn cmp(&mut self, lhs: &Rat, rel: Rel, rhs: &Rat) -> bool {
        rel.holds(lhs, rhs)
    }
    fn all(&mut self, t_end: i64, mut f: impl FnMut(&mut Self, i64, &mut dyn FnMut(bool))) -> bool {
        (0..=t_end).all(|t| {
            let mut holds = true;
            f(self, t, &mut |p| holds &= p);
            holds
        })
    }
    fn and(&mut self, ps: Vec<bool>) -> bool {
        ps.into_iter().all(|p| p)
    }
    fn or(&mut self, ps: Vec<bool>) -> bool {
        ps.into_iter().any(|p| p)
    }
}

impl Reading for Eval<'_> {
    fn tap(&mut self, c: usize, x: &Rat) -> Rat {
        self.0.coeff(c) * x
    }
    fn product(&mut self, c: usize, _: i64, v: &Rat) -> Rat {
        self.0.coeff(c) * v
    }
    fn add(&mut self, a: Rat, b: Rat) -> Rat {
        a + b
    }
    fn cwnd(&mut self, _: i64, rhs: Rat) -> Rat {
        rhs
    }
    fn arrivals(&mut self, _: i64, prev: &Rat, window: Rat) -> Rat {
        if window >= *prev {
            window
        } else {
            prev.clone()
        }
    }
    fn implies(&mut self, a: bool, b: impl FnOnce(&mut Self) -> bool) -> bool {
        !a || b(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::CandidateIter;
    use crate::known;
    use crate::template::{CoeffDomain, TemplateShape};
    use crate::verifier::{CcaVerifier, VerifyConfig};
    use ccmatic_num::{int, rat};

    fn net() -> NetConfig {
        NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    fn verifier(worst_case: bool) -> CcaVerifier {
        verifier_on(net(), worst_case)
    }

    fn verifier_on(net: NetConfig, worst_case: bool) -> CcaVerifier {
        CcaVerifier::new(VerifyConfig {
            net,
            thresholds: Thresholds::default(),
            worst_case,
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            certify: false,
            ..Default::default()
        })
    }

    /// Every counterexample the verifier produces must replay as a
    /// refutation of the candidate it broke — in both feasibility modes
    /// (the verifier's trace satisfies the full network model, which
    /// implies both encodings' feasibility). The verifier and σ read one
    /// property, so this holds on lossy nets (where the queue is
    /// `A − L − S`) as on the lossless one, for the known-broken CCAs and
    /// for every candidate of a 3³ no-cwnd space the verifier refutes,
    /// with WCE on and off.
    #[test]
    fn verifier_counterexamples_replay_as_refutations() {
        let broken =
            [known::const_cwnd(Rat::zero()), known::const_cwnd(int(20)), known::copy_cwnd()];
        let shape = TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small };
        let specs: Vec<CcaSpec> = broken.into_iter().chain(CandidateIter::new(shape)).collect();
        for buffer in [None, Some(rat(1, 2)), Some(int(1))] {
            let net = NetConfig { buffer, ..net() };
            let mut refuted = 0;
            for worst_case in [false, true] {
                let mut v = verifier_on(net.clone(), worst_case);
                for (i, spec) in specs.iter().enumerate() {
                    let Err(cex) = v.verify(spec) else {
                        assert!(i >= 3 || net.buffer.is_some(), "{spec} is known to be broken");
                        continue;
                    };
                    refuted += 1;
                    for mode in [FeasibilityMode::Baseline, FeasibilityMode::RangePruning] {
                        let replay = TraceReplay::new(net.clone(), Thresholds::default(), mode);
                        assert!(
                            replay.refutes(spec, &cex),
                            "replay missed its own counterexample: {spec} \
                             (buffer {buffer:?}, wce={worst_case}, {mode:?})",
                            buffer = net.buffer
                        );
                    }
                }
            }
            assert!(refuted >= 50, "buffer {:?}: {refuted} refutations", net.buffer);
        }
    }

    /// A certified candidate must never be refuted by any trace.
    #[test]
    fn replay_never_refutes_a_solution() {
        let rocc = known::rocc();
        let mut v = verifier(true);
        assert!(v.verify(&rocc).is_ok());
        let replay = TraceReplay::new(net(), Thresholds::default(), FeasibilityMode::RangePruning);
        // Collect traces by refuting other candidates, then replay them
        // against RoCC.
        for broken in [known::const_cwnd(Rat::zero()), known::const_cwnd(int(20))] {
            let cex = v.verify(&broken).expect_err("broken");
            assert!(
                !replay.refutes(&rocc, &cex),
                "replay refuted a verified solution on {broken}'s counterexample"
            );
        }
    }

    /// Shape-mismatched traces make no refutation claim.
    #[test]
    fn mismatched_trace_shape_is_not_a_refutation() {
        let mut v = verifier(false);
        let cex = v.verify(&known::const_cwnd(Rat::zero())).expect_err("broken");
        let other =
            NetConfig { horizon: 4, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None };
        let replay = TraceReplay::new(other, Thresholds::default(), FeasibilityMode::RangePruning);
        assert!(!replay.refutes(&known::const_cwnd(Rat::zero()), &cex));
    }

    /// RangePruning feasibility at the `waste_increased` boundary: the
    /// token ceiling `A(t) ≤ C·(t+h) − W(t)` must be applied exactly at
    /// the flagged steps — including the first (`t = 0`) and last
    /// (`t = t_end`) enforced steps — and nowhere else. Synthetic traces
    /// where the candidate's replayed `A` breaks the ceiling *only* at
    /// the boundary step flip `refutes` from true (no waste anywhere: the
    /// trace is feasible and undesired) to false (boundary waste point:
    /// the trace is infeasible for this candidate, so it makes no claim).
    #[test]
    fn range_pruning_ceiling_applies_at_waste_boundaries() {
        let net =
            NetConfig { horizon: 3, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None };
        let t_end = net.t_max();
        let replay = TraceReplay::new(net, Thresholds::default(), FeasibilityMode::RangePruning);
        // Constant-window candidate: cwnd(t) = 10, no α/β taps beyond a
        // zero β (deepest sample S(t−2) stays within t_min = −2).
        let spec = CcaSpec { alpha: vec![], beta: vec![Rat::zero()], gamma: int(10) };
        // S(t) = t, A(−1) = 0 ⇒ replayed A = [9, 10, 11, 12] over 0..=3:
        // feasible w.r.t. the lower bound, queue-undesired (A−S > 4
        // everywhere, queue not falling, cwnd flat).
        let base = Trace {
            t_min: -2,
            t_max: t_end,
            a: vec![Rat::zero(); 6],
            s: (-2..=3).map(int).collect(),
            w: vec![Rat::zero(); 6],
            l: vec![Rat::zero(); 6],
            cwnd: vec![int(10); 6],
        };
        assert!(replay.refutes(&spec, &base), "waste-free trace must refute the candidate");

        // Waste increasing exactly at t = 0 (W(−1) = 0 < W(0) = 1, flat
        // after): ceiling A(0) ≤ C·(0+h) − W(0) = 1 < 9 ⇒ infeasible.
        let mut waste_at_start = base.clone();
        waste_at_start.w = vec![int(0), int(0), int(1), int(1), int(1), int(1)];
        assert!(waste_at_start.waste_increased(0) && !waste_at_start.waste_increased(1));
        assert!(
            !replay.refutes(&spec, &waste_at_start),
            "ceiling at t=0 must make the trace infeasible for this candidate"
        );

        // Waste increasing exactly at t = t_end: ceiling A(3) ≤ 5 − 1 = 4
        // < 12 ⇒ infeasible; every earlier step has no waste point.
        let mut waste_at_end = base.clone();
        waste_at_end.w = vec![int(0), int(0), int(0), int(0), int(0), int(1)];
        assert!(waste_at_end.waste_increased(t_end) && !waste_at_end.waste_increased(t_end - 1));
        assert!(
            !replay.refutes(&spec, &waste_at_end),
            "ceiling at t=t_end must make the trace infeasible for this candidate"
        );

        // Control: the same waste steps with a slack ceiling (W small
        // enough that A stays under C·(t+h) − W) keep the trace feasible,
        // so the refutation claim comes back. A(t) = t+9 ≤ (t+2) − W(t)
        // can't hold with C = 1, so raise the link rate instead: with
        // C = 10, ceiling at t=0 is 10·2 − 1 = 19 > 9, at t=3 is
        // 10·5 − 1 = 49 > 12.
        let fast =
            NetConfig { horizon: 3, history: 2, link_rate: int(10), jitter: 1, buffer: None };
        let fast_replay =
            TraceReplay::new(fast, Thresholds::default(), FeasibilityMode::RangePruning);
        assert!(
            fast_replay.refutes(&spec, &waste_at_start),
            "slack ceiling at t=0 must keep the refutation"
        );
        assert!(
            fast_replay.refutes(&spec, &waste_at_end),
            "slack ceiling at t=t_end must keep the refutation"
        );
    }

    /// The replayed cwnd recursion matches the trace's own cwnd when the
    /// trace was generated under the same template (sanity of the
    /// recursion's indexing).
    #[test]
    fn replay_recursion_matches_trace_cwnd() {
        let spec = known::const_cwnd(int(20));
        let mut v = verifier(false);
        let cex = v.verify(&spec).expect_err("broken");
        // const_cwnd: replayed cwnd must be exactly 20 everywhere, matching
        // the trace's enforced template values.
        for t in 0..=cex.t_max {
            assert_eq!(cex.cwnd_at(t), &int(20));
        }
    }
}
