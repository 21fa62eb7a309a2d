//! Exhaustive solution enumeration (§4 "Extensions": "we ask CCmatic to
//! produce all possible solutions, implying that there are no other
//! solutions in our search space").
//!
//! After each certified solution the exact coefficient assignment is
//! blocked in the generator and the CEGIS loop continues; when the
//! generator reports unsat, the collected set is provably exhaustive.
//!
//! # Warm-starting (DESIGN.md §12)
//!
//! [`enumerate_all_with`] layers two kinds of reuse over the cold loop,
//! both *locally re-validated* so soundness never rests on the carried
//! facts being right:
//!
//! * **L1 — a [`WarmStart`] carried from a neighboring sweep point.** Each
//!   carried (refuted candidate, trace) pair whose trace the network model
//!   admits is learned before the first proposal, like a counterexample
//!   the verifier just produced: σ holds for every solution on every
//!   network-feasible trace, so the assertion removes no solution at the
//!   current thresholds. [`crate::replay::TraceReplay::refutes`] only
//!   decides whether the region BFS runs around the carried candidate.
//!   The neighbor's solutions are then pre-verified: a Pass admits the
//!   solution and blocks it (no generator work at all), a Fail yields a
//!   fresh counterexample for this point. The generator's final unsat
//!   claim is unchanged by any of this — warm and cold runs provably
//!   enumerate the same set.
//! * **L2 — the persistent [`ResultCache`].** A validated hit (exact
//!   canonical-fingerprint match + every stored certificate re-checked by
//!   the independent checker) answers the whole enumeration with zero
//!   solver probes. A completed solve with a cache attached runs with
//!   certification forced on and stores its solution set, per-solution
//!   Pass certificates, and the exhaustion certificate.

use crate::cache::{Lookup, PassCerts, ResultCache};
use crate::synth::{build_loop, SynthOptions};
use crate::template::CcaSpec;
use ccac_model::Trace;
use ccmatic_cegis::{run, Budget, Generator, Outcome, Stats, Verdict, Verifier};
use std::time::Instant;

/// Result of [`enumerate_all`].
#[derive(Debug)]
pub struct EnumerateResult {
    /// Every CCA in the search space satisfying the property (exhaustive
    /// iff `complete`).
    pub solutions: Vec<CcaSpec>,
    /// True when the space was provably exhausted; false when a budget ran
    /// out first.
    pub complete: bool,
    /// Accumulated loop statistics across all solutions.
    pub stats: Stats,
    /// Underlying verifier solver probes (exceeds verifier calls when WCE
    /// binary-searches).
    pub solver_probes: u64,
}

/// Facts carried from one completed enumeration into a neighboring one
/// (same network, same template, different thresholds). Nothing in here is
/// trusted: see the module docs for the re-validation discipline.
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    /// (refuted candidate, counterexample trace) pairs, in learn order.
    pub refuted: Vec<(CcaSpec, Trace)>,
    /// The neighbor's full solution set.
    pub solutions: Vec<CcaSpec>,
}

impl WarmStart {
    /// Whether there is anything to carry.
    pub fn is_empty(&self) -> bool {
        self.refuted.is_empty() && self.solutions.is_empty()
    }
}

/// [`enumerate_all_with`]'s result: the enumeration plus the carry-over
/// for the next sweep point.
#[derive(Debug)]
pub struct WarmEnumeration {
    /// The enumeration outcome.
    pub result: EnumerateResult,
    /// Warm-start facts for the next neighboring problem.
    pub carry: WarmStart,
    /// Whether the answer came from a validated cache entry (zero solver
    /// probes).
    pub from_cache: bool,
    /// Why a present cache entry was rejected, if one was.
    pub cache_rejected: Option<String>,
    /// Whether this run wrote a new cache entry.
    pub stored: bool,
}

/// Enumerate every solution in the search space (cold, uncached).
pub fn enumerate_all(opts: &SynthOptions) -> EnumerateResult {
    enumerate_all_with(opts, None, None).result
}

/// Enumerate with optional warm-start carry-over and/or a persistent
/// result cache (either may be `None`; both `None` is exactly
/// [`enumerate_all`]).
pub fn enumerate_all_with(
    opts: &SynthOptions,
    warm: Option<&WarmStart>,
    cache: Option<&ResultCache>,
) -> WarmEnumeration {
    let t0 = Instant::now();
    let mut stats = Stats::default();
    let mut cache_rejected = None;

    // L2 first: a validated hit answers everything in checker time.
    if let Some(cache) = cache {
        match cache.lookup(opts) {
            Lookup::Hit(hit) => {
                stats.cache_hits = 1;
                stats.cache_cert_ms = hit.cert_ms;
                stats.wall = t0.elapsed();
                let solutions = hit.solutions;
                return WarmEnumeration {
                    carry: WarmStart { refuted: Vec::new(), solutions: solutions.clone() },
                    result: EnumerateResult { solutions, complete: true, stats, solver_probes: 0 },
                    from_cache: true,
                    cache_rejected: None,
                    stored: false,
                };
            }
            Lookup::Rejected(why) => cache_rejected = Some(why),
            Lookup::Miss => {}
        }
    }

    // A solve that should populate the cache must produce certificates.
    let run_opts;
    let opts_run = if cache.is_some() && !opts.certify {
        run_opts = SynthOptions { certify: true, ..opts.clone() };
        &run_opts
    } else {
        opts
    };

    let (mut generator, mut verifier) = build_loop(opts_run);
    let mut solutions: Vec<CcaSpec> = Vec::new();
    let mut pass_certs = PassCerts::default();
    let mut remaining = opts.budget.max_iterations;
    let deadline = t0 + opts.budget.max_wall;

    // L1: learn the carried traces the network model admits at *this*
    // point, then re-verify the carried solutions.
    if let Some(warm) = warm {
        generator.seed(&warm.refuted, &mut stats);
        // Pre-verify the neighbor's solutions: monotone thresholds nest
        // solution sets, so most either re-verify (admitted + blocked, no
        // generator work) or yield a fresh counterexample for this point.
        for sol in &warm.solutions {
            if Instant::now() >= deadline {
                break;
            }
            let v0 = Instant::now();
            let verdict = verifier.verify_interruptible(sol, Some(deadline), None);
            stats.verifier_time += v0.elapsed();
            stats.verifier_calls += 1;
            match verdict {
                Verdict::Pass => {
                    stats.warm_solutions_confirmed += 1;
                    if let Some(len) = verifier.inner.take_last_pass_cert() {
                        pass_certs.push(len);
                    }
                    generator.inner.block(sol);
                    solutions.push(sol.clone());
                }
                Verdict::Fail(cex) => {
                    let g1 = Instant::now();
                    generator.learn(sol, &cex);
                    stats.generator_time += g1.elapsed();
                }
                Verdict::Timeout => break,
            }
        }
    }

    let complete = loop {
        let budget = Budget {
            max_iterations: remaining,
            max_wall: deadline.saturating_duration_since(Instant::now()),
        };
        if budget.max_iterations == 0 || budget.max_wall.is_zero() {
            break false;
        }
        let result = run(&mut generator, &mut verifier, &budget);
        stats.iterations += result.stats.iterations;
        stats.generator_time += result.stats.generator_time;
        stats.verifier_time += result.stats.verifier_time;
        stats.verifier_calls += result.stats.verifier_calls;
        remaining = remaining.saturating_sub(result.stats.iterations);
        match result.outcome {
            Outcome::Solution(spec) => {
                if let Some(len) = verifier.inner.take_last_pass_cert() {
                    pass_certs.push(len);
                }
                generator.inner.block(&spec);
                solutions.push(spec);
            }
            Outcome::NoSolution => break true,
            Outcome::BudgetExhausted => break false,
        }
    };

    // Populate the cache: complete outcomes with their full proof
    // complement only.
    let mut stored = false;
    if let (Some(cache), true) = (cache, complete) {
        if let Some(exhaustion) = generator.inner.exhaustion_cert() {
            if pass_certs.len() == solutions.len() {
                let pass_log = verifier.inner.proof_log();
                stored = cache.store(opts, &solutions, pass_log, &pass_certs, exhaustion).is_ok();
            }
        }
    }

    stats.regions_pruned = generator.inner.regions_pruned;
    stats.wall = t0.elapsed();
    let solver_probes = verifier.inner.solver_probes;
    WarmEnumeration {
        carry: WarmStart { refuted: generator.take_refuted_log(), solutions: solutions.clone() },
        result: EnumerateResult { solutions, complete, stats, solver_probes },
        from_cache: false,
        cache_rejected,
        stored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::OptMode;
    use crate::template::{CoeffDomain, TemplateShape};
    use crate::verifier::{CcaVerifier, VerifyConfig};
    use ccac_model::{NetConfig, Thresholds};
    use ccmatic_num::Rat;
    use std::time::Duration;

    #[test]
    fn enumeration_is_sound_and_terminates_on_tiny_space() {
        // Tiny space: lookback 2, domain {−1,0,1} → 27 candidates. Every
        // returned solution must re-verify; completeness must be reported.
        let opts = SynthOptions {
            shape: TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
            net: NetConfig {
                horizon: 5,
                history: 3,
                link_rate: Rat::one(),
                jitter: 1,
                buffer: None,
            },
            thresholds: Thresholds::default(),
            mode: OptMode::RangePruningWce,
            budget: ccmatic_cegis::Budget {
                max_iterations: 600,
                max_wall: Duration::from_secs(240),
            },
            wce_precision: Rat::new(1i64.into(), 2i64.into()),
            certify: false,
            ..Default::default()
        };
        let result = enumerate_all(&opts);
        assert!(result.complete, "tiny space must be exhausted within budget");
        assert!(result.solutions.len() <= 27);
        let mut v = CcaVerifier::new(VerifyConfig {
            net: opts.net.clone(),
            thresholds: opts.thresholds.clone(),
            worst_case: false,
            wce_precision: opts.wce_precision.clone(),
            certify: false,
            ..Default::default()
        });
        for s in &result.solutions {
            assert!(v.verify(s).is_ok(), "enumerated non-solution {s}");
        }
        // No duplicates.
        for (i, a) in result.solutions.iter().enumerate() {
            for b in &result.solutions[i + 1..] {
                assert_ne!(a, b, "duplicate solution");
            }
        }
    }
}
