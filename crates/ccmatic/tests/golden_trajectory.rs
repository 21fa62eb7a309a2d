//! Fixed-seed golden records: kernel changes that claim to change only the
//! cost of a search (not its path) must leave every number here identical.
//!
//! The file holds exactly one `#[test]`: the pivot counts are read from the
//! process-wide `pivots_total()`, which other tests in the same binary
//! would otherwise bump concurrently.
//!
//! Pinned:
//! * the Table-1 No-cwnd/Small cell at ci scale (81 candidates, horizon 6),
//!   RP+WCE on one thread — solution, CEGIS iterations, solver probes,
//!   regions pruned, counterexamples subsumed and simplex pivots;
//! * a certifying WCE verifier over the known-CCA set — per candidate the
//!   verdict, a digest of the counterexample trace, the probe count, the
//!   certificate bytes replayed by the independent checker and the pivots.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::fingerprint::fnv1a64;
use ccmatic::known;
use ccmatic::synth::{synthesize, OptMode, SynthOptions, DEFAULT_DISPATCH_MIN};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_cegis::{Budget, Outcome};
use ccmatic_num::{int, rat, Rat};
use ccmatic_smt::lra::pivots_total;
use std::time::Duration;

/// The ci-scale network; the known CCAs tap four acks back, so they need
/// one more step of history than the lookback-3 synthesis template.
fn ci_net(history: usize) -> NetConfig {
    NetConfig { horizon: 6, history, link_rate: Rat::one(), jitter: 1, buffer: None }
}

fn synth_record() -> String {
    let opts = SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: ci_net(4),
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(600) },
        wce_precision: rat(1, 2),
        incremental: true,
        threads: 1,
        seed: 0,
        dispatch_min: DEFAULT_DISPATCH_MIN,
        certify: false,
        region_pruning: true,
        theory_sync: true,
    };
    let p0 = pivots_total();
    let r = synthesize(&opts);
    let outcome = match &r.outcome {
        Outcome::Solution(s) => format!("solution {s}"),
        other => format!("{other:?}"),
    };
    format!(
        "{outcome} · iterations {} · probes {} · regions pruned {} · cex subsumed {} · pivots {}",
        r.stats.iterations,
        r.verifier_probes,
        r.stats.regions_pruned,
        r.stats.cex_subsumed,
        pivots_total() - p0
    )
}

fn verifier_records() -> Vec<String> {
    let mut v = CcaVerifier::new(VerifyConfig {
        net: ci_net(5),
        thresholds: Thresholds::default(),
        worst_case: true,
        wce_precision: rat(1, 2),
        incremental: true,
        certify: true,
        search: Default::default(),
        theory_sync: true,
    });
    let set = [
        ("rocc", known::rocc()),
        ("eq_iii", known::eq_iii()),
        ("const_cwnd(0)", known::const_cwnd(Rat::zero())),
        ("const_cwnd(6)", known::const_cwnd(int(6))),
        ("const_cwnd(20)", known::const_cwnd(int(20))),
        ("copy_cwnd", known::copy_cwnd()),
    ];
    set.iter()
        .map(|(name, spec)| {
            let (probes0, bytes0, p0) = (v.solver_probes, v.cert_audit.bytes, pivots_total());
            let verdict = match v.verify(spec) {
                Ok(()) => "pass".to_string(),
                Err(trace) => format!("fail {:016x}", fnv1a64(&format!("{trace:?}"))),
            };
            format!(
                "{name}: {verdict} · probes {} · cert bytes {} · pivots {}",
                v.solver_probes - probes0,
                v.cert_audit.bytes - bytes0,
                pivots_total() - p0
            )
        })
        .collect()
}

#[test]
fn search_trajectories_match_goldens() {
    assert_eq!(
        synth_record(),
        "solution cwnd(t) = 1·ack(t−1) − 1·ack(t−3) + 1 · iterations 3 · probes 13 \
         · regions pruned 53 · cex subsumed 0 · pivots 1689"
    );
    assert_eq!(
        verifier_records(),
        [
            "rocc: pass · probes 1 · cert bytes 18743 · pivots 920",
            "eq_iii: fail 752e1436b53b0869 · probes 6 · cert bytes 152514 · pivots 2454",
            "const_cwnd(0): fail 0ee904dcce60a5d1 · probes 6 · cert bytes 240139 · pivots 246",
            "const_cwnd(6): fail 8a7ae03e2e8ef255 · probes 6 · cert bytes 224706 · pivots 240",
            "const_cwnd(20): fail a89dc44547fd1fcf · probes 6 · cert bytes 248792 · pivots 182",
            "copy_cwnd: fail 9039d8c244875164 · probes 6 · cert bytes 270178 · pivots 232",
        ]
    );
}
