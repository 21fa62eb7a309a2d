//! Differential guarantees for the warm-start + cache layer (DESIGN.md
//! §12): reuse is a pure accelerant. Warm sweeps must produce *exactly*
//! the rows a cold sweep does, a populated cache must answer repeat runs
//! by certificate re-check alone, and damaged or stale cache entries must
//! be rejected and fall back to a fresh (still correct) solve.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::cache::{Lookup, ResultCache};
use ccmatic::enumerate::enumerate_all_with;
use ccmatic::json::Json;
use ccmatic::sweep::{sweep_with_config, SweepConfig, SweepRow};
use ccmatic::synth::{OptMode, SynthOptions};
use ccmatic::template::{CoeffDomain, TemplateShape};
use ccmatic_num::{int, rat, Rat};
use ccmatic_proof::{ProofStep, UnsatCertificate};
use std::path::PathBuf;
use std::time::Duration;

/// The 27-candidate space every test here sweeps (fast even in debug).
fn tiny_base() -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 2, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 5, history: 3, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: ccmatic_cegis::Budget { max_iterations: 600, max_wall: Duration::from_secs(240) },
        wce_precision: rat(1, 2),
        incremental: true,
        threads: 1,
        seed: 0,
        dispatch_min: ccmatic::synth::DEFAULT_DISPATCH_MIN,
        certify: false,
        region_pruning: true,
        theory_sync: true,
    }
}

/// A fresh, empty per-test cache directory under the system temp dir.
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccmatic-warmtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_rows_equal(cold: &[SweepRow], warm: &[SweepRow], label: &str) {
    assert_eq!(cold.len(), warm.len(), "{label}: row count");
    for (i, (c, w)) in cold.iter().zip(warm).enumerate() {
        assert_eq!(c.thresholds.util, w.thresholds.util, "{label} row {i}: util");
        assert_eq!(c.thresholds.delay, w.thresholds.delay, "{label} row {i}: delay");
        assert_eq!(
            c.result.solutions, w.result.solutions,
            "{label} row {i}: warm solution set differs from cold"
        );
        assert_eq!(c.result.complete, w.result.complete, "{label} row {i}: completeness");
    }
}

#[test]
fn warm_equals_cold_on_both_axes_across_thread_counts() {
    let base = tiny_base();
    let delay_values = [int(8), int(4), int(2)];
    let util_values = [rat(1, 2), rat(7, 10)];
    let set_delay = |t: &mut Thresholds, d: &Rat| t.delay = d.clone();
    let set_util = |t: &mut Thresholds, u: &Rat| t.util = u.clone();

    let cold = SweepConfig { threads: 1, warm_start: false, cache: None, sweep_wall: None };
    let cold_delay = sweep_with_config(&base, &delay_values, set_delay, &cold).rows;
    let cold_util = sweep_with_config(&base, &util_values, set_util, &cold).rows;
    for threads in [1, 4] {
        let cfg = SweepConfig { threads, warm_start: true, cache: None, sweep_wall: None };
        let warm_delay = sweep_with_config(&base, &delay_values, set_delay, &cfg);
        assert_rows_equal(&cold_delay, &warm_delay.rows, &format!("delay@{threads}t"));
        let warm_util = sweep_with_config(&base, &util_values, set_util, &cfg);
        assert_rows_equal(&cold_util, &warm_util.rows, &format!("util@{threads}t"));
    }
}

#[test]
fn populated_cache_answers_repeat_sweeps_with_zero_solver_probes() {
    let base = tiny_base();
    let values = [int(8), int(4)];
    let set = |t: &mut Thresholds, d: &Rat| t.delay = d.clone();
    let dir = fresh_cache_dir("roundtrip");

    let cfg = || SweepConfig {
        threads: 1,
        warm_start: true,
        cache: Some(ResultCache::new(&dir).unwrap()),
        sweep_wall: None,
    };
    let first = sweep_with_config(&base, &values, set, &cfg());
    assert_eq!(first.cache_stats.stores, 2, "both completed points must be cached");
    assert_eq!(first.cache_stats.hits, 0);

    let second = sweep_with_config(&base, &values, set, &cfg());
    assert_eq!(second.cache_stats.hits, 2, "repeat run must hit on every point");
    for (i, row) in second.rows.iter().enumerate() {
        assert_eq!(row.result.solver_probes, 0, "row {i}: cached answer touched a solver");
        assert_eq!(row.result.stats.cache_hits, 1, "row {i}: no cache hit recorded");
        assert!(row.result.stats.cache_cert_ms > 0.0, "row {i}: checker time not recorded");
        assert!(row.result.complete, "row {i}: cached answers are complete by construction");
    }
    assert_rows_equal(&first.rows, &second.rows, "cached-vs-solved");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite one string field of a cache entry's JSON in place.
fn tamper_entry(path: &PathBuf, key: &str, f: impl Fn(&str) -> String) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut entry = Json::parse(&text).unwrap();
    let Json::Obj(fields) = &mut entry else { panic!("entry is not an object") };
    let slot = fields.iter_mut().find(|(k, _)| k == key).unwrap();
    let Json::Str(s) = &slot.1 else { panic!("{key} is not a string") };
    slot.1 = Json::Str(f(s));
    std::fs::write(path, entry.render()).unwrap();
}

#[test]
fn corrupted_certificate_is_rejected_and_resolved_fresh() {
    let opts = tiny_base();
    let dir = fresh_cache_dir("corrupt");
    let cache = ResultCache::new(&dir).unwrap();
    let baseline = enumerate_all_with(&opts, None, Some(&cache));
    assert!(baseline.stored, "first run must populate the cache");

    // Drop the certificate's final step: it still parses, but the checker
    // no longer finds an empty-clause derivation.
    let path = cache.entry_path(&opts);
    tamper_entry(&path, "exhaustion_cert", |cert| {
        let t = cert.trim_end();
        t[..t.rfind('\n').expect("multi-step certificate")].to_string()
    });
    assert!(
        matches!(cache.lookup(&opts), Lookup::Rejected(_)),
        "mutated certificate must be rejected, not trusted"
    );

    let fresh = enumerate_all_with(&opts, None, Some(&cache));
    assert!(!fresh.from_cache, "rejected entry must not be used");
    assert!(fresh.cache_rejected.is_some(), "rejection reason must be surfaced");
    assert_eq!(fresh.result.solutions, baseline.result.solutions, "fresh solve must be correct");
    assert!(fresh.stored, "fresh solve must repair the entry");
    assert!(matches!(cache.lookup(&opts), Lookup::Hit(_)), "repaired entry must validate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The solution certificates of a cache entry's JSON.
fn solution_certs(entry: &Json) -> Vec<UnsatCertificate> {
    let certs = entry.get("solution_certs").and_then(Json::as_arr).expect("solution_certs");
    certs.iter().map(|c| UnsatCertificate::from_text(c.as_str().unwrap()).unwrap()).collect()
}

#[test]
fn solution_certificate_mutated_inside_its_shared_prefix_is_rejected_and_repaired() {
    // A loose delay bound, so the space has several solutions.
    let mut opts = tiny_base();
    opts.thresholds.delay = int(8);
    let dir = fresh_cache_dir("prefix");
    let cache = ResultCache::new(&dir).unwrap();
    let baseline = enumerate_all_with(&opts, None, Some(&cache));
    assert!(baseline.stored);
    assert!(baseline.result.solutions.len() >= 2, "the entry needs two solution certificates");

    // One verifier's certificates are prefixes of one log, and validation
    // replays each shared step once.
    let path = cache.entry_path(&opts);
    let mut entry = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let certs = solution_certs(&entry);
    assert!(certs.windows(2).all(|w| w[1].steps.starts_with(&w[0].steps)));
    let exhaustion = entry.get("exhaustion_cert").and_then(Json::as_str).unwrap();
    let exhaustion_len = UnsatCertificate::from_text(exhaustion).unwrap().steps.len();
    let Lookup::Hit(hit) = cache.lookup(&opts) else { panic!("fresh entry must validate") };
    assert_eq!(hit.steps_replayed, (certs.last().unwrap().steps.len() + exhaustion_len) as u64);

    // Perturb a Farkas coefficient of the second certificate inside the
    // prefix it shares with the first.
    let shared = certs[0].steps.len();
    let mut bad = certs[1].clone();
    let i = (0..shared)
        .find(|&i| matches!(bad.steps[i], ProofStep::Theory { .. }))
        .expect("the shared prefix holds theory lemmas");
    let ProofStep::Theory { farkas, .. } = &mut bad.steps[i] else { unreachable!() };
    farkas[0].1 = &farkas[0].1 + &int(7);
    let Json::Obj(fields) = &mut entry else { panic!("entry is not an object") };
    let (_, Json::Arr(texts)) = fields.iter_mut().find(|(k, _)| k == "solution_certs").unwrap()
    else {
        panic!("solution_certs is not an array")
    };
    texts[1] = Json::Str(bad.to_text());
    std::fs::write(&path, entry.render()).unwrap();
    match cache.lookup(&opts) {
        Lookup::Rejected(why) => assert!(why.contains("solution certificate 1"), "{why}"),
        other => panic!("mutated shared prefix must be rejected, got {other:?}"),
    }

    let fresh = enumerate_all_with(&opts, None, Some(&cache));
    assert!(!fresh.from_cache, "rejected entry must not be used");
    assert!(fresh.cache_rejected.is_some());
    assert_eq!(fresh.result.solutions, baseline.result.solutions, "fresh solve must be correct");
    assert!(fresh.stored, "fresh solve must repair the entry");
    assert!(matches!(cache.lookup(&opts), Lookup::Hit(_)), "repaired entry must validate");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_engine_version_is_rejected_and_resolved_fresh() {
    let opts = tiny_base();
    let dir = fresh_cache_dir("stale");
    let cache = ResultCache::new(&dir).unwrap();
    let baseline = enumerate_all_with(&opts, None, Some(&cache));
    assert!(baseline.stored);

    // Pretend the entry came from an older engine: the canonical string no
    // longer matches, so the answer is not about *this* engine's problem.
    let path = cache.entry_path(&opts);
    tamper_entry(&path, "canonical", |c| c.replace("ccmatic-engine-v1", "ccmatic-engine-v0"));
    assert!(matches!(cache.lookup(&opts), Lookup::Rejected(_)));

    let fresh = enumerate_all_with(&opts, None, Some(&cache));
    assert!(!fresh.from_cache);
    assert_eq!(fresh.result.solutions, baseline.result.solutions);
    let _ = std::fs::remove_dir_all(&dir);
}
