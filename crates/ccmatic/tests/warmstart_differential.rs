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
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic_num::{int, rat, Rat};
use ccmatic_proof::{steps_to_text, ProofStep, UnsatCertificate};
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
        certify: false,
        ..Default::default()
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
fn warm_equals_cold_on_both_axes() {
    let base = tiny_base();
    let delay_values = [int(8), int(4), int(2)];
    let util_values = [rat(1, 2), rat(7, 10)];
    let set_delay = |t: &mut Thresholds, d: &Rat| t.delay = d.clone();
    let set_util = |t: &mut Thresholds, u: &Rat| t.util = u.clone();

    let cold = SweepConfig { warm_start: false, ..Default::default() };
    let warm = SweepConfig::default();
    let cold_delay = sweep_with_config(&base, &delay_values, set_delay, &cold).rows;
    let warm_delay = sweep_with_config(&base, &delay_values, set_delay, &warm).rows;
    assert_rows_equal(&cold_delay, &warm_delay, "delay");
    let cold_util = sweep_with_config(&base, &util_values, set_util, &cold).rows;
    let warm_util = sweep_with_config(&base, &util_values, set_util, &warm).rows;
    assert_rows_equal(&cold_util, &warm_util, "util");
}

#[test]
fn populated_cache_answers_repeat_sweeps_with_zero_solver_probes() {
    let base = tiny_base();
    let values = [int(8), int(4)];
    let set = |t: &mut Thresholds, d: &Rat| t.delay = d.clone();
    let dir = fresh_cache_dir("roundtrip");

    let cfg = || SweepConfig { cache: Some(ResultCache::new(&dir).unwrap()), ..Default::default() };
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

/// A cache entry's JSON.
fn read_entry(path: &PathBuf) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// The `solution_certs` chain of a cache entry's JSON, one text per link.
fn chain_texts(entry: &mut Json) -> &mut Vec<Json> {
    let Json::Obj(fields) = entry else { panic!("entry is not an object") };
    let (_, Json::Arr(texts)) = fields.iter_mut().find(|(k, _)| k == "solution_certs").unwrap()
    else {
        panic!("solution_certs is not an array")
    };
    texts
}

/// The parsed links of a cache entry's `solution_certs` chain.
fn chain_links(entry: &Json) -> Vec<Vec<ProofStep>> {
    let certs = entry.get("solution_certs").and_then(Json::as_arr).expect("solution_certs");
    certs.iter().map(|c| UnsatCertificate::from_text(c.as_str().unwrap()).unwrap().steps).collect()
}

/// Rewrites the `solution_certs` chain of the entry at `path` through `f`.
fn tamper_chain(path: &PathBuf, f: impl Fn(&mut Vec<Vec<ProofStep>>)) {
    let mut entry = read_entry(path);
    let mut links = chain_links(&entry);
    f(&mut links);
    *chain_texts(&mut entry) = links.iter().map(|l| Json::Str(steps_to_text(l))).collect();
    std::fs::write(path, entry.render()).unwrap();
}

/// A populated cache for `opts` in a fresh directory, and the baseline
/// enumeration that filled it.
fn populated(opts: &SynthOptions, tag: &str) -> (PathBuf, ResultCache, Vec<CcaSpec>) {
    let dir = fresh_cache_dir(tag);
    let cache = ResultCache::new(&dir).unwrap();
    let baseline = enumerate_all_with(opts, None, Some(&cache));
    assert!(baseline.stored, "first run must populate the cache");
    (dir, cache, baseline.result.solutions)
}

/// The tampered entry is rejected with a reason containing `why`, and a
/// fresh solve returns `solutions` and repairs the entry.
fn rejected_then_repaired(
    opts: &SynthOptions,
    cache: &ResultCache,
    solutions: &[CcaSpec],
    why: &str,
) {
    match cache.lookup(opts) {
        Lookup::Rejected(reason) => assert!(reason.contains(why), "{reason}"),
        other => panic!("tampered entry must be rejected ({why}), got {other:?}"),
    }
    let fresh = enumerate_all_with(opts, None, Some(cache));
    assert!(!fresh.from_cache, "rejected entry must not be used");
    assert!(fresh.cache_rejected.is_some(), "rejection reason must be surfaced");
    assert_eq!(fresh.result.solutions, solutions, "fresh solve must be correct");
    assert!(fresh.stored, "fresh solve must repair the entry");
    assert!(matches!(cache.lookup(opts), Lookup::Hit(_)), "repaired entry must validate");
}

/// `tiny_base` at a loose delay bound, so the space has several solutions
/// and the chain several links.
fn several_solutions() -> SynthOptions {
    let mut opts = tiny_base();
    opts.thresholds.delay = int(8);
    opts
}

#[test]
fn corrupted_certificate_is_rejected_and_resolved_fresh() {
    let opts = tiny_base();
    let (dir, cache, solutions) = populated(&opts, "corrupt");
    // Drop the certificate's final step: it still parses, but the checker
    // no longer finds an empty-clause derivation.
    tamper_entry(&cache.entry_path(&opts), "exhaustion_cert", |cert| {
        let t = cert.trim_end();
        t[..t.rfind('\n').expect("multi-step certificate")].to_string()
    });
    rejected_then_repaired(&opts, &cache, &solutions, "exhaustion certificate rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn solution_certificate_mutated_inside_its_shared_prefix_is_rejected_and_repaired() {
    let opts = several_solutions();
    let (dir, cache, solutions) = populated(&opts, "prefix");
    assert!(solutions.len() >= 3, "the chain needs a link that later certificates share");

    // The chain stores each step of the verifier's log once, and
    // validation replays each once.
    let path = cache.entry_path(&opts);
    let entry = read_entry(&path);
    let links = chain_links(&entry);
    assert_eq!(links.len(), solutions.len());
    assert!(links.iter().all(|l| !l.is_empty()));
    let exhaustion = entry.get("exhaustion_cert").and_then(Json::as_str).unwrap();
    let exhaustion_len = UnsatCertificate::from_text(exhaustion).unwrap().steps.len();
    let Lookup::Hit(hit) = cache.lookup(&opts) else { panic!("fresh entry must validate") };
    let chain_len: usize = links.iter().map(Vec::len).sum();
    assert_eq!(hit.steps_replayed, (chain_len + exhaustion_len) as u64);
    assert_eq!(hit.certs_checked, solutions.len() as u64 + 1);

    // Perturb a Farkas coefficient in link 1: the prefix that every later
    // certificate shares with certificate 1.
    tamper_chain(&path, |links| {
        let step = links[1]
            .iter_mut()
            .find(|s| matches!(s, ProofStep::Theory { .. }))
            .expect("link 1 holds theory lemmas");
        let ProofStep::Theory { farkas, .. } = step else { unreachable!() };
        farkas[0].1 = &farkas[0].1 + &int(7);
    });
    rejected_then_repaired(&opts, &cache, &solutions, "solution certificate 1 rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chain_link_failing_its_end_test_is_rejected_and_repaired() {
    let opts = several_solutions();
    let (dir, cache, solutions) = populated(&opts, "endtest");
    // Move link 0's last step (its empty clause) to the front of link 1:
    // the log is unchanged, but certificate 0 now refutes nothing.
    tamper_chain(&cache.entry_path(&opts), |links| {
        let last = links[0].pop().unwrap();
        links[1].insert(0, last);
    });
    rejected_then_repaired(&opts, &cache, &solutions, "solution certificate 0 rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_chain_link_is_rejected_and_repaired() {
    let opts = several_solutions();
    let (dir, cache, solutions) = populated(&opts, "emptylink");
    // Fold link 1 into link 0: certificate 0 becomes certificate 1, which
    // checks, and link 1 is empty.
    tamper_chain(&cache.entry_path(&opts), |links| {
        let moved = std::mem::take(&mut links[1]);
        links[0].extend(moved);
    });
    rejected_then_repaired(&opts, &cache, &solutions, "solution certificate 1 is an empty link");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reordered_chain_links_are_rejected_and_repaired() {
    let opts = several_solutions();
    let (dir, cache, solutions) = populated(&opts, "reorder");
    tamper_chain(&cache.entry_path(&opts), |links| links.swap(0, 1));
    rejected_then_repaired(&opts, &cache, &solutions, "solution certificate 0 rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn whole_certificate_entry_format_is_rejected_and_repaired() {
    let opts = several_solutions();
    let (dir, cache, solutions) = populated(&opts, "v1format");
    // The previous entry format stored every solution certificate whole:
    // element k held certificate k − 1's steps again. Even under this
    // engine's canonical string, certificate 1 then re-adds certificate
    // 0's clause ids.
    tamper_chain(&cache.entry_path(&opts), |links| {
        for k in 1..links.len() {
            let earlier = links[k - 1].clone();
            links[k].splice(0..0, earlier);
        }
    });
    rejected_then_repaired(&opts, &cache, &solutions, "solution certificate 1 rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_engine_version_is_rejected_and_resolved_fresh() {
    let opts = tiny_base();
    let (dir, cache, solutions) = populated(&opts, "stale");
    // Pretend the entry came from an older engine: the canonical string no
    // longer matches, so the answer is not about *this* engine's problem.
    tamper_entry(&cache.entry_path(&opts), "canonical", |c| {
        c.replace("ccmatic-engine-v2", "ccmatic-engine-v1")
    });
    rejected_then_repaired(&opts, &cache, &solutions, "canonical mismatch");
    let _ = std::fs::remove_dir_all(&dir);
}
