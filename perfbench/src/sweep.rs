//! The §4 E4 delay sweep over the ci-scale No-cwnd/Small space (3⁴
//! candidates, horizon 6): utilization ≥ 1/2 and delay ≤ 8, 4, 18/5 and 3
//! RTT, warm-started point to point, into a fresh certificate-backed
//! result cache.
//!
//! `sweep-delay-certified` times the pass that populates the cache, then
//! the pass that answers the same four points from it. A cache forces
//! certification, so most of the first pass is Pass verdicts and generator
//! exhaustion proofs with proof logging on; the second is independent
//! proof checking plus cache parsing, with no solver at all.
//!
//! The paper-scale space (3⁵) is larger than the generator's region-search
//! cap, which is sized from measured replay time, so its trajectory moved
//! between same-input runs; one 13 s pass per run was also too few samples
//! on a machine whose speed drifts. 3⁴ candidates never reach the cap.

use crate::checks::model_gaps;
use crate::measure::{repeat_for, secs, Counters};
use crate::span::{in_span, totals_by_name, Tracer};
use crate::{write_out, Args, Report};
use ccac_model::{NetConfig, Thresholds};
use ccmatic::cache::{Lookup, ResultCache};
use ccmatic::enumerate::{enumerate_all_with, WarmStart};
use ccmatic::fingerprint::fnv1a64;
use ccmatic::json::Json;
use ccmatic::sweep::{sweep_with_config, SweepConfig};
use ccmatic::synth::{build_loop, OptMode, SynthOptions, DEFAULT_DISPATCH_MIN};
use ccmatic::template::{CcaSpec, CoeffDomain, TemplateShape};
use ccmatic_cegis::{Budget, Stats};
use ccmatic_num::{int, rat, Rat};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The delay axis, loose to tight so warm starts carry forward.
fn delays() -> Vec<Rat> {
    vec![int(8), int(4), rat(18, 5), int(3)]
}

/// Solutions at each delay point of [`delays`].
const EXPECTED_SOLUTIONS: [usize; 4] = [7, 4, 3, 3];

fn base(seed: u64) -> SynthOptions {
    SynthOptions {
        shape: TemplateShape { lookback: 3, use_cwnd: false, domain: CoeffDomain::Small },
        net: NetConfig { horizon: 6, history: 4, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        mode: OptMode::RangePruningWce,
        budget: Budget { max_iterations: 1_000_000, max_wall: Duration::from_secs(100) },
        wce_precision: rat(1, 2),
        incremental: true,
        threads: 1,
        seed,
        dispatch_min: DEFAULT_DISPATCH_MIN,
        certify: false,
        region_pruning: true,
        theory_sync: true,
    }
}

/// `base` at delay point `i`.
fn point(base: &SynthOptions, i: usize) -> SynthOptions {
    let mut opts = base.clone();
    opts.thresholds.delay = delays()[i].clone();
    opts
}

/// A fresh cache directory under the output directory, removed on drop.
struct TempCache {
    dir: PathBuf,
    cache: ResultCache,
}

impl TempCache {
    fn new(args: &Args, tag: &str) -> Self {
        let dir =
            args.out_dir.join(format!("cache-{}-{}-{tag}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir).expect("cache directory under the output directory");
        TempCache { dir, cache }
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One point of a pass.
struct Row {
    solutions: Vec<CcaSpec>,
    complete: bool,
    stats: Stats,
    probes: u64,
}

/// What one pass did; its fingerprint is equal across runs of the same
/// inputs.
struct PassResult {
    rows: Vec<Row>,
    work: Counters,
}

impl PassResult {
    /// Each point's wall seconds, as `enumerate_all_with` measured it.
    fn point_walls(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.stats.wall.as_secs_f64()).collect()
    }

    fn fingerprint(&self) -> String {
        let points: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{}/{}/{}", r.solutions.len(), r.stats.iterations, r.probes))
            .collect();
        let sum = |f: fn(&Row) -> u64| self.rows.iter().map(f).sum::<u64>();
        let solutions: Vec<String> =
            self.rows.iter().flat_map(|r| r.solutions.iter().map(|s| s.to_string())).collect();
        format!(
            "solutions/iterations/probes per point {} · regions pruned {} · cex subsumed {} · \
             cache hits {} · pivots {} · solution sets {:016x}",
            points.join(" "),
            sum(|r| r.stats.regions_pruned),
            sum(|r| r.stats.cex_subsumed),
            sum(|r| r.stats.cache_hits),
            self.work.pivots,
            fnv1a64(&solutions.join(";")),
        )
    }
}

/// `sweep_with_config` over the delay axis, sequential and warm-started,
/// timed, with its counters bracketed.
fn timed_sweep(base: &SynthOptions, cache: &ResultCache) -> (f64, PassResult) {
    let cfg =
        SweepConfig { threads: 1, warm_start: true, cache: Some(cache.clone()), sweep_wall: None };
    let before = Counters::now();
    let t0 = Instant::now();
    let report = sweep_with_config(base, &delays(), |t, d| t.delay = d.clone(), &cfg);
    let wall = secs(t0);
    let work = Counters::now().since(&before);
    let rows = report
        .rows
        .into_iter()
        .map(|r| Row {
            solutions: r.result.solutions,
            complete: r.result.complete,
            stats: r.result.stats,
            probes: r.result.solver_probes,
        })
        .collect();
    (wall, PassResult { rows, work })
}

/// The populating pass as `sweep_with_config` runs it warm and without a
/// sweep budget, one `enumerate_all_with` per point, each in a span.
fn traced_populate(
    base: &SynthOptions,
    cache: &ResultCache,
    tracer: &RefCell<Tracer>,
) -> PassResult {
    let before = Counters::now();
    let mut carry: Option<WarmStart> = None;
    let mut rows = Vec::new();
    for i in 0..delays().len() {
        let opts = point(base, i);
        let warm = carry.take().filter(|w| !w.is_empty());
        tracer.borrow_mut().set_iter(Some(i as u64));
        let out = in_span(tracer, "enumerate.point", || {
            enumerate_all_with(&opts, warm.as_ref(), Some(cache))
        });
        carry = Some(out.carry);
        let r = out.result;
        rows.push(Row {
            solutions: r.solutions,
            complete: r.complete,
            stats: r.stats,
            probes: r.solver_probes,
        });
    }
    PassResult { rows, work: Counters::now().since(&before) }
}

/// Cache hits, the certificates they re-checked, and the checker's
/// milliseconds.
#[derive(Default)]
struct Audit {
    hits: u64,
    certs_checked: u64,
    check_ms: f64,
}

/// The cached pass as a cache hit runs it: one `ResultCache::lookup` per
/// point, each in a span.
fn traced_lookups(
    base: &SynthOptions,
    cache: &ResultCache,
    tracer: &RefCell<Tracer>,
) -> (PassResult, Audit) {
    let before = Counters::now();
    let mut audit = Audit::default();
    let rows = (0..delays().len())
        .map(|i| {
            let opts = point(base, i);
            tracer.borrow_mut().set_iter(Some(i as u64));
            let stats = Stats { cache_hits: 1, ..Stats::default() };
            match in_span(tracer, "cache.lookup", || cache.lookup(&opts)) {
                Lookup::Hit(hit) => {
                    audit.hits += 1;
                    audit.certs_checked += hit.certs_checked;
                    audit.check_ms += hit.cert_ms;
                    Row { solutions: hit.solutions, complete: true, stats, probes: 0 }
                }
                other => {
                    eprintln!("perfbench: point {i} missed the cache: {other:?}");
                    Row {
                        solutions: Vec::new(),
                        complete: false,
                        stats: Stats::default(),
                        probes: 0,
                    }
                }
            }
        })
        .collect();
    (PassResult { rows, work: Counters::now().since(&before) }, audit)
}

/// Check a populating pass point by point: complete, with the expected
/// solution count, and (once per process, `fuzz`) no model gap against
/// any certified solution.
fn check_populated(report: &mut Report, base: &SynthOptions, pass: &PassResult, fuzz: bool) {
    for (i, row) in pass.rows.iter().enumerate() {
        report.check(if !row.complete {
            Err(format!("point {i} did not finish"))
        } else if row.solutions.len() != EXPECTED_SOLUTIONS[i] {
            Err(format!(
                "point {i}: {} solutions, expected {}",
                row.solutions.len(),
                EXPECTED_SOLUTIONS[i]
            ))
        } else {
            Ok(())
        });
        if fuzz {
            let opts = point(base, i);
            for spec in &row.solutions {
                let gaps = model_gaps(spec, &opts.net, &opts.thresholds);
                report.check(match gaps {
                    0 => Ok(()),
                    n => Err(format!("point {i}: {n} model gaps against certified {spec}")),
                });
            }
        }
    }
}

/// Check a cached pass point by point against the pass that filled the
/// cache: a hit with zero solver probes and the identical solution set.
fn check_cached(report: &mut Report, populated: &PassResult, cached: &PassResult) {
    for (i, (p, c)) in populated.rows.iter().zip(&cached.rows).enumerate() {
        report.check(if c.stats.cache_hits != 1 || c.probes != 0 {
            Err(format!("point {i} not answered from the cache ({} probes)", c.probes))
        } else if c.solutions != p.solutions {
            Err(format!("point {i}: cached solutions differ from the solved ones"))
        } else {
            Ok(())
        });
    }
}

/// Entry file bytes and certificate bytes of the filled cache.
fn cache_bytes(base: &SynthOptions, cache: &ResultCache) -> (u64, u64) {
    let (mut entry_bytes, mut cert_bytes) = (0, 0);
    for i in 0..delays().len() {
        let Ok(text) = std::fs::read_to_string(cache.entry_path(&point(base, i))) else {
            continue;
        };
        entry_bytes += text.len() as u64;
        let Ok(doc) = Json::parse(&text) else { continue };
        let certs = doc.get("solution_certs").and_then(Json::as_arr).unwrap_or(&[]);
        let exhaustion = doc.get("exhaustion_cert").into_iter();
        cert_bytes += certs
            .iter()
            .chain(exhaustion)
            .filter_map(Json::as_str)
            .map(|s| s.len() as u64)
            .sum::<u64>();
    }
    (entry_bytes, cert_bytes)
}

/// Record the layer metrics a populating pass's statistics carry.
fn record_enumerate(report: &mut Report, pass: &PassResult, point_s: f64) {
    let sum = |f: &dyn Fn(&Row) -> f64| pass.rows.iter().map(f).sum::<f64>();
    let m = &mut report.metrics;
    m.set("enumerate.point_s", point_s);
    m.set("enumerate.generator_s", sum(&|r| r.stats.generator_time.as_secs_f64()));
    m.set("enumerate.verifier_s", sum(&|r| r.stats.verifier_time.as_secs_f64()));
    m.set("enumerate.warm_traces_seeded", sum(&|r| r.stats.warm_traces_seeded as f64));
    m.set("enumerate.warm_solutions_confirmed", sum(&|r| r.stats.warm_solutions_confirmed as f64));
    m.set("verifier.verify_s", sum(&|r| r.stats.verifier_time.as_secs_f64()));
    m.set("verifier.verify_calls", sum(&|r| r.stats.verifier_calls as f64));
    m.set("verifier.solver_probes", sum(&|r| r.probes as f64));
    m.set("cegis.iterations", sum(&|r| r.stats.iterations as f64));
    m.set("generator.regions_pruned", sum(&|r| r.stats.regions_pruned as f64));
    m.set("generator.cex_subsumed", sum(&|r| r.stats.cex_subsumed as f64));
}

/// Record the cache and proof-checking layer metrics of a traced cached
/// pass.
fn record_cache(report: &mut Report, tracer: &Tracer, audit: &Audit, bytes: (u64, u64)) {
    let (_, lookup_ns, _) =
        totals_by_name(tracer.spans()).get("cache.lookup").copied().unwrap_or_default();
    let m = &mut report.metrics;
    m.set("cache.lookup_s", lookup_ns as f64 / 1e9);
    m.set("cache.hits", audit.hits as f64);
    m.set("cache.entry_bytes", bytes.0 as f64);
    m.set("proof.certs_checked", audit.certs_checked as f64);
    m.set("proof.check_s", audit.check_ms / 1e3);
    m.set("proof.cert_bytes", bytes.1 as f64);
}

/// Run the sweep workload. A call is the populating pass into a fresh
/// cache, then the cached pass over the same points: eight timed parts,
/// one per point and pass.
pub fn run(args: &Args) -> Report {
    let base = base(args.seed);
    let mut report = Report::default();
    if !args.trace {
        let certified = SynthOptions { certify: true, ..point(&base, 0) };
        let setup = || build_loop(&certified);
        let reps = repeat_for(args.seconds, setup, || {
            let cache = TempCache::new(args, "populate");
            let (_, populated) = timed_sweep(&base, &cache.cache);
            let (_, cached) = timed_sweep(&base, &cache.cache);
            let parts = [populated.point_walls(), cached.point_walls()].concat();
            (parts, (populated, cached))
        });
        let first = reps.runs[0].1 .0.fingerprint();
        for (k, (_, (populated, cached))) in reps.runs.iter().enumerate() {
            check_populated(&mut report, &base, populated, k == 0);
            check_cached(&mut report, populated, cached);
            report.same_trajectory(&first, &populated.fingerprint());
        }
        report.attempted = 2 * delays().len() as u64 * reps.runs.len() as u64;
        report.record_untraced(&reps);
        return report;
    }

    let plain_cache = TempCache::new(args, "plain");
    let (plain_populate_wall, plain) = timed_sweep(&base, &plain_cache.cache);
    let (plain_cached_wall, plain_cached) = timed_sweep(&base, &plain_cache.cache);
    let cache = TempCache::new(args, "traced");
    let tracer = RefCell::new(Tracer::default());
    let before = Counters::now();
    let t0 = Instant::now();
    let (populated, (cached, audit)) = in_span(&tracer, "call", || {
        let populated = traced_populate(&base, &cache.cache, &tracer);
        (populated, traced_lookups(&base, &cache.cache, &tracer))
    });
    let wall = secs(t0);
    let work = Counters::now().since(&before);
    report.attempted = 4 * delays().len() as u64;
    check_populated(&mut report, &base, &populated, true);
    check_cached(&mut report, &plain, &plain_cached);
    check_cached(&mut report, &populated, &cached);
    report.same_trajectory(&plain.fingerprint(), &populated.fingerprint());
    let tracer = tracer.into_inner();
    let point_s = totals_by_name(tracer.spans()).get("enumerate.point").map_or(0, |t| t.1);
    record_enumerate(&mut report, &populated, point_s as f64 / 1e9);
    record_cache(&mut report, &tracer, &audit, cache_bytes(&base, &cache.cache));
    work.record(&mut report.metrics);
    report.metrics.set("trace.overhead_s", wall - (plain_populate_wall + plain_cached_wall));
    report.record_coverage(tracer.spans());
    write_out(args, "trace.jsonl", &crate::span::jsonl(tracer.spans()));
    report
}
