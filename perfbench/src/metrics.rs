//! Metric names and the one-line JSON result the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("call_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed by every traced run, as `(name, unit)`. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("verifier.verify_s", "s"),
    ("verifier.verify_calls", "count"),
    ("verifier.solver_probes", "count"),
    ("verifier.first_call_s", "s"),
    ("smt.pivots", "count"),
    ("smt.theory_props", "count"),
    ("smt.bounds_asserted", "count"),
    ("smt.bounds_reused", "count"),
    ("num.small_ops", "count"),
    ("num.promotions", "count"),
    ("num.big_ops", "count"),
    ("cegis.iterations", "count"),
    ("generator.propose_s", "s"),
    ("generator.propose_max_s", "s"),
    ("generator.learn_s", "s"),
    ("generator.regions_pruned", "count"),
    ("generator.cex_subsumed", "count"),
    ("replay.refutes_calls", "count"),
    ("replay.refutes_ns", "ns"),
    ("enumerate.point_s", "s"),
    ("enumerate.generator_s", "s"),
    ("enumerate.verifier_s", "s"),
    ("enumerate.warm_traces_seeded", "count"),
    ("enumerate.warm_solutions_confirmed", "count"),
    ("proof.certs_checked", "count"),
    ("proof.check_s", "s"),
    ("proof.cert_bytes", "bytes"),
    ("cache.lookup_s", "s"),
    ("cache.hits", "count"),
    ("cache.entry_bytes", "bytes"),
    ("fuzz.run_s.const_cwnd_6", "s"),
    ("fuzz.run_s.const_cwnd_0", "s"),
    ("fuzz.run_s.rocc", "s"),
    ("fuzz.run_s.eq_iii", "s"),
    ("fuzz.genomes_evaluated", "count"),
    ("fuzz.genomes_per_s", "1/s"),
    ("fuzz.failures_found", "count"),
    ("fuzz.lift_infeasible", "count"),
    ("fitness.evaluate_ns", "ns"),
    ("lift.lift_checked_ns", "ns"),
    ("ccac.check_trace_ns", "ns"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "share"),
];

/// Whether `name` is a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    (1..=64).contains(&b.len())
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded that `schema` does not list (a misspelt metric).
    pub fn unknown<'a>(&'a self, schema: &[(&str, &str)]) -> Vec<&'a str> {
        self.values
            .keys()
            .filter(|k| !schema.iter().any(|(n, _)| n == k))
            .map(String::as_str)
            .collect()
    }

    /// The result object on one line. Every metric of `schema` appears;
    /// one never recorded reads 0.
    pub fn result_line(
        &self,
        schema: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_grammar() {
        for ok in ["setup_s", "fuzz.run_s.const_cwnd_6", "0x", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let too_long = "a".repeat(65);
        for bad in ["", ".lead", "_lead", "has space", "slash/name", "uni\u{e9}", too_long.as_str()]
        {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "schema name {name} is invalid");
        }
    }

    #[test]
    fn schema_names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} listed twice");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn setting_an_invalid_name_panics() {
        Metrics::default().set("bad name", 1.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_schema_metric() {
        let mut m = Metrics::default();
        m.set("call_s", 1.25);
        m.set("stray", 2.0);
        let line = m.result_line(END_TO_END, true, 3, 0);
        assert!(!line.contains('\n'));
        let v = ccmatic::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        let metrics = v.get("metrics").expect("metrics object");
        let call = metrics.get("call_s").expect("call_s present");
        assert_eq!(call.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(call.get("unit").and_then(|x| x.as_str()), Some("s"));
        assert_eq!(metrics.get("setup_s").and_then(|s| s.get("value")?.as_f64()), Some(0.0));
        assert!(metrics.get("stray").is_none());
        assert_eq!(m.unknown(END_TO_END), vec!["stray"]);
    }

    #[test]
    fn schema_matches_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let v = ccmatic::json::Json::parse(doc).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|x| x.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |schema: &[(&str, &str)]| -> Vec<(String, String)> {
            schema.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
