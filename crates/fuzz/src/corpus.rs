//! The failure corpus: deduplicated, bounded, and exportable — both as a
//! replayable JSON artifact and as CEGIS warm-start seeds.

use crate::genome::ScheduleGenome;
use ccac_model::Trace;
use ccmatic::json::Json;
use ccmatic::template::CcaSpec;
use ccmatic_num::Rat;

/// One confirmed failure.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The (shrunk) schedule that triggers the failure.
    pub genome: ScheduleGenome,
    /// The exact lifted trace, when the target has one (spec targets);
    /// sim-only targets store the genome alone.
    pub trace: Option<Trace>,
    /// Screening score at the time of admission.
    pub score: f64,
}

/// Bounded, deduplicated store of confirmed failures.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// Capacity; 0 means unbounded.
    cap: usize,
}

/// Default corpus bound: enough distinct failures to seed CEGIS without
/// drowning the generator in near-duplicate assertions.
pub const DEFAULT_CAP: usize = 64;

impl Corpus {
    /// An empty corpus with the default capacity.
    pub fn new() -> Self {
        Corpus { entries: Vec::new(), cap: DEFAULT_CAP }
    }

    /// The stored entry a newcomer would evict: the lowest-scoring one,
    /// when the corpus is at capacity.
    fn eviction_victim(&self) -> Option<(usize, f64)> {
        if self.cap == 0 || self.entries.len() < self.cap {
            return None;
        }
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.score))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Whether an entry scoring `score` could be admitted: always below
    /// capacity, and at capacity only if it beats the lowest stored score.
    /// [`Corpus::add`] applies exactly this rule, so a caller may skip
    /// building an entry (say, an exact lift) that this rejects.
    pub fn admits(&self, score: f64) -> bool {
        self.eviction_victim().is_none_or(|(_, worst)| score > worst)
    }

    /// Admit a failure unless an equivalent one is already stored —
    /// equivalence is exact-trace equality when a trace exists (two
    /// genomes realizing the same model behaviour are the same failure),
    /// genome equality otherwise — or [`Corpus::admits`] rejects its
    /// score. At capacity, the lowest-scoring entry is evicted. Returns
    /// `true` on admission.
    pub fn add(&mut self, entry: CorpusEntry) -> bool {
        let dup = self.entries.iter().any(|e| match (&e.trace, &entry.trace) {
            (Some(a), Some(b)) => a == b,
            _ => e.genome == entry.genome,
        });
        if dup || !self.admits(entry.score) {
            return false;
        }
        if let Some((worst, _)) = self.eviction_victim() {
            self.entries.remove(worst);
        }
        self.entries.push(entry);
        true
    }

    /// The stored failures, admission-ordered.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of stored failures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// CEGIS warm-start seeds: every exact-confirmed trace, paired with
    /// the candidate it refutes (all entries of a spec-target run refute
    /// the same fixed CCA; [`ccmatic::synth::synthesize_seeded`] learns
    /// each trace the network model admits).
    pub fn cegis_seeds(&self, refuted: &CcaSpec) -> Vec<(CcaSpec, Trace)> {
        self.entries
            .iter()
            .filter_map(|e| e.trace.as_ref().map(|t| (refuted.clone(), t.clone())))
            .collect()
    }

    /// Replayable JSON form.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|e| {
                    let mut fields =
                        vec![("genome", genome_json(&e.genome)), ("score", Json::Num(e.score))];
                    if let Some(t) = &e.trace {
                        fields.push(("trace", trace_json(t)));
                    }
                    Json::obj(fields)
                })
                .collect(),
        )
    }
}

/// A genome as JSON (enough to reconstruct it exactly).
pub fn genome_json(g: &ScheduleGenome) -> Json {
    Json::obj(vec![
        ("lambdas", Json::Arr(g.lambdas.iter().map(|&k| Json::UInt(k as u64)).collect())),
        ("omegas", Json::Arr(g.omegas.iter().map(|&k| Json::UInt(k as u64)).collect())),
        ("backlog_q", Json::UInt(g.backlog_q as u64)),
    ])
}

fn rat_json(r: &Rat) -> Json {
    Json::Str(format!("{r}"))
}

/// A trace as JSON, rationals rendered exactly (`n/d` strings).
pub fn trace_json(t: &Trace) -> Json {
    let col = |v: &[Rat]| Json::Arr(v.iter().map(rat_json).collect());
    Json::obj(vec![
        ("t_min", Json::Num(t.t_min as f64)),
        ("t_max", Json::Num(t.t_max as f64)),
        ("a", col(&t.a)),
        ("s", col(&t.s)),
        ("w", col(&t.w)),
        ("l", col(&t.l)),
        ("cwnd", col(&t.cwnd)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: u8, score: f64) -> CorpusEntry {
        let mut genome = ScheduleGenome::ideal(4);
        genome.lambdas[0] = tag;
        CorpusEntry { genome, trace: None, score }
    }

    #[test]
    fn dedup_and_capacity_eviction() {
        let mut c = Corpus { entries: Vec::new(), cap: 2 };
        assert!(c.add(entry(0, 1.0)));
        assert!(!c.add(entry(0, 5.0)), "duplicate genome rejected");
        assert!(c.add(entry(1, 2.0)));
        assert!(!c.add(entry(2, 0.5)), "at capacity, lower score bounces");
        assert!(c.add(entry(3, 3.0)), "at capacity, higher score evicts the worst");
        assert_eq!(c.len(), 2);
        assert!(c.entries().iter().all(|e| e.score >= 2.0));
    }

    #[test]
    fn add_rejects_whatever_admits_rejects() {
        let mut c = Corpus { entries: Vec::new(), cap: 3 };
        let mut rng = ccmatic_num::SmallRng::seed_from_u64(5);
        for tag in 0..200u8 {
            let score = rng.gen_range_usize(0, 8) as f64;
            let admits = c.admits(score);
            let before: Vec<u64> = c.entries().iter().map(|e| e.genome.fingerprint()).collect();
            let added = c.add(entry(tag, score));
            if !admits {
                assert!(!added, "add admitted a score admits rejected");
                let after: Vec<u64> = c.entries().iter().map(|e| e.genome.fingerprint()).collect();
                assert_eq!(before, after, "a rejected add changed the entries");
            } else {
                assert!(added, "a fresh genome the corpus admits must be added");
            }
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let mut c = Corpus::new();
        c.add(entry(7, 1.5));
        let text = c.to_json().render();
        let back = Json::parse(&text).expect("valid JSON");
        let first = &back.as_arr().unwrap()[0];
        let lambdas = first.get("genome").unwrap().get("lambdas").unwrap();
        assert_eq!(lambdas.as_arr().unwrap().len(), 4);
        assert_eq!(lambdas.as_arr().unwrap()[0].as_f64(), Some(7.0));
    }
}
