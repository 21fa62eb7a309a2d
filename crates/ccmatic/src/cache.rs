//! The persistent, certificate-backed result cache (L2 of the warm-start
//! layer; DESIGN.md §12).
//!
//! Entries are keyed by the [`crate::fingerprint`] of the problem and store
//! a *complete* enumeration outcome: the full solution set, one
//! checker-accepted Pass certificate per solution, and the generator's
//! space-exhaustion certificate. A hit therefore never takes the answer on
//! faith: the canonical problem string must match exactly (hash collisions
//! degrade to misses), every certificate is re-parsed from text and
//! replayed through the independent `ccmatic-proof` checker — milliseconds
//! against the seconds a fresh solve costs — and any corruption (a mutated
//! certificate, a truncated file, a stale engine version) rejects the entry
//! and falls through to a fresh solve.
//!
//! One verifier produces an entry's Pass certificates from one proof log,
//! so each is a prefix of the next. [`PassCerts`] holds them as lengths
//! into that log, and the entry stores them as a chain: element `k` of
//! `solution_certs` holds only the steps past certificate `k − 1`, so each
//! logged step is rendered once. Validation parses each link once,
//! appends it to one [`Replayer`]'s log, and checks the certificate that
//! ends there, end-of-certificate test included; an empty link is
//! rejected. The exhaustion certificate comes from the generator's own log
//! and is stored and checked whole.
//!
//! Only complete enumerations are stored: a budget-truncated result is not
//! a fact about the problem, just about the budget.

use crate::fingerprint;
use crate::json::Json;
use crate::synth::SynthOptions;
use crate::template::CcaSpec;
use ccmatic_num::Rat;
use ccmatic_proof::{check, steps_to_text, ProofStep, Replayer, UnsatCertificate};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// A disk-backed cache directory.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

/// What a lookup found.
#[derive(Debug)]
pub enum Lookup {
    /// No entry for this problem.
    Miss,
    /// An entry existed but failed validation (corrupt JSON, canonical
    /// mismatch, unparseable or checker-rejected certificate…). The caller
    /// must solve fresh; the reason is surfaced for diagnostics.
    Rejected(String),
    /// A validated entry.
    Hit(CachedOutcome),
}

/// A validated cache hit.
#[derive(Clone, Debug)]
pub struct CachedOutcome {
    /// The complete solution set, in the order it was enumerated.
    pub solutions: Vec<CcaSpec>,
    /// Certificates replayed through the independent checker (one per
    /// solution plus the exhaustion certificate).
    pub certs_checked: u64,
    /// Proof steps the checker executed for them: each solution
    /// certificate costs only its link, the steps past the certificate
    /// before it.
    pub steps_replayed: u64,
    /// Wall-clock milliseconds spent inside the checker.
    pub cert_ms: f64,
}

/// Aggregated cache counters, maintained by callers across lookups.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Validated hits.
    pub hits: u64,
    /// Absent entries.
    pub misses: u64,
    /// Entries present but rejected by validation.
    pub rejected: u64,
    /// Entries written.
    pub stores: u64,
    /// Checker milliseconds across all hits.
    pub cert_ms: f64,
}

impl CacheStats {
    /// Fold one lookup into the counters.
    pub fn record(&mut self, l: &Lookup) {
        match l {
            Lookup::Miss => self.misses += 1,
            Lookup::Rejected(_) => self.rejected += 1,
            Lookup::Hit(h) => {
                self.hits += 1;
                self.cert_ms += h.cert_ms;
            }
        }
    }
}

/// The Pass certificates of one enumeration, one per solution in order,
/// as lengths into the proof log of the verifier that produced them
/// ([`crate::verifier::CcaVerifier::proof_log`]).
#[derive(Debug, Default)]
pub struct PassCerts {
    lens: Vec<usize>,
}

impl PassCerts {
    /// Adds the certificate of the next solution: the log's first `len`
    /// steps.
    ///
    /// # Panics
    /// Panics unless `len` exceeds the previous certificate's length: every
    /// link of the stored chain must add steps.
    pub fn push(&mut self, len: usize) {
        assert!(
            self.lens.last().is_none_or(|&prev| len > prev),
            "Pass certificates of one log must grow"
        );
        self.lens.push(len);
    }

    /// Number of certificates held.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether no certificate is held.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// The chain links over `log`, in solution order: link `k` is the steps
    /// of certificate `k` past certificate `k − 1`.
    pub fn links<'a>(&'a self, log: &'a [ProofStep]) -> impl Iterator<Item = &'a [ProofStep]> {
        let starts = std::iter::once(0).chain(self.lens.iter().copied());
        starts.zip(&self.lens).map(move |(start, &end)| &log[start..end])
    }
}

impl ResultCache {
    /// Open (creating if needed) a cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The entry path for `opts`' problem.
    pub fn entry_path(&self, opts: &SynthOptions) -> PathBuf {
        let (_, hash) = fingerprint::fingerprint(opts);
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Store a complete enumeration outcome. `solution_certs` must carry
    /// exactly one Pass certificate per solution, as lengths into the
    /// verifier's proof log `pass_log`, and `exhaustion` the steps of the
    /// generator's final UNSAT certificate; an entry without its full
    /// complement of proofs is worthless (lookups would reject it), so
    /// storing one is an error on the caller's side.
    pub fn store(
        &self,
        opts: &SynthOptions,
        solutions: &[CcaSpec],
        pass_log: &[ProofStep],
        solution_certs: &PassCerts,
        exhaustion: &[ProofStep],
    ) -> io::Result<()> {
        assert_eq!(
            solutions.len(),
            solution_certs.len(),
            "every cached solution needs its Pass certificate"
        );
        let (canonical, _) = fingerprint::fingerprint(opts);
        let sols = solutions
            .iter()
            .map(|s| Json::Arr(s.flat().iter().map(|c| Json::Str(c.to_string())).collect()))
            .collect();
        let certs =
            solution_certs.links(pass_log).map(|link| Json::Str(steps_to_text(link))).collect();
        let entry = Json::obj(vec![
            ("engine", Json::Str(fingerprint::ENGINE_VERSION.into())),
            ("canonical", Json::Str(canonical)),
            ("complete", Json::Bool(true)),
            ("solutions", Json::Arr(sols)),
            ("solution_certs", Json::Arr(certs)),
            ("exhaustion_cert", Json::Str(steps_to_text(exhaustion))),
        ]);
        std::fs::write(self.entry_path(opts), entry.render())
    }

    /// Look up `opts`' problem, validating certificates on a hit.
    pub fn lookup(&self, opts: &SynthOptions) -> Lookup {
        let path = self.entry_path(opts);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return Lookup::Rejected(format!("unreadable entry: {e}")),
        };
        match self.validate(opts, &text) {
            Ok(hit) => Lookup::Hit(hit),
            Err(why) => Lookup::Rejected(why),
        }
    }

    fn validate(&self, opts: &SynthOptions, text: &str) -> Result<CachedOutcome, String> {
        let entry = Json::parse(text).map_err(|e| format!("corrupt JSON: {e}"))?;
        let (canonical, _) = fingerprint::fingerprint(opts);
        let stored = entry
            .get("canonical")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing canonical string".to_string())?;
        // Exact-string compare: stale engine versions and hash collisions
        // both fail here.
        if stored != canonical {
            return Err(format!("canonical mismatch (stored `{stored}`)"));
        }
        if entry.get("complete").and_then(Json::as_bool) != Some(true) {
            return Err("entry is not a complete enumeration".into());
        }
        let sols = entry
            .get("solutions")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing solutions".to_string())?;
        let alphas = if opts.shape.use_cwnd { opts.shape.lookback } else { 0 };
        let flat_len = alphas + opts.shape.lookback + 1;
        let mut solutions = Vec::with_capacity(sols.len());
        for s in sols {
            let coeffs = s.as_arr().ok_or_else(|| "solution is not an array".to_string())?;
            if coeffs.len() != flat_len {
                return Err(format!("solution arity {} ≠ template {flat_len}", coeffs.len()));
            }
            let flat = coeffs
                .iter()
                .map(|c| c.as_str().and_then(Rat::from_decimal_str))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| "unparseable solution coefficient".to_string())?;
            let (alpha, rest) = flat.split_at(alphas);
            let (beta, gamma) = rest.split_at(opts.shape.lookback);
            solutions.push(CcaSpec {
                alpha: alpha.to_vec(),
                beta: beta.to_vec(),
                gamma: gamma[0].clone(),
            });
        }
        let certs = entry
            .get("solution_certs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing solution certificates".to_string())?;
        if certs.len() != solutions.len() {
            return Err(format!("{} certificates for {} solutions", certs.len(), solutions.len()));
        }
        let exhaustion = entry
            .get("exhaustion_cert")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing exhaustion certificate".to_string())?;

        // Replay every proof through the independent checker. The solution
        // certificates form a chain over one log: each link is appended to
        // one replayer's log, and the certificate ending there is checked.
        // The exhaustion certificate comes from the generator's log and is
        // checked on its own.
        let t0 = Instant::now();
        let mut replayer = Replayer::new();
        let mut checked = 0u64;
        for (i, c) in certs.iter().enumerate() {
            let text = c.as_str().ok_or_else(|| format!("certificate {i} is not a string"))?;
            let link = UnsatCertificate::from_text(text)
                .map_err(|e| format!("solution certificate {i} unparseable: {e}"))?;
            if link.steps.is_empty() {
                return Err(format!("solution certificate {i} is an empty link"));
            }
            replayer.append(link.steps);
            replayer
                .check_prefix(replayer.log().len())
                .map_err(|e| format!("solution certificate {i} rejected: {e}"))?;
            checked += 1;
        }
        let cert = UnsatCertificate::from_text(exhaustion)
            .map_err(|e| format!("exhaustion certificate unparseable: {e}"))?;
        let stats = check(&cert).map_err(|e| format!("exhaustion certificate rejected: {e}"))?;
        checked += 1;
        Ok(CachedOutcome {
            solutions,
            certs_checked: checked,
            steps_replayed: replayer.steps_replayed() + stats.steps as u64,
            cert_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_certs_render_each_log_step_in_one_link() {
        let log: Vec<ProofStep> = (1..=6).map(|id| ProofStep::Input { id, lits: vec![] }).collect();
        let mut held = PassCerts::default();
        for len in [2, 3, 6] {
            held.push(len);
        }
        let links: Vec<&[ProofStep]> = held.links(&log).collect();
        assert_eq!(links, [&log[..2], &log[2..3], &log[3..6]]);
        assert_eq!(held.len(), 3);
    }

    #[test]
    #[should_panic(expected = "must grow")]
    fn pass_certs_refuse_an_empty_link() {
        let mut held = PassCerts::default();
        held.push(4);
        held.push(4);
    }
}
