//! Canonical problem fingerprints for the persistent result cache.
//!
//! Two synthesis problems are *the same problem* exactly when they agree on
//! everything that affects the answer: the template search space, the
//! network model, the objective thresholds, the optimization mode's
//! semantics, and the engine version (an encoding change invalidates old
//! entries wholesale). Everything that only affects *how fast* the answer
//! is found — budgets and certification — is deliberately excluded, so a
//! budget-limited CI run and a long server run share cache entries.
//!
//! The canonical form is a human-readable string (exact rationals render
//! via their canonical `n`/`n/d` display); the filename key is its FNV-1a
//! hash. Lookups never trust the hash alone: the entry stores the full
//! canonical string and a hit requires an exact match, so hash collisions
//! degrade to misses, never to wrong answers.

use crate::synth::SynthOptions;
use std::fmt::Write as _;

/// Bump on any change to problem semantics, encodings, or the certificate
/// format: old cache entries then miss (and are rejected even if copied
/// across versions, since the canonical string embeds this).
pub const ENGINE_VERSION: &str = "ccmatic-engine-v2";

/// The canonical string for `opts`' *problem* (not its solver knobs).
pub fn canonical(opts: &SynthOptions) -> String {
    let mut s = String::new();
    let _ = write!(s, "engine={ENGINE_VERSION};");
    let _ = write!(
        s,
        "shape=lookback:{},cwnd:{},domain:[",
        opts.shape.lookback,
        u8::from(opts.shape.use_cwnd)
    );
    for (i, v) in opts.shape.domain.values().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    let n = &opts.net;
    let _ = write!(
        s,
        "];net=horizon:{},history:{},rate:{},jitter:{},buffer:",
        n.horizon, n.history, n.link_rate, n.jitter
    );
    match &n.buffer {
        Some(b) => {
            let _ = write!(s, "{b}");
        }
        None => s.push_str("none"),
    }
    let _ = write!(
        s,
        ";thresholds=util:{},delay:{};mode={};wce_precision={}",
        opts.thresholds.util,
        opts.thresholds.delay,
        opts.mode.label(),
        opts.wce_precision
    );
    s
}

/// 64-bit FNV-1a — tiny, dependency-free, stable across platforms. Used
/// only as a filename key; correctness never rests on it (see module docs).
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(canonical string, filename hash)` for `opts`.
pub fn fingerprint(opts: &SynthOptions) -> (String, u64) {
    let c = canonical(opts);
    let h = fnv1a64(&c);
    (c, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::rat;

    #[test]
    fn perf_knobs_do_not_change_the_fingerprint() {
        let base = SynthOptions::default();
        let tweaked = SynthOptions {
            certify: true,
            budget: ccmatic_cegis::Budget {
                max_iterations: 3,
                max_wall: std::time::Duration::from_millis(1),
            },
            ..base.clone()
        };
        assert_eq!(canonical(&base), canonical(&tweaked));
    }

    #[test]
    fn semantic_fields_each_change_the_fingerprint() {
        let base = SynthOptions::default();
        let variants = [
            SynthOptions {
                shape: crate::template::TemplateShape {
                    lookback: base.shape.lookback + 1,
                    ..base.shape.clone()
                },
                ..base.clone()
            },
            SynthOptions {
                net: ccac_model::NetConfig { horizon: base.net.horizon + 1, ..base.net.clone() },
                ..base.clone()
            },
            SynthOptions {
                thresholds: ccac_model::Thresholds {
                    delay: &base.thresholds.delay + &rat(1, 2),
                    ..base.thresholds.clone()
                },
                ..base.clone()
            },
            SynthOptions { mode: crate::synth::OptMode::Baseline, ..base.clone() },
            SynthOptions { wce_precision: rat(1, 8), ..base.clone() },
        ];
        let c0 = canonical(&base);
        for v in &variants {
            assert_ne!(canonical(v), c0, "variant must fingerprint differently");
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the hash so cache filenames stay stable across builds.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
