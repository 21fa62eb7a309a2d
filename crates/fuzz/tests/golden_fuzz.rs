//! Fixed-seed golden records for `run_fuzz` on the two broken constant
//! windows. Changes that claim to alter only the cost of a fuzzing run
//! (which flagged genomes reach the exact tier, how the screen stores its
//! histories) must leave every number here identical.
//!
//! Both targets have β = 0, so the screen's ACK taps never touch them.
//! Both runs are long enough for their corpora to reach [`DEFAULT_CAP`];
//! after that, only an entry scoring above the lowest stored score can
//! still be admitted, and the engine skips the exact lift of any flagged
//! genome that cannot be.
//!
//! Pinned per target: `failures_found`, `model_gaps`, the corpus genome
//! fingerprints in admission order, and the bit patterns of the
//! per-generation best fitness.

use ccac_model::{NetConfig, Thresholds};
use ccmatic::fingerprint::fnv1a64;
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic_fuzz::corpus::DEFAULT_CAP;
use ccmatic_fuzz::{run_fuzz, FuzzConfig, FuzzReport, FuzzTarget};
use ccmatic_num::{int, Rat};

/// Fuzz seed 7, population 64, on the ci network (horizon 6) with history
/// one deeper than the targets' four β taps.
fn config(spec: CcaSpec) -> FuzzConfig {
    FuzzConfig {
        seed: 7,
        generations: 100,
        population: 64,
        net: NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None },
        thresholds: Thresholds::default(),
        initial_cwnd: Rat::one(),
        target: FuzzTarget::Spec(spec),
        skip_verify: false,
    }
}

fn record(r: &FuzzReport) -> String {
    let corpus: Vec<u64> = r.corpus.entries().iter().map(|e| e.genome.fingerprint()).collect();
    let fitness: Vec<u64> = r.best_fitness.iter().map(|f| f.to_bits()).collect();
    format!(
        "failures {} · model gaps {} · corpus {} {:016x} · best fitness {:016x}",
        r.counters.failures_found,
        r.counters.model_gaps,
        corpus.len(),
        fnv1a64(&format!("{corpus:?}")),
        fnv1a64(&format!("{fitness:?}")),
    )
}

#[test]
fn broken_const_windows_match_goldens() {
    let six = run_fuzz(&config(known::const_cwnd(int(6))));
    assert_eq!(six.corpus.len(), DEFAULT_CAP, "the corpus must fill so admission is gated");
    assert!(six.counters.confirm_skipped > 0, "the admission gate must skip lifts");
    assert_eq!(
        record(&six),
        "failures 64 · model gaps 0 · corpus 64 1a5d4909673d094e · best fitness 3f2cac30869e7899"
    );

    let zero = run_fuzz(&config(known::const_cwnd(Rat::zero())));
    assert_eq!(zero.corpus.len(), DEFAULT_CAP);
    assert!(zero.counters.confirm_skipped > 0);
    assert_eq!(
        record(&zero),
        "failures 64 · model gaps 0 · corpus 64 f7188a32eb04ce8a · best fitness 3f2cac30869e7899"
    );
}
