//! The chained certificate check against the from-scratch `check`, on the
//! certificates a certifying worst-case-counterexample verifier produces
//! over the known-CCA set.
//!
//! The verifier's proof log and certificate lengths are rebuilt here by
//! running its incremental encoding step by step (base network model, then
//! one scoped WCE search per candidate), so each certificate can be
//! inspected and mutated; a real `CcaVerifier` over the same set must hold
//! the same log and report the same count, bytes and replayed steps.
//! Pinned:
//! * one `Replayer` holding the log returns, at every certificate length,
//!   the verdict and `CertStats` that `check` returns on that prefix, and
//!   applies only the steps past the previous certificate;
//! * every mutation class of the certificate tests (dropped clause,
//!   perturbed Farkas coefficient, reordered deletion, stripped atoms,
//!   truncation) is rejected by the chain both inside an earlier link and in
//!   the last one, with `check`'s verdict at each length.

use ccac_model::{alloc_net_vars, base_query, NetConfig, Thresholds};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{int, rat, Rat};
use ccmatic_proof::{check, CertStats, CheckError, ProofStep, Replayer, UnsatCertificate};
use ccmatic_smt::{maximize_scoped, Context, LinExpr, MaximizeOutcome, MaximizeParams, Solver};
use std::ops::Range;

fn net() -> NetConfig {
    NetConfig { horizon: 6, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
}

fn known_set() -> Vec<CcaSpec> {
    vec![
        known::rocc(),
        known::eq_iii(),
        known::const_cwnd(Rat::zero()),
        known::const_cwnd(int(20)),
        known::copy_cwnd(),
    ]
}

/// `CertAudit` (checked, bytes, steps replayed) of a `CcaVerifier` over
/// [`known_set`].
const PINNED_AUDIT: (u64, u64, u64) = (19, 694_598, 1_504);

fn verify_config() -> VerifyConfig {
    VerifyConfig {
        net: net(),
        thresholds: Thresholds::default(),
        worst_case: true,
        wce_precision: rat(1, 2),
        certify: true,
        ..Default::default()
    }
}

/// The proof log of a certifying incremental WCE verifier over `specs`
/// and its certificates, as increasing lengths into that log, in the order
/// it checks them.
fn verifier_log(specs: &[CcaSpec]) -> (Vec<ProofStep>, Vec<usize>) {
    let cfg = verify_config();
    let mut ctx = Context::new();
    let nv = alloc_net_vars(&mut ctx, &cfg.net);
    let base = base_query(&mut ctx, &nv, &cfg.thresholds);
    let mut solver = Solver::new();
    solver.enable_proofs();
    for t in base {
        solver.assert(&ctx, t);
    }
    let m = ctx.real_var("band");
    for t in 0..=cfg.net.t_max() {
        let le = ctx.le(LinExpr::var(m), nv.tokens(t) - LinExpr::var(nv.s(t)));
        solver.assert(&ctx, le);
    }
    let params = MaximizeParams {
        lo: Rat::zero(),
        hi: Rat::from(cfg.net.t_max() + cfg.net.history as i64),
        precision: cfg.wce_precision.clone(),
        ..MaximizeParams::default()
    };
    let (mut log, mut lens) = (Vec::new(), Vec::new());
    for spec in specs {
        solver.push();
        let tmpl = CcaVerifier::template_constraints(&mut ctx, &nv, spec);
        solver.assert(&ctx, tmpl);
        match maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(m), &params) {
            MaximizeOutcome::Infeasible { certificate } => {
                lens.push(certificate.expect("certified infeasibility carries a proof"));
            }
            MaximizeOutcome::Feasible { certificates, .. } => lens.extend(certificates),
            MaximizeOutcome::Aborted => unreachable!("no interrupt armed"),
        }
        solver.pop();
        log.extend(solver.take_proof_steps());
    }
    (log, lens)
}

/// The certificate made of the first `len` steps of `log`.
fn prefix(log: &[ProofStep], len: usize) -> UnsatCertificate {
    UnsatCertificate { steps: log[..len].to_vec() }
}

/// Checks the certificates ending at `lens` along one replayer holding
/// `log`, asserting each verdict and `CertStats` equal a from-scratch
/// `check` of the same prefix and that each call applies only the steps
/// past the one before. Returns the verdicts.
fn chain_equals_scratch(log: &[ProofStep], lens: &[usize]) -> Vec<Result<CertStats, CheckError>> {
    let mut replayer = Replayer::new();
    replayer.append(log.to_vec());
    let mut prev = 0;
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let before = replayer.steps_replayed();
            let chained = replayer.check_prefix(len);
            assert_eq!(
                chained,
                check(&prefix(log, len)),
                "certificate {i}: verdict or counters differ"
            );
            assert!(replayer.steps_replayed() - before <= (len - prev) as u64);
            prev = len;
            chained
        })
        .collect()
}

#[test]
fn replayer_matches_check_and_replays_only_new_steps() {
    let (log, lens) = verifier_log(&known_set());
    assert!(lens.len() > 10, "the known set yields a long certificate sequence");
    assert!(lens.windows(2).all(|w| w[0] < w[1]), "each certificate extends the one before");

    let verdicts = chain_equals_scratch(&log, &lens);
    let mut bytes = 0;
    for (i, (verdict, &len)) in verdicts.iter().zip(&lens).enumerate() {
        let stats = verdict.as_ref().unwrap_or_else(|e| panic!("certificate {i} rejected: {e}"));
        assert_eq!(stats.bytes, prefix(&log, len).to_text().len() as u64);
        bytes += stats.bytes;
    }
    let total_steps: usize = lens.iter().sum();

    // The sequence is the real verifier's: same count, bytes and work, and
    // the log it holds is the one rebuilt here.
    let mut v = CcaVerifier::new(verify_config());
    for spec in &known_set() {
        let _ = v.verify(spec);
    }
    assert!(log.starts_with(v.proof_log()) && v.proof_log().len() >= *lens.last().unwrap());
    assert_eq!(v.cert_audit.checked, lens.len() as u64);
    assert_eq!(v.cert_audit.bytes, bytes);
    assert_eq!(v.cert_audit.steps_replayed, *lens.last().unwrap() as u64);
    assert!(v.cert_audit.steps_replayed < total_steps as u64);
    // Pinned: only a change to what the solver logs may move these.
    assert_eq!(
        (v.cert_audit.checked, v.cert_audit.bytes, v.cert_audit.steps_replayed),
        PINNED_AUDIT
    );
}

/// A clause-adding step's id.
fn added_id(step: &ProofStep) -> Option<u64> {
    match step {
        ProofStep::Input { id, .. } | ProofStep::Rup { id, .. } | ProofStep::Theory { id, .. } => {
            Some(*id)
        }
        _ => None,
    }
}

/// Drops the last clause added in `region` that the rest of the
/// certificate depends on: a later derivation or deletion then fails.
fn drop_clause(cert: &UnsatCertificate, region: Range<usize>) -> Option<UnsatCertificate> {
    region.rev().filter(|&i| added_id(&cert.steps[i]).is_some()).find_map(|i| {
        let mut bad = cert.clone();
        bad.steps.remove(i);
        check(&bad).is_err().then_some(bad)
    })
}

/// Adds 7 to the first Farkas coefficient of the first theory lemma in
/// `region`.
fn perturb_farkas(cert: &UnsatCertificate, region: Range<usize>) -> Option<UnsatCertificate> {
    let i = region.into_iter().find(|&i| matches!(cert.steps[i], ProofStep::Theory { .. }))?;
    let mut bad = cert.clone();
    let ProofStep::Theory { farkas, .. } = &mut bad.steps[i] else { unreachable!() };
    farkas[0].1 = &farkas[0].1 + &int(7);
    Some(bad)
}

/// Moves a deletion in `region` to just before the step that added its
/// clause, also in `region`.
fn reorder_delete(cert: &UnsatCertificate, region: Range<usize>) -> Option<UnsatCertificate> {
    let (add, del) = region.clone().find_map(|j| {
        let ProofStep::Delete { id } = cert.steps[j] else { return None };
        let add = region.clone().find(|&k| added_id(&cert.steps[k]) == Some(id))?;
        (add < j).then_some((add, j))
    })?;
    let mut bad = cert.clone();
    let d = bad.steps.remove(del);
    bad.steps.insert(add, d);
    Some(bad)
}

/// Removes every atom definition in `region`.
fn strip_atoms(cert: &UnsatCertificate, region: Range<usize>) -> Option<UnsatCertificate> {
    let mut bad = cert.clone();
    let mut i = 0;
    bad.steps.retain(|s| {
        i += 1;
        !(region.contains(&(i - 1)) && matches!(s, ProofStep::Atom { .. }))
    });
    (bad.steps.len() < cert.steps.len()).then_some(bad)
}

/// Cuts the certificate just before the last step of `region`.
fn truncate(cert: &UnsatCertificate, region: Range<usize>) -> Option<UnsatCertificate> {
    let cut = region.end.checked_sub(1).filter(|&c| c >= region.start)?;
    Some(UnsatCertificate { steps: cert.steps[..cut].to_vec() })
}

type Mutation = fn(&UnsatCertificate, Range<usize>) -> Option<UnsatCertificate>;

const MUTATIONS: [(&str, Mutation); 5] = [
    ("dropped clause", drop_clause),
    ("perturbed Farkas", perturb_farkas),
    ("reordered delete", reorder_delete),
    ("stripped atoms", strip_atoms),
    ("truncation", truncate),
];

#[test]
fn mutations_are_rejected_inside_the_accepted_prefix_and_in_the_suffix() {
    let (log, lens) = verifier_log(&known_set());
    // An earlier link ends in the middle of the sequence, the last at its
    // end: both the accepted prefix and the new suffix then span several
    // scoped probes, with atoms, lemmas, learned clauses and deletions of
    // their own.
    let (n, last) = (lens[lens.len() / 2], *lens.last().expect("certificates"));
    let next = prefix(&log, last);
    assert!(check(&next).is_ok());

    for (name, mutate) in MUTATIONS {
        for (where_, region) in [("prefix", 0..n), ("suffix", n..last)] {
            let bad = mutate(&next, region)
                .unwrap_or_else(|| panic!("{name} has no target in the {where_}"));
            let verdict = check(&bad);
            assert!(verdict.is_err(), "{name} in the {where_} must be rejected by check");
            // The earlier link's end, moved by the steps a mutation inside
            // it removed.
            let removed = next.steps.len() - bad.steps.len();
            let n_bad = if where_ == "prefix" { n.saturating_sub(removed) } else { n };
            let n_bad = n_bad.clamp(1, bad.steps.len());
            let verdicts = chain_equals_scratch(&bad.steps, &[n_bad, bad.steps.len()]);
            assert_eq!(verdicts[1], verdict, "{name} in the {where_}: the chain must reject");
        }
    }
}
