//! `ccmatic_proof::Replayer` against the from-scratch `check`, on the
//! certificates a certifying worst-case-counterexample verifier produces
//! over the known-CCA set.
//!
//! The certificates are rebuilt here by running the verifier's incremental
//! encoding step by step (base network model, then one scoped WCE search per
//! candidate), so each one can be inspected and mutated; a real
//! `CcaVerifier` over the same set must report the same count, bytes and
//! replayed steps. Pinned:
//! * the replayer returns the same verdict and `CertStats` as `check` on
//!   every certificate, and replays only the steps past the accepted prefix;
//! * every mutation class of the certificate tests (dropped clause,
//!   perturbed Farkas coefficient, reordered deletion, stripped atoms,
//!   truncation) is rejected both inside the prefix the replayer already
//!   accepted and in the new suffix, and the next valid certificate is then
//!   accepted with `check`'s counters;
//! * a certificate from an unrelated log is replayed from scratch.

use ccac_model::{
    alloc_net_vars, desired_property, network_constraints, sender_constraints, NetConfig,
    Thresholds,
};
use ccmatic::known;
use ccmatic::template::CcaSpec;
use ccmatic::verifier::{CcaVerifier, VerifyConfig};
use ccmatic_num::{int, rat, Rat};
use ccmatic_proof::{check, ProofStep, Replayer, UnsatCertificate};
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

/// The certificates of a certifying incremental WCE verifier over `specs`,
/// in the order it checks them.
fn verifier_certificates(specs: &[CcaSpec]) -> Vec<UnsatCertificate> {
    let cfg = verify_config();
    let mut ctx = Context::new();
    let nv = alloc_net_vars(&mut ctx, &cfg.net);
    let net = network_constraints(&mut ctx, &nv);
    let snd = sender_constraints(&mut ctx, &nv);
    let bad = desired_property(&mut ctx, &nv, &cfg.thresholds).desired;
    let bad = ctx.not(bad);
    let mut solver = Solver::new();
    solver.enable_proofs();
    for t in [net, snd, bad] {
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
        certify: true,
        ..MaximizeParams::default()
    };
    let mut certs = Vec::new();
    for spec in specs {
        solver.push();
        let tmpl = CcaVerifier::template_constraints(&mut ctx, &nv, spec);
        solver.assert(&ctx, tmpl);
        match maximize_scoped(&mut ctx, &mut solver, &LinExpr::var(m), &params) {
            MaximizeOutcome::Infeasible { certificate } => {
                certs.push(*certificate.expect("certified infeasibility carries a proof"));
            }
            MaximizeOutcome::Feasible { certificates, .. } => certs.extend(certificates),
            MaximizeOutcome::Aborted => unreachable!("no interrupt armed"),
        }
        solver.pop();
    }
    certs
}

#[test]
fn replayer_matches_check_and_replays_only_new_steps() {
    let certs = verifier_certificates(&known_set());
    assert!(certs.len() > 10, "the known set yields a long certificate sequence");

    let mut replayer = Replayer::new();
    let mut prev_len = 0;
    let (mut bytes, mut total_steps) = (0, 0);
    for (i, cert) in certs.iter().enumerate() {
        // The premise: one log, so each certificate extends the one before.
        assert!(cert.steps.len() > prev_len, "certificate {i} does not grow the log");
        let before = replayer.steps_replayed();
        let resumed = replayer.check(cert);
        assert_eq!(resumed, check(cert), "certificate {i}: verdict or counters differ");
        let stats = resumed.expect("solver-produced certificates are accepted");
        assert_eq!(stats.bytes, cert.to_text().len() as u64);
        assert_eq!(
            replayer.steps_replayed() - before,
            (cert.steps.len() - prev_len) as u64,
            "certificate {i} must replay only its new steps"
        );
        prev_len = cert.steps.len();
        bytes += stats.bytes;
        total_steps += cert.steps.len() as u64;
    }
    assert_eq!(replayer.steps_replayed(), prev_len as u64, "the log is replayed exactly once");

    // The sequence is the real verifier's: same count, bytes and work.
    let mut v = CcaVerifier::new(verify_config());
    for spec in &known_set() {
        let _ = v.verify(spec);
    }
    assert_eq!(v.cert_audit.checked, certs.len() as u64);
    assert_eq!(v.cert_audit.bytes, bytes);
    assert_eq!(v.cert_audit.steps_replayed, prev_len as u64);
    assert!(v.cert_audit.steps_replayed < total_steps);
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
    let certs = verifier_certificates(&known_set());
    // Resume from the middle of the sequence to its end: both the accepted
    // prefix and the new suffix then span several scoped probes, with atoms,
    // lemmas, learned clauses and deletions of their own.
    let (accepted, next) = (&certs[certs.len() / 2], certs.last().expect("certificates"));
    let n = accepted.steps.len();
    let expected = check(next);
    assert!(expected.is_ok());

    for (name, mutate) in MUTATIONS {
        for (where_, region) in [("prefix", 0..n), ("suffix", n..next.steps.len())] {
            let bad = mutate(next, region)
                .unwrap_or_else(|| panic!("{name} has no target in the {where_}"));
            let verdict = check(&bad);
            assert!(verdict.is_err(), "{name} in the {where_} must be rejected by check");

            let mut replayer = Replayer::new();
            replayer.check(accepted).expect("the accepted certificate checks");
            let before = replayer.steps_replayed();
            assert_eq!(replayer.check(&bad), verdict, "{name} in the {where_}: verdicts differ");
            let executed = replayer.steps_replayed() - before;
            if where_ == "suffix" {
                assert!(
                    executed <= (bad.steps.len() - n) as u64,
                    "{name} in the suffix: the replayer must resume, not restart"
                );
            }
            // The rejection left nothing behind: the next valid certificate
            // is replayed from scratch and agrees with `check`.
            let before = replayer.steps_replayed();
            assert_eq!(replayer.check(next), expected, "{name} in the {where_}: recovery");
            assert_eq!(replayer.steps_replayed() - before, next.steps.len() as u64);
        }
    }
}

#[test]
fn certificate_from_an_unrelated_log_is_replayed_from_scratch() {
    let certs = verifier_certificates(&known_set());
    // Another log: the same encoding over a different candidate order.
    let other = verifier_certificates(&[known::copy_cwnd(), known::rocc()]);
    let foreign = other.last().expect("certificates");

    let mut replayer = Replayer::new();
    for cert in &certs[..3] {
        replayer.check(cert).expect("accepted");
    }
    let before = replayer.steps_replayed();
    let verdict = replayer.check(foreign);
    assert_eq!(verdict, check(foreign));
    assert!(verdict.is_ok());
    assert_eq!(
        replayer.steps_replayed() - before,
        foreign.steps.len() as u64,
        "a foreign certificate shares no prefix and is replayed in full"
    );

    // Back on the first log, the replayer starts over again.
    let before = replayer.steps_replayed();
    assert_eq!(replayer.check(&certs[3]), check(&certs[3]));
    assert_eq!(replayer.steps_replayed() - before, certs[3].steps.len() as u64);
}
