use crate::{
    check, steps_to_text, CheckError, MemorySink, ProofSink, ProofStep, Replayer, UnsatCertificate,
};
use ccmatic_num::{rat, BigInt, Rat, SmallRng};

// Literal helpers mirroring the dense encoding: var << 1 | sign.
fn p(v: u32) -> u32 {
    v << 1
}
fn n(v: u32) -> u32 {
    v << 1 | 1
}

/// The four binary clauses over {x, y} plus RUP of [x] and then the empty
/// clause — a pure-SAT refutation.
fn sat_refutation() -> UnsatCertificate {
    UnsatCertificate {
        steps: vec![
            ProofStep::Input { id: 1, lits: vec![p(0), p(1)] },
            ProofStep::Input { id: 2, lits: vec![p(0), n(1)] },
            ProofStep::Input { id: 3, lits: vec![n(0), p(1)] },
            ProofStep::Input { id: 4, lits: vec![n(0), n(1)] },
            ProofStep::Rup { id: 5, lits: vec![p(0)] },
            ProofStep::Rup { id: 6, lits: vec![] },
        ],
    }
}

#[test]
fn accepts_sat_refutation() {
    let stats = check(&sat_refutation()).expect("valid refutation");
    assert_eq!(stats.clauses, 6);
    assert_eq!(stats.rup_checked, 2);
}

#[test]
fn rejects_dropped_clause() {
    let mut cert = sat_refutation();
    cert.steps.remove(0); // drop input (x ∨ y): RUP of [x] no longer holds
    assert_eq!(check(&cert), Err(CheckError::RupFailed(5)));
}

#[test]
fn deletion_after_use_is_fine_but_reordered_deletion_is_rejected() {
    let mut cert = sat_refutation();
    cert.steps.push(ProofStep::Delete { id: 1 });
    check(&cert).expect("deleting after the empty clause is derived is fine");

    let mut cert = sat_refutation();
    // Moving the deletion of input 1 before the RUP step removes an
    // antecedent the derivation needs.
    cert.steps.insert(4, ProofStep::Delete { id: 1 });
    assert_eq!(check(&cert), Err(CheckError::RupFailed(5)));
}

#[test]
fn rejects_duplicate_and_unknown_ids() {
    let mut cert = sat_refutation();
    cert.steps.insert(1, ProofStep::Input { id: 1, lits: vec![p(7)] });
    assert_eq!(check(&cert), Err(CheckError::DuplicateId(1)));

    let mut cert = sat_refutation();
    cert.steps.push(ProofStep::Delete { id: 99 });
    assert_eq!(check(&cert), Err(CheckError::UnknownDelete(99)));

    let mut cert = sat_refutation();
    cert.steps.push(ProofStep::Delete { id: 1 });
    cert.steps.push(ProofStep::Delete { id: 1 });
    assert_eq!(check(&cert), Err(CheckError::UnknownDelete(1)));
}

/// x ≤ 1 (atom on var 0) asserted true, x ≤ 2 (atom on var 1) asserted
/// false (so x > 2): the theory lemma (¬v0 ∨ v1) has Farkas coefficients
/// 1·(1 − x) + 1·(x − 2 − δ) = −1 − δ < 0.
fn theory_refutation() -> UnsatCertificate {
    UnsatCertificate {
        steps: vec![
            ProofStep::Atom { var: 0, expr: vec![(0, rat(1, 1))], bound: rat(1, 1), strict: false },
            ProofStep::Atom { var: 1, expr: vec![(0, rat(1, 1))], bound: rat(2, 1), strict: false },
            ProofStep::Input { id: 1, lits: vec![p(0)] },
            ProofStep::Input { id: 2, lits: vec![n(1)] },
            ProofStep::Theory {
                id: 3,
                lits: vec![n(0), p(1)],
                farkas: vec![(n(0), rat(1, 1)), (p(1), rat(1, 1))],
            },
            ProofStep::Rup { id: 4, lits: vec![] },
        ],
    }
}

#[test]
fn accepts_theory_refutation() {
    let stats = check(&theory_refutation()).expect("valid Farkas certificate");
    assert_eq!(stats.theory_checked, 1);
}

#[test]
fn rejects_perturbed_farkas_coefficient() {
    let mut cert = theory_refutation();
    if let ProofStep::Theory { farkas, .. } = &mut cert.steps[4] {
        farkas[0].1 = rat(2, 1); // variable parts no longer cancel
    }
    assert!(matches!(check(&cert), Err(CheckError::FarkasVarsDontCancel { id: 3, .. })));
}

#[test]
fn rejects_nonpositive_farkas_coefficient() {
    let mut cert = theory_refutation();
    if let ProofStep::Theory { farkas, .. } = &mut cert.steps[4] {
        farkas[0].1 = rat(-1, 1);
    }
    assert_eq!(check(&cert), Err(CheckError::NonPositiveFarkas(3)));
}

#[test]
fn rejects_dropped_atom_definition() {
    let mut cert = theory_refutation();
    cert.steps.remove(1);
    assert_eq!(check(&cert), Err(CheckError::UnknownAtom { id: 3, var: 1 }));
}

#[test]
fn rejects_farkas_lit_outside_clause() {
    let mut cert = theory_refutation();
    if let ProofStep::Theory { lits, .. } = &mut cert.steps[4] {
        lits.remove(1);
    }
    assert_eq!(check(&cert), Err(CheckError::FarkasLitNotInClause { id: 3, lit: p(1) }));
}

#[test]
fn strict_bounds_carry_the_infinitesimal() {
    // x < 1 asserted true and x < 1 (second atom) asserted false (x ≥ 1):
    // the sum is −δ, negative only because of the infinitesimal.
    let strict_pair = |a_strict: bool| UnsatCertificate {
        steps: vec![
            ProofStep::Atom {
                var: 0,
                expr: vec![(0, rat(1, 1))],
                bound: rat(1, 1),
                strict: a_strict,
            },
            ProofStep::Atom { var: 1, expr: vec![(0, rat(1, 1))], bound: rat(1, 1), strict: true },
            ProofStep::Theory {
                id: 1,
                lits: vec![n(0), p(1)],
                farkas: vec![(n(0), rat(1, 1)), (p(1), rat(1, 1))],
            },
        ],
    };
    let mut good = strict_pair(true);
    good.steps.push(ProofStep::Input { id: 2, lits: vec![p(0)] });
    good.steps.push(ProofStep::Input { id: 3, lits: vec![n(1)] });
    good.steps.push(ProofStep::Rup { id: 4, lits: vec![] });
    check(&good).expect("x < 1 ∧ x ≥ 1 is infeasible");

    // x ≤ 1 ∧ x ≥ 1 is satisfiable (x = 1): sum is exactly zero.
    assert_eq!(check(&strict_pair(false)), Err(CheckError::FarkasNotNegative(1)));
}

#[test]
fn rejects_empty_farkas_and_missing_empty_clause() {
    let cert =
        UnsatCertificate { steps: vec![ProofStep::Theory { id: 1, lits: vec![], farkas: vec![] }] };
    assert_eq!(check(&cert), Err(CheckError::EmptyFarkas(1)));

    let cert = UnsatCertificate { steps: vec![ProofStep::Input { id: 1, lits: vec![p(0)] }] };
    assert_eq!(check(&cert), Err(CheckError::NoEmptyClause));
}

#[test]
fn replayer_applies_each_log_step_once_and_tests_every_prefix() {
    // A log that refutes, retracts its empty clause and refutes again.
    let first = sat_refutation();
    let mut second = first.clone();
    second.steps.push(ProofStep::Delete { id: 6 });
    second.steps.push(ProofStep::Rup { id: 7, lits: vec![] });

    let mut r = Replayer::new();
    r.append(first.steps.clone());
    assert_eq!(r.check_prefix(6), check(&first));
    assert_eq!(r.steps_replayed(), 6);
    r.append(second.steps[6..].to_vec());
    assert_eq!(r.log(), &second.steps[..]);
    // The end test runs at every length asked about: with the empty
    // clause deleted and no new one, the prefix refutes nothing.
    assert_eq!(r.check_prefix(7), Err(CheckError::NoEmptyClause));
    let stats = r.check_prefix(8);
    assert_eq!(stats, check(&second));
    assert_eq!(stats.unwrap().bytes, second.to_text().len() as u64);
    assert_eq!(r.steps_replayed(), 8, "each step is applied once");

    // A rejected step rejects its prefix and every longer one, without
    // being applied again.
    let mut bad = second.clone();
    bad.steps.remove(0);
    let mut r = Replayer::new();
    r.append(bad.steps.clone());
    let short = UnsatCertificate { steps: bad.steps[..5].to_vec() };
    assert_eq!(r.check_prefix(5), check(&short));
    assert_eq!(r.check_prefix(5), Err(CheckError::RupFailed(5)));
    assert_eq!(r.steps_replayed(), 4, "replay stops at the rejected step");
    assert_eq!(r.check_prefix(7), check(&bad));
    assert_eq!(r.steps_replayed(), 4);
}

#[test]
#[should_panic(expected = "below a checked prefix")]
fn replayer_refuses_a_prefix_shorter_than_one_it_checked() {
    let mut r = Replayer::new();
    r.append(sat_refutation().steps);
    r.check_prefix(6).unwrap();
    let _ = r.check_prefix(5);
}

#[test]
fn memory_sink_roundtrip_and_stats() {
    let mut sink = MemorySink::new();
    let a = sink.log_input(vec![p(0), p(1)]);
    let b = sink.log_input(vec![n(0)]);
    sink.log_atom(1, vec![(0, rat(1, 1))], Rat::zero(), false);
    assert_eq!(sink.position(), Some(3));
    let head = sink.take_steps();
    let c = sink.log_rup(vec![p(1)]);
    sink.log_delete(a);
    assert_eq!((a, b, c), (1, 2, 3));
    let stats = sink.stats();
    assert_eq!(stats.steps, 5);
    assert_eq!(stats.clauses, 3);
    assert_eq!(stats.deletions, 1);
    // The position counts every step logged; each step is handed over once.
    assert_eq!(sink.position(), Some(5));
    let cert = UnsatCertificate { steps: [head, sink.take_steps()].concat() };
    assert!(sink.take_steps().is_empty());
    assert_eq!(cert.steps.len(), 5);
    assert_eq!(stats.bytes, cert.to_text().len() as u64, "counted bytes equal the rendering");
    assert!(cert.to_text().lines().count() == 5);
}

#[test]
fn writer_sink_streams_the_same_text() {
    let mut mem = MemorySink::new();
    let mut buf = Vec::new();
    {
        let mut w = crate::WriterSink::new(&mut buf);
        for sink in [&mut mem as &mut dyn ProofSink, &mut w as &mut dyn ProofSink] {
            sink.log_input(vec![p(0), n(1)]);
            sink.log_theory(vec![n(0)], vec![(n(0), rat(3, 2))]);
            sink.log_delete(1);
        }
        assert_eq!(mem.stats().bytes, w.stats().bytes);
        assert_eq!(w.position(), None, "a streaming sink keeps no steps");
    }
    assert_eq!(String::from_utf8(buf).unwrap(), steps_to_text(&mem.take_steps()));
}

/// A rational with a random sign, a numerator and denominator of up to
/// `limbs` 64-bit limbs, and denominator 1 half the time.
fn random_rat(rng: &mut SmallRng, limbs: usize) -> Rat {
    let big = |rng: &mut SmallRng| {
        let mut v = BigInt::from(rng.gen_range_i64(1, i64::MAX));
        for _ in 1..rng.gen_range_usize(1, limbs + 1) {
            v = &(&v * &BigInt::from(i64::MAX)) + &BigInt::from(rng.gen_range_i64(0, i64::MAX));
        }
        v
    };
    let num = if rng.gen_bool(0.1) { BigInt::zero() } else { big(rng) };
    let num = if rng.gen_bool(0.5) { -num } else { num };
    let den = if rng.gen_bool(0.5) { BigInt::one() } else { big(rng) };
    Rat::new(num, den)
}

#[test]
fn byte_len_equals_the_rendered_length_on_random_steps() {
    let mut rng = SmallRng::seed_from_u64(0xB17E);
    let small = |rng: &mut SmallRng| match rng.gen_range_usize(0, 3) {
        0 => rng.gen_range_i64(0, 10) as u32,
        1 => rng.gen_range_i64(0, 100_000) as u32,
        _ => rng.gen_range_i64(0, i64::from(u32::MAX) + 1) as u32,
    };
    for _ in 0..2_000 {
        let limbs = rng.gen_range_usize(1, 4);
        let id = if rng.gen_bool(0.5) {
            rng.gen_range_i64(0, 1_000) as u64
        } else {
            rng.gen_range_i64(0, i64::MAX) as u64 * 2
        };
        let len = rng.gen_range_usize(0, 5);
        let lits: Vec<u32> = (0..len).map(|_| small(&mut rng)).collect();
        let terms: Vec<(u32, Rat)> =
            (0..len).map(|_| (small(&mut rng), random_rat(&mut rng, limbs))).collect();
        let step = match rng.gen_range_usize(0, 5) {
            0 => ProofStep::Atom {
                var: small(&mut rng),
                expr: terms,
                bound: random_rat(&mut rng, limbs),
                strict: rng.gen_bool(0.5),
            },
            1 => ProofStep::Input { id, lits },
            2 => ProofStep::Rup { id, lits },
            3 => ProofStep::Theory { id, lits, farkas: terms },
            _ => ProofStep::Delete { id },
        };
        let mut text = String::new();
        step.render(&mut text);
        assert_eq!(step.byte_len(), text.len() as u64, "{text}");
    }
}

#[test]
fn text_format_roundtrips_through_from_text() {
    let cert = UnsatCertificate {
        steps: vec![
            ProofStep::Atom {
                var: 3,
                expr: vec![(0, rat(1, 1)), (2, rat(-7, 2))],
                bound: rat(18, 5),
                strict: true,
            },
            ProofStep::Atom { var: 4, expr: vec![], bound: Rat::zero(), strict: false },
            ProofStep::Input { id: 1, lits: vec![p(3), n(4)] },
            ProofStep::Rup { id: 2, lits: vec![n(3)] },
            ProofStep::Theory { id: 3, lits: vec![p(4)], farkas: vec![(p(4), rat(3, 2))] },
            ProofStep::Theory { id: 4, lits: vec![], farkas: vec![] },
            ProofStep::Rup { id: 5, lits: vec![] },
            ProofStep::Delete { id: 1 },
        ],
    };
    let text = cert.to_text();
    let back = UnsatCertificate::from_text(&text).expect("rendered text must parse");
    assert_eq!(back.steps, cert.steps);
    assert_eq!(back.to_text(), text);
}

#[test]
fn real_refutations_roundtrip_and_still_check() {
    for cert in [sat_refutation(), theory_refutation()] {
        let back = UnsatCertificate::from_text(&cert.to_text()).unwrap();
        assert_eq!(back.steps, cert.steps);
        check(&back).expect("round-tripped certificate must still check");
    }
}

#[test]
fn from_text_rejects_malformed_lines() {
    for bad in [
        "x 1 2\n",         // unknown tag
        "a 1 2 0\n",       // strict flag out of range
        "a 1 0\n",         // missing bound
        "a 1 0 1/2 3:\n",  // empty coefficient in pair
        "a 1 0 1/2 3;4\n", // malformed pair separator
        "i\n",             // missing clause id
        "i one 2\n",       // non-numeric id
        "r 1 -2\n",        // negative literal token
        "t 1 2 3\n",       // theory step without `f` marker
        "t 1 f 2:x\n",     // non-rational farkas coefficient
        "d\n",             // missing delete id
        "i 1 2\nq 3\n",    // good line followed by bad line
    ] {
        assert!(UnsatCertificate::from_text(bad).is_err(), "must reject {bad:?}");
    }
    // Blank lines and a trailing newline are tolerated.
    let ok = UnsatCertificate::from_text("i 1 2\n\nr 2\n").unwrap();
    assert_eq!(ok.steps.len(), 2);
}
