use crate::{check, steps_to_text, CheckError, MemorySink, ProofStep, Replayer, UnsatCertificate};
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

/// The checker keeps the closure of the live clauses between steps: a
/// deletion that removes a live unit or the reason of a closure literal
/// (as a scope pop does) must take its consequences out of it.
#[test]
fn deleting_a_unit_or_a_reason_shrinks_the_closure() {
    // ¬x ∨ y and ¬y ∨ z in the base scope, the unit x inside a scope: the
    // closure holds x, y and z, so [z] is RUP until the pop.
    let scope = |tail: Vec<ProofStep>| UnsatCertificate {
        steps: [
            vec![
                ProofStep::Input { id: 1, lits: vec![n(0), p(1)] },
                ProofStep::Input { id: 2, lits: vec![n(1), p(2)] },
                ProofStep::Input { id: 3, lits: vec![p(0)] },
                ProofStep::Input { id: 4, lits: vec![p(2), p(3)] },
                ProofStep::Rup { id: 5, lits: vec![p(2), p(4)] },
            ],
            tail,
        ]
        .concat(),
    };
    let later_rup = |deleted: u64| {
        scope(vec![ProofStep::Delete { id: deleted }, ProofStep::Rup { id: 6, lits: vec![p(2)] }])
    };
    // The pop deletes the unit x, then a later step needs z.
    assert_eq!(check(&later_rup(3)), Err(CheckError::RupFailed(6)));
    // Deleting the reason of y or of z breaks the chain as well.
    assert_eq!(check(&later_rup(1)), Err(CheckError::RupFailed(6)));
    assert_eq!(check(&later_rup(2)), Err(CheckError::RupFailed(6)));
    // A deleted clause the closure does not rest on changes nothing.
    assert_eq!(check(&later_rup(4)), Err(CheckError::NoEmptyClause));
    assert_eq!(check(&later_rup(5)), Err(CheckError::NoEmptyClause));
    // The closure itself is consistent: it refutes nothing.
    let refuted = check(&scope(vec![ProofStep::Rup { id: 6, lits: vec![] }]));
    assert_eq!(refuted, Err(CheckError::RupFailed(6)));

    // Units x and ¬x make the closure conflict, so any clause is RUP, until
    // a deletion removes one of them.
    let conflicting = UnsatCertificate {
        steps: vec![
            ProofStep::Input { id: 1, lits: vec![p(0)] },
            ProofStep::Input { id: 2, lits: vec![n(0)] },
            ProofStep::Rup { id: 3, lits: vec![p(5), p(6)] },
            ProofStep::Delete { id: 2 },
            ProofStep::Rup { id: 4, lits: vec![p(5)] },
        ],
    };
    assert_eq!(check(&conflicting), Err(CheckError::RupFailed(4)));
}

/// Whether unit propagation over `live` from the negation of `lits`
/// reaches a conflict, by naive fixpoint iteration.
fn naive_rup(live: &[&Vec<u32>], lits: &[u32]) -> bool {
    let mut val: Vec<Option<bool>> = vec![None; 64];
    let holds = |val: &[Option<bool>], l: u32| val[(l >> 1) as usize].map(|v| v == (l & 1 == 0));
    for &l in lits {
        match holds(&val, l) {
            Some(true) => return true,
            Some(false) => {}
            None => val[(l >> 1) as usize] = Some(l & 1 == 1),
        }
    }
    loop {
        let mut changed = false;
        for c in live {
            if c.iter().any(|&l| holds(&val, l) == Some(true)) {
                continue;
            }
            let mut open = c.iter().filter(|&&l| holds(&val, l).is_none());
            match (open.next(), open.next()) {
                (None, _) => return true,
                (Some(&l), None) => {
                    val[(l >> 1) as usize] = Some(l & 1 == 0);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

/// Random logs of inputs, RUP steps and deletions over a few variables:
/// the checker, which keeps the closure between steps, accepts exactly
/// the RUP steps a from-scratch propagation over the live clauses accepts.
#[test]
fn kept_closure_agrees_with_propagation_from_scratch() {
    let mut rng = SmallRng::seed_from_u64(0xC705);
    let (mut held, mut failed) = (0, 0);
    for _ in 0..150 {
        let mut steps = Vec::new();
        let mut live: Vec<(u64, Vec<u32>)> = Vec::new();
        for id in 1..=60u64 {
            if !live.is_empty() && rng.gen_bool(0.25) {
                let (gone, _) = live.remove(rng.gen_range_usize(0, live.len()));
                steps.push(ProofStep::Delete { id: gone });
                continue;
            }
            let len = rng.gen_range_usize(1, 4);
            let mut lits: Vec<u32> = (0..len).map(|_| rng.gen_range_i64(0, 12) as u32).collect();
            lits.sort_unstable();
            lits.dedup();
            let clauses: Vec<&Vec<u32>> = live.iter().map(|(_, c)| c).collect();
            if rng.gen_bool(0.5) && naive_rup(&clauses, &lits) {
                held += 1;
                steps.push(ProofStep::Rup { id, lits: lits.clone() });
            } else if !naive_rup(&clauses, &lits) {
                // The checker must reject it here, then the log goes on
                // with it as an input.
                failed += 1;
                let mut bad = steps.clone();
                bad.push(ProofStep::Rup { id, lits: lits.clone() });
                assert_eq!(check(&UnsatCertificate { steps: bad }), Err(CheckError::RupFailed(id)));
                steps.push(ProofStep::Input { id, lits: lits.clone() });
            } else {
                steps.push(ProofStep::Input { id, lits: lits.clone() });
            }
            live.push((id, lits));
        }
        let verdict = check(&UnsatCertificate { steps: steps.clone() });
        let clauses: Vec<&Vec<u32>> = live.iter().map(|(_, c)| c).collect();
        let refuted = naive_rup(&clauses, &[]);
        assert!(matches!(verdict, Err(CheckError::NoEmptyClause)) || (refuted && verdict.is_ok()));
    }
    assert!(held > 300 && failed > 300, "{held} held, {failed} failed");
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
    assert_eq!(sink.position(), 3);
    let head = sink.take_steps();
    assert_eq!(head.len(), 3);
    let c = sink.log_rup(vec![p(1)]);
    sink.log_delete(a);
    assert_eq!((a, b, c), (1, 2, 3));
    // The position counts every step logged; each step is handed over once.
    assert_eq!(sink.position(), 5);
    let tail = sink.take_steps();
    assert_eq!(tail, vec![ProofStep::Rup { id: 3, lits: vec![p(1)] }, ProofStep::Delete { id: 1 }]);
    assert!(sink.take_steps().is_empty());
    let cert = UnsatCertificate { steps: [head, tail].concat() };
    assert_eq!(cert.steps.len(), 5);
    assert_eq!(cert.to_text().lines().count(), 5);
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

/// A random step of any kind, over ids, literals and rationals of every
/// size the text format writes.
fn random_step(rng: &mut SmallRng) -> ProofStep {
    let small = |rng: &mut SmallRng| match rng.gen_range_usize(0, 3) {
        0 => rng.gen_range_i64(0, 10) as u32,
        1 => rng.gen_range_i64(0, 100_000) as u32,
        _ => rng.gen_range_i64(0, i64::from(u32::MAX) + 1) as u32,
    };
    let limbs = rng.gen_range_usize(1, 4);
    let id = if rng.gen_bool(0.5) {
        rng.gen_range_i64(0, 1_000) as u64
    } else {
        rng.gen_range_i64(0, i64::MAX) as u64 * 2
    };
    let len = rng.gen_range_usize(0, 5);
    let lits: Vec<u32> = (0..len).map(|_| small(rng)).collect();
    let terms: Vec<(u32, Rat)> = (0..len).map(|_| (small(rng), random_rat(rng, limbs))).collect();
    match rng.gen_range_usize(0, 5) {
        0 => ProofStep::Atom {
            var: small(rng),
            expr: terms,
            bound: random_rat(rng, limbs),
            strict: rng.gen_bool(0.5),
        },
        1 => ProofStep::Input { id, lits },
        2 => ProofStep::Rup { id, lits },
        3 => ProofStep::Theory { id, lits, farkas: terms },
        _ => ProofStep::Delete { id },
    }
}

#[test]
fn byte_len_equals_the_rendered_length_on_random_steps() {
    let mut rng = SmallRng::seed_from_u64(0xB17E);
    for _ in 0..2_000 {
        let step = random_step(&mut rng);
        let mut text = Vec::new();
        step.render(&mut text);
        assert_eq!(step.byte_len(), text.len() as u64, "{}", String::from_utf8_lossy(&text));
    }
}

/// The line `ProofStep::render` writes, built with `fmt` from `Display`.
fn fmt_line(step: &ProofStep) -> String {
    let join = |lits: &[u32]| lits.iter().map(|l| format!(" {l}")).collect::<String>();
    let pairs =
        |terms: &[(u32, Rat)]| terms.iter().map(|(l, c)| format!(" {l}:{c}")).collect::<String>();
    match step {
        ProofStep::Atom { var, expr, bound, strict } => {
            format!("a {var} {} {bound}{}\n", u8::from(*strict), pairs(expr))
        }
        ProofStep::Input { id, lits } => format!("i {id}{}\n", join(lits)),
        ProofStep::Rup { id, lits } => format!("r {id}{}\n", join(lits)),
        ProofStep::Theory { id, lits, farkas } => {
            format!("t {id}{} f{}\n", join(lits), pairs(farkas))
        }
        ProofStep::Delete { id } => format!("d {id}\n"),
    }
}

/// Every step kind, with rationals past `i64` in either part, renders to
/// the bytes `fmt` writes and parses back to the same step.
#[test]
fn codec_roundtrips_every_step_kind_bytewise() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    let steps: Vec<ProofStep> = (0..2_000).map(|_| random_step(&mut rng)).collect();
    let text = steps_to_text(&steps);
    assert_eq!(text, steps.iter().map(fmt_line).collect::<String>());
    let back = UnsatCertificate::from_text(&text).expect("rendered text must parse");
    assert_eq!(back.steps, steps);
    assert!(
        steps.iter().any(|s| matches!(s, ProofStep::Atom { bound, .. } if !bound.is_small())),
        "the sample holds rationals past a machine word"
    );
    for limit in [i64::MAX, i64::MIN] {
        let step = ProofStep::Atom {
            var: u32::MAX,
            expr: vec![(u32::MAX, rat(limit, i64::MAX)), (0, Rat::from(limit))],
            bound: rat(-1, i64::MAX),
            strict: false,
        };
        let text = steps_to_text(std::slice::from_ref(&step));
        assert_eq!(text, fmt_line(&step));
        assert_eq!(UnsatCertificate::from_text(&text).unwrap().steps, [step]);
    }
    // Decimals are read (through the slow path), never written.
    let decimal = "a 2 1 -1.25 0:0.5 3:7 4:-36893488147419103232/3\n";
    let huge = Rat::from_decimal_str("-36893488147419103232/3").unwrap();
    assert_eq!(
        UnsatCertificate::from_text(decimal).unwrap().steps,
        [ProofStep::Atom {
            var: 2,
            expr: vec![(0, rat(1, 2)), (3, rat(7, 1)), (4, huge)],
            bound: rat(-5, 4),
            strict: true,
        }]
    );
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
