//! The one-line-per-step text format, read and written as bytes.
//!
//! ```text
//! a <var> <strict 0|1> <bound> <real var>:<coeff>…   atom definition
//! i <id> <lit>…                                      input clause
//! r <id> <lit>…                                      RUP clause
//! t <id> <lit>… f <lit>:<coeff>…                     theory lemma
//! d <id>                                             deletion
//! ```
//!
//! Integers and rationals whose numerator and denominator fit an `i64` are
//! written and parsed digit by digit; only larger rationals, and decimals
//! on input, go through `Rat`'s `Display` and [`Rat::from_decimal_str`].
//! Parse errors are built only when a line is rejected.

use crate::{ProofStep, UnsatCertificate};
use ccmatic_num::{BigInt, Rat};
use std::io::Write as _;

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends `r` as `n` or `n/d`, the text of its `Display`.
fn push_rat(out: &mut Vec<u8>, r: &Rat) {
    match (r.numer().to_i64(), r.denom().to_i64()) {
        (Some(n), Some(1)) => push_i64(out, n),
        (Some(n), Some(d)) => {
            push_i64(out, n);
            out.push(b'/');
            push_i64(out, d);
        }
        _ => {
            let _ = write!(out, "{r}");
        }
    }
}

/// Appends ` {x}` for each `x`.
fn push_lits(out: &mut Vec<u8>, lits: &[u32]) {
    for &l in lits {
        out.push(b' ');
        push_u64(out, u64::from(l));
    }
}

/// Appends ` {l}:{c}` for each `(l, c)`.
fn push_pairs(out: &mut Vec<u8>, terms: &[(u32, Rat)]) {
    for (l, c) in terms {
        out.push(b' ');
        push_u64(out, u64::from(*l));
        out.push(b':');
        push_rat(out, c);
    }
}

impl ProofStep {
    /// Appends the step as one line of the text format (used by
    /// [`steps_to_text`]).
    pub fn render(&self, out: &mut Vec<u8>) {
        match self {
            ProofStep::Atom { var, expr, bound, strict } => {
                out.extend_from_slice(b"a ");
                push_u64(out, u64::from(*var));
                out.extend_from_slice(if *strict { b" 1 " } else { b" 0 " });
                push_rat(out, bound);
                push_pairs(out, expr);
            }
            ProofStep::Input { id, lits } => {
                out.extend_from_slice(b"i ");
                push_u64(out, *id);
                push_lits(out, lits);
            }
            ProofStep::Rup { id, lits } => {
                out.extend_from_slice(b"r ");
                push_u64(out, *id);
                push_lits(out, lits);
            }
            ProofStep::Theory { id, lits, farkas } => {
                out.extend_from_slice(b"t ");
                push_u64(out, *id);
                push_lits(out, lits);
                out.extend_from_slice(b" f");
                push_pairs(out, farkas);
            }
            ProofStep::Delete { id } => {
                out.extend_from_slice(b"d ");
                push_u64(out, *id);
            }
        }
        out.push(b'\n');
    }

    /// Length of the step's text rendering in bytes: the sum of the digit
    /// counts of its ids, literals and rationals and of its separators,
    /// computed without rendering.
    pub fn byte_len(&self) -> u64 {
        /// `" {x}"` for each `x`.
        fn spaced(lits: &[u32]) -> usize {
            lits.iter().map(|&l| 1 + digits(u64::from(l))).sum()
        }
        /// `" {l}:{c}"` for each `(l, c)`.
        fn pairs(terms: &[(u32, Rat)]) -> usize {
            terms.iter().map(|(l, c)| 2 + digits(u64::from(*l)) + c.display_len()).sum()
        }
        // Each line is a one-byte tag, a space, the first field and the
        // closing newline: 3 bytes around the fields below.
        let fields = match self {
            ProofStep::Atom { var, expr, bound, .. } => {
                // ` {strict} ` is three bytes.
                digits(u64::from(*var)) + 3 + bound.display_len() + pairs(expr)
            }
            ProofStep::Input { id, lits } | ProofStep::Rup { id, lits } => {
                digits(*id) + spaced(lits)
            }
            ProofStep::Theory { id, lits, farkas } => {
                digits(*id) + spaced(lits) + 2 + pairs(farkas)
            }
            ProofStep::Delete { id } => digits(*id),
        };
        (3 + fields) as u64
    }
}

/// Number of decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// `steps` in the one-line-per-step text format: the text of a certificate
/// made of exactly these steps.
pub fn steps_to_text(steps: &[ProofStep]) -> String {
    let mut out = Vec::new();
    for step in steps {
        step.render(&mut out);
    }
    String::from_utf8(out).expect("the text format is ASCII")
}

/// The digits of `tok` as an unsigned integer of at most `max`.
fn parse_uint(tok: &[u8], max: u64) -> Option<u64> {
    if tok.is_empty() {
        return None;
    }
    tok.iter().try_fold(0u64, |v, &b| {
        let d = b.checked_sub(b'0').filter(|d| *d <= 9)?;
        v.checked_mul(10)?.checked_add(u64::from(d)).filter(|&v| v <= max)
    })
}

fn parse_u32(tok: &[u8]) -> Option<u32> {
    parse_uint(tok, u64::from(u32::MAX)).map(|v| v as u32)
}

/// `tok` as a rational: `n` or `n/d` in machine words digit by digit,
/// anything else (large values, decimals) through
/// [`Rat::from_decimal_str`].
fn parse_rat(tok: &[u8]) -> Option<Rat> {
    let (neg, mag) = match tok.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, tok),
    };
    let (num, den) = match mag.iter().position(|&b| b == b'/') {
        Some(slash) => (&mag[..slash], Some(&mag[slash + 1..])),
        None => (mag, None),
    };
    let word = |digits: &[u8]| parse_uint(digits, i64::MAX as u64).map(|v| v as i64);
    let n = word(num).map(|v| if neg { -v } else { v });
    match (n, den.map(word)) {
        (Some(n), None) => Some(Rat::from(n)),
        (Some(n), Some(Some(d))) if d != 0 => Some(Rat::new(BigInt::from(n), BigInt::from(d))),
        _ => Rat::from_decimal_str(std::str::from_utf8(tok).ok()?),
    }
}

/// A `<lit>:<coeff>` token.
fn parse_pair(tok: &[u8]) -> Option<(u32, Rat)> {
    let colon = tok.iter().position(|&b| b == b':')?;
    Some((parse_u32(&tok[..colon])?, parse_rat(&tok[colon + 1..])?))
}

/// One line's tokens, with what a rejection says about the line.
struct Line<'a> {
    toks: std::slice::Split<'a, u8, fn(&u8) -> bool>,
    no: usize,
}

impl<'a> Line<'a> {
    fn next(&mut self) -> Option<&'a [u8]> {
        self.toks.find(|t| !t.is_empty())
    }

    fn err(&self, what: &str) -> String {
        format!("line {}: bad or missing {what}", self.no)
    }

    fn id(&mut self) -> Result<u64, String> {
        self.next().and_then(|t| parse_uint(t, u64::MAX)).ok_or_else(|| self.err("clause id"))
    }

    /// The remaining tokens as `<lit>:<coeff>` pairs.
    fn pairs(&mut self, what: &str) -> Result<Vec<(u32, Rat)>, String> {
        let mut out = Vec::new();
        while let Some(t) = self.next() {
            out.push(parse_pair(t).ok_or_else(|| self.err(what))?);
        }
        Ok(out)
    }

    /// The remaining tokens as literals, up to `stop` if given.
    fn lits(&mut self, stop: Option<&[u8]>) -> Result<(Vec<u32>, bool), String> {
        let mut out = Vec::new();
        while let Some(t) = self.next() {
            if Some(t) == stop {
                return Ok((out, true));
            }
            out.push(parse_u32(t).ok_or_else(|| self.err("literal"))?);
        }
        Ok((out, false))
    }
}

impl UnsatCertificate {
    /// The certificate in the one-line-per-step text format.
    pub fn to_text(&self) -> String {
        steps_to_text(&self.steps)
    }

    /// Parses the one-line-per-step text format back into a certificate:
    /// the exact inverse of [`UnsatCertificate::to_text`]. Persisted
    /// certificates (the on-disk result cache) round-trip through this;
    /// any malformed line is an error, never a silently dropped step, so a
    /// corrupted cache entry fails loudly and falls back to a fresh solve.
    pub fn from_text(text: &str) -> Result<UnsatCertificate, String> {
        let mut steps = Vec::new();
        for (i, raw) in text.as_bytes().split(|&b| b == b'\n').enumerate() {
            let split: fn(&u8) -> bool = u8::is_ascii_whitespace;
            let mut line = Line { toks: raw.split(split), no: i + 1 };
            let step = match line.next() {
                None => continue, // blank line (e.g. a trailing newline)
                Some(b"a") => {
                    let var =
                        line.next().and_then(parse_u32).ok_or_else(|| line.err("atom var"))?;
                    let strict = match line.next() {
                        Some(b"0") => false,
                        Some(b"1") => true,
                        _ => return Err(line.err("strict flag")),
                    };
                    let bound = line.next().and_then(parse_rat).ok_or_else(|| line.err("bound"))?;
                    let expr = line.pairs("atom term")?;
                    ProofStep::Atom { var, expr, bound, strict }
                }
                Some(b"i") => ProofStep::Input { id: line.id()?, lits: line.lits(None)?.0 },
                Some(b"r") => ProofStep::Rup { id: line.id()?, lits: line.lits(None)?.0 },
                Some(b"t") => {
                    let id = line.id()?;
                    let (lits, saw_f) = line.lits(Some(b"f"))?;
                    if !saw_f {
                        return Err(line.err("`f` marker of the theory step"));
                    }
                    ProofStep::Theory { id, lits, farkas: line.pairs("farkas term")? }
                }
                Some(b"d") => ProofStep::Delete { id: line.id()? },
                Some(tag) => {
                    let tag = String::from_utf8_lossy(tag);
                    return Err(format!("line {}: unknown step tag `{tag}`", line.no));
                }
            };
            steps.push(step);
        }
        Ok(UnsatCertificate { steps })
    }
}
