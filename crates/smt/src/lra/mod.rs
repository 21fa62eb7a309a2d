//! General-simplex decision procedure for conjunctions of linear bounds.
//!
//! This is the theory solver of the lazy SMT combination, implementing the
//! algorithm of de Moura & Bjørner, *A fast linear-arithmetic solver for
//! DPLL(T)* (CAV 2006):
//!
//! * every asserted atom is a bound on a single variable (problem variable
//!   or *slack* variable defined as a linear combination of others),
//! * strict bounds are represented exactly using [`DeltaRat`]
//!   delta-rationals,
//! * a tableau of basic-variable rows is pivoted (Bland's rule, guaranteeing
//!   termination) until either all bounds hold or an infeasible row yields a
//!   Farkas-style conflict: the set of bound *tags* (SAT literals) that
//!   cannot hold together.
//!
//! The tableau persists across `reset_bounds` calls, so repeated theory
//! checks (one per candidate Boolean model) only pay for bound assertion
//! and re-pivoting, not structure building.
//!
//! Tableau rows are flat sorted sparse vectors of *integers* times one
//! positive rational scale (see `Row`). Pivoting is therefore
//! fraction-free: the hot substitution step (`Row::substitute`) is a
//! linear merge of two sorted integer lists through a reusable scratch
//! buffer, followed by one content gcd that keeps the row primitive.
//!
//! Rows are word-native. A row holds `(SimVar, i64)` entries, 16 bytes
//! each with no drop glue, for as long as every entry fits an `i64`. A row
//! operation that would leave that range *spills* the whole row to
//! `BigInt` entries and redoes the operation there; a spilled row returns
//! to words as soon as its primitive entries fit again. So a row is in
//! word form exactly when every entry fits an `i64`, the same canonical
//! rule `BigInt` keeps for one integer. The hot loops (the violated-row
//! scan, bound-propagation extremes, the substitution merge and the pivot
//! row rewrite) run on the entry slice of either form through one generic
//! body, dispatched once per row operation.
//!
//! The representation cannot change any result. For a fixed basis the
//! tableau is unique (each basic variable has exactly one expression in the
//! nonbasic ones), and a row's primitive form is unique too: the entries'
//! signs and gcd are fixed, so the *effective* coefficients `scale · entry`
//! are the same rationals any exact tableau would hold. Every sign test,
//! Bland choice, bound-propagation sum, Farkas multiplier and model value is
//! computed from those, so only the cost of computing them depends on how
//! rows are stored. The arithmetic counters keep their meaning as well:
//! word arithmetic counts nothing, and the spill path redoes the overflowing
//! operation with the counted `BigInt` arithmetic, so promotions and
//! limb-path operations are counted exactly as an all-`BigInt` tableau
//! would count them; only fast-path operations go uncounted.

use crate::interrupt::Interrupt;
use ccmatic_num::{gcd_u64, BigInt, DeltaRat, Rat};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Process-wide pivot count across every [`Simplex`] instance (generator,
/// verifier and WCE probes alike); complements the per-instance
/// [`Simplex::pivots`] the same way `ccmatic_num::arith_snapshot` works for
/// arithmetic ops.
static PIVOTS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of row spills: word-form rows moved to `BigInt`
/// entries because a row operation left the `i64` range.
static ROW_SPILLS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Read the process-wide pivot counter.
pub fn pivots_total() -> u64 {
    PIVOTS_TOTAL.load(AtomicOrdering::Relaxed)
}

/// Read the process-wide row-spill counter.
pub fn row_spills_total() -> u64 {
    ROW_SPILLS_TOTAL.load(AtomicOrdering::Relaxed)
}

/// A simplex variable (problem variable or slack).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SimVar(pub u32);

/// A tableau entry's integer coefficient: an `i64` word in a word-form
/// row, a `BigInt` in a spilled one.
trait Coeff {
    fn is_positive(&self) -> bool;
    /// `k · self`, counted like any `BigInt` product.
    fn times(&self, k: &BigInt) -> BigInt;
    /// The effective coefficient `scale · self`.
    fn eff(&self, scale: &Rat) -> Rat;
}

impl Coeff for i64 {
    fn is_positive(&self) -> bool {
        *self > 0
    }

    fn times(&self, k: &BigInt) -> BigInt {
        k * &BigInt::from(*self)
    }

    /// With an integer scale this is one checked word product; an overflow
    /// takes the `Rat` product, which counts the promotion.
    fn eff(&self, scale: &Rat) -> Rat {
        if scale.is_integer() {
            if let Some(n) = scale.numer().to_i64().and_then(|n| n.checked_mul(*self)) {
                return Rat::from(n);
            }
        }
        scale * &Rat::from(*self)
    }
}

impl Coeff for BigInt {
    fn is_positive(&self) -> bool {
        BigInt::is_positive(self)
    }

    fn times(&self, k: &BigInt) -> BigInt {
        k * self
    }

    fn eff(&self, scale: &Rat) -> Rat {
        match self.to_i64() {
            Some(w) => w.eff(scale),
            None => scale * &Rat::from(self.clone()),
        }
    }
}

/// A row's entries, sorted by variable: words while every entry fits an
/// `i64`, the whole row spilled to `BigInt`s otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Entries {
    Words(Vec<(SimVar, i64)>),
    Big(Vec<(SimVar, BigInt)>),
}

/// Evaluate `$body` with `$es` bound to a row's entry slice, whichever
/// form it is in: one generic body, one dispatch per row operation.
macro_rules! with_entries {
    ($row:expr, $es:ident => $body:expr) => {
        match &$row.entries {
            Entries::Words($es) => $body,
            Entries::Big($es) => $body,
        }
    };
}

/// A sparse tableau row in primitive form: a basic variable `v` with this
/// row satisfies `v = scale · Σ entry·nonbasic`, where the entries are
/// nonzero integers sorted by variable with gcd 1, and `scale > 0`.
///
/// Every rational factor a pivot introduces lives in the one `scale`
/// scalar, so entries stay small integers in word form even where the
/// rational tableau's coefficients would share huge factors. The
/// *effective* coefficient of a variable is `scale · entry`; since
/// `scale > 0`, entry signs alone drive pivot selection.
#[derive(Clone, Debug)]
struct Row {
    entries: Entries,
    scale: Rat,
}

impl Row {
    /// Whether the row mentions `v`.
    fn mentions(&self, v: SimVar) -> bool {
        with_entries!(self, es => es.binary_search_by_key(&v, |e| e.0).is_ok())
    }

    /// Remove and return the coefficient of `v`.
    fn remove(&mut self, v: SimVar) -> Option<BigInt> {
        match &mut self.entries {
            Entries::Words(es) => {
                let i = es.binary_search_by_key(&v, |e| e.0).ok()?;
                Some(BigInt::from(es.remove(i).1))
            }
            Entries::Big(es) => {
                let i = es.binary_search_by_key(&v, |e| e.0).ok()?;
                Some(es.remove(i).1)
            }
        }
    }

    /// Iterate entries in variable order as `BigInt`s (off the hot paths).
    fn iter(&self) -> impl Iterator<Item = (SimVar, BigInt)> + '_ {
        let (words, big) = match &self.entries {
            Entries::Words(es) => (es.as_slice(), &[][..]),
            Entries::Big(es) => (&[][..], es.as_slice()),
        };
        let words = words.iter().map(|&(v, e)| (v, BigInt::from(e)));
        words.chain(big.iter().map(|(v, e)| (*v, e.clone())))
    }

    /// Effective coefficient of `v`, if present.
    fn effective(&self, v: SimVar) -> Option<Rat> {
        with_entries!(self, es => {
            let i = es.binary_search_by_key(&v, |e| e.0).ok()?;
            Some(es[i].1.eff(&self.scale))
        })
    }

    /// Move a word-form row to `BigInt` entries, counting the spill.
    fn spill(&mut self) {
        if let Entries::Words(es) = &self.entries {
            ROW_SPILLS_TOTAL.fetch_add(1, AtomicOrdering::Relaxed);
            self.entries = Entries::Big(es.iter().map(|&(v, e)| (v, BigInt::from(e))).collect());
        }
    }

    /// Return a spilled row to word form if every entry fits an `i64`.
    fn settle(&mut self) {
        if let Entries::Big(es) = &self.entries {
            let words: Option<Vec<(SimVar, i64)>> =
                es.iter().map(|(v, e)| Some((*v, e.to_i64()?))).collect();
            if let Some(words) = words {
                self.entries = Entries::Words(words);
            }
        }
    }

    /// The spilled entries; panics on a word-form row.
    fn big_mut(&mut self) -> &mut Vec<(SimVar, BigInt)> {
        match &mut self.entries {
            Entries::Big(es) => es,
            Entries::Words(_) => unreachable!("row is in word form"),
        }
    }

    /// The primitive row equal to `Σ coeff·var` over rational
    /// coefficients: multiply through by the lcm of the denominators,
    /// divide by the gcd of the numerators, and keep that rational content
    /// as the scale. Zero coefficients are dropped.
    fn from_rational(terms: impl IntoIterator<Item = (SimVar, Rat)>) -> Row {
        let terms: Vec<(SimVar, Rat)> = terms.into_iter().filter(|(_, c)| !c.is_zero()).collect();
        if terms.is_empty() {
            return Row { entries: Entries::Words(Vec::new()), scale: Rat::one() };
        }
        let mut gn = BigInt::zero();
        let mut ld = BigInt::one();
        for (_, c) in &terms {
            gn = gn.gcd(c.numer());
            ld = ld.lcm(c.denom());
        }
        let entries =
            terms.into_iter().map(|(v, c)| (v, &(c.numer() / &gn) * &(&ld / c.denom()))).collect();
        let mut row = Row { entries: Entries::Big(entries), scale: Rat::new(gn, ld) };
        row.settle();
        row
    }

    /// Substitute `x_j = (P/Q) · Σ f·x` (row `sub`) for this row's
    /// coefficient `c` on `x_j` (already removed from the entries):
    /// `entries ← Q·entries + c·P·f` as a linear merge of the two sorted
    /// lists, `scale ← scale/Q`, then the content is divided back out.
    /// (`c/Q` is reduced first, so intermediates carry no factor the
    /// content division would only remove again.)
    ///
    /// Two word-form rows merge on words ([`merge_words`]) through
    /// `scratch`, which is swapped in, so neither buffer is reallocated
    /// once warm. Any other pair, or a word merge that overflows, spills
    /// this row and runs [`merge_big`] from the untouched entries, so both
    /// compute the same integers.
    fn substitute(&mut self, c: &BigInt, sub: &Row, scratch: &mut Vec<(SimVar, i64)>) {
        if let (Entries::Words(own), Entries::Words(subs)) = (&mut self.entries, &sub.entries) {
            if let Some(q) = merge_words(own, c, subs, &sub.scale, scratch) {
                std::mem::swap(own, scratch);
                if own.is_empty() {
                    self.scale = Rat::one();
                    return;
                }
                // The content is at most 2^63, which only a row of
                // `i64::MIN` entries reaches; that row takes the
                // `BigInt` content below.
                if let Some(g) = word_content(own) {
                    if g > 1 {
                        own.iter_mut().for_each(|e| e.1 /= g);
                    }
                    // Multiplying a word scale by g/q = 1 changes nothing.
                    if g != q || !self.scale.is_small() {
                        self.scale = &self.scale * &Rat::new(g.into(), q.into());
                    }
                    return;
                }
                self.spill();
                self.finish_big(BigInt::from(q));
                return;
            }
        }
        self.substitute_big(c, sub);
    }

    /// [`Row::substitute`] on `BigInt`s: spill this row, merge, and
    /// restore primitive (and, where it fits, word) form.
    fn substitute_big(&mut self, c: &BigInt, sub: &Row) {
        self.spill();
        let own = std::mem::take(self.big_mut());
        let (merged, q) = with_entries!(sub, subs => merge_big(own, c, subs, &sub.scale));
        *self.big_mut() = merged;
        self.finish_big(q);
    }

    /// Restore primitive form after a spilled row's entries changed under
    /// the substitution denominator `q`: divide out the content and fold
    /// `content/q` into the scale, then return to words if they fit.
    fn finish_big(&mut self, q: BigInt) {
        let es = self.big_mut();
        if es.is_empty() {
            self.scale = Rat::one();
        } else {
            let g = take_content_big(es);
            self.scale = &self.scale * &Rat::new(g, q);
        }
        self.settle();
    }

    /// Turn basic `b`'s row (its pivot entry `a` on the entering variable
    /// `x_j` already removed, its old scale `s = p/q` taken out) into the
    /// row of `x_j`. From `b = (p/q)·Σ e_k x_k`, with `σ = sign(a)`,
    ///   `x_j = (1/(p·|a|))·( σq·b − σp·Σ_{k≠j} e_k·x_k )`.
    /// The surviving entries had gcd `g'` with `a`, so the new row's
    /// content is `gcd(q, g')` (`p` is coprime to `q`); it moves into the
    /// scale, which keeps every rational factor. `b`, having been basic,
    /// cannot already appear in its own row.
    fn solve_for(&mut self, b: SimVar, s: &Rat, a: &BigInt, scratch: &mut Vec<(SimVar, i64)>) {
        let (p, q) = (s.numer(), s.denom());
        if let (Entries::Words(es), Some(pw), Some(qw), Some(aw)) =
            (&mut self.entries, p.to_i64(), q.to_i64(), a.to_i64())
        {
            if let Some(g) = solve_for_words(es, b, pw, qw, aw, scratch) {
                std::mem::swap(es, scratch);
                self.scale = Rat::new(g.into(), p * &a.abs());
                return;
            }
        }
        self.spill();
        let es = self.big_mut();
        let one = BigInt::one();
        let mut g = q.clone();
        for (_, e) in es.iter() {
            if g == one {
                break;
            }
            g = g.gcd(e);
        }
        let positive = a.is_positive();
        let m = if positive { -p } else { p.clone() };
        for (_, e) in es.iter_mut() {
            if g != one {
                *e = &*e / &g;
            }
            *e = &*e * &m;
        }
        let qg = if g == one { q.clone() } else { q / &g };
        let b_entry = if positive { qg } else { -qg };
        let at = es.binary_search_by_key(&b, |e| e.0).expect_err("b is not in its row");
        es.insert(at, (b, b_entry));
        self.scale = Rat::new(g, p * &a.abs());
        self.settle();
    }
}

/// Content of nonempty word entries, stopping at the first gcd of 1 (the
/// common case); `None` if it is 2^63.
fn word_content(es: &[(SimVar, i64)]) -> Option<i64> {
    let mut g = 0;
    for (_, e) in es {
        g = gcd_u64(g, e.unsigned_abs());
        if g == 1 {
            return Some(1);
        }
    }
    i64::try_from(g).ok()
}

/// Restore primitive form after nonempty `BigInt` entries changed: divide
/// out their integer content `g` (stopping at the first gcd of 1, the
/// common case) and return it for the caller to fold into the scale.
fn take_content_big(es: &mut [(SimVar, BigInt)]) -> BigInt {
    let one = BigInt::one();
    let mut g = BigInt::zero();
    for (_, c) in es.iter() {
        g = g.gcd(c);
        if g == one {
            return g;
        }
    }
    for (_, c) in es.iter_mut() {
        *c = &*c / &g;
    }
    g
}

/// The substitution merge of [`Row::substitute`] on `i64` words, into
/// `out`. Returns `Q/gcd(Q, c)`, or `None` as soon as an input or an
/// intermediate leaves the `i64` range. Counts no arithmetic events: a
/// merge that fits a word is one the `BigInt` merge would also finish
/// with neither a promotion nor a limb operation.
fn merge_words(
    own: &[(SimVar, i64)],
    c: &BigInt,
    sub: &[(SimVar, i64)],
    sub_scale: &Rat,
    out: &mut Vec<(SimVar, i64)>,
) -> Option<i64> {
    out.clear();
    out.reserve(own.len() + sub.len());
    let (c, p, q) = (c.to_i64()?, sub_scale.numer().to_i64()?, sub_scale.denom().to_i64()?);
    // q > 0, so 1 ≤ g ≤ q and neither division can overflow.
    let g = gcd_u64(q.unsigned_abs(), c.unsigned_abs()) as i64;
    let (c, q) = (c / g, q / g);
    let k = c.checked_mul(p)?;
    let mut a = own.iter().peekable();
    for &(bv, bc) in sub {
        let kf = k.checked_mul(bc)?;
        loop {
            match a.peek() {
                Some(&&(av, e)) if av < bv => {
                    out.push((av, e.checked_mul(q)?));
                    a.next();
                }
                Some(&&(av, e)) if av == bv => {
                    let sum = e.checked_mul(q)?.checked_add(kf)?;
                    if sum != 0 {
                        out.push((av, sum));
                    }
                    a.next();
                    break;
                }
                _ => {
                    out.push((bv, kf));
                    break;
                }
            }
        }
    }
    for &(v, e) in a {
        out.push((v, e.checked_mul(q)?));
    }
    Some(q)
}

/// The substitution merge of [`Row::substitute`] on `BigInt`s, consuming
/// the spilled `own` entries; `sub` may be in either form. Returns the
/// merged entries and `Q/gcd(Q, c)`.
fn merge_big<C: Coeff>(
    own: Vec<(SimVar, BigInt)>,
    c: &BigInt,
    sub: &[(SimVar, C)],
    sub_scale: &Rat,
) -> (Vec<(SimVar, BigInt)>, BigInt) {
    let one = BigInt::one();
    let (p, q) = (sub_scale.numer(), sub_scale.denom());
    let g = q.gcd(c);
    let (c, q) = if g == one { (c.clone(), q.clone()) } else { (c / &g, q / &g) };
    let k = &c * p;
    let q_is_one = q == one;
    let own_len = own.len();
    let scale_own = |e: BigInt| if q_is_one { e } else { &q * &e };
    let mut out = Vec::with_capacity(own_len + sub.len());
    let mut a = own.into_iter().peekable();
    for (bv, bc) in sub {
        loop {
            match a.peek() {
                Some((av, _)) if av < bv => {
                    let (v, e) = a.next().expect("peeked entry exists");
                    out.push((v, scale_own(e)));
                }
                Some((av, _)) if av == bv => {
                    let (v, e) = a.next().expect("peeked entry exists");
                    let sum = &scale_own(e) + &bc.times(&k);
                    if !sum.is_zero() {
                        out.push((v, sum));
                    }
                    break;
                }
                _ => {
                    out.push((*bv, bc.times(&k)));
                    break;
                }
            }
        }
    }
    out.extend(a.map(|(v, e)| (v, scale_own(e))));
    (out, q)
}

/// The rewrite of [`Row::solve_for`] on `i64` words, into `out`, with `b`'s
/// entry `±q/g` merged in at its sorted place. Returns the content `g`, or
/// `None` if an entry overflows (leaving `es` untouched).
fn solve_for_words(
    es: &[(SimVar, i64)],
    b: SimVar,
    p: i64,
    q: i64,
    a: i64,
    out: &mut Vec<(SimVar, i64)>,
) -> Option<i64> {
    // q > 0, so the content divides it and stays a word.
    let mut g = q as u64;
    for (_, e) in es {
        if g == 1 {
            break;
        }
        g = gcd_u64(g, e.unsigned_abs());
    }
    let g = g as i64;
    // p > 0 (the scale is positive), so −p cannot overflow.
    let m = if a > 0 { -p } else { p };
    let b_entry = if a > 0 { q / g } else { -(q / g) };
    let entry = |e: i64| if g == 1 { e } else { e / g }.checked_mul(m);
    let at = es.partition_point(|e| e.0 < b);
    out.clear();
    out.reserve(es.len() + 1);
    for &(v, e) in &es[..at] {
        out.push((v, entry(e)?));
    }
    out.push((b, b_entry));
    for &(v, e) in &es[at..] {
        out.push((v, entry(e)?));
    }
    Some(g)
}

/// Opaque tag identifying the asserted bound that produced a conflict; the
/// SMT layer uses SAT literal codes.
pub type Tag = u32;

/// Result of [`Simplex::row_extreme`]: the reachable extreme value of a
/// basic variable's row plus the `(tag, |scale·coeff|)` Farkas premises of
/// each limiting bound.
pub type RowExtreme = (DeltaRat, Vec<(Tag, Rat)>);

/// An inconsistent set of asserted bounds, identified by their tags.
#[derive(Clone, Debug)]
pub struct TheoryConflict {
    /// Tags of every bound participating in the infeasibility proof,
    /// sorted and deduplicated.
    pub tags: Vec<Tag>,
    /// Farkas multiplier per tag: orienting each tagged bound as a `≤`
    /// inequality, scaling by its (positive) multiplier and summing cancels
    /// every variable and leaves `0 ≤ c` with `c < 0`. Multipliers for a
    /// tag appearing more than once are combined.
    pub farkas: Vec<(Tag, Rat)>,
}

impl TheoryConflict {
    /// Build a conflict from its Farkas combination, deriving the tag set.
    fn from_farkas(farkas: Vec<(Tag, Rat)>) -> Self {
        let mut tags: Vec<Tag> = farkas.iter().map(|(t, _)| *t).collect();
        tags.sort_unstable();
        tags.dedup();
        TheoryConflict { tags, farkas }
    }

    /// Add `lam` to `tag`'s multiplier, combining duplicates.
    fn add_farkas(farkas: &mut Vec<(Tag, Rat)>, tag: Tag, lam: Rat) {
        match farkas.iter_mut().find(|e| e.0 == tag) {
            Some(e) => e.1 += &lam,
            None => farkas.push((tag, lam)),
        }
    }
}

#[derive(Clone)]
struct BoundVal {
    value: DeltaRat,
    tag: Tag,
}

/// Snapshot of the tableau structure taken at a `push` (bounds are not
/// saved: the SMT bridge re-asserts them from scratch on every check).
struct SimplexFrame {
    rows: Vec<Option<Row>>,
    value: Vec<DeltaRat>,
}

/// The simplex solver state.
pub struct Simplex {
    /// `rows[v] = Some(row)` iff `v` is basic; the row holds nonbasic vars
    /// and integer entries so that `v = scale · Σ entry·nonbasic`.
    rows: Vec<Option<Row>>,
    lower: Vec<Option<BoundVal>>,
    upper: Vec<Option<BoundVal>>,
    value: Vec<DeltaRat>,
    /// Open assertion scopes.
    frames: Vec<SimplexFrame>,
    /// Statistics: total pivots performed.
    pub pivots: u64,
    /// Reusable word buffer for [`Row::substitute`] and [`Row::solve_for`].
    scratch: Vec<(SimVar, i64)>,
    /// Undo log for incremental bound retraction: every *actual* tightening
    /// (the no-op weaker-bound early returns record nothing) pushes the
    /// overwritten slot as `(var, is_upper, previous)`. [`Simplex::bound_mark`]
    /// / [`Simplex::undo_bounds_to`] give the SMT bridge trail-synchronized
    /// rollback without a full [`Simplex::reset_bounds`].
    bound_undo: Vec<(u32, bool, Option<BoundVal>)>,
    /// Basic variables that may violate one of their bounds — a superset of
    /// the actually-violating set, maintained at every bound tightening and
    /// value update so [`Simplex::check`] scans `O(dirty)` rows per call
    /// instead of the whole tableau. Stale entries are dropped lazily.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    /// Variables whose bounds tightened since the last
    /// [`Simplex::drain_touched`] — the bridge's theory-propagation scan
    /// targets only these.
    touched: Vec<u32>,
    touched_flag: Vec<bool>,
}

impl Default for Simplex {
    fn default() -> Self {
        Self::new()
    }
}

impl Simplex {
    /// Empty solver.
    pub fn new() -> Self {
        Simplex {
            rows: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            value: Vec::new(),
            frames: Vec::new(),
            pivots: 0,
            scratch: Vec::new(),
            bound_undo: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
            touched: Vec::new(),
            touched_flag: Vec::new(),
        }
    }

    /// Open a scope: snapshot the tableau so slack definitions and pivots
    /// made from here on can be rolled back by [`Simplex::pop`]. (Pivoting
    /// rewrites base-variable rows in place, so a snapshot — not a length
    /// mark — is required; the clone is tiny next to the pivoting work a
    /// scope performs.)
    pub fn push(&mut self) {
        self.frames.push(SimplexFrame { rows: self.rows.clone(), value: self.value.clone() });
    }

    /// Close the innermost scope: restore the tableau to its push-time
    /// shape and drop every bound (the SMT bridge re-asserts bounds from
    /// the live atom set on each check).
    ///
    /// # Panics
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop without matching push");
        self.rows = frame.rows;
        self.value = frame.value;
        // Clear bookkeeping lists before truncating their flag vectors: the
        // lists may hold indices of scope-local variables being dropped.
        self.reset_bounds();
        let n = self.rows.len();
        self.lower.truncate(n);
        self.upper.truncate(n);
        self.dirty_flag.truncate(n);
        self.touched_flag.truncate(n);
    }

    /// Allocate a fresh (nonbasic, unbounded) variable with value 0.
    pub fn new_var(&mut self) -> SimVar {
        let v = SimVar(self.rows.len() as u32);
        self.rows.push(None);
        self.lower.push(None);
        self.upper.push(None);
        self.value.push(DeltaRat::zero());
        self.dirty_flag.push(false);
        self.touched_flag.push(false);
        v
    }

    /// Number of variables (problem + slack).
    pub fn num_vars(&self) -> usize {
        self.rows.len()
    }

    fn is_basic(&self, v: SimVar) -> bool {
        self.rows[v.0 as usize].is_some()
    }

    /// Define a new *slack* variable equal to `Σ coeff·var` over existing
    /// variables. Basic variables in the definition are substituted by
    /// their rows so the new row only references nonbasic variables.
    pub fn define_slack(&mut self, expr: &[(SimVar, Rat)]) -> SimVar {
        // Accumulate rationally (this is once per atom, not per pivot),
        // then clear denominators into the primitive form.
        let mut acc: BTreeMap<SimVar, Rat> = BTreeMap::new();
        let mut add = |v: SimVar, c: Rat| {
            let e = acc.entry(v).or_insert_with(Rat::zero);
            *e += &c;
        };
        for (v, c) in expr {
            if c.is_zero() {
                continue;
            }
            match &self.rows[v.0 as usize] {
                Some(sub) => {
                    for (x, e) in sub.iter() {
                        add(x, c * &e.eff(&sub.scale));
                    }
                }
                None => add(*v, c.clone()),
            }
        }
        let row = Row::from_rational(acc);
        let s = self.new_var();
        // Initial value = row evaluated at current assignment.
        let mut val = DeltaRat::zero();
        for (v, c) in row.iter() {
            val = &val + &self.value[v.0 as usize].scale(&Rat::from(c));
        }
        val = val.scale(&row.scale);
        self.value[s.0 as usize] = val;
        self.rows[s.0 as usize] = Some(row);
        s
    }

    /// Drop all asserted bounds (tableau and values are kept). Also clears
    /// the incremental bookkeeping: the undo log, the dirty set, and the
    /// touched set all describe bounds, which no longer exist.
    pub fn reset_bounds(&mut self) {
        for b in self.lower.iter_mut() {
            *b = None;
        }
        for b in self.upper.iter_mut() {
            *b = None;
        }
        self.bound_undo.clear();
        for &i in &self.dirty {
            self.dirty_flag[i as usize] = false;
        }
        self.dirty.clear();
        for &i in &self.touched {
            self.touched_flag[i as usize] = false;
        }
        self.touched.clear();
    }

    /// Position in the bound-undo log; pass to [`Simplex::undo_bounds_to`]
    /// to retract every tightening made after this point.
    pub fn bound_mark(&self) -> usize {
        self.bound_undo.len()
    }

    /// Retract bound tightenings back to `mark`, restoring each overwritten
    /// slot. Values are deliberately *not* rolled back: every restored bound
    /// is weaker than (or equal to) the one it replaces, so nonbasic
    /// variables stay within their own bounds, and any basic-row violation
    /// relaxation could have cured is dropped lazily from the dirty set by
    /// the next [`Simplex::check`].
    pub fn undo_bounds_to(&mut self, mark: usize) {
        while self.bound_undo.len() > mark {
            let (v, is_upper, old) = self.bound_undo.pop().expect("len checked");
            let i = v as usize;
            if is_upper {
                self.upper[i] = old;
            } else {
                self.lower[i] = old;
            }
        }
    }

    fn mark_dirty(&mut self, i: usize) {
        if !self.dirty_flag[i] {
            self.dirty_flag[i] = true;
            self.dirty.push(i as u32);
        }
    }

    fn mark_touched(&mut self, i: usize) {
        if !self.touched_flag[i] {
            self.touched_flag[i] = true;
            self.touched.push(i as u32);
        }
    }

    /// Move the set of variables whose bounds tightened since the previous
    /// drain into `out` (cleared first). The theory-propagation scan uses
    /// this to look only at constraints a new bound can actually affect.
    pub fn drain_touched(&mut self, out: &mut Vec<SimVar>) {
        out.clear();
        for &i in &self.touched {
            self.touched_flag[i as usize] = false;
            out.push(SimVar(i));
        }
        self.touched.clear();
    }

    /// Current upper bound on `v` with the tag of the literal asserting it.
    pub fn upper_bound(&self, v: SimVar) -> Option<(&DeltaRat, Tag)> {
        self.upper[v.0 as usize].as_ref().map(|b| (&b.value, b.tag))
    }

    /// Current lower bound on `v` with the tag of the literal asserting it.
    pub fn lower_bound(&self, v: SimVar) -> Option<(&DeltaRat, Tag)> {
        self.lower[v.0 as usize].as_ref().map(|b| (&b.value, b.tag))
    }

    /// Whether `v` currently owns a tableau row.
    pub fn is_basic_var(&self, v: SimVar) -> bool {
        self.is_basic(v)
    }

    /// Whether basic `b`'s row mentions `v` (false if `b` is nonbasic).
    pub fn row_mentions(&self, b: SimVar, v: SimVar) -> bool {
        match &self.rows[b.0 as usize] {
            Some(row) => row.mentions(v),
            None => false,
        }
    }

    /// Bound-propagated extreme of basic `v`: the largest (`toward_upper`)
    /// or smallest value its row can reach given the current bounds on its
    /// nonbasic variables, together with `(tag, |scale·coeff|)` Farkas
    /// premises for each limiting bound — the same accumulation
    /// [`Simplex::check`] uses for propagation conflicts. `None` if `v` is
    /// nonbasic or the row is unbounded in that direction.
    pub fn row_extreme(&self, v: SimVar, toward_upper: bool) -> Option<RowExtreme> {
        let row = self.rows[v.0 as usize].as_ref()?;
        with_entries!(row, es => {
            let bounded = es.iter().all(|(j, c)| self.limit(*j, toward_upper == c.is_positive()).is_some());
            bounded.then(|| self.extreme_sum(es, &row.scale, toward_upper))
        })
    }

    /// The bound limiting `v` toward its upper (`upper`) or lower side.
    fn limit(&self, v: SimVar, upper: bool) -> Option<&BoundVal> {
        let i = v.0 as usize;
        if upper {
            self.upper[i].as_ref()
        } else {
            self.lower[i].as_ref()
        }
    }

    /// The extreme `Σ scale·c·limit` of a row whose every term is bounded
    /// toward `toward_upper` (increasing the row wants positive-coefficient
    /// terms at their upper bounds, and vice versa), with the
    /// `(tag, |scale·c|)` Farkas premise of each limiting bound. Callers
    /// check boundedness first, without arithmetic, so no sum is built
    /// only to be thrown away at an unbounded term.
    fn extreme_sum<C: Coeff>(
        &self,
        entries: &[(SimVar, C)],
        scale: &Rat,
        toward_upper: bool,
    ) -> RowExtreme {
        let mut acc = DeltaRat::zero();
        let mut lams = Vec::with_capacity(entries.len());
        for (j, c) in entries {
            let bv = self.limit(*j, toward_upper == c.is_positive()).expect("row is bounded");
            let eff = c.eff(scale);
            acc = &acc + &bv.value.scale(&eff);
            lams.push((bv.tag, eff.abs()));
        }
        (acc, lams)
    }

    /// Bland's pivot column for a violated row (the lowest-index nonbasic
    /// that can move `b` toward its violated bound: up if `below`) and
    /// whether every term is bounded in that helpful direction. No
    /// arithmetic: only signs and bound comparisons.
    fn pivot_scan<C: Coeff>(&self, entries: &[(SimVar, C)], below: bool) -> (Option<SimVar>, bool) {
        let mut pivot_col = None;
        let mut bounded = true;
        for (j, c) in entries {
            let ji = j.0 as usize;
            // Increasing b moves positive-coefficient terms up.
            let up = below == c.is_positive();
            if pivot_col.is_none() && if up { self.can_increase(ji) } else { self.can_decrease(ji) }
            {
                pivot_col = Some(*j);
            }
            bounded = bounded && self.limit(*j, up).is_some();
            if pivot_col.is_some() && !bounded {
                break;
            }
        }
        (pivot_col, bounded)
    }

    /// Assert `v ≤ bound`. Returns a conflict if it contradicts the current
    /// lower bound on `v`.
    pub fn assert_upper(
        &mut self,
        v: SimVar,
        bound: DeltaRat,
        tag: Tag,
    ) -> Result<(), TheoryConflict> {
        let i = v.0 as usize;
        if let Some(u) = &self.upper[i] {
            if u.value <= bound {
                return Ok(());
            }
        }
        if let Some(l) = &self.lower[i] {
            if l.value > bound {
                return Err(TheoryConflict::from_farkas(vec![
                    (l.tag, Rat::one()),
                    (tag, Rat::one()),
                ]));
            }
        }
        self.bound_undo.push((v.0, true, self.upper[i].take()));
        self.upper[i] = Some(BoundVal { value: bound.clone(), tag });
        self.mark_touched(i);
        if self.is_basic(v) {
            self.mark_dirty(i);
        } else if self.value[i] > bound {
            self.update_nonbasic(v, bound);
        }
        Ok(())
    }

    /// Assert `v ≥ bound`. Returns a conflict if it contradicts the current
    /// upper bound on `v`.
    pub fn assert_lower(
        &mut self,
        v: SimVar,
        bound: DeltaRat,
        tag: Tag,
    ) -> Result<(), TheoryConflict> {
        let i = v.0 as usize;
        if let Some(l) = &self.lower[i] {
            if l.value >= bound {
                return Ok(());
            }
        }
        if let Some(u) = &self.upper[i] {
            if u.value < bound {
                return Err(TheoryConflict::from_farkas(vec![
                    (u.tag, Rat::one()),
                    (tag, Rat::one()),
                ]));
            }
        }
        self.bound_undo.push((v.0, false, self.lower[i].take()));
        self.lower[i] = Some(BoundVal { value: bound.clone(), tag });
        self.mark_touched(i);
        if self.is_basic(v) {
            self.mark_dirty(i);
        } else if self.value[i] < bound {
            self.update_nonbasic(v, bound);
        }
        Ok(())
    }

    /// Change the value of a nonbasic variable, propagating to basic rows.
    fn update_nonbasic(&mut self, v: SimVar, new_val: DeltaRat) {
        let delta = &new_val - &self.value[v.0 as usize];
        for b in 0..self.rows.len() {
            let c = match &self.rows[b] {
                Some(row) => row.effective(v),
                None => None,
            };
            if let Some(c) = c {
                let adj = delta.scale(&c);
                self.value[b] = &self.value[b] + &adj;
                self.mark_dirty(b);
            }
        }
        self.value[v.0 as usize] = new_val;
    }

    /// Pivot to feasibility or produce a conflict.
    pub fn check(&mut self) -> Result<(), TheoryConflict> {
        self.check_until(&Interrupt::none()).expect("an unarmed check always decides")
    }

    /// [`Simplex::check`], giving up with `None` once `stop` fires. It is
    /// polled before every pivot, so the tableau stays consistent and the
    /// next check resumes from it.
    pub fn check_until(&mut self, stop: &Interrupt) -> Option<Result<(), TheoryConflict>> {
        loop {
            // Bland's rule: lowest-index violating basic variable. The dirty
            // set is a superset of the violating basics (every bound
            // tightening and value update marks the rows it may have broken),
            // so scanning it — dropping entries that turn out fine — selects
            // exactly the variable the old full-tableau scan would have.
            let mut violating: Option<(SimVar, bool)> = None; // (var, below_lower)
            let mut k = 0;
            while k < self.dirty.len() {
                let i = self.dirty[k] as usize;
                let mut viol: Option<bool> = None;
                if self.rows[i].is_some() {
                    if let Some(l) = &self.lower[i] {
                        if self.value[i] < l.value {
                            viol = Some(true);
                        }
                    }
                    if viol.is_none() {
                        if let Some(u) = &self.upper[i] {
                            if self.value[i] > u.value {
                                viol = Some(false);
                            }
                        }
                    }
                }
                match viol {
                    Some(below) => {
                        if violating.is_none_or(|(v, _)| SimVar(i as u32) < v) {
                            violating = Some((SimVar(i as u32), below));
                        }
                        k += 1;
                    }
                    None => {
                        self.dirty_flag[i] = false;
                        self.dirty.swap_remove(k);
                    }
                }
            }
            let Some((b, below)) = violating else {
                return Some(Ok(()));
            };
            let bi = b.0 as usize;
            let row = self.rows[bi].as_ref().expect("violating variable is basic");
            // Find a pivot column (lowest index — Bland's rule prevents
            // cycling) and whether every term is bounded in the helpful
            // direction. If it is, propagate bounds: the extreme value the
            // row can reach given the nonbasic bounds. If that extreme
            // still misses `b`'s bound, the system is infeasible *now*:
            // emit the Farkas conflict immediately instead of pivoting
            // toward it. With no pivot column every nonbasic is pinned at
            // its blocking bound, so the row is bounded and the same
            // combination is the conflict. (With bound propagation that
            // dead end is only reachable when a blocked bound equals the
            // reachable extreme exactly.) The Farkas combination uses
            // multiplier 1 for the violated bound on `b` and |scale·c| for
            // each limiting bound: since `b = scale·Σ c·x` holds
            // identically, the variable parts cancel and the constants sum
            // to a negative value.
            let (pivot_col, bounded) = with_entries!(row, es => self.pivot_scan(es, below));
            if bounded {
                let (reach, lams) =
                    with_entries!(row, es => self.extreme_sum(es, &row.scale, below));
                let (own, missed) = if below {
                    let l = self.lower[bi].as_ref().unwrap();
                    (l.tag, reach < l.value)
                } else {
                    let u = self.upper[bi].as_ref().unwrap();
                    (u.tag, reach > u.value)
                };
                if missed || pivot_col.is_none() {
                    let mut farkas = Vec::new();
                    TheoryConflict::add_farkas(&mut farkas, own, Rat::one());
                    for (tag, lam) in lams {
                        TheoryConflict::add_farkas(&mut farkas, tag, lam);
                    }
                    return Some(Err(TheoryConflict::from_farkas(farkas)));
                }
            }
            let j = pivot_col.expect("an unbounded row has a pivot column");
            if stop.triggered() {
                return None;
            }
            let target = if below {
                self.lower[bi].as_ref().unwrap().value.clone()
            } else {
                self.upper[bi].as_ref().unwrap().value.clone()
            };
            self.pivot_and_update(b, j, target);
        }
    }

    fn can_increase(&self, i: usize) -> bool {
        match &self.upper[i] {
            None => true,
            Some(u) => self.value[i] < u.value,
        }
    }

    fn can_decrease(&self, i: usize) -> bool {
        match &self.lower[i] {
            None => true,
            Some(l) => self.value[i] > l.value,
        }
    }

    /// Pivot basic `b` with nonbasic `j` and set `b`'s value to `target`.
    fn pivot_and_update(&mut self, b: SimVar, j: SimVar, target: DeltaRat) {
        self.pivots += 1;
        PIVOTS_TOTAL.fetch_add(1, AtomicOrdering::Relaxed);
        let bi = b.0 as usize;
        let ji = j.0 as usize;
        // `b`'s row is transformed in place into `j`'s row below; no clone.
        let mut row_j = self.rows[bi].take().expect("pivot row is basic");
        let s = std::mem::replace(&mut row_j.scale, Rat::one());
        let a_bj = row_j.remove(j).expect("pivot column must be in row");
        // Value updates: θ = (target − β(b)) / (s·a_bj), the effective
        // pivot coefficient.
        let inv_eff = a_bj.eff(&s).recip();
        let theta = (&target - &self.value[bi]).scale(&inv_eff);
        self.value[bi] = target;
        self.value[ji] = &self.value[ji] + &theta;
        let mut scratch = std::mem::take(&mut self.scratch);
        row_j.solve_for(b, &s, &a_bj, &mut scratch);
        // j is about to become basic with a changed value; its row (and
        // every row whose value shifts below) may now violate a bound.
        // Every other row mentioning j gets its value shifted and x_j
        // substituted out via the shared scratch buffer.
        self.mark_dirty(ji);
        for i in 0..self.rows.len() {
            let Some(row) = self.rows[i].as_mut() else { continue };
            let Some(c) = row.remove(j) else { continue };
            let adj = theta.scale(&c.eff(&row.scale));
            row.substitute(&c, &row_j, &mut scratch);
            self.value[i] = &self.value[i] + &adj;
            self.mark_dirty(i);
        }
        self.scratch = scratch;
        self.rows[ji] = Some(row_j);
    }

    /// Current delta-rational value of a variable (valid after a successful
    /// `check`).
    pub fn raw_value(&self, v: SimVar) -> &DeltaRat {
        &self.value[v.0 as usize]
    }

    /// Concretize the current assignment into plain rationals by choosing a
    /// small positive value for δ that keeps every asserted bound satisfied.
    pub fn concrete_values(&self) -> Vec<Rat> {
        let delta = self.suitable_delta();
        self.value.iter().map(|v| v.eval(&delta)).collect()
    }

    /// A value of δ small enough that substituting it preserves every
    /// asserted bound (standard delta-rational extraction).
    pub fn suitable_delta(&self) -> Rat {
        let mut best = Rat::one();
        for i in 0..self.value.len() {
            let v = &self.value[i];
            if let Some(u) = &self.upper[i] {
                // Need v.real + v.delta·δ ≤ u.real + u.delta·δ.
                let dd = &v.delta - &u.value.delta;
                if dd.is_positive() {
                    let gap = &u.value.real - &v.real;
                    let cand = &gap / &dd;
                    if cand < best {
                        best = cand;
                    }
                }
            }
            if let Some(l) = &self.lower[i] {
                let dd = &l.value.delta - &v.delta;
                if dd.is_positive() {
                    let gap = &v.real - &l.value.real;
                    let cand = &gap / &dd;
                    if cand < best {
                        best = cand;
                    }
                }
            }
        }
        // Halve to stay strictly inside open regions.
        &best * &Rat::new(1i64.into(), 2i64.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::{int, rat};

    fn dr(r: Rat) -> DeltaRat {
        DeltaRat::from(r)
    }

    #[test]
    fn bounds_on_single_var() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, dr(int(2)), 0).unwrap();
        s.assert_upper(x, dr(int(5)), 1).unwrap();
        s.check().unwrap();
        let v = s.raw_value(x);
        assert!(*v >= dr(int(2)) && *v <= dr(int(5)));
    }

    #[test]
    fn expired_deadline_stops_check_before_its_first_pivot() {
        use std::time::{Duration, Instant};
        // x + y ≤ 4, x − y ≤ 2, x ≥ 3: feasible, but only after a pivot.
        let build = || {
            let mut s = Simplex::new();
            let x = s.new_var();
            let y = s.new_var();
            let s1 = s.define_slack(&[(x, int(1)), (y, int(1))]);
            let s2 = s.define_slack(&[(x, int(1)), (y, int(-1))]);
            s.assert_upper(s1, dr(int(4)), 0).unwrap();
            s.assert_upper(s2, dr(int(2)), 1).unwrap();
            s.assert_lower(x, dr(int(3)), 2).unwrap();
            s
        };
        let mut whole = build();
        whole.check().unwrap();
        assert!(whole.pivots > 0);
        let expired = Interrupt::at(Instant::now() - Duration::from_millis(1));
        let mut s = build();
        assert!(s.check_until(&expired).is_none());
        assert_eq!(s.pivots, 0);
        // The stopped tableau resumes to the uninterrupted result.
        s.check().unwrap();
        assert_eq!(s.pivots, whole.pivots);
        assert_eq!(s.concrete_values(), whole.concrete_values());
    }

    #[test]
    fn direct_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, dr(int(5)), 10).unwrap();
        let err = s.assert_upper(x, dr(int(2)), 20).unwrap_err();
        let mut tags = err.tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![10, 20]);
    }

    #[test]
    fn strict_bounds_via_delta() {
        // x < 1 and x > 0 is satisfiable over reals.
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_upper(x, DeltaRat::strictly_below(int(1)), 0).unwrap();
        s.assert_lower(x, DeltaRat::strictly_above(int(0)), 1).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        assert!(vals[0] > int(0) && vals[0] < int(1), "got {}", vals[0]);
    }

    #[test]
    fn strict_conflict() {
        // x < 1 and x > 1 is unsat.
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_upper(x, DeltaRat::strictly_below(int(1)), 0).unwrap();
        let r = s.assert_lower(x, DeltaRat::strictly_above(int(1)), 1);
        assert!(r.is_err());
    }

    #[test]
    fn slack_feasible_system() {
        // x + y <= 4, x - y <= 2, x >= 3  →  y >= 1; satisfiable.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let s1 = s.define_slack(&[(x, int(1)), (y, int(1))]);
        let s2 = s.define_slack(&[(x, int(1)), (y, int(-1))]);
        s.assert_upper(s1, dr(int(4)), 0).unwrap();
        s.assert_upper(s2, dr(int(2)), 1).unwrap();
        s.assert_lower(x, dr(int(3)), 2).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        let (xv, yv) = (vals[x.0 as usize].clone(), vals[y.0 as usize].clone());
        assert!(&xv + &yv <= int(4));
        assert!(&xv - &yv <= int(2));
        assert!(xv >= int(3));
    }

    #[test]
    fn slack_infeasible_system_with_explanation() {
        // x + y <= 1, x >= 1, y >= 1 : conflict must involve all three.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.define_slack(&[(x, int(1)), (y, int(1))]);
        s.assert_upper(sum, dr(int(1)), 100).unwrap();
        s.assert_lower(x, dr(int(1)), 101).unwrap();
        s.assert_lower(y, dr(int(1)), 102).unwrap();
        let err = s.check().unwrap_err();
        let mut tags = err.tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![100, 101, 102]);
    }

    #[test]
    fn reset_bounds_allows_reuse() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.define_slack(&[(x, int(1)), (y, int(1))]);
        s.assert_upper(sum, dr(int(1)), 0).unwrap();
        s.assert_lower(x, dr(int(1)), 1).unwrap();
        s.assert_lower(y, dr(int(1)), 2).unwrap();
        assert!(s.check().is_err());
        s.reset_bounds();
        s.assert_upper(sum, dr(int(10)), 0).unwrap();
        s.assert_lower(x, dr(int(1)), 1).unwrap();
        s.assert_lower(y, dr(int(1)), 2).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        assert!(&vals[x.0 as usize] + &vals[y.0 as usize] <= int(10));
    }

    #[test]
    fn fractional_coefficients() {
        // 0.5x + 1.5y <= 3, x >= 2, y >= 1 → 1 + 1.5 = 2.5 <= 3 ok.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let e = s.define_slack(&[(x, rat(1, 2)), (y, rat(3, 2))]);
        s.assert_upper(e, dr(int(3)), 0).unwrap();
        s.assert_lower(x, dr(int(2)), 1).unwrap();
        s.assert_lower(y, dr(int(1)), 2).unwrap();
        s.check().unwrap();
    }

    #[test]
    fn equality_via_two_bounds() {
        // x + y = 5 (as <= and >=), x = 2 → y = 3.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.define_slack(&[(x, int(1)), (y, int(1))]);
        s.assert_upper(sum, dr(int(5)), 0).unwrap();
        s.assert_lower(sum, dr(int(5)), 1).unwrap();
        s.assert_upper(x, dr(int(2)), 2).unwrap();
        s.assert_lower(x, dr(int(2)), 3).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        assert_eq!(vals[y.0 as usize], int(3));
    }

    #[test]
    fn chained_slacks_substitute_basic_vars() {
        // s1 = x + y; force pivots; then s2 = s1 + x must still be correct.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let s1 = s.define_slack(&[(x, int(1)), (y, int(1))]);
        s.assert_lower(s1, dr(int(4)), 0).unwrap();
        s.check().unwrap();
        let s2 = s.define_slack(&[(s1, int(1)), (x, int(1))]);
        s.assert_upper(s2, dr(int(10)), 1).unwrap();
        s.assert_lower(x, dr(int(1)), 2).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        let (xv, yv) = (vals[x.0 as usize].clone(), vals[y.0 as usize].clone());
        assert!(&xv + &yv >= int(4));
        assert!(&(&xv + &yv) + &xv <= int(10));
        assert!(xv >= int(1));
    }

    #[test]
    fn pop_restores_tableau_shape() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sxy = s.define_slack(&[(x, int(1)), (y, int(1))]);
        s.assert_lower(sxy, dr(int(4)), 0).unwrap();
        s.check().unwrap();
        s.push();
        // Scope: a new slack plus bounds that force pivoting on base rows.
        let sxmy = s.define_slack(&[(x, int(1)), (y, int(-1))]);
        s.assert_upper(sxmy, dr(int(0)), 1).unwrap();
        s.assert_upper(x, dr(int(1)), 2).unwrap();
        s.check().unwrap();
        s.pop();
        assert_eq!(s.num_vars(), 3, "scope slack must be dropped");
        // The base system solves again after the rollback.
        s.assert_lower(sxy, dr(int(4)), 0).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        assert!(&vals[0] + &vals[1] >= int(4));
    }

    #[test]
    fn bound_propagation_reports_full_conflict_without_pivoting() {
        // s = 2x + 3y with x ≤ 1, y ≤ 1 can reach at most 5; s ≥ 6 is
        // infeasible by bound propagation alone. The conflict must cite
        // all three bounds with Farkas multipliers matching the row
        // coefficients (scale 1 here).
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.define_slack(&[(x, int(2)), (y, int(3))]);
        s.assert_upper(x, dr(int(1)), 1).unwrap();
        s.assert_upper(y, dr(int(1)), 2).unwrap();
        s.assert_lower(sl, dr(int(6)), 0).unwrap();
        let pivots_before = s.pivots;
        let err = s.check().unwrap_err();
        assert_eq!(s.pivots, pivots_before, "propagation must fire before any pivot");
        let mut tags = err.tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1, 2]);
        let lam = |t: Tag| err.farkas.iter().find(|e| e.0 == t).map(|e| e.1.clone());
        assert_eq!(lam(0), Some(int(1)));
        assert_eq!(lam(1), Some(int(2)));
        assert_eq!(lam(2), Some(int(3)));
    }

    #[test]
    fn huge_shared_factors_are_confined_to_the_row_scale() {
        // Coefficients sharing a > 2^63 factor: the primitive form must
        // keep every stored entry on the i64 fast path (the factor lives in
        // the row scale) while the system still solves exactly.
        let huge = Rat::new(
            &ccmatic_num::BigInt::from(i64::MAX) * &ccmatic_num::BigInt::from(4i64),
            ccmatic_num::BigInt::one(),
        );
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sl = s.define_slack(&[(x, &huge * &int(1)), (y, &huge * &int(2))]);
        for row in s.rows.iter().flatten() {
            assert!(
                row.iter().all(|(_, c)| c.to_i64().is_some()),
                "a big entry left the row scale: {:?}",
                row.entries
            );
        }
        // huge·x + 2·huge·y = 3·huge has the solution x = y = 1.
        let rhs = &huge * &int(3);
        s.assert_upper(sl, dr(rhs.clone()), 0).unwrap();
        s.assert_lower(sl, dr(rhs.clone()), 1).unwrap();
        s.assert_lower(x, dr(int(1)), 2).unwrap();
        s.assert_upper(x, dr(int(1)), 3).unwrap();
        s.check().unwrap();
        let vals = s.concrete_values();
        assert_eq!(vals[y.0 as usize], int(1));
    }

    #[test]
    fn pivoting_keeps_entry_magnitudes_from_compounding() {
        // A chain of fractional-coefficient slacks pivoted repeatedly: the
        // rational factors must accumulate in row scales, leaving every
        // stored entry on the i64 fast path.
        let mut s = Simplex::new();
        let vars: Vec<SimVar> = (0..4).map(|_| s.new_var()).collect();
        let mut slacks = Vec::new();
        for w in vars.windows(2) {
            slacks.push(s.define_slack(&[(w[0], rat(1, 3)), (w[1], rat(5, 7))]));
        }
        for (i, sl) in slacks.iter().enumerate() {
            s.assert_lower(*sl, dr(int(i as i64 + 1)), i as u32).unwrap();
        }
        s.assert_upper(vars[0], dr(int(0)), 100).unwrap();
        s.check().unwrap();
        assert!(s.pivots > 0, "the chain must force pivoting");
        for row in s.rows.iter().flatten() {
            assert!(row.scale.is_positive(), "row scale must stay positive");
            assert!(row.iter().all(|(_, c)| c.to_i64().is_some()));
        }
        // The model still satisfies every constraint exactly.
        let vals = s.concrete_values();
        for (i, w) in vars.windows(2).enumerate() {
            let lhs =
                &(&vals[w[0].0 as usize] * &rat(1, 3)) + &(&vals[w[1].0 as usize] * &rat(5, 7));
            assert!(lhs >= int(i as i64 + 1), "slack {i} violated: {lhs}");
        }
    }

    /// Independent oracle for the tableau of a basis: Gauss-Jordan
    /// elimination over `Rat` on the defining equations `s − Σ a·x = 0`
    /// (one per slack, over the full variable set). Returns, per basic
    /// variable, its coefficient on every nonbasic variable.
    fn oracle_tableau(
        n: usize,
        defs: &[(usize, Vec<(SimVar, Rat)>)],
        basic: &[usize],
    ) -> BTreeMap<usize, Vec<Rat>> {
        let mut m: Vec<Vec<Rat>> = defs
            .iter()
            .map(|(s, expr)| {
                let mut r = vec![Rat::zero(); n];
                r[*s] = Rat::one();
                for (v, c) in expr {
                    r[v.0 as usize] = &r[v.0 as usize] - c;
                }
                r
            })
            .collect();
        let mut owner = BTreeMap::new();
        let mut used = vec![false; m.len()];
        for &b in basic {
            let r = (0..m.len()).find(|&r| !used[r] && !m[r][b].is_zero()).expect("basis");
            used[r] = true;
            let inv = m[r][b].recip();
            for c in m[r].iter_mut() {
                *c = &*c * &inv;
            }
            let pivot = m[r].clone();
            for (o, row) in m.iter_mut().enumerate() {
                if o != r && !row[b].is_zero() {
                    let k = row[b].clone();
                    for (x, y) in row.iter_mut().zip(&pivot) {
                        *x = &*x - &(&k * y);
                    }
                }
            }
            owner.insert(b, r);
        }
        // Row r reads b + Σ_{nonbasic} m·x = 0, so b = −Σ m·x.
        owner
            .into_iter()
            .map(|(b, r)| {
                let coeffs = (0..n)
                    .map(|col| if basic.contains(&col) { Rat::zero() } else { -&m[r][col] })
                    .collect();
                (b, coeffs)
            })
            .collect()
    }

    fn is_words(row: &Row) -> bool {
        matches!(row.entries, Entries::Words(_))
    }

    fn words(row: &Row) -> &[(SimVar, i64)] {
        match &row.entries {
            Entries::Words(es) => es,
            Entries::Big(_) => panic!("row is spilled"),
        }
    }

    /// A random nonbasic variable of a random nonempty basic row, or `None`
    /// if every row is empty.
    fn random_pivot(s: &Simplex, rng: &mut ccmatic_num::SmallRng) -> Option<(SimVar, SimVar)> {
        let basic: Vec<usize> = (0..s.num_vars())
            .filter(|&i| s.rows[i].as_ref().is_some_and(|r| r.iter().next().is_some()))
            .collect();
        if basic.is_empty() {
            return None;
        }
        let b = basic[rng.gen_range_usize(0, basic.len())];
        let vars: Vec<SimVar> = s.rows[b].as_ref().unwrap().iter().map(|e| e.0).collect();
        Some((SimVar(b as u32), vars[rng.gen_range_usize(0, vars.len())]))
    }

    /// Every row is primitive (nonzero integer entries with gcd 1, sorted,
    /// positive scale), in word form exactly when every entry fits an
    /// `i64`, and its effective coefficients are the oracle's.
    fn assert_canonical(s: &Simplex, defs: &[(usize, Vec<(SimVar, Rat)>)]) {
        let n = s.num_vars();
        let basic: Vec<usize> = (0..n).filter(|&i| s.rows[i].is_some()).collect();
        let oracle = oracle_tableau(n, defs, &basic);
        for &b in &basic {
            let row = s.rows[b].as_ref().unwrap();
            let entries: Vec<(SimVar, BigInt)> = row.iter().collect();
            assert!(row.scale.is_positive(), "row {b}: scale {} not positive", row.scale);
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "row {b}: unsorted");
            let g = entries.iter().fold(BigInt::zero(), |g, (_, c)| g.gcd(c));
            if entries.is_empty() {
                assert_eq!(row.scale, Rat::one(), "row {b}: empty row must have scale 1");
            } else {
                assert_eq!(g, BigInt::one(), "row {b}: entries {entries:?} not primitive");
            }
            let fits = entries.iter().all(|(_, c)| c.to_i64().is_some());
            assert_eq!(is_words(row), fits, "row {b}: word form iff every entry fits an i64");
            for (col, want) in oracle[&b].iter().enumerate() {
                let got = row.effective(SimVar(col as u32)).unwrap_or_else(Rat::zero);
                assert_eq!(&got, want, "row {b}, column {col}");
            }
        }
    }

    #[test]
    fn random_pivots_keep_rows_primitive_and_equal_to_the_rational_oracle() {
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(11);
        // Coefficients mix small integers, fractions and > 2^63 factors so
        // both the fast path and promoted entries are exercised.
        let huge = Rat::from(&BigInt::from(i64::MAX) * &BigInt::from(6i64));
        let coeff = |rng: &mut SmallRng| -> Rat {
            let n = rng.gen_range_i64(-4, 5);
            match rng.gen_range_usize(0, 4) {
                0 => rat(n, rng.gen_range_i64(1, 8)),
                1 => &huge * &int(n),
                _ => int(n),
            }
        };
        let mut total_pivots = 0;
        for _ in 0..30 {
            let mut s = Simplex::new();
            for _ in 0..rng.gen_range_usize(2, 6) {
                s.new_var();
            }
            let mut defs = Vec::new();
            for _ in 0..rng.gen_range_usize(1, 7) {
                // Definitions may reference earlier slacks (substituted by
                // their rows) as well as problem variables.
                let pool = s.num_vars();
                let expr: Vec<(SimVar, Rat)> = (0..rng.gen_range_usize(1, 5))
                    .map(|_| (SimVar(rng.gen_range_usize(0, pool) as u32), coeff(&mut rng)))
                    .collect();
                let sl = s.define_slack(&expr);
                defs.push((sl.0 as usize, expr));
            }
            assert_canonical(&s, &defs);
            for _ in 0..12 {
                let Some((b, j)) = random_pivot(&s, &mut rng) else { break };
                let target = s.value[b.0 as usize].clone();
                s.pivot_and_update(b, j, target);
                total_pivots += 1;
                assert_canonical(&s, &defs);
            }
        }
        assert!(total_pivots > 100, "only {total_pivots} pivots exercised");
    }

    fn row(entries: &[(u32, i64)], scale: Rat) -> Row {
        Row {
            entries: Entries::Words(entries.iter().map(|&(v, e)| (SimVar(v), e)).collect()),
            scale,
        }
    }

    #[test]
    fn word_merge_overflowing_partway_falls_back_from_the_untouched_row() {
        // x1 = (3/5)·(x0 + x2) substituted into 1·x0 + 2·x1 + (2^62+1)·x2
        // + x3: the merge writes x0's word (5 + 6 = 11), then 5·(2^62+1)
        // overflows.
        let big = (1i64 << 62) + 1;
        let sub = row(&[(0, 1), (2, 1)], rat(3, 5));
        let c = BigInt::from(2i64);
        let mut r = row(&[(0, 1), (2, big), (3, 1)], Rat::one());
        let mut partial = Vec::new();
        assert_eq!(merge_words(words(&r), &c, words(&sub), &sub.scale, &mut partial), None);
        assert_eq!(partial.len(), 1, "the overflow must come after a merged word");
        let mut want = r.clone();
        want.substitute_big(&c, &sub);
        r.substitute(&c, &sub, &mut partial);
        assert_eq!((&r.entries, &r.scale), (&want.entries, &want.scale));
        // And both are the rational substitution.
        let six_fifths = rat(6, 5);
        let expect = [
            (0, &int(1) + &six_fifths),
            (2, &Rat::from(BigInt::from(big)) + &six_fifths),
            (3, int(1)),
        ];
        for (v, e) in expect {
            assert_eq!(r.effective(SimVar(v)), Some(e), "x{v}");
        }
        assert!(r.iter().any(|(_, e)| e.to_i64().is_none()), "the result promotes");
    }

    #[test]
    fn word_merge_matches_the_bigint_merge_on_random_rows() {
        use ccmatic_num::SmallRng;
        fn entry(rng: &mut SmallRng) -> i64 {
            let e = match rng.gen_range_usize(0, 32) {
                0 => (1i64 << 62) + rng.gen_range_i64(-3, 4),
                1 => -(1i64 << 62) + rng.gen_range_i64(-3, 4),
                2..=5 => rng.gen_range_i64(-(1 << 20), 1 << 20),
                _ => rng.gen_range_i64(-9, 10),
            };
            if e == 0 {
                1
            } else {
                e
            }
        }
        fn draw(rng: &mut SmallRng) -> Vec<(u32, i64)> {
            let mut entries = Vec::new();
            for v in 0..8 {
                if rng.gen_bool(0.6) {
                    entries.push((v, entry(rng)));
                }
            }
            entries
        }
        let mut rng = SmallRng::seed_from_u64(12);
        let (mut word_merges, mut fallbacks) = (0, 0);
        for _ in 0..4_000 {
            let (own, other) = (draw(&mut rng), draw(&mut rng));
            let scale =
                |rng: &mut SmallRng| rat(rng.gen_range_i64(1, 40), rng.gen_range_i64(1, 40));
            let sub = row(&other, scale(&mut rng));
            let mut r = row(&own, scale(&mut rng));
            let c = BigInt::from(entry(&mut rng));
            match merge_words(words(&r), &c, words(&sub), &sub.scale, &mut Vec::new()) {
                Some(_) => word_merges += 1,
                None => fallbacks += 1,
            }
            let mut want = r.clone();
            want.substitute_big(&c, &sub);
            r.substitute(&c, &sub, &mut Vec::new());
            assert_eq!(r.entries, want.entries);
            assert_eq!(r.scale, want.scale);
        }
        assert!(
            word_merges > 500 && fallbacks > 500,
            "{word_merges} word merges, {fallbacks} fallbacks"
        );
    }

    #[test]
    fn pivots_with_entries_near_2_62_match_the_rational_oracle() {
        // Sibling of the test above with coefficients near 2^62, so word
        // merges overflow partway through rows and fall back mid-run.
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(13);
        let coeff = |rng: &mut SmallRng| -> Rat {
            match rng.gen_range_usize(0, 3) {
                0 => int((1i64 << 62) + rng.gen_range_i64(-2, 3)),
                1 => rat(rng.gen_range_i64(-4, 5), rng.gen_range_i64(1, 6)),
                _ => int(rng.gen_range_i64(-4, 5)),
            }
        };
        let (mut total_pivots, mut promoted_rows) = (0, 0);
        for _ in 0..30 {
            let mut s = Simplex::new();
            for _ in 0..rng.gen_range_usize(2, 6) {
                s.new_var();
            }
            let mut defs = Vec::new();
            for _ in 0..rng.gen_range_usize(2, 7) {
                let pool = s.num_vars();
                let expr: Vec<(SimVar, Rat)> = (0..rng.gen_range_usize(1, 5))
                    .map(|_| (SimVar(rng.gen_range_usize(0, pool) as u32), coeff(&mut rng)))
                    .collect();
                let sl = s.define_slack(&expr);
                defs.push((sl.0 as usize, expr));
            }
            for _ in 0..12 {
                let Some((b, j)) = random_pivot(&s, &mut rng) else { break };
                let target = s.value[b.0 as usize].clone();
                s.pivot_and_update(b, j, target);
                total_pivots += 1;
                assert_canonical(&s, &defs);
                promoted_rows += s
                    .rows
                    .iter()
                    .flatten()
                    .filter(|r| r.iter().any(|(_, e)| e.to_i64().is_none()))
                    .count();
            }
        }
        assert!(total_pivots > 100, "only {total_pivots} pivots exercised");
        assert!(promoted_rows > 0, "no merge left the word range");
    }

    #[test]
    fn rows_spill_to_bigint_and_return_to_words() {
        // Entries near 2^62 overflow word merges and pivot rewrites. After
        // every pivot each row must be primitive, equal to the rational
        // oracle, and in word form exactly when every entry fits an `i64`
        // (`assert_canonical`); tracking each basic row's form across the
        // pivot shows both directions happen.
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(14);
        let coeff = |rng: &mut SmallRng| -> Rat {
            let near = (1i64 << 62) + rng.gen_range_i64(-2, 3);
            match rng.gen_range_usize(0, 4) {
                0 => int(near),
                1 => int(-near),
                2 => rat(rng.gen_range_i64(-4, 5), rng.gen_range_i64(1, 6)),
                _ => int(rng.gen_range_i64(-4, 5)),
            }
        };
        let forms = |s: &Simplex| -> Vec<Option<bool>> {
            s.rows.iter().map(|r| r.as_ref().map(is_words)).collect()
        };
        let (mut spills, mut returns) = (0, 0);
        for _ in 0..40 {
            let mut s = Simplex::new();
            for _ in 0..rng.gen_range_usize(3, 6) {
                s.new_var();
            }
            let mut defs = Vec::new();
            for _ in 0..rng.gen_range_usize(2, 7) {
                let pool = s.num_vars();
                let expr: Vec<(SimVar, Rat)> = (0..rng.gen_range_usize(2, 5))
                    .map(|_| (SimVar(rng.gen_range_usize(0, pool) as u32), coeff(&mut rng)))
                    .collect();
                let sl = s.define_slack(&expr);
                defs.push((sl.0 as usize, expr));
            }
            assert_canonical(&s, &defs);
            for _ in 0..12 {
                let before = forms(&s);
                let Some((b, j)) = random_pivot(&s, &mut rng) else { break };
                let target = s.value[b.0 as usize].clone();
                s.pivot_and_update(b, j, target);
                assert_canonical(&s, &defs);
                for (was, is) in before.iter().zip(forms(&s)) {
                    match (was, is) {
                        (Some(true), Some(false)) => spills += 1,
                        (Some(false), Some(true)) => returns += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(spills > 50 && returns > 50, "{spills} spills, {returns} returns to words");
    }

    #[test]
    fn many_random_systems_match_feasibility_oracle() {
        // Random interval systems on 2 vars: a·x + b·y ∈ [lo, hi]. Compare
        // against a coarse grid-search oracle for satisfiability. The grid
        // uses quarter steps so any system satisfiable on the grid must be
        // accepted by the simplex (completeness direction only).
        use ccmatic_num::SmallRng;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..40 {
            let n_cons = rng.gen_range_usize(1, 5);
            let cons: Vec<(i64, i64, i64)> = (0..n_cons)
                .map(|_| {
                    (rng.gen_range_i64(-2, 3), rng.gen_range_i64(-2, 3), rng.gen_range_i64(-4, 5))
                })
                .collect();
            // Oracle: any grid point satisfying all a·x+b·y <= c?
            let mut grid_sat = false;
            'grid: for xi in -12..=12 {
                for yi in -12..=12 {
                    // x = xi/4, y = yi/4
                    if cons.iter().all(|&(a, b, c)| a * xi + b * yi <= 4 * c) {
                        grid_sat = true;
                        break 'grid;
                    }
                }
            }
            let mut s = Simplex::new();
            let x = s.new_var();
            let y = s.new_var();
            let mut ok = true;
            for (i, &(a, b, c)) in cons.iter().enumerate() {
                let sl = s.define_slack(&[(x, int(a)), (y, int(b))]);
                if s.assert_upper(sl, dr(int(c)), i as u32).is_err() {
                    ok = false;
                    break;
                }
            }
            let feasible = ok && s.check().is_ok();
            if grid_sat {
                assert!(feasible, "simplex rejected a grid-satisfiable system {cons:?}");
            }
            if feasible {
                // Soundness: model must satisfy every constraint.
                let vals = s.concrete_values();
                let (xv, yv) = (vals[x.0 as usize].clone(), vals[y.0 as usize].clone());
                for &(a, b, c) in &cons {
                    let lhs = &(&xv * &int(a)) + &(&yv * &int(b));
                    assert!(lhs <= int(c), "model violates {a}x+{b}y<={c}");
                }
            }
        }
    }
}
