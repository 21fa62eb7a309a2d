//! Hash-consed Boolean terms over linear-arithmetic atoms.
//!
//! A [`Context`] owns an arena of structurally-deduplicated terms, the
//! canonical-atom table, and the real/Boolean variable namespaces. Terms
//! are plain `u32` handles into their context; building the same term twice
//! yields the same handle, so formula DAGs stay compact even when encodings
//! share large sub-structures (which the CCAC encoding does heavily).

use crate::atom::{canonicalize, AtomData, AtomId, Canonical, Rel};
use crate::linexpr::LinExpr;
use ccmatic_num::Rat;
use std::collections::HashMap;
use std::fmt;

/// A real-valued variable handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RealVar(pub u32);

/// A Boolean variable handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BoolVar(pub u32);

/// A term handle; only meaningful together with the [`Context`] that
/// created it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Term(pub u32);

/// The structure of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermData {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// Free Boolean variable.
    BoolVar(BoolVar),
    /// A canonical linear atom (see [`crate::atom`]).
    Atom(AtomId),
    /// Negation.
    Not(Term),
    /// N-ary conjunction (argument order preserved, duplicates removed).
    And(Box<[Term]>),
    /// N-ary disjunction.
    Or(Box<[Term]>),
}

/// Arena of hash-consed terms plus variable and atom tables.
#[derive(Default)]
pub struct Context {
    terms: Vec<TermData>,
    term_map: HashMap<TermData, Term>,
    atoms: Vec<AtomData>,
    atom_map: HashMap<AtomData, AtomId>,
    real_names: Vec<String>,
    bool_names: Vec<String>,
}

impl Context {
    /// Create an empty context.
    pub fn new() -> Self {
        Context::default()
    }

    /// Allocate a fresh real variable. Names are for diagnostics only and
    /// need not be unique.
    pub fn real_var(&mut self, name: impl Into<String>) -> RealVar {
        let id = RealVar(self.real_names.len() as u32);
        self.real_names.push(name.into());
        id
    }

    /// Allocate a fresh Boolean variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> Term {
        let id = BoolVar(self.bool_names.len() as u32);
        self.bool_names.push(name.into());
        self.intern(TermData::BoolVar(id))
    }

    /// The term data behind a handle.
    pub fn data(&self, t: Term) -> &TermData {
        &self.terms[t.0 as usize]
    }

    /// The atom data behind an atom id.
    pub fn atom(&self, a: AtomId) -> &AtomData {
        &self.atoms[a.0 as usize]
    }

    /// Number of interned atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    fn intern(&mut self, data: TermData) -> Term {
        if let Some(&t) = self.term_map.get(&data) {
            return t;
        }
        let t = Term(self.terms.len() as u32);
        self.terms.push(data.clone());
        self.term_map.insert(data, t);
        t
    }

    fn intern_atom(&mut self, data: AtomData) -> AtomId {
        if let Some(&a) = self.atom_map.get(&data) {
            return a;
        }
        let a = AtomId(self.atoms.len() as u32);
        self.atoms.push(data.clone());
        self.atom_map.insert(data, a);
        a
    }

    /// Constant true.
    pub fn tru(&mut self) -> Term {
        self.intern(TermData::True)
    }

    /// Constant false.
    pub fn fls(&mut self) -> Term {
        self.intern(TermData::False)
    }

    /// Logical negation, with double-negation and constant folding.
    pub fn not(&mut self, t: Term) -> Term {
        match self.data(t) {
            TermData::True => self.fls(),
            TermData::False => self.tru(),
            TermData::Not(inner) => *inner,
            _ => self.intern(TermData::Not(t)),
        }
    }

    /// N-ary conjunction with unit/absorbing folding.
    pub fn and(&mut self, ts: Vec<Term>) -> Term {
        let tru = self.tru();
        let fls = self.fls();
        let mut args = Vec::with_capacity(ts.len());
        for t in ts {
            if t == fls {
                return fls;
            }
            if t != tru && !args.contains(&t) {
                args.push(t);
            }
        }
        match args.len() {
            0 => tru,
            1 => args[0],
            _ => self.intern(TermData::And(args.into_boxed_slice())),
        }
    }

    /// N-ary disjunction with unit/absorbing folding.
    pub fn or(&mut self, ts: Vec<Term>) -> Term {
        let tru = self.tru();
        let fls = self.fls();
        let mut args = Vec::with_capacity(ts.len());
        for t in ts {
            if t == tru {
                return tru;
            }
            if t != fls && !args.contains(&t) {
                args.push(t);
            }
        }
        match args.len() {
            0 => fls,
            1 => args[0],
            _ => self.intern(TermData::Or(args.into_boxed_slice())),
        }
    }

    /// Implication `a → b`, encoded as `¬a ∨ b`.
    pub fn implies(&mut self, a: Term, b: Term) -> Term {
        let na = self.not(a);
        self.or(vec![na, b])
    }

    /// Biconditional `a ↔ b`, encoded as `(a → b) ∧ (b → a)`.
    pub fn iff(&mut self, a: Term, b: Term) -> Term {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(vec![ab, ba])
    }

    /// Boolean if-then-else `c ? t : e`.
    pub fn ite(&mut self, c: Term, t: Term, e: Term) -> Term {
        let ct = self.implies(c, t);
        let nce = {
            let nc = self.not(c);
            self.implies(nc, e)
        };
        self.and(vec![ct, nce])
    }

    fn ineq(&mut self, lhs: LinExpr, rhs: LinExpr, rel: Rel) -> Term {
        match canonicalize(&lhs, &rhs, rel) {
            Canonical::Const(true) => self.tru(),
            Canonical::Const(false) => self.fls(),
            Canonical::Atom { data, negated } => {
                let a = self.intern_atom(data);
                let t = self.intern(TermData::Atom(a));
                if negated {
                    self.not(t)
                } else {
                    t
                }
            }
        }
    }

    /// `lhs ≤ rhs`.
    pub fn le(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        self.ineq(lhs, rhs, Rel::Le)
    }

    /// `lhs < rhs`.
    pub fn lt(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        self.ineq(lhs, rhs, Rel::Lt)
    }

    /// `lhs ≥ rhs`.
    pub fn ge(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        self.ineq(lhs, rhs, Rel::Ge)
    }

    /// `lhs > rhs`.
    pub fn gt(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        self.ineq(lhs, rhs, Rel::Gt)
    }

    /// `lhs = rhs`, split into `lhs ≤ rhs ∧ lhs ≥ rhs` so every theory atom
    /// stays a single bound.
    pub fn eq(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        let le = self.le(lhs.clone(), rhs.clone());
        let ge = self.ge(lhs, rhs);
        self.and(vec![le, ge])
    }

    /// `lhs ≠ rhs`.
    pub fn ne(&mut self, lhs: LinExpr, rhs: LinExpr) -> Term {
        let e = self.eq(lhs, rhs);
        self.not(e)
    }

    /// Convenience: the expression for a single variable.
    pub fn var(&self, x: RealVar) -> LinExpr {
        LinExpr::var(x)
    }

    /// Convenience: a constant expression.
    pub fn constant(&self, k: Rat) -> LinExpr {
        LinExpr::constant(k)
    }

    /// Convenience: expression addition (also available as `LinExpr + LinExpr`).
    pub fn add(&self, a: LinExpr, b: LinExpr) -> LinExpr {
        a + b
    }

    /// Pretty-print a term for diagnostics.
    pub fn display(&self, t: Term) -> String {
        match self.data(t) {
            TermData::True => "true".into(),
            TermData::False => "false".into(),
            TermData::BoolVar(b) => self.bool_names[b.0 as usize].clone(),
            TermData::Atom(a) => format!("({})", self.atom(*a)),
            TermData::Not(x) => format!("¬{}", self.display(*x)),
            TermData::And(xs) => {
                let parts: Vec<_> = xs.iter().map(|x| self.display(*x)).collect();
                format!("({})", parts.join(" ∧ "))
            }
            TermData::Or(xs) => {
                let parts: Vec<_> = xs.iter().map(|x| self.display(*x)).collect();
                format!("({})", parts.join(" ∨ "))
            }
        }
    }
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Context {{ terms: {}, atoms: {}, reals: {}, bools: {} }}",
            self.terms.len(),
            self.atoms.len(),
            self.real_names.len(),
            self.bool_names.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::int;

    #[test]
    fn hash_consing_dedups() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let a1 = ctx.le(ctx.var(x), ctx.constant(int(3)));
        let a2 = ctx.le(ctx.var(x), ctx.constant(int(3)));
        assert_eq!(a1, a2);
        let n1 = ctx.not(a1);
        let n2 = ctx.not(a2);
        assert_eq!(n1, n2);
        assert_eq!(ctx.not(n1), a1, "double negation collapses");
    }

    #[test]
    fn and_or_folding() {
        let mut ctx = Context::new();
        let t = ctx.tru();
        let f = ctx.fls();
        let b = ctx.bool_var("b");
        assert_eq!(ctx.and(vec![t, b]), b);
        assert_eq!(ctx.and(vec![f, b]), f);
        assert_eq!(ctx.or(vec![f, b]), b);
        assert_eq!(ctx.or(vec![t, b]), t);
        assert_eq!(ctx.and(vec![]), t);
        assert_eq!(ctx.or(vec![]), f);
        assert_eq!(ctx.and(vec![b, b]), b);
    }

    #[test]
    fn equality_splits() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let e = ctx.eq(ctx.var(x), ctx.constant(int(2)));
        match ctx.data(e) {
            TermData::And(args) => assert_eq!(args.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn trivial_atoms_fold() {
        let mut ctx = Context::new();
        let t = ctx.le(ctx.constant(int(1)), ctx.constant(int(2)));
        assert_eq!(t, ctx.tru());
        let f = ctx.gt(ctx.constant(int(1)), ctx.constant(int(2)));
        assert_eq!(f, ctx.fls());
        assert_eq!(ctx.num_atoms(), 0);
    }

    #[test]
    fn ge_shares_atom_with_lt() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let lt = ctx.lt(ctx.var(x), ctx.constant(int(5)));
        let ge = ctx.ge(ctx.var(x), ctx.constant(int(5)));
        assert_eq!(ctx.not(lt), ge);
        assert_eq!(ctx.num_atoms(), 1);
    }

    #[test]
    fn display_smoke() {
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let a = ctx.le(ctx.var(x), ctx.constant(int(3)));
        let b = ctx.bool_var("flag");
        let f = ctx.and(vec![a, b]);
        let s = ctx.display(f);
        assert!(s.contains("≤"));
        assert!(s.contains("flag"));
    }
}
