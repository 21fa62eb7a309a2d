//! A small, sound and complete SMT solver for quantifier-free linear real
//! arithmetic (QF-LRA).
//!
//! This crate is the solver substrate for the CCmatic reproduction. The
//! paper uses Z3; per the reproduction rules we build the required fragment
//! from scratch:
//!
//! * [`Context`] — hash-consed term arena for Boolean structure over linear
//!   arithmetic atoms ([`term`]).
//! * [`cnf`] — polarity-aware Tseitin conversion into clauses, with
//!   canonicalized arithmetic atoms ([`atom`]).
//! * [`sat`] — a CDCL SAT solver: two-watched-literal propagation, first-UIP
//!   clause learning, VSIDS branching, phase saving, Luby restarts,
//!   incremental clause addition.
//! * [`lra`] — a general-simplex theory solver for conjunctions of linear
//!   bounds over delta-rationals (strict inequalities via an infinitesimal),
//!   producing Farkas-style conflict explanations.
//! * [`Solver`] — the lazy DPLL(T) combination: the SAT core enumerates
//!   Boolean models, the simplex checks the implied conjunction of bounds,
//!   and theory conflicts come back as blocking clauses.
//! * [`opt`] — optimization (maximize a linear objective) by binary search
//!   over solver calls, as used by the paper's "worst-case counterexample"
//!   generation.
//!
//! # Example
//!
//! ```
//! use ccmatic_smt::{Context, Solver, SatResult};
//! use ccmatic_num::{int, rat};
//!
//! let mut ctx = Context::new();
//! let x = ctx.real_var("x");
//! let y = ctx.real_var("y");
//! let xe = ctx.var(x);
//! let ye = ctx.var(y);
//! // x + y <= 1  /\  x >= 0.75  /\  (y > 0.5 \/ x < 0)
//! let sum = ctx.add(xe.clone(), ye.clone());
//! let one = ctx.constant(int(1));
//! let c1 = ctx.le(sum, one);
//! let c2 = ctx.ge(xe.clone(), ctx.constant(rat(3, 4)));
//! let g = ctx.gt(ye, ctx.constant(rat(1, 2)));
//! let l = ctx.lt(xe, ctx.constant(int(0)));
//! let c3 = ctx.or(vec![g, l]);
//! let f = ctx.and(vec![c1, c2, c3]);
//! let mut solver = Solver::new();
//! solver.assert(&ctx, f);
//! assert_eq!(solver.check(&ctx), SatResult::Unsat);
//! ```

pub mod atom;
pub mod cnf;
pub mod interrupt;
pub mod linexpr;
pub mod lra;
pub mod opt;
pub mod sat;
pub mod solver;
pub mod term;

pub use interrupt::Interrupt;
pub use linexpr::LinExpr;
pub use opt::{maximize_scoped, MaximizeOutcome, MaximizeParams};
pub use solver::{theory_counters, Model, SatResult, Solver, SolverStats, TheoryCounters};
pub use term::{Context, RealVar, Term};
