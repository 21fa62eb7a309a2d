//! Randomized differential testing of the full DPLL(T) pipeline.
//!
//! Random Boolean combinations of small linear atoms over a 2-D rational
//! grid are checked against a brute-force oracle: if any grid point
//! satisfies the formula, the solver must report Sat (completeness on grid
//! witnesses); whenever the solver reports Sat, its model must actually
//! satisfy the formula (soundness, checked exactly).

use ccmatic_num::{int, rat, Rat, SmallRng};
use ccmatic_smt::{Context, LinExpr, SatResult, Solver, Term};

/// A randomly generated formula AST we can both encode and evaluate.
#[derive(Debug, Clone)]
enum F {
    Atom { a: i64, b: i64, c: i64, rel: u8 }, // a·x + b·y REL c, rel in 0..4 (≤,<,≥,>)
    Not(Box<F>),
    And(Vec<F>),
    Or(Vec<F>),
}

fn gen_formula(rng: &mut SmallRng, depth: u32) -> F {
    if depth == 0 || rng.gen_bool(0.45) {
        return F::Atom {
            a: rng.gen_range_i64(-2, 3),
            b: rng.gen_range_i64(-2, 3),
            c: rng.gen_range_i64(-4, 5),
            rel: rng.gen_range_i64(0, 4) as u8,
        };
    }
    match rng.gen_range_i64(0, 3) {
        0 => F::Not(Box::new(gen_formula(rng, depth - 1))),
        1 => F::And((0..rng.gen_range_usize(2, 4)).map(|_| gen_formula(rng, depth - 1)).collect()),
        _ => F::Or((0..rng.gen_range_usize(2, 4)).map(|_| gen_formula(rng, depth - 1)).collect()),
    }
}

fn encode(ctx: &mut Context, f: &F, x: ccmatic_smt::RealVar, y: ccmatic_smt::RealVar) -> Term {
    match f {
        F::Atom { a, b, c, rel } => {
            let lhs = LinExpr::term(x, int(*a)) + LinExpr::term(y, int(*b));
            let rhs = LinExpr::constant(int(*c));
            match rel {
                0 => ctx.le(lhs, rhs),
                1 => ctx.lt(lhs, rhs),
                2 => ctx.ge(lhs, rhs),
                _ => ctx.gt(lhs, rhs),
            }
        }
        F::Not(g) => {
            let t = encode(ctx, g, x, y);
            ctx.not(t)
        }
        F::And(gs) => {
            let ts: Vec<Term> = gs.iter().map(|g| encode(ctx, g, x, y)).collect();
            ctx.and(ts)
        }
        F::Or(gs) => {
            let ts: Vec<Term> = gs.iter().map(|g| encode(ctx, g, x, y)).collect();
            ctx.or(ts)
        }
    }
}

fn eval(f: &F, x: &Rat, y: &Rat) -> bool {
    match f {
        F::Atom { a, b, c, rel } => {
            let lhs = &(x * &int(*a)) + &(y * &int(*b));
            let rhs = int(*c);
            match rel {
                0 => lhs <= rhs,
                1 => lhs < rhs,
                2 => lhs >= rhs,
                _ => lhs > rhs,
            }
        }
        F::Not(g) => !eval(g, x, y),
        F::And(gs) => gs.iter().all(|g| eval(g, x, y)),
        F::Or(gs) => gs.iter().any(|g| eval(g, x, y)),
    }
}

#[test]
fn random_formulas_vs_grid_oracle() {
    let mut rng = SmallRng::seed_from_u64(20220930);
    let mut sat_count = 0;
    let mut unsat_count = 0;
    for round in 0..120 {
        let f = gen_formula(&mut rng, 3);
        // Grid oracle: x, y ∈ {-3, -2.75, …, 3} (quarter steps).
        let mut grid_sat = false;
        'grid: for xi in -12..=12i64 {
            for yi in -12..=12i64 {
                if eval(&f, &rat(xi, 4), &rat(yi, 4)) {
                    grid_sat = true;
                    break 'grid;
                }
            }
        }
        let mut ctx = Context::new();
        let x = ctx.real_var("x");
        let y = ctx.real_var("y");
        let t = encode(&mut ctx, &f, x, y);
        let mut solver = Solver::new();
        solver.assert(&ctx, t);
        match solver.check(&ctx) {
            SatResult::Sat => {
                sat_count += 1;
                let m = solver.model().unwrap();
                let (xv, yv) = (m.real(x), m.real(y));
                assert!(
                    eval(&f, &xv, &yv),
                    "round {round}: model (x={xv}, y={yv}) does not satisfy {f:?}"
                );
            }
            SatResult::Unsat => {
                unsat_count += 1;
                assert!(
                    !grid_sat,
                    "round {round}: solver said Unsat but the grid has a witness for {f:?}"
                );
            }
            SatResult::Unknown => panic!("round {round}: unexpected Unknown (no interrupt armed)"),
        }
    }
    // The generator should produce a healthy mix; guard against a degenerate
    // test that only ever exercises one path.
    assert!(sat_count > 20, "only {sat_count} sat instances");
    assert!(unsat_count > 5, "only {unsat_count} unsat instances");
}

#[test]
fn deep_nesting_stress() {
    // Alternating chain: (((x > 0 ∧ x < 1) ∨ y > 5) ∧ …) with 40 levels.
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let mut acc = ctx.gt(ctx.var(x), ctx.constant(int(0)));
    for i in 1..40 {
        let bound = ctx.lt(ctx.var(x), ctx.constant(int(i)));
        acc = if i % 2 == 0 { ctx.or(vec![acc, bound]) } else { ctx.and(vec![acc, bound]) };
    }
    let mut solver = Solver::new();
    solver.assert(&ctx, acc);
    assert_eq!(solver.check(&ctx), SatResult::Sat);
}

#[test]
fn unsat_core_like_conflict_layering() {
    // A system that is unsat only through a 4-atom combination:
    // x + y ≥ 10, x ≤ 2, y ≤ 2 is unsat; adding disjunctions around it must
    // still be caught.
    let mut ctx = Context::new();
    let x = ctx.real_var("x");
    let y = ctx.real_var("y");
    let s = ctx.ge(ctx.var(x) + ctx.var(y), ctx.constant(int(10)));
    let bx = ctx.le(ctx.var(x), ctx.constant(int(2)));
    let by = ctx.le(ctx.var(y), ctx.constant(int(2)));
    let esc_x = ctx.lt(ctx.var(x), ctx.constant(int(-100)));
    let choice = ctx.or(vec![bx, esc_x]);
    let mut solver = Solver::new();
    solver.assert(&ctx, s);
    solver.assert(&ctx, choice);
    solver.assert(&ctx, by);
    // x < -100 branch: x + y ≥ 10 needs y ≥ 110 > 2 — unsat both ways.
    assert_eq!(solver.check(&ctx), SatResult::Unsat);
}
