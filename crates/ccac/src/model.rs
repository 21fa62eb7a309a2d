//! Variables and constraints of the network model.

use ccmatic_num::Rat;
use ccmatic_smt::{Context, LinExpr, RealVar, Term};
use std::convert::Infallible;
use std::ops::{Add, Sub};

/// Static parameters of the modeled path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Trace length `T`: the CCA rule is enforced on `t ∈ [0, T]`.
    pub horizon: usize,
    /// History depth: variables exist for `t ∈ [−history, T]`, letting the
    /// solver pick arbitrary initial conditions. Must cover the CCA
    /// template's look-back plus one (the deepest `ack(t−i) = S(t−i−1)`
    /// sample the rule reads at `t = 0`).
    pub history: usize,
    /// Link rate `C` in BDP per Rm (1 after normalization).
    pub link_rate: Rat,
    /// Bound `D` (in Rm units) on non-congestive delay: the link may lag
    /// the token line by at most this much. The paper's experiments use 1.
    pub jitter: usize,
    /// Bottleneck buffer in BDP units. `None` (the paper's §4 scope:
    /// "lossless networks with infinite buffers") pins the loss process to
    /// zero; `Some(B)` enables CCAC's loss rule — packets are dropped only
    /// when the queue would exceed the token line by more than `B`.
    pub buffer: Option<Rat>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { horizon: 9, history: 5, link_rate: Rat::one(), jitter: 1, buffer: None }
    }
}

impl NetConfig {
    /// Total number of time indices (`t ∈ [−h, T]`).
    pub fn num_steps(&self) -> usize {
        self.horizon + self.history + 1
    }

    /// First modeled time index.
    pub fn t_min(&self) -> i64 {
        -(self.history as i64)
    }

    /// Last modeled time index.
    pub fn t_max(&self) -> i64 {
        self.horizon as i64
    }
}

/// Per-timestep SMT variables of one flow over one link.
#[derive(Clone, Debug)]
pub struct NetVars {
    cfg: NetConfig,
    a: Vec<RealVar>,
    s: Vec<RealVar>,
    w: Vec<RealVar>,
    l: Vec<RealVar>,
    cwnd: Vec<RealVar>,
}

impl NetVars {
    /// The configuration these variables were allocated for.
    pub fn cfg(&self) -> &NetConfig {
        &self.cfg
    }

    fn idx(&self, t: i64) -> usize {
        let i = t - self.cfg.t_min();
        debug_assert!(
            (0..self.cfg.num_steps() as i64).contains(&i),
            "time index {t} out of range [{}, {}]",
            self.cfg.t_min(),
            self.cfg.t_max()
        );
        i as usize
    }

    /// Cumulative arrivals `A(t)`.
    pub fn a(&self, t: i64) -> RealVar {
        self.a[self.idx(t)]
    }

    /// Cumulative service `S(t)`.
    pub fn s(&self, t: i64) -> RealVar {
        self.s[self.idx(t)]
    }

    /// Cumulative wasted tokens `W(t)`.
    pub fn w(&self, t: i64) -> RealVar {
        self.w[self.idx(t)]
    }

    /// Cumulative lost bytes `L(t)` (identically zero in the default
    /// lossless configuration).
    pub fn l(&self, t: i64) -> RealVar {
        self.l[self.idx(t)]
    }

    /// Congestion window `cwnd(t)`.
    pub fn cwnd(&self, t: i64) -> RealVar {
        self.cwnd[self.idx(t)]
    }

    /// Quantity `q` at time `t`.
    pub(crate) fn at(&self, q: Quantity, t: i64) -> RealVar {
        [&self.a, &self.s, &self.w, &self.l, &self.cwnd][q as usize][self.idx(t)]
    }

    /// Tokens accumulated by time `t`, net of waste:
    /// `C·(t+h) − W(t)` (token arrival measured from trace start).
    pub fn tokens(&self, t: i64) -> LinExpr {
        let elapsed = Rat::from(t + self.cfg.history as i64);
        LinExpr::constant(&self.cfg.link_rate * &elapsed) - LinExpr::var(self.w(t))
    }
}

/// Allocate fresh variables for a trace of shape `cfg`.
pub fn alloc_net_vars(ctx: &mut Context, cfg: &NetConfig) -> NetVars {
    let n = cfg.num_steps();
    let t0 = cfg.t_min();
    let mut a = Vec::with_capacity(n);
    let mut s = Vec::with_capacity(n);
    let mut w = Vec::with_capacity(n);
    let mut l = Vec::with_capacity(n);
    let mut cwnd = Vec::with_capacity(n);
    for i in 0..n {
        let t = t0 + i as i64;
        a.push(ctx.real_var(format!("A[{t}]")));
        s.push(ctx.real_var(format!("S[{t}]")));
        w.push(ctx.real_var(format!("W[{t}]")));
        l.push(ctx.real_var(format!("L[{t}]")));
        cwnd.push(ctx.real_var(format!("cwnd[{t}]")));
    }
    NetVars { cfg: cfg.clone(), a, s, w, l, cwnd }
}

/// How the two sides of a rule compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// `lhs ≤ rhs`.
    Le,
    /// `lhs < rhs`.
    Lt,
    /// `lhs ≥ rhs`.
    Ge,
    /// `lhs > rhs`.
    Gt,
    /// `lhs = rhs`.
    Eq,
}

impl Rel {
    /// Whether `lhs ⋈ rhs` holds between two numbers.
    pub fn holds(self, lhs: &Rat, rhs: &Rat) -> bool {
        match self {
            Rel::Le => lhs <= rhs,
            Rel::Lt => lhs < rhs,
            Rel::Ge => lhs >= rhs,
            Rel::Gt => lhs > rhs,
            Rel::Eq => lhs == rhs,
        }
    }

    /// The solver term `lhs ⋈ rhs`.
    pub fn term(self, ctx: &mut Context, lhs: LinExpr, rhs: LinExpr) -> Term {
        match self {
            Rel::Le => ctx.le(lhs, rhs),
            Rel::Lt => ctx.lt(lhs, rhs),
            Rel::Ge => ctx.ge(lhs, rhs),
            Rel::Gt => ctx.gt(lhs, rhs),
            Rel::Eq => ctx.eq(lhs, rhs),
        }
    }
}

/// The terms of `x = max(a, b)`: `x ≥ a`, `x ≥ b` and `x ≤ a ∨ x ≤ b`.
pub fn max_terms(ctx: &mut Context, x: LinExpr, a: LinExpr, b: LinExpr) -> [Term; 3] {
    let ge_a = ctx.ge(x.clone(), a.clone());
    let ge_b = ctx.ge(x.clone(), b.clone());
    let le_a = ctx.le(x.clone(), a);
    let le_b = ctx.le(x, b);
    [ge_a, ge_b, ctx.or(vec![le_a, le_b])]
}

/// The per-step quantities of the model, in [`Trace`](crate::Trace)
/// column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantity {
    /// Cumulative arrivals `A(t)`.
    A,
    /// Cumulative service `S(t)`.
    S,
    /// Cumulative wasted tokens `W(t)`.
    W,
    /// Cumulative lost bytes `L(t)`.
    L,
    /// Congestion window `cwnd(t)`.
    Cwnd,
}

/// A comparison `lhs ⋈ rhs` between two readings of model quantities.
pub(crate) type Cmp<V> = (V, Rel, V);

/// One rule of the model at one step, before it is read.
pub(crate) enum Rule<V> {
    /// `lhs ⋈ rhs`.
    Holds(Cmp<V>),
    /// `guard ⟹ body`.
    If(Cmp<V>, Cmp<V>),
    /// `x = max(a, b)`.
    Max(V, V, V),
}

/// One reading of the model: what its quantities are and what imposing a
/// rule means. [`network_rules`] and [`sender_rule`] are written once
/// against it; the solver encoding ([`network_constraints`],
/// [`sender_constraints`]) and the concrete checker
/// ([`check_trace`](crate::check_trace),
/// [`check_sender_rule`](crate::check_sender_rule)) are its two readings.
pub(crate) trait Reading {
    /// A quantity: a linear expression or an exact number.
    type Val: Clone + Add<Output = Self::Val> + Sub<Output = Self::Val>;
    /// Why imposing stopped (a rule the concrete reading found violated).
    type Stop;
    /// Quantity `q` at step `t`.
    fn at(&self, q: Quantity, t: i64) -> Self::Val;
    fn lit(&self, k: Rat) -> Self::Val;
    /// Impose `rule`, named `name`, at step `t`.
    fn impose(&mut self, name: &str, t: i64, rule: Rule<Self::Val>) -> Result<(), Self::Stop>;
}

/// Tokens accumulated by time `t`, net of waste: `C·(t+h) − W(t)`.
fn tokens<R: Reading>(r: &R, cfg: &NetConfig, t: i64) -> R::Val {
    r.lit(&cfg.link_rate * &Rat::from(t + cfg.history as i64)) - r.at(Quantity::W, t)
}

/// Every *network* rule (everything the adversarial link may do), in the
/// order a checker reports them.
pub(crate) fn network_rules<R: Reading>(r: &mut R, cfg: &NetConfig) -> Result<(), R::Stop> {
    use Quantity::*;
    use Rel::*;
    use Rule::*;
    let t0 = cfg.t_min();
    // Anchors: service and waste both zero at trace start; the initial
    // backlog A(−h) ≥ 0 is the adversary's choice.
    r.impose("service anchor (S = 0)", t0, Holds((r.at(S, t0), Eq, r.lit(Rat::zero()))))?;
    r.impose("waste anchor (W = 0)", t0, Holds((r.at(W, t0), Eq, r.lit(Rat::zero()))))?;
    r.impose("initial backlog (A ≥ 0)", t0, Holds((r.at(A, t0), Ge, r.lit(Rat::zero()))))?;
    for t in t0..=cfg.t_max() {
        let backlog = r.at(A, t) - r.at(L, t);
        if t > t0 {
            for (name, q) in [("A monotone", A), ("S monotone", S), ("W monotone", W)] {
                r.impose(name, t, Holds((r.at(q, t), Ge, r.at(q, t - 1))))?;
            }
        }
        // Can't serve unsent (or lost) data.
        r.impose("no phantom service (S ≤ A−L)", t, Holds((r.at(S, t), Le, backlog.clone())))?;
        r.impose("token bucket cap (S ≤ tokens)", t, Holds((r.at(S, t), Le, tokens(r, cfg, t))))?;
        // Bounded non-congestive delay: the link may lag the token line by
        // at most D steps.
        let lag = t - cfg.jitter as i64;
        if lag >= t0 {
            let floor = (r.at(S, t), Ge, tokens(r, cfg, lag));
            r.impose("service floor (S(t) ≥ tokens(t−D))", t, Holds(floor))?;
        }
        if t > t0 {
            let wasted = (r.at(W, t), Gt, r.at(W, t - 1));
            let idle = (backlog.clone(), Le, tokens(r, cfg, t));
            r.impose("waste only while idle (W grew ⟹ A−L ≤ tokens)", t, If(wasted, idle))?;
        }
        let Some(buffer) = cfg.buffer.as_ref().filter(|_| t > t0) else {
            // Lossless scope (§4), or trace start: no loss.
            r.impose("no loss (L = 0)", t, Holds((r.at(L, t), Eq, r.lit(Rat::zero()))))?;
            continue;
        };
        r.impose("L monotone", t, Holds((r.at(L, t), Ge, r.at(L, t - 1))))?;
        r.impose("loss of sent data only (L ≤ A)", t, Holds((r.at(L, t), Le, r.at(A, t))))?;
        // Undropped data may exceed the token line by at most the buffer
        // (CCAC's loss rule), and drops happen only when the backlog sits
        // exactly at that cap.
        let cap = tokens(r, cfg, t) + r.lit(buffer.clone());
        r.impose("buffer cap (A−L ≤ tokens + B)", t, Holds((backlog.clone(), Le, cap.clone())))?;
        let dropped = (r.at(L, t), Gt, r.at(L, t - 1));
        let full = (backlog, Ge, cap);
        r.impose("drops only on a full buffer (L grew ⟹ A−L ≥ tokens + B)", t, If(dropped, full))?;
    }
    Ok(())
}

/// The aggressive cwnd-limited sender rule, on `t ∈ [0, T]`:
/// `A(t) = max(A(t−1), S(t−1) + cwnd(t))`.
pub(crate) fn sender_rule<R: Reading>(r: &mut R, t_max: i64) -> Result<(), R::Stop> {
    use Quantity::*;
    for t in 0..=t_max {
        let max = Rule::Max(r.at(A, t), r.at(A, t - 1), r.at(S, t - 1) + r.at(Cwnd, t));
        r.impose("sender rule (A(t) = max(A(t−1), S(t−1) + cwnd(t)))", t, max)?;
    }
    Ok(())
}

/// The solver reading: every rule becomes a term over `nv`.
struct Encoder<'a> {
    ctx: &'a mut Context,
    nv: &'a NetVars,
    cs: Vec<Term>,
}

impl Reading for Encoder<'_> {
    type Val = LinExpr;
    type Stop = Infallible;
    fn at(&self, q: Quantity, t: i64) -> LinExpr {
        LinExpr::var(self.nv.at(q, t))
    }
    fn lit(&self, k: Rat) -> LinExpr {
        LinExpr::constant(k)
    }
    fn impose(&mut self, _: &str, _: i64, rule: Rule<LinExpr>) -> Result<(), Infallible> {
        let ctx = &mut *self.ctx;
        match rule {
            Rule::Holds((lhs, rel, rhs)) => self.cs.push(rel.term(ctx, lhs, rhs)),
            Rule::If((gl, grel, gr), (lhs, rel, rhs)) => {
                let guard = grel.term(ctx, gl, gr);
                let body = rel.term(ctx, lhs, rhs);
                self.cs.push(ctx.implies(guard, body));
            }
            Rule::Max(x, a, b) => self.cs.extend(max_terms(ctx, x, a, b)),
        }
        Ok(())
    }
}

/// The conjunction of all *network* feasibility constraints (everything the
/// adversarial link may do), excluding the CCA/sender behaviour.
pub fn network_constraints(ctx: &mut Context, nv: &NetVars) -> Term {
    let mut enc = Encoder { ctx, nv, cs: Vec::new() };
    let Ok(()) = network_rules(&mut enc, nv.cfg());
    enc.ctx.and(enc.cs)
}

/// The aggressive cwnd-limited sender rule, enforced on `t ∈ [0, T]`:
/// `A(t) = max(A(t−1), S(t−1) + cwnd(t))`.
pub fn sender_constraints(ctx: &mut Context, nv: &NetVars) -> Term {
    let mut enc = Encoder { ctx, nv, cs: Vec::new() };
    let Ok(()) = sender_rule(&mut enc, nv.cfg().t_max());
    enc.ctx.and(enc.cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmatic_num::{int, rat};
    use ccmatic_smt::{SatResult, Solver};

    fn tiny_cfg() -> NetConfig {
        NetConfig { horizon: 4, history: 2, link_rate: Rat::one(), jitter: 1, buffer: None }
    }

    #[test]
    fn config_index_ranges() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.t_min(), -5);
        assert_eq!(cfg.t_max(), 9);
        assert_eq!(cfg.num_steps(), 15);
    }

    #[test]
    fn network_alone_is_satisfiable() {
        let mut ctx = Context::new();
        let cfg = tiny_cfg();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let mut s = Solver::new();
        s.assert(&ctx, net);
        assert_eq!(s.check(&ctx), SatResult::Sat);
    }

    #[test]
    fn service_cannot_exceed_tokens() {
        let mut ctx = Context::new();
        let cfg = tiny_cfg();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        // Try to force S(T) above C·(T+h): must be unsat.
        let too_much = ctx.gt(
            LinExpr::var(nv.s(cfg.t_max())),
            LinExpr::constant(int(cfg.t_max() + cfg.history as i64)),
        );
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, too_much);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }

    #[test]
    fn service_floor_holds_when_backlogged() {
        // With a large standing backlog (A huge) and no waste possible
        // (backlog keeps the queue nonempty), service at T must be at least
        // C·(T+h−D) − W, and W cannot grow; so S(T) ≥ C·(T+h−D) − W(−h) = C·(T+h−1).
        let mut ctx = Context::new();
        let cfg = tiny_cfg();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let backlog = ctx.ge(LinExpr::var(nv.a(cfg.t_min())), LinExpr::constant(int(1000)));
        let total = cfg.t_max() + cfg.history as i64 - cfg.jitter as i64;
        let starved = ctx.lt(LinExpr::var(nv.s(cfg.t_max())), LinExpr::constant(int(total)));
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, backlog);
        s.assert(&ctx, starved);
        assert_eq!(s.check(&ctx), SatResult::Unsat, "link must serve a backlogged sender");
    }

    #[test]
    fn waste_requires_idle() {
        // Demand that waste grows while the sender has a standing queue
        // above the token line: must be unsat.
        let mut ctx = Context::new();
        let cfg = tiny_cfg();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let t = 1i64;
        let wasted = ctx.gt(LinExpr::var(nv.w(t)), LinExpr::var(nv.w(t - 1)));
        let busy = ctx.gt(LinExpr::var(nv.a(t)), nv.tokens(t));
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, wasted);
        s.assert(&ctx, busy);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }

    #[test]
    fn lossless_scope_pins_losses_to_zero() {
        let mut ctx = Context::new();
        let cfg = tiny_cfg(); // buffer: None
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let lossy = ctx.gt(LinExpr::var(nv.l(1)), LinExpr::zero());
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, lossy);
        assert_eq!(s.check(&ctx), SatResult::Unsat, "L must be 0 in the lossless scope");
    }

    #[test]
    fn finite_buffer_bounds_backlog() {
        // With a 2-BDP buffer, the undropped backlog can never exceed the
        // token line by more than 2.
        let mut ctx = Context::new();
        let cfg = NetConfig { buffer: Some(int(2)), ..tiny_cfg() };
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let t = 2i64;
        let backlog = LinExpr::var(nv.a(t)) - LinExpr::var(nv.l(t));
        let over = ctx.gt(backlog, nv.tokens(t) + LinExpr::constant(int(2)));
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, over);
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }

    #[test]
    fn finite_buffer_admits_loss_traces() {
        // An aggressive enough sender can be made to lose data: a trace
        // with L(T) > 0 exists once A outruns tokens + buffer.
        let mut ctx = Context::new();
        let cfg = NetConfig { buffer: Some(int(1)), ..tiny_cfg() };
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let lossy = ctx.gt(LinExpr::var(nv.l(cfg.t_max())), LinExpr::zero());
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, lossy);
        assert_eq!(s.check(&ctx), SatResult::Sat, "losses must be expressible");
        // And the witness respects the drop-only-when-full rule.
        let m = s.model().unwrap();
        let trace = crate::trace::Trace::from_model(m, &nv);
        for t in (cfg.t_min() + 1)..=cfg.t_max() {
            if trace.l_at(t) > trace.l_at(t - 1) {
                let tokens = &(&cfg.link_rate * &Rat::from(t + cfg.history as i64)) - trace.w_at(t);
                let backlog = trace.a_at(t) - trace.l_at(t);
                assert!(backlog >= &tokens + &int(1), "drop at t={t} without a full buffer");
            }
        }
    }

    #[test]
    fn sender_rule_fills_window() {
        // With cwnd pinned to 2 and an otherwise free network, the sender
        // must keep inflight = A(t) − S(t−1) exactly 2 whenever it sends.
        let mut ctx = Context::new();
        let cfg = tiny_cfg();
        let nv = alloc_net_vars(&mut ctx, &cfg);
        let net = network_constraints(&mut ctx, &nv);
        let snd = sender_constraints(&mut ctx, &nv);
        let mut cwnd_cs = Vec::new();
        for t in 0..=cfg.t_max() {
            cwnd_cs.push(ctx.eq(LinExpr::var(nv.cwnd(t)), LinExpr::constant(int(2))));
        }
        let cwnd_fixed = ctx.and(cwnd_cs);
        // Pin the whole (adversary-chosen) history to zero arrivals so the
        // induction over the enforced window starts from a clean state.
        let mut history_pins = Vec::new();
        for t in cfg.t_min()..0 {
            history_pins.push(ctx.eq(LinExpr::var(nv.a(t)), LinExpr::zero()));
        }
        let no_backlog = ctx.and(history_pins);
        // Inflight above the window is impossible.
        let t_probe = 2i64;
        let overfull = ctx.gt(
            LinExpr::var(nv.a(t_probe)),
            LinExpr::var(nv.s(t_probe - 1)) + LinExpr::constant(rat(21, 10)),
        );
        let mut s = Solver::new();
        s.assert(&ctx, net);
        s.assert(&ctx, snd);
        s.assert(&ctx, cwnd_fixed);
        s.assert(&ctx, no_backlog);
        s.assert(&ctx, overfull);
        // A(t) = max(A(t−1), S(t−1)+2) and A never exceeded the window in
        // history (A(−h)=0), so inflight can exceed 2 only via A(t−1), which
        // inductively is bounded by S(t−2)+2 ≤ S(t−1)+2.
        assert_eq!(s.check(&ctx), SatResult::Unsat);
    }
}
