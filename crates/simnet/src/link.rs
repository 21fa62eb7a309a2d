//! The token-bucket link with bounded non-congestive delay.

use ccmatic_num::SmallRng;

/// Static link parameters (mirrors `ccac_model::NetConfig`).
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Link rate `C` in BDP per Rm.
    pub rate: f64,
    /// Non-congestive delay bound `D` in Rm units.
    pub jitter: usize,
    /// Whether the link wastes surplus tokens while the sender is idle.
    pub waste: WastePolicy,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { rate: 1.0, jitter: 1, waste: WastePolicy::Eager }
    }
}

/// What the link does with tokens the sender cannot use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WastePolicy {
    /// Surplus tokens are discarded immediately (the adversarial choice the
    /// CCAC model allows — and the one that breaks window-undershooting
    /// CCAs).
    Eager,
    /// Tokens accumulate without bound (a benign, bufferbloat-style link).
    Never,
}

/// Chooses where in its feasibility band the link serves each step.
///
/// At step `t` the cumulative service `S(t)` may be anything in
/// `[lo, hi]` where `lo` enforces the lagged token floor and `hi` the token
/// cap (both clamped to available arrivals and monotonicity). A schedule is
/// the adversary's (or nature's) policy for that choice.
pub trait LinkSchedule {
    /// Return λ ∈ [0, 1]: 0 serves the minimum, 1 the maximum.
    fn lambda(&mut self, t: usize) -> f64;

    /// Fraction ω ∈ [0, 1] of this step's surplus tokens the link discards
    /// under [`WastePolicy::Eager`] (1 = classic eager waste, 0 = keep them
    /// all for later). The CCAC model admits any monotone waste process
    /// whose growth happens only while the queue sits at or under the token
    /// line, so a schedule may place waste anywhere in that band — but
    /// under-wasting raises later service floors above the arrival curve,
    /// which the model forbids; callers lifting partial-waste traces must
    /// re-check feasibility (`ccac_model::check_trace`).
    fn waste_fraction(&mut self, _t: usize) -> f64 {
        1.0
    }

    /// Diagnostic name.
    fn name(&self) -> String;
}

/// A fully explicit schedule: per-step λ (and optionally ω) read from
/// tables — the executable form of a fuzzer genome. Steps are 1-based as
/// in [`LinkState::step`]; beyond the table the last entry holds (an empty
/// λ table means the ideal link, an empty ω table means eager waste).
#[derive(Clone, Debug, Default)]
pub struct TableSchedule {
    /// Band position per step (`lambdas[t−1]` for step `t`).
    pub lambdas: Vec<f64>,
    /// Waste fraction per step (`omegas[t−1]` for step `t`).
    pub omegas: Vec<f64>,
}

impl TableSchedule {
    /// A schedule serving at band position λ everywhere with eager waste.
    pub fn uniform(lambda: f64, len: usize) -> Self {
        TableSchedule { lambdas: vec![lambda; len], omegas: Vec::new() }
    }
}

fn table_at(table: &[f64], t: usize, default: f64) -> f64 {
    let i = t.saturating_sub(1);
    table.get(i).copied().or_else(|| table.last().copied()).unwrap_or(default)
}

impl LinkSchedule for TableSchedule {
    fn lambda(&mut self, t: usize) -> f64 {
        table_at(&self.lambdas, t, 1.0)
    }

    fn waste_fraction(&mut self, t: usize) -> f64 {
        table_at(&self.omegas, t, 1.0)
    }

    fn name(&self) -> String {
        format!("table({} steps)", self.lambdas.len())
    }
}

/// Always serve as much as allowed — an ideal, jitter-free link.
#[derive(Clone, Debug, Default)]
pub struct IdealLink;

impl LinkSchedule for IdealLink {
    fn lambda(&mut self, _t: usize) -> f64 {
        1.0
    }
    fn name(&self) -> String {
        "ideal".into()
    }
}

/// Alternate between serving nothing extra and catching up in bursts — the
/// classic ACK-aggregation / jitter adversary (period configurable).
#[derive(Clone, Debug)]
pub struct AdversarialSawtooth {
    /// Steps per stall-then-burst cycle (≥ 2).
    pub period: usize,
}

impl Default for AdversarialSawtooth {
    fn default() -> Self {
        AdversarialSawtooth { period: 2 }
    }
}

impl LinkSchedule for AdversarialSawtooth {
    fn lambda(&mut self, t: usize) -> f64 {
        if t % self.period == self.period - 1 {
            1.0
        } else {
            0.0
        }
    }
    fn name(&self) -> String {
        format!("sawtooth(period {})", self.period)
    }
}

/// Uniformly random position in the band, seeded for reproducibility.
#[derive(Clone, Debug)]
pub struct RandomJitter {
    rng: SmallRng,
}

impl RandomJitter {
    /// Seeded RNG so runs are reproducible.
    pub fn new(seed: u64) -> Self {
        RandomJitter { rng: SmallRng::seed_from_u64(seed) }
    }
}

impl LinkSchedule for RandomJitter {
    fn lambda(&mut self, _t: usize) -> f64 {
        self.rng.next_f64()
    }
    fn name(&self) -> String {
        "random".into()
    }
}

/// Internal link state evolved by the runner.
#[derive(Clone, Debug)]
pub struct LinkState {
    /// Cumulative service S(t−1) so far.
    pub served: f64,
    /// Cumulative waste W(t−1).
    pub wasted: f64,
    /// History of W values (index = step), needed for the lagged floor.
    pub waste_history: Vec<f64>,
}

impl LinkState {
    /// Fresh link at trace start.
    pub fn new() -> Self {
        LinkState { served: 0.0, wasted: 0.0, waste_history: vec![0.0] }
    }

    /// Back to trace start, keeping the waste history's allocation.
    pub fn reset(&mut self) {
        self.served = 0.0;
        self.wasted = 0.0;
        self.waste_history.clear();
        self.waste_history.push(0.0);
    }

    /// Advance one step: given the step index `t` (1-based internally),
    /// cumulative arrivals `a`, the config and schedule, compute `S(t)` and
    /// update waste. Returns the new cumulative service.
    pub fn step(
        &mut self,
        t: usize,
        arrivals: f64,
        cfg: &LinkConfig,
        schedule: &mut dyn LinkSchedule,
    ) -> f64 {
        let tokens_now = cfg.rate * t as f64 - self.wasted;
        // Lagged token floor: C·(t−D) − W(t−D).
        let floor = if t >= cfg.jitter {
            let lag_t = t - cfg.jitter;
            let w_lag = self.waste_history.get(lag_t).copied().unwrap_or(0.0);
            cfg.rate * lag_t as f64 - w_lag
        } else {
            0.0
        };
        let hi = tokens_now.min(arrivals).max(self.served);
        let lo = floor.min(arrivals).max(self.served).min(hi);
        let lambda = schedule.lambda(t).clamp(0.0, 1.0);
        let served_now = lo + lambda * (hi - lo);
        self.served = served_now;
        // Waste: under the eager policy the link discards the schedule's
        // chosen fraction of every token the sender has no data for
        // (built-in schedules waste all of them).
        if cfg.waste == WastePolicy::Eager {
            let surplus = cfg.rate * t as f64 - self.wasted - arrivals;
            if surplus > 0.0 {
                self.wasted += schedule.waste_fraction(t).clamp(0.0, 1.0) * surplus;
            }
        }
        self.waste_history.push(self.wasted);
        served_now
    }
}

impl Default for LinkState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_serves_at_line_rate_when_backlogged() {
        let cfg = LinkConfig::default();
        let mut link = LinkState::new();
        let mut sched = IdealLink;
        for t in 1..=10 {
            let s = link.step(t, 1e9, &cfg, &mut sched);
            assert!((s - t as f64).abs() < 1e-9, "t={t}, served={s}");
        }
    }

    #[test]
    fn sawtooth_lags_at_most_jitter() {
        let cfg = LinkConfig::default();
        let mut link = LinkState::new();
        let mut sched = AdversarialSawtooth::default();
        for t in 1..=20 {
            let s = link.step(t, 1e9, &cfg, &mut sched);
            let floor = (t as f64 - cfg.jitter as f64).max(0.0);
            assert!(s >= floor - 1e-9, "t={t}: service {s} below floor {floor}");
            assert!(s <= t as f64 + 1e-9, "t={t}: service {s} above tokens");
        }
    }

    #[test]
    fn waste_accrues_when_idle() {
        let cfg = LinkConfig::default();
        let mut link = LinkState::new();
        let mut sched = IdealLink;
        // Sender never sends: all tokens wasted.
        for t in 1..=5 {
            let s = link.step(t, 0.0, &cfg, &mut sched);
            assert_eq!(s, 0.0);
        }
        assert!((link.wasted - 5.0).abs() < 1e-9);
        // Late arrivals can only use post-idle tokens.
        let s = link.step(6, 100.0, &cfg, &mut sched);
        assert!((s - 1.0).abs() < 1e-9, "only 1 token since waste stopped, got {s}");
    }

    #[test]
    fn never_waste_accumulates_tokens() {
        let cfg = LinkConfig { waste: WastePolicy::Never, ..LinkConfig::default() };
        let mut link = LinkState::new();
        let mut sched = IdealLink;
        for t in 1..=5 {
            link.step(t, 0.0, &cfg, &mut sched);
        }
        assert_eq!(link.wasted, 0.0);
        let s = link.step(6, 100.0, &cfg, &mut sched);
        assert!((s - 6.0).abs() < 1e-9, "all 6 accumulated tokens usable, got {s}");
    }

    #[test]
    fn service_never_exceeds_arrivals() {
        let cfg = LinkConfig::default();
        let mut link = LinkState::new();
        let mut sched = RandomJitter::new(7);
        let mut arrivals = 0.0;
        for t in 1..=50 {
            arrivals += 0.3;
            let s = link.step(t, arrivals, &cfg, &mut sched);
            assert!(s <= arrivals + 1e-9);
        }
    }

    #[test]
    fn table_schedule_indexes_steps_and_holds_last_entry() {
        let mut sched = TableSchedule { lambdas: vec![0.0, 1.0, 0.5], omegas: vec![0.25] };
        assert_eq!(sched.lambda(1), 0.0);
        assert_eq!(sched.lambda(2), 1.0);
        assert_eq!(sched.lambda(3), 0.5);
        assert_eq!(sched.lambda(9), 0.5, "holds the last entry");
        assert_eq!(sched.waste_fraction(1), 0.25);
        assert_eq!(sched.waste_fraction(7), 0.25);
        let mut empty = TableSchedule::default();
        assert_eq!(empty.lambda(1), 1.0, "empty table = ideal link");
        assert_eq!(empty.waste_fraction(1), 1.0, "empty table = eager waste");
    }

    #[test]
    fn partial_waste_keeps_tokens_for_later() {
        let cfg = LinkConfig::default();
        let mut link = LinkState::new();
        // Waste only half the surplus each idle step.
        let mut sched = TableSchedule { lambdas: vec![1.0], omegas: vec![0.5] };
        link.step(1, 0.0, &cfg, &mut sched);
        assert!((link.wasted - 0.5).abs() < 1e-9, "half of 1 surplus token, got {}", link.wasted);
        link.step(2, 0.0, &cfg, &mut sched);
        // Surplus at step 2: 2 − 0.5 − 0 = 1.5; waste grows by 0.75.
        assert!((link.wasted - 1.25).abs() < 1e-9, "got {}", link.wasted);
    }

    #[test]
    fn random_jitter_reproducible() {
        let mut a = RandomJitter::new(42);
        let mut b = RandomJitter::new(42);
        for t in 0..10 {
            assert_eq!(a.lambda(t), b.lambda(t));
        }
    }
}
