//! Congestion-control algorithms runnable on the simulator.

/// What a CCA sees at the start of round `t`: a view of the caller's
/// histories, borrowed, so building one per round allocates nothing.
///
/// Histories are indexed backwards: `ack_back(1)` is `ack(t−1)`,
/// `cwnd_back(1)` is `cwnd(t−1)`, etc. Lookbacks beyond the recorded
/// history saturate at the oldest value (ack) or 0 (cwnd), matching a flow
/// that has just started.
#[derive(Clone, Copy, Debug)]
pub struct Observation<'a> {
    /// Current round number (starts at 0).
    pub t: usize,
    /// Cumulative-ACK samples, newest first: `acks[i]` is `ack(t−i−1)`.
    acks: &'a [f64],
    /// Previous cwnd values, newest first: `cwnds[i]` is `cwnd(t−i−1)`.
    cwnds: &'a [f64],
}

impl<'a> Observation<'a> {
    /// View backwards histories (index `i` ↦ `t−i−1`).
    pub fn new(t: usize, ack_history: &'a [f64], cwnd_history: &'a [f64]) -> Self {
        Observation { t, acks: ack_history, cwnds: cwnd_history }
    }

    /// `ack(t−i)` (cumulative bytes ACKed), `i ≥ 1`. Saturates at the
    /// oldest recorded sample (0 before any).
    pub fn ack_back(&self, i: usize) -> f64 {
        debug_assert!(i >= 1);
        self.acks.get(i - 1).or(self.acks.last()).copied().unwrap_or(0.0)
    }

    /// `cwnd(t−i)`, `i ≥ 1`. Returns 0 beyond recorded history.
    pub fn cwnd_back(&self, i: usize) -> f64 {
        debug_assert!(i >= 1);
        self.cwnds.get(i - 1).copied().unwrap_or(0.0)
    }
}

/// A congestion-control algorithm operating at per-RTT granularity
/// (the paper's template granularity; prior work shows per-RTT summary
/// control matches per-ACK control in this model).
pub trait Cca {
    /// Choose `cwnd(t)` from the observation.
    fn on_round(&mut self, obs: &Observation<'_>) -> f64;

    /// Diagnostic name.
    fn name(&self) -> String;
}

/// The paper's linear template (Equation ii):
/// `cwnd(t) = Σᵢ αᵢ·cwnd(t−i) + βᵢ·ack(t−i) + γ`.
///
/// RoCC is `LinearCca::rocc()`: `cwnd(t) = ack(t−1) − ack(t−3) + 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearCca {
    /// Coefficients on historical cwnd, `alpha[i]` multiplying `cwnd(t−i−1)`.
    pub alpha: Vec<f64>,
    /// Coefficients on historical cumulative ACKs, `beta[i]` on `ack(t−i−1)`.
    pub beta: Vec<f64>,
    /// Additive constant γ (in BDP units; the "+1 MSS" of RoCC).
    pub gamma: f64,
}

impl LinearCca {
    /// RoCC (Equation in §4): `cwnd(t) = ack(t−1) − ack(t−3) + 1`.
    pub fn rocc() -> Self {
        LinearCca { alpha: vec![0.0; 3], beta: vec![1.0, 0.0, -1.0], gamma: 1.0 }
    }

    /// The paper's Equation (iii):
    /// `cwnd(t) = 3/2·ack(t−1) − 1/2·ack(t−2) − ack(t−3)`.
    pub fn eq_iii() -> Self {
        LinearCca { alpha: vec![0.0; 3], beta: vec![1.5, -0.5, -1.0], gamma: 0.0 }
    }
}

impl Cca for LinearCca {
    fn on_round(&mut self, obs: &Observation<'_>) -> f64 {
        let mut cwnd = self.gamma;
        for (i, a) in self.alpha.iter().enumerate() {
            cwnd += a * obs.cwnd_back(i + 1);
        }
        for (i, b) in self.beta.iter().enumerate() {
            cwnd += b * obs.ack_back(i + 1);
        }
        cwnd
    }

    fn name(&self) -> String {
        let mut parts = Vec::new();
        for (i, a) in self.alpha.iter().enumerate() {
            if *a != 0.0 {
                parts.push(format!("{a:+}·cwnd(t−{})", i + 1));
            }
        }
        for (i, b) in self.beta.iter().enumerate() {
            if *b != 0.0 {
                parts.push(format!("{b:+}·ack(t−{})", i + 1));
            }
        }
        if self.gamma != 0.0 {
            parts.push(format!("{:+}", self.gamma));
        }
        if parts.is_empty() {
            parts.push("0".into());
        }
        format!("cwnd(t) = {}", parts.join(" "))
    }
}

/// A fixed congestion window (useful as a failing baseline: small values
/// starve, large values build standing queues).
#[derive(Clone, Debug)]
pub struct ConstCwnd(pub f64);

impl Cca for ConstCwnd {
    fn on_round(&mut self, _obs: &Observation<'_>) -> f64 {
        self.0
    }

    fn name(&self) -> String {
        format!("const cwnd = {}", self.0)
    }
}

/// A two-branch conditional rule (the §4.1 template): when the last RTT
/// delivered at least `theta`, run the `then_branch`; otherwise the
/// `else_branch`. Mirrors `ccmatic::conditional::ConditionalCca` so
/// verified conditional rules can be validated behaviourally.
#[derive(Clone, Debug)]
pub struct ThresholdCca {
    /// Delivery threshold (BDP per RTT).
    pub theta: f64,
    /// Rule when delivery keeps up.
    pub then_branch: LinearCca,
    /// Rule when delivery stalls.
    pub else_branch: LinearCca,
}

impl Cca for ThresholdCca {
    fn on_round(&mut self, obs: &Observation<'_>) -> f64 {
        let delivered = obs.ack_back(1) - obs.ack_back(2);
        if delivered >= self.theta {
            self.then_branch.on_round(obs)
        } else {
            self.else_branch.on_round(obs)
        }
    }

    fn name(&self) -> String {
        format!(
            "if delivered ≥ {} then [{}] else [{}]",
            self.theta,
            self.then_branch.name(),
            self.else_branch.name()
        )
    }
}

/// Loss-less AIMD caricature: additive increase every round, multiplicative
/// decrease when the observed queue delay (inferred from ACK rate deficit)
/// exceeds a threshold. In an infinite-buffer lossless model classic AIMD
/// has no loss signal at all and grows its queue forever; this delay-backed
/// variant is the honest equivalent and still violates tight delay bounds.
#[derive(Clone, Debug)]
pub struct AimdCca {
    /// Additive increase per RTT (BDP units).
    pub increase: f64,
    /// Multiplicative decrease factor on congestion.
    pub decrease: f64,
    /// Queue-delay threshold (RTTs) that triggers decrease.
    pub delay_trigger: f64,
    cwnd: f64,
}

impl AimdCca {
    /// Standard parameters: +1 per RTT, halve on congestion, trigger at
    /// 8 RTTs of inferred standing queue.
    pub fn standard() -> Self {
        AimdCca { increase: 1.0, decrease: 0.5, delay_trigger: 8.0, cwnd: 1.0 }
    }
}

impl Cca for AimdCca {
    fn on_round(&mut self, obs: &Observation<'_>) -> f64 {
        // Inferred inflight beyond one BDP ≈ standing queue: cwnd − delivered
        // over the last RTT.
        let delivered = obs.ack_back(1) - obs.ack_back(2);
        let queue_est = (self.cwnd - delivered).max(0.0);
        if queue_est > self.delay_trigger {
            self.cwnd *= self.decrease;
        } else {
            self.cwnd += self.increase;
        }
        self.cwnd = self.cwnd.max(self.increase.min(1.0));
        self.cwnd
    }

    fn name(&self) -> String {
        format!("AIMD(+{}, ×{})", self.increase, self.decrease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_saturating_lookback() {
        let obs = Observation::new(5, &[10.0, 8.0, 5.0], &[2.0, 2.0]);
        assert_eq!(obs.ack_back(1), 10.0);
        assert_eq!(obs.ack_back(3), 5.0);
        assert_eq!(obs.ack_back(7), 5.0, "saturates at oldest ack");
        assert_eq!(obs.cwnd_back(1), 2.0);
        assert_eq!(obs.cwnd_back(5), 0.0, "cwnd saturates at 0");
    }

    #[test]
    fn rocc_formula() {
        let mut rocc = LinearCca::rocc();
        // ack(t−1)=10, ack(t−3)=6 → cwnd = 10 − 6 + 1 = 5.
        let obs = Observation::new(4, &[10.0, 8.0, 6.0], &[0.0; 3]);
        assert_eq!(rocc.on_round(&obs), 5.0);
        assert!(rocc.name().contains("ack(t−1)"));
    }

    #[test]
    fn eq_iii_formula() {
        let mut cca = LinearCca::eq_iii();
        let obs = Observation::new(4, &[10.0, 8.0, 6.0], &[0.0; 3]);
        // 1.5·10 − 0.5·8 − 6 = 15 − 4 − 6 = 5.
        assert_eq!(cca.on_round(&obs), 5.0);
    }

    #[test]
    fn const_cwnd_is_constant() {
        let mut c = ConstCwnd(3.5);
        let obs = Observation::new(0, &[], &[]);
        assert_eq!(c.on_round(&obs), 3.5);
        assert_eq!(c.on_round(&obs), 3.5);
    }

    #[test]
    fn aimd_grows_until_trigger() {
        let mut aimd = AimdCca::standard();
        // Deliveries keep pace → growth.
        let obs = Observation::new(1, &[10.0, 8.0], &[2.0]);
        let c1 = aimd.on_round(&obs);
        let cwnds2 = [c1];
        let obs2 = Observation::new(2, &[12.0, 10.0], &cwnds2);
        let c2 = aimd.on_round(&obs2);
        assert!(c2 > c1);
        // Stalled deliveries with a big window → decrease.
        let cwnds3 = [c2];
        let obs3 = Observation::new(3, &[12.0, 12.0], &cwnds3);
        let mut big = AimdCca { cwnd: 100.0, ..AimdCca::standard() };
        let c3 = big.on_round(&obs3);
        assert!(c3 < 100.0);
    }
}
