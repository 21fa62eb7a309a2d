//! Reference CCAs the paper discusses, as template instances.

use crate::template::CcaSpec;
use ccmatic_num::{int, rat, Rat};

/// RoCC (§4, rediscovered by CCmatic; Facebook's Copa2 / rocc_kernel):
/// `cwnd(t) = ack(t−1) − ack(t−3) + 1` — bytes ACKed over the last two
/// RTTs plus one additive unit.
pub fn rocc() -> CcaSpec {
    CcaSpec { alpha: Vec::new(), beta: vec![int(1), int(0), int(-1), int(0)], gamma: int(1) }
}

/// The paper's Equation (iii), the sole survivor at ≥70 % utilization:
/// `cwnd(t) = 3/2·ack(t−1) − 1/2·ack(t−2) − ack(t−3)`.
pub fn eq_iii() -> CcaSpec {
    CcaSpec {
        alpha: Vec::new(),
        beta: vec![rat(3, 2), rat(-1, 2), int(-1), int(0)],
        gamma: Rat::zero(),
    }
}

/// A constant window (`cwnd(t) = c`): starves for small `c` under jitter,
/// builds standing queues for large `c`. Not every constant fails: on the
/// default model and thresholds `c = 1/2` and `c = 1` are refuted, while
/// `c = 3/2` and `c = 2` verify, since the link rate is fixed at 1.
pub fn const_cwnd(c: Rat) -> CcaSpec {
    CcaSpec { alpha: Vec::new(), beta: vec![Rat::zero(); 4], gamma: c }
}

/// Pure window-copy (`cwnd(t) = cwnd(t−1)`): whatever the history was, keep
/// it. Broken by adversarial initial conditions.
pub fn copy_cwnd() -> CcaSpec {
    CcaSpec {
        alpha: vec![int(1), int(0), int(0), int(0)],
        beta: vec![Rat::zero(); 4],
        gamma: Rat::zero(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rocc_matches_paper_formula() {
        let r = rocc();
        assert_eq!(r.beta[0], int(1));
        assert_eq!(r.beta[2], int(-1));
        assert_eq!(r.gamma, int(1));
        assert!(r.alpha.is_empty());
    }

    #[test]
    fn eq_iii_coefficients_sum_to_zero() {
        // The Eq (iii) taps sum to zero: it is rate-proportional with no
        // additive term.
        let e = eq_iii();
        let sum = e.beta.iter().fold(Rat::zero(), |acc, b| &acc + b);
        assert!(sum.is_zero());
        assert!(e.gamma.is_zero());
    }
}
