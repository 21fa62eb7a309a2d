//! The CCA template (the paper's Equation ii) and its search space.
//!
//! `rule` states the template's recursion once, as the terms of
//! `cwnd(t)`: a coefficient index and the sample it multiplies. Each
//! reader says only what a coefficient and a sample are, and sums:
//!
//! * the verifier (`verifier::rule_expr`, also both branches of
//!   `conditional::verify_conditional`): concrete coefficients over the
//!   trace variables;
//! * σ (the `sigma` module): the generator's coefficients, or one
//!   candidate's, over a learned trace's constants and the candidate's own
//!   windows;
//! * the lift's cwnd step (`lift::Lifter`): exact numbers on the lift's
//!   columns, with `S` and `cwnd` reading 0 before round 0.

use ccmatic_num::{rat, Rat};
use std::fmt;

/// What a template coefficient multiplies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sample {
    /// The unit γ multiplies.
    One,
    /// Service `S(t)`.
    S(i64),
    /// The window `cwnd(t)`.
    Cwnd(i64),
}

/// The template (Equation ii) at step `t`,
/// `cwnd(t) = γ + Σᵢ βᵢ·ack(t−i−1) + Σᵢ αᵢ·cwnd(t−i−1)` with
/// `ack(t) = S(t−1)`, as its terms `(c, x)`: coefficient `c` (an index
/// into [`CcaSpec::flat`]) times sample `x`, for a template with `alphas`
/// cwnd taps and `betas` ack taps.
pub(crate) fn rule(alphas: usize, betas: usize, t: i64) -> impl Iterator<Item = (usize, Sample)> {
    let acks = (0..betas).map(move |i| (alphas + i, Sample::S(t - i as i64 - 2)));
    let windows = (0..alphas).map(move |i| (i, Sample::Cwnd(t - i as i64 - 1)));
    std::iter::once((alphas + betas, Sample::One)).chain(acks).chain(windows)
}

/// Discrete domains the generator may pick coefficients from (§4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoeffDomain {
    /// `{−1, 0, 1}` — additive responses only.
    Small,
    /// `{i/2 : |i| ≤ 4}` = `{−2, −3/2, …, 3/2, 2}` — includes
    /// multiplicative responses.
    Large,
    /// Any custom finite set.
    Custom(Vec<Rat>),
}

impl CoeffDomain {
    /// The concrete values of the domain, ascending.
    pub fn values(&self) -> Vec<Rat> {
        match self {
            CoeffDomain::Small => vec![rat(-1, 1), rat(0, 1), rat(1, 1)],
            CoeffDomain::Large => (-4..=4).map(|i| rat(i, 2)).collect(),
            CoeffDomain::Custom(vs) => vs.clone(),
        }
    }

    /// Number of values.
    pub fn size(&self) -> usize {
        self.values().len()
    }
}

/// The shape of the search space: how far the template looks back, whether
/// it may reference historical cwnd, and the coefficient domain.
///
/// The template (Equation ii) is
/// `cwnd(t) = Σ_{i=1..lookback} (αᵢ·cwnd(t−i) + βᵢ·ack(t−i)) + γ`,
/// with `αᵢ ≡ 0` when `use_cwnd` is false. The paper's §4 configurations
/// use `lookback = 4` ("up to 3 RTTs of historical information,
/// h = 3+1 = 4"), giving search-space sizes 3⁵, 9⁵, 3⁹, 9⁹.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TemplateShape {
    /// Number of history taps (`h` in the paper).
    pub lookback: usize,
    /// Whether historical cwnd terms are allowed (the `cwnd` rows of
    /// Table 1).
    pub use_cwnd: bool,
    /// The coefficient domain.
    pub domain: CoeffDomain,
}

impl TemplateShape {
    /// Table 1 row 1: no historical cwnd, small domain (3⁵ candidates).
    pub fn no_cwnd_small() -> Self {
        TemplateShape { lookback: 4, use_cwnd: false, domain: CoeffDomain::Small }
    }

    /// Table 1 row 2: no historical cwnd, large domain (9⁵ candidates).
    pub fn no_cwnd_large() -> Self {
        TemplateShape { lookback: 4, use_cwnd: false, domain: CoeffDomain::Large }
    }

    /// Table 1 row 3: historical cwnd allowed, small domain (3⁹).
    pub fn cwnd_small() -> Self {
        TemplateShape { lookback: 4, use_cwnd: true, domain: CoeffDomain::Small }
    }

    /// Table 1 row 4: historical cwnd allowed, large domain (9⁹).
    pub fn cwnd_large() -> Self {
        TemplateShape { lookback: 4, use_cwnd: true, domain: CoeffDomain::Large }
    }

    /// Number of free coefficients (`4·(1 or 2) + 1`).
    pub fn num_coefficients(&self) -> usize {
        self.lookback * if self.use_cwnd { 2 } else { 1 } + 1
    }

    /// Total candidate count `|domain|^num_coefficients` (may be huge;
    /// saturates at `u128::MAX`).
    pub fn search_space_size(&self) -> u128 {
        let base = self.domain.size() as u128;
        let mut acc: u128 = 1;
        for _ in 0..self.num_coefficients() {
            acc = acc.saturating_mul(base);
        }
        acc
    }
}

/// A concrete CCA drawn from the template: fixed coefficient values.
///
/// `alpha[i]` multiplies `cwnd(t−i−1)`, `beta[i]` multiplies `ack(t−i−1)`,
/// and `gamma` is the additive constant, all in BDP units.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CcaSpec {
    /// Coefficients on historical cwnd (empty when the shape forbids them).
    pub alpha: Vec<Rat>,
    /// Coefficients on historical cumulative ACKs.
    pub beta: Vec<Rat>,
    /// Additive constant γ.
    pub gamma: Rat,
}

impl CcaSpec {
    /// The all-zero CCA of a given shape (never sends; the canonical
    /// non-solution).
    pub fn zero(shape: &TemplateShape) -> Self {
        CcaSpec {
            alpha: if shape.use_cwnd { vec![Rat::zero(); shape.lookback] } else { Vec::new() },
            beta: vec![Rat::zero(); shape.lookback],
            gamma: Rat::zero(),
        }
    }

    /// How many RTTs of history the rule actually reads (its largest
    /// non-zero tap; the paper reports "six use 2 RTTs, six use 3").
    pub fn history_used(&self) -> usize {
        let deepest = |v: &[Rat]| {
            v.iter().enumerate().rev().find(|(_, c)| !c.is_zero()).map(|(i, _)| i + 1).unwrap_or(0)
        };
        deepest(&self.alpha).max(deepest(&self.beta))
    }

    /// Coefficients as `f64` for handing to the simulator:
    /// `(alpha, beta, gamma)`.
    pub fn coefficients_f64(&self) -> (Vec<f64>, Vec<f64>, f64) {
        (
            self.alpha.iter().map(Rat::to_f64).collect(),
            self.beta.iter().map(Rat::to_f64).collect(),
            self.gamma.to_f64(),
        )
    }

    /// Coefficient `c` of [`CcaSpec::flat`].
    pub(crate) fn coeff(&self, c: usize) -> &Rat {
        let alphas = self.alpha.len();
        self.alpha.get(c).or_else(|| self.beta.get(c - alphas)).unwrap_or(&self.gamma)
    }

    /// All coefficients in generator order (alphas, betas, gamma) — the
    /// order used for blocking clauses during enumeration.
    pub fn flat(&self) -> Vec<Rat> {
        let mut out = self.alpha.clone();
        out.extend(self.beta.iter().cloned());
        out.push(self.gamma.clone());
        out
    }
}

impl fmt::Display for CcaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (i, a) in self.alpha.iter().enumerate() {
            if !a.is_zero() {
                parts.push(format!("{}·cwnd(t−{})", a, i + 1));
            }
        }
        for (i, b) in self.beta.iter().enumerate() {
            if !b.is_zero() {
                parts.push(format!("{}·ack(t−{})", b, i + 1));
            }
        }
        if !self.gamma.is_zero() || parts.is_empty() {
            parts.push(self.gamma.to_string());
        }
        write!(f, "cwnd(t) = {}", parts.join(" + ").replace("+ -", "− "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known;
    use ccmatic_num::int;

    #[test]
    fn domain_values() {
        assert_eq!(CoeffDomain::Small.size(), 3);
        assert_eq!(CoeffDomain::Large.size(), 9);
        let large = CoeffDomain::Large.values();
        assert_eq!(large.first().unwrap(), &int(-2));
        assert_eq!(large.last().unwrap(), &int(2));
        assert!(large.contains(&rat(3, 2)));
        assert!(large.contains(&rat(-1, 2)));
    }

    #[test]
    fn search_space_sizes_match_table1() {
        assert_eq!(TemplateShape::no_cwnd_small().search_space_size(), 243); // 3^5
        assert_eq!(TemplateShape::no_cwnd_large().search_space_size(), 59049); // 9^5
        assert_eq!(TemplateShape::cwnd_small().search_space_size(), 19683); // 3^9
        assert_eq!(TemplateShape::cwnd_large().search_space_size(), 387420489); // 9^9
    }

    #[test]
    fn rocc_spec_display_and_history() {
        let rocc = known::rocc();
        assert_eq!(rocc.history_used(), 3);
        let shown = rocc.to_string();
        assert!(shown.contains("ack(t−1)"), "{shown}");
        assert!(shown.contains("ack(t−3)"), "{shown}");
    }

    #[test]
    fn flat_ordering() {
        let spec = CcaSpec { alpha: vec![int(1)], beta: vec![int(2)], gamma: int(3) };
        assert_eq!(spec.flat(), vec![int(1), int(2), int(3)]);
    }

    #[test]
    fn zero_spec_shape() {
        let z = CcaSpec::zero(&TemplateShape::cwnd_small());
        assert_eq!(z.alpha.len(), 4);
        assert_eq!(z.beta.len(), 4);
        assert_eq!(z.history_used(), 0);
        let z2 = CcaSpec::zero(&TemplateShape::no_cwnd_small());
        assert!(z2.alpha.is_empty());
    }
}
