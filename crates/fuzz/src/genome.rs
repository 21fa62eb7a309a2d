//! Schedule genomes: quantized adversarial link schedules.
//!
//! A genome encodes one concrete adversary inside the CCAC feasibility
//! band: a per-round band position λ (where between the lagged service
//! floor and the token cap the link serves), a per-round waste fraction ω
//! (how much of each idle step's surplus tokens the link discards), and an
//! initial standing queue. All genes are quantized to small dyadic
//! rationals (`k/16` for λ/ω, `q/4` for the backlog) so the same genome
//! evaluates *identically* as `f64` in the simulator and as exact `Rat`
//! in the verifier-side lift — quantization is what makes the screening
//! tier and the confirming tier comparable at all.

use ccac_model::NetConfig;
use ccmatic::lift::LiftConfig;
use ccmatic_num::{rat, Rat, SmallRng};
use ccmatic_simnet::{LinkSchedule, TableSchedule};

/// λ/ω quantization denominator.
pub const GENE_STEPS: u8 = 16;
/// Backlog quantization denominator (`backlog = backlog_q / 4` BDP).
pub const BACKLOG_STEPS: u8 = 4;
/// Largest encodable backlog numerator (8 BDP — far beyond any delay
/// threshold in the paper's sweep).
pub const BACKLOG_MAX: u8 = 32;

/// One adversarial link schedule, quantized.
#[derive(Debug, PartialEq, Eq)]
pub struct ScheduleGenome {
    /// Band position per simulator round: `lambdas[u] / 16 ∈ [0, 1]`.
    pub lambdas: Vec<u8>,
    /// Waste fraction per round: `omegas[u] / 16 ∈ [0, 1]`.
    pub omegas: Vec<u8>,
    /// Initial standing queue: `backlog_q / 4` BDP.
    pub backlog_q: u8,
}

impl Clone for ScheduleGenome {
    fn clone(&self) -> Self {
        ScheduleGenome {
            lambdas: self.lambdas.clone(),
            omegas: self.omegas.clone(),
            backlog_q: self.backlog_q,
        }
    }

    /// Copy `source` into this genome's gene buffers (the breeding loop
    /// overwrites old genomes instead of allocating new ones).
    fn clone_from(&mut self, source: &Self) {
        self.lambdas.clone_from(&source.lambdas);
        self.omegas.clone_from(&source.omegas);
        self.backlog_q = source.backlog_q;
    }
}

impl ScheduleGenome {
    /// The benign genome: ideal link (λ = 1), eager waste (ω = 1), empty
    /// queue — the schedule every CCA is happiest under, and the shrinker's
    /// fixpoint direction.
    pub fn ideal(rounds: usize) -> Self {
        ScheduleGenome {
            lambdas: vec![GENE_STEPS; rounds],
            omegas: vec![GENE_STEPS; rounds],
            backlog_q: 0,
        }
    }

    /// A uniformly random genome.
    pub fn random(rng: &mut SmallRng, rounds: usize) -> Self {
        ScheduleGenome {
            lambdas: (0..rounds)
                .map(|_| rng.gen_range_usize(0, GENE_STEPS as usize + 1) as u8)
                .collect(),
            omegas: (0..rounds)
                .map(|_| rng.gen_range_usize(0, GENE_STEPS as usize + 1) as u8)
                .collect(),
            backlog_q: rng.gen_range_usize(0, BACKLOG_MAX as usize + 1) as u8,
        }
    }

    /// Apply one mutation, chosen from a composable repertoire of
    /// point tweaks and structured span edits (idle phases, catch-up
    /// bursts, sawtooth jitter, waste-withholding flushes).
    pub fn mutate(&mut self, rng: &mut SmallRng) {
        let n = self.lambdas.len();
        if n == 0 {
            return;
        }
        let span = |rng: &mut SmallRng| -> (usize, usize) {
            let start = rng.gen_range_usize(0, n);
            let len = rng.gen_range_usize(1, (n - start).max(1) + 1);
            (start, start + len)
        };
        match rng.gen_range_usize(0, 8) {
            // Point λ tweak.
            0 => {
                let i = rng.gen_range_usize(0, n);
                self.lambdas[i] = rng.gen_range_usize(0, GENE_STEPS as usize + 1) as u8;
            }
            // Point ω tweak.
            1 => {
                let i = rng.gen_range_usize(0, n);
                self.omegas[i] = rng.gen_range_usize(0, GENE_STEPS as usize + 1) as u8;
            }
            // Idle phase: the link stalls at its floor for a while.
            2 => {
                let (a, b) = span(rng);
                self.lambdas[a..b].fill(0);
            }
            // Burst: serve flat-out (floor-to-cap catch-up).
            3 => {
                let (a, b) = span(rng);
                self.lambdas[a..b].fill(GENE_STEPS);
            }
            // Sawtooth jitter over a span.
            4 => {
                let (a, b) = span(rng);
                for (k, l) in self.lambdas[a..b].iter_mut().enumerate() {
                    *l = if k % 2 == 0 { 0 } else { GENE_STEPS };
                }
            }
            // Withhold waste over a span (tokens pile up — raises later
            // floors, probing the model's waste-placement freedom).
            5 => {
                let (a, b) = span(rng);
                self.omegas[a..b].fill(0);
            }
            // Flush: back to eager waste over a span.
            6 => {
                let (a, b) = span(rng);
                self.omegas[a..b].fill(GENE_STEPS);
            }
            // Backlog tweak.
            _ => {
                self.backlog_q = rng.gen_range_usize(0, BACKLOG_MAX as usize + 1) as u8;
            }
        }
    }

    /// One-point crossover into `child`'s buffers: a prefix of `self`
    /// spliced onto a suffix of `other` (both gene tracks cut at the same
    /// point), backlog inherited from either parent.
    pub fn crossover_into(&self, other: &Self, rng: &mut SmallRng, child: &mut Self) {
        let n = self.lambdas.len().min(other.lambdas.len());
        if n == 0 {
            child.clone_from(self);
            return;
        }
        let cut = rng.gen_range_usize(0, n + 1);
        let splice = |out: &mut Vec<u8>, a: &[u8], b: &[u8]| {
            out.clear();
            out.extend_from_slice(&a[..cut]);
            out.extend_from_slice(&b[cut..n]);
        };
        splice(&mut child.lambdas, &self.lambdas, &other.lambdas);
        splice(&mut child.omegas, &self.omegas, &other.omegas);
        child.backlog_q = if rng.gen_bool(0.5) { self.backlog_q } else { other.backlog_q };
    }

    /// The genome as a [`TableSchedule`] (the screen runs the genome
    /// itself as its [`LinkSchedule`]; both read the same `f64` values).
    pub fn table(&self) -> TableSchedule {
        TableSchedule {
            lambdas: self.lambdas.iter().map(|&k| k as f64 / GENE_STEPS as f64).collect(),
            omegas: self.omegas.iter().map(|&k| k as f64 / GENE_STEPS as f64).collect(),
        }
    }

    /// The initial backlog in BDP units.
    pub fn backlog_f64(&self) -> f64 {
        self.backlog_q as f64 / BACKLOG_STEPS as f64
    }

    /// The exact-rational lift configuration for this genome.
    pub fn lift_config(&self, net: &NetConfig, initial_cwnd: &Rat) -> LiftConfig {
        let mut cfg =
            LiftConfig { initial_cwnd: initial_cwnd.clone(), ..LiftConfig::ideal(net.clone()) };
        self.write_lift_config(&mut cfg);
        cfg
    }

    /// Overwrite `cfg`'s schedule and initial backlog with this genome's,
    /// keeping its network and initial cwnd: the exact tier reuses one
    /// configuration for every genome it lifts, so once its tables have
    /// grown this allocates nothing.
    pub fn write_lift_config(&self, cfg: &mut LiftConfig) {
        let gene = |&k: &u8| rat(k as i64, GENE_STEPS as i64);
        cfg.lambdas.clear();
        cfg.lambdas.extend(self.lambdas.iter().map(gene));
        cfg.omegas.clear();
        cfg.omegas.extend(self.omegas.iter().map(gene));
        cfg.initial_backlog = rat(self.backlog_q as i64, BACKLOG_STEPS as i64);
    }

    /// Stable content hash (FNV-1a) for dedup and run digests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for &l in &self.lambdas {
            eat(l);
        }
        eat(0xff);
        for &o in &self.omegas {
            eat(o);
        }
        eat(0xfe);
        eat(self.backlog_q);
        h
    }
}

/// Gene `t − 1` as `k/16` (steps are 1-based); the last gene holds
/// beyond the track and an empty track reads 1, as in [`TableSchedule`].
fn gene_at(genes: &[u8], t: usize) -> f64 {
    let i = t.saturating_sub(1);
    genes.get(i).or(genes.last()).map_or(1.0, |&k| k as f64 / GENE_STEPS as f64)
}

/// The screen's schedule: exact in `f64`, since every gene is a dyadic
/// rational.
impl LinkSchedule for ScheduleGenome {
    fn lambda(&mut self, t: usize) -> f64 {
        gene_at(&self.lambdas, t)
    }

    fn waste_fraction(&mut self, t: usize) -> f64 {
        gene_at(&self.omegas, t)
    }

    fn name(&self) -> String {
        format!("genome({} steps)", self.lambdas.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_and_crossover_are_seed_deterministic() {
        let build = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = ScheduleGenome::random(&mut rng, 12);
            let other = ScheduleGenome::random(&mut rng, 12);
            let mut child = ScheduleGenome::ideal(12);
            for _ in 0..20 {
                g.mutate(&mut rng);
                g.crossover_into(&other, &mut rng, &mut child);
                std::mem::swap(&mut g, &mut child);
            }
            g
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn genes_stay_in_range_under_mutation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut g = ScheduleGenome::ideal(10);
        for _ in 0..500 {
            g.mutate(&mut rng);
            assert!(g.lambdas.iter().all(|&l| l <= GENE_STEPS));
            assert!(g.omegas.iter().all(|&o| o <= GENE_STEPS));
            assert!(g.backlog_q <= BACKLOG_MAX);
        }
    }

    #[test]
    fn f64_and_rat_views_agree() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = ScheduleGenome::random(&mut rng, 8);
        let net = NetConfig::default();
        let lift = g.lift_config(&net, &Rat::one());
        let table = g.table();
        for (f, r) in table.lambdas.iter().zip(&lift.lambdas) {
            assert_eq!(*f, r.to_f64(), "λ quantization must be exact in both views");
        }
        for (f, r) in table.omegas.iter().zip(&lift.omegas) {
            assert_eq!(*f, r.to_f64());
        }
        // The genome as a schedule reads the table's values, holding the
        // last gene past the end like the table does.
        let (mut genome, mut table) = (g.clone(), table);
        for t in 1..=12 {
            assert_eq!(genome.lambda(t).to_bits(), table.lambda(t).to_bits(), "λ at step {t}");
            assert_eq!(genome.waste_fraction(t).to_bits(), table.waste_fraction(t).to_bits());
        }
        assert_eq!(g.backlog_f64(), lift.initial_backlog.to_f64());
    }

    #[test]
    fn fingerprint_separates_genomes() {
        let a = ScheduleGenome::ideal(6);
        let mut b = a.clone();
        b.lambdas[3] = 0;
        let mut c = a.clone();
        c.backlog_q = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), ScheduleGenome::ideal(6).fingerprint());
    }
}
