//! Multiple flows sharing one bottleneck — the substrate for the paper's
//! §4.1 fairness/starvation discussion ("Recent work showed that network
//! delays can cause competing flows to starve for many known CCAs. It is
//! unknown if a CCA outside this class can avoid starvation").
//!
//! The shared link serves the aggregate arrival process inside the usual
//! token band; within a step, service is split across flows in proportion
//! to their standing backlogs (fluid processor sharing — the neutral
//! choice that attributes unfairness to the CCAs, not the scheduler).

use crate::cca::{Cca, Observation};
use crate::link::{LinkConfig, LinkSchedule, LinkState};
use crate::runner::HISTORY_WINDOW;

/// Per-flow output of a shared-link run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Steady-state throughput share of the link (fraction of `C`).
    pub throughput: f64,
    /// Max standing backlog attributable to the flow (BDP).
    pub max_queue: f64,
}

/// Aggregate output of [`run_shared_link`].
#[derive(Clone, Debug)]
pub struct MultiFlowResult {
    /// Per-flow results, in input order.
    pub flows: Vec<FlowResult>,
    /// Jain's fairness index over steady-state throughputs
    /// (1 = perfectly fair, 1/n = one flow hogs everything).
    pub jain_index: f64,
    /// Total link utilization.
    pub utilization: f64,
}

/// Shared-link run parameters.
#[derive(Clone, Debug)]
pub struct MultiFlowConfig {
    /// Rounds to simulate.
    pub rounds: usize,
    /// Warmup rounds excluded from metrics.
    pub warmup: usize,
    /// The shared link.
    pub link: LinkConfig,
}

impl Default for MultiFlowConfig {
    fn default() -> Self {
        MultiFlowConfig { rounds: 300, warmup: 60, link: LinkConfig::default() }
    }
}

/// Run `ccas` against one shared bottleneck.
pub fn run_shared_link(
    ccas: &mut [Box<dyn Cca>],
    schedule: &mut dyn LinkSchedule,
    cfg: &MultiFlowConfig,
) -> MultiFlowResult {
    let n = ccas.len();
    assert!(n > 0, "need at least one flow");
    let mut link = LinkState::new();
    let mut arrivals = vec![0.0f64; n]; // cumulative per flow
    let mut served = vec![0.0f64; n]; // cumulative per flow
    let mut ack_hist: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cwnd_hist: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut served_prev = vec![0.0f64; n];
    let mut max_queue = vec![0.0f64; n];
    let mut served_at_warmup = vec![0.0f64; n];
    let mut total_served_prev = 0.0;

    for t in 0..cfg.rounds {
        // Each flow picks its window and fills it.
        for i in 0..n {
            let obs = Observation::new(t, &ack_hist[i], &cwnd_hist[i]);
            let cwnd = ccas[i].on_round(&obs).max(0.0);
            let target = served_prev[i] + cwnd;
            if target > arrivals[i] {
                arrivals[i] = target;
            }
            cwnd_hist[i].insert(0, cwnd);
            if cwnd_hist[i].len() > HISTORY_WINDOW {
                cwnd_hist[i].pop();
            }
        }
        // The link serves the aggregate inside its band.
        let total_arrivals: f64 = arrivals.iter().sum();
        let total_served = link.step(t + 1, total_arrivals, &cfg.link, schedule);
        let delta = (total_served - total_served_prev).max(0.0);
        total_served_prev = total_served;
        // Processor sharing: split the service increment by backlog.
        let backlogs: Vec<f64> = (0..n).map(|i| (arrivals[i] - served[i]).max(0.0)).collect();
        let total_backlog: f64 = backlogs.iter().sum();
        if total_backlog > 1e-12 {
            for i in 0..n {
                let share = delta * backlogs[i] / total_backlog;
                served[i] = (served[i] + share).min(arrivals[i]);
            }
        }
        // Feedback and metrics.
        for i in 0..n {
            ack_hist[i].insert(0, served_prev[i]);
            if ack_hist[i].len() > HISTORY_WINDOW {
                ack_hist[i].pop();
            }
            served_prev[i] = served[i];
            if t >= cfg.warmup {
                max_queue[i] = max_queue[i].max(arrivals[i] - served[i]);
            }
        }
        if t + 1 == cfg.warmup {
            served_at_warmup.copy_from_slice(&served);
        }
    }

    let window = (cfg.rounds - cfg.warmup).max(1) as f64;
    let throughputs: Vec<f64> =
        (0..n).map(|i| (served[i] - served_at_warmup[i]) / (cfg.link.rate * window)).collect();
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    let jain_index = if sum_sq > 1e-12 { sum * sum / (n as f64 * sum_sq) } else { 1.0 };
    MultiFlowResult {
        flows: (0..n)
            .map(|i| FlowResult { throughput: throughputs[i], max_queue: max_queue[i] })
            .collect(),
        jain_index,
        utilization: sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::{ConstCwnd, LinearCca};
    use crate::link::IdealLink;

    #[test]
    fn two_rocc_flows_share_fairly() {
        let mut ccas: Vec<Box<dyn Cca>> =
            vec![Box::new(LinearCca::rocc()), Box::new(LinearCca::rocc())];
        let mut sched = IdealLink;
        let res = run_shared_link(&mut ccas, &mut sched, &MultiFlowConfig::default());
        assert!(res.jain_index > 0.95, "Jain index {}", res.jain_index);
        assert!(res.utilization > 0.9, "utilization {}", res.utilization);
        for f in &res.flows {
            assert!(f.throughput > 0.4, "per-flow share {}", f.throughput);
        }
    }

    #[test]
    fn aggressive_constant_window_starves_a_peer() {
        // A huge fixed window keeps a standing backlog and, under
        // backlog-proportional sharing, crowds out a RoCC flow — the
        // §4.1-style starvation phenomenon.
        let mut ccas: Vec<Box<dyn Cca>> =
            vec![Box::new(ConstCwnd(30.0)), Box::new(LinearCca::rocc())];
        let mut sched = IdealLink;
        let res = run_shared_link(&mut ccas, &mut sched, &MultiFlowConfig::default());
        assert!(
            res.flows[0].throughput > res.flows[1].throughput,
            "the aggressive flow should dominate ({} vs {})",
            res.flows[0].throughput,
            res.flows[1].throughput
        );
        assert!(res.jain_index < 0.95, "expected measurable unfairness, {}", res.jain_index);
    }

    #[test]
    fn single_flow_matches_single_flow_runner() {
        let mut ccas: Vec<Box<dyn Cca>> = vec![Box::new(LinearCca::rocc())];
        let mut sched = IdealLink;
        let res = run_shared_link(&mut ccas, &mut sched, &MultiFlowConfig::default());
        assert!(res.utilization > 0.95);
        assert_eq!(res.flows.len(), 1);
        assert!((res.jain_index - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughputs_sum_to_utilization() {
        let mut ccas: Vec<Box<dyn Cca>> = vec![
            Box::new(LinearCca::rocc()),
            Box::new(LinearCca::eq_iii()),
            Box::new(ConstCwnd(2.0)),
        ];
        let mut sched = IdealLink;
        let res = run_shared_link(&mut ccas, &mut sched, &MultiFlowConfig::default());
        let sum: f64 = res.flows.iter().map(|f| f.throughput).sum();
        assert!((sum - res.utilization).abs() < 1e-9);
        assert!(res.utilization <= 1.0 + 1e-9);
    }
}
