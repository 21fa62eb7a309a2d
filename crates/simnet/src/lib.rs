//! A concrete discrete-time simulator of the CCAC link model.
//!
//! The SMT encoding in [`ccac-model`](../ccac_model/index.html) reasons
//! about *all* traces; this crate executes *one* trace at a time, with the
//! same semantics, so that synthesized CCAs can be validated behaviorally
//! (the paper's authors sanity-checked RoCC the same way) and so the
//! benchmark harness can plot utilization/queue trajectories.
//!
//! Semantics mirror the verifier model exactly, per step `t` (time in Rm
//! units, data in BDP units, link rate `C`):
//!
//! 1. the CCA observes `ack(t) = S(t−1)` and history, and picks `cwnd(t)`;
//! 2. the sender fills its window: `A(t) = max(A(t−1), S(t−1) + cwnd(t))`;
//! 3. the link serves somewhere inside its feasibility band
//!    `[max(S(t−1), C·(t−D) − W(t−D) bounded by A), min(A(t), C·t − W(t))]`
//!    — where in the band is chosen by a pluggable [`LinkSchedule`]
//!    (ideal, adversarial sawtooth, or seeded-random jitter);
//! 4. if the sender has nothing queued above the token line, the surplus
//!    tokens are wasted (`W` grows) under the eager waste policy.
//!
//! Arithmetic is `f64`: the simulator is for behavioural validation and
//! plotting, not proofs — the proofs live in the SMT pipeline.

pub mod cca;
pub mod link;
pub mod multiflow;
pub mod runner;

pub use cca::{AimdCca, Cca, ConstCwnd, LinearCca, Observation, ThresholdCca};
pub use link::{
    AdversarialSawtooth, IdealLink, LinkConfig, LinkSchedule, RandomJitter, TableSchedule,
    WastePolicy,
};
pub use multiflow::{run_shared_link, FlowResult, MultiFlowConfig, MultiFlowResult};
pub use runner::{run_simulation, SimConfig, SimResult, Simulator, StepRecord};
