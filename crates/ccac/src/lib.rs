//! A CCAC-style network model, encoded as SMT constraints.
//!
//! This crate re-derives the network-calculus link model of CCAC
//! (Arun et al., *Toward Formally Verifying Congestion Control Behavior*,
//! SIGCOMM '21), which the CCmatic paper uses as its verifier. The model
//! admits every behaviour a real path can exhibit within two rules — a
//! token-bucket service cap and a bounded non-congestive delay — and is
//! therefore *adversarial*: a property proven over all traces of this model
//! holds under ACK aggregation, jitter, token-bucket policers, and similar
//! sub-RTT phenomena.
//!
//! # The model
//!
//! Time is discretized in units of the propagation delay `Rm` (one RTT at
//! zero queueing). A trace spans `t ∈ [−h, T]`: the `h` *history* steps
//! give the solver freedom to pick arbitrary initial conditions (CCAC's
//! trick for reasoning about steady state with finite traces), and the
//! congestion-control rule is enforced on `t ∈ [0, T]`.
//!
//! Per time step the model tracks cumulative quantities (all in units of
//! BDP = `C·Rm`, with the link rate `C` normalized to 1 by default):
//!
//! * `A(t)` — bytes the sender has put on the wire ("arrivals"),
//! * `S(t)` — bytes the link has served ("service"),
//! * `W(t)` — service tokens the link has *wasted* while idle,
//! * `cwnd(t)` — the congestion window chosen by the CCA.
//!
//! Constraints (see [`network_constraints`]):
//!
//! * monotonicity of `A`, `S`, `W`; anchors `S(−h) = W(−h) = 0`,
//!   `A(−h) ≥ 0`;
//! * no serving unsent (or lost) data: `S(t) ≤ A(t) − L(t)`;
//! * token bucket: `S(t) ≤ C·(t+h) − W(t)`;
//! * bounded non-congestive delay (jitter `D`):
//!   `S(t) ≥ C·(t+h−D) − W(t−D)`;
//! * waste only when idle: `W(t) > W(t−1) ⟹ A(t) − L(t) ≤ C·(t+h) − W(t)`;
//! * losses: `L ≡ 0` in the lossless scope (`buffer: None`, the paper's
//!   §4). With a buffer `B`, `L` is monotone with `L(t) ≤ A(t)`, the
//!   undropped backlog stays under the buffer cap
//!   `A(t) − L(t) ≤ C·(t+h) − W(t) + B`, and `L` grows only where the
//!   backlog sits at that cap.
//!
//! The sender is aggressive and cwnd-limited ([`sender_constraints`]):
//! `A(t) = max(A(t−1), S(t−1) + cwnd(t))`, with the ACK signal delayed one
//! propagation unit: `ack(t) = S(t−1)`.
//!
//! Each rule is written once, in [`model`], and read two ways: as solver
//! terms ([`network_constraints`], [`sender_constraints`]) and as exact
//! checks of a concrete [`Trace`] ([`check_trace`], [`check_sender_rule`]).
//!
//! # Desired property
//!
//! [`property::desired`] states the paper's induction-friendly relaxation
//! of "high utilization AND bounded delay" (§3.1.1) once:
//!
//! ```text
//! (S(T)−S(0) ≥ thresh_U·C·T  ∨  cwnd(T) > cwnd(0))
//! ∧ (∀t. queue(t) ≤ thresh_D  ∨  queue(T) < queue(0)  ∨  cwnd(T) < cwnd(0))
//! ```
//!
//! where `queue(t) = A(t) − L(t) − S(t)` is the standing queue in BDP
//! units (lost bytes never occupy it; at `C = 1` it is numerically equal
//! to queueing delay in RTTs). The disjuncts make the property provable by
//! induction on trace windows: a CCA may momentarily miss a target as long
//! as it moves in the right direction. [`desired_property`] is its solver
//! reading over the trace variables, and [`base_query`] the query every
//! verifier asks, `network ∧ sender ∧ ¬desired`; `ccmatic`'s learned
//! constraint σ reads the same statement over a counterexample's
//! constants. Deviations from the paper's exact encoding (it compares
//! `ack` cumulatives; we compare `S`, which differs by a constant offset)
//! are documented in DESIGN.md.

pub mod model;
pub mod property;
pub mod trace;
pub mod validate;

pub use model::{
    alloc_net_vars, network_constraints, sender_constraints, NetConfig, NetVars, Quantity, Rel,
};
pub use property::{base_query, desired_property, Thresholds};
pub use trace::Trace;
pub use validate::{check_sender_rule, check_trace};
