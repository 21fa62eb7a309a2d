//! `ccmatic-fuzz` — adversarial trace fuzzing for the CCmatic loop.
//!
//! The SMT verifier quantifies over *every* feasible link behaviour; this
//! crate attacks from the other side, *searching* for concrete feasible
//! behaviours that break a fixed CCA. A seeded genetic algorithm evolves
//! quantized link schedules ([`genome`]), scores them by objective-violation
//! margin in the `f64` simulator ([`fitness`]), confirms hits in exact
//! rational arithmetic via the trace lift, and cross-checks every confirmed
//! failure against the verifier's verdict ([`engine`]). A confirmed concrete
//! failure on a candidate the verifier certified is a **model gap** — a
//! soundness bug in the encoding — minimized by [`shrink()`] and dumped as a
//! replayable artifact. Everything else lands in the [`corpus`] and feeds
//! back into CEGIS as warm-start counterexamples.

pub mod corpus;
pub mod engine;
pub mod fitness;
pub mod genome;
pub mod shrink;

pub use corpus::{Corpus, CorpusEntry};
pub use engine::{run_fuzz, FuzzConfig, FuzzCounters, FuzzReport, FuzzTarget, ModelGapReport};
pub use fitness::{evaluate, Fitness, FitnessConfig, ModelCca, Screen, Violation};
pub use genome::ScheduleGenome;
pub use shrink::shrink;
