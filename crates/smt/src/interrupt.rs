//! Cooperative interruption of long-running solver calls.
//!
//! A single WCE binary-search probe can run for minutes on the Large
//! domains, so a wall-clock budget enforced only *between* solver calls is
//! no budget at all. [`Interrupt`] carries a deadline down into the CDCL
//! search loop, which polls it once per propagation fixpoint, and into the
//! simplex check, which polls it before every pivot (a single theory check
//! can run thousands). Either gives up with an *Unknown* verdict (never a
//! fake Sat/Unsat) once the deadline passes.

use std::time::Instant;

/// A deadline polled inside search loops.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    /// Give up once this instant passes.
    pub deadline: Option<Instant>,
}

impl Interrupt {
    /// An interrupt that never fires (the default).
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// An interrupt firing at `deadline`.
    pub fn at(deadline: Instant) -> Self {
        Interrupt { deadline: Some(deadline) }
    }

    /// Whether polling can ever observe a trigger. Checked once up front so
    /// the common uninterruptible case pays nothing per loop iteration.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// Whether the deadline has passed. Once fired it stays fired, so a
    /// caller may re-poll to learn why a callee gave up.
    pub fn triggered(&self) -> bool {
        self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_never_triggers() {
        let i = Interrupt::none();
        assert!(!i.is_armed());
        assert!(!i.triggered());
    }

    #[test]
    fn past_deadline_triggers() {
        let i = Interrupt::at(Instant::now() - Duration::from_millis(1));
        assert!(i.is_armed());
        assert!(i.triggered());
    }

    #[test]
    fn future_deadline_does_not_trigger() {
        let i = Interrupt::at(Instant::now() + Duration::from_secs(3600));
        assert!(!i.triggered());
    }
}
