//! Cooperative interruption of long-running solver calls.
//!
//! A single WCE binary-search probe can run for minutes on the Large
//! domains, so a wall-clock budget enforced only *between* solver calls is
//! no budget at all. [`Interrupt`] carries a deadline and/or a shared
//! cancellation flag down into the CDCL search loop, which polls it once
//! per propagation fixpoint, and into the simplex check, which polls it
//! before every pivot (a single theory check can run thousands). Either
//! gives up with an *Unknown* verdict (never a fake Sat/Unsat) when it
//! fires. The cancellation flag lets another thread stop a query early.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A deadline and/or cancellation flag polled inside search loops.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    /// Give up once this instant passes.
    pub deadline: Option<Instant>,
    /// Give up once this flag is raised (shared across threads).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Interrupt {
    /// An interrupt that never fires (the default).
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// An interrupt firing at `deadline` (no cancellation flag).
    pub fn at(deadline: Instant) -> Self {
        Interrupt { deadline: Some(deadline), cancel: None }
    }

    /// Whether polling can ever observe a trigger. Checked once up front so
    /// the common uninterruptible case pays nothing per loop iteration.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Whether the interrupt has fired. The flag is checked before the
    /// clock: a cancelled worker should stop even if its deadline is far
    /// away. Once fired it stays fired (flags are never lowered), so a
    /// caller may re-poll to learn why a callee gave up.
    pub fn triggered(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
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

    #[test]
    fn cancel_flag_triggers_immediately() {
        let flag = Arc::new(AtomicBool::new(false));
        let i = Interrupt {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            cancel: Some(flag.clone()),
        };
        assert!(!i.triggered());
        flag.store(true, Ordering::Relaxed);
        assert!(i.triggered());
    }
}
