//! Phase-structured applications.

use cbes_mpisim::Program;

/// An application split into sequential phases (the paper's execution-trace
//  *segments*): each phase is a complete sub-program over the same ranks,
/// and remapping is only possible at phase boundaries (where a real MPI
/// application would checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedApp {
    /// Application name.
    pub name: String,
    /// The phases, in execution order. All share the same rank count.
    pub phases: Vec<Program>,
}

impl PhasedApp {
    /// Build from explicit phases.
    ///
    /// # Panics
    /// Panics if there are no phases or rank counts differ between phases.
    pub fn new(name: impl Into<String>, phases: Vec<Program>) -> Self {
        assert!(
            !phases.is_empty(),
            "an application needs at least one phase"
        );
        let n = phases[0].num_ranks();
        assert!(
            phases.iter().all(|p| p.num_ranks() == n),
            "all phases must have the same rank count"
        );
        PhasedApp {
            name: name.into(),
            phases,
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.phases[0].num_ranks()
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "same rank count")]
    fn mismatched_phase_ranks_panic() {
        let _ = PhasedApp::new("a", vec![Program::new(2), Program::new(3)]);
    }
}
