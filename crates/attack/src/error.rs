//! Typed attack failures.
//!
//! The executable attacks historically `panic!`ed on malformed inputs
//! (mismatched netlists) and on "impossible" solver states (an oracle
//! response contradicting the accumulated key constraints). Batch
//! drivers such as the campaign engine need a diverging or misconfigured
//! cell to degrade to a *recorded* failure instead of aborting the whole
//! process, so every entry point now surfaces [`AttackError`].

use std::error::Error;
use std::fmt;

use sttlock_sim::SimError;

use crate::sensitization::SensitizationOutcome;

/// Why an attack could not run to completion.
///
/// Simulation problems (unprogrammed oracle, arity mismatches) are
/// wrapped via [`AttackError::Sim`]; the remaining variants are the
/// conditions that used to be `assert!`-style aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// `redacted` and `oracle` are not views of the same design (their
    /// node arenas have different sizes).
    DesignMismatch {
        /// Arena size of the redacted (foundry) view.
        redacted: usize,
        /// Arena size of the oracle.
        oracle: usize,
    },
    /// An oracle response contradicted the accumulated key constraints.
    /// Impossible for a genuine programmed twin of the redacted netlist;
    /// seen when the "oracle" is a different design or a tampered part.
    OracleContradiction,
    /// The constraint set became unsatisfiable after the DIP loop — the
    /// same inconsistency as
    /// [`OracleContradiction`](AttackError::OracleContradiction),
    /// detected at final key extraction instead of during a query.
    Unsatisfiable,
    /// A sequential attack was configured with a zero unroll bound.
    ZeroFrames,
    /// A configured test-clock or wall-clock budget ran out before the
    /// attack converged. Not a hard failure: everything recovered before
    /// the cutoff travels in `partial`, so campaigns can still record
    /// the resolution ratio reached within the budget.
    TimedOut {
        /// The attack state at the moment the budget expired.
        partial: Box<SensitizationOutcome>,
    },
    /// The oracle could not be simulated.
    Sim(SimError),
}

impl AttackError {
    /// The partial outcome carried by a budget expiry, if any.
    pub fn partial_outcome(&self) -> Option<&SensitizationOutcome> {
        match self {
            AttackError::TimedOut { partial } => Some(partial),
            _ => None,
        }
    }
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::DesignMismatch { redacted, oracle } => write!(
                f,
                "redacted and oracle netlists are not the same design \
                 ({redacted} vs {oracle} nodes)"
            ),
            AttackError::OracleContradiction => {
                write!(f, "oracle response contradicts the key constraints")
            }
            AttackError::Unsatisfiable => {
                write!(f, "key constraint set became unsatisfiable")
            }
            AttackError::ZeroFrames => {
                write!(f, "sequential attack needs at least one unroll frame")
            }
            AttackError::TimedOut { partial } => write!(
                f,
                "attack budget exhausted at resolution ratio {:.3} \
                 ({} test clocks, {} SAT queries)",
                partial.resolution_ratio(),
                partial.test_clocks,
                partial.sat_queries
            ),
            AttackError::Sim(e) => write!(f, "oracle simulation failed: {e}"),
        }
    }
}

impl Error for AttackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttackError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AttackError {
    fn from(e: SimError) -> Self {
        AttackError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = AttackError::DesignMismatch {
            redacted: 10,
            oracle: 12,
        };
        assert!(e.to_string().contains("10 vs 12"));
        assert!(AttackError::OracleContradiction
            .to_string()
            .contains("contradicts"));
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let e = AttackError::from(SimError::UnprogrammedLut { name: "g1".into() });
        assert!(matches!(e, AttackError::Sim(_)));
        assert!(e.source().is_some());
    }
}
