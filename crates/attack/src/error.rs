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

use sttlock_exec::BudgetError;
use sttlock_netlist::Netlist;
use sttlock_sim::SimError;

use crate::dispatch::AttackOutcome;

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
    /// The caller's budget tripped before the attack converged. Not a
    /// hard failure: everything the attack reached before the cutoff
    /// travels in `partial` (the sensitization attack's recovered rows,
    /// or the DIPs a SAT attack found), so callers can still report it.
    Budget {
        /// Why the budget refused further work.
        reason: BudgetError,
        /// The attack state at the moment the budget tripped.
        partial: Box<AttackOutcome>,
    },
    /// The oracle could not be simulated.
    Sim(SimError),
}

impl AttackError {
    /// [`DesignMismatch`](AttackError::DesignMismatch) unless `redacted`
    /// and `oracle` have node arenas of one size.
    pub(crate) fn check_same_design(redacted: &Netlist, oracle: &Netlist) -> Result<(), Self> {
        if redacted.len() != oracle.len() {
            return Err(AttackError::DesignMismatch {
                redacted: redacted.len(),
                oracle: oracle.len(),
            });
        }
        Ok(())
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
            AttackError::Budget { reason, partial } => match partial.as_ref() {
                AttackOutcome::Sensitization(p) => write!(
                    f,
                    "attack budget exhausted ({reason}) at resolution ratio {:.3} \
                     ({} test clocks, {} SAT queries)",
                    p.resolution_ratio(),
                    p.test_clocks,
                    p.sat_queries
                ),
                AttackOutcome::Sat(p) => write!(
                    f,
                    "attack budget exhausted ({reason}) after {} DIPs",
                    p.dips
                ),
            },
            AttackError::Sim(e) => write!(f, "oracle simulation failed: {e}"),
        }
    }
}

impl Error for AttackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttackError::Sim(e) => Some(e),
            AttackError::Budget { reason, .. } => Some(reason),
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
