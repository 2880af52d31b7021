//! Reverse-engineering attacks on hybrid STT-CMOS netlists.
//!
//! The paper argues security through the cost of determining the "missing
//! gates" (redacted LUTs). This crate provides both the analytic cost
//! models of Section IV and executable attacks that validate them on
//! small circuits:
//!
//! * [`alpha`] — the per-fan-in α (average test patterns to disambiguate
//!   a missing gate, from truth-table similarity) and P (candidate gate
//!   count) constants, both the paper's published values and the ones
//!   recomputed from first principles.
//! * [`estimate`] — Equations 1–3 in log₁₀-domain arithmetic
//!   ([`estimate::BigEffort`]), since the parametric-aware numbers reach
//!   10²¹⁹ and beyond.
//! * [`sensitization`] — the testing-based attack sketched in Section
//!   IV-A.1: justify missing-gate inputs, propagate the output difference
//!   to an observation point, and accumulate a partial truth table. It
//!   succeeds against *independent* selection and stalls against
//!   *dependent* selection, the paper's central security claim.
//! * [`sat_attack`] — the oracle-guided SAT attack (the executable
//!   equivalent of the decamouflaging attack the paper cites as \[11\]),
//!   built on the `sttlock-sat` CDCL solver. Runs under the full-scan
//!   assumption the paper's defense explicitly removes in fielded parts.
//!
//! Attacks take two netlists: the *redacted* foundry view (structure
//! only) and the *oracle* (a programmed part bought on the open market
//! that can be stimulated and observed, but not opened).
//!
//! Front ends (campaign cells, `POST /v1/attack`, `sttlock-cli attack`)
//! run every attack through [`run`]: an [`AttackKind`] names the attack
//! and its limits, the caller's `exec::Budget` alone stops it, and
//! [`AttackOutcome::metrics`] gives the counters they record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod camouflage;
mod dispatch;
pub mod error;
pub mod estimate;
pub mod sat_attack;
pub mod sensitization;

pub use dispatch::{run, AttackKind, AttackMetrics, AttackOutcome, FRAMES, MAX_DIPS, MAX_FRAMES};
pub use error::AttackError;
