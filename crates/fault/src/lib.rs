//! Deterministic, seedable fault models for hybrid STT-CMOS netlists.
//!
//! The paper's flow programs an STT-LUT bitstream into the fabricated
//! part and assumes the write sticks. Real STT-MRAM does not cooperate:
//! writes fail stochastically, stored rows flip over retention time, and
//! individual cells weld themselves to 0 or 1. This crate provides the
//! device-level half of the robustness story:
//!
//! * [`FaultModel`] — per-row probabilities for write failures,
//!   retention flips and stuck-at-0/1 rows of programmed LUTs, plus a
//!   stuck-at probability for plain CMOS gates.
//! * [`FaultInjector`] — applies a model to a programmed hybrid through
//!   a [`HybridOverlay`](sttlock_netlist::HybridOverlay), so injection never clones the base netlist,
//!   and doubles as the [`ProgrammingChannel`] the repair loop writes
//!   through (stuck cells persist across re-programming; every write
//!   re-rolls the write-failure dice).
//! * [`PerfectChannel`] — the ideal channel, for baselines and tests.
//!
//! Everything is deterministic given `(model, seed)`: each node draws
//! from its own seeded stream, so injection does not depend on iteration
//! order and a campaign cell reproduces bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inject;
mod model;

pub use inject::{FaultInjector, PerfectChannel, ProgrammingChannel};
pub use model::{FaultKind, FaultModel, InjectedFault};
