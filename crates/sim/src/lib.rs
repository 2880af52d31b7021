//! Logic simulation for the `sttlock` toolkit.
//!
//! One engine, operating on a validated
//! [`Netlist`](sttlock_netlist::Netlist) in two value domains:
//!
//! * [`Engine`] — a 64-lane bit-parallel cycle simulator, generic over
//!   its [`Logic`] domain. Each word carries 64 independent pattern
//!   streams, so one pass over the netlist evaluates 64 test vectors.
//!   It owns the evaluation loop, clocking, full-scan frames, the
//!   observation layout and per-node forces for both domains:
//!   * [`Simulator`] — two-valued (`u64`). This is the oracle the
//!     attacks query and the engine behind activity estimation.
//!   * [`tri::TriSimulator`] — three-valued (0/1/X, [`tri::TriWord`]),
//!     in which *redacted* LUTs (missing gates seen by the foundry)
//!     evaluate to X. The sensitization attack uses it to decide which
//!     LUT outputs are observable at which observation points.
//! * [`activity`] / [`probability`] — dynamic (simulation-based) and
//!   static (probabilistic) switching-activity estimation, feeding the
//!   power analysis. The paper's Figure 1 power columns are parameterized
//!   by exactly this activity (α).
//!
//! # Example
//!
//! ```
//! use sttlock_netlist::{GateKind, NetlistBuilder};
//! use sttlock_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("xor_reg");
//! b.input("a");
//! b.input("b");
//! b.gate("x", GateKind::Xor, &["a", "b"]);
//! b.dff("q", "x");
//! b.output("q");
//! let n = b.finish()?;
//!
//! let mut sim = Simulator::new(&n)?;
//! sim.step(&[u64::MAX, 0])?;         // a=1, b=0 in every lane
//! let outs = sim.step(&[0, 0])?;     // q now shows last cycle's x
//! assert_eq!(outs[0], u64::MAX);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod probability;
pub mod tri;

mod engine;
mod error;

pub use engine::{Engine, Logic};
pub use error::SimError;

/// The two-valued [`Engine`]: flip-flops power up at 0 (all lanes),
/// matching the usual reset assumption of the ISCAS '89 benchmarks, and
/// every LUT must be programmed.
pub type Simulator<'a> = Engine<'a, u64>;
