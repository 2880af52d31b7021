//! The security-driven hybrid STT-CMOS design flow of
//! *"Hybrid STT-CMOS Designs for Reverse-engineering Prevention"*
//! (Winograd et al., DAC 2016).
//!
//! Given a synthesized gate-level netlist, the flow selects CMOS gates
//! and replaces them with reconfigurable non-volatile STT-based LUTs
//! ("missing gates") whose contents only the design house knows:
//!
//! * [`select::independent`] — a fixed number of random gates drawn from
//!   the sampled I/O paths (Section IV-A.1). Cheap, but a testing attack
//!   can rebuild each gate's truth table (Equation 1).
//! * [`select::dependent`] — Algorithm 1: every gate on the timing paths
//!   composing a longest non-critical I/O path, so missing gates feed
//!   missing gates and partial truth tables become unobtainable
//!   (Equation 2). Large performance cost.
//! * [`select::parametric`] — Algorithm 2: a few random multi-input
//!   gates per targeted timing path, re-drawn while the timing budget is
//!   violated, plus the *USL closure* (neighbours of un-selected path
//!   gates) so no partial table can be anchored (Equation 3). Near-zero
//!   performance cost.
//!
//! [`Flow`] packages selection, replacement, timing/power/area overhead
//! analysis (Table I), selection CPU time (Table II) and the analytic
//! security estimates (Figure 3) into one call.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sttlock_benchgen::Profile;
//! use sttlock_core::{Flow, SelectionAlgorithm};
//! use sttlock_techlib::Library;
//!
//! # fn main() -> Result<(), sttlock_core::FlowError> {
//! let profile = Profile::custom("demo", 150, 6, 8, 6);
//! let netlist = profile.generate(&mut rand::rngs::StdRng::seed_from_u64(7));
//! let flow = Flow::new(Library::predictive_90nm());
//! let outcome = flow.run(&netlist, SelectionAlgorithm::ParametricAware, 42)?;
//! assert!(outcome.report.stt_count > 0);
//! assert!(outcome.hybrid.lut_count() == outcome.report.stt_count);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harden;
pub mod oracle;
pub mod replace;
pub mod select;

pub mod flow;

mod report;

pub use flow::{
    verify_and_repair, Baseline, Flow, FlowError, FlowOutcome, RepairConfig, RepairReport,
    RepairVerdict,
};
pub use oracle::{FullSta, TimingOracle};
pub use report::FlowReport;
pub use select::{SelectionAlgorithm, SelectionConfig};
