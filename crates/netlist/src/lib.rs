//! Gate-level netlist data model for the `sttlock` hybrid STT-CMOS toolkit.
//!
//! This crate is the structural substrate of the reproduction of
//! *"Hybrid STT-CMOS Designs for Reverse-engineering Prevention"*
//! (Winograd et al., DAC 2016). It provides:
//!
//! * [`Netlist`] — an arena-based gate-level netlist with primary inputs,
//!   primary outputs, combinational gates, D flip-flops, and reconfigurable
//!   [`Node::Lut`] nodes (the "missing gates" of the paper).
//! * [`NetlistBuilder`] — a name-resolving builder that tolerates forward
//!   references and flip-flop feedback loops.
//! * [`TruthTable`] — up-to-6-input truth tables with the pairwise
//!   *similarity* measure the paper uses to derive the α attack constants.
//! * [`view::CircuitView`] — the shared analysis layer over the
//!   combinational core: topological order, logic levels, fan-out maps
//!   and cones. Each graph fact is computed at most once per circuit and
//!   every consumer (simulation, timing, SAT encoding, selection,
//!   attacks) reads the same memo.
//! * [`overlay::HybridOverlay`] — copy-on-write hybrid variants: one
//!   immutable base netlist plus sparse LUT-replacement edits, with a
//!   [`materialize`](overlay::HybridOverlay::materialize) path that is
//!   bit-identical to clone-then-mutate.
//! * [`paths`] — the Section-IV path sampler: random components are traced
//!   to a primary input and a primary output through at least two
//!   flip-flops, yielding the I/O paths the selection algorithms consume.
//! * [`bench_format`] / [`verilog`] — ISCAS '89 `.bench` and structural
//!   Verilog readers and writers.
//!
//! # Example
//!
//! ```
//! use sttlock_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), sttlock_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("toy");
//! b.input("a");
//! b.input("b");
//! b.gate("g1", GateKind::Nand, &["a", "b"]);
//! b.dff("q", "g1");
//! b.gate("g2", GateKind::Xor, &["q", "a"]);
//! b.output("g2");
//! let netlist = b.finish()?;
//! assert_eq!(netlist.gate_count(), 2); // flip-flops are not gates
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod id;
mod netlist;
mod node;
mod set;
mod truth;

pub mod bench_format;
pub mod overlay;
pub mod paths;
pub mod verilog;
pub mod view;

pub use error::NetlistError;
pub use id::NodeId;
pub use netlist::{Netlist, NetlistBuilder, NetlistStats};
pub use node::{GateKind, Node};
pub use overlay::HybridOverlay;
pub use set::NodeSet;
pub use truth::{meaningful_gates, TruthTable, MAX_LUT_INPUTS};
pub use view::CircuitView;
