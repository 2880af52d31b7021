//! SAT-based combinational equivalence checking.
//!
//! Builds a miter between two programmed netlists over the full-scan
//! frame model (shared primary inputs and state; primary outputs and
//! next-state must match) and asks the solver for a distinguishing
//! assignment. UNSAT proves frame equivalence, which for designs with
//! identical reset behaviour implies sequential equivalence.
//!
//! The flow uses this to *prove* (rather than spot-check) that a hybrid
//! netlist implements its CMOS original, and the attacks use it to
//! validate recovered bitstreams exactly.

use std::error::Error;
use std::fmt;

use sttlock_netlist::Netlist;

use crate::encode::{assert_some_difference, encode, miter_pairs};
use crate::lit::Var;
use crate::solver::{SatResult, Solver};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// No frame distinguishes the designs: equivalent.
    Equivalent,
    /// A distinguishing frame exists; the witness assigns every primary
    /// input and every state bit (`true`/`false` per position).
    Different {
        /// Primary-input assignment of the witness frame.
        inputs: Vec<bool>,
        /// Flip-flop state assignment of the witness frame (arena
        /// order).
        state: Vec<bool>,
    },
}

/// Reasons an equivalence check cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EquivError {
    /// The designs differ in primary-input, primary-output or flip-flop
    /// counts — no common frame interface exists.
    InterfaceMismatch {
        /// Description of the mismatching interface part.
        what: &'static str,
    },
    /// One of the designs contains a redacted LUT; equivalence of
    /// *unprogrammed* designs is not well defined (every key choice is a
    /// different function).
    RedactedLut {
        /// Name of the offending LUT.
        name: String,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::InterfaceMismatch { what } => {
                write!(f, "designs disagree on their {what} interface")
            }
            EquivError::RedactedLut { name } => {
                write!(
                    f,
                    "LUT `{name}` is unprogrammed; program both designs before checking"
                )
            }
        }
    }
}

impl Error for EquivError {}

/// Checks frame equivalence of two programmed netlists.
///
/// # Errors
///
/// Returns [`EquivError::InterfaceMismatch`] when the I/O or register
/// interfaces differ and [`EquivError::RedactedLut`] when either design
/// still contains unprogrammed LUTs.
///
/// # Example
///
/// ```
/// use sttlock_netlist::{GateKind, NetlistBuilder};
/// use sttlock_sat::equiv::{check_equivalence, EquivResult};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("a");
/// b.input("x");
/// b.input("y");
/// b.gate("o", GateKind::Nand, &["x", "y"]);
/// b.output("o");
/// let a = b.finish()?;
///
/// // NAND vs its LUT replacement: provably the same function.
/// let mut hybrid = a.clone();
/// hybrid.replace_gate_with_lut(hybrid.find("o").unwrap())?;
/// assert_eq!(check_equivalence(&a, &hybrid)?, EquivResult::Equivalent);
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<EquivResult, EquivError> {
    if a.inputs().len() != b.inputs().len() {
        return Err(EquivError::InterfaceMismatch {
            what: "primary-input",
        });
    }
    if a.outputs().len() != b.outputs().len() {
        return Err(EquivError::InterfaceMismatch {
            what: "primary-output",
        });
    }
    for n in [a, b] {
        for (id, node) in n.iter() {
            if let sttlock_netlist::Node::Lut { config: None, .. } = node {
                return Err(EquivError::RedactedLut {
                    name: n.node_name(id).to_owned(),
                });
            }
        }
    }

    let mut solver = Solver::new();
    let ea = encode(a, &mut solver);
    let eb = encode(b, &mut solver);
    if ea.state_inputs.len() != eb.state_inputs.len() {
        return Err(EquivError::InterfaceMismatch { what: "flip-flop" });
    }

    let pairs = miter_pairs(&mut solver, &ea, &eb);
    assert_some_difference(&mut solver, &pairs);

    match solver.solve() {
        SatResult::Unsat => Ok(EquivResult::Equivalent),
        SatResult::Sat => {
            let value = |v: Var| solver.value(v) == Some(true);
            Ok(EquivResult::Different {
                inputs: ea.inputs.iter().map(|&v| value(v)).collect(),
                state: ea.state_inputs.iter().map(|(_, v)| value(*v)).collect(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::{GateKind, NetlistBuilder, TruthTable};

    fn design(kind: GateKind) -> Netlist {
        let mut b = NetlistBuilder::new("d");
        b.input("x");
        b.input("y");
        b.gate("g", kind, &["x", "y"]);
        b.dff("q", "g");
        b.gate("o", GateKind::Xor, &["q", "x"]);
        b.output("o");
        b.finish().unwrap()
    }

    #[test]
    fn identical_designs_are_equivalent() {
        let a = design(GateKind::Nand);
        assert_eq!(check_equivalence(&a, &a).unwrap(), EquivResult::Equivalent);
    }

    #[test]
    fn lut_replacement_is_proven_equivalent() {
        let a = design(GateKind::Nor);
        let mut hybrid = a.clone();
        hybrid
            .replace_gate_with_lut(hybrid.find("g").unwrap())
            .unwrap();
        hybrid
            .replace_gate_with_lut(hybrid.find("o").unwrap())
            .unwrap();
        assert_eq!(
            check_equivalence(&a, &hybrid).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn different_gates_produce_a_witness() {
        let a = design(GateKind::And);
        let b = design(GateKind::Or);
        match check_equivalence(&a, &b).unwrap() {
            EquivResult::Different { inputs, state } => {
                assert_eq!(inputs.len(), 2);
                assert_eq!(state.len(), 1);
                // AND and OR differ exactly when x != y.
                assert_ne!(inputs[0], inputs[1]);
            }
            EquivResult::Equivalent => panic!("AND and OR are not equivalent"),
        }
    }

    #[test]
    fn deep_structural_difference_detected_through_state() {
        // Differ only in the D-cone: visible on the next-state outputs.
        let a = design(GateKind::Xor);
        let b = design(GateKind::Xnor);
        assert!(matches!(
            check_equivalence(&a, &b).unwrap(),
            EquivResult::Different { .. }
        ));
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let a = design(GateKind::And);
        let mut builder = NetlistBuilder::new("b");
        builder.input("x");
        builder.gate("o", GateKind::Not, &["x"]);
        builder.output("o");
        let b = builder.finish().unwrap();
        assert!(matches!(
            check_equivalence(&a, &b),
            Err(EquivError::InterfaceMismatch { .. })
        ));
    }

    #[test]
    fn redacted_luts_are_refused() {
        let a = design(GateKind::And);
        let mut hybrid = a.clone();
        hybrid
            .replace_gate_with_lut(hybrid.find("g").unwrap())
            .unwrap();
        let (stripped, _) = hybrid.redact();
        assert!(matches!(
            check_equivalence(&a, &stripped),
            Err(EquivError::RedactedLut { .. })
        ));
    }

    #[test]
    fn reprogrammed_lut_differs() {
        let a = design(GateKind::And);
        let mut hybrid = a.clone();
        let g = hybrid.find("g").unwrap();
        hybrid.replace_gate_with_lut(g).unwrap();
        hybrid.set_lut_config(g, TruthTable::from_gate(GateKind::Nand, 2));
        assert!(matches!(
            check_equivalence(&a, &hybrid).unwrap(),
            EquivResult::Different { .. }
        ));
    }
}
