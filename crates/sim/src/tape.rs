//! The compiled form of a netlist's combinational logic: the instruction
//! tape every [`Engine`](crate::Engine) runs, in both value domains.
//!
//! Compilation walks the topological order once. Every n-input gate
//! becomes n−1 two-input instructions `(a, b, dst, op)` that fold its
//! fan-in into `dst`, and `op` indexes a table of [`Masks`] that pick
//! AND, OR or XOR and the output inversion, so no instruction branches on
//! the gate kind. This is exact in both domains because AND, OR and XOR
//! are associative over 0/1/X as well. A one-input gate compiles to
//! AND(f, f), which is f (XOR(f, f) would be 0). A LUT stays one
//! instruction that evaluates the truth table the *engine's own* netlist
//! holds, so one tape serves every variant of its netlist that differs
//! only in LUT contents.

use std::sync::Arc;

use sttlock_netlist::{CircuitView, GateKind, Netlist, Node, NodeId};

/// The mask words of one two-input instruction. Exactly one of `and`,
/// `or` and `xor` is all ones and picks the function; `invert` is all
/// ones on the last instruction of an inverting gate.
#[derive(Debug, Clone, Copy)]
pub struct Masks {
    /// All ones for AND.
    pub and: u64,
    /// All ones for OR.
    pub or: u64,
    /// All ones for XOR.
    pub xor: u64,
    /// All ones to invert the result.
    pub invert: u64,
}

const fn masks(op: usize, invert: bool) -> Masks {
    const fn word(on: bool) -> u64 {
        if on {
            u64::MAX
        } else {
            0
        }
    }
    Masks {
        and: word(op == AND),
        or: word(op == OR),
        xor: word(op == XOR),
        invert: word(invert),
    }
}

const AND: usize = 0;
const OR: usize = 1;
const XOR: usize = 2;
/// Added to an op code to invert its result.
const INVERTED: usize = 3;
/// The op code of a LUT instruction.
pub(crate) const LUT: u8 = 7;

/// The op table, indexed by an instruction's op code masked to three
/// bits: codes 0–2 are AND, OR and XOR, 3–5 the inverted ones. Slots 6
/// and 7 are never read (7 is [`LUT`]).
pub(crate) const OPS: [Masks; 8] = [
    masks(AND, false),
    masks(OR, false),
    masks(XOR, false),
    masks(AND, true),
    masks(OR, true),
    masks(XOR, true),
    masks(AND, false),
    masks(AND, false),
];

/// One tape instruction: `values[dst] = op(values[a], values[b])`, or
/// for [`LUT`] the LUT at `dst` over its fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Instr {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) dst: u32,
    pub(crate) op: u8,
}

/// A netlist compiled for the [`Engine`](crate::Engine): the instruction
/// tape in topological order, plus the constant, flip-flop, LUT and
/// observation lists an evaluation needs.
///
/// [`Tape::of`] compiles one per [`CircuitView`] and memoizes it there,
/// like the topological order. A tape is valid for its own netlist and
/// for any variant that differs only in LUT contents (same nodes, same
/// gates and wiring, same LUTs, same outputs), such as the candidates of
/// a key hypothesis; [`Engine::with_tape`](crate::Engine::with_tape)
/// shares one across such variants. A variant whose gates became LUTs —
/// a hybrid against its pure-CMOS source — needs a tape of its own.
#[derive(Debug)]
pub struct Tape {
    pub(crate) instrs: Vec<Instr>,
    /// Per node, the tape position just past its last instruction (0 for
    /// sources): where a force on the node is written.
    pub(crate) end: Vec<u32>,
    /// Constant nodes and their words.
    pub(crate) consts: Vec<(NodeId, u64)>,
    /// Flip-flops in arena order: the state vector layout.
    pub(crate) dffs: Vec<NodeId>,
    /// Primary outputs, then the flip-flops' D drivers (arena order).
    pub(crate) observed: Vec<NodeId>,
    /// How many of `observed` are primary outputs.
    pub(crate) outputs: usize,
    /// LUT nodes in arena order.
    pub(crate) luts: Vec<NodeId>,
}

impl Tape {
    /// The tape of `view`'s netlist, compiled on the first request and
    /// memoized in the view.
    pub fn of(view: &CircuitView<'_>) -> Arc<Tape> {
        view.derived(|| Tape::compile(view))
    }

    fn compile(view: &CircuitView<'_>) -> Tape {
        let netlist = view.netlist();
        let order = view.topo_order();
        // Node and instruction counts fit `u32`: 2^32 nodes would take
        // well over 100 GB of netlist before any tape is compiled.
        let index = |id: NodeId| id.index() as u32;
        let mut instrs = Vec::with_capacity(2 * order.len());
        let mut end = vec![0u32; netlist.len()];
        for &id in order {
            let dst = index(id);
            match netlist.node(id) {
                Node::Gate { kind, fanin } => {
                    let op = match kind {
                        GateKind::Or | GateKind::Nor => OR,
                        GateKind::Xor | GateKind::Xnor => XOR,
                        _ => AND,
                    };
                    // A validated netlist gives every gate a fan-in; a
                    // one-input gate folds as AND(f, f).
                    if let Some((&first, rest)) = fanin.split_first() {
                        let (op, rest) = if rest.is_empty() {
                            (AND, std::slice::from_ref(&first))
                        } else {
                            (op, rest)
                        };
                        let mut acc = index(first);
                        for (k, &f) in rest.iter().enumerate() {
                            let invert = k + 1 == rest.len() && kind.is_inverting();
                            let op = if invert { op + INVERTED } else { op };
                            instrs.push(Instr {
                                a: acc,
                                b: index(f),
                                dst,
                                op: op as u8,
                            });
                            acc = dst;
                        }
                    }
                }
                Node::Lut { .. } => instrs.push(Instr {
                    a: dst,
                    b: dst,
                    dst,
                    op: LUT,
                }),
                _ => {}
            }
            end[id.index()] = instrs.len() as u32;
        }

        let mut consts = Vec::new();
        let mut dffs = Vec::new();
        let mut d_pins = Vec::new();
        let mut luts = Vec::new();
        for (id, node) in netlist.iter() {
            match node {
                Node::Const(v) => consts.push((id, if *v { u64::MAX } else { 0 })),
                Node::Dff { d } => {
                    dffs.push(id);
                    d_pins.push(*d);
                }
                Node::Lut { .. } => luts.push(id),
                _ => {}
            }
        }
        let outputs = netlist.outputs().len();
        let mut observed = netlist.outputs().to_vec();
        observed.extend(d_pins);
        Tape {
            instrs,
            end,
            consts,
            dffs,
            observed,
            outputs,
            luts,
        }
    }

    /// Whether the tape can run `netlist`: the node count, the outputs
    /// and the LUT nodes agree. This catches a hybrid run on its source's
    /// tape; a rewired gate is the caller's contract.
    pub(crate) fn fits(&self, netlist: &Netlist) -> bool {
        netlist.len() == self.end.len()
            && netlist.outputs() == &self.observed[..self.outputs]
            && netlist
                .iter()
                .filter(|(_, node)| node.is_lut())
                .map(|(id, _)| id)
                .eq(self.luts.iter().copied())
    }

    /// The flip-flops' D drivers, in arena order.
    pub(crate) fn d_pins(&self) -> &[NodeId] {
        &self.observed[self.outputs..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::NetlistBuilder;

    #[test]
    fn gates_fold_into_two_input_instructions() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("n", GateKind::Nand, &["a", "b", "c"]);
        b.gate("x", GateKind::Not, &["n"]);
        b.lut("l", &["x", "a"], None);
        b.output("l");
        let n = b.finish().unwrap();
        let tape = Tape::of(&CircuitView::new(&n));
        let id = |name: &str| n.find(name).unwrap().index() as u32;
        let (nand, x, l) = (id("n"), id("x"), id("l"));
        assert_eq!(
            tape.instrs,
            vec![
                Instr {
                    a: id("a"),
                    b: id("b"),
                    dst: nand,
                    op: AND as u8
                },
                Instr {
                    a: nand,
                    b: id("c"),
                    dst: nand,
                    op: (AND + INVERTED) as u8
                },
                Instr {
                    a: nand,
                    b: nand,
                    dst: x,
                    op: (AND + INVERTED) as u8
                },
                Instr {
                    a: l,
                    b: l,
                    dst: l,
                    op: LUT
                },
            ]
        );
        assert_eq!(tape.end[nand as usize], 2);
        assert_eq!(tape.end[id("a") as usize], 0);
        assert_eq!(tape.luts, vec![n.find("l").unwrap()]);
    }

    #[test]
    fn the_tape_is_memoized_in_the_view() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        b.gate("y", GateKind::Not, &["a"]);
        b.output("y");
        let n = b.finish().unwrap();
        let view = CircuitView::new(&n);
        assert!(Arc::ptr_eq(&Tape::of(&view), &Tape::of(&view)));
    }
}
