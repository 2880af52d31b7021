//! Tseitin encoding of a netlist's combinational core into CNF.
//!
//! The encoding treats flip-flop outputs as free *state inputs* and
//! exposes flip-flop D pins alongside the primary outputs — i.e. the
//! full-scan view that oracle-guided attacks assume. (The paper's defense
//! argument is precisely that scan access is locked in fielded parts;
//! the executable attack quantifies what the defense is protecting
//! against.)
//!
//! Redacted LUTs are encoded with **key variables**: a k-input LUT
//! contributes 2^k key bits, one per truth-table row, and the row-select
//! semantics
//!
//! ```text
//! (inputs = row) → (output ↔ key[row])
//! ```
//!
//! A satisfying assignment of the key variables is a hypothesis for the
//! missing gates' functionality — the search space the paper's Equation 3
//! counts.

use std::collections::BTreeMap;

use sttlock_netlist::{GateKind, Netlist, Node, NodeId, TruthTable};

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// Result of encoding a netlist: variable maps for driving and reading
/// the CNF.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// CNF variable of every net (indexed by [`NodeId::index`]).
    pub net_var: Vec<Var>,
    /// Primary-input variables, in netlist order.
    pub inputs: Vec<Var>,
    /// State-input variables (flip-flop outputs), in arena order.
    pub state_inputs: Vec<(NodeId, Var)>,
    /// Primary-output variables, in netlist order.
    pub outputs: Vec<Var>,
    /// Next-state variables (flip-flop D pins), in arena order.
    pub next_state: Vec<(NodeId, Var)>,
    /// Key variables per redacted LUT: `key[lut][row]`, in node order,
    /// so every loop that adds clauses per key adds them in one order.
    pub keys: BTreeMap<NodeId, Vec<Var>>,
}

impl Encoding {
    /// Total number of key bits across all redacted LUTs.
    pub fn key_bits(&self) -> usize {
        self.keys.values().map(Vec::len).sum()
    }

    /// Decodes a satisfying model into per-LUT truth tables, in node
    /// order.
    ///
    /// Unconstrained key bits default to 0.
    pub fn decode_keys(&self, solver: &Solver) -> Vec<(NodeId, TruthTable)> {
        self.keys
            .iter()
            .map(|(&id, vars)| {
                let mut bits = 0u64;
                for (row, &v) in vars.iter().enumerate() {
                    if solver.value(v) == Some(true) {
                        bits |= 1 << row;
                    }
                }
                let inputs = vars.len().trailing_zeros() as usize;
                (id, TruthTable::new(inputs, bits))
            })
            .collect()
    }
}

/// Encodes the combinational core of `netlist` into `solver`.
///
/// Every net gets a fresh variable; gates get their Tseitin clauses;
/// programmed LUTs are encoded from their truth table; redacted LUTs get
/// key variables shared across *one* encoding (for the miter construction
/// of the SAT attack, call this twice and bridge the key variables with
/// [`tie_keys`]).
pub fn encode(netlist: &Netlist, solver: &mut Solver) -> Encoding {
    let mut net_var = Vec::with_capacity(netlist.len());
    for _ in 0..netlist.len() {
        net_var.push(solver.new_var());
    }
    let mut keys = BTreeMap::new();
    let mut state_inputs = Vec::new();
    let mut next_state = Vec::new();
    // Reused for every gate: its fan-in variables and the clause being
    // built, so encoding allocates nothing per clause.
    let mut ins: Vec<Var> = Vec::new();
    let mut clause: Vec<Lit> = Vec::new();

    for (id, node) in netlist.iter() {
        let out = net_var[id.index()];
        match node {
            Node::Input => {}
            Node::Const(v) => {
                solver.add_clause(&[Lit::new(out, !v)]);
            }
            Node::Dff { d } => {
                // The DFF output is a free state input; its D pin is an
                // observable next-state output.
                state_inputs.push((id, out));
                next_state.push((id, net_var[d.index()]));
            }
            Node::Gate { kind, fanin } => {
                ins.clear();
                ins.extend(fanin.iter().map(|f| net_var[f.index()]));
                encode_gate(solver, &mut clause, *kind, out, &ins);
            }
            Node::Lut { fanin, config } => {
                ins.clear();
                ins.extend(fanin.iter().map(|f| net_var[f.index()]));
                match config {
                    Some(table) => encode_table(solver, &mut clause, *table, out, &ins),
                    None => {
                        let rows = 1usize << ins.len();
                        let key: Vec<Var> = (0..rows).map(|_| solver.new_var()).collect();
                        encode_keyed_lut(solver, &mut clause, out, &ins, &key);
                        keys.insert(id, key);
                    }
                }
            }
        }
    }

    Encoding {
        inputs: netlist
            .inputs()
            .iter()
            .map(|i| net_var[i.index()])
            .collect(),
        outputs: netlist
            .outputs()
            .iter()
            .map(|o| net_var[o.index()])
            .collect(),
        state_inputs,
        next_state,
        keys,
        net_var,
    }
}

/// Adds clauses forcing the key variables of two encodings of the same
/// netlist to be equal — the shared-key side of a miter.
///
/// # Panics
///
/// Panics if the encodings disagree on the set of redacted LUTs.
pub fn tie_keys(solver: &mut Solver, a: &Encoding, b: &Encoding) {
    assert_eq!(a.keys.len(), b.keys.len(), "mismatched key sets");
    for (id, ka) in &a.keys {
        let kb = &b.keys[id];
        assert_eq!(ka.len(), kb.len());
        for (&x, &y) in ka.iter().zip(kb) {
            equal(solver, x, y);
        }
    }
}

/// Shares the primary and state inputs of two encodings (one [`equal`]
/// per pair, inputs first) and returns their observation points paired
/// up, primary outputs first, then next-state: the two sides of a
/// miter, for [`assert_some_difference`] to compare.
pub fn miter_pairs(solver: &mut Solver, a: &Encoding, b: &Encoding) -> Vec<(Var, Var)> {
    for (&x, &y) in a.inputs.iter().zip(&b.inputs) {
        equal(solver, x, y);
    }
    for ((_, x), (_, y)) in a.state_inputs.iter().zip(&b.state_inputs) {
        equal(solver, *x, *y);
    }
    let outputs = a.outputs.iter().copied().zip(b.outputs.iter().copied());
    let next_state = (a.next_state.iter().zip(&b.next_state)).map(|((_, x), (_, y))| (*x, *y));
    outputs.chain(next_state).collect()
}

/// Adds `x ↔ y` as the clause pair `(x ∨ ¬y) ∧ (¬x ∨ y)`.
pub fn equal(solver: &mut Solver, x: Var, y: Var) {
    solver.add_clause(&[Lit::pos(x), Lit::neg(y)]);
    solver.add_clause(&[Lit::neg(x), Lit::pos(y)]);
}

/// Introduces a fresh XOR tap `t ↔ x ⊕ y` per pair and returns the taps.
pub fn xor_taps(solver: &mut Solver, pairs: &[(Var, Var)]) -> Vec<Var> {
    let mut taps = Vec::with_capacity(pairs.len());
    for &(x, y) in pairs {
        let t = solver.new_var();
        solver.add_clause(&[Lit::neg(t), Lit::pos(x), Lit::pos(y)]);
        solver.add_clause(&[Lit::neg(t), Lit::neg(x), Lit::neg(y)]);
        solver.add_clause(&[Lit::pos(t), Lit::pos(x), Lit::neg(y)]);
        solver.add_clause(&[Lit::pos(t), Lit::neg(x), Lit::pos(y)]);
        taps.push(t);
    }
    taps
}

/// Adds "the two vectors differ somewhere" over paired variables.
/// Returns the XOR tap variables.
pub fn assert_some_difference(solver: &mut Solver, pairs: &[(Var, Var)]) -> Vec<Var> {
    let taps = xor_taps(solver, pairs);
    let clause: Vec<Lit> = taps.iter().map(|&t| Lit::pos(t)).collect();
    solver.add_clause(&clause);
    taps
}

/// Like [`assert_some_difference`], but the constraint is active only
/// while the returned literal is assumed true — the SAT attack disables
/// it for the final key-extraction solve.
pub fn assert_some_difference_gated(solver: &mut Solver, pairs: &[(Var, Var)]) -> Lit {
    let taps = xor_taps(solver, pairs);
    let act = solver.new_var();
    let mut clause: Vec<Lit> = taps.iter().map(|&t| Lit::pos(t)).collect();
    clause.push(Lit::neg(act));
    solver.add_clause(&clause);
    Lit::pos(act)
}

/// Tseitin clauses for one standard gate; `clause` is scratch space.
fn encode_gate(solver: &mut Solver, clause: &mut Vec<Lit>, kind: GateKind, out: Var, ins: &[Var]) {
    use GateKind::*;
    match kind {
        Buf => equal(solver, out, ins[0]),
        Not => {
            solver.add_clause(&[Lit::pos(out), Lit::pos(ins[0])]);
            solver.add_clause(&[Lit::neg(out), Lit::neg(ins[0])]);
        }
        And | Nand => {
            let o = kind == And;
            // (¬out ∨ in_i) for all i ; (out ∨ ¬in_1 ∨ … ∨ ¬in_n)
            for &i in ins {
                solver.add_clause(&[Lit::new(out, o), Lit::pos(i)]);
            }
            clause.clear();
            clause.push(Lit::new(out, !o));
            clause.extend(ins.iter().map(|&i| Lit::neg(i)));
            solver.add_clause(clause);
        }
        Or | Nor => {
            let o = kind == Or;
            for &i in ins {
                solver.add_clause(&[Lit::new(out, !o), Lit::neg(i)]);
            }
            clause.clear();
            clause.push(Lit::new(out, o));
            clause.extend(ins.iter().map(|&i| Lit::pos(i)));
            solver.add_clause(clause);
        }
        Xor | Xnor => {
            // Chain pairwise XORs through auxiliaries; cheap because real
            // netlists keep XOR fan-in small.
            let mut acc = ins[0];
            for &i in &ins[1..ins.len() - 1] {
                let t = solver.new_var();
                encode_xor2(solver, t, acc, i);
                acc = t;
            }
            let last = *ins.last().expect("arity >= 2");
            if kind == Xor {
                encode_xor2(solver, out, acc, last);
            } else {
                let t = solver.new_var();
                encode_xor2(solver, t, acc, last);
                solver.add_clause(&[Lit::pos(out), Lit::pos(t)]);
                solver.add_clause(&[Lit::neg(out), Lit::neg(t)]);
            }
        }
    }
}

/// `out ↔ a ⊕ b`.
fn encode_xor2(solver: &mut Solver, out: Var, a: Var, b: Var) {
    solver.add_clause(&[Lit::neg(out), Lit::pos(a), Lit::pos(b)]);
    solver.add_clause(&[Lit::neg(out), Lit::neg(a), Lit::neg(b)]);
    solver.add_clause(&[Lit::pos(out), Lit::pos(a), Lit::neg(b)]);
    solver.add_clause(&[Lit::pos(out), Lit::neg(a), Lit::pos(b)]);
}

/// Writes into `clause` the literals that are all false exactly when
/// the inputs `ins` match the bits of `row`.
fn row_lits(clause: &mut Vec<Lit>, ins: &[Var], row: usize) {
    clause.clear();
    clause.extend(
        ins.iter()
            .enumerate()
            .map(|(i, &v)| Lit::new(v, (row >> i) & 1 == 1)),
    );
}

/// Clauses for a programmed LUT: for every row, `(inputs = row) → out = f(row)`.
fn encode_table(
    solver: &mut Solver,
    clause: &mut Vec<Lit>,
    table: TruthTable,
    out: Var,
    ins: &[Var],
) {
    for row in 0..table.rows() {
        row_lits(clause, ins, row);
        clause.push(Lit::new(out, !table.eval(row)));
        solver.add_clause(clause);
    }
}

/// Clauses for a redacted LUT with one key bit per row:
/// `(inputs = row) → (out ↔ key[row])`.
fn encode_keyed_lut(
    solver: &mut Solver,
    clause: &mut Vec<Lit>,
    out: Var,
    ins: &[Var],
    key: &[Var],
) {
    for (row, &k) in key.iter().enumerate() {
        for extra in [[Lit::neg(out), Lit::pos(k)], [Lit::pos(out), Lit::neg(k)]] {
            row_lits(clause, ins, row);
            clause.extend(extra);
            solver.add_clause(clause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use sttlock_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Xor, &["g1", "a"]);
        b.output("g2");
        b.finish().unwrap()
    }

    /// Checks the CNF against exhaustive simulation of a combinational
    /// netlist: for every input assignment, the CNF must force the
    /// simulated output.
    fn assert_cnf_matches_simulation(n: &Netlist) {
        use sttlock_netlist::CircuitView;
        let view = CircuitView::new(n);
        let order = view.topo_order();
        let eval = |assignment: &[bool]| -> Vec<bool> {
            let mut vals = vec![false; n.len()];
            for (k, &pi) in n.inputs().iter().enumerate() {
                vals[pi.index()] = assignment[k];
            }
            for &id in order {
                let node = n.node(id);
                let ins: Vec<bool> = node.fanin().iter().map(|f| vals[f.index()]).collect();
                vals[id.index()] = match node {
                    Node::Gate { kind, .. } => {
                        use GateKind::*;
                        match kind {
                            Buf => ins[0],
                            Not => !ins[0],
                            And => ins.iter().all(|&x| x),
                            Nand => !ins.iter().all(|&x| x),
                            Or => ins.iter().any(|&x| x),
                            Nor => !ins.iter().any(|&x| x),
                            Xor => ins.iter().fold(false, |a, &b| a ^ b),
                            Xnor => !ins.iter().fold(false, |a, &b| a ^ b),
                        }
                    }
                    Node::Lut { config, .. } => {
                        let t = config.expect("programmed");
                        let mut row = 0;
                        for (i, &b) in ins.iter().enumerate() {
                            if b {
                                row |= 1 << i;
                            }
                        }
                        t.eval(row)
                    }
                    _ => unreachable!(),
                };
            }
            n.outputs().iter().map(|o| vals[o.index()]).collect()
        };

        let mut solver = Solver::new();
        let enc = encode(n, &mut solver);
        let pis = n.inputs().len();
        for pattern in 0..(1usize << pis) {
            let assignment: Vec<bool> = (0..pis).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = eval(&assignment);
            let mut assumptions: Vec<Lit> = enc
                .inputs
                .iter()
                .zip(&assignment)
                .map(|(&v, &b)| Lit::new(v, !b))
                .collect();
            // Output must be able to take the simulated value...
            assert_eq!(solver.solve_with(&assumptions), SatResult::Sat);
            for (o, &e) in enc.outputs.iter().zip(&expect) {
                assert_eq!(solver.value(*o), Some(e), "pattern {pattern:b}");
            }
            // ...and must not be able to take the opposite value.
            assumptions.push(Lit::new(enc.outputs[0], expect[0]));
            assert_eq!(solver.solve_with(&assumptions), SatResult::Unsat);
        }
    }

    #[test]
    fn gates_encode_correctly() {
        assert_cnf_matches_simulation(&sample());
    }

    #[test]
    fn every_gate_kind_encodes_correctly() {
        for kind in GateKind::ALL {
            let mut b = NetlistBuilder::new("m");
            b.input("a");
            b.input("c");
            b.input("d");
            if kind.is_unary() {
                b.gate("g", kind, &["a"]);
            } else {
                b.gate("g", kind, &["a", "c", "d"]);
            }
            b.output("g");
            let n = b.finish().unwrap();
            assert_cnf_matches_simulation(&n);
        }
    }

    #[test]
    fn programmed_lut_encodes_its_table() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut(
            "y",
            &["a", "c"],
            Some(TruthTable::from_gate(GateKind::Nor, 2)),
        );
        b.output("y");
        let n = b.finish().unwrap();
        assert_cnf_matches_simulation(&n);
    }

    #[test]
    fn keyed_lut_admits_exactly_the_right_keys() {
        // Single redacted 2-input LUT straight to the output: forcing
        // input/output pairs must constrain exactly the matching key bit.
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut("y", &["a", "c"], None);
        b.output("y");
        let n = b.finish().unwrap();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        assert_eq!(enc.key_bits(), 4);
        let y = n.find("y").unwrap();
        let key = enc.keys[&y].clone();
        // Assume a=1, c=0 (row 0b01) and out=1: key[1] must be 1.
        let a = enc.inputs[0];
        let c = enc.inputs[1];
        let out = enc.outputs[0];
        let assumptions = [Lit::pos(a), Lit::neg(c), Lit::pos(out), Lit::neg(key[1])];
        assert_eq!(solver.solve_with(&assumptions), SatResult::Unsat);
        let assumptions = [Lit::pos(a), Lit::neg(c), Lit::pos(out), Lit::pos(key[1])];
        assert_eq!(solver.solve_with(&assumptions), SatResult::Sat);
    }

    #[test]
    fn decode_keys_round_trip() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut("y", &["a", "c"], None);
        b.output("y");
        let n = b.finish().unwrap();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        let y = n.find("y").unwrap();
        let key = enc.keys[&y].clone();
        // Pin the key to AND2 and decode.
        let and2 = TruthTable::from_gate(GateKind::And, 2);
        for (row, &k) in key.iter().enumerate() {
            solver.add_clause(&[Lit::new(k, !and2.eval(row))]);
        }
        assert_eq!(solver.solve(), SatResult::Sat);
        let decoded = enc.decode_keys(&solver);
        assert_eq!(decoded, vec![(y, and2)]);
    }

    #[test]
    fn key_variables_iterate_in_node_order() {
        // Key-tying loops add one clause pair per key in map order; a map
        // with its own random order would make the clause database, and
        // so the search, differ from run to run.
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        let mut prev = "a".to_owned();
        for i in 0..12 {
            let name = format!("k{i}");
            b.lut(&name, &[prev.as_str(), "c"], None);
            prev = name;
        }
        b.output(&prev);
        let n = b.finish().unwrap();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        let unrolled = crate::unroll::encode_unrolled(&n, &mut solver, 2);
        for ids in [
            enc.keys.keys().collect::<Vec<_>>(),
            unrolled.keys.keys().collect(),
        ] {
            assert_eq!(ids.len(), 12);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        }
    }

    #[test]
    fn dff_boundary_becomes_state_io() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.gate("g", GateKind::Not, &["a"]);
        b.dff("q", "g");
        b.gate("h", GateKind::Buf, &["q"]);
        b.output("h");
        let n = b.finish().unwrap();
        let mut solver = Solver::new();
        let enc = encode(&n, &mut solver);
        assert_eq!(enc.state_inputs.len(), 1);
        assert_eq!(enc.next_state.len(), 1);
        // Output follows the state input freely (one frame, no clocking).
        let q_var = enc.state_inputs[0].1;
        assert_eq!(
            solver.solve_with(&[Lit::pos(q_var), Lit::neg(enc.outputs[0])]),
            SatResult::Unsat
        );
        // Next state is ¬a regardless of q.
        let d_var = enc.next_state[0].1;
        assert_eq!(
            solver.solve_with(&[Lit::pos(enc.inputs[0]), Lit::pos(d_var)]),
            SatResult::Unsat
        );
    }

    #[test]
    fn miter_with_tied_keys_finds_distinguishing_input() {
        // Redacted LUT vs itself with tied keys can never differ.
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut("y", &["a", "c"], None);
        b.output("y");
        let n = b.finish().unwrap();
        let mut solver = Solver::new();
        let e1 = encode(&n, &mut solver);
        let e2 = encode(&n, &mut solver);
        tie_keys(&mut solver, &e1, &e2);
        // Same inputs into both copies:
        let pairs = miter_pairs(&mut solver, &e1, &e2);
        assert_some_difference(&mut solver, &pairs);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }
}
