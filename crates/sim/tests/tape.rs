//! The compiled tape against a per-node evaluator: on random netlists
//! with programmed and redacted LUTs, partial LUT knowledge and forces on
//! gates, LUTs, inputs and flip-flops, every node's word must agree on
//! all 64 lanes, in both value domains, frame after frame.
//!
//! The reference below walks the topological order and folds each gate's
//! whole fan-in in one step per node. It shares no evaluation code with
//! the engine.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_netlist::{CircuitView, GateKind, Netlist, NetlistBuilder, Node, NodeId, TruthTable};
use sttlock_sim::tri::{PartialLut, TriSimulator, TriWord};
use sttlock_sim::{Engine, Logic, Simulator};

/// The per-node semantics of one value domain.
trait Reference: Logic {
    fn x() -> Self;
    fn node_gate(kind: GateKind, fanin: &[Self]) -> Self;
    fn node_lut(table: Option<TruthTable>, partial: Option<&PartialLut>, fanin: &[Self]) -> Self;
    /// A random word of this domain.
    fn random(rng: &mut StdRng) -> Self;
}

impl Reference for u64 {
    fn x() -> u64 {
        0
    }

    fn node_gate(kind: GateKind, fanin: &[u64]) -> u64 {
        let and = fanin.iter().fold(u64::MAX, |a, &b| a & b);
        let or = fanin.iter().fold(0, |a, &b| a | b);
        let xor = fanin.iter().fold(0, |a, &b| a ^ b);
        match kind {
            GateKind::Buf => fanin[0],
            GateKind::Not => !fanin[0],
            GateKind::And => and,
            GateKind::Nand => !and,
            GateKind::Or => or,
            GateKind::Nor => !or,
            GateKind::Xor => xor,
            GateKind::Xnor => !xor,
        }
    }

    fn node_lut(table: Option<TruthTable>, _: Option<&PartialLut>, fanin: &[u64]) -> u64 {
        table
            .expect("two-valued designs are programmed")
            .eval_parallel(fanin)
    }

    fn random(rng: &mut StdRng) -> u64 {
        rng.gen()
    }
}

/// `value` on the lanes in `known`, X elsewhere.
fn tri(value: u64, known: u64) -> TriWord {
    TriWord {
        value: value & known,
        known,
    }
}

impl Reference for TriWord {
    fn x() -> TriWord {
        TriWord::all_x()
    }

    fn node_gate(kind: GateKind, fanin: &[TriWord]) -> TriWord {
        let ones = |w: &TriWord| w.value & w.known;
        let zeros = |w: &TriWord| !w.value & w.known;
        let out = match kind {
            GateKind::Buf | GateKind::Not => tri(fanin[0].value, fanin[0].known),
            GateKind::And | GateKind::Nand => {
                let all_one = fanin.iter().fold(u64::MAX, |m, w| m & ones(w));
                let any_zero = fanin.iter().fold(0, |m, w| m | zeros(w));
                tri(all_one, all_one | any_zero)
            }
            GateKind::Or | GateKind::Nor => {
                let any_one = fanin.iter().fold(0, |m, w| m | ones(w));
                let all_zero = fanin.iter().fold(u64::MAX, |m, w| m & zeros(w));
                tri(any_one, any_one | all_zero)
            }
            GateKind::Xor | GateKind::Xnor => {
                let known = fanin.iter().fold(u64::MAX, |m, w| m & w.known);
                tri(fanin.iter().fold(0, |p, w| p ^ w.value), known)
            }
        };
        if kind.is_inverting() {
            tri(!out.value, out.known)
        } else {
            out
        }
    }

    fn node_lut(
        table: Option<TruthTable>,
        partial: Option<&PartialLut>,
        fanin: &[TriWord],
    ) -> TriWord {
        let values: Vec<u64> = fanin.iter().map(|w| w.value).collect();
        let inputs_known = fanin.iter().fold(u64::MAX, |m, w| m & w.known);
        let rows = |bits| TruthTable::new(fanin.len(), bits).eval_parallel(&values);
        match (table, partial) {
            (Some(table), _) => tri(table.eval_parallel(&values), inputs_known),
            (None, Some(p)) => tri(rows(p.resolved & p.bits), rows(p.resolved) & inputs_known),
            (None, None) => TriWord::all_x(),
        }
    }

    fn random(rng: &mut StdRng) -> TriWord {
        // Mostly known, with some X lanes.
        tri(rng.gen(), rng.gen::<u64>() | rng.gen::<u64>())
    }
}

/// Every node's word after one frame, evaluated node by node.
fn reference<V: Reference>(
    n: &Netlist,
    inputs: &[u64],
    state: &[V],
    forces: &HashMap<NodeId, V>,
    partial: &HashMap<NodeId, PartialLut>,
) -> Vec<V> {
    let mut values = vec![V::x(); n.len()];
    for (&pi, &w) in n.inputs().iter().zip(inputs) {
        values[pi.index()] = V::known(w);
    }
    let mut flops = state.iter();
    for (id, node) in n.iter() {
        match node {
            Node::Const(v) => values[id.index()] = V::known(if *v { u64::MAX } else { 0 }),
            Node::Dff { .. } => values[id.index()] = *flops.next().expect("one word per flop"),
            _ => {}
        }
    }
    for (&id, &w) in forces {
        values[id.index()] = w;
    }
    for &id in CircuitView::new(n).topo_order() {
        if forces.contains_key(&id) {
            continue;
        }
        let fanin: Vec<V> = n
            .node(id)
            .fanin()
            .iter()
            .map(|f| values[f.index()])
            .collect();
        values[id.index()] = match n.node(id) {
            Node::Gate { kind, .. } => V::node_gate(*kind, &fanin),
            Node::Lut { config, .. } => V::node_lut(*config, partial.get(&id), &fanin),
            _ => unreachable!("the order holds gates and LUTs only"),
        };
    }
    values
}

/// A random design: every gate kind at random arity, constants, LUTs of
/// one to six inputs (some redacted, with their programmed tables kept
/// aside), and flip-flops fed back from later logic.
struct Design {
    /// With the redacted LUTs left unprogrammed.
    redacted: Netlist,
    /// The same design with every LUT programmed.
    programmed: Netlist,
    /// Partial knowledge of some redacted LUTs.
    partial: HashMap<NodeId, PartialLut>,
    /// Nodes to force: gates, LUTs, inputs and flip-flops.
    forced: Vec<NodeId>,
}

fn design(rng: &mut StdRng) -> Design {
    let mut b = NetlistBuilder::new("tape");
    let mut signals: Vec<String> = Vec::new();
    for i in 0..rng.gen_range(1..6) {
        let name = format!("i{i}");
        b.input(&name);
        signals.push(name);
    }
    let n_ffs = rng.gen_range(0..5);
    signals.extend((0..n_ffs).map(|f| format!("f{f}")));
    let mut logic: Vec<String> = Vec::new();
    let mut luts: Vec<(String, TruthTable, bool)> = Vec::new();
    for g in 0..rng.gen_range(1..48) {
        let name = format!("g{g}");
        let mut fanin: Vec<&str> = Vec::new();
        for _ in 0..rng.gen_range(1..7) {
            let s = signals[rng.gen_range(0..signals.len())].as_str();
            if !fanin.contains(&s) {
                fanin.push(s);
            }
        }
        match rng.gen_range(0..10) {
            0 => {
                b.constant(&name, rng.gen());
            }
            1..=3 => {
                let table = TruthTable::new(fanin.len(), rng.gen());
                let redact = rng.gen_bool(0.5);
                b.lut(&name, &fanin, (!redact).then_some(table));
                luts.push((name.clone(), table, redact));
            }
            _ if fanin.len() == 1 => {
                let kind = [GateKind::Buf, GateKind::Not][rng.gen_range(0..2usize)];
                b.gate(&name, kind, &fanin);
            }
            _ => {
                let kind = GateKind::ALL[rng.gen_range(2..8usize)];
                b.gate(&name, kind, &fanin);
            }
        }
        signals.push(name.clone());
        logic.push(name);
    }
    for f in 0..n_ffs {
        b.dff(&format!("f{f}"), &logic[rng.gen_range(0..logic.len())]);
    }
    b.output(logic.last().expect("at least one node"));
    b.output(&logic[rng.gen_range(0..logic.len())]);
    let redacted = b.finish().expect("constructed designs are valid");

    let mut programmed = redacted.clone();
    let mut partial = HashMap::new();
    for (name, table, redact) in luts {
        let id = redacted.find(&name).expect("declared");
        if redact {
            programmed.set_lut_config(id, table);
            if rng.gen_bool(0.5) {
                partial.insert(
                    id,
                    PartialLut {
                        resolved: rng.gen(),
                        bits: table.bits(),
                    },
                );
            }
        }
    }
    let forced = (0..rng.gen_range(0..4))
        .map(|_| NodeId::from_index(rng.gen_range(0..redacted.len())))
        .collect();
    Design {
        redacted,
        programmed,
        partial,
        forced,
    }
}

/// Runs `frames` frames on the engine and the reference from the same
/// known scan state, clocking in between, and compares every node.
fn agree<V: Reference>(
    mut engine: Engine<'_, V>,
    partial: &HashMap<NodeId, PartialLut>,
    forced: &[NodeId],
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    let n = engine.netlist().clone();
    for (&id, &p) in partial {
        engine.set_partial_lut(id, p);
    }
    let mut forces = HashMap::new();
    for &id in forced {
        let word = V::random(rng);
        engine.force(id, word);
        forces.insert(id, word);
    }
    let dffs = engine.dff_ids();
    let scan: Vec<u64> = (0..dffs.len()).map(|_| rng.gen()).collect();
    let mut state: Vec<V> = scan.iter().map(|&w| V::known(w)).collect();
    for frame in 0..4 {
        let inputs: Vec<u64> = (0..n.inputs().len()).map(|_| rng.gen()).collect();
        if frame == 0 {
            engine.eval_frame(&inputs, &scan).unwrap();
        } else {
            engine.clock();
            engine.eval_comb(&inputs).unwrap();
        }
        let want = reference(&n, &inputs, &state, &forces, partial);
        for id in n.node_ids() {
            let (got, want) = (engine.value(id), want[id.index()]);
            prop_assert!(
                got == want,
                "node {} ({:?}) in frame {frame}: {got:?} != {want:?}",
                n.node_name(id),
                n.node(id),
            );
        }
        let observed: Vec<V> = engine
            .observation_points()
            .iter()
            .map(|id| want[id.index()])
            .collect();
        prop_assert_eq!(engine.observation(), observed);
        state = dffs
            .iter()
            .map(|&ff| match n.node(ff) {
                Node::Dff { d } => want[d.index()],
                _ => unreachable!("dff_ids lists flip-flops"),
            })
            .collect();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn the_tape_agrees_with_per_node_evaluation_in_both_domains(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = design(&mut rng);

        let two = Simulator::new(&d.programmed).expect("programmed design");
        agree(two, &HashMap::new(), &d.forced, &mut rng)?;

        let three = TriSimulator::new(&d.redacted).expect("any design");
        agree(three, &d.partial, &d.forced, &mut rng)?;

        // Partial knowledge is ignored where the LUT is programmed.
        let three = TriSimulator::new(&d.programmed).expect("any design");
        agree(three, &d.partial, &d.forced, &mut rng)?;
    }
}
