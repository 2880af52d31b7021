use std::collections::HashMap;
use std::sync::Arc;

use sttlock_netlist::{CircuitView, GateKind, Netlist, Node, NodeId, TruthTable};

use crate::error::SimError;
use crate::tri::PartialLut;

/// A 64-lane value domain the [`Engine`] evaluates in: what differs
/// between two-valued (`u64`) and three-valued
/// ([`TriWord`](crate::tri::TriWord)) simulation.
pub trait Logic: Copy + PartialEq + std::fmt::Debug {
    /// The value every net and flip-flop holds after [`Engine::reset`].
    const POWER_UP: Self;
    /// Whether redacted LUTs (unknown functions) can be simulated.
    const REDACTED_LUTS: bool;

    /// A fully known word: primary inputs, constants and scan state.
    fn known(word: u64) -> Self;

    /// A standard cell over its fan-in values, in one pass.
    fn gate(kind: GateKind, fanin: impl Iterator<Item = Self>) -> Self;

    /// A programmed LUT over its fan-in values.
    fn lut(table: &TruthTable, fanin: &[Self]) -> Self;

    /// A redacted LUT over its fan-in values, given what is known of
    /// its truth table. Only reached when [`REDACTED_LUTS`](Logic::REDACTED_LUTS)
    /// holds.
    fn redacted(partial: Option<&PartialLut>, fanin: &[Self]) -> Self;
}

impl Logic for u64 {
    const POWER_UP: u64 = 0;
    const REDACTED_LUTS: bool = false;

    #[inline]
    fn known(word: u64) -> u64 {
        word
    }

    #[inline]
    fn gate(kind: GateKind, mut it: impl Iterator<Item = u64>) -> u64 {
        use GateKind::*;
        match kind {
            Buf => it.next().unwrap_or(0),
            Not => !it.next().unwrap_or(0),
            And => it.fold(u64::MAX, |a, b| a & b),
            Nand => !it.fold(u64::MAX, |a, b| a & b),
            Or => it.fold(0, |a, b| a | b),
            Nor => !it.fold(0, |a, b| a | b),
            Xor => it.fold(0, |a, b| a ^ b),
            Xnor => !it.fold(0, |a, b| a ^ b),
        }
    }

    #[inline]
    fn lut(table: &TruthTable, fanin: &[u64]) -> u64 {
        table.eval_parallel(fanin)
    }

    fn redacted(_: Option<&PartialLut>, _: &[u64]) -> u64 {
        unreachable!("the two-valued engine rejects redacted LUTs at construction")
    }
}

/// A 64-lane bit-parallel cycle simulator over the value domain `V`.
///
/// Bit `l` of every word belongs to lane `l`: the engine advances 64
/// independent pattern streams per [`step`](Engine::step). Use it
/// through [`Simulator`](crate::Simulator) (two-valued, flip-flops power
/// up at 0) or [`TriSimulator`](crate::tri::TriSimulator) (0/1/X,
/// flip-flops power up at X).
#[derive(Debug, Clone)]
pub struct Engine<'a, V: Logic> {
    netlist: &'a Netlist,
    order: Arc<Vec<NodeId>>,
    /// Current net values, one word per node.
    values: Vec<V>,
    /// Registered state for DFF nodes (indexed like `values`; other
    /// entries are unused).
    state: Vec<V>,
    /// Overrides sorted by node id: the node's value is pinned to the
    /// given word in every evaluation (all 64 lanes independently, so a
    /// lane mask can model per-lane faults).
    forces: Vec<(NodeId, V)>,
    /// Partial truth-table knowledge of redacted LUTs.
    partial: HashMap<NodeId, PartialLut>,
}

impl<'a, V: Logic> Engine<'a, V> {
    /// Prepares an engine for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnprogrammedLut`] if the netlist contains a
    /// redacted LUT and the domain cannot represent an unknown function
    /// (two-valued simulation needs every function defined).
    pub fn new(netlist: &'a Netlist) -> Result<Self, SimError> {
        Self::with_view(&CircuitView::new(netlist))
    }

    /// Prepares an engine against a shared [`CircuitView`], reusing its
    /// memoized topological order instead of recomputing one.
    ///
    /// # Errors
    ///
    /// As [`new`](Engine::new).
    pub fn with_view(view: &CircuitView<'a>) -> Result<Self, SimError> {
        Self::with_order(view.netlist(), view.topo_order_arc())
    }

    /// Prepares an engine from an explicit topological order — for
    /// callers holding many structure-identical netlist variants (e.g.
    /// the attack's hypothesis candidates) that share one order.
    ///
    /// The order must be a valid topological order of `netlist`'s
    /// combinational nodes, which holds for any netlist produced by
    /// wiring-preserving edits of the netlist the order came from.
    ///
    /// # Errors
    ///
    /// As [`new`](Engine::new).
    pub fn with_order(netlist: &'a Netlist, order: Arc<Vec<NodeId>>) -> Result<Self, SimError> {
        if !V::REDACTED_LUTS {
            if let Some(id) = netlist.first_unprogrammed_lut() {
                return Err(SimError::UnprogrammedLut {
                    name: netlist.node_name(id).to_owned(),
                });
            }
        }
        Ok(Engine {
            netlist,
            order,
            values: vec![V::POWER_UP; netlist.len()],
            state: vec![V::POWER_UP; netlist.len()],
            forces: Vec::new(),
            partial: HashMap::new(),
        })
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Returns every net and flip-flop to the domain's power-up value.
    pub fn reset(&mut self) {
        self.values.fill(V::POWER_UP);
        self.state.fill(V::POWER_UP);
    }

    /// Current value word of a net.
    pub fn value(&self, id: NodeId) -> V {
        self.values[id.index()]
    }

    /// Pins the node's value to `word` in every subsequent evaluation —
    /// masked (faulty) evaluation of stuck-at nodes, or an attack's
    /// hypothesis for a missing gate, without editing the netlist. Bit
    /// `l` applies to lane `l`, so a partial mask models a fault present
    /// in only some pattern streams. Replaces any earlier force on the
    /// same node.
    pub fn force(&mut self, id: NodeId, word: V) {
        match self.forces.binary_search_by_key(&id, |&(n, _)| n) {
            Ok(k) => self.forces[k].1 = word,
            Err(k) => self.forces.insert(k, (id, word)),
        }
    }

    /// Removes the force on `id`, if any.
    pub fn unforce(&mut self, id: NodeId) {
        if let Ok(k) = self.forces.binary_search_by_key(&id, |&(n, _)| n) {
            self.forces.remove(k);
        }
    }

    /// Removes every force.
    pub fn clear_forces(&mut self) {
        self.forces.clear();
    }

    /// The override for `id`, if one is active.
    fn forced(&self, id: NodeId) -> Option<V> {
        self.forces
            .binary_search_by_key(&id, |&(n, _)| n)
            .ok()
            .map(|k| self.forces[k].1)
    }

    /// Registers partial truth-table knowledge for a redacted LUT; its
    /// output becomes known on lanes whose (fully known) input row is
    /// resolved. Ignored for programmed LUTs.
    pub fn set_partial_lut(&mut self, id: NodeId, partial: PartialLut) {
        self.partial.insert(id, partial);
    }

    /// Evaluates the combinational logic for the given primary-input
    /// words without advancing the clock. Flip-flop outputs present their
    /// registered state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputCountMismatch`] if `inputs` does not have
    /// one word per primary input.
    pub fn eval_comb(&mut self, inputs: &[u64]) -> Result<(), SimError> {
        let pis = self.netlist.inputs();
        if inputs.len() != pis.len() {
            return Err(SimError::InputCountMismatch {
                expected: pis.len(),
                got: inputs.len(),
            });
        }
        for (&pi, &word) in pis.iter().zip(inputs) {
            self.values[pi.index()] = V::known(word);
        }
        for (id, node) in self.netlist.iter() {
            match node {
                Node::Const(v) => self.values[id.index()] = V::known(if *v { u64::MAX } else { 0 }),
                Node::Dff { .. } => self.values[id.index()] = self.state[id.index()],
                _ => {}
            }
        }
        if !self.forces.is_empty() {
            for &(id, word) in &self.forces {
                self.values[id.index()] = word;
            }
        }
        let mut scratch: Vec<V> = Vec::with_capacity(8);
        for &id in self.order.iter() {
            let mut out = match self.netlist.node(id) {
                Node::Gate { kind, fanin } => {
                    V::gate(*kind, fanin.iter().map(|f| self.values[f.index()]))
                }
                Node::Lut { fanin, config } => {
                    scratch.clear();
                    scratch.extend(fanin.iter().map(|f| self.values[f.index()]));
                    match config {
                        Some(table) => V::lut(table, &scratch),
                        None => V::redacted(self.partial.get(&id), &scratch),
                    }
                }
                _ => continue,
            };
            if !self.forces.is_empty() {
                if let Some(word) = self.forced(id) {
                    out = word;
                }
            }
            self.values[id.index()] = out;
        }
        Ok(())
    }

    /// Clocks every flip-flop: the D values computed by the last
    /// [`eval_comb`](Engine::eval_comb) become the new state.
    pub fn clock(&mut self) {
        for (id, node) in self.netlist.iter() {
            if let Node::Dff { d } = node {
                self.state[id.index()] = self.values[d.index()];
            }
        }
    }

    /// One full cycle: evaluate combinational logic for `inputs`, sample
    /// the primary outputs, then clock the flip-flops. Returns one word
    /// per primary output.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputCountMismatch`] on an input arity mismatch.
    pub fn step(&mut self, inputs: &[u64]) -> Result<Vec<V>, SimError> {
        self.eval_comb(inputs)?;
        let outs = self
            .netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect();
        self.clock();
        Ok(outs)
    }

    /// Runs `inputs_per_cycle` through [`step`](Engine::step) from
    /// reset and returns the output words of every cycle.
    ///
    /// # Errors
    ///
    /// Propagates input arity mismatches.
    pub fn run(&mut self, inputs_per_cycle: &[Vec<u64>]) -> Result<Vec<Vec<V>>, SimError> {
        self.reset();
        inputs_per_cycle.iter().map(|i| self.step(i)).collect()
    }

    /// Flip-flop ids in arena order — the state vector layout used by
    /// [`eval_frame`](Engine::eval_frame).
    pub fn dff_ids(&self) -> Vec<NodeId> {
        self.netlist
            .iter()
            .filter(|(_, n)| n.is_dff())
            .map(|(id, _)| id)
            .collect()
    }

    /// Single-frame (full-scan) evaluation: flip-flop outputs are set to
    /// the fully known `state` (one word per flip-flop, arena order) and
    /// the combinational logic is evaluated without clocking.
    ///
    /// This is the oracle model of the scan-assumed attacks: primary
    /// inputs *and* state are controllable; primary outputs *and*
    /// next-state (D pins) are observable via
    /// [`observation`](Engine::observation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputCountMismatch`] if `inputs` or `state`
    /// have the wrong length (the error reports the input mismatch).
    pub fn eval_frame(&mut self, inputs: &[u64], state: &[u64]) -> Result<(), SimError> {
        let dffs = self.dff_ids();
        if state.len() != dffs.len() {
            return Err(SimError::InputCountMismatch {
                expected: dffs.len(),
                got: state.len(),
            });
        }
        for (&ff, &w) in dffs.iter().zip(state) {
            self.state[ff.index()] = V::known(w);
        }
        self.eval_comb(inputs)
    }

    /// The nets the full-scan model observes, in
    /// [`observation`](Engine::observation) order: primary-output
    /// drivers, then flip-flop D drivers (arena order).
    fn observed(&self) -> impl Iterator<Item = NodeId> + '_ {
        let d_pins = self.netlist.iter().filter_map(|(_, node)| match node {
            Node::Dff { d } => Some(*d),
            _ => None,
        });
        self.netlist.outputs().iter().copied().chain(d_pins)
    }

    /// The node observed at each index of
    /// [`observation`](Engine::observation).
    pub fn observation_points(&self) -> Vec<NodeId> {
        self.observed().collect()
    }

    /// The observation vector of the full-scan model: primary-output
    /// words followed by flip-flop D-pin words (arena order).
    pub fn observation(&self) -> Vec<V> {
        self.observed().map(|id| self.values[id.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use sttlock_netlist::NetlistBuilder;

    fn comb() -> Netlist {
        let mut b = NetlistBuilder::new("comb");
        b.input("a");
        b.input("b");
        b.input("c");
        b.gate("g1", GateKind::And, &["a", "b"]);
        b.gate("g2", GateKind::Or, &["g1", "c"]);
        b.gate("g3", GateKind::Xor, &["g2", "a"]);
        b.output("g3");
        b.finish().unwrap()
    }

    #[test]
    fn combinational_truth() {
        let n = comb();
        let mut sim = Simulator::new(&n).unwrap();
        // enumerate all 8 assignments in lanes 0..8
        let mut a = 0u64;
        let mut bw = 0u64;
        let mut c = 0u64;
        for lane in 0..8u64 {
            if lane & 1 != 0 {
                a |= 1 << lane;
            }
            if lane & 2 != 0 {
                bw |= 1 << lane;
            }
            if lane & 4 != 0 {
                c |= 1 << lane;
            }
        }
        let outs = sim.step(&[a, bw, c]).unwrap();
        for lane in 0..8u64 {
            let (av, bv, cv) = (lane & 1 != 0, lane & 2 != 0, lane & 4 != 0);
            let expect = ((av && bv) || cv) ^ av;
            assert_eq!((outs[0] >> lane) & 1 == 1, expect, "lane {lane}");
        }
    }

    #[test]
    fn forces_pin_nodes_and_clear_cleanly() {
        let n = comb();
        let g1 = n.find("g1").unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        // a=b=1, c=0: g1=1, g2=1, g3 = 1 ^ 1 = 0.
        let outs = sim.step(&[u64::MAX, u64::MAX, 0]).unwrap();
        assert_eq!(outs[0], 0);
        // Stuck-at-0 on g1: g2 = 0 | 0 = 0, g3 = 0 ^ 1 = 1.
        sim.force(g1, 0);
        let outs = sim.step(&[u64::MAX, u64::MAX, 0]).unwrap();
        assert_eq!(outs[0], u64::MAX);
        assert_eq!(sim.value(g1), 0);
        // A half-lane mask faults only the low 32 lanes.
        sim.force(g1, !0u64 >> 32 << 32);
        let outs = sim.step(&[u64::MAX, u64::MAX, 0]).unwrap();
        assert_eq!(outs[0], u64::MAX >> 32);
        sim.unforce(g1);
        let outs = sim.step(&[u64::MAX, u64::MAX, 0]).unwrap();
        assert_eq!(outs[0], 0);
        sim.force(g1, 0);
        sim.clear_forces();
        let outs = sim.step(&[u64::MAX, u64::MAX, 0]).unwrap();
        assert_eq!(outs[0], 0);
    }

    #[test]
    fn forcing_a_primary_input_overrides_the_pattern_word() {
        let n = comb();
        let a = n.find("a").unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.force(a, 0);
        // Pattern says a=1 everywhere, but the force pins it to 0:
        // g1 = 0, g2 = c, g3 = c ^ 0 = c.
        let outs = sim.step(&[u64::MAX, u64::MAX, 0xF0F0]).unwrap();
        assert_eq!(outs[0], 0xF0F0);
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut b = NetlistBuilder::new("reg");
        b.input("d");
        b.dff("q", "d");
        b.output("q");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.step(&[u64::MAX]).unwrap()[0], 0); // reset state
        assert_eq!(sim.step(&[0]).unwrap()[0], u64::MAX); // captured 1s
        assert_eq!(sim.step(&[0]).unwrap()[0], 0);
    }

    #[test]
    fn feedback_counter_toggles() {
        // state' = state XOR 1 (en tied high) — toggles every cycle.
        let mut b = NetlistBuilder::new("tog");
        b.input("en");
        b.gate("next", GateKind::Xor, &["en", "state"]);
        b.dff("state", "next");
        b.output("state");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        let seq: Vec<u64> = (0..4).map(|_| sim.step(&[u64::MAX]).unwrap()[0]).collect();
        assert_eq!(seq, vec![0, u64::MAX, 0, u64::MAX]);
    }

    #[test]
    fn lut_equals_replaced_gate() {
        let n = comb();
        let mut hybrid = n.clone();
        let g2 = hybrid.find("g2").unwrap();
        hybrid.replace_gate_with_lut(g2).unwrap();

        let mut s1 = Simulator::new(&n).unwrap();
        let mut s2 = Simulator::new(&hybrid).unwrap();
        for pat in [[0, 0, 0], [u64::MAX, 5, 99], [7, 7, 7]] {
            assert_eq!(s1.step(&pat).unwrap(), s2.step(&pat).unwrap());
        }
    }

    #[test]
    fn redacted_lut_is_rejected() {
        let mut n = comb();
        let g2 = n.find("g2").unwrap();
        n.replace_gate_with_lut(g2).unwrap();
        let (stripped, _) = n.redact();
        assert!(matches!(
            Simulator::new(&stripped),
            Err(SimError::UnprogrammedLut { .. })
        ));
    }

    #[test]
    fn input_arity_checked() {
        let n = comb();
        let mut sim = Simulator::new(&n).unwrap();
        assert!(matches!(
            sim.step(&[0, 0]),
            Err(SimError::InputCountMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn reset_clears_state() {
        let mut b = NetlistBuilder::new("reg");
        b.input("d");
        b.dff("q", "d");
        b.output("q");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step(&[u64::MAX]).unwrap();
        sim.reset();
        assert_eq!(sim.step(&[0]).unwrap()[0], 0);
    }

    #[test]
    fn reprogrammed_lut_changes_function() {
        let mut b = NetlistBuilder::new("lut");
        b.input("a");
        b.input("b");
        b.lut(
            "y",
            &["a", "b"],
            Some(TruthTable::from_gate(GateKind::And, 2)),
        );
        b.output("y");
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.step(&[u64::MAX, 0]).unwrap()[0], 0);

        let mut n2 = n.clone();
        n2.set_lut_config(
            n2.find("y").unwrap(),
            TruthTable::from_gate(GateKind::Or, 2),
        );
        let mut sim2 = Simulator::new(&n2).unwrap();
        assert_eq!(sim2.step(&[u64::MAX, 0]).unwrap()[0], u64::MAX);
    }
}
