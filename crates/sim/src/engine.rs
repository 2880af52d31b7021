use std::collections::HashMap;
use std::sync::Arc;

use sttlock_netlist::{CircuitView, Netlist, Node, NodeId, TruthTable, MAX_LUT_INPUTS};

use crate::error::SimError;
use crate::tape::{Instr, Masks, Tape, LUT, OPS};
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

    /// One two-input tape instruction: the AND, OR or XOR of `a` and `b`
    /// that `masks` picks, inverted on the lanes `masks.invert` sets.
    /// Evaluated by mask arithmetic alone, with no branch on the op.
    fn op(a: Self, b: Self, masks: &Masks) -> Self;

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
    fn op(a: u64, b: u64, m: &Masks) -> u64 {
        ((a & b & m.and) | ((a | b) & m.or) | ((a ^ b) & m.xor)) ^ m.invert
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
///
/// Every evaluation runs the netlist's compiled [`Tape`]: sources are
/// loaded from precomputed lists, then the instructions run in order.
#[derive(Debug, Clone)]
pub struct Engine<'a, V: Logic> {
    netlist: &'a Netlist,
    tape: Arc<Tape>,
    /// Current net values, one word per node.
    values: Vec<V>,
    /// Registered state, one word per flip-flop in arena order.
    state: Vec<V>,
    /// Overrides as `(tape position, node, word)`, sorted: the node's
    /// value is pinned to the word in every evaluation, written just past
    /// the node's last instruction so its whole fan-out reads it (all 64
    /// lanes independently, so a lane mask can model per-lane faults).
    forces: Vec<(u32, NodeId, V)>,
    /// Partial truth-table knowledge of redacted LUTs.
    partial: HashMap<NodeId, PartialLut>,
}

impl<'a, V: Logic> Engine<'a, V> {
    /// Prepares an engine for `netlist`, compiling its tape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnprogrammedLut`] if the netlist contains a
    /// redacted LUT and the domain cannot represent an unknown function
    /// (two-valued simulation needs every function defined).
    pub fn new(netlist: &'a Netlist) -> Result<Self, SimError> {
        Self::with_view(&CircuitView::new(netlist))
    }

    /// Prepares an engine against a shared [`CircuitView`], running the
    /// tape memoized there (compiled on the view's first engine).
    ///
    /// # Errors
    ///
    /// As [`new`](Engine::new).
    pub fn with_view(view: &CircuitView<'a>) -> Result<Self, SimError> {
        Self::build(view.netlist(), Tape::of(view))
    }

    /// Prepares an engine that runs an already compiled tape — for
    /// callers holding many variants of one netlist that differ only in
    /// LUT contents (e.g. the attack's hypothesis candidates), which
    /// share the tape instead of compiling one each. See [`Tape`] for
    /// which variants may share one.
    ///
    /// # Errors
    ///
    /// As [`new`](Engine::new), plus [`SimError::TapeMismatch`] if
    /// `netlist` disagrees with the tape's netlist on its node count,
    /// outputs or LUT nodes.
    pub fn with_tape(netlist: &'a Netlist, tape: Arc<Tape>) -> Result<Self, SimError> {
        if !tape.fits(netlist) {
            return Err(SimError::TapeMismatch {
                netlist: netlist.name().to_owned(),
            });
        }
        Self::build(netlist, tape)
    }

    fn build(netlist: &'a Netlist, tape: Arc<Tape>) -> Result<Self, SimError> {
        if !V::REDACTED_LUTS {
            if let Some(&id) = tape
                .luts
                .iter()
                .find(|&&id| netlist.lut_config(id).is_none())
            {
                return Err(SimError::UnprogrammedLut {
                    name: netlist.node_name(id).to_owned(),
                });
            }
        }
        Ok(Engine {
            netlist,
            values: vec![V::POWER_UP; netlist.len()],
            state: vec![V::POWER_UP; tape.dffs.len()],
            tape,
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

    /// Every net's current value word, indexed by [`NodeId::index`].
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// Pins the node's value to `word` in every subsequent evaluation —
    /// masked (faulty) evaluation of stuck-at nodes, or an attack's
    /// hypothesis for a missing gate, without editing the netlist. Bit
    /// `l` applies to lane `l`, so a partial mask models a fault present
    /// in only some pattern streams. Replaces any earlier force on the
    /// same node.
    pub fn force(&mut self, id: NodeId, word: V) {
        let key = (self.tape.end[id.index()], id);
        match self
            .forces
            .binary_search_by_key(&key, |&(at, n, _)| (at, n))
        {
            Ok(k) => self.forces[k].2 = word,
            Err(k) => self.forces.insert(k, (key.0, id, word)),
        }
    }

    /// Removes the force on `id`, if any.
    pub fn unforce(&mut self, id: NodeId) {
        let key = (self.tape.end[id.index()], id);
        if let Ok(k) = self
            .forces
            .binary_search_by_key(&key, |&(at, n, _)| (at, n))
        {
            self.forces.remove(k);
        }
    }

    /// Removes every force.
    pub fn clear_forces(&mut self) {
        self.forces.clear();
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
        self.check_inputs(inputs)?;
        self.eval(inputs);
        Ok(())
    }

    fn check_inputs(&self, inputs: &[u64]) -> Result<(), SimError> {
        let expected = self.netlist.inputs().len();
        if inputs.len() != expected {
            return Err(SimError::InputCountMismatch {
                expected,
                got: inputs.len(),
            });
        }
        Ok(())
    }

    /// Loads the sources and runs the tape, writing each force just past
    /// its node's last instruction. `inputs` has been checked.
    fn eval(&mut self, inputs: &[u64]) {
        let Engine {
            netlist,
            tape,
            values,
            state,
            forces,
            partial,
        } = self;
        for (&pi, &word) in netlist.inputs().iter().zip(inputs) {
            values[pi.index()] = V::known(word);
        }
        for &(id, word) in &tape.consts {
            values[id.index()] = V::known(word);
        }
        for (&ff, &word) in tape.dffs.iter().zip(state.iter()) {
            values[ff.index()] = word;
        }
        let mut pc = 0;
        for &(at, id, word) in forces.iter() {
            let at = at as usize;
            exec(netlist, partial, values, &tape.instrs[pc..at]);
            values[id.index()] = word;
            pc = at;
        }
        exec(netlist, partial, values, &tape.instrs[pc..]);
    }

    /// Clocks every flip-flop: the D values computed by the last
    /// [`eval_comb`](Engine::eval_comb) become the new state.
    pub fn clock(&mut self) {
        for (s, d) in self.state.iter_mut().zip(self.tape.d_pins()) {
            *s = self.values[d.index()];
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
        let outs = self.tape.observed[..self.tape.outputs]
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
        self.tape.dffs.clone()
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
    /// Returns [`SimError::InputCountMismatch`] if `inputs` and
    /// [`SimError::StateCountMismatch`] if `state` has the wrong length.
    /// Both are checked before anything is written, so a failed call
    /// leaves the engine as it was.
    pub fn eval_frame(&mut self, inputs: &[u64], state: &[u64]) -> Result<(), SimError> {
        self.check_inputs(inputs)?;
        if state.len() != self.state.len() {
            return Err(SimError::StateCountMismatch {
                expected: self.state.len(),
                got: state.len(),
            });
        }
        for (s, &word) in self.state.iter_mut().zip(state) {
            *s = V::known(word);
        }
        self.eval(inputs);
        Ok(())
    }

    /// The node observed at each index of
    /// [`observation`](Engine::observation): primary-output drivers,
    /// then flip-flop D drivers (arena order).
    pub fn observation_points(&self) -> Vec<NodeId> {
        self.tape.observed.clone()
    }

    /// The observation vector of the full-scan model: primary-output
    /// words followed by flip-flop D-pin words (arena order).
    pub fn observation(&self) -> Vec<V> {
        self.tape
            .observed
            .iter()
            .map(|id| self.values[id.index()])
            .collect()
    }
}

/// Runs a stretch of the tape. Two-input instructions index the op table
/// and never branch on the op; a LUT reads its truth table from
/// `netlist`, the engine's own.
fn exec<V: Logic>(
    netlist: &Netlist,
    partial: &HashMap<NodeId, PartialLut>,
    values: &mut [V],
    instrs: &[Instr],
) {
    for ins in instrs {
        let out = if ins.op == LUT {
            lut(
                netlist,
                partial,
                values,
                NodeId::from_index(ins.dst as usize),
            )
        } else {
            let (a, b) = (values[ins.a as usize], values[ins.b as usize]);
            V::op(a, b, &OPS[usize::from(ins.op & 7)])
        };
        values[ins.dst as usize] = out;
    }
}

/// The LUT at `id` over its fan-in values.
fn lut<V: Logic>(
    netlist: &Netlist,
    partial: &HashMap<NodeId, PartialLut>,
    values: &[V],
    id: NodeId,
) -> V {
    // The tape fits the netlist (its LUT nodes are checked), and a valid
    // netlist caps LUT fan-in at `MAX_LUT_INPUTS`.
    let Node::Lut { fanin, config } = netlist.node(id) else {
        return V::POWER_UP;
    };
    let mut words = [V::POWER_UP; MAX_LUT_INPUTS];
    for (w, f) in words.iter_mut().zip(fanin) {
        *w = values[f.index()];
    }
    let fanin = &words[..fanin.len().min(MAX_LUT_INPUTS)];
    match config {
        Some(table) => V::lut(table, fanin),
        None => V::redacted(partial.get(&id), fanin),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use sttlock_netlist::{GateKind, NetlistBuilder};

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

    /// `q1`, `q2` capture `d`; the outputs show them.
    fn two_flops() -> Netlist {
        let mut b = NetlistBuilder::new("reg2");
        b.input("d");
        b.dff("q1", "d");
        b.dff("q2", "d");
        b.output("q1");
        b.output("q2");
        b.finish().unwrap()
    }

    #[test]
    fn a_wrong_length_state_is_a_state_count_mismatch() {
        let n = two_flops();
        let mut sim = Simulator::new(&n).unwrap();
        let err = sim.eval_frame(&[0], &[0]).unwrap_err();
        assert_eq!(
            err,
            SimError::StateCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "expected 2 state words (one per flip-flop), got 1"
        );
    }

    #[test]
    fn a_failed_frame_leaves_the_flip_flops_unchanged() {
        let n = two_flops();
        let mut sim = Simulator::new(&n).unwrap();
        // Right state, wrong inputs: the call fails before loading state.
        assert_eq!(
            sim.eval_frame(&[0, 0], &[u64::MAX, u64::MAX]),
            Err(SimError::InputCountMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(sim.step(&[0]).unwrap(), vec![0, 0], "still the reset state");
        // Right inputs, wrong state: same.
        sim.reset();
        assert!(sim.eval_frame(&[0], &[u64::MAX]).is_err());
        assert_eq!(sim.step(&[0]).unwrap(), vec![0, 0]);
    }

    #[test]
    fn a_hybrid_cannot_run_on_its_sources_tape() {
        let n = comb();
        let mut hybrid = n.clone();
        hybrid
            .replace_gate_with_lut(hybrid.find("g2").unwrap())
            .unwrap();
        let tape = Tape::of(&CircuitView::new(&n));
        assert!(matches!(
            Simulator::with_tape(&hybrid, Arc::clone(&tape)),
            Err(SimError::TapeMismatch { .. })
        ));
        // A variant differing only in LUT contents shares the hybrid's tape.
        let hybrid_tape = Tape::of(&CircuitView::new(&hybrid));
        let mut flipped = hybrid.clone();
        let g2 = flipped.find("g2").unwrap();
        let table = flipped.lut_config(g2).unwrap();
        flipped.set_lut_config(g2, table.complement());
        let mut own = Simulator::new(&flipped).unwrap();
        let mut shared = Simulator::with_tape(&flipped, hybrid_tape).unwrap();
        for pat in [[0, 0, 0], [u64::MAX, 5, 99], [7, 7, 7]] {
            assert_eq!(own.step(&pat).unwrap(), shared.step(&pat).unwrap());
        }
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
