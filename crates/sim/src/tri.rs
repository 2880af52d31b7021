//! Three-valued (0 / 1 / X) bit-parallel simulation.
//!
//! The foundry view of a hybrid netlist contains redacted LUTs whose
//! function is unknown; they evaluate to X. The sensitization attack uses
//! this engine twice per missing gate: once with the LUT forced to 0 and
//! once forced to 1 — wherever the two runs differ at an observation
//! point, the LUT output has been propagated.
//!
//! Values are encoded as (value, known) word pairs per lane: `known=0`
//! means X; when `known=1`, `value` holds the binary value.

use sttlock_netlist::{GateKind, TruthTable, MAX_LUT_INPUTS};

use crate::engine::{Engine, Logic};

/// A 64-lane three-valued word: bit `l` of `known` says whether lane `l`
/// carries a binary value (in `value`) or X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TriWord {
    /// Binary value per lane; only meaningful where `known` is set.
    pub value: u64,
    /// Per-lane definedness mask.
    pub known: u64,
}

impl TriWord {
    /// A fully known word.
    pub fn known(value: u64) -> Self {
        TriWord {
            value,
            known: u64::MAX,
        }
    }

    /// An all-X word.
    pub fn all_x() -> Self {
        TriWord { value: 0, known: 0 }
    }

    /// `value` on the lanes in `known`, X elsewhere.
    fn known_on(value: u64, known: u64) -> Self {
        TriWord {
            value: value & known,
            known,
        }
    }

    /// Lanes where `self` and `other` are both known and differ.
    pub fn known_difference(self, other: TriWord) -> u64 {
        (self.value ^ other.value) & self.known & other.known
    }
}

/// Partial knowledge of a redacted LUT's truth table: rows in `resolved`
/// evaluate to the corresponding bit of `bits`; other rows stay X.
///
/// The sensitization attack registers what it has learned so far via
/// [`Engine::set_partial_lut`] — a half-known missing gate then
/// only poisons the cone for the input combinations that are still open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialLut {
    /// Bit `r` set when row `r`'s output is known.
    pub resolved: u64,
    /// Outputs for the resolved rows.
    pub bits: u64,
}

/// Three-valued cycle simulator: the [`Engine`] over [`TriWord`].
/// Flip-flops power up at X, the most conservative assumption for an
/// attacker without reset control, and redacted LUTs are legal.
pub type TriSimulator<'a> = Engine<'a, TriWord>;

impl Logic for TriWord {
    const POWER_UP: TriWord = TriWord { value: 0, known: 0 };
    const REDACTED_LUTS: bool = true;

    fn known(word: u64) -> TriWord {
        TriWord::known(word)
    }

    /// Three-valued gate evaluation with controlling-value shortcuts: an
    /// AND with any known-0 input is known-0 even if other inputs are X.
    fn gate(kind: GateKind, mut it: impl Iterator<Item = TriWord>) -> TriWord {
        use GateKind::*;
        let w = match kind {
            Buf | Not => it.next().unwrap_or(TriWord::known(0)),
            And | Nand => {
                let (any_zero, all_one) = it.fold((0, u64::MAX), |(z, o), w| {
                    (z | (!w.value & w.known), o & w.value & w.known)
                });
                TriWord::known_on(all_one, any_zero | all_one)
            }
            Or | Nor => {
                let (any_one, all_zero) = it.fold((0, u64::MAX), |(o, z), w| {
                    (o | (w.value & w.known), z & !w.value & w.known)
                });
                TriWord::known_on(any_one, any_one | all_zero)
            }
            Xor | Xnor => {
                // Parity is known only when every input is known.
                let (known, parity) =
                    it.fold((u64::MAX, 0), |(k, p), w| (k & w.known, p ^ w.value));
                TriWord::known_on(parity, known)
            }
        };
        if kind.is_inverting() {
            TriWord::known_on(!w.value, w.known)
        } else {
            w
        }
    }

    /// Known only where every input is known.
    fn lut(table: &TruthTable, fanin: &[TriWord]) -> TriWord {
        let (values, known) = split(fanin);
        TriWord::known_on(table.eval_parallel(&values[..fanin.len()]), known)
    }

    /// Known where every input is known and the resulting row has been
    /// resolved; all X without partial knowledge.
    fn redacted(partial: Option<&PartialLut>, fanin: &[TriWord]) -> TriWord {
        let Some(partial) = partial else {
            return TriWord::all_x();
        };
        let (values, inputs_known) = split(fanin);
        let rows = |bits| TruthTable::new(fanin.len(), bits).eval_parallel(&values[..fanin.len()]);
        let known = rows(partial.resolved) & inputs_known;
        TriWord::known_on(rows(partial.resolved & partial.bits), known)
    }
}

/// A LUT's fan-in value words and the lanes on which all of them are
/// known. LUT fan-in never exceeds [`MAX_LUT_INPUTS`] in a valid netlist.
fn split(fanin: &[TriWord]) -> ([u64; MAX_LUT_INPUTS], u64) {
    let mut values = [0u64; MAX_LUT_INPUTS];
    for (v, w) in values.iter_mut().zip(fanin) {
        *v = w.value;
    }
    (values, fanin.iter().fold(u64::MAX, |k, w| k & w.known))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::{Netlist, NetlistBuilder, NodeId};

    fn tri(v: Option<bool>) -> TriWord {
        match v {
            Some(true) => TriWord::known(u64::MAX),
            Some(false) => TriWord::known(0),
            None => TriWord::all_x(),
        }
    }

    #[test]
    fn controlling_values_dominate_x() {
        let x = tri(None);
        let zero = tri(Some(false));
        let one = tri(Some(true));
        let gate = |kind, ins: &[TriWord]| TriWord::gate(kind, ins.iter().copied());
        // 0 AND X = 0
        assert_eq!(gate(GateKind::And, &[zero, x]), tri(Some(false)));
        // 1 OR X = 1
        assert_eq!(gate(GateKind::Or, &[one, x]), tri(Some(true)));
        // 1 AND X = X
        assert_eq!(gate(GateKind::And, &[one, x]).known, 0);
        // X XOR 1 = X
        assert_eq!(gate(GateKind::Xor, &[x, one]).known, 0);
        // NOT X = X
        assert_eq!(gate(GateKind::Not, &[x]).known, 0);
    }

    /// `g = AND(a, b)` turned into a LUT and redacted.
    fn redacted_and() -> (Netlist, NodeId) {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("b");
        b.gate("g", GateKind::And, &["a", "b"]);
        b.output("g");
        let mut n = b.finish().unwrap();
        let g = n.find("g").unwrap();
        n.replace_gate_with_lut(g).unwrap();
        (n.redact().0, g)
    }

    #[test]
    fn redacted_lut_produces_x_and_forcing_resolves_it() {
        let (stripped, g) = redacted_and();
        let mut sim = TriSimulator::new(&stripped).unwrap();
        let outs = sim.step(&[u64::MAX, u64::MAX]).unwrap();
        assert_eq!(outs[0].known, 0, "missing gate must be X");

        sim.force(g, TriWord::known(u64::MAX));
        let outs = sim.step(&[u64::MAX, u64::MAX]).unwrap();
        assert_eq!(outs[0], TriWord::known(u64::MAX));

        sim.unforce(g);
        let outs = sim.step(&[u64::MAX, u64::MAX]).unwrap();
        assert_eq!(outs[0].known, 0, "unforcing restores the X");
    }

    #[test]
    fn difference_detection_between_hypotheses() {
        // y = x AND c : forcing x to 0 vs 1 is observable only when c=1.
        let mut b = NetlistBuilder::new("m");
        b.input("c");
        b.input("p");
        b.gate("x", GateKind::Buf, &["p"]);
        b.gate("y", GateKind::And, &["x", "c"]);
        b.output("y");
        let mut n = b.finish().unwrap();
        let x = n.find("x").unwrap();
        n.replace_gate_with_lut(x).unwrap();
        let (stripped, _) = n.redact();

        let run = |c: u64, v: u64| {
            let mut sim = TriSimulator::new(&stripped).unwrap();
            sim.force(x, TriWord::known(v));
            sim.step(&[c, 0]).unwrap()[0]
        };
        // c = 1: observable
        assert_eq!(
            run(u64::MAX, 0).known_difference(run(u64::MAX, u64::MAX)),
            u64::MAX
        );
        // c = 0: masked
        assert_eq!(run(0, 0).known_difference(run(0, u64::MAX)), 0);
    }

    #[test]
    fn partial_lut_knowledge_narrows_x() {
        // y = LUT(a, c) redacted; with row 0b11 resolved to 1 the output
        // becomes known exactly when a = c = 1.
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut("y", &["a", "c"], None);
        b.output("y");
        let n = b.finish().unwrap();
        let y = n.find("y").unwrap();

        let mut sim = TriSimulator::new(&n).unwrap();
        sim.set_partial_lut(
            y,
            PartialLut {
                resolved: 0b1000,
                bits: 0b1000,
            },
        );
        // Lane pattern: a = 1 everywhere, c = 1 on the low 32 lanes only.
        let c = 0x0000_0000_FFFF_FFFFu64;
        let outs = sim.step(&[u64::MAX, c]).unwrap();
        assert_eq!(outs[0].known, c, "known only where the resolved row hits");
        assert_eq!(outs[0].value, c);

        // Without partial knowledge, everything is X.
        let mut plain = TriSimulator::new(&n).unwrap();
        let outs = plain.step(&[u64::MAX, c]).unwrap();
        assert_eq!(outs[0].known, 0);
    }

    #[test]
    fn x_state_after_reset() {
        let mut b = NetlistBuilder::new("m");
        b.input("d");
        b.dff("q", "d");
        b.output("q");
        let n = b.finish().unwrap();
        let mut sim = TriSimulator::new(&n).unwrap();
        let outs = sim.step(&[u64::MAX]).unwrap();
        assert_eq!(outs[0].known, 0, "uninitialized flop reads X");
        let outs = sim.step(&[0]).unwrap();
        assert_eq!(outs[0], TriWord::known(u64::MAX), "captured known value");
        sim.reset();
        let outs = sim.step(&[0]).unwrap();
        assert_eq!(outs[0].known, 0, "reset returns the flop to X");
    }
}
