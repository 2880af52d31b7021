//! Time-frame unrolling: encodes `k` clock cycles of a sequential
//! netlist into one CNF, chaining each frame's next-state into the next
//! frame's state and sharing LUT key variables across all frames.
//!
//! This is the substrate of the *no-scan* SAT attack
//! (`run_sequential` in the attack crate):
//! with the scan chain locked — the deployment posture the paper
//! mandates — the attacker can only drive primary inputs from reset and
//! watch primary outputs, so key reasoning must span multiple cycles.

use std::collections::BTreeMap;

use sttlock_netlist::{Netlist, NodeId};

use crate::encode::{encode, equal, tie_keys, Encoding};
use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A `k`-frame unrolled encoding.
#[derive(Debug, Clone)]
pub struct Unrolled {
    /// Primary-input variables per frame.
    pub inputs: Vec<Vec<Var>>,
    /// Primary-output variables per frame.
    pub outputs: Vec<Vec<Var>>,
    /// Shared key variables per redacted LUT (one set for all frames),
    /// in node order.
    pub keys: BTreeMap<NodeId, Vec<Var>>,
    /// The per-frame encodings, frame 0 first.
    pub frames: Vec<Encoding>,
}

impl Unrolled {
    /// Number of encoded frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame was encoded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Encodes `frames` cycles of `netlist` into `solver`, starting from the
/// all-zero reset state (the convention of the bit-parallel simulator's
/// `Simulator::run` — matching oracle queries replay the
/// same reset).
///
/// # Panics
///
/// Panics if `frames` is zero.
pub fn encode_unrolled(netlist: &Netlist, solver: &mut Solver, frames: usize) -> Unrolled {
    assert!(frames > 0, "need at least one frame");
    let mut encs: Vec<Encoding> = Vec::with_capacity(frames);
    for f in 0..frames {
        let enc = encode(netlist, solver);
        if f == 0 {
            // Reset: every flip-flop output is 0 in the first frame.
            for (_, v) in &enc.state_inputs {
                solver.add_clause(&[Lit::neg(*v)]);
            }
        } else {
            // Chain: this frame's state is the previous frame's D value.
            let prev = encs.last().expect("previous frame exists");
            for ((_, d_prev), (_, q_now)) in prev.next_state.iter().zip(&enc.state_inputs) {
                equal(solver, *d_prev, *q_now);
            }
            // One key per LUT across all frames.
            tie_keys(solver, &encs[0], &enc);
        }
        encs.push(enc);
    }
    Unrolled {
        inputs: encs.iter().map(|e| e.inputs.clone()).collect(),
        outputs: encs.iter().map(|e| e.outputs.clone()).collect(),
        keys: encs[0].keys.clone(),
        frames: encs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;
    use sttlock_netlist::{GateKind, NetlistBuilder};

    /// A toggle register gated by `en`: q' = q XOR en.
    fn toggler() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        b.input("en");
        b.gate("next", GateKind::Xor, &["en", "q"]);
        b.dff("q", "next");
        b.gate("o", GateKind::Buf, &["q"]);
        b.output("o");
        b.finish().unwrap()
    }

    #[test]
    fn reset_state_is_zero() {
        let n = toggler();
        let mut s = Solver::new();
        let u = encode_unrolled(&n, &mut s, 1);
        // Frame 0 output = q = 0 regardless of en.
        assert_eq!(s.solve_with(&[Lit::pos(u.outputs[0][0])]), SatResult::Unsat);
    }

    #[test]
    fn frames_chain_through_state() {
        let n = toggler();
        let mut s = Solver::new();
        let u = encode_unrolled(&n, &mut s, 3);
        // en = 1 in every frame: q toggles 0, 1, 0 → outputs per frame.
        let assumptions: Vec<Lit> = u.inputs.iter().map(|f| Lit::pos(f[0])).collect();
        assert_eq!(s.solve_with(&assumptions), SatResult::Sat);
        assert_eq!(s.value(u.outputs[0][0]), Some(false));
        assert_eq!(s.value(u.outputs[1][0]), Some(true));
        assert_eq!(s.value(u.outputs[2][0]), Some(false));
    }

    #[test]
    fn keys_are_shared_across_frames() {
        let mut n = toggler();
        let next = n.find("next").unwrap();
        n.replace_gate_with_lut(next).unwrap();
        let (stripped, _) = n.redact();
        let mut s = Solver::new();
        let u = encode_unrolled(&stripped, &mut s, 2);
        assert_eq!(u.keys.len(), 1);
        // Asking frame 1's behaviour to contradict frame 0's key is
        // impossible: en=1 both frames and out(frame1) = 0 forces
        // key[0b01] = 0 twice over — consistent; but out(frame1)=1 and
        // out(frame2 hypothetical)=0 under identical state/input would
        // contradict. Simplest check: with en=1,1 and o2 = key(row 01)
        // applied twice, o at frame1 equals key[0b01]... assert the
        // key bit drives frame 1's output.
        let key = u.keys.values().next().unwrap().clone();
        // Row index for (en=1, q=0): en is input 0, q input 1 → row 0b01.
        let a = [
            Lit::pos(u.inputs[0][0]),
            Lit::pos(u.inputs[1][0]),
            Lit::pos(u.outputs[1][0]), // q at frame 1 = next(frame 0) = key[1]
            Lit::neg(key[1]),
        ];
        assert_eq!(s.solve_with(&a), SatResult::Unsat);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let n = toggler();
        let mut s = Solver::new();
        let _ = encode_unrolled(&n, &mut s, 0);
    }

    #[test]
    fn unrolled_matches_simulator() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sttlock_benchgen::Profile;
        use sttlock_sim::Simulator;

        let p = Profile::custom("u", 50, 4, 4, 3);
        let n = p.generate(&mut StdRng::seed_from_u64(1));
        let mut s = Solver::new();
        let frames = 4usize;
        let u = encode_unrolled(&n, &mut s, frames);

        let mut rng = StdRng::seed_from_u64(2);
        let seq: Vec<Vec<bool>> = (0..frames)
            .map(|_| (0..n.inputs().len()).map(|_| rng.gen()).collect())
            .collect();

        // Simulator reference (lane 0).
        let mut sim = Simulator::new(&n).unwrap();
        let word_seq: Vec<Vec<u64>> = seq
            .iter()
            .map(|f| f.iter().map(|&b| if b { u64::MAX } else { 0 }).collect())
            .collect();
        let outs = sim.run(&word_seq).unwrap();

        // CNF with the same stimulus.
        let mut assumptions = Vec::new();
        for (frame, bits) in seq.iter().enumerate() {
            for (&v, &b) in u.inputs[frame].iter().zip(bits) {
                assumptions.push(Lit::new(v, !b));
            }
        }
        assert_eq!(s.solve_with(&assumptions), SatResult::Sat);
        for (frame, frame_outs) in outs.iter().enumerate() {
            for (&v, &w) in u.outputs[frame].iter().zip(frame_outs) {
                assert_eq!(s.value(v), Some(w & 1 == 1), "frame {frame}");
            }
        }
    }
}
