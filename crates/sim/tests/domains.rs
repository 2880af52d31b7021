//! The one simulation engine in its two value domains: on fully known
//! inputs and state, three-valued simulation must never produce an X and
//! must agree with two-valued simulation lane for lane — forces, LUTs,
//! full-scan frames and clocking included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_netlist::{GateKind, Netlist, NetlistBuilder, NodeId, TruthTable};
use sttlock_sim::tri::{TriSimulator, TriWord};
use sttlock_sim::Simulator;

/// Strategy: a random programmed netlist with every gate kind, constants,
/// LUTs of one to four inputs with random tables, and flip-flops fed
/// back from later logic. Each node reads previously declared signals
/// (flip-flop outputs are declared up front), so the result is valid by
/// construction.
fn arb_programmed_circuit() -> impl Strategy<Value = Netlist> {
    (
        1usize..5,
        0usize..4,
        prop::collection::vec((0u8..11, any::<[u32; 4]>(), any::<u64>()), 1..40),
        any::<[u32; 4]>(),
    )
        .prop_map(|(n_inputs, n_ffs, nodes, d_picks)| {
            let mut b = NetlistBuilder::new("domains");
            let mut signals: Vec<String> = Vec::new();
            for i in 0..n_inputs {
                let name = format!("i{i}");
                b.input(&name);
                signals.push(name);
            }
            signals.extend((0..n_ffs).map(|f| format!("f{f}")));
            let mut logic: Vec<String> = Vec::new();
            for (g, (pick, fanin_picks, bits)) in nodes.into_iter().enumerate() {
                let name = format!("g{g}");
                // One to four distinct fan-ins from the signals so far.
                let arity = 1 + fanin_picks[0] as usize % 4;
                let mut fanin: Vec<&str> = Vec::new();
                for &p in &fanin_picks[..arity] {
                    let s = signals[p as usize % signals.len()].as_str();
                    if !fanin.contains(&s) {
                        fanin.push(s);
                    }
                }
                match pick {
                    0 => b.constant(&name, bits & 1 == 1),
                    1 | 2 => b.lut(&name, &fanin, Some(TruthTable::new(fanin.len(), bits))),
                    _ if fanin.len() == 1 => {
                        let kind = if bits & 1 == 1 {
                            GateKind::Not
                        } else {
                            GateKind::Buf
                        };
                        b.gate(&name, kind, &fanin)
                    }
                    _ => b.gate(&name, GateKind::ALL[pick as usize % 6 + 2], &fanin),
                };
                signals.push(name.clone());
                logic.push(name);
            }
            for f in 0..n_ffs {
                let d = &logic[d_picks[f] as usize % logic.len()];
                b.dff(&format!("f{f}"), d);
            }
            b.output(logic.last().expect("at least one node"));
            b.output(&logic[d_picks[3] as usize % logic.len()]);
            b.finish().expect("constructed circuits are valid")
        })
}

fn words(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen()).collect()
}

fn known(ws: Vec<u64>) -> Vec<TriWord> {
    ws.into_iter().map(TriWord::known).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn three_valued_agrees_with_two_valued_on_known_values(
        n in arb_programmed_circuit(),
        seed in any::<u64>(),
        target in any::<u32>(),
        word in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut two = Simulator::new(&n).expect("programmed netlist");
        let mut three = TriSimulator::new(&n).expect("any netlist");
        let target = NodeId::from_index(target as usize % n.len());
        two.force(target, word);
        three.force(target, TriWord::known(word));

        let inputs = words(&mut rng, n.inputs().len());
        let state = words(&mut rng, two.dff_ids().len());
        two.eval_frame(&inputs, &state).unwrap();
        three.eval_frame(&inputs, &state).unwrap();
        prop_assert_eq!(three.observation_points(), two.observation_points());
        prop_assert_eq!(three.observation(), known(two.observation()));

        // Clocked on from the known frame, every cycle keeps agreeing.
        two.clock();
        three.clock();
        for _ in 0..4 {
            let inputs = words(&mut rng, n.inputs().len());
            let outs = two.step(&inputs).unwrap();
            prop_assert_eq!(three.step(&inputs).unwrap(), known(outs));
        }
    }
}
