//! Differential properties: [`IncrementalSta`] must be indistinguishable
//! — bit for bit — from running a fresh [`analyze`] on an equivalently
//! mutated netlist, no matter how swaps and restores interleave.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::Profile;
use sttlock_netlist::{CircuitView, Netlist, NodeId};
use sttlock_sta::{analyze, IncrementalSta};
use sttlock_techlib::Library;

/// An engine seeded from a fresh full analysis.
fn engine<'a>(netlist: &'a Netlist, lib: &'a Library) -> IncrementalSta<'a> {
    IncrementalSta::from_analysis_with(&CircuitView::new(netlist), lib, &analyze(netlist, lib))
}

/// Gates the selection algorithms may legally swap (narrow standard
/// cells).
fn swap_pool(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .iter()
        .filter(|(_, n)| n.gate_kind().is_some() && n.fanin().len() <= 6)
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary interleavings of swap/restore leave the engine equal to
    /// a fresh full analysis of the mutated netlist: same clock period,
    /// same arrival at every node, same materialized [`sttlock_sta::TimingAnalysis`].
    #[test]
    fn interleaved_swaps_match_fresh_analyze(
        seed in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..32usize),
    ) {
        let gates = 120 + (seed % 160) as usize;
        let netlist =
            Profile::custom("diff", gates, 8, 8, 6).generate(&mut StdRng::seed_from_u64(seed));
        let lib = Library::predictive_90nm();
        let pool = swap_pool(&netlist);
        prop_assert!(!pool.is_empty());

        let mut engine = engine(&netlist, &lib);
        let mut mutated = netlist.clone();
        let mut swapped: HashSet<NodeId> = HashSet::new();

        for op in ops {
            let id = pool[op as usize % pool.len()];
            if swapped.remove(&id) {
                let kind = netlist.node(id).gate_kind().expect("pool gates are cells");
                engine.restore_gate(id, kind);
                mutated.restore_lut_to_gate(id, kind);
            } else {
                engine.swap_to_lut(id);
                mutated
                    .replace_gate_with_lut(id)
                    .expect("pool gates are replaceable");
                swapped.insert(id);
            }

            let fresh = analyze(&mutated, &lib);
            prop_assert_eq!(
                engine.clock_period_ns().to_bits(),
                fresh.clock_period_ns().to_bits()
            );
            for (nid, _) in netlist.iter() {
                prop_assert_eq!(
                    engine.arrival_ns(nid).to_bits(),
                    fresh.arrival_ns(nid).to_bits()
                );
            }
            prop_assert_eq!(engine.to_analysis(), fresh);
        }
    }

    /// Single-swap probes (swap, measure, restore) on top of a standing
    /// hypothesis — the selection's USL-closure pattern — each read the
    /// period a fresh analysis of hypothesis + candidate gives, and leave
    /// the engine equal to a fresh analysis of the hypothesis alone.
    #[test]
    fn single_swap_probes_match_fresh_analyze_and_restore(
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 2..24usize),
    ) {
        let netlist =
            Profile::custom("probe", 200, 8, 8, 6).generate(&mut StdRng::seed_from_u64(seed));
        let lib = Library::predictive_90nm();
        let pool = swap_pool(&netlist);
        prop_assert!(!pool.is_empty());

        let mut picked: Vec<NodeId> = picks
            .iter()
            .map(|&p| pool[p as usize % pool.len()])
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let (standing, probes) = picked.split_at(picked.len() / 2);

        let mut engine = engine(&netlist, &lib);
        let mut hypothesis = netlist.clone();
        for &id in standing {
            engine.swap_to_lut(id);
            hypothesis.replace_gate_with_lut(id).expect("pool gates are replaceable");
        }
        for &id in probes {
            let kind = netlist.node(id).gate_kind().expect("pool gates are cells");
            let mut probed = hypothesis.clone();
            probed.replace_gate_with_lut(id).expect("pool gates are replaceable");
            engine.swap_to_lut(id);
            prop_assert_eq!(
                engine.clock_period_ns().to_bits(),
                analyze(&probed, &lib).clock_period_ns().to_bits()
            );
            engine.restore_gate(id, kind);
        }
        prop_assert_eq!(engine.to_analysis(), analyze(&hypothesis, &lib));
    }
}
