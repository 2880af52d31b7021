//! Property-based tests of the flow's central invariants on random
//! circuits and seeds:
//!
//! * replacement never changes the design's function;
//! * the redaction boundary is lossless (program ∘ redact = identity);
//! * parametric-aware selection respects its timing budget;
//! * hardening preserves function while never shrinking LUT fan-in.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_benchgen::Profile;
use sttlock_core::harden::{harden, HardenConfig};
use sttlock_core::select::{self, SelectionConfig};
use sttlock_core::{replace, Flow, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_netlist::CircuitView;
use sttlock_sim::Simulator;
use sttlock_sta::analyze_with;
use sttlock_techlib::Library;

fn equivalent(a: &sttlock_netlist::Netlist, b: &sttlock_netlist::Netlist, seed: u64) -> bool {
    let mut sa = Simulator::new(a).expect("a simulates");
    let mut sb = Simulator::new(b).expect("b simulates");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..48).all(|_| {
        let p: Vec<u64> = (0..a.inputs().len()).map(|_| rng.gen()).collect();
        sa.step(&p).unwrap() == sb.step(&p).unwrap()
    })
}

fn arb_algorithm() -> impl Strategy<Value = SelectionAlgorithm> {
    prop::sample::select(vec![
        SelectionAlgorithm::Independent,
        SelectionAlgorithm::Dependent,
        SelectionAlgorithm::ParametricAware,
    ])
}

proptest! {
    // The flow is expensive; a modest case count still sweeps a wide
    // space of (circuit seed, flow seed, algorithm) combinations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flow_preserves_function(
        circuit_seed in 0u64..1000,
        flow_seed in 0u64..1000,
        alg in arb_algorithm(),
    ) {
        let profile = Profile::custom("prop", 140, 7, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow.run(&netlist, alg, flow_seed).expect("flow runs");
        prop_assert!(equivalent(&netlist, &out.hybrid, circuit_seed ^ flow_seed));
        // Redaction boundary: lossless round trip.
        let (foundry, secret) = out.hybrid.redact();
        prop_assert_eq!(secret.len(), out.report.stt_count);
        let mut reprogrammed = foundry;
        reprogrammed.program(&secret);
        prop_assert_eq!(reprogrammed, out.hybrid);
    }

    #[test]
    fn parametric_respects_any_budget(
        circuit_seed in 0u64..1000,
        budget_tenths in 0u64..80,
    ) {
        let budget = budget_tenths as f64 / 10.0;
        let profile = Profile::custom("prop", 160, 8, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let mut flow = Flow::new(Library::predictive_90nm());
        flow.selection.timing_budget_pct = budget;
        match flow.run(&netlist, SelectionAlgorithm::ParametricAware, 3) {
            Ok(out) => prop_assert!(
                out.report.performance_degradation_pct <= budget + 1e-6,
                "{}% exceeds budget {budget}%",
                out.report.performance_degradation_pct
            ),
            // A zero budget can make every draw fail — that is a legal
            // outcome, not a violation.
            Err(sttlock_core::FlowError::NothingSelected) => {}
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }

    #[test]
    fn hardening_preserves_function_and_widens(
        circuit_seed in 0u64..1000,
        harden_seed in 0u64..1000,
    ) {
        let profile = Profile::custom("prop", 120, 6, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&netlist, SelectionAlgorithm::Independent, 1)
            .expect("flow runs");
        let before: usize = out
            .hybrid
            .node_ids()
            .filter(|&id| out.hybrid.node(id).is_lut())
            .map(|id| out.hybrid.node(id).fanin().len())
            .sum();
        let mut hardened = out.hybrid.clone();
        let mut rng = StdRng::seed_from_u64(harden_seed);
        harden(&mut hardened, &HardenConfig::default(), &mut rng).unwrap();
        let after: usize = hardened
            .node_ids()
            .filter(|&id| hardened.node(id).is_lut())
            .map(|id| hardened.node(id).fanin().len())
            .sum();
        prop_assert!(after >= before, "hardening must not narrow LUTs");
        prop_assert!(equivalent(&netlist, &hardened, harden_seed));
    }

    /// The copy-on-write replacement path must agree bit-for-bit with
    /// the legacy clone-and-mutate `replace::apply` on every field —
    /// hybrid netlist, bitstream contents *and order*, and the order of
    /// skipped nodes — under random selections from every algorithm.
    #[test]
    fn overlay_replacement_matches_legacy_apply(
        circuit_seed in 0u64..1000,
        select_seed in 0u64..1000,
        alg in arb_algorithm(),
    ) {
        let profile = Profile::custom("prop", 150, 7, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let lib = Library::predictive_90nm();
        let view = CircuitView::new(&netlist);
        let timing = analyze_with(&view, &lib);
        let selection = select::run(
            &view,
            &lib,
            alg,
            &SelectionConfig::default(),
            &mut StdRng::seed_from_u64(select_seed),
            &timing,
            &Budget::unbounded(),
        )
        .expect("an unbounded budget never trips");

        let legacy = replace::apply(&netlist, &selection);
        let cow = replace::apply_overlay(Arc::new(netlist.clone()), &selection);
        prop_assert_eq!(&cow.bitstream, &legacy.bitstream);
        prop_assert_eq!(&cow.skipped, &legacy.skipped);
        prop_assert_eq!(cow.overlay.materialize(), legacy.hybrid.clone());
        prop_assert_eq!(cow.into_replacement(), legacy);
    }
}
