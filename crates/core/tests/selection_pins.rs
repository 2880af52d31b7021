//! Pinned outputs of the three steps a cold campaign cell runs before
//! its flow result exists: circuit generation, I/O path sampling and
//! the incremental timing waves of parametric selection. Each step is
//! deterministic for a seed — which random draws it makes, in which
//! order, and which nodes it visits — so a rewrite of one of them that
//! changes one draw or one visit moves one of these values.
//!
//! The timing-wave counts are read from the process-global trace
//! collector, so they live in this binary of their own; the other tests
//! here run no timing engine and add nothing to the `sta.*` counters.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use sttlock_benchgen::{profiles, Profile};
use sttlock_core::select::{self, candidate_paths, SelectionConfig};
use sttlock_exec::{fnv1a, Budget, KeyBuilder, FNV_OFFSET_BASIS};
use sttlock_netlist::bench_format;
use sttlock_netlist::paths::IoPath;
use sttlock_netlist::CircuitView;
use sttlock_obs::TraceCollector;
use sttlock_sta::analyze_with;
use sttlock_techlib::Library;

/// The seed the campaign generates `name` with at grid seed `seed`.
fn circuit_seed(seed: u64, name: &str) -> u64 {
    seed ^ fnv1a(FNV_OFFSET_BASIS, name.as_bytes())
}

/// Digest of every path's nodes and depth, in order.
fn paths_key(paths: &[IoPath]) -> String {
    paths
        .iter()
        .fold(KeyBuilder::new(0), |k, p| {
            let k = k.chunk(&(p.ff_count as u64).to_le_bytes());
            p.nodes
                .iter()
                .fold(k, |k, id| k.chunk(&(id.index() as u32).to_le_bytes()))
                .chunk(b";")
        })
        .finish()
        .hex()
}

#[test]
fn generated_circuits_are_pinned() {
    // The twelve paper profiles, then degenerate shapes: a tiny pool,
    // no flip-flops, and more outputs than unread gates (the outputs
    // fall back to the newest gates).
    let custom = [
        Profile::custom("tiny", 10, 2, 2, 2),
        Profile::custom("comb", 33, 0, 3, 20),
        Profile::custom("wide", 40, 1, 3, 39),
    ];
    let key = profiles::ALL
        .iter()
        .chain(&custom)
        .fold(KeyBuilder::new(0), |k, p| {
            let n = p.generate(&mut StdRng::seed_from_u64(42));
            k.text(&bench_format::write(&n))
        })
        .finish()
        .hex();
    assert_eq!(key, "00751ccdaa3874a23b2cfab656cc4aa2");
}

#[test]
fn sampled_paths_are_pinned() {
    // (profile, paths kept, digest of the paths, the RNG's next draw)
    // of the Section IV sampler at grid seed 42. On s820 every path of
    // the first three rounds touches the critical path, so all four
    // escalation rounds run (259 paths need more seeds than the third
    // round's 256).
    let lib = Library::predictive_90nm();
    for (name, want) in [
        (
            "s820",
            (
                259,
                "a1be0f9a6186bfff1c66f4a075269441",
                0xc643_bb91_7ca3_ec50,
            ),
        ),
        (
            "s38584",
            (7, "ac9173ea2719cfcb54d44e7eaecee446", 0xfcdc_2b7f_d50d_d459),
        ),
    ] {
        let netlist = profiles::by_name(name)
            .expect("bundled profile")
            .generate(&mut StdRng::seed_from_u64(circuit_seed(42, name)));
        let view = CircuitView::new(&netlist);
        let timing = analyze_with(&view, &lib);
        let mut rng = StdRng::seed_from_u64(42);
        let paths = candidate_paths(&view, &timing, &SelectionConfig::default(), &mut rng);
        assert_eq!(
            (paths.len(), paths_key(&paths).as_str(), rng.next_u64()),
            want,
            "{name}"
        );
    }
}

#[test]
fn parametric_timing_waves_are_pinned() {
    // (profile, gates selected, [invalidations, node re-evaluations,
    // early terminations]) of parametric selection at grid seed 42: a
    // wave that visits one node more or less, or stops one branch
    // earlier or later, moves a count.
    let lib = Library::predictive_90nm();
    for (name, want) in [
        ("s9234a", (132, [216, 153_790, 1038])),
        ("s38584", (354, [504, 873_117, 4767])),
    ] {
        let netlist = profiles::by_name(name)
            .expect("bundled profile")
            .generate(&mut StdRng::seed_from_u64(circuit_seed(42, name)));
        let view = CircuitView::new(&netlist);
        let timing = analyze_with(&view, &lib);
        let trace = TraceCollector::new();
        sttlock_obs::install(trace.clone());
        let selection = select::parametric(
            &view,
            &lib,
            &timing,
            &SelectionConfig::default(),
            &mut StdRng::seed_from_u64(42),
            &Budget::unbounded(),
        )
        .expect("an unbounded budget never trips");
        sttlock_obs::uninstall();
        let counts = [
            "sta.invalidations",
            "sta.node_reevals",
            "sta.early_terminations",
        ]
        .map(|name| trace.counter_value(name));
        assert_eq!((selection.gates.len(), counts), want, "{name}");
    }
}
