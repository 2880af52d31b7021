//! Acceptance and property tests for the fault-injection and
//! verify-and-repair layer:
//!
//! * a p=0 fault model is a true no-op — bit-identical netlist,
//!   bitstream and simulation outputs;
//! * an unfaulted device verifies clean with zero retries and zero
//!   channel writes;
//! * every single-LUT-row fault on a bundled ISCAS benchmark recovers
//!   within the default retry budget.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_benchgen::{profiles, Profile};
use sttlock_core::{verify_and_repair, Flow, RepairConfig, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_fault::{FaultInjector, FaultModel, PerfectChannel};
use sttlock_netlist::{Netlist, TruthTable};
use sttlock_sim::Simulator;
use sttlock_techlib::Library;

fn equivalent(a: &Netlist, b: &Netlist, seed: u64) -> bool {
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Injecting with every probability at zero must leave the device
    /// bit-identical to the un-faulted hybrid: no recorded faults, no
    /// overlay edits, the same bitstream, and the same simulation
    /// outputs on random vectors.
    #[test]
    fn p0_injection_is_bit_identical(
        circuit_seed in 0u64..1000,
        flow_seed in 0u64..1000,
        alg in arb_algorithm(),
    ) {
        let profile = Profile::custom("prop", 140, 7, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow.run(&netlist, alg, flow_seed).expect("flow runs");

        let mut device = out.overlay.clone();
        let mut injector = FaultInjector::new(FaultModel::write_failures(0.0), circuit_seed);
        prop_assert!(injector.model().is_noop());
        let injected = injector.corrupt(&mut device);
        prop_assert!(injected.is_empty());
        prop_assert_eq!(device.bitstream(), out.bitstream.clone());
        prop_assert_eq!(device.materialize(), out.hybrid.clone());
        prop_assert!(equivalent(&out.hybrid, &device.materialize(), flow_seed));
    }

    /// A device that came out of fabrication clean must verify as
    /// recovered without a single retry or channel write — the repair
    /// loop never "fixes" a healthy part.
    #[test]
    fn unfaulted_device_recovers_with_zero_retries(
        circuit_seed in 0u64..1000,
        flow_seed in 0u64..1000,
        alg in arb_algorithm(),
    ) {
        let profile = Profile::custom("prop", 140, 7, 7, 5);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(circuit_seed));
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow.run(&netlist, alg, flow_seed).expect("flow runs");

        let mut device = out.overlay.clone();
        let report = verify_and_repair(
            &netlist,
            &mut device,
            &out.bitstream,
            &mut PerfectChannel,
            &RepairConfig::default(),
            flow_seed,
            &Budget::unbounded(),
        )
        .expect("verification runs");
        prop_assert!(report.is_recovered());
        prop_assert_eq!(report.retries, 0);
        prop_assert_eq!(report.reprogram_attempts, 0);
        prop_assert_eq!(report.initial_mismatches, 0);
        prop_assert!(report.repaired_luts.is_empty());
        prop_assert!(report.failed_luts.is_empty());
    }
}

/// Acceptance criterion: with a perfect re-programming channel, every
/// single-LUT-row fault on a bundled ISCAS benchmark recovers within
/// the default retry budget. Each bitstream LUT gets one flipped row
/// (rotating through the rows so every row position is exercised), and
/// the first LUT additionally gets every one of its rows flipped.
#[test]
fn single_lut_row_faults_on_s641_always_recover() {
    let profile = profiles::by_name("s641").expect("bundled profile");
    let netlist = profile.generate(&mut StdRng::seed_from_u64(641));
    let flow = Flow::new(Library::predictive_90nm());
    let out = flow
        .run(&netlist, SelectionAlgorithm::ParametricAware, 641)
        .expect("flow runs");
    assert!(!out.bitstream.is_empty(), "selection produced LUTs");

    let mut cases: Vec<(usize, usize)> = out
        .bitstream
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (i, i % t.rows()))
        .collect();
    let first_rows = out.bitstream[0].1.rows();
    cases.extend((0..first_rows).map(|row| (0, row)));

    for (lut, row) in cases {
        let (id, intended) = out.bitstream[lut];
        let mut device = out.overlay.clone();
        device.set_lut_config(
            id,
            TruthTable::new(intended.inputs(), intended.bits() ^ (1 << row)),
        );
        let cfg = RepairConfig::default();
        let report = verify_and_repair(
            &netlist,
            &mut device,
            &out.bitstream,
            &mut PerfectChannel,
            &cfg,
            (lut as u64) << 8 | row as u64,
            &Budget::unbounded(),
        )
        .expect("verification runs");
        assert!(
            report.is_recovered(),
            "LUT #{lut} row {row}: verdict {} after {} retries",
            report.verdict,
            report.retries
        );
        assert!(report.retries <= cfg.max_retries as u64);
        assert!(report.failed_luts.is_empty());
    }
}
