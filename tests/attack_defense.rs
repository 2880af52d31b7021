//! Attack-vs-defense integration: the executable attacks behave as the
//! paper's security analysis predicts on circuits produced by the real
//! flow.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock::attack::sat_attack::{self, SatAttackConfig};
use sttlock::attack::sensitization::{self, SensitizationConfig};
use sttlock::benchgen::Profile;
use sttlock::core::{Flow, SelectionAlgorithm};
use sttlock::techlib::Library;
use sttlock_exec::Budget;

fn locked(
    alg: SelectionAlgorithm,
    seed: u64,
) -> (sttlock::netlist::Netlist, sttlock::netlist::Netlist) {
    let profile = Profile::custom("ad", 160, 8, 9, 7);
    let netlist = profile.generate(&mut StdRng::seed_from_u64(3));
    let flow = Flow::new(Library::predictive_90nm());
    let out = flow.run(&netlist, alg, seed).expect("flow runs");
    (out.foundry_view(), out.hybrid)
}

#[test]
fn sensitization_breaks_independent_but_not_dependent() {
    let cfg = SensitizationConfig {
        patterns_per_gate: 128,
        sat_justification: true,
        ..SensitizationConfig::default()
    };

    let (redacted, oracle) = locked(SelectionAlgorithm::Independent, 42);
    let mut rng = StdRng::seed_from_u64(1);
    let indep = sensitization::run(&redacted, &oracle, &cfg, &mut rng).expect("attack runs");
    assert!(
        indep.resolution_ratio() > 0.9,
        "independent selection should fall: {:.2}",
        indep.resolution_ratio()
    );

    let (redacted, oracle) = locked(SelectionAlgorithm::Dependent, 42);
    let mut rng = StdRng::seed_from_u64(1);
    let dep = sensitization::run(&redacted, &oracle, &cfg, &mut rng).expect("attack runs");
    assert!(
        dep.resolution_ratio() < indep.resolution_ratio(),
        "dependent ({:.2}) must resist better than independent ({:.2})",
        dep.resolution_ratio(),
        indep.resolution_ratio()
    );
}

#[test]
fn recovered_bitstreams_reproduce_the_oracle() {
    let (redacted, oracle) = locked(SelectionAlgorithm::Independent, 7);
    let cfg = SensitizationConfig {
        patterns_per_gate: 128,
        sat_justification: true,
        ..SensitizationConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(2);
    let out = sensitization::run(&redacted, &oracle, &cfg, &mut rng).expect("attack runs");
    if out.is_full_break() {
        let mut rng = StdRng::seed_from_u64(3);
        let mismatches =
            sat_attack::verify_bitstream(&redacted, &oracle, &out.bitstream(), 64, &mut rng)
                .expect("verification runs");
        assert_eq!(mismatches, 0, "sensitization bitstream must be exact");
    }
}

#[test]
fn sat_attack_recovers_any_selection_with_scan_access() {
    for alg in SelectionAlgorithm::ALL {
        let (redacted, oracle) = locked(alg, 11);
        let cfg = SatAttackConfig::default();
        let out =
            sat_attack::run(&redacted, &oracle, &cfg, &Budget::unbounded()).expect("attack runs");
        assert!(out.succeeded(), "{alg}: SAT attack with scan must succeed");
        let bits = out.bitstream.expect("succeeded");
        let mut rng = StdRng::seed_from_u64(5);
        let mismatches = sat_attack::verify_bitstream(&redacted, &oracle, &bits, 64, &mut rng)
            .expect("verification runs");
        assert_eq!(
            mismatches, 0,
            "{alg}: recovered keys must be functionally exact"
        );
    }
}

#[test]
fn sat_attack_effort_grows_with_dependent_selection() {
    let (ri, oi) = locked(SelectionAlgorithm::Independent, 13);
    let (rd, od) = locked(SelectionAlgorithm::Dependent, 13);
    let cfg = SatAttackConfig::default();
    let indep = sat_attack::run(&ri, &oi, &cfg, &Budget::unbounded()).unwrap();
    let dep = sat_attack::run(&rd, &od, &cfg, &Budget::unbounded()).unwrap();
    assert!(
        dep.solver_stats.conflicts > indep.solver_stats.conflicts,
        "dependent ({} conflicts) should cost more than independent ({})",
        dep.solver_stats.conflicts,
        indep.solver_stats.conflicts
    );
}

#[test]
fn estimates_track_the_lut_count() {
    let profile = Profile::custom("est", 160, 8, 9, 7);
    let netlist = profile.generate(&mut StdRng::seed_from_u64(3));
    let mut flow = Flow::new(Library::predictive_90nm());
    let mut last = None;
    for budget in [2usize, 8, 32] {
        flow.selection.independent_gates = budget;
        let out = flow
            .run(&netlist, SelectionAlgorithm::Independent, 1)
            .expect("flow runs");
        let n = out.report.security.n_indep.log10();
        if let Some(prev) = last {
            assert!(n > prev, "more missing gates must cost the attacker more");
        }
        last = Some(n);
    }
}
