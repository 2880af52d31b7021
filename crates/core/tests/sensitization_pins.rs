//! Pinned outcomes of the sensitization attack on flow-hardened
//! benchmark profiles. Which patterns the attack keeps, and so how many
//! test clocks and SAT queries it spends, depends on every X the
//! three-valued simulator produces: a change in X propagation moves one
//! of these numbers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::sensitization::{self, SensitizationConfig};
use sttlock_benchgen::profiles;
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_techlib::Library;

#[test]
fn sensitization_outcomes_are_pinned() {
    use SelectionAlgorithm::*;
    // (profile, algorithm) at seed 1 →
    // (missing gates, test clocks, SAT queries, full break, resolved rows)
    let pins = [
        ("s641", Independent, (5, 1216, 0, true, 18)),
        ("s641", Dependent, (18, 169_792, 72, false, 54)),
        ("s641", ParametricAware, (3, 384, 0, true, 24)),
        ("s820", Independent, (5, 115_584, 43, true, 11)),
        ("s953", Independent, (5, 49_408, 4, true, 19)),
        ("s1196", ParametricAware, (4, 16_640, 4, true, 10)),
    ];
    let flow = Flow::new(Library::predictive_90nm());
    for (name, alg, want) in pins {
        let netlist = profiles::by_name(name)
            .expect("bundled profile")
            .generate(&mut StdRng::seed_from_u64(1));
        let hardened = flow.run(&netlist, alg, 1).expect("flow runs");
        let out = sensitization::run(
            &hardened.foundry_view(),
            &hardened.hybrid,
            &SensitizationConfig::default(),
            &Budget::unbounded(),
            &mut StdRng::seed_from_u64(1),
        )
        .expect("attack runs");
        let rows: usize = out.gates.values().map(|g| g.resolved_count()).sum();
        let got = (
            out.gates.len(),
            out.test_clocks,
            out.sat_queries,
            out.is_full_break(),
            rows,
        );
        assert_eq!(got, want, "{name} {alg}");
    }
}
