//! Pinned outcomes of the oracle-guided SAT attack on flow-hardened
//! benchmark profiles. The CDCL search is deterministic: which DIPs it
//! finds, every solver counter and the key it recovers follow from the
//! clause database and the order in which the solver visits it (literal
//! order inside clauses, watch-list order, heap tie-breaks). A change to
//! the solver or the encoder that alters one decision moves one of these
//! values.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::{sat_attack, MAX_DIPS};
use sttlock_benchgen::profiles;
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_techlib::Library;

#[test]
fn sat_attack_outcomes_are_pinned() {
    use SelectionAlgorithm::*;
    // (profile, algorithm, frames; 0 = full scan) at seed 1 →
    // (dips, [conflicts, decisions, propagations, restarts, learnt
    // clauses], recovered bitstream as `lut:mask`)
    let pins = [
        (
            ("s641", Independent, 0),
            (
                14,
                [2371, 7880, 294_788, 15, 2337],
                "N13:1 N28:9 N38:1 N58:6 N125:8",
            ),
        ),
        (
            ("s641", ParametricAware, 0),
            (17, [2357, 7936, 291_600, 17, 2320], "N31:8 N59:7fff N129:9"),
        ),
        (
            ("s820", Independent, 0),
            (
                9,
                [1031, 3179, 146_777, 7, 1015],
                "N121:0 N139:8 N222:82 N233:5 N276:0",
            ),
        ),
        (
            ("s820", ParametricAware, 0),
            (
                21,
                [986, 4495, 183_414, 6, 963],
                "N5:1 N18:1 N67:1 N76:2 N106:8 N117:8 N127:e N133:0 \
                 N152:0 N192:70 N196:8 N232:2 N249:2 N269:0",
            ),
        ),
        (
            ("s641", Independent, 4),
            (
                7,
                [1397, 11_437, 310_944, 12, 1358],
                "N13:1 N28:9 N38:1 N58:2 N125:8",
            ),
        ),
    ];
    let flow = Flow::new(Library::predictive_90nm());
    for ((name, alg, frames), want) in pins {
        let netlist = profiles::by_name(name)
            .expect("bundled profile")
            .generate(&mut StdRng::seed_from_u64(1));
        let hardened = flow.run(&netlist, alg, 1).expect("flow runs");
        let redacted = hardened.foundry_view();
        let budget = Budget::unbounded();
        let out = match frames {
            0 => sat_attack::run(&redacted, &hardened.hybrid, MAX_DIPS, &budget),
            k => sat_attack::run_sequential(&redacted, &hardened.hybrid, k, MAX_DIPS, &budget),
        }
        .expect("attack runs");
        let bits = out
            .bitstream
            .expect("the attack breaks the design")
            .iter()
            .map(|(id, table)| format!("{}:{:x}", hardened.hybrid.node_name(*id), table.bits()))
            .collect::<Vec<_>>()
            .join(" ");
        let s = out.solver_stats;
        let got = (
            out.dips,
            [
                s.conflicts,
                s.decisions,
                s.propagations,
                s.restarts,
                s.learnt_clauses,
            ],
            bits.as_str(),
        );
        assert_eq!(got, want, "{name} {alg} frames {frames}");
    }
}
