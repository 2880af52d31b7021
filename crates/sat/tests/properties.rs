//! Property-based tests for the CDCL solver and the netlist encoder:
//! models verify against their clauses, UNSAT agrees with exhaustive
//! checking on small formulas, and the Tseitin encoding agrees with the
//! bit-parallel simulator on whole random circuits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_benchgen::Profile;
use sttlock_sat::encode::encode;
use sttlock_sat::{Lit, SatResult, Solver, Var};
use sttlock_sim::Simulator;

/// Random small CNF: up to 12 variables, up to 40 3-ish-literal clauses.
fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (3usize..12).prop_flat_map(|nvars| {
        let clause = prop::collection::vec((0..nvars, prop::bool::ANY), 1..4);
        (Just(nvars), prop::collection::vec(clause, 1..40))
    })
}

fn build(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> (Solver, Vec<Vec<Lit>>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
    let mut lits_clauses = Vec::new();
    for c in clauses {
        let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        s.add_clause(&lits);
        lits_clauses.push(lits);
    }
    (s, lits_clauses)
}

fn brute_force_sat(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    'outer: for assignment in 0..(1u64 << nvars) {
        for c in clauses {
            let ok = c.iter().any(|&(v, neg)| {
                let value = (assignment >> v) & 1 == 1;
                value != neg
            });
            if !ok {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_agrees_with_brute_force((nvars, clauses) in arb_cnf()) {
        let (mut s, lits_clauses) = build(nvars, &clauses);
        let expected = brute_force_sat(nvars, &clauses);
        match s.solve() {
            SatResult::Sat => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                for c in &lits_clauses {
                    prop_assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(!l.is_neg())),
                        "model violates a clause"
                    );
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
        }
    }

    #[test]
    fn assumptions_restrict_but_do_not_destroy((nvars, clauses) in arb_cnf()) {
        let (mut s, _) = build(nvars, &clauses);
        let base = s.solve();
        // Assume the first variable both ways; at least one must agree
        // with the unconstrained result when satisfiable.
        let v = Var::from_index(0);
        let pos = s.solve_with(&[Lit::pos(v)]);
        let neg = s.solve_with(&[Lit::neg(v)]);
        if base == SatResult::Sat {
            prop_assert!(pos == SatResult::Sat || neg == SatResult::Sat);
        } else {
            prop_assert_eq!(pos, SatResult::Unsat);
            prop_assert_eq!(neg, SatResult::Unsat);
        }
        // The solver is still reusable afterwards.
        prop_assert_eq!(s.solve(), base);
    }
}

/// The encoder agrees with the simulator on whole circuits: for random
/// frames, assuming the frame's inputs/state in the CNF forces exactly
/// the simulated observation.
#[test]
fn encoding_matches_simulation_on_random_circuits() {
    for seed in 0..6u64 {
        let profile = Profile::custom("enc", 60 + 10 * seed as usize, 4, 5, 4);
        let netlist = profile.generate(&mut StdRng::seed_from_u64(seed));
        let mut solver = Solver::new();
        let enc = encode(&netlist, &mut solver);
        let mut sim = Simulator::new(&netlist).expect("programmed netlist");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..8 {
            let inputs: Vec<u64> = (0..netlist.inputs().len())
                .map(|_| rng.gen::<bool>() as u64 * u64::MAX)
                .collect();
            let state: Vec<u64> = (0..sim.dff_ids().len())
                .map(|_| rng.gen::<bool>() as u64 * u64::MAX)
                .collect();
            sim.eval_frame(&inputs, &state).expect("frame evaluates");
            let obs = sim.observation();

            let mut assumptions: Vec<Lit> = Vec::new();
            for (&v, &w) in enc.inputs.iter().zip(&inputs) {
                assumptions.push(Lit::new(v, w == 0));
            }
            for ((_, v), &w) in enc.state_inputs.iter().zip(&state) {
                assumptions.push(Lit::new(*v, w == 0));
            }
            assert_eq!(solver.solve_with(&assumptions), SatResult::Sat);
            let mut obs_vars: Vec<Var> = enc.outputs.clone();
            obs_vars.extend(enc.next_state.iter().map(|(_, v)| *v));
            for (&v, &w) in obs_vars.iter().zip(&obs) {
                assert_eq!(
                    solver.value(v),
                    Some(w != 0),
                    "seed {seed}: CNF and simulator disagree on an observation"
                );
            }
        }
    }
}
