//! The oracle-guided SAT attack on redacted LUT configurations.
//!
//! This is the executable counterpart of the decamouflaging /
//! machine-learning attack the paper cites as \[11\] (El Massad et al.):
//! iteratively find *distinguishing input patterns* (DIPs) — inputs on
//! which two key hypotheses disagree — query the oracle, and constrain
//! the key space until all remaining keys are functionally equivalent.
//!
//! The attack runs on the full-scan, single-frame model (state bits are
//! inputs, next-state bits are outputs). The paper's defense disables
//! scan access in fielded parts precisely because this attack is so
//! effective when scan is open; the `attack_resilience` example shows
//! the growth of [`SatAttackOutcome::dips`] and solver conflicts as the
//! selection algorithms strengthen, and the benchmark's attack-sweep
//! workload reports both per attack (`sat.dips_per_attack`,
//! `sat.conflicts_per_attack`).

use sttlock_exec::Budget;
use sttlock_netlist::{Netlist, NodeId, TruthTable};
use sttlock_sat::encode::{
    assert_some_difference_gated, encode, equal, miter_pairs, tie_keys, Encoding,
};
use sttlock_sat::unroll::encode_unrolled;
use sttlock_sat::{Lit, SatResult, Solver, SolverStats, Var};
use sttlock_sim::{SimError, Simulator};

use crate::dispatch::AttackOutcome;
use crate::error::AttackError;

/// Outcome of a SAT attack, full scan or no scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatAttackOutcome {
    /// Recovered configuration per missing gate, functionally equivalent
    /// to the oracle on the single-frame model (full scan) or for all
    /// input sequences up to `frames` cycles (no scan). `None` if the
    /// attack hit its DIP limit.
    pub bitstream: Option<Vec<(NodeId, TruthTable)>>,
    /// Distinguishing input patterns (full scan) or sequences (no scan)
    /// required.
    pub dips: usize,
    /// The unroll bound the result is valid for; 0 for full scan.
    pub frames: usize,
    /// Solver counters at the end of the attack.
    pub solver_stats: SolverStats,
}

impl SatAttackOutcome {
    /// Whether the key space was reduced to one functional class.
    pub fn succeeded(&self) -> bool {
        self.bitstream.is_some()
    }
}

/// Runs the oracle-guided SAT attack.
///
/// `redacted` is the foundry view; `oracle` the programmed twin. The
/// attack stops after `max_dips` DIP iterations (0 = unlimited) with no
/// bitstream. `budget` is checked at the top of every DIP iteration.
///
/// # Errors
///
/// * [`AttackError::Budget`] if `budget` trips, with the DIPs found so
///   far in the partial outcome.
/// * [`AttackError::Sim`] if the oracle is unprogrammed or structurally
///   incompatible.
/// * [`AttackError::DesignMismatch`] if `redacted` and `oracle` are not
///   the same design (these used to be `assert_eq!` process aborts).
/// * [`AttackError::OracleContradiction`] /
///   [`AttackError::Unsatisfiable`] if an oracle response contradicts
///   the key constraints — impossible for a genuine programmed twin,
///   and formerly an `assert!` abort; batch drivers record it as a
///   failed cell instead.
pub fn run(
    redacted: &Netlist,
    oracle: &Netlist,
    max_dips: usize,
    budget: &Budget,
) -> Result<SatAttackOutcome, AttackError> {
    AttackError::check_same_design(redacted, oracle)?;
    let mut oracle_sim = Simulator::new(oracle)?;

    let encode_span = sttlock_obs::span!("sat_attack.encode");
    let mut solver = Solver::new();
    let e1 = encode(redacted, &mut solver);
    let e2 = encode(redacted, &mut solver);
    // Two key hypotheses over the same circuit: inputs and state shared,
    // keys independent, some observable output must differ.
    let pairs = miter_pairs(&mut solver, &e1, &e2);
    let miter_active = assert_some_difference_gated(&mut solver, &pairs);
    drop(encode_span);

    let learn = |solver: &mut Solver| {
        // Extract the DIP (inputs + state) from the model.
        let inputs: Vec<u64> = e1
            .inputs
            .iter()
            .map(|&v| full_word(solver.value(v)))
            .collect();
        let state: Vec<u64> = e1
            .state_inputs
            .iter()
            .map(|(_, v)| full_word(solver.value(*v)))
            .collect();
        let response = {
            let _s = sttlock_obs::span!("sat_attack.oracle");
            oracle_sim.eval_frame(&inputs, &state)?;
            oracle_sim.observation()
        };
        // Both key hypotheses must now agree with the oracle on this
        // frame: constrain each copy with a fresh encoding whose keys
        // are tied to that copy.
        let _s = sttlock_obs::span!("sat_attack.encode");
        for enc in [&e1, &e2] {
            if !add_io_constraint(solver, redacted, enc, &inputs, &state, &response) {
                return Err(AttackError::OracleContradiction);
            }
        }
        Ok(())
    };
    dip_loop(solver, miter_active, &e1, 0, max_dips, budget, learn)
}

/// The **no-scan** variant of the SAT attack: the scan chain is locked
/// (the paper's deployment posture), so the oracle can only be driven
/// with primary-input sequences from reset and observed at its primary
/// outputs. Key reasoning spans `frames` unrolled cycles.
///
/// Compared with [`run`], the search space per query is `2^(I·k)` input
/// sequences instead of `2^(I+S)` frames and each CNF is `k` copies of
/// the circuit per miter side — the concrete cost of losing scan access,
/// and the correctness is only *bounded* (sequences longer than the
/// unroll may still distinguish keys). Both effects are what the paper
/// counts on when it instructs designers to disable scan.
///
/// `max_dips` and `budget` bound the DIP loop as in [`run`].
///
/// # Errors
///
/// * [`AttackError::Budget`] if `budget` trips, with the DIP sequences
///   found so far in the partial outcome.
/// * [`AttackError::Sim`] if the oracle is unprogrammed or incompatible.
/// * [`AttackError::DesignMismatch`] / [`AttackError::ZeroFrames`] on a
///   mismatched netlist pair or a zero unroll bound (formerly panics).
/// * [`AttackError::OracleContradiction`] /
///   [`AttackError::Unsatisfiable`] if the oracle contradicts the key
///   constraints (formerly an `assert!` abort).
pub fn run_sequential(
    redacted: &Netlist,
    oracle: &Netlist,
    frames: usize,
    max_dips: usize,
    budget: &Budget,
) -> Result<SatAttackOutcome, AttackError> {
    AttackError::check_same_design(redacted, oracle)?;
    if frames == 0 {
        return Err(AttackError::ZeroFrames);
    }
    let mut oracle_sim = Simulator::new(oracle)?;

    let encode_span = sttlock_obs::span!("sat_attack.encode");
    let mut solver = Solver::new();
    let u1 = encode_unrolled(redacted, &mut solver, frames);
    let u2 = encode_unrolled(redacted, &mut solver, frames);
    // Shared input sequence, independent keys, some output at some frame
    // must differ.
    let mut pairs: Vec<(Var, Var)> = Vec::new();
    for f in 0..frames {
        for (&a, &b) in u1.inputs[f].iter().zip(&u2.inputs[f]) {
            equal(&mut solver, a, b);
        }
        pairs.extend(
            u1.outputs[f]
                .iter()
                .copied()
                .zip(u2.outputs[f].iter().copied()),
        );
    }
    // Keys of the two unrolled copies are internally shared per copy;
    // between copies they stay free.
    let miter_active = assert_some_difference_gated(&mut solver, &pairs);
    drop(encode_span);

    let learn = |solver: &mut Solver| {
        // Extract the distinguishing input sequence.
        let sequence: Vec<Vec<u64>> = (0..frames)
            .map(|f| {
                u1.inputs[f]
                    .iter()
                    .map(|&v| full_word(solver.value(v)))
                    .collect()
            })
            .collect();
        // Oracle responses from reset.
        let responses = {
            let _s = sttlock_obs::span!("sat_attack.oracle");
            oracle_sim.run(&sequence)?
        };
        // Constrain both copies to reproduce the oracle on this
        // sequence: one fresh unrolled copy per key side.
        let _s = sttlock_obs::span!("sat_attack.encode");
        for base in [&u1, &u2] {
            let copy = encode_unrolled(redacted, solver, frames);
            tie_keys(solver, &base.frames[0], &copy.frames[0]);
            let mut ok = true;
            for f in 0..frames {
                for (&v, &w) in copy.inputs[f].iter().zip(&sequence[f]) {
                    ok &= solver.add_clause(&[Lit::new(v, w & 1 == 0)]);
                }
                for (&v, &w) in copy.outputs[f].iter().zip(&responses[f]) {
                    ok &= solver.add_clause(&[Lit::new(v, w & 1 == 0)]);
                }
            }
            if !ok {
                return Err(AttackError::OracleContradiction);
            }
        }
        Ok(())
    };
    dip_loop(
        solver,
        miter_active,
        &u1.frames[0],
        frames,
        max_dips,
        budget,
        learn,
    )
}

/// The DIP loop both SAT attacks share. Each iteration checks `budget`,
/// then the DIP limit, then solves the miter under `miter_active`; a
/// model is a DIP, and `learn` queries the oracle on it and adds the
/// constraints that make both key hypotheses agree with the response.
/// Once the miter is unsatisfiable, one more solve without it extracts a
/// key from `keys`.
///
/// However the attack ends, its DIPs and solver counters go to the
/// `sat.dips`, `sat.conflicts`, `sat.decisions` and `sat.propagations`
/// trace counters once; each solve runs under a `sat_attack.solve` span.
fn dip_loop(
    mut solver: Solver,
    miter_active: Lit,
    keys: &Encoding,
    frames: usize,
    max_dips: usize,
    budget: &Budget,
    learn: impl FnMut(&mut Solver) -> Result<(), AttackError>,
) -> Result<SatAttackOutcome, AttackError> {
    let mut out = SatAttackOutcome {
        bitstream: None,
        dips: 0,
        frames,
        solver_stats: SolverStats::default(),
    };
    let found = find_key(
        &mut solver,
        miter_active,
        keys,
        &mut out,
        max_dips,
        budget,
        learn,
    );
    out.solver_stats = solver.stats();
    sttlock_obs::counter("sat.dips", out.dips as u64);
    sttlock_obs::counter("sat.conflicts", out.solver_stats.conflicts);
    sttlock_obs::counter("sat.decisions", out.solver_stats.decisions);
    sttlock_obs::counter("sat.propagations", out.solver_stats.propagations);
    out.bitstream = found?;
    Ok(out)
}

/// [`dip_loop`]'s search, counting DIPs in `out`: the recovered key, or
/// `None` at the DIP limit.
fn find_key(
    solver: &mut Solver,
    miter_active: Lit,
    keys: &Encoding,
    out: &mut SatAttackOutcome,
    max_dips: usize,
    budget: &Budget,
    mut learn: impl FnMut(&mut Solver) -> Result<(), AttackError>,
) -> Result<Option<Vec<(NodeId, TruthTable)>>, AttackError> {
    loop {
        if let Err(reason) = budget.check() {
            let partial = SatAttackOutcome {
                solver_stats: solver.stats(),
                ..out.clone()
            };
            return Err(AttackError::Budget {
                reason,
                partial: Box::new(AttackOutcome::Sat(partial)),
            });
        }
        if max_dips != 0 && out.dips >= max_dips {
            return Ok(None);
        }
        let found = {
            let _s = sttlock_obs::span!("sat_attack.solve");
            solver.solve_with(&[miter_active])
        };
        match found {
            SatResult::Unsat => break,
            SatResult::Sat => {
                out.dips += 1;
                learn(solver)?;
            }
        }
    }

    // Key space collapsed: any remaining key is functionally correct.
    // Solve without the miter to extract one.
    let _s = sttlock_obs::span!("sat_attack.solve");
    if solver.solve() != SatResult::Sat {
        return Err(AttackError::Unsatisfiable);
    }
    Ok(Some(keys.decode_keys(solver)))
}

/// Verifies a recovered bitstream against the oracle by random
/// single-frame simulation. Returns the number of mismatching frames.
///
/// # Errors
///
/// Returns [`SimError`] on structural mismatches.
pub fn verify_bitstream<R: rand::Rng + ?Sized>(
    redacted: &Netlist,
    oracle: &Netlist,
    bitstream: &[(NodeId, TruthTable)],
    frames: usize,
    rng: &mut R,
) -> Result<usize, SimError> {
    let mut rebuilt = redacted.clone();
    rebuilt.program(bitstream);
    let mut a = Simulator::new(&rebuilt)?;
    let mut b = Simulator::new(oracle)?;
    let n_in = redacted.inputs().len();
    let n_state = a.dff_ids().len();
    let mut mismatches = 0usize;
    for _ in 0..frames {
        let inputs: Vec<u64> = (0..n_in).map(|_| rng.gen()).collect();
        let state: Vec<u64> = (0..n_state).map(|_| rng.gen()).collect();
        a.eval_frame(&inputs, &state)?;
        b.eval_frame(&inputs, &state)?;
        let oa = a.observation();
        let ob = b.observation();
        for (x, y) in oa.iter().zip(&ob) {
            mismatches += (x ^ y).count_ones() as usize;
        }
    }
    Ok(mismatches)
}

/// Widens one model bit to the simulator's 64-bit word.
///
/// `None` means the SAT model left the variable unconstrained. The CDCL
/// solver only answers [`SatResult::Sat`] once *every* variable is
/// assigned (see `sat_models_are_total` in `sttlock-sat`), so for
/// freshly solved DIP extraction this arm is unreachable — but rather
/// than rely on that invariant silently, an unconstrained variable is
/// *explicitly pinned to 0*. Pinning is sound: a variable the model
/// leaves free satisfies the formula under either value, and
/// [`add_io_constraint`] subsequently pins both key-hypothesis copies to
/// the same extracted frame, so the solver and the oracle always see
/// one identical, fully-assigned DIP.
fn full_word(v: Option<bool>) -> u64 {
    match v {
        Some(true) => u64::MAX,
        Some(false) | None => 0,
    }
}

/// Encodes one more copy of the netlist with keys tied to `enc`, inputs
/// and state pinned to the DIP, and observations pinned to the oracle
/// response. Returns `false` if the solver became unsatisfiable.
fn add_io_constraint(
    solver: &mut Solver,
    redacted: &Netlist,
    enc: &Encoding,
    inputs: &[u64],
    state: &[u64],
    response: &[u64],
) -> bool {
    let copy = encode(redacted, solver);
    tie_keys(solver, enc, &copy);
    let mut ok = true;
    for (&v, &w) in copy.inputs.iter().zip(inputs) {
        ok &= solver.add_clause(&[Lit::new(v, w & 1 == 0)]);
    }
    for ((_, v), &w) in copy.state_inputs.iter().zip(state) {
        ok &= solver.add_clause(&[Lit::new(*v, w & 1 == 0)]);
    }
    let mut obs: Vec<Var> = copy.outputs.clone();
    obs.extend(copy.next_state.iter().map(|(_, v)| *v));
    for (&v, &w) in obs.iter().zip(response) {
        ok &= solver.add_clause(&[Lit::new(v, w & 1 == 0)]);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_DIPS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sttlock_exec::BudgetError;
    use sttlock_netlist::{GateKind, NetlistBuilder};

    fn lockable() -> Netlist {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.input("d");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Nor, &["g1", "d"]);
        b.gate("g3", GateKind::Xor, &["g2", "a"]);
        b.dff("q", "g3");
        b.gate("g4", GateKind::And, &["q", "d"]);
        b.output("g4");
        b.finish().unwrap()
    }

    fn lock(names: &[&str]) -> (Netlist, Netlist) {
        let mut programmed = lockable();
        for name in names {
            let id = programmed.find(name).unwrap();
            programmed.replace_gate_with_lut(id).unwrap();
        }
        let (redacted, _) = programmed.redact();
        (redacted, programmed)
    }

    #[test]
    fn recovers_single_missing_gate() {
        let (redacted, programmed) = lock(&["g2"]);
        let out = run(&redacted, &programmed, MAX_DIPS, &Budget::unbounded()).unwrap();
        assert!(out.succeeded());
        let bits = out.bitstream.unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mismatches = verify_bitstream(&redacted, &programmed, &bits, 64, &mut rng).unwrap();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn recovers_dependent_chain_with_scan_access() {
        // With full scan even the dependent chain falls — which is why
        // the paper insists scan is locked in fielded parts.
        let (redacted, programmed) = lock(&["g1", "g2", "g3"]);
        let out = run(&redacted, &programmed, MAX_DIPS, &Budget::unbounded()).unwrap();
        assert!(out.succeeded());
        let bits = out.bitstream.unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mismatches = verify_bitstream(&redacted, &programmed, &bits, 64, &mut rng).unwrap();
        assert_eq!(mismatches, 0, "equivalence class member must match oracle");
    }

    #[test]
    fn dip_limit_aborts_gracefully() {
        let (redacted, programmed) = lock(&["g1", "g2", "g3"]);
        let out = run(&redacted, &programmed, 1, &Budget::unbounded()).unwrap();
        if !out.succeeded() {
            assert_eq!(out.dips, 1);
        }
    }

    #[test]
    fn sequential_attack_recovers_bounded_equivalent_keys() {
        let (redacted, programmed) = lock(&["g2", "g3"]);
        let frames = 4;
        let out = run_sequential(
            &redacted,
            &programmed,
            frames,
            MAX_DIPS,
            &Budget::unbounded(),
        )
        .unwrap();
        let bits = out.bitstream.expect("attack converges on a small design");
        // Bounded guarantee: replay random sequences of <= `frames`
        // cycles from reset and compare primary outputs.
        let mut rebuilt = redacted.clone();
        rebuilt.program(&bits);
        let mut a = Simulator::new(&rebuilt).unwrap();
        let mut b = Simulator::new(&programmed).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..16 {
            let seq: Vec<Vec<u64>> = (0..frames)
                .map(|_| (0..redacted.inputs().len()).map(|_| rng.gen()).collect())
                .collect();
            assert_eq!(a.run(&seq).unwrap(), b.run(&seq).unwrap());
        }
    }

    #[test]
    fn sequential_attack_costs_more_than_scan_attack() {
        // Losing scan access makes each query a k-frame formula; the
        // solver works strictly harder for the same key material.
        let (redacted, programmed) = lock(&["g1", "g2", "g3"]);
        let scan = run(&redacted, &programmed, MAX_DIPS, &Budget::unbounded()).unwrap();
        let noscan =
            run_sequential(&redacted, &programmed, 6, MAX_DIPS, &Budget::unbounded()).unwrap();
        assert!(noscan.bitstream.is_some());
        assert!(
            noscan.solver_stats.propagations >= scan.solver_stats.propagations,
            "no-scan {} vs scan {}",
            noscan.solver_stats.propagations,
            scan.solver_stats.propagations
        );
    }

    #[test]
    fn a_cancelled_budget_stops_both_attacks_before_the_first_dip() {
        let (redacted, programmed) = lock(&["g1", "g2", "g3"]);
        let budget = Budget::unbounded();
        budget.cancel();
        let scan = run(&redacted, &programmed, MAX_DIPS, &budget);
        let noscan = run_sequential(&redacted, &programmed, 5, MAX_DIPS, &budget);
        for (result, frames) in [(scan, 0), (noscan, 5)] {
            let err = result.unwrap_err();
            let AttackError::Budget {
                reason: BudgetError::Cancelled,
                partial,
            } = &err
            else {
                panic!("expected a cancelled budget, got {err:?}");
            };
            let AttackOutcome::Sat(partial) = partial.as_ref() else {
                panic!("expected a SAT partial, got {partial:?}");
            };
            assert_eq!(partial.dips, 0);
            assert_eq!(partial.frames, frames);
            assert_eq!(partial.bitstream, None);
        }
    }

    #[test]
    fn full_word_pins_unassigned_model_values_to_zero() {
        // An unconstrained model variable must widen to an explicit,
        // deterministic pin — never to garbage the oracle cannot see.
        assert_eq!(full_word(Some(true)), u64::MAX);
        assert_eq!(full_word(Some(false)), 0);
        assert_eq!(full_word(None), 0);
    }

    #[test]
    fn extracted_dips_are_fully_assigned() {
        // Regression for the partial-model hazard: every DIP handed to
        // the oracle must come from a total assignment over the inputs
        // and state variables of the miter encoding.
        let (redacted, _) = lock(&["g2"]);
        let mut solver = Solver::new();
        let e1 = encode(&redacted, &mut solver);
        let e2 = encode(&redacted, &mut solver);
        let pairs = miter_pairs(&mut solver, &e1, &e2);
        let gate = assert_some_difference_gated(&mut solver, &pairs);
        assert_eq!(solver.solve_with(&[gate]), SatResult::Sat);
        for &v in e1
            .inputs
            .iter()
            .chain(e1.state_inputs.iter().map(|(_, v)| v))
        {
            assert!(
                solver.value(v).is_some(),
                "DIP extraction relies on total SAT models"
            );
        }
    }

    #[test]
    fn mismatched_netlists_are_an_error_not_a_panic() {
        let (redacted, _) = lock(&["g2"]);
        let mut other = NetlistBuilder::new("other");
        other.input("x");
        other.gate("y", GateKind::Not, &["x"]);
        other.output("y");
        let other = other.finish().unwrap();
        match run(&redacted, &other, MAX_DIPS, &Budget::unbounded()) {
            Err(AttackError::DesignMismatch {
                redacted: r,
                oracle: o,
            }) => assert_ne!(r, o),
            other => panic!("expected DesignMismatch, got {other:?}"),
        }
        assert!(matches!(
            run_sequential(&redacted, &other, 8, MAX_DIPS, &Budget::unbounded()),
            Err(AttackError::DesignMismatch { .. })
        ));
    }

    #[test]
    fn contradictory_oracle_is_a_recorded_failure() {
        // An "oracle" that is not a programmed twin (same arena, one
        // tampered gate) cannot be explained by any key: the attack must
        // surface a typed error instead of aborting the process.
        let (redacted, _) = lock(&["g2"]);
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.input("d");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Nor, &["g1", "d"]);
        b.gate("g3", GateKind::Xor, &["g2", "a"]);
        b.dff("q", "g3");
        b.gate("g4", GateKind::Or, &["q", "d"]); // tampered: And -> Or
        b.output("g4");
        let mut tampered = b.finish().unwrap();
        let id = tampered.find("g2").unwrap();
        tampered.replace_gate_with_lut(id).unwrap();
        let out = run(&redacted, &tampered, MAX_DIPS, &Budget::unbounded());
        assert!(
            matches!(
                out,
                Err(AttackError::OracleContradiction) | Err(AttackError::Unsatisfiable)
            ),
            "got {out:?}"
        );
    }

    #[test]
    fn sequential_zero_frames_is_an_error() {
        let (redacted, programmed) = lock(&["g2"]);
        assert_eq!(
            run_sequential(&redacted, &programmed, 0, 10, &Budget::unbounded()),
            Err(AttackError::ZeroFrames)
        );
    }

    #[test]
    fn no_missing_gates_needs_no_dips() {
        let n = lockable();
        let out = run(&n, &n, MAX_DIPS, &Budget::unbounded()).unwrap();
        assert!(out.succeeded());
        assert_eq!(out.dips, 0);
        assert!(out.bitstream.unwrap().is_empty());
    }

    #[test]
    fn more_missing_gates_need_at_least_as_many_dips() {
        let (r1, p1) = lock(&["g2"]);
        let (r3, p3) = lock(&["g1", "g2", "g3"]);
        let o1 = run(&r1, &p1, MAX_DIPS, &Budget::unbounded()).unwrap();
        let o3 = run(&r3, &p3, MAX_DIPS, &Budget::unbounded()).unwrap();
        assert!(o3.dips >= o1.dips, "{} vs {}", o3.dips, o1.dips);
    }
}
