//! The testing-based sensitization attack of Section IV-A.1.
//!
//! The attacker owns the redacted netlist (foundry view) and a programmed
//! oracle part. Under the full-scan model (primary inputs and state
//! controllable; primary outputs and next-state observable) the attack
//! repeats, per missing gate `g` and truth-table row `r`:
//!
//! 1. find a pattern that *justifies* `g`'s inputs to `r` and
//!    *propagates* `g`'s output to an observation point;
//! 2. simulate the redacted netlist twice in three-valued logic, forcing
//!    `g = 0` and `g = 1` (every other unresolved missing gate stays X);
//! 3. if some observation point provably differs between the two runs,
//!    the oracle's response on that pattern reveals `g`'s output for
//!    row `r`.
//!
//! Patterns come from two generators: a cheap **random stage** (64-lane
//! bit-parallel) and a **SAT-guided justification stage** — the
//! "testing techniques to justify and propagate" of the paper — that
//! targets each remaining row directly and *proves* rows unresolvable
//! (don't-care) when no sensitizing pattern exists. Both stages iterate:
//! once a gate's table completes, it is programmed into the working
//! netlist, un-blinding its neighbours.
//!
//! When the per-gate stages stall with a *small* residue of mutually
//! blinding gates (random selection can land two missing gates next to
//! each other), the attack escalates once more: it enumerates the joint
//! assignments of the remaining open rows and kills hypotheses with
//! SAT-found distinguishing patterns until only one oracle-consistent
//! equivalence class survives. That effort is exponential in the size of
//! the interdependent cluster — the paper's Equation 2 — so the stage is
//! bounded ([`MAX_JOINT_GATES`]/[`MAX_JOINT_ROWS`] open rows) and is
//! skipped for anything larger.
//!
//! Against **independent selection** this recovers the missing gates.
//! Against **dependent selection** the mutual blinding (a missing gate's
//! inputs driven by missing gates, its output masked by missing gates)
//! denies the attack a first foothold, and the dependent cluster is far
//! too large for joint enumeration — the paper's Equation 2 argument,
//! here observable as a stalled resolution ratio.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use sttlock_exec::{Budget, BudgetError};

use sttlock_netlist::{CircuitView, HybridOverlay, Netlist, Node, NodeId, TruthTable};
use sttlock_sat::encode::{assert_some_difference, encode, equal, miter_pairs};
use sttlock_sat::{Lit, SatResult, Solver, Var};
use sttlock_sim::tri::{PartialLut, TriSimulator, TriWord};
use sttlock_sim::{SimError, Simulator, Tape};

use crate::dispatch::AttackOutcome;
use crate::error::AttackError;

/// Most interdependent missing gates the joint stage will take on.
///
/// Joint enumeration costs `2^rows` hypotheses (paper Equation 2): fine
/// for the occasional adjacent pair that random selection produces,
/// infeasible for a dependent path. Anything above the bound is left
/// unresolved.
pub const MAX_JOINT_GATES: usize = 4;

/// Most *open* truth-table rows (summed over the cluster) the joint
/// stage will enumerate; the hypothesis space is `2^MAX_JOINT_ROWS`.
pub const MAX_JOINT_ROWS: u32 = 12;

/// Attack configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensitizationConfig {
    /// Random 64-lane patterns to try per missing gate per round.
    pub patterns_per_gate: usize,
    /// Whether to escalate to SAT-guided justification for the rows the
    /// random stage leaves unresolved.
    pub sat_justification: bool,
}

impl Default for SensitizationConfig {
    fn default() -> Self {
        SensitizationConfig {
            patterns_per_gate: 256,
            sat_justification: true,
        }
    }
}

/// Per-gate recovery state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredGate {
    /// Bit `r` set when row `r`'s output is known.
    pub resolved_rows: u64,
    /// Recovered outputs for the resolved rows.
    pub table_bits: u64,
    /// Bit `r` set when row `r` was *proven* uninferable — either no
    /// pattern can ever sensitize it (its [`table_bits`] bit stays 0),
    /// or the joint stage found oracle-equivalent hypotheses taking both
    /// values on it (its [`table_bits`] bit holds one such equivalent
    /// filler). Either way the emitted table preserves functional
    /// equivalence.
    ///
    /// [`table_bits`]: RecoveredGate::table_bits
    pub dont_care_rows: u64,
    /// LUT fan-in.
    pub fanin: usize,
}

impl RecoveredGate {
    fn all_rows(&self) -> u64 {
        if self.fanin >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << self.fanin)) - 1
        }
    }

    /// Whether every row is either resolved or proven don't-care.
    pub fn is_complete(&self) -> bool {
        (self.resolved_rows | self.dont_care_rows) == self.all_rows()
    }

    /// Number of resolved rows (don't-cares excluded).
    pub fn resolved_count(&self) -> usize {
        self.resolved_rows.count_ones() as usize
    }

    /// A truth table functionally equivalent to the oracle's, if the
    /// recovery completed (don't-care rows filled with 0).
    pub fn table(&self) -> Option<TruthTable> {
        self.is_complete()
            .then(|| TruthTable::new(self.fanin, self.table_bits))
    }
}

/// Attack outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensitizationOutcome {
    /// Recovery state per missing gate.
    pub gates: HashMap<NodeId, RecoveredGate>,
    /// Test clocks spent querying the oracle (single patterns).
    pub test_clocks: u64,
    /// SAT justification queries issued.
    pub sat_queries: u64,
}

impl SensitizationOutcome {
    /// Whether every missing gate was fully recovered (up to proven
    /// don't-cares).
    pub fn is_full_break(&self) -> bool {
        !self.gates.is_empty() && self.gates.values().all(RecoveredGate::is_complete)
    }

    /// Fraction of truth-table rows either resolved or proven
    /// don't-care, across all missing gates.
    pub fn resolution_ratio(&self) -> f64 {
        let mut covered = 0usize;
        let mut total = 0usize;
        for g in self.gates.values() {
            covered += (g.resolved_rows | g.dont_care_rows).count_ones() as usize;
            total += 1usize << g.fanin;
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// The recovered bitstream for fully resolved gates.
    pub fn bitstream(&self) -> Vec<(NodeId, TruthTable)> {
        let mut v: Vec<(NodeId, TruthTable)> = self
            .gates
            .iter()
            .filter_map(|(&id, g)| g.table().map(|t| (id, t)))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

struct AttackState<'a> {
    oracle_sim: Simulator<'a>,
    gates: HashMap<NodeId, RecoveredGate>,
    test_clocks: u64,
    sat_queries: u64,
}

/// Runs the sensitization attack until it converges or `budget` trips.
///
/// `redacted` is the foundry view (unprogrammed LUTs); `oracle` is the
/// programmed design with identical structure. The budget is checked
/// between patterns and SAT queries (so a single long SAT call can
/// overshoot slightly), and every simulated test clock is billed to it.
///
/// # Errors
///
/// * [`AttackError::Sim`] if the oracle contains unprogrammed LUTs or
///   the netlists disagree on I/O arity.
/// * [`AttackError::DesignMismatch`] if the two netlists have different
///   arena sizes — formerly an `assert_eq!` process abort, now a typed
///   failure so batch campaign cells degrade gracefully.
/// * [`AttackError::Budget`] when `budget` trips (a request deadline, a
///   campaign cell's cancel); the partial outcome accumulated so far is
///   carried inside the error.
pub fn run<R: Rng + ?Sized>(
    redacted: &Netlist,
    oracle: &Netlist,
    cfg: &SensitizationConfig,
    budget: &Budget,
    rng: &mut R,
) -> Result<SensitizationOutcome, AttackError> {
    AttackError::check_same_design(redacted, oracle)?;
    let missing: Vec<NodeId> = redacted
        .iter()
        .filter(|(_, n)| matches!(n, Node::Lut { config: None, .. }))
        .map(|(id, _)| id)
        .collect();

    let mut state = AttackState {
        oracle_sim: Simulator::new(oracle)?,
        gates: missing
            .iter()
            .map(|&id| {
                (
                    id,
                    RecoveredGate {
                        resolved_rows: 0,
                        table_bits: 0,
                        dont_care_rows: 0,
                        fanin: redacted.node(id).fanin().len(),
                    },
                )
            })
            .collect(),
        test_clocks: 0,
        sat_queries: 0,
    };

    let n_inputs = redacted.inputs().len();
    let n_state = redacted.iter().filter(|(_, n)| n.is_dff()).count();
    let mut stopped: Option<BudgetError> = None;

    // Iterative refinement: each round re-attacks the unresolved gates
    // against a working netlist with every completed gate programmed in.
    'rounds: loop {
        let mut working = redacted.clone();
        for (&id, g) in &state.gates {
            if let Some(t) = g.table() {
                working.set_lut_config(id, t);
            }
        }
        // One memoized view per round: the working netlist is frozen for
        // the whole round, so every hypothesis simulation (two per
        // pattern) reuses the same evaluation order instead of
        // recomputing it.
        let view = CircuitView::new(&working);
        let mut progress = false;

        // Random stage.
        let random_span = sttlock_obs::span!("attack.random_stage");
        for &g in &missing {
            if state.gates[&g].is_complete() {
                continue;
            }
            let _gate = sttlock_obs::span!("attack.gate_random", gate = g.index() as u64);
            for _ in 0..cfg.patterns_per_gate {
                if state.gates[&g].is_complete() {
                    break;
                }
                if let Err(reason) = budget.check() {
                    stopped = Some(reason);
                    break 'rounds;
                }
                let inputs: Vec<u64> = (0..n_inputs).map(|_| rng.gen()).collect();
                let st: Vec<u64> = (0..n_state).map(|_| rng.gen()).collect();
                progress |= try_pattern(&view, &mut state, budget, g, &inputs, &st)?;
            }
        }
        drop(random_span);

        // SAT-guided justification stage: target the leftover rows.
        if cfg.sat_justification {
            let _sat_stage = sttlock_obs::span!("attack.sat_stage");
            for &g in &missing {
                let entry = &state.gates[&g];
                if entry.is_complete() {
                    continue;
                }
                let _gate = sttlock_obs::span!("attack.gate_justify", gate = g.index() as u64);
                let open = entry.all_rows() & !(entry.resolved_rows | entry.dont_care_rows);
                for row in 0..(1usize << entry.fanin) {
                    if open & (1 << row) == 0 {
                        continue;
                    }
                    if let Err(reason) = budget.check() {
                        stopped = Some(reason);
                        break 'rounds;
                    }
                    state.sat_queries += 1;
                    match justify_row(&working, g, row) {
                        None => {
                            // Proven unobservable for every consistent
                            // key hypothesis: don't-care.
                            let e = state.gates.get_mut(&g).expect("tracked");
                            e.dont_care_rows |= 1 << row;
                            progress = true;
                        }
                        Some((inputs, st)) => {
                            progress |= try_pattern(&view, &mut state, budget, g, &inputs, &st)?;
                        }
                    }
                }
            }
        }

        let all_done = state.gates.values().all(RecoveredGate::is_complete);
        if !progress || all_done {
            break;
        }
    }

    // Escalation for a small stalled residue of mutually blinding gates
    // (Equation 2: exponential in the cluster size, so bounded).
    if stopped.is_none() && cfg.sat_justification {
        let _joint = sttlock_obs::span!("attack.joint_stage");
        stopped = joint_cluster_stage(redacted, &mut state, budget)?;
    }

    let outcome = SensitizationOutcome {
        gates: state.gates,
        test_clocks: state.test_clocks,
        sat_queries: state.sat_queries,
    };
    match stopped {
        Some(reason) => Err(AttackError::Budget {
            reason,
            partial: Box::new(AttackOutcome::Sensitization(outcome)),
        }),
        None => Ok(outcome),
    }
}

/// Joint resolution of a small residue of interdependent missing gates.
///
/// The per-gate stages prove a difference *regardless* of the other
/// unresolved gates; two missing gates wired into each other's cones can
/// therefore blind each other permanently. Here the attacker instead
/// enumerates every joint assignment of the remaining open rows,
/// SAT-solves for an input distinguishing two surviving hypotheses,
/// queries the oracle on it, and discards every hypothesis the oracle
/// contradicts. Single-frame I/O equivalence of concrete netlists is
/// function equality (transitive), so when the first survivor cannot be
/// distinguished from any other, the survivors form one equivalence
/// class: rows on which the class agrees are resolved, the rest can
/// never be inferred from I/O behaviour and are recorded as don't-cares
/// filled from a surviving (hence oracle-equivalent) hypothesis.
///
/// Effort is `2^rows` hypotheses — the paper's Equation 2 — so the stage
/// bails out beyond [`MAX_JOINT_GATES`] gates or [`MAX_JOINT_ROWS`] open
/// rows, which keeps dependent selections out of reach by design.
/// Returns why the budget stopped the stage midway (results recorded so
/// far are kept), or `None` — also for the size-bound bail-outs, which
/// are a deliberate non-attempt rather than a timeout.
fn joint_cluster_stage(
    redacted: &Netlist,
    state: &mut AttackState<'_>,
    budget: &Budget,
) -> Result<Option<BudgetError>, SimError> {
    let mut incomplete: Vec<NodeId> = state
        .gates
        .iter()
        .filter(|(_, g)| !g.is_complete())
        .map(|(&id, _)| id)
        .collect();
    incomplete.sort_unstable();
    if incomplete.is_empty() || incomplete.len() > MAX_JOINT_GATES {
        return Ok(None);
    }
    // Flat list of (gate, row) coordinates for the open rows; bit `k` of
    // a hypothesis mask is the output of `slots[k]`.
    let mut slots: Vec<(NodeId, usize)> = Vec::new();
    for &id in &incomplete {
        let g = &state.gates[&id];
        let open = g.all_rows() & !(g.resolved_rows | g.dont_care_rows);
        for row in 0..(1usize << g.fanin) {
            if open & (1 << row) != 0 {
                slots.push((id, row));
            }
        }
    }
    if slots.is_empty() || slots.len() as u32 > MAX_JOINT_ROWS {
        return Ok(None);
    }

    // Base netlist: everything already completed is programmed in. The
    // hypotheses below only differ in LUT configurations, so they share
    // this base behind an `Arc` and one compiled tape serves all.
    let mut working = redacted.clone();
    for (&id, g) in &state.gates {
        if let Some(t) = g.table() {
            working.set_lut_config(id, t);
        }
    }
    let base = Arc::new(working);
    let tape = Tape::of(&CircuitView::new(&base));

    // One concrete netlist per joint hypothesis, expressed as a sparse
    // overlay over the shared base and materialized for SAT encoding.
    let candidates: Vec<Netlist> = (0..1u64 << slots.len())
        .map(|mask| {
            let mut cand = HybridOverlay::new(Arc::clone(&base));
            for &id in &incomplete {
                let g = &state.gates[&id];
                let mut bits = g.table_bits & g.resolved_rows;
                for (k, &(gate, row)) in slots.iter().enumerate() {
                    if gate == id && (mask >> k) & 1 == 1 {
                        bits |= 1 << row;
                    }
                }
                cand.set_lut_config(id, TruthTable::new(g.fanin, bits));
            }
            cand.materialize()
        })
        .collect();

    let mut alive: Vec<usize> = (0..candidates.len()).collect();
    loop {
        if let Err(reason) = budget.check() {
            return Ok(Some(reason));
        }
        // Distinguish the first survivor from any other survivor.
        let mut pattern = None;
        for &c in alive.iter().skip(1) {
            if let Err(reason) = budget.check() {
                return Ok(Some(reason));
            }
            state.sat_queries += 1;
            if let Some(p) = distinguish(&candidates[alive[0]], &candidates[c]) {
                pattern = Some(p);
                break;
            }
        }
        let Some((inputs, frame_state)) = pattern else {
            // No survivor distinguishable from the first: one class.
            break;
        };
        state.oracle_sim.eval_frame(&inputs, &frame_state)?;
        let oracle_obs = state.oracle_sim.observation();
        state.test_clocks += 64;
        budget.charge(64);
        alive.retain(|&c| {
            // All candidates differ from the base in LUT contents only,
            // so the base's tape runs each of them.
            let mut sim = match Simulator::with_tape(&candidates[c], Arc::clone(&tape)) {
                Ok(sim) => sim,
                Err(_) => return false,
            };
            sim.eval_frame(&inputs, &frame_state).is_ok() && sim.observation() == oracle_obs
        });
        // The true key survives every query; ≤1 left means converged.
        if alive.len() <= 1 {
            break;
        }
    }
    let Some(&witness) = alive.first() else {
        return Ok(None);
    };

    for (k, &(gate, row)) in slots.iter().enumerate() {
        let bit = 1u64 << row;
        let value = (witness as u64 >> k) & 1 == 1;
        let unanimous = alive.iter().all(|&c| (c as u64 >> k) & 1 == value as u64);
        let entry = state.gates.get_mut(&gate).expect("tracked");
        if unanimous {
            entry.resolved_rows |= bit;
        } else {
            // Both values occur in the oracle-equivalent class: the row
            // is not inferable from I/O behaviour. Record it don't-care,
            // filled from the witness so the emitted table stays inside
            // the class.
            entry.dont_care_rows |= bit;
        }
        if value {
            entry.table_bits |= bit;
        }
    }
    Ok(None)
}

/// SAT-solves for a single (input, state) frame on which two concrete
/// (fully programmed) netlists produce different observations. `None`
/// means the two are functionally equivalent.
fn distinguish(a: &Netlist, b: &Netlist) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut solver = Solver::new();
    let ea = encode(a, &mut solver);
    let eb = encode(b, &mut solver);
    let pairs = miter_pairs(&mut solver, &ea, &eb);
    assert_some_difference(&mut solver, &pairs);
    if solver.solve() != SatResult::Sat {
        return None;
    }
    let word = |v: Var| -> u64 {
        match solver.value(v) {
            Some(true) => u64::MAX,
            _ => 0,
        }
    };
    let inputs = ea.inputs.iter().map(|&v| word(v)).collect();
    let state = ea.state_inputs.iter().map(|(_, v)| word(*v)).collect();
    Some((inputs, state))
}

/// Applies one 64-lane pattern: three-valued hypothesis runs on the
/// working netlist, an oracle query, and row deduction for `g`.
/// Returns whether any new row was resolved. The 64 test clocks are
/// billed to `budget` (and so to every ancestor up the exec chain).
fn try_pattern(
    view: &CircuitView<'_>,
    state: &mut AttackState<'_>,
    budget: &Budget,
    g: NodeId,
    inputs: &[u64],
    frame_state: &[u64],
) -> Result<bool, SimError> {
    let working = view.netlist();
    let fanin: Vec<NodeId> = working.node(g).fanin().to_vec();
    state.test_clocks += 64;
    budget.charge(64);

    // Partial knowledge of the *other* unresolved gates narrows their X
    // poisoning to the rows still open; `g` itself is forced to `value`.
    let hypothesis = |value: u64| -> Result<TriSimulator<'_>, SimError> {
        let mut sim = TriSimulator::with_view(view)?;
        for (&id, rec) in &state.gates {
            if id != g && rec.resolved_rows != 0 {
                sim.set_partial_lut(
                    id,
                    PartialLut {
                        resolved: rec.resolved_rows,
                        bits: rec.table_bits,
                    },
                );
            }
        }
        sim.force(g, TriWord::known(value));
        sim.eval_frame(inputs, frame_state)?;
        Ok(sim)
    };

    let sim0 = hypothesis(0)?;
    let obs0 = sim0.observation();
    // g's input rows are read off the 0-run: fan-ins are upstream of g
    // and unaffected by the forcing (eval_frame cuts feedback via state).
    let fanin_words: Vec<_> = fanin.iter().map(|&f| sim0.value(f)).collect();

    let sim1 = hypothesis(u64::MAX)?;
    let obs1 = sim1.observation();

    // Lanes where some observation point provably differs regardless of
    // the other unresolved gates (they are X in both runs).
    let mut observable = 0u64;
    for (a, b) in obs0.iter().zip(&obs1) {
        observable |= a.known_difference(*b);
    }
    if observable == 0 {
        return Ok(false);
    }
    let fanin_known = fanin_words.iter().fold(u64::MAX, |m, w| m & w.known);
    let usable = observable & fanin_known;
    if usable == 0 {
        return Ok(false);
    }

    state.oracle_sim.eval_frame(inputs, frame_state)?;
    let oracle_obs = state.oracle_sim.observation();

    let mut progress = false;
    for lane in 0..64 {
        if (usable >> lane) & 1 == 0 {
            continue;
        }
        // The oracle matches exactly one hypothesis wherever they differ.
        let mut g_out: Option<bool> = None;
        for ((a, b), &o) in obs0.iter().zip(&obs1).zip(&oracle_obs) {
            if (a.known_difference(*b) >> lane) & 1 == 1 {
                let bit0 = (a.value >> lane) & 1;
                let orac = (o >> lane) & 1;
                g_out = Some(orac != bit0);
                break;
            }
        }
        let Some(g_out) = g_out else { continue };
        let mut row = 0usize;
        for (i, w) in fanin_words.iter().enumerate() {
            if (w.value >> lane) & 1 == 1 {
                row |= 1 << i;
            }
        }
        let entry = state.gates.get_mut(&g).expect("gate tracked");
        let bit = 1u64 << row;
        if entry.resolved_rows & bit == 0 {
            entry.resolved_rows |= bit;
            if g_out {
                entry.table_bits |= bit;
            }
            progress = true;
        }
    }
    Ok(progress)
}

/// SAT-based justify-and-propagate: finds a (primary-input, state)
/// pattern that sets `g`'s fan-in to `row` while an output difference
/// between the `g = 0` and `g = 1` hypotheses is observable for *some*
/// consistent assignment of the other missing gates' keys.
///
/// Returns `None` when UNSAT — then no pattern can reveal the row under
/// *any* key hypothesis (in particular the true one), so the row is a
/// proven don't-care. A `Some` pattern is only a candidate: the caller
/// re-checks it with the pessimistic X-simulation before trusting it.
fn justify_row(working: &Netlist, g: NodeId, row: usize) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut solver = Solver::new();
    let a = encode(working, &mut solver);
    let b = encode(working, &mut solver);

    // Shared inputs and state.
    let pairs = miter_pairs(&mut solver, &a, &b);
    // Other missing gates: same (free) key in both copies.
    for (id, ka) in &a.keys {
        if *id == g {
            continue;
        }
        for (&x, &y) in ka.iter().zip(&b.keys[id]) {
            equal(&mut solver, x, y);
        }
    }
    // Justify the row on copy A (inputs are shared upstream nets; the
    // X-filter at verification handles any divergence the free keys
    // smuggled in).
    for (i, &f) in working.node(g).fanin().iter().enumerate() {
        let want_one = (row >> i) & 1 == 1;
        solver.add_clause(&[Lit::new(a.net_var[f.index()], !want_one)]);
    }
    // Hypotheses: g = 0 in copy A, g = 1 in copy B.
    solver.add_clause(&[Lit::neg(a.net_var[g.index()])]);
    solver.add_clause(&[Lit::pos(b.net_var[g.index()])]);

    // Some observation point must differ.
    assert_some_difference(&mut solver, &pairs);

    if solver.solve() != SatResult::Sat {
        return None;
    }
    let word = |v: Var| -> u64 {
        match solver.value(v) {
            Some(true) => u64::MAX,
            _ => 0,
        }
    };
    let inputs = a.inputs.iter().map(|&v| word(v)).collect();
    let state = a.state_inputs.iter().map(|(_, v)| word(*v)).collect();
    Some((inputs, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};
    use sttlock_netlist::{GateKind, NetlistBuilder};

    /// Two independent missing gates in otherwise known logic.
    fn independent_case() -> (Netlist, Netlist) {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.input("d");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Or, &["c", "d"]);
        b.gate("o1", GateKind::Xor, &["g1", "d"]);
        b.gate("o2", GateKind::And, &["g2", "a"]);
        b.output("o1");
        b.output("o2");
        let mut programmed = b.finish().unwrap();
        for name in ["g1", "g2"] {
            let id = programmed.find(name).unwrap();
            programmed.replace_gate_with_lut(id).unwrap();
        }
        let (redacted, _) = programmed.redact();
        (redacted, programmed)
    }

    /// A chain of missing gates: g2 reads g1 (dependent selection).
    fn dependent_case() -> (Netlist, Netlist) {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::Nand, &["a", "c"]);
        b.gate("g2", GateKind::Nor, &["g1", "c"]);
        b.gate("g3", GateKind::Xor, &["g2", "a"]);
        b.output("g3");
        let mut programmed = b.finish().unwrap();
        for name in ["g1", "g2", "g3"] {
            let id = programmed.find(name).unwrap();
            programmed.replace_gate_with_lut(id).unwrap();
        }
        let (redacted, _) = programmed.redact();
        (redacted, programmed)
    }

    #[test]
    fn breaks_independent_selection() {
        let (redacted, programmed) = independent_case();
        let mut rng = StdRng::seed_from_u64(1);
        let out = run(
            &redacted,
            &programmed,
            &SensitizationConfig::default(),
            &Budget::unbounded(),
            &mut rng,
        )
        .unwrap();
        assert!(out.is_full_break(), "ratio {}", out.resolution_ratio());
        // The recovered bitstream reprograms the redacted netlist into a
        // functional equivalent of the oracle.
        let mut rebuilt = redacted.clone();
        rebuilt.program(&out.bitstream());
        let mut a = Simulator::new(&rebuilt).unwrap();
        let mut o = Simulator::new(&programmed).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..32 {
            let pat: Vec<u64> = (0..3).map(|_| rng.gen()).collect();
            assert_eq!(a.step(&pat).unwrap(), o.step(&pat).unwrap());
        }
    }

    #[test]
    fn stalls_on_dependent_selection() {
        let (redacted, programmed) = dependent_case();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SensitizationConfig {
            patterns_per_gate: 64,
            sat_justification: false,
        };
        let out = run(&redacted, &programmed, &cfg, &Budget::unbounded(), &mut rng).unwrap();
        // The interior gates g1/g2 are blinded: g1's output difference is
        // masked by the X of g2/g3, and g2's inputs include the X of g1.
        assert!(
            !out.is_full_break(),
            "dependent chain must not fully resolve, got ratio {}",
            out.resolution_ratio()
        );
    }

    #[test]
    fn sat_stage_resolves_what_random_misses() {
        // y = g AND mask, where mask = a1·a2·a3·a4 is 1 on only 1/16 of
        // random patterns: random sensitization of g is unlikely in few
        // patterns, SAT justification is immediate.
        let mut b = NetlistBuilder::new("m");
        for i in 0..4 {
            b.input(&format!("a{i}"));
        }
        b.input("p");
        b.input("q");
        b.gate("m1", GateKind::And, &["a0", "a1"]);
        b.gate("m2", GateKind::And, &["a2", "a3"]);
        b.gate("mask", GateKind::And, &["m1", "m2"]);
        b.gate("g", GateKind::Xnor, &["p", "q"]);
        b.gate("y", GateKind::And, &["g", "mask"]);
        b.output("y");
        let mut programmed = b.finish().unwrap();
        let g = programmed.find("g").unwrap();
        programmed.replace_gate_with_lut(g).unwrap();
        let (redacted, _) = programmed.redact();

        let mut rng = StdRng::seed_from_u64(5);
        // No random stage at all: every row must come from justification.
        let cfg = SensitizationConfig {
            patterns_per_gate: 0,
            sat_justification: true,
        };
        let out = run(&redacted, &programmed, &cfg, &Budget::unbounded(), &mut rng).unwrap();
        assert!(out.is_full_break(), "ratio {}", out.resolution_ratio());
        assert!(out.sat_queries > 0);
        let table = out.gates[&g].table().unwrap();
        assert_eq!(table, TruthTable::from_gate(GateKind::Xnor, 2));
    }

    #[test]
    fn unobservable_rows_are_proven_dont_care() {
        // g's output is ANDed with constant 0: nothing is ever
        // observable, every row must be proven don't-care (complete
        // recovery of an irrelevant gate).
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.constant("zero", false);
        b.gate("g", GateKind::Or, &["a", "c"]);
        b.gate("y", GateKind::And, &["g", "zero"]);
        b.output("y");
        let mut programmed = b.finish().unwrap();
        let g = programmed.find("g").unwrap();
        programmed.replace_gate_with_lut(g).unwrap();
        let (redacted, _) = programmed.redact();

        let mut rng = StdRng::seed_from_u64(7);
        let cfg = SensitizationConfig {
            patterns_per_gate: 8,
            sat_justification: true,
        };
        let out = run(&redacted, &programmed, &cfg, &Budget::unbounded(), &mut rng).unwrap();
        assert!(out.is_full_break());
        let rec = &out.gates[&g];
        assert_eq!(rec.resolved_rows, 0);
        assert_eq!(rec.dont_care_rows, 0b1111);
    }

    #[test]
    fn counts_test_clocks_and_queries() {
        let (redacted, programmed) = independent_case();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SensitizationConfig {
            patterns_per_gate: 4,
            sat_justification: true,
        };
        let out = run(&redacted, &programmed, &cfg, &Budget::unbounded(), &mut rng).unwrap();
        assert!(out.test_clocks > 0);
    }

    #[test]
    fn a_cancelled_parent_budget_stops_the_attack_with_a_partial() {
        let (redacted, programmed) = independent_case();
        let mut rng = StdRng::seed_from_u64(21);
        let parent = Budget::unbounded();
        parent.cancel();
        let cfg = SensitizationConfig::default();
        let err = run(&redacted, &programmed, &cfg, &parent, &mut rng).unwrap_err();
        let AttackError::Budget { reason, partial } = &err else {
            panic!("expected a budget trip, got {err:?}");
        };
        assert_eq!(*reason, BudgetError::Cancelled);
        let AttackOutcome::Sensitization(partial) = partial.as_ref() else {
            panic!("expected a sensitization partial, got {partial:?}");
        };
        assert_eq!(partial.gates.len(), 2);
        assert!(err.to_string().contains("budget exhausted"), "{err}");
    }

    #[test]
    fn parent_deadline_tightens_an_unbounded_config() {
        let (redacted, programmed) = independent_case();
        let mut rng = StdRng::seed_from_u64(22);
        let parent = Budget::deadline_at(Instant::now() - Duration::from_millis(1));
        let cfg = SensitizationConfig::default();
        match run(&redacted, &programmed, &cfg, &parent, &mut rng) {
            Err(AttackError::Budget {
                reason: BudgetError::DeadlineExpired,
                ..
            }) => {}
            other => panic!("expected timeout from the parent deadline, got {other:?}"),
        }
    }

    #[test]
    fn test_clocks_are_billed_to_the_caller_budget() {
        let (redacted, programmed) = independent_case();
        let mut rng = StdRng::seed_from_u64(23);
        let parent = Budget::unbounded();
        let cfg = SensitizationConfig::default();
        let out = run(&redacted, &programmed, &cfg, &parent, &mut rng).unwrap();
        assert_eq!(parent.steps_spent(), out.test_clocks);
    }

    #[test]
    fn no_missing_gates_is_trivially_empty() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.gate("g", GateKind::Not, &["a"]);
        b.output("g");
        let n = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SensitizationConfig::default();
        let out = run(&n, &n, &cfg, &Budget::unbounded(), &mut rng).unwrap();
        assert!(out.gates.is_empty());
        assert!(!out.is_full_break());
        assert_eq!(out.resolution_ratio(), 0.0);
    }
}
