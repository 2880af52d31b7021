//! The end-to-end design flow ([`Flow`]) and the post-fabrication
//! verify-and-repair loop ([`verify_and_repair`]).

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_attack::estimate::security_estimate;
use sttlock_exec::{Backoff, Budget, BudgetError};
use sttlock_fault::ProgrammingChannel;
use sttlock_netlist::paths::{IoPath, PathSamplerConfig};
use sttlock_netlist::{CircuitView, HybridOverlay, Netlist, NodeId, TruthTable};
use sttlock_power::{analyze_area, analyze_power, OverheadReport, PowerBreakdown};
use sttlock_sat::equiv::{check_equivalence, EquivResult};
use sttlock_sim::activity::{estimate_activity_with, ActivityReport};
use sttlock_sim::{SimError, Simulator, Tape};
use sttlock_sta::{analyze, analyze_with, performance_degradation_pct, TimingAnalysis};
use sttlock_techlib::Library;

use crate::replace;
use crate::report::FlowReport;
use crate::select::{self, SelectionAlgorithm, SelectionConfig};

/// Errors surfaced by the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// The input netlist could not be simulated for activity estimation
    /// (e.g. it already contains redacted LUTs).
    Simulation(SimError),
    /// The selection produced no replaceable gate — the circuit is too
    /// small or offers no usable I/O path.
    NothingSelected,
    /// The verify-and-repair loop could not even compare the device
    /// against its golden model (interface mismatch, unprogrammed LUT in
    /// the reference, inconsistent equivalence witness).
    Verification(String),
    /// The caller's [`Budget`] tripped — cancelled or past its deadline
    /// — and the flow stopped cooperatively mid-stage.
    Budget(BudgetError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Simulation(e) => write!(f, "activity estimation failed: {e}"),
            FlowError::NothingSelected => {
                write!(f, "selection produced no replaceable gate")
            }
            FlowError::Verification(what) => write!(f, "verification impossible: {what}"),
            FlowError::Budget(e) => write!(f, "flow stopped: {e}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Simulation(e) => Some(e),
            FlowError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for FlowError {
    fn from(e: SimError) -> Self {
        FlowError::Simulation(e)
    }
}

impl From<BudgetError> for FlowError {
    fn from(e: BudgetError) -> Self {
        FlowError::Budget(e)
    }
}

/// Result of a full security-driven flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The programmed hybrid netlist (design-house view).
    pub hybrid: Netlist,
    /// The same hybrid as a copy-on-write overlay over the shared golden
    /// base — the natural *device* handle for fault injection and
    /// [`verify_and_repair`], since cone queries on the golden
    /// [`CircuitView`] stay valid for it.
    pub overlay: HybridOverlay,
    /// The LUT programming bitstream — keep it away from the foundry.
    pub bitstream: Vec<(sttlock_netlist::NodeId, sttlock_netlist::TruthTable)>,
    /// Overheads, security estimates and selection CPU time.
    pub report: FlowReport,
    /// The selection that was applied (for diagnostics/ablation).
    pub selection: select::Selection,
}

impl FlowOutcome {
    /// The foundry view: the hybrid netlist with every LUT redacted.
    pub fn foundry_view(&self) -> Netlist {
        self.hybrid.redact().0
    }
}

/// The pure-CMOS side of Table I for one netlist at one seed under one
/// library: base timing, the switching activity behind the power
/// columns, base power and base area. It depends on no selection
/// algorithm, so every algorithm's run over the same (netlist, seed)
/// starts from the same baseline: [`Flow::baseline`] builds one and
/// [`Flow::run_budgeted`] runs over it, as often as needed.
///
/// Every algorithm also begins with the same draw: the candidate paths
/// [`select::candidate_paths`] samples from a generator seeded with the
/// baseline's seed. The first run over the baseline makes that draw and
/// the baseline keeps the paths with the generator state the draw left;
/// every run continues from a clone of it, so each selection equals one
/// made from scratch. Equality ignores the kept draw, which the other
/// fields determine.
#[derive(Debug)]
pub struct Baseline {
    netlist: Arc<Netlist>,
    seed: u64,
    timing: TimingAnalysis,
    activity: ActivityReport,
    power: PowerBreakdown,
    area: f64,
    sampled: OnceLock<Sampled>,
}

impl PartialEq for Baseline {
    fn eq(&self, other: &Baseline) -> bool {
        self.netlist == other.netlist
            && self.seed == other.seed
            && self.timing == other.timing
            && self.activity == other.activity
            && self.power == other.power
            && self.area == other.area
    }
}

/// The candidate paths drawn at a baseline's seed under one sampler,
/// the generator as the draw left it, and what the draw took.
#[derive(Debug)]
struct Sampled {
    sampler: PathSamplerConfig,
    paths: Vec<IoPath>,
    rng: StdRng,
    time: Duration,
}

impl Sampled {
    fn draw(view: &CircuitView<'_>, baseline: &Baseline, cfg: &SelectionConfig) -> Sampled {
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(baseline.seed);
        let paths = select::candidate_paths(view, &baseline.timing, cfg, &mut rng);
        Sampled {
            sampler: cfg.sampler,
            paths,
            rng,
            time: t0.elapsed(),
        }
    }
}

/// The security-driven hybrid STT-CMOS design flow (Figure 2).
///
/// Owns the technology library and the selection tunables; [`run`](Flow::run)
/// executes selection → replacement → analysis for one algorithm choice.
#[derive(Debug, Clone)]
pub struct Flow {
    lib: Library,
    /// Selection tunables (public: ablations tweak them directly).
    pub selection: SelectionConfig,
}

/// Random-pattern cycles for activity estimation.
const ACTIVITY_CYCLES: usize = 256;

impl Flow {
    /// A flow over the given library with the paper-default settings.
    pub fn new(lib: Library) -> Self {
        Flow {
            lib,
            selection: SelectionConfig::default(),
        }
    }

    /// The library in use.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// Runs the flow on `netlist` with the chosen algorithm. The seed
    /// fixes the random selection, making runs reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Simulation`] if the netlist cannot be
    /// simulated and [`FlowError::NothingSelected`] if no gate could be
    /// selected at all.
    pub fn run(
        &self,
        netlist: &Netlist,
        algorithm: SelectionAlgorithm,
        seed: u64,
    ) -> Result<FlowOutcome, FlowError> {
        let budget = Budget::unbounded();
        let baseline = self.baseline(Arc::new(netlist.clone()), seed, &budget)?;
        self.run_budgeted(&baseline, algorithm, &budget)
    }

    /// Builds the [`Baseline`] of a shared base netlist at `seed` under
    /// this flow's library: base timing and the activity, power and area
    /// analyses, all sharing one memoized graph view. The activity stage
    /// simulates its random patterns on the netlist's compiled tape and
    /// bills them to `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Simulation`] if the netlist cannot be
    /// simulated and [`FlowError::Budget`] when the budget trips.
    pub fn baseline(
        &self,
        netlist: Arc<Netlist>,
        seed: u64,
        budget: &Budget,
    ) -> Result<Baseline, FlowError> {
        budget.check()?;
        let view = CircuitView::new(&netlist);
        let timing = analyze_with(&view, &self.lib);
        let mut activity_rng = StdRng::seed_from_u64(seed ^ 0x5EED_AC71);
        let activity = {
            let _s = sttlock_obs::span!("flow.activity", cycles = ACTIVITY_CYCLES as u64);
            estimate_activity_with(&view, ACTIVITY_CYCLES, &mut activity_rng)?
        };
        // The warm-up cycle plus `ACTIVITY_CYCLES`, 64 vectors each.
        budget.charge(64 * (ACTIVITY_CYCLES as u64 + 1));
        let power = analyze_power(&netlist, &self.lib, &activity);
        let area = analyze_area(&netlist, &self.lib);
        budget.check()?;
        Ok(Baseline {
            netlist,
            seed,
            timing,
            activity,
            power,
            area,
            sampled: OnceLock::new(),
        })
    }

    /// [`run`](Flow::run) over a [`Baseline`], under a cooperative
    /// [`Budget`]. The campaign engine builds one baseline per generated
    /// circuit and seed, and every algorithm cell runs over it without
    /// cloning the netlist or repeating its analyses; gate replacement
    /// is applied as a copy-on-write overlay over the same base. The
    /// baseline's seed fixes the random selection. Build the baseline
    /// with a flow over the same library.
    ///
    /// The first run samples the candidate paths, inside its
    /// `flow.selection` span, and the baseline keeps them; later runs
    /// continue from the kept draw. A flow whose
    /// [`sampler`](sttlock_netlist::paths::PathSamplerConfig) differs
    /// from the kept draw's samples its own paths. Either way the
    /// selection is the one a fresh baseline gives, and
    /// [`FlowReport::selection_time`] includes the draw's time.
    ///
    /// The budget is checked between stages and inside the selection's
    /// timing-oracle loop (every cone query checks and charges), so a
    /// cancelled or expired request stops mid-selection rather than
    /// running the stage to completion. Activity steps are billed where
    /// the baseline is built, so a run over a reused baseline bills no
    /// activity steps. An untripped budget never changes the outcome.
    ///
    /// # Errors
    ///
    /// [`FlowError::NothingSelected`] if no gate could be selected, and
    /// [`FlowError::Budget`] when the budget trips.
    pub fn run_budgeted(
        &self,
        baseline: &Baseline,
        algorithm: SelectionAlgorithm,
        budget: &Budget,
    ) -> Result<FlowOutcome, FlowError> {
        let netlist: &Netlist = &baseline.netlist;
        budget.check()?;
        let view = CircuitView::new(netlist);

        // Selection (timed: this is the Table II measurement, the path
        // draw included). The baseline's timing seeds the selection's
        // incremental timing engine instead of being recomputed.
        let sel_span = sttlock_obs::span!("flow.selection", algorithm = algorithm.to_string());
        let kept = baseline
            .sampled
            .get_or_init(|| Sampled::draw(&view, baseline, &self.selection));
        let own;
        let sampled = if kept.sampler == self.selection.sampler {
            kept
        } else {
            own = Sampled::draw(&view, baseline, &self.selection);
            &own
        };
        let t0 = Instant::now();
        let selection = select::run_over(
            &view,
            &self.lib,
            algorithm,
            &self.selection,
            &sampled.paths,
            &mut sampled.rng.clone(),
            &baseline.timing,
            budget,
        )?;
        let selection_time = sampled.time + t0.elapsed();
        drop(sel_span);
        if selection.gates.is_empty() {
            return Err(FlowError::NothingSelected);
        }
        budget.check()?;

        // Replacement and hybrid analyses. The activity report indexes by
        // arena position, which replacement preserves; LUT power ignores
        // activity anyway (it is content- and activity-independent).
        let (replaced, hybrid) = {
            let _s = sttlock_obs::span!("flow.replace", gates = selection.gates.len() as u64);
            let replaced = replace::apply_overlay(Arc::clone(&baseline.netlist), &selection);
            let hybrid = replaced.overlay.materialize();
            (replaced, hybrid)
        };
        let _analysis = sttlock_obs::span!("flow.analysis");
        let hybrid_timing = analyze(&hybrid, &self.lib);
        let hybrid_power = analyze_power(&hybrid, &self.lib, &baseline.activity);
        let hybrid_area = analyze_area(&hybrid, &self.lib);

        let overhead =
            OverheadReport::between(&baseline.power, baseline.area, &hybrid_power, hybrid_area);
        let security = security_estimate(&hybrid);

        let report = FlowReport {
            performance_degradation_pct: performance_degradation_pct(
                &baseline.timing,
                &hybrid_timing,
            ),
            power_overhead_pct: overhead.power_pct,
            leakage_overhead_pct: overhead.leakage_pct,
            area_overhead_pct: overhead.area_pct,
            stt_count: hybrid.lut_count(),
            selection_time,
            security,
        };
        Ok(FlowOutcome {
            hybrid,
            overlay: replaced.overlay,
            bitstream: replaced.bitstream,
            report,
            selection,
        })
    }
}

/// Tunables of the [`verify_and_repair`] loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// 64-lane random verification frames per round.
    pub random_batches: usize,
    /// Re-programming rounds after the initial verify — the retry
    /// budget. `0` means verify only, never repair.
    pub max_retries: usize,
    /// The sleep before each re-programming round: round `r` sleeps
    /// `backoff.delay(r)`. The default base is zero (no sleeping), which
    /// is what tests and campaigns want — a real programmer would set
    /// the device's write-recovery time — and the default cap 60 s.
    pub backoff: Backoff,
    /// Close a clean random verify with a SAT equivalence proof. When a
    /// counterexample exists it is replayed as a targeted vector, so
    /// faults too subtle for random patterns still get localized.
    pub sat_proof: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            random_batches: 8,
            max_retries: 5,
            backoff: Backoff::new(Duration::ZERO, Duration::from_secs(60)),
            sat_proof: true,
        }
    }
}

/// Overall outcome of a [`verify_and_repair`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairVerdict {
    /// The device matches the golden model (SAT-proven when
    /// [`RepairConfig::sat_proof`] is set, else over the sampled
    /// vectors).
    Recovered,
    /// Mismatches remain after the retry budget, but re-programming
    /// reduced them — the part works partially.
    Degraded,
    /// Mismatches remain and re-programming did not help (or the fault
    /// sits outside the programmable bitstream).
    Unrecoverable,
}

impl RepairVerdict {
    /// Stable lowercase tag for records and tables.
    pub fn tag(&self) -> &'static str {
        match self {
            RepairVerdict::Recovered => "recovered",
            RepairVerdict::Degraded => "degraded",
            RepairVerdict::Unrecoverable => "unrecoverable",
        }
    }
}

impl fmt::Display for RepairVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Structured result of [`verify_and_repair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// What the loop concluded about the device.
    pub verdict: RepairVerdict,
    /// Individual test vectors evaluated (64 per bit-parallel frame).
    pub vectors_run: u64,
    /// Re-programming rounds that were actually executed (0 when the
    /// first verify was already clean).
    pub retries: u64,
    /// Individual LUT writes issued through the programming channel.
    pub reprogram_attempts: u64,
    /// Mismatching observation points of the first verify round.
    pub initial_mismatches: usize,
    /// Mismatching observation points still present at the end.
    pub residual_mismatches: usize,
    /// LUTs that were implicated at some point and verified clean at the
    /// end, by name.
    pub repaired_luts: Vec<String>,
    /// LUTs still implicated when the loop gave up, by name.
    pub failed_luts: Vec<String>,
}

impl RepairReport {
    /// Whether the device left the loop fully functional.
    pub fn is_recovered(&self) -> bool {
        self.verdict == RepairVerdict::Recovered
    }
}

/// Verifies a (possibly faulted) programmed hybrid against its golden
/// model and tries to repair it by re-programming implicated LUTs.
///
/// `golden` is the original pure-CMOS netlist the hybrid was derived
/// from — same arena, same wiring, so one [`CircuitView`] of it answers
/// cone queries for both designs. `device` is the fabricated part as a
/// copy-on-write overlay; `bitstream` is the intended LUT contents; all
/// writes go through `channel`, which models the STT programming
/// interface (pass a faulty channel to exercise the loop, or
/// [`PerfectChannel`](sttlock_fault::PerfectChannel) for an ideal one).
///
/// Each round runs bit-parallel differential simulation over fresh
/// random full-scan frames plus every accumulated targeted vector; a
/// clean round is (optionally) closed with a SAT equivalence proof whose
/// counterexample, if any, becomes a new targeted vector. Mismatching
/// observation points are localized to bitstream LUTs through fan-out
/// cone queries, and each implicated LUT is re-written through the
/// channel with the capped exponential [`RepairConfig::backoff`]
/// between rounds, which can neither overflow nor sleep past its cap.
/// The loop degrades gracefully: it returns a [`RepairReport`] with a
/// [`Degraded`](RepairVerdict::Degraded) or
/// [`Unrecoverable`](RepairVerdict::Unrecoverable) verdict instead of
/// retrying forever.
///
/// Under `budget`, each round checks the budget first, every
/// differential frame charges a step, and the exponential backoff
/// sleeps through [`Budget::sleep`] so a cancelled request wakes (and
/// returns) at once instead of sleeping out the full clamped
/// backoff. With an untripped budget the report does not depend on it.
///
/// # Errors
///
/// Returns [`FlowError::Verification`] when the comparison itself is
/// impossible (interface mismatch, redacted LUT in the device),
/// [`FlowError::Simulation`] when a netlist cannot be simulated, and
/// [`FlowError::Budget`] when the budget trips.
#[allow(clippy::too_many_arguments)]
pub fn verify_and_repair(
    golden: &Netlist,
    device: &mut HybridOverlay,
    bitstream: &[(NodeId, TruthTable)],
    channel: &mut dyn ProgrammingChannel,
    cfg: &RepairConfig,
    seed: u64,
    budget: &Budget,
) -> Result<RepairReport, FlowError> {
    let base = Arc::clone(device.base());
    if golden.inputs().len() != base.inputs().len()
        || golden.outputs().len() != base.outputs().len()
    {
        return Err(FlowError::Verification(
            "golden model and device disagree on their I/O interface".to_owned(),
        ));
    }

    let view = CircuitView::new(golden);
    let mut golden_sim = Simulator::with_view(&view)
        .map_err(|e| FlowError::Verification(format!("golden model is not simulatable: {e}")))?;
    let n_inputs = golden.inputs().len();
    let n_state = golden_sim.dff_ids().len();

    // Combinational fan-out cone of each bitstream LUT, computed lazily
    // and cached across rounds (wiring never changes).
    let mut cones: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();

    let intended: BTreeMap<NodeId, TruthTable> = bitstream.iter().copied().collect();
    let points = golden_sim.observation_points();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1F_4EA1);
    let mut targeted: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    let mut ever_suspected: BTreeSet<NodeId> = BTreeSet::new();
    let mut vectors_run = 0u64;
    let mut reprogram_attempts = 0u64;
    let mut initial_mismatches: Option<usize> = None;
    let mut last_suspects: Vec<NodeId> = Vec::new();
    let mut last_mismatches = 0usize;
    // The device's own tape, compiled in the first round: its LUTs are
    // gates in the golden model, so the golden tape would simulate the
    // golden design. Re-programming changes LUT contents only, so later
    // rounds share it.
    let mut device_tape: Option<Arc<Tape>> = None;

    for round in 0..=cfg.max_retries {
        budget.check()?;
        let mut round_span = sttlock_obs::span!("repair.round", round = round as u64);
        let materialized = device.materialize();
        let tape = device_tape.get_or_insert_with(|| Tape::of(&CircuitView::new(&materialized)));
        let mut device_sim = Simulator::with_tape(&materialized, Arc::clone(tape))
            .map_err(|e| FlowError::Verification(format!("device is not simulatable: {e}")))?;

        // Differential simulation: fresh random frames plus every
        // targeted vector accumulated so far. `failing` collects the
        // observation-point nodes that disagreed in any lane.
        let mut failing: BTreeSet<NodeId> = BTreeSet::new();
        let mut frames: Vec<(Vec<u64>, Vec<u64>)> = targeted.clone();
        for _ in 0..cfg.random_batches {
            let ins: Vec<u64> = (0..n_inputs).map(|_| rng.gen()).collect();
            let st: Vec<u64> = (0..n_state).map(|_| rng.gen()).collect();
            frames.push((ins, st));
        }
        {
            let _verify = sttlock_obs::span!("repair.verify", frames = frames.len() as u64);
            for (ins, st) in &frames {
                budget.check()?;
                diff_frame(
                    &mut golden_sim,
                    &mut device_sim,
                    &points,
                    ins,
                    st,
                    &mut failing,
                )?;
                vectors_run += 64;
                budget.charge(64);
            }
        }

        if failing.is_empty() && cfg.sat_proof {
            // Random patterns saw nothing; ask the SAT engine for a
            // counterexample frame before declaring victory.
            let _sat = sttlock_obs::span!("repair.sat_proof");
            match check_equivalence(golden, &materialized) {
                Ok(EquivResult::Equivalent) => {}
                Ok(EquivResult::Different { inputs, state }) => {
                    let ins: Vec<u64> = inputs
                        .iter()
                        .map(|&b| if b { u64::MAX } else { 0 })
                        .collect();
                    let st: Vec<u64> = state
                        .iter()
                        .map(|&b| if b { u64::MAX } else { 0 })
                        .collect();
                    diff_frame(
                        &mut golden_sim,
                        &mut device_sim,
                        &points,
                        &ins,
                        &st,
                        &mut failing,
                    )?;
                    vectors_run += 64;
                    budget.charge(64);
                    if failing.is_empty() {
                        return Err(FlowError::Verification(
                            "equivalence witness does not distinguish the designs".to_owned(),
                        ));
                    }
                    targeted.push((ins, st));
                }
                Err(e) => return Err(FlowError::Verification(e.to_string())),
            }
        }

        let mismatches = failing.len();
        round_span.record(
            "mismatches",
            sttlock_obs::FieldValue::from(mismatches as u64),
        );
        if initial_mismatches.is_none() {
            initial_mismatches = Some(mismatches);
        }
        last_mismatches = mismatches;

        if failing.is_empty() {
            return Ok(RepairReport {
                verdict: RepairVerdict::Recovered,
                vectors_run,
                retries: round as u64,
                reprogram_attempts,
                initial_mismatches: initial_mismatches.unwrap_or(0),
                residual_mismatches: 0,
                repaired_luts: names_of(golden, ever_suspected.iter().copied()),
                failed_luts: Vec::new(),
            });
        }

        // Localization: a bitstream LUT is suspect when any failing
        // observation point lies in its combinational fan-out cone.
        let suspects: Vec<NodeId> = bitstream
            .iter()
            .map(|&(id, _)| id)
            .filter(|&id| {
                let cone = cones
                    .entry(id)
                    .or_insert_with(|| view.fanout_cone(&[id], false));
                failing.iter().any(|f| cone.binary_search(f).is_ok())
            })
            .collect();
        ever_suspected.extend(suspects.iter().copied());
        round_span.record(
            "suspects",
            sttlock_obs::FieldValue::from(suspects.len() as u64),
        );
        last_suspects = suspects.clone();

        if suspects.is_empty() || round == cfg.max_retries {
            break;
        }

        // Re-program every suspect through the channel, with clamped
        // exponential backoff before each retry round.
        let backoff = cfg.backoff.delay(round as u32);
        if !backoff.is_zero() {
            sttlock_obs::counter("repair.backoff_sleeps", 1);
            // Cancel-aware: a tripped budget wakes the sleep early and
            // the loop returns instead of re-programming.
            if !budget.sleep(backoff) {
                return Err(FlowError::Budget(
                    budget
                        .check()
                        .expect_err("sleep only aborts on a tripped budget"),
                ));
            }
        }
        for &id in &suspects {
            let Some(&table) = intended.get(&id) else {
                continue;
            };
            let stored = channel.write(id, table);
            device.set_lut_config(id, stored);
            reprogram_attempts += 1;
            sttlock_obs::counter("repair.reprogram_writes", 1);
        }
    }

    let initial = initial_mismatches.unwrap_or(0);
    let verdict = if last_mismatches < initial && !last_suspects.is_empty() {
        RepairVerdict::Degraded
    } else {
        RepairVerdict::Unrecoverable
    };
    let failed: BTreeSet<NodeId> = last_suspects.iter().copied().collect();
    Ok(RepairReport {
        verdict,
        vectors_run,
        retries: cfg.max_retries as u64,
        reprogram_attempts,
        initial_mismatches: initial,
        residual_mismatches: last_mismatches,
        repaired_luts: names_of(golden, ever_suspected.difference(&failed).copied()),
        failed_luts: names_of(golden, failed.iter().copied()),
    })
}

/// Evaluates one full-scan frame on both designs and records every
/// observation-point node whose 64-lane words disagree.
fn diff_frame(
    golden: &mut Simulator<'_>,
    device: &mut Simulator<'_>,
    points: &[NodeId],
    inputs: &[u64],
    state: &[u64],
    failing: &mut BTreeSet<NodeId>,
) -> Result<(), FlowError> {
    golden.eval_frame(inputs, state)?;
    device.eval_frame(inputs, state)?;
    let a = golden.observation();
    let b = device.observation();
    if a.len() != b.len() || a.len() != points.len() {
        return Err(FlowError::Verification(
            "observation vectors differ in length".to_owned(),
        ));
    }
    for (i, &point) in points.iter().enumerate() {
        if a[i] != b[i] {
            failing.insert(point);
        }
    }
    Ok(())
}

/// Names for a set of node ids, sorted by id.
fn names_of(netlist: &Netlist, ids: impl Iterator<Item = NodeId>) -> Vec<String> {
    ids.map(|id| netlist.node_name(id).to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sttlock_benchgen::Profile;
    use sttlock_sim::Simulator;

    fn circuit() -> Netlist {
        Profile::custom("flow", 250, 10, 8, 6).generate(&mut StdRng::seed_from_u64(21))
    }

    #[test]
    fn flow_produces_functional_hybrid() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::Independent, 1)
            .expect("flow succeeds");
        assert_eq!(out.report.stt_count, 5);
        // Functional equivalence of the programmed hybrid.
        let mut sa = Simulator::new(&n).unwrap();
        let mut sb = Simulator::new(&out.hybrid).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..32 {
            let pat: Vec<u64> = (0..n.inputs().len()).map(|_| rng.gen()).collect();
            assert_eq!(sa.step(&pat).unwrap(), sb.step(&pat).unwrap());
        }
        // The foundry view hides every configuration.
        let foundry = out.foundry_view();
        assert_eq!(foundry.lut_count(), out.report.stt_count);
        assert!(foundry
            .node_ids()
            .all(|id| foundry.lut_config(id).is_none()));
    }

    #[test]
    fn all_algorithms_run_and_order_security() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let indep = flow.run(&n, SelectionAlgorithm::Independent, 3).unwrap();
        let dep = flow.run(&n, SelectionAlgorithm::Dependent, 3).unwrap();
        let para = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 3)
            .unwrap();
        // Figure 3's ordering: dependent/parametric dwarf independent.
        assert!(dep.report.security.n_dep.log10() > indep.report.security.n_indep.log10());
        assert!(para.report.security.n_bf.log10() > indep.report.security.n_indep.log10());
    }

    #[test]
    fn parametric_timing_is_no_worse_than_dependent() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let dep = flow.run(&n, SelectionAlgorithm::Dependent, 5).unwrap();
        let para = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 5)
            .unwrap();
        assert!(
            para.report.performance_degradation_pct
                <= dep.report.performance_degradation_pct + 1e-9
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let a = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 7)
            .unwrap();
        let b = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 7)
            .unwrap();
        assert_eq!(a.hybrid, b.hybrid);
        assert_eq!(a.bitstream, b.bitstream);
    }

    #[test]
    fn unfaulted_device_verifies_clean_without_retries() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 9)
            .unwrap();
        let mut device = out.overlay.clone();
        let mut channel = sttlock_fault::PerfectChannel;
        let report = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &RepairConfig::default(),
            1,
            &Budget::unbounded(),
        )
        .unwrap();
        assert_eq!(report.verdict, RepairVerdict::Recovered);
        assert_eq!(report.retries, 0);
        assert_eq!(report.reprogram_attempts, 0);
        assert_eq!(report.initial_mismatches, 0);
        assert_eq!(report.residual_mismatches, 0);
        assert!(report.vectors_run > 0);
        assert!(report.repaired_luts.is_empty());
        assert!(report.failed_luts.is_empty());
    }

    #[test]
    fn single_row_fault_is_repaired_through_a_perfect_channel() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 9)
            .unwrap();
        let (victim, table) = out.bitstream[0];
        let mut device = out.overlay.clone();
        // Flip one stored row of the victim LUT.
        device.set_lut_config(
            victim,
            sttlock_netlist::TruthTable::new(table.inputs(), table.bits() ^ 1),
        );
        let mut channel = sttlock_fault::PerfectChannel;
        let report = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &RepairConfig::default(),
            1,
            &Budget::unbounded(),
        )
        .unwrap();
        assert_eq!(report.verdict, RepairVerdict::Recovered, "{report:?}");
        assert!(report.retries >= 1);
        assert!(report.reprogram_attempts >= 1);
        assert!(report.initial_mismatches > 0);
        assert_eq!(report.residual_mismatches, 0);
        assert!(report
            .repaired_luts
            .contains(&n.node_name(victim).to_owned()));
        // The repaired device really stores the intended table.
        assert_eq!(device.lut_config(victim), Some(table));
    }

    #[test]
    fn huge_backoff_base_cannot_stall_or_panic_the_repair_loop() {
        // A fault that needs at least one retry round, driven with the
        // pathological base from the overflow report. On seed code this
        // test slept `Duration::MAX / 2` before the first re-program (and
        // would have panicked in the round-1 multiply); with the clamp it
        // completes in milliseconds.
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 9)
            .unwrap();
        let (victim, table) = out.bitstream[0];
        let mut device = out.overlay.clone();
        device.set_lut_config(
            victim,
            sttlock_netlist::TruthTable::new(table.inputs(), table.bits() ^ 1),
        );
        let cfg = RepairConfig {
            backoff: Backoff::new(Duration::MAX / 2, Duration::from_millis(1)),
            ..RepairConfig::default()
        };
        let mut channel = sttlock_fault::PerfectChannel;
        let report = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &cfg,
            1,
            &Budget::unbounded(),
        )
        .unwrap();
        assert_eq!(report.verdict, RepairVerdict::Recovered, "{report:?}");
        assert!(report.retries >= 1);
    }

    #[test]
    fn fault_outside_the_bitstream_is_unrecoverable_not_a_panic() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 9)
            .unwrap();
        let mut device = out.overlay.clone();
        // Weld a plain CMOS gate's output to a constant — nothing in the
        // bitstream can fix that.
        let victim = out
            .hybrid
            .node_ids()
            .find(|&id| {
                matches!(out.hybrid.node(id), sttlock_netlist::Node::Gate { fanin, .. }
                    if fanin.len() <= sttlock_netlist::MAX_LUT_INPUTS)
                    && !view_feeds_nothing(&n, id)
            })
            .expect("some gate drives an observation point");
        // Invert it outright: wrong on every input row, guaranteed to be
        // observable and unfixable by bitstream writes.
        let wrong = device.replace_gate_with_lut(victim).unwrap().complement();
        device.set_lut_config(victim, wrong);
        let mut channel = sttlock_fault::PerfectChannel;
        let report = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &RepairConfig::default(),
            1,
            &Budget::unbounded(),
        )
        .unwrap();
        assert_ne!(report.verdict, RepairVerdict::Recovered, "{report:?}");
        assert!(report.residual_mismatches > 0);
    }

    /// Whether `id`'s fan-out cone reaches no observation point (a
    /// stuck fault there would be silent and the test vacuous).
    fn view_feeds_nothing(n: &Netlist, id: sttlock_netlist::NodeId) -> bool {
        let view = CircuitView::new(n);
        let cone = view.fanout_cone(&[id], false);
        let mut points: Vec<sttlock_netlist::NodeId> = n.outputs().to_vec();
        for (_, node) in n.iter() {
            if let sttlock_netlist::Node::Dff { d } = node {
                points.push(*d);
            }
        }
        !points.iter().any(|p| cone.binary_search(p).is_ok())
    }

    #[test]
    fn budgeted_flow_matches_unbudgeted_and_honours_cancel() {
        let n = Arc::new(circuit());
        let flow = Flow::new(Library::predictive_90nm());
        let plain = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 7)
            .unwrap();
        let budget = Budget::unbounded();
        let baseline = flow.baseline(Arc::clone(&n), 7, &budget).unwrap();
        let budgeted = flow
            .run_budgeted(&baseline, SelectionAlgorithm::ParametricAware, &budget)
            .unwrap();
        assert_eq!(plain.hybrid, budgeted.hybrid);
        assert_eq!(plain.bitstream, budgeted.bitstream);
        assert!(budget.steps_spent() > 0, "selection queries must charge");

        let cancelled = Budget::unbounded();
        cancelled.cancel();
        let err = flow.baseline(Arc::clone(&n), 7, &cancelled);
        assert_eq!(err, Err(FlowError::Budget(BudgetError::Cancelled)));
        let err = flow.run_budgeted(&baseline, SelectionAlgorithm::ParametricAware, &cancelled);
        assert_eq!(err, Err(FlowError::Budget(BudgetError::Cancelled)));
    }

    #[test]
    fn budgeted_repair_stops_on_cancel_and_sleeps_cancel_aware() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        let out = flow
            .run(&n, SelectionAlgorithm::ParametricAware, 9)
            .unwrap();
        let mut device = out.overlay.clone();
        let mut channel = sttlock_fault::PerfectChannel;
        let cancelled = Budget::unbounded();
        cancelled.cancel();
        let err = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &RepairConfig::default(),
            1,
            &cancelled,
        );
        assert_eq!(err, Err(FlowError::Budget(BudgetError::Cancelled)));

        // A faulted device with a long backoff: cancellation mid-sleep
        // must abort the round promptly instead of sleeping it out.
        let (victim, table) = out.bitstream[0];
        let mut device = out.overlay.clone();
        device.set_lut_config(
            victim,
            sttlock_netlist::TruthTable::new(table.inputs(), table.bits() ^ 1),
        );
        let cfg = RepairConfig {
            backoff: Backoff::new(Duration::from_secs(3600), Duration::from_secs(3600)),
            ..RepairConfig::default()
        };
        let budget = Budget::unbounded();
        let token = budget.token();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let t0 = Instant::now();
        let err = verify_and_repair(
            &n,
            &mut device,
            &out.bitstream,
            &mut channel,
            &cfg,
            1,
            &budget,
        );
        waker.join().unwrap();
        assert_eq!(err, Err(FlowError::Budget(BudgetError::Cancelled)));
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "cancel must interrupt the backoff sleep"
        );
    }

    /// `o` with its selection time zeroed: nothing else may depend on
    /// which run drew the candidate paths.
    fn timeless(mut o: FlowOutcome) -> FlowOutcome {
        o.report.selection_time = Duration::ZERO;
        o
    }

    #[test]
    fn one_baseline_serves_every_algorithm_in_any_order_and_bills_activity_once() {
        let n = Arc::new(circuit());
        let flow = Flow::new(Library::predictive_90nm());
        let activity_steps = 64 * (ACTIVITY_CYCLES as u64 + 1);
        // Each algorithm over a baseline of its own, and the steps billed.
        let fresh = SelectionAlgorithm::ALL.map(|alg| {
            let whole = Budget::unbounded();
            let own = flow.baseline(Arc::clone(&n), 4, &whole).unwrap();
            assert_eq!(whole.steps_spent(), activity_steps);
            let out = flow.run_budgeted(&own, alg, &whole).unwrap();
            (timeless(out), whole.steps_spent())
        });
        // Each continues the generator where its own path draw left it,
        // as `select::run` does when it draws the paths itself.
        let (view, budget) = (CircuitView::new(&n), Budget::unbounded());
        let timing = analyze(&n, flow.library());
        for (alg, (out, _)) in SelectionAlgorithm::ALL.iter().zip(&fresh) {
            let mut rng = StdRng::seed_from_u64(4);
            let cfg = &flow.selection;
            let own = select::run(&view, flow.library(), *alg, cfg, &mut rng, &timing, &budget);
            assert_eq!(own.unwrap(), out.selection, "{alg}");
        }
        // All six orders over one shared baseline.
        for (first, second) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            let order = [first, second, 3 - first - second];
            let shared = flow
                .baseline(Arc::clone(&n), 4, &Budget::unbounded())
                .unwrap();
            for i in order {
                let reused = Budget::unbounded();
                let over = flow.run_budgeted(&shared, SelectionAlgorithm::ALL[i], &reused);
                assert_eq!(timeless(over.unwrap()), fresh[i].0, "{order:?}");
                // The shared baseline billed no activity steps, and the
                // path draw bills none either.
                assert_eq!(reused.steps_spent() + activity_steps, fresh[i].1);
            }
        }
    }

    #[test]
    fn a_flow_with_another_sampler_draws_its_own_paths() {
        let n = Arc::new(circuit());
        let flow = Flow::new(Library::predictive_90nm());
        let mut wider = flow.clone();
        wider.selection.sampler.min_samples *= 4;
        let budget = Budget::unbounded();
        let shared = flow.baseline(Arc::clone(&n), 8, &budget).unwrap();
        let mut differs = false;
        for alg in SelectionAlgorithm::ALL {
            // The default flow runs first, so the baseline keeps its draw.
            let default = timeless(flow.run_budgeted(&shared, alg, &budget).unwrap());
            let over = timeless(wider.run_budgeted(&shared, alg, &budget).unwrap());
            assert_eq!(over, timeless(wider.run(&n, alg, 8).unwrap()), "{alg}");
            differs |= over != default;
        }
        assert!(differs, "the two samplers must draw different paths");
    }

    #[test]
    fn overheads_are_positive_for_power_and_area() {
        let n = circuit();
        let flow = Flow::new(Library::predictive_90nm());
        for alg in SelectionAlgorithm::ALL {
            let out = flow.run(&n, alg, 11).unwrap();
            assert!(out.report.power_overhead_pct > 0.0, "{alg}");
            assert!(out.report.area_overhead_pct > 0.0, "{alg}");
        }
    }
}
