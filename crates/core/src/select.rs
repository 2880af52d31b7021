//! The three CMOS-gate selection algorithms of Section IV-A.
//!
//! All three share the paper's path machinery: sample a fraction of the
//! components, DFS each to a primary input and a primary output through
//! at least two flip-flops, drop paths touching the critical path, sort
//! by flip-flop depth ([`sttlock_netlist::paths`]).

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use sttlock_exec::{Budget, BudgetError};
use sttlock_netlist::paths::{retain_avoiding, sample_io_paths_with, IoPath, PathSamplerConfig};
use sttlock_netlist::{CircuitView, Netlist, NodeId};
use sttlock_sta::{degradation_pct_from_periods, IncrementalSta, TimingAnalysis};
use sttlock_techlib::Library;

use crate::oracle::{FullSta, TimingOracle};

/// Which selection algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionAlgorithm {
    /// Random, possibly unconnected gates (Section IV-A.1).
    Independent,
    /// All gates of a longest non-critical I/O path (Algorithm 1).
    Dependent,
    /// Sparse on-path gates plus the USL neighbour closure (Algorithm 2).
    ParametricAware,
}

impl SelectionAlgorithm {
    /// All algorithms, in the paper's Table I column order.
    pub const ALL: [SelectionAlgorithm; 3] = [
        SelectionAlgorithm::Independent,
        SelectionAlgorithm::Dependent,
        SelectionAlgorithm::ParametricAware,
    ];

    /// Table-header style short name.
    pub fn short_name(self) -> &'static str {
        match self {
            SelectionAlgorithm::Independent => "Indep",
            SelectionAlgorithm::Dependent => "Dep",
            SelectionAlgorithm::ParametricAware => "Para",
        }
    }
}

impl std::str::FromStr for SelectionAlgorithm {
    type Err = String;

    /// Accepts the short and long spellings every front end (CLI flags,
    /// service request bodies) uses, so they reject unknown algorithms
    /// with one shared message.
    fn from_str(s: &str) -> Result<SelectionAlgorithm, String> {
        match s {
            "indep" | "independent" => Ok(SelectionAlgorithm::Independent),
            "dep" | "dependent" => Ok(SelectionAlgorithm::Dependent),
            "para" | "parametric" | "parametric-aware" => Ok(SelectionAlgorithm::ParametricAware),
            other => Err(format!("unknown algorithm `{other}` (indep|dep|para)")),
        }
    }
}

impl std::fmt::Display for SelectionAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SelectionAlgorithm::Independent => "independent",
            SelectionAlgorithm::Dependent => "dependent",
            SelectionAlgorithm::ParametricAware => "parametric-aware",
        };
        f.write_str(s)
    }
}

/// Tunables shared by the selection algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConfig {
    /// Path sampler parameters (paper defaults: 2 % sample, ≥2 FFs).
    pub sampler: PathSamplerConfig,
    /// Gates replaced by independent selection (paper: always 5).
    pub independent_gates: usize,
    /// Timing paths (FF-to-FF combinational segments) targeted by
    /// parametric-aware selection; `None` scales with circuit size
    /// (≈ one segment per 500 gates).
    pub parametric_paths: Option<usize>,
    /// Gates tentatively selected per targeted timing path.
    pub gates_per_path: usize,
    /// Random re-draws (the "go to L1" loop) before shrinking the
    /// per-path selection.
    pub max_retries: usize,
    /// Allowed clock-period degradation (%) for the parametric timing
    /// check. The paper's constraint is the design's timing budget;
    /// its Table I shows parametric runs landing at 0–7.75 %, so the
    /// default allows a small margin over the synthesized period.
    pub timing_budget_pct: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            sampler: PathSamplerConfig {
                // The paper's 2 % sampling, with enough seeds and DFS
                // retries that small circuits still surface deep paths.
                min_samples: 16,
                attempts_per_seed: 8,
                ..PathSamplerConfig::default()
            },
            independent_gates: 5,
            parametric_paths: None,
            gates_per_path: 2,
            max_retries: 8,
            timing_budget_pct: 5.0,
        }
    }
}

/// A finished gate selection: which gates become LUTs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// The algorithm that produced it.
    pub algorithm: SelectionAlgorithm,
    /// Gates to replace, deduplicated, arena order.
    pub gates: Vec<NodeId>,
    /// Of those, gates added by the USL neighbour closure (empty for the
    /// other algorithms).
    pub usl_closure: Vec<NodeId>,
    /// Sampled I/O paths that drove the selection (diagnostics).
    pub paths_considered: usize,
}

/// Samples, filters and sorts the I/O paths per Section IV: paths
/// touching the critical path are removed using a baseline timing
/// analysis.
///
/// "Touching" means sharing a *combinational gate* with the critical
/// path — sharing a primary input or flip-flop is harmless (high-fan-out
/// sources sit on most paths) and filtering on those would starve the
/// selection on dense circuits. A small sample can land entirely on
/// critical-path gates, so when the filter would drop every sampled path
/// the sampler is re-run with escalating effort (more seeds, more DFS
/// attempts) before giving up; only if no clean path exists at all is
/// the unfiltered list used, and then only the algorithms with their own
/// timing checks can still avoid slowing the clock.
pub fn candidate_paths<R: Rng + ?Sized>(
    view: &CircuitView<'_>,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
) -> Vec<IoPath> {
    let netlist = view.netlist();
    let critical_gates: Vec<NodeId> = timing
        .critical_path()
        .iter()
        .copied()
        .filter(|&id| netlist.node(id).is_combinational())
        .collect();
    let mut sampler = cfg.sampler;
    let mut paths = Vec::new();
    for _round in 0..4 {
        paths = sample_io_paths_with(view, &sampler, rng);
        let mut filtered = paths.clone();
        retain_avoiding(&mut filtered, &critical_gates);
        if !filtered.is_empty() {
            return filtered;
        }
        sampler.sample_fraction = (sampler.sample_fraction * 4.0).min(1.0);
        sampler.min_samples = sampler.min_samples.saturating_mul(4);
        sampler.attempts_per_seed = sampler.attempts_per_seed.saturating_mul(2);
    }
    paths
}

/// Independent selection (Section IV-A.1): a pre-determined number of
/// random gates out of all nodes on the candidate paths. Falls back to
/// the whole gate population when sampling finds no usable path (e.g.
/// purely combinational designs).
pub fn independent<R: Rng + ?Sized>(
    view: &CircuitView<'_>,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
) -> Selection {
    let netlist = view.netlist();
    let paths = candidate_paths(view, timing, cfg, rng);
    let mut pool: Vec<NodeId> = paths
        .iter()
        .flat_map(|p| p.combinational_nodes(netlist))
        .collect();
    pool.sort_unstable();
    pool.dedup();
    if pool.is_empty() {
        pool = netlist
            .iter()
            .filter(|(_, n)| n.is_combinational())
            .map(|(id, _)| id)
            .collect();
    }
    let mut gates: Vec<NodeId> = pool
        .choose_multiple(rng, cfg.independent_gates.min(pool.len()))
        .copied()
        .collect();
    gates.sort_unstable();
    Selection {
        algorithm: SelectionAlgorithm::Independent,
        gates,
        usl_closure: Vec::new(),
        paths_considered: paths.len(),
    }
}

/// Dependent selection (Algorithm 1): replace **all** gates on the
/// timing paths composing a longest non-critical I/O path. Among the
/// deepest sampled paths one is chosen at random, per the Section IV
/// implementation notes.
pub fn dependent<R: Rng + ?Sized>(
    view: &CircuitView<'_>,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
) -> Selection {
    let netlist = view.netlist();
    let paths = candidate_paths(view, timing, cfg, rng);
    let paths_considered = paths.len();
    let Some(deepest) = paths.first().map(|p| p.ff_count) else {
        return Selection {
            algorithm: SelectionAlgorithm::Dependent,
            gates: Vec::new(),
            usl_closure: Vec::new(),
            paths_considered: 0,
        };
    };
    // Ties at the maximum depth: pick one at random.
    let deepest_paths: Vec<&IoPath> = paths.iter().filter(|p| p.ff_count == deepest).collect();
    let chosen = deepest_paths.choose(rng).expect("nonempty by construction");
    let mut gates = chosen.combinational_nodes(netlist);
    gates.sort_unstable();
    gates.dedup();
    Selection {
        algorithm: SelectionAlgorithm::Dependent,
        gates,
        usl_closure: Vec::new(),
        paths_considered,
    }
}

/// Parametric-aware dependent selection (Algorithm 2).
///
/// For each targeted timing path: randomly select `gates_per_path` gates
/// with ≥2 inputs, verify the timing budget with the LUT delays swapped
/// in, and re-draw (the paper's "go to L1") on violation — shrinking the
/// draw when retries run out. Unselected path gates form the USL; every
/// off-path gate driving or driven by a USL gate is then also replaced.
///
/// Every oracle question (path-draw timing check or USL-closure probe)
/// first checks `budget` and then charges one step, so a cancelled or
/// expired request stops mid-selection — between cone queries, not at
/// stage boundaries. An untripped budget never changes a decision.
pub fn parametric<'a, R: Rng + ?Sized>(
    view: &CircuitView<'a>,
    lib: &'a Library,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
    budget: &Budget,
) -> Result<Selection, BudgetError> {
    let mut oracle = IncrementalSta::from_analysis_with(view, lib, timing);
    parametric_with(view, timing, cfg, rng, &mut oracle, Some(budget))
}

/// [`parametric`] driven by the full-reanalysis oracle ([`FullSta`]):
/// the pre-incremental behavior, kept as the reference implementation.
///
/// For a fixed seed this produces a selection byte-identical to an
/// untripped [`parametric`] (the oracles agree bit for bit); it exists
/// so the differential tests and the `incremental_sta` benchmark have
/// the slow path to compare against.
pub fn parametric_full_sta<'a, R: Rng + ?Sized>(
    view: &CircuitView<'a>,
    lib: &'a Library,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
) -> Selection {
    let mut oracle = FullSta::new(view.netlist(), lib);
    parametric_with(view, timing, cfg, rng, &mut oracle, None)
        .expect("an unbudgeted parametric selection cannot be cancelled")
}

/// Algorithm 2 over any [`TimingOracle`].
///
/// The oracle's running hypothesis mirrors the selection at all times:
/// accepted draws and closure gates stay swapped, rejected ones are
/// reverted before the next question.
fn parametric_with<R: Rng + ?Sized, O: TimingOracle>(
    view: &CircuitView<'_>,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
    oracle: &mut O,
    budget: Option<&Budget>,
) -> Result<Selection, BudgetError> {
    if let Some(b) = budget {
        b.check()?;
    }
    let draws = draw_on_paths(view, timing, cfg, rng, oracle, budget)?;
    let candidates = closure_candidates(view, &draws);
    let closure = close_usl(oracle, &candidates, &fits_budget(timing, cfg), budget)?;
    sttlock_obs::counter("select.draw_retries", draws.retries);
    sttlock_obs::counter("select.closure_candidates", candidates.len() as u64);
    sttlock_obs::counter("select.closure_accepted", closure.len() as u64);

    let mut gates: Vec<NodeId> = draws
        .selected
        .into_iter()
        .chain(closure.iter().copied())
        .collect();
    gates.sort_unstable();
    Ok(Selection {
        algorithm: SelectionAlgorithm::ParametricAware,
        gates,
        usl_closure: closure,
        paths_considered: draws.paths_considered,
    })
}

/// Whether a hybrid's clock period stays within the timing budget over
/// the baseline period.
fn fits_budget(timing: &TimingAnalysis, cfg: &SelectionConfig) -> impl Fn(f64) -> bool {
    let base_period = timing.clock_period_ns();
    let budget_pct = cfg.timing_budget_pct;
    move |period| degradation_pct_from_periods(base_period, period) <= budget_pct + 1e-9
}

/// Checks `budget` and bills one oracle question to it.
fn charge(budget: Option<&Budget>) -> Result<(), BudgetError> {
    if let Some(b) = budget {
        b.check()?;
        b.charge(1);
    }
    Ok(())
}

/// Swaps `draw` into the oracle's hypothesis and keeps it if the clock
/// period still fits; otherwise reverts it. Returns whether it was kept.
fn try_accept<O: TimingOracle>(
    oracle: &mut O,
    draw: &[NodeId],
    fits: &impl Fn(f64) -> bool,
) -> bool {
    for &id in draw {
        oracle.swap_to_lut(id);
    }
    if fits(oracle.clock_period_ns()) {
        return true;
    }
    for &id in draw {
        oracle.revert_to_gate(id);
    }
    false
}

/// What the on-path draws of Algorithm 2 hand to the USL closure.
struct PathDraws {
    /// Gates kept by timing-checked draws.
    selected: HashSet<NodeId>,
    /// Every gate on a targeted timing path.
    on_path: HashSet<NodeId>,
    /// Unreplaced gates on the targeted paths, in path order.
    usl: Vec<NodeId>,
    /// Sampled I/O paths the targets came from.
    paths_considered: usize,
    /// Draws rejected for breaking the timing budget (re-draws).
    retries: u64,
}

/// The on-path half of Algorithm 2: for each targeted timing path, draw
/// gates, keep the draw if the hybrid meets the timing budget, re-draw
/// on violation and shrink the draw when retries run out.
fn draw_on_paths<R: Rng + ?Sized, O: TimingOracle>(
    view: &CircuitView<'_>,
    timing: &TimingAnalysis,
    cfg: &SelectionConfig,
    rng: &mut R,
    oracle: &mut O,
    budget: Option<&Budget>,
) -> Result<PathDraws, BudgetError> {
    let netlist = view.netlist();
    let paths = candidate_paths(view, timing, cfg, rng);

    // The paper targets *timing paths* — the FF-to-FF combinational
    // segments of the sampled I/O paths. Pool and deduplicate them.
    let mut seen_segments: HashSet<Vec<NodeId>> = HashSet::new();
    let mut segments: Vec<Vec<NodeId>> = Vec::new();
    for path in &paths {
        for seg in path.segments(netlist) {
            if seg.len() >= 2 && seen_segments.insert(seg.clone()) {
                segments.push(seg);
            }
        }
    }
    let want_segments = cfg
        .parametric_paths
        .unwrap_or_else(|| (netlist.gate_count() / 500).max(1))
        .min(segments.len());
    let targeted: Vec<&Vec<NodeId>> = segments.choose_multiple(rng, want_segments).collect();

    let fits = fits_budget(timing, cfg);
    let mut selected: HashSet<NodeId> = HashSet::new();
    let mut usl: Vec<NodeId> = Vec::new();
    let mut retries = 0;
    for segment in &targeted {
        let candidates: Vec<NodeId> = segment
            .iter()
            .copied()
            .filter(|&id| {
                let node = netlist.node(id);
                node.gate_kind().is_some()
                    && node.fanin().len() >= 2
                    && node.fanin().len() <= 6
                    && !selected.contains(&id)
            })
            .collect();
        if !candidates.is_empty() {
            let mut take = cfg.gates_per_path.min(candidates.len());
            let mut accepted: Vec<NodeId> = Vec::new();
            'shrink: while take > 0 {
                for _ in 0..cfg.max_retries.max(1) {
                    charge(budget)?;
                    let draw: Vec<NodeId> =
                        candidates.choose_multiple(rng, take).copied().collect();
                    if try_accept(oracle, &draw, &fits) {
                        accepted = draw;
                        break 'shrink;
                    }
                    retries += 1;
                }
                take -= 1;
            }
            selected.extend(accepted.iter().copied());
        }
        // Every unreplaced gate on the targeted path belongs to the USL
        // — including single-input and wide gates that were never draw
        // candidates (they still leak partial truth tables if their
        // neighbourhood stays CMOS).
        usl.extend(segment.iter().copied().filter(|id| !selected.contains(id)));
    }
    Ok(PathDraws {
        selected,
        on_path: targeted.iter().flat_map(|s| s.iter().copied()).collect(),
        usl,
        paths_considered: paths.len(),
        retries,
    })
}

/// The USL closure's candidates: every replaceable off-path driver and
/// reader of a USL gate, sorted and deduplicated. Drawn gates lie on the
/// targeted paths, so none of them is a candidate.
fn closure_candidates(view: &CircuitView<'_>, draws: &PathDraws) -> Vec<NodeId> {
    let netlist = view.netlist();
    let fanout = view.fanout();
    let mut neighbours: Vec<NodeId> = Vec::new();
    for &u in &draws.usl {
        neighbours.extend(netlist.node(u).fanin().iter().copied());
        neighbours.extend(fanout.readers(u).iter().copied());
    }
    neighbours.sort_unstable();
    neighbours.dedup();
    neighbours.retain(|&cand| !draws.on_path.contains(&cand) && is_replaceable(netlist, cand));
    neighbours
}

/// USL closure: replace immediate off-path drivers and readers of every
/// USL gate so no partial truth table can anchor on them. Each closure
/// gate passes the same timing budget (the "parametric-aware" property
/// extends to the closure; gates that would blow the budget are
/// skipped).
///
/// One linear scan in candidate order, one clock-period question per
/// candidate: each is judged with every closure gate kept before it
/// still swapped in, as Algorithm 2 walks its list.
fn close_usl<O: TimingOracle>(
    oracle: &mut O,
    candidates: &[NodeId],
    fits: &impl Fn(f64) -> bool,
    budget: Option<&Budget>,
) -> Result<Vec<NodeId>, BudgetError> {
    let mut closure = Vec::new();
    for &id in candidates {
        charge(budget)?;
        if try_accept(oracle, &[id], fits) {
            closure.push(id);
        }
    }
    Ok(closure)
}

fn is_replaceable(netlist: &Netlist, id: NodeId) -> bool {
    let node = netlist.node(id);
    node.gate_kind().is_some() && node.fanin().len() <= 6
}

/// Runs the chosen algorithm over a shared [`CircuitView`] and the
/// baseline timing analysis, under a cooperative [`Budget`]. The view's
/// memoized fanout/topo facts serve path sampling, the incremental
/// timing oracle and the USL closure, so they are computed once per
/// circuit.
///
/// The parametric algorithm checks (and charges) the budget on every
/// timing-oracle question; the cheaper sampling-only algorithms check
/// before and after their path work. An untripped budget never changes
/// the selection.
pub fn run<'a, R: Rng + ?Sized>(
    view: &CircuitView<'a>,
    lib: &'a Library,
    algorithm: SelectionAlgorithm,
    cfg: &SelectionConfig,
    rng: &mut R,
    timing: &TimingAnalysis,
    budget: &Budget,
) -> Result<Selection, BudgetError> {
    budget.check()?;
    match algorithm {
        SelectionAlgorithm::Independent => {
            let sel = independent(view, timing, cfg, rng);
            budget.check()?;
            Ok(sel)
        }
        SelectionAlgorithm::Dependent => {
            let sel = dependent(view, timing, cfg, rng);
            budget.check()?;
            Ok(sel)
        }
        SelectionAlgorithm::ParametricAware => parametric(view, lib, timing, cfg, rng, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sttlock_benchgen::Profile;
    use sttlock_sta::{analyze, analyze_with, performance_degradation_pct};

    fn circuit() -> Netlist {
        Profile::custom("sel", 220, 8, 8, 6).generate(&mut StdRng::seed_from_u64(5))
    }

    /// [`run`] over a fresh view and baseline analysis, unbudgeted.
    fn run_fresh(
        n: &Netlist,
        lib: &Library,
        algorithm: SelectionAlgorithm,
        cfg: &SelectionConfig,
        rng: &mut StdRng,
    ) -> Selection {
        let view = CircuitView::new(n);
        let timing = analyze_with(&view, lib);
        run(
            &view,
            lib,
            algorithm,
            cfg,
            rng,
            &timing,
            &Budget::unbounded(),
        )
        .unwrap()
    }

    #[test]
    fn independent_picks_requested_count() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let mut rng = StdRng::seed_from_u64(1);
        let sel = run_fresh(
            &n,
            &lib,
            SelectionAlgorithm::Independent,
            &SelectionConfig::default(),
            &mut rng,
        );
        assert_eq!(sel.gates.len(), 5);
        assert!(sel.usl_closure.is_empty());
        for &g in &sel.gates {
            assert!(n.node(g).is_combinational());
        }
    }

    #[test]
    fn dependent_takes_a_whole_path() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let mut rng = StdRng::seed_from_u64(2);
        let sel = run_fresh(
            &n,
            &lib,
            SelectionAlgorithm::Dependent,
            &SelectionConfig::default(),
            &mut rng,
        );
        assert!(sel.gates.len() > 1, "a deep path has several gates");
        // Dependency: at least one selected gate drives another through
        // pure combinational logic or a flip-flop chain along the path.
        let view = CircuitView::new(&n);
        let connected = sel.gates.iter().any(|&a| {
            sel.gates
                .iter()
                .any(|&b| a != b && view.comb_reachable(a, b))
        });
        assert!(connected, "dependent selection must chain missing gates");
    }

    #[test]
    fn dependent_avoids_critical_path() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let timing = analyze(&n, &lib);
        let critical: HashSet<NodeId> = timing.critical_path().iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(3);
        let sel = dependent(
            &CircuitView::new(&n),
            &timing,
            &SelectionConfig::default(),
            &mut rng,
        );
        for g in &sel.gates {
            assert!(!critical.contains(g), "critical-path gate selected");
        }
    }

    #[test]
    fn parametric_meets_timing_budget() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let timing = analyze(&n, &lib);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SelectionConfig::default();
        let sel = parametric(
            &CircuitView::new(&n),
            &lib,
            &timing,
            &cfg,
            &mut rng,
            &Budget::unbounded(),
        )
        .unwrap();
        assert!(!sel.gates.is_empty());
        // The on-path picks respected the budget during selection; the
        // USL closure may add off-path gates. Verify the paper's claim
        // that the overall degradation stays small: replace everything
        // and compare against the dependent strategy.
        let mut hybrid = n.clone();
        for &g in &sel.gates {
            hybrid.replace_gate_with_lut(g).unwrap();
        }
        let para_deg = performance_degradation_pct(&timing, &analyze(&hybrid, &lib));

        let mut rng2 = StdRng::seed_from_u64(4);
        let dep = dependent(&CircuitView::new(&n), &timing, &cfg, &mut rng2);
        let mut dep_hybrid = n.clone();
        for &g in &dep.gates {
            if n.node(g).fanin().len() <= 6 {
                dep_hybrid.replace_gate_with_lut(g).unwrap();
            }
        }
        let dep_deg = performance_degradation_pct(&timing, &analyze(&dep_hybrid, &lib));
        assert!(
            para_deg <= dep_deg + 1e-9,
            "parametric ({para_deg:.2}%) must not exceed dependent ({dep_deg:.2}%)"
        );
    }

    #[test]
    fn parametric_closure_covers_usl_neighbours() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let timing = analyze(&n, &lib);
        let mut rng = StdRng::seed_from_u64(6);
        let sel = parametric(
            &CircuitView::new(&n),
            &lib,
            &timing,
            &SelectionConfig::default(),
            &mut rng,
            &Budget::unbounded(),
        )
        .unwrap();
        // Closure gates are part of the selection.
        let set: HashSet<NodeId> = sel.gates.iter().copied().collect();
        for c in &sel.usl_closure {
            assert!(set.contains(c));
        }
    }

    #[test]
    fn selection_is_reproducible_per_seed() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let cfg = SelectionConfig::default();
        for alg in SelectionAlgorithm::ALL {
            let a = run_fresh(&n, &lib, alg, &cfg, &mut StdRng::seed_from_u64(9));
            let b = run_fresh(&n, &lib, alg, &cfg, &mut StdRng::seed_from_u64(9));
            assert_eq!(a, b, "{alg}");
        }
    }

    #[test]
    fn parametric_matches_full_sta_reference() {
        // The incremental oracle must not change a single decision: for a
        // fixed seed the selection is byte-identical to the full-reanalysis
        // reference, across circuit sizes up to the paper's s9234a.
        let lib = Library::predictive_90nm();
        let cfg = SelectionConfig::default();
        let mut cases: Vec<(String, Netlist, u64)> =
            [(220usize, 1u64), (220, 9), (400, 5), (700, 13)]
                .into_iter()
                .map(|(gates, seed)| {
                    let n = Profile::custom("par", gates, 8, 8, 6)
                        .generate(&mut StdRng::seed_from_u64(seed));
                    (format!("gates={gates} seed={seed}"), n, seed * 7 + 1)
                })
                .collect();
        for name in ["s1238", "s9234a"] {
            let n = sttlock_benchgen::profiles::by_name(name)
                .unwrap()
                .generate(&mut StdRng::seed_from_u64(42));
            cases.push((name.to_owned(), n, 7));
        }
        for (label, n, selection_seed) in cases {
            let timing = analyze(&n, &lib);
            let view = CircuitView::new(&n);
            let fast = parametric(
                &view,
                &lib,
                &timing,
                &cfg,
                &mut StdRng::seed_from_u64(selection_seed),
                &Budget::unbounded(),
            )
            .unwrap();
            let reference = parametric_full_sta(
                &view,
                &lib,
                &timing,
                &cfg,
                &mut StdRng::seed_from_u64(selection_seed),
            );
            assert_eq!(fast, reference, "{label}");
        }
    }

    /// Counts the clock-period questions asked of the wrapped oracle.
    struct Counting<O> {
        inner: O,
        periods: usize,
    }

    impl<O: TimingOracle> TimingOracle for Counting<O> {
        fn swap_to_lut(&mut self, id: NodeId) {
            self.inner.swap_to_lut(id);
        }

        fn revert_to_gate(&mut self, id: NodeId) {
            self.inner.revert_to_gate(id);
        }

        fn clock_period_ns(&mut self) -> f64 {
            self.periods += 1;
            self.inner.clock_period_ns()
        }
    }

    #[test]
    fn usl_closure_probes_each_candidate_once() {
        let lib = Library::predictive_90nm();
        let cfg = SelectionConfig::default();
        let n = Profile::custom("par", 700, 8, 8, 6).generate(&mut StdRng::seed_from_u64(13));
        let timing = analyze(&n, &lib);
        let view = CircuitView::new(&n);
        let oracle = || Counting {
            inner: IncrementalSta::from_analysis_with(&view, &lib, &timing),
            periods: 0,
        };
        let seed = 92;

        // The draws alone, then the whole selection from the same seed:
        // the difference is what the closure asked.
        let mut drawing = oracle();
        let draws = draw_on_paths(
            &view,
            &timing,
            &cfg,
            &mut StdRng::seed_from_u64(seed),
            &mut drawing,
            None,
        )
        .unwrap();
        let candidates = closure_candidates(&view, &draws);
        assert!(candidates.windows(2).all(|w| w[0] < w[1]));

        let mut whole = oracle();
        let sel = parametric_with(
            &view,
            &timing,
            &cfg,
            &mut StdRng::seed_from_u64(seed),
            &mut whole,
            None,
        )
        .unwrap();
        assert!(sel.usl_closure.len() >= 10, "{sel:?}");
        assert_eq!(whole.periods - drawing.periods, candidates.len());
    }

    #[test]
    fn paper_profile_selections_are_pinned() {
        // (gates, closure gates, key over the sorted gate indices) of
        // parametric selection at seed 42: any changed decision moves one.
        let lib = Library::predictive_90nm();
        for (name, want) in [
            ("s9234a", (121, 105, "4f6b99bcd2718141744ba6dbff26fc95")),
            ("s13207", (188, 158, "7b6655c2160ec4b63fbad27df858eae9")),
        ] {
            let n = sttlock_benchgen::profiles::by_name(name)
                .unwrap()
                .generate(&mut StdRng::seed_from_u64(42));
            let sel = run_fresh(
                &n,
                &lib,
                SelectionAlgorithm::ParametricAware,
                &SelectionConfig::default(),
                &mut StdRng::seed_from_u64(42),
            );
            let key = sel
                .gates
                .iter()
                .fold(sttlock_exec::KeyBuilder::new(0), |k, g| {
                    k.chunk(&(g.index() as u64).to_le_bytes())
                })
                .finish()
                .hex();
            assert_eq!(
                (sel.gates.len(), sel.usl_closure.len(), key.as_str()),
                want,
                "{name}"
            );
        }
    }

    #[test]
    fn usl_includes_single_input_gates() {
        // Regression: the USL is *all* unreplaced gates on the targeted
        // path. Inverters can never be drawn (LUT replacement needs ≥2
        // inputs) but must still enter the USL so their off-path
        // neighbours get closed over — otherwise the inverter's partial
        // truth table anchors a testing attack.
        use sttlock_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("inv_usl");
        b.input("a");
        b.input("c");
        b.gate("g0", GateKind::And, &["a", "c"]);
        b.dff("ff1", "g0");
        b.gate("g1", GateKind::And, &["ff1", "c"]);
        b.gate("inv", GateKind::Not, &["g1"]);
        b.dff("ff2", "inv");
        b.gate("g2", GateKind::And, &["ff2", "c"]);
        b.output("g2");
        // Off-path reader of the inverter: only reachable via the USL.
        b.gate("spy", GateKind::And, &["inv", "a"]);
        b.output("spy");
        let n = b.finish().unwrap();
        let lib = Library::predictive_90nm();
        let timing = analyze(&n, &lib);
        // The circuit is three gate-levels deep, so any LUT swap costs a
        // large fraction of the period — the budget is generous because
        // this test is about USL membership, not timing.
        let cfg = SelectionConfig {
            parametric_paths: Some(1),
            gates_per_path: 1,
            timing_budget_pct: 300.0,
            ..SelectionConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let sel = parametric(
            &CircuitView::new(&n),
            &lib,
            &timing,
            &cfg,
            &mut rng,
            &Budget::unbounded(),
        )
        .unwrap();
        let spy = n.find("spy").unwrap();
        assert!(
            sel.usl_closure.contains(&spy),
            "closure must reach the inverter's off-path reader: {sel:?}"
        );
        assert!(sel.gates.contains(&spy));
        // The inverter itself stays CMOS: it is USL, not a draw candidate.
        let inv = n.find("inv").unwrap();
        assert!(!sel.gates.contains(&inv));
    }

    #[test]
    fn budgeted_selection_matches_unbudgeted_and_honours_cancel() {
        let n = circuit();
        let lib = Library::predictive_90nm();
        let timing = analyze(&n, &lib);
        let view = CircuitView::new(&n);
        let cfg = SelectionConfig::default();
        for alg in SelectionAlgorithm::ALL {
            let mut rng = StdRng::seed_from_u64(11);
            let plain = match alg {
                SelectionAlgorithm::Independent => independent(&view, &timing, &cfg, &mut rng),
                SelectionAlgorithm::Dependent => dependent(&view, &timing, &cfg, &mut rng),
                SelectionAlgorithm::ParametricAware => {
                    let mut oracle = IncrementalSta::from_analysis_with(&view, &lib, &timing);
                    parametric_with(&view, &timing, &cfg, &mut rng, &mut oracle, None).unwrap()
                }
            };
            let budget = Budget::unbounded();
            let budgeted = run(
                &view,
                &lib,
                alg,
                &cfg,
                &mut StdRng::seed_from_u64(11),
                &timing,
                &budget,
            )
            .unwrap();
            assert_eq!(plain, budgeted, "{alg}");
            if alg == SelectionAlgorithm::ParametricAware {
                assert!(budget.steps_spent() > 0, "oracle queries must charge");
            }
        }
        let cancelled = Budget::unbounded();
        cancelled.cancel();
        let err = run(
            &view,
            &lib,
            SelectionAlgorithm::ParametricAware,
            &cfg,
            &mut StdRng::seed_from_u64(11),
            &timing,
            &cancelled,
        );
        assert_eq!(err, Err(BudgetError::Cancelled));
    }

    #[test]
    fn combinational_circuit_falls_back() {
        use sttlock_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new("comb");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::And, &["a", "c"]);
        b.gate("g2", GateKind::Or, &["g1", "c"]);
        b.output("g2");
        let n = b.finish().unwrap();
        let lib = Library::predictive_90nm();
        let mut rng = StdRng::seed_from_u64(10);
        let sel = run_fresh(
            &n,
            &lib,
            SelectionAlgorithm::Independent,
            &SelectionConfig::default(),
            &mut rng,
        );
        assert_eq!(sel.gates.len(), 2, "fallback pool covers all gates");
    }
}
