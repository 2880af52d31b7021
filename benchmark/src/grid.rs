//! `paper-grid` and `attack-sweep`: the campaign engine's per-cell path.
//!
//! Both workloads run campaign cells through [`CellExecutor::run`] — the
//! per-cell path of `campaign::execute` (generation pool, isolation
//! thread, flow, attack) — on two closed-loop threads, as
//! `campaign::execute` does with `jobs = 2`, with a fresh executor (a
//! cold generation pool) per campaign.
//!
//! * `paper-grid`: one call is one cold campaign over the paper's grid,
//!   12 profiles × {independent, dependent, parametric-aware}, in grid
//!   order. A run makes campaigns until `--seconds` has passed, at least
//!   one.
//! * `attack-sweep`: one call is one cell with the full-scan SAT attack.
//!   The cells cycle through a fixed pool of attacked designs, one
//!   campaign per pass over the pool.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sttlock_benchgen::{profiles, Profile};
use sttlock_campaign::{
    circuit_seed, AttackKind, CampaignSpec, Cell, CellExecutor, CircuitSpec, RunRecord, RunStatus,
};
use sttlock_core::{Flow, FlowError, SelectionAlgorithm};
use sttlock_techlib::Library;

use crate::harness::{
    closed_loop, repeat_setup, report, traced, CallTime, Done, Outcome, Params, Shape, Stop,
    THREADS,
};
use crate::layers::OutputFacts;

/// Per-cell budget; no cell of either workload comes near it.
const CELL_TIMEOUT: Duration = Duration::from_secs(300);

/// The reproduction seed (the one EXPERIMENTS.md reports).
const REPRODUCTION_SEED: u64 = 42;

/// Profiles above this size keep their parametric cell at the
/// reproduction seed, whatever the run seed. One such selection takes
/// seconds and its cost swings with the seed (s38584: 9.6 s at seed 43,
/// 14.5 s at 42, 31.5 s at 7; s15850a: 0.8–4.7 s), so the seed would
/// decide a run; the other 32 cells take milliseconds each and follow
/// the run seed.
const PINNED_ABOVE_GATES: usize = 3000;

/// Profiles `attack-sweep` attacks: the paper's seven profiles up to
/// s1488.
const ATTACK_MAX_GATES: usize = 1000;

/// Selections `attack-sweep` attacks. Dependent selection is left out:
/// its SAT attacks took 0.09 s to 259 s per cell over seeds 1–20 — the
/// heavy tail is the paper's security result — so one draw would decide
/// a run and could outlast it. Independent and parametric attacks took
/// at most 1.9 s.
const ATTACK_ALGORITHMS: [SelectionAlgorithm; 2] = [
    SelectionAlgorithm::Independent,
    SelectionAlgorithm::ParametricAware,
];

/// Seeds of the attacked designs: the reproduction seed and the next
/// five, whatever the run seed, so every run attacks the same 84
/// designs. Over seeds 1–20 one seed's 14 attacks cost 1.2–4.8 s, so a
/// seed-drawn pool would move a run's throughput by the draw.
const ATTACK_POOL_SEEDS: u64 = 6;

/// The CLI's default DIP limit for the full-scan SAT attack.
const ATTACK_MAX_DIPS: usize = 10_000;

/// One of the two campaign workloads, with its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// `attack-sweep` (the attack pool) rather than `paper-grid`.
    pub attack: bool,
    /// Profiles above this many gates are left out (tests shrink it).
    pub max_gates: usize,
}

impl Grid {
    /// The paper's Table I/II grid, flow only.
    pub const PAPER: Grid = Grid {
        attack: false,
        max_gates: usize::MAX,
    };
    /// The attack pool.
    pub const ATTACK: Grid = Grid {
        attack: true,
        max_gates: ATTACK_MAX_GATES,
    };

    /// The cells of one campaign. Paper-grid: the grid in
    /// `CampaignSpec::cells` order. Attack-sweep: the pool in an order
    /// drawn from the run seed and the round.
    pub fn campaign(self, seed: u64, round: usize) -> Vec<Cell> {
        let circuits = profiles::up_to(self.max_gates)
            .into_iter()
            .map(|p| CircuitSpec::Profile(p.name.to_owned()))
            .collect();
        if !self.attack {
            let mut cells = CampaignSpec {
                circuits,
                seeds: vec![seed],
                ..CampaignSpec::default()
            }
            .cells();
            for cell in &mut cells {
                if cell.algorithm == SelectionAlgorithm::ParametricAware
                    && gates(&cell.circuit) > PINNED_ABOVE_GATES
                {
                    cell.seed = REPRODUCTION_SEED;
                }
            }
            return cells;
        }
        let mut cells = CampaignSpec {
            circuits,
            algorithms: ATTACK_ALGORITHMS.to_vec(),
            seeds: (REPRODUCTION_SEED..REPRODUCTION_SEED + ATTACK_POOL_SEEDS).collect(),
            attacks: vec![AttackKind::Sat {
                max_dips: ATTACK_MAX_DIPS,
            }],
            ..CampaignSpec::default()
        }
        .cells();
        let mut rng =
            StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        cells.shuffle(&mut rng);
        cells
    }

    fn shape(self, seed: u64) -> Shape {
        if self.attack {
            Shape {
                call: "one cell with a full-scan SAT attack",
                // One pass over the pool: the same designs in every window.
                window: self.campaign(seed, 0).len(),
                // ~170 cells per 15 s run on two vCPUs: 17 beyond p90.
                tail: 90.0,
                lanes: 1,
            }
        } else {
            Shape {
                call: "one cold campaign over the paper grid",
                window: 1,
                // One or two campaigns per run: the slowest one.
                tail: 100.0,
                lanes: 1,
            }
        }
    }
}

fn gates(circuit: &CircuitSpec) -> usize {
    profiles::by_name(circuit.name()).map_or(0, |p| p.gates)
}

/// Generates a campaign circuit from its profile and the campaign seed,
/// with the generation seed the campaign runner derives.
fn generate(name: &str, seed: u64) -> Result<sttlock_netlist::Netlist, String> {
    let profile: Profile =
        profiles::by_name(name).ok_or_else(|| format!("unknown profile `{name}`"))?;
    let mut rng = StdRng::seed_from_u64(circuit_seed(seed, name));
    Ok(profile.generate(&mut rng))
}

/// Whether a record is the flow's answer for an input where selection
/// found no replaceable gate: every draw broke the timing budget. Rare
/// (about 1 in 1000 parametric cells on s641–s953) and a valid outcome,
/// not a failure.
pub fn is_nothing_selected(record: &RunRecord) -> bool {
    matches!(&record.status, RunStatus::Failed(m) if m.ends_with(&FlowError::NothingSelected.to_string()))
}

/// The record with its wall-clock fields zeroed: what must repeat byte
/// for byte across runs, paths and commits.
pub fn normalized(record: &RunRecord) -> String {
    let mut r = record.clone();
    r.wall_ms = 0;
    if let Some(flow) = &mut r.flow {
        flow.selection_ms = 0.0;
    }
    r.to_json().to_string()
}

/// Checks one record and adds it to the output facts: ok (or the
/// nothing-selected answer), 1 to 5 LUTs for independent selection, the
/// timing budget for parametric selection, a break for every attack.
pub fn check(record: &RunRecord, attack: bool, facts: &mut OutputFacts, out: &mut Outcome) {
    let what = || {
        format!(
            "{} {} seed {}",
            record.circuit, record.algorithm, record.seed
        )
    };
    facts.items += 1;
    if is_nothing_selected(record) {
        return;
    }
    if !record.status.is_ok() {
        out.failed += 1;
        out.problem(format!("{}: status {}", what(), record.status.tag()));
        return;
    }
    let Some(flow) = record.flow else {
        out.problem(format!("{}: ok without flow metrics", what()));
        return;
    };
    facts.flows += 1;
    facts.luts += flow.stt_count as u64;
    let cfg = Flow::new(Library::predictive_90nm()).selection;
    // Fewer than the budget when the sampled paths hold fewer gates
    // (s820 at seed 110 offers four).
    if record.algorithm == SelectionAlgorithm::Independent.to_string()
        && !(1..=cfg.independent_gates).contains(&flow.stt_count)
    {
        out.problem(format!("{}: {} LUTs", what(), flow.stt_count));
    }
    if record.algorithm == SelectionAlgorithm::ParametricAware.to_string()
        && flow.perf_pct > cfg.timing_budget_pct
    {
        out.problem(format!(
            "{}: perf {:.3}% over the budget",
            what(),
            flow.perf_pct
        ));
    }
    if attack {
        match record.attack_metrics {
            Some(a) => {
                facts.attacks += 1;
                facts.broke += u64::from(a.broke);
                facts.sat_dips += a.dips;
                facts.sat_conflicts += a.conflicts;
                facts.sat_propagations += a.propagations;
                if !a.broke {
                    out.problem(format!("{}: the SAT attack did not break it", what()));
                }
            }
            None => out.problem(format!("{}: no attack metrics", what())),
        }
    }
}

/// The attack stream: cell `i` is cell `i mod n` of campaign `i / n`,
/// each campaign with its own executor; a thread still finishing the
/// previous campaign keeps that one's handle.
struct Stream {
    grid: Grid,
    seed: u64,
    per_campaign: usize,
    executor: Mutex<(usize, Arc<CellExecutor>)>,
}

impl Stream {
    fn new(grid: Grid, seed: u64) -> Stream {
        Stream {
            grid,
            seed,
            per_campaign: grid.campaign(seed, 0).len(),
            executor: Mutex::new((0, Arc::new(CellExecutor::new(None)))),
        }
    }

    fn run(&self, i: usize) -> RunRecord {
        let round = i / self.per_campaign;
        let executor = {
            let mut current = self.executor.lock().expect("executor lock is not poisoned");
            if round > current.0 {
                *current = (round, Arc::new(CellExecutor::new(None)));
            }
            Arc::clone(&current.1)
        };
        let cell = &self.grid.campaign(self.seed, round)[i % self.per_campaign];
        executor.run(cell, CELL_TIMEOUT)
    }
}

/// One cold campaign over `cells` on two closed-loop threads.
fn campaign(cells: &[Cell]) -> Vec<Done<RunRecord>> {
    let executor = CellExecutor::new(None);
    closed_loop(THREADS, Stop::Calls(cells.len()), |i| {
        executor.run(&cells[i], CELL_TIMEOUT)
    })
}

/// Runs one `paper-grid` or `attack-sweep` invocation.
pub fn run(grid: Grid, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: generate the circuits a cold campaign starts from, the same
    // number whatever the seed: each profile at the run seed (paper-grid),
    // the pool's designs (attack-sweep).
    let first = grid.campaign(p.seed, 0);
    let circuits: BTreeSet<(&str, u64)> = first
        .iter()
        .map(|c| {
            let seed = if grid.attack { c.seed } else { p.seed };
            (c.circuit.name(), seed)
        })
        .collect();
    let (setup_s, generated) = repeat_setup(|_| {
        circuits
            .iter()
            .try_for_each(|&(name, seed)| generate(name, seed).map(drop))
    });
    if let Err(e) = generated {
        out.problem(format!("set-up failed: {e}"));
        return out;
    }

    let limit = Duration::from_secs_f64(p.seconds);
    let ((calls, records), collector) = traced(p.trace, || {
        if grid.attack {
            let stream = Stream::new(grid, p.seed);
            let done = closed_loop(THREADS, Stop::After(limit), |i| stream.run(i));
            let calls: Vec<CallTime> = done.iter().map(|d| d.time(1)).collect();
            (
                calls,
                done.into_iter().map(|d| d.result).collect::<Vec<_>>(),
            )
        } else {
            let start = Instant::now();
            let mut calls = Vec::new();
            let mut records = Vec::new();
            while calls.is_empty() || start.elapsed() < limit {
                let t0 = start.elapsed().as_secs_f64();
                let done = campaign(&first);
                calls.push(CallTime {
                    start: t0,
                    end: start.elapsed().as_secs_f64(),
                    items: done.len(),
                });
                records.extend(done.into_iter().map(|d| d.result));
            }
            (calls, records)
        }
    });

    let mut facts = OutputFacts::default();
    for r in &records {
        check(r, grid.attack, &mut facts, &mut out);
    }
    out.attempted = facts.items;
    let empty = records.iter().filter(|r| is_nothing_selected(r)).count();
    if empty > 0 {
        out.notes.push(format!(
            "{empty} cells selected nothing (a checked outcome, not a failure)"
        ));
    }
    let normal: Vec<String> = records.iter().map(normalized).collect();
    out.set_digest(normal.iter().map(String::as_str));
    report(
        p,
        grid.shape(p.seed),
        &calls,
        &setup_s,
        collector.as_deref(),
        &facts,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_hold_the_documented_cells() {
        let paper = Grid::PAPER.campaign(7, 0);
        assert_eq!(paper.len(), 36);
        let pinned: Vec<&str> = paper
            .iter()
            .filter(|c| c.seed == REPRODUCTION_SEED)
            .map(|c| c.circuit.name())
            .collect();
        assert_eq!(pinned, ["s9234a", "s13207", "s15850a", "s38584"]);
        assert!(paper.iter().all(|c| c.attack == AttackKind::None));
        assert_eq!(Grid::PAPER.campaign(42, 0), Grid::PAPER.campaign(42, 5));

        let pool = Grid::ATTACK.campaign(7, 0);
        assert_eq!(pool.len(), 7 * 2 * 6);
        assert!(pool
            .iter()
            .all(|c| c.algorithm != SelectionAlgorithm::Dependent && c.attack != AttackKind::None));
        // Every round attacks the same designs, in its own order.
        let mut a = Grid::ATTACK.campaign(7, 1);
        let mut b = Grid::ATTACK.campaign(8, 3);
        assert_ne!(a, pool);
        let key = |c: &Cell| (c.circuit.name().to_owned(), c.algorithm.to_string(), c.seed);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    fn smoke(grid: Grid, trace: bool) -> Outcome {
        let p = Params {
            workload: "smoke".into(),
            seed: 3,
            seconds: 0.3,
            trace,
            trace_dir: None,
            work_dir: std::env::temp_dir(),
        };
        run(grid, &p)
    }

    #[test]
    fn a_tiny_paper_grid_runs_and_checks_clean() {
        let _obs = crate::harness::OBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let grid = Grid {
            attack: false,
            max_gates: 300,
        };
        for trace in [false, true] {
            let out = smoke(grid, trace);
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert_eq!(out.attempted % 6, 0, "whole campaigns of 2 profiles × 3");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn a_tiny_attack_sweep_runs_and_checks_clean() {
        let _obs = crate::harness::OBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let grid = Grid {
            attack: true,
            max_gates: 290,
        };
        for trace in [false, true] {
            let out = smoke(grid, trace);
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert!(out.attempted > 0);
            if trace {
                let broke = out.metrics.iter().find(|m| m.name == "attack.broke_frac");
                assert_eq!(broke.map(|m| m.value), Some(1.0));
            }
        }
    }
}
