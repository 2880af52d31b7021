//! Grid execution: the journal, replay and merge bookkeeping that
//! single-node and cluster campaigns share ([`GridRun`]), and
//! work-stealing parallelism with per-cell fault isolation.
//!
//! The worker pool is [`sttlock_exec::scoped_map`]: scoped OS threads
//! pulling cell indices from a shared atomic counter, each index
//! wrapped in `catch_unwind` (rayon is not available offline). Each
//! cell additionally runs on its own *detached* thread
//! ([`CellExecutor::run`]) so the worker can abandon it on timeout:
//!
//! * a panic inside the cell is contained by `catch_unwind` and becomes
//!   a [`RunStatus::Panicked`] record (the stock panic hook still
//!   prints the backtrace to stderr — the campaign does not install a
//!   global hook, which would race with concurrent tests); a panic that
//!   poisons a shared lock (journal, result slots, generation pool) is
//!   recovered from the `PoisonError` — the protected data is a file
//!   handle, `Option` slots or an insert-only map, all valid after an
//!   unwind — and counted as `campaign.poison_recovered`;
//! * a cell that exceeds the budget becomes [`RunStatus::TimedOut`];
//!   the runner abandons its detached thread but cancels the cell's
//!   [`Budget`], checked between stages (and inside every timing-oracle,
//!   repair and attack loop), so the thread winds down promptly instead of
//!   burning CPU until process exit. Live abandoned threads are visible
//!   as the `campaign.abandoned_cells` gauge.
//!
//! The per-cell budget carries **no deadline** — only the runner's
//! timeout watchdog decides when a cell is late, so the timed-out
//! record is always the runner's [`RunStatus::TimedOut`] row and never
//! races a cell-side budget error at the boundary.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::estimate;
use sttlock_benchgen::{profiles, Profile};
use sttlock_core::{verify_and_repair, Flow, FlowError, FlowOutcome, RepairConfig};
use sttlock_exec::{panic_message, Budget};
use sttlock_fault::FaultInjector;
use sttlock_netlist::{bench_format, Netlist};
use sttlock_store::Cache;
use sttlock_techlib::Library;

use crate::cache::{self, cell_key};
use crate::journal::{self, Journal};
use crate::record::{AttackMetrics, FlowMetrics, RepairMetrics, RunRecord, RunStatus};
use crate::{circuit_seed, AttackKind, CampaignSpec, Cell, CircuitSpec};

/// Shared generation pool: one immutable netlist per (circuit, seed),
/// built once and handed to every grid cell that needs it. The grid
/// crosses circuits×seeds with algorithms×attacks, so without the pool
/// each circuit is regenerated for every algorithm/attack combination.
/// Only successful generations are cached — the fault-injection specs
/// panic/hang inside the isolation boundary before reaching the pool.
type GenPool = Arc<Mutex<HashMap<(String, u64), Arc<Netlist>>>>;

/// Locks a campaign mutex, recovering the guard when a panicking cell
/// poisoned it. Every campaign mutex protects data that stays valid
/// across an unwind (an append-only file handle, `Option` result slots,
/// an insert-only pool), so recovery is always sound; each recovery is
/// counted as `campaign.poison_recovered`.
fn recover_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        sttlock_obs::counter("campaign.poison_recovered", 1);
        poisoned.into_inner()
    })
}

/// Everything a finished campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// One record per grid cell, in grid order.
    pub records: Vec<RunRecord>,
    /// Wall-clock time of the whole campaign.
    pub wall: Duration,
    /// What opening the journal recovered (`None` when the campaign
    /// ran without a journal or the journal failed to open). A torn
    /// tail from a crashed predecessor shows up here as dropped bytes.
    pub journal_recovery: Option<sttlock_store::RecoveryReport>,
}

impl CampaignResult {
    /// Number of records served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.records.iter().filter(|r| r.cached).count()
    }

    /// Number of records that completed with metrics.
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.status.is_ok()).count()
    }

    /// The records serialized as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Executes the campaign grid.
///
/// Failures never propagate out: every cell ends as a [`RunRecord`],
/// and record order matches [`CampaignSpec::cells`] regardless of which
/// worker finished first.
///
/// The grid's bookkeeping is a [`GridRun`] over [`CampaignSpec::journal`]
/// and [`CampaignSpec::resume`]; its pending cells run through one
/// [`CellExecutor`] on [`sttlock_exec::scoped_map`] lanes, and each
/// record is filed (and journaled) the moment its cell completes.
pub fn execute(spec: &CampaignSpec) -> CampaignResult {
    let start = Instant::now();
    let run = GridRun::open(spec, spec.journal.as_deref(), spec.resume);
    let pending = run.pending();
    let executor = CellExecutor::new(spec.cache_dir.clone());

    let workers = if spec.jobs > 0 {
        spec.jobs
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
    .min(pending.len().max(1));

    let root = sttlock_obs::span!(
        "campaign.execute",
        cells = run.cells().len() as u64,
        workers = workers as u64
    );
    let ctx = sttlock_obs::current_context();

    // The exec runtime's work-stealing map: workers pull pending cells
    // from a shared counter and each one is isolated by `catch_unwind`.
    // The cell body has its own isolation boundary (`CellExecutor::run`);
    // the map's per-index guard covers the lane's bookkeeping — span
    // close, journal append — where a panic (e.g. a collector sink
    // throwing on span close) must cost at most this one cell, which
    // then finishes as a lost-cell row.
    let lanes = sttlock_exec::scoped_map(workers, pending.len(), |k| {
        let _adopted = sttlock_obs::adopt(ctx);
        let i = pending[k];
        let cell = &run.cells()[i];
        let mut cell_span = sttlock_obs::span!(
            "campaign.cell",
            circuit = cell.circuit.name(),
            algorithm = cell.algorithm.to_string(),
            seed = cell.seed,
            queue_us = start.elapsed().as_micros() as u64,
        );
        let record = executor.run(cell, spec.timeout);
        cell_span.record("status", record.status.tag());
        drop(cell_span);
        run.record(i, record);
    });
    drop(root);
    for _ in lanes.iter().filter(|lane| lane.is_err()) {
        sttlock_obs::counter("campaign.worker_panic", 1);
    }
    run.finish()
}

/// The grid bookkeeping single-node and cluster campaigns share —
/// [`execute`] and the cluster coordinator differ only in how a pending
/// cell runs.
///
/// [`open`](GridRun::open) opens the journal and applies the replay
/// rule; [`record`](GridRun::record) files each fresh record and
/// appends it to the journal (one fsynced append per record, so a
/// killed run leaves every finished cell behind); [`finish`](GridRun::finish)
/// merges in grid order, giving each cell without a record a failure
/// row. Its counters are `campaign.replayed`, `campaign.skewed_replays`,
/// `campaign.journal_open_failed` and `campaign.lost_records`.
pub struct GridRun {
    start: Instant,
    cells: Vec<Cell>,
    slots: Mutex<Vec<Option<RunRecord>>>,
    journal: Option<Mutex<Journal>>,
    journal_recovery: Option<sttlock_store::RecoveryReport>,
}

impl GridRun {
    /// Enumerates `spec`'s grid and opens `journal` through the store,
    /// which heals any torn or corrupt tail (a crash mid-append costs
    /// exactly the torn record). With `resume`, every cell whose latest
    /// journal entry is replayable — this build's
    /// [`JOURNAL_SCHEMA_VERSION`](crate::JOURNAL_SCHEMA_VERSION), `ok`,
    /// flow metrics present — starts with that record; every other
    /// cell is pending and runs again. An unopenable journal leaves the
    /// run unjournaled.
    pub fn open(spec: &CampaignSpec, journal: Option<&Path>, resume: bool) -> GridRun {
        let start = Instant::now();
        let cells = spec.cells();
        let mut slots: Vec<Option<RunRecord>> = vec![None; cells.len()];
        let mut journal_recovery = None;
        let journal = journal.and_then(|path| match Journal::open(path) {
            Ok(opened) => {
                journal_recovery = Some(opened.recovery);
                if resume {
                    // Entries for cells outside this grid are never
                    // looked up, so they cannot leak into the merge.
                    let replay = journal::replay_map(opened.entries);
                    for (slot, cell) in slots.iter_mut().zip(&cells) {
                        match replay.get(&cell_journal_key(cell)) {
                            Some(e) if journal::replayable(e.schema, &e.record) => {
                                *slot = Some(e.record.clone());
                            }
                            Some(_) => sttlock_obs::counter("campaign.skewed_replays", 1),
                            None => {}
                        }
                    }
                    let replayed = slots.iter().flatten().count();
                    sttlock_obs::counter("campaign.replayed", replayed as u64);
                }
                Some(Mutex::new(opened.journal))
            }
            Err(_) => {
                sttlock_obs::counter("campaign.journal_open_failed", 1);
                None
            }
        });
        GridRun {
            start,
            cells,
            slots: Mutex::new(slots),
            journal,
            journal_recovery,
        }
    }

    /// The grid's cells, in grid order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The indices of the cells that have no record yet, in grid order.
    pub fn pending(&self) -> Vec<usize> {
        recover_lock(&self.slots)
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.is_none().then_some(i))
            .collect()
    }

    /// Files a fresh record for cell `i`, appending it to the journal
    /// first. Safe to call from many threads at once.
    pub fn record(&self, i: usize, record: RunRecord) {
        if let Some(journal) = &self.journal {
            let _ = recover_lock(journal).append(&record);
        }
        recover_lock(&self.slots)[i] = Some(record);
    }

    /// Merges the records in grid order. A cell without one — its
    /// lane's bookkeeping unwound, or a distributed run's budget cut it
    /// off — becomes a structured failure row (counted as
    /// `campaign.lost_records`), so the grid invariant — one record per
    /// cell — holds unconditionally.
    pub fn finish(self) -> CampaignResult {
        let slots = self
            .slots
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let records = self
            .cells
            .iter()
            .zip(slots)
            .map(|(cell, slot)| {
                slot.unwrap_or_else(|| {
                    sttlock_obs::counter("campaign.lost_records", 1);
                    let lost = "no worker recorded this cell before the run ended";
                    RunRecord::for_cell(cell, RunStatus::Failed(lost.to_owned()))
                })
            })
            .collect();
        CampaignResult {
            records,
            wall: self.start.elapsed(),
            journal_recovery: self.journal_recovery,
        }
    }
}

/// Runs single cells: the executor [`execute`] maps the grid's pending
/// cells through, and the cluster worker runs each dispatched cell
/// with. It holds the result cache and the generation pool open across
/// calls, so repeated cells hit the same reuse paths.
pub struct CellExecutor {
    cache: Option<Arc<Cache>>,
    pool: GenPool,
}

impl CellExecutor {
    /// Opens the executor, warm-loading the persistent result cache
    /// when a directory is given (`None`, or an unopenable directory,
    /// disables caching exactly like [`CampaignSpec::cache_dir`]).
    pub fn new(cache_dir: Option<std::path::PathBuf>) -> CellExecutor {
        CellExecutor {
            cache: cache_dir.as_deref().and_then(cache::open),
            pool: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Runs one cell on a detached thread with a wall-clock budget. The
    /// result is always a record — panics, hangs and failures become
    /// their structured statuses, never an unwind.
    ///
    /// On timeout the thread is abandoned, not killed: the executor
    /// cancels the cell's [`Budget`], which the cell checks between
    /// stages and inside every timing-oracle, repair and attack loop, so
    /// the thread winds down at the next check. The
    /// `campaign.abandoned_cells` gauge is incremented *before* the
    /// budget is cancelled and decremented by the cell thread once it
    /// observes the cancellation, so the gauge never goes negative and
    /// drains to zero when every abandoned thread has exited.
    pub fn run(&self, cell: &Cell, timeout: Duration) -> RunRecord {
        let start = Instant::now();
        let (tx, rx) = mpsc::channel();
        // Deliberately cancel-only (no deadline): the watchdog below is
        // the sole judge of lateness, so the recorded status can never
        // race between its TimedOut row and a cell-side budget error.
        let budget = Budget::unbounded();
        let owned_cell = cell.clone();
        let owned_cache = self.cache.clone();
        let owned_pool = Arc::clone(&self.pool);
        let owned_budget = budget.clone();
        let ctx = sttlock_obs::current_context();
        thread::spawn(move || {
            let _adopted = sttlock_obs::adopt(ctx);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_cell(
                    &owned_cell,
                    owned_cache.as_deref(),
                    &owned_pool,
                    &owned_budget,
                )
            }));
            // The receiver may have given up (timeout); that is fine.
            let _ = tx.send(result);
            if owned_budget.is_cancelled() {
                sttlock_obs::gauge("campaign.abandoned_cells", -1);
            }
        });
        match rx.recv_timeout(timeout) {
            Ok(Ok(record)) => record,
            Ok(Err(payload)) => {
                sttlock_obs::counter("campaign.panic", 1);
                RunRecord {
                    wall_ms: start.elapsed().as_millis() as u64,
                    ..RunRecord::for_cell(cell, RunStatus::Panicked(panic_message(&*payload)))
                }
            }
            Err(_) => {
                sttlock_obs::counter("campaign.timeout", 1);
                sttlock_obs::gauge("campaign.abandoned_cells", 1);
                budget.cancel();
                RunRecord {
                    wall_ms: timeout.as_millis() as u64,
                    ..RunRecord::for_cell(cell, RunStatus::TimedOut)
                }
            }
        }
    }
}

/// The cell's identity under [`journal::journal_key`] — the key the
/// resume journal indexes cells by, for single-node and cluster runs.
pub fn cell_journal_key(cell: &Cell) -> String {
    journal::journal_key(
        cell.circuit.name(),
        &cell.algorithm.to_string(),
        cell.seed,
        cell.attack.tag(),
        &cell.overrides.descriptor(),
        &cell.fault.descriptor(),
    )
}

/// Generates the circuit for a cell (the fault-injection cells fault
/// here, inside the isolation boundary), serving repeats of the same
/// (circuit, seed) pair from the shared pool.
///
/// The pool key includes the full spec debug form, not just the name:
/// two `Custom` specs sharing a name but differing in shape must not
/// collide. The lock is never held across generation, so concurrent
/// first-generations of the same pair may race — generation is
/// deterministic per (spec, seed), making the duplicate work harmless.
fn generate(
    circuit: &CircuitSpec,
    seed: u64,
    pool: &GenPool,
    budget: &Budget,
) -> Result<Arc<Netlist>, String> {
    let key = (format!("{circuit:?}"), seed);
    if let Some(hit) = recover_lock(pool).get(&key) {
        return Ok(Arc::clone(hit));
    }
    let profile = match circuit {
        CircuitSpec::Profile(name) => {
            profiles::by_name(name).ok_or_else(|| format!("unknown benchmark profile `{name}`"))?
        }
        CircuitSpec::Custom {
            gates,
            dffs,
            inputs,
            outputs,
            ..
        } => Profile::custom("custom", *gates, *dffs, *inputs, *outputs),
        CircuitSpec::InjectPanic => panic!("injected panic cell"),
        CircuitSpec::InjectTimeout => {
            // Never finishes on its own; once the runner abandons this
            // thread and cancels its budget, the cancel-aware sleep
            // returns within ~10 ms instead of dozing for an hour.
            while budget.sleep(Duration::from_secs(3600)) {}
            return Err("cancelled after timeout".to_owned());
        }
        CircuitSpec::InjectPoison => {
            // Poison the pool lock the way a real generation bug would:
            // panic while holding the guard. The cell's `catch_unwind`
            // contains the panic; siblings must recover the lock.
            let _guard = recover_lock(pool);
            panic!("injected poison cell");
        }
    };
    let mut rng = StdRng::seed_from_u64(circuit_seed(seed, circuit.name()));
    let netlist = Arc::new(profile.generate(&mut rng));
    recover_lock(pool).insert(key, Arc::clone(&netlist));
    Ok(netlist)
}

/// Runs one cell to completion: generate → cache probe → flow → attack.
///
/// `budget` is the runner's cancel-only abandon budget; it is threaded
/// into every stage (flow selection, repair rounds, attack oracle
/// queries all check it) so an abandoned cell stops mid-stage. The
/// early-return record of a cancelled cell is discarded — the runner
/// already recorded the timeout row.
fn run_cell(cell: &Cell, cache: Option<&Cache>, pool: &GenPool, budget: &Budget) -> RunRecord {
    let start = Instant::now();
    let fail = |status| RunRecord {
        wall_ms: start.elapsed().as_millis() as u64,
        ..RunRecord::for_cell(cell, status)
    };

    let netlist = {
        let _s = sttlock_obs::span!("cell.generate");
        match generate(&cell.circuit, cell.seed, pool, budget) {
            Ok(n) => n,
            Err(message) => return fail(RunStatus::Failed(message)),
        }
    };
    if budget.is_cancelled() {
        return fail(RunStatus::TimedOut);
    }

    // The key covers the cell descriptor and the generated circuit text,
    // so a generator change invalidates exactly the affected cells. The
    // fault component joins only when the model can inject something:
    // a no-op model must hit the same cache entries as a campaign with
    // no fault axis at all.
    let mut descriptor = format!(
        "{}|{}|{}|{}|{}",
        cell.circuit.name(),
        cell.algorithm,
        cell.seed,
        cell.attack.descriptor(),
        cell.overrides.descriptor()
    );
    if !cell.fault.is_noop() {
        descriptor.push('|');
        descriptor.push_str(&cell.fault.descriptor());
    }
    let key = cell_key(&descriptor, &bench_format::write(&netlist));
    if let Some(cache) = cache {
        if let Some(mut hit) = cache::lookup(cache, key) {
            sttlock_obs::counter("campaign.cache_hit", 1);
            hit.cached = true;
            return hit;
        }
        sttlock_obs::counter("campaign.cache_miss", 1);
    }

    let mut flow = Flow::new(Library::predictive_90nm());
    if let Some(gates) = cell.overrides.independent_gates {
        flow.selection.independent_gates = gates;
    }
    if let Some(paths) = cell.overrides.parametric_paths {
        flow.selection.parametric_paths = Some(paths);
    }
    let outcome = {
        let _s = sttlock_obs::span!("cell.flow");
        match flow.run_budgeted(&netlist, cell.algorithm, cell.seed, budget) {
            Ok(o) => o,
            // A budget trip mid-flow is the runner's abandonment, not a
            // flow defect; the record is discarded either way, but keep
            // the status honest.
            Err(FlowError::Budget(_)) => return fail(RunStatus::TimedOut),
            Err(e) => return fail(RunStatus::Failed(format!("flow failed: {e}"))),
        }
    };
    if budget.is_cancelled() {
        return fail(RunStatus::TimedOut);
    }
    let report = &outcome.report;
    let flow_metrics = FlowMetrics {
        perf_pct: report.performance_degradation_pct,
        power_pct: report.power_overhead_pct,
        leakage_pct: report.leakage_overhead_pct,
        area_pct: report.area_overhead_pct,
        stt_count: report.stt_count,
        selection_ms: report.selection_time.as_secs_f64() * 1e3,
        n_indep_log10: report.security.n_indep.log10(),
        n_dep_log10: report.security.n_dep.log10(),
        n_bf_log10: report.security.n_bf.log10(),
    };

    // The robustness leg: corrupt a clone of the programmed part, then
    // run the self-healing verify-and-repair loop against the golden
    // netlist, with the (still faulty) injector as the programming
    // channel. The pristine hybrid stays untouched for the attack leg.
    let repair = if cell.fault.is_noop() {
        None
    } else {
        let _s = sttlock_obs::span!("cell.repair");
        match run_fault(cell, &netlist, &outcome, budget) {
            Ok(m) => Some(m),
            Err(message) => {
                let mut r = fail(RunStatus::Failed(message));
                r.flow = Some(flow_metrics);
                r.gates = netlist.gate_count();
                return r;
            }
        }
    };
    if budget.is_cancelled() {
        return fail(RunStatus::TimedOut);
    }

    let attack_span = sttlock_obs::span!("cell.attack", kind = cell.attack.tag());
    let attack_metrics = match run_attack(cell, &outcome.hybrid, budget) {
        Ok(m) => m,
        Err(message) => {
            let mut r = fail(RunStatus::Failed(message));
            // The flow part succeeded; keep its metrics on the failure
            // row so a broken attack does not erase the overhead data.
            r.flow = Some(flow_metrics);
            r.gates = netlist.gate_count();
            r.repair = repair;
            return r;
        }
    };
    drop(attack_span);

    let record = RunRecord {
        gates: netlist.gate_count(),
        flow: Some(flow_metrics),
        attack_metrics,
        repair,
        wall_ms: start.elapsed().as_millis() as u64,
        ..RunRecord::for_cell(cell, RunStatus::Ok)
    };
    if let Some(cache) = cache {
        cache::store(cache, key, &record);
    }
    record
}

/// Runs the cell's fault model: clones the programmed device, corrupts
/// it with a deterministic [`FaultInjector`], and drives the
/// verify-and-repair loop with that same injector as the programming
/// channel (so re-programming retries can themselves fail, and stuck
/// rows stay stuck). The fault seed derives from the circuit-generation
/// stream so every (circuit, seed, model) cell is reproducible in
/// isolation.
fn run_fault(
    cell: &Cell,
    golden: &Netlist,
    outcome: &FlowOutcome,
    budget: &Budget,
) -> Result<RepairMetrics, String> {
    let mut device = outcome.overlay.clone();
    let fault_seed = circuit_seed(cell.seed, cell.circuit.name()) ^ 0xFA17_5EED;
    let mut injector = FaultInjector::new(cell.fault, fault_seed);
    let injected = injector.corrupt(&mut device);
    let report = verify_and_repair(
        golden,
        &mut device,
        &outcome.bitstream,
        &mut injector,
        &RepairConfig::default(),
        fault_seed,
        budget,
    )
    .map_err(|e| format!("repair failed: {e}"))?;
    let faulted = estimate::security_under_faults(&outcome.hybrid, cell.fault.row_fault_p());
    Ok(RepairMetrics {
        verdict: report.verdict.tag().to_owned(),
        faults_injected: injected.len() as u64,
        vectors_run: report.vectors_run,
        retries: report.retries,
        reprogram_attempts: report.reprogram_attempts,
        initial_mismatches: report.initial_mismatches as u64,
        residual_mismatches: report.residual_mismatches as u64,
        repaired_luts: report.repaired_luts.len() as u64,
        failed_luts: report.failed_luts.len() as u64,
        n_bf_faulted_log10: faulted.n_bf.log10(),
    })
}

/// Runs the cell's attack against the (foundry view, programmed part)
/// pair produced by the flow.
fn run_attack(
    cell: &Cell,
    hybrid: &Netlist,
    budget: &Budget,
) -> Result<Option<AttackMetrics>, String> {
    if cell.attack == AttackKind::None {
        // No attack: skip building the foundry view.
        return Ok(None);
    }
    let foundry = hybrid.redact().0;
    sttlock_attack::run(cell.attack, &foundry, hybrid, cell.seed, budget)
        .map(|outcome| outcome.map(|o| o.metrics()))
        .map_err(|e| format!("attack failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalEntry, JOURNAL_SCHEMA_VERSION};

    fn small(name: &str) -> CircuitSpec {
        CircuitSpec::Custom {
            name: name.to_owned(),
            gates: 60,
            dffs: 4,
            inputs: 6,
            outputs: 4,
        }
    }

    fn quick_spec(circuits: Vec<CircuitSpec>) -> CampaignSpec {
        CampaignSpec {
            circuits,
            algorithms: vec![sttlock_core::SelectionAlgorithm::Independent],
            seeds: vec![3],
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn a_small_grid_completes_with_metrics_in_order() {
        let spec = CampaignSpec {
            circuits: vec![small("tiny-a"), small("tiny-b")],
            algorithms: sttlock_core::SelectionAlgorithm::ALL.to_vec(),
            seeds: vec![3],
            jobs: 2,
            ..CampaignSpec::default()
        };
        let result = execute(&spec);
        assert_eq!(result.records.len(), 6);
        assert_eq!(result.ok_count(), 6);
        // Order matches the grid, not completion order.
        assert!(result.records[..3].iter().all(|r| r.circuit == "tiny-a"));
        for r in &result.records {
            let flow = r.flow.expect("ok cells carry flow metrics");
            assert!(flow.stt_count > 0);
            assert!(flow.n_bf_log10 > 0.0);
            assert_eq!(r.gates, 60);
        }
    }

    #[test]
    fn injected_panic_is_a_recorded_failure_not_an_abort() {
        let spec = quick_spec(vec![CircuitSpec::InjectPanic, small("survivor")]);
        let result = execute(&spec);
        assert_eq!(result.records.len(), 2);
        assert_eq!(
            result.records[0].status,
            RunStatus::Panicked("injected panic cell".into())
        );
        assert!(result.records[1].status.is_ok(), "siblings keep going");
    }

    /// Serializes tests that install an obs collector, and the resume
    /// tests whose replay counters would land in one: the registry is
    /// process-global.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn injected_timeout_is_recorded_and_the_abandoned_thread_drains() {
        let _guard = obs_lock();
        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        let spec = CampaignSpec {
            timeout: Duration::from_millis(100),
            ..quick_spec(vec![CircuitSpec::InjectTimeout, small("survivor")])
        };
        let t0 = Instant::now();
        let result = execute(&spec);
        assert_eq!(result.records[0].status, RunStatus::TimedOut);
        assert!(result.records[1].status.is_ok());
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the campaign must not wait for the runaway cell"
        );
        assert_eq!(collector.counter_value("campaign.timeout"), 1);
        // The abandoned thread observes the cancel flag and winds down:
        // the live-abandoned gauge must drain back to zero (on the seed
        // code the thread slept for an hour and the gauge never moved).
        let deadline = Instant::now() + Duration::from_secs(10);
        while collector.gauge_value("campaign.abandoned_cells") != 0 {
            assert!(
                Instant::now() < deadline,
                "abandoned cell thread never wound down"
            );
            thread::sleep(Duration::from_millis(10));
        }
        sttlock_obs::uninstall();
    }

    #[test]
    fn a_cell_poisoning_the_pool_lock_does_not_sink_sibling_cells() {
        let _guard = obs_lock();
        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        // jobs: 1 runs the grid in order: the poisoning cell panics while
        // holding the generation-pool lock before any sibling touches it.
        let spec = CampaignSpec {
            jobs: 1,
            ..quick_spec(vec![
                CircuitSpec::InjectPoison,
                small("poison-survivor-a"),
                small("poison-survivor-b"),
            ])
        };
        let result = execute(&spec);
        sttlock_obs::uninstall();
        assert_eq!(
            result.records[0].status,
            RunStatus::Panicked("injected poison cell".into())
        );
        assert!(
            result.records[1].status.is_ok() && result.records[2].status.is_ok(),
            "siblings must recover the poisoned lock, not abort: {:?}",
            &result.records[1..]
        );
        assert!(collector.counter_value("campaign.poison_recovered") >= 1);
    }

    /// Reads every intact journal entry without healing the file.
    fn read_entries(path: &std::path::Path) -> Vec<JournalEntry> {
        sttlock_store::read_all::<JournalEntry>(path).unwrap().0
    }

    /// Rewrites the journal to exactly `entries`, framed.
    fn write_entries(path: &std::path::Path, entries: &[JournalEntry]) {
        use sttlock_store::Record as _;
        let mut bytes = Vec::new();
        for e in entries {
            bytes.extend_from_slice(&sttlock_store::frame::encode(&e.encode()));
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn resume_reruns_exactly_the_cell_with_a_torn_journal_record() {
        use sttlock_store::Record as _;
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-torn", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            jobs: 1,
            ..quick_spec(vec![small("torn-a"), small("torn-b"), small("torn-c")])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 3);
        assert_eq!(first.journal_recovery.unwrap().records, 0, "fresh journal");
        let mut entries = read_entries(&journal);
        assert_eq!(entries.len(), 3);

        // Simulate a crash mid-append: stamp the intact records with a
        // sentinel wall time, then cut the final record's frame in half.
        let mut bytes = Vec::new();
        let torn = entries.pop().unwrap();
        for e in &mut entries {
            e.record.wall_ms = 999_999;
            bytes.extend_from_slice(&sttlock_store::frame::encode(&e.encode()));
        }
        let torn_frame = sttlock_store::frame::encode(&torn.encode());
        bytes.extend_from_slice(&torn_frame[..torn_frame.len() / 2]);
        std::fs::write(&journal, &bytes).unwrap();

        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec.clone()
        });
        assert_eq!(resumed.records.len(), 3);
        assert_eq!(resumed.records[0].wall_ms, 999_999, "intact record replays");
        assert_eq!(resumed.records[1].wall_ms, 999_999, "intact record replays");
        assert!(resumed.records[2].status.is_ok());
        assert_ne!(
            resumed.records[2].wall_ms, 999_999,
            "the torn cell re-executes"
        );
        // The recovery is structured, not silent: the resume reports
        // the dropped tail bytes.
        let recovery = resumed.journal_recovery.unwrap();
        assert_eq!(recovery.records, 2);
        assert!(recovery.dropped_bytes > 0);

        // The journal healed: the torn frame was truncated away and
        // exactly one fresh record was appended, so a second resume
        // replays all three cells verbatim and appends nothing.
        assert_eq!(read_entries(&journal).len(), 3);
        let second = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        assert!(second.records.iter().all(|r| r.status.is_ok()));
        assert!(second.journal_recovery.unwrap().is_clean());
        assert_eq!(
            read_entries(&journal).len(),
            3,
            "a fully replayed resume appends nothing"
        );
    }

    #[test]
    fn a_worker_dying_after_the_cell_still_yields_a_full_record_set() {
        let _guard = obs_lock();
        // A collector whose span-close sink panics for one specific
        // cell: the close fires between the cell producing its record
        // and the worker filling the result slot, so on the pre-fix
        // code the slot stayed empty and collection aborted the whole
        // campaign with "every cell produces a record".
        struct Bomb;
        impl sttlock_obs::Collector for Bomb {
            fn span_close(&self, span: sttlock_obs::SpanData) {
                if span.name == "campaign.cell"
                    && span.fields.iter().any(|(k, v)| {
                        *k == "circuit"
                            && matches!(v, sttlock_obs::FieldValue::Str(s) if s == "bombed")
                    })
                {
                    panic!("collector bomb");
                }
            }
            fn counter_add(&self, _: &'static str, _: u64) {}
            fn gauge_add(&self, _: &'static str, _: i64) {}
            fn observe_us(&self, _: &'static str, _: u64) {}
        }
        sttlock_obs::install(Arc::new(Bomb));
        let spec = CampaignSpec {
            jobs: 1,
            ..quick_spec(vec![small("bombed"), small("bomb-survivor")])
        };
        let result = execute(&spec);
        sttlock_obs::uninstall();
        assert_eq!(result.records.len(), 2, "one record per cell, no abort");
        assert_eq!(result.records[0].circuit, "bombed");
        assert!(
            matches!(&result.records[0].status, RunStatus::Failed(m) if m.contains("worker")),
            "lost slots synthesize a structured failure: {:?}",
            result.records[0].status
        );
        assert!(
            result.records[1].status.is_ok(),
            "the worker keeps draining cells after the panic: {:?}",
            result.records[1].status
        );
    }

    #[test]
    fn empty_slots_synthesize_failure_records_in_grid_order() {
        let spec = quick_spec(vec![small("kept"), small("lost")]);
        let run = GridRun::open(&spec, None, false);
        let kept = RunRecord::failure("kept", "independent", 3, "none", RunStatus::Ok);
        run.record(0, kept.clone());
        assert_eq!(run.pending(), [1]);
        let records = run.finish().records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], kept);
        assert_eq!(records[1].circuit, "lost");
        assert_eq!(records[1].seed, 3);
        assert!(matches!(&records[1].status, RunStatus::Failed(m) if m.contains("worker")));
    }

    #[test]
    fn resume_with_a_corrupt_journal_selection_time_renders_a_placeholder() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-corrupt-render", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            jobs: 1,
            ..quick_spec(vec![small("corrupt-t2")])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 1);

        // Hand-corrupt the journaled record the way a bad edit or torn
        // float does: a negative selection time. Resume replays `ok`
        // records verbatim, so the corrupt value reaches the renderer —
        // which pre-fix panicked inside `Duration::from_secs_f64`.
        let mut entries = read_entries(&journal);
        entries[0].record.flow.as_mut().unwrap().selection_ms = -250.0;
        write_entries(&journal, &entries);

        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        assert_eq!(resumed.records[0].flow.unwrap().selection_ms, -250.0);
        let table = crate::render::render_table2(&resumed.records, 3);
        assert!(table.contains("(invalid)"), "{table}");
    }

    #[test]
    fn unknown_profiles_fail_without_poisoning_the_grid() {
        let spec = quick_spec(vec![CircuitSpec::Profile("s999999".into()), small("ok")]);
        let result = execute(&spec);
        assert!(matches!(&result.records[0].status, RunStatus::Failed(m) if m.contains("s999999")));
        assert!(result.records[1].status.is_ok());
    }

    #[test]
    fn failure_rows_of_fault_cells_keep_their_fault_descriptor() {
        // A fault cell that fails must not be written as its fault-free
        // twin: `journal_key` reads the record's `fault` field, so the
        // twin's key would shadow the twin's own ok entry on resume.
        let spec = CampaignSpec {
            faults: vec![
                sttlock_fault::FaultModel::default(),
                sttlock_fault::FaultModel::write_failures(0.05),
            ],
            ..quick_spec(vec![CircuitSpec::Profile("s999999".into())])
        };
        let result = execute(&spec);
        let faults: Vec<&str> = result.records.iter().map(|r| r.fault.as_str()).collect();
        assert_eq!(faults, ["none", "wf=0.05"]);
        assert!(result.records.iter().all(|r| !r.status.is_ok()));
        // The fault-free row serializes exactly as before: no fault keys.
        assert!(!result.records[0]
            .to_json()
            .to_string()
            .contains("\"fault\""));

        // The timed-out and panicked rows start from the same skeleton.
        let cell = &spec.cells()[1];
        for status in [RunStatus::TimedOut, RunStatus::Panicked("p".into())] {
            assert_eq!(RunRecord::for_cell(cell, status).fault, "wf=0.05");
        }
    }

    #[test]
    fn rerunning_an_unchanged_grid_hits_the_cache() {
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-rerun", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CampaignSpec {
            cache_dir: Some(dir.clone()),
            ..quick_spec(vec![small("cached-a"), small("cached-b")])
        };
        let first = execute(&spec);
        assert_eq!(first.cache_hits(), 0);
        assert_eq!(first.ok_count(), 2);

        let second = execute(&spec);
        assert_eq!(second.cache_hits(), 2, "unchanged cells must hit");
        // Cached records are the original records, marked cached.
        for (warm, cold) in second.records.iter().zip(&first.records) {
            assert_eq!(
                &RunRecord {
                    cached: false,
                    ..warm.clone()
                },
                cold
            );
        }

        // Changing the seed changes the generated circuit => full miss.
        let changed = CampaignSpec {
            seeds: vec![4],
            ..spec
        };
        assert_eq!(execute(&changed).cache_hits(), 0);

        // The whole cache is one record log.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["campaign-cache.log"]);
    }

    #[test]
    fn attacks_break_the_small_circuit_and_log_solver_stats() {
        let spec = CampaignSpec {
            attacks: vec![
                AttackKind::Sat { max_dips: 10_000 },
                AttackKind::SequentialSat {
                    frames: 3,
                    max_dips: 10_000,
                },
                AttackKind::Sensitization,
            ],
            ..quick_spec(vec![small("attacked")])
        };
        let result = execute(&spec);
        assert_eq!(result.ok_count(), 3);
        let sat = result.records[0].attack_metrics.unwrap();
        assert!(sat.broke, "full-scan SAT attack breaks 5 independent LUTs");
        assert!(sat.decisions > 0);
        let seq = result.records[1].attack_metrics.unwrap();
        assert_eq!(seq.frames, 3);
        let sens = result.records[2].attack_metrics.unwrap();
        assert!(sens.test_clocks > 0);
    }

    #[test]
    fn fault_cells_run_the_repair_loop_and_record_metrics() {
        let spec = CampaignSpec {
            faults: vec![sttlock_fault::FaultModel::write_failures(0.05)],
            ..quick_spec(vec![small("faulted")])
        };
        let result = execute(&spec);
        assert_eq!(result.ok_count(), 1);
        let r = &result.records[0];
        assert_eq!(r.fault, "wf=0.05");
        let m = r.repair.as_ref().expect("fault cells carry repair metrics");
        assert_eq!(m.verdict, "recovered", "write failures are repairable");
        assert!(
            m.faults_injected > 0,
            "wf=0.05 must corrupt at least one row of this hybrid"
        );
        assert!(m.vectors_run > 0);
        let flow = r.flow.expect("flow metrics still present");
        assert!(
            m.n_bf_faulted_log10 <= flow.n_bf_log10,
            "faults can only leak key bits, never add them"
        );
    }

    #[test]
    fn a_p0_fault_sweep_is_byte_identical_to_the_fault_free_path() {
        let fault_free = CampaignSpec {
            jobs: 1,
            ..quick_spec(vec![small("p0")])
        };
        let p0_sweep = CampaignSpec {
            faults: vec![sttlock_fault::FaultModel::write_failures(0.0)],
            ..fault_free.clone()
        };
        let zeroed = |spec: &CampaignSpec| {
            let mut result = execute(spec);
            for r in &mut result.records {
                // Blank the two wall-clock measurements; everything else
                // must match bit for bit.
                r.wall_ms = 0;
                if let Some(flow) = &mut r.flow {
                    flow.selection_ms = 0.0;
                }
            }
            result.to_jsonl()
        };
        assert_eq!(zeroed(&fault_free), zeroed(&p0_sweep));
        let line = zeroed(&p0_sweep);
        assert!(
            !line.contains("\"fault\":"),
            "no fault keys may leak into p=0 records: {line}"
        );
    }

    #[test]
    fn resume_replays_ok_cells_and_reruns_failures() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-resume", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            ..quick_spec(vec![
                small("resume-a"),
                CircuitSpec::Profile("s999999".into()),
                small("resume-b"),
            ])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 2);
        let mut entries = read_entries(&journal);
        assert_eq!(entries.len(), 3, "one entry per executed cell");

        // Stamp the journaled ok records with a sentinel wall time; a
        // resumed campaign must serve them verbatim from the journal.
        for e in &mut entries {
            if e.record.status.is_ok() {
                e.record.wall_ms = 999_999;
            }
        }
        write_entries(&journal, &entries);

        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        assert_eq!(resumed.records.len(), 3);
        assert_eq!(resumed.records[0].wall_ms, 999_999, "replayed, not re-run");
        assert_eq!(resumed.records[2].wall_ms, 999_999, "replayed, not re-run");
        assert!(
            matches!(&resumed.records[1].status, RunStatus::Failed(m) if m.contains("s999999")),
            "the failed cell re-executes"
        );
        // Only the re-executed cell appended to the journal.
        assert_eq!(read_entries(&journal).len(), 4);
    }

    /// A record with its two wall-clock measurements blanked.
    fn zeroed(record: &RunRecord) -> RunRecord {
        let mut r = record.clone();
        r.wall_ms = 0;
        if let Some(flow) = &mut r.flow {
            flow.selection_ms = 0.0;
        }
        r
    }

    #[test]
    fn an_ok_journal_entry_without_flow_metrics_reruns() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-skewed", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            jobs: 1,
            ..quick_spec(vec![small("skew-a"), small("skew-b")])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 2);

        // Strip the flow metrics from one ok record the way an older
        // journal format would lack them: the status stays ok but the
        // payload no longer matches what consumers of ok rows expect.
        let mut entries = read_entries(&journal);
        entries[0].record.flow = None;
        entries[1].record.wall_ms = 999_999;
        write_entries(&journal, &entries);

        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        sttlock_obs::uninstall();
        assert_eq!(
            zeroed(&resumed.records[0]),
            zeroed(&first.records[0]),
            "the rejected entry must re-run, not replay"
        );
        assert_eq!(
            resumed.records[1].wall_ms, 999_999,
            "the intact entry still replays"
        );
        assert_eq!(collector.counter_value("campaign.skewed_replays"), 1);
        assert_eq!(collector.counter_value("campaign.replayed"), 1);
    }

    #[test]
    fn a_schema_skewed_journal_entry_reruns() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-schema-skew", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            jobs: 1,
            ..quick_spec(vec![small("schema-a"), small("schema-b")])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 2);

        // Re-stamp one entry with a foreign schema version. Its CRC is
        // valid — the framing accepts it — but the recorded schema no
        // longer matches what this build writes, so `--resume` must run
        // the cell again instead of replaying it.
        let mut entries = read_entries(&journal);
        entries[0].schema = JOURNAL_SCHEMA_VERSION + 1;
        write_entries(&journal, &entries);

        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        sttlock_obs::uninstall();
        assert_eq!(zeroed(&resumed.records[0]), zeroed(&first.records[0]));
        assert_eq!(resumed.records[1], first.records[1], "intact entry replays");
        assert_eq!(collector.counter_value("campaign.skewed_replays"), 1);
        // The fresh record went into the journal after the skewed one.
        let after = read_entries(&journal);
        assert_eq!(after.len(), 3);
        assert_eq!(after[2].schema, JOURNAL_SCHEMA_VERSION);
    }

    #[test]
    fn a_legacy_jsonl_journal_migrates_and_its_cells_rerun() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-runner-tests")
            .join(format!("{}-legacy", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let spec = CampaignSpec {
            journal: Some(journal.clone()),
            jobs: 1,
            ..quick_spec(vec![small("legacy-a")])
        };
        let first = execute(&spec);
        assert_eq!(first.ok_count(), 1);

        // Rewrite the journal the way PR-6-era code stored it: bare
        // JSONL, no framing. Opening it must migrate in place, and the
        // migrated entries (schema 0) must refuse to replay.
        let entries = read_entries(&journal);
        let mut legacy = String::new();
        for e in &entries {
            legacy.push_str(&format!("{}\n", e.record.to_json()));
        }
        std::fs::write(&journal, &legacy).unwrap();

        let collector = sttlock_obs::TraceCollector::new();
        sttlock_obs::install(collector.clone());
        let resumed = execute(&CampaignSpec {
            resume: true,
            ..spec
        });
        sttlock_obs::uninstall();
        assert_eq!(zeroed(&resumed.records[0]), zeroed(&first.records[0]));
        assert_eq!(collector.counter_value("campaign.skewed_replays"), 1);
        // The file is framed again, and the re-run cell's record was
        // appended after the migrated one.
        let after = read_entries(&journal);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].schema, 0);
        assert_eq!(after[1].schema, JOURNAL_SCHEMA_VERSION);
    }

    #[test]
    fn parallel_and_serial_grids_emit_byte_identical_jsonl() {
        // Differential check for the exec-pool worker loop: the same
        // grid on one worker and on four must produce byte-identical
        // records (modulo wall-clock fields) in identical order.
        let grid = |jobs: usize| CampaignSpec {
            jobs,
            algorithms: sttlock_core::SelectionAlgorithm::ALL.to_vec(),
            attacks: vec![AttackKind::None, AttackKind::Sensitization],
            faults: vec![
                sttlock_fault::FaultModel::default(),
                sttlock_fault::FaultModel::write_failures(0.05),
            ],
            ..quick_spec(vec![small("diff-a"), small("diff-b")])
        };
        let zeroed = |spec: &CampaignSpec| {
            let mut result = execute(spec);
            for r in &mut result.records {
                r.wall_ms = 0;
                if let Some(flow) = &mut r.flow {
                    flow.selection_ms = 0.0;
                }
            }
            result.to_jsonl()
        };
        let serial = zeroed(&grid(1));
        let parallel = zeroed(&grid(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.lines().count(), 24);
    }

    #[test]
    fn jsonl_output_has_one_valid_line_per_cell() {
        let spec = quick_spec(vec![CircuitSpec::InjectPanic, small("lines")]);
        let result = execute(&spec);
        let jsonl = result.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(RunRecord::from_json(&v).is_some(), "{line}");
        }
    }
}
