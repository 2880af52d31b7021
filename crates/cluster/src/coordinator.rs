//! The cluster coordinator: worker registry, campaign dispatch with
//! redispatch-on-failure, journaling, and `/v1/harden` fan-out.
//!
//! # Dispatch and merge
//!
//! Each round, every live worker gets one dispatch lane, and the lanes
//! pull the pending cells, in grid order, from one shared queue: a lane
//! takes the next cell the moment its worker answers, so no lane idles
//! while cells wait. Which worker runs a cell therefore depends on
//! timing, but the output does not: results are merged positionally
//! against [`CampaignSpec::cells`] order, so the merged JSONL is
//! byte-identical to a single-node run no matter which worker ran or
//! finished a cell first.
//!
//! # Failure handling
//!
//! A dispatch that fails — connection refused/dropped, a non-200, a
//! response that does not decode under the current protocol version,
//! a record for some other cell — evicts the worker from the registry
//! and leaves the cell pending; that worker's lane stops, the other
//! lanes keep draining the queue, and the next round dispatches what is
//! left over the survivors, with a capped exponential backoff between
//! barren rounds. A worker that was only transiently slow rejoins the
//! pool with its next heartbeat.
//!
//! # Crash recovery
//!
//! The grid's journal, replay rule and merge are the campaign crate's
//! [`GridRun`], the bookkeeping `campaign::execute` runs on too. With a
//! journal configured, every record a worker returns is appended to it
//! — the file `campaign --journal` writes. Reopening with `resume`
//! replays the journal's replayable entries and re-dispatches only the
//! other cells; a single-node run can resume the journal too, and vice
//! versa, with the same result.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sttlock_campaign::journal::record_key;
use sttlock_campaign::json::Json;
use sttlock_campaign::{cell_journal_key, CampaignResult, CampaignSpec, Cell, GridRun, RunRecord};
use sttlock_exec::{Backoff, Budget};
use sttlock_serve::http::Response;
use sttlock_serve::{client, ServeConfig, Server};

use crate::protocol::{CellRequest, CellResponse, Heartbeat};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Campaign dispatch waits until this many workers are registered
    /// before the first round; after that the run keeps progressing on
    /// any non-empty live set (losing workers degrades throughput, it
    /// never re-blocks on the quorum).
    pub min_workers: usize,
    /// A worker whose last heartbeat is older than this is evicted.
    pub heartbeat_timeout: Duration,
    /// Slack added to the campaign's per-cell timeout for each
    /// dispatch round trip (serialization, transfer, queueing).
    pub dispatch_margin: Duration,
    /// Campaign journal path (`None` disables journaling): the file
    /// `campaign --journal` writes, appended with every record a worker
    /// returns.
    pub journal: Option<PathBuf>,
    /// Replay the journal's clean entries instead of re-dispatching
    /// their cells.
    pub resume: bool,
    /// Backoff schedule between barren dispatch rounds.
    pub backoff: Backoff,
    /// Install this server's collector as the process-global obs
    /// collector (off for in-process cluster tests).
    pub install_obs: bool,
    /// Record a full span trace, written on shutdown.
    pub trace_path: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            listen: "127.0.0.1:0".to_owned(),
            min_workers: 1,
            heartbeat_timeout: Duration::from_secs(5),
            dispatch_margin: Duration::from_secs(30),
            journal: None,
            resume: false,
            backoff: Backoff::default(),
            install_obs: true,
            trace_path: None,
        }
    }
}

/// One registered worker, as its last heartbeat described it.
#[derive(Debug, Clone)]
struct WorkerInfo {
    addr: String,
    last_seen: Instant,
    load: u64,
}

/// The live worker registry, iterated in worker-id order.
#[derive(Default)]
struct Registry {
    workers: BTreeMap<String, WorkerInfo>,
}

fn lock(registry: &Mutex<Registry>) -> MutexGuard<'_, Registry> {
    registry.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running coordinator.
pub struct Coordinator {
    server: Server,
    registry: Arc<Mutex<Registry>>,
    cfg: CoordinatorConfig,
}

/// Starts the coordinator's HTTP server (heartbeats, harden fan-out).
/// Campaign dispatch is driven by the caller through
/// [`Coordinator::run_campaign`].
pub fn start_coordinator(cfg: CoordinatorConfig) -> io::Result<Coordinator> {
    let registry: Arc<Mutex<Registry>> = Arc::new(Mutex::new(Registry::default()));
    let router: sttlock_serve::Router = {
        let registry = Arc::clone(&registry);
        Arc::new(move |req, budget| route(&registry, req, budget))
    };
    let server = Server::start_with_router(
        ServeConfig {
            addr: cfg.listen.clone(),
            install_obs: cfg.install_obs,
            trace_path: cfg.trace_path.clone(),
            ..ServeConfig::default()
        },
        Some(router),
    )?;
    Ok(Coordinator {
        server,
        registry,
        cfg,
    })
}

impl Coordinator {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// Currently registered (not yet evicted) worker count.
    pub fn worker_count(&self) -> usize {
        self.evict_stale();
        lock(&self.registry).workers.len()
    }

    /// Shuts the server down; returns the metrics digest.
    pub fn shutdown(self) -> String {
        self.server.shutdown()
    }

    /// Runs a campaign grid across the registered workers.
    ///
    /// Blocks the calling thread until every cell has a record or
    /// `budget` trips; a tripped budget leaves structured failure rows
    /// for the cells still pending, preserving the one-record-per-cell
    /// grid invariant.
    pub fn run_campaign(&self, spec: &CampaignSpec, budget: &Budget) -> CampaignResult {
        let run = GridRun::open(spec, self.cfg.journal.as_deref(), self.cfg.resume);
        let keys: Vec<String> = run.cells().iter().map(cell_journal_key).collect();
        let timeout_ms = spec.timeout.as_millis() as u64;
        let dispatch_timeout = spec.timeout + self.cfg.dispatch_margin;
        let mut dispatched_once: HashSet<usize> = HashSet::new();
        let mut round = 0u32;

        // The quorum gates only the *first* dispatch: once the run is
        // underway, any single live worker keeps it progressing — a
        // worker crash that drops the cluster below `min_workers` must
        // degrade throughput, never deadlock the campaign.
        let mut wait_round = 0u32;
        while !budget.exhausted() {
            self.evict_stale();
            if lock(&self.registry).workers.len() >= self.cfg.min_workers.max(1) {
                break;
            }
            if !budget.sleep(self.cfg.backoff.delay(wait_round)) {
                break;
            }
            wait_round = wait_round.saturating_add(1);
        }

        loop {
            let pending = run.pending();
            if pending.is_empty() || budget.exhausted() {
                break;
            }
            self.evict_stale();
            let alive: Vec<(String, String)> = lock(&self.registry)
                .workers
                .iter()
                .map(|(id, w)| (id.clone(), w.addr.clone()))
                .collect();
            if alive.is_empty() {
                if !budget.sleep(self.cfg.backoff.delay(round)) {
                    break;
                }
                round = round.saturating_add(1);
                continue;
            }

            // One lane per live worker, all pulling from one queue: the
            // pending cells in grid order behind a shared cursor.
            let next = AtomicUsize::new(0);
            let failed: Mutex<Vec<String>> = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for (worker_id, addr) in &alive {
                    let (run, failed, keys) = (&run, &failed, &keys);
                    let (next, pending, dispatched_once) = (&next, &pending, &dispatched_once);
                    s.spawn(move || {
                        // Relaxed: the cursor only hands out indices; a
                        // cell's record is published by `GridRun`'s lock.
                        while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                            if budget.exhausted() {
                                return;
                            }
                            sttlock_obs::counter("cluster.dispatch", 1);
                            if dispatched_once.contains(&i) {
                                sttlock_obs::counter("cluster.redispatch", 1);
                            }
                            match dispatch_cell(
                                addr,
                                &run.cells()[i],
                                &keys[i],
                                timeout_ms,
                                dispatch_timeout,
                                budget,
                            ) {
                                Some(record) => run.record(i, record),
                                None => {
                                    // The worker died, timed out or
                                    // answered skewed: evict it and
                                    // leave this cell pending for the
                                    // next round; the other lanes keep
                                    // draining the queue.
                                    failed
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .push(worker_id.clone());
                                    return;
                                }
                            }
                        }
                    });
                }
            });

            dispatched_once.extend(pending.iter().copied());
            let progressed = run.pending().len() < pending.len();
            for worker_id in failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
                if lock(&self.registry).workers.remove(&worker_id).is_some() {
                    sttlock_obs::counter("cluster.evicted_workers", 1);
                }
            }

            if progressed {
                round = 0;
            } else {
                if !budget.sleep(self.cfg.backoff.delay(round)) {
                    break;
                }
                round = round.saturating_add(1);
            }
        }

        let result = run.finish();
        sttlock_obs::counter("cluster.merge", result.records.len() as u64);
        result
    }

    /// Drops workers whose last heartbeat is older than the timeout.
    fn evict_stale(&self) {
        let timeout = self.cfg.heartbeat_timeout;
        let now = Instant::now();
        lock(&self.registry).workers.retain(|_, w| {
            let alive = now.duration_since(w.last_seen) <= timeout;
            if !alive {
                sttlock_obs::counter("cluster.evicted_workers", 1);
            }
            alive
        });
    }
}

/// Ships one cell to a worker and decodes the record. `None` covers
/// every redispatch trigger: transport failure, non-200, a response
/// that is undecodable, version-skewed or carries a record whose
/// journal key is not `key` (another cell's), and a tripped
/// per-dispatch budget.
fn dispatch_cell(
    addr: &str,
    cell: &Cell,
    key: &str,
    timeout_ms: u64,
    dispatch_timeout: Duration,
    budget: &Budget,
) -> Option<RunRecord> {
    // The dispatch runs under its own deadline-capped child budget so
    // one wedged worker cannot outlive the run budget, and the charged
    // step bills the dispatch into the whole ancestor chain.
    let dispatch_budget = budget.child_with(Some(Instant::now() + dispatch_timeout));
    dispatch_budget.charge(1);
    if dispatch_budget.check().is_err() {
        return None;
    }
    let body = CellRequest {
        cell: cell.clone(),
        timeout_ms,
    }
    .to_json()
    .to_string();
    let resp = client::request(addr, "POST", "/v1/cell", Some(&body), dispatch_timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    // The journal files a record under its own identity, so a record
    // for any other cell must not be accepted for this one.
    let record = Json::parse(&resp.body_text())
        .ok()
        .and_then(|v| CellResponse::from_json(&v))
        .map(|d| d.record)
        .filter(|r| record_key(r) == key);
    if record.is_none() {
        sttlock_obs::counter("cluster.skewed_responses", 1);
    }
    record
}

/// The coordinator's overlay routes: heartbeats and harden fan-out.
/// Everything else falls through to the built-in serve routes (health,
/// metrics, admin shutdown).
fn route(
    registry: &Mutex<Registry>,
    req: &sttlock_serve::http::Request,
    budget: &Budget,
) -> Option<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/cluster/heartbeat") => Some(heartbeat(registry, &req.body)),
        ("POST", "/v1/harden") => Some(fan_out(registry, &req.body, budget)),
        _ => None,
    }
}

/// Inserts or refreshes the heartbeating worker: a heartbeat from an
/// unknown worker (first contact, after an eviction or a coordinator
/// restart) registers it.
fn heartbeat(registry: &Mutex<Registry>, body: &[u8]) -> Response {
    let text = String::from_utf8_lossy(body);
    let Some(msg) = Json::parse(&text)
        .ok()
        .and_then(|v| Heartbeat::from_json(&v))
    else {
        return Response::error(400, "malformed or version-skewed heartbeat payload");
    };
    let info = WorkerInfo {
        addr: msg.addr,
        last_seen: Instant::now(),
        load: msg.load,
    };
    if lock(registry).workers.insert(msg.worker, info).is_none() {
        sttlock_obs::counter("cluster.registrations", 1);
    }
    Response::json(200, "{\"ok\":true}".to_owned())
}

/// Routes one `/v1/harden` request to the least-loaded worker. The
/// worker's persistent response cache still applies — the coordinator
/// only forwards bytes.
fn fan_out(registry: &Mutex<Registry>, body: &[u8], budget: &Budget) -> Response {
    let target = {
        let reg = lock(registry);
        reg.workers
            .iter()
            .min_by_key(|(id, w)| (w.load, (*id).clone()))
            .map(|(_, w)| w.addr.clone())
    };
    let Some(addr) = target else {
        return Response::error(503, "no workers registered for harden fan-out")
            .with_retry_after(1);
    };
    sttlock_obs::counter("cluster.fanout", 1);
    let timeout = budget.remaining().unwrap_or(Duration::from_secs(10));
    let text = String::from_utf8_lossy(body).into_owned();
    match client::request(&addr, "POST", "/v1/harden", Some(&text), timeout) {
        Ok(resp) => Response::json(resp.status, resp.body_text()),
        Err(_) => Response::error(503, "the selected worker did not answer"),
    }
}
