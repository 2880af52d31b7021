//! The cluster worker: a serve-based HTTP server that executes
//! dispatched campaign cells, plus a background loop that heartbeats
//! the coordinator.
//!
//! A heartbeat is the worker's registration: the coordinator inserts
//! any worker it does not know, so a worker needs no handshake to join,
//! to rejoin after an eviction, or to survive a coordinator restart.
//! While the coordinator is unreachable the loop backs off with capped
//! exponential delays. Cell execution rides on
//! [`sttlock_campaign::CellExecutor`], so a cell that panics or hangs
//! becomes a structured failure record — the worker process survives
//! everything a local campaign run would.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sttlock_campaign::json::Json;
use sttlock_campaign::CellExecutor;
use sttlock_exec::{Backoff, Budget, CancelToken};
use sttlock_serve::http::Response;
use sttlock_serve::{client, ServeConfig, Server, StopHandle};

use crate::protocol::{CellRequest, CellResponse, Heartbeat};

/// How long a worker waits for the coordinator to answer a heartbeat.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address to join (`host:port`).
    pub coordinator: String,
    /// Bind address for the worker's own server (`127.0.0.1:0` picks a
    /// free port).
    pub listen: String,
    /// Address advertised to the coordinator for dial-back; `None`
    /// advertises the resolved listen address.
    pub advertise: Option<String>,
    /// Stable worker id; `None` derives one from the resolved address.
    pub worker_id: Option<String>,
    /// Persistent cache directory for `/v1/harden` responses executed
    /// on this worker (`None` disables caching; campaign cells always
    /// execute fresh so distributed and single-node runs stay
    /// byte-identical).
    pub cache_dir: Option<PathBuf>,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Upper bound on one dispatched cell (the server's request
    /// timeout must outlast the campaign timeout the coordinator
    /// forwards per cell).
    pub request_timeout: Duration,
    /// Install this worker's metrics sink as the process-global obs
    /// collector (off for in-process cluster tests).
    pub install_obs: bool,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            coordinator: String::new(),
            listen: "127.0.0.1:0".to_owned(),
            advertise: None,
            worker_id: None,
            cache_dir: None,
            heartbeat: Duration::from_millis(500),
            request_timeout: Duration::from_secs(600),
            install_obs: true,
        }
    }
}

/// A running worker.
pub struct Worker {
    server: Server,
    addr: String,
    id: String,
    stop: CancelToken,
    control: Option<std::thread::JoinHandle<()>>,
}

/// Starts the worker server and its heartbeat loop.
pub fn start_worker(cfg: WorkerConfig) -> io::Result<Worker> {
    let executor = Arc::new(CellExecutor::new(None));
    let active = Arc::new(AtomicU64::new(0));

    let router: sttlock_serve::Router = {
        let executor = Arc::clone(&executor);
        let active = Arc::clone(&active);
        Arc::new(move |req, _budget| route_cell(&executor, &active, req))
    };
    let server = Server::start_with_router(
        ServeConfig {
            addr: cfg.listen.clone(),
            cache_dir: cfg.cache_dir.clone(),
            request_timeout: cfg.request_timeout,
            install_obs: cfg.install_obs,
            ..ServeConfig::default()
        },
        Some(router),
    )?;
    let addr = cfg
        .advertise
        .clone()
        .unwrap_or_else(|| server.addr().to_string());
    let id = cfg
        .worker_id
        .clone()
        .unwrap_or_else(|| format!("worker-{}", server.addr()));

    // The control loop's sleeps ride on this budget: cancelling the
    // token (shutdown) interrupts a backoff nap instead of waiting it
    // out.
    let clock = Budget::unbounded();
    let stop = clock.token();
    let control = {
        let server_stop = server.stop_handle();
        let coordinator = cfg.coordinator.clone();
        let period = cfg.heartbeat;
        let beat = Heartbeat {
            worker: id.clone(),
            addr: addr.clone(),
            load: 0,
        };
        std::thread::spawn(move || {
            control_loop(&coordinator, beat, period, &active, &clock, &server_stop);
        })
    };

    Ok(Worker {
        server,
        addr,
        id,
        stop,
        control: Some(control),
    })
}

impl Worker {
    /// The address the worker advertises (and serves on).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The worker's identity in its heartbeats.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// A handle other threads can use to request shutdown.
    pub fn stop_handle(&self) -> StopHandle {
        self.server.stop_handle()
    }

    /// Blocks until shutdown is requested (`POST /admin/shutdown` or a
    /// stop handle), then drains. Returns the server's metrics digest.
    pub fn wait(mut self) -> String {
        let digest = self.server.wait();
        self.stop.cancel();
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
        digest
    }

    /// Shuts down the server and the control loop.
    pub fn shutdown(mut self) -> String {
        self.stop.cancel();
        let digest = self.server.shutdown();
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
        digest
    }
}

/// The worker's overlay routes. Only `POST /v1/cell` is intercepted;
/// everything else (health, metrics, harden with the worker-side
/// cache, admin shutdown) falls through to the built-in serve routes.
fn route_cell(
    executor: &CellExecutor,
    active: &AtomicU64,
    req: &sttlock_serve::http::Request,
) -> Option<Response> {
    if (req.method.as_str(), req.path.as_str()) != ("POST", "/v1/cell") {
        return None;
    }
    let body = String::from_utf8_lossy(&req.body);
    let request = match Json::parse(&body)
        .ok()
        .and_then(|v| CellRequest::from_json(&v))
    {
        Some(r) => r,
        None => {
            return Some(Response::error(
                400,
                "malformed or version-skewed cell request",
            ))
        }
    };
    sttlock_obs::counter("cluster.cells_executed", 1);
    active.fetch_add(1, Ordering::SeqCst);
    let record = executor.run(&request.cell, Duration::from_millis(request.timeout_ms));
    active.fetch_sub(1, Ordering::SeqCst);
    let response = CellResponse { record };
    Some(Response::json(200, response.to_json().to_string()))
}

/// Heartbeats the coordinator every `period` until stopped. A
/// heartbeat that goes unanswered (`cluster.register_retries`) backs
/// off instead, so a worker outlives its coordinator and rejoins the
/// moment one answers again.
fn control_loop(
    coordinator: &str,
    mut beat: Heartbeat,
    period: Duration,
    active: &AtomicU64,
    clock: &Budget,
    server_stop: &StopHandle,
) {
    let backoff = Backoff::default();
    let mut misses = 0u32;
    while !clock.is_cancelled() && !server_stop.is_stopped() {
        beat.load = active.load(Ordering::SeqCst);
        let body = beat.to_json().to_string();
        match client::request(
            coordinator,
            "POST",
            "/cluster/heartbeat",
            Some(&body),
            CONTROL_TIMEOUT,
        ) {
            Ok(resp) if resp.status == 200 => {
                misses = 0;
                clock.sleep(period);
            }
            _ => {
                sttlock_obs::counter("cluster.register_retries", 1);
                clock.sleep(backoff.delay(misses));
                misses = misses.saturating_add(1);
            }
        }
    }
}
