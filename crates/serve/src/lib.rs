//! `sttlock-serve`: a resident harden/attack service.
//!
//! Every entry point into the flow used to be a one-shot CLI run; this
//! crate keeps the process — and with it the content-hash cache and the
//! obs registry — warm across requests, behind a zero-external-
//! dependency HTTP/1.1 JSON API over [`std::net::TcpListener`]:
//!
//! * `POST /v1/harden` — bench netlist + algorithm + seed → hybrid
//!   bitstream, overhead metrics, security estimate;
//! * `POST /v1/attack` — sensitization / SAT / sequential-SAT attack
//!   with the existing deadline budgets;
//! * `GET /healthz`, `GET /metrics` (text export of the obs
//!   counters/gauges/histograms), `POST /admin/shutdown`.
//!
//! The execution model rides on the shared exec runtime
//! ([`sttlock_exec`]): accepted connections are admitted into a bounded
//! [`sttlock_exec::Pool`], and the accept thread answers 429 itself
//! when the queue is full, so overload degrades into fast, well-formed
//! rejections instead of unbounded memory or dropped connections. Each
//! request carries a [`sttlock_exec::Budget`] with a deadline from its
//! accept timestamp, threaded through the handlers into the flow,
//! selection, STA and attack layers — blowing it cancels the work
//! mid-stage and returns 504 with whatever partial metrics the stage
//! produced. A panicking handler is contained by `catch_unwind` (like
//! the campaign runner's cells) and becomes a 500 without killing the
//! worker. Shutdown — the admin endpoint or [`Server::shutdown`] — is a
//! [`sttlock_exec::CancelToken`]: the accept loop stops, the pool
//! drains every queued and in-flight request, then joins, so no
//! accepted request is ever dropped. (The stop token is deliberately
//! *not* an ancestor of request budgets: draining means in-flight
//! requests run to completion under their own deadlines.) Nothing
//! polls: the accept thread blocks in `accept`, and shutdown wakes it
//! with one connection of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod handlers;
pub mod http;

use std::io::{self, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sttlock_exec::{panic_message, Budget, CancelToken, Pool, PoolFull};
use sttlock_obs::TraceCollector;
use sttlock_store::Cache;

use http::{Limits, Response};

/// Version of the harden response cache: it salts every harden
/// [`sttlock_exec::KeyBuilder`] key and stamps every cache entry. v1
/// was the pre-exec string-descriptor scheme (`serve.harden|v1|…`);
/// v2 keys the same inputs as typed fields, so stale v1 entries are
/// invisible rather than misparsed.
pub const HARDEN_KEY_VERSION: u32 = 2;

/// How long the accept loop backs off after an accept error (out of
/// descriptors, say), which returns at once and would otherwise spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Per-read socket timeout: a peer that stops sending mid-request
/// (slowloris) costs a worker at most this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration; every field has a sensible default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (0 = available parallelism).
    pub workers: usize,
    /// Accepted-but-unserved connection queue bound; beyond it the
    /// accept thread answers 429 immediately.
    pub queue_depth: usize,
    /// Per-request wall budget, measured from accept; overruns are 504.
    pub request_timeout: Duration,
    /// Response cache directory: holds `harden-cache.log`, the
    /// persistent [`sttlock_store::Cache`] of harden responses,
    /// warm-loaded on boot so repeats hit across restarts. One server
    /// process owns a directory at a time. `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// HTTP parse limits.
    pub limits: Limits,
    /// Expose `POST /debug/sleep` and `POST /debug/panic` (tests/CI
    /// drive backpressure, deadline and panic paths deterministically).
    pub debug_endpoints: bool,
    /// Also keep every closed span and write the JSONL trace here on
    /// shutdown. Without it the server's collector keeps no span.
    pub trace_path: Option<PathBuf>,
    /// Install this server's collector as the process-global obs
    /// collector (and uninstall it on shutdown). The default; turn it
    /// off when several servers share one process (the cluster tests
    /// run a coordinator plus workers under one ambient collector).
    pub install_obs: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            cache_dir: None,
            limits: Limits::default(),
            debug_endpoints: false,
            trace_path: None,
            install_obs: true,
        }
    }
}

/// An overlay route table: consulted before the built-in routes, so a
/// layer above (the cluster coordinator/worker) can add endpoints while
/// keeping `/healthz`, `/metrics` and `/admin/shutdown` for free.
/// Returning `None` falls through to the built-in routing.
pub type Router = Arc<dyn Fn(&http::Request, &Budget) -> Option<Response> + Send + Sync>;

/// State shared by the accept thread, the workers and the handlers.
pub(crate) struct Shared {
    pub(crate) stop: CancelToken,
    pub(crate) request_timeout: Duration,
    pub(crate) limits: Limits,
    pub(crate) debug_endpoints: bool,
    pub(crate) cache: Option<Cache>,
    pub(crate) metrics: Arc<TraceCollector>,
    pub(crate) started: Instant,
    pub(crate) workers: usize,
    pub(crate) queue_depth: usize,
    pub(crate) router: Option<Router>,
    pub(crate) installed_obs: bool,
}

struct Job {
    stream: TcpStream,
    accepted_at: Instant,
}

/// A running server; dropping it shuts down gracefully if
/// [`Server::shutdown`]/[`Server::wait`] have not run already.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<Pool>>,
    addr: SocketAddr,
    trace_path: Option<PathBuf>,
    joined: bool,
}

impl Server {
    /// Binds, installs the server's obs collector and starts the pool.
    ///
    /// Installing is process-global: one server at a time. (Tests
    /// serialize on that, the CLI runs exactly one.) Servers started
    /// with `install_obs: false` skip the install and leave whatever
    /// collector is ambient in place.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        Server::start_with_router(cfg, None)
    }

    /// [`Server::start`] with an overlay [`Router`] consulted before
    /// the built-in routes on every request.
    pub fn start_with_router(cfg: ServeConfig, router: Option<Router>) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        // One collector serves `/metrics`, the shutdown digest and the
        // trace; it keeps spans only when a trace was asked for, so an
        // untraced server's memory stays bounded.
        let metrics = match cfg.trace_path {
            Some(_) => TraceCollector::new(),
            None => TraceCollector::without_spans(),
        };
        if cfg.install_obs {
            sttlock_obs::install(metrics.clone());
        }

        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            thread::available_parallelism().map_or(2, |n| n.get())
        };
        let shared = Arc::new(Shared {
            stop: CancelToken::new(),
            request_timeout: cfg.request_timeout,
            limits: cfg.limits,
            debug_endpoints: cfg.debug_endpoints,
            cache: cfg
                .cache_dir
                .and_then(|dir| Cache::open(dir.join("harden-cache.log"), HARDEN_KEY_VERSION).ok()),
            metrics,
            started: Instant::now(),
            workers,
            queue_depth: cfg.queue_depth,
            router,
            installed_obs: cfg.install_obs,
        });

        let pool = Arc::new(Pool::new(workers, cfg.queue_depth.max(1)));
        let accept = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            thread::spawn(move || accept_loop(&shared, &listener, &pool))
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            pool: Some(pool),
            addr,
            trace_path: cfg.trace_path,
            joined: false,
        })
    }

    /// The bound address (resolves `:0` for tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's obs collector, which `/metrics` renders (live while
    /// the server runs). It keeps spans only when
    /// [`ServeConfig::trace_path`] is set.
    pub fn metrics(&self) -> &Arc<TraceCollector> {
        &self.shared.metrics
    }

    /// The server's stop token: cancelling it requests a graceful
    /// shutdown, as `POST /admin/shutdown` does.
    pub fn stop_handle(&self) -> CancelToken {
        self.shared.stop.clone()
    }

    /// Blocks until shutdown is requested (`POST /admin/shutdown` or the
    /// [`Server::stop_handle`] token), then drains and joins. Returns a
    /// metrics digest.
    pub fn wait(mut self) -> String {
        self.shared.stop.wait(None);
        self.join_all()
    }

    /// Requests shutdown, drains every queued and in-flight request,
    /// joins the pool. Returns a metrics digest.
    pub fn shutdown(mut self) -> String {
        self.join_all()
    }

    /// Where every shutdown path ends: stops the server, drains it and
    /// joins its threads.
    fn join_all(&mut self) -> String {
        self.shared.stop.cancel();
        // The accept thread blocks in `accept`: one connection wakes it
        // to see the stop, and it exits without serving that connection
        // and drops its pool handle. Dropping ours then closes the
        // queue, drains every admitted job and joins the workers
        // (`Pool`'s drop contract). Nothing accepted is dropped.
        if let Some(h) = self.accept.take() {
            let _ = TcpStream::connect(wake_addr(self.addr));
            let _ = h.join();
        }
        drop(self.pool.take());
        if let Some(cache) = &self.shared.cache {
            // Clean exits leave a durable cache even though appends
            // run under `FsyncPolicy::Never`.
            cache.flush();
        }
        if let Some(path) = self.trace_path.take() {
            // Atomic temp+rename: a crash (or armed kill-point) during
            // the export leaves the previous trace intact, never a
            // half-written JSONL file.
            let _ = sttlock_store::write_atomic(&path, self.shared.metrics.to_jsonl());
        }
        if self.shared.installed_obs {
            sttlock_obs::uninstall();
        }
        self.joined = true;
        self.shared.metrics.digest()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.joined {
            let _ = self.join_all();
        }
    }
}

/// The address a shutdown connects to in order to wake `accept`: the
/// bound address, with a wildcard IP (`0.0.0.0`, `[::]`) replaced by
/// its family's loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, pool: &Pool) {
    loop {
        let accepted = listener.accept();
        if shared.stop.is_cancelled() {
            // Shutdown's wake connection, or a client racing it: the
            // listener closes without serving it, uncounted.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                sttlock_obs::counter("serve.accepted", 1);
                // One-shot request/response: Nagle only adds latency.
                let _ = stream.set_nodelay(true);
                submit(shared, pool, stream);
            }
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Hands one accepted connection to the pool, or answers the canned 429
/// from the accept thread when the queue is full.
///
/// The stream rides in a reclaim slot: [`Pool::try_execute`] consumes
/// its job on rejection, so the socket is parked where the accept
/// thread can take it back to write the rejection response.
fn submit(shared: &Arc<Shared>, pool: &Pool, stream: TcpStream) {
    let accepted_at = Instant::now();
    let slot = Arc::new(Mutex::new(Some(stream)));
    let job = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        move || {
            let stream = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            let Some(stream) = stream else { return };
            sttlock_obs::gauge("serve.queued", -1);
            sttlock_obs::gauge("serve.in_flight", 1);
            serve_connection(
                &shared,
                Job {
                    stream,
                    accepted_at,
                },
            );
            sttlock_obs::gauge("serve.in_flight", -1);
        }
    };
    match pool.try_execute(job) {
        Ok(()) => sttlock_obs::gauge("serve.queued", 1),
        Err(PoolFull) => {
            if let Some(stream) = slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                reject_busy(stream);
            }
        }
    }
}

/// Backpressure: the queue is full, so the *accept thread* answers a
/// canned 429 and closes — a bounded-latency rejection that never
/// blocks behind the workers.
fn reject_busy(mut stream: TcpStream) {
    sttlock_obs::counter("serve.rejected_busy", 1);
    count_status(429);
    let resp = Response::error(429, "request queue is full, retry later").with_retry_after(1);
    let _ = stream.write_all(&resp.to_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(shared: &Shared, job: Job) {
    let mut stream = job.stream;
    let queue_us = job.accepted_at.elapsed().as_micros() as u64;
    sttlock_obs::observe_us("serve.queue_wait", queue_us);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // The whole request runs under one deadline budget, threaded down
    // into flow/selection/STA/attack so an overrun cancels the deep
    // work instead of letting it run to completion unobserved.
    let budget = Budget::deadline_at(job.accepted_at + shared.request_timeout);

    let mut span = sttlock_obs::span!("serve.request", queue_us = queue_us);
    // Parse and compute under one unwind guard: a panic anywhere in
    // request handling becomes a 500 on this connection, never a dead
    // worker (the write below happens outside, from an intact stack).
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let parsed = {
            let _s = sttlock_obs::span!("request.parse");
            http::read_request(&mut BufReader::new(&mut stream), &shared.limits)
        };
        match parsed {
            Ok(req) => {
                span.record("method", req.method.as_str());
                span.record("path", req.path.as_str());
                if budget.exhausted() {
                    // The whole budget went to queueing + parsing.
                    sttlock_obs::counter("serve.deadline_missed", 1);
                    return Some(Response::error(
                        504,
                        "request budget exhausted before compute",
                    ));
                }
                let _s = sttlock_obs::span!("request.compute");
                let overlaid = shared.router.as_ref().and_then(|r| r(&req, &budget));
                Some(overlaid.unwrap_or_else(|| handlers::route(shared, &req, &budget)))
            }
            Err(http::HttpError::ConnectionClosed) => None,
            Err(e) => {
                sttlock_obs::counter("serve.parse_errors", 1);
                e.response()
            }
        }
    }));
    let response = match outcome {
        Ok(r) => r,
        Err(payload) => {
            sttlock_obs::counter("serve.request_panicked", 1);
            Some(Response::error(
                500,
                &format!("handler panicked: {}", panic_message(&*payload)),
            ))
        }
    };

    let Some(response) = response else {
        return; // peer closed without sending anything
    };
    span.record("status", response.status);
    drop(span);
    count_status(response.status);
    let _ = stream
        .write_all(&response.to_bytes())
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(Shutdown::Both);
}

pub(crate) fn count_status(status: u16) {
    sttlock_obs::counter("serve.responses", 1);
    sttlock_obs::counter(
        match status / 100 {
            2 => "serve.status.2xx",
            4 => "serve.status.4xx",
            5 => "serve.status.5xx",
            _ => "serve.status.other",
        },
        1,
    );
}
