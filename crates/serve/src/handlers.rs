//! Endpoint routing and the harden/attack request handlers.
//!
//! Handlers are plain functions from a parsed [`Request`] (plus the
//! request's deadline [`Budget`]) to a [`Response`]; the worker wraps
//! the whole thing in `catch_unwind`, so a handler may panic without
//! taking the pool down. Status mapping:
//!
//! * `400` — unparseable JSON, missing/unknown fields, bad netlist;
//! * `422` — well-formed input the flow/attack could not process;
//! * `504` — the per-request budget tripped; the body carries
//!   whatever partial metrics the stage had produced;
//! * `500` — handler panic (from the worker's unwind guard).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sttlock_attack::{AttackError, AttackKind, AttackOutcome, FRAMES, MAX_DIPS};
use sttlock_campaign::json::Json;
use sttlock_core::{Flow, FlowError, SelectionAlgorithm};
use sttlock_exec::{Budget, KeyBuilder};
use sttlock_netlist::{bench_format, Netlist};
use sttlock_techlib::Library;

use crate::http::{Request, Response};
use crate::{Shared, HARDEN_KEY_VERSION};

/// Routes one request. Unknown paths are 404; known paths with the
/// wrong method are 405.
pub(crate) fn route(shared: &Shared, req: &Request, budget: &Budget) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(shared),
        ("POST", "/v1/harden") => {
            sttlock_obs::counter("serve.endpoint.harden", 1);
            harden(shared, req, budget)
        }
        ("POST", "/v1/attack") => {
            sttlock_obs::counter("serve.endpoint.attack", 1);
            attack(req, budget)
        }
        ("POST", "/admin/shutdown") => {
            shared.stop.cancel();
            Response::json(200, "{\"draining\":true}".to_owned())
        }
        ("POST", "/debug/sleep") if shared.debug_endpoints => debug_sleep(req, budget),
        ("POST", "/debug/panic") if shared.debug_endpoints => {
            panic!("injected handler panic")
        }
        (_, "/healthz" | "/metrics" | "/v1/harden" | "/v1/attack" | "/admin/shutdown") => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        _ => Response::error(404, &format!("no such endpoint: {}", req.path)),
    }
}

fn healthz(shared: &Shared) -> Response {
    let body = Json::obj([
        ("status", Json::from("ok")),
        (
            "uptime_ms",
            Json::from(shared.started.elapsed().as_millis() as u64),
        ),
        ("workers", Json::from(shared.workers)),
        ("queue_depth", Json::from(shared.queue_depth)),
        (
            "in_flight",
            Json::from(shared.metrics.gauge_value("serve.in_flight").max(0) as u64),
        ),
        (
            "queued",
            Json::from(shared.metrics.gauge_value("serve.queued").max(0) as u64),
        ),
        ("cache", Json::from(shared.cache.is_some())),
    ]);
    Response::json(200, body.to_string())
}

fn metrics(shared: &Shared) -> Response {
    Response::text(200, shared.metrics.render_text())
}

/// Parsed common fields of a harden/attack request body. The netlist
/// itself is parsed lazily: a cache-hit harden never needs it, and on
/// large circuits the `.bench` parse is the dominant warm-path cost.
struct FlowRequest {
    bench: String,
    algorithm: SelectionAlgorithm,
    seed: u64,
    body: Json,
}

impl FlowRequest {
    fn netlist(&self) -> Result<Netlist, Response> {
        bench_format::parse(&self.bench, "request")
            .map_err(|e| Response::error(400, &format!("bench netlist rejected: {e}")))
    }
}

fn parse_flow_request(req: &Request) -> Result<FlowRequest, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not valid UTF-8"))?;
    let body =
        Json::parse(text).map_err(|e| Response::error(400, &format!("body is not JSON: {e}")))?;
    let bench = body
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::error(400, "missing required string field `bench`"))?
        .to_owned();
    let algorithm: SelectionAlgorithm = body
        .get("algorithm")
        .and_then(Json::as_str)
        .unwrap_or("para")
        .parse()
        .map_err(|e: String| Response::error(400, &e))?;
    let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(42);
    Ok(FlowRequest {
        bench,
        algorithm,
        seed,
        body,
    })
}

/// `POST /v1/harden` — run the selection/replacement flow and return
/// the bitstream plus overhead and security metrics. Idempotent per
/// (bench, algorithm, seed): responses are cached in the persistent
/// [`sttlock_store::Cache`], so repeats skip the flow entirely —
/// including repeats arriving after a server restart, which hit the
/// warm-loaded log.
fn harden(shared: &Shared, req: &Request, budget: &Budget) -> Response {
    let start = Instant::now();
    let fr = match parse_flow_request(req) {
        Ok(fr) => fr,
        Err(resp) => return resp,
    };

    let key = KeyBuilder::new(HARDEN_KEY_VERSION)
        .field("endpoint", &"harden")
        .field("algorithm", &fr.algorithm)
        .field("seed", &fr.seed)
        .text(&fr.bench)
        .finish()
        .hex();
    if let Some(cache) = &shared.cache {
        if let Some(hit) = cache.lookup(&key) {
            if let Ok(Json::Obj(mut m)) = Json::parse(&hit) {
                sttlock_obs::counter("serve.harden.cache_hit", 1);
                m.insert("cached".to_owned(), Json::Bool(true));
                m.insert(
                    "wall_ms".to_owned(),
                    Json::from(start.elapsed().as_millis() as u64),
                );
                return Response::json(200, Json::Obj(m).to_string());
            }
        }
        sttlock_obs::counter("serve.harden.cache_miss", 1);
    }

    let netlist = match fr.netlist() {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let base = Arc::new(netlist);
    let flow = Flow::new(Library::predictive_90nm());
    let outcome = flow
        .baseline(Arc::clone(&base), fr.seed, budget)
        .and_then(|baseline| flow.run_budgeted(&baseline, fr.algorithm, budget));
    let outcome = match outcome {
        Ok(o) => o,
        Err(FlowError::Budget(_)) => {
            sttlock_obs::counter("serve.deadline_missed", 1);
            return Response::error(
                504,
                "deadline exceeded during harden; the flow was cancelled",
            );
        }
        Err(e) => return Response::error(422, &format!("flow failed: {e}")),
    };
    let report = &outcome.report;
    let metrics = Json::obj([
        ("perf_pct", Json::from(report.performance_degradation_pct)),
        ("power_pct", Json::from(report.power_overhead_pct)),
        ("leakage_pct", Json::from(report.leakage_overhead_pct)),
        ("area_pct", Json::from(report.area_overhead_pct)),
        (
            "selection_ms",
            Json::from(report.selection_time.as_secs_f64() * 1e3),
        ),
    ]);
    let security = Json::obj([
        ("n_indep_log10", Json::from(report.security.n_indep.log10())),
        ("n_dep_log10", Json::from(report.security.n_dep.log10())),
        ("n_bf_log10", Json::from(report.security.n_bf.log10())),
    ]);
    let bitstream = Json::Arr(
        outcome
            .bitstream
            .iter()
            .map(|(id, table)| {
                Json::obj([
                    ("lut", Json::from(outcome.hybrid.node_name(*id))),
                    ("inputs", Json::from(table.inputs())),
                    ("mask", Json::from(format!("{:#x}", table.bits()).as_str())),
                ])
            })
            .collect(),
    );
    let body = Json::obj([
        ("algorithm", Json::from(fr.algorithm.to_string().as_str())),
        ("seed", Json::from(fr.seed)),
        ("gates", Json::from(base.gate_count())),
        ("stt_count", Json::from(report.stt_count)),
        ("metrics", metrics.clone()),
        ("security", security),
        ("bitstream", bitstream),
        ("cached", Json::Bool(false)),
        ("wall_ms", Json::from(start.elapsed().as_millis() as u64)),
    ]);
    // Cache before the deadline check: a request that computed the
    // answer but blew its budget still pays forward — the idempotent
    // retry becomes a cache hit.
    if let Some(cache) = &shared.cache {
        cache.store(&key, &body.to_string());
    }
    if budget.exhausted() {
        sttlock_obs::counter("serve.deadline_missed", 1);
        let partial = Json::obj([
            (
                "error",
                Json::from("deadline exceeded during harden; partial metrics attached"),
            ),
            ("partial", metrics),
        ]);
        return Response::json(504, partial.to_string());
    }
    Response::json(200, body.to_string())
}

/// The 400 message for `"mode":"none"`, which `/v1/attack` rejects.
const NO_ATTACK: &str = "attack mode `none` runs no attack (sens|sat|seq)";

/// `POST /v1/attack` — harden the submitted netlist, then attack the
/// resulting hybrid with the requested mode. The mode and its limits
/// are parsed and bounded before any work runs (unknown mode or
/// `frames` outside `1..=MAX_FRAMES` → 400). The request budget bounds
/// every mode: a long attack comes back as 504 *with* the partial
/// outcome it reached — test clocks, SAT queries and resolution ratio,
/// or the DIP count and solver counters — rather than an empty failure.
fn attack(req: &Request, budget: &Budget) -> Response {
    let start = Instant::now();
    let fr = match parse_flow_request(req) {
        Ok(fr) => fr,
        Err(resp) => return resp,
    };
    let field = |key: &str, default: usize| {
        let value = fr.body.get(key).and_then(Json::as_u64);
        value.map_or(default, |v| usize::try_from(v).unwrap_or(usize::MAX))
    };
    let mode = fr.body.get("mode").and_then(Json::as_str).unwrap_or("sens");
    let kind = match AttackKind::parse(mode, field("frames", FRAMES), field("max_dips", MAX_DIPS)) {
        Ok(AttackKind::None) => return Response::error(400, NO_ATTACK),
        Ok(kind) => kind,
        Err(e) => return Response::error(400, &e),
    };

    let flow = Flow::new(Library::predictive_90nm());
    let netlist = match fr.netlist() {
        Ok(n) => n,
        Err(resp) => return resp,
    };
    let outcome = flow
        .baseline(Arc::new(netlist), fr.seed, budget)
        .and_then(|baseline| flow.run_budgeted(&baseline, fr.algorithm, budget));
    let outcome = match outcome {
        Ok(o) => o,
        Err(FlowError::Budget(_)) => {
            sttlock_obs::counter("serve.deadline_missed", 1);
            return Response::error(504, "deadline exceeded while hardening the attack target");
        }
        Err(e) => return Response::error(422, &format!("flow failed: {e}")),
    };
    let hybrid = &outcome.hybrid;
    let foundry = hybrid.redact().0;
    if budget.exhausted() {
        sttlock_obs::counter("serve.deadline_missed", 1);
        return Response::error(504, "deadline exceeded before the attack started");
    }

    let wall_ms = || Json::from(start.elapsed().as_millis() as u64);
    let partial = match sttlock_attack::run(kind, &foundry, hybrid, fr.seed, budget) {
        Ok(Some(outcome)) => {
            let mut body = counters(&outcome);
            body.extend([
                ("mode", Json::from(kind.tag())),
                ("broke", Json::Bool(outcome.metrics().broke)),
                ("wall_ms", wall_ms()),
            ]);
            return Response::json(200, Json::obj(body).to_string());
        }
        // A tripped budget is a 504 carrying how far the attack got.
        Err(AttackError::Budget { partial, .. }) => Json::obj(counters(&partial)),
        Ok(None) => return Response::error(400, NO_ATTACK),
        Err(e) => return Response::error(422, &format!("attack failed: {e}")),
    };
    sttlock_obs::counter("serve.deadline_missed", 1);
    Response::json(
        504,
        Json::obj([
            (
                "error",
                Json::from("attack budget exhausted; partial outcome attached"),
            ),
            ("partial", partial),
            ("wall_ms", wall_ms()),
        ])
        .to_string(),
    )
}

/// The counters `/v1/attack` reports for an outcome, in a 200 body and
/// in a 504's `partial` alike.
fn counters(outcome: &AttackOutcome) -> Vec<(&'static str, Json)> {
    match outcome {
        AttackOutcome::Sensitization(out) => vec![
            ("resolution_ratio", Json::from(out.resolution_ratio())),
            ("test_clocks", Json::from(out.test_clocks)),
            ("sat_queries", Json::from(out.sat_queries)),
        ],
        AttackOutcome::Sat(out) if out.frames == 0 => vec![
            ("dips", Json::from(out.dips)),
            ("conflicts", Json::from(out.solver_stats.conflicts)),
            ("decisions", Json::from(out.solver_stats.decisions)),
        ],
        AttackOutcome::Sat(out) => vec![
            ("dips", Json::from(out.dips)),
            ("frames", Json::from(out.frames)),
            ("conflicts", Json::from(out.solver_stats.conflicts)),
        ],
    }
}

/// `POST /debug/sleep` `{"ms": n}` — occupy a worker for `n` ms via a
/// budget-aware sleep, so the request deadline interrupts it. Tests use
/// it to fill the pool (429), overrun budgets (504) and check shutdown
/// draining, without depending on flow timings.
fn debug_sleep(req: &Request, budget: &Budget) -> Response {
    let ms = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|b| b.get("ms").and_then(Json::as_u64))
        .unwrap_or(0);
    let start = Instant::now();
    if !budget.sleep(Duration::from_millis(ms)) {
        sttlock_obs::counter("serve.deadline_missed", 1);
        return Response::json(
            504,
            Json::obj([
                ("error", Json::from("deadline exceeded while sleeping")),
                ("slept_ms", Json::from(start.elapsed().as_millis() as u64)),
            ])
            .to_string(),
        );
    }
    Response::json(
        200,
        Json::obj([("slept_ms", Json::from(start.elapsed().as_millis() as u64))]).to_string(),
    )
}
