//! End-to-end tests for the serve stack: real sockets, real worker
//! pool, real responses.
//!
//! The obs collector registry is process-global and `Server::start`
//! installs into it, so every test takes `SERIAL` first — one live
//! server at a time.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::Profile;
use sttlock_campaign::json::Json;
use sttlock_netlist::bench_format;
use sttlock_serve::client::{self, HttpResponse};
use sttlock_serve::{ServeConfig, Server};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const TIMEOUT: Duration = Duration::from_secs(60);

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sttlock-serve-tests")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn post(addr: &str, path: &str, body: &str) -> HttpResponse {
    client::request(addr, "POST", path, Some(body), TIMEOUT).expect("request should get a response")
}

fn get(addr: &str, path: &str) -> HttpResponse {
    client::request(addr, "GET", path, None, TIMEOUT).expect("request should get a response")
}

fn bench_body(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let bench = bench_format::write(&Profile::custom("t", 40, 3, 5, 3).generate(&mut rng));
    format!(
        "{{\"bench\":{},\"algorithm\":\"para\",\"seed\":{seed}}}",
        Json::from(bench.as_str())
    )
}

#[test]
fn healthz_and_unknown_routes() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"status\":\"ok\""));

    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(get(&addr, "/v1/harden").status, 405);
    assert_eq!(post(&addr, "/debug/panic", "").status, 404); // debug off

    server.shutdown();
}

#[test]
fn harden_round_trips_and_cache_hits_are_fast() {
    let _guard = serial();
    let cfg = ServeConfig {
        cache_dir: Some(tmp_dir("cache")),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    let body = bench_body(3);

    let t0 = Instant::now();
    let cold = post(&addr, "/v1/harden", &body);
    let cold_wall = t0.elapsed();
    assert_eq!(cold.status, 200, "{}", cold.body_text());
    let cold_text = cold.body_text();
    assert!(cold_text.contains("\"cached\":false"), "{cold_text}");
    assert!(cold_text.contains("\"bitstream\""), "{cold_text}");
    assert!(cold_text.contains("\"n_bf_log10\""), "{cold_text}");

    let t1 = Instant::now();
    let warm = post(&addr, "/v1/harden", &body);
    let warm_wall = t1.elapsed();
    assert_eq!(warm.status, 200);
    let warm_text = warm.body_text();
    assert!(warm_text.contains("\"cached\":true"), "{warm_text}");
    // Identical payload modulo the cached/wall_ms bookkeeping.
    assert_eq!(
        strip_volatile(&cold_text),
        strip_volatile(&warm_text),
        "cached response should carry the same flow result"
    );
    assert!(
        warm_wall < cold_wall,
        "cache hit ({warm_wall:?}) should beat the cold flow ({cold_wall:?})"
    );

    // A different seed is a different cache key.
    let other = post(&addr, "/v1/harden", &bench_body(4));
    assert!(other.body_text().contains("\"cached\":false"));

    let metrics = get(&addr, "/metrics").body_text();
    assert!(
        metrics.contains("sttlock_counter{name=\"serve.harden.cache_hit\"} 1"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn restart_warm_loads_the_persistent_cache() {
    let _guard = serial();
    let dir = tmp_dir("restart");
    let body = bench_body(11);

    // First life: compute and cache.
    let cold_text = {
        let cfg = ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).unwrap();
        let addr = server.addr().to_string();
        let cold = post(&addr, "/v1/harden", &body);
        assert_eq!(cold.status, 200, "{}", cold.body_text());
        assert!(cold.body_text().contains("\"cached\":false"));
        server.shutdown();
        cold.body_text()
    };

    // Second life, same cache dir: the very first repeat request must
    // be answered from the warm-loaded log, not recomputed.
    let cfg = ServeConfig {
        cache_dir: Some(dir),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    let warm = post(&addr, "/v1/harden", &body);
    assert_eq!(warm.status, 200, "{}", warm.body_text());
    let warm_text = warm.body_text();
    assert!(
        warm_text.contains("\"cached\":true"),
        "first post-restart repeat must be a cache hit: {warm_text}"
    );
    assert_eq!(
        strip_volatile(&cold_text),
        strip_volatile(&warm_text),
        "warm-loaded response should carry the same flow result"
    );

    let metrics = get(&addr, "/metrics").body_text();
    assert!(
        metrics.contains("sttlock_counter{name=\"store.cache_warm_hits\"} 1"),
        "{metrics}"
    );

    server.shutdown();
}

#[test]
fn one_collector_serves_metrics_and_keeps_spans_only_when_traced() {
    let _guard = serial();

    // Untraced: the collector aggregates the request's spans into
    // histograms but keeps none of them.
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    assert_eq!(post(&addr, "/v1/harden", &bench_body(5)).status, 200);
    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(metrics.hist_count("serve.request"), 1);
    assert!(
        metrics.spans().is_empty(),
        "an untraced server keeps no span"
    );

    // Traced: the same one collector feeds `/metrics` while the server
    // runs and writes the span tree at shutdown.
    let dir = tmp_dir("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("serve-trace.jsonl");
    let cfg = ServeConfig {
        trace_path: Some(trace.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    assert_eq!(post(&addr, "/v1/harden", &bench_body(5)).status, 200);
    assert_eq!(server.metrics().counter_value("serve.accepted"), 1);
    // The scrape is the second accepted connection; its own
    // `serve.request` span is still open while it renders.
    let scraped = get(&addr, "/metrics").body_text();
    for needle in [
        "sttlock_counter{name=\"serve.accepted\"} 2",
        "sttlock_hist_count{name=\"serve.request\"} 1",
    ] {
        assert!(
            scraped.contains(needle),
            "missing `{needle}` in:\n{scraped}"
        );
    }
    server.shutdown();

    let text = std::fs::read_to_string(&trace).expect("the trace is written at shutdown");
    let spans: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).expect("every trace line is JSON"))
        .filter(|rec| rec.get("type").and_then(Json::as_str) == Some("span"))
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .collect::<Vec<_>>()
    };
    let harden = named("serve.request")
        .into_iter()
        .find(|s| {
            s.get("fields")
                .and_then(|f| f.get("path"))
                .and_then(Json::as_str)
                == Some("/v1/harden")
        })
        .expect("a serve.request span for the harden request");
    for child in ["request.parse", "request.compute"] {
        assert!(
            named(child)
                .iter()
                .any(|s| s.get("parent") == harden.get("id")),
            "no `{child}` span under the harden request in:\n{text}"
        );
    }
}

fn strip_volatile(body: &str) -> String {
    let Ok(Json::Obj(mut map)) = Json::parse(body) else {
        panic!("response body is not a JSON object: {body}");
    };
    map.remove("cached");
    map.remove("wall_ms");
    Json::Obj(map).to_string()
}

/// An attack request body on the small `attack_endpoint_*` design.
fn attack_body(fields: &str) -> String {
    let mut rng = StdRng::seed_from_u64(9);
    let bench = bench_format::write(&Profile::custom("a", 30, 2, 5, 3).generate(&mut rng));
    format!(
        "{{\"bench\":{},\"algorithm\":\"indep\",\"seed\":1,{fields}}}",
        Json::from(bench.as_str())
    )
}

#[test]
fn attack_endpoint_reports_the_break() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let resp = post(&addr, "/v1/attack", &attack_body("\"mode\":\"sens\""));
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    let text = resp.body_text();
    assert!(text.contains("\"mode\":\"sens\""), "{text}");
    assert!(text.contains("\"test_clocks\""), "{text}");

    let bad = post(&addr, "/v1/attack", "{\"bench\":\"not a netlist\"}");
    assert_eq!(bad.status, 400);

    server.shutdown();
}

#[test]
fn attack_endpoint_reports_sat_and_seq_counters() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    for (fields, mode, counters) in [
        (
            "\"mode\":\"sat\"",
            "sat",
            ["dips", "conflicts", "decisions"],
        ),
        (
            "\"mode\":\"seq\",\"frames\":2",
            "seq",
            ["dips", "frames", "conflicts"],
        ),
    ] {
        let resp = post(&addr, "/v1/attack", &attack_body(fields));
        assert_eq!(resp.status, 200, "{mode}: {}", resp.body_text());
        let body = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(body.get("mode").and_then(Json::as_str), Some(mode));
        assert!(body.get("broke").is_some(), "{mode}: {body}");
        for counter in counters {
            assert!(
                body.get(counter).and_then(Json::as_u64).is_some(),
                "{mode}: no `{counter}` in {body}"
            );
        }
        if mode == "seq" {
            assert_eq!(body.get("frames").and_then(Json::as_u64), Some(2));
        }
    }

    server.shutdown();
}

#[test]
fn bad_attack_modes_and_frames_are_rejected_before_any_work() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let metrics = std::sync::Arc::clone(server.metrics());

    for (fields, message) in [
        ("\"mode\":\"warp\"", "unknown attack `warp`"),
        ("\"mode\":\"seq\",\"frames\":65", "`frames`"),
        ("\"mode\":\"seq\",\"frames\":0", "`frames`"),
        ("\"mode\":\"none\"", "runs no attack"),
    ] {
        let resp = post(&addr, "/v1/attack", &attack_body(fields));
        assert_eq!(resp.status, 400, "{fields}: {}", resp.body_text());
        assert!(resp.body_text().contains(message), "{}", resp.body_text());
    }
    // The flow never ran: not one step was charged.
    assert_eq!(metrics.counter_value("exec.steps"), 0);

    server.shutdown();
}

/// Polls `cond` until it holds; panics after five seconds.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_gets_fast_429s_not_drops() {
    let _guard = serial();
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        debug_endpoints: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    let metrics = std::sync::Arc::clone(server.metrics());

    // Two sleepers: one occupies the only worker, one fills the queue.
    // Admission is sequenced on the in-process gauges — two connections
    // submitted back-to-back can otherwise race the worker's dequeue
    // and steal each other's queue slot.
    let spawn_sleeper = |addr: &str| {
        let addr = addr.to_owned();
        std::thread::spawn(move || post(&addr, "/debug/sleep", "{\"ms\":800}").status)
    };
    let first = spawn_sleeper(&addr);
    wait_for(
        || metrics.gauge_value("serve.in_flight") >= 1,
        "the first sleeper to occupy the worker",
    );
    let second = spawn_sleeper(&addr);
    wait_for(
        || metrics.gauge_value("serve.queued") >= 1,
        "the second sleeper to fill the queue",
    );

    // Pool busy + queue full → the accept thread itself answers 429.
    let t0 = Instant::now();
    let busy = post(&addr, "/debug/sleep", "{\"ms\":1}");
    assert_eq!(busy.status, 429, "{}", busy.body_text());
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "429 must not wait for the workers"
    );
    assert_eq!(
        busy.header("retry-after"),
        Some("1"),
        "the canned 429 must tell clients when to retry"
    );

    for s in [first, second] {
        assert_eq!(s.join().unwrap(), 200);
    }

    // The rejection is visible to scrapers, not just the rejected peer.
    let scraped = get(&addr, "/metrics").body_text();
    assert!(
        scraped.contains("sttlock_counter{name=\"serve.rejected_busy\"} 1"),
        "{scraped}"
    );
    server.shutdown();
}

#[test]
fn blown_deadline_is_a_504_with_partial_state() {
    let _guard = serial();
    let cfg = ServeConfig {
        request_timeout: Duration::from_millis(150),
        debug_endpoints: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    let resp = post(&addr, "/debug/sleep", "{\"ms\":5000}");
    assert_eq!(resp.status, 504, "{}", resp.body_text());
    assert!(
        resp.body_text().contains("slept_ms"),
        "{}",
        resp.body_text()
    );

    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(metrics.counter_value("serve.deadline_missed"), 1);
}

#[test]
fn blown_deadline_cancels_the_in_flight_flow() {
    let _guard = serial();
    let cfg = ServeConfig {
        request_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    let metrics = server.metrics().clone();

    // A circuit big enough (seconds of flow time) that the 200ms
    // request budget must trip *inside* selection/STA — the specific
    // 504 message distinguishes a mid-flow cancel from the cheap
    // pre-compute and post-compute deadline checks.
    let mut rng = StdRng::seed_from_u64(11);
    let bench = bench_format::write(&Profile::custom("big", 2500, 8, 10, 6).generate(&mut rng));
    let body = format!(
        "{{\"bench\":{},\"algorithm\":\"para\",\"seed\":5}}",
        Json::from(bench.as_str())
    );
    let resp = post(&addr, "/v1/harden", &body);
    assert_eq!(resp.status, 504, "{}", resp.body_text());
    assert!(
        resp.body_text().contains("the flow was cancelled"),
        "the 504 must come from the budget tripping mid-flow: {}",
        resp.body_text()
    );

    // The deep work observed the trip (the budget's one-shot latch)
    // after charging real steps…
    assert!(metrics.counter_value("exec.budget.deadline") >= 1);
    let steps = metrics.counter_value("exec.steps");
    assert!(
        steps > 0,
        "selection/STA should have charged steps before the cancel"
    );
    // …and then went quiet: a cancelled request's stages must stop,
    // not keep computing into a dead socket.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(
        metrics.counter_value("exec.steps"),
        steps,
        "no stage may keep charging steps after its request was cancelled"
    );

    server.shutdown();
}

#[test]
fn a_panicking_handler_is_a_500_and_the_pool_survives() {
    let _guard = serial();
    let cfg = ServeConfig {
        workers: 2,
        debug_endpoints: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    for _ in 0..3 {
        let resp = post(&addr, "/debug/panic", "");
        assert_eq!(resp.status, 500);
        assert!(
            resp.body_text().contains("injected handler panic"),
            "{}",
            resp.body_text()
        );
    }
    // More panics than workers, yet the pool still serves.
    assert_eq!(get(&addr, "/healthz").status, 200);

    let metrics = get(&addr, "/metrics").body_text();
    assert!(
        metrics.contains("sttlock_counter{name=\"serve.request_panicked\"} 3"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_responses() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    assert_eq!(post(&addr, "/v1/harden", "{not json").status, 400);
    assert_eq!(post(&addr, "/v1/harden", "{}").status, 400); // no bench
    assert_eq!(
        post(&addr, "/v1/harden", "{\"bench\":\"INPUT(\"}").status,
        400
    );
    let bad_alg = post(
        &addr,
        "/v1/harden",
        "{\"bench\":\"x\",\"algorithm\":\"magic\"}",
    );
    assert_eq!(bad_alg.status, 400);
    assert!(bad_alg.body_text().contains("unknown algorithm"));

    server.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let _guard = serial();
    let cfg = ServeConfig {
        debug_endpoints: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();

    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || post(&addr, "/debug/sleep", "{\"ms\":600}"))
    };
    std::thread::sleep(Duration::from_millis(200)); // let it reach a worker

    let metrics = server.metrics().clone();
    server.shutdown(); // blocks until drained
    let resp = in_flight.join().unwrap();
    assert_eq!(
        resp.status,
        200,
        "in-flight request must complete across shutdown: {}",
        resp.body_text()
    );
    assert_eq!(metrics.counter_value("serve.status.2xx"), 1);

    // The listener is gone: new connections are refused, not queued.
    assert!(client::request(&addr, "GET", "/healthz", None, Duration::from_secs(2)).is_err());
}

#[test]
fn admin_shutdown_drains_via_wait() {
    let _guard = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let resp = post(&addr, "/admin/shutdown", "");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("draining"));

    let metrics = server.metrics().clone();
    let t0 = Instant::now();
    let digest = server.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "wait() should notice the stop flag promptly"
    );
    assert!(digest.contains("counters"), "{digest}");
    assert_eq!(metrics.counter_value("serve.accepted"), 1);
}
