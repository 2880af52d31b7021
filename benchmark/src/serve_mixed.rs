//! `serve-mixed`: the harden/attack service under the load generator's
//! mixed traffic.
//!
//! The schedule is `sttlock-loadgen --mode mixed` (the repository's own
//! definition of mixed service traffic, run by CI's serve smoke test):
//! the loadgen's bench (`--gates 60`: 60 gates, 4 flip-flops, 6 inputs,
//! 4 outputs, generated from its fixed seed) shared by every request,
//! parametric-aware selection, four selection seeds; request `i` uses
//! seed `i % 4`, and every fourth request (`i % 4 == 3`) is a
//! `/v1/attack` sensitization attack instead of a `/v1/harden`. After the
//! first wave every harden is a cache hit and every attack recomputes the
//! flow and the attack. Two differences from the loadgen: two
//! closed-loop clients instead of 64 (a 2-core box), and the three
//! harden seeds are drawn from the run seed. The attack request is the
//! loadgen's own: its cost is the run's largest, and on a bench drawn
//! from the run seed it swung throughput 4× (237–916 req/s over seeds
//! 1–5).
//!
//! An in-process `serve::Server` (two workers, persistent harden cache
//! in a fresh directory, default limits) serves it; the server closes
//! every connection, so there is one connection per request.

use std::fs;
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_benchgen::Profile;
use sttlock_campaign::json::Json;
use sttlock_netlist::bench_format;
use sttlock_serve::{client, ServeConfig, Server};

use crate::harness::{
    closed_loop, repeat_setup, report, traced, Outcome, Params, Shape, Stop, THREADS,
};
use crate::layers::OutputFacts;

/// The loadgen's bench: its default size and its fixed generator seed.
const GATES: usize = 60;
const BENCH_SEED: u64 = 0x10AD;

/// Selection seeds in play, as in the loadgen: request `i` uses key
/// `i % KEYS`, and key `KEYS - 1` is the attack.
const KEYS: usize = 4;

/// The attack's selection seed: the loadgen's (`i % 4` for `i % 4 == 3`).
const ATTACK_SEED: u64 = 3;

/// Harden seeds the set-up tries per run: a seed whose parametric
/// selection comes up empty cannot be cached, so the set-up draws the
/// next one from the run seed's stream.
const MAX_DRAWS: usize = 64;

const SHAPE: Shape = Shape {
    call: "one HTTP request",
    window: 100,
    // Thousands of requests per 15 s run: more than 10 beyond p99.
    tail: 99.0,
    lanes: 1,
};

/// Client-side timeout per request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The loadgen's bench text.
fn bench() -> String {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    bench_format::write(&Profile::custom("load", GATES, 4, 6, 4).generate(&mut rng))
}

/// A harden request body, or with `attack` the sensitization attack.
fn request(bench: &str, seed: u64, attack: bool) -> (&'static str, String) {
    let mut body = vec![
        ("bench", Json::from(bench)),
        ("algorithm", Json::from("para")),
        ("seed", Json::from(seed)),
    ];
    if attack {
        body.push(("mode", Json::from("sens")));
        ("/v1/attack", Json::obj(body).to_string())
    } else {
        ("/v1/harden", Json::obj(body).to_string())
    }
}

/// A response as the client saw it.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: String,
}

fn send(addr: &str, path: &str, body: &str) -> Reply {
    match client::request(addr, "POST", path, Some(body), CLIENT_TIMEOUT) {
        Ok(resp) => Reply {
            status: resp.status,
            body: resp.body_text(),
        },
        Err(e) => Reply {
            status: 0,
            body: format!("connection error: {e}"),
        },
    }
}

/// A started server with the first wave's responses, the references
/// every later response is checked against.
struct Live {
    server: Server,
    addr: String,
    /// Request paths and bodies, by key.
    requests: Vec<(&'static str, String)>,
    /// First-wave response bodies, by key.
    first: Vec<String>,
}

/// Set-up: start the server on a fresh cache directory and send the
/// first wave, one request per key. Harden seeds are drawn from the run
/// seed until three select something.
fn start(seed: u64, cache_dir: &Path, install_obs: bool) -> Result<Live, String> {
    let _ = fs::remove_dir_all(cache_dir);
    fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let server = Server::start(ServeConfig {
        workers: THREADS,
        cache_dir: Some(cache_dir.to_path_buf()),
        install_obs,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let addr = server.addr().to_string();
    let bench = bench();
    let mut requests = Vec::with_capacity(KEYS);
    let mut first = Vec::with_capacity(KEYS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws = 0;
    while requests.len() < KEYS {
        let attack = requests.len() == KEYS - 1;
        let key_seed = if attack {
            ATTACK_SEED
        } else {
            draws += 1;
            if draws > MAX_DRAWS {
                return Err(format!("no {MAX_DRAWS} harden seeds select something"));
            }
            rng.gen_range(0..1u64 << 32)
        };
        let (path, body) = request(&bench, key_seed, attack);
        let reply = send(&addr, path, &body);
        match reply.status {
            200 => {
                requests.push((path, body));
                first.push(reply.body);
            }
            422 if !attack => {}
            status => return Err(format!("first wave: status {status}: {}", reply.body)),
        }
    }
    Ok(Live {
        server,
        addr,
        requests,
        first,
    })
}

/// A response body without its per-request fields (`wall_ms`, `cached`,
/// `metrics.selection_ms`): what must repeat byte for byte.
fn normalized(body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut m)) => {
            m.remove("wall_ms");
            m.remove("cached");
            if let Some(Json::Obj(metrics)) = m.get_mut("metrics") {
                metrics.remove("selection_ms");
            }
            Json::Obj(m).to_string()
        }
        _ => body.to_owned(),
    }
}

/// Checks one reply against its key's first-wave response: 200, a
/// cache hit for a harden, the same normalized body.
fn check(i: usize, reply: &Reply, first: &[String], facts: &mut OutputFacts, out: &mut Outcome) {
    let key = i % KEYS;
    facts.items += 1;
    if reply.status != 200 {
        out.failed += 1;
        out.problem(format!(
            "request {i}: status {}: {}",
            reply.status, reply.body
        ));
        return;
    }
    let v = Json::parse(&reply.body).unwrap_or(Json::Null);
    if key == KEYS - 1 {
        facts.attacks += 1;
        facts.broke += u64::from(v.get("broke").and_then(Json::as_bool) == Some(true));
    } else {
        facts.flows += 1;
        facts.luts += v.get("stt_count").and_then(Json::as_u64).unwrap_or(0);
        if v.get("cached").and_then(Json::as_bool) != Some(true) {
            out.problem(format!("request {i}: a repeated harden missed the cache"));
        }
    }
    if normalized(&reply.body) != normalized(&first[key]) {
        out.problem(format!(
            "request {i}: differs from the first response to key {key}"
        ));
    }
}

/// Runs one `serve-mixed` invocation.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    // The traced run records into its own collector, not the server's
    // metrics sink.
    let (setup_s, live) =
        repeat_setup(|rep| start(p.seed, &p.work_dir.join(format!("cache-{rep}")), !p.trace));
    let live = match live {
        Ok(l) => l,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    let (done, collector) = traced(p.trace, || {
        let done = closed_loop(
            THREADS,
            Stop::After(Duration::from_secs_f64(p.seconds)),
            |i| {
                let (path, body) = &live.requests[i % KEYS];
                send(&live.addr, path, body)
            },
        );
        // Joins the workers, so every server span has closed.
        live.server.shutdown();
        done
    });

    let mut facts = OutputFacts::default();
    for d in &done {
        check(d.index, &d.result, &live.first, &mut facts, &mut out);
    }
    out.attempted = facts.items;
    let normal: Vec<String> = done.iter().map(|d| normalized(&d.result.body)).collect();
    out.set_digest(normal.iter().map(String::as_str));
    let calls: Vec<_> = done.iter().map(|d| d.time(1)).collect();
    for (label, attack) in [("harden", false), ("attack", true)] {
        let class: Vec<f64> = done
            .iter()
            .filter(|d| (d.index % KEYS == KEYS - 1) == attack)
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect();
        let sorted = crate::stats::sorted(&class);
        out.notes.push(format!(
            "{label} latency: p50 {:.3} ms, max {:.3} ms over {}",
            crate::stats::percentile(&sorted, 50.0),
            sorted.last().copied().unwrap_or(0.0),
            sorted.len()
        ));
    }
    report(
        p,
        SHAPE,
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
    fn the_schedule_follows_the_loadgen_mixed_mode() {
        let (path, body) = request("INPUT(a)\nOUTPUT(a)\n", 1, false);
        assert_eq!(path, "/v1/harden");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("algorithm").and_then(Json::as_str), Some("para"));
        let (path, body) = request("x", ATTACK_SEED, true);
        assert_eq!(path, "/v1/attack");
        assert!(body.contains("\"mode\":\"sens\""));
    }

    #[test]
    fn the_requests_are_a_pure_function_of_the_seed() {
        let _obs = crate::harness::OBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir =
            std::env::temp_dir().join(format!("sttlock-benchmark-keys-{}", std::process::id()));
        let requests = |seed| {
            let live = start(seed, &dir, false).unwrap();
            live.server.shutdown();
            live.requests
        };
        let (a, b, c) = (requests(42), requests(42), requests(43));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(a, b);
        assert_ne!(a[..KEYS - 1], c[..KEYS - 1], "harden keys follow the seed");
        assert_eq!(a[KEYS - 1], c[KEYS - 1], "the attack is the loadgen's");
    }

    #[test]
    fn a_short_mix_serves_and_checks_clean() {
        let _obs = crate::harness::OBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for trace in [false, true] {
            let work_dir = std::env::temp_dir().join(format!(
                "sttlock-benchmark-serve-{}-{trace}",
                std::process::id()
            ));
            let p = Params {
                workload: "serve-smoke".into(),
                seed: 11,
                seconds: 0.3,
                trace,
                trace_dir: None,
                work_dir: work_dir.clone(),
            };
            let out = run(&p);
            let _ = fs::remove_dir_all(&work_dir);
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert!(out.attempted > 0);
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{:?}",
                out.metrics
            );
            if trace {
                let hits = out
                    .metrics
                    .iter()
                    .find(|m| m.name == "serve.cache_hit_frac");
                assert_eq!(hits.map(|m| m.value), Some(1.0));
            }
        }
    }
}
