//! Load driver for `sttlock-serve`: hammers a running server with
//! concurrent harden/attack requests and checks the service-level
//! invariants the design promises — every connection gets an HTTP
//! response (only 2xx/429/504, never a dropped socket), cache-hit
//! hardens are much faster than cold ones, and the `/metrics` counters
//! agree with what the driver actually sent.
//!
//! ```text
//! sttlock-loadgen --addr 127.0.0.1:7979 --clients 64 --requests 50 \
//!     --gates 60 --mode mixed --assert-speedup 10 --check-metrics --shutdown
//! ```
//!
//! Exit status 0 means all invariants held; 1 means at least one was
//! violated (details on stderr).

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::Profile;
use sttlock_campaign::json::Json;
use sttlock_netlist::bench_format;
use sttlock_serve::client;

const TIMEOUT: Duration = Duration::from_secs(120);
/// Distinct (bench, seed) cache keys in play; every request with
/// `i % DISTINCT_SEEDS == k` maps to key `k`, so after the first wave
/// the vast majority of hardens are cache hits.
const DISTINCT_SEEDS: u64 = 4;

/// Requests issued by the post-storm cache-speedup probe (three cold
/// hardens plus five cache-hit repeats); the `/metrics` consistency
/// check accounts for them.
const PROBE_REQUESTS: u64 = 8;

/// Circuit size for the speedup probe. Small storm circuits keep the
/// mixed run fast, but their flow time sits in the network-latency
/// noise floor; the probe needs a circuit where compute dominates.
const PROBE_GATES: usize = 800;

struct Options {
    addr: String,
    clients: usize,
    requests: usize,
    gates: usize,
    mixed: bool,
    assert_speedup: Option<f64>,
    check_metrics: bool,
    shutdown: bool,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut opts = Options {
            addr: "127.0.0.1:7979".to_owned(),
            clients: 64,
            requests: 50,
            gates: 60,
            mixed: false,
            assert_speedup: None,
            check_metrics: false,
            shutdown: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--addr" => opts.addr = value("--addr")?,
                "--clients" => opts.clients = parse_num(&value("--clients")?)?,
                "--requests" => opts.requests = parse_num(&value("--requests")?)?,
                "--gates" => opts.gates = parse_num(&value("--gates")?)?,
                "--mode" => {
                    opts.mixed = match value("--mode")?.as_str() {
                        "harden" => false,
                        "mixed" => true,
                        other => return Err(format!("unknown mode `{other}` (harden|mixed)")),
                    }
                }
                "--assert-speedup" => {
                    let v = value("--assert-speedup")?;
                    opts.assert_speedup =
                        Some(v.parse().map_err(|_| format!("bad speedup `{v}`"))?);
                }
                "--check-metrics" => opts.check_metrics = true,
                "--shutdown" => opts.shutdown = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(opts)
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// One finished request, as seen from the client side.
struct Sample {
    status: u16,
    harden: bool,
    cached: bool,
}

fn main() -> ExitCode {
    let opts = match Options::parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One fixed bench shared by every request; seeds rotate over a
    // small set so the server's content-hash cache gets exercised.
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let bench =
        bench_format::write(&Profile::custom("load", opts.gates, 4, 6, 4).generate(&mut rng));
    let bench = Json::from(bench.as_str());

    let before = if opts.check_metrics {
        match fetch_metrics(&opts.addr) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("loadgen: cannot read /metrics before the run: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let counter = AtomicUsize::new(0);
    let total = opts.clients * opts.requests;
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..opts.clients {
            scope.spawn(|| loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let seed = (i as u64) % DISTINCT_SEEDS;
                let attack = opts.mixed && i % 4 == 3;
                let (path, body) = if attack {
                    (
                        "/v1/attack",
                        format!(
                            "{{\"bench\":{bench},\"algorithm\":\"para\",\"seed\":{seed},\"mode\":\"sens\"}}"
                        ),
                    )
                } else {
                    (
                        "/v1/harden",
                        format!("{{\"bench\":{bench},\"algorithm\":\"para\",\"seed\":{seed}}}"),
                    )
                };
                // A client thread that panicked mid-push poisons the
                // collection mutexes; the driver still wants every
                // sample it actually gathered, so recover the guard
                // instead of cascading the panic.
                match client::request(&opts.addr, "POST", path, Some(&body), TIMEOUT) {
                    Ok(resp) => samples
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(Sample {
                            status: resp.status,
                            harden: !attack,
                            cached: resp.body_text().contains("\"cached\":true"),
                        }),
                    Err(e) => failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(format!("request {i} ({path}): {e}")),
                }
            });
        }
    });
    let wall = started.elapsed();

    let samples = samples.into_inner().unwrap_or_else(PoisonError::into_inner);
    let failures = failures
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut ok = true;

    if !failures.is_empty() {
        ok = false;
        eprintln!("loadgen: {} connection-level failures:", failures.len());
        for f in failures.iter().take(10) {
            eprintln!("  {f}");
        }
    }

    let mut by_status: Vec<(u16, usize)> = Vec::new();
    for s in &samples {
        match by_status.iter_mut().find(|(code, _)| *code == s.status) {
            Some((_, n)) => *n += 1,
            None => by_status.push((s.status, 1)),
        }
        if !matches!(s.status, 200..=299 | 429 | 504) {
            ok = false;
            eprintln!("loadgen: unexpected status {}", s.status);
        }
    }
    by_status.sort_unstable();

    let hits = samples.iter().filter(|s| s.cached).count();
    println!(
        "loadgen: {} requests over {} clients in {:.2}s ({:.0} req/s), {} cache hits",
        samples.len(),
        opts.clients,
        wall.as_secs_f64(),
        samples.len() as f64 / wall.as_secs_f64().max(1e-9),
        hits,
    );
    for (code, n) in &by_status {
        println!("  status {code}: {n}");
    }

    // Cache-speedup probe, sequential and uncontended: under the storm
    // above, client-observed latency is queue wait, not compute, so the
    // cold/warm comparison must run on an idle server. A fresh seed
    // gives one guaranteed-cold flow, then repeats of the same request
    // are pure cache hits.
    if let Err(e) = probe_speedup(&opts, &mut ok) {
        ok = false;
        eprintln!("loadgen: speedup probe failed: {e}");
    }

    if let Some(before) = before {
        match fetch_metrics(&opts.addr) {
            Ok(after) => {
                let delta = |name: &str| {
                    counter_value(&after, name).saturating_sub(counter_value(&before, name))
                };
                let responses = delta("serve.status.2xx")
                    + delta("serve.status.4xx")
                    + delta("serve.status.5xx")
                    + delta("serve.status.other");
                // Beyond the storm: the before-/metrics response itself
                // and the speedup probe's 1 cold + 5 warm hardens.
                let expected = samples.len() as u64 + 1 + PROBE_REQUESTS;
                if responses != expected {
                    ok = false;
                    eprintln!(
                        "loadgen: /metrics counted {responses} responses, expected {expected}"
                    );
                }
                let hardens = delta("serve.endpoint.harden");
                let sent_hardens =
                    samples.iter().filter(|s| s.harden).count() as u64 + PROBE_REQUESTS;
                if hardens != sent_hardens {
                    ok = false;
                    eprintln!(
                        "loadgen: /metrics counted {hardens} harden requests, driver sent {sent_hardens}"
                    );
                }
                if responses == expected && hardens == sent_hardens {
                    println!(
                        "  /metrics deltas consistent: {responses} responses, {hardens} hardens"
                    );
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("loadgen: cannot read /metrics after the run: {e}");
            }
        }
    }

    if opts.shutdown {
        match client::request(&opts.addr, "POST", "/admin/shutdown", Some(""), TIMEOUT) {
            Ok(resp) if resp.status == 200 => println!("  server draining"),
            Ok(resp) => {
                ok = false;
                eprintln!("loadgen: shutdown returned {}", resp.status);
            }
            Err(e) => {
                ok = false;
                eprintln!("loadgen: shutdown failed: {e}");
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn probe_speedup(opts: &Options, ok: &mut bool) -> std::io::Result<()> {
    // The probe gets its own circuit, big enough that flow compute
    // dominates the round trip, and wall-clock-derived seeds so the
    // requests stay cold even when the server's cache directory
    // persists across loadgen runs.
    let mut rng = StdRng::seed_from_u64(0x9806E);
    let bench =
        bench_format::write(&Profile::custom("probe", PROBE_GATES, 8, 10, 6).generate(&mut rng));
    let bench = Json::from(bench.as_str());
    let seed_base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(u64::MAX / 2, |d| d.as_nanos() as u64)
        | (1 << 63); // never collides with the storm's small seeds
    let body_for =
        |seed: u64| format!("{{\"bench\":{bench},\"algorithm\":\"para\",\"seed\":{seed}}}");

    let mut colds = Vec::new();
    for i in 0..3u64 {
        // Seeds travel as JSON numbers (f64): near 2^63 adjacent
        // integers round together, so space the cold keys far apart.
        let body = body_for(seed_base.wrapping_add(i << 32));
        let t0 = Instant::now();
        let cold = client::request(&opts.addr, "POST", "/v1/harden", Some(&body), TIMEOUT)?;
        if cold.status != 200 || !cold.body_text().contains("\"cached\":false") {
            *ok = false;
            eprintln!(
                "loadgen: probe's cold request came back {} (cached body: {})",
                cold.status,
                cold.body_text().contains("\"cached\":true"),
            );
            return Ok(());
        }
        colds.push(t0.elapsed());
    }

    let body = body_for(seed_base.wrapping_add(2 << 32)); // repeat the last cold key
    let mut warms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let warm = client::request(&opts.addr, "POST", "/v1/harden", Some(&body), TIMEOUT)?;
        if warm.status != 200 || !warm.body_text().contains("\"cached\":true") {
            *ok = false;
            eprintln!("loadgen: probe's repeat request was not a cache hit");
            return Ok(());
        }
        warms.push(t0.elapsed());
    }
    colds.sort_unstable();
    warms.sort_unstable();
    let cold_latency = colds[colds.len() / 2];
    let warm_latency = warms[warms.len() / 2];
    let speedup = cold_latency.as_secs_f64() / warm_latency.as_secs_f64().max(1e-9);
    println!(
        "  probe ({PROBE_GATES} gates): cold median {:.2} ms | cache hit median {:.2} ms | speedup {:.1}x",
        cold_latency.as_secs_f64() * 1e3,
        warm_latency.as_secs_f64() * 1e3,
        speedup,
    );
    if let Some(want) = opts.assert_speedup {
        if speedup < want {
            *ok = false;
            eprintln!("loadgen: cache speedup {speedup:.1}x below required {want:.1}x");
        }
    }
    Ok(())
}

fn fetch_metrics(addr: &str) -> std::io::Result<String> {
    client::request(addr, "GET", "/metrics", None, TIMEOUT).map(|r| r.body_text())
}

/// Pulls `sttlock_counter{name="..."} N` out of the text exposition.
fn counter_value(text: &str, name: &str) -> u64 {
    let needle = format!("sttlock_counter{{name=\"{name}\"}} ");
    text.lines()
        .find_map(|line| line.strip_prefix(&needle))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
