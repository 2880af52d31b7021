//! End-to-end cluster tests: a real coordinator and real workers over
//! real sockets, asserting the headline guarantees — merged output
//! byte-identical to a single-node run, eviction + redispatch around
//! dead and version-skewed workers, and journal-driven resume.
//!
//! The obs collector registry is process-global, so every test takes
//! `SERIAL` first and every server runs with `install_obs: false`
//! under one ambient [`MetricsCollector`] per test.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::Profile;
use sttlock_campaign::{execute, CampaignResult, CampaignSpec, CircuitSpec};
use sttlock_cluster::journal::DispatchJournal;
use sttlock_cluster::protocol::Register;
use sttlock_cluster::{
    start_coordinator, start_worker, Coordinator, CoordinatorConfig, Worker, WorkerConfig,
};
use sttlock_exec::{Backoff, Budget};
use sttlock_netlist::bench_format;
use sttlock_obs::MetricsCollector;
use sttlock_serve::client;
use sttlock_serve::http::{read_request, Limits};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// Installs a fresh ambient collector; uninstalls on drop so a failing
/// test does not poison the next one.
struct Obs {
    collector: Arc<MetricsCollector>,
}

impl Obs {
    fn install() -> Obs {
        let collector = MetricsCollector::new();
        sttlock_obs::install(collector.clone());
        Obs { collector }
    }

    fn counter(&self, name: &str) -> u64 {
        self.collector.counter_value(name)
    }
}

impl Drop for Obs {
    fn drop(&mut self) {
        sttlock_obs::uninstall();
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sttlock-cluster-tests")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small(name: &str) -> CircuitSpec {
    CircuitSpec::Custom {
        name: name.to_owned(),
        gates: 60,
        dffs: 4,
        inputs: 6,
        outputs: 4,
    }
}

/// A 6-cell grid: 2 circuits x 3 algorithms x 1 seed.
fn grid_spec() -> CampaignSpec {
    CampaignSpec {
        circuits: vec![small("clu-a"), small("clu-b")],
        algorithms: sttlock_core::SelectionAlgorithm::ALL.to_vec(),
        seeds: vec![3],
        timeout: Duration::from_secs(60),
        jobs: 1,
        ..CampaignSpec::default()
    }
}

/// Blanks the two wall-clock fields; everything else must match bit
/// for bit between a single-node and a distributed run.
fn zeroed(mut result: CampaignResult) -> String {
    for r in &mut result.records {
        r.wall_ms = 0;
        if let Some(flow) = &mut r.flow {
            flow.selection_ms = 0.0;
        }
    }
    result.to_jsonl()
}

fn coordinator_cfg() -> CoordinatorConfig {
    CoordinatorConfig {
        install_obs: false,
        // Keep barren-round naps short so eviction/redispatch tests
        // finish quickly.
        backoff: Backoff::new(Duration::from_millis(10), Duration::from_millis(100)),
        ..CoordinatorConfig::default()
    }
}

fn join_worker(coordinator: &Coordinator) -> Worker {
    start_worker(WorkerConfig {
        coordinator: coordinator.addr().to_string(),
        install_obs: false,
        heartbeat: Duration::from_millis(100),
        ..WorkerConfig::default()
    })
    .expect("worker should start")
}

fn wait_for_workers(coordinator: &Coordinator, n: usize) {
    let deadline = Instant::now() + TIMEOUT;
    while coordinator.worker_count() != n {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} workers"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Registers a worker id with the coordinator without running one —
/// the address points wherever the test wants dispatches to land.
fn register_fake(coordinator: &Coordinator, id: &str, addr: &str) {
    let body = Register {
        worker: id.to_owned(),
        addr: addr.to_owned(),
    }
    .to_json()
    .to_string();
    let resp = client::request(
        &coordinator.addr().to_string(),
        "POST",
        "/cluster/register",
        Some(&body),
        TIMEOUT,
    )
    .expect("register should get a response");
    assert_eq!(resp.status, 200);
}

/// An address that refuses connections: bind, record, drop.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

#[test]
fn two_workers_merge_byte_identical_to_single_node() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = zeroed(execute(&spec));

    let coordinator = start_coordinator(CoordinatorConfig {
        min_workers: 2,
        ..coordinator_cfg()
    })
    .unwrap();
    let w1 = join_worker(&coordinator);
    let w2 = join_worker(&coordinator);
    wait_for_workers(&coordinator, 2);

    let result = coordinator.run_campaign(&spec, &Budget::with_timeout(TIMEOUT));
    assert_eq!(
        zeroed(result),
        baseline,
        "distributed merge must be byte-identical to a single-node run"
    );
    assert_eq!(obs.counter("cluster.dispatch"), 6);
    assert_eq!(obs.counter("cluster.redispatch"), 0);
    assert_eq!(obs.counter("cluster.merge"), 6);
    assert_eq!(obs.counter("cluster.lost_records"), 0);

    w1.shutdown();
    w2.shutdown();
    coordinator.shutdown();
}

#[test]
fn a_dead_worker_is_evicted_and_its_cells_redispatched() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = zeroed(execute(&spec));

    let coordinator = start_coordinator(coordinator_cfg()).unwrap();
    // The only registered worker refuses every connection, so round
    // one dispatches the whole grid into failures.
    register_fake(&coordinator, "fake-dead", &dead_addr());
    wait_for_workers(&coordinator, 1);

    let result = std::thread::scope(|s| {
        let run = s.spawn(|| coordinator.run_campaign(&spec, &Budget::with_timeout(TIMEOUT)));
        // A live worker joins only after the fake one has failed.
        std::thread::sleep(Duration::from_millis(300));
        let worker = join_worker(&coordinator);
        let result = run.join().expect("campaign thread should not panic");
        worker.shutdown();
        result
    });

    assert_eq!(
        zeroed(result),
        baseline,
        "redispatched cells must still merge byte-identically"
    );
    assert_eq!(obs.counter("cluster.evicted_workers"), 1);
    assert!(
        obs.counter("cluster.redispatch") >= 1,
        "cells dispatched to the dead worker must be re-dispatched"
    );
    assert_eq!(obs.counter("cluster.lost_records"), 0);
    coordinator.shutdown();
}

#[test]
fn a_version_skewed_worker_is_treated_like_a_dead_one() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = zeroed(execute(&spec));

    // A fake worker that answers 200 with a payload from a different
    // protocol version. It reads the whole request (head and body)
    // before replying: closing a socket with unread bytes sends an RST,
    // which would turn the skewed reply into a transport error. The
    // thread parks on accept; it dies with the test process.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let skewed_addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = read_request(&mut BufReader::new(&stream), &Limits::default());
            let body = "{\"proto\":999}";
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });

    let coordinator = start_coordinator(coordinator_cfg()).unwrap();
    register_fake(&coordinator, "fake-skewed", &skewed_addr);
    wait_for_workers(&coordinator, 1);

    let result = std::thread::scope(|s| {
        let run = s.spawn(|| coordinator.run_campaign(&spec, &Budget::with_timeout(TIMEOUT)));
        std::thread::sleep(Duration::from_millis(300));
        let worker = join_worker(&coordinator);
        let result = run.join().expect("campaign thread should not panic");
        worker.shutdown();
        result
    });

    assert_eq!(
        zeroed(result),
        baseline,
        "a skewed worker must not contribute records"
    );
    assert!(obs.counter("cluster.skewed_responses") >= 1);
    assert_eq!(obs.counter("cluster.evicted_workers"), 1);
    assert!(obs.counter("cluster.redispatch") >= 1);
    coordinator.shutdown();
}

#[test]
fn the_run_survives_dropping_below_the_startup_quorum() {
    // min_workers gates only the first round: with the quorum formed
    // by one live worker plus one that refuses every connection, the
    // run must still complete on the survivor instead of deadlocking
    // behind an unreachable quorum.
    let _guard = serial();
    let _obs = Obs::install();
    let spec = grid_spec();
    let baseline = zeroed(execute(&spec));

    let coordinator = start_coordinator(CoordinatorConfig {
        min_workers: 2,
        ..coordinator_cfg()
    })
    .unwrap();
    register_fake(&coordinator, "fake-quorum", &dead_addr());
    let worker = join_worker(&coordinator);
    wait_for_workers(&coordinator, 2);

    let result = coordinator.run_campaign(&spec, &Budget::with_timeout(Duration::from_secs(30)));
    assert_eq!(
        zeroed(result),
        baseline,
        "the run must complete on the surviving worker"
    );
    worker.shutdown();
    coordinator.shutdown();
}

#[test]
fn stale_workers_are_evicted_on_heartbeat_timeout() {
    let _guard = serial();
    let obs = Obs::install();
    let coordinator = start_coordinator(CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(150),
        ..coordinator_cfg()
    })
    .unwrap();
    register_fake(&coordinator, "fake-silent", &dead_addr());
    assert_eq!(coordinator.worker_count(), 1);

    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        coordinator.worker_count(),
        0,
        "a worker that stops heartbeating must be evicted"
    );
    assert_eq!(obs.counter("cluster.evicted_workers"), 1);
    coordinator.shutdown();
}

#[test]
fn resume_replays_journal_completions_and_dispatches_only_the_rest() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = execute(&spec);
    let keys: Vec<String> = spec
        .cells()
        .iter()
        .map(sttlock_campaign::cell_journal_key)
        .collect();
    assert_eq!(baseline.records.len(), 6);

    // Simulate a coordinator that crashed after completing the first
    // three cells: its journal holds their durable completions.
    let journal_path = tmp_dir("resume").join("dispatch.log");
    {
        let mut opened = DispatchJournal::open(&journal_path).unwrap();
        for (key, record) in keys.iter().zip(&baseline.records).take(3) {
            opened.journal.complete(key, record).unwrap();
        }
    }

    let coordinator = start_coordinator(CoordinatorConfig {
        journal: Some(journal_path),
        resume: true,
        ..coordinator_cfg()
    })
    .unwrap();
    let worker = join_worker(&coordinator);
    wait_for_workers(&coordinator, 1);

    let result = coordinator.run_campaign(&spec, &Budget::with_timeout(TIMEOUT));
    assert_eq!(
        obs.counter("cluster.replayed"),
        3,
        "journaled completions replay instead of re-running"
    );
    assert_eq!(
        obs.counter("cluster.dispatch"),
        3,
        "only the incomplete cells may be dispatched"
    );
    assert_eq!(
        zeroed(result),
        zeroed(baseline),
        "replayed + fresh records must merge byte-identically"
    );

    worker.shutdown();
    coordinator.shutdown();
}

#[test]
fn harden_fan_out_routes_to_a_worker_and_degrades_without_one() {
    let _guard = serial();
    let obs = Obs::install();
    let coordinator = start_coordinator(coordinator_cfg()).unwrap();
    let coord_addr = coordinator.addr().to_string();

    let mut rng = StdRng::seed_from_u64(7);
    let bench = bench_format::write(&Profile::custom("t", 40, 3, 5, 3).generate(&mut rng));
    let escaped = bench
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let body = format!("{{\"bench\":\"{escaped}\",\"algorithm\":\"para\",\"seed\":9}}");

    // No workers yet: explicit 503 with a retry hint, not a hang.
    let starved = client::request(&coord_addr, "POST", "/v1/harden", Some(&body), TIMEOUT).unwrap();
    assert_eq!(starved.status, 503);
    assert_eq!(starved.header("retry-after"), Some("1"));

    let worker = join_worker(&coordinator);
    wait_for_workers(&coordinator, 1);

    let via_coordinator =
        client::request(&coord_addr, "POST", "/v1/harden", Some(&body), TIMEOUT).unwrap();
    assert_eq!(via_coordinator.status, 200);
    let direct =
        client::request(worker.addr(), "POST", "/v1/harden", Some(&body), TIMEOUT).unwrap();
    // Blank the wall-clock fields; the hardening itself is
    // deterministic, so everything else must match bit for bit.
    let blanked = |text: &str| {
        let mut v = sttlock_campaign::json::Json::parse(text).unwrap();
        if let sttlock_campaign::json::Json::Obj(map) = &mut v {
            map.insert("wall_ms".into(), sttlock_campaign::json::Json::from(0u64));
            if let Some(sttlock_campaign::json::Json::Obj(metrics)) = map.get_mut("metrics") {
                metrics.insert(
                    "selection_ms".into(),
                    sttlock_campaign::json::Json::from(0u64),
                );
            }
        }
        v.to_string()
    };
    assert_eq!(
        blanked(&via_coordinator.body_text()),
        blanked(&direct.body_text()),
        "the coordinator must forward harden responses verbatim"
    );
    assert_eq!(obs.counter("cluster.fanout"), 1);

    worker.shutdown();
    coordinator.shutdown();
}
