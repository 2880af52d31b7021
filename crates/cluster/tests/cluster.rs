//! End-to-end cluster tests: a real coordinator and real workers over
//! real sockets, asserting the headline guarantees — merged output
//! byte-identical to a single-node run, eviction + redispatch around
//! dead, version-skewed and wrong-cell workers, and journal-driven
//! resume from campaign journals of either writer.
//!
//! The obs collector registry is process-global, so every test takes
//! `SERIAL` first and every server runs with `install_obs: false`
//! under one ambient span-less [`TraceCollector`] per test.

use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::Profile;
use sttlock_campaign::json::Json;
use sttlock_campaign::{
    cell_journal_key, execute, CampaignResult, CampaignSpec, CircuitSpec, JournalEntry, RunRecord,
    RunStatus, JOURNAL_SCHEMA_VERSION,
};
use sttlock_cluster::protocol::{CellResponse, Heartbeat};
use sttlock_cluster::{
    start_coordinator, start_worker, Coordinator, CoordinatorConfig, Worker, WorkerConfig,
};
use sttlock_exec::{Backoff, Budget};
use sttlock_netlist::bench_format;
use sttlock_obs::TraceCollector;
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
    collector: Arc<TraceCollector>,
}

impl Obs {
    fn install() -> Obs {
        let collector = TraceCollector::without_spans();
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
/// one heartbeat, whose address points wherever the test wants
/// dispatches to land.
fn register_fake(coordinator: &Coordinator, id: &str, addr: &str) {
    let body = Heartbeat {
        worker: id.to_owned(),
        addr: addr.to_owned(),
        load: 0,
    }
    .to_json()
    .to_string();
    let resp = client::request(
        &coordinator.addr().to_string(),
        "POST",
        "/cluster/heartbeat",
        Some(&body),
        TIMEOUT,
    )
    .expect("heartbeat should get a response");
    assert_eq!(resp.status, 200);
}

/// An address that refuses connections: bind, record, drop.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// A fake worker that answers every request 200 with `body`. It reads
/// the whole request (head and body) before replying: closing a socket
/// with unread bytes sends an RST, which would turn the reply into a
/// transport error. The thread parks on accept; it dies with the test
/// process.
fn fake_worker(body: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = read_request(&mut BufReader::new(&stream), &Limits::default());
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });
    addr
}

/// Runs `spec` on a coordinator whose only worker is the fake at
/// `fake_addr`; a real worker joins once the fake has had its chance
/// to fail. Returns the merged result.
fn run_past_a_fake(spec: &CampaignSpec, fake_addr: &str) -> CampaignResult {
    let coordinator = start_coordinator(coordinator_cfg()).unwrap();
    register_fake(&coordinator, "fake", fake_addr);
    wait_for_workers(&coordinator, 1);
    let result = std::thread::scope(|s| {
        let run = s.spawn(|| coordinator.run_campaign(spec, &Budget::with_timeout(TIMEOUT)));
        std::thread::sleep(Duration::from_millis(300));
        let worker = join_worker(&coordinator);
        let result = run.join().expect("campaign thread should not panic");
        worker.shutdown();
        result
    });
    coordinator.shutdown();
    result
}

/// Starts a coordinator resuming from `journal` with one real worker,
/// runs `spec`, and returns the merged result.
fn resume_from(journal: std::path::PathBuf, spec: &CampaignSpec) -> CampaignResult {
    let coordinator = start_coordinator(CoordinatorConfig {
        journal: Some(journal),
        resume: true,
        ..coordinator_cfg()
    })
    .unwrap();
    let worker = join_worker(&coordinator);
    wait_for_workers(&coordinator, 1);
    let result = coordinator.run_campaign(spec, &Budget::with_timeout(TIMEOUT));
    worker.shutdown();
    coordinator.shutdown();
    result
}

/// Writes `payloads` to `path` as the frames a record log appends.
fn write_frames(path: &std::path::Path, payloads: &[Json]) {
    let mut bytes = Vec::new();
    for payload in payloads {
        bytes.extend(sttlock_store::frame::encode(payload.to_string().as_bytes()));
    }
    std::fs::write(path, bytes).unwrap();
}

/// A campaign journal payload for `record` under `schema`.
fn entry(schema: u32, record: &RunRecord) -> Json {
    Json::obj([
        ("schema", Json::from(u64::from(schema))),
        ("record", record.to_json()),
    ])
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
    // protocol version.
    let result = run_past_a_fake(&spec, &fake_worker("{\"proto\":999}".to_owned()));

    assert_eq!(
        zeroed(result),
        baseline,
        "a skewed worker must not contribute records"
    );
    assert!(obs.counter("cluster.skewed_responses") >= 1);
    assert_eq!(obs.counter("cluster.evicted_workers"), 1);
    assert!(obs.counter("cluster.redispatch") >= 1);
}

#[test]
fn a_worker_answering_with_another_cells_record_is_evicted() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = execute(&spec);

    // A fake worker that answers every dispatch with a well-formed,
    // current-protocol record — of a cell outside the grid.
    let mut foreign = baseline.records[0].clone();
    foreign.seed = 99;
    let body = CellResponse { record: foreign }.to_json().to_string();
    let result = run_past_a_fake(&spec, &fake_worker(body));

    assert_eq!(
        zeroed(result),
        zeroed(baseline),
        "another cell's record must never be merged into this one's slot"
    );
    assert!(obs.counter("cluster.skewed_responses") >= 1);
    assert_eq!(obs.counter("cluster.evicted_workers"), 1);
    assert!(obs.counter("cluster.redispatch") >= 1);
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
    assert_eq!(baseline.records.len(), 6);

    // A single-node campaign over the grid's first circuit leaves three
    // durable entries in its journal, as a run killed half-way would.
    let journal = tmp_dir("resume").join("campaign.log");
    let first = execute(&CampaignSpec {
        circuits: spec.circuits[..1].to_vec(),
        journal: Some(journal.clone()),
        ..spec.clone()
    });
    assert_eq!(first.records.len(), 3);

    let result = resume_from(journal.clone(), &spec);
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
    // The coordinator appended the three cells it dispatched.
    let entries = sttlock_store::read_all::<JournalEntry>(&journal).unwrap().0;
    assert_eq!(entries.len(), 6);
}

#[test]
fn a_dispatch_journal_from_protocol_v1_still_resumes() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = execute(&spec);
    let keys: Vec<String> = spec.cells().iter().map(cell_journal_key).collect();

    // The earlier coordinator journaled a `dispatched` entry before and
    // a `completed` entry after each cell. It crashed with the first
    // three cells completed and the fourth in flight.
    let dispatched = |key: &str| {
        Json::obj([
            ("type", Json::from("dispatched")),
            ("key", Json::from(key)),
            ("worker", Json::from("worker-a")),
        ])
    };
    let mut payloads = Vec::new();
    for (key, record) in keys.iter().zip(&baseline.records).take(3) {
        payloads.push(dispatched(key));
        payloads.push(Json::obj([
            ("type", Json::from("completed")),
            ("key", Json::from(key.as_str())),
            ("schema", Json::from(u64::from(JOURNAL_SCHEMA_VERSION))),
            ("record", record.to_json()),
        ]));
    }
    payloads.push(dispatched(&keys[3]));
    let journal = tmp_dir("v1-journal").join("dispatch.log");
    write_frames(&journal, &payloads);

    let result = resume_from(journal, &spec);
    assert_eq!(obs.counter("cluster.replayed"), 3);
    assert_eq!(obs.counter("cluster.dispatch"), 3);
    let recovery = result.journal_recovery.clone().unwrap();
    assert_eq!(
        recovery.undecodable, 4,
        "every dispatched marker is an undecodable entry"
    );
    assert_eq!(zeroed(result), zeroed(baseline));
}

#[test]
fn resume_replays_only_clean_current_schema_entries_of_the_grid() {
    let _guard = serial();
    let obs = Obs::install();
    let spec = grid_spec();
    let baseline = execute(&spec);
    let clean = |i: usize| entry(JOURNAL_SCHEMA_VERSION, &baseline.records[i]);
    let skewed = |i: usize| entry(JOURNAL_SCHEMA_VERSION + 1, &baseline.records[i]);
    let mut outside = baseline.records[0].clone();
    outside.circuit = "not-in-this-grid".to_owned();
    let failed = RunRecord {
        status: RunStatus::TimedOut,
        flow: None,
        ..baseline.records[1].clone()
    };

    let journal = tmp_dir("replay-rule").join("campaign.log");
    write_frames(
        &journal,
        &[
            clean(0),                                // replays
            entry(JOURNAL_SCHEMA_VERSION, &failed),  // cell 1: failed
            skewed(2),                               // cell 2: other schema
            clean(3),                                // cell 3: clean, then
            skewed(3),                               //   a later bad entry
            clean(4),                                // replays
            entry(JOURNAL_SCHEMA_VERSION, &outside), // outside the grid
        ],
    );

    let result = resume_from(journal, &spec);
    assert_eq!(obs.counter("cluster.replayed"), 2);
    assert_eq!(obs.counter("cluster.skewed_replays"), 3);
    assert_eq!(
        obs.counter("cluster.dispatch"),
        4,
        "the failed, skewed, reopened and unjournaled cells re-run"
    );
    assert_eq!(zeroed(result), zeroed(baseline));
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
