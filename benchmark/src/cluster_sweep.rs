//! `cluster-sweep`: distributed campaigns on an in-process cluster.
//!
//! A coordinator (dispatch journal on, fsync per append) and two
//! workers run in this process over loopback. Each call is one
//! `Coordinator::run_campaign` over the paper's seven profiles up to
//! s1488 × the three algorithms at one seed; the calls cycle through 24
//! fixed seeds, starting at an offset drawn from the run seed, so every
//! run covers the same mix of campaigns about ten times over and the
//! workers' generation pools stay bounded.
//! Cells are a few milliseconds of flow each, so dispatch — the HTTP
//! round trip, the cell/record wire format and two journal appends per
//! cell — is a large share of the time.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use sttlock_benchgen::profiles;
use sttlock_campaign::{CampaignResult, CampaignSpec, CircuitSpec};
use sttlock_cluster::{
    start_coordinator, start_worker, Coordinator, CoordinatorConfig, Worker, WorkerConfig,
};
use sttlock_core::SelectionAlgorithm;
use sttlock_exec::Budget;

use crate::grid::{is_nothing_selected, normalized};
use crate::harness::{closed_loop, repeat_setup, report, traced, Outcome, Params, Shape, Stop};
use crate::layers::OutputFacts;

/// The sweep and its size.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Profiles up to this many gates (s641 … s1488).
    pub max_gates: usize,
    /// Seeds the campaigns cycle through, from the reproduction seed on.
    /// A campaign's cost depends on its seed (runs of equal seed agreed
    /// where runs of different seeds did not), so the cycle is fixed and
    /// the run seed only picks where it starts.
    pub seeds: usize,
}

/// The reproduction seed (the one EXPERIMENTS.md reports).
const REPRODUCTION_SEED: u64 = 42;

impl Sweep {
    pub const DEFAULT: Sweep = Sweep {
        max_gates: 1000,
        seeds: 24,
    };

    /// Campaign `round` of the run with seed `seed`: every profile ×
    /// algorithm at one seed of the cycle.
    fn spec(self, seed: u64, round: usize) -> CampaignSpec {
        let step = (seed % self.seeds as u64 + round as u64) % self.seeds as u64;
        CampaignSpec {
            circuits: profiles::up_to(self.max_gates)
                .into_iter()
                .map(|p| CircuitSpec::Profile(p.name.to_owned()))
                .collect(),
            algorithms: SelectionAlgorithm::ALL.to_vec(),
            seeds: vec![REPRODUCTION_SEED + step],
            ..CampaignSpec::default()
        }
    }
}

/// Two workers, one per core.
const WORKERS: usize = 2;

const SHAPE: Shape = Shape {
    call: "one distributed campaign",
    window: 1,
    // About 200 campaigns per 15 s run on two vCPUs: 20 beyond p90.
    tail: 90.0,
    // The coordinator keeps one dispatch lane per worker busy.
    lanes: WORKERS,
};

/// A running cluster; dropping it shuts the workers and the
/// coordinator down and joins their threads.
struct Cluster {
    coordinator: Option<Coordinator>,
    workers: Vec<Worker>,
}

impl Cluster {
    /// Set-up: coordinator and workers started, both workers registered.
    fn start(journal: &Path) -> Result<Cluster, String> {
        let coordinator = start_coordinator(CoordinatorConfig {
            min_workers: WORKERS,
            journal: Some(journal.to_path_buf()),
            install_obs: false,
            ..CoordinatorConfig::default()
        })
        .map_err(|e| format!("coordinator start failed: {e}"))?;
        let addr = coordinator.addr().to_string();
        let mut cluster = Cluster {
            coordinator: Some(coordinator),
            workers: Vec::new(),
        };
        for w in 0..WORKERS {
            cluster.workers.push(
                start_worker(WorkerConfig {
                    coordinator: addr.clone(),
                    worker_id: Some(format!("worker-{w}")),
                    install_obs: false,
                    ..WorkerConfig::default()
                })
                .map_err(|e| format!("worker start failed: {e}"))?,
            );
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while cluster.coordinator().worker_count() < WORKERS {
            if Instant::now() > deadline {
                return Err("workers did not register within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(cluster)
    }

    fn coordinator(&self) -> &Coordinator {
        self.coordinator
            .as_ref()
            .expect("the coordinator lives until drop")
    }

    /// One distributed campaign on a fresh dispatch journal.
    fn campaign(&self, spec: &CampaignSpec, journal: &Path) -> CampaignResult {
        let _ = fs::remove_file(journal);
        self.coordinator().run_campaign(spec, &Budget::unbounded())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for w in self.workers.drain(..) {
            w.shutdown();
        }
        if let Some(c) = self.coordinator.take() {
            c.shutdown();
        }
    }
}

/// The merged JSONL with wall-clock fields zeroed.
fn merged(result: &CampaignResult) -> String {
    result
        .records
        .iter()
        .map(|r| normalized(r) + "\n")
        .collect()
}

/// Checks every campaign: one ok record per cell (or the flow's
/// nothing-selected answer), and the merged JSONL of every seed
/// byte-identical to a single-node `campaign::execute` of the same grid.
fn check(
    sweep: Sweep,
    seed: u64,
    done: &[(usize, CampaignResult)],
    out: &mut Outcome,
) -> OutputFacts {
    let mut facts = OutputFacts::default();
    let mut by_seed: BTreeMap<usize, String> = BTreeMap::new();
    let mut empty = 0;
    for (index, result) in done {
        let cells = sweep.spec(seed, *index).cells().len();
        if result.records.len() != cells {
            out.problem(format!(
                "campaign {index}: {} records for {cells} cells",
                result.records.len()
            ));
        }
        for r in &result.records {
            facts.items += 1;
            if is_nothing_selected(r) {
                empty += 1;
            } else if let (true, Some(flow)) = (r.status.is_ok(), r.flow) {
                facts.flows += 1;
                facts.luts += flow.stt_count as u64;
            } else {
                out.failed += 1;
                out.problem(format!(
                    "campaign {index}: {} {} seed {}: status {}",
                    r.circuit,
                    r.algorithm,
                    r.seed,
                    r.status.tag()
                ));
            }
        }
        let text = merged(result);
        match by_seed.get(&(index % sweep.seeds)) {
            Some(first) if *first != text => out.problem(format!(
                "campaign {index} differs from the earlier campaign of its seed"
            )),
            Some(_) => {}
            None => {
                by_seed.insert(index % sweep.seeds, text);
            }
        }
    }
    for (round, text) in &by_seed {
        let single = sttlock_campaign::execute(&CampaignSpec {
            jobs: WORKERS,
            ..sweep.spec(seed, *round)
        });
        if merged(&single) != *text {
            out.problem(format!(
                "campaign {round} differs from single-node campaign::execute"
            ));
        }
    }
    if empty > 0 {
        out.notes.push(format!(
            "{empty} cells selected nothing (a checked outcome, not a failure)"
        ));
    }
    facts
}

/// Runs one `cluster-sweep` invocation.
pub fn run(sweep: Sweep, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let journal = p.work_dir.join("dispatch.log");
    let (setup_s, cluster) = repeat_setup(|_| Cluster::start(&journal));
    let cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    // One distributed campaign at a time: the coordinator already
    // dispatches to both workers in parallel.
    let (done, collector) = traced(p.trace, || {
        let done = closed_loop(
            1,
            Stop::After(Duration::from_secs_f64(p.seconds)),
            |round| cluster.campaign(&sweep.spec(p.seed, round), &journal),
        );
        // Joins every server thread, so every span has closed.
        drop(cluster);
        done
    });
    let calls: Vec<_> = done
        .iter()
        .map(|d| d.time(d.result.records.len()))
        .collect();
    let results: Vec<(usize, CampaignResult)> =
        done.into_iter().map(|d| (d.index, d.result)).collect();
    let facts = check(sweep, p.seed, &results, &mut out);
    out.attempted = facts.items;
    let texts: Vec<String> = results.iter().map(|(_, r)| merged(r)).collect();
    out.set_digest(texts.iter().map(String::as_str));
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
    fn campaigns_cycle_through_the_sweep_seeds() {
        let sweep = Sweep::DEFAULT;
        assert_eq!(sweep.spec(10, 0).cells().len(), 21);
        assert_eq!(sweep.spec(10, 0).seeds, vec![52]);
        assert_eq!(sweep.spec(10, 3).seeds, vec![55]);
        assert_eq!(sweep.spec(10, 24).seeds, vec![52]);
        assert_eq!(sweep.spec(10, 14).seeds, vec![42]);
        assert_eq!(
            sweep.spec(34, 0).seeds,
            vec![52],
            "the seed picks the offset"
        );
    }

    #[test]
    fn a_tiny_cluster_sweeps_and_checks_clean() {
        let _obs = crate::harness::OBS_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let sweep = Sweep {
            max_gates: 300,
            seeds: 2,
        };
        for trace in [false, true] {
            let work_dir = std::env::temp_dir().join(format!(
                "sttlock-benchmark-cluster-{}-{trace}",
                std::process::id()
            ));
            fs::create_dir_all(&work_dir).unwrap();
            let p = Params {
                workload: "cluster-smoke".into(),
                seed: 5,
                seconds: 0.3,
                trace,
                trace_dir: None,
                work_dir: work_dir.clone(),
            };
            let out = run(sweep, &p);
            let _ = fs::remove_dir_all(&work_dir);
            assert!(out.problems.is_empty(), "{:?}", out.problems);
            assert!(out.attempted > 0);
            if trace {
                let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
                assert_eq!(get("cluster.dispatch_per_item"), 1.0);
                assert_eq!(get("cluster.redispatch_per_item"), 0.0);
                assert!(get("cell.flow_share") > 0.0);
            }
        }
    }
}
