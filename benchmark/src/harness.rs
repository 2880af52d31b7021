//! What every workload shares: run parameters, the closed-loop load generator,
//! set-up timing and the end-to-end metric set.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sttlock_obs::TraceCollector;

use crate::layers::{self, OutputFacts};
use crate::stats;

/// Closed-loop client threads (and worker threads below them). Fixed
/// in code, not read from the machine, so every host runs the same
/// load; sized for a 2-core box.
pub const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// One workload invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name, for trace file names.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement length: no new call starts after this.
    pub seconds: f64,
    /// Traced run: report the per-layer metrics instead.
    pub trace: bool,
    /// Where a traced run writes its span trace and per-layer JSON
    /// (`None` writes nothing).
    pub trace_dir: Option<PathBuf>,
    /// Scratch directory for caches and journals, inside the checkout.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Observations behind the value.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items attempted (campaign cells or requests).
    pub attempted: u64,
    /// Work items that failed (non-ok cells, non-200 responses,
    /// connection errors).
    pub failed: u64,
    /// Failed output checks; empty when every check passed.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the normalized outputs of the first [`DIGEST_OUTPUTS`]
    /// outputs, with the count it covers.
    pub digest: (String, usize),
    /// Extra human-readable lines (what a call is, percentile used, …).
    pub notes: Vec<String>,
}

/// Outputs folded into the digest: a fixed prefix of the output stream,
/// so two commits compare the same work regardless of their speed.
pub const DIGEST_OUTPUTS: usize = 32;

impl Outcome {
    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Digest of the first [`DIGEST_OUTPUTS`] normalized outputs.
    pub fn set_digest<'a>(&mut self, outputs: impl IntoIterator<Item = &'a str>) {
        let mut digest = stats::Digest::default();
        let mut n = 0;
        for text in outputs.into_iter().take(DIGEST_OUTPUTS) {
            digest.add(text.as_bytes());
            n += 1;
        }
        self.digest = (digest.hex(), n);
    }
}

/// When a closed loop stops claiming calls.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Claim no new call once this much time has passed.
    After(Duration),
    /// Make exactly this many calls.
    Calls(usize),
}

/// One finished call of a closed loop.
#[derive(Debug)]
pub struct Done<R> {
    /// Position in the call stream.
    pub index: usize,
    /// When the call was made, from the start of the loop.
    pub start: Duration,
    /// Call-to-return time.
    pub latency: Duration,
    /// What the call returned.
    pub result: R,
}

impl<R> Done<R> {
    /// The call's timing, completing `items` work items.
    pub fn time(&self, items: usize) -> CallTime {
        let start = self.start.as_secs_f64();
        CallTime {
            start,
            end: start + self.latency.as_secs_f64(),
            items,
        }
    }
}

/// Makes calls `call(0)`, `call(1)`, … on `threads` closed-loop threads:
/// a thread claims the next index only after its previous call
/// returned, so a slow system gets less load. Every claimed call runs to
/// completion. With tracing on, each call sits in a [`layers::CALL_SPAN`]
/// span. Returns the calls in index order.
pub fn closed_loop<R: Send>(
    threads: usize,
    stop: Stop,
    call: impl Fn(usize) -> R + Sync,
) -> Vec<Done<R>> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                if let Stop::After(limit) = stop {
                    if start.elapsed() >= limit {
                        break;
                    }
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                if let Stop::Calls(n) = stop {
                    if index >= n {
                        break;
                    }
                }
                let called = start.elapsed();
                let result = {
                    let _span = sttlock_obs::span!(layers::CALL_SPAN);
                    call(index)
                };
                let latency = start.elapsed() - called;
                done.lock()
                    .expect("no call panics while holding the result lock")
                    .push(Done {
                        index,
                        start: called,
                        latency,
                        result,
                    });
            });
        }
    });
    let mut done = done.into_inner().expect("result lock is not poisoned");
    done.sort_by_key(|d| d.index);
    done
}

/// Times `setup` [`SETUP_REPS`] times; returns every duration in seconds
/// and the last result (the one the run keeps).
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous rep's state before timing the next one.
        drop(last.take());
        let t0 = Instant::now();
        let value = setup(rep);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one setup rep ran"))
}

/// Runs `measure` with a fresh trace collector installed when `trace`
/// is set; returns its result and the collector.
pub fn traced<T>(trace: bool, measure: impl FnOnce() -> T) -> (T, Option<Arc<TraceCollector>>) {
    if !trace {
        return (measure(), None);
    }
    let collector = TraceCollector::new();
    sttlock_obs::install(collector.clone());
    let value = measure();
    sttlock_obs::uninstall();
    (value, Some(collector))
}

/// One call's timing: seconds from the start of the loop, and the work
/// items (cells or requests) it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallTime {
    pub start: f64,
    pub end: f64,
    pub items: usize,
}

/// How a workload turns its calls into the end-to-end figures.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// What one call is, for the report.
    pub call: &'static str,
    /// Calls per throughput window.
    pub window: usize,
    /// The fixed latency percentile reported as `latency_tail_ms`.
    pub tail: f64,
    /// Threads one call keeps busy, for the per-layer busy time.
    pub lanes: usize,
}

/// Median over windows of `window` consecutive calls of items finished
/// ÷ window span. Identical work on a shared 2-vCPU VM ran up to 2.4×
/// slower for about a second at a time; a median of windows keeps such
/// a burst from moving the run's figure.
pub fn items_per_s(calls: &[CallTime], window: usize) -> (f64, usize) {
    let full: Vec<&[CallTime]> = calls.chunks_exact(window.max(1)).collect();
    let windows = if full.is_empty() { vec![calls] } else { full };
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| {
            let items: usize = w.iter().map(|c| c.items).sum();
            let first = w.iter().map(|c| c.start).fold(f64::INFINITY, f64::min);
            let last = w.iter().map(|c| c.end).fold(0.0, f64::max);
            items as f64 / (last - first)
        })
        .collect();
    (stats::median(&rates), rates.len())
}

/// The end-to-end metric set, identical for every workload: throughput,
/// the median and the fixed tail percentile of call latency, and the
/// median set-up time.
pub fn end_to_end(calls: &[CallTime], shape: Shape, setup_s: &[f64]) -> Vec<Metric> {
    let (rate, windows) = items_per_s(calls, shape.window);
    let latency = stats::sorted(
        &calls
            .iter()
            .map(|c| (c.end - c.start) * 1e3)
            .collect::<Vec<_>>(),
    );
    vec![
        Metric::new("items_per_s", rate, "1/s", windows),
        Metric::new(
            "latency_p50_ms",
            stats::percentile(&latency, 50.0),
            "ms",
            latency.len(),
        ),
        Metric::new(
            "latency_tail_ms",
            stats::percentile(&latency, shape.tail),
            "ms",
            latency.len(),
        ),
        Metric::new("setup_s", stats::median(setup_s), "s", setup_s.len()),
    ]
}

/// Sets the run's metrics: the end-to-end set untraced, the per-layer
/// set traced; notes what the figures are made of, and writes the trace
/// when the run was asked to.
pub fn report(
    p: &Params,
    shape: Shape,
    calls: &[CallTime],
    setup_s: &[f64],
    collector: Option<&TraceCollector>,
    facts: &OutputFacts,
    out: &mut Outcome,
) {
    let items: usize = calls.iter().map(|c| c.items).sum();
    let honest = stats::tail_percentile(calls.len());
    let verdict = match honest {
        Some(q) if q >= shape.tail => "ok".to_owned(),
        Some(q) => format!("only p{q} has 10 samples beyond it"),
        None => "fewer than 20 samples".to_owned(),
    };
    out.notes.extend([
        format!(
            "call = {}; {} calls, {items} items, throughput the median of windows of {} calls",
            shape.call,
            calls.len(),
            shape.window
        ),
        format!(
            "latency_tail_ms is p{} over {} calls ({verdict})",
            shape.tail,
            calls.len()
        ),
        // Peak RSS moved by up to 20 % between runs of one seed (allocator
        // arenas, whether both threads held the largest circuits at once),
        // too wide for a bound, so it is reported, not judged.
        format!(
            "peak RSS {:.1} MB (reported, not a bounded metric)",
            stats::peak_rss_mb()
        ),
    ]);
    match collector {
        None => out.metrics = end_to_end(calls, shape, setup_s),
        Some(collector) => {
            let (rate, _) = items_per_s(calls, shape.window);
            out.metrics = layers::per_layer(collector, shape.lanes, facts, rate);
            crate::write_trace(p, collector, &out.metrics);
        }
    }
}

/// Serializes tests that install a process-global obs collector or run
/// a server (which installs one).
#[cfg(test)]
pub static OBS_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_closed_loop_makes_exactly_the_requested_calls_in_order() {
        let done = closed_loop(2, Stop::Calls(25), |i| i * 2);
        assert_eq!(done.len(), 25);
        for (k, d) in done.iter().enumerate() {
            assert_eq!(d.index, k);
            assert_eq!(d.result, k * 2);
        }
    }

    #[test]
    fn throughput_is_a_median_of_windows_that_ignores_a_slow_burst() {
        // Ten 1-second windows of 10 calls; one window runs 3× slower.
        let mut calls = Vec::new();
        let mut t = 0.0;
        for w in 0..10 {
            let d = if w == 4 { 0.3 } else { 0.1 };
            for _ in 0..10 {
                calls.push(CallTime {
                    start: t,
                    end: t + d,
                    items: 1,
                });
                t += d;
            }
        }
        let shape = Shape {
            call: "test",
            window: 10,
            tail: 99.0,
            lanes: 1,
        };
        let m = end_to_end(&calls, shape, &[1.0, 3.0, 2.0]);
        assert!((m[0].value - 10.0).abs() < 1e-9, "{:?}", m[0]);
        assert!((m[1].value - 100.0).abs() < 1e-9, "{:?}", m[1]);
        assert!((m[2].value - 300.0).abs() < 1e-9, "the tail sees the burst");
        assert_eq!(m[3].value, 2.0);
        assert_eq!((m[0].samples, m[1].samples), (10, 100));
    }

    #[test]
    fn a_timed_loop_stops_claiming_after_its_limit() {
        let start = Instant::now();
        let done = closed_loop(2, Stop::After(Duration::from_millis(30)), |_| {
            std::thread::sleep(Duration::from_millis(5));
        });
        let wall = start.elapsed();
        assert!(!done.is_empty());
        assert!(wall >= Duration::from_millis(30));
        // Each thread overshoots by at most one call.
        assert!(wall < Duration::from_millis(30 + 5 * 3 + 50), "{wall:?}");
    }

    #[test]
    fn setup_reports_every_rep_and_keeps_the_last_result() {
        let (times, last) = repeat_setup(|rep| rep);
        assert_eq!(times.len(), SETUP_REPS);
        assert_eq!(last, SETUP_REPS - 1);
    }
}
