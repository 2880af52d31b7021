//! `benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark run [--seed N] [--seconds S] [--runs K] [--out FILE] [--trace DIR]
//!               [--against EXE --against-out FILE]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics untraced, the per-layer metrics traced. `run`
//! re-executes this binary once per workload (and seed) and collects
//! the results; `compare` judges two `run --out` files against the
//! bounds in `BENCHMARK.json`. See README.md.

mod cluster_sweep;
mod compare;
mod grid;
mod harness;
mod layers;
mod serve_mixed;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sttlock_campaign::json::Json;
use sttlock_obs::TraceCollector;

use harness::{Metric, Outcome, Params};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["paper-grid", "attack-sweep", "serve-mixed", "cluster-sweep"];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    std::process::exit(code);
}

fn usage(msg: &str) -> i32 {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
         benchmark run [--seed N] [--seconds S] [--runs K] [--out FILE] [--trace DIR]\n           \
         [--against EXE --against-out FILE]\n       \
         benchmark compare BASE.json NEW.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    2
}

/// Flag parsing shared by both run forms: `--name value` pairs.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for --{name}"))
}

/// The metric names a run must report, in order.
fn expected_metrics(trace: bool) -> Vec<&'static str> {
    let metrics = if trace {
        layers::per_layer(
            &TraceCollector::new(),
            1,
            &layers::OutputFacts::default(),
            0.0,
        )
    } else {
        let call = harness::CallTime {
            start: 0.0,
            end: 1.0,
            items: 1,
        };
        let shape = harness::Shape {
            call: "",
            window: 1,
            tail: 50.0,
            lanes: 1,
        };
        harness::end_to_end(&[call], shape, &[1.0])
    };
    metrics.into_iter().map(|m| m.name).collect()
}

/// Runs one workload in this process: the single-workload form.
fn run_one(args: &[String]) -> i32 {
    let parsed = (|| {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut trace_dir = None;
        for (name, value) in flags(args, &["workload", "seed", "seconds", "trace", "trace-dir"])? {
            match name.as_str() {
                "workload" => workload = Some(value),
                "seed" => seed = parse(&name, &value)?,
                "seconds" => seconds = parse(&name, &value)?,
                "trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value `{value}` for --trace (0 or 1)")),
                    }
                }
                _ => trace_dir = Some(PathBuf::from(value)),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_owned());
        }
        Ok((workload, seed, seconds, trace, trace_dir))
    })();
    let (workload, seed, seconds, trace, trace_dir) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };

    let work_dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("benchmark: cannot create {}: {e}", work_dir.display());
        return 1;
    }
    let params = Params {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        trace_dir,
        work_dir: work_dir.clone(),
    };
    let mut outcome = match workload.as_str() {
        "paper-grid" => grid::run(grid::Grid::PAPER, &params),
        "attack-sweep" => grid::run(grid::Grid::ATTACK, &params),
        "serve-mixed" => serve_mixed::run(&params),
        _ => cluster_sweep::run(cluster_sweep::Sweep::DEFAULT, &params),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    // Remove the shared parent too once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");

    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if outcome.problems.is_empty() && names != expected_metrics(trace) {
        outcome.problem("the run did not report its full metric set");
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.problem(format!("metric {} is not finite", m.name));
    }
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
    }
    print_report(&workload, &params, &outcome);
    i32::from(!outcome.problems.is_empty())
}

/// Prints the human report, a `detail` line and the result line.
fn print_report(workload: &str, p: &Params, out: &Outcome) {
    println!(
        "{workload}: seed {} · {} s · {}",
        p.seed,
        p.seconds,
        if p.trace { "traced" } else { "untraced" }
    );
    for m in &out.metrics {
        println!(
            "  {:<28} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  digest {} over the first {} outputs",
        out.digest.0, out.digest.1
    );
    if out.problems.is_empty() {
        println!(
            "  checks passed: {} items, {} failed",
            out.attempted, out.failed
        );
    } else {
        for problem in out.problems.iter().take(20) {
            println!("  CHECK FAILED: {problem}");
        }
        if out.problems.len() > 20 {
            println!("  … {} more failed checks", out.problems.len() - 20);
        }
    }
    let samples = out.metrics.iter().map(|m| (m.name, Json::from(m.samples)));
    let detail = Json::obj([
        ("samples", Json::obj(samples)),
        ("digest", Json::from(out.digest.0.as_str())),
        ("digest_outputs", Json::from(out.digest.1)),
        (
            "notes",
            Json::Arr(out.notes.iter().map(|n| Json::from(n.as_str())).collect()),
        ),
    ]);
    println!("detail {detail}");
    println!("{}", result_line(out));
}

/// The result line: the run's machine-readable summary.
fn result_line(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

/// Writes a traced run's span trace and per-layer metrics into the
/// trace directory, when `run --trace DIR` asked for one.
pub fn write_trace(p: &Params, collector: &TraceCollector, metrics: &[Metric]) {
    let Some(dir) = &p.trace_dir else {
        return;
    };
    let write = |name: String, text: String| {
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(&name), text))
        {
            eprintln!("benchmark: cannot write {name}: {e}");
        }
    };
    write(format!("{}.trace.jsonl", p.workload), collector.to_jsonl());
    let layers = Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
                ("samples", Json::from(m.samples)),
            ]),
        )
    }));
    write(format!("{}.layers.json", p.workload), format!("{layers}\n"));
}

/// One child run of `run`.
struct ChildRun {
    workload: &'static str,
    seed: u64,
    trace: bool,
    exit: i32,
    result: Option<Json>,
    detail: Option<Json>,
}

/// `run`: every workload in its own child process, one after another.
/// With `--against EXE`, each run is paired with a run of another build
/// of the benchmark (the parent commit's) on the same workload and seed,
/// alternating which goes first, so slow drift of the host's speed
/// falls on both sides alike; that side's results go to `--against-out`.
fn run_all(args: &[String]) -> i32 {
    let known = [
        "seed",
        "seconds",
        "runs",
        "out",
        "trace",
        "against",
        "against-out",
    ];
    let parsed = (|| {
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut runs = 1usize;
        let mut out = None;
        let mut trace = None;
        let mut against = None;
        let mut against_out = None;
        for (name, value) in flags(args, &known)? {
            match name.as_str() {
                "seed" => seed = parse(&name, &value)?,
                "seconds" => seconds = parse(&name, &value)?,
                "runs" => runs = parse(&name, &value)?,
                "out" => out = Some(PathBuf::from(value)),
                "trace" => trace = Some(PathBuf::from(value)),
                "against" => against = Some(PathBuf::from(value)),
                _ => against_out = Some(PathBuf::from(value)),
            }
        }
        if runs == 0 && trace.is_none() {
            return Err("--runs 0 needs --trace DIR".to_owned());
        }
        if against.is_some() != against_out.is_some() {
            return Err("--against EXE and --against-out FILE go together".to_owned());
        }
        Ok::<_, String>((seed, seconds, runs, out, trace, against.zip(against_out)))
    })();
    let (seed, seconds, runs, out_path, trace_dir, against) = match parsed {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot locate this binary: {e}");
            return 1;
        }
    };
    let mut sides = vec![(exe, out_path, Vec::new())];
    if let Some((other, other_out)) = against {
        sides.push((other, Some(other_out), Vec::new()));
    }

    for workload in WORKLOADS {
        for r in 0..runs {
            let n = sides.len();
            for k in 0..n {
                let side = &mut sides[(k + r) % n];
                let run = child(
                    &side.0,
                    workload,
                    seed.wrapping_add(r as u64),
                    seconds,
                    None,
                );
                side.2.push(run);
            }
        }
        if let Some(dir) = &trace_dir {
            for side in &mut sides {
                let run = child(&side.0, workload, seed, seconds, Some(dir));
                side.2.push(run);
            }
        }
    }

    let mut code = 0;
    for (exe, out_path, children) in &sides {
        println!();
        println!("{}", exe.display());
        summarize(children);
        for c in children.iter().filter(|c| {
            c.exit != 0 || c.result.as_ref().and_then(|r| r.get("correct")?.as_bool()) != Some(true)
        }) {
            println!("FAILED: {} seed {} (exit {})", c.workload, c.seed, c.exit);
            code = 1;
        }
        if let Some(path) = out_path {
            if let Err(e) = write_snapshot(path, children, seed, seconds) {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return 1;
            }
            println!("wrote {}", path.display());
        }
    }
    code
}

/// Prints each metric's median, sample count and spread over `children`.
fn summarize(children: &[ChildRun]) {
    println!(
        "{:<14} {:<32} {:>14} {:<6} {:>8} {:>7}",
        "workload", "metric", "median", "unit", "samples", "spread"
    );
    for workload in WORKLOADS {
        for trace in [false, true] {
            let rows: Vec<&ChildRun> = children
                .iter()
                .filter(|c| c.workload == workload && c.trace == trace && c.result.is_some())
                .collect();
            for name in expected_metrics(trace) {
                let values: Vec<f64> = rows
                    .iter()
                    .filter_map(|c| metric(c.result.as_ref()?, name))
                    .collect();
                let samples: Vec<f64> = rows
                    .iter()
                    .filter_map(|c| c.detail.as_ref()?.get("samples")?.get(name)?.as_f64())
                    .collect();
                if values.is_empty() {
                    continue;
                }
                let unit = rows
                    .iter()
                    .find_map(|c| {
                        c.result
                            .as_ref()?
                            .get("metrics")?
                            .get(name)?
                            .get("unit")?
                            .as_str()
                            .map(str::to_owned)
                    })
                    .unwrap_or_default();
                println!(
                    "{:<14} {:<32} {:>14.6} {:<6} {:>8} {:>6.1}%",
                    workload,
                    name,
                    stats::median(&values),
                    unit,
                    stats::median(&samples),
                    stats::spread(&values) * 100.0
                );
            }
        }
    }
}

/// Writes the runs of one binary as a snapshot `compare` reads.
fn write_snapshot(
    path: &Path,
    children: &[ChildRun],
    seed: u64,
    seconds: f64,
) -> std::io::Result<()> {
    let runs = children.iter().map(|c| {
        Json::obj([
            ("workload", Json::from(c.workload)),
            ("seed", Json::from(c.seed)),
            ("trace", Json::Bool(c.trace)),
            ("exit", Json::from(c.exit as f64)),
            ("result", c.result.clone().unwrap_or(Json::Null)),
            ("detail", c.detail.clone().unwrap_or(Json::Null)),
        ])
    });
    let doc = Json::obj([
        ("host", host_facts(seed, seconds)),
        ("runs", Json::Arr(runs.collect())),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs one workload as a child process, echoing its report.
fn child(
    exe: &Path,
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&PathBuf>,
) -> ChildRun {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace_dir.is_some() { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let output = cmd.output();
    let (exit, stdout) = match output {
        Ok(o) => (
            o.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&o.stdout).into_owned(),
        ),
        Err(e) => {
            eprintln!("benchmark: cannot start {workload}: {e}");
            (-1, String::new())
        }
    };
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(2)] {
        println!("{line}");
    }
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| Json::parse(d).ok());
    let result = lines.last().and_then(|l| Json::parse(l).ok());
    ChildRun {
        workload,
        seed,
        trace: trace_dir.is_some(),
        exit,
        result,
        detail,
    }
}

/// nproc, `rustc -V`, git revision, seed and run length.
fn host_facts(seed: u64, seconds: f64) -> Json {
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_owned(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_owned()
            })
    };
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("rustc", Json::from(output("rustc", &["-V"]).as_str())),
        (
            "git_rev",
            Json::from(output("git", &["rev-parse", "HEAD"]).as_str()),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("threads", Json::from(harness::THREADS)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the runs report.
    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            match v.get(key) {
                Some(Json::Arr(list)) => list
                    .iter()
                    .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                    .collect(),
                _ => panic!("no {key} list"),
            }
        };
        let mut e2e = names("end_to_end");
        let mut expected: Vec<String> = expected_metrics(false)
            .iter()
            .map(|s| s.to_string())
            .collect();
        e2e.sort();
        expected.sort();
        assert_eq!(e2e, expected);
        let mut layers = names("per_layer");
        let mut expected: Vec<String> = expected_metrics(true)
            .iter()
            .map(|s| s.to_string())
            .collect();
        layers.sort();
        expected.sort();
        assert_eq!(layers, expected);
        let workloads = names("workloads");
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn metric_names_fit_the_naming_rule() {
        for trace in [false, true] {
            let names = expected_metrics(trace);
            for n in &names {
                assert!(
                    n.len() <= 64
                        && n.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{n}"
                );
            }
            let mut unique = names.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), names.len());
        }
    }
}
