//! `benchmark compare BASE.json NEW.json`: the per-metric verdicts of a
//! change against its parent, judged by the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;

use sttlock_campaign::json::Json;

use crate::stats;

/// One end-to-end metric's bound, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let Some(Json::Arr(list)) = v.get("end_to_end") else {
        return Err("no end_to_end list".to_owned());
    };
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Ok(Bound {
                name: s("name").ok_or("metric without a name")?,
                unit: s("unit").ok_or("metric without a unit")?,
                lower_is_better: s("better").ok_or("metric without `better`")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The untraced runs of a `run --out` snapshot.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Values per (workload, metric), from runs that exited 0 with
    /// every output check passed.
    pub values: BTreeMap<(String, String), Vec<f64>>,
    /// Runs left out because they failed, as `workload seed N (why)`.
    pub failed: Vec<String>,
}

/// Reads the untraced runs of a `run --out` snapshot. A run that exited
/// non-zero or failed an output check contributes no values: a change
/// that breaks outputs must not be judged on its speed.
pub fn snapshot(text: &str) -> Result<Snapshot, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let Some(Json::Arr(runs)) = v.get("runs") else {
        return Err("no runs list".to_owned());
    };
    let mut out = Snapshot::default();
    for run in runs {
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let exit = run.get("exit").and_then(Json::as_f64).unwrap_or(-1.0);
        let correct = run
            .get("result")
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool);
        if exit != 0.0 || correct != Some(true) {
            let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
            out.failed.push(format!(
                "{workload} seed {seed} (exit {exit}, correct {})",
                correct.map_or("missing".to_owned(), |c| c.to_string())
            ));
            continue;
        }
        if let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) {
            for (name, m) in metrics {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    out.values
                        .entry((workload.to_owned(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(out)
}

/// How a change moved one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    WithinBound,
    /// Run-to-run spread wider than the bound, and the runs overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for one metric: the median delta in the
/// worse direction against the bound, unless either side's quartile
/// spread exceeds the bound — then only a clean separation (every new
/// run better than every base run) counts.
pub fn judge(base: &[f64], new: &[f64], b: &Bound) -> (f64, f64, Verdict) {
    let (mb, mn) = (stats::median(base), stats::median(new));
    let delta = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
    let worse = if b.lower_is_better { delta } else { -delta };
    let spread = stats::spread(base).max(stats::spread(new));
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let verdict = if spread > b.bound {
        let separated = new.iter().all(|&n| base.iter().all(|&o| better(n, o)));
        if separated {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > b.bound {
        Verdict::Regressed
    } else if -worse > b.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (delta, spread, verdict)
}

/// `compare BASE NEW`, with the bounds of `BENCHMARK.json` in the
/// working directory (the repository root). Exits 1 when either side
/// holds a failed run or a metric regressed.
pub fn main(args: &[String]) -> i32 {
    let [base_path, new_path] = args else {
        return usage("compare takes BASE.json NEW.json");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let loaded = (|| {
        Ok::<_, String>((
            bounds(&read("BENCHMARK.json")?)?,
            snapshot(&read(base_path)?)?,
            snapshot(&read(new_path)?)?,
        ))
    })();
    let (bounds, base_snap, new_snap) = match loaded {
        Ok(x) => x,
        Err(e) => return usage(&e),
    };
    let mut code = 0;
    for (side, snap) in [(base_path, &base_snap), (new_path, &new_snap)] {
        for run in &snap.failed {
            println!("FAILED RUN in {side}: {run} — left out of the medians");
            code = 1;
        }
    }
    let (base, new) = (&base_snap.values, &new_snap.values);
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "delta", "spread", "bound"
    );
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = base.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for b in &bounds {
            let key = (workload.clone(), b.name.clone());
            let (Some(bv), Some(nv)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (delta, spread, verdict) = judge(bv, nv, b);
            if verdict == Verdict::Regressed {
                code = 1;
            }
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}  ({} vs {} runs, {})",
                workload,
                b.name,
                stats::median(bv),
                stats::median(nv),
                delta * 100.0,
                spread * 100.0,
                b.bound * 100.0,
                verdict.label(),
                bv.len(),
                nv.len(),
                b.unit,
            );
        }
    }
    code
}

fn usage(msg: &str) -> i32 {
    eprintln!("benchmark compare: {msg}");
    eprintln!("usage: benchmark compare BASE.json NEW.json (from the repository root)");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        let same = [10.2, 10.1, 10.0, 10.3, 10.2];
        assert_eq!(judge(&base, &slower, &bound(true)).2, Verdict::Regressed);
        assert_eq!(judge(&base, &slower, &bound(false)).2, Verdict::Improved);
        assert_eq!(judge(&base, &same, &bound(true)).2, Verdict::WithinBound);
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_cleanly_separated() {
        let base = [5.0, 10.0, 15.0, 7.0, 13.0];
        let overlapping = [6.0, 11.0, 16.0, 8.0, 14.0];
        assert_eq!(
            judge(&base, &overlapping, &bound(true)).2,
            Verdict::Unresolved
        );
        let separated = [1.0, 2.0, 3.0, 1.5, 4.5];
        assert_eq!(judge(&base, &separated, &bound(true)).2, Verdict::Improved);
    }

    #[test]
    fn bounds_and_snapshot_values_parse() {
        let b = bounds(
            r#"{"end_to_end":[{"name":"items_per_s","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        assert_eq!(b.len(), 1);
        assert!(!b[0].lower_is_better);
        let s = snapshot(
            r#"{"runs":[
              {"workload":"w","seed":1,"trace":false,"exit":0,"result":{"correct":true,"metrics":{"items_per_s":{"value":3,"unit":"1/s"}}}},
              {"workload":"w","seed":2,"trace":false,"exit":0,"result":{"correct":true,"metrics":{"items_per_s":{"value":5,"unit":"1/s"}}}},
              {"workload":"w","seed":1,"trace":true,"exit":0,"result":{"correct":true,"metrics":{"items_per_s":{"value":99,"unit":"1/s"}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            s.values[&("w".to_owned(), "items_per_s".to_owned())],
            vec![3.0, 5.0]
        );
        assert!(s.failed.is_empty());
    }

    #[test]
    fn failed_runs_are_reported_and_left_out_of_the_medians() {
        let s = snapshot(
            r#"{"runs":[
              {"workload":"w","seed":1,"trace":false,"exit":0,"result":{"correct":true,"metrics":{"items_per_s":{"value":3,"unit":"1/s"}}}},
              {"workload":"w","seed":2,"trace":false,"exit":1,"result":{"correct":false,"metrics":{"items_per_s":{"value":50,"unit":"1/s"}}}},
              {"workload":"w","seed":3,"trace":false,"exit":0,"result":{"correct":false,"metrics":{"items_per_s":{"value":60,"unit":"1/s"}}}},
              {"workload":"w","seed":4,"trace":false,"exit":-1,"result":null}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            s.values[&("w".to_owned(), "items_per_s".to_owned())],
            vec![3.0]
        );
        assert_eq!(s.failed.len(), 3, "{:?}", s.failed);
        assert!(s.failed[0].starts_with("w seed 2"));
    }
}
