//! Per-layer accounting: the roll-up of the program's own spans and
//! counters from a traced run.
//!
//! A traced run is the workload's ordinary run with an
//! `obs::TraceCollector` installed. The benchmark adds one span of its
//! own, [`CALL_SPAN`], around each call it makes into the program (a
//! campaign cell, an HTTP request, a distributed campaign); everything
//! else in the trace is the program's. The roll-up turns spans into self
//! times (a span's duration minus the time its children cover), so nested
//! or parallel spans are never counted twice, and reports each program
//! span as a share of the time the benchmark's calls kept their lanes
//! busy. What no listed program span covers is the residual.

use std::collections::{BTreeMap, HashMap};

use sttlock_obs::{SpanData, TraceCollector};

use crate::harness::Metric;

/// The benchmark's span around one call into the program.
pub const CALL_SPAN: &str = "bench.call";

/// Program spans reported as a share of busy time, with their metric
/// names: the span's name plus `_share`, so a snapshot and a live trace
/// use the same names.
pub const PROGRAM_SPANS: [(&str, &str); 15] = [
    ("cell.generate", "cell.generate_share"),
    ("cell.flow", "cell.flow_share"),
    ("flow.activity", "flow.activity_share"),
    ("flow.selection", "flow.selection_share"),
    ("flow.replace", "flow.replace_share"),
    ("flow.analysis", "flow.analysis_share"),
    ("cell.attack", "cell.attack_share"),
    ("serve.request", "serve.request_share"),
    ("request.parse", "request.parse_share"),
    ("request.compute", "request.compute_share"),
    ("attack.random_stage", "attack.random_stage_share"),
    ("attack.gate_random", "attack.gate_random_share"),
    ("attack.sat_stage", "attack.sat_stage_share"),
    ("attack.gate_justify", "attack.gate_justify_share"),
    ("attack.joint_stage", "attack.joint_stage_share"),
];

/// Self time of every span, in microseconds, index-aligned with
/// `spans`: the span's duration minus the union of its children's
/// intervals clipped to the span. Children running in parallel on other
/// threads overlap; the union counts their common time once.
pub fn self_times_us(spans: &[SpanData]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_us, s.start_us + s.duration_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut intervals)| {
            let (lo, hi) = (s.start_us, s.start_us + s.duration_us);
            intervals.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                let (a, b) = (a.max(lo), b.min(hi));
                if a >= b {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_us.saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of one trace.
#[derive(Debug, Default)]
pub struct Rollup {
    /// Σ self time per span name, seconds.
    self_s: BTreeMap<&'static str, f64>,
    /// Σ duration per span name, seconds.
    total_s: BTreeMap<&'static str, f64>,
    /// Longest single span per name, seconds.
    max_s: BTreeMap<&'static str, f64>,
}

impl Rollup {
    pub fn new(spans: &[SpanData]) -> Rollup {
        let mut r = Rollup::default();
        for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
            let d = s.duration_us as f64 / 1e6;
            *r.self_s.entry(s.name).or_default() += self_us as f64 / 1e6;
            *r.total_s.entry(s.name).or_default() += d;
            let m = r.max_s.entry(s.name).or_default();
            *m = m.max(d);
        }
        r
    }

    fn get(map: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
        map.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload's outputs say beyond the trace: flows, LUTs and
/// attack statistics, summed over the run's calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct OutputFacts {
    /// Work items the calls completed (cells or requests).
    pub items: u64,
    /// Outputs carrying a hardened design, and their LUTs.
    pub flows: u64,
    pub luts: u64,
    /// Attacks run, and how many broke the design.
    pub attacks: u64,
    pub broke: u64,
    /// Σ SAT solver statistics of the attacks that report them.
    pub sat_dips: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
}

/// The per-layer metric set, identical for every workload. `lanes` is
/// how many threads one call keeps busy (one for a cell or a request;
/// one dispatch lane per worker for a distributed campaign), so busy
/// time is Σ call duration × lanes. `items_per_s` is the traced run's
/// own throughput, for comparison with the untraced runs.
pub fn per_layer(
    collector: &TraceCollector,
    lanes: usize,
    facts: &OutputFacts,
    items_per_s: f64,
) -> Vec<Metric> {
    let spans = collector.spans();
    let rollup = Rollup::new(&spans);
    let n = facts.items as usize;
    let busy_s = Rollup::get(&rollup.total_s, CALL_SPAN) * lanes as f64;
    let share = |s: f64| if busy_s > 0.0 { s / busy_s } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_item = |name: &str| ratio(collector.counter_value(name) as f64, n as f64);

    let mut out: Vec<Metric> = PROGRAM_SPANS
        .iter()
        .map(|&(span, metric)| {
            Metric::new(metric, share(Rollup::get(&rollup.self_s, span)), "ratio", n)
        })
        .collect();
    let listed: f64 = out.iter().map(|m| m.value).sum();
    let hits = collector.counter_value("serve.harden.cache_hit") as f64;
    let misses = collector.counter_value("serve.harden.cache_miss") as f64;
    let selection_s = Rollup::get(&rollup.total_s, "flow.selection");
    let attack_s = Rollup::get(&rollup.total_s, "cell.attack");
    out.extend([
        Metric::new("trace.residual_frac", 1.0 - listed, "ratio", n),
        Metric::new(
            "trace.busy_ms_per_item",
            ratio(busy_s * 1e3, n as f64),
            "ms",
            n,
        ),
        Metric::new("trace.items_per_s", items_per_s, "1/s", n),
        Metric::new(
            "flow.selection_max_s",
            Rollup::get(&rollup.max_s, "flow.selection"),
            "s",
            n,
        ),
        Metric::new(
            "sta.node_reevals_per_item",
            per_item("sta.node_reevals"),
            "count",
            n,
        ),
        Metric::new(
            "sta.invalidations_per_item",
            per_item("sta.invalidations"),
            "count",
            n,
        ),
        Metric::new(
            "sta.early_terminations_per_item",
            per_item("sta.early_terminations"),
            "count",
            n,
        ),
        Metric::new(
            "sta.reevals_per_s",
            ratio(
                collector.counter_value("sta.node_reevals") as f64,
                selection_s,
            ),
            "1/s",
            n,
        ),
        Metric::new("exec.steps_per_item", per_item("exec.steps"), "count", n),
        Metric::new(
            "store.appends_per_item",
            per_item("store.appends"),
            "count",
            n,
        ),
        Metric::new(
            "cluster.dispatch_per_item",
            per_item("cluster.dispatch"),
            "count",
            n,
        ),
        Metric::new(
            "cluster.redispatch_per_item",
            per_item("cluster.redispatch"),
            "count",
            n,
        ),
        Metric::new(
            "serve.cache_hit_frac",
            ratio(hits, hits + misses),
            "ratio",
            n,
        ),
        Metric::new(
            "flow.luts_per_flow",
            ratio(facts.luts as f64, facts.flows as f64),
            "count",
            n,
        ),
        Metric::new(
            "attack.broke_frac",
            ratio(facts.broke as f64, facts.attacks as f64),
            "ratio",
            n,
        ),
        Metric::new(
            "sat.dips_per_attack",
            ratio(facts.sat_dips as f64, facts.attacks as f64),
            "count",
            n,
        ),
        Metric::new(
            "sat.conflicts_per_attack",
            ratio(facts.sat_conflicts as f64, facts.attacks as f64),
            "count",
            n,
        ),
        Metric::new(
            "sat.propagations_per_attack",
            ratio(facts.sat_propagations as f64, facts.attacks as f64),
            "count",
            n,
        ),
        Metric::new(
            "sat.propagations_per_s",
            ratio(facts.sat_propagations as f64, attack_s),
            "1/s",
            n,
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanData {
        SpanData {
            id,
            parent,
            name,
            fields: Vec::new(),
            start_us: start,
            duration_us: dur,
        }
    }

    #[test]
    fn self_time_counts_overlapping_parallel_children_once() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            // Two children on two threads overlapping in [20, 40).
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 30),
            // A child nested inside `a`.
            span(4, Some(2), "c", 15, 10),
            // A child running past its parent's end is clipped.
            span(5, Some(1), "d", 90, 20),
        ];
        let selves = self_times_us(&spans);
        // op: 100 − |[10,50) ∪ [90,100)| = 100 − 40 − 10.
        assert_eq!(selves[0], 50);
        assert_eq!(selves[1], 20, "a minus its nested child");
        assert_eq!(selves[2], 30, "b has no children");
        assert_eq!(selves[3], 10);
        assert_eq!(selves[4], 20, "clipping applies to the parent only");
    }

    #[test]
    fn shares_and_residual_sum_to_one() {
        let trace = TraceCollector::new();
        sttlock_obs::install(trace.clone());
        {
            let _call = sttlock_obs::span!(CALL_SPAN);
            let _flow = sttlock_obs::span!("cell.flow");
            std::thread::sleep(std::time::Duration::from_millis(4));
            let _sel = sttlock_obs::span!("flow.selection");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        sttlock_obs::uninstall();
        let facts = OutputFacts {
            items: 1,
            ..OutputFacts::default()
        };
        let metrics = per_layer(&trace, 1, &facts, 1.0);
        let get = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        let shares: f64 = PROGRAM_SPANS.iter().map(|(_, m)| get(m)).sum();
        assert!((shares + get("trace.residual_frac") - 1.0).abs() < 1e-9);
        assert!(get("flow.selection_share") > 0.3, "{metrics:?}");
        assert!(get("cell.flow_share") > 0.3);
        assert!(get("trace.busy_ms_per_item") >= 8.0);
    }
}
