//! The workspace's one [`Collector`]: metric aggregator, span
//! recorder, and the JSONL trace, text summary and `/metrics` text
//! exporters.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use crate::{Collector, FieldValue, SpanData};

/// Power-of-two duration buckets: bucket `k` covers `[2^(k-1), 2^k)`
/// microseconds (bucket 0 is `< 1 µs`).
const BUCKETS: usize = 40;

/// A log₂-bucketed duration histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Hist {
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, us: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        let b = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[b] += 1;
    }

    /// Upper bound of the bucket holding the `q`-quantile observation —
    /// an approximation within a factor of two, which is what a
    /// where-did-the-time-go summary needs.
    fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 0 { 1 } else { 1u64 << b }.min(self.max_us);
            }
        }
        self.max_us
    }

    fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, (i64, i64)>, // (current, peak)
    hists: BTreeMap<&'static str, Hist>,
}

impl State {
    fn observe(&mut self, name: &'static str, us: u64) {
        self.hists.entry(name).or_insert_with(Hist::new).observe(us);
    }
}

/// In-memory collector: aggregates counters, gauges (with peaks) and
/// duration histograms (per span name plus every
/// [`observe_us`](crate::observe_us) stream), and renders the lot as a
/// JSONL trace, a text summary or the `/metrics` text export.
///
/// Built by [`TraceCollector::new`] it also keeps every closed span,
/// which a bounded run (a campaign, `--trace`) wants. Built by
/// [`TraceCollector::without_spans`] it keeps none, so its memory is
/// bounded by the number of distinct metric names and it is safe to
/// leave installed for the lifetime of a server process.
#[derive(Debug)]
pub struct TraceCollector {
    keep_spans: bool,
    state: Mutex<State>,
}

impl TraceCollector {
    /// A fresh collector that keeps every closed span, ready for
    /// [`install`](crate::install).
    pub fn new() -> Arc<TraceCollector> {
        TraceCollector::build(true)
    }

    /// A fresh collector that aggregates only: [`spans`](Self::spans)
    /// stays empty and the JSONL trace holds no `span` line.
    pub fn without_spans() -> Arc<TraceCollector> {
        TraceCollector::build(false)
    }

    fn build(keep_spans: bool) -> Arc<TraceCollector> {
        Arc::new(TraceCollector {
            keep_spans,
            state: Mutex::default(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panicking instrumented thread must not wedge the trace:
        // every mutation below keeps the state valid, so recover.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every span closed so far (collection order).
    pub fn spans(&self) -> Vec<SpanData> {
        self.lock().spans.clone()
    }

    /// Current value of the counter `name` (0 when never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the gauge `name` (0 when never moved).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.lock().gauges.get(name).map_or(0, |&(cur, _)| cur)
    }

    /// Observation count of the histogram `name` (0 when absent).
    pub fn hist_count(&self, name: &str) -> u64 {
        self.lock().hists.get(name).map_or(0, |h| h.count)
    }

    /// The JSONL trace: one `span` line per closed span (with `id` /
    /// `parent` for tree reconstruction), then aggregated `counter`,
    /// `gauge` and `hist` lines. Every line is a standalone JSON object.
    pub fn to_jsonl(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for s in &state.spans {
            out.push_str("{\"type\":\"span\",\"id\":");
            let _ = write!(out, "{}", s.id);
            out.push_str(",\"parent\":");
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            let _ = write_json_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"start_us\":{},\"dur_us\":{},\"fields\":{{",
                s.start_us, s.duration_us
            );
            for (i, (k, v)) in s.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write_json_str(&mut out, k);
                out.push(':');
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    FieldValue::I64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    FieldValue::F64(x) if x.is_finite() => {
                        let _ = write!(out, "{x}");
                    }
                    FieldValue::F64(_) => out.push_str("null"),
                    FieldValue::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                    FieldValue::Str(t) => {
                        let _ = write_json_str(&mut out, t);
                    }
                }
            }
            out.push_str("}}\n");
        }
        for (name, value) in &state.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            let _ = write_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
        for (name, (current, peak)) in &state.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            let _ = write_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{current},\"peak\":{peak}}}");
        }
        for (name, h) in &state.hists {
            out.push_str("{\"type\":\"hist\",\"name\":");
            let _ = write_json_str(&mut out, name);
            let _ = writeln!(
                out,
                ",\"count\":{},\"sum_us\":{},\"min_us\":{},\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}}",
                h.count,
                h.sum_us,
                if h.count == 0 { 0 } else { h.min_us },
                h.quantile_us(0.50),
                h.quantile_us(0.95),
                h.max_us
            );
        }
        out
    }

    /// Human-readable roll-up: per-name span timings (count, total,
    /// mean, ~p95, max — quantiles from log₂ buckets, so within 2×),
    /// then counters and gauges.
    pub fn summary(&self) -> String {
        let state = self.lock();
        let mut out = String::from("== obs summary ==\n");
        if !state.hists.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12} {:>10} {:>10} {:>10}\n",
                "span/histogram", "count", "total", "mean", "~p95", "max"
            ));
            for (name, h) in &state.hists {
                out.push_str(&format!(
                    "{:<28} {:>7} {:>12} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count,
                    fmt_us(h.sum_us),
                    fmt_us(h.mean_us()),
                    fmt_us(h.quantile_us(0.95)),
                    fmt_us(h.max_us)
                ));
            }
        }
        if !state.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &state.counters {
                out.push_str(&format!("  {name:<30} {value}\n"));
            }
        }
        if !state.gauges.is_empty() {
            out.push_str("gauges (current / peak):\n");
            for (name, (current, peak)) in &state.gauges {
                out.push_str(&format!("  {name:<30} {current} / {peak}\n"));
            }
        }
        out
    }

    /// The `/metrics` text export, one metric per line:
    ///
    /// ```text
    /// sttlock_counter{name="serve.accepted"} 12
    /// sttlock_gauge{name="serve.in_flight"} 0
    /// sttlock_gauge_peak{name="serve.in_flight"} 4
    /// sttlock_hist_count{name="serve.request"} 12
    /// sttlock_hist_sum_us{name="serve.request"} 83211
    /// sttlock_hist_p50_us{name="serve.request"} 4096
    /// sttlock_hist_p95_us{name="serve.request"} 16384
    /// sttlock_hist_max_us{name="serve.request"} 15321
    /// ```
    ///
    /// Names are emitted verbatim inside the label; ordering is the
    /// BTreeMap's, i.e. deterministic, so tests and CI can diff it.
    pub fn render_text(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for (name, value) in &state.counters {
            let _ = writeln!(out, "sttlock_counter{{name=\"{name}\"}} {value}");
        }
        for (name, (current, peak)) in &state.gauges {
            let _ = writeln!(out, "sttlock_gauge{{name=\"{name}\"}} {current}");
            let _ = writeln!(out, "sttlock_gauge_peak{{name=\"{name}\"}} {peak}");
        }
        for (name, h) in &state.hists {
            let _ = writeln!(out, "sttlock_hist_count{{name=\"{name}\"}} {}", h.count);
            let _ = writeln!(out, "sttlock_hist_sum_us{{name=\"{name}\"}} {}", h.sum_us);
            let _ = writeln!(
                out,
                "sttlock_hist_p50_us{{name=\"{name}\"}} {}",
                h.quantile_us(0.50)
            );
            let _ = writeln!(
                out,
                "sttlock_hist_p95_us{{name=\"{name}\"}} {}",
                h.quantile_us(0.95)
            );
            let _ = writeln!(out, "sttlock_hist_max_us{{name=\"{name}\"}} {}", h.max_us);
        }
        out
    }

    /// One-line digest for logs: how many metrics of each kind, and the
    /// total histogram observation count.
    pub fn digest(&self) -> String {
        let state = self.lock();
        let observations: u64 = state.hists.values().map(|h| h.count).sum();
        format!(
            "{} counters, {} gauges, {} histograms, {} observations",
            state.counters.len(),
            state.gauges.len(),
            state.hists.len(),
            observations
        )
    }
}

impl Collector for TraceCollector {
    fn span_close(&self, span: SpanData) {
        let mut state = self.lock();
        state.observe(span.name, span.duration_us);
        if self.keep_spans {
            state.spans.push(span);
        }
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut state = self.lock();
        *state.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_add(&self, name: &'static str, delta: i64) {
        let mut state = self.lock();
        let entry = state.gauges.entry(name).or_insert((0, 0));
        entry.0 += delta;
        entry.1 = entry.1.max(entry.0);
    }

    fn observe_us(&self, name: &'static str, value_us: u64) {
        self.lock().observe(name, value_us);
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1} s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// Writes `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped, everything else (non-ASCII included) verbatim.
/// The workspace's one JSON string escaper — the trace export here and
/// `campaign::json` both write through it.
pub fn write_json_str<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, span, test_lock, uninstall};

    #[test]
    fn histogram_quantiles_bracket_the_observations() {
        let mut h = Hist::new();
        for us in [1u64, 2, 4, 100, 100, 100, 100, 100, 100, 5000] {
            h.observe(us);
        }
        assert_eq!(h.count, 10);
        assert_eq!(h.min_us, 1);
        assert_eq!(h.max_us, 5000);
        let p50 = h.quantile_us(0.5);
        assert!((64..=256).contains(&p50), "p50 ~100µs, got {p50}");
        assert!(h.quantile_us(1.0) >= 4096);
        assert_eq!(Hist::new().quantile_us(0.5), 0);
    }

    #[test]
    fn jsonl_lines_are_parseable_and_carry_the_tree() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        {
            let _outer = span!("outer", label = "a\"b\\c\n\u{7}é");
            let _inner = span!("inner", n = 2u64);
        }
        crate::counter("hits", 3);
        crate::gauge("live", 5);
        crate::observe_us("wait", 120);
        uninstall();

        let jsonl = collector.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // 2 spans + 1 counter + 1 gauge + 3 hists (outer, inner, wait).
        assert_eq!(lines.len(), 7, "{jsonl}");
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"label\":\"a\\\"b\\\\c\\n\\u0007é\""));
        assert!(jsonl.contains("\"type\":\"counter\",\"name\":\"hits\",\"value\":3"));
        assert!(jsonl.contains("\"type\":\"gauge\",\"name\":\"live\",\"value\":5,\"peak\":5"));
        assert!(jsonl.contains("\"type\":\"hist\",\"name\":\"wait\""));
        // The inner span's parent id points at the outer span's id.
        let spans = collector.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(jsonl.contains(&format!("\"parent\":{},\"name\":\"inner\"", outer.id)));
    }

    #[test]
    fn summary_mentions_every_metric_kind() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        {
            let _s = span!("stage");
        }
        crate::counter("stage.retries", 2);
        crate::gauge("stage.live", 1);
        crate::gauge("stage.live", -1);
        uninstall();
        let text = collector.summary();
        assert!(text.contains("obs summary"), "{text}");
        assert!(text.contains("stage"), "{text}");
        assert!(text.contains("stage.retries"), "{text}");
        assert!(text.contains("0 / 1"), "gauge current/peak: {text}");
    }

    #[test]
    fn escape_handles_control_characters() {
        let quoted = |s: &str| {
            let mut out = String::new();
            write_json_str(&mut out, s).unwrap();
            out
        };
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}\r\t\u{1f}"), "\"\\u0001\\r\\t\\u001f\"");
        assert_eq!(quoted("é☃ ok"), "\"é☃ ok\"");
    }

    #[test]
    fn render_text_round_trips_as_name_value_lines_without_duplicates() {
        // The text export is what `/metrics` serves and what the CI
        // smoke jobs diff; every line must parse as `series{name="X"} N`
        // and no (series, name) pair may repeat.
        let _guard = test_lock();
        let metrics = TraceCollector::without_spans();
        install(metrics.clone());
        {
            let _s = span!("serve.request", endpoint = "harden");
        }
        crate::counter("cluster.dispatch", 6);
        crate::counter("serve.accepted", 1);
        crate::gauge("serve.in_flight", 2);
        crate::observe_us("serve.queue_wait", 250);
        uninstall();

        let text = metrics.render_text();
        assert!(!text.is_empty());
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            let (series, rest) = line
                .split_once("{name=\"")
                .unwrap_or_else(|| panic!("line lacks a name label: `{line}`"));
            assert!(
                series.starts_with("sttlock_"),
                "unprefixed series in `{line}`"
            );
            let (name, value) = rest
                .split_once("\"} ")
                .unwrap_or_else(|| panic!("line lacks a value: `{line}`"));
            assert!(!name.is_empty(), "empty metric name in `{line}`");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value `{value}` in `{line}`"
            );
            assert!(
                seen.insert((series.to_owned(), name.to_owned())),
                "duplicate series `{line}`"
            );
        }
        // Spot-check the lines the exporters above must have produced.
        for needle in [
            "sttlock_counter{name=\"cluster.dispatch\"} 6",
            "sttlock_gauge{name=\"serve.in_flight\"} 2",
            "sttlock_hist_count{name=\"serve.queue_wait\"} 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn metrics_collector_aggregates_without_retaining_spans() {
        let _guard = test_lock();
        let metrics = TraceCollector::without_spans();
        install(metrics.clone());
        {
            let _s = span!("serve.request", endpoint = "harden");
        }
        crate::counter("serve.accepted", 2);
        crate::gauge("serve.in_flight", 3);
        crate::gauge("serve.in_flight", -3);
        crate::observe_us("serve.queue_wait", 250);
        uninstall();

        assert!(metrics.spans().is_empty(), "no span is retained");
        assert_eq!(metrics.counter_value("serve.accepted"), 2);
        assert_eq!(metrics.gauge_value("serve.in_flight"), 0);
        assert_eq!(metrics.hist_count("serve.request"), 1);
        assert_eq!(metrics.hist_count("serve.queue_wait"), 1);

        let text = metrics.render_text();
        assert!(
            text.contains("sttlock_counter{name=\"serve.accepted\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("sttlock_gauge{name=\"serve.in_flight\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("sttlock_gauge_peak{name=\"serve.in_flight\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("sttlock_hist_count{name=\"serve.request\"} 1"),
            "{text}"
        );
        assert!(metrics.digest().contains("2 observations"), "digest");
    }

    #[test]
    fn render_text_is_deterministic_and_line_oriented() {
        let metrics = TraceCollector::without_spans();
        metrics.counter_add("b.second", 1);
        metrics.counter_add("a.first", 1);
        let text = metrics.render_text();
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "BTreeMap ordering: {text}");
        assert!(text.lines().all(|l| l.contains('{') && l.contains("} ")));
    }
}
