//! The batteries-included [`Collector`]: span recorder, metric
//! aggregator, JSONL trace exporter and text summary renderer.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use crate::{Collector, FieldValue, SpanData};

/// Power-of-two duration buckets: bucket `k` covers `[2^(k-1), 2^k)`
/// microseconds (bucket 0 is `< 1 µs`).
const BUCKETS: usize = 40;

/// A log₂-bucketed duration histogram (shared with the aggregate-only
/// [`MetricsCollector`](crate::MetricsCollector)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hist {
    pub(crate) count: u64,
    pub(crate) sum_us: u64,
    pub(crate) min_us: u64,
    pub(crate) max_us: u64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            buckets: [0; BUCKETS],
        }
    }

    pub(crate) fn observe(&mut self, us: u64) {
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
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
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

    pub(crate) fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, (i64, i64)>, // (current, peak)
    hists: BTreeMap<String, Hist>,
}

/// In-memory collector: keeps every closed span, aggregates counters,
/// gauges (with peaks) and duration histograms (per span name plus
/// every [`observe_us`](crate::observe_us) stream), and renders the lot
/// as a JSONL trace or a text summary.
#[derive(Debug, Default)]
pub struct TraceCollector {
    state: Mutex<State>,
}

impl TraceCollector {
    /// A fresh collector, ready for [`install`](crate::install).
    pub fn new() -> Arc<TraceCollector> {
        Arc::new(TraceCollector::default())
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
}

impl Collector for TraceCollector {
    fn span_close(&self, span: &SpanData) {
        let mut state = self.lock();
        state
            .hists
            .entry(span.name.to_owned())
            .or_insert_with(Hist::new)
            .observe(span.duration_us);
        state.spans.push(span.clone());
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
        let mut state = self.lock();
        state
            .hists
            .entry(name.to_owned())
            .or_insert_with(Hist::new)
            .observe(value_us);
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
}
