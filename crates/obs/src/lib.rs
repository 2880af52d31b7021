//! Zero-dependency structured observability for the sttlock runtime.
//!
//! The campaign engine runs thousands of isolated cells per sweep; when
//! one of them leaks a thread, aborts a sibling, or spends its budget in
//! an unexpected stage, nothing in a JSONL record says *where* the time
//! or the failure went. This crate adds the missing layer:
//!
//! * **hierarchical spans** — [`span!`] opens a named, field-carrying
//!   span whose guard records the duration on drop; spans nest through a
//!   thread-local stack, and [`current_context`]/[`adopt`] carry the
//!   parentage across thread boundaries (the campaign runner's detached
//!   cell threads);
//! * **monotonic counters** ([`counter`]), **gauges** ([`gauge`]) and
//!   **explicit duration histograms** ([`observe_us`]);
//! * a [`Collector`] trait behind a process-global registry
//!   ([`install`]/[`uninstall`]). The default state is *disabled*: every
//!   instrumentation call is gated on one relaxed atomic load and does
//!   no allocation, no locking, and no field evaluation — the
//!   `obs_overhead` criterion bench pins the disabled cost in the noise.
//!
//! [`TraceCollector`] is the one sink: it aggregates
//! counters/gauges/histograms, keeps every closed span unless built by
//! [`TraceCollector::without_spans`], and renders a JSONL trace (one
//! event per line, reconstructable into the span tree through the
//! `id`/`parent` fields), a human `summary()` table or the `/metrics`
//! text export. The CLI exposes it as `--trace <path>` /
//! `--trace-summary` on the `campaign` and `faults` subcommands; the
//! server renders `/metrics` from it and keeps spans only when asked
//! for a trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;

pub use trace::{write_json_str, TraceCollector};

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// One field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self {
                FieldValue::$variant(v as $conv)
            }
        })+
    };
}

field_from! {
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A closed span as delivered to [`Collector::span_close`]: identity,
/// parentage, timing, and the fields recorded while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id, if any — follows [`adopt`]ed contexts across
    /// threads.
    pub parent: Option<u64>,
    /// Static span name, e.g. `campaign.cell`.
    pub name: &'static str,
    /// Fields attached at open time plus any [`SpanGuard::record`]ed
    /// later.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Open timestamp, microseconds since the process obs epoch.
    pub start_us: u64,
    /// Open-to-close wall time, microseconds.
    pub duration_us: u64,
}

/// The sink side of the registry. Implementations must be cheap and
/// non-blocking where possible: calls arrive from hot loops on many
/// threads (only while a collector is installed).
pub trait Collector: Send + Sync {
    /// A span closed (its guard dropped). `span` carries start, duration
    /// and parent, which is enough to rebuild the tree — open events are
    /// deliberately not delivered.
    fn span_close(&self, span: SpanData);
    /// Monotonic counter increment.
    fn counter_add(&self, name: &'static str, delta: u64);
    /// Gauge delta (may be negative; the current value is the running
    /// sum).
    fn gauge_add(&self, name: &'static str, delta: i64);
    /// Explicit histogram observation, microseconds (for durations that
    /// are not spans, e.g. queue wait measured after the fact).
    fn observe_us(&self, name: &'static str, value_us: u64);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open-span stack of this thread; the top is the parent of the next
    /// span. Adopted foreign parents ([`adopt`]) are pushed like local
    /// spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Installs `collector` as the process-global sink and enables every
/// instrumentation site. Replaces any previous collector.
pub fn install(collector: Arc<dyn Collector>) {
    // Touch the epoch before enabling so start_us timestamps are
    // monotonic with respect to one another from the first span on.
    let _ = epoch();
    *COLLECTOR.write().unwrap_or_else(|e| e.into_inner()) = Some(collector);
    ENABLED.store(true, Ordering::Release);
}

/// Disables instrumentation and drops the collector reference. Spans
/// still open keep their stack bookkeeping but their close events are
/// discarded.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *COLLECTOR.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether a collector is installed — the one-load fast path every
/// instrumentation macro checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_collector(f: impl FnOnce(&dyn Collector)) {
    if !enabled() {
        return;
    }
    let guard = COLLECTOR.read().unwrap_or_else(|e| e.into_inner());
    if let Some(c) = guard.as_deref() {
        f(c);
    }
}

/// Adds `delta` to the monotonic counter `name`. No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        with_collector(|c| c.counter_add(name, delta));
    }
}

/// Adds `delta` (possibly negative) to the gauge `name`. No-op when
/// disabled.
#[inline]
pub fn gauge(name: &'static str, delta: i64) {
    if enabled() {
        with_collector(|c| c.gauge_add(name, delta));
    }
}

/// Records one explicit histogram observation under `name`,
/// microseconds. No-op when disabled.
#[inline]
pub fn observe_us(name: &'static str, value_us: u64) {
    if enabled() {
        with_collector(|c| c.observe_us(name, value_us));
    }
}

/// A portable handle to the current span, for parenting spans opened on
/// another thread (the campaign's detached cell threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    parent: Option<u64>,
}

/// The innermost open span of this thread as a [`SpanContext`]; pass it
/// to [`adopt`] on the thread that should inherit it.
pub fn current_context() -> SpanContext {
    SpanContext {
        parent: SPAN_STACK.with(|s| s.borrow().last().copied()),
    }
}

/// Guard returned by [`adopt`]; pops the foreign parent on drop.
#[derive(Debug)]
pub struct ContextGuard {
    pushed: bool,
}

/// Makes `ctx`'s span the parent of spans subsequently opened on *this*
/// thread, until the returned guard drops.
pub fn adopt(ctx: SpanContext) -> ContextGuard {
    if let Some(parent) = ctx.parent {
        SPAN_STACK.with(|s| s.borrow_mut().push(parent));
        ContextGuard { pushed: true }
    } else {
        ContextGuard { pushed: false }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.pushed {
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// An open span; created by [`span!`] (or [`SpanGuard::start`]), closed
/// on drop. The disabled form ([`SpanGuard::disabled`]) is a unit-sized
/// no-op.
#[derive(Debug)]
pub struct SpanGuard {
    info: Option<SpanInfo>,
}

#[derive(Debug)]
struct SpanInfo {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    started: Instant,
    start_us: u64,
}

impl SpanGuard {
    /// Opens a span as a child of this thread's innermost open (or
    /// adopted) span. Prefer the [`span!`] macro, which skips field
    /// evaluation entirely when disabled.
    pub fn start(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        if !enabled() {
            return SpanGuard::disabled();
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        SpanGuard {
            info: Some(SpanInfo {
                id,
                parent,
                name,
                fields,
                started: Instant::now(),
                start_us: now_us(),
            }),
        }
    }

    /// The inert guard the disabled path returns.
    pub fn disabled() -> SpanGuard {
        SpanGuard { info: None }
    }

    /// Attaches a field after the span opened (e.g. a result computed
    /// mid-span). No-op on a disabled guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(info) = &mut self.info {
            info.fields.push((key, value.into()));
        }
    }

    /// This span's id, if live (tests and manual parenting).
    pub fn id(&self) -> Option<u64> {
        self.info.as_ref().map(|i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(info) = self.info.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally the top of the stack; sweep defensively in case a
            // guard outlived an enclosing one (drop-order mistakes must
            // not corrupt parentage for the rest of the thread).
            if let Some(pos) = stack.iter().rposition(|&id| id == info.id) {
                stack.remove(pos);
            }
        });
        let data = SpanData {
            id: info.id,
            parent: info.parent,
            name: info.name,
            fields: info.fields,
            start_us: info.start_us,
            duration_us: info.started.elapsed().as_micros() as u64,
        };
        with_collector(|c| c.span_close(data));
    }
}

/// Opens a hierarchical span: `span!("verify_round", round = r)`.
///
/// Evaluates to a [`SpanGuard`] closing the span on drop. When no
/// collector is installed the field expressions are **not evaluated**
/// and nothing allocates — the whole call is one atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::start(
                $name,
                ::std::vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The registry is process-global; tests that install a collector
    // must not interleave.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_cost_nothing_and_do_not_evaluate_fields() {
        let _guard = test_lock();
        uninstall();
        let mut evaluated = false;
        {
            let _s = span!(
                "noop",
                x = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(!evaluated, "fields must not evaluate when disabled");
        counter("noop.counter", 1);
        gauge("noop.gauge", 1);
        observe_us("noop.hist", 1);
    }

    #[test]
    fn spans_nest_and_report_to_the_collector() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        {
            let mut outer = span!("outer", kind = "test");
            outer.record("extra", 7u64);
            {
                let _inner = span!("inner", idx = 3u64);
            }
        }
        counter("c.hits", 2);
        counter("c.hits", 3);
        gauge("g.live", 2);
        gauge("g.live", -2);
        observe_us("h.wait", 40);
        uninstall();

        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.fields.contains(&("extra", FieldValue::U64(7))));
        assert!(outer.duration_us >= inner.duration_us);
        assert_eq!(collector.counter_value("c.hits"), 5);
        assert_eq!(collector.gauge_value("g.live"), 0);
    }

    #[test]
    fn adopt_carries_parentage_across_threads() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        {
            let _root = span!("root");
            let ctx = current_context();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _adopted = adopt(ctx);
                    let _child = span!("child");
                });
            });
        }
        uninstall();
        let spans = collector.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn adopting_an_empty_context_is_a_no_op() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        {
            let _adopted = adopt(SpanContext { parent: None });
            let _s = span!("orphan");
        }
        uninstall();
        assert_eq!(collector.spans()[0].parent, None);
    }

    #[test]
    fn uninstall_discards_late_closes_without_panicking() {
        let _guard = test_lock();
        let collector = TraceCollector::new();
        install(collector.clone());
        let s = span!("late");
        uninstall();
        drop(s); // collector gone: close event discarded, stack popped
        assert_eq!(collector.spans().len(), 0);
        // The thread-local stack is clean: a fresh span has no parent.
        install(collector.clone());
        {
            let _s = span!("fresh");
        }
        uninstall();
        assert_eq!(collector.spans()[0].parent, None);
    }

    #[test]
    fn field_values_convert_and_display() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-2i32), FieldValue::I64(-2));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x").to_string(), "x");
        assert_eq!(FieldValue::from(1.5f64).to_string(), "1.5");
    }
}
