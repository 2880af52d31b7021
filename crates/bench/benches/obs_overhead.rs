//! Cost of the observability layer.
//!
//! The `obs` registry is consulted on every span, counter and gauge in
//! the instrumented hot paths, so its disabled path has to be free for
//! the instrumentation to be acceptable in production runs. Two layers:
//!
//! * `obs/*` — the primitives in a tight loop. `baseline` is the loop
//!   body alone; `span_disabled` / `counter_disabled` add one obs call
//!   per iteration with no collector installed (one relaxed atomic
//!   load, single-digit nanoseconds per call); `span_null_collector`
//!   shows the enabled-path dispatch cost against a collector that
//!   records nothing.
//! * `flow/*` — the instrumented end-to-end flow on a small profile,
//!   disabled versus recording into a [`TraceCollector`]. The disabled
//!   number is the one the seed-parity acceptance criterion cares
//!   about; the enabled number bounds what `--trace` costs.
//!
//! `STTLOCK_BENCH_QUICK=1` trims the loop count for CI smoke runs.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::profiles;
use sttlock_core::Flow;
use sttlock_core::SelectionAlgorithm;
use sttlock_obs::{Collector, SpanData, TraceCollector};
use sttlock_techlib::Library;

fn quick() -> bool {
    std::env::var_os("STTLOCK_BENCH_QUICK").is_some()
}

/// Iterations of the primitive loop per bench iteration.
fn loop_n() -> u64 {
    if quick() {
        100
    } else {
        1000
    }
}

/// Enabled-path probe that aggregates nothing, so the measurement is
/// pure dispatch (virtual call + span bookkeeping), not `Vec` growth.
struct NullCollector;

impl Collector for NullCollector {
    fn span_close(&self, span: SpanData) {
        black_box(span.duration_us);
    }
    fn counter_add(&self, name: &'static str, delta: u64) {
        black_box((name, delta));
    }
    fn gauge_add(&self, name: &'static str, delta: i64) {
        black_box((name, delta));
    }
    fn observe_us(&self, name: &'static str, value_us: u64) {
        black_box((name, value_us));
    }
}

fn bench_primitives(c: &mut Criterion) {
    let n = loop_n();
    let mut group = c.benchmark_group("obs");
    group.sample_size(20);

    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });

    // No collector installed: `span!` costs one relaxed load and
    // skips field evaluation entirely.
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let _s = sttlock_obs::span!("bench.iter", i = i);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });

    group.bench_function("counter_disabled", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                sttlock_obs::counter("bench.count", 1);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        })
    });

    group.bench_function("span_null_collector", |b| {
        sttlock_obs::install(Arc::new(NullCollector));
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                let _s = sttlock_obs::span!("bench.iter", i = i);
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        sttlock_obs::uninstall();
    });

    group.finish();
}

fn bench_flow(c: &mut Criterion) {
    let profile = profiles::by_name("s641").unwrap();
    let netlist = profile.generate(&mut StdRng::seed_from_u64(42));
    let flow = Flow::new(Library::predictive_90nm());
    let mut group = c.benchmark_group("flow");
    group.sample_size(10);

    group.bench_function("disabled", |b| {
        b.iter(|| {
            flow.run(&netlist, SelectionAlgorithm::ParametricAware, 7)
                .unwrap()
        })
    });

    group.bench_function("traced", |b| {
        let collector = TraceCollector::new();
        sttlock_obs::install(collector);
        b.iter(|| {
            flow.run(&netlist, SelectionAlgorithm::ParametricAware, 7)
                .unwrap()
        });
        sttlock_obs::uninstall();
    });

    group.finish();
}

criterion_group!(benches, bench_primitives, bench_flow);
criterion_main!(benches);
