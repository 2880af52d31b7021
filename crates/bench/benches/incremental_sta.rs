//! Incremental vs. full-reanalysis timing for parametric-aware
//! selection (Algorithm 2).
//!
//! Two layers:
//!
//! * `probe/*` — the raw oracle question ("what is the period if this
//!   one gate becomes a LUT?") answered by `IncrementalSta`
//!   swap/measure/restore probes versus a scratch-netlist `analyze` per
//!   candidate. This isolates the engine speedup from path sampling.
//! * `selection/*` — the full `parametric` run (sampling included)
//!   against `parametric_full_sta`, the pre-incremental reference. This
//!   is the end-to-end Table II measurement; for a fixed seed both
//!   produce byte-identical selections, which the harness asserts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::{profiles, Profile};
use sttlock_core::select::{parametric, parametric_full_sta, SelectionConfig};
use sttlock_exec::Budget;
use sttlock_netlist::{CircuitView, NodeId};
use sttlock_sta::{analyze, IncrementalSta};
use sttlock_techlib::Library;

/// `STTLOCK_BENCH_QUICK=1` — CI smoke configuration: only the small
/// profile (the full-reanalysis reference on s9234a costs seconds per
/// iteration).
fn bench_profiles() -> Vec<Profile> {
    let mut v = vec![profiles::by_name("s1238").unwrap()];
    if std::env::var_os("STTLOCK_BENCH_QUICK").is_none() {
        v.push(profiles::by_name("s9234a").unwrap());
    }
    v
}

/// Narrow standard cells — the population the selection probes.
fn probe_candidates(netlist: &sttlock_netlist::Netlist) -> Vec<NodeId> {
    netlist
        .iter()
        .filter(|(_, n)| n.gate_kind().is_some() && n.fanin().len() <= 6)
        .map(|(id, _)| id)
        .take(256)
        .collect()
}

fn bench_probes(c: &mut Criterion) {
    let lib = Library::predictive_90nm();
    let mut group = c.benchmark_group("probe");
    group.sample_size(10);
    for profile in bench_profiles() {
        let netlist = profile.generate(&mut StdRng::seed_from_u64(42));
        let candidates = probe_candidates(&netlist);

        group.bench_with_input(
            BenchmarkId::new("incremental", profile.name),
            &netlist,
            |b, n| {
                let mut engine = IncrementalSta::from_analysis_with(
                    &CircuitView::new(n),
                    &lib,
                    &analyze(n, &lib),
                );
                b.iter(|| {
                    let mut worst: f64 = 0.0;
                    for &id in &candidates {
                        let kind = n.node(id).gate_kind().unwrap();
                        engine.swap_to_lut(id);
                        worst = worst.max(engine.clock_period_ns());
                        engine.restore_gate(id, kind);
                    }
                    worst
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("full", profile.name), &netlist, |b, n| {
            b.iter(|| {
                let mut scratch = n.clone();
                let mut worst: f64 = 0.0;
                for &id in &candidates {
                    let kind = n.node(id).gate_kind().unwrap();
                    scratch.replace_gate_with_lut(id).unwrap();
                    worst = worst.max(analyze(&scratch, &lib).clock_period_ns());
                    scratch.restore_lut_to_gate(id, kind);
                }
                worst
            })
        });
    }
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let lib = Library::predictive_90nm();
    let cfg = SelectionConfig::default();
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    for profile in bench_profiles() {
        let netlist = profile.generate(&mut StdRng::seed_from_u64(42));
        let timing = analyze(&netlist, &lib);

        // Both paths must answer identically before timing them.
        let check_view = CircuitView::new(&netlist);
        let fast = parametric(
            &check_view,
            &lib,
            &timing,
            &cfg,
            &mut StdRng::seed_from_u64(7),
            &Budget::unbounded(),
        );
        let reference = parametric_full_sta(
            &check_view,
            &lib,
            &timing,
            &cfg,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(fast, Ok(reference), "oracles diverged on {}", profile.name);

        // Fresh view per iteration so the one-off graph-fact cost is
        // part of the measurement, matching what a flow run pays.
        group.bench_with_input(
            BenchmarkId::new("incremental", profile.name),
            &netlist,
            |b, n| {
                b.iter(|| {
                    let view = CircuitView::new(n);
                    let mut rng = StdRng::seed_from_u64(7);
                    parametric(&view, &lib, &timing, &cfg, &mut rng, &Budget::unbounded())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("full", profile.name), &netlist, |b, n| {
            b.iter(|| {
                let view = CircuitView::new(n);
                parametric_full_sta(&view, &lib, &timing, &cfg, &mut StdRng::seed_from_u64(7))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_probes, bench_selection);
criterion_main!(benches);
