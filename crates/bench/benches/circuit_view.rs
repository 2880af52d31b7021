//! Memoized `CircuitView` vs. fresh per-consumer graph recomputation,
//! and copy-on-write `HybridOverlay` vs. clone-then-mutate hybrids.
//!
//! Before the shared analysis layer, every consumer (simulator, STA,
//! path sampler, USL closure) recomputed the fanout map and topological
//! order from scratch. `circuit_view/fresh` times that historical cost
//! (a cold view per query, computing the fanout map, order and levels);
//! `circuit_view/memoized` times the same queries answered from a warm
//! view; `circuit_view/build` times one cold view (the one-off cost a
//! flow run pays per circuit).
//!
//! Set `STTLOCK_BENCH_QUICK=1` for the CI smoke configuration: fewer
//! samples and only the small profile.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::{profiles, Profile};
use sttlock_netlist::{CircuitView, HybridOverlay, Netlist, NodeId};

fn quick() -> bool {
    std::env::var_os("STTLOCK_BENCH_QUICK").is_some()
}

fn bench_profiles() -> Vec<Profile> {
    let mut v = vec![profiles::by_name("s1238").unwrap()];
    if !quick() {
        v.push(profiles::by_name("s9234a").unwrap());
    }
    v
}

fn bench_graph_facts(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_view");
    group.sample_size(if quick() { 10 } else { 30 });
    for profile in bench_profiles() {
        let netlist = profile.generate(&mut StdRng::seed_from_u64(42));

        // The pre-refactor pattern: each consumer recomputes the facts.
        group.bench_with_input(BenchmarkId::new("fresh", profile.name), &netlist, |b, n| {
            b.iter(|| {
                let fanout = CircuitView::new(n).fanout().len();
                let topo = CircuitView::new(n).topo_order().len();
                let levels = CircuitView::new(n).levels().len();
                (fanout, topo, levels)
            })
        });

        // The shared-view pattern: facts computed once, then served.
        group.bench_with_input(
            BenchmarkId::new("memoized", profile.name),
            &netlist,
            |b, n| {
                let view = CircuitView::new(n);
                b.iter(|| {
                    (
                        view.fanout().len(),
                        view.topo_order().len(),
                        view.levels().len(),
                    )
                })
            },
        );

        // Cold-view cost: what one flow run pays per circuit.
        group.bench_with_input(BenchmarkId::new("build", profile.name), &netlist, |b, n| {
            b.iter(|| {
                let view = CircuitView::new(n);
                (view.fanout().len(), view.topo_order().len())
            })
        });
    }
    group.finish();
}

/// Gates a selection would replace: every third narrow standard cell.
fn lut_targets(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .iter()
        .filter(|(_, n)| n.gate_kind().is_some() && n.fanin().len() >= 2 && n.fanin().len() <= 6)
        .map(|(id, _)| id)
        .step_by(3)
        .take(64)
        .collect()
}

fn bench_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay");
    group.sample_size(if quick() { 10 } else { 30 });
    for profile in bench_profiles() {
        let base = Arc::new(profile.generate(&mut StdRng::seed_from_u64(42)));
        let targets = lut_targets(&base);

        // Legacy: clone the whole arena, mutate in place.
        group.bench_with_input(
            BenchmarkId::new("clone_mutate", profile.name),
            &base,
            |b, n| {
                b.iter(|| {
                    let mut hybrid = (**n).clone();
                    for &id in &targets {
                        hybrid.replace_gate_with_lut(id).unwrap();
                    }
                    hybrid.lut_count()
                })
            },
        );

        // Copy-on-write: sparse edits over the shared base. This is what
        // the attack's hypothesis loop holds per candidate.
        group.bench_with_input(
            BenchmarkId::new("overlay_edit", profile.name),
            &base,
            |b, n| {
                b.iter(|| {
                    let mut overlay = HybridOverlay::new(Arc::clone(n));
                    for &id in &targets {
                        overlay.replace_gate_with_lut(id).unwrap();
                    }
                    overlay.edit_count()
                })
            },
        );

        // Overlay plus materialization — the full-owned-netlist path,
        // differentially equal to clone_mutate.
        group.bench_with_input(
            BenchmarkId::new("overlay_materialize", profile.name),
            &base,
            |b, n| {
                b.iter(|| {
                    let mut overlay = HybridOverlay::new(Arc::clone(n));
                    for &id in &targets {
                        overlay.replace_gate_with_lut(id).unwrap();
                    }
                    overlay.materialize().lut_count()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_graph_facts, bench_overlay);
criterion_main!(benches);
