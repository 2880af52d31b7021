//! Criterion bench behind Table II: selection-algorithm runtime per
//! benchmark circuit. Runs the small/mid profiles so a full `cargo
//! bench` stays laptop-friendly; the `table2` binary covers the full
//! suite with wall-clock timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::profiles;
use sttlock_core::select::{self, SelectionConfig};
use sttlock_core::SelectionAlgorithm;
use sttlock_exec::Budget;
use sttlock_netlist::CircuitView;
use sttlock_sta::analyze;
use sttlock_techlib::Library;

fn bench_selection(c: &mut Criterion) {
    let lib = Library::predictive_90nm();
    let cfg = SelectionConfig::default();
    let mut group = c.benchmark_group("selection");
    group.sample_size(10);
    for profile in profiles::up_to(700) {
        let netlist = profile.generate(&mut StdRng::seed_from_u64(42));
        let timing = analyze(&netlist, &lib);
        for alg in SelectionAlgorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(alg.short_name(), profile.name),
                &netlist,
                |b, n| {
                    b.iter(|| {
                        // Fresh view per iteration: the timing includes
                        // the one-off graph-fact computation, like the
                        // per-circuit cost a flow run pays.
                        let view = CircuitView::new(n);
                        let mut rng = StdRng::seed_from_u64(7);
                        match alg {
                            SelectionAlgorithm::Independent => {
                                select::independent(&view, &timing, &cfg, &mut rng)
                            }
                            SelectionAlgorithm::Dependent => {
                                select::dependent(&view, &timing, &cfg, &mut rng)
                            }
                            SelectionAlgorithm::ParametricAware => select::parametric(
                                &view,
                                &lib,
                                &timing,
                                &cfg,
                                &mut rng,
                                &Budget::unbounded(),
                            )
                            .expect("an unbounded budget never trips"),
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
