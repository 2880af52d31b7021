//! SAT-attack effort scaling: DIP iterations and wall time versus the
//! number of missing gates, under full-scan access. The steep growth is
//! the quantitative backdrop to the paper's "lock the scan chain"
//! argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::{sat_attack, MAX_DIPS};
use sttlock_benchgen::Profile;
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_netlist::Netlist;
use sttlock_techlib::Library;

fn locked_pair(luts: usize) -> (Netlist, Netlist) {
    let profile = Profile::custom("satbench", 120, 5, 8, 6);
    let netlist = profile.generate(&mut StdRng::seed_from_u64(42));
    let mut flow = Flow::new(Library::predictive_90nm());
    flow.selection.independent_gates = luts;
    let out = flow
        .run(&netlist, SelectionAlgorithm::Independent, 42)
        .expect("flow succeeds");
    let redacted = out.foundry_view();
    (redacted, out.hybrid)
}

fn bench_sat_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_attack");
    group.sample_size(10);
    for luts in [2usize, 4, 8] {
        let (redacted, oracle) = locked_pair(luts);
        group.bench_with_input(
            BenchmarkId::from_parameter(luts),
            &(redacted, oracle),
            |b, (r, o)| {
                b.iter(|| {
                    let out =
                        sat_attack::run(r, o, MAX_DIPS, &Budget::unbounded()).expect("attack runs");
                    assert!(out.succeeded());
                    out.dips
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sat_attack);
criterion_main!(benches);
