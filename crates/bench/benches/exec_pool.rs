//! Cost of the exec runtime the whole stack now runs on.
//!
//! Every budgeted hot loop (selection retry draws and closure probes,
//! sensitization oracle queries) pays one `charge` + `check` per unit
//! of work, and every parallel stage (campaign grid, serve request
//! pool) goes through the pool primitives, so
//! their fixed costs bound how finely work can be metered:
//!
//! * `budget/*` — `charge(1)` + `check()` in a tight loop, on a root
//!   budget and at the bottom of a three-deep child chain (the serve →
//!   flow → attack nesting). The chain walk is the per-step price of
//!   hierarchical cancellation.
//! * `scoped_map/*` — fork/join over a CPU-bound workload versus the
//!   serial loop, at 1 and 4 workers. The 1-worker number isolates the
//!   scope + catch_unwind overhead; the 4-worker number shows the
//!   speedup the campaign grid actually gets.
//! * `pool/dispatch` — admit-and-run latency of tiny jobs through a
//!   bounded [`Pool`], the per-request floor of the serve layer.
//!
//! `STTLOCK_BENCH_QUICK=1` trims sizes for CI smoke runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sttlock_exec::{scoped_map, Budget, Pool};

fn quick() -> bool {
    std::env::var_os("STTLOCK_BENCH_QUICK").is_some()
}

/// Steps charged per bench iteration in the budget loops.
fn charge_n() -> u64 {
    if quick() {
        1_000
    } else {
        100_000
    }
}

/// Items mapped per bench iteration in the scoped_map loops.
fn map_n() -> usize {
    if quick() {
        64
    } else {
        1_024
    }
}

/// CPU-bound unit of work, heavy enough that a 4-worker split is
/// visible over the fork/join fixed costs.
fn work(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..2_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn bench_budget(c: &mut Criterion) {
    let n = charge_n();
    let mut group = c.benchmark_group("budget");
    group.sample_size(20);

    group.bench_function("charge_check_root", |b| {
        let budget = Budget::unbounded();
        b.iter(|| {
            for _ in 0..n {
                budget.charge(1);
                black_box(budget.check().is_ok());
            }
            budget.steps_spent()
        })
    });

    // serve → flow → attack: three nodes between the charge and the
    // root, all billed and all consulted by `check`.
    group.bench_function("charge_check_depth3", |b| {
        let root = Budget::unbounded();
        let leaf = root.child().child().child();
        b.iter(|| {
            for _ in 0..n {
                leaf.charge(1);
                black_box(leaf.check().is_ok());
            }
            leaf.steps_spent()
        })
    });

    group.finish();
}

fn bench_scoped_map(c: &mut Criterion) {
    let n = map_n();
    let mut group = c.benchmark_group("scoped_map");
    group.sample_size(10);

    group.bench_function("serial_baseline", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(work(i as u64));
            }
            acc
        })
    });

    for workers in [1usize, 4] {
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                scoped_map(workers, n, |i| work(i as u64))
                    .into_iter()
                    .map(|r| r.unwrap())
                    .fold(0u64, u64::wrapping_add)
            })
        });
    }

    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let jobs = if quick() { 64 } else { 512 };
    let mut group = c.benchmark_group("pool");
    group.sample_size(10);

    // Admit `jobs` tiny jobs and wait for the last one: dominated by
    // queue handoff + catch_unwind, the fixed per-request cost serve
    // pays before any handler work.
    group.bench_function("dispatch", |b| {
        b.iter(|| {
            let pool = Pool::new(4, jobs);
            let (tx, rx) = std::sync::mpsc::channel::<u64>();
            for i in 0..jobs {
                let tx = tx.clone();
                pool.try_execute(move || {
                    let _ = tx.send(work(i as u64));
                })
                .expect("queue sized to hold every job");
            }
            drop(tx);
            let acc: u64 = rx.iter().fold(0, u64::wrapping_add);
            pool.shutdown();
            acc
        })
    });

    group.finish();
}

criterion_group!(benches, bench_budget, bench_scoped_map, bench_pool);
criterion_main!(benches);
