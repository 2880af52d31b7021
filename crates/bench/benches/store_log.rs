//! Cost of the persistence layer.
//!
//! The record log sits under the campaign journal (fsync-per-record)
//! and the serve response cache (no implicit fsync), so two numbers
//! matter: append throughput per [`FsyncPolicy`], and the open-with-
//! recovery scan that every process start pays. `compact` bounds the
//! boot-time rewrite the caches do when replay finds dead weight.
//!
//! `STTLOCK_BENCH_QUICK=1` trims record counts for CI smoke runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sttlock_store::{read_all, FsyncPolicy, RecordLog};

fn quick() -> bool {
    std::env::var_os("STTLOCK_BENCH_QUICK").is_some()
}

/// Records appended (or pre-seeded) per measured iteration.
fn record_n() -> usize {
    if quick() {
        64
    } else {
        512
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("sttlock-store-bench")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A payload the size of a typical campaign journal entry.
fn payload(i: usize) -> Vec<u8> {
    format!(
        "{{\"schema\":1,\"record\":{{\"circuit\":\"bench-{i}\",\"seed\":{i},\
         \"status\":\"ok\",\"wall_ms\":{},\"metrics\":[0.1,0.2,0.3,0.4]}}}}",
        i * 7
    )
    .into_bytes()
}

fn bench_append(c: &mut Criterion) {
    let n = record_n();
    let mut group = c.benchmark_group("store_log/append");
    group.sample_size(10);

    // The cache setting: appends ride the OS page cache.
    group.bench_function("fsync_never", |b| {
        let dir = tmp_dir("append-never");
        b.iter(|| {
            let path = dir.join("log");
            let _ = std::fs::remove_file(&path);
            let mut opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
            for i in 0..n {
                opened.log.append(&payload(i)).unwrap();
            }
            opened.log.len_bytes()
        })
    });

    // The journal setting: every record is durable before the append
    // returns. Fewer records — each iteration is n real fsyncs.
    group.bench_function("fsync_always", |b| {
        let dir = tmp_dir("append-always");
        let n = n / 8;
        b.iter(|| {
            let path = dir.join("log");
            let _ = std::fs::remove_file(&path);
            let mut opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Always).unwrap();
            for i in 0..n {
                opened.log.append(&payload(i)).unwrap();
            }
            opened.log.len_bytes()
        })
    });

    group.finish();
}

fn bench_open(c: &mut Criterion) {
    let n = record_n();
    let mut group = c.benchmark_group("store_log/open");
    group.sample_size(10);

    // Pre-seed one log; every open re-scans and CRC-checks all of it.
    let dir = tmp_dir("open");
    let path = dir.join("log");
    {
        let mut opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
        for i in 0..n {
            opened.log.append(&payload(i)).unwrap();
        }
    }

    group.bench_function("recovery_scan", |b| {
        b.iter(|| {
            let opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
            black_box(opened.records.len())
        })
    });

    group.bench_function("read_all", |b| {
        b.iter(|| {
            let (records, report) = read_all::<Vec<u8>>(&path).unwrap();
            black_box((records.len(), report.kept_bytes))
        })
    });

    group.bench_function("compact", |b| {
        let records: Vec<Vec<u8>> = (0..n / 2).map(payload).collect();
        let mut opened =
            RecordLog::<Vec<u8>>::open(dir.join("compact"), FsyncPolicy::Never).unwrap();
        b.iter(|| {
            opened.log.compact(&records).unwrap();
            opened.log.len_bytes()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_append, bench_open);
criterion_main!(benches);
