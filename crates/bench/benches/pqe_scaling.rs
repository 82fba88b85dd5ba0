//! E3: Probabilistic Query Evaluation scales linearly in |D|
//! (Theorem 5.8). Series over chain and star (Eq. 1) queries, racing
//! the ordered-map and columnar storage backends on identical
//! workloads (they return bit-identical probabilities; only the
//! constants differ).
//!
//! With `HQ_BENCH_SMOKE` set (the CI smoke step) the workloads shrink
//! to their smallest size and the wall-clock speedup gate is skipped —
//! but every kernel and every bit-identity assertion still runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hq_bench::{chain_tid, host_threads, smoke_mode, star_tid, thread_sweep, write_bench_summary};
use hq_unify::{pqe, Backend, Exec, Parallelism};
use std::time::Duration;

fn bench_pqe(c: &mut Criterion) {
    let mut group = c.benchmark_group("pqe_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let sizes: &[usize] = if smoke_mode() {
        &[1_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    for &n in sizes {
        for backend in Backend::ALL {
            let w = chain_tid(n, 11);
            group.throughput(Throughput::Elements(w.tid.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("chain_{backend}"), w.tid.len()),
                &w,
                |b, w| {
                    b.iter(|| {
                        pqe::probability_on(backend.into(), &w.query, &w.interner, &w.tid).unwrap()
                    })
                },
            );
            let w = star_tid(n, 12);
            group.throughput(Throughput::Elements(w.tid.len() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("star_eq1_{backend}"), w.tid.len()),
                &w,
                |b, w| {
                    b.iter(|| {
                        pqe::probability_on(backend.into(), &w.query, &w.interner, &w.tid).unwrap()
                    })
                },
            );
        }
    }
    // Sanity: the backends agree bit-for-bit on the largest workload.
    let w = chain_tid(*sizes.last().unwrap(), 11);
    let pm = pqe::probability(&w.query, &w.interner, &w.tid).unwrap();
    let (pc, _) =
        pqe::probability_on(Backend::Columnar.into(), &w.query, &w.interner, &w.tid).unwrap();
    assert_eq!(
        pm.to_bits(),
        pc.to_bits(),
        "backends disagreed: {pm} vs {pc}"
    );
    group.finish();
}

/// The threads axis: columnar at 1/2/4/max workers on the
/// largest workloads, with bit-identity asserted at every count and a
/// machine-readable `BENCH_pqe_scaling.json` emitted for the perf
/// trajectory.
fn bench_pqe_threads(_c: &mut Criterion) {
    println!("\n== pqe_scaling/threads (sharded columnar)");
    let smoke = smoke_mode();
    let n = if smoke { 1_000 } else { 16_000 };
    let max = Parallelism::available().threads;
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&max) {
        counts.push(max);
    }
    let mut entries = Vec::new();
    for (label, w) in [
        (format!("chain_{n}"), chain_tid(n, 11)),
        (format!("star_eq1_{n}"), star_tid(n, 12)),
    ] {
        let columnar = Backend::Columnar.into();
        let (seq, _) = pqe::probability_on(columnar, &w.query, &w.interner, &w.tid).unwrap();
        entries.extend(thread_sweep(&label, &counts, 5, |threads| {
            let exec = Exec::new(Backend::Columnar, Parallelism::new(threads));
            let (p, _) = pqe::probability_on(exec, &w.query, &w.interner, &w.tid).unwrap();
            assert_eq!(
                seq.to_bits(),
                p.to_bits(),
                "{label}: sharded at {threads} threads diverged"
            );
            p
        }));
    }
    // Acceptance gate: > 2x at 4 threads on the largest workloads.
    // Only meaningful on hosts with >= 4 hardware threads, and skipped
    // in smoke mode (which shrinks the workloads below the point where
    // sharding pays).
    if !smoke && host_threads() >= 4 {
        for e in entries.iter().filter(|e| e.threads == 4) {
            assert!(
                e.speedup_vs_1 > 2.0,
                "{}: expected >2x at 4 threads, got {:.2}x",
                e.workload,
                e.speedup_vs_1
            );
        }
    }
    let path = write_bench_summary("pqe_scaling", &entries).expect("summary written");
    println!("summary: {path}");
}

criterion_group!(benches, bench_pqe, bench_pqe_threads);
criterion_main!(benches);
