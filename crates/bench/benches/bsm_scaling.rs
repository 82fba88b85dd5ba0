//! E5: Bag-Set Maximization runtime is O((|D|+|D_r|)·|D_r|²)
//! (Theorem 5.11): linear in |D| at fixed budget, quadratic in the
//! budget cap θ. Both storage backends run every series — the
//! algorithmic bound is identical, the columnar layout only shrinks
//! the constants.
//!
//! With `HQ_BENCH_SMOKE` set (the CI smoke step) the workloads shrink
//! to their smallest size and the wall-clock speedup gate is skipped —
//! but every kernel and every curve-identity assertion still runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hq_bench::{bsm_workload, host_threads, smoke_mode, thread_sweep, write_bench_summary};
use hq_unify::{bsm, Backend, Exec, Parallelism};
use std::time::Duration;

fn bench_bsm(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsm_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let smoke = smoke_mode();
    let d_sizes: &[usize] = if smoke { &[500] } else { &[500, 2_000, 8_000] };
    let thetas: &[usize] = if smoke { &[8] } else { &[8, 16, 32, 64] };
    // (a) sweep |D| at fixed θ.
    for &d_size in d_sizes {
        let w = bsm_workload(d_size, 40, 17);
        group.throughput(Throughput::Elements(3 * d_size as u64));
        for backend in Backend::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("sweep_d_{backend}"), 3 * d_size),
                &w,
                |b, w| {
                    b.iter(|| {
                        bsm::maximize_on(backend.into(), &w.query, &w.interner, &w.d, &w.d_r, 10)
                            .unwrap()
                    })
                },
            );
        }
    }
    // (b) sweep θ at fixed |D|.
    for &theta in thetas {
        let w = bsm_workload(300, 200, 19);
        for backend in Backend::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("sweep_theta_{backend}"), theta),
                &w,
                |b, w| {
                    b.iter(|| {
                        bsm::maximize_on(backend.into(), &w.query, &w.interner, &w.d, &w.d_r, theta)
                            .unwrap()
                    })
                },
            );
        }
    }
    // Sanity: identical budget curves on the largest |D| sweep point.
    let w = bsm_workload(*d_sizes.last().unwrap(), 40, 17);
    let map =
        bsm::maximize_on(Backend::Map.into(), &w.query, &w.interner, &w.d, &w.d_r, 10).unwrap();
    let col = bsm::maximize_on(
        Backend::Columnar.into(),
        &w.query,
        &w.interner,
        &w.d,
        &w.d_r,
        10,
    )
    .unwrap();
    assert_eq!(map.curve, col.curve, "backends disagreed");
    group.finish();
}

/// The threads axis: sharded columnar BSM at 1/2/4/max workers on the
/// largest |D| and largest θ sweep points, curves asserted identical
/// at every count; emits `BENCH_bsm_scaling.json`.
fn bench_bsm_threads(_c: &mut Criterion) {
    println!("\n== bsm_scaling/threads (sharded columnar)");
    let smoke = smoke_mode();
    let (d_size, theta_big) = if smoke { (500, 8) } else { (8_000, 64) };
    let max = Parallelism::available().threads;
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&max) {
        counts.push(max);
    }
    let mut entries = Vec::new();
    for (label, w, theta) in [
        (
            format!("sweep_d_{}", 3 * d_size),
            bsm_workload(d_size, 40, 17),
            10usize,
        ),
        (
            format!("sweep_theta_{theta_big}"),
            bsm_workload(300, 200, 19),
            theta_big,
        ),
    ] {
        let seq = bsm::maximize_on(
            Backend::Columnar.into(),
            &w.query,
            &w.interner,
            &w.d,
            &w.d_r,
            theta,
        )
        .unwrap();
        entries.extend(thread_sweep(&label, &counts, 3, |threads| {
            let sol = bsm::maximize_on(
                Exec::new(Backend::Columnar, Parallelism::new(threads)),
                &w.query,
                &w.interner,
                &w.d,
                &w.d_r,
                theta,
            )
            .unwrap();
            assert_eq!(
                seq.curve, sol.curve,
                "{label}: sharded at {threads} threads diverged"
            );
            sol.optimum()
        }));
    }
    // Acceptance gate: > 2x at 4 threads on the largest |D| sweep —
    // the θ sweep's |D| is too small for sharding to pay, so only the
    // sweep_d point is gated. Skipped in smoke mode and on hosts with
    // fewer than 4 hardware threads.
    if !smoke && host_threads() >= 4 {
        for e in entries
            .iter()
            .filter(|e| e.threads == 4 && e.workload.starts_with("sweep_d"))
        {
            assert!(
                e.speedup_vs_1 > 2.0,
                "{}: expected >2x at 4 threads, got {:.2}x",
                e.workload,
                e.speedup_vs_1
            );
        }
    }
    let path = write_bench_summary("bsm_scaling", &entries).expect("summary written");
    println!("summary: {path}");
}

criterion_group!(benches, bench_bsm, bench_bsm_threads);
criterion_main!(benches);
