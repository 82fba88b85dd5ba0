//! Ablation: elimination-plan order (Rule-1-first vs Rule-2-first vs
//! high-variable-first). Proposition 5.1 guarantees identical results;
//! this bench measures how much the order affects intermediate sizes
//! and runtime on the Eq. (1) workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hq_bench::star_tid;
use hq_monoid::ProbMonoid;
use hq_query::{plan_with_order, PlanOrder};
use hq_unify::{annotate, run_plan, Parallelism};
use std::time::Duration;

fn bench_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_order_ablation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let w = star_tid(8_000, 61);
    for (name, order) in [
        ("rule1_first", PlanOrder::Rule1First),
        ("rule2_first", PlanOrder::Rule2First),
        ("rule1_high_var", PlanOrder::Rule1HighVar),
    ] {
        let p = plan_with_order(&w.query, order).unwrap();
        group.bench_with_input(BenchmarkId::new(name, w.tid.len()), &p, |b, p| {
            b.iter(|| {
                let db = annotate(
                    &w.query,
                    &w.interner,
                    w.tid.iter().map(|(f, pr)| (f.clone(), *pr)),
                )
                .unwrap();
                run_plan(&ProbMonoid, p, db, Parallelism::sequential())
            })
        });
    }
    // Sanity: all orders produce the same probability.
    let mut results = Vec::new();
    for order in [
        PlanOrder::Rule1First,
        PlanOrder::Rule2First,
        PlanOrder::Rule1HighVar,
    ] {
        let p = plan_with_order(&w.query, order).unwrap();
        let db = annotate(
            &w.query,
            &w.interner,
            w.tid.iter().map(|(f, pr)| (f.clone(), *pr)),
        )
        .unwrap();
        results.push(run_plan(&ProbMonoid, &p, db, Parallelism::sequential()).0);
    }
    assert!(
        results.windows(2).all(|x| (x[0] - x[1]).abs() < 1e-9),
        "plan orders disagreed: {results:?}"
    );
    group.finish();
}

criterion_group!(benches, bench_orders);
criterion_main!(benches);
