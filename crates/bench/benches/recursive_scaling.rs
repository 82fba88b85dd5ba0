//! Recursive fixpoint scaling: semi-naive transitive-closure build per
//! storage backend, and single-edge incremental maintenance against a
//! fresh re-evaluation of the whole fixpoint.
//!
//! The workload is a forest of disjoint 4-edge chains with seeded
//! annotation probabilities, so the closure stays linear in the edge
//! count and the fixpoint scales without a quadratic blow-up; the
//! incremental rounds insert *bridge* edges between chains — pure
//! inserts on previously absent keys, the patchable case. Emits
//! `BENCH_recursive_scaling.json` in the same machine-readable format
//! as the other benches (skipped under CI).
//!
//! Bit-identity is asserted in-bench: every backend layout feeds the
//! kernel identical rows (identical accumulator, stats and total), the
//! columnar serving build returns the kernel's total at every thread
//! count, and the patched run equals the fresh fixpoint over the
//! post-insert edges bit for bit — while performing **strictly fewer**
//! monoid operations and refolding strictly fewer rows (the acceptance
//! bar for incremental maintenance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hq_bench::{smoke_mode, thread_sweep, write_bench_summary, SummaryEntry};
use hq_db::generate::rng;
use hq_db::{Fact, Interner, Tuple};
use hq_monoid::ProbMonoid;
use hq_unify::fixpoint::{
    patch_inserts, transitive_closure, transitive_closure_on, PatchOutcome, StepShape,
};
use hq_unify::{Backend, ColumnarRelation, Parallelism, ServingSession};
use rand::Rng;

const CHAIN_LEN: i64 = 4;

/// `edges / 4` disjoint chains of length 4 with seeded edge
/// probabilities, node ranges spaced so chains never touch.
fn chain_forest(edges: usize, seed: u64) -> Vec<(Tuple, f64)> {
    let chains = (edges as i64) / CHAIN_LEN;
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(edges);
    for c in 0..chains {
        let base = c * (CHAIN_LEN + 2);
        for j in 0..CHAIN_LEN {
            out.push((
                Tuple::ints(&[base + j, base + j + 1]),
                r.gen_range(0.05..0.95),
            ));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The `i`-th distinct bridge edge: chain `2i`'s last node into chain
/// `2i+1`'s first node — always a pure insert on an absent key.
fn bridge(i: i64) -> (Tuple, f64) {
    let from = (2 * i) * (CHAIN_LEN + 2) + CHAIN_LEN;
    let to = (2 * i + 1) * (CHAIN_LEN + 2);
    (Tuple::ints(&[from, to]), 0.25)
}

fn bench_recursive(c: &mut Criterion) {
    let mut group = c.benchmark_group("recursive_scaling");
    group.sample_size(10);
    let edges = chain_forest(2_048, 23);
    group.bench_function(BenchmarkId::new("fix_build_map", edges.len()), |b| {
        b.iter(|| transitive_closure(&ProbMonoid, &edges).unwrap())
    });
    let run = transitive_closure(&ProbMonoid, &edges).unwrap();
    let mut post = edges.clone();
    post.push(bridge(0));
    post.sort_by(|a, b| a.0.cmp(&b.0));
    let ins = [bridge(0)];
    group.bench_function(BenchmarkId::new("fix_incr_patch", edges.len()), |b| {
        b.iter(|| {
            let mut patched = run.clone();
            patch_inserts(
                &ProbMonoid,
                &mut patched,
                &post,
                &ins,
                &ins,
                StepShape::LeftLinear,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_recursive_summary(_c: &mut Criterion) {
    println!("\n== recursive_scaling (annotated transitive closure over disjoint chains)");
    let mut entries: Vec<SummaryEntry> = Vec::new();
    let sizes: &[usize] = if smoke_mode() {
        &[2_048]
    } else {
        &[8_192, 32_768]
    };
    for &n in sizes {
        let edges = chain_forest(n, 23);
        let d = edges.len();
        let iters = 8usize;

        // --- Fresh fixpoint build, once per storage layout; every
        // layout must hand the kernel identical rows.
        let mut runs = Vec::new();
        for (label, backend) in [
            ("map", Backend::Map),
            ("columnar", Backend::Columnar),
            ("compressed", Backend::Compressed),
        ] {
            let mut last = None;
            entries.extend(thread_sweep(
                &format!("fix_build_{label}_{d}"),
                &[1],
                iters,
                |_| {
                    last = Some(transitive_closure_on(backend, &ProbMonoid, &edges).unwrap());
                },
            ));
            runs.push(last.unwrap());
        }
        for r in &runs[1..] {
            assert_eq!(runs[0].acc, r.acc, "backends diverged on the accumulator");
            assert_eq!(
                runs[0].stats, r.stats,
                "backends diverged on fixpoint stats"
            );
            assert_eq!(runs[0].total.to_bits(), r.total.to_bits());
        }

        // --- Columnar serving build across thread counts (datapoint
        // name kept for the bench history): session construction +
        // first `query_fix` (encode, materialise, run).
        let total_bits = runs[0].total.to_bits();
        let mut interner = Interner::new();
        let e = interner.intern("E");
        let facts: Vec<(Fact, f64)> = edges
            .iter()
            .map(|(t, p)| (Fact::new(e, t.clone()), *p))
            .collect();
        entries.extend(thread_sweep(
            &format!("fix_build_sharded_{d}"),
            &[1, 2, 8],
            iters.min(4),
            |t| {
                let mut s: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
                    ServingSession::with_parallelism(
                        ProbMonoid,
                        &interner,
                        facts.iter().cloned(),
                        Parallelism::fine_grained(t),
                    )
                    .unwrap();
                let (p, _) = s.query_fix(&interner, "E", None, None).unwrap();
                assert_eq!(
                    p.to_bits(),
                    total_bits,
                    "columnar serving diverged at {t} threads"
                );
            },
        ));

        // --- Single-edge incremental: patch the materialised run vs a
        // fresh fixpoint over the post-insert edges.
        let base_run = runs.swap_remove(0);
        let mut post = edges.clone();
        post.push(bridge(0));
        post.sort_by(|a, b| a.0.cmp(&b.0));
        let ins = [bridge(0)];
        let mut last_patch = None;
        entries.extend(thread_sweep(
            &format!("fix_incr_patch_{d}"),
            &[1],
            iters,
            |_| {
                let mut patched = base_run.clone();
                match patch_inserts(
                    &ProbMonoid,
                    &mut patched,
                    &post,
                    &ins,
                    &ins,
                    StepShape::LeftLinear,
                )
                .unwrap()
                {
                    PatchOutcome::Patched(p) => last_patch = Some((p, patched)),
                    PatchOutcome::Rebuild => panic!("a bridge insert must patch in place"),
                }
            },
        ));
        let (patch, patched) = last_patch.unwrap();
        let mut last_fresh = None;
        entries.extend(thread_sweep(
            &format!("fix_incr_fresh_{d}"),
            &[1],
            iters,
            |_| {
                last_fresh = Some(transitive_closure(&ProbMonoid, &post).unwrap());
            },
        ));
        let fresh = last_fresh.unwrap();
        assert_eq!(patched.acc, fresh.acc, "patched run diverged from fresh");
        assert_eq!(patched.stats, fresh.stats, "patched stats diverged");
        assert_eq!(patched.total.to_bits(), fresh.total.to_bits());
        assert!(
            patch.performed_add + patch.performed_mul < fresh.stats.total_ops(),
            "patch must perform strictly fewer monoid ops: {} vs {}",
            patch.performed_add + patch.performed_mul,
            fresh.stats.total_ops()
        );
        assert!(
            patch.refolded_rows < fresh.acc.len(),
            "patch must refold strictly fewer rows: {} vs {}",
            patch.refolded_rows,
            fresh.acc.len()
        );

        // --- Serving-layer incremental on the columnar backend: one
        // novel bridge edge per iteration, served immediately.
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, facts.iter().cloned()).unwrap();
        session.query_fix(&interner, "E", None, None).unwrap();
        let mut i = 1i64;
        entries.extend(thread_sweep(
            &format!("fix_incr_serving_{d}"),
            &[1],
            iters,
            |_| {
                let (t, p) = bridge(i);
                i += 1;
                session.update(&interner, &Fact::new(e, t), p).unwrap();
                session.query_fix(&interner, "E", None, None).unwrap();
            },
        ));
    }
    match write_bench_summary("recursive_scaling", &entries) {
        Ok(path) => println!("wrote {path}"),
        Err(err) => println!("could not write summary: {err}"),
    }
}

criterion_group!(benches, bench_recursive, bench_recursive_summary);
criterion_main!(benches);
