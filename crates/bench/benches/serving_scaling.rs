//! Multi-query serving: shared plan cache vs independent evaluation.
//!
//! Serves a batch of N overlapping queries over one database through a
//! [`ServingSession`] (common sub-plans evaluated once, cache kept
//! warm across updates) and against the independent baseline (one
//! `evaluate_encoded` per query; encoding rebuilt when the database
//! changes). Measured with and without interleaved single-fact
//! updates, at growing `|D|`. Emits `BENCH_serving.json` in the same
//! machine-readable format as the other benches (skipped under CI).
//!
//! Bit-identity is asserted in-bench: every served probability must
//! equal its independent evaluation bit for bit, and the session must
//! execute strictly fewer monoid ops than the independent total.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hq_bench::{
    chain_tid, smoke_mode, thread_sweep, write_bench_summary, SummaryEntry, TidWorkload,
};
use hq_db::{Database, Fact};
use hq_monoid::ProbMonoid;
use hq_query::{parse_query, Query};
use hq_unify::{evaluate_encoded, ColumnarRelation, EncodedDb, Parallelism, ServingSession};

/// The overlapping query batch: the chain query, its two single-atom
/// sub-queries, and the chain query again (a pure cache hit).
fn query_batch() -> Vec<Query> {
    [
        "Q() :- E(X,Y), F(Y,Z)",
        "Q() :- E(X,Y)",
        "Q() :- F(Y,Z)",
        "Q() :- E(X,Y), F(Y,Z)",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect()
}

/// Database + fresh encoding for the independent baseline.
fn build_encoded(w: &TidWorkload) -> (Database, EncodedDb) {
    let mut db = Database::new();
    db.insert_batch(w.tid.iter().map(|(f, _)| f.clone()));
    let enc = EncodedDb::new(&db);
    (db, enc)
}

fn independent_eval(
    w: &TidWorkload,
    db: &Database,
    enc: &EncodedDb,
    ann: &std::collections::BTreeMap<Fact, f64>,
    queries: &[Query],
) -> Vec<f64> {
    queries
        .iter()
        .map(|q| {
            evaluate_encoded(
                Parallelism::default(),
                &ProbMonoid,
                q,
                &w.interner,
                db,
                enc,
                |sym, t| ann[&Fact::new(sym, t.clone())],
            )
            .unwrap()
            .0
        })
        .collect()
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_scaling");
    group.sample_size(10);
    let w = chain_tid(1_000, 17);
    let queries = query_batch();
    let ann: std::collections::BTreeMap<Fact, f64> = w.tid.iter().cloned().collect();
    let (db, enc) = build_encoded(&w);
    group.bench_function(BenchmarkId::new("independent_4q", w.tid.len()), |b| {
        b.iter(|| independent_eval(&w, &db, &enc, &ann, &queries))
    });
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &w.interner, w.tid.iter().cloned()).unwrap();
    group.bench_function(BenchmarkId::new("shared_4q", w.tid.len()), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| session.query(&w.interner, q).unwrap().0)
                .collect::<Vec<f64>>()
        })
    });
    group.finish();
}

fn bench_serving_summary(_c: &mut Criterion) {
    println!("\n== serving_scaling (N=4 overlapping queries per iteration)");
    let mut entries: Vec<SummaryEntry> = Vec::new();
    let queries = query_batch();
    let sizes: &[usize] = if smoke_mode() {
        &[1_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    for &n in sizes {
        let w = chain_tid(n, 17);
        let d = w.tid.len();
        let ann: std::collections::BTreeMap<Fact, f64> = w.tid.iter().cloned().collect();
        let iters = 12usize;
        // --- Query-only serving: warm cache vs per-query evaluation.
        let (db, enc) = build_encoded(&w);
        let mut independent_vals = Vec::new();
        entries.extend(thread_sweep(
            &format!("independent_4q_{d}"),
            &[1],
            iters,
            |_| {
                independent_vals = independent_eval(&w, &db, &enc, &ann, &queries);
            },
        ));
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &w.interner, w.tid.iter().cloned()).unwrap();
        let mut shared_vals = Vec::new();
        entries.extend(thread_sweep(&format!("shared_4q_{d}"), &[1], iters, |_| {
            shared_vals = queries
                .iter()
                .map(|q| session.query(&w.interner, q).unwrap().0)
                .collect::<Vec<f64>>();
        }));
        for (s, i) in shared_vals.iter().zip(&independent_vals) {
            assert_eq!(s.to_bits(), i.to_bits(), "serving diverged at |D| = {d}");
        }
        // --- Interleaved updates: the session delta-patches its
        // caches; the independent baseline must rebuild its encoding.
        let updates: Vec<(Fact, f64)> = (0..iters + 1)
            .map(|j| {
                let (f, _) = &w.tid[(j * 7919) % w.tid.len()];
                (f.clone(), 0.05 + 0.9 * ((j % 89) as f64) / 89.0)
            })
            .collect();
        let mut j = 0usize;
        let mut upd_db = db.clone();
        let mut upd_ann = ann.clone();
        entries.extend(thread_sweep(
            &format!("independent_upd_4q_{d}"),
            &[1],
            (iters / 2).max(3),
            |_| {
                let (f, p) = &updates[j % updates.len()];
                j += 1;
                upd_db.insert(f.clone());
                upd_ann.insert(f.clone(), *p);
                let enc = EncodedDb::new(&upd_db); // snapshot invalidated: rebuild
                independent_vals = independent_eval(&w, &upd_db, &enc, &upd_ann, &queries);
            },
        ));
        let mut j = 0usize;
        entries.extend(thread_sweep(
            &format!("shared_upd_4q_{d}"),
            &[1],
            (iters / 2).max(3),
            |_| {
                let (f, p) = &updates[j % updates.len()];
                j += 1;
                session.update(&w.interner, f, *p).unwrap();
                shared_vals = queries
                    .iter()
                    .map(|q| session.query(&w.interner, q).unwrap().0)
                    .collect::<Vec<f64>>();
            },
        ));
        // Replay the same update stream on the baseline state so the
        // final comparison sees identical databases.
        for (s, i) in shared_vals.iter().zip(&independent_vals) {
            assert_eq!(
                s.to_bits(),
                i.to_bits(),
                "serving diverged after updates at |D| = {d}"
            );
        }
        // --- Delta-patching vs drop-and-rebuild: the same interleaved
        // update/query stream served by a session that patches cached
        // intermediates in place (the default) and by one that drops
        // every dirty intermediate (`patch_fraction = 0`, the old
        // behaviour). Patched must execute strictly fewer monoid ops
        // and stay bit-identical.
        let mut patched: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &w.interner, w.tid.iter().cloned()).unwrap();
        let mut rebuild: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &w.interner, w.tid.iter().cloned()).unwrap();
        rebuild.set_patch_fraction(0.0);
        let mut patched_vals = Vec::new();
        let mut rebuild_vals = Vec::new();
        let mut j = 0usize;
        entries.extend(thread_sweep(
            &format!("patched_upd_4q_{d}"),
            &[1],
            (iters / 2).max(3),
            |_| {
                let (f, p) = &updates[j % updates.len()];
                j += 1;
                patched.update(&w.interner, f, *p).unwrap();
                patched_vals = queries
                    .iter()
                    .map(|q| patched.query(&w.interner, q).unwrap().0)
                    .collect::<Vec<f64>>();
            },
        ));
        let mut j = 0usize;
        entries.extend(thread_sweep(
            &format!("rebuild_upd_4q_{d}"),
            &[1],
            (iters / 2).max(3),
            |_| {
                let (f, p) = &updates[j % updates.len()];
                j += 1;
                rebuild.update(&w.interner, f, *p).unwrap();
                rebuild_vals = queries
                    .iter()
                    .map(|q| rebuild.query(&w.interner, q).unwrap().0)
                    .collect::<Vec<f64>>();
            },
        ));
        for (p, r) in patched_vals.iter().zip(&rebuild_vals) {
            assert_eq!(
                p.to_bits(),
                r.to_bits(),
                "patched serving diverged from rebuild at |D| = {d}"
            );
        }
        assert!(
            patched.ops_performed() < rebuild.ops_performed(),
            "delta-patching must execute strictly fewer monoid ops than \
             drop-and-rebuild at |D| = {d}: {} vs {}",
            patched.ops_performed(),
            rebuild.ops_performed()
        );
        // The acceptance bar, asserted on real workloads: sharing must
        // execute strictly fewer monoid ops than independent totals.
        let mut probe: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &w.interner, w.tid.iter().cloned()).unwrap();
        let mut reported = 0u64;
        for q in &queries {
            reported += probe.query(&w.interner, q).unwrap().1.total_ops();
        }
        assert!(
            probe.ops_performed() < reported,
            "shared serving must beat independent ops at |D| = {d}: {} vs {}",
            probe.ops_performed(),
            reported
        );
    }
    let path = write_bench_summary("serving", &entries).expect("summary written");
    println!("summary: {path}");
}

criterion_group!(benches, bench_serving, bench_serving_summary);
criterion_main!(benches);
