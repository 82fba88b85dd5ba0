//! Differential testing of the columnar layout's shard-parallel
//! kernels: runs at `threads ∈ {1, 2, 3, 8}` must agree **exactly** —
//! result value (bit-for-bit on floats), support trajectory, and ⊕/⊗
//! operation counts — with the sequential columnar backend *and* the
//! ordered-map oracle, on random hierarchical instances, for the probability,
//! counting, Bag-Set-Maximization, and `#Sat` monoid families.
//!
//! This is the determinism guarantee of parallel execution: shard
//! boundaries fall on key/group boundaries and shard outputs are
//! recombined in fixed shard order, so scheduling can never leak into
//! results. Any nondeterministic shard merge shows up here as a
//! bit-level mismatch.

mod common;

use common::{random_instance, rows};
use hq_db::Fact;
use hq_monoid::{BagMaxMonoid, CountMonoid, ProbMonoid, SatCountMonoid, TwoMonoid};
use hq_unify::engine::evaluate_encoded;
use hq_unify::storage::EncodedDb;
use hq_unify::{
    bsm, evaluate_on, pqe, Backend, ColumnarRelation, Exec, MapRelation, Parallelism,
    ServingSession,
};
use proptest::prelude::*;
use rand::Rng;

/// The thread counts every differential case sweeps. 1 is the
/// degenerate sharded run, 2 and 3 exercise uneven cuts, 8 exceeds the
/// support of many generated relations (every row its own shard).
const THREADS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// PQE: probabilities bit-identical and stats equal at every
    /// thread count, against both sequential backends.
    #[test]
    fn pqe_sharded_bit_identical(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let tid: Vec<(Fact, f64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let (pm, sm) = pqe::probability_on(
            Backend::Map.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        let (pc, sc) = pqe::probability_on(
            Backend::Columnar.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        prop_assert_eq!(pm.to_bits(), pc.to_bits());
        prop_assert_eq!(&sm, &sc);
        for threads in THREADS {
            let par = Parallelism::fine_grained(threads);
            let (pp, sp) = pqe::probability_on(
                Exec::new(Backend::Columnar, par), &inst.query, &inst.interner, &tid,
            ).unwrap();
            prop_assert_eq!(
                pc.to_bits(), pp.to_bits(),
                "threads={} seq {} vs sharded {} on {}", threads, pc, pp, inst.query
            );
            prop_assert_eq!(&sc, &sp, "stats diverged at threads={} on {}", threads, inst.query);
        }
    }

    /// Counting semiring (annihilating merges): values and op counts
    /// identical at every thread count.
    #[test]
    fn count_sharded_agrees(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let facts: Vec<(Fact, u64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let k = inst.rng.gen_range(1u64..=3);
                (f, k)
            })
            .collect();
        let (vc, sc) = evaluate_on(
            Backend::Columnar.into(), &CountMonoid, &inst.query, &inst.interner, rows(&facts),
        ).unwrap();
        for threads in THREADS {
            let (vp, sp) = evaluate_on(
                Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                &CountMonoid, &inst.query, &inst.interner, rows(&facts),
            ).unwrap();
            prop_assert_eq!(vc, vp, "threads={} on {}", threads, inst.query);
            prop_assert_eq!(&sc, &sp, "threads={} on {}", threads, inst.query);
            prop_assert!(sp.support_never_grew());
        }
    }

    /// Bag-Set Maximization (non-annihilating, 0-filled outer joins,
    /// fused columnar ψ-encoding): identical curves and stats at every
    /// thread count.
    #[test]
    fn bsm_sharded_agrees(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let mut d = hq_db::Database::new();
        let mut d_r = hq_db::Database::new();
        for (rel, r) in inst.database.relations() {
            d.declare(rel, r.arity());
            d_r.declare(rel, r.arity());
        }
        for f in inst.database.facts() {
            if inst.rng.gen_bool(0.5) {
                d.insert(f);
            } else {
                d_r.insert(f);
            }
        }
        let theta = inst.rng.gen_range(0usize..=4);
        let seq = bsm::maximize_on(
            Backend::Columnar.into(), &inst.query, &inst.interner, &d, &d_r, theta,
        ).unwrap();
        let map = bsm::maximize_on(
            Backend::Map.into(), &inst.query, &inst.interner, &d, &d_r, theta,
        ).unwrap();
        prop_assert_eq!(&map.curve, &seq.curve);
        prop_assert_eq!(&map.stats, &seq.stats);
        for threads in THREADS {
            let par = bsm::maximize_on(
                Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                &inst.query, &inst.interner, &d, &d_r, theta,
            ).unwrap();
            prop_assert_eq!(&seq.curve, &par.curve, "threads={} θ={} on {}", threads, theta, inst.query);
            prop_assert_eq!(&seq.stats, &par.stats, "threads={} θ={} on {}", threads, theta, inst.query);
        }
    }

    /// The #Sat monoid (Shapley substrate; exact big-integer vectors,
    /// non-annihilating ⊗): identical at every thread count.
    #[test]
    fn satcount_sharded_agrees(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let facts = inst.database.facts();
        if facts.is_empty() {
            return Ok(());
        }
        let n = facts.len();
        let monoid = SatCountMonoid::new(n);
        let annotated: Vec<_> = facts
            .iter()
            .map(|f| {
                let k = if inst.rng.gen_bool(0.5) { monoid.one() } else { monoid.star() };
                (f.clone(), k)
            })
            .collect();
        let (vc, sc) = evaluate_on(
            Backend::Columnar.into(), &monoid, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        for threads in THREADS {
            let (vp, sp) = evaluate_on(
                Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                &monoid, &inst.query, &inst.interner, rows(&annotated),
            ).unwrap();
            prop_assert_eq!(&vc, &vp, "threads={} on {}", threads, inst.query);
            prop_assert_eq!(&sc, &sp, "threads={} on {}", threads, inst.query);
        }
    }

    /// Support trajectories (the per-step Lemma 6.6 measurements) match
    /// entry-wise under the BagMax monoid at every thread count.
    #[test]
    fn support_trajectories_match_sharded(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let m = BagMaxMonoid::new(2);
        let annotated: Vec<_> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let k = if inst.rng.gen_bool(0.7) { m.one() } else { m.star() };
                (f, k)
            })
            .collect();
        let (_, sc) = evaluate_on(
            Backend::Columnar.into(), &m, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        for threads in THREADS {
            let (_, sp) = evaluate_on(
                Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                &m, &inst.query, &inst.interner, rows(&annotated),
            ).unwrap();
            prop_assert_eq!(&sc.support_sizes, &sp.support_sizes, "threads={} on {}", threads, inst.query);
        }
    }

    /// A one-query serving session on the sharded backend stays
    /// bit-identical to the map-backed session — values and reported
    /// stats — through a random update schedule, at every thread count.
    #[test]
    fn incremental_sharded_agrees(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let facts = inst.database.facts();
        if facts.is_empty() {
            return Ok(());
        }
        let tid: Vec<(Fact, f64)> = facts
            .iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f.clone(), p)
            })
            .collect();
        let (q, i) = (&inst.query, &inst.interner);
        let mut oracle: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, i, tid.clone()).unwrap();
        // One update schedule replayed against every thread count.
        let schedule: Vec<(usize, f64)> = (0..6)
            .map(|_| {
                let i = inst.rng.gen_range(0..facts.len());
                let p = if inst.rng.gen_bool(0.25) { 0.0 } else { inst.rng.gen_range(0.0..=1.0) };
                (i, p)
            })
            .collect();
        let mut sharded: Vec<ServingSession<ProbMonoid, ColumnarRelation<f64>>> = THREADS
            .iter()
            .map(|&t| {
                ServingSession::with_parallelism(
                    ProbMonoid, i, tid.clone(), Parallelism::fine_grained(t),
                )
                .unwrap()
            })
            .collect();
        let expect = oracle.query(i, q).unwrap();
        for s in &mut sharded {
            let got = s.query(i, q).unwrap();
            prop_assert_eq!(expect.0.to_bits(), got.0.to_bits());
            prop_assert_eq!(&expect.1, &got.1);
        }
        for &(j, p) in &schedule {
            oracle.update(i, &facts[j], p).unwrap();
            let expect = oracle.query(i, q).unwrap();
            for (t, s) in THREADS.iter().zip(&mut sharded) {
                s.update(i, &facts[j], p).unwrap();
                let got = s.query(i, q).unwrap();
                prop_assert_eq!(
                    expect.0.to_bits(), got.0.to_bits(),
                    "threads={} after {} := {}", t, facts[j].display(i), p
                );
                prop_assert_eq!(&expect.1, &got.1, "stats at threads={}", t);
            }
        }
    }

    /// The cached-encoding path (EncodedDb) is bit-identical to the
    /// uncached columnar path — including stats — at every thread
    /// count, and one encoding serves several annotation schemes.
    #[test]
    fn encoded_db_bit_identical(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let tid: Vec<(Fact, f64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let (pc, sc) = pqe::probability_on(
            Backend::Columnar.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        let enc = EncodedDb::new(&inst.database);
        for threads in THREADS {
            let lookup: std::collections::BTreeMap<(hq_db::Sym, &hq_db::Tuple), f64> =
                tid.iter().map(|(f, p)| ((f.rel, &f.tuple), *p)).collect();
            let (pe, se) = evaluate_encoded(
                Parallelism::fine_grained(threads),
                &ProbMonoid,
                &inst.query,
                &inst.interner,
                &inst.database,
                &enc,
                |sym, t| lookup[&(sym, t)],
            ).unwrap();
            prop_assert_eq!(
                pc.to_bits(), pe.to_bits(),
                "threads={} uncached {} vs encoded {} on {}", threads, pc, pe, inst.query
            );
            prop_assert_eq!(&sc, &se, "threads={} on {}", threads, inst.query);
        }
    }
}

proptest! {
    // Each case pushes 4 submitters × 3 rounds × 3 thread counts
    // through the shared pool, so fewer cases carry the same coverage.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Pool contention: many rule applications pushed through the one
    /// shared worker pool *concurrently* (several user threads, each
    /// sweeping threads ∈ {2, 3, 8}) must each stay bit-identical to
    /// the sequential oracles — values, op counts and support
    /// trajectories. Interleaved batches from competing submitters are
    /// exactly the regime where a non-order-preserving pool would leak
    /// scheduling into results.
    #[test]
    fn pool_contention_stays_bit_identical(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let tid: Vec<(Fact, f64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let (pm, sm) = pqe::probability_on(
            Backend::Map.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        let (pc, sc) = pqe::probability_on(
            Backend::Columnar.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        prop_assert_eq!(pm.to_bits(), pc.to_bits());
        prop_assert_eq!(&sm, &sc);
        // 4 submitters × {2,3,8} threads × 3 rounds, all concurrently
        // on the global pool. Results come back to the main thread and
        // are compared against the sequential runs.
        let results: Vec<(usize, f64, hq_unify::EngineStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        for _round in 0..3 {
                            for threads in [2usize, 3, 8] {
                                let (p, s) = pqe::probability_on(
                                    Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                                    &inst.query, &inst.interner, &tid,
                                ).unwrap();
                                out.push((threads, p, s));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        for (threads, p, s) in results {
            prop_assert_eq!(
                pc.to_bits(), p.to_bits(),
                "contended threads={} seq {} vs sharded {} on {}", threads, pc, p, inst.query
            );
            prop_assert_eq!(
                &sc, &s,
                "contended stats diverged at threads={} on {}", threads, inst.query
            );
        }
    }
}

/// Pool reuse: after one warmup to the largest degree this binary ever
/// requests, rule applications spawn **zero** further threads — the
/// spawn counter is flat across whole evaluations at every thread
/// count. (Every test in this binary requests at most 8-way
/// parallelism, so nothing can out-grow the warmed pool and race this
/// assertion.)
#[test]
fn pool_reuse_spawns_no_threads_after_warmup() {
    Parallelism::fine_grained(8).warm_pool();
    let spawned = hq_unify::pool::spawn_count();
    assert!(spawned > 0, "warmup must have populated the pool");
    let mut inst = random_instance(2026, 5, 5, 6, 3);
    let tid: Vec<(Fact, f64)> = inst
        .database
        .facts()
        .into_iter()
        .map(|f| {
            let p = inst.rng.gen_range(0.0..=1.0);
            (f, p)
        })
        .collect();
    let (seq, _) =
        pqe::probability_on(Backend::Columnar.into(), &inst.query, &inst.interner, &tid).unwrap();
    for _round in 0..5 {
        for threads in [2usize, 3, 8] {
            let (p, _) = pqe::probability_on(
                Exec::new(Backend::Columnar, Parallelism::fine_grained(threads)),
                &inst.query,
                &inst.interner,
                &tid,
            )
            .unwrap();
            assert_eq!(seq.to_bits(), p.to_bits());
        }
    }
    assert_eq!(
        hq_unify::pool::spawn_count(),
        spawned,
        "rule applications must not spawn threads once the pool is warm"
    );
}
