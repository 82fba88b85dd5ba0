//! Differential testing of the storage backends: the ordered-map
//! oracle vs the columnar fast path vs the compressed block tier must
//! agree **exactly** — result value (bit-for-bit on floats), support
//! trajectory, and ⊕/⊗ operation counts — on random hierarchical
//! instances, for every monoid family.

mod common;

use common::{random_instance, rows};
use hq_db::Fact;
use hq_monoid::{BagMaxMonoid, CountMonoid, ProbMonoid, SatCountMonoid, TwoMonoid};
use hq_unify::{
    bsm, evaluate_on, pqe, Backend, ColumnarRelation, CompressedColumnar, MapRelation,
    ServingSession,
};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Probabilities agree bit-for-bit, as do stats, on random
    /// hierarchical TID instances.
    #[test]
    fn pqe_backends_bit_identical(seed in 0u64..1_000_000) {
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
        let (pz, sz) = pqe::probability_on(
            Backend::Compressed.into(), &inst.query, &inst.interner, &tid,
        ).unwrap();
        prop_assert_eq!(pm.to_bits(), pc.to_bits(), "map {} vs columnar {}", pm, pc);
        prop_assert_eq!(pm.to_bits(), pz.to_bits(), "map {} vs compressed {}", pm, pz);
        prop_assert_eq!(&sm, &sc, "stats diverged on {}", inst.query);
        prop_assert_eq!(&sm, &sz, "compressed stats diverged on {}", inst.query);
        prop_assert!(sm.support_never_grew());
        prop_assert_eq!(sm.total_ops(), sc.total_ops());
    }

    /// The counting semiring (annihilating: one-sided merges skip ⊗)
    /// agrees on value and op accounting — including the compressed
    /// merge's block-skip path, which must skip rows without ops
    /// exactly as the dense merge steps past them.
    #[test]
    fn count_backends_agree(seed in 0u64..1_000_000) {
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
        let (vm, sm) = evaluate_on(
            Backend::Map.into(), &CountMonoid, &inst.query, &inst.interner, rows(&facts),
        ).unwrap();
        let (vc, sc) = evaluate_on(
            Backend::Columnar.into(), &CountMonoid, &inst.query, &inst.interner, rows(&facts),
        ).unwrap();
        let (vz, sz) = evaluate_on(
            Backend::Compressed.into(), &CountMonoid, &inst.query, &inst.interner, rows(&facts),
        ).unwrap();
        prop_assert_eq!(vm, vc, "{}", inst.query);
        prop_assert_eq!(vm, vz, "compressed diverged on {}", inst.query);
        prop_assert_eq!(&sm, &sc);
        prop_assert_eq!(&sm, &sz);
    }

    /// Bag-Set Maximization (non-annihilating monoid, 0-filled merges,
    /// fused columnar ψ-encoding) returns identical budget curves and
    /// stats.
    #[test]
    fn bsm_backends_agree(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        // Split the instance into (D, D_r) at random.
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
        let map = bsm::maximize_on(
            Backend::Map.into(), &inst.query, &inst.interner, &d, &d_r, theta,
        ).unwrap();
        let col = bsm::maximize_on(
            Backend::Columnar.into(), &inst.query, &inst.interner, &d, &d_r, theta,
        ).unwrap();
        let cmp = bsm::maximize_on(
            Backend::Compressed.into(), &inst.query, &inst.interner, &d, &d_r, theta,
        ).unwrap();
        prop_assert_eq!(&map.curve, &col.curve, "{} θ={}", inst.query, theta);
        prop_assert_eq!(&map.curve, &cmp.curve, "compressed: {} θ={}", inst.query, theta);
        prop_assert_eq!(&map.stats, &col.stats);
        prop_assert_eq!(&map.stats, &cmp.stats);
        prop_assert!(map.stats.support_never_grew());
    }

    /// The #Sat monoid (Shapley substrate; exact big-integer vectors)
    /// agrees across backends.
    #[test]
    fn satcount_backends_agree(seed in 0u64..1_000_000) {
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
        let (vm, sm) = evaluate_on(
            Backend::Map.into(), &monoid, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        let (vc, sc) = evaluate_on(
            Backend::Columnar.into(), &monoid, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        let (vz, sz) = evaluate_on(
            Backend::Compressed.into(), &monoid, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        prop_assert_eq!(&vm, &vc, "{}", inst.query);
        prop_assert_eq!(&vm, &vz, "compressed diverged on {}", inst.query);
        prop_assert_eq!(&sm, &sc);
        prop_assert_eq!(&sm, &sz);
    }

    /// One-query serving sessions stay bit-identical across backends —
    /// values and reported stats — through a random update schedule
    /// (the compressed tier's point writes go through block edits).
    #[test]
    fn incremental_backends_agree(seed in 0u64..1_000_000) {
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
        let mut map: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, i, tid.clone()).unwrap();
        let mut col: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, i, tid.clone()).unwrap();
        let mut cmp: ServingSession<ProbMonoid, CompressedColumnar<f64>> =
            ServingSession::new(ProbMonoid, i, tid).unwrap();
        let (a, sa) = map.query(i, q).unwrap();
        let (b, sb) = col.query(i, q).unwrap();
        let (c, sc) = cmp.query(i, q).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert_eq!(a.to_bits(), c.to_bits());
        prop_assert_eq!(&sa, &sb);
        prop_assert_eq!(&sa, &sc);
        for _ in 0..6 {
            let f = facts[inst.rng.gen_range(0..facts.len())].clone();
            let p = if inst.rng.gen_bool(0.25) {
                0.0 // deletion
            } else {
                inst.rng.gen_range(0.0..=1.0)
            };
            map.update(i, &f, p).unwrap();
            col.update(i, &f, p).unwrap();
            cmp.update(i, &f, p).unwrap();
            let (a, sa) = map.query(i, q).unwrap();
            let (b, sb) = col.query(i, q).unwrap();
            let (c, sc) = cmp.query(i, q).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "after {} := {}", f.display(i), p);
            prop_assert_eq!(a.to_bits(), c.to_bits(), "compressed after {} := {}", f.display(i), p);
            prop_assert_eq!(&sa, &sb, "stats after {} := {}", f.display(i), p);
            prop_assert_eq!(&sa, &sc, "compressed stats after {} := {}", f.display(i), p);
        }
    }

    /// Backend-reported support sizes match the semantic support at
    /// every step (stats vectors identical entry-wise).
    #[test]
    fn support_trajectories_match(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 6, 3);
        let facts: Vec<(Fact, u64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| (f, 1u64))
            .collect();
        let m = BagMaxMonoid::new(2);
        let annotated: Vec<_> = facts
            .iter()
            .map(|(f, _)| {
                let k = if inst.rng.gen_bool(0.7) { m.one() } else { m.star() };
                (f.clone(), k)
            })
            .collect();
        let (_, sm) = evaluate_on(
            Backend::Map.into(), &m, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        let (_, sc) = evaluate_on(
            Backend::Columnar.into(), &m, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        let (_, sz) = evaluate_on(
            Backend::Compressed.into(), &m, &inst.query, &inst.interner, rows(&annotated),
        ).unwrap();
        prop_assert_eq!(&sm.support_sizes, &sc.support_sizes, "{}", inst.query);
        prop_assert_eq!(&sm.support_sizes, &sz.support_sizes, "{}", inst.query);
    }
}

/// Pathological-for-RLE pin: every key and every annotation distinct,
/// so run-length and dictionary encodings win nothing anywhere — key
/// columns fall back to Delta/FOR bit-packing, annotation columns to
/// the dense layout — and the answer still matches the oracle bit for
/// bit across several block boundaries (> [`BLOCK_ROWS`] rows).
#[test]
fn all_distinct_columns_stay_bit_identical() {
    use hq_db::Tuple;
    let q = hq_query::parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
    let mut interner = hq_db::Interner::new();
    let e = interner.intern("E");
    let f = interner.intern("F");
    let n = 10_000i64;
    let mut tid: Vec<(Fact, f64)> = Vec::new();
    for i in 0..n {
        // Distinct first columns, distinct join keys, and a distinct
        // probability per fact (strictly increasing, no two equal).
        let p_e = 0.25 + (i as f64) * 1e-5;
        let p_f = 0.50 + (i as f64) * 1e-5;
        tid.push((Fact::new(e, Tuple::ints(&[i, n + i])), p_e));
        tid.push((Fact::new(f, Tuple::ints(&[n + i, 2 * n + i])), p_f));
    }
    let (pm, sm) = pqe::probability_on(Backend::Map.into(), &q, &interner, &tid).unwrap();
    let (pz, sz) = pqe::probability_on(Backend::Compressed.into(), &q, &interner, &tid).unwrap();
    assert_eq!(pm.to_bits(), pz.to_bits(), "map {pm} vs compressed {pz}");
    assert_eq!(sm, sz);
}
