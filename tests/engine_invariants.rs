//! Engine-level invariants on random hierarchical instances:
//! Proposition 5.1 (any elimination order works), Lemma 6.6 (supports
//! never grow), Theorem 6.7 (linearly many operations), and
//! cross-monoid consistency.

mod common;

use common::random_instance;
use hq_monoid::{BoolMonoid, CountMonoid, ProbMonoid, TropicalMinMonoid, TROPICAL_INF};
use hq_query::{plan_with_order, PlanOrder};
use hq_unify::{annotate, evaluate, run_plan, MapRelation, Parallelism, ServingSession};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// All three plan orders produce identical results (Prop. 5.1: the
    /// elimination order is a don't-care).
    #[test]
    fn plan_order_invariance(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 5, 3);
        let facts = inst.database.facts();
        let probs: Vec<f64> =
            facts.iter().map(|_| inst.rng.gen_range(0.0..=1.0)).collect();
        let mut results = Vec::new();
        for order in [PlanOrder::Rule1First, PlanOrder::Rule2First, PlanOrder::Rule1HighVar] {
            let p = plan_with_order(&inst.query, order).unwrap();
            let db = annotate(
                &inst.query,
                &inst.interner,
                facts.iter().enumerate().map(|(i, f)| (f.clone(), probs[i])),
            )
            .unwrap();
            let (v, stats) = run_plan(&ProbMonoid, &p, db, Parallelism::sequential());
            prop_assert!(stats.support_never_grew(), "order {order:?}");
            results.push(v);
        }
        prop_assert!(
            results.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
            "query {} results {:?}",
            inst.query,
            results
        );
    }

    /// Boolean and counting monoids agree: count > 0 iff satisfiable,
    /// and both match the join engine.
    #[test]
    fn bool_count_join_consistency(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 5, 3);
        let facts = inst.database.facts();
        let (sat, _) = evaluate(
            &BoolMonoid,
            &inst.query,
            &inst.interner,
            facts.iter().map(|f| (f.clone(), true)),
        )
        .unwrap();
        let (count, _) = evaluate(
            &CountMonoid,
            &inst.query,
            &inst.interner,
            facts.iter().map(|f| (f.clone(), 1u64)),
        )
        .unwrap();
        prop_assert_eq!(sat, count > 0, "query {}", inst.query);
        let pattern = inst.query.to_pattern(&mut inst.interner);
        prop_assert_eq!(
            count,
            hq_db::count_matches(&inst.database, &pattern).unwrap()
        );
    }

    /// Tropical evaluation: finite cost iff satisfiable, and with
    /// all-zero weights the minimum cost is 0.
    #[test]
    fn tropical_consistency(seed in 0u64..1_000_000) {
        let inst = random_instance(seed, 5, 5, 5, 3);
        let facts = inst.database.facts();
        let (cost, _) = evaluate(
            &TropicalMinMonoid,
            &inst.query,
            &inst.interner,
            facts.iter().map(|f| (f.clone(), 0u64)),
        )
        .unwrap();
        let (sat, _) = evaluate(
            &BoolMonoid,
            &inst.query,
            &inst.interner,
            facts.iter().map(|f| (f.clone(), true)),
        )
        .unwrap();
        prop_assert_eq!(sat, cost != TROPICAL_INF, "query {}", inst.query);
        if sat {
            prop_assert_eq!(cost, 0);
        }
    }

    /// Theorem 6.7: the number of ⊕/⊗ operations is at most linear in
    /// the annotated-database size (with plan-length constant factor).
    #[test]
    fn op_count_linear_bound(seed in 0u64..1_000_000) {
        let inst = random_instance(seed, 5, 5, 6, 3);
        let facts = inst.database.facts();
        let (_, stats) = evaluate(
            &CountMonoid,
            &inst.query,
            &inst.interner,
            facts.iter().map(|f| (f.clone(), 1u64)),
        )
        .unwrap();
        let n = facts.len().max(1) as u64;
        let steps = (inst.query.var_count() + inst.query.atom_count()) as u64;
        prop_assert!(
            stats.total_ops() <= n * (steps + 1),
            "query {}: {} ops for {} facts",
            inst.query,
            stats.total_ops(),
            n
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A one-query serving session agrees with a fresh full run after
    /// every update in a random update sequence (probability monoid).
    #[test]
    fn incremental_matches_full_runs(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let facts = inst.database.facts();
        if facts.is_empty() {
            return Ok(());
        }
        let mut tid: Vec<(hq_db::Fact, f64)> = facts
            .iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f.clone(), p)
            })
            .collect();
        let mut session: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, &inst.interner, tid.clone()).unwrap();
        for _ in 0..6 {
            let j = inst.rng.gen_range(0..tid.len());
            // Include exact-zero deletions in the mix.
            let new_p = if inst.rng.gen_bool(0.3) {
                0.0
            } else {
                inst.rng.gen_range(0.0..=1.0)
            };
            tid[j].1 = new_p;
            session.update(&inst.interner, &tid[j].0, new_p).unwrap();
            let (got, _) = session.query(&inst.interner, &inst.query).unwrap();
            let (fresh, _) =
                evaluate(&ProbMonoid, &inst.query, &inst.interner, tid.clone()).unwrap();
            prop_assert!(
                (got - fresh).abs() < 1e-9,
                "query {} incremental {got} vs fresh {fresh}",
                inst.query
            );
        }
    }

    /// Same differential check over the counting semiring with pure
    /// insert/delete updates (annotations 0 and 1).
    #[test]
    fn incremental_counting_inserts_deletes(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let facts = inst.database.facts();
        if facts.is_empty() {
            return Ok(());
        }
        let mut present: Vec<bool> = facts.iter().map(|_| true).collect();
        let annotated: Vec<(hq_db::Fact, u64)> =
            facts.iter().map(|f| (f.clone(), 1u64)).collect();
        let mut session: ServingSession<CountMonoid, MapRelation<u64>> =
            ServingSession::new(CountMonoid, &inst.interner, annotated).unwrap();
        for _ in 0..6 {
            let j = inst.rng.gen_range(0..facts.len());
            present[j] = !present[j];
            session
                .update(&inst.interner, &facts[j], u64::from(present[j]))
                .unwrap();
            let (got, _) = session.query(&inst.interner, &inst.query).unwrap();
            let current: Vec<(hq_db::Fact, u64)> = facts
                .iter()
                .zip(&present)
                .map(|(f, &p)| (f.clone(), u64::from(p)))
                .collect();
            let (fresh, _) =
                evaluate(&CountMonoid, &inst.query, &inst.interner, current).unwrap();
            prop_assert_eq!(got, fresh, "query {}", inst.query);
        }
    }
}
