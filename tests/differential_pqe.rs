//! Differential testing of Probabilistic Query Evaluation: the
//! unifying algorithm vs possible-world enumeration on random
//! hierarchical instances (Theorem 5.8's correctness, empirically).

mod common;

use common::{cap_facts, random_instance};
use hq_arith::Rational;
use hq_db::Fact;
use hq_unify::{pqe, Exec};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Unified f64 PQE equals exhaustive possible-world enumeration.
    #[test]
    fn unified_matches_possible_worlds(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let db = cap_facts(&inst.database, 10);
        let tid: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let unified = pqe::probability(&inst.query, &inst.interner, &tid).unwrap();
        let brute =
            hq_baselines::probability_exhaustive(&inst.query, &inst.interner, &tid);
        prop_assert!(
            (unified - brute).abs() < 1e-9,
            "query {} unified={unified} brute={brute}",
            inst.query
        );
    }

    /// Exact-rational PQE equals exact possible-world enumeration,
    /// with *equality* (no floating-point tolerance).
    #[test]
    fn exact_unified_matches_exact_worlds(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 3, 3, 3, 3);
        let db = cap_facts(&inst.database, 8);
        let tid: Vec<(Fact, Rational)> = db
            .facts()
            .into_iter()
            .map(|f| {
                let num = inst.rng.gen_range(0u64..=8);
                (f, Rational::ratio(num, 8))
            })
            .collect();
        let unified =
            pqe::probability_exact(&inst.query, &inst.interner, &tid).unwrap();
        let brute = hq_baselines::probability_exhaustive_exact(
            &inst.query,
            &inst.interner,
            &tid,
        );
        prop_assert_eq!(unified, brute, "query {}", inst.query);
    }

    /// Parallel and sequential possible-world sweeps agree (sanity for
    /// the dichotomy benchmarks).
    #[test]
    fn parallel_worlds_match_sequential(seed in 0u64..100_000) {
        let mut inst = random_instance(seed, 3, 3, 3, 3);
        let db = cap_facts(&inst.database, 8);
        let tid: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let seq = hq_baselines::probability_exhaustive(&inst.query, &inst.interner, &tid);
        let par = hq_baselines::probability_exhaustive_parallel(
            &inst.query,
            &inst.interner,
            &tid,
            3,
        );
        prop_assert!((seq - par).abs() < 1e-12);
    }

    /// Monotonicity: raising any one probability cannot lower P(Q)
    /// (BCQs are monotone queries).
    #[test]
    fn probability_is_monotone_in_each_fact(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 3, 3);
        let db = cap_facts(&inst.database, 8);
        let mut tid: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.1..=0.8);
                (f, p)
            })
            .collect();
        if tid.is_empty() {
            return Ok(());
        }
        let before = pqe::probability(&inst.query, &inst.interner, &tid).unwrap();
        let idx = inst.rng.gen_range(0..tid.len());
        tid[idx].1 = (tid[idx].1 + 0.2).min(1.0);
        let after = pqe::probability(&inst.query, &inst.interner, &tid).unwrap();
        prop_assert!(after >= before - 1e-12, "raising p lowered P(Q)");
    }

    /// The probability lies in [0, 1] and the engine's support never
    /// grows.
    #[test]
    fn probability_in_unit_interval(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 5, 5, 5, 3);
        let tid: Vec<(Fact, f64)> = inst
            .database
            .facts()
            .into_iter()
            .map(|f| {
                let p = inst.rng.gen_range(0.0..=1.0);
                (f, p)
            })
            .collect();
        let (p, stats) =
            pqe::probability_on(Exec::default(), &inst.query, &inst.interner, &tid).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "p={p}");
        prop_assert!(stats.support_never_grew());
    }
}
