//! Exact Probabilistic Query Evaluation by possible-world enumeration.
//!
//! The definitional algorithm: sum the probabilities of all `2^|D|`
//! subsets of the tuple-independent database on which `Q` holds. This
//! is the object Theorem 5.8 beats — exponential here, linear for the
//! unifying algorithm — and the correctness oracle for the
//! differential tests. A crossbeam-parallel sweep keeps the crossover
//! benchmarks (experiment E4) honest by giving the baseline every
//! advantage.
//!
//! A Monte-Carlo estimator is included as the classic approximate
//! fallback for non-hierarchical queries.

use hq_arith::Rational;
use hq_db::{satisfiable, Database, Fact, Interner, Pattern, Tuple, Value};
use hq_query::Query;
use rand::Rng;
use std::collections::BTreeSet;

/// Evaluates whether `Q` holds on the world selected by `mask` over
/// `facts`.
fn world_satisfies(pattern: &Pattern, facts: &[(Fact, f64)], mask: u64) -> bool {
    let mut db = Database::new();
    for (i, (f, _)) in facts.iter().enumerate() {
        if mask >> i & 1 == 1 {
            db.insert(f.clone());
        } else {
            // Make sure the relation exists (with the right arity) even
            // if empty, so pattern validation stays meaningful.
            db.declare(f.rel, f.tuple.arity());
        }
    }
    satisfiable(&db, pattern).expect("pattern validated against full schema")
}

/// Exact `P(Q)` by sequential possible-world enumeration.
///
/// # Panics
/// Panics if more than 62 facts are supplied (the enumeration would
/// not terminate in any reasonable time anyway).
pub fn probability_exhaustive(q: &Query, interner: &Interner, facts: &[(Fact, f64)]) -> f64 {
    assert!(
        facts.len() <= 62,
        "possible-world enumeration beyond 62 facts"
    );
    let mut i2 = interner.clone();
    let pattern = q.to_pattern(&mut i2);
    let mut total = 0.0;
    for mask in 0..(1u64 << facts.len()) {
        if !world_satisfies(&pattern, facts, mask) {
            continue;
        }
        let mut p = 1.0;
        for (i, (_, pf)) in facts.iter().enumerate() {
            p *= if mask >> i & 1 == 1 { *pf } else { 1.0 - *pf };
        }
        total += p;
    }
    total
}

/// Exact `P(Q)` with exact rational probabilities — the strictest
/// oracle for the unifying algorithm's exact mode.
pub fn probability_exhaustive_exact(
    q: &Query,
    interner: &Interner,
    facts: &[(Fact, Rational)],
) -> Rational {
    assert!(facts.len() <= 30, "exact enumeration beyond 30 facts");
    let mut i2 = interner.clone();
    let pattern = q.to_pattern(&mut i2);
    let float_facts: Vec<(Fact, f64)> = facts.iter().map(|(f, _)| (f.clone(), 0.0)).collect();
    let one = Rational::one();
    let mut total = Rational::zero();
    for mask in 0..(1u64 << facts.len()) {
        if !world_satisfies(&pattern, &float_facts, mask) {
            continue;
        }
        let mut p = Rational::one();
        for (i, (_, pf)) in facts.iter().enumerate() {
            let factor = if mask >> i & 1 == 1 {
                pf.clone()
            } else {
                &one - pf
            };
            p = &p * &factor;
        }
        total = &total + &p;
    }
    total
}

/// Exact `P(Q)` by possible-world enumeration, parallelised with
/// std scoped threads over the top bits of the world mask.
///
/// # Panics
/// Panics if more than 62 facts are supplied.
pub fn probability_exhaustive_parallel(
    q: &Query,
    interner: &Interner,
    facts: &[(Fact, f64)],
    threads: usize,
) -> f64 {
    assert!(
        facts.len() <= 62,
        "possible-world enumeration beyond 62 facts"
    );
    let threads = threads.max(1);
    let mut i2 = interner.clone();
    let pattern = q.to_pattern(&mut i2);
    let total_worlds: u64 = 1u64 << facts.len();
    let chunk = total_worlds.div_ceil(threads as u64);
    let mut partials = vec![0.0f64; threads];
    std::thread::scope(|scope| {
        for (t, slot) in partials.iter_mut().enumerate() {
            let pattern = &pattern;
            scope.spawn(move || {
                let lo = chunk * t as u64;
                let hi = (lo + chunk).min(total_worlds);
                let mut acc = 0.0;
                for mask in lo..hi {
                    if !world_satisfies(pattern, facts, mask) {
                        continue;
                    }
                    let mut p = 1.0;
                    for (i, (_, pf)) in facts.iter().enumerate() {
                        p *= if mask >> i & 1 == 1 { *pf } else { 1.0 - *pf };
                    }
                    acc += p;
                }
                *slot = acc;
            });
        }
    });
    partials.iter().sum()
}

/// Monte-Carlo estimate of `P(Q)` from `samples` sampled worlds.
pub fn probability_monte_carlo(
    q: &Query,
    interner: &Interner,
    facts: &[(Fact, f64)],
    samples: u32,
    rng: &mut impl Rng,
) -> f64 {
    let mut i2 = interner.clone();
    let pattern = q.to_pattern(&mut i2);
    let mut hits = 0u32;
    for _ in 0..samples {
        let mut db = Database::new();
        for (f, p) in facts {
            if rng.gen::<f64>() < *p {
                db.insert(f.clone());
            } else {
                db.declare(f.rel, f.tuple.arity());
            }
        }
        if satisfiable(&db, &pattern).expect("validated") {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(samples)
}

/// Exact reachability `P(src ⇝ dst)` over independent probabilistic
/// edges by possible-world enumeration: the total probability of the
/// edge subsets holding a directed path of length ≥ 1 from `src` to
/// `dst`. The definitional oracle for the fixpoint engine's min-round
/// relaxation (which is exact when paths are unique, as on forests).
///
/// # Panics
/// Panics beyond 16 edges or on an edge tuple that is not binary.
pub fn reachability_exhaustive(edges: &[(Tuple, f64)], src: Value, dst: Value) -> f64 {
    assert!(
        edges.len() <= 16,
        "possible-world reachability beyond 16 edges"
    );
    let arcs: Vec<(Value, Value)> = edges
        .iter()
        .map(|(t, _)| {
            assert_eq!(t.arity(), 2, "edges are binary tuples");
            (t.get(0), t.get(1))
        })
        .collect();
    let mut total = 0.0;
    for mask in 0u32..(1 << edges.len()) {
        if !reaches(&arcs, mask, src, dst) {
            continue;
        }
        let mut p = 1.0;
        for (i, (_, pe)) in edges.iter().enumerate() {
            p *= if mask >> i & 1 == 1 { *pe } else { 1.0 - *pe };
        }
        total += p;
    }
    total
}

/// Whether the arcs selected by `mask` hold a path of length ≥ 1 from
/// `src` to `dst` (depth-first search).
fn reaches(arcs: &[(Value, Value)], mask: u32, src: Value, dst: Value) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![src];
    while let Some(v) = stack.pop() {
        for (i, &(a, b)) in arcs.iter().enumerate() {
            if mask >> i & 1 == 1 && a == v && seen.insert(b) {
                if b == dst {
                    return true;
                }
                stack.push(b);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_db::db_from_ints;
    use hq_query::{q_hierarchical, q_non_hierarchical, Query};

    fn tid(db: &Database, p: f64) -> Vec<(Fact, f64)> {
        db.facts().into_iter().map(|f| (f, p)).collect()
    }

    #[test]
    fn single_atom_matches_closed_form() {
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2], &[3]])]);
        let p = probability_exhaustive(&q, &i, &tid(&db, 0.5));
        assert!((p - 0.875).abs() < 1e-12);
    }

    #[test]
    fn chain_query_hand_value() {
        // E(1,2) p=0.5, F(2,3) p=0.5 → P = 0.25.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        let p = probability_exhaustive(&q, &i, &tid(&db, 0.5));
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn works_for_non_hierarchical_queries() {
        // The baseline is definitional — it handles R(X),S(X,Y),T(Y) fine.
        let q = q_non_hierarchical();
        let (db, i) = db_from_ints(&[("R", &[&[1]]), ("S", &[&[1, 2]]), ("T", &[&[2]])]);
        let p = probability_exhaustive(&q, &i, &tid(&db, 0.5));
        assert!((p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
            ("F", &[&[2, 9], &[3, 8]]),
        ]);
        let facts = tid(&db, 0.3);
        let seq = probability_exhaustive(&q, &i, &facts);
        for threads in [1, 2, 4] {
            let par = probability_exhaustive_parallel(&q, &i, &facts, threads);
            assert!((seq - par).abs() < 1e-12, "threads={threads}");
        }
    }

    #[test]
    fn exact_matches_float() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3], &[2, 4]])]);
        let facts = tid(&db, 0.25);
        let rational: Vec<(Fact, Rational)> = facts
            .iter()
            .map(|(f, _)| (f.clone(), Rational::ratio(1, 4)))
            .collect();
        let pf = probability_exhaustive(&q, &i, &facts);
        let pe = probability_exhaustive_exact(&q, &i, &rational);
        assert!((pf - pe.to_f64()).abs() < 1e-12);
        // Exact value: P(E) * P(F2 ∨ F4) = 1/4 * (1 - (3/4)^2) = 7/64.
        assert_eq!(pe, Rational::ratio(7, 64));
    }

    #[test]
    fn monte_carlo_converges() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        let facts = tid(&db, 0.5);
        let mut rng = hq_db::generate::rng(17);
        let est = probability_monte_carlo(&q, &i, &facts, 20_000, &mut rng);
        assert!((est - 0.25).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn empty_fact_list_gives_zero() {
        let q = q_hierarchical();
        let i = Interner::new();
        assert_eq!(probability_exhaustive(&q, &i, &[]), 0.0);
    }

    #[test]
    fn reachability_hand_values() {
        let e = |a: i64, b: i64, p: f64| (Tuple::ints(&[a, b]), p);
        let v = Value::Int;
        // One edge; no reflexive path without a cycle.
        assert_eq!(reachability_exhaustive(&[e(1, 2, 0.3)], v(1), v(2)), 0.3);
        assert_eq!(reachability_exhaustive(&[e(1, 2, 0.3)], v(2), v(1)), 0.0);
        assert_eq!(reachability_exhaustive(&[e(1, 2, 0.3)], v(1), v(1)), 0.0);
        // A 2-cycle returns to its start.
        let cycle = [e(1, 2, 0.5), e(2, 1, 0.5)];
        assert_eq!(reachability_exhaustive(&cycle, v(1), v(1)), 0.25);
        // Diamond 1→{2,3}→4 at p = 1/2: 1 − (1 − 1/4)² = 7/16.
        let diamond = [e(1, 2, 0.5), e(1, 3, 0.5), e(2, 4, 0.5), e(3, 4, 0.5)];
        assert_eq!(reachability_exhaustive(&diamond, v(1), v(4)), 0.4375);
    }
}
