//! Algorithm 1: the general-purpose unifying algorithm for
//! hierarchical queries.
//!
//! The engine replays a precompiled [`EliminationPlan`] over a
//! K-annotated database:
//!
//! * **Rule 1** (`ProjectOut`) becomes a ⊕-aggregating projection:
//!   `R'(x̄') = ⊕_y R(x̄', y)`, restricted to the support since `0` is
//!   the ⊕-identity (line 4 of Algorithm 1).
//! * **Rule 2** (`Merge`) becomes a ⊗-*outer* join on the shared
//!   variable set: `R'(x̄) = R₁(x̄) ⊗ R₂(x̄)` over the **union** of the
//!   two supports, filling the missing side with `0` — required because
//!   2-monoids need not annihilate (`a ⊗ 0 ≠ 0` in the Shapley monoid);
//!   tuples absent from *both* sides stay absent thanks to `0 ⊗ 0 = 0`
//!   (Lemma 6.6). For annihilating (semiring) monoids the 0-fill is
//!   skipped outright, keeping the op counts on the Theorem 6.7 budget.
//!
//! The physical relation layout is pluggable ([`crate::storage`]):
//! [`run_plan`] is generic over any [`Storage`] backend and passes the
//! run's [`Parallelism`] degree to every rule application, and
//! [`evaluate_on`] dispatches on a runtime [`Exec`] choice. The
//! engine counts ⊕/⊗ operations and tracks support sizes per step,
//! making Theorem 6.7 (linearly many operations) and Lemma 6.6
//! (support never grows) directly measurable — identically on every
//! backend.

use crate::annotated::{annotate_columnar, annotate_with, AnnotateError, AnnotatedDb, EncodedDb};
use crate::storage::{Backend, CompressedAnn, Exec, MapRelation, Parallelism, Storage};
use hq_db::{Database, Fact, Interner, Sym, Tuple};
use hq_monoid::TwoMonoid;
use hq_query::{plan, EliminationPlan, NotHierarchical, Query, Step};
use std::fmt;

/// Instrumentation collected by a run of Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of ⊕ applications.
    pub add_ops: u64,
    /// Number of ⊗ applications.
    pub mul_ops: u64,
    /// Total support size after each step (index 0 = initial).
    pub support_sizes: Vec<usize>,
}

impl EngineStats {
    /// Lemma 6.6: the K-annotated database size never increases.
    pub fn support_never_grew(&self) -> bool {
        self.support_sizes.windows(2).all(|w| w[1] <= w[0])
    }

    /// Total ⊕ + ⊗ operations (Theorem 6.7 bounds this by `O(|D|)`).
    pub fn total_ops(&self) -> u64 {
        self.add_ops + self.mul_ops
    }
}

/// Errors from the high-level entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifyError {
    /// The query is not hierarchical; Algorithm 1 does not apply
    /// (and the problem is intractable in general — Theorem 4.4).
    NotHierarchical(NotHierarchical),
    /// The fact list did not match the query schema.
    Annotate(AnnotateError),
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::NotHierarchical(e) => write!(f, "{e}"),
            UnifyError::Annotate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UnifyError {}

impl From<NotHierarchical> for UnifyError {
    fn from(e: NotHierarchical) -> Self {
        UnifyError::NotHierarchical(e)
    }
}

impl From<AnnotateError> for UnifyError {
    fn from(e: AnnotateError) -> Self {
        UnifyError::Annotate(e)
    }
}

/// Executes a compiled plan over an annotated database of any storage
/// backend at parallelism degree `par`, returning the final
/// annotation of the nullary tuple `()` and the run statistics.
///
/// The result is `0` when the final relation has empty support (no
/// fact combination reaches the root), mirroring `⊕` over an empty
/// index set.
pub fn run_plan<M, R>(
    monoid: &M,
    plan: &EliminationPlan,
    mut db: AnnotatedDb<R>,
    par: Parallelism,
) -> (M::Elem, EngineStats)
where
    M: TwoMonoid,
    R: Storage<Ann = M::Elem>,
{
    let mut stats = EngineStats::default();
    stats.support_sizes.push(db.support_size());
    for step in plan.steps() {
        match *step {
            Step::ProjectOut { atom, var } => {
                let rel = db.slots[atom].take().expect("plan references alive slot");
                db.slots[atom] = Some(rel.project_out(monoid, var, par, &mut stats));
            }
            Step::Merge { left, right } => {
                let l = db.slots[left].take().expect("plan references alive slot");
                let r = db.slots[right].take().expect("plan references alive slot");
                db.slots[left] = Some(l.merge(monoid, r, par, &mut stats));
            }
        }
        stats.support_sizes.push(db.support_size());
    }
    let root = db.slots[plan.root()]
        .take()
        .expect("root slot alive at end");
    debug_assert!(root.vars().is_empty(), "root must be nullary");
    (root.nullary_value(monoid), stats)
}

/// One-call entry point on the ordered-map backend: plans the query,
/// annotates the facts, and runs Algorithm 1. Kept as the oracle path;
/// see [`evaluate_on`] for backend and parallelism selection.
///
/// # Errors
/// Returns [`UnifyError::NotHierarchical`] for non-hierarchical
/// queries, or [`UnifyError::Annotate`] if the facts do not fit the
/// query schema.
pub fn evaluate<M: TwoMonoid>(
    monoid: &M,
    q: &Query,
    interner: &Interner,
    facts: impl IntoIterator<Item = (Fact, M::Elem)>,
) -> Result<(M::Elem, EngineStats), UnifyError> {
    let p = plan(q)?;
    let db = annotate_with::<MapRelation<M::Elem>>(q, interner, facts)?;
    Ok(run_plan(monoid, &p, db, Parallelism::sequential()))
}

/// One-call entry point with a runtime [`Exec`] choice, over borrowed
/// `(relation, key tuple in written order, annotation)` rows. The
/// columnar layouts build straight from the borrowed tuples (no clone
/// — see [`crate::annotated::annotate_columnar`]); the compressed tier
/// block-compresses each slot right after that build; the ordered-map
/// oracle clones each row into a fact.
///
/// All backends and degrees produce bit-identical results and
/// identical [`EngineStats`]; they differ only in constants. A
/// parallel degree warms the persistent worker [`pool`](crate::pool)
/// up front, so the shard kernels never spawn a thread.
///
/// # Errors
/// Same failure modes as [`evaluate`].
pub fn evaluate_on<'a, M: TwoMonoid>(
    exec: Exec,
    monoid: &M,
    q: &Query,
    interner: &Interner,
    rows: impl IntoIterator<Item = (Sym, &'a Tuple, M::Elem)>,
) -> Result<(M::Elem, EngineStats), UnifyError>
where
    M::Elem: CompressedAnn,
{
    let p = plan(q)?;
    let par = exec.par;
    par.warm_pool();
    Ok(match exec.backend {
        Backend::Map => {
            let facts = rows
                .into_iter()
                .map(|(rel, t, k)| (Fact::new(rel, t.clone()), k));
            let db = annotate_with::<MapRelation<M::Elem>>(q, interner, facts)?;
            run_plan(monoid, &p, db, par)
        }
        Backend::Columnar => run_plan(monoid, &p, annotate_columnar(q, interner, rows)?, par),
        Backend::Compressed => {
            let db = annotate_columnar(q, interner, rows)?.into_compressed();
            run_plan(monoid, &p, db, par)
        }
    })
}

/// Borrows an annotated fact list as [`evaluate_on`]'s
/// `(relation, tuple, annotation)` rows.
pub(crate) fn fact_rows<K: Clone>(facts: &[(Fact, K)]) -> impl Iterator<Item = (Sym, &Tuple, K)> {
    facts.iter().map(|(f, k)| (f.rel, &f.tuple, k.clone()))
}

/// Evaluates a query over a database whose dictionary encoding was
/// built once with [`EncodedDb::new`] and is reused across calls — the
/// batched multi-query fast path: repeated queries against the same
/// database skip the value sort and dictionary build entirely.
/// `ann` supplies each fact's annotation (facts are visited in each
/// relation's sorted tuple order).
///
/// Results and [`EngineStats`] are bit-identical to [`evaluate_on`] on
/// the columnar backend: the cached dictionary covers the whole
/// database rather than just the query's relations, but codes are
/// order-preserving either way, so every comparison, fold and merge
/// runs in the same sequence.
///
/// # Errors
/// Same failure modes as [`evaluate`], plus an arity mismatch when the
/// query disagrees with the encoded schema.
pub fn evaluate_encoded<M: TwoMonoid>(
    par: Parallelism,
    monoid: &M,
    q: &Query,
    interner: &Interner,
    db: &Database,
    enc: &EncodedDb,
    ann: impl FnMut(Sym, &Tuple) -> M::Elem,
) -> Result<(M::Elem, EngineStats), UnifyError> {
    let p = plan(q)?;
    let adb = enc.annotate(db, q, interner, ann)?;
    par.warm_pool();
    Ok(run_plan(monoid, &p, adb, par))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_db::db_from_ints;
    use hq_monoid::{BoolMonoid, CountMonoid, ProbMonoid, TropicalMinMonoid, TROPICAL_INF};
    use hq_query::{example_query, q_hierarchical, q_non_hierarchical, Query};

    /// [`evaluate_on`] over owned facts, run sequentially on `backend`.
    fn eval_facts<M: TwoMonoid>(
        backend: Backend,
        monoid: &M,
        q: &Query,
        interner: &Interner,
        facts: impl IntoIterator<Item = (Fact, M::Elem)>,
    ) -> Result<(M::Elem, EngineStats), UnifyError>
    where
        M::Elem: CompressedAnn,
    {
        let facts: Vec<(Fact, M::Elem)> = facts.into_iter().collect();
        evaluate_on(backend.into(), monoid, q, interner, fact_rows(&facts))
    }

    fn fig1_db() -> (hq_db::Database, Interner) {
        db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ])
    }

    #[test]
    fn counting_monoid_matches_join_engine() {
        // Algorithm 1 over (ℕ, +, ×) computes the bag-set value Q(D).
        let q = example_query();
        let (db, mut i) = fig1_db();
        let (count, stats) = evaluate(
            &CountMonoid,
            &q,
            &i,
            db.facts().into_iter().map(|f| (f, 1u64)),
        )
        .unwrap();
        assert_eq!(count, 1);
        assert!(stats.support_never_grew(), "{:?}", stats.support_sizes);
        let pattern = q.to_pattern(&mut i);
        assert_eq!(hq_db::count_matches(&db, &pattern).unwrap(), count);
    }

    #[test]
    fn bool_monoid_decides_satisfiability() {
        let q = q_hierarchical(); // E(X,Y), F(Y,Z)
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        let (sat, _) = evaluate(
            &BoolMonoid,
            &q,
            &i,
            db.facts().into_iter().map(|f| (f, true)),
        )
        .unwrap();
        assert!(sat);
        // Break the join: F(9, 3) does not connect.
        let (db2, i2) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[9, 3]])]);
        let (sat2, _) = evaluate(
            &BoolMonoid,
            &q,
            &i2,
            db2.facts().into_iter().map(|f| (f, true)),
        )
        .unwrap();
        assert!(!sat2);
    }

    #[test]
    fn prob_monoid_single_chain() {
        // Q_h over E(1,2) (p=0.5) and F(2,3) (p=0.5): P(Q) = 0.25.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        let (p, _) = evaluate(
            &ProbMonoid,
            &q,
            &i,
            db.facts().into_iter().map(|f| (f, 0.5f64)),
        )
        .unwrap();
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prob_monoid_fig1_structure() {
        // All facts p = 1 → query certainly true.
        let q = example_query();
        let (db, i) = fig1_db();
        let (p, _) = evaluate(
            &ProbMonoid,
            &q,
            &i,
            db.facts().into_iter().map(|f| (f, 1.0f64)),
        )
        .unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database_yields_zero() {
        let q = q_hierarchical();
        let i = Interner::new();
        let (p, _) = evaluate(&ProbMonoid, &q, &i, Vec::<(Fact, f64)>::new()).unwrap();
        assert_eq!(p, 0.0);
        let (c, _) = evaluate(&CountMonoid, &q, &i, Vec::<(Fact, u64)>::new()).unwrap();
        assert_eq!(c, 0);
    }

    #[test]
    fn non_hierarchical_query_rejected() {
        let q = q_non_hierarchical();
        let i = Interner::new();
        let err = evaluate(&BoolMonoid, &q, &i, Vec::<(Fact, bool)>::new()).unwrap_err();
        assert!(matches!(err, UnifyError::NotHierarchical(_)));
        for backend in Backend::ALL {
            let err =
                eval_facts(backend, &BoolMonoid, &q, &i, Vec::<(Fact, bool)>::new()).unwrap_err();
            assert!(matches!(err, UnifyError::NotHierarchical(_)));
        }
    }

    #[test]
    fn tropical_monoid_finds_cheapest_witness() {
        // Two disjoint witnesses with different total weights.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[7, 8]]), ("F", &[&[2, 3], &[8, 9]])]);
        let weights = |f: &Fact| {
            // Witness 1-2-3 costs 10+1; witness 7-8-9 costs 2+3.
            let first = f.tuple.get(0);
            match first {
                hq_db::Value::Int(1) => 10u64,
                hq_db::Value::Int(2) => 1,
                hq_db::Value::Int(7) => 2,
                hq_db::Value::Int(8) => 3,
                _ => TROPICAL_INF,
            }
        };
        for backend in Backend::ALL {
            let (cost, _) = eval_facts(
                backend,
                &TropicalMinMonoid,
                &q,
                &i,
                db.facts().into_iter().map(|f| {
                    let w = weights(&f);
                    (f, w)
                }),
            )
            .unwrap();
            assert_eq!(cost, 5, "{backend}");
        }
    }

    #[test]
    fn op_counts_scale_linearly() {
        // Theorem 6.7: #ops = O(|D|). Build Q_h over n chained pairs and
        // check ops grow linearly (ratio between sizes ~ size ratio).
        let q = q_hierarchical();
        for backend in Backend::ALL {
            let mut ops = Vec::new();
            for n in [50i64, 100, 200] {
                let mut i = Interner::new();
                let e = i.intern("E");
                let f = i.intern("F");
                let mut db = hq_db::Database::new();
                for k in 0..n {
                    db.insert_tuple(e, hq_db::Tuple::ints(&[k, k]));
                    db.insert_tuple(f, hq_db::Tuple::ints(&[k, k + 1]));
                }
                let (_, stats) = eval_facts(
                    backend,
                    &CountMonoid,
                    &q,
                    &i,
                    db.facts().into_iter().map(|fact| (fact, 1u64)),
                )
                .unwrap();
                assert!(stats.support_never_grew());
                ops.push(stats.total_ops() as f64);
            }
            let r1 = ops[1] / ops[0];
            let r2 = ops[2] / ops[1];
            assert!((1.5..=2.5).contains(&r1), "ops not linear: {ops:?}");
            assert!((1.5..=2.5).contains(&r2), "ops not linear: {ops:?}");
        }
    }

    #[test]
    fn disconnected_query_multiplies_components() {
        // Q() :- A(X), B(Y) over 3 A-facts and 2 B-facts: count = 6.
        let q = Query::new(&[("A", &["X"]), ("B", &["Y"])]).unwrap();
        let (db, i) = db_from_ints(&[("A", &[&[1], &[2], &[3]]), ("B", &[&[7], &[8]])]);
        for backend in Backend::ALL {
            let (count, _) = eval_facts(
                backend,
                &CountMonoid,
                &q,
                &i,
                db.facts().into_iter().map(|f| (f, 1u64)),
            )
            .unwrap();
            assert_eq!(count, 6, "{backend}");
        }
    }

    #[test]
    fn zero_annotations_prune_support() {
        // A fact annotated exactly 0 behaves as absent.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        for backend in Backend::ALL {
            let (p, stats) = eval_facts(
                backend,
                &ProbMonoid,
                &q,
                &i,
                db.facts().into_iter().map(|f| {
                    let p = if f.tuple.arity() == 2 && f.tuple.get(0) == hq_db::Value::Int(1) {
                        0.0
                    } else {
                        0.9
                    };
                    (f, p)
                }),
            )
            .unwrap();
            assert_eq!(p, 0.0, "{backend}");
            assert!(stats.support_never_grew());
        }
    }

    #[test]
    fn backends_agree_bit_for_bit_on_fig1() {
        let q = example_query();
        let (db, i) = fig1_db();
        let facts: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .enumerate()
            .map(|(j, f)| (f, 0.17 + 0.19 * j as f64))
            .collect();
        let (pm, sm) = eval_facts(Backend::Map, &ProbMonoid, &q, &i, facts.clone()).unwrap();
        let (pc, sc) = eval_facts(Backend::Columnar, &ProbMonoid, &q, &i, facts).unwrap();
        assert_eq!(pm.to_bits(), pc.to_bits(), "map {pm} vs columnar {pc}");
        assert_eq!(sm, sc);
    }
}
