//! Probabilistic Query Evaluation front-end (Theorem 5.8).
//!
//! Given a tuple-independent probabilistic database — a set of facts
//! each carrying an independent presence probability — computes the
//! marginal probability that a hierarchical SJF-BCQ evaluates to true,
//! in time `O(|D|)`. This instantiation of Algorithm 1 specialises
//! exactly to the Dalvi–Suciu algorithm.

use crate::engine::{
    evaluate_columnar_par, evaluate_compressed_par, evaluate_on_par, EngineStats, UnifyError,
};
use crate::fixpoint::{transitive_closure, transitive_closure_on};
use crate::serving::{ServingBackend, ServingError, ServingSession, UpdateOutcome};
use crate::storage::{Backend, ColumnarRelation, Parallelism};
use hq_arith::Rational;
use hq_db::{Fact, Interner, Tuple, Value};
use hq_monoid::{ExactProbMonoid, ProbMonoid};
use hq_query::Query;
use std::fmt;

/// Errors specific to PQE inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum PqeError {
    /// A probability was outside `[0, 1]` (or not finite).
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// Planning or annotation failed.
    Unify(UnifyError),
    /// A serving-session call was rejected.
    Serving(ServingError),
}

impl fmt::Display for PqeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqeError::InvalidProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            PqeError::Unify(e) => write!(f, "{e}"),
            PqeError::Serving(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PqeError {}

impl From<UnifyError> for PqeError {
    fn from(e: UnifyError) -> Self {
        PqeError::Unify(e)
    }
}

impl From<ServingError> for PqeError {
    fn from(e: ServingError) -> Self {
        PqeError::Serving(e)
    }
}

/// Computes `P(Q = true)` over the tuple-independent database given as
/// `(fact, probability)` pairs, along with engine statistics.
///
/// # Errors
/// Rejects non-hierarchical queries, malformed fact lists, and
/// probabilities outside `[0, 1]`.
pub fn probability_with_stats(
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<(f64, EngineStats), PqeError> {
    probability_with_stats_on(Backend::Map, q, interner, tid)
}

/// [`probability_with_stats`] on an explicit storage backend. All
/// backends return bit-identical probabilities and identical stats.
///
/// # Errors
/// See [`probability_with_stats`].
pub fn probability_with_stats_on(
    backend: Backend,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<(f64, EngineStats), PqeError> {
    probability_with_stats_par(backend, Parallelism::default(), q, interner, tid)
}

/// [`probability_with_stats_on`] with an explicit [`Parallelism`]
/// degree: shard kernels run on the persistent worker
/// [`pool`](crate::pool) (no per-call thread spawns) and the ψ-fold
/// takes [`hq_monoid::DenseFold`]'s vectorisable fast path, yet
/// probabilities and stats stay bit-identical at every thread count.
///
/// # Errors
/// See [`probability_with_stats`].
pub fn probability_with_stats_par(
    backend: Backend,
    par: Parallelism,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<(f64, EngineStats), PqeError> {
    validate(tid.iter().map(|&(_, p)| p))?;
    // The columnar path annotates straight from the borrowed fact
    // list — no per-fact tuple clone.
    let out = match backend {
        Backend::Columnar => evaluate_columnar_par(
            par,
            &ProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, *p)),
        )?,
        Backend::Compressed => evaluate_compressed_par(
            par,
            &ProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, *p)),
        )?,
        Backend::Map => evaluate_on_par(
            backend,
            par,
            &ProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.clone(), *p)),
        )?,
    };
    Ok(out)
}

/// Computes `P(Q = true)` (probability only).
///
/// ```
/// use hq_db::db_from_ints;
/// use hq_query::parse_query;
///
/// // Two fact-disjoint witnesses, each holding with probability
/// // 1/2 · 1/2 = 1/4, so P(Q) = 1 − (1 − 1/4)² = 0.4375.
/// let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
/// let (db, i) = db_from_ints(&[
///     ("E", &[&[1, 2], &[7, 8]]),
///     ("F", &[&[2, 3], &[8, 9]]),
/// ]);
/// let tid: Vec<_> = db.facts().into_iter().map(|f| (f, 0.5)).collect();
/// let p = hq_unify::pqe::probability(&q, &i, &tid).unwrap();
/// assert!((p - 0.4375).abs() < 1e-12);
/// ```
///
/// # Errors
/// See [`probability_with_stats`].
pub fn probability(q: &Query, interner: &Interner, tid: &[(Fact, f64)]) -> Result<f64, PqeError> {
    probability_with_stats(q, interner, tid).map(|(p, _)| p)
}

/// [`probability`] on an explicit storage backend.
///
/// # Errors
/// See [`probability_with_stats`].
pub fn probability_on(
    backend: Backend,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<f64, PqeError> {
    probability_with_stats_on(backend, q, interner, tid).map(|(p, _)| p)
}

/// [`probability`] on an explicit backend and [`Parallelism`] degree.
///
/// # Errors
/// See [`probability_with_stats`].
pub fn probability_par(
    backend: Backend,
    par: Parallelism,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<f64, PqeError> {
    probability_with_stats_par(backend, par, q, interner, tid).map(|(p, _)| p)
}

/// Exact-rational PQE: same algorithm over the exact probability
/// 2-monoid. Used as the oracle in differential tests and by the CLI's
/// `--exact` mode.
///
/// # Errors
/// Rejects non-hierarchical queries and malformed fact lists.
pub fn probability_exact(
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, Rational)],
) -> Result<Rational, UnifyError> {
    probability_exact_on(Backend::Map, q, interner, tid)
}

/// [`probability_exact`] on an explicit storage backend.
///
/// # Errors
/// Rejects non-hierarchical queries and malformed fact lists.
pub fn probability_exact_on(
    backend: Backend,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, Rational)],
) -> Result<Rational, UnifyError> {
    probability_exact_par(backend, Parallelism::default(), q, interner, tid)
}

/// [`probability_exact`] on an explicit backend and [`Parallelism`]
/// degree.
///
/// # Errors
/// Rejects non-hierarchical queries and malformed fact lists.
pub fn probability_exact_par(
    backend: Backend,
    par: Parallelism,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, Rational)],
) -> Result<Rational, UnifyError> {
    let (p, _) = match backend {
        Backend::Columnar => evaluate_columnar_par(
            par,
            &ExactProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, p.clone())),
        )?,
        Backend::Compressed => evaluate_compressed_par(
            par,
            &ExactProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, p.clone())),
        )?,
        Backend::Map => evaluate_on_par(
            backend,
            par,
            &ExactProbMonoid,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.clone(), p.clone())),
        )?,
    };
    Ok(p)
}

/// Computes the **expected bag-set value** `E[Q(D)]` — the expected
/// number of distinct satisfying assignments over the possible worlds
/// of the tuple-independent database. Runs Algorithm 1 over the real
/// sum-product semiring; by linearity of expectation this equals
/// `Σ_assignments Π p(fact)`.
///
/// # Errors
/// Same failure modes as [`probability`].
pub fn expected_count(
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<f64, PqeError> {
    expected_count_on(Backend::Map, q, interner, tid)
}

/// [`expected_count`] on an explicit storage backend.
///
/// # Errors
/// Same failure modes as [`probability`].
pub fn expected_count_on(
    backend: Backend,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<f64, PqeError> {
    expected_count_par(backend, Parallelism::default(), q, interner, tid)
}

/// [`expected_count`] on an explicit backend and [`Parallelism`]
/// degree.
///
/// # Errors
/// Same failure modes as [`probability`].
pub fn expected_count_par(
    backend: Backend,
    par: Parallelism,
    q: &Query,
    interner: &Interner,
    tid: &[(Fact, f64)],
) -> Result<f64, PqeError> {
    validate(tid.iter().map(|&(_, p)| p))?;
    let (e, _) = match backend {
        Backend::Columnar => evaluate_columnar_par(
            par,
            &hq_monoid::RealSemiring,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, *p)),
        )?,
        Backend::Compressed => evaluate_compressed_par(
            par,
            &hq_monoid::RealSemiring,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.rel, &f.tuple, *p)),
        )?,
        Backend::Map => evaluate_on_par(
            backend,
            par,
            &hq_monoid::RealSemiring,
            q,
            interner,
            tid.iter().map(|(f, p)| (f.clone(), *p)),
        )?,
    };
    Ok(e)
}

/// Rejects the first probability outside `[0, 1]` (NaN included).
fn validate(probs: impl IntoIterator<Item = f64>) -> Result<(), PqeError> {
    match probs.into_iter().find(|p| !(0.0..=1.0).contains(p)) {
        Some(value) => Err(PqeError::InvalidProbability { value }),
        None => Ok(()),
    }
}

/// Recursive reachability over an independent probabilistic edge
/// relation: the left-linear transitive-closure fixpoint
/// `T = E ⊕ (T ∘ E)` under the probability 2-monoid, read out at the
/// requested endpoints (`None` = any; see
/// [`crate::fixpoint::FixpointRun::readout`]).
/// Returns the probability and the kernel's [`EngineStats`].
///
/// **Semantics.** Exact probabilistic reachability is `#P`-hard, so
/// the fixpoint computes the paper-consistent *min-round* relaxation:
/// each pair's annotation freezes at its first derivation round, and ⊕
/// (noisy-or) folds over that round's derivations in ascending
/// join-value order — a deterministic, backend- and thread-independent
/// value, bit-identical everywhere the differential suite looks.
///
/// # Errors
/// Rejects probabilities outside `[0, 1]`, non-binary edge tuples, and
/// duplicate edge keys.
pub fn reachability(
    edges: &[(Tuple, f64)],
    src: Option<Value>,
    dst: Option<Value>,
) -> Result<(f64, EngineStats), PqeError> {
    validate(edges.iter().map(|&(_, p)| p))?;
    let run = transitive_closure(&ProbMonoid, edges).map_err(ServingError::from)?;
    Ok((run.readout(&ProbMonoid, src, dst), run.stats))
}

/// [`reachability`] with the edges and the accumulator round-tripped
/// through an explicit storage [`Backend`]
/// ([`transitive_closure_on`]) — values, trajectories and stats are
/// bit-identical to the oracle form by construction.
///
/// # Errors
/// See [`reachability`].
pub fn reachability_on(
    backend: Backend,
    edges: &[(Tuple, f64)],
    src: Option<Value>,
    dst: Option<Value>,
) -> Result<(f64, EngineStats), PqeError> {
    validate(edges.iter().map(|&(_, p)| p))?;
    let run = transitive_closure_on(backend, &ProbMonoid, edges).map_err(ServingError::from)?;
    Ok((run.readout(&ProbMonoid, src, dst), run.stats))
}

/// A multi-query PQE serving session: one tuple-independent database,
/// many (possibly overlapping) probability queries, interleaved
/// probability updates. The PQE front-end *builds plans* into the
/// session's shared [`crate::plan_ir::PlanIr`]; common sub-plans across
/// queries are evaluated once per backend, and every returned
/// probability and [`EngineStats`] is bit-identical to an independent
/// [`probability_with_stats_par`] evaluation of the current state.
pub struct PqeSession<R: ServingBackend<Ann = f64> = ColumnarRelation<f64>> {
    session: ServingSession<ProbMonoid, R>,
}

impl<R: ServingBackend<Ann = f64>> PqeSession<R> {
    /// Builds the session with an explicit [`Parallelism`] degree
    /// (meaningful on the sharded backend; bit-identical everywhere).
    ///
    /// # Errors
    /// Rejects probabilities outside `[0, 1]` and inconsistent arities.
    pub fn with_parallelism(
        interner: &Interner,
        tid: &[(Fact, f64)],
        par: Parallelism,
    ) -> Result<Self, PqeError> {
        validate(tid.iter().map(|&(_, p)| p))?;
        Ok(PqeSession {
            session: ServingSession::with_parallelism(
                ProbMonoid,
                interner,
                tid.iter().cloned(),
                par,
            )?,
        })
    }

    /// Builds the session sequentially.
    ///
    /// # Errors
    /// Rejects probabilities outside `[0, 1]` and inconsistent arities.
    pub fn new(interner: &Interner, tid: &[(Fact, f64)]) -> Result<Self, PqeError> {
        Self::with_parallelism(interner, tid, Parallelism::default())
    }

    /// Evaluates `P(Q = true)` for one query, sharing sub-plans with
    /// every query this session has served.
    ///
    /// # Errors
    /// Rejects non-hierarchical queries and schema mismatches.
    pub fn query(
        &mut self,
        interner: &Interner,
        q: &Query,
    ) -> Result<(f64, EngineStats), PqeError> {
        Ok(self.session.query(interner, q)?)
    }

    /// Serves the recursive reachability query over binary relation
    /// `rel` (see [`reachability`] for the min-round noisy-or
    /// semantics). The materialised fixpoint is cached and maintained
    /// incrementally under [`PqeSession::update_batch`]; repeats
    /// replay it with zero monoid operations.
    ///
    /// # Errors
    /// Rejects non-binary relations (and, structurally, non-convergent
    /// monoids — never the case for probabilities).
    pub fn reachability(
        &mut self,
        interner: &Interner,
        rel: &str,
        src: Option<Value>,
        dst: Option<Value>,
    ) -> Result<(f64, EngineStats), PqeError> {
        Ok(self.session.query_fix(interner, rel, src, dst)?)
    }

    /// Evaluates a batch of queries; common sub-plans are evaluated
    /// once.
    ///
    /// # Errors
    /// Fails on the first erroneous query.
    pub fn query_batch(
        &mut self,
        interner: &Interner,
        queries: &[Query],
    ) -> Result<Vec<(f64, EngineStats)>, PqeError> {
        Ok(self.session.query_batch(interner, queries)?)
    }

    /// Updates one fact's probability (`0` deletes, unseen facts
    /// insert), invalidating only the cached intermediates that read
    /// the fact's relation.
    ///
    /// # Errors
    /// Rejects probabilities outside `[0, 1]` and schema mismatches.
    pub fn update(
        &mut self,
        interner: &Interner,
        fact: &Fact,
        p: f64,
    ) -> Result<UpdateOutcome, PqeError> {
        validate([p])?;
        Ok(self.session.update(interner, fact, p)?)
    }

    /// Applies a batch of probability updates (later writes win) in one
    /// cache-repair pass.
    ///
    /// # Errors
    /// See [`PqeSession::update`]; all-or-nothing on rejection.
    pub fn update_batch(
        &mut self,
        interner: &Interner,
        updates: &[(Fact, f64)],
    ) -> Result<UpdateOutcome, PqeError> {
        validate(updates.iter().map(|&(_, p)| p))?;
        Ok(self.session.update_batch(interner, updates)?)
    }

    /// The underlying session (sharing/caching introspection).
    pub fn session(&self) -> &ServingSession<ProbMonoid, R> {
        &self.session
    }

    /// Bounds the session's node cache (see
    /// [`ServingSession::set_cache_budget`]). Only the serving knobs
    /// are forwarded mutably — the session itself stays behind the
    /// wrapper so probability validation cannot be bypassed.
    pub fn set_cache_budget(&mut self, budget: Option<usize>) {
        self.session.set_cache_budget(budget);
    }

    /// Enables or disables spill-on-evict (see
    /// [`ServingSession::set_spill`]); returns the effective state.
    pub fn set_spill(&mut self, enabled: bool) -> bool {
        self.session.set_spill(enabled)
    }

    /// Sets the rebuild-fallback threshold (see
    /// [`ServingSession::set_patch_fraction`]).
    pub fn set_patch_fraction(&mut self, fraction: f64) {
        self.session.set_patch_fraction(fraction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{CompressedColumnar, MapRelation, ShardedColumnar};
    use hq_db::db_from_ints;
    use hq_query::{example_query, q_hierarchical, q_non_hierarchical, Query};

    fn tid_uniform(db: &hq_db::Database, p: f64) -> Vec<(Fact, f64)> {
        db.facts().into_iter().map(|f| (f, p)).collect()
    }

    #[test]
    fn single_atom_query_is_disjunction() {
        // Q() :- R(X) with facts p each: P = 1 - (1-p)^n.
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2], &[3]])]);
        let p = probability(&q, &i, &tid_uniform(&db, 0.5)).unwrap();
        assert!((p - (1.0 - 0.125)).abs() < 1e-12);
    }

    #[test]
    fn dalvi_suciu_example_structure() {
        // Eq. (4)-(9) on the Fig. 1 database with p = 1/2 everywhere.
        // Hand evaluation:
        //   T'(1,2) = 1/2; S'(1,1) = 1/2*0 = 0 (no T fact), so only
        //   S'(1,2) = 1/4 → S''(1) = 1/4; R'(1) = 1/2;
        //   R''(1) = 1/8 → P = 1/8.
        let q = example_query();
        let (db, i) = db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let p = probability(&q, &i, &tid_uniform(&db, 0.5)).unwrap();
        assert!((p - 0.125).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn exact_matches_float() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
            ("F", &[&[2, 9], &[3, 8], &[3, 9]]),
        ]);
        let tid = tid_uniform(&db, 0.25);
        let p = probability(&q, &i, &tid).unwrap();
        let exact: Vec<(Fact, Rational)> = tid
            .iter()
            .map(|(f, _)| (f.clone(), Rational::ratio(1, 4)))
            .collect();
        let pe = probability_exact(&q, &i, &exact).unwrap();
        assert!((p - pe.to_f64()).abs() < 1e-12);
    }

    #[test]
    fn certain_and_impossible_facts() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        assert_eq!(probability(&q, &i, &tid_uniform(&db, 1.0)).unwrap(), 1.0);
        assert_eq!(probability(&q, &i, &tid_uniform(&db, 0.0)).unwrap(), 0.0);
    }

    #[test]
    fn rejects_bad_probability() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]])]);
        let tid = tid_uniform(&db, 1.5);
        assert!(matches!(
            probability(&q, &i, &tid),
            Err(PqeError::InvalidProbability { .. })
        ));
        let tid = tid_uniform(&db, f64::NAN);
        assert!(probability(&q, &i, &tid).is_err());
    }

    #[test]
    fn rejects_non_hierarchical() {
        let q = q_non_hierarchical();
        let i = Interner::new();
        assert!(matches!(
            probability(&q, &i, &[]),
            Err(PqeError::Unify(UnifyError::NotHierarchical(_)))
        ));
        assert!(expected_count(&q, &i, &[]).is_err());
    }

    #[test]
    fn expected_count_single_atom() {
        // E[Q] for Q() :- R(X) over n facts with probability p is n·p.
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2], &[3]])]);
        let e = expected_count(&q, &i, &tid_uniform(&db, 0.25)).unwrap();
        assert!((e - 0.75).abs() < 1e-12);
    }

    #[test]
    fn expected_count_product_structure() {
        // Q() :- E(X,Y), F(Y,Z): each joined pair contributes the
        // product of its two probabilities.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 8], &[2, 9]])]);
        let e = expected_count(&q, &i, &tid_uniform(&db, 0.5)).unwrap();
        // Two assignments, each with probability 1/2 * 1/2.
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_count_with_certain_facts_is_plain_count() {
        let q = example_query();
        let (db, mut i) = db_from_ints(&[
            ("R", &[&[1, 5], &[1, 6]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let e = expected_count(&q, &i, &tid_uniform(&db, 1.0)).unwrap();
        let pattern = q.to_pattern(&mut i);
        let exact = hq_db::count_matches(&db, &pattern).unwrap();
        assert!((e - exact as f64).abs() < 1e-12);
    }

    #[test]
    fn incremental_pqe_tracks_fresh_evaluation() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
            ("F", &[&[2, 9], &[3, 8], &[3, 9]]),
        ]);
        let tid = tid_uniform(&db, 0.5);
        let mut map = PqeSession::<MapRelation<f64>>::new(&i, &tid).unwrap();
        let mut col = PqeSession::<ColumnarRelation<f64>>::new(&i, &tid).unwrap();
        let mut cmp = PqeSession::<CompressedColumnar<f64>>::new(&i, &tid).unwrap();
        let mut sh = PqeSession::<ShardedColumnar<f64>>::with_parallelism(
            &i,
            &tid,
            Parallelism::fine_grained(3),
        )
        .unwrap();
        let mut current = tid.clone();
        current[0].1 = 0.8;
        current[3].1 = 0.1;
        let batch = vec![(current[0].0.clone(), 0.8), (current[3].0.clone(), 0.1)];
        let fresh = probability(&q, &i, &current).unwrap();
        map.update_batch(&i, &batch).unwrap();
        col.update_batch(&i, &batch).unwrap();
        cmp.update_batch(&i, &batch).unwrap();
        sh.update_batch(&i, &batch).unwrap();
        for (p, _) in [
            map.query(&i, &q).unwrap(),
            col.query(&i, &q).unwrap(),
            cmp.query(&i, &q).unwrap(),
            sh.query(&i, &q).unwrap(),
        ] {
            assert_eq!(p.to_bits(), fresh.to_bits());
        }
        // Invalid probabilities are rejected before any state changes.
        let before = map.session().facts();
        assert!(map.update(&i, &tid[0].0, 1.5).is_err());
        assert!(map.update_batch(&i, &[(tid[1].0.clone(), -0.5)]).is_err());
        assert_eq!(map.session().facts(), before);
    }

    #[test]
    fn pqe_session_shares_plans_and_tracks_updates() {
        let q_full = q_hierarchical();
        let q_sub = Query::new(&[("E", &["X", "Y"])]).unwrap();
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
            ("F", &[&[2, 9], &[3, 8], &[3, 9]]),
        ]);
        let tid = tid_uniform(&db, 0.5);
        let mut map = PqeSession::<MapRelation<f64>>::new(&i, &tid).unwrap();
        let mut col: PqeSession = PqeSession::new(&i, &tid).unwrap();
        let mut sh = PqeSession::<ShardedColumnar<f64>>::with_parallelism(
            &i,
            &tid,
            Parallelism::fine_grained(2),
        )
        .unwrap();
        for q in [&q_full, &q_sub] {
            let (want, want_stats) =
                probability_with_stats_on(Backend::Columnar, q, &i, &tid).unwrap();
            for (p, stats) in [
                map.query(&i, q).unwrap(),
                col.query(&i, q).unwrap(),
                sh.query(&i, q).unwrap(),
            ] {
                assert_eq!(p.to_bits(), want.to_bits());
                assert_eq!(stats, want_stats);
            }
        }
        // The sub-query shares E's scan+fold with the full query.
        let independent: u64 = [&q_full, &q_sub]
            .iter()
            .map(|q| {
                probability_with_stats_on(Backend::Columnar, q, &i, &tid)
                    .unwrap()
                    .1
                    .total_ops()
            })
            .sum();
        assert!(col.session().ops_performed() < independent);
        // An update flows through; invalid probabilities are rejected.
        let mut current = tid.clone();
        current[0].1 = 0.9;
        col.update(&i, &current[0].0, 0.9).unwrap();
        let (fresh, _) =
            probability_with_stats_on(Backend::Columnar, &q_full, &i, &current).unwrap();
        let (got, _) = col.query(&i, &q_full).unwrap();
        assert_eq!(got.to_bits(), fresh.to_bits());
        assert!(col.update(&i, &current[0].0, 1.5).is_err());
    }

    #[test]
    fn expectation_bounds_probability() {
        // Markov: P(Q) = P(count ≥ 1) ≤ E[count].
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
            ("F", &[&[2, 9], &[3, 8], &[3, 9]]),
        ]);
        let tid = tid_uniform(&db, 0.35);
        let p = probability(&q, &i, &tid).unwrap();
        let e = expected_count(&q, &i, &tid).unwrap();
        assert!(p <= e + 1e-12, "P={p} E={e}");
    }
}
