//! Shapley-value front-end (Theorem 5.16 + the Section 5.6 reduction).
//!
//! The database splits into exogenous facts `D_x` (always present) and
//! endogenous facts `D_n`. Algorithm 1 over the `#Sat` 2-monoid
//! computes the vector `#Sat(k)` — the number of size-`k` subsets
//! `D' ⊆ D_n` with `Q(D_x ∪ D')` true — in time
//! `O((|D_x| + |D_n|) · |D_n|²)`. The Shapley value of a fact `f` then
//! follows from the Livshits–Bertossi–Kimelfeld–Sebag reduction:
//!
//! ```text
//! Shapley(f) = Σ_k  k!(n-k-1)!/n! · ( #Sat_{D_x∪{f}, D_n\{f}}(k)
//!                                   − #Sat_{D_x,     D_n\{f}}(k) )
//! ```
//!
//! All arithmetic is exact: counts are [`Natural`]s and Shapley values
//! exact [`Rational`]s.

use crate::engine::{evaluate_on, UnifyError};
use crate::serving::{ServingBackend, ServingError, ServingSession, UpdateOutcome};
use crate::storage::{Exec, Parallelism};
use hq_arith::{binomial, shapley_weight, Natural, Rational};
use hq_db::{Fact, Interner};
use hq_monoid::{SatCountMonoid, SatVec, TwoMonoid};
use hq_query::Query;
use std::collections::BTreeSet;
use std::fmt;

/// Errors specific to Shapley inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapleyError {
    /// A fact appears in both the exogenous and endogenous lists.
    OverlappingParts {
        /// Rendered fact.
        fact: String,
    },
    /// The designated fact is not endogenous.
    NotEndogenous {
        /// Rendered fact.
        fact: String,
    },
    /// Planning or annotation failed.
    Unify(UnifyError),
}

impl fmt::Display for ShapleyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapleyError::OverlappingParts { fact } => {
                write!(f, "fact {fact} is both exogenous and endogenous")
            }
            ShapleyError::NotEndogenous { fact } => {
                write!(f, "fact {fact} is not endogenous")
            }
            ShapleyError::Unify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShapleyError {}

impl From<UnifyError> for ShapleyError {
    fn from(e: UnifyError) -> Self {
        ShapleyError::Unify(e)
    }
}

fn check_disjoint(
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
) -> Result<(), ShapleyError> {
    let exo: BTreeSet<&Fact> = exogenous.iter().collect();
    for f in endogenous {
        if exo.contains(f) {
            return Err(ShapleyError::OverlappingParts {
                fact: f.display(interner).to_string(),
            });
        }
    }
    Ok(())
}

/// Computes the full `#Sat` vector for `(Q, D_x, D_n)`:
/// `result.t[k] = #Sat(k)` and `result.f[k]` its complement, for
/// `k = 0..=|D_n|`.
///
/// Endogenous facts over relations the query does not mention cannot
/// change `Q`'s truth, but their subsets still count; they are folded
/// in as a free binomial choice so that `t[k] + f[k] = C(|D_n|, k)`
/// always holds.
///
/// # Errors
/// Rejects overlapping parts, non-hierarchical queries, and schema
/// mismatches.
pub fn sat_counts(
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
) -> Result<SatVec, ShapleyError> {
    sat_counts_on(Exec::default(), q, interner, exogenous, endogenous)
}

/// [`sat_counts`] under an explicit [`Exec`] choice (counts are
/// bit-identical on every backend and degree).
///
/// # Errors
/// Same failure modes as [`sat_counts`].
pub fn sat_counts_on(
    exec: Exec,
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
) -> Result<SatVec, ShapleyError> {
    check_disjoint(interner, exogenous, endogenous)?;
    let n = endogenous.len();
    let monoid = SatCountMonoid::new(n);
    // Split endogenous facts into those visible to the query and those
    // over unrelated relations.
    let query_rels: BTreeSet<hq_db::Sym> = q
        .atoms()
        .iter()
        .filter_map(|a| interner.get(&a.rel))
        .collect();
    let (visible, invisible): (Vec<&Fact>, Vec<&Fact>) =
        endogenous.iter().partition(|f| query_rels.contains(&f.rel));
    let invisible_count = invisible.len() as u64;
    let (one, star) = (monoid.one(), monoid.star());
    let rows = exogenous
        .iter()
        .map(|f| (f, &one))
        .chain(visible.into_iter().map(|f| (f, &star)))
        .map(|(f, k)| (f.rel, &f.tuple, k.clone()));
    let (mut vec, _) = evaluate_on(exec, &monoid, q, interner, rows)?;
    if invisible_count > 0 {
        // Convolve with the free binomial choice over invisible facts.
        let row: Vec<Natural> = (0..=n as u64)
            .map(|k| binomial(invisible_count, k))
            .collect();
        vec = convolve_free(&vec, &row, n);
    }
    Ok(vec)
}

/// Convolves both components of `v` with the binomial row of freely
/// choosable facts (truncated at `max_k`).
fn convolve_free(v: &SatVec, row: &[Natural], max_k: usize) -> SatVec {
    let conv = |a: &[Natural]| {
        let mut out = vec![Natural::zero(); max_k + 1];
        for (i, av) in a.iter().enumerate() {
            if av.is_zero() {
                continue;
            }
            for (j, rv) in row.iter().enumerate() {
                if i + j > max_k {
                    break;
                }
                out[i + j].add_assign_ref(&av.mul_ref(rv));
            }
        }
        out
    };
    SatVec {
        t: conv(&v.t),
        f: conv(&v.f),
    }
}

/// How a fact participates in a maintained `#Sat` instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactRole {
    /// Always present (`D_x`): annotation `1`.
    Exogenous,
    /// Subset-counted (`D_n`): annotation `★`.
    Endogenous,
    /// Not in the database: annotation `0`.
    Absent,
}

/// A multi-query `#Sat` serving session — the Shapley substrate as a
/// plan builder: many (possibly overlapping) queries over one
/// exogenous/endogenous split share intermediate relations through the
/// session's plan cache, and role flips ([`SatSession::set_fact`])
/// invalidate only the cached intermediates whose relations changed.
/// Returned vectors and [`crate::EngineStats`] are bit-identical to a
/// fresh [`sat_counts`] run of the current state (for queries
/// mentioning every endogenous relation — invisible facts are the
/// caller's binomial convolution on top, exactly as [`sat_counts`]
/// folds them in).
pub struct SatSession<R: ServingBackend<Ann = SatVec> = crate::ColumnarRelation<SatVec>> {
    monoid: SatCountMonoid,
    session: ServingSession<SatCountMonoid, R>,
}

impl<R: ServingBackend<Ann = SatVec>> SatSession<R> {
    /// Builds the session with vectors truncated at `capacity` (the
    /// largest endogenous set the instance will ever hold) and an
    /// explicit [`Parallelism`] degree.
    ///
    /// # Errors
    /// Rejects overlapping exogenous/endogenous parts.
    pub fn with_parallelism(
        interner: &Interner,
        exogenous: &[Fact],
        endogenous: &[Fact],
        capacity: usize,
        par: Parallelism,
    ) -> Result<Self, ShapleyError> {
        check_disjoint(interner, exogenous, endogenous)?;
        let monoid = SatCountMonoid::new(capacity);
        let facts: Vec<(Fact, SatVec)> = exogenous
            .iter()
            .map(|f| (f.clone(), monoid.one()))
            .chain(endogenous.iter().map(|f| (f.clone(), monoid.star())))
            .collect();
        let session = ServingSession::with_parallelism(monoid, interner, facts, par).map_err(
            |e| match e {
                ServingError::Annotate(a) => ShapleyError::Unify(UnifyError::Annotate(a)),
                ServingError::NotHierarchical(n) => {
                    ShapleyError::Unify(UnifyError::NotHierarchical(n))
                }
                // Construction never routes through a server write
                // queue and evaluates no recursive plan; the session
                // is built directly.
                e @ (ServingError::WriteQueueFull { .. } | ServingError::Fixpoint(_)) => {
                    unreachable!("session construction cannot fail this way: {e}")
                }
            },
        )?;
        Ok(SatSession { session, monoid })
    }

    /// Builds the session sequentially.
    ///
    /// # Errors
    /// Rejects overlapping exogenous/endogenous parts.
    pub fn new(
        interner: &Interner,
        exogenous: &[Fact],
        endogenous: &[Fact],
        capacity: usize,
    ) -> Result<Self, ShapleyError> {
        Self::with_parallelism(
            interner,
            exogenous,
            endogenous,
            capacity,
            Parallelism::default(),
        )
    }

    /// The `#Sat` vector for one query, sharing sub-plans with every
    /// query this session has served.
    ///
    /// # Errors
    /// Rejects non-hierarchical queries and schema mismatches.
    pub fn query(&mut self, interner: &Interner, q: &Query) -> Result<SatVec, ServingError> {
        Ok(self.session.query(interner, q)?.0)
    }

    /// Re-classifies one fact's role, repairing the caches
    /// incrementally.
    ///
    /// # Errors
    /// Schema mismatches with the stored relation.
    pub fn set_fact(
        &mut self,
        interner: &Interner,
        fact: &Fact,
        role: FactRole,
    ) -> Result<UpdateOutcome, ServingError> {
        let ann = match role {
            FactRole::Exogenous => self.monoid.one(),
            FactRole::Endogenous => self.monoid.star(),
            FactRole::Absent => self.monoid.zero(),
        };
        self.session.update(interner, fact, ann)
    }

    /// The underlying session (sharing/caching introspection).
    pub fn session(&self) -> &ServingSession<SatCountMonoid, R> {
        &self.session
    }

    /// Bounds the session's node cache (see
    /// [`ServingSession::set_cache_budget`]). Only the serving knobs
    /// are forwarded mutably — the session itself stays behind the
    /// wrapper so fact-role validation cannot be bypassed.
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

/// Computes the exact Shapley value of the endogenous fact `fact`.
///
/// ```
/// use hq_arith::Rational;
/// use hq_db::db_from_ints;
/// use hq_query::parse_query;
///
/// // Two interchangeable witnesses for Q() :- R(X): each fact gets 1/2.
/// let q = parse_query("Q() :- R(X)").unwrap();
/// let (db, i) = db_from_ints(&[("R", &[&[1], &[2]])]);
/// let endo = db.facts();
/// let v = hq_unify::shapley::shapley_value(&q, &i, &[], &endo, &endo[0]).unwrap();
/// assert_eq!(v, Rational::ratio(1, 2));
/// ```
///
/// # Errors
/// Rejects inputs where `fact` is not endogenous, parts overlap, the
/// query is non-hierarchical, or schemas mismatch.
pub fn shapley_value(
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
    fact: &Fact,
) -> Result<Rational, ShapleyError> {
    shapley_value_on(Exec::default(), q, interner, exogenous, endogenous, fact)
}

/// [`shapley_value`] under an explicit [`Exec`] choice.
///
/// # Errors
/// Same failure modes as [`shapley_value`].
pub fn shapley_value_on(
    exec: Exec,
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
    fact: &Fact,
) -> Result<Rational, ShapleyError> {
    check_disjoint(interner, exogenous, endogenous)?;
    let n = endogenous.len() as u64;
    let Some(pos) = endogenous.iter().position(|f| f == fact) else {
        return Err(ShapleyError::NotEndogenous {
            fact: fact.display(interner).to_string(),
        });
    };
    let mut rest = endogenous.to_vec();
    rest.remove(pos);
    let mut exo_with = exogenous.to_vec();
    exo_with.push(fact.clone());
    let with_f = sat_counts_on(exec, q, interner, &exo_with, &rest)?;
    let without_f = sat_counts_on(exec, q, interner, exogenous, &rest)?;
    let mut total = Rational::zero();
    for k in 0..n {
        let w = shapley_weight(n, k);
        let a = Rational::from_naturals(with_f.t[k as usize].clone(), Natural::one());
        let b = Rational::from_naturals(without_f.t[k as usize].clone(), Natural::one());
        total = &total + &(&w * &(&a - &b));
    }
    Ok(total)
}

/// Computes the Shapley value of every endogenous fact (in input
/// order).
///
/// # Errors
/// Same failure modes as [`shapley_value`].
pub fn shapley_values(
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
) -> Result<Vec<(Fact, Rational)>, ShapleyError> {
    shapley_values_on(Exec::default(), q, interner, exogenous, endogenous)
}

/// [`shapley_values`] under an explicit [`Exec`] choice (the degree
/// shards each evaluation's rules; the per-fact loop stays
/// sequential).
///
/// # Errors
/// Same failure modes as [`shapley_value`].
pub fn shapley_values_on(
    exec: Exec,
    q: &Query,
    interner: &Interner,
    exogenous: &[Fact],
    endogenous: &[Fact],
) -> Result<Vec<(Fact, Rational)>, ShapleyError> {
    endogenous
        .iter()
        .map(|f| {
            shapley_value_on(exec, q, interner, exogenous, endogenous, f).map(|v| (f.clone(), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MapRelation;
    use hq_db::db_from_ints;
    use hq_query::{q_hierarchical, q_non_hierarchical, Query};

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn sat_counts_single_atom() {
        // Q() :- R(X), D_n = {R(1), R(2)}, D_x = ∅:
        // #Sat(0)=0, #Sat(1)=2, #Sat(2)=1.
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2]])]);
        let endo = db.facts();
        let v = sat_counts(&q, &i, &[], &endo).unwrap();
        assert_eq!(v.t, vec![nat(0), nat(2), nat(1)]);
        assert_eq!(v.f, vec![nat(1), nat(0), nat(0)]);
    }

    #[test]
    fn sat_session_matches_fresh_counts_through_role_flips() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[1, 3]]), ("F", &[&[2, 9], &[3, 8]])]);
        let endo = db.facts();
        let mut session: SatSession = SatSession::new(&i, &[], &endo, endo.len()).unwrap();
        let fresh = sat_counts_on(crate::Backend::Columnar.into(), &q, &i, &[], &endo).unwrap();
        assert_eq!(session.query(&i, &q).unwrap(), fresh);
        // Flip one fact to exogenous: the maintained session must match
        // a fresh evaluation of the flipped split.
        let exo = vec![endo[0].clone()];
        let rest: Vec<Fact> = endo[1..].to_vec();
        session.set_fact(&i, &endo[0], FactRole::Exogenous).unwrap();
        let fresh = sat_counts_on(crate::Backend::Columnar.into(), &q, &i, &exo, &rest).unwrap();
        // Capacity differs (|D_n| shrank), so compare the shared prefix.
        let got = session.query(&i, &q).unwrap();
        for k in 0..fresh.t.len() {
            assert_eq!(got.t[k], fresh.t[k], "t[{k}]");
        }
        // Overlapping parts are rejected at construction.
        assert!(SatSession::<crate::ColumnarRelation<SatVec>>::new(
            &i,
            &endo[..1],
            &endo,
            endo.len()
        )
        .is_err());
    }

    #[test]
    fn sat_totals_are_binomials() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[1, 3]]), ("F", &[&[2, 9], &[3, 8]])]);
        let endo = db.facts();
        let v = sat_counts(&q, &i, &[], &endo).unwrap();
        for k in 0..=4u64 {
            assert_eq!(v.total(k as usize), binomial(4, k), "k={k}");
        }
    }

    #[test]
    fn symmetric_facts_split_evenly() {
        // Q() :- R(X) with two symmetric endogenous facts: each has
        // Shapley value 1/2 (efficiency + symmetry).
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2]])]);
        let endo = db.facts();
        for f in &endo {
            let v = shapley_value(&q, &i, &[], &endo, f).unwrap();
            assert_eq!(v, Rational::ratio(1, 2), "{}", f.display(&i));
        }
    }

    #[test]
    fn efficiency_axiom() {
        // Values over all endogenous facts sum to
        // Q(D_x ∪ D_n) − Q(D_x) ∈ {0, 1} (as 0/1 indicators).
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[4, 5]]), ("F", &[&[2, 3], &[5, 6]])]);
        let endo = db.facts();
        let vals = shapley_values(&q, &i, &[], &endo).unwrap();
        let total = vals.iter().fold(Rational::zero(), |acc, (_, v)| &acc + v);
        assert_eq!(
            total,
            Rational::one(),
            "query true on full DB, false on empty"
        );
    }

    #[test]
    fn exogenous_witness_zeroes_everything() {
        // If an exogenous witness already satisfies Q, no endogenous
        // fact ever flips it: all Shapley values are 0.
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2], &[3]])]);
        let facts = db.facts();
        let (exo, endo) = facts.split_at(1);
        let vals = shapley_values(&q, &i, exo, endo).unwrap();
        for (f, v) in vals {
            assert_eq!(v, Rational::zero(), "{}", f.display(&i));
        }
    }

    #[test]
    fn conjunction_needs_both_facts() {
        // Q() :- E(X,Y), F(Y,Z) with one E and one F fact: both needed,
        // each worth 1/2.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
        let endo = db.facts();
        let vals = shapley_values(&q, &i, &[], &endo).unwrap();
        assert_eq!(vals.len(), 2);
        for (_, v) in vals {
            assert_eq!(v, Rational::ratio(1, 2));
        }
    }

    #[test]
    fn asymmetric_contributions() {
        // Q() :- E(X,Y), F(Y,Z):
        //   E(1,2) joins F(2,8) and F(2,9); all three endogenous.
        //   E is critical (in every witness); the two F's are
        //   interchangeable. Shapley(E) = 2/3, Shapley(F_i) = 1/6.
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 8], &[2, 9]])]);
        let endo = db.facts();
        let vals = shapley_values(&q, &i, &[], &endo).unwrap();
        let mut by_rel: Vec<(String, Rational)> = vals
            .iter()
            .map(|(f, v)| (f.display(&i).to_string(), v.clone()))
            .collect();
        by_rel.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(by_rel[0].1, Rational::ratio(2, 3), "{:?}", by_rel[0].0);
        assert_eq!(by_rel[1].1, Rational::ratio(1, 6));
        assert_eq!(by_rel[2].1, Rational::ratio(1, 6));
    }

    #[test]
    fn invisible_endogenous_facts_keep_totals() {
        // An endogenous fact over a relation the query never mentions
        // must not change Shapley values but must keep #Sat totals
        // binomial.
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1]]), ("Zed", &[&[42]])]);
        let endo = db.facts();
        let v = sat_counts(&q, &i, &[], &endo).unwrap();
        for k in 0..=2u64 {
            assert_eq!(v.total(k as usize), binomial(2, k));
        }
        let r_fact = endo.iter().find(|f| f.rel == i.get("R").unwrap()).unwrap();
        let z_fact = endo
            .iter()
            .find(|f| f.rel == i.get("Zed").unwrap())
            .unwrap();
        assert_eq!(
            shapley_value(&q, &i, &[], &endo, r_fact).unwrap(),
            Rational::one()
        );
        assert_eq!(
            shapley_value(&q, &i, &[], &endo, z_fact).unwrap(),
            Rational::zero()
        );
    }

    #[test]
    fn incremental_sat_counts_track_fresh_runs() {
        let q = q_hierarchical();
        let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[1, 3]]), ("F", &[&[2, 9], &[3, 8]])]);
        let endo = db.facts();
        let n = endo.len();
        let mut inc = SatSession::<MapRelation<SatVec>>::new(&i, &[], &endo, n).unwrap();
        assert_eq!(
            inc.query(&i, &q).unwrap(),
            sat_counts(&q, &i, &[], &endo).unwrap()
        );
        // Promote one fact to exogenous: compare to a fresh run over
        // the same split, padded to the construction capacity (the
        // fresh vector is sized by |D_n|, the maintained one by the
        // fixed capacity).
        let (exo, rest) = (vec![endo[0].clone()], endo[1..].to_vec());
        inc.set_fact(&i, &endo[0], FactRole::Exogenous).unwrap();
        let fresh = sat_counts(&q, &i, &exo, &rest).unwrap();
        let got = inc.query(&i, &q).unwrap();
        assert_eq!(got.t[..fresh.t.len()], fresh.t);
        assert!(got.t[fresh.t.len()..].iter().all(Natural::is_zero));
        // Delete it outright.
        inc.set_fact(&i, &endo[0], FactRole::Absent).unwrap();
        let fresh = sat_counts(&q, &i, &[], &rest).unwrap();
        assert_eq!(inc.query(&i, &q).unwrap().t[..fresh.t.len()], fresh.t);
        // Overlapping parts are rejected at construction.
        assert!(SatSession::<MapRelation<SatVec>>::new(&i, &endo[..1], &endo, n).is_err());
    }

    #[test]
    fn rejects_overlap_and_non_endogenous() {
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let (db, i) = db_from_ints(&[("R", &[&[1], &[2]])]);
        let facts = db.facts();
        assert!(matches!(
            sat_counts(&q, &i, &facts[..1], &facts),
            Err(ShapleyError::OverlappingParts { .. })
        ));
        assert!(matches!(
            shapley_value(&q, &i, &facts[..1], &facts[1..], &facts[0]),
            Err(ShapleyError::NotEndogenous { .. })
        ));
    }

    #[test]
    fn rejects_non_hierarchical() {
        let q = q_non_hierarchical();
        let i = Interner::new();
        assert!(matches!(
            sat_counts(&q, &i, &[], &[]),
            Err(ShapleyError::Unify(UnifyError::NotHierarchical(_)))
        ));
    }
}
