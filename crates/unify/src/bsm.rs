//! Bag-Set Maximization front-end (Theorem 5.11).
//!
//! Given `(D, D_r, θ)`, computes — for *every* budget `i ≤ θ` at once —
//! the maximum bag-set value `Q(D')` over valid repairs
//! `D ⊆ D' ⊆ D ∪ D_r` with `|D' \ D| ≤ i`, in time
//! `O((|D| + |D_r|) · |D_r|²)`.
//!
//! The ψ-encoding of Definition 5.10 annotates facts already in `D`
//! with the all-ones vector `1` (multiplicity 1 for free), facts only
//! in `D_r` with `★ = (0, 1, 1, …)` (multiplicity 1 after paying one
//! budget unit), and everything else implicitly with `0`.

use crate::engine::{evaluate_on, fact_rows, EngineStats, UnifyError};
use crate::serving::{ServingBackend, ServingError, ServingSession, UpdateOutcome};
use crate::storage::{ColumnarRelation, Exec, Parallelism};
use hq_db::{Database, Fact, Interner};
use hq_monoid::{BagMaxMonoid, BudgetVec, TwoMonoid};
use hq_query::Query;

/// The result of a Bag-Set Maximization run: the full budget curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsmSolution {
    /// `curve.get(i)` is the best achievable `Q(D')` with ≤ `i` added facts.
    pub curve: BudgetVec,
    /// Engine instrumentation.
    pub stats: EngineStats,
}

impl BsmSolution {
    /// The answer to the Bag-Set Maximization instance: `q(θ)`.
    pub fn optimum(&self) -> u64 {
        self.curve.get(self.curve.len() - 1)
    }

    /// The best value within budget `i`.
    ///
    /// # Panics
    /// Panics if `i > θ`.
    pub fn value_at(&self, i: usize) -> u64 {
        self.curve.get(i)
    }
}

/// Builds the ψ-annotated fact list of Definition 5.10.
///
/// Facts present in `d` get `1`; facts in `d_r` but not `d` get `★`.
/// The encoding is restricted to relations mentioned by the query —
/// other facts cannot affect a self-join-free query.
pub fn psi_encoding(monoid: &BagMaxMonoid, d: &Database, d_r: &Database) -> Vec<(Fact, BudgetVec)> {
    let mut out = Vec::with_capacity(d.fact_count() + d_r.fact_count());
    for f in d.facts() {
        out.push((f, monoid.one()));
    }
    for f in d_r.facts() {
        if !d.contains(&f) {
            out.push((f, monoid.star()));
        }
    }
    out
}

/// Solves Bag-Set Maximization for a hierarchical query.
///
/// # Errors
/// Returns [`UnifyError::NotHierarchical`] for non-hierarchical queries
/// (for which the problem is NP-complete — Theorem 4.4) and
/// [`UnifyError::Annotate`] for schema mismatches.
pub fn maximize(
    q: &Query,
    interner: &Interner,
    d: &Database,
    d_r: &Database,
    theta: usize,
) -> Result<BsmSolution, UnifyError> {
    maximize_on(Exec::default(), q, interner, d, d_r, theta)
}

/// [`maximize`] under an explicit [`Exec`] choice. Every backend and
/// degree returns identical curves and stats.
///
/// # Errors
/// Same failure modes as [`maximize`].
pub fn maximize_on(
    exec: Exec,
    q: &Query,
    interner: &Interner,
    d: &Database,
    d_r: &Database,
    theta: usize,
) -> Result<BsmSolution, UnifyError> {
    let monoid = BagMaxMonoid::new(theta);
    // Fused ψ-encoding: stream the rows straight from the two
    // databases, without materialising a fact list. Per relation, the
    // base facts (annotation `1̄`) and the novel repair facts
    // (annotation `★`) are two sorted streams; merging them here keeps
    // every slot's rows sorted, so the columnar build skips its
    // re-sort entirely.
    let one = monoid.one();
    let star = monoid.star();
    let (one, star) = (&one, &star);
    let syms: std::collections::BTreeSet<hq_db::Sym> = d
        .relations()
        .map(|(s, _)| s)
        .chain(d_r.relations().map(|(s, _)| s))
        .collect();
    let rows = syms.into_iter().flat_map(move |sym| {
        let base = d.relation(sym).map(|r| r.iter()).into_iter().flatten();
        let repairs = d_r
            .relation(sym)
            .map(|r| r.iter())
            .into_iter()
            .flatten()
            .filter(move |t| !d.relation(sym).is_some_and(|r| r.contains(t)));
        MergedPsi {
            base: base.peekable(),
            repairs: repairs.peekable(),
            one,
            star,
        }
        .map(move |(t, k)| (sym, t, k))
    });
    let (curve, stats) = evaluate_on(exec, &monoid, q, interner, rows)?;
    debug_assert!(curve.is_monotone(), "output curve must be monotone");
    Ok(BsmSolution { curve, stats })
}

/// Merges a relation's sorted base-fact and repair-fact streams into
/// one sorted `(tuple, ψ-annotation)` stream (the streams are disjoint:
/// repair candidates already present in `D` are filtered out upstream).
struct MergedPsi<'a, A, B>
where
    A: Iterator<Item = &'a hq_db::Tuple>,
    B: Iterator<Item = &'a hq_db::Tuple>,
{
    base: std::iter::Peekable<A>,
    repairs: std::iter::Peekable<B>,
    one: &'a BudgetVec,
    star: &'a BudgetVec,
}

impl<'a, A, B> Iterator for MergedPsi<'a, A, B>
where
    A: Iterator<Item = &'a hq_db::Tuple>,
    B: Iterator<Item = &'a hq_db::Tuple>,
{
    type Item = (&'a hq_db::Tuple, BudgetVec);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.base.peek(), self.repairs.peek()) {
            (Some(&b), Some(&r)) => {
                if b <= r {
                    self.base.next();
                    Some((b, self.one.clone()))
                } else {
                    self.repairs.next();
                    Some((r, self.star.clone()))
                }
            }
            (Some(_), None) => self.base.next().map(|t| (t, self.one.clone())),
            (None, Some(_)) => self.repairs.next().map(|t| (t, self.star.clone())),
            (None, None) => None,
        }
    }
}

/// How a fact participates in a maintained Bag-Set Maximization
/// instance — the three ψ-encoding classes of Definition 5.10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsiClass {
    /// The fact is in `D`: annotation `1̄` (multiplicity 1 for free).
    Base,
    /// The fact is a repair candidate in `D_r \ D`: annotation `★`
    /// (multiplicity 1 after paying one budget unit).
    Repair,
    /// The fact is in neither database: annotation `0` (absent).
    Absent,
}

/// A multi-query Bag-Set Maximization serving session over one
/// `(D, D_r, θ)` instance: many (possibly overlapping) queries share
/// intermediate ψ-annotated relations through the session's plan
/// cache, and ψ-class reassignments ([`BsmSession::set_fact`])
/// invalidate only the cached intermediates whose relations changed.
/// Every returned curve and [`EngineStats`] is bit-identical to a
/// fresh [`maximize`] run of the current state. `θ` is fixed at
/// construction (it sizes the monoid's truncated vectors).
pub struct BsmSession<R: ServingBackend<Ann = BudgetVec> = ColumnarRelation<BudgetVec>> {
    monoid: BagMaxMonoid,
    session: ServingSession<BagMaxMonoid, R>,
}

impl<R: ServingBackend<Ann = BudgetVec>> BsmSession<R> {
    /// Builds the session with an explicit [`Parallelism`] degree
    /// (the columnar layout shards its rules; bit-identical
    /// everywhere).
    ///
    /// # Errors
    /// Rejects inputs that give one relation two different arities.
    pub fn with_parallelism(
        interner: &Interner,
        d: &Database,
        d_r: &Database,
        theta: usize,
        par: Parallelism,
    ) -> Result<Self, ServingError> {
        let monoid = BagMaxMonoid::new(theta);
        let facts = psi_encoding(&monoid, d, d_r);
        Ok(BsmSession {
            session: ServingSession::with_parallelism(monoid, interner, facts, par)?,
            monoid,
        })
    }

    /// Builds the session sequentially.
    ///
    /// # Errors
    /// Rejects inputs that give one relation two different arities.
    pub fn new(
        interner: &Interner,
        d: &Database,
        d_r: &Database,
        theta: usize,
    ) -> Result<Self, ServingError> {
        Self::with_parallelism(interner, d, d_r, theta, Parallelism::default())
    }

    /// The full budget curve for one query, sharing sub-plans with
    /// every query this session has served.
    ///
    /// # Errors
    /// Rejects non-hierarchical queries and schema mismatches.
    pub fn query(&mut self, interner: &Interner, q: &Query) -> Result<BsmSolution, ServingError> {
        let (curve, stats) = self.session.query(interner, q)?;
        Ok(BsmSolution { curve, stats })
    }

    /// Re-classifies one fact (`1̄`, `★` or `0` — see [`PsiClass`]),
    /// repairing the caches incrementally.
    ///
    /// # Errors
    /// Schema mismatches with the stored relation.
    pub fn set_fact(
        &mut self,
        interner: &Interner,
        fact: &Fact,
        class: PsiClass,
    ) -> Result<UpdateOutcome, ServingError> {
        let ann = match class {
            PsiClass::Base => self.monoid.one(),
            PsiClass::Repair => self.monoid.star(),
            PsiClass::Absent => self.monoid.zero(),
        };
        self.session.update(interner, fact, ann)
    }

    /// The underlying session (sharing/caching introspection).
    pub fn session(&self) -> &ServingSession<BagMaxMonoid, R> {
        &self.session
    }

    /// Bounds the session's node cache (see
    /// [`ServingSession::set_cache_budget`]). Only the serving knobs
    /// are forwarded mutably — the session itself stays behind the
    /// wrapper so ψ-class validation cannot be bypassed.
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

/// A Bag-Set Maximization solution carrying an optimal repair per
/// budget, not just its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsmRepairSolution {
    /// Witness-carrying budget curve.
    pub curve: hq_monoid::WitnessVec,
    /// The repair-candidate facts referenced by the curve's ids.
    pub candidates: Vec<Fact>,
    /// Engine instrumentation.
    pub stats: EngineStats,
}

impl BsmRepairSolution {
    /// The best value within budget `i`.
    pub fn value_at(&self, i: usize) -> u64 {
        self.curve.value_at(i)
    }

    /// One optimal repair (facts to add) for budget `i`.
    pub fn repair_at(&self, i: usize) -> Vec<Fact> {
        self.curve
            .facts_at(i)
            .iter()
            .map(|&id| self.candidates[id as usize].clone())
            .collect()
    }
}

/// Solves Bag-Set Maximization *and* extracts an optimal repair set
/// for every budget `i ≤ θ`, by running Algorithm 1 over the
/// witness-tracking variant of the Definition 5.9 monoid. Same
/// asymptotics as [`maximize`] with an extra `O(θ)` factor on the
/// convolution constants.
///
/// ```
/// use hq_db::{db_from_ints, Database, Tuple};
/// use hq_query::parse_query;
///
/// let q = parse_query("Q() :- R(X)").unwrap();
/// let (d, i) = db_from_ints(&[("R", &[&[1]])]);
/// let (d_r, _) = db_from_ints(&[("R", &[&[2], &[3]])]);
/// let sol = hq_unify::bsm::maximize_with_repair(&q, &i, &d, &d_r, 1).unwrap();
/// assert_eq!(sol.value_at(1), 2);
/// assert_eq!(sol.repair_at(1).len(), 1); // one bought fact suffices
/// ```
///
/// # Errors
/// Same failure modes as [`maximize`].
pub fn maximize_with_repair(
    q: &Query,
    interner: &Interner,
    d: &Database,
    d_r: &Database,
    theta: usize,
) -> Result<BsmRepairSolution, UnifyError> {
    maximize_with_repair_on(Exec::default(), q, interner, d, d_r, theta)
}

/// [`maximize_with_repair`] under an explicit [`Exec`] choice.
///
/// # Errors
/// Same failure modes as [`maximize`].
pub fn maximize_with_repair_on(
    exec: Exec,
    q: &Query,
    interner: &Interner,
    d: &Database,
    d_r: &Database,
    theta: usize,
) -> Result<BsmRepairSolution, UnifyError> {
    use hq_monoid::BagMaxWitnessMonoid;
    let monoid = BagMaxWitnessMonoid::new(theta);
    let candidates: Vec<Fact> = d_r.facts().into_iter().filter(|f| !d.contains(f)).collect();
    let mut facts = Vec::with_capacity(d.fact_count() + candidates.len());
    for f in d.facts() {
        facts.push((f, monoid.one()));
    }
    for (id, f) in candidates.iter().enumerate() {
        facts.push((
            f.clone(),
            monoid.star(u32::try_from(id).expect("fact id fits u32")),
        ));
    }
    let (curve, stats) = evaluate_on(exec, &monoid, q, interner, fact_rows(&facts))?;
    Ok(BsmRepairSolution {
        curve,
        candidates,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Backend, CompressedColumnar, MapRelation};
    use hq_db::{count_matches, db_from_ints, Tuple};
    use hq_query::{example_query, q_non_hierarchical, Query};

    /// The exact instance of Figure 1 with the query of Eq. (1).
    fn fig1() -> (Database, Database, Interner) {
        let (d, mut i) = db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let r = i.intern("R");
        let t = i.intern("T");
        let mut d_r = Database::new();
        d_r.insert_tuple(r, Tuple::ints(&[1, 6]));
        d_r.insert_tuple(r, Tuple::ints(&[1, 7]));
        d_r.insert_tuple(t, Tuple::ints(&[1, 1, 4]));
        d_r.insert_tuple(t, Tuple::ints(&[1, 2, 9]));
        (d, d_r, i)
    }

    #[test]
    fn figure_1_optimum_is_4() {
        // The paper's worked example: θ = 2 → optimum 4, achieved by
        // adding R(1,6) and T(1,2,9).
        let (d, d_r, i) = fig1();
        let sol = maximize(&example_query(), &i, &d, &d_r, 2).unwrap();
        assert_eq!(sol.optimum(), 4);
        // And the whole budget curve: 1 at θ=0, 2 at θ=1.
        assert_eq!(sol.value_at(0), 1);
        assert_eq!(sol.value_at(1), 2);
    }

    #[test]
    fn figure_1_larger_budgets() {
        // θ=3: R(1,6) + R(1,7) + T(1,2,9) → R-block 3 × (S,T)-block 2 = 6.
        // θ=4: all four repair facts → 3 R-facts × (T(1,1,4)+2·T(1,2,*))
        //      = 3 × 3 = 9.
        let (d, d_r, i) = fig1();
        let sol = maximize(&example_query(), &i, &d, &d_r, 4).unwrap();
        assert_eq!(sol.value_at(3), 6);
        assert_eq!(sol.value_at(4), 9);
    }

    #[test]
    fn zero_budget_equals_plain_count() {
        let (d, d_r, mut i) = fig1();
        let q = example_query();
        let sol = maximize(&q, &i, &d, &d_r, 0).unwrap();
        let pattern = q.to_pattern(&mut i);
        assert_eq!(sol.optimum(), hq_db::count_matches(&d, &pattern).unwrap());
    }

    #[test]
    fn budget_beyond_repair_db_saturates() {
        let (d, d_r, i) = fig1();
        let q = example_query();
        let full = maximize(&q, &i, &d, &d_r, 10).unwrap();
        // Adding everything: 3 R-facts × 3 (S⋈T) combos = 9.
        assert_eq!(full.optimum(), 9);
        assert_eq!(full.value_at(4), 9, "all useful facts bought by θ=4");
    }

    #[test]
    fn curve_is_monotone() {
        let (d, d_r, i) = fig1();
        let sol = maximize(&example_query(), &i, &d, &d_r, 6).unwrap();
        assert!(sol.curve.is_monotone());
    }

    #[test]
    fn empty_repair_database() {
        let (d, _, i) = fig1();
        let sol = maximize(&example_query(), &i, &d, &Database::new(), 3).unwrap();
        assert_eq!(sol.optimum(), 1);
    }

    #[test]
    fn repair_facts_already_in_d_cost_nothing() {
        // If D_r duplicates a fact of D, it must be annotated 1, not ★.
        let (d, i) = db_from_ints(&[("R", &[&[1]])]);
        let r = i.get("R").unwrap();
        let mut d_r = Database::new();
        d_r.insert_tuple(r, Tuple::ints(&[1])); // duplicate of D
        d_r.insert_tuple(r, Tuple::ints(&[2]));
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let sol = maximize(&q, &i, &d, &d_r, 1).unwrap();
        assert_eq!(sol.value_at(0), 1);
        assert_eq!(sol.value_at(1), 2);
    }

    #[test]
    fn rejects_non_hierarchical() {
        let (d, d_r, i) = fig1();
        assert!(matches!(
            maximize(&q_non_hierarchical(), &i, &d, &d_r, 2),
            Err(UnifyError::NotHierarchical(_))
        ));
        assert!(matches!(
            maximize_with_repair(&q_non_hierarchical(), &i, &d, &d_r, 2),
            Err(UnifyError::NotHierarchical(_))
        ));
    }

    #[test]
    fn witness_values_match_plain_solver() {
        let (d, d_r, i) = fig1();
        let q = example_query();
        let plain = maximize(&q, &i, &d, &d_r, 4).unwrap();
        let with = maximize_with_repair(&q, &i, &d, &d_r, 4).unwrap();
        for t in 0..=4 {
            assert_eq!(plain.value_at(t), with.value_at(t), "θ'={t}");
        }
    }

    #[test]
    fn extracted_repairs_are_valid_and_optimal() {
        // Materialise each budget's repair and re-count: the value must
        // be exactly the claimed optimum and the repair within budget.
        let (d, d_r, mut i) = fig1();
        let q = example_query();
        let sol = maximize_with_repair(&q, &i, &d, &d_r, 4).unwrap();
        let pattern = q.to_pattern(&mut i);
        for t in 0..=4 {
            let repair = sol.repair_at(t);
            assert!(repair.len() <= t, "budget exceeded at θ'={t}");
            let mut repaired = d.clone();
            for f in &repair {
                assert!(d_r.contains(f), "repair fact must come from D_r");
                assert!(!d.contains(f), "repair fact must be new");
                repaired.insert(f.clone());
            }
            assert_eq!(
                count_matches(&repaired, &pattern).unwrap(),
                sol.value_at(t),
                "θ'={t} repair {repair:?}"
            );
        }
    }

    #[test]
    fn fig1_theta2_repair_pairs_r_with_t() {
        let (d, d_r, i) = fig1();
        let q = example_query();
        let sol = maximize_with_repair(&q, &i, &d, &d_r, 2).unwrap();
        assert_eq!(sol.value_at(2), 4);
        let names: Vec<String> = sol
            .repair_at(2)
            .iter()
            .map(|f| f.display(&i).to_string())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names.iter().any(|n| n.starts_with("R(1, ")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("T(1, ")), "{names:?}");
    }

    #[test]
    fn incremental_bsm_tracks_fresh_maximize() {
        let (d, d_r, i) = fig1();
        let q = example_query();
        let mut inc = BsmSession::<MapRelation<BudgetVec>>::new(&i, &d, &d_r, 2).unwrap();
        let curve = |s: &mut BsmSession<MapRelation<BudgetVec>>| s.query(&i, &q).unwrap().curve;
        assert_eq!(
            curve(&mut inc),
            maximize(&q, &i, &d, &d_r, 2).unwrap().curve
        );
        // Promote a repair candidate into the base database: the curve
        // must match a fresh run over the moved fact.
        let bought = Tuple::ints(&[1, 6]);
        let r = i.get("R").unwrap();
        let fact = Fact::new(r, bought.clone());
        inc.set_fact(&i, &fact, PsiClass::Base).unwrap();
        let mut d2 = d.clone();
        d2.insert(fact.clone());
        assert_eq!(
            curve(&mut inc),
            maximize(&q, &i, &d2, &d_r, 2).unwrap().curve
        );
        // Retract it entirely; D_r loses the candidate.
        inc.set_fact(&i, &fact, PsiClass::Absent).unwrap();
        let mut dr2 = Database::new();
        for f in d_r.facts() {
            if f != fact {
                dr2.insert(f);
            }
        }
        assert_eq!(
            curve(&mut inc),
            maximize(&q, &i, &d, &dr2, 2).unwrap().curve
        );
        // A further reclassification lands identically on the
        // columnar, compressed and two-thread columnar sessions.
        let t = i.get("T").unwrap();
        let changes = [
            (fact.clone(), PsiClass::Repair),
            (Fact::new(t, Tuple::ints(&[1, 2, 9])), PsiClass::Base),
        ];
        let mut col: BsmSession = BsmSession::new(&i, &d, &dr2, 2).unwrap();
        let mut cmp = BsmSession::<CompressedColumnar<BudgetVec>>::new(&i, &d, &dr2, 2).unwrap();
        let mut sh = BsmSession::<ColumnarRelation<BudgetVec>>::with_parallelism(
            &i,
            &d,
            &dr2,
            2,
            Parallelism::fine_grained(2),
        )
        .unwrap();
        for (f, class) in &changes {
            inc.set_fact(&i, f, *class).unwrap();
            col.set_fact(&i, f, *class).unwrap();
            cmp.set_fact(&i, f, *class).unwrap();
            sh.set_fact(&i, f, *class).unwrap();
        }
        let want = curve(&mut inc);
        let mut d3 = d.clone();
        d3.insert(changes[1].0.clone());
        let mut dr3 = dr2.clone();
        dr3.insert(fact.clone());
        assert_eq!(want, maximize(&q, &i, &d3, &dr3, 2).unwrap().curve);
        assert_eq!(col.query(&i, &q).unwrap().curve, want);
        assert_eq!(cmp.query(&i, &q).unwrap().curve, want);
        assert_eq!(sh.query(&i, &q).unwrap().curve, want);
    }

    #[test]
    fn bsm_session_matches_fresh_maximize_through_updates() {
        let (d, d_r, i) = fig1();
        let q = example_query();
        let q_sub = Query::new(&[("S", &["A", "C"])]).unwrap();
        let mut session: BsmSession = BsmSession::new(&i, &d, &d_r, 2).unwrap();
        let fresh = maximize_on(Backend::Columnar.into(), &q, &i, &d, &d_r, 2).unwrap();
        let got = session.query(&i, &q).unwrap();
        assert_eq!(got.curve, fresh.curve);
        assert_eq!(got.stats, fresh.stats);
        // A second (overlapping) query shares the S scan.
        session.query(&i, &q_sub).unwrap();
        // Promote a repair candidate into the base database.
        let r = i.get("R").unwrap();
        let fact = Fact::new(r, Tuple::ints(&[1, 6]));
        session.set_fact(&i, &fact, PsiClass::Base).unwrap();
        let mut d2 = d.clone();
        d2.insert(fact);
        let fresh = maximize_on(Backend::Columnar.into(), &q, &i, &d2, &d_r, 2).unwrap();
        let got = session.query(&i, &q).unwrap();
        assert_eq!(got.curve, fresh.curve);
        assert_eq!(got.stats, fresh.stats);
    }

    #[test]
    fn support_never_grows() {
        let (d, d_r, i) = fig1();
        let sol = maximize(&example_query(), &i, &d, &d_r, 3).unwrap();
        assert!(sol.stats.support_never_grew());
    }
}
