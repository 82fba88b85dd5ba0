//! Differential testing of the multi-query serving session: through
//! arbitrary mixed scripts of (possibly overlapping) queries and
//! update batches — probability drifts, deletions, dynamic inserts
//! with novel domain values — every query served from the shared plan
//! cache must be **indistinguishable** from an independent fresh
//! evaluation of the current state: values bit-for-bit on floats, and
//! the reported [`EngineStats`] (⊕/⊗ op counts *and* support
//! trajectory) equal to the fresh run's — on the ordered-map oracle,
//! the sequential columnar backend, the compressed block tier, and the
//! columnar backend at thread counts 2 and 8.
//!
//! Non-prop pins: a batch of overlapping queries must perform strictly
//! fewer monoid operations than independent `evaluate_encoded` calls
//! (the acceptance bar for common-subexpression sharing), and a cache
//! hit must perform **zero** monoid operations on the shared prefix.
//! On states of at most 12 facts the typed sessions are also checked
//! against the brute-force `hq_baselines` oracles (possible worlds,
//! repair-subset enumeration, `#Sat` by subsets), and the paper's
//! Figure 1 values are pinned on every backend.

mod common;

use common::{random_instance, rows};
use hq_arith::Natural;
use hq_baselines::{bsm_bf, shapley_bf, worlds};
use hq_db::{Database, Fact, Interner, Tuple};
use hq_monoid::{BagMaxMonoid, BudgetVec, CountMonoid, ProbMonoid, TwoMonoid};
use hq_query::{parse_query, Query};
use hq_unify::bsm::{BsmSession, PsiClass};
use hq_unify::engine::EngineStats;
use hq_unify::pqe::PqeSession;
use hq_unify::shapley::{FactRole, SatSession};
use hq_unify::{
    evaluate_encoded, evaluate_on, ColumnarRelation, CompressedAnn, CompressedColumnar, EncodedDb,
    MapRelation, Parallelism, ServingBackend, ServingSession,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Thread counts for the parallel columnar serving sessions.
const THREADS: [usize; 2] = [2, 8];

/// One serving session per backend flavour, all fed the same script.
struct Fleet<M: TwoMonoid>
where
    M::Elem: CompressedAnn,
{
    map: ServingSession<M, MapRelation<M::Elem>>,
    columnar: ServingSession<M, ColumnarRelation<M::Elem>>,
    compressed: ServingSession<M, CompressedColumnar<M::Elem>>,
    sharded: Vec<ServingSession<M, ColumnarRelation<M::Elem>>>,
}

impl<M: TwoMonoid + Clone> Fleet<M>
where
    M::Elem: CompressedAnn,
{
    fn build(monoid: &M, interner: &Interner, facts: &[(Fact, M::Elem)]) -> Self {
        Fleet {
            map: ServingSession::new(monoid.clone(), interner, facts.iter().cloned()).unwrap(),
            columnar: ServingSession::new(monoid.clone(), interner, facts.iter().cloned()).unwrap(),
            compressed: ServingSession::new(monoid.clone(), interner, facts.iter().cloned())
                .unwrap(),
            sharded: THREADS
                .iter()
                .map(|&t| {
                    ServingSession::with_parallelism(
                        monoid.clone(),
                        interner,
                        facts.iter().cloned(),
                        Parallelism::fine_grained(t),
                    )
                    .unwrap()
                })
                .collect(),
        }
    }

    /// Applies one configuration knob to every session of the fleet.
    fn configure(&mut self, f: impl Fn(&mut dyn SessionKnobs)) {
        f(&mut self.map);
        f(&mut self.columnar);
        f(&mut self.compressed);
        for s in &mut self.sharded {
            f(s);
        }
    }

    /// Serves `q` from every session and asserts all agree; returns the
    /// shared `(value, stats)`.
    fn query(&mut self, interner: &Interner, q: &Query) -> (M::Elem, EngineStats) {
        let (want, want_stats) = self.map.query(interner, q).unwrap();
        let (got, stats) = self.columnar.query(interner, q).unwrap();
        assert_eq!(want, got, "columnar session diverged on {q}");
        assert_eq!(want_stats, stats, "columnar stats diverged on {q}");
        let (got, stats) = self.compressed.query(interner, q).unwrap();
        assert_eq!(want, got, "compressed session diverged on {q}");
        assert_eq!(want_stats, stats, "compressed stats diverged on {q}");
        for s in &mut self.sharded {
            let (got, stats) = s.query(interner, q).unwrap();
            assert_eq!(want, got, "sharded session diverged on {q}");
            assert_eq!(want_stats, stats, "sharded stats diverged on {q}");
        }
        (want, want_stats)
    }

    fn update_batch(&mut self, interner: &Interner, batch: &[(Fact, M::Elem)]) {
        self.map.update_batch(interner, batch).unwrap();
        self.columnar.update_batch(interner, batch).unwrap();
        self.compressed.update_batch(interner, batch).unwrap();
        for s in &mut self.sharded {
            s.update_batch(interner, batch).unwrap();
        }
    }
}

/// Backend-erased access to the session knobs the differential suite
/// sweeps (patch threshold, cache budget).
trait SessionKnobs {
    fn set_patch_fraction(&mut self, fraction: f64);
    fn set_cache_budget(&mut self, budget: Option<usize>);
}

impl<M: TwoMonoid, R: ServingBackend<Ann = M::Elem>> SessionKnobs for ServingSession<M, R> {
    fn set_patch_fraction(&mut self, fraction: f64) {
        ServingSession::set_patch_fraction(self, fraction);
    }
    fn set_cache_budget(&mut self, budget: Option<usize>) {
        ServingSession::set_cache_budget(self, budget);
    }
}

/// A family of overlapping queries over `q`'s schema: the full query
/// plus every leading atom prefix (removing atoms of a hierarchical
/// query preserves the hierarchy property: each `at(·)` only shrinks),
/// and the full query once more so at least one script entry is a pure
/// cache hit.
fn query_family(q: &Query) -> Vec<Query> {
    let mut family = vec![q.clone()];
    for len in 1..q.atom_count() {
        let atoms: Vec<(String, Vec<String>)> = q.atoms()[..len]
            .iter()
            .map(|a| {
                (
                    a.rel.clone(),
                    a.vars.iter().map(|&v| q.var_name(v).to_owned()).collect(),
                )
            })
            .collect();
        let borrowed: Vec<(&str, Vec<&str>)> = atoms
            .iter()
            .map(|(r, vs)| (r.as_str(), vs.iter().map(String::as_str).collect()))
            .collect();
        let specs: Vec<(&str, &[&str])> =
            borrowed.iter().map(|(r, vs)| (*r, vs.as_slice())).collect();
        family.push(Query::new(&specs).expect("atom subsets stay hierarchical"));
    }
    family.push(q.clone());
    family
}

/// The query's relations as (symbol, arity), for generating updates.
fn query_rels(q: &Query, interner: &Interner) -> Vec<(hq_db::Sym, usize)> {
    q.atoms()
        .iter()
        .filter_map(|a| interner.get(&a.rel).map(|s| (s, a.vars.len())))
        .collect()
}

/// A random update batch over the query relations: drifts, deletions
/// (`None`), and genuinely new facts — half of them carrying domain
/// values outside the original instance (dictionary-extension path).
fn random_batch(
    rng: &mut StdRng,
    facts: &[Fact],
    query_rels: &[(hq_db::Sym, usize)],
    domain: i64,
) -> Vec<(Fact, Option<f64>)> {
    let len = rng.gen_range(1..=3);
    (0..len)
        .map(|_| {
            let novel = rng.gen_bool(0.3) || facts.is_empty();
            let fact = if novel {
                let (rel, arity) = query_rels[rng.gen_range(0..query_rels.len())];
                let hi = if rng.gen_bool(0.5) {
                    domain
                } else {
                    domain * 4 + 7
                };
                let vals: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..=hi)).collect();
                Fact::new(rel, Tuple::ints(&vals))
            } else {
                facts[rng.gen_range(0..facts.len())].clone()
            };
            let weight = if rng.gen_bool(0.25) {
                None // delete
            } else {
                Some(rng.gen_range(0.01..=1.0))
            };
            (fact, weight)
        })
        .collect()
}

/// Applies a batch to the model state the fresh evaluations run from.
fn apply_to_model<K: Clone>(
    current: &mut std::collections::BTreeMap<Fact, K>,
    batch: &[(Fact, Option<K>)],
) {
    for (fact, v) in batch {
        match v {
            None => {
                current.remove(fact);
            }
            Some(k) => {
                current.insert(fact.clone(), k.clone());
            }
        }
    }
}

/// Fresh `evaluate_encoded` over the model state (database + encoding
/// rebuilt from scratch) — the independent baseline the acceptance
/// criterion names.
fn fresh_encoded<M: TwoMonoid>(
    monoid: &M,
    q: &Query,
    interner: &Interner,
    current: &std::collections::BTreeMap<Fact, M::Elem>,
) -> (M::Elem, EngineStats) {
    let mut db = Database::new();
    for f in current.keys() {
        db.insert(f.clone());
    }
    let enc = EncodedDb::new(&db);
    evaluate_encoded(
        Parallelism::default(),
        monoid,
        q,
        interner,
        &db,
        &enc,
        |sym, t| current[&Fact::new(sym, t.clone())].clone(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Probability monoid: a mixed script of overlapping queries and
    /// update batches; every served answer bit-identical (value, op
    /// counts, support trajectory) to fresh evaluation, on every
    /// backend and thread count.
    #[test]
    fn prob_serving_matches_fresh_evaluation(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: std::collections::BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&ProbMonoid, &inst.interner, &tid);
        for round in 0..3 {
            for q in &family {
                let (got, stats) = fleet.query(&inst.interner, q);
                let list: Vec<(Fact, f64)> = current.clone().into_iter().collect();
                for backend in hq_unify::Backend::ALL {
                    let (fresh, fresh_stats) =
                        evaluate_on(backend.into(), &ProbMonoid, q, &inst.interner, rows(&list))
                            .unwrap();
                    prop_assert_eq!(
                        got.to_bits(), fresh.to_bits(),
                        "{} served {} vs fresh {} on {} (round {})",
                        backend, got, fresh, q, round
                    );
                    prop_assert_eq!(&stats, &fresh_stats, "stats diverged on {}", q);
                }
                let (fresh, fresh_stats) = fresh_encoded(&ProbMonoid, q, &inst.interner, &current);
                prop_assert_eq!(got.to_bits(), fresh.to_bits(), "encoded path on {}", q);
                prop_assert_eq!(&stats, &fresh_stats, "encoded stats on {}", q);
            }
            let batch = random_batch(&mut inst.rng, &facts, &rels, 3);
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, f64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0.0)))
                .collect();
            fleet.update_batch(&inst.interner, &writes);
        }
    }

    /// Forced delta-patching (`patch_fraction = ∞`): every dirty
    /// intermediate is repaired in place through the refold machinery
    /// — never dropped — through drifts, deletions and novel-value
    /// inserts, and every served answer (value, op counts, support
    /// trajectory) stays bit-identical to fresh evaluation.
    #[test]
    fn patched_serving_matches_fresh_evaluation(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: std::collections::BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&ProbMonoid, &inst.interner, &tid);
        fleet.configure(|s| s.set_patch_fraction(f64::INFINITY));
        for _ in 0..4 {
            for q in &family {
                let (got, stats) = fleet.query(&inst.interner, q);
                let (fresh, fresh_stats) = fresh_encoded(&ProbMonoid, q, &inst.interner, &current);
                prop_assert_eq!(got.to_bits(), fresh.to_bits(), "patched path on {}", q);
                prop_assert_eq!(&stats, &fresh_stats, "patched stats on {}", q);
            }
            let batch = random_batch(&mut inst.rng, &facts, &rels, 3);
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, f64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0.0)))
                .collect();
            fleet.update_batch(&inst.interner, &writes);
        }
    }

    /// Eviction pressure (a tiny cache budget) under delete-heavy
    /// schedules: nodes constantly fall out of the cache and rebuild
    /// lazily, yet every answer stays bit-identical to fresh
    /// evaluation and the budget is honoured after every query.
    #[test]
    fn eviction_pressure_with_delete_heavy_schedules(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: std::collections::BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let budget = 4usize;
        let mut fleet = Fleet::build(&ProbMonoid, &inst.interner, &tid);
        fleet.configure(|s| {
            s.set_patch_fraction(f64::INFINITY);
            s.set_cache_budget(Some(budget));
        });
        for _ in 0..3 {
            for q in &family {
                let (got, stats) = fleet.query(&inst.interner, q);
                let (fresh, fresh_stats) = fresh_encoded(&ProbMonoid, q, &inst.interner, &current);
                prop_assert_eq!(got.to_bits(), fresh.to_bits(), "evicting path on {}", q);
                prop_assert_eq!(&stats, &fresh_stats, "evicting stats on {}", q);
                prop_assert!(fleet.columnar.cached_rows() <= budget, "budget violated");
                prop_assert!(fleet.map.cached_rows() <= budget, "budget violated (map)");
                prop_assert!(
                    fleet.compressed.cached_rows() <= budget,
                    "budget violated (compressed)"
                );
            }
            // Delete-heavy: every other write of the batch becomes a
            // delete on top of random_batch's own deletions.
            let mut batch = random_batch(&mut inst.rng, &facts, &rels, 3);
            for (i, (_, w)) in batch.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *w = None;
                }
            }
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, f64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0.0)))
                .collect();
            fleet.update_batch(&inst.interner, &writes);
        }
    }

    /// Counting semiring (annihilating ⊗): same contract.
    #[test]
    fn count_serving_matches_fresh_evaluation(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: std::collections::BTreeMap<Fact, u64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(1u64..=3)))
            .collect();
        let list: Vec<(Fact, u64)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&CountMonoid, &inst.interner, &list);
        for _ in 0..3 {
            for q in &family {
                let (got, stats) = fleet.query(&inst.interner, q);
                let (fresh, fresh_stats) = fresh_encoded(&CountMonoid, q, &inst.interner, &current);
                prop_assert_eq!(got, fresh, "on {}", q);
                prop_assert_eq!(&stats, &fresh_stats, "stats diverged on {}", q);
            }
            let batch: Vec<(Fact, Option<u64>)> = random_batch(&mut inst.rng, &facts, &rels, 3)
                .into_iter()
                .map(|(f, w)| (f, w.map(|p| 1 + (p * 3.0) as u64)))
                .collect();
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, u64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0)))
                .collect();
            fleet.update_batch(&inst.interner, &writes);
        }
    }

    /// Bag-Set Maximization (non-annihilating ⊗ with 0-filled merges):
    /// ψ-class scripts against fresh evaluation.
    #[test]
    fn bagmax_serving_matches_fresh_evaluation(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 3, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let m = BagMaxMonoid::new(3);
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: std::collections::BTreeMap<Fact, _> = facts
            .iter()
            .map(|f| {
                let k = if inst.rng.gen_bool(0.5) { m.one() } else { m.star() };
                (f.clone(), k)
            })
            .collect();
        let list: Vec<(Fact, _)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&m, &inst.interner, &list);
        for _ in 0..2 {
            for q in &family {
                let (got, stats) = fleet.query(&inst.interner, q);
                let (fresh, fresh_stats) = fresh_encoded(&m, q, &inst.interner, &current);
                prop_assert_eq!(&got, &fresh, "on {}", q);
                prop_assert_eq!(&stats, &fresh_stats, "stats diverged on {}", q);
            }
            let batch: Vec<(Fact, Option<_>)> = random_batch(&mut inst.rng, &facts, &rels, 3)
                .into_iter()
                .map(|(f, w)| (f, w.map(|p| if p < 0.5 { m.one() } else { m.star() })))
                .collect();
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, _)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.clone().unwrap_or_else(|| m.zero())))
                .collect();
            fleet.update_batch(&inst.interner, &writes);
        }
    }
}

/// The chain instance every non-prop pin below uses: large enough that
/// every query performs real monoid work.
fn chain_instance() -> (Vec<(Fact, f64)>, Interner, Vec<Query>) {
    let mut interner = Interner::new();
    let e = interner.intern("E");
    let f = interner.intern("F");
    let mut tid = Vec::new();
    for k in 0..48i64 {
        tid.push((
            Fact::new(e, Tuple::ints(&[k / 3, k % 7])),
            0.05 + 0.01 * k as f64,
        ));
        tid.push((
            Fact::new(f, Tuple::ints(&[k % 7, k / 2])),
            0.9 - 0.01 * k as f64,
        ));
    }
    tid.sort_by(|a, b| a.0.cmp(&b.0));
    tid.dedup_by(|a, b| a.0 == b.0);
    let queries: Vec<Query> = [
        "Q() :- E(X,Y), F(Y,Z)",
        "Q() :- E(X,Y)",
        "Q() :- F(Y,Z)",
        "Q() :- E(X,Y), F(Y,Z)",
    ]
    .iter()
    .map(|s| hq_query::parse_query(s).unwrap())
    .collect();
    (tid, interner, queries)
}

/// Acceptance criterion: a session serving N ≥ 4 overlapping queries
/// performs strictly fewer total monoid ops than N independent
/// `evaluate_encoded` calls, while every query's value and stats are
/// bit-identical to its independent run — on map/columnar/sharded ×
/// threads {1, 2, 8}.
#[test]
fn shared_serving_beats_independent_evaluation_on_every_backend() {
    let (tid, interner, queries) = chain_instance();
    let current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    // Independent baseline: one evaluate_encoded per query (per the
    // acceptance criterion), plus the map oracle for value checks.
    let mut independent: Vec<(f64, EngineStats)> = Vec::new();
    let mut independent_total = 0u64;
    for q in &queries {
        let (v, s) = fresh_encoded(&ProbMonoid, q, &interner, &current);
        independent_total += s.total_ops();
        independent.push((v, s));
    }
    fn check<R: ServingBackend<Ann = f64>>(
        mut session: ServingSession<ProbMonoid, R>,
        interner: &Interner,
        queries: &[Query],
        independent: &[(f64, EngineStats)],
        independent_total: u64,
        label: &str,
    ) {
        for (q, (want, want_stats)) in queries.iter().zip(independent) {
            let (got, stats) = session.query(interner, q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: value on {q}");
            assert_eq!(&stats, want_stats, "{label}: stats on {q}");
        }
        assert!(
            session.ops_performed() < independent_total,
            "{label}: sharing must strictly beat independent evaluation \
             (performed {} vs {})",
            session.ops_performed(),
            independent_total
        );
    }
    check(
        ServingSession::<_, MapRelation<f64>>::new(ProbMonoid, &interner, tid.iter().cloned())
            .unwrap(),
        &interner,
        &queries,
        &independent,
        independent_total,
        "map",
    );
    check(
        ServingSession::<_, ColumnarRelation<f64>>::new(ProbMonoid, &interner, tid.iter().cloned())
            .unwrap(),
        &interner,
        &queries,
        &independent,
        independent_total,
        "columnar(threads=1)",
    );
    check(
        ServingSession::<_, CompressedColumnar<f64>>::new(
            ProbMonoid,
            &interner,
            tid.iter().cloned(),
        )
        .unwrap(),
        &interner,
        &queries,
        &independent,
        independent_total,
        "compressed",
    );
    for t in THREADS {
        check(
            ServingSession::<_, ColumnarRelation<f64>>::with_parallelism(
                ProbMonoid,
                &interner,
                tid.iter().cloned(),
                Parallelism::fine_grained(t),
            )
            .unwrap(),
            &interner,
            &queries,
            &independent,
            independent_total,
            &format!("sharded(threads={t})"),
        );
    }
}

/// A cache hit performs zero monoid ops on the shared prefix: a
/// repeated query costs nothing, and an overlapping query pays only
/// for its unshared suffix.
#[test]
fn cache_hit_performs_zero_ops_on_shared_prefix() {
    let (tid, interner, _) = chain_instance();
    let q_full = hq_query::parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
    let q_sub = hq_query::parse_query("Q() :- E(X,Y)").unwrap();
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let (_, full_stats) = session.query(&interner, &q_full).unwrap();
    assert_eq!(session.ops_performed(), full_stats.total_ops());
    // Identical query: zero additional ops, identical report.
    let before = session.ops_performed();
    let (_, again) = session.query(&interner, &q_full).unwrap();
    assert_eq!(again, full_stats);
    assert_eq!(session.ops_performed(), before, "full cache hit costs zero");
    // Overlapping query: E's scan and its first fold are shared (zero
    // ops); only the unshared suffix is paid for.
    let current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    let (_, sub_stats) = fresh_encoded(&ProbMonoid, &q_sub, &interner, &current);
    session.query(&interner, &q_sub).unwrap();
    let paid = session.ops_performed() - before;
    assert!(
        paid < sub_stats.total_ops(),
        "shared prefix must be free: paid {paid} of {}",
        sub_stats.total_ops()
    );
}

/// One step of the pinned interleaved serving script.
enum ScriptStep {
    Query(Query),
    Update(Vec<(Fact, f64)>),
}

/// The pinned `|D| = 32k` instance of the acceptance criterion: two
/// 16k-fact relations joining on a 251-value column.
fn pinned_32k() -> (Vec<(Fact, f64)>, Interner) {
    let mut interner = Interner::new();
    let e = interner.intern("E");
    let f = interner.intern("F");
    let mut tid = Vec::with_capacity(32_000);
    for k in 0..16_000i64 {
        tid.push((
            Fact::new(e, Tuple::ints(&[k, k % 251])),
            0.02 + (k % 83) as f64 * 0.01,
        ));
        tid.push((
            Fact::new(f, Tuple::ints(&[k % 251, k])),
            0.98 - (k % 89) as f64 * 0.01,
        ));
    }
    tid.sort_by(|a, b| a.0.cmp(&b.0));
    (tid, interner)
}

/// The pinned interleaved query/update script: the overlapping query
/// batch, then rounds of small update batches each followed by
/// re-serving the dirty pipelines.
fn pinned_script(tid: &[(Fact, f64)]) -> Vec<ScriptStep> {
    let queries: Vec<Query> = [
        "Q() :- E(X,Y), F(Y,Z)",
        "Q() :- E(X,Y)",
        "Q() :- F(Y,Z)",
        "Q() :- E(X,Y), F(Y,Z)",
    ]
    .iter()
    .map(|s| hq_query::parse_query(s).unwrap())
    .collect();
    let mut script: Vec<ScriptStep> = queries.iter().cloned().map(ScriptStep::Query).collect();
    for round in 0..6usize {
        let batch: Vec<(Fact, f64)> = (0..2)
            .map(|j| {
                let (f, _) = &tid[(round * 7919 + j * 131) % tid.len()];
                (f.clone(), 0.05 + ((round * 2 + j) % 89) as f64 / 100.0)
            })
            .collect();
        script.push(ScriptStep::Update(batch));
        script.push(ScriptStep::Query(queries[0].clone()));
        script.push(ScriptStep::Query(queries[1].clone()));
    }
    script
}

/// Drives one session through the script, returning every served
/// `(value, stats)` and the total monoid ops the session executed.
fn drive<R: ServingBackend<Ann = f64>>(
    mut session: ServingSession<ProbMonoid, R>,
    interner: &Interner,
    script: &[ScriptStep],
) -> (Vec<(f64, EngineStats)>, u64) {
    let mut outs = Vec::new();
    for step in script {
        match step {
            ScriptStep::Query(q) => outs.push(session.query(interner, q).unwrap()),
            ScriptStep::Update(batch) => {
                session.update_batch(interner, batch).unwrap();
            }
        }
    }
    let ops = session.ops_performed();
    (outs, ops)
}

/// Acceptance criterion: on the pinned `|D| = 32k` interleaved
/// query/update script, delta-patching the cached intermediates
/// performs **strictly fewer** monoid ops than the drop-and-rebuild
/// path (`patch_fraction = 0`), while every served value and
/// [`EngineStats`] stays bit-identical to fresh evaluation — on
/// map/columnar/sharded at threads 1, 2 and 8.
#[test]
fn delta_patching_beats_rebuild_on_the_pinned_32k_instance() {
    let (tid, interner) = pinned_32k();
    assert_eq!(tid.len(), 32_000);
    let script = pinned_script(&tid);
    // The fresh-evaluation baseline: replay the script against a model
    // state, evaluating each query from scratch.
    let mut current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    let mut expected: Vec<(f64, EngineStats)> = Vec::new();
    for step in &script {
        match step {
            ScriptStep::Query(q) => {
                expected.push(fresh_encoded(&ProbMonoid, q, &interner, &current))
            }
            ScriptStep::Update(batch) => {
                for (f, p) in batch {
                    current.insert(f.clone(), *p);
                }
            }
        }
    }
    let check = |label: &str, outs: &[(f64, EngineStats)]| {
        assert_eq!(outs.len(), expected.len(), "{label}");
        for (i, ((got, stats), (want, want_stats))) in outs.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "{label}: value at step {i}");
            assert_eq!(stats, want_stats, "{label}: stats at step {i}");
        }
    };
    // One patch/rebuild session pair per backend × thread count; the
    // patching session runs the *default* threshold (the win must not
    // require tuning).
    let run_pair = |label: &str, patched: u64, rebuilt: u64| {
        assert!(
            patched < rebuilt,
            "{label}: patching must perform strictly fewer ops than rebuild \
             ({patched} vs {rebuilt})"
        );
    };
    {
        let patch: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
        let mut rebuild: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
        rebuild.set_patch_fraction(0.0);
        let (outs, patched) = drive(patch, &interner, &script);
        check("map", &outs);
        let (outs, rebuilt) = drive(rebuild, &interner, &script);
        check("map(rebuild)", &outs);
        run_pair("map", patched, rebuilt);
    }
    {
        let patch: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
        let mut rebuild: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
        rebuild.set_patch_fraction(0.0);
        let (outs, patched) = drive(patch, &interner, &script);
        check("columnar(threads=1)", &outs);
        let (outs, rebuilt) = drive(rebuild, &interner, &script);
        check("columnar(rebuild)", &outs);
        run_pair("columnar(threads=1)", patched, rebuilt);
    }
    for t in THREADS {
        let patch: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::with_parallelism(
                ProbMonoid,
                &interner,
                tid.iter().cloned(),
                Parallelism::new(t),
            )
            .unwrap();
        let mut rebuild: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::with_parallelism(
                ProbMonoid,
                &interner,
                tid.iter().cloned(),
                Parallelism::new(t),
            )
            .unwrap();
        rebuild.set_patch_fraction(0.0);
        let (outs, patched) = drive(patch, &interner, &script);
        check(&format!("sharded(threads={t})"), &outs);
        let (outs, rebuilt) = drive(rebuild, &interner, &script);
        check(&format!("sharded(rebuild,threads={t})"), &outs);
        run_pair(&format!("sharded(threads={t})"), patched, rebuilt);
    }
}

/// Bugfix pin: re-populating a relation that an earlier delete-only
/// batch emptied, with values that were already interned, must not
/// report any dictionary extension.
#[test]
fn repopulating_an_emptied_relation_reports_no_dict_extensions() {
    let (tid, mut interner, _) = chain_instance();
    let g = interner.intern("G");
    let q_e = hq_query::parse_query("Q() :- E(X,Y)").unwrap();
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    session.query(&interner, &q_e).unwrap();
    let warm_ops = session.ops_performed();
    // Declare G with already-interned values, then empty it again.
    let g_fact = Fact::new(g, Tuple::ints(&[1, 2]));
    let out = session.update(&interner, &g_fact, 0.5).unwrap();
    assert!(!out.refresh.dict_extended, "values 1, 2 already interned");
    assert_eq!(out.dict_extensions, 0);
    let out = session.update(&interner, &g_fact, 0.0).unwrap();
    assert_eq!(out.dict_extensions, 0, "delete-only batch extends nothing");
    // Re-populate the (declared but empty) relation: still no
    // extension, and the unrelated warm E pipeline is untouched.
    let out = session
        .update(&interner, &Fact::new(g, Tuple::ints(&[2, 3])), 0.4)
        .unwrap();
    assert!(!out.refresh.dict_extended);
    assert_eq!(out.dict_extensions, 0);
    assert_eq!(out.invalidated, 0, "no cached node reads G");
    session.query(&interner, &q_e).unwrap();
    assert_eq!(
        session.ops_performed(),
        warm_ops,
        "E stayed warm throughout"
    );
}

/// Insert-heavy batches with novel domain values extend the shared
/// dictionary once per batch — each cached matrix is translated once —
/// strictly fewer times than the same inserts applied serially, and the
/// amortisation changes no served value or stat.
#[test]
fn batched_novel_inserts_extend_the_dictionary_fewer_times_than_serial() {
    let (tid, interner, _) = chain_instance();
    let q = hq_query::parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
    let batch: Vec<(Fact, f64)> = (0..64)
        .map(|k| {
            let (f, _) = &tid[k % tid.len()];
            let novel = 1_000_000 + k as i64;
            (Fact::new(f.rel, Tuple::ints(&[novel, novel + 1])), 0.4)
        })
        .collect();
    let warm = || {
        let mut s: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
        s.query(&interner, &q).unwrap();
        s
    };
    let mut batched = warm();
    let batched_ext = batched
        .update_batch(&interner, &batch)
        .unwrap()
        .dict_extensions;
    let mut serial = warm();
    let serial_ext: usize = batch
        .iter()
        .map(|(f, p)| serial.update(&interner, f, *p).unwrap().dict_extensions)
        .sum();
    assert!(batched_ext >= 1, "novel values must extend the dictionary");
    assert!(
        batched_ext < serial_ext,
        "batched extension ({batched_ext}) must beat serial ({serial_ext})"
    );
    let (got, got_stats) = batched.query(&interner, &q).unwrap();
    let (want, want_stats) = serial.query(&interner, &q).unwrap();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "amortisation changed the result"
    );
    assert_eq!(got_stats, want_stats);
    let mut current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    current.extend(batch.iter().cloned());
    let (fresh, fresh_stats) = fresh_encoded(&ProbMonoid, &q, &interner, &current);
    assert_eq!(got.to_bits(), fresh.to_bits());
    assert_eq!(got_stats, fresh_stats);
}

/// Bugfix pin: a novel-domain-value insert no longer clears the node
/// cache — surviving matrices are translated through the old→new code
/// map, so an *unrelated* warm pipeline keeps serving for free.
#[test]
fn unrelated_warm_pipeline_survives_novel_value_insert() {
    let (tid, interner, _) = chain_instance();
    let q_e = hq_query::parse_query("Q() :- E(X,Y)").unwrap();
    let q_f = hq_query::parse_query("Q() :- F(Y,Z)").unwrap();
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    session.set_patch_fraction(f64::INFINITY);
    session.query(&interner, &q_e).unwrap();
    session.query(&interner, &q_f).unwrap();
    let nodes = session.cached_nodes();
    // Values far outside the instance domain: the dictionary extends.
    let e = interner.get("E").unwrap();
    let out = session
        .update(&interner, &Fact::new(e, Tuple::ints(&[9_999, 8_888])), 0.5)
        .unwrap();
    assert!(out.refresh.dict_extended);
    assert_eq!(out.dict_extensions, nodes, "every matrix translated");
    assert_eq!(session.cached_nodes(), nodes, "nothing was dropped");
    // F's pipeline — which never read E — re-serves for free.
    let after_patch = session.ops_performed();
    let mut current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    current.insert(Fact::new(e, Tuple::ints(&[9_999, 8_888])), 0.5);
    let (want, want_stats) = fresh_encoded(&ProbMonoid, &q_f, &interner, &current);
    let (got, stats) = session.query(&interner, &q_f).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(stats, want_stats);
    assert_eq!(session.ops_performed(), after_patch, "F stayed warm");
    // And the dirty E pipeline was patched, not rebuilt: serving it
    // also costs nothing further.
    let (want, want_stats) = fresh_encoded(&ProbMonoid, &q_e, &interner, &current);
    let (got, stats) = session.query(&interner, &q_e).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(stats, want_stats);
    assert_eq!(session.ops_performed(), after_patch, "E was fully patched");
}

/// Spill-on-evict pin: with a tiny cache budget and spilling enabled,
/// evicted compressed nodes round-trip through the temp segment file —
/// after one warm round, alternating between two disjoint pipelines is
/// served *entirely* from reloads (zero further monoid ops), while
/// every answer (value, op counts, support trajectory) stays
/// bit-identical to fresh evaluation.
#[test]
fn spilled_nodes_reload_bit_identical_instead_of_recomputing() {
    let (tid, interner, _) = chain_instance();
    let current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    let q_e = hq_query::parse_query("Q() :- E(X,Y)").unwrap();
    let q_f = hq_query::parse_query("Q() :- F(Y,Z)").unwrap();
    let mut session: ServingSession<ProbMonoid, CompressedColumnar<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    assert!(session.set_spill(true), "the f64 carrier is spillable");
    assert!(session.spill_enabled());
    // One cached row at most: each pipeline's eviction pressure pushes
    // the other pipeline's nodes out (and, spilling, onto disk).
    session.set_cache_budget(Some(1));
    let mut after_round = Vec::new();
    for _ in 0..3 {
        for q in [&q_e, &q_f] {
            let (got, stats) = session.query(&interner, q).unwrap();
            let (want, want_stats) = fresh_encoded(&ProbMonoid, q, &interner, &current);
            assert_eq!(got.to_bits(), want.to_bits(), "spilling session on {q}");
            assert_eq!(stats, want_stats, "spilled stats on {q}");
        }
        after_round.push(session.ops_performed());
    }
    assert!(
        session.spill_writes() >= 1,
        "evictions must hit the segment"
    );
    assert!(
        session.spill_reloads() >= 1,
        "re-served queries must come back from disk, not recompute"
    );
    assert!(session.spilled_bytes() > 0);
    assert_eq!(
        after_round[0], after_round[2],
        "after the warm round, reloads perform zero monoid ops \
         (recompute would pay the full pipeline each round)"
    );
    // The spilled bytes stay exact across an update touching them: the
    // stale entries are dropped, not reloaded.
    let e_fact = tid
        .iter()
        .find(|(f, _)| interner.resolve(f.rel) == "E")
        .unwrap()
        .0
        .clone();
    session.update(&interner, &e_fact, 0.123).unwrap();
    let mut current = current;
    current.insert(e_fact, 0.123);
    let (got, stats) = session.query(&interner, &q_e).unwrap();
    let (want, want_stats) = fresh_encoded(&ProbMonoid, &q_e, &interner, &current);
    assert_eq!(got.to_bits(), want.to_bits(), "post-update reload");
    assert_eq!(stats, want_stats);
}

/// Spilling is an opt-in that only the compressed tier with a
/// byte-codable carrier can honour: `set_spill(true)` reports `false`
/// (and stays off) on dense columnar nodes and on heap-carried
/// annotations with no stable byte encoding.
#[test]
fn spill_is_refused_off_the_compressed_tier_and_for_heap_carriers() {
    let (tid, interner, _) = chain_instance();
    let mut col: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    assert!(!col.set_spill(true), "dense columnar nodes never spill");
    assert!(!col.spill_enabled());
    let monoid = hq_monoid::SatCountMonoid::new(tid.len());
    let sat_facts: Vec<(Fact, hq_monoid::SatVec)> =
        tid.iter().map(|(f, _)| (f.clone(), monoid.one())).collect();
    let mut sat: ServingSession<hq_monoid::SatCountMonoid, CompressedColumnar<hq_monoid::SatVec>> =
        ServingSession::new(monoid, &interner, sat_facts).unwrap();
    assert!(
        !sat.set_spill(true),
        "#Sat vectors are heap-carried: compressed nodes hold them but cannot spill them"
    );
    assert!(!sat.spill_enabled());
}

/// Updates touching one relation leave the other relation's cached
/// pipeline warm — re-serving it is free — while the dirty pipeline is
/// delta-patched in place during the update and re-serves without any
/// further recomputation, bit-identical to fresh evaluation.
#[test]
fn update_invalidation_is_scoped_to_touched_relations() {
    let (tid, interner, _) = chain_instance();
    let q_e = hq_query::parse_query("Q() :- E(X,Y)").unwrap();
    let q_f = hq_query::parse_query("Q() :- F(Y,Z)").unwrap();
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    session.set_patch_fraction(f64::INFINITY);
    session.query(&interner, &q_e).unwrap();
    session.query(&interner, &q_f).unwrap();
    let warm = session.ops_performed();
    // Touch E only (existing domain values: the delta-patch path).
    let e_fact = tid
        .iter()
        .find(|(f, _)| interner.resolve(f.rel) == "E")
        .unwrap()
        .0
        .clone();
    let out = session.update(&interner, &e_fact, 0.42).unwrap();
    assert_eq!(out.touched, vec!["E".to_owned()]);
    assert!(!out.refresh.dict_extended);
    assert!(out.patched_scans >= 1, "E's scan stays warm via patching");
    assert!(out.patched_nodes >= 1, "E's folds stay warm via patching");
    assert_eq!(out.invalidated, 0);
    let patch_cost = session.ops_performed() - warm;
    assert!(patch_cost > 0, "the repair itself performs the dirty folds");
    // Both pipelines now re-serve for free: F was never dirty, E was
    // repaired during the update.
    let after_patch = session.ops_performed();
    session.query(&interner, &q_f).unwrap();
    assert_eq!(
        session.ops_performed(),
        after_patch,
        "F's pipeline must stay warm across an E-only update"
    );
    let mut current: std::collections::BTreeMap<Fact, f64> = tid.iter().cloned().collect();
    current.insert(e_fact, 0.42);
    let (want, want_stats) = fresh_encoded(&ProbMonoid, &q_e, &interner, &current);
    let (got, stats) = session.query(&interner, &q_e).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(stats, want_stats);
    assert_eq!(
        session.ops_performed(),
        after_patch,
        "the patched E pipeline re-serves without recomputation"
    );
    // And the repair cost a fraction of what the fresh pipeline costs.
    assert!(
        patch_cost < want_stats.total_ops(),
        "patch ({patch_cost} ops) must undercut a fresh evaluation ({})",
        want_stats.total_ops()
    );
}

/// States of at most this many facts are also checked against the
/// brute-force `hq_baselines` oracles, which share no code with the
/// engine under test.
const ORACLE_FACTS: usize = 12;

/// The seeds each brute-force arm sweeps; every arm asserts it fired.
const ORACLE_SEEDS: std::ops::Range<u64> = 0..24;

/// The facts of `facts` over relations `q` mentions (a sub-query of
/// the family ignores the rest).
fn over_query(q: &Query, interner: &Interner, facts: &[Fact]) -> Vec<Fact> {
    let rels: Vec<hq_db::Sym> = query_rels(q, interner).iter().map(|&(s, _)| s).collect();
    facts
        .iter()
        .filter(|f| rels.contains(&f.rel))
        .cloned()
        .collect()
}

/// `PqeSession` answers, through a script of updates, deletes and
/// novel inserts, match possible-world enumeration on small states.
#[test]
fn pqe_session_matches_possible_worlds_on_small_states() {
    let mut fired = 0usize;
    for seed in ORACLE_SEEDS {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            continue;
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let mut session: PqeSession = PqeSession::new(&inst.interner, &tid).unwrap();
        for _ in 0..3 {
            if current.len() <= ORACLE_FACTS {
                let list: Vec<(Fact, f64)> = current.clone().into_iter().collect();
                for q in &family {
                    let (got, _) = session.query(&inst.interner, q).unwrap();
                    let want = worlds::probability_exhaustive(q, &inst.interner, &list);
                    assert!(
                        (got - want).abs() <= 1e-9,
                        "seed {seed}: served {got} vs possible worlds {want} on {q}"
                    );
                    fired += 1;
                }
            }
            let batch = random_batch(&mut inst.rng, &facts, &rels, 3);
            apply_to_model(&mut current, &batch);
            let writes: Vec<(Fact, f64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0.0)))
                .collect();
            session.update_batch(&inst.interner, &writes).unwrap();
        }
    }
    assert!(fired > 0, "the possible-worlds arm never fired");
}

/// `BsmSession` curves, through ψ-class reassignments and novel
/// inserts, match repair-subset enumeration at every budget.
#[test]
fn bsm_session_matches_brute_force_on_small_states() {
    const THETA: usize = 3;
    let mut fired = 0usize;
    for seed in ORACLE_SEEDS {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            continue;
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, PsiClass> = facts
            .iter()
            .map(|f| {
                let class = if inst.rng.gen_bool(0.5) {
                    PsiClass::Base
                } else {
                    PsiClass::Repair
                };
                (f.clone(), class)
            })
            .collect();
        let part = |current: &BTreeMap<Fact, PsiClass>, class: PsiClass| -> Database {
            let mut db = Database::new();
            for (f, _) in current.iter().filter(|&(_, &c)| c == class) {
                db.insert(f.clone());
            }
            db
        };
        let (d, d_r) = (
            part(&current, PsiClass::Base),
            part(&current, PsiClass::Repair),
        );
        let mut session: BsmSession = BsmSession::new(&inst.interner, &d, &d_r, THETA).unwrap();
        for _ in 0..3 {
            if current.len() <= ORACLE_FACTS {
                let (d, d_r) = (
                    part(&current, PsiClass::Base),
                    part(&current, PsiClass::Repair),
                );
                for q in &family {
                    let sol = session.query(&inst.interner, q).unwrap();
                    for theta in 0..=THETA {
                        let want = bsm_bf::maximize_bruteforce(q, &inst.interner, &d, &d_r, theta);
                        assert_eq!(
                            sol.value_at(theta),
                            want.optimum,
                            "seed {seed}: budget {theta} vs brute force on {q}"
                        );
                    }
                    fired += 1;
                }
            }
            for (fact, w) in random_batch(&mut inst.rng, &facts, &rels, 3) {
                let class = match w {
                    None => PsiClass::Absent,
                    Some(p) if p < 0.5 => PsiClass::Base,
                    Some(_) => PsiClass::Repair,
                };
                apply_to_model(
                    &mut current,
                    &[(fact.clone(), (class != PsiClass::Absent).then_some(class))],
                );
                session.set_fact(&inst.interner, &fact, class).unwrap();
            }
        }
    }
    assert!(fired > 0, "the brute-force BSM arm never fired");
}

/// `SatSession` vectors, through role flips and novel inserts, match
/// `#Sat` by subset enumeration over the facts each query sees.
#[test]
fn sat_session_matches_brute_force_on_small_states() {
    let mut fired = 0usize;
    for seed in ORACLE_SEEDS {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            continue;
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, FactRole> = facts
            .iter()
            .map(|f| {
                let role = if inst.rng.gen_bool(0.5) {
                    FactRole::Exogenous
                } else {
                    FactRole::Endogenous
                };
                (f.clone(), role)
            })
            .collect();
        let part = |current: &BTreeMap<Fact, FactRole>, role: FactRole| -> Vec<Fact> {
            current
                .iter()
                .filter(|&(_, &r)| r == role)
                .map(|(f, _)| f.clone())
                .collect()
        };
        let (exo, endo) = (
            part(&current, FactRole::Exogenous),
            part(&current, FactRole::Endogenous),
        );
        // Capacity covers the initial facts plus every insert the
        // script can make (3 batches × ≤ 3 writes).
        let capacity = facts.len() + 9;
        let mut session: SatSession =
            SatSession::new(&inst.interner, &exo, &endo, capacity).unwrap();
        for _ in 0..3 {
            if current.len() <= ORACLE_FACTS {
                let (exo, endo) = (
                    part(&current, FactRole::Exogenous),
                    part(&current, FactRole::Endogenous),
                );
                for q in &family {
                    let got = session.query(&inst.interner, q).unwrap();
                    let want = shapley_bf::sat_counts_bruteforce(
                        q,
                        &inst.interner,
                        &over_query(q, &inst.interner, &exo),
                        &over_query(q, &inst.interner, &endo),
                    );
                    assert_eq!(&got.t[..want.len()], &want[..], "seed {seed}: #Sat on {q}");
                    assert!(
                        got.t[want.len()..].iter().all(Natural::is_zero),
                        "seed {seed}: #Sat beyond |D_n| on {q}"
                    );
                    fired += 1;
                }
            }
            for (fact, w) in random_batch(&mut inst.rng, &facts, &rels, 3) {
                let role = match w {
                    None => FactRole::Absent,
                    Some(p) if p < 0.5 => FactRole::Exogenous,
                    Some(_) => FactRole::Endogenous,
                };
                apply_to_model(
                    &mut current,
                    &[(fact.clone(), (role != FactRole::Absent).then_some(role))],
                );
                session.set_fact(&inst.interner, &fact, role).unwrap();
            }
        }
    }
    assert!(fired > 0, "the brute-force #Sat arm never fired");
}

/// The paper's Figure 1 values, served by sessions on every backend
/// and at two threads: BSM at θ = 2 gives the curve 1/2/4, and PQE on
/// E(1,2)@0.5, F(2,3)@0.5, F(2,9)@0.25 gives 5/16 = 0.3125 — the same
/// number possible-world enumeration gives.
#[test]
fn figure_1_values_hold_in_sessions() {
    fn check<Rb, Rp>(par: Parallelism)
    where
        Rb: ServingBackend<Ann = BudgetVec>,
        Rp: ServingBackend<Ann = f64>,
    {
        let q = parse_query("Q() :- R(A,B), S(A,C), T(A,C,D)").unwrap();
        let (d, mut i) = hq_db::db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let (r, t) = (i.intern("R"), i.intern("T"));
        let mut d_r = Database::new();
        for (rel, vals) in [
            (r, &[1, 6][..]),
            (r, &[1, 7]),
            (t, &[1, 1, 4]),
            (t, &[1, 2, 9]),
        ] {
            d_r.insert_tuple(rel, Tuple::ints(vals));
        }
        let mut bsm = BsmSession::<Rb>::with_parallelism(&i, &d, &d_r, 2, par).unwrap();
        let sol = bsm.query(&i, &q).unwrap();
        assert_eq!(
            (0..=2).map(|b| sol.value_at(b)).collect::<Vec<_>>(),
            [1, 2, 4]
        );
        assert_eq!(sol.optimum(), 4);

        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let (db, i) = hq_db::db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3], &[2, 9]])]);
        let tid: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .map(|f| {
                let p = if f.tuple == Tuple::ints(&[2, 9]) {
                    0.25
                } else {
                    0.5
                };
                (f, p)
            })
            .collect();
        let mut pqe = PqeSession::<Rp>::with_parallelism(&i, &tid, par).unwrap();
        let (p, _) = pqe.query(&i, &q).unwrap();
        assert_eq!(p, 0.3125);
        assert_eq!(worlds::probability_exhaustive(&q, &i, &tid), 0.3125);
    }
    let seq = Parallelism::default();
    check::<MapRelation<BudgetVec>, MapRelation<f64>>(seq);
    check::<ColumnarRelation<BudgetVec>, ColumnarRelation<f64>>(seq);
    check::<CompressedColumnar<BudgetVec>, CompressedColumnar<f64>>(seq);
    check::<ColumnarRelation<BudgetVec>, ColumnarRelation<f64>>(Parallelism::fine_grained(2));
}
