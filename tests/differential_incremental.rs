//! Differential testing of incremental maintenance through one-query
//! [`ServingSession`]s: through arbitrary schedules of annotation
//! updates, deletions and **dynamic inserts** (facts — and domain
//! values — the session has never seen), each session's answer to its
//! one registered query must agree **exactly** with a fresh batch
//! evaluation of the current state — values bit-for-bit on floats, and
//! the [`EngineStats`] the query reports (support trajectory and ⊕/⊗
//! op counts) equal to the fresh run's — on the ordered-map oracle,
//! the sequential columnar backend, the compressed tier, and the
//! sharded backend at several thread counts, across the probability,
//! counting, Bag-Set-Maximization and `#Sat` monoid families.
//!
//! While the state holds at most [`ORACLE_FACTS`] facts, the answers
//! are also checked against the brute-force `hq_baselines` oracles
//! (possible worlds, subset-enumeration BSM and `#Sat`), which share
//! no code with the engine.
//!
//! Batched updates must be indistinguishable from serial ones, and the
//! work of a single update is pinned to the dirty groups' sizes — the
//! delta-indexed acceptance bar.

mod common;

use common::{random_instance, rows};
use hq_arith::Natural;
use hq_baselines::{bsm_bf, shapley_bf, worlds};
use hq_db::{Database, Fact, Tuple};
use hq_monoid::{BagMaxMonoid, CountMonoid, ProbMonoid, SatCountMonoid, TwoMonoid};
use hq_query::Query;
use hq_unify::engine::EngineStats;
use hq_unify::{
    evaluate_on, Backend, ColumnarRelation, CompressedAnn, CompressedColumnar, MapRelation,
    Parallelism, ServingSession,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Thread counts for the sharded sessions.
const THREADS: [usize; 2] = [2, 8];

/// The independent oracles run while the state holds at most this many
/// facts (possible-world enumeration is exponential in it).
const ORACLE_FACTS: usize = 12;

/// One serving session per storage tier, each with the instance's
/// query registered, all fed the same schedule.
struct Fleet<M>
where
    M: TwoMonoid,
    M::Elem: CompressedAnn,
{
    query: Query,
    map: ServingSession<M, MapRelation<M::Elem>>,
    columnar: ServingSession<M, ColumnarRelation<M::Elem>>,
    compressed: ServingSession<M, CompressedColumnar<M::Elem>>,
    sharded: Vec<ServingSession<M, ColumnarRelation<M::Elem>>>,
}

impl<M> Fleet<M>
where
    M: TwoMonoid,
    M::Elem: CompressedAnn,
{
    fn build(monoid: &M, q: &Query, interner: &hq_db::Interner, facts: &[(Fact, M::Elem)]) -> Self {
        let mut fleet = Fleet {
            query: q.clone(),
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
        };
        // Register the query: every later batch delta-patches its
        // cached pipeline instead of evaluating from scratch.
        fleet.apply(interner, &[]);
        fleet
    }

    /// Applies one batch to every session, re-serves the query, and
    /// returns the (asserted-equal) value plus every session's stats.
    fn apply(
        &mut self,
        interner: &hq_db::Interner,
        batch: &[(Fact, M::Elem)],
    ) -> (M::Elem, Vec<EngineStats>) {
        let q = &self.query;
        self.map.update_batch(interner, batch).unwrap();
        let (expect, st) = self.map.query(interner, q).unwrap();
        let mut stats = vec![st];
        self.columnar.update_batch(interner, batch).unwrap();
        let (got, st) = self.columnar.query(interner, q).unwrap();
        assert_eq!(expect, got, "columnar diverged");
        stats.push(st);
        self.compressed.update_batch(interner, batch).unwrap();
        let (got, st) = self.compressed.query(interner, q).unwrap();
        assert_eq!(expect, got, "compressed diverged");
        stats.push(st);
        for s in &mut self.sharded {
            s.update_batch(interner, batch).unwrap();
            let (got, st) = s.query(interner, q).unwrap();
            assert_eq!(expect, got, "sharded diverged");
            stats.push(st);
        }
        (expect, stats)
    }
}

/// Splits a two-class state (annotation `one` vs `star`) into the
/// facts annotated `one` and the rest.
fn split_by_one<K: PartialEq>(current: &BTreeMap<Fact, K>, one: &K) -> (Vec<Fact>, Vec<Fact>) {
    let (ones, stars): (Vec<_>, Vec<_>) = current.iter().partition(|(_, k)| *k == one);
    let facts = |v: Vec<(&Fact, &K)>| v.into_iter().map(|(f, _)| f.clone()).collect();
    (facts(ones), facts(stars))
}

/// A random update schedule entry over the instance's query relations:
/// existing-fact updates, deletions (`weight = None` → the monoid's
/// zero), and genuinely new facts with possibly novel domain values.
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
                // Half the novel facts reach outside the original
                // domain, forcing dictionary extension on the columnar
                // backends.
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
                Some(rng.gen_range(0.0..=1.0))
            };
            (fact, weight)
        })
        .collect()
}

/// Applies a batch to the model state (`current`) the fresh evaluation
/// is run from: deletes drop the fact, writes upsert it.
fn apply_to_model<K: Clone>(current: &mut BTreeMap<Fact, K>, batch: &[(Fact, Option<K>)]) {
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

/// The query's relations as (symbol, arity), for generating inserts.
fn query_rels(q: &Query, interner: &hq_db::Interner) -> Vec<(hq_db::Sym, usize)> {
    q.atoms()
        .iter()
        .filter_map(|a| interner.get(&a.rel).map(|s| (s, a.vars.len())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Probability monoid: maintained values bit-identical to fresh
    /// evaluation, and replayed stats equal to the fresh stats, on all
    /// backends and thread counts, through updates/deletes/inserts.
    #[test]
    fn prob_updates_inserts_match_fresh(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.0..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&ProbMonoid, &inst.query, &inst.interner, &tid);
        for _ in 0..5 {
            let batch = random_batch(&mut inst.rng, &facts, &rels, 3);
            apply_to_model(&mut current, &batch);
            let runs: Vec<(Fact, f64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0.0)))
                .collect();
            let (got, stats) = fleet.apply(&inst.interner, &runs);
            let list: Vec<(Fact, f64)> = current.clone().into_iter().collect();
            for backend in Backend::ALL {
                let (fresh, fresh_stats) =
                    evaluate_on(backend.into(), &ProbMonoid, &inst.query, &inst.interner, rows(&list))
                        .unwrap();
                prop_assert_eq!(
                    got.to_bits(), fresh.to_bits(),
                    "{} maintained {} vs fresh {} on {}", backend, got, fresh, inst.query
                );
                for st in &stats {
                    prop_assert_eq!(st, &fresh_stats, "stats diverged on {}", inst.query);
                }
            }
            if list.len() <= ORACLE_FACTS {
                let want = worlds::probability_exhaustive(&inst.query, &inst.interner, &list);
                prop_assert!(
                    (got - want).abs() <= 1e-9,
                    "maintained {} vs possible worlds {} on {}", got, want, inst.query
                );
            }
        }
    }

    /// Counting semiring: values, op counts and trajectories under a
    /// schedule of integer-annotation updates and inserts.
    #[test]
    fn count_updates_inserts_match_fresh(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, u64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(1u64..=3)))
            .collect();
        let list: Vec<(Fact, u64)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&CountMonoid, &inst.query, &inst.interner, &list);
        for _ in 0..5 {
            let batch: Vec<(Fact, Option<u64>)> =
                random_batch(&mut inst.rng, &facts, &rels, 3)
                    .into_iter()
                    .map(|(f, w)| (f, w.map(|p| 1 + (p * 3.0) as u64)))
                    .collect();
            apply_to_model(&mut current, &batch);
            let runs: Vec<(Fact, u64)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.unwrap_or(0)))
                .collect();
            let (got, stats) = fleet.apply(&inst.interner, &runs);
            let list: Vec<(Fact, u64)> = current.clone().into_iter().collect();
            let (fresh, fresh_stats) =
                evaluate_on(Backend::Columnar.into(), &CountMonoid, &inst.query, &inst.interner, rows(&list))
                    .unwrap();
            prop_assert_eq!(got, fresh, "on {}", inst.query);
            for st in &stats {
                prop_assert_eq!(st, &fresh_stats, "stats diverged on {}", inst.query);
            }
        }
    }

    /// Bag-Set Maximization (non-annihilating ⊗, 0-filled merges):
    /// ψ-class reassignments and inserts match fresh evaluation.
    #[test]
    fn bsm_updates_inserts_match_fresh(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let m = BagMaxMonoid::new(3);
        let facts = inst.database.facts();
        let mut current: BTreeMap<Fact, _> = facts
            .iter()
            .map(|f| {
                let k = if inst.rng.gen_bool(0.5) { m.one() } else { m.star() };
                (f.clone(), k)
            })
            .collect();
        let list: Vec<(Fact, _)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&m, &inst.query, &inst.interner, &list);
        for _ in 0..4 {
            let batch: Vec<(Fact, Option<_>)> = random_batch(&mut inst.rng, &facts, &rels, 3)
                .into_iter()
                .map(|(f, w)| {
                    (f, w.map(|p| if p < 0.5 { m.one() } else { m.star() }))
                })
                .collect();
            apply_to_model(&mut current, &batch);
            let runs: Vec<(Fact, _)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.clone().unwrap_or_else(|| m.zero())))
                .collect();
            let (got, stats) = fleet.apply(&inst.interner, &runs);
            let list: Vec<(Fact, _)> = current.clone().into_iter().collect();
            let (fresh, fresh_stats) =
                evaluate_on(Backend::Columnar.into(), &m, &inst.query, &inst.interner, rows(&list)).unwrap();
            prop_assert_eq!(&got, &fresh, "on {}", inst.query);
            for st in &stats {
                prop_assert_eq!(st, &fresh_stats, "stats diverged on {}", inst.query);
            }
            if current.len() <= ORACLE_FACTS {
                // ψ-encoding read backwards: `1̄` facts are D, `★` facts
                // the repair candidates D_r \ D.
                let (d, d_r) = split_by_one(&current, &m.one());
                let db = |facts: Vec<Fact>| {
                    let mut out = Database::new();
                    for f in facts {
                        out.insert(f);
                    }
                    out
                };
                let (d, d_r) = (db(d), db(d_r));
                for theta in 0..got.len() {
                    let want = bsm_bf::maximize_bruteforce(&inst.query, &inst.interner, &d, &d_r, theta);
                    prop_assert_eq!(
                        got.get(theta), want.optimum,
                        "budget {} vs brute force on {}", theta, inst.query
                    );
                }
            }
        }
    }

    /// The #Sat monoid (Shapley substrate, exact big-integer vectors):
    /// role flips and inserts match fresh evaluation.
    #[test]
    fn satcount_updates_inserts_match_fresh(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 4, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let facts = inst.database.facts();
        // Capacity covers the initial facts plus every insert the
        // schedule can make (3 batches × ≤3 ops).
        let m = SatCountMonoid::new(facts.len() + 9);
        let mut current: BTreeMap<Fact, _> = facts
            .iter()
            .map(|f| {
                let k = if inst.rng.gen_bool(0.5) { m.one() } else { m.star() };
                (f.clone(), k)
            })
            .collect();
        let list: Vec<(Fact, _)> = current.clone().into_iter().collect();
        let mut fleet = Fleet::build(&m, &inst.query, &inst.interner, &list);
        for _ in 0..3 {
            let batch: Vec<(Fact, Option<_>)> = random_batch(&mut inst.rng, &facts, &rels, 3)
                .into_iter()
                .map(|(f, w)| {
                    (f, w.map(|p| if p < 0.5 { m.one() } else { m.star() }))
                })
                .collect();
            apply_to_model(&mut current, &batch);
            let runs: Vec<(Fact, _)> = batch
                .iter()
                .map(|(f, v)| (f.clone(), v.clone().unwrap_or_else(|| m.zero())))
                .collect();
            let (got, stats) = fleet.apply(&inst.interner, &runs);
            let list: Vec<(Fact, _)> = current.clone().into_iter().collect();
            let (fresh, fresh_stats) =
                evaluate_on(Backend::Columnar.into(), &m, &inst.query, &inst.interner, rows(&list)).unwrap();
            prop_assert_eq!(&got, &fresh, "on {}", inst.query);
            for st in &stats {
                prop_assert_eq!(st, &fresh_stats, "stats diverged on {}", inst.query);
            }
            if current.len() <= ORACLE_FACTS {
                // `1` facts are exogenous, `★` facts endogenous; the
                // maintained vector is truncated at the monoid's
                // capacity, the brute-force one at |D_n|.
                let (exo, endo) = split_by_one(&current, &m.one());
                let want = shapley_bf::sat_counts_bruteforce(&inst.query, &inst.interner, &exo, &endo);
                prop_assert_eq!(&got.t[..want.len()], &want[..], "#Sat on {}", inst.query);
                prop_assert!(
                    got.t[want.len()..].iter().all(Natural::is_zero),
                    "#Sat beyond |D_n| on {}", inst.query
                );
            }
        }
    }

    /// A batch must be indistinguishable from its serialisation — and
    /// coalesce duplicate facts with last-write-wins semantics.
    #[test]
    fn batches_equal_serial_updates(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let facts = inst.database.facts();
        let tid: Vec<(Fact, f64)> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.0..=1.0)))
            .collect();
        let mut batched: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &inst.interner, tid.clone()).unwrap();
        let mut serial: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &inst.interner, tid).unwrap();
        batched.query(&inst.interner, &inst.query).unwrap();
        serial.query(&inst.interner, &inst.query).unwrap();
        for _ in 0..4 {
            let mut batch: Vec<(Fact, f64)> = random_batch(&mut inst.rng, &facts, &rels, 3)
                .into_iter()
                .map(|(f, w)| (f, w.unwrap_or(0.0)))
                .collect();
            // Inject a duplicate-fact write: only the later one counts.
            if let Some((f, _)) = batch.first().cloned() {
                batch.push((f, inst.rng.gen_range(0.0..=1.0)));
            }
            batched.update_batch(&inst.interner, &batch).unwrap();
            let (got, got_stats) = batched.query(&inst.interner, &inst.query).unwrap();
            // Serial application of the coalesced batch (last write
            // wins per fact, preserving first-occurrence order).
            let mut coalesced: Vec<(Fact, f64)> = Vec::new();
            for (f, p) in &batch {
                match coalesced.iter_mut().find(|(g, _)| g == f) {
                    Some(slot) => slot.1 = *p,
                    None => coalesced.push((f.clone(), *p)),
                }
            }
            for (f, p) in &coalesced {
                serial.update(&inst.interner, f, *p).unwrap();
            }
            let (expect, expect_stats) = serial.query(&inst.interner, &inst.query).unwrap();
            prop_assert_eq!(
                got.to_bits(), expect.to_bits(),
                "batch vs serial diverged on {}", inst.query
            );
            prop_assert_eq!(got_stats, expect_stats, "stats diverged on {}", inst.query);
        }
    }
}

/// Non-proptest pin: the work of a single update scales with the dirty
/// groups, not `|D|`, and the cached pipeline stores no full database
/// clones (the acceptance criteria of the delta-indexed design, checked
/// end to end from the public API at two database sizes).
#[test]
fn single_update_work_is_local_and_memory_is_lean() {
    // E(k, k) ⋈ F at Y ∈ {0, 1} only: every group a single update can
    // dirty is ≤ 2 rows while |D| grows.
    let q = hq_query::q_hierarchical();
    for n in [2048i64, 32_768] {
        let mut interner = hq_db::Interner::new();
        let e = interner.intern("E");
        let f = interner.intern("F");
        let mut facts: Vec<(Fact, u64)> = (0..n)
            .map(|k| (Fact::new(e, Tuple::ints(&[k, k])), 1))
            .collect();
        facts.push((Fact::new(f, Tuple::ints(&[0, 1])), 1));
        facts.push((Fact::new(f, Tuple::ints(&[1, 1])), 1));
        let total = facts.len();
        let mut session: ServingSession<CountMonoid, ColumnarRelation<u64>> =
            ServingSession::new(CountMonoid, &interner, facts.iter().cloned()).unwrap();
        session.query(&interner, &q).unwrap();
        // A joining single-fact update plus the re-query: O(plan)
        // monoid ops, not O(|D|).
        let warm = session.ops_performed();
        session.update(&interner, &facts[0].0, 2).unwrap();
        let (got, stats) = session.query(&interner, &q).unwrap();
        let work = session.ops_performed() - warm;
        assert!(work <= 8, "update spent {work} monoid ops on |D| = {total}");
        facts[0].1 = 2;
        let (want, want_stats) = evaluate_on(
            Backend::Columnar.into(),
            &CountMonoid,
            &q,
            &interner,
            rows(&facts),
        )
        .unwrap();
        assert_eq!(got, want, "|D| = {total}");
        assert_eq!(stats, want_stats, "|D| = {total}");
        // Memory: strictly below half the steps+1 full-clone footprint.
        let steps = 4; // two Rule 1 projections, one merge, one final fold
        assert!(
            session.cached_rows() < (steps + 1) * total / 2,
            "cached {} rows vs {} full-clone rows at |D| = {total}",
            session.cached_rows(),
            (steps + 1) * total
        );
    }
}
