//! Incremental maintenance through one-query serving sessions: each
//! session registers a single query, takes update batches (a `0`
//! annotation deletes, unseen facts insert), and must answer exactly
//! what a fresh evaluation of the current state returns — value and
//! [`crate::EngineStats`] alike.

use crate::annotated::AnnotateError;
use crate::engine::evaluate;
use crate::serving::{ServingError, ServingSession, UpdateOutcome};
use crate::storage::{ColumnarRelation, MapRelation};
use hq_db::{db_from_ints, Fact, Interner, Tuple};
use hq_monoid::{CountMonoid, ProbMonoid};
use hq_query::{example_query, plan, q_hierarchical};

type ProbMap = ServingSession<ProbMonoid, MapRelation<f64>>;
type ProbColumnar = ServingSession<ProbMonoid, ColumnarRelation<f64>>;

fn chain() -> (Vec<(Fact, f64)>, Interner) {
    let (db, i) = db_from_ints(&[
        ("E", &[&[1, 2], &[1, 3], &[4, 3]]),
        ("F", &[&[2, 9], &[3, 8], &[3, 9]]),
    ]);
    (db.facts().into_iter().map(|f| (f, 0.5)).collect(), i)
}

fn tiny() -> (Vec<(Fact, f64)>, Interner) {
    let (db, i) = db_from_ints(&[("E", &[&[1, 2]]), ("F", &[&[2, 3]])]);
    (db.facts().into_iter().map(|f| (f, 0.5)).collect(), i)
}

/// The session's answer to the chain query `Q() :- E(X,Y), F(Y,Z)`.
fn answer<R>(s: &mut ServingSession<ProbMonoid, R>, i: &Interner) -> f64
where
    R: crate::ServingBackend<Ann = f64>,
{
    s.query(i, &q_hierarchical()).unwrap().0
}

fn fresh(i: &Interner, tid: &[(Fact, f64)]) -> f64 {
    evaluate(&ProbMonoid, &q_hierarchical(), i, tid.iter().cloned())
        .unwrap()
        .0
}

#[test]
fn matches_full_run_after_probability_updates() {
    let (mut current, i) = chain();
    let mut s = ProbMap::new(ProbMonoid, &i, current.clone()).unwrap();
    assert_eq!(answer(&mut s, &i).to_bits(), fresh(&i, &current).to_bits());
    // Update every fact in turn and compare to a fresh run.
    for j in 0..current.len() {
        let new_p = 0.1 + 0.15 * j as f64;
        current[j].1 = new_p;
        s.update(&i, &current[j].0, new_p).unwrap();
        assert_eq!(
            answer(&mut s, &i).to_bits(),
            fresh(&i, &current).to_bits(),
            "after updating {}",
            current[j].0.display(&i)
        );
    }
}

#[test]
fn columnar_backend_maintains_identically() {
    let (tid, i) = chain();
    let mut map = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    let mut col = ProbColumnar::new(ProbMonoid, &i, tid.clone()).unwrap();
    assert_eq!(
        answer(&mut map, &i).to_bits(),
        answer(&mut col, &i).to_bits()
    );
    let mut writes: Vec<(Fact, f64)> = tid
        .iter()
        .enumerate()
        .map(|(j, (f, _))| (f.clone(), 0.05 + 0.14 * j as f64))
        .collect();
    // Deletion via zero and re-insertion stay consistent too.
    writes.push((tid[0].0.clone(), 0.0));
    writes.push((tid[0].0.clone(), 0.6));
    for (f, p) in &writes {
        map.update(&i, f, *p).unwrap();
        col.update(&i, f, *p).unwrap();
        assert_eq!(
            answer(&mut map, &i).to_bits(),
            answer(&mut col, &i).to_bits(),
            "after writing {} := {p}",
            f.display(&i)
        );
    }
}

#[test]
fn insert_and_delete_via_zero_annotations() {
    // Counting monoid: deleting a fact = annotation 0, re-inserting = 1.
    let q = example_query();
    let (db, i) = db_from_ints(&[
        ("R", &[&[1, 5], &[1, 6]]),
        ("S", &[&[1, 1], &[1, 2]]),
        ("T", &[&[1, 2, 4], &[1, 1, 9]]),
    ]);
    let facts = db.facts();
    let annotated: Vec<(Fact, u64)> = facts.iter().map(|f| (f.clone(), 1)).collect();
    let mut s: ServingSession<CountMonoid, MapRelation<u64>> =
        ServingSession::new(CountMonoid, &i, annotated).unwrap();
    let count = |s: &mut ServingSession<CountMonoid, MapRelation<u64>>| s.query(&i, &q).unwrap().0;
    let base = count(&mut s);
    assert_eq!(base, 4, "2 R-facts × 2 (S,T) combos");
    let first = |rel: &str| {
        facts
            .iter()
            .find(|f| f.rel == i.get(rel).unwrap())
            .unwrap()
            .clone()
    };
    // Delete one R fact: count halves.
    let r_fact = first("R");
    s.update(&i, &r_fact, 0).unwrap();
    assert_eq!(count(&mut s), 2);
    // Re-insert: back to base.
    s.update(&i, &r_fact, 1).unwrap();
    assert_eq!(count(&mut s), base);
    // Delete a T fact.
    s.update(&i, &first("T"), 0).unwrap();
    assert_eq!(count(&mut s), 2);
}

#[test]
fn unknown_relation_stored_and_new_facts_admitted() {
    let (tid, mut i) = tiny();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    let before = answer(&mut s, &i);
    // A fact over a relation the query does not mention is stored and
    // leaves the answer untouched.
    let other = i.intern("Other");
    let stranger = Fact::new(other, Tuple::ints(&[1]));
    s.update(&i, &stranger, 0.9).unwrap();
    assert!(s.facts().iter().any(|(f, _)| *f == stranger));
    assert_eq!(answer(&mut s, &i).to_bits(), before.to_bits());
    // An arity mismatch against a stored relation is rejected.
    let e = i.get("E").unwrap();
    let malformed = Fact::new(e, Tuple::ints(&[7]));
    assert!(matches!(
        s.update(&i, &malformed, 0.9),
        Err(ServingError::Annotate(AnnotateError::ArityMismatch { .. }))
    ));
    // A genuinely new fact over a query relation is admitted: the
    // active domain is NOT fixed at construction. E(7,7) shares no
    // value with the original instance.
    let new_e = Fact::new(e, Tuple::ints(&[7, 7]));
    s.update(&i, &new_e, 0.9).unwrap();
    let mut full = tid.clone();
    full.push((new_e.clone(), 0.9));
    assert_eq!(answer(&mut s, &i).to_bits(), fresh(&i, &full).to_bits());
    // And deleting it again restores the old result bit for bit.
    s.update(&i, &new_e, 0.0).unwrap();
    assert_eq!(answer(&mut s, &i).to_bits(), fresh(&i, &tid).to_bits());
}

#[test]
fn inserts_into_initially_empty_relation_resolve_lazily() {
    // F holds zero facts at construction, so its name is not even
    // interned: the first insert over it must land in the answer.
    let (db, mut i) = db_from_ints(&[("E", &[&[1, 2]])]);
    let tid: Vec<(Fact, f64)> = db.facts().into_iter().map(|f| (f, 0.5)).collect();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    assert_eq!(answer(&mut s, &i), 0.0, "no F facts: query unsatisfiable");
    let f = i.intern("F");
    let new_f = Fact::new(f, Tuple::ints(&[2, 3]));
    s.update(&i, &new_f, 0.5).unwrap();
    let mut full = tid;
    full.push((new_f, 0.5));
    assert_eq!(answer(&mut s, &i).to_bits(), fresh(&i, &full).to_bits());
}

#[test]
fn deleted_facts_are_evicted_from_the_index() {
    let (tid, i) = tiny();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    let before = s.facts().len();
    s.update(&i, &tid[0].0, 0.0).unwrap();
    assert_eq!(s.facts().len(), before - 1, "delete must evict");
    // A delete-then-reinsert inside one batch keeps the fact (the
    // final write wins for eviction too).
    let batch = vec![(tid[0].0.clone(), 0.0), (tid[0].0.clone(), 0.5)];
    s.update_batch(&i, &batch).unwrap();
    assert_eq!(s.facts().len(), before);
    assert_eq!(answer(&mut s, &i).to_bits(), fresh(&i, &tid).to_bits());
}

#[test]
fn early_convergence_on_no_op_update() {
    let (tid, i) = tiny();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    let before = answer(&mut s, &i);
    let (epoch, ops) = (s.session_epoch(), s.ops_performed());
    // Setting the same annotation converges without changing anything.
    let out = s.update(&i, &tid[0].0, 0.5).unwrap();
    assert_eq!(out, UpdateOutcome::default());
    assert_eq!(s.session_epoch(), epoch, "no change: no new epoch");
    assert_eq!(answer(&mut s, &i), before);
    assert_eq!(s.ops_performed(), ops, "re-serving is a pure cache hit");
}

#[test]
fn update_batch_coalesces_and_walks_once() {
    let (db, i) = db_from_ints(&[("E", &[&[1, 2], &[1, 3]]), ("F", &[&[2, 9], &[3, 8]])]);
    let tid: Vec<(Fact, f64)> = db.facts().into_iter().map(|f| (f, 0.5)).collect();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    answer(&mut s, &i);
    // Three entries, two of them touching the same fact: the later
    // write wins, and the whole batch is one repair pass (one epoch).
    let batch = vec![
        (tid[0].0.clone(), 0.9),
        (tid[1].0.clone(), 0.2),
        (tid[0].0.clone(), 0.7),
    ];
    let epoch = s.session_epoch();
    let out = s.update_batch(&i, &batch).unwrap();
    assert_eq!(s.session_epoch(), epoch + 1);
    assert_eq!(out.touched, vec!["E".to_owned()]);
    assert_eq!(out.patched_scans, 1, "E's one cached scan is patched once");
    let got = answer(&mut s, &i);
    let mut current = tid.clone();
    current[0].1 = 0.7;
    current[1].1 = 0.2;
    assert_eq!(got.to_bits(), fresh(&i, &current).to_bits());
    // A batch equals the same updates applied one by one.
    let mut serial = ProbMap::new(ProbMonoid, &i, tid).unwrap();
    for (f, p) in &batch {
        serial.update(&i, f, *p).unwrap();
    }
    assert_eq!(got.to_bits(), answer(&mut serial, &i).to_bits());
}

#[test]
fn batched_novel_inserts_extend_each_dictionary_once() {
    // A batch of inserts over fresh domain values extends the shared
    // dictionary once, translating each cached matrix once — not once
    // per inserted fact, as a serial replay does.
    let (tid, i) = tiny();
    let e = i.get("E").unwrap();
    let batch: Vec<(Fact, f64)> = (0..8)
        .map(|k| (Fact::new(e, Tuple::ints(&[100 + k, 200 + k])), 0.5))
        .collect();
    let mut batched = ProbColumnar::new(ProbMonoid, &i, tid.clone()).unwrap();
    answer(&mut batched, &i);
    let nodes = batched.cached_nodes();
    let batched_ext = batched.update_batch(&i, &batch).unwrap().dict_extensions;
    assert!(batched_ext >= 1, "novel values must extend the dictionary");
    assert!(
        batched_ext <= nodes,
        "one batch translates each cached node at most once: {batched_ext} > {nodes}"
    );
    let mut serial = ProbColumnar::new(ProbMonoid, &i, tid.clone()).unwrap();
    answer(&mut serial, &i);
    let mut serial_ext = 0usize;
    for (f, p) in &batch {
        serial_ext += serial.update(&i, f, *p).unwrap().dict_extensions;
    }
    assert!(
        batched_ext < serial_ext,
        "batched extension ({batched_ext}) must beat serial ({serial_ext})"
    );
    assert_eq!(
        answer(&mut batched, &i).to_bits(),
        answer(&mut serial, &i).to_bits(),
        "amortisation must not change the result"
    );
    // The map oracle has no dictionary and reports zero extensions.
    let mut map = ProbMap::new(ProbMonoid, &i, tid).unwrap();
    answer(&mut map, &i);
    assert_eq!(map.update_batch(&i, &batch).unwrap().dict_extensions, 0);
}

#[test]
fn deleting_unknown_keys_with_novel_values_is_free() {
    // Deleting facts that were never present — with domain values
    // outside the dictionary — must not extend it, touch the cache or
    // change the result.
    let (tid, i) = tiny();
    let mut s = ProbColumnar::new(ProbMonoid, &i, tid.clone()).unwrap();
    let before = answer(&mut s, &i);
    let ops = s.ops_performed();
    let e = i.get("E").unwrap();
    let batch: Vec<(Fact, f64)> = (0..4)
        .map(|k| (Fact::new(e, Tuple::ints(&[900 + k, 901 + k])), 0.0))
        .collect();
    assert_eq!(
        s.update_batch(&i, &batch).unwrap(),
        UpdateOutcome::default()
    );
    let (got, stats) = s.query(&i, &q_hierarchical()).unwrap();
    assert_eq!(got.to_bits(), before.to_bits());
    assert_eq!(s.ops_performed(), ops);
    let (want, want_stats) = evaluate(&ProbMonoid, &q_hierarchical(), &i, tid).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(stats, want_stats);
}

#[test]
fn replay_stats_match_fresh_evaluation() {
    let q = example_query();
    let (db, i) = db_from_ints(&[
        ("R", &[&[1, 5], &[1, 6]]),
        ("S", &[&[1, 1], &[1, 2]]),
        ("T", &[&[1, 2, 4], &[1, 1, 9]]),
    ]);
    let tid: Vec<(Fact, f64)> = db
        .facts()
        .into_iter()
        .enumerate()
        .map(|(j, f)| (f, 0.15 + 0.1 * j as f64))
        .collect();
    let mut s = ProbMap::new(ProbMonoid, &i, tid.clone()).unwrap();
    let (_, want) = evaluate(&ProbMonoid, &q, &i, tid.clone()).unwrap();
    assert_eq!(s.query(&i, &q).unwrap().1, want);
    // After a deletion the replayed stats match a fresh run over the
    // shrunken fact list (support trajectory included).
    s.update(&i, &tid[2].0, 0.0).unwrap();
    let current: Vec<(Fact, f64)> = tid
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != 2)
        .map(|(_, fp)| fp.clone())
        .collect();
    let (_, want) = evaluate(&ProbMonoid, &q, &i, current).unwrap();
    assert_eq!(s.query(&i, &q).unwrap().1, want);
}

#[test]
fn refold_work_tracks_dirty_groups_not_database_size() {
    // Patch work is Σ dirty-group sizes by construction; this instance
    // makes every group a dirty update can reach *small* while |D|
    // grows, so the assertion separates the delta-indexed path from
    // any O(|D|) scan. E(k, k) gives singleton Rule 1 groups; F joins
    // only at Y ∈ {0, 1}, so the annihilating counting merge keeps the
    // root support at 2 regardless of n.
    let q = q_hierarchical();
    let n = 512i64;
    let mut i = Interner::new();
    let e = i.intern("E");
    let f = i.intern("F");
    let mut facts: Vec<(Fact, u64)> = (0..n)
        .map(|k| (Fact::new(e, Tuple::ints(&[k, k])), 1))
        .collect();
    facts.push((Fact::new(f, Tuple::ints(&[0, 1])), 1));
    facts.push((Fact::new(f, Tuple::ints(&[1, 1])), 1));
    let total = facts.len();
    let mut s: ServingSession<CountMonoid, MapRelation<u64>> =
        ServingSession::new(CountMonoid, &i, facts.clone()).unwrap();
    s.query(&i, &q).unwrap();
    // A dead-end update converges at the merge: one singleton refold,
    // no ⊕ and no ⊗.
    let warm = s.ops_performed();
    s.update(&i, &facts[5].0, 3).unwrap();
    s.query(&i, &q).unwrap();
    assert_eq!(s.ops_performed(), warm, "|D| = {total}");
    // An update on a joining fact reaches the root: singleton E'
    // refold, one re-derived merge key and the root refold over the
    // 2-row merged support.
    let warm = s.ops_performed();
    s.update(&i, &facts[0].0, 2).unwrap();
    let (got, stats) = s.query(&i, &q).unwrap();
    let work = s.ops_performed() - warm;
    assert!(
        work <= 4,
        "patch spent {work} ops on a |D| = {total} instance"
    );
    // Cross-check against a fresh evaluation: values and op counts.
    facts[0].1 = 2;
    facts[5].1 = 3;
    let (want, want_stats) = evaluate(&CountMonoid, &q, &i, facts).unwrap();
    assert_eq!(got, want);
    assert_eq!(stats, want_stats);
    // And the memory criterion: the cached pipeline stores nowhere
    // near `steps + 1` full database clones.
    let full_clone_rows = (plan(&q).unwrap().steps().len() + 1) * total;
    assert!(
        s.cached_rows() < full_clone_rows / 2,
        "cached {} rows vs {} for full clones",
        s.cached_rows(),
        full_clone_rows
    );
}
