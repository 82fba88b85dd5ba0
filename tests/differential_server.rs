//! Differential testing of the multi-tenant serving server: N
//! concurrent reader sessions plus one writer over a single shared
//! `EncodedDb` and plan-node cache must be **indistinguishable** from a
//! serial replay of the same interleaved script. Snapshot isolation
//! makes that well-defined: every query is tagged with the epoch it
//! read (pinned, or current at query start), and the serial oracle
//! replays it against exactly that epoch's database state — so values
//! compare bit-for-bit on floats and the reported [`EngineStats`]
//! (⊕/⊗ op counts *and* support trajectory) must match fresh
//! evaluation exactly, on the ordered-map oracle, the sequential
//! columnar backend, the compressed block tier, and the sharded
//! backend at thread counts 2 and 8.
//!
//! Concurrent writers go through the group-commit pipeline
//! ([`Server::submit_batch`]): N writer threads' batches coalesce into
//! group commits, and the final state must equal a serial replay of
//! the batches in commit order — each [`CommitReceipt::seq`] tells the
//! oracle where its batch landed.
//!
//! On states of at most [`ORACLE_FACTS`] facts every current-epoch
//! answer is also checked against possible-worlds brute force
//! ([`worlds::probability_exhaustive`]), an oracle independent of the
//! engine under test.
//!
//! Non-prop pins: zero pool-thread spawns per request after warmup,
//! the global memory governor bounding total cached rows across
//! sessions under eviction pressure, the epoch lifecycle edge cases (a
//! reader pinned across a novel-value dictionary extension, a writer
//! batch racing a session close, epoch retirement actually freeing
//! copy-on-write matrices), and the write pipeline (overlapping
//! batches coalescing into one refold + one epoch, enqueue-validation
//! ticket isolation, queue-full refuse/block backpressure).

mod common;

use common::random_instance;
use hq_baselines::worlds;
use hq_db::{Database, Fact, Interner, Tuple};
use hq_monoid::ProbMonoid;
use hq_query::Query;
use hq_unify::engine::EngineStats;
use hq_unify::{
    evaluate_encoded, ColumnarRelation, CompressedColumnar, EncodedDb, MapRelation, Parallelism,
    Server, ServingBackend, ShardedColumnar,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Thread counts for the sharded servers.
const THREADS: [usize; 2] = [2, 8];

/// Concurrent reader sessions per server per round.
const READERS: usize = 3;

/// Concurrent writer threads in the group-commit rounds.
const WRITERS: usize = 3;

/// Largest state (in facts) the possible-worlds oracle enumerates.
const ORACLE_FACTS: usize = 12;

/// Fresh `evaluate_encoded` over a model state — the serial-replay
/// oracle each epoch-tagged query is compared against.
fn fresh_encoded(
    q: &Query,
    interner: &Interner,
    current: &BTreeMap<Fact, f64>,
) -> (f64, EngineStats) {
    let mut db = Database::new();
    for f in current.keys() {
        db.insert(f.clone());
    }
    let enc = EncodedDb::new(&db);
    evaluate_encoded(
        Parallelism::default(),
        &ProbMonoid,
        q,
        interner,
        &db,
        &enc,
        |sym, t| current[&Fact::new(sym, t.clone())],
    )
    .unwrap()
}

/// One interleaved round against one server: `READERS` pinned readers
/// evaluate the whole query family **while** the writer applies
/// `batch`; isolation means every pinned answer matches `expect` (the
/// serial replay of the pre-batch epoch) bit-for-bit. Panics inside
/// the scoped threads fail the test.
fn interleaved_round<R>(
    server: &Server<ProbMonoid, R>,
    interner: &Interner,
    family: &[Query],
    expect: &[(u64, EngineStats)],
    batch: &[(Fact, f64)],
) where
    R: ServingBackend<Ann = f64> + Send + Sync,
{
    // Pin before the writer starts: each reader holds the pre-batch
    // epoch for the whole round.
    let mut sessions: Vec<_> = (0..READERS)
        .map(|_| {
            let mut s = server.session();
            s.pin();
            s
        })
        .collect();
    std::thread::scope(|scope| {
        for (r, session) in sessions.iter_mut().enumerate() {
            let (family, expect) = (&family, &expect);
            scope.spawn(move || {
                for (q, (want_bits, want_stats)) in family.iter().zip(expect.iter()) {
                    let (got, stats) = session.query(interner, q).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        *want_bits,
                        "reader {r} diverged from serial replay on {q}: {got}"
                    );
                    assert_eq!(&stats, want_stats, "reader {r} stats diverged on {q}");
                }
            });
        }
        scope.spawn(move || {
            server.update_batch(interner, batch).unwrap();
        });
    });
    drop(sessions);
    server.gc();
}

/// Post-round check: an unpinned session sees the post-batch epoch.
/// Returns how many answers were also checked against possible-worlds
/// brute force (every answer, when the state holds at most
/// [`ORACLE_FACTS`] facts; none otherwise).
fn assert_current_state<R>(
    server: &Server<ProbMonoid, R>,
    interner: &Interner,
    family: &[Query],
    current: &BTreeMap<Fact, f64>,
) -> usize
where
    R: ServingBackend<Ann = f64>,
{
    let session = server.session();
    let small = current.len() <= ORACLE_FACTS;
    let list: Vec<(Fact, f64)> = current.iter().map(|(f, p)| (f.clone(), *p)).collect();
    for q in family {
        let (want, want_stats) = fresh_encoded(q, interner, current);
        let (got, stats) = session.query(interner, q).unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "current epoch diverged from fresh evaluation on {q}"
        );
        assert_eq!(stats, want_stats, "current-epoch stats diverged on {q}");
        if small {
            let worlds = worlds::probability_exhaustive(q, interner, &list);
            assert!(
                (got - worlds).abs() <= 1e-9,
                "served {got} vs possible worlds {worlds} on {q}"
            );
        }
    }
    if small {
        family.len()
    } else {
        0
    }
}

/// The full query plus every leading atom prefix (removing trailing
/// atoms of a hierarchical query preserves the hierarchy property),
/// the full query repeated so at least one evaluation per reader is a
/// pure cache hit on a sub-plan another session materialised.
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

/// A random update batch: drifts, deletes (weight 0 under the
/// probability monoid), and novel facts — half carrying domain values
/// outside the original instance to force dictionary extensions.
fn random_batch(
    rng: &mut StdRng,
    facts: &[Fact],
    rels: &[(hq_db::Sym, usize)],
    domain: i64,
) -> Vec<(Fact, f64)> {
    let len = rng.gen_range(1..=3);
    (0..len)
        .map(|_| {
            let novel = rng.gen_bool(0.3) || facts.is_empty();
            let fact = if novel {
                let (rel, arity) = rels[rng.gen_range(0..rels.len())];
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
                0.0 // delete under ProbMonoid
            } else {
                rng.gen_range(0.01..=1.0)
            };
            (fact, weight)
        })
        .collect()
}

fn apply_to_model(current: &mut BTreeMap<Fact, f64>, batch: &[(Fact, f64)]) {
    for (fact, w) in batch {
        if *w == 0.0 {
            current.remove(fact);
        } else {
            current.insert(fact.clone(), *w);
        }
    }
}

/// Drives the interleaved N-reader/1-writer schedule against one
/// server and the serial oracle, one round per batch. Returns how many
/// answers the possible-worlds oracle checked.
fn drive<R>(
    server: &Server<ProbMonoid, R>,
    interner: &Interner,
    family: &[Query],
    mut current: BTreeMap<Fact, f64>,
    batches: &[Vec<(Fact, f64)>],
) -> usize
where
    R: ServingBackend<Ann = f64> + Send + Sync,
{
    let mut oracle_checked = 0;
    for batch in batches {
        let expect: Vec<(u64, EngineStats)> = family
            .iter()
            .map(|q| {
                let (v, s) = fresh_encoded(q, interner, &current);
                (v.to_bits(), s)
            })
            .collect();
        interleaved_round(server, interner, family, &expect, batch);
        apply_to_model(&mut current, batch);
        oracle_checked += assert_current_state(server, interner, family, &current);
    }
    oracle_checked
}

/// One concurrent-writer round: `READERS` sessions pinned at the
/// pre-round epoch evaluate the family **while** `WRITERS` threads
/// race their batches through the group-commit queue. Pinned answers
/// must match the pre-round serial replay bit-for-bit; afterwards the
/// final state must equal the batches replayed serially in **commit
/// order** (the receipts' `seq`), whatever grouping the race produced.
fn drive_concurrent<R>(
    server: &Server<ProbMonoid, R>,
    interner: &Interner,
    family: &[Query],
    mut current: BTreeMap<Fact, f64>,
    batches: &[Vec<(Fact, f64)>],
) where
    R: ServingBackend<Ann = f64> + Send + Sync,
{
    let expect: Vec<(u64, EngineStats)> = family
        .iter()
        .map(|q| {
            let (v, s) = fresh_encoded(q, interner, &current);
            (v.to_bits(), s)
        })
        .collect();
    let mut sessions: Vec<_> = (0..READERS)
        .map(|_| {
            let mut s = server.session();
            s.pin();
            s
        })
        .collect();
    let order: std::sync::Mutex<Vec<(u64, usize)>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (r, session) in sessions.iter_mut().enumerate() {
            let (family, expect) = (&family, &expect);
            scope.spawn(move || {
                for (q, (want_bits, want_stats)) in family.iter().zip(expect.iter()) {
                    let (got, stats) = session.query(interner, q).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        *want_bits,
                        "reader {r} diverged from serial replay on {q}: {got}"
                    );
                    assert_eq!(&stats, want_stats, "reader {r} stats diverged on {q}");
                }
            });
        }
        for (b, batch) in batches.iter().enumerate() {
            let order = &order;
            scope.spawn(move || {
                let receipt = server.commit_batch(interner, batch).unwrap();
                order.lock().unwrap().push((receipt.seq, b));
            });
        }
    });
    drop(sessions);
    server.gc();
    // Commit-order-determinised serial replay: groups drain the queue
    // FIFO and coalesce last-write-wins, so replaying the batches in
    // arrival-sequence order reproduces the committed state exactly.
    let mut order = order.into_inner().unwrap();
    order.sort_unstable();
    for &(_, b) in &order {
        apply_to_model(&mut current, &batches[b]);
    }
    assert_current_state(server, interner, family, &current);
    let ws = server.write_stats();
    assert_eq!(
        ws.batches_committed,
        batches.len() as u64,
        "every submitted batch must be committed exactly once"
    );
    assert!(
        ws.commits >= 1 && ws.commits <= batches.len() as u64,
        "{} commits for {} batches",
        ws.commits,
        batches.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The acceptance bar: interleaved N-reader/1-writer schedules on
    /// every backend × thread count, every epoch-tagged query
    /// bit-identical (value, op counts, support trajectory) to the
    /// serial replay.
    #[test]
    fn interleaved_readers_match_serial_replay(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let current: BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let batches: Vec<Vec<(Fact, f64)>> = (0..3)
            .map(|_| random_batch(&mut inst.rng, &facts, &rels, 3))
            .collect();

        let server: Server<ProbMonoid, MapRelation<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive(&server, &inst.interner, &family, current.clone(), &batches);

        let server: Server<ProbMonoid, ColumnarRelation<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive(&server, &inst.interner, &family, current.clone(), &batches);

        let server: Server<ProbMonoid, CompressedColumnar<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive(&server, &inst.interner, &family, current.clone(), &batches);

        for &t in &THREADS {
            let server: Server<ProbMonoid, ShardedColumnar<f64>> = Server::with_parallelism(
                ProbMonoid,
                &inst.interner,
                tid.iter().cloned(),
                Parallelism::fine_grained(t),
            )
            .unwrap();
            drive(&server, &inst.interner, &family, current.clone(), &batches);
        }
    }

    /// Group-commit acceptance bar: `WRITERS` threads racing batches
    /// through the commit queue while pinned readers evaluate, on
    /// every backend × thread count — pinned reads bit-identical to
    /// the pre-round replay, the final state bit-identical (values,
    /// op counts, support trajectories) to a commit-order serial
    /// replay, every batch committed exactly once.
    #[test]
    fn concurrent_writers_match_commit_order_replay(seed in 0u64..1_000_000) {
        let mut inst = random_instance(seed, 4, 4, 5, 3);
        let rels = query_rels(&inst.query, &inst.interner);
        if rels.is_empty() {
            return Ok(());
        }
        let family = query_family(&inst.query);
        let facts = inst.database.facts();
        let current: BTreeMap<Fact, f64> = facts
            .iter()
            .map(|f| (f.clone(), inst.rng.gen_range(0.01..=1.0)))
            .collect();
        let tid: Vec<(Fact, f64)> = current.clone().into_iter().collect();
        let batches: Vec<Vec<(Fact, f64)>> = (0..WRITERS)
            .map(|_| random_batch(&mut inst.rng, &facts, &rels, 3))
            .collect();

        let server: Server<ProbMonoid, MapRelation<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive_concurrent(&server, &inst.interner, &family, current.clone(), &batches);

        let server: Server<ProbMonoid, ColumnarRelation<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive_concurrent(&server, &inst.interner, &family, current.clone(), &batches);

        let server: Server<ProbMonoid, CompressedColumnar<f64>> =
            Server::new(ProbMonoid, &inst.interner, tid.iter().cloned()).unwrap();
        drive_concurrent(&server, &inst.interner, &family, current.clone(), &batches);

        for &t in &THREADS {
            let server: Server<ProbMonoid, ShardedColumnar<f64>> = Server::with_parallelism(
                ProbMonoid,
                &inst.interner,
                tid.iter().cloned(),
                Parallelism::fine_grained(t),
            )
            .unwrap();
            drive_concurrent(&server, &inst.interner, &family, current.clone(), &batches);
        }
    }
}

/// Shared two-relation instance for the non-prop pins: `Q() :- E(X,Y),
/// F(Y,Z)` over weighted facts.
fn small_instance() -> (Interner, Vec<(Fact, f64)>, Query) {
    let mut interner = Interner::new();
    let e = interner.intern("E");
    let f = interner.intern("F");
    let tid = vec![
        (Fact::new(e, Tuple::ints(&[1, 2])), 0.5),
        (Fact::new(e, Tuple::ints(&[3, 4])), 0.25),
        (Fact::new(f, Tuple::ints(&[2, 3])), 0.5),
        (Fact::new(f, Tuple::ints(&[4, 5])), 0.125),
    ];
    let q = Query::new(&[("E", &["X", "Y"]), ("F", &["Y", "Z"])]).unwrap();
    (interner, tid, q)
}

fn model_of(tid: &[(Fact, f64)]) -> BTreeMap<Fact, f64> {
    tid.iter().cloned().collect()
}

/// The independent-oracle arm runs: a fixed-seed schedule of 24
/// batches over `small_instance` keeps the state small enough for
/// possible-worlds enumeration, and every current-epoch answer on
/// every backend agrees with it (|Δ| ≤ 1e-9) as well as with fresh
/// evaluation.
#[test]
fn small_states_match_possible_worlds_oracle() {
    fn check<R: ServingBackend<Ann = f64> + Send + Sync>(par: Parallelism) {
        let (interner, tid, q) = small_instance();
        let family = query_family(&q);
        let rels = query_rels(&q, &interner);
        let facts: Vec<Fact> = tid.iter().map(|(f, _)| f.clone()).collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let batches: Vec<Vec<(Fact, f64)>> = (0..24)
            .map(|_| random_batch(&mut rng, &facts, &rels, 5))
            .collect();
        let server: Server<ProbMonoid, R> =
            Server::with_parallelism(ProbMonoid, &interner, tid.iter().cloned(), par).unwrap();
        let checked = drive(&server, &interner, &family, model_of(&tid), &batches);
        assert!(
            checked >= 20 * family.len(),
            "the oracle arm checked only {checked} answers"
        );
    }
    check::<MapRelation<f64>>(Parallelism::default());
    check::<ColumnarRelation<f64>>(Parallelism::default());
    check::<CompressedColumnar<f64>>(Parallelism::default());
    check::<ShardedColumnar<f64>>(Parallelism::fine_grained(2));
}

/// Zero pool-thread spawns per request after warmup: the sharded
/// server fans reader evaluation over the persistent worker pool, and
/// once the pool is warmed to the configured degree, serving any
/// number of concurrent queries spawns no further threads.
#[test]
fn no_pool_spawns_per_request_after_warmup() {
    let (interner, tid, q) = small_instance();
    let par = Parallelism::fine_grained(4);
    let server: Server<ProbMonoid, ShardedColumnar<f64>> =
        Server::with_parallelism(ProbMonoid, &interner, tid.iter().cloned(), par).unwrap();
    // One warm round: materialise every node once.
    let warm = server.session();
    warm.query(&interner, &q).unwrap();
    let spawned = hq_unify::pool::spawn_count();
    let e = interner.get("E").unwrap();
    let (srv, itr, query) = (&server, &interner, &q);
    for round in 0..3u64 {
        let mut sessions: Vec<_> = (0..READERS).map(|_| srv.session()).collect();
        for s in &mut sessions {
            s.pin();
        }
        std::thread::scope(|scope| {
            for session in &sessions {
                scope.spawn(move || {
                    session.query(itr, query).unwrap();
                });
            }
            let batch = vec![(Fact::new(e, Tuple::ints(&[1, 2])), 0.3 + 0.1 * round as f64)];
            scope.spawn(move || {
                srv.update_batch(itr, &batch).unwrap();
            });
        });
    }
    assert_eq!(
        hq_unify::pool::spawn_count(),
        spawned,
        "pool spawned threads after warmup"
    );
}

/// The global memory governor: with many sessions hammering a small
/// `set_global_cache_rows` budget, the total materialised rows across
/// the shared cache stay bounded after every query, evictions are
/// observable, and answers remain bit-identical to fresh evaluation.
#[test]
fn global_governor_bounds_rows_across_sessions() {
    let (interner, tid, q) = small_instance();
    let family = query_family(&q);
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let budget = 3usize;
    server.set_global_cache_rows(Some(budget));
    let current = model_of(&tid);
    for _ in 0..2 {
        for q in &family {
            for _ in 0..READERS {
                let session = server.session();
                let (want, want_stats) = fresh_encoded(q, &interner, &current);
                let (got, stats) = session.query(&interner, q).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "evicting path diverged on {q}"
                );
                assert_eq!(stats, want_stats, "evicting stats diverged on {q}");
                assert!(
                    server.materialised_rows() <= budget,
                    "governor budget violated: {} rows > {budget}",
                    server.materialised_rows()
                );
            }
        }
    }
    assert!(server.evictions() > 0, "pressure produced no evictions");
}

/// Epoch lifecycle: a reader pinned across a batch that extends the
/// value dictionary (novel domain value) keeps serving the old
/// epoch's answers bit-identically, while new sessions see the new
/// state — on every backend.
#[test]
fn reader_pinned_across_dictionary_extension() {
    fn check<R: ServingBackend<Ann = f64>>(par: Parallelism) {
        let (interner, tid, q) = small_instance();
        let server: Server<ProbMonoid, R> =
            Server::with_parallelism(ProbMonoid, &interner, tid.iter().cloned(), par).unwrap();
        let mut pinned = server.session();
        pinned.pin();
        let before = model_of(&tid);
        let (want_before, stats_before) = fresh_encoded(&q, &interner, &before);
        // Novel values 77/78 never appeared in the seed database: the
        // writer's refresh extends the shared dictionary and renumbers
        // codes, while the pinned epoch keeps its own encoding.
        let e = interner.get("E").unwrap();
        let batch = vec![(Fact::new(e, Tuple::ints(&[77, 78])), 0.5)];
        server.update_batch(&interner, &batch).unwrap();
        let (got, stats) = pinned.query(&interner, &q).unwrap();
        assert_eq!(
            got.to_bits(),
            want_before.to_bits(),
            "pinned reader leaked the dictionary extension"
        );
        assert_eq!(stats, stats_before, "pinned stats diverged");
        let mut after = before.clone();
        apply_to_model(&mut after, &batch);
        let (want_after, stats_after) = fresh_encoded(&q, &interner, &after);
        let fresh = server.session();
        let (got, stats) = fresh.query(&interner, &q).unwrap();
        assert_eq!(
            got.to_bits(),
            want_after.to_bits(),
            "new session missed the batch"
        );
        assert_eq!(stats, stats_after, "new-session stats diverged");
        drop(pinned);
        server.gc();
        assert_eq!(server.live_epochs(), 1, "retired epoch survived gc");
    }
    check::<MapRelation<f64>>(Parallelism::default());
    check::<ColumnarRelation<f64>>(Parallelism::default());
    check::<CompressedColumnar<f64>>(Parallelism::default());
    for &t in &THREADS {
        check::<ShardedColumnar<f64>>(Parallelism::fine_grained(t));
    }
}

/// Epoch lifecycle: a writer batch racing a session close. With
/// `max_live_epochs` at the floor (2), every batch must wait for the
/// previous epoch to retire — the pinned reader dropping mid-write is
/// exactly the retirement signal the admission control blocks on, so
/// the writer must neither deadlock nor skip the wait.
#[test]
fn writer_batch_races_session_close() {
    let (interner, tid, q) = small_instance();
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    server.set_max_live_epochs(Some(2));
    let e = interner.get("E").unwrap();
    for round in 0..4u64 {
        let mut pinned = server.session();
        pinned.pin();
        pinned.query(&interner, &q).unwrap();
        std::thread::scope(|scope| {
            // The reader drops its pin while the writer's admission
            // check may already be waiting on exactly that epoch.
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                drop(pinned);
            });
            scope.spawn(|| {
                let w = 0.3 + 0.05 * round as f64;
                let batch = vec![(Fact::new(e, Tuple::ints(&[1, 2])), w)];
                server.update_batch(&interner, &batch).unwrap();
            });
        });
    }
    server.gc();
    assert_eq!(
        server.live_epochs(),
        1,
        "epochs leaked across racing closes"
    );
    assert_eq!(server.current_epoch(), 4);
}

/// Epoch lifecycle: retirement actually frees the copy-on-write
/// matrices. A pinned reader forces the old epoch's nodes to stay
/// materialised alongside the new epoch's; dropping the pin and
/// collecting must shrink `materialised_rows`/`storage_bytes` back to
/// a single epoch's footprint.
#[test]
fn epoch_retirement_frees_copy_on_write_matrices() {
    let (interner, tid, q) = small_instance();
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let mut pinned = server.session();
    pinned.pin();
    pinned.query(&interner, &q).unwrap();
    // Touch E: the old epoch's E-scan (and everything fed by it) now
    // differs from the new epoch's, so both copies are materialised
    // while the pin lives.
    let e = interner.get("E").unwrap();
    let batch = vec![(Fact::new(e, Tuple::ints(&[1, 2])), 0.9)];
    server.update_batch(&interner, &batch).unwrap();
    let fresh = server.session();
    fresh.query(&interner, &q).unwrap();
    pinned.query(&interner, &q).unwrap();
    let rows_both = server.materialised_rows();
    let bytes_both = server.storage_bytes();
    assert!(
        server.live_epochs() >= 2,
        "pin failed to keep the old epoch live"
    );
    drop(pinned);
    server.gc();
    let rows_after = server.materialised_rows();
    let bytes_after = server.storage_bytes();
    assert!(
        rows_after < rows_both,
        "retirement freed no rows ({rows_both} -> {rows_after})"
    );
    assert!(
        bytes_after <= bytes_both,
        "retirement grew storage ({bytes_both} -> {bytes_after})"
    );
    assert_eq!(server.live_epochs(), 1);
    // The surviving epoch still serves correctly after the purge.
    let mut after = model_of(&tid);
    apply_to_model(&mut after, &batch);
    let (want, _) = fresh_encoded(&q, &interner, &after);
    let (got, _) = fresh.query(&interner, &q).unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
}

/// Cross-session sharing: a sub-plan materialised by one session is a
/// zero-op cache hit for every other session of the same epoch.
#[test]
fn cache_hits_are_zero_op_across_sessions() {
    let (interner, tid, q) = small_instance();
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let first = server.session();
    first.query(&interner, &q).unwrap();
    let performed = server.ops_performed();
    assert!(performed > 0, "first evaluation performed no ops");
    for _ in 0..READERS {
        let other = server.session();
        let (_, stats) = other.query(&interner, &q).unwrap();
        // Replayed stats still report the full cost...
        assert!(stats.add_ops + stats.mul_ops > 0);
    }
    // ...but no new monoid work was performed by any of them.
    assert_eq!(
        server.ops_performed(),
        performed,
        "cache hits across sessions performed monoid ops"
    );
}

/// Group coalescing: three overlapping single-key batches submitted
/// together commit as **one** group — one epoch publication and one
/// refold of the shared dirty key at its final value — and must beat a
/// serial per-batch replay on both epoch publishes and writer monoid
/// ops while producing the bit-identical final state.
#[test]
fn overlapping_batches_coalesce_into_one_refold_and_one_epoch() {
    let (interner, tid, q) = small_instance();
    let grouped: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let serial: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    // Always patch (never rebuild): the comparison is refold passes.
    grouped.set_patch_fraction(f64::INFINITY);
    serial.set_patch_fraction(f64::INFINITY);
    // Warm both caches so the committer has nodes to delta-patch.
    grouped.session().query(&interner, &q).unwrap();
    serial.session().query(&interner, &q).unwrap();
    let e = interner.get("E").unwrap();
    let batches: Vec<Vec<(Fact, f64)>> = [0.3, 0.6, 0.9]
        .iter()
        .map(|&w| vec![(Fact::new(e, Tuple::ints(&[1, 2])), w)])
        .collect();
    let grouped_ops_before = grouped.writer_ops_performed();
    let tickets: Vec<_> = batches
        .iter()
        .map(|b| grouped.submit_batch(&interner, b).unwrap())
        .collect();
    assert_eq!(grouped.flush_writes(&interner), 3);
    for ticket in tickets {
        let receipt = ticket.wait(&interner).unwrap();
        assert_eq!(receipt.epoch, 1, "the group published more than one epoch");
        assert_eq!(receipt.group_batches, 3);
    }
    let grouped_ops = grouped.writer_ops_performed() - grouped_ops_before;
    let serial_ops_before = serial.writer_ops_performed();
    for b in &batches {
        serial.update_batch(&interner, b).unwrap();
    }
    let serial_ops = serial.writer_ops_performed() - serial_ops_before;
    assert_eq!(grouped.current_epoch(), 1, "grouped: one epoch publish");
    assert_eq!(serial.current_epoch(), 3, "serial: one publish per batch");
    assert!(
        grouped_ops < serial_ops,
        "coalesced refold ({grouped_ops} ops) must beat per-batch refolds ({serial_ops} ops)"
    );
    let ws = grouped.write_stats();
    assert_eq!(ws.commits, 1);
    assert_eq!(ws.batches_committed, 3);
    assert_eq!(ws.max_group, 3);
    assert_eq!(ws.queue_high_water, 3);
    assert_eq!(ws.queue_depth, 0);
    // Both servers end bit-identical to the fresh-evaluation oracle.
    let mut model = model_of(&tid);
    for b in &batches {
        apply_to_model(&mut model, b);
    }
    let family = query_family(&q);
    assert_current_state(&grouped, &interner, &family, &model);
    assert_current_state(&serial, &interner, &family, &model);
}

/// Ticket error isolation: a batch failing enqueue-time arity
/// validation errors on its **own** ticket — immediately, before it
/// can join a group — and the valid batches of the same burst commit
/// untouched. Pending declarations count: a batch declaring a new
/// relation makes a conflicting later submission invalid even before
/// the declaration commits.
#[test]
fn invalid_batch_is_rejected_at_enqueue_without_poisoning_the_group() {
    let (mut interner, tid, q) = small_instance();
    let g = interner.intern("G");
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    let e = interner.get("E").unwrap();
    let good = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[9, 9])), 0.7)])
        .unwrap();
    // E is declared at arity 2: a 3-tuple insert is rejected here.
    let err = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[1, 2, 3])), 0.4)])
        .unwrap_err();
    assert!(matches!(err, hq_unify::ServingError::Annotate(_)), "{err}");
    // All-or-nothing per ticket: one bad fact rejects the whole batch.
    let err = server
        .submit_batch(
            &interner,
            &[
                (Fact::new(e, Tuple::ints(&[8, 8])), 0.2),
                (Fact::new(e, Tuple::ints(&[1, 2, 3])), 0.4),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, hq_unify::ServingError::Annotate(_)), "{err}");
    // A pending (uncommitted) declaration already binds: G enters the
    // registry at arity 2 here...
    let declares = server
        .submit_batch(&interner, &[(Fact::new(g, Tuple::ints(&[1, 1])), 0.5)])
        .unwrap();
    // ...so a conflicting arity-1 insert is invalid at enqueue.
    let err = server
        .submit_batch(&interner, &[(Fact::new(g, Tuple::ints(&[1])), 0.5)])
        .unwrap_err();
    assert!(matches!(err, hq_unify::ServingError::Annotate(_)), "{err}");
    // Deletes stay exempt, exactly as in the serial session.
    let harmless_delete = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[1, 2, 3])), 0.0)])
        .unwrap();
    assert_eq!(server.flush_writes(&interner), 3);
    let receipt = good.wait(&interner).unwrap();
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.group_batches, 3);
    declares.wait(&interner).unwrap();
    harmless_delete.wait(&interner).unwrap();
    let ws = server.write_stats();
    assert_eq!(ws.rejected_invalid, 3);
    assert_eq!(ws.commits, 1);
    assert_eq!(ws.batches_committed, 3);
    // The surviving writes landed; the state matches fresh evaluation.
    let mut model = model_of(&tid);
    model.insert(Fact::new(e, Tuple::ints(&[9, 9])), 0.7);
    model.insert(Fact::new(g, Tuple::ints(&[1, 1])), 0.5);
    assert_current_state(&server, &interner, &query_family(&q), &model);
}

/// Queue-full backpressure, refuse policy: with the commit queue
/// bounded at one pending batch, a second submission fails fast with
/// `WriteQueueFull`, the rejection is counted, and the queued batch
/// commits normally once a waiter drains the queue.
#[test]
fn full_queue_refuses_and_counts_under_refuse_policy() {
    let (interner, tid, _q) = small_instance();
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    server.set_write_queue(Some(1), hq_unify::WritePolicy::Refuse);
    let e = interner.get("E").unwrap();
    let queued = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[1, 2])), 0.9)])
        .unwrap();
    let err = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[3, 4])), 0.8)])
        .unwrap_err();
    assert!(
        matches!(err, hq_unify::ServingError::WriteQueueFull { pending: 1 }),
        "{err}"
    );
    let ws = server.write_stats();
    assert_eq!(ws.rejected_full, 1);
    assert_eq!(ws.queue_depth, 1);
    assert_eq!(ws.queue_high_water, 1);
    let receipt = queued.wait(&interner).unwrap();
    assert_eq!(receipt.epoch, 1);
    assert_eq!(server.write_stats().queue_depth, 0);
    // Space freed: the queue admits again.
    server
        .update_batch(&interner, &[(Fact::new(e, Tuple::ints(&[3, 4])), 0.8)])
        .unwrap();
    assert_eq!(server.current_epoch(), 2);
}

/// Queue-full backpressure, block policy: a submitter over the bound
/// parks until the committer drains space free, then commits normally
/// — no refusal, no lost batch, no deadlock.
#[test]
fn full_queue_blocks_then_admits_under_block_policy() {
    let (interner, tid, _q) = small_instance();
    let server: Server<ProbMonoid, ColumnarRelation<f64>> =
        Server::new(ProbMonoid, &interner, tid.iter().cloned()).unwrap();
    server.set_write_queue(Some(1), hq_unify::WritePolicy::Block);
    let e = interner.get("E").unwrap();
    let queued = server
        .submit_batch(&interner, &[(Fact::new(e, Tuple::ints(&[1, 2])), 0.9)])
        .unwrap();
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| {
            // Over the bound: parks on the space condvar until the
            // flush below drains the queue, then commits normally.
            server
                .update_batch(&interner, &[(Fact::new(e, Tuple::ints(&[3, 4])), 0.8)])
                .unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !blocked.is_finished(),
            "submitter failed to block on the full queue"
        );
        assert_eq!(server.flush_writes(&interner), 1);
    });
    let receipt = queued.wait(&interner).unwrap();
    assert_eq!(receipt.epoch, 1);
    assert_eq!(server.current_epoch(), 2, "the blocked batch committed");
    let ws = server.write_stats();
    assert_eq!(ws.rejected_full, 0);
    assert_eq!(ws.batches_committed, 2);
    let mut model = model_of(&tid);
    model.insert(Fact::new(e, Tuple::ints(&[1, 2])), 0.9);
    model.insert(Fact::new(e, Tuple::ints(&[3, 4])), 0.8);
    let q = Query::new(&[("E", &["X", "Y"]), ("F", &["Y", "Z"])]).unwrap();
    assert_current_state(&server, &interner, &[q], &model);
}
