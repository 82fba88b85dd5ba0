//! Differential testing of recursive fixpoint plans: through arbitrary
//! schedules of annotated transitive-closure queries and update batches
//! — annotation drifts, deletions, dynamic edge inserts with novel
//! domain values — every `query_fix` served from the maintained
//! fixpoint cache must be **indistinguishable** from a fresh
//! [`transitive_closure`] re-run over the current edge set: values
//! bit-for-bit (floats included) and the replayed [`EngineStats`]
//! (⊕/⊗ op counts *and* support trajectory) equal to the naive run's —
//! on the ordered-map oracle, the sequential columnar backend, the
//! compressed block tier, and the sharded backend at thread counts 2
//! and 8, for the prob, count, and bag-max 2-monoids.
//!
//! Non-prop pins: a repeated `query_fix` must perform **zero** monoid
//! operations (the fixpoint is replayed from the cached run, never
//! re-evaluated); a single-edge insert into a ≥ 32k-edge closure must
//! refold strictly fewer rows — and perform strictly fewer ⊕/⊗ — than
//! a fresh fixpoint while landing bit-identical; a monoid whose ⊗ is
//! not fixpoint-convergent ([`SatCountMonoid`]) is rejected with a
//! validation error at both the kernel and the serving layer instead
//! of looping forever; and the multi-tenant [`Server`] serves the same
//! bits as a serial session before and after an epoch publish — and
//! patches a reader-warmed fixpoint in place under a pure-insert
//! commit instead of rebuilding it.

use hq_db::{Fact, Interner, Tuple, Value};
use hq_monoid::{BagMaxMonoid, CountMonoid, ProbMonoid, SatCountMonoid, SatVec, TwoMonoid};
use hq_unify::engine::EngineStats;
use hq_unify::fixpoint::{
    patch_inserts, semi_naive, transitive_closure, FixpointError, FixpointRun, PatchOutcome,
    StepShape,
};
use hq_unify::{
    ColumnarRelation, CompressedAnn, CompressedColumnar, MapRelation, Parallelism, Server,
    ServingError, ServingSession, ShardedColumnar,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Thread counts for the sharded serving sessions.
const THREADS: [usize; 2] = [2, 8];

/// Update rounds per proptest schedule.
const ROUNDS: usize = 3;

/// Base domain for edge endpoints; novel inserts reach past it to
/// force dictionary extension on the encoded backends.
const DOMAIN: i64 = 6;

/// One serving session per backend flavour, all fed the same schedule
/// of updates and recursive queries.
struct Fleet<M: TwoMonoid>
where
    M::Elem: CompressedAnn,
{
    map: ServingSession<M, MapRelation<M::Elem>>,
    columnar: ServingSession<M, ColumnarRelation<M::Elem>>,
    compressed: ServingSession<M, CompressedColumnar<M::Elem>>,
    sharded: Vec<ServingSession<M, ShardedColumnar<M::Elem>>>,
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

    /// Serves one recursive readout from every session and asserts all
    /// agree; returns the shared `(value, stats)`.
    fn query_fix(
        &mut self,
        interner: &Interner,
        src: Option<Value>,
        dst: Option<Value>,
    ) -> (M::Elem, EngineStats) {
        let (want, want_stats) = self.map.query_fix(interner, "E", src, dst).unwrap();
        let (got, stats) = self.columnar.query_fix(interner, "E", src, dst).unwrap();
        assert_eq!(
            want, got,
            "columnar fixpoint diverged on ({src:?}, {dst:?})"
        );
        assert_eq!(want_stats, stats, "columnar fixpoint stats diverged");
        let (got, stats) = self.compressed.query_fix(interner, "E", src, dst).unwrap();
        assert_eq!(
            want, got,
            "compressed fixpoint diverged on ({src:?}, {dst:?})"
        );
        assert_eq!(want_stats, stats, "compressed fixpoint stats diverged");
        for s in &mut self.sharded {
            let (got, stats) = s.query_fix(interner, "E", src, dst).unwrap();
            assert_eq!(want, got, "sharded fixpoint diverged on ({src:?}, {dst:?})");
            assert_eq!(want_stats, stats, "sharded fixpoint stats diverged");
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

/// The serving layer's readout convention over a kernel run — the
/// oracle side of every differential comparison.
fn readout<M: TwoMonoid>(
    monoid: &M,
    run: &FixpointRun<M::Elem>,
    src: Option<Value>,
    dst: Option<Value>,
) -> M::Elem {
    match (src, dst) {
        (Some(s), Some(d)) => run.get(s, d).cloned().unwrap_or_else(|| monoid.zero()),
        (Some(s), None) => monoid.sum(
            run.acc
                .range((s, Value::Int(i64::MIN))..)
                .take_while(|(&(a, _), _)| a == s)
                .map(|(_, (k, _))| k),
        ),
        (None, Some(d)) => monoid.sum(
            run.acc
                .iter()
                .filter(|(&(_, b), _)| b == d)
                .map(|(_, (k, _))| k),
        ),
        (None, None) => run.total.clone(),
    }
}

/// Fresh naive re-run over the model's current edge set. `BTreeMap`
/// iteration yields tuples ascending — the same row order the cached
/// scans feed the serving-layer fixpoint, so stats match exactly.
fn naive_rerun<M: TwoMonoid>(
    monoid: &M,
    current: &BTreeMap<Fact, M::Elem>,
) -> FixpointRun<M::Elem> {
    let edges: Vec<(Tuple, M::Elem)> = current
        .iter()
        .map(|(f, k)| (f.tuple.clone(), k.clone()))
        .collect();
    transitive_closure(monoid, &edges).unwrap()
}

/// A random endpoint probe: closed pairs, open-source / open-target
/// sums, and the grand total, over both present and absent values.
fn random_probe(rng: &mut StdRng) -> (Option<Value>, Option<Value>) {
    let end = |rng: &mut StdRng| {
        if rng.gen_bool(0.3) {
            None
        } else {
            Some(Value::Int(rng.gen_range(0..DOMAIN + 2)))
        }
    };
    (end(rng), end(rng))
}

/// One random edge batch: annotation drifts on existing edges, deletes
/// (zero annotation), and inserts — some reaching past the original
/// domain so the encoded backends must extend their dictionaries.
fn random_edge_batch<M: TwoMonoid>(
    rng: &mut StdRng,
    monoid: &M,
    current: &BTreeMap<Fact, M::Elem>,
    rel: hq_db::Sym,
    mut ann: impl FnMut(&mut StdRng) -> M::Elem,
) -> Vec<(Fact, M::Elem)> {
    let existing: Vec<Fact> = current.keys().cloned().collect();
    let mut batch = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let roll: f64 = rng.gen();
        if roll < 0.25 && !existing.is_empty() {
            // Delete an existing edge.
            let f = existing[rng.gen_range(0..existing.len())].clone();
            batch.push((f, monoid.zero()));
        } else if roll < 0.5 && !existing.is_empty() {
            // Drift an existing edge's annotation.
            let f = existing[rng.gen_range(0..existing.len())].clone();
            batch.push((f, ann(rng)));
        } else {
            // Insert (or overwrite) an edge, sometimes on novel values.
            let hi = if rng.gen_bool(0.3) {
                DOMAIN * 4 + 7
            } else {
                DOMAIN
            };
            let t = Tuple::ints(&[rng.gen_range(0..hi), rng.gen_range(0..hi)]);
            batch.push((Fact::new(rel, t), ann(rng)));
        }
    }
    batch
}

fn apply_to_model<M: TwoMonoid>(
    monoid: &M,
    current: &mut BTreeMap<Fact, M::Elem>,
    batch: &[(Fact, M::Elem)],
) {
    for (f, k) in batch {
        if monoid.is_zero(k) {
            current.remove(f);
        } else {
            current.insert(f.clone(), k.clone());
        }
    }
}

/// Drives one full schedule for one monoid: build a fleet over a
/// random edge set, then alternate random probes (compared against the
/// naive re-run oracle, values and stats) with random update batches.
fn drive_schedule<M>(monoid: M, seed: u64, mut ann: impl FnMut(&mut StdRng) -> M::Elem)
where
    M: TwoMonoid + Clone,
    M::Elem: CompressedAnn,
{
    let mut rng = hq_db::generate::rng(seed);
    let mut interner = Interner::new();
    let e = interner.intern("E");

    let mut current: BTreeMap<Fact, M::Elem> = BTreeMap::new();
    current.insert(Fact::new(e, Tuple::ints(&[0, 1])), ann(&mut rng));
    for _ in 0..rng.gen_range(3..10) {
        let t = Tuple::ints(&[rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN)]);
        current.insert(Fact::new(e, t), ann(&mut rng));
    }
    let facts: Vec<(Fact, M::Elem)> = current
        .iter()
        .map(|(f, k)| (f.clone(), k.clone()))
        .collect();
    let mut fleet = Fleet::build(&monoid, &interner, &facts);

    for _ in 0..=ROUNDS {
        let run = naive_rerun(&monoid, &current);
        let mut probes = vec![(None, None)];
        for _ in 0..3 {
            probes.push(random_probe(&mut rng));
        }
        for (src, dst) in probes {
            let want = readout(&monoid, &run, src, dst);
            let (got, stats) = fleet.query_fix(&interner, src, dst);
            assert_eq!(got, want, "fixpoint readout ({src:?}, {dst:?}) diverged");
            assert_eq!(
                stats, run.stats,
                "replayed stats diverged from naive re-run"
            );
        }
        let batch = random_edge_batch(&mut rng, &monoid, &current, e, &mut ann);
        apply_to_model(&monoid, &mut current, &batch);
        fleet.update_batch(&interner, &batch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn recursive_prob_schedules_match_naive_rerun(seed in 0u64..1_000_000) {
        drive_schedule(ProbMonoid, seed, |rng| rng.gen_range(0.05..0.95));
    }

    #[test]
    fn recursive_count_schedules_match_naive_rerun(seed in 0u64..1_000_000) {
        drive_schedule(CountMonoid, seed, |rng| rng.gen_range(1u64..5));
    }

    #[test]
    fn recursive_bagmax_schedules_match_naive_rerun(seed in 0u64..1_000_000) {
        let m = BagMaxMonoid::new(3);
        let elems = m;
        drive_schedule(m, seed, move |rng| {
            if rng.gen_bool(0.5) {
                elems.one()
            } else {
                elems.star()
            }
        });
    }
}

/// A repeated recursive query is a pure cache hit: the value and stats
/// are replayed from the cached run with zero new monoid operations.
#[test]
fn repeated_fix_query_performs_zero_monoid_ops() {
    let mut interner = Interner::new();
    let e = interner.intern("E");
    let facts = vec![
        (Fact::new(e, Tuple::ints(&[1, 2])), 0.5),
        (Fact::new(e, Tuple::ints(&[2, 3])), 0.25),
        (Fact::new(e, Tuple::ints(&[3, 1])), 0.75),
    ];
    let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
        ServingSession::new(ProbMonoid, &interner, facts).unwrap();
    let first = session
        .query_fix(&interner, "E", Some(Value::Int(1)), None)
        .unwrap();
    let after_first = session.ops_performed();
    assert!(after_first > 0, "the first fixpoint evaluation does work");
    let second = session
        .query_fix(&interner, "E", Some(Value::Int(1)), None)
        .unwrap();
    assert_eq!(first.0.to_bits(), second.0.to_bits());
    assert_eq!(first.1, second.1);
    assert_eq!(
        session.ops_performed(),
        after_first,
        "a cache hit must replay the run, not re-evaluate it"
    );
}

/// The multi-tenant server serves recursive queries bit-identical to a
/// serial session, on every backend flavour, both before and after an
/// epoch publish that extends the dictionary with a novel value.
#[test]
fn server_epoch_publish_serves_bit_identical_fixpoints() {
    fn check<R>(par: Parallelism)
    where
        R: hq_unify::ServingBackend<Ann = f64> + Send + Sync,
    {
        let mut interner = Interner::new();
        let e = interner.intern("E");
        let facts: Vec<(Fact, f64)> = [(1, 2), (2, 3), (3, 4), (5, 1)]
            .iter()
            .enumerate()
            .map(|(j, &(a, b))| (Fact::new(e, Tuple::ints(&[a, b])), 0.2 + 0.07 * j as f64))
            .collect();
        let mut serial: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, &interner, facts.iter().cloned()).unwrap();
        let server: Server<ProbMonoid, R> =
            Server::with_parallelism(ProbMonoid, &interner, facts, par).unwrap();

        let probes = [
            (None, None),
            (Some(Value::Int(1)), None),
            (Some(Value::Int(1)), Some(Value::Int(4))),
            (None, Some(Value::Int(3))),
        ];
        let session = server.session();
        for (src, dst) in probes {
            let (want, want_stats) = serial.query_fix(&interner, "E", src, dst).unwrap();
            let (got, stats) = session.query_fix(&interner, "E", src, dst).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "pre-publish diverged");
            assert_eq!(want_stats, stats, "pre-publish stats diverged");
        }

        // Novel endpoint 6: the publish path re-encodes and the
        // fixpoint node is rebuilt against the extended dictionary.
        let novel = (Fact::new(e, Tuple::ints(&[4, 6])), 0.5);
        serial.update(&interner, &novel.0, novel.1).unwrap();
        server.update_batch(&interner, &[novel]).unwrap();
        let session = server.session();
        for (src, dst) in probes {
            let (want, want_stats) = serial.query_fix(&interner, "E", src, dst).unwrap();
            let (got, stats) = session.query_fix(&interner, "E", src, dst).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "post-publish diverged");
            assert_eq!(want_stats, stats, "post-publish stats diverged");
        }
    }

    check::<MapRelation<f64>>(Parallelism::default());
    check::<ColumnarRelation<f64>>(Parallelism::default());
    check::<CompressedColumnar<f64>>(Parallelism::default());
    for &t in &THREADS {
        check::<ShardedColumnar<f64>>(Parallelism::fine_grained(t));
    }
}

/// A fixpoint node warmed by a reader — so the writer's master never
/// cached it — is adopted by the next commit together with its kernel
/// run and patched in place under a pure-insert batch with no novel
/// value: answers and stats stay bit-identical to a serial session,
/// the writer performs strictly fewer ops than a fresh fixpoint over
/// the post-insert edges, and the post-commit read is a zero-op hit on
/// the patched node the commit exported.
#[test]
fn server_patches_reader_warmed_fixpoint_under_pure_inserts() {
    fn check<R>(par: Parallelism)
    where
        R: hq_unify::ServingBackend<Ann = f64> + Send + Sync,
    {
        let mut interner = Interner::new();
        let e = interner.intern("E");
        let edge = |a: i64, b: i64, p: f64| (Fact::new(e, Tuple::ints(&[a, b])), p);
        let mut facts: Vec<(Fact, f64)> = [(1, 2), (2, 3), (3, 4), (5, 1)]
            .iter()
            .enumerate()
            .map(|(j, &(a, b))| edge(a, b, 0.2 + 0.07 * j as f64))
            .collect();
        let mut serial: ServingSession<ProbMonoid, R> =
            ServingSession::with_parallelism(ProbMonoid, &interner, facts.iter().cloned(), par)
                .unwrap();
        let server: Server<ProbMonoid, R> =
            Server::with_parallelism(ProbMonoid, &interner, facts.iter().cloned(), par).unwrap();
        let session = server.session();
        let assert_same = |serial: &mut ServingSession<ProbMonoid, R>, when: &str| {
            for (src, dst) in [
                (None, None),
                (Some(Value::Int(1)), None),
                (Some(Value::Int(4)), Some(Value::Int(1))),
                (None, Some(Value::Int(5))),
            ] {
                let (want, want_stats) = serial.query_fix(&interner, "E", src, dst).unwrap();
                let (got, stats) = session.query_fix(&interner, "E", src, dst).unwrap();
                assert_eq!(want.to_bits(), got.to_bits(), "{when}: value diverged");
                assert_eq!(want_stats, stats, "{when}: stats diverged");
            }
        };
        assert_same(&mut serial, "reader-warmed");

        // (4, 5) closes the cycle over values already interned.
        let insert = edge(4, 5, 0.45);
        serial.update(&interner, &insert.0, insert.1).unwrap();
        let writer_before = server.writer_ops_performed();
        let outcome = server
            .update_batch(&interner, std::slice::from_ref(&insert))
            .unwrap();
        assert!(!outcome.refresh.dict_extended, "{outcome:?}");
        assert_eq!(
            (outcome.patched_nodes, outcome.invalidated),
            (1, 0),
            "the adopted fixpoint must patch, not drop: {outcome:?}"
        );
        let writer_ops = server.writer_ops_performed() - writer_before;
        facts.push(insert);
        let edges: Vec<(Tuple, f64)> = facts.iter().map(|(f, p)| (f.tuple.clone(), *p)).collect();
        let fresh = semi_naive(&ProbMonoid, &edges, &edges, StepShape::LeftLinear).unwrap();
        assert!(
            writer_ops > 0 && writer_ops < fresh.stats.total_ops(),
            "patch ops {writer_ops} vs fresh {}",
            fresh.stats.total_ops()
        );
        let reader_before = server.ops_performed();
        assert_same(&mut serial, "post-commit");
        assert_eq!(
            server.ops_performed(),
            reader_before,
            "the exported patched node serves zero-op"
        );
    }

    check::<MapRelation<f64>>(Parallelism::default());
    check::<ColumnarRelation<f64>>(Parallelism::default());
    check::<CompressedColumnar<f64>>(Parallelism::default());
    for &t in &THREADS {
        check::<ShardedColumnar<f64>>(Parallelism::fine_grained(t));
    }
}

/// A single-edge insert into a ≥ 32k-edge closure patches in place —
/// bit-identical to the fresh fixpoint over the post-insert edges —
/// while refolding strictly fewer rows and performing strictly fewer
/// ⊕/⊗ operations than the fresh run. The graph is many short disjoint
/// chains (so the closure stays linear in the edges) bridged by the
/// inserted edge.
#[test]
fn single_edge_patch_beats_fresh_fixpoint_at_32k_edges() {
    const CHAINS: i64 = 8_192;
    const LEN: i64 = 4;
    let mut edges: Vec<(Tuple, f64)> = Vec::with_capacity((CHAINS * LEN) as usize);
    for c in 0..CHAINS {
        let base = c * (LEN + 2); // disjoint node ranges per chain
        for j in 0..LEN {
            edges.push((Tuple::ints(&[base + j, base + j + 1]), 0.5));
        }
    }
    edges.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(edges.len() >= 32_768, "the pin requires |E| >= 32k");

    let mut run = transitive_closure(&ProbMonoid, &edges).unwrap();
    let closure_rows = run.acc.len();

    // Bridge chain 0's last node into chain 1's first node.
    let bridge = (Tuple::ints(&[LEN, LEN + 2]), 0.25);
    edges.push(bridge.clone());
    edges.sort_by(|a, b| a.0.cmp(&b.0));
    let inserted = [bridge];
    let outcome = patch_inserts(
        &ProbMonoid,
        &mut run,
        &edges,
        &inserted,
        &inserted,
        StepShape::LeftLinear,
    )
    .unwrap();
    let patch = match outcome {
        PatchOutcome::Patched(p) => p,
        PatchOutcome::Rebuild => panic!("a pure bridge insert must patch in place"),
    };

    let fresh = transitive_closure(&ProbMonoid, &edges).unwrap();
    assert_eq!(run.acc, fresh.acc, "patched accumulator diverged");
    assert_eq!(
        run.deltas, fresh.deltas,
        "patched per-round deltas diverged"
    );
    assert_eq!(run.stats, fresh.stats, "patched stats diverged");
    assert_eq!(run.total.to_bits(), fresh.total.to_bits());

    assert!(
        patch.refolded_rows < closure_rows,
        "patch refolded {} of {} closure rows",
        patch.refolded_rows,
        closure_rows
    );
    assert!(
        patch.performed_add + patch.performed_mul < fresh.stats.total_ops(),
        "patch performed {} ops vs {} fresh",
        patch.performed_add + patch.performed_mul,
        fresh.stats.total_ops()
    );
}

/// A monoid whose ⊗ is not fixpoint-convergent is rejected with a
/// validation error — at the kernel and through the serving session —
/// instead of iterating forever.
#[test]
fn non_convergent_monoid_is_rejected_not_run() {
    let m = SatCountMonoid::new(2);
    let edges = vec![(Tuple::ints(&[1, 2]), m.one())];
    let err = transitive_closure(&m, &edges).unwrap_err();
    assert!(matches!(err, FixpointError::NonConvergentMonoid));

    let mut interner = Interner::new();
    let e = interner.intern("E");
    let facts = vec![(Fact::new(e, Tuple::ints(&[1, 2])), m.one())];
    let mut session: ServingSession<SatCountMonoid, MapRelation<SatVec>> =
        ServingSession::new(m, &interner, facts).unwrap();
    let err = session.query_fix(&interner, "E", None, None).unwrap_err();
    assert!(matches!(
        err,
        ServingError::Fixpoint(FixpointError::NonConvergentMonoid)
    ));
}
