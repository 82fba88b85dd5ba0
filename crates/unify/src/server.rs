//! Multi-tenant serving server: N snapshot-isolated reader sessions
//! and one writer over a single shared plan-node cache.
//!
//! A [`Server`] owns one **master** [`ServingSession`] (the writer's
//! state: the hash-consed plan IR, the lowering memo, and the
//! delta-patch/refold machinery of [`crate::serving`]) and multiplexes
//! any number of reader [`Session`] handles over it. The concurrency
//! model is **single-writer / multi-reader snapshot isolation**:
//!
//! * **Epochs.** Every committed [`Server::update_batch`] publishes an
//!   immutable [`EpochState`] — a copy-on-write snapshot of the
//!   database, the annotation map, the [`EncodedDb`] code matrices and
//!   the per-relation dirty epochs. Readers evaluate against the
//!   epoch current when their query starts (or one explicitly pinned
//!   with [`Session::pin`]); the writer patches the master in place
//!   and publishes the next epoch without ever touching a published
//!   one. An epoch retires (its matrices free) when its last reader
//!   drops.
//! * **Shared node cache.** Materialised plan nodes live in one
//!   process-wide cache keyed by `(plan node, code generation, dep
//!   stamp)`, where the *stamp* is the maximum dirty epoch over the
//!   node's input relations and the *code generation* counts
//!   dictionary extensions (a novel domain value renumbers every
//!   cached matrix without touching any stamp, so the generation must
//!   be part of the key). Stamps are injective along the single
//!   writer history: every epoch in which a node's inputs carry the
//!   same stamps holds bit-identical input relations, so a cache hit
//!   is exact regardless of which session — at which epoch — computed
//!   the entry. Cache hits on shared sub-plans are **zero-op across
//!   clients**; two sessions racing to materialise the same key both
//!   compute bit-identical nodes (with the session's evaluator, never
//!   under the cache lock) and the first insert wins.
//! * **Write path: group commit.** Writers never take the master
//!   mutex directly. [`Server::submit_batch`] validates a batch's
//!   arities at enqueue time (against a grow-only registry, so a bad
//!   batch fails on its own [`CommitTicket`] without poisoning
//!   anyone) and pushes it onto a bounded commit queue; the first
//!   ticket-waiter to acquire commit leadership drains *every*
//!   pending batch, coalesces them last-write-wins (the per-batch
//!   dirty-key coalescing lifted across sessions), runs **one**
//!   delta-patch pass and publishes **one** epoch for the whole
//!   group. Within the pass the committer first *adopts* any
//!   reader-materialised nodes that are current for the master state
//!   (a fixpoint node with its kernel run), so nodes warmed by any
//!   reader stay warm — patched, not rebuilt — across the write, then
//!   *exports* the nodes the shared cache lacks at their post-batch
//!   stamps. Groups commit in arrival-sequence order, so
//!   the final state equals a serial replay of the batches in `seq`
//!   order ([`CommitReceipt::seq`]).
//! * **Burst backpressure.** Above the epoch admission bound,
//!   [`Server::set_write_queue`] bounds the commit-queue depth with a
//!   blocking or refusing policy ([`WritePolicy`]), and
//!   [`Server::write_stats`] exposes commits, coalesced batches,
//!   queue depth/high-water and rejected-batch counters.
//! * **Memory governor.** [`Server::set_global_cache_rows`] bounds the
//!   total materialised rows across all sessions (cost-aware-LRU
//!   eviction, like the per-session budget of
//!   [`ServingSession::set_cache_budget`]);
//!   [`Session::set_cache_budget`] additionally bounds the rows a
//!   single session may keep materialised; and
//!   [`Server::set_max_live_epochs`] admission-controls update bursts
//!   — a writer blocks until enough pinned epochs retire.
//!
//! **Determinism contract.** Unchanged from [`crate::serving`]: every
//! query's value and reported [`EngineStats`] are bit-identical to an
//! independent fresh evaluation over its epoch's state, on every
//! backend and thread count. Concurrency never enters the numerics:
//! per-query stats are *replayed* from recorded per-node op counts,
//! and all kernel execution fans out over the persistent
//! [`crate::pool`] (zero thread spawns per request once
//! [`Server::with_parallelism`] has warmed it). The
//! `tests/differential_server.rs` suite pins N concurrent readers + 1
//! writer against a serial replay of the same interleaved script.

use crate::annotated::AnnotateError;
use crate::engine::EngineStats;
use crate::plan_ir::{LoweredQuery, PlanExpr, PlanId};
use crate::serving::{
    eval_node, node_inputs, query_shape, replay, BaseState, Node, QueryShape, ServingBackend,
    ServingError, ServingSession, UpdateOutcome,
};
use crate::storage::{ColumnarRelation, EncodedDb, Parallelism};
use hq_db::{Database, Fact, Interner, Sym, Value};
use hq_monoid::TwoMonoid;
use hq_query::Query;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Duration;

/// The writer's session id in shared-cache owner tags (real sessions
/// start at 1).
const WRITER: u64 = 0;

/// Coalesces several update batches into one serial-replay-equivalent
/// batch: for every fact the **last** write across the concatenation
/// wins, and the surviving entries keep the order of each fact's first
/// occurrence (deterministic regardless of how the batches were
/// produced). The group-commit pipeline merges every queued writer's
/// batch this way into a single delta-patch pass, so a fact
/// overwritten by a later batch in the group is refolded once at its
/// final value instead of once per batch.
fn coalesce_batches<E: Clone>(batches: &[&[(Fact, E)]]) -> Vec<(Fact, E)> {
    let mut index: BTreeMap<&Fact, usize> = BTreeMap::new();
    let mut out: Vec<(Fact, E)> = Vec::new();
    for (fact, value) in batches.iter().flat_map(|b| b.iter()) {
        match index.get(fact) {
            Some(&at) => out[at].1 = value.clone(),
            None => {
                index.insert(fact, out.len());
                out.push((fact.clone(), value.clone()));
            }
        }
    }
    out
}

/// One immutable published snapshot: everything a reader needs to
/// evaluate queries without taking the master lock. Readers holding an
/// `Arc<EpochState>` (pinned, or just for the duration of one query)
/// keep the epoch's copy-on-write matrices alive; dropping the last
/// reference retires the epoch and wakes any writer blocked on
/// [`Server::set_max_live_epochs`] admission.
pub struct EpochState<M: TwoMonoid> {
    epoch: u64,
    code_gen: u64,
    db: Database,
    ann: BTreeMap<Fact, M::Elem>,
    enc: EncodedDb,
    rel_epoch: HashMap<String, u64>,
    retire: Weak<RetireSignal>,
}

impl<M: TwoMonoid> EpochState<M> {
    /// The monotone update-batch counter this snapshot was published
    /// at (`0` is the construction state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshots `master`'s current state as a new immutable epoch.
    fn of<R: ServingBackend<Ann = M::Elem>>(
        master: &ServingSession<M, R>,
        code_gen: u64,
        retire: &Arc<RetireSignal>,
    ) -> Arc<Self> {
        Arc::new(EpochState {
            epoch: master.session_epoch(),
            code_gen,
            db: master.database().clone(),
            ann: master.annotations().clone(),
            enc: master.encoded_db().clone(),
            rel_epoch: master.rel_epochs().clone(),
            retire: Arc::downgrade(retire),
        })
    }
}

impl<M: TwoMonoid> Drop for EpochState<M> {
    fn drop(&mut self) {
        // Retirement: wake a writer waiting for epoch-count admission.
        if let Some(sig) = self.retire.upgrade() {
            sig.notify();
        }
    }
}

/// Wakes admission-blocked writers when an epoch retires or a pinned
/// session closes.
struct RetireSignal {
    lock: Mutex<()>,
    cvar: Condvar,
}

impl RetireSignal {
    fn notify(&self) {
        let _guard = self.lock.lock().unwrap();
        self.cvar.notify_all();
    }
}

/// One immutable materialised plan node in the shared cache. `node` is
/// never mutated after insertion — epochs that need a different
/// version of the node live under a different `(generation, stamp)`
/// key — so readers clone relations out of it without locks. A
/// fixpoint node's kernel run travels inside `node`: it is replayed for
/// recursive readouts and handed back to the master on adoption so the
/// writer keeps delta-patching across commits.
struct SharedNode<R: ServingBackend> {
    node: Node<R>,
    rows: usize,
    /// Base relations the node transitively reads (stamp vocabulary).
    deps: Arc<BTreeSet<String>>,
    /// Session that materialised the node (per-session budgets evict
    /// a session's own nodes first).
    owner: u64,
    /// Global LRU clock value of the last touch.
    last_used: AtomicU64,
}

/// Shared-cache key: `(plan node, code generation, dep stamp)`.
type NodeKey = (PlanId, u64, u64);

/// A query resolved against the master IR once and memoised for every
/// session: the lowering plus each node's structural expression and
/// dep set, so reader evaluation never takes the master lock on a
/// plan-memo hit.
struct ResolvedPlan {
    lowered: LoweredQuery,
    exprs: HashMap<PlanId, PlanExpr>,
    deps: HashMap<PlanId, Arc<BTreeSet<String>>>,
}

/// Memory-governor knobs (see [`Server::set_global_cache_rows`],
/// [`Server::set_max_live_epochs`]).
struct Governor {
    global_rows: Option<usize>,
    max_live_epochs: Option<usize>,
}

/// How a full commit queue treats a new submission (see
/// [`Server::set_write_queue`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WritePolicy {
    /// Block the submitter until the committer drains space free.
    #[default]
    Block,
    /// Refuse immediately with [`ServingError::WriteQueueFull`].
    Refuse,
}

impl std::str::FromStr for WritePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(WritePolicy::Block),
            "refuse" => Ok(WritePolicy::Refuse),
            other => Err(format!("unknown write policy `{other}` (block|refuse)")),
        }
    }
}

impl std::fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WritePolicy::Block => "block",
            WritePolicy::Refuse => "refuse",
        })
    }
}

/// What one group commit told a submitter about its batch: delivered
/// through the batch's [`CommitTicket`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The epoch the batch's group published — or the epoch already
    /// current when the whole group turned out to be a no-op.
    pub epoch: u64,
    /// The batch's arrival sequence number (assigned at enqueue;
    /// groups commit in sequence order, so sorting receipts by `seq`
    /// reconstructs the serial-replay order).
    pub seq: u64,
    /// How many batches the group coalesced into the one commit.
    pub group_batches: usize,
    /// The *group's* combined [`UpdateOutcome`] (one delta-patch pass
    /// serves every batch in the group).
    pub outcome: UpdateOutcome,
}

/// Writer-side pipeline counters (see [`Server::write_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Group commits performed (each is one delta-patch pass and at
    /// most one epoch publication).
    pub commits: u64,
    /// Batches those commits coalesced (`batches_committed / commits`
    /// is the mean group size — the amortisation win).
    pub batches_committed: u64,
    /// Largest group coalesced into a single commit so far.
    pub max_group: usize,
    /// Batches currently waiting in the commit queue.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub queue_high_water: usize,
    /// Batches rejected by enqueue-time arity validation.
    pub rejected_invalid: u64,
    /// Batches refused by a full queue under [`WritePolicy::Refuse`].
    pub rejected_full: u64,
}

/// One enqueued-but-uncommitted writer batch.
struct PendingBatch<M: TwoMonoid> {
    seq: u64,
    updates: Vec<(Fact, M::Elem)>,
    done: mpsc::Sender<Result<CommitReceipt, ServingError>>,
}

/// The commit queue plus its policy knobs, counters, and the grow-only
/// relation→arity registry enqueue-time validation checks against
/// (declared arities are monotone: [`Database`] keeps a relation's
/// arity even after every fact is deleted, so the registry never has
/// to shrink and validation never takes the master lock).
struct WriteState<M: TwoMonoid> {
    pending: VecDeque<PendingBatch<M>>,
    queue_cap: Option<usize>,
    policy: WritePolicy,
    declared: HashMap<Sym, usize>,
    next_seq: u64,
    commits: u64,
    batches_committed: u64,
    max_group: usize,
    queue_high_water: usize,
    rejected_invalid: u64,
    rejected_full: u64,
}

/// One submitted batch's handle on the group-commit pipeline: redeem
/// it with [`CommitTicket::wait`] to learn the batch's epoch. Tickets
/// are independent per submitter — an invalid batch was already
/// rejected at [`Server::submit_batch`] time, so a ticket only ever
/// resolves to its group's shared commit result.
pub struct CommitTicket<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    shared: Arc<ServerShared<M, R>>,
    seq: u64,
    rx: mpsc::Receiver<Result<CommitReceipt, ServingError>>,
}

/// The shared state behind every [`Server`] and [`Session`] handle.
struct ServerShared<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    monoid: M,
    par: Parallelism,
    /// The writer's state: plan IR, lowering memo, delta-patch
    /// machinery. Readers lock it only on a plan-memo miss.
    master: Mutex<ServingSession<M, R>>,
    /// The latest published snapshot.
    current: RwLock<Arc<EpochState<M>>>,
    /// The shared materialised-node cache.
    cache: Mutex<HashMap<NodeKey, Arc<SharedNode<R>>>>,
    /// Cross-session resolved-plan memo (structural key: alpha-renamed
    /// restatements share one entry, exactly like the master's
    /// lowering memo).
    plans: RwLock<HashMap<QueryShape, Arc<ResolvedPlan>>>,
    /// Cross-session resolved-plan memo for recursive
    /// (transitive-closure) queries, keyed by relation name.
    fix_plans: RwLock<HashMap<String, Arc<ResolvedPlan>>>,
    /// Every epoch ever published (weak; pruned by [`gc`]).
    ///
    /// [`gc`]: ServerShared::gc
    epochs: Mutex<Vec<Weak<EpochState<M>>>>,
    retire: Arc<RetireSignal>,
    governor: Mutex<Governor>,
    /// The group-commit queue (see [`Server::submit_batch`]).
    writes: Mutex<WriteState<M>>,
    /// Paired with `writes`: wakes submitters blocked on queue space.
    space: Condvar,
    /// Group-commit leadership: the ticket-waiter (or
    /// [`Server::flush_writes`] caller) holding it drains and commits
    /// every pending batch. Receipts are delivered before it is
    /// released, so a waiter that acquires it and still has no receipt
    /// knows its batch is in the queue it is now leader of.
    commit_lock: Mutex<()>,
    performed_add: AtomicU64,
    performed_mul: AtomicU64,
    plan_hits: AtomicU64,
    evictions: AtomicU64,
    /// Global LRU clock, bumped once per query.
    tick: AtomicU64,
    next_session: AtomicU64,
}

/// The dep stamp of a node under one epoch's per-relation dirty
/// epochs: the maximum dirty epoch over the node's base relations.
fn stamp(rel_epoch: &HashMap<String, u64>, deps: &BTreeSet<String>) -> u64 {
    deps.iter()
        .map(|d| rel_epoch.get(d).copied().unwrap_or(0))
        .max()
        .unwrap_or(0)
}

impl<M, R> ServerShared<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    /// Resolves a query against the master IR, memoised per query
    /// shape. Only a memo miss locks the master.
    fn resolve(&self, q: &Query) -> Result<Arc<ResolvedPlan>, ServingError> {
        let key = query_shape(q);
        if let Some(p) = self.plans.read().unwrap().get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(p.clone());
        }
        let resolved = {
            let mut master = self.master.lock().unwrap();
            let lowered = master.lower_query(q)?;
            let mut exprs = HashMap::new();
            let mut deps = HashMap::new();
            for id in lowered.nodes() {
                exprs.insert(id, master.plan_node(id));
                deps.insert(id, Arc::new(master.node_deps(id).clone()));
            }
            Arc::new(ResolvedPlan {
                lowered,
                exprs,
                deps,
            })
        };
        // Racing resolutions of one shape produce structurally equal
        // plans (the master lowering memo hands both the same node
        // ids); first insert wins.
        let mut plans = self.plans.write().unwrap();
        let entry = plans.entry(key).or_insert(resolved);
        Ok(entry.clone())
    }

    /// Resolves the transitive-closure plan for `rel` against the
    /// master IR, memoised per relation name — the recursive
    /// counterpart of [`resolve`].
    ///
    /// [`resolve`]: ServerShared::resolve
    fn resolve_fix(&self, rel: &str) -> Arc<ResolvedPlan> {
        if let Some(p) = self.fix_plans.read().unwrap().get(rel) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return p.clone();
        }
        let resolved = {
            let mut master = self.master.lock().unwrap();
            let root = master.lower_fix(rel);
            let mut exprs = HashMap::new();
            let mut deps = HashMap::new();
            let mut todo = vec![root];
            while let Some(id) = todo.pop() {
                if exprs.contains_key(&id) {
                    continue;
                }
                let expr = master.plan_node(id);
                todo.extend(expr.children());
                deps.insert(id, Arc::new(master.node_deps(id).clone()));
                exprs.insert(id, expr);
            }
            let scan = match &exprs[&root] {
                PlanExpr::Fixpoint { base, .. } => *base,
                _ => unreachable!("lower_fix returns a fixpoint node"),
            };
            Arc::new(ResolvedPlan {
                lowered: LoweredQuery {
                    scans: vec![scan],
                    steps: vec![],
                    root,
                },
                exprs,
                deps,
            })
        };
        let mut plans = self.fix_plans.write().unwrap();
        plans.entry(rel.to_owned()).or_insert(resolved).clone()
    }

    /// Materialises (or fetches) one plan node for `epoch`, recording
    /// it — and, on a miss, its inputs — in the query's `local` node
    /// map. The cache lock is never held across kernel execution.
    #[allow(clippy::too_many_arguments)]
    fn ensure_node(
        &self,
        epoch: &EpochState<M>,
        plan: &ResolvedPlan,
        id: PlanId,
        interner: &Interner,
        tick: u64,
        owner: u64,
        local: &mut HashMap<PlanId, Arc<SharedNode<R>>>,
    ) -> Result<(), ServingError> {
        if local.contains_key(&id) {
            return Ok(());
        }
        let deps = &plan.deps[&id];
        let key = (id, epoch.code_gen, stamp(&epoch.rel_epoch, deps));
        if let Some(node) = self.cache.lock().unwrap().get(&key) {
            node.last_used.store(tick, Ordering::Relaxed);
            local.insert(id, node.clone());
            return Ok(());
        }
        let node_of = |n| &plan.exprs[&n];
        for input in node_inputs(node_of, id)? {
            self.ensure_node(epoch, plan, input, interner, tick, owner, local)?;
        }
        let base = BaseState {
            enc: &epoch.enc,
            db: &epoch.db,
            ann: &epoch.ann,
        };
        let node = eval_node(&self.monoid, self.par, &base, interner, node_of, id, |n| {
            &local[&n].node
        })?;
        self.performed_add
            .fetch_add(node.add_ops, Ordering::Relaxed);
        self.performed_mul
            .fetch_add(node.mul_ops, Ordering::Relaxed);
        let node = Arc::new(SharedNode {
            rows: node.rel.support_size(),
            node,
            deps: deps.clone(),
            owner,
            last_used: AtomicU64::new(tick),
        });
        // Insert-if-absent: a racing session may have materialised the
        // key meanwhile — its node is bit-identical (same immutable
        // inputs, same kernels, deterministic at every thread count),
        // so adopting whichever Arc won keeps every session serving
        // literally the same node.
        let entry = self
            .cache
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(node)
            .clone();
        entry.last_used.store(tick, Ordering::Relaxed);
        local.insert(id, entry);
        Ok(())
    }

    /// Prunes dead epochs from the registry and drops shared-cache
    /// entries no live epoch can ever hit again (their `(generation,
    /// stamp)` matches no surviving snapshot) — this is what actually
    /// frees a retired epoch's copy-on-write matrices.
    fn gc(&self) {
        let live: Vec<Arc<EpochState<M>>> = {
            let mut epochs = self.epochs.lock().unwrap();
            epochs.retain(|w| w.strong_count() > 0);
            epochs.iter().filter_map(Weak::upgrade).collect()
        };
        let mut cache = self.cache.lock().unwrap();
        cache.retain(|&(_, gen, s), node| {
            live.iter()
                .any(|e| e.code_gen == gen && stamp(&e.rel_epoch, &node.deps) == s)
        });
    }

    /// Live (still referenced) published epochs, the current one
    /// included.
    fn live_epochs(&self) -> usize {
        self.epochs
            .lock()
            .unwrap()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Blocks a writer until the live-epoch count admits one more
    /// publication (no-op without a [`Server::set_max_live_epochs`]
    /// bound). Woken by epoch retirements; re-polls on a short timeout
    /// so a pin released without a drop notification cannot wedge it.
    fn admit_writer(&self) {
        loop {
            let Some(max) = self.governor.lock().unwrap().max_live_epochs else {
                return;
            };
            self.gc();
            if self.live_epochs() < max {
                return;
            }
            let guard = self.retire.lock.lock().unwrap();
            let _ = self
                .retire
                .cvar
                .wait_timeout(guard, Duration::from_millis(25))
                .unwrap();
        }
    }

    /// Evicts cost-aware-LRU victims (stalest first; among equally
    /// stale, the node freeing the most rows) from the set selected by
    /// `mine` until their total rows fit `budget`. In-flight queries
    /// hold `Arc`s to their nodes, so eviction never invalidates a
    /// running evaluation — evicted nodes rebuild lazily.
    fn evict_where(&self, budget: usize, mine: impl Fn(&SharedNode<R>) -> bool) {
        let mut cache = self.cache.lock().unwrap();
        let mut total: usize = cache.values().filter(|n| mine(n)).map(|n| n.rows).sum();
        if total <= budget {
            return;
        }
        let mut order: Vec<(u64, Reverse<usize>, NodeKey)> = cache
            .iter()
            .filter(|(_, n)| mine(n) && n.rows > 0)
            .map(|(k, n)| (n.last_used.load(Ordering::Relaxed), Reverse(n.rows), *k))
            .collect();
        order.sort_unstable();
        for (_, _, key) in order {
            if total <= budget {
                break;
            }
            if let Some(n) = cache.remove(&key) {
                total -= n.rows;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Enforces the global-rows governor bound, if one is set.
    fn evict_global(&self) {
        if let Some(budget) = self.governor.lock().unwrap().global_rows {
            self.evict_where(budget, |_| true);
        }
    }

    /// Enqueue-time arity validation against the grow-only registry:
    /// the same all-or-nothing check [`ServingSession::update_batch`]
    /// performs, run before queue admission so a malformed batch is
    /// rejected on its own ticket and never poisons a commit group.
    /// Returns the brand-new `(relation, arity)` declarations the
    /// batch introduces; the caller records them only once the batch
    /// is actually admitted. Deletes are exempt, exactly as in the
    /// session (an arity-mismatched fact can never be stored, so
    /// deleting it is a no-op).
    fn validate_for_enqueue(
        &self,
        declared: &HashMap<Sym, usize>,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<Vec<(Sym, usize)>, ServingError> {
        let mut fresh: Vec<(Sym, usize)> = Vec::new();
        for (fact, value) in updates {
            if self.monoid.is_zero(value) {
                continue;
            }
            let expected = declared
                .get(&fact.rel)
                .copied()
                .or_else(|| fresh.iter().find(|(r, _)| *r == fact.rel).map(|&(_, a)| a));
            match expected {
                Some(arity) if arity != fact.tuple.arity() => {
                    return Err(ServingError::Annotate(AnnotateError::ArityMismatch {
                        rel: interner.resolve(fact.rel).to_owned(),
                        atom_arity: arity,
                        fact_arity: fact.tuple.arity(),
                    }));
                }
                Some(_) => {}
                None => fresh.push((fact.rel, fact.tuple.arity())),
            }
        }
        Ok(fresh)
    }

    /// Drains every pending batch and commits the whole group as one
    /// coalesced `update_batch` — one delta-patch pass, at most one
    /// epoch publication — then delivers each drained ticket its
    /// receipt. Returns the number of batches committed (`0`: the
    /// queue was empty). **Caller must hold `commit_lock`.**
    fn commit_group(&self, interner: &Interner) -> usize {
        let drained: Vec<PendingBatch<M>> = {
            let mut writes = self.writes.lock().unwrap();
            writes.pending.drain(..).collect()
        };
        if drained.is_empty() {
            return 0;
        }
        // Space freed: wake submitters blocked on the queue cap.
        self.space.notify_all();
        let batches: Vec<&[(Fact, M::Elem)]> =
            drained.iter().map(|b| b.updates.as_slice()).collect();
        // Cross-session coalescing: the group's batches merge
        // last-write-wins into one batch, so a key every writer
        // touched refolds once at its final value.
        let merged = coalesce_batches(&batches);
        let result = self.commit_updates(interner, &merged);
        let epoch = self.current.read().unwrap().epoch;
        let n = drained.len();
        {
            let mut writes = self.writes.lock().unwrap();
            writes.commits += 1;
            writes.batches_committed += n as u64;
            writes.max_group = writes.max_group.max(n);
        }
        for batch in drained {
            // Enqueue validation already vetted every batch, so a
            // commit error here is group-level (and in practice
            // unreachable); each ticket receives the shared result.
            let receipt = result.clone().map(|outcome| CommitReceipt {
                epoch,
                seq: batch.seq,
                group_batches: n,
                outcome,
            });
            let _ = batch.done.send(receipt);
        }
        n
    }

    /// The actual write path (one commit group's merged batch): waits
    /// for epoch admission, adopts current reader-materialised nodes
    /// into the master cache, delta-patches the master through
    /// [`ServingSession::update_batch`], exports the patched nodes to
    /// the shared cache at their new stamps, and publishes the next
    /// epoch. In-flight readers keep evaluating against their pinned
    /// snapshots throughout; a no-op batch publishes nothing.
    fn commit_updates(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<UpdateOutcome, ServingError> {
        self.admit_writer();
        let mut master = self.master.lock().unwrap();
        let gen = self.current.read().unwrap().code_gen;
        // Adopt: shared nodes current for the master state (same code
        // generation, same dep stamps) feed the delta-patcher, so
        // nodes warmed by *any* reader stay warm across the write
        // instead of dropping to a cold rebuild. A fixpoint node
        // travels with its kernel run so the master can delta-patch it
        // in place.
        let adopt: Vec<(PlanId, Node<R>)> = {
            let rel_epoch = master.rel_epochs();
            let cache = self.cache.lock().unwrap();
            cache
                .iter()
                .filter(|&(&(id, g, s), shared)| {
                    g == gen && s == stamp(rel_epoch, &shared.deps) && !master.has_cached(id)
                })
                .map(|(&(id, _, _), shared)| (id, shared.node.clone()))
                .collect()
        };
        for (id, node) in adopt {
            master.adopt_node(id, node);
        }
        let outcome = master.update_batch(interner, updates)?;
        if outcome.touched.is_empty() {
            return Ok(outcome);
        }
        // A dictionary extension renumbered every cached matrix (the
        // master's were translated in place) without moving any stamp:
        // bump the code generation so the renumbered exports can never
        // collide with entries pinned epochs still read.
        let gen = gen + u64::from(outcome.refresh.dict_extended);
        let state = EpochState::of(&master, gen, &self.retire);
        // Export the patched nodes at their post-batch stamps (lock
        // order master → cache, as in the adopt block). Only absent
        // keys are cloned: a node over untouched relations is already
        // cached under the same key.
        {
            let tick = self.tick.load(Ordering::Relaxed);
            let rel_epoch = master.rel_epochs();
            let mut cache = self.cache.lock().unwrap();
            for (id, node) in master.cache_nodes() {
                let deps = master.node_deps(id);
                if let Entry::Vacant(slot) = cache.entry((id, gen, stamp(rel_epoch, deps))) {
                    slot.insert(Arc::new(SharedNode {
                        rows: node.rel.support_size(),
                        node: node.clone(),
                        deps: Arc::new(deps.clone()),
                        owner: WRITER,
                        last_used: AtomicU64::new(tick),
                    }));
                }
            }
        }
        drop(master);
        *self.current.write().unwrap() = state.clone();
        self.epochs.lock().unwrap().push(Arc::downgrade(&state));
        drop(state);
        self.gc();
        self.evict_global();
        Ok(outcome)
    }
}

/// The multi-tenant serving server. Cheap to clone (a shared handle);
/// hand out reader [`Session`]s with [`Server::session`] and apply
/// writes through [`Server::update_batch`].
pub struct Server<M, R = ColumnarRelation<<M as TwoMonoid>::Elem>>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    shared: Arc<ServerShared<M, R>>,
}

impl<M, R> Clone for Server<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    fn clone(&self) -> Self {
        Server {
            shared: self.shared.clone(),
        }
    }
}

impl<M, R> Server<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    /// Builds a server over `(fact, annotation)` pairs. See
    /// [`ServingSession::new`] for the input contract.
    ///
    /// # Errors
    /// Rejects fact lists that give one relation two different
    /// arities.
    pub fn new(
        monoid: M,
        interner: &Interner,
        facts: impl IntoIterator<Item = (Fact, M::Elem)>,
    ) -> Result<Self, ServingError> {
        Self::with_parallelism(monoid, interner, facts, Parallelism::default())
    }

    /// [`Server::new`] with an explicit [`Parallelism`] degree. The
    /// worker pool is warmed here, once: no request served afterwards
    /// ever spawns a thread (pinned by the differential suite via
    /// [`crate::pool::spawn_count`]).
    ///
    /// # Errors
    /// Rejects fact lists that give one relation two different
    /// arities.
    pub fn with_parallelism(
        monoid: M,
        interner: &Interner,
        facts: impl IntoIterator<Item = (Fact, M::Elem)>,
        par: Parallelism,
    ) -> Result<Self, ServingError> {
        par.warm_pool();
        let master = ServingSession::with_parallelism(monoid.clone(), interner, facts, par)?;
        let retire = Arc::new(RetireSignal {
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        });
        // Seed the enqueue-validation registry with the construction
        // state's declared arities.
        let declared: HashMap<Sym, usize> = master
            .database()
            .relations()
            .map(|(sym, rel)| (sym, rel.arity()))
            .collect();
        let shared = ServerShared {
            monoid,
            par,
            current: RwLock::new(EpochState::of(&master, 0, &retire)),
            master: Mutex::new(master),
            cache: Mutex::new(HashMap::new()),
            plans: RwLock::new(HashMap::new()),
            fix_plans: RwLock::new(HashMap::new()),
            epochs: Mutex::new(Vec::new()),
            retire,
            governor: Mutex::new(Governor {
                global_rows: None,
                max_live_epochs: None,
            }),
            writes: Mutex::new(WriteState {
                pending: VecDeque::new(),
                queue_cap: None,
                policy: WritePolicy::default(),
                declared,
                next_seq: 0,
                commits: 0,
                batches_committed: 0,
                max_group: 0,
                queue_high_water: 0,
                rejected_invalid: 0,
                rejected_full: 0,
            }),
            space: Condvar::new(),
            commit_lock: Mutex::new(()),
            performed_add: AtomicU64::new(0),
            performed_mul: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
        };
        shared
            .epochs
            .lock()
            .unwrap()
            .push(Arc::downgrade(&shared.current.read().unwrap().clone()));
        Ok(Server {
            shared: Arc::new(shared),
        })
    }

    /// Opens a reader session. Sessions are independent handles (one
    /// per client/thread); their queries share the one node cache.
    pub fn session(&self) -> Session<M, R> {
        Session {
            shared: self.shared.clone(),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            budget_rows: None,
            pinned: None,
        }
    }

    /// Applies one fact write. See [`Server::update_batch`].
    ///
    /// # Errors
    /// Arity mismatch with the stored relation.
    pub fn update(
        &self,
        interner: &Interner,
        fact: &Fact,
        value: M::Elem,
    ) -> Result<UpdateOutcome, ServingError> {
        self.update_batch(interner, &[(fact.clone(), value)])
    }

    /// The write path: submits the batch to the group-commit queue and
    /// waits for its commit. Equivalent to
    /// `submit_batch(…)?.wait(…)` — concurrent callers' batches
    /// coalesce into one delta-patch pass and one epoch publication
    /// (see [`Server::submit_batch`]).
    ///
    /// # Errors
    /// Arity mismatch with the stored relation (all-or-nothing, as in
    /// the underlying session — checked at enqueue time, before the
    /// batch can join a commit group); a full queue under
    /// [`WritePolicy::Refuse`].
    pub fn update_batch(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<UpdateOutcome, ServingError> {
        Ok(self.commit_batch(interner, updates)?.outcome)
    }

    /// [`Server::update_batch`], returning the full [`CommitReceipt`]
    /// (the batch's epoch and group size) instead of just the outcome.
    ///
    /// # Errors
    /// See [`Server::update_batch`].
    pub fn commit_batch(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<CommitReceipt, ServingError> {
        self.submit_batch(interner, updates)?.wait(interner)
    }

    /// Enqueues one writer batch into the bounded commit queue and
    /// returns its [`CommitTicket`] without waiting for the commit.
    ///
    /// The batch is **validated here**, against a grow-only
    /// relation→arity registry (the committed declarations plus every
    /// already-admitted pending batch's), so a malformed batch fails
    /// on its own ticket and can never poison a commit group. A full
    /// queue blocks or refuses per [`Server::set_write_queue`]. The
    /// commit itself is driven by whichever ticket-waiter acquires
    /// commit leadership first (or by [`Server::flush_writes`]): the
    /// leader drains *every* pending batch, coalesces them
    /// last-write-wins into one batch, runs a single delta-patch pass
    /// and publishes **one** epoch for the whole group.
    ///
    /// # Errors
    /// Arity mismatch (enqueue validation);
    /// [`ServingError::WriteQueueFull`] under [`WritePolicy::Refuse`].
    pub fn submit_batch(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<CommitTicket<M, R>, ServingError> {
        let shared = &self.shared;
        let mut writes = shared.writes.lock().unwrap();
        let fresh = loop {
            // (Re-)validate under the queue lock: while a blocked
            // submitter waited, admitted batches may have declared new
            // relations its batch must agree with — exactly as if it
            // had been submitted serially after them.
            let fresh = match shared.validate_for_enqueue(&writes.declared, interner, updates) {
                Ok(fresh) => fresh,
                Err(e) => {
                    writes.rejected_invalid += 1;
                    return Err(e);
                }
            };
            let full = writes
                .queue_cap
                .is_some_and(|cap| writes.pending.len() >= cap);
            if !full {
                break fresh;
            }
            match writes.policy {
                WritePolicy::Refuse => {
                    writes.rejected_full += 1;
                    return Err(ServingError::WriteQueueFull {
                        pending: writes.pending.len(),
                    });
                }
                WritePolicy::Block => writes = shared.space.wait(writes).unwrap(),
            }
        };
        // Admission: the batch's new declarations become visible to
        // every later submission (committed or not — all-or-nothing
        // already held above, so they are final).
        writes.declared.extend(fresh);
        let seq = writes.next_seq;
        writes.next_seq += 1;
        let (done, rx) = mpsc::channel();
        writes.pending.push_back(PendingBatch {
            seq,
            updates: updates.to_vec(),
            done,
        });
        writes.queue_high_water = writes.queue_high_water.max(writes.pending.len());
        drop(writes);
        Ok(CommitTicket {
            shared: shared.clone(),
            seq,
            rx,
        })
    }

    /// Commits every batch currently in the queue as one group without
    /// submitting anything — acts as the commit leader on behalf of
    /// outstanding [`CommitTicket`]s (their `wait` calls then find
    /// their receipts already delivered). Returns the number of
    /// batches committed (`0`: the queue was empty).
    pub fn flush_writes(&self, interner: &Interner) -> usize {
        let _leader = self.shared.commit_lock.lock().unwrap();
        self.shared.commit_group(interner)
    }

    /// Bounds the commit-queue depth (`None`: unbounded, the default;
    /// `Some(n)` is clamped up to 1) and sets what a full queue does
    /// to new submissions: [`WritePolicy::Block`] parks the submitter
    /// until the committer drains space free, [`WritePolicy::Refuse`]
    /// fails fast with [`ServingError::WriteQueueFull`]. This is the
    /// burst backpressure *above* [`Server::set_max_live_epochs`]: the
    /// epoch bound throttles publication, the queue bound throttles
    /// admission.
    pub fn set_write_queue(&self, depth: Option<usize>, policy: WritePolicy) {
        let mut writes = self.shared.writes.lock().unwrap();
        writes.queue_cap = depth.map(|d| d.max(1));
        writes.policy = policy;
        drop(writes);
        // A raised (or removed) cap admits blocked submitters.
        self.shared.space.notify_all();
    }

    /// Writer-side pipeline counters: group commits, coalesced
    /// batches, queue depth and high-water mark, rejected batches.
    pub fn write_stats(&self) -> WriteStats {
        let writes = self.shared.writes.lock().unwrap();
        WriteStats {
            commits: writes.commits,
            batches_committed: writes.batches_committed,
            max_group: writes.max_group,
            queue_depth: writes.pending.len(),
            queue_high_water: writes.queue_high_water,
            rejected_invalid: writes.rejected_invalid,
            rejected_full: writes.rejected_full,
        }
    }

    /// Total ⊕/⊗ applications the *writer* has executed delta-patching
    /// the master across all commits (the reader-side counterpart is
    /// [`Server::ops_performed`]). Grouped commits make this grow
    /// strictly slower than per-batch serial commits on overlapping
    /// batches — the write_throughput bench asserts it.
    pub fn writer_ops_performed(&self) -> u64 {
        self.shared.master.lock().unwrap().ops_performed()
    }

    /// The latest published epoch counter.
    pub fn current_epoch(&self) -> u64 {
        self.shared.current.read().unwrap().epoch
    }

    /// Published epochs still referenced (the current one included).
    pub fn live_epochs(&self) -> usize {
        self.shared.gc();
        self.shared.live_epochs()
    }

    /// Total rows materialised across the shared node cache — the
    /// quantity the global governor bounds.
    pub fn materialised_rows(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap()
            .values()
            .map(|n| n.rows)
            .sum()
    }

    /// Approximate payload bytes of the shared node cache
    /// ([`crate::storage::Storage::storage_bytes`] summed; the shared
    /// dictionary is excluded).
    pub fn storage_bytes(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap()
            .values()
            .map(|n| n.node.rel.storage_bytes())
            .sum()
    }

    /// Materialised plan nodes currently in the shared cache.
    pub fn cached_nodes(&self) -> usize {
        self.shared.cache.lock().unwrap().len()
    }

    /// Nodes evicted by the governor or per-session budgets so far.
    pub fn evictions(&self) -> u64 {
        self.shared.evictions.load(Ordering::Relaxed)
    }

    /// Total ⊕/⊗ applications actually executed by reader misses
    /// (writer delta-patches execute inside the master session and are
    /// counted by it). Cache hits replay recorded counts without
    /// performing any — the cross-client sharing win is
    /// `Σ reported stats − ops_performed`.
    pub fn ops_performed(&self) -> u64 {
        self.shared.performed_add.load(Ordering::Relaxed)
            + self.shared.performed_mul.load(Ordering::Relaxed)
    }

    /// Queries served from the cross-session resolved-plan memo
    /// without taking the master lock.
    pub fn plan_hits(&self) -> u64 {
        self.shared.plan_hits.load(Ordering::Relaxed)
    }

    /// Bounds the total rows materialised across all sessions
    /// (`None`: unbounded). Enforced after every query and every
    /// update publication with cost-aware-LRU eviction; evicted nodes
    /// rebuild lazily, so only the sharing win shrinks.
    pub fn set_global_cache_rows(&self, budget: Option<usize>) {
        self.shared.governor.lock().unwrap().global_rows = budget;
        self.shared.evict_global();
    }

    /// Admission-controls update bursts: a writer blocks until fewer
    /// than `max` published epochs are still referenced. The current
    /// epoch always counts, so the floor is 2 (`max` is clamped up) —
    /// `Some(2)` means "at most one retired-but-pinned epoch at a
    /// time". `None` (the default) never blocks the writer.
    pub fn set_max_live_epochs(&self, max: Option<usize>) {
        self.shared.governor.lock().unwrap().max_live_epochs = max.map(|m| m.max(2));
        self.shared.retire.notify();
    }

    /// Forwards [`ServingSession::set_patch_fraction`] to the master
    /// (the writer's patch-vs-rebuild policy).
    pub fn set_patch_fraction(&self, fraction: f64) {
        self.shared
            .master
            .lock()
            .unwrap()
            .set_patch_fraction(fraction);
    }

    /// Prunes retired epochs and the shared-cache entries only they
    /// could hit — freeing their copy-on-write matrices. Runs
    /// automatically after every publication; exposed for tests and
    /// idle housekeeping.
    pub fn gc(&self) {
        self.shared.gc();
    }
}

impl<M, R> std::fmt::Debug for CommitTicket<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<M, R> CommitTicket<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    /// The batch's arrival sequence number (commit order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Waits for the batch's group to commit and returns its receipt.
    ///
    /// There is no dedicated committer thread: the first waiter to
    /// acquire commit leadership drains and commits the whole queue on
    /// everyone's behalf (its receipt included), so a group of k
    /// concurrent writers pays one delta-patch pass and one epoch
    /// publication, and nobody waits on a thread that might not exist.
    ///
    /// # Errors
    /// The group's commit error, delivered to every ticket of the
    /// group (enqueue validation makes this unreachable in practice).
    pub fn wait(self, interner: &Interner) -> Result<CommitReceipt, ServingError> {
        if let Ok(result) = self.rx.try_recv() {
            return result;
        }
        let leader = self.shared.commit_lock.lock().unwrap();
        // A previous leader may have committed this batch's group
        // while we waited for leadership — receipts are delivered
        // before the lock is released, so check again.
        if let Ok(result) = self.rx.try_recv() {
            return result;
        }
        self.shared.commit_group(interner);
        drop(leader);
        self.rx
            .recv()
            .expect("the commit group just drained included this ticket's batch")
    }
}

/// One reader's handle on a [`Server`]: snapshot-isolated queries, an
/// optional long-lived pin, and a per-session cache budget. Open one
/// per client (sessions are `Send`; share the server handle, not the
/// session).
pub struct Session<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    shared: Arc<ServerShared<M, R>>,
    id: u64,
    budget_rows: Option<usize>,
    pinned: Option<Arc<EpochState<M>>>,
}

impl<M, R> Session<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    /// This session's id (stable for its lifetime; `1`-based — `0` is
    /// the writer's owner tag).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The epoch the next query will read: the pinned one, else the
    /// latest published.
    fn read_epoch(&self) -> Arc<EpochState<M>> {
        self.pinned
            .clone()
            .unwrap_or_else(|| self.shared.current.read().unwrap().clone())
    }

    /// Pins the current epoch: every subsequent query reads this
    /// snapshot — regardless of writer activity — until
    /// [`Session::unpin`]. Returns the pinned epoch counter.
    pub fn pin(&mut self) -> u64 {
        let state = self.shared.current.read().unwrap().clone();
        let epoch = state.epoch;
        self.pinned = Some(state);
        epoch
    }

    /// Releases the pin; the epoch retires when its last reader
    /// drops. Subsequent queries read the latest published epoch.
    pub fn unpin(&mut self) {
        self.pinned = None;
        self.shared.gc();
    }

    /// The pinned epoch counter, if a pin is in force.
    pub fn pinned_epoch(&self) -> Option<u64> {
        self.pinned.as_ref().map(|s| s.epoch)
    }

    /// Bounds the rows this session's own materialisations may keep in
    /// the shared cache (`None`: unbounded). Nodes materialised by
    /// other sessions (or exported by the writer) never count against
    /// it.
    pub fn set_cache_budget(&mut self, budget: Option<usize>) {
        self.budget_rows = budget;
        if let Some(b) = budget {
            let id = self.id;
            self.shared.evict_where(b, |n| n.owner == id);
        }
    }

    /// Evaluates one query against this session's read epoch, sharing
    /// every sub-plan any session already materialised for compatible
    /// state. Returns the value and the [`EngineStats`] an independent
    /// fresh evaluation over the epoch's state would report —
    /// bit-identical, support trajectory included.
    ///
    /// # Errors
    /// Non-hierarchical queries and annotation failures.
    pub fn query(
        &self,
        interner: &Interner,
        q: &Query,
    ) -> Result<(M::Elem, EngineStats), ServingError> {
        let epoch = self.read_epoch();
        let plan = self.shared.resolve(q)?;
        self.serve(interner, epoch, &plan, plan.lowered.nodes(), |local| {
            replay(&self.shared.monoid, &plan.lowered, |n| &local[&n].node)
        })
    }

    /// Evaluates the recursive reachability query over binary relation
    /// `rel` against this session's read epoch — the multi-tenant
    /// counterpart of [`ServingSession::query_fix`], with the same
    /// readout ([`crate::fixpoint::FixpointRun::readout`]) and the same
    /// replayed [`EngineStats`]. The materialised fixpoint node lives
    /// in the shared cache: a second session querying the same
    /// relation at the same epoch replays it with zero monoid
    /// operations.
    ///
    /// # Errors
    /// [`ServingError::Fixpoint`] on a non-convergent monoid or a
    /// non-binary relation.
    pub fn query_fix(
        &self,
        interner: &Interner,
        rel: &str,
        src: Option<Value>,
        dst: Option<Value>,
    ) -> Result<(M::Elem, EngineStats), ServingError> {
        let epoch = self.read_epoch();
        let plan = self.shared.resolve_fix(rel);
        let root = plan.lowered.root;
        self.serve(interner, epoch, &plan, [root], |local| {
            let run = local[&root]
                .node
                .fix
                .as_ref()
                .expect("fixpoint nodes always carry their kernel run");
            (
                run.readout(&self.shared.monoid, src, dst),
                run.stats.clone(),
            )
        })
    }

    /// Materialises (or fetches) `ids` of `plan` for `epoch`, reads the
    /// answer off the query's node map, then releases the epoch and
    /// the node handles and enforces this session's budget and the
    /// global bound.
    fn serve<T>(
        &self,
        interner: &Interner,
        epoch: Arc<EpochState<M>>,
        plan: &ResolvedPlan,
        ids: impl IntoIterator<Item = PlanId>,
        read: impl FnOnce(&HashMap<PlanId, Arc<SharedNode<R>>>) -> T,
    ) -> Result<T, ServingError> {
        let tick = self.shared.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut local = HashMap::new();
        for id in ids {
            self.shared
                .ensure_node(&epoch, plan, id, interner, tick, self.id, &mut local)?;
        }
        let out = read(&local);
        drop(local);
        drop(epoch);
        if let Some(b) = self.budget_rows {
            let id = self.id;
            self.shared.evict_where(b, |n| n.owner == id);
        }
        self.shared.evict_global();
        Ok(out)
    }

    /// Evaluates a batch of queries in order against one consistent
    /// snapshot (the epoch current when the batch starts, or the
    /// pinned one).
    ///
    /// # Errors
    /// Fails on the first erroneous query.
    pub fn query_batch(
        &mut self,
        interner: &Interner,
        queries: &[Query],
    ) -> Result<Vec<(M::Elem, EngineStats)>, ServingError> {
        let had_pin = self.pinned.is_some();
        if !had_pin {
            self.pin();
        }
        let out = queries.iter().map(|q| self.query(interner, q)).collect();
        if !had_pin {
            self.unpin();
        }
        out
    }

    /// Applies a write through the server's group-commit queue (a
    /// convenience for single-connection scripts that mix reads and
    /// writes; see [`Server::update_batch`]).
    ///
    /// # Errors
    /// See [`Server::update_batch`].
    pub fn update_batch(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<UpdateOutcome, ServingError> {
        Ok(self.commit_batch(interner, updates)?.outcome)
    }

    /// [`Session::update_batch`], returning the full
    /// [`CommitReceipt`] — the wire front-end uses the receipt's epoch
    /// so each writer reports *its* commit, not whatever epoch is
    /// current by the time it replies.
    ///
    /// # Errors
    /// See [`Server::update_batch`].
    pub fn commit_batch(
        &self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<CommitReceipt, ServingError> {
        Server {
            shared: self.shared.clone(),
        }
        .commit_batch(interner, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MapRelation, ShardedColumnar};
    use hq_db::{db_from_ints, Tuple};
    use hq_monoid::ProbMonoid;
    use hq_query::parse_query;

    fn chain_tid() -> (Vec<(Fact, f64)>, Interner) {
        let (db, i) = db_from_ints(&[
            ("E", &[&[1, 2], &[1, 3], &[4, 3], &[5, 5]]),
            ("F", &[&[2, 9], &[3, 8], &[3, 9], &[5, 1]]),
        ]);
        let tid = db
            .facts()
            .into_iter()
            .enumerate()
            .map(|(j, f)| (f, 0.15 + 0.09 * j as f64))
            .collect();
        (tid, i)
    }

    fn serial_expect(tid: &[(Fact, f64)], i: &Interner, q: &Query) -> (f64, EngineStats) {
        let mut s: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, i, tid.iter().cloned()).unwrap();
        s.query(i, q).unwrap()
    }

    #[test]
    fn single_session_matches_serial_serving() {
        let (tid, i) = chain_tid();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let (want, want_stats) = serial_expect(&tid, &i, &q);
        let server: Server<ProbMonoid> = Server::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let s = server.session();
        let (got, stats) = s.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
        // Second session: full cache hit, zero additional ops.
        let performed = server.ops_performed();
        let s2 = server.session();
        let (got2, stats2) = s2.query(&i, &q).unwrap();
        assert_eq!(got2.to_bits(), want.to_bits());
        assert_eq!(stats2, want_stats);
        assert_eq!(server.ops_performed(), performed, "hit must be zero-op");
        assert_eq!(server.plan_hits(), 1);
    }

    #[test]
    fn pinned_reader_is_isolated_from_writer() {
        let (tid, mut i) = chain_tid();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let server: Server<ProbMonoid, ShardedColumnar<f64>> = Server::with_parallelism(
            ProbMonoid,
            &i,
            tid.iter().cloned(),
            Parallelism::fine_grained(2),
        )
        .unwrap();
        let mut pinned = server.session();
        let (before, before_stats) = pinned.query(&i, &q).unwrap();
        pinned.pin();
        // The writer inserts a novel domain value (dictionary
        // extension: every cached matrix renumbers).
        let e = i.intern("E");
        let novel = Fact::new(e, Tuple::ints(&[77, 78]));
        server.update(&i, &novel, 0.5).unwrap();
        // The pinned reader still sees the old state, bit-identically.
        let (got, stats) = pinned.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), before.to_bits());
        assert_eq!(stats, before_stats);
        // An unpinned session sees the new state — and matches a
        // serial session replaying the same history.
        let fresh = server.session();
        let (new_got, new_stats) = fresh.query(&i, &q).unwrap();
        let mut serial: ServingSession<ProbMonoid, ShardedColumnar<f64>> =
            ServingSession::with_parallelism(
                ProbMonoid,
                &i,
                tid.iter().cloned(),
                Parallelism::fine_grained(2),
            )
            .unwrap();
        serial.query(&i, &q).unwrap();
        serial.update(&i, &novel, 0.5).unwrap();
        let (serial_got, serial_stats) = serial.query(&i, &q).unwrap();
        assert_eq!(new_got.to_bits(), serial_got.to_bits());
        assert_eq!(new_stats, serial_stats);
        // Unpinning retires the old epoch; gc frees its nodes.
        assert!(server.live_epochs() >= 2);
        pinned.unpin();
        server.gc();
        assert_eq!(server.live_epochs(), 1);
    }

    #[test]
    fn recursive_query_matches_serial_and_survives_commit() {
        let (db, mut i) = db_from_ints(&[("E", &[&[1, 2], &[2, 3], &[3, 4], &[5, 1]])]);
        let tid: Vec<(Fact, f64)> = db
            .facts()
            .into_iter()
            .enumerate()
            .map(|(j, f)| (f, 0.2 + 0.07 * j as f64))
            .collect();
        let mut serial: ServingSession<ProbMonoid, ShardedColumnar<f64>> =
            ServingSession::with_parallelism(
                ProbMonoid,
                &i,
                tid.iter().cloned(),
                Parallelism::fine_grained(2),
            )
            .unwrap();
        let server: Server<ProbMonoid, ShardedColumnar<f64>> = Server::with_parallelism(
            ProbMonoid,
            &i,
            tid.iter().cloned(),
            Parallelism::fine_grained(2),
        )
        .unwrap();
        let s = server.session();
        for (src, dst) in [
            (None, None),
            (Some(Value::Int(1)), None),
            (Some(Value::Int(1)), Some(Value::Int(4))),
            (None, Some(Value::Int(3))),
        ] {
            let (want, want_stats) = serial.query_fix(&i, "E", src, dst).unwrap();
            let (got, stats) = s.query_fix(&i, "E", src, dst).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(stats, want_stats);
        }
        // A second session replays the shared fixpoint node zero-op.
        let performed = server.ops_performed();
        let s2 = server.session();
        s2.query_fix(&i, "E", None, None).unwrap();
        assert_eq!(server.ops_performed(), performed, "hit must be zero-op");
        // A commit publishes a new epoch; recursive queries against it
        // still match a serial session replaying the same history.
        let e = i.intern("E");
        let novel = Fact::new(e, Tuple::ints(&[4, 6]));
        serial.update(&i, &novel, 0.5).unwrap();
        server.update(&i, &novel, 0.5).unwrap();
        let (want, want_stats) = serial.query_fix(&i, "E", None, None).unwrap();
        let (got, stats) = s.query_fix(&i, "E", None, None).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn governor_bounds_global_rows() {
        let (tid, i) = chain_tid();
        let server: Server<ProbMonoid, MapRelation<f64>> =
            Server::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        server.set_global_cache_rows(Some(3));
        let s = server.session();
        for src in ["Q() :- E(X,Y), F(Y,Z)", "Q() :- E(X,Y)", "Q() :- F(Y,Z)"] {
            s.query(&i, &parse_query(src).unwrap()).unwrap();
        }
        assert!(server.materialised_rows() <= 3);
        assert!(server.evictions() > 0);
    }
}
