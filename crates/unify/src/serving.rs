//! Multi-query serving sessions: one encoded database, many queries,
//! interleaved updates.
//!
//! A [`ServingSession`] owns an annotated database (facts with
//! 2-monoid annotations), stored once and already dictionary-encoded
//! ([`BaseDb`]), and a **plan-node cache** keyed by the hash-consed
//! [`PlanIr`] identities of [`crate::plan_ir`]. Evaluating a query
//! lowers its elimination plan onto the shared IR and materialises
//! only the nodes the cache does not already hold — so a batch of
//! overlapping queries evaluates every common sub-plan (shared scans,
//! shared Rule 1 folds, shared Rule 2 merges) **once per backend**,
//! and a repeated query costs zero monoid operations.
//!
//! **Determinism contract.** Each query's returned value and reported
//! [`EngineStats`] are *bit-identical* to an independent fresh
//! evaluation of the same query over the current state
//! ([`crate::engine::evaluate_encoded`] on the columnar backends,
//! [`crate::engine::evaluate_on`] on the ordered-map oracle), on every
//! backend and thread count. Cached nodes store the exact ⊕/⊗ op
//! counts their computation performed, and the session *replays* — not
//! recomputes — each query's op totals and support trajectory from the
//! cached relations, without performing a single monoid operation on a
//! cache hit. [`ServingSession::ops_performed`] exposes how many
//! operations were actually executed, which is how the differential
//! suite pins the sharing win (`performed < Σ independent`).
//!
//! **One evaluator.** A cached node is one record — the relation, its
//! recorded op counts and, for a fixpoint, the kernel run — built by
//! one crate-internal evaluator (`eval_node`) and read back by one
//! `replay`. [`crate::server`] builds and replays its shared nodes
//! through the same two functions; the layers differ in cache policy.
//!
//! **Update model.** [`ServingSession::update_batch`] applies fact
//! writes (a `0` annotation deletes) to the [`BaseDb`] as point
//! writes (novel domain values extend the shared dictionary once and
//! surviving cached matrices are *translated* through the old→new code
//! map — the code numbering moved, not the data), bumps the touched
//! relations' dirty epochs, and then **delta-patches** the whole
//! cached pipeline through
//! the delta-indexed group refold: cached scan nodes take point
//! writes, dirty `Project` nodes refold exactly their dirty Rule 1
//! groups ([`Storage::group_rows_key`], per-group folds sequential so
//! the ⊕ sequence matches the batch kernels bit for bit), and dirty
//! `Join` nodes re-derive exactly their dirty keys. Each patched
//! node's recorded op counts are maintained to what a fresh evaluation
//! would report, so replayed [`EngineStats`] stay exact. A delta
//! touching more than [`ServingSession::patch_fraction`] of a node's
//! groups falls back to dropping the node (it rebuilds lazily), and
//! `0.0` restores the old drop-and-rebuild behaviour entirely.
//!
//! **Memoisation and eviction.** Lowering is memoised per query string
//! (the IR is structural, so a lowering never invalidates), and the
//! node cache can be bounded: [`ServingSession::set_cache_budget`]
//! caps the total materialised rows, evicting cost-aware-LRU victims
//! after each query ([`ServingSession::evictions`] counts them).

use crate::annotated::AnnotateError;
use crate::engine::EngineStats;
use crate::fixpoint::{
    patch_inserts, semi_naive, validate_fixpoint, FixpointError, FixpointRun, PatchOutcome,
};
use crate::plan_ir::{lower, LoweredQuery, PlanExpr, PlanId, PlanIr};
use crate::pool;
use crate::storage::{
    BaseDb, ColumnarRelation, CompressedAnn, CompressedColumnar, MapRelation, Parallelism,
    RefreshOutcome, Storage,
};
use hq_db::{Fact, Interner, RowCode, Sym, Tuple, Value, ValueDict};
use hq_monoid::TwoMonoid;
use hq_query::{plan, NotHierarchical, Query, Var};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors from the serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// The query is not hierarchical (Theorem 4.4: intractable).
    NotHierarchical(NotHierarchical),
    /// Annotation failed (arity mismatch, duplicate key).
    Annotate(AnnotateError),
    /// The server's bounded commit queue is full and the write policy
    /// is `refuse` (see [`crate::server::Server::set_write_queue`]).
    WriteQueueFull {
        /// Batches pending in the queue when the submission arrived.
        pending: usize,
    },
    /// A recursive query failed fixpoint validation (non-convergent
    /// monoid, non-binary relation, malformed step).
    Fixpoint(FixpointError),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::NotHierarchical(e) => write!(f, "{e}"),
            ServingError::Annotate(e) => write!(f, "{e}"),
            ServingError::WriteQueueFull { pending } => {
                write!(f, "write queue full ({pending} batches pending)")
            }
            ServingError::Fixpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<NotHierarchical> for ServingError {
    fn from(e: NotHierarchical) -> Self {
        ServingError::NotHierarchical(e)
    }
}

impl From<AnnotateError> for ServingError {
    fn from(e: AnnotateError) -> Self {
        ServingError::Annotate(e)
    }
}

impl From<FixpointError> for ServingError {
    fn from(e: FixpointError) -> Self {
        ServingError::Fixpoint(e)
    }
}

/// What one [`ServingSession::update_batch`] call did to the caches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Relation names whose content actually changed.
    pub touched: Vec<String>,
    /// Cached scan nodes kept warm by in-place point patches.
    pub patched_scans: usize,
    /// Cached `Project`/`Join` intermediates kept warm by refolding
    /// only their dirty groups / re-deriving only their dirty keys.
    pub patched_nodes: usize,
    /// Cached intermediate nodes dropped — an unpatchable input, an
    /// arity move, or a delta past the rebuild threshold (they rebuild
    /// lazily on the next query that needs them).
    pub invalidated: usize,
    /// Cached node matrices translated through a dictionary extension
    /// (novel domain values). `0` when every written value was already
    /// interned — in particular for updates that merely re-populate a
    /// relation emptied by an earlier delete-only batch.
    pub dict_extensions: usize,
    /// What the batch did to the [`BaseDb`]: changed relations and
    /// any dictionary extension.
    pub refresh: RefreshOutcome,
}

/// A session cache entry: the materialised [`Node`] (its recorded op
/// counts kept exact across delta-patches by the update accounting)
/// plus the session's cache-policy state.
#[derive(Debug, Clone)]
struct CachedNode<R: Storage> {
    node: Node<R>,
    /// Session epoch at which this node was (re)computed or patched.
    valid_at: u64,
    /// Query tick of the last use — the LRU clock of the eviction
    /// policy.
    last_used: u64,
    /// Measured refold cost: EWMA of input rows folded per dirty
    /// group across this node's past patches (`0.0` until the first
    /// patch measures it). Drives the adaptive patch-vs-rebuild
    /// decision for Rule 1 nodes.
    refold_rows_ewma: f64,
}

/// One patched key's movement: `(annotation before, annotation after)`
/// — the change-set vocabulary the delta walk hands from a node to its
/// dependents.
type Change<E> = (Option<E>, Option<E>);

/// A spilled eviction victim: where its bytes sit in the segment file,
/// plus everything [`CachedNode`] tracked that bytes alone cannot
/// restore (recorded op counts, validity epoch, refold estimate).
#[derive(Debug, Clone, Copy)]
struct SpilledNode {
    offset: u64,
    len: usize,
    add_ops: u64,
    mul_ops: u64,
    valid_at: u64,
    refold_rows_ewma: f64,
}

/// The append-only temp segment file backing spill-on-evict. Entries
/// are only appended — a re-spill of an already-spilled node leaks the
/// superseded bytes (the file lives for one session and eviction
/// traffic is budget-bounded, so the leak is too). Dropped with the
/// session, removing the file.
struct SpillFile {
    file: std::fs::File,
    path: std::path::PathBuf,
    tail: u64,
}

impl SpillFile {
    /// Creates a fresh segment under the OS temp dir, named uniquely
    /// per process and per session. `None` when the file cannot be
    /// created — the caller degrades to plain (spill-less) eviction.
    fn create() -> Option<SpillFile> {
        static SEGMENT: AtomicU64 = AtomicU64::new(0);
        let n = SEGMENT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("hq-serving-spill-{}-{n}.seg", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .ok()?;
        Some(SpillFile {
            file,
            path,
            tail: 0,
        })
    }

    /// Appends one node's bytes, returning their `(offset, len)`.
    fn append(&mut self, bytes: &[u8]) -> Option<(u64, usize)> {
        use std::io::{Seek, SeekFrom, Write};
        let offset = self.tail;
        self.file.seek(SeekFrom::Start(offset)).ok()?;
        self.file.write_all(bytes).ok()?;
        self.tail += bytes.len() as u64;
        Some((offset, bytes.len()))
    }

    /// Reads one record back.
    fn read(&mut self, offset: u64, len: usize) -> Option<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(offset)).ok()?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf).ok()?;
        Some(buf)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The lowering-memo key: the query's atom list with variables as
/// positional ids. Shared with [`crate::server`], whose cross-session
/// lowering memo uses the same structural key.
pub(crate) type QueryShape = Vec<(String, Vec<usize>)>;

/// Computes a query's memo key. [`hq_query::Var`] ids are assigned in
/// first-occurrence order, so two queries that differ only in variable
/// *names* (alpha-renaming) produce equal shapes — and, because the
/// planner and the lowering see only ids, identical lowerings. Keying
/// the memo on the shape instead of the rendered query string lets
/// renamed restatements of one query share a single entry.
pub(crate) fn query_shape(q: &Query) -> QueryShape {
    q.atoms()
        .iter()
        .map(|a| (a.rel.clone(), a.vars.iter().map(|v| v.0).collect()))
        .collect()
}

/// The default [`ServingSession::patch_fraction`]: a delta touching up
/// to half of a node's groups patches in place; beyond that a rebuild
/// is assumed cheaper (the refold would visit most of the node anyway,
/// with worse locality than the batch kernels).
const DEFAULT_PATCH_FRACTION: f64 = 0.5;

/// A backend that can materialise serving-session scan nodes. The
/// three engine backends implement it; all stay bit-identical.
pub trait ServingBackend: Storage {
    /// Materialises one scan node: relation `rel` of `base` keyed in
    /// ascending variable order via the written-order permutation
    /// `positions`. Columnar backends permute the stored codes; the
    /// ordered-map oracle decodes the rows through the dictionary.
    ///
    /// # Errors
    /// Arity mismatches and duplicate keys, as in annotation.
    fn scan(
        base: &BaseDb<Self::Ann>,
        interner: &Interner,
        rel: &str,
        positions: &[usize],
        vars: Vec<Var>,
    ) -> Result<Self, AnnotateError>;

    /// Overwrites the relation's schema labels. Shared plan nodes are
    /// label-free (column positions are the identity); relabeling
    /// aligns a cached node's variable labels with the consuming
    /// kernel's expectation without touching any data.
    fn relabel(&mut self, vars: Vec<Var>);

    /// Re-expresses the node under an extended dictionary after a
    /// novel-domain-value insert: `translation[old] == new` is the
    /// order-preserving code map from [`ValueDict::extend_with`], so
    /// remapped matrices stay sorted and the node's *data* is
    /// untouched — only the code numbering moved. Returns whether the
    /// node held codes to move: `false` on the ordered-map oracle,
    /// whose tuples carry their values directly.
    fn translate_codes(&mut self, dict: &Arc<ValueDict>, translation: &[RowCode]) -> bool;

    /// Whether eviction victims of this backend can be serialised to a
    /// spill segment and reloaded later ([`ServingSession::set_spill`]).
    /// Only the compressed tier opts in — its blocks are already a
    /// compact byte-oriented format — and only for annotation types
    /// with an exact byte codec ([`CompressedAnn::SPILLABLE`]).
    const SPILLABLE: bool = false;

    /// Serialises the node for the spill segment. Never called unless
    /// [`ServingBackend::SPILLABLE`]; the default spills nothing.
    fn spill(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Rebuilds a node from bytes written by [`ServingBackend::spill`]
    /// under the session's current shared dictionary. `None` rejects
    /// the bytes (malformed, or the backend does not spill) and the
    /// caller falls back to recomputation.
    fn unspill(_bytes: &[u8], _dict: &Arc<ValueDict>) -> Option<Self> {
        None
    }
}

/// Renders a duplicate scan key (an atom with repeated variables) in
/// written column order, mirroring the annotate paths.
fn dup_fact(rel: &str, positions: &[usize], key: Tuple, interner: &Interner) -> AnnotateError {
    let mut vals = vec![Value::Int(0); key.arity()];
    for (i, &p) in positions.iter().enumerate() {
        vals[p] = key.get(i);
    }
    let written = Tuple::from(vals);
    AnnotateError::DuplicateFact {
        fact: format!("{rel}{}", written.display(interner)),
    }
}

/// `positions` when it is not the identity permutation, else `None`
/// (the cached codes are already in key order).
fn non_identity(positions: &[usize]) -> Option<&[usize]> {
    if positions.iter().enumerate().all(|(a, &b)| a == b) {
        None
    } else {
        Some(positions)
    }
}

impl<K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static> ServingBackend
    for ColumnarRelation<K>
{
    fn scan(
        base: &BaseDb<K>,
        interner: &Interner,
        rel: &str,
        positions: &[usize],
        vars: Vec<Var>,
    ) -> Result<Self, AnnotateError> {
        base.slot(interner, rel, vars, non_identity(positions), |key| {
            dup_fact(rel, positions, key, interner)
        })
    }

    fn relabel(&mut self, vars: Vec<Var>) {
        self.set_vars(vars);
    }

    fn translate_codes(&mut self, dict: &Arc<ValueDict>, translation: &[RowCode]) -> bool {
        self.remap_codes(dict, translation);
        true
    }
}

impl<K> ServingBackend for CompressedColumnar<K>
where
    K: CompressedAnn + Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
{
    const SPILLABLE: bool = K::SPILLABLE;

    fn scan(
        base: &BaseDb<K>,
        interner: &Interner,
        rel: &str,
        positions: &[usize],
        vars: Vec<Var>,
    ) -> Result<Self, AnnotateError> {
        // Assemble the dense sorted matrix from the stored codes, then
        // block-encode it — the same two-phase build as annotation.
        Ok(CompressedColumnar::from_columnar(ColumnarRelation::scan(
            base, interner, rel, positions, vars,
        )?))
    }

    fn relabel(&mut self, vars: Vec<Var>) {
        self.set_vars(vars);
    }

    fn translate_codes(&mut self, dict: &Arc<ValueDict>, translation: &[RowCode]) -> bool {
        self.remap_codes(dict, translation);
        true
    }

    fn spill(&self) -> Vec<u8> {
        self.spill_bytes()
    }

    fn unspill(bytes: &[u8], dict: &Arc<ValueDict>) -> Option<Self> {
        CompressedColumnar::from_spill(bytes, Arc::clone(dict))
    }
}

impl<K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static> ServingBackend for MapRelation<K> {
    fn scan(
        base: &BaseDb<K>,
        interner: &Interner,
        rel: &str,
        positions: &[usize],
        vars: Vec<Var>,
    ) -> Result<Self, AnnotateError> {
        let identity = non_identity(positions).is_none();
        let mut rows: Vec<(Tuple, K)> = Vec::new();
        for (t, k) in interner.get(rel).into_iter().flat_map(|sym| base.rows(sym)) {
            if t.arity() != positions.len() {
                return Err(AnnotateError::ArityMismatch {
                    rel: rel.to_owned(),
                    atom_arity: positions.len(),
                    fact_arity: t.arity(),
                });
            }
            let key = if identity { t } else { t.project(positions) };
            rows.push((key, k.clone()));
        }
        MapRelation::build_slots(vec![(vars, rows)])
            .map(|mut slots| slots.pop().expect("one slot in, one slot out"))
            .map_err(|d| dup_fact(rel, positions, d.key, interner))
    }

    fn relabel(&mut self, vars: Vec<Var>) {
        debug_assert_eq!(vars.len(), self.vars.len());
        self.vars = vars;
    }

    fn translate_codes(&mut self, _dict: &Arc<ValueDict>, _translation: &[RowCode]) -> bool {
        false
    }
}

/// Folds one gathered group run with the monoid's (possibly dense)
/// run fold: leader element out, tail via [`TwoMonoid::fold_assign`].
/// Element-for-element identical to the `add_assign` loop. Returns
/// the unpruned accumulator (`None` for an empty group) and the
/// member-row count; the caller prunes zeros with the monoid's
/// predicate and accounts the `rows − 1` ⊕ applications.
fn fold_run<M: TwoMonoid>(monoid: &M, mut run: Vec<M::Elem>) -> (Option<M::Elem>, usize) {
    let rows = run.len();
    if rows == 0 {
        return (None, 0);
    }
    let mut acc = std::mem::replace(&mut run[0], monoid.zero());
    monoid.fold_assign(&mut acc, &run[1..]);
    (Some(acc), rows)
}

/// One pool task's worth of refolded groups: `(fold, rows_folded)`
/// per group, in group order.
type FoldedChunk<E> = Vec<(Option<E>, usize)>;

/// Refolds a batch of dirty Rule 1 groups — the delta-indexed repair
/// kernel of the cached `Project` patches — sharding the work across
/// the persistent worker [`pool`] when the dirty set is large. Member
/// rows are gathered sequentially on the caller's thread via
/// [`Storage::group_rows_key`] in ascending full-key order (the
/// storage borrow stays local), so a dirty group of size `g` costs
/// `O(log |D| + g)`; only the owned annotation runs move into pool
/// tasks. Groups are chunked **contiguously in group order**, each
/// group's fold stays sequential, and chunk results are flattened back
/// in submission order — so the ⊕ sequence reproduces the batch
/// engine's fold bit for bit at every thread count.
fn refold_groups<M, R>(
    monoid: &M,
    input: &R,
    keep: &[usize],
    groups: &[R::Key],
    par: Parallelism,
) -> FoldedChunk<M::Elem>
where
    M: TwoMonoid,
    R: Storage<Ann = M::Elem>,
{
    let runs: Vec<Vec<M::Elem>> = groups
        .iter()
        .map(|g| input.group_rows_key(keep, g))
        .collect();
    let total_rows: usize = runs.iter().map(Vec::len).sum();
    let chunks = par
        .threads
        .min(groups.len())
        .min((total_rows / par.min_shard_rows()).max(1));
    if chunks <= 1 {
        return runs.into_iter().map(|run| fold_run(monoid, run)).collect();
    }
    // Whole-group chunks with the same balanced bounds as shard
    // splitting; reverse split_off keeps every chunk contiguous.
    let mut tail = runs;
    let mut chunked: Vec<Vec<Vec<M::Elem>>> = Vec::with_capacity(chunks);
    for c in (0..chunks).rev() {
        chunked.push(tail.split_off(groups.len() * c / chunks));
    }
    chunked.reverse();
    let tasks: Vec<pool::BatchTask<FoldedChunk<M::Elem>>> = chunked
        .into_iter()
        .map(|chunk| {
            let monoid = monoid.clone();
            Box::new(move || {
                chunk
                    .into_iter()
                    .map(|run| fold_run(&monoid, run))
                    .collect()
            }) as pool::BatchTask<_>
        })
        .collect();
    pool::run_batch(chunks, tasks)
        .into_iter()
        .flatten()
        .collect()
}

/// A materialised plan node — the one record both serving layers cache
/// ([`ServingSession`] per session, [`crate::server`] per epoch): the
/// annotated relation, the exact ⊕/⊗ op counts a fresh evaluation of
/// the node would report (replayed into every query's stats without
/// re-executing them), and, for a [`PlanExpr::Fixpoint`] node only, the
/// recorded kernel run that answers recursive readouts and lets
/// [`patch_inserts`] keep the node warm under pure-insert updates.
#[derive(Debug, Clone)]
pub(crate) struct Node<R: Storage> {
    pub(crate) rel: R,
    pub(crate) add_ops: u64,
    pub(crate) mul_ops: u64,
    pub(crate) fix: Option<FixpointRun<R::Ann>>,
}

/// The materialised inputs node `id` reads, which a caller must hold
/// before [`eval_node`] runs: a fixpoint reads its validated base and
/// edge scans. Fails only on a malformed fixpoint.
pub(crate) fn node_inputs<'p>(
    node_of: impl Fn(PlanId) -> &'p PlanExpr,
    id: PlanId,
) -> Result<Vec<PlanId>, ServingError> {
    Ok(match node_of(id) {
        PlanExpr::Fixpoint { .. } => {
            let spec = validate_fixpoint(&node_of, id)?;
            vec![spec.base, spec.edges]
        }
        expr => expr.children(),
    })
}

/// The node evaluator of both serving layers: materialises node `id`
/// over `base` — a session's live store or a server epoch's copy —
/// reading its [`node_inputs`] through `input` — Rule 1
/// for `Project`, Rule 2 for `Join`, the semi-naive kernel for
/// `Fixpoint`. Cache lookup, freshness and spill reload stay with the
/// caller.
///
/// # Errors
/// Scan annotation failures and fixpoint validation failures.
pub(crate) fn eval_node<'p, 'n, M, R>(
    monoid: &M,
    par: Parallelism,
    base: &BaseDb<M::Elem>,
    interner: &Interner,
    node_of: impl Fn(PlanId) -> &'p PlanExpr,
    id: PlanId,
    input: impl Fn(PlanId) -> &'n Node<R>,
) -> Result<Node<R>, ServingError>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem> + 'n,
{
    let mut stats = EngineStats::default();
    let rel = match node_of(id) {
        PlanExpr::Scan { rel, positions } => {
            let vars: Vec<Var> = (0..positions.len()).map(Var).collect();
            R::scan(base, interner, rel, positions, vars)?
        }
        PlanExpr::Project { input: from, col } => {
            let input_rel = input(*from).rel.clone();
            let var = input_rel.vars()[*col];
            input_rel.project_out(monoid, var, par, &mut stats)
        }
        PlanExpr::Join { left, right } => {
            let l = input(*left).rel.clone();
            let mut r = input(*right).rel.clone();
            // Shared nodes are label-free: align the labels (pure
            // metadata — equal var *sets* per Rule 2, and both sides
            // are keyed in ascending-label column order, so column j
            // corresponds to column j).
            r.relabel(l.vars().to_vec());
            l.merge(monoid, r, par, &mut stats)
        }
        PlanExpr::Rec | PlanExpr::Compose { .. } => {
            unreachable!("loop variables and compose steps are never materialised")
        }
        PlanExpr::Fixpoint { .. } => {
            let spec = validate_fixpoint(&node_of, id)?;
            let base_rows = input(spec.base).rel.rows();
            let edge_rows = if spec.edges == spec.base {
                base_rows.clone()
            } else {
                input(spec.edges).rel.rows()
            };
            let run = semi_naive(monoid, &base_rows, &edge_rows, spec.shape)?;
            // Materialise the accumulator in the backend's layout, then
            // move it into the *shared* dictionary numbering
            // (`build_slots` encodes against a private dict):
            // dictionary extensions must keep translating this node
            // exactly like every other cached node.
            let rows = run.rows();
            let mut rel = R::build_slots(vec![(vec![Var(0), Var(1)], rows.clone())])
                .map_err(|d| FixpointError::DuplicateKey { key: d.key })?
                .into_iter()
                .next()
                .expect("one slot in, one slot out");
            let mut values: Vec<Value> = rows
                .iter()
                .flat_map(|(t, _)| t.values().iter().copied())
                .collect();
            values.sort_unstable();
            values.dedup();
            let shared = base.shared_dict();
            let translation: Vec<RowCode> = values
                .iter()
                .map(|&v| {
                    shared
                        .code(v)
                        .expect("accumulator values are instance values")
                })
                .collect();
            rel.translate_codes(&shared, &translation);
            return Ok(Node {
                rel,
                add_ops: run.stats.add_ops,
                mul_ops: run.stats.mul_ops,
                fix: Some(run),
            });
        }
    };
    Ok(Node {
        rel,
        add_ops: stats.add_ops,
        mul_ops: stats.mul_ops,
        fix: None,
    })
}

/// Replays a lowered query's value, op counts and support trajectory
/// from its materialised nodes — zero monoid operations.
pub(crate) fn replay<'n, M, R>(
    monoid: &M,
    lowered: &LoweredQuery,
    node: impl Fn(PlanId) -> &'n Node<R>,
) -> (M::Elem, EngineStats)
where
    M: TwoMonoid,
    R: Storage<Ann = M::Elem> + 'n,
{
    let mut stats = EngineStats::default();
    let mut slot_nodes = lowered.scans.clone();
    let mut alive = vec![true; slot_nodes.len()];
    let support = |slot_nodes: &[PlanId], alive: &[bool]| -> usize {
        slot_nodes
            .iter()
            .zip(alive)
            .filter(|&(_, &a)| a)
            .map(|(&id, _)| node(id).rel.support_size())
            .sum()
    };
    stats.support_sizes.push(support(&slot_nodes, &alive));
    for step in &lowered.steps {
        let n = node(step.node);
        stats.add_ops += n.add_ops;
        stats.mul_ops += n.mul_ops;
        if let Some(k) = step.killed {
            alive[k] = false;
        }
        slot_nodes[step.touched] = step.node;
        stats.support_sizes.push(support(&slot_nodes, &alive));
    }
    let value = node(lowered.root).rel.nullary_value(monoid);
    (value, stats)
}

/// The cost-aware-LRU eviction order of both serving layers (a
/// session's cache budget, the server's global governor). Given every
/// cached node as `(key, last_used, rows)`, returns the victims to
/// evict, in order, until the remaining rows fit `budget`: stalest
/// `last_used` first, the most rows among equally stale nodes, `key`
/// as the deterministic tie-break. Empty nodes free nothing and are
/// never victims.
pub(crate) fn lru_victims<K: Ord + Copy>(
    budget: usize,
    nodes: impl Iterator<Item = (K, u64, usize)> + Clone,
) -> Vec<K> {
    let mut total: usize = nodes.clone().map(|(_, _, rows)| rows).sum();
    if total <= budget {
        return Vec::new();
    }
    let mut order: Vec<(u64, Reverse<usize>, K)> = nodes
        .filter(|&(_, _, rows)| rows > 0)
        .map(|(key, last_used, rows)| (last_used, Reverse(rows), key))
        .collect();
    order.sort_unstable();
    let mut victims = Vec::new();
    for (_, Reverse(rows), key) in order {
        if total <= budget {
            break;
        }
        total -= rows;
        victims.push(key);
    }
    victims
}

/// A multi-query serving session over one annotated database. See the
/// module docs for the sharing, determinism and invalidation model.
pub struct ServingSession<M, R = ColumnarRelation<<M as TwoMonoid>::Elem>>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    monoid: M,
    par: Parallelism,
    /// The current annotated facts (support only: a `0` annotation
    /// means absent), encoded once.
    base: BaseDb<M::Elem>,
    /// The shared, hash-consed plan IR of every query seen so far.
    ir: PlanIr,
    /// Memoised lowerings, keyed by query *structure* ([`query_shape`])
    /// so alpha-renamed queries share one entry. Lowered node ids are
    /// structural and the arena never shrinks, so entries are *never*
    /// invalidated — not even by updates.
    lowered: HashMap<QueryShape, LoweredQuery>,
    /// Queries served without re-planning/re-lowering.
    lower_hits: u64,
    /// Materialised plan nodes, keyed by structural identity.
    cache: HashMap<PlanId, CachedNode<R>>,
    /// Monotone update counter.
    epoch: u64,
    /// Per-relation dirty epoch: the session epoch of the last update
    /// that changed the relation.
    rel_epoch: HashMap<String, u64>,
    /// ⊕/⊗ applications actually executed (cache misses and delta
    /// patches — cache hits replay without performing any).
    performed_add: u64,
    performed_mul: u64,
    /// Rebuild-fallback override: when set, a delta touching more than
    /// this fraction of a node's groups drops the node instead of
    /// patching it. When unset the session decides adaptively, using
    /// each Rule 1 node's measured refold cost (rows-per-group EWMA)
    /// where one exists and the default fraction elsewhere.
    patch_fraction: Option<f64>,
    /// Node-cache bound in materialised rows (`None`: unbounded).
    cache_budget: Option<usize>,
    /// Nodes evicted by the budget so far.
    evictions: u64,
    /// LRU clock: bumped once per query.
    query_tick: u64,
    /// The spill segment, created lazily by the first
    /// [`ServingSession::set_spill`] enable.
    spill: Option<SpillFile>,
    /// Whether eviction victims spill (requires a live segment file and
    /// a [`ServingBackend::SPILLABLE`] backend).
    spill_enabled: bool,
    /// Spilled victims by plan node, reloadable instead of recomputed.
    spilled: HashMap<PlanId, SpilledNode>,
    /// Victims written to the spill segment so far.
    spill_writes: u64,
    /// Cache misses served by reloading spilled bytes.
    spill_reloads: u64,
}

impl<M, R> ServingSession<M, R>
where
    M: TwoMonoid,
    R: ServingBackend<Ann = M::Elem>,
{
    /// Builds a session over `(fact, annotation)` pairs (later entries
    /// for the same fact win; `0` annotations are dropped — absent).
    ///
    /// # Errors
    /// Rejects fact lists that give one relation two different arities.
    pub fn new(
        monoid: M,
        interner: &Interner,
        facts: impl IntoIterator<Item = (Fact, M::Elem)>,
    ) -> Result<Self, ServingError> {
        Self::with_parallelism(monoid, interner, facts, Parallelism::default())
    }

    /// [`ServingSession::new`] with an explicit [`Parallelism`] degree,
    /// passed to every rule application and dirty-group refold (the
    /// columnar layout shards; results stay bit-identical at every
    /// thread count).
    ///
    /// # Errors
    /// Rejects fact lists that give one relation two different arities.
    pub fn with_parallelism(
        monoid: M,
        interner: &Interner,
        facts: impl IntoIterator<Item = (Fact, M::Elem)>,
        par: Parallelism,
    ) -> Result<Self, ServingError> {
        let facts: Vec<(Fact, M::Elem)> = facts.into_iter().collect();
        // The same all-or-nothing arity validation as `update_batch`:
        // the fresh-evaluation paths this session stays bit-identical
        // to report errors rather than panic, so construction must too.
        let mut base = BaseDb::default();
        base.write_batch(interner, &facts, |k| monoid.is_zero(k))?;
        Ok(ServingSession {
            monoid,
            par,
            base,
            ir: PlanIr::new(),
            lowered: HashMap::new(),
            lower_hits: 0,
            cache: HashMap::new(),
            epoch: 0,
            rel_epoch: HashMap::new(),
            performed_add: 0,
            performed_mul: 0,
            patch_fraction: None,
            cache_budget: None,
            evictions: 0,
            query_tick: 0,
            spill: None,
            spill_enabled: false,
            spilled: HashMap::new(),
            spill_writes: 0,
            spill_reloads: 0,
        })
    }

    /// The session's 2-monoid.
    pub fn monoid(&self) -> &M {
        &self.monoid
    }

    /// The current annotated fact list, in deterministic fact order —
    /// exactly the input an independent fresh evaluation of the
    /// session's state would receive.
    pub fn facts(&self) -> Vec<(Fact, M::Elem)> {
        self.base.facts()
    }

    /// Total ⊕/⊗ applications actually executed so far (cache misses
    /// only — cache hits replay recorded counts without performing
    /// any). The sharing win of a batch is
    /// `Σ reported stats − ops_performed()`.
    pub fn ops_performed(&self) -> u64 {
        self.performed_add + self.performed_mul
    }

    /// Number of materialised plan nodes currently cached.
    pub fn cached_nodes(&self) -> usize {
        self.cache.len()
    }

    /// Total rows materialised across the cached plan nodes — the
    /// quantity [`ServingSession::set_cache_budget`] bounds.
    pub fn cached_rows(&self) -> usize {
        self.cache.values().map(|n| n.node.rel.support_size()).sum()
    }

    /// Nodes evicted by the cache budget so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate payload bytes of the **live** materialised node
    /// cache ([`Storage::storage_bytes`] summed over the cached
    /// nodes; the shared dictionary is excluded). On the compressed
    /// tier this is the post-encoding footprint the block format
    /// actually holds resident.
    pub fn cached_bytes(&self) -> usize {
        self.cache
            .values()
            .map(|n| n.node.rel.storage_bytes())
            .sum()
    }

    /// What the same cached nodes would occupy as dense columnar
    /// matrices (one [`RowCode`] per key column per row plus one
    /// inline annotation per row) — the denominator of the
    /// compression ratio the serve-mode trailer reports.
    pub fn cached_dense_bytes(&self) -> usize {
        self.cache
            .values()
            .map(|n| {
                n.node.rel.support_size()
                    * (n.node.rel.vars().len() * size_of::<RowCode>() + size_of::<M::Elem>())
            })
            .sum()
    }

    /// Bytes of spilled eviction victims currently reloadable from the
    /// spill segment — reported distinctly from [`cached_rows`]
    /// (live materialised rows) and [`cached_bytes`] (live resident
    /// bytes): spilled nodes are on disk, not resident.
    ///
    /// [`cached_rows`]: ServingSession::cached_rows
    /// [`cached_bytes`]: ServingSession::cached_bytes
    pub fn spilled_bytes(&self) -> usize {
        self.spilled.values().map(|s| s.len).sum()
    }

    /// Spilled nodes currently reloadable.
    pub fn spilled_nodes(&self) -> usize {
        self.spilled.len()
    }

    /// Eviction victims written to the spill segment so far.
    pub fn spill_writes(&self) -> u64 {
        self.spill_writes
    }

    /// Cache misses served by reloading spilled bytes instead of
    /// recomputing the node (zero monoid operations either way — a
    /// reload merely restores the node and its recorded op counts).
    pub fn spill_reloads(&self) -> u64 {
        self.spill_reloads
    }

    /// Enables or disables spill-on-evict. When enabled, cache-budget
    /// eviction victims are serialised to an append-only temp segment
    /// file before being dropped, and a later query that misses on the
    /// node **reloads** it (bytes → blocks, recorded op counts
    /// restored) instead of recomputing it — cheaper whenever decoding
    /// beats re-running the node's ⊕/⊗ kernels, and bit-identical
    /// either way. Spilled entries are dropped (never translated) when
    /// a novel domain value extends the dictionary, and ignored when
    /// their inputs changed since the spill; both fall back to the
    /// ordinary lazy rebuild.
    ///
    /// Returns the effective state: spilling stays off on backends
    /// whose nodes cannot be serialised ([`ServingBackend::SPILLABLE`]
    /// is `false` everywhere but the compressed tier) and when the
    /// segment file cannot be created. Disabling drops the segment and
    /// every spilled entry.
    pub fn set_spill(&mut self, enabled: bool) -> bool {
        if !enabled || !R::SPILLABLE {
            self.spill_enabled = false;
            self.spill = None;
            self.spilled.clear();
            return false;
        }
        if self.spill.is_none() {
            self.spill = SpillFile::create();
        }
        self.spill_enabled = self.spill.is_some();
        self.spill_enabled
    }

    /// Whether spill-on-evict is in force.
    pub fn spill_enabled(&self) -> bool {
        self.spill_enabled
    }

    /// The node-cache bound in materialised rows (`None`: unbounded).
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache_budget
    }

    /// Bounds the node cache: when the materialised rows exceed
    /// `budget`, cost-aware-LRU victims (stalest first; among equally
    /// stale nodes the one freeing the most rows) are evicted after
    /// each query until the cache fits. Evicted nodes rebuild lazily
    /// when a query needs them again — correctness is unaffected, only
    /// the sharing win shrinks.
    pub fn set_cache_budget(&mut self, budget: Option<usize>) {
        self.cache_budget = budget;
        self.evict_to_budget();
    }

    /// The rebuild-fallback fraction currently in force: the explicit
    /// [`ServingSession::set_patch_fraction`] override if one was set,
    /// `DEFAULT_PATCH_FRACTION` (0.5) otherwise. Without an override,
    /// Rule 1 nodes that have measured their refold cost replace the
    /// fraction rule with a per-node cost estimate.
    pub fn patch_fraction(&self) -> f64 {
        self.patch_fraction.unwrap_or(DEFAULT_PATCH_FRACTION)
    }

    /// Overrides the adaptive patch-vs-rebuild decision with a fixed
    /// fraction threshold. `0.0` disables intermediate patching
    /// entirely (every dirty intermediate drops — the old behaviour);
    /// `f64::INFINITY` always patches.
    pub fn set_patch_fraction(&mut self, fraction: f64) {
        self.patch_fraction = Some(fraction.max(0.0));
    }

    /// Distinct query structures whose plan lowering is memoised
    /// (alpha-renamed restatements of one query count once).
    pub fn memoised_queries(&self) -> usize {
        self.lowered.len()
    }

    /// Queries served from the lowering memo (no re-plan, no
    /// re-lower).
    pub fn lower_hits(&self) -> u64 {
        self.lower_hits
    }

    /// Evaluates one query against the current state, sharing every
    /// sub-plan already materialised by earlier queries (or earlier
    /// calls) of this session. Returns the value and the [`EngineStats`]
    /// an independent fresh evaluation would report — bit-identical,
    /// including the support trajectory.
    ///
    /// # Errors
    /// Non-hierarchical queries and annotation failures (arity
    /// mismatch with the stored relation). Self-join-freeness — which
    /// plan sharing relies on (scans are keyed by relation identity) —
    /// is already an invariant of [`Query`] construction.
    pub fn query(
        &mut self,
        interner: &Interner,
        q: &Query,
    ) -> Result<(M::Elem, EngineStats), ServingError> {
        self.query_tick += 1;
        let lowered = self.lower_query(q)?;
        for id in lowered.nodes().collect::<Vec<_>>() {
            self.ensure(id, interner)?;
        }
        let out = replay(&self.monoid, &lowered, |n| &self.cache[&n].node);
        self.evict_to_budget();
        Ok(out)
    }

    /// Evaluates the recursive reachability query over the binary
    /// relation `rel` — the left-linear transitive-closure fixpoint
    /// `T = E ⊕ (T ∘ E)` — against the session's caches. The
    /// materialised accumulator is a plan node like any other: shared
    /// across queries (a repeat query performs zero monoid
    /// operations), kept warm under pure-insert updates by semi-naive
    /// patching in [`ServingSession::update_batch`], and subject to
    /// the same cache budget and eviction policy.
    ///
    /// The value is [`FixpointRun::readout`] at the bound endpoints;
    /// the reported stats replay the recorded fixpoint run — ⊕/⊗
    /// counts plus the per-round support trajectory.
    ///
    /// # Errors
    /// [`ServingError::Fixpoint`] on a non-convergent monoid or a
    /// non-binary relation.
    pub fn query_fix(
        &mut self,
        interner: &Interner,
        rel: &str,
        src: Option<Value>,
        dst: Option<Value>,
    ) -> Result<(M::Elem, EngineStats), ServingError> {
        self.query_tick += 1;
        let fix = self.lower_fix(rel);
        self.ensure(fix, interner)?;
        let run = self.cache[&fix]
            .node
            .fix
            .as_ref()
            .expect("fixpoint nodes always carry their kernel run");
        let out = (run.readout(&self.monoid, src, dst), run.stats.clone());
        self.evict_to_budget();
        Ok(out)
    }

    /// Evaluates a batch of queries in order. Common sub-plans across
    /// the batch (and across earlier calls) are evaluated once; each
    /// query's `(value, stats)` is indistinguishable from its
    /// independent evaluation.
    ///
    /// # Errors
    /// Fails on the first erroneous query (earlier results are
    /// discarded; the cache keeps any nodes already materialised).
    pub fn query_batch(
        &mut self,
        interner: &Interner,
        queries: &[Query],
    ) -> Result<Vec<(M::Elem, EngineStats)>, ServingError> {
        queries.iter().map(|q| self.query(interner, q)).collect()
    }

    /// Applies one fact write: a `0` annotation deletes, anything else
    /// upserts. See [`ServingSession::update_batch`].
    ///
    /// # Errors
    /// Arity mismatch with the stored relation.
    pub fn update(
        &mut self,
        interner: &Interner,
        fact: &Fact,
        value: M::Elem,
    ) -> Result<UpdateOutcome, ServingError> {
        self.update_batch(interner, &[(fact.clone(), value)])
    }

    /// Applies a batch of fact writes in order (later writes to the
    /// same fact win) to the [`BaseDb`], then repairs the caches
    /// **incrementally**: touched relations get new dirty epochs,
    /// cached scan nodes take point patches, and dirty cached
    /// intermediates are **delta-patched in place** — `Project` nodes
    /// refold exactly their dirty Rule 1 groups, `Join` nodes re-derive
    /// exactly their dirty keys, with recorded op counts maintained to fresh-evaluation-exact. A
    /// delta touching more than [`ServingSession::patch_fraction`] of
    /// a node's groups drops the node instead (lazy rebuild). Novel
    /// domain values extend the shared dictionary once and surviving
    /// cached matrices are *translated* through the old→new code map —
    /// the cache survives; only the code numbering moved.
    ///
    /// # Errors
    /// Arity mismatch with the stored relation; resolution is
    /// all-or-nothing (no write is applied on rejection).
    pub fn update_batch(
        &mut self,
        interner: &Interner,
        updates: &[(Fact, M::Elem)],
    ) -> Result<UpdateOutcome, ServingError> {
        // Fact-space net movement per relation: pre-batch value vs
        // last-write new value, intra-batch overwrites coalesced. This
        // is what fixpoint patching consumes — it classifies the batch
        // as pure-insert (patchable) or not (drop and rebuild) and
        // extracts the inserted delta in value space.
        let mut fact_changes: BTreeMap<Sym, BTreeMap<Tuple, Change<M::Elem>>> = BTreeMap::new();
        for (fact, value) in updates {
            let slot = fact_changes
                .entry(fact.rel)
                .or_default()
                .entry(fact.tuple.clone())
                .or_insert_with(|| (self.base.get(fact).cloned(), None));
            slot.1 = (!self.monoid.is_zero(value)).then(|| value.clone());
        }
        // Validates every insert before any write (all-or-nothing),
        // then applies the batch and extends the dictionary once.
        let monoid = &self.monoid;
        let refresh = self
            .base
            .write_batch(interner, updates, |k| monoid.is_zero(k))?;
        if refresh.changed.is_empty() {
            return Ok(UpdateOutcome::default());
        }
        let touched: BTreeSet<String> = refresh
            .changed
            .iter()
            .map(|&sym| interner.resolve(sym).to_owned())
            .collect();
        for rel in fact_changes.values_mut() {
            rel.retain(|_, (old, new)| old != new);
        }
        self.epoch += 1;
        for rel in &touched {
            self.rel_epoch.insert(rel.clone(), self.epoch);
        }
        let mut outcome = UpdateOutcome {
            touched: touched.iter().cloned().collect(),
            refresh,
            ..UpdateOutcome::default()
        };
        if outcome.refresh.dict_extended {
            // Novel domain values moved the code space under every
            // cached matrix — but only the *numbering*, not the data:
            // translate surviving nodes through the old→new code map
            // instead of dropping them, so warm pipelines (including
            // ones over entirely unrelated relations) survive a
            // novel-value insert.
            let dict = self.base.shared_dict();
            let translation = outcome
                .refresh
                .translation
                .clone()
                .expect("dict_extended implies a translation");
            for node in self.cache.values_mut() {
                let moved = node.node.rel.translate_codes(&dict, &translation);
                outcome.dict_extensions += usize::from(moved);
            }
            // Spilled bytes are fixed in the *old* code space and, on
            // disk, cannot be translated: drop them (they would fail
            // their freshness check anyway only if their own inputs
            // changed — a dictionary extension moves every node's
            // numbering regardless). The nodes rebuild lazily; rare in
            // practice, novel domain values are the exception.
            self.spilled.clear();
        }
        // Group the batch by relation name once, so scan patching
        // costs the relevant updates per scan — not |cache| × |batch|.
        let mut by_rel: BTreeMap<&str, Vec<(&Fact, &M::Elem)>> = BTreeMap::new();
        for (fact, value) in updates {
            by_rel
                .entry(interner.resolve(fact.rel))
                .or_default()
                .push((fact, value));
        }
        // Walk the dirty cached nodes in arena order — interning
        // guarantees every input id is smaller than its consumer's, so
        // this is a topological walk of the cached DAG — delta-patching
        // each node from its inputs' recorded change sets. `changes[id]`
        // maps a patched node's native keys to `(old, new)` annotations;
        // a dirty node that cannot be patched (missing input, arity
        // move, or a delta past the rebuild threshold) is dropped, and
        // so are its dependents.
        let mut changes: HashMap<PlanId, BTreeMap<R::Key, Change<M::Elem>>> = HashMap::new();
        let mut ids: Vec<PlanId> = self.cache.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if !self.ir.deps(id).iter().any(|d| touched.contains(d)) {
                continue;
            }
            match self.ir.node(id).clone() {
                PlanExpr::Scan { rel, positions } => {
                    // A scan cached while the relation was absent
                    // carries the *query atom's* width; if the batch
                    // just declared the relation with a different
                    // arity, patching cannot repair it — drop it so the
                    // rebuild reports exactly what fresh evaluation
                    // would (an arity mismatch).
                    let arity_moved = interner
                        .get(&rel)
                        .and_then(|s| self.base.width(s))
                        .is_some_and(|w| w != positions.len());
                    if arity_moved {
                        self.cache.remove(&id);
                        outcome.invalidated += 1;
                        continue;
                    }
                    let mut entry = self.cache.remove(&id).expect("iterating live ids");
                    // First-touch snapshots: the change set compares
                    // each key's final value against its pre-batch one,
                    // so intra-batch overwrites coalesce.
                    let mut touched_keys: BTreeMap<R::Key, Option<M::Elem>> = BTreeMap::new();
                    for (fact, value) in by_rel.get(rel.as_str()).into_iter().flatten() {
                        if fact.tuple.arity() != positions.len() {
                            continue; // arity-mismatched delete: no-op
                        }
                        let key = fact.tuple.project(&positions);
                        let Some(native) = entry.node.rel.key_of(&key) else {
                            // Only a delete can carry values outside
                            // the (already refreshed) dictionary: the
                            // key cannot be stored, nothing changes.
                            debug_assert!(self.monoid.is_zero(value));
                            continue;
                        };
                        touched_keys
                            .entry(native.clone())
                            .or_insert_with(|| entry.node.rel.get_key(&native));
                        let v = if self.monoid.is_zero(value) {
                            None
                        } else {
                            Some((*value).clone())
                        };
                        entry.node.rel.set_key(&native, v);
                    }
                    let mut ch = BTreeMap::new();
                    for (k, old) in touched_keys {
                        let new = entry.node.rel.get_key(&k);
                        if old != new {
                            ch.insert(k, (old, new));
                        }
                    }
                    entry.valid_at = self.epoch;
                    self.cache.insert(id, entry);
                    changes.insert(id, ch);
                    outcome.patched_scans += 1;
                }
                PlanExpr::Project { input, col } => {
                    // A projection's deps equal its input's, so a dirty
                    // projection has a dirty input — patchable only
                    // when that input was itself patched this batch.
                    let Some(cin) = changes.get(&input) else {
                        self.cache.remove(&id);
                        outcome.invalidated += 1;
                        continue;
                    };
                    if cin.is_empty() {
                        // Upstream writes cancelled out: already
                        // consistent with the new state.
                        let entry = self.cache.get_mut(&id).expect("iterating live ids");
                        entry.valid_at = self.epoch;
                        changes.insert(id, BTreeMap::new());
                        continue;
                    }
                    let cin = cin.clone();
                    let mut entry = self.cache.remove(&id).expect("iterating live ids");
                    let input_rel = &self.cache[&input].node.rel;
                    let keep: Vec<usize> =
                        (0..input_rel.vars().len()).filter(|&i| i != col).collect();
                    // Dirty output groups, plus the input's row movement
                    // per group — the exact accounting that keeps the
                    // cached op counts equal to a fresh evaluation's.
                    let mut groups: BTreeMap<R::Key, (i64, i64)> = BTreeMap::new();
                    let mut rows_delta = 0i64;
                    for (k, (old, new)) in &cin {
                        let g = R::project_key(k, &keep);
                        let e = groups.entry(g).or_insert((0, 0));
                        match (old.is_some(), new.is_some()) {
                            (false, true) => {
                                e.0 += 1;
                                rows_delta += 1;
                            }
                            (true, false) => {
                                e.1 += 1;
                                rows_delta -= 1;
                            }
                            _ => {}
                        }
                    }
                    if self.past_project_threshold(
                        groups.len(),
                        entry.node.rel.support_size(),
                        entry.refold_rows_ewma,
                        input_rel.support_size(),
                    ) {
                        outcome.invalidated += 1;
                        continue; // entry already removed: rebuilds lazily
                    }
                    let mut ch = BTreeMap::new();
                    let mut groups_delta = 0i64;
                    let dirty_groups = groups.len();
                    let group_keys: Vec<R::Key> = groups.keys().cloned().collect();
                    // The delta-indexed refold: each group's current
                    // members in ascending full-key order, folded
                    // sequentially; large dirty sets shard *across*
                    // groups on the worker pool with results returned
                    // in group order — bit-identical to the batch
                    // kernels on every backend and thread count.
                    let folded =
                        refold_groups(&self.monoid, input_rel, &keep, &group_keys, self.par);
                    let mut rows_total = 0usize;
                    for ((g, (ins, del)), (acc, rows)) in groups.into_iter().zip(folded) {
                        self.performed_add += rows.saturating_sub(1) as u64;
                        rows_total += rows;
                        let old_rows = rows as i64 - ins + del;
                        groups_delta += i64::from(rows > 0) - i64::from(old_rows > 0);
                        let new = acc.filter(|v| !self.monoid.is_zero(v));
                        let old = entry.node.rel.get_key(&g);
                        if old != new {
                            entry.node.rel.set_key(&g, new.clone());
                            ch.insert(g, (old, new));
                        }
                    }
                    // Fresh Rule 1 accounting is `rows − groups` (one ⊕
                    // per combine into an existing group): maintain it
                    // exactly from the batch's movement.
                    entry.node.add_ops = (entry.node.add_ops as i64 + rows_delta - groups_delta)
                        .try_into()
                        .expect("Rule 1 op accounting stays non-negative");
                    // Fold the measured patch cost into the node's
                    // rows-per-group estimate (equal-weight EWMA).
                    let measured = rows_total as f64 / dirty_groups.max(1) as f64;
                    entry.refold_rows_ewma = if entry.refold_rows_ewma == 0.0 {
                        measured
                    } else {
                        0.5 * entry.refold_rows_ewma + 0.5 * measured
                    };
                    entry.valid_at = self.epoch;
                    self.cache.insert(id, entry);
                    changes.insert(id, ch);
                    outcome.patched_nodes += 1;
                }
                PlanExpr::Join { left, right } => {
                    let (cl, cr) = match (
                        self.side_changes(left, &touched, &changes),
                        self.side_changes(right, &touched, &changes),
                    ) {
                        (Some(l), Some(r)) => (l, r),
                        _ => {
                            self.cache.remove(&id);
                            outcome.invalidated += 1;
                            continue;
                        }
                    };
                    if cl.is_empty() && cr.is_empty() {
                        let entry = self.cache.get_mut(&id).expect("iterating live ids");
                        entry.valid_at = self.epoch;
                        changes.insert(id, BTreeMap::new());
                        continue;
                    }
                    let mut entry = self.cache.remove(&id).expect("iterating live ids");
                    let dirty_keys: BTreeSet<&R::Key> = cl.keys().chain(cr.keys()).collect();
                    if self.past_rebuild_threshold(dirty_keys.len(), entry.node.rel.support_size())
                    {
                        outcome.invalidated += 1;
                        continue; // entry already removed: rebuilds lazily
                    }
                    let l = &self.cache[&left].node.rel;
                    let r = &self.cache[&right].node.rel;
                    let zero = self.monoid.zero();
                    let annihilating = self.monoid.annihilating();
                    let mut ch = BTreeMap::new();
                    let (mut left_delta, mut right_delta, mut matches_delta) = (0i64, 0i64, 0i64);
                    for k in dirty_keys {
                        let lv = l.get_key(k);
                        let rv = r.get_key(k);
                        // Presence before the batch comes from the
                        // side's change record; an untouched key's
                        // presence did not move.
                        let (old_l, new_l) = match cl.get(k) {
                            Some((o, n)) => (o.is_some(), n.is_some()),
                            None => (lv.is_some(), lv.is_some()),
                        };
                        let (old_r, new_r) = match cr.get(k) {
                            Some((o, n)) => (o.is_some(), n.is_some()),
                            None => (rv.is_some(), rv.is_some()),
                        };
                        left_delta += i64::from(new_l) - i64::from(old_l);
                        right_delta += i64::from(new_r) - i64::from(old_r);
                        matches_delta += i64::from(new_l && new_r) - i64::from(old_l && old_r);
                        // Re-derive the key exactly as the batch merge
                        // would: one ⊗ for a matched pair, 0-fill (or an
                        // outright skip under an annihilating ⊗) for
                        // one-sided rows, left operand first.
                        let new = match (lv, rv) {
                            (None, None) => None,
                            (Some(a), Some(b)) => {
                                self.performed_mul += 1;
                                Some(self.monoid.mul(&a, &b))
                            }
                            (Some(_), None) | (None, Some(_)) if annihilating => None,
                            (Some(a), None) => {
                                self.performed_mul += 1;
                                Some(self.monoid.mul(&a, &zero))
                            }
                            (None, Some(b)) => {
                                self.performed_mul += 1;
                                Some(self.monoid.mul(&zero, &b))
                            }
                        };
                        let new = new.filter(|v| !self.monoid.is_zero(v));
                        let old = entry.node.rel.get_key(k);
                        if old != new {
                            entry.node.rel.set_key(k, new.clone());
                            ch.insert(k.clone(), (old, new));
                        }
                    }
                    // Fresh Rule 2 accounting: `matches` under an
                    // annihilating ⊗, `|L| + |R| − matches` with 0-fill
                    // otherwise — maintained exactly from the movement.
                    let mul_delta = if annihilating {
                        matches_delta
                    } else {
                        left_delta + right_delta - matches_delta
                    };
                    entry.node.mul_ops = (entry.node.mul_ops as i64 + mul_delta)
                        .try_into()
                        .expect("Rule 2 op accounting stays non-negative");
                    entry.valid_at = self.epoch;
                    self.cache.insert(id, entry);
                    changes.insert(id, ch);
                    outcome.patched_nodes += 1;
                }
                PlanExpr::Rec | PlanExpr::Compose { .. } => {
                    unreachable!("loop variables and compose steps are never materialised")
                }
                PlanExpr::Fixpoint { .. } => {
                    // Semi-naive maintenance: a pure-insert batch
                    // re-enters the loop as a round-0 delta and
                    // propagates through the stratified accumulator
                    // ([`patch_inserts`]). Anything else — deletes,
                    // value modifications, a restratifying insert, or a
                    // delta past the rebuild threshold — drops the node
                    // (lazy rebuild).
                    let mut entry = self.cache.remove(&id).expect("iterating live ids");
                    let mut run = entry
                        .node
                        .fix
                        .take()
                        .expect("fixpoint nodes carry their run");
                    let Ok(spec) = validate_fixpoint(|n| self.ir.node(n), id) else {
                        outcome.invalidated += 1;
                        continue;
                    };
                    // Both input scans must have survived the walk: a
                    // dirty scan patched in place this epoch, an
                    // untouched one still cached from before.
                    let mut inputs = vec![spec.edges];
                    if spec.base != spec.edges {
                        inputs.push(spec.base);
                    }
                    let inputs_live = inputs.iter().all(|sid| {
                        self.cache.contains_key(sid)
                            && (!self.ir.deps(*sid).iter().any(|d| touched.contains(d))
                                || changes.contains_key(sid))
                    });
                    if !inputs_live {
                        outcome.invalidated += 1;
                        continue;
                    }
                    // Classify the batch against each input relation:
                    // every net movement must be a pure insert.
                    let mut deltas: HashMap<PlanId, Vec<(Tuple, M::Elem)>> = HashMap::new();
                    let mut patchable = true;
                    'inputs: for &sid in &inputs {
                        let PlanExpr::Scan { rel, positions } = self.ir.node(sid).clone() else {
                            patchable = false;
                            break;
                        };
                        let moved = interner
                            .get(&rel)
                            .and_then(|s| fact_changes.get(&s))
                            .map(|m| m.iter().collect::<Vec<_>>())
                            .unwrap_or_default();
                        let mut new_rows = Vec::new();
                        for (tuple, (old, new)) in moved {
                            match (old, new) {
                                (None, Some(v)) if tuple.arity() == positions.len() => {
                                    new_rows.push((tuple.project(&positions), v.clone()));
                                }
                                _ => {
                                    patchable = false;
                                    break 'inputs;
                                }
                            }
                        }
                        deltas.insert(sid, new_rows);
                    }
                    let dirty: usize = deltas.values().map(Vec::len).sum();
                    if !patchable
                        || self.past_rebuild_threshold(dirty, entry.node.rel.support_size())
                    {
                        outcome.invalidated += 1;
                        continue;
                    }
                    let new_edges = deltas.remove(&spec.edges).unwrap_or_default();
                    let new_base = if spec.base == spec.edges {
                        new_edges.clone()
                    } else {
                        deltas.remove(&spec.base).unwrap_or_default()
                    };
                    let edge_rows = self.cache[&spec.edges].node.rel.rows();
                    match patch_inserts(
                        &self.monoid,
                        &mut run,
                        &edge_rows,
                        &new_edges,
                        &new_base,
                        spec.shape,
                    ) {
                        Ok(PatchOutcome::Patched(patch)) => {
                            self.performed_add += patch.performed_add;
                            self.performed_mul += patch.performed_mul;
                            // Point-patch the cached accumulator copy:
                            // exactly the rows the kernel wrote.
                            for ((a, b), v) in &patch.written {
                                entry.node.rel.set(&Tuple::new([*a, *b]), Some(v.clone()));
                            }
                            entry.node.add_ops = run.stats.add_ops;
                            entry.node.mul_ops = run.stats.mul_ops;
                            entry.node.fix = Some(run);
                            entry.valid_at = self.epoch;
                            self.cache.insert(id, entry);
                            outcome.patched_nodes += 1;
                        }
                        Ok(PatchOutcome::Rebuild) | Err(_) => {
                            outcome.invalidated += 1;
                        }
                    }
                }
            }
        }
        Ok(outcome)
    }

    /// Plans and lowers `q` onto the session's shared IR, memoised per
    /// query *shape* (alpha-renamed queries share an entry): the IR is
    /// structural (node ids never change meaning), so a memoised
    /// lowering is valid forever — across updates, evictions,
    /// everything.
    pub(crate) fn lower_query(&mut self, q: &Query) -> Result<LoweredQuery, ServingError> {
        let key = query_shape(q);
        if let Some(l) = self.lowered.get(&key) {
            self.lower_hits += 1;
            return Ok(l.clone());
        }
        let p = plan(q)?;
        let l = lower(&mut self.ir, q, &p);
        self.lowered.insert(key, l.clone());
        Ok(l)
    }

    /// Interns the left-linear transitive-closure plan for `rel` into
    /// the session's shared IR: `Fixpoint { base: Scan(rel), step:
    /// Compose(Rec, Scan(rel)) }`. Hash-consing makes this idempotent,
    /// and the scan node is shared with non-recursive queries over the
    /// same relation.
    pub(crate) fn lower_fix(&mut self, rel: &str) -> PlanId {
        let scan = self.ir.intern(PlanExpr::Scan {
            rel: rel.to_owned(),
            positions: vec![0, 1],
        });
        let rec = self.ir.intern(PlanExpr::Rec);
        let step = self.ir.intern(PlanExpr::Compose {
            left: rec,
            right: scan,
        });
        self.ir.intern(PlanExpr::Fixpoint { base: scan, step })
    }

    /// The structural expression of one interned plan node.
    pub(crate) fn plan_node(&self, id: PlanId) -> PlanExpr {
        self.ir.node(id).clone()
    }

    /// The base relations node `id` transitively reads.
    pub(crate) fn node_deps(&self, id: PlanId) -> &BTreeSet<String> {
        self.ir.deps(id)
    }

    /// Per-relation dirty epochs (the session epoch of each relation's
    /// last change) — the stamps [`crate::server`] keys its shared
    /// cache on.
    pub(crate) fn rel_epochs(&self) -> &HashMap<String, u64> {
        &self.rel_epoch
    }

    /// The monotone update-batch counter.
    pub(crate) fn session_epoch(&self) -> u64 {
        self.epoch
    }

    /// The current annotated base facts.
    pub(crate) fn base(&self) -> &BaseDb<M::Elem> {
        &self.base
    }

    /// Iterates the materialised node cache — the export surface the
    /// multi-tenant server promotes patched nodes from.
    pub(crate) fn cache_nodes(&self) -> impl Iterator<Item = (PlanId, &Node<R>)> {
        self.cache.iter().map(|(&id, n)| (id, &n.node))
    }

    /// Whether node `id` is materialised.
    pub(crate) fn has_cached(&self, id: PlanId) -> bool {
        self.cache.contains_key(&id)
    }

    /// Adopts an externally materialised node as current — a fixpoint
    /// node together with its kernel run, so the next `update_batch`
    /// can delta-patch it. The caller guarantees `node` is exactly what
    /// this session's `ensure` would compute for `id` at the current
    /// state — the server checks this by stamping cache entries with
    /// the per-relation dirty epochs before handing them over.
    pub(crate) fn adopt_node(&mut self, id: PlanId, node: Node<R>) {
        self.cache.entry(id).or_insert(CachedNode {
            node,
            valid_at: self.epoch,
            last_used: self.query_tick,
            refold_rows_ewma: 0.0,
        });
    }

    /// One merge side's change set for the delta walk: the recorded
    /// changes when the side is dirty (patched this batch), an empty
    /// set when it is clean *and still cached* (probe-able), `None`
    /// when the side cannot support patching — dirty-but-dropped, or
    /// clean-but-evicted (nothing to probe against).
    fn side_changes(
        &self,
        side: PlanId,
        touched: &BTreeSet<String>,
        changes: &HashMap<PlanId, BTreeMap<R::Key, Change<M::Elem>>>,
    ) -> Option<BTreeMap<R::Key, Change<M::Elem>>> {
        if self.ir.deps(side).iter().any(|d| touched.contains(d)) {
            changes.get(&side).cloned()
        } else if self.cache.contains_key(&side) {
            Some(BTreeMap::new())
        } else {
            None
        }
    }

    /// Whether a delta of `dirty` units should fall back to dropping
    /// the node (rebuild lazily): more than
    /// [`ServingSession::patch_fraction`] of the node's current groups.
    fn past_rebuild_threshold(&self, dirty: usize, node_rows: usize) -> bool {
        (dirty as f64) > self.patch_fraction() * (node_rows.max(1) as f64)
    }

    /// The Rule 1 patch-vs-rebuild decision. With an explicit
    /// [`ServingSession::set_patch_fraction`] override — or before the
    /// node's first patch has measured anything — the fraction rule
    /// decides. Otherwise the node's measured rows-per-group EWMA
    /// estimates the patch at `dirty · ewma` input rows, and the node
    /// rebuilds when that exceeds half the input's support — the
    /// regime where the batch kernels' single-pass locality wins over
    /// per-group binary searches.
    fn past_project_threshold(
        &self,
        dirty_groups: usize,
        node_rows: usize,
        ewma: f64,
        input_rows: usize,
    ) -> bool {
        if self.patch_fraction.is_none() && ewma > 0.0 {
            dirty_groups as f64 * ewma > 0.5 * (input_rows.max(1) as f64)
        } else {
            self.past_rebuild_threshold(dirty_groups, node_rows)
        }
    }

    /// Evicts [`lru_victims`] until the cache fits the budget,
    /// spilling each victim when spill is enabled.
    fn evict_to_budget(&mut self) {
        let Some(budget) = self.cache_budget else {
            return;
        };
        let nodes = self
            .cache
            .iter()
            .map(|(&id, n)| (id, n.last_used, n.node.rel.support_size()));
        for id in lru_victims(budget, nodes) {
            let node = self.cache.remove(&id).expect("victims are live ids");
            self.maybe_spill(id, &node);
            self.evictions += 1;
        }
    }

    /// Writes an eviction victim to the spill segment (when enabled).
    /// Best-effort: a failed write, like a disabled spill, degrades to
    /// a plain eviction — the node rebuilds lazily instead.
    fn maybe_spill(&mut self, id: PlanId, node: &CachedNode<R>) {
        if !self.spill_enabled || !R::SPILLABLE {
            return;
        }
        if node.node.fix.is_some() {
            // Spilled bytes restore only the relation — not the kernel
            // state a fixpoint node needs to patch or answer point
            // reads — so fixpoint victims always rebuild instead.
            return;
        }
        if let Some(prev) = self.spilled.get(&id) {
            if prev.valid_at == node.valid_at {
                // The node was reloaded and never patched since: the
                // bytes on disk are still exact, skip the rewrite.
                return;
            }
        }
        let Some(seg) = self.spill.as_mut() else {
            return;
        };
        let Some((offset, len)) = seg.append(&node.node.rel.spill()) else {
            return;
        };
        self.spilled.insert(
            id,
            SpilledNode {
                offset,
                len,
                add_ops: node.node.add_ops,
                mul_ops: node.node.mul_ops,
                valid_at: node.valid_at,
                refold_rows_ewma: node.refold_rows_ewma,
            },
        );
        self.spill_writes += 1;
    }

    /// Restores a spilled node whose inputs have not changed since the
    /// spill. The entry is kept (the bytes stay exact until the node
    /// is patched), so a clean re-eviction skips the rewrite. `None`
    /// on any read or decode failure — the caller recomputes.
    fn reload_spilled(&mut self, id: PlanId) -> Option<CachedNode<R>> {
        let entry = *self.spilled.get(&id)?;
        let bytes = self.spill.as_mut()?.read(entry.offset, entry.len)?;
        let rel = R::unspill(&bytes, &self.base.shared_dict())?;
        self.spill_reloads += 1;
        Some(CachedNode {
            node: Node {
                rel,
                add_ops: entry.add_ops,
                mul_ops: entry.mul_ops,
                fix: None,
            },
            valid_at: entry.valid_at,
            last_used: self.query_tick,
            refold_rows_ewma: entry.refold_rows_ewma,
        })
    }

    /// Materialises node `id` if the cache does not hold a valid copy.
    /// Inputs are guaranteed to be materialised first because lowered
    /// node lists are in dependency order.
    fn ensure(&mut self, id: PlanId, interner: &Interner) -> Result<(), ServingError> {
        if let Some(entry) = self.cache.get_mut(&id) {
            // Backstop: eager invalidation should have removed stale
            // entries already.
            let fresh = self
                .ir
                .deps(id)
                .iter()
                .all(|d| self.rel_epoch.get(d).copied().unwrap_or(0) <= entry.valid_at);
            debug_assert!(fresh, "stale cache entry survived invalidation");
            if fresh {
                entry.last_used = self.query_tick;
                return Ok(());
            }
        }
        if let Some(spilled) = self.spilled.get(&id) {
            let fresh = self
                .ir
                .deps(id)
                .iter()
                .all(|d| self.rel_epoch.get(d).copied().unwrap_or(0) <= spilled.valid_at);
            if fresh {
                // Reload instead of recompute: the bytes are exact for
                // the current state, and restoring the recorded op
                // counts keeps replayed stats fresh-evaluation-exact
                // while performing zero monoid operations.
                if let Some(node) = self.reload_spilled(id) {
                    self.cache.insert(id, node);
                    return Ok(());
                }
            } else {
                // Inputs moved since the spill: the bytes are stale
                // and (unlike live nodes) cannot be delta-patched.
                self.spilled.remove(&id);
            }
        }
        for input in node_inputs(|n| self.ir.node(n), id)? {
            self.ensure(input, interner)?;
        }
        let node = eval_node(
            &self.monoid,
            self.par,
            &self.base,
            interner,
            |n| self.ir.node(n),
            id,
            |n| &self.cache[&n].node,
        )?;
        self.performed_add += node.add_ops;
        self.performed_mul += node.mul_ops;
        self.cache.insert(
            id,
            CachedNode {
                node,
                valid_at: self.epoch,
                last_used: self.query_tick,
                refold_rows_ewma: 0.0,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_encoded, evaluate_on, fact_rows};
    use crate::storage::{Backend, EncodedDb, Exec};
    use hq_db::{db_from_ints, Database};
    use hq_monoid::{CountMonoid, ProbMonoid};
    use hq_query::parse_query;

    #[test]
    fn lru_victims_take_stalest_then_most_rows_then_lowest_key() {
        // (key, last_used, rows): 23 rows in all.
        let nodes = [
            (0, 2, 5),
            (1, 1, 3),
            (2, 1, 7),
            (3, 1, 7),
            (4, 0, 0),
            (5, 3, 1),
        ];
        let victims = |budget| lru_victims(budget, nodes.iter().copied());
        assert!(victims(23).is_empty(), "the cache already fits");
        // Stalest first (the empty key 4 is never a victim); among the
        // equally stale, most rows first; equal rows by key.
        assert_eq!(victims(16), vec![2]);
        assert_eq!(victims(15), vec![2, 3]);
        assert_eq!(victims(6), vec![2, 3, 1]);
        assert_eq!(victims(0), vec![2, 3, 1, 0, 5]);
    }

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

    fn queries() -> Vec<Query> {
        [
            "Q() :- E(X,Y), F(Y,Z)",
            "Q() :- E(X,Y)",
            "Q() :- F(Y,Z)",
            "Q() :- E(X,Y), F(Y,Z)", // repeat: full sharing
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect()
    }

    fn independent(
        q: &Query,
        i: &Interner,
        tid: &[(Fact, f64)],
        backend: Backend,
        par: Parallelism,
    ) -> (f64, EngineStats) {
        evaluate_on(Exec::new(backend, par), &ProbMonoid, q, i, fact_rows(tid)).unwrap()
    }

    #[test]
    fn session_matches_independent_evaluation_on_every_backend() {
        let (tid, i) = chain_tid();
        for q in queries() {
            let (want, want_stats) =
                independent(&q, &i, &tid, Backend::Map, Parallelism::default());
            let mut map: ServingSession<ProbMonoid, MapRelation<f64>> =
                ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
            let (got, stats) = map.query(&i, &q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "map {q}");
            assert_eq!(stats, want_stats, "map {q}");
            let mut col: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
                ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
            let (got, stats) = col.query(&i, &q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "columnar {q}");
            assert_eq!(stats, want_stats, "columnar {q}");
            let mut sh: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
                ServingSession::with_parallelism(
                    ProbMonoid,
                    &i,
                    tid.iter().cloned(),
                    Parallelism::fine_grained(3),
                )
                .unwrap();
            let (got, stats) = sh.query(&i, &q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "sharded {q}");
            assert_eq!(stats, want_stats, "sharded {q}");
        }
    }

    #[test]
    fn shared_batch_performs_strictly_fewer_ops_than_independent() {
        let (tid, i) = chain_tid();
        let qs = queries();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let results = session.query_batch(&i, &qs).unwrap();
        let mut independent_total = 0u64;
        for (q, (got, stats)) in qs.iter().zip(&results) {
            let (want, want_stats) =
                independent(q, &i, &tid, Backend::Columnar, Parallelism::default());
            assert_eq!(got.to_bits(), want.to_bits(), "{q}");
            assert_eq!(stats, &want_stats, "{q}");
            independent_total += want_stats.total_ops();
        }
        assert!(
            session.ops_performed() < independent_total,
            "sharing must save ops: performed {} vs independent {}",
            session.ops_performed(),
            independent_total
        );
    }

    #[test]
    fn repeated_query_is_a_full_cache_hit() {
        let (tid, i) = chain_tid();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let (a, stats_a) = session.query(&i, &q).unwrap();
        let after_first = session.ops_performed();
        assert_eq!(after_first, stats_a.total_ops());
        let (b, stats_b) = session.query(&i, &q).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(stats_a, stats_b);
        assert_eq!(
            session.ops_performed(),
            after_first,
            "a cache hit must perform zero monoid ops"
        );
    }

    #[test]
    fn updates_patch_dependent_intermediates_in_place() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        session.set_patch_fraction(f64::INFINITY); // tiny instance: always patch
        let q_e = parse_query("Q() :- E(X,Y)").unwrap();
        let q_f = parse_query("Q() :- F(Y,Z)").unwrap();
        session.query(&i, &q_e).unwrap();
        session.query(&i, &q_f).unwrap();
        // Update an E fact (value already in the dictionary).
        let out = session.update(&i, &tid[0].0, 0.77).unwrap();
        assert_eq!(out.touched, vec!["E".to_owned()]);
        assert!(!out.refresh.dict_extended);
        assert_eq!(out.patched_scans, 1, "E's scan is patched in place");
        assert!(out.patched_nodes >= 1, "E's fold chain is patched");
        assert_eq!(out.invalidated, 0, "nothing rebuilds under patching");
        // Both pipelines are already consistent: re-serving either
        // performs zero additional monoid ops...
        let after_patch = session.ops_performed();
        session.query(&i, &q_f).unwrap();
        let (got, stats) = session.query(&i, &q_e).unwrap();
        assert_eq!(session.ops_performed(), after_patch);
        // ...and the patched answer matches fresh evaluation exactly.
        let mut current = tid.clone();
        current[0].1 = 0.77;
        let (want, want_stats) = independent(
            &q_e,
            &i,
            &current,
            Backend::Columnar,
            Parallelism::default(),
        );
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn adaptive_cost_model_patches_small_deltas_and_stays_exact() {
        let (tid, i) = chain_tid();
        // No set_patch_fraction call: the adaptive decision is in
        // force. The first update measures the per-group refold cost;
        // later updates decide on the EWMA instead of the group-count
        // fraction. Small deltas on this instance stay patchable both
        // ways, and every served answer must match fresh evaluation.
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        session.query(&i, &q).unwrap();
        let mut current = tid.clone();
        for (round, value) in [(0usize, 0.66), (1, 0.71), (0, 0.23)] {
            let out = session.update(&i, &current[round].0, value).unwrap();
            assert!(
                out.patched_nodes >= 1,
                "small delta patches under the cost model (round {round})"
            );
            current[round].1 = value;
            let (want, want_stats) =
                independent(&q, &i, &current, Backend::Columnar, Parallelism::default());
            let (got, stats) = session.query(&i, &q).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(stats, want_stats);
        }
    }

    #[test]
    fn rebuild_threshold_zero_restores_drop_semantics() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        session.set_patch_fraction(0.0);
        let q_e = parse_query("Q() :- E(X,Y)").unwrap();
        session.query(&i, &q_e).unwrap();
        let out = session.update(&i, &tid[0].0, 0.77).unwrap();
        assert_eq!(out.patched_scans, 1, "scans always patch");
        assert_eq!(out.patched_nodes, 0, "threshold 0: no intermediate patches");
        assert!(out.invalidated >= 1, "E's fold chain is dropped");
        let mut current = tid.clone();
        current[0].1 = 0.77;
        let (want, want_stats) = independent(
            &q_e,
            &i,
            &current,
            Backend::Columnar,
            Parallelism::default(),
        );
        let (got, stats) = session.query(&i, &q_e).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn novel_values_extend_dictionary_and_keep_cache_warm() {
        let (tid, mut i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        session.set_patch_fraction(f64::INFINITY);
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        session.query(&i, &q).unwrap();
        let nodes_before = session.cached_nodes();
        let e = i.intern("E");
        let novel = Fact::new(e, Tuple::ints(&[100, 200]));
        let out = session.update(&i, &novel, 0.5).unwrap();
        assert!(out.refresh.dict_extended);
        assert_eq!(
            out.dict_extensions, nodes_before,
            "every cached matrix is translated through the code map"
        );
        assert_eq!(
            session.cached_nodes(),
            nodes_before,
            "only the code numbering moved: the cache survives"
        );
        let mut current = tid.clone();
        current.push((novel, 0.5));
        current.sort_by(|a, b| a.0.cmp(&b.0));
        let (want, want_stats) =
            independent(&q, &i, &current, Backend::Columnar, Parallelism::default());
        let before_query = session.ops_performed();
        let (got, stats) = session.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
        assert_eq!(
            session.ops_performed(),
            before_query,
            "the patched pipeline re-serves without recomputation"
        );
    }

    #[test]
    fn deletes_and_reinserts_stay_consistent() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        session.query(&i, &q).unwrap();
        session.update(&i, &tid[1].0, 0.0).unwrap(); // delete
        let current: Vec<(Fact, f64)> = tid
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != 1)
            .map(|(_, p)| p.clone())
            .collect();
        let (want, want_stats) =
            independent(&q, &i, &current, Backend::Columnar, Parallelism::default());
        let (got, stats) = session.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
        // Re-insert with a new value.
        session.update(&i, &tid[1].0, 0.33).unwrap();
        let mut current = tid.clone();
        current[1].1 = 0.33;
        let (want, _) = independent(&q, &i, &current, Backend::Columnar, Parallelism::default());
        let (got, _) = session.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn session_agrees_with_evaluate_encoded() {
        // The columnar session's scans and EncodedDb annotation share
        // one slot assembly; pin the equivalence against the public
        // evaluate_encoded entry point over the same database.
        let (tid, i) = chain_tid();
        let mut db = Database::new();
        let ann: BTreeMap<Fact, f64> = tid.iter().cloned().collect();
        for (f, _) in &tid {
            db.insert(f.clone());
        }
        let enc = EncodedDb::new(&db);
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let (want, want_stats) = evaluate_encoded(
            Parallelism::default(),
            &ProbMonoid,
            &q,
            &i,
            &db,
            &enc,
            |sym, t| ann[&Fact::new(sym, t.clone())],
        )
        .unwrap();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let (got, stats) = session.query(&i, &q).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn rejects_non_hierarchical_queries() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<CountMonoid, ColumnarRelation<u64>> =
            ServingSession::new(CountMonoid, &i, tid.iter().map(|(f, _)| (f.clone(), 1u64)))
                .unwrap();
        let bad = hq_query::q_non_hierarchical();
        assert!(matches!(
            session.query(&i, &bad),
            Err(ServingError::NotHierarchical(_))
        ));
    }

    #[test]
    fn arity_mismatches_reject_cleanly_without_partial_writes() {
        let (tid, mut i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let e = i.get("E").unwrap();
        // Wrong arity against a stored relation: clean error.
        let bad = Fact::new(e, Tuple::ints(&[1, 2, 3]));
        assert!(matches!(
            session.update(&i, &bad, 0.5),
            Err(ServingError::Annotate(AnnotateError::ArityMismatch { .. }))
        ));
        // Wrong arity against a relation *emptied by deletes* (the
        // declared arity persists): still a clean error, not a panic.
        for (f, _) in tid.iter().filter(|(f, _)| f.rel == e) {
            session.update(&i, f, 0.0).unwrap();
        }
        assert!(matches!(
            session.update(&i, &bad, 0.5),
            Err(ServingError::Annotate(AnnotateError::ArityMismatch { .. }))
        ));
        // A batch that declares a brand-new relation and then
        // contradicts its own arity is rejected all-or-nothing: no
        // write of the batch lands.
        let g = i.intern("G");
        let batch = vec![
            (Fact::new(g, Tuple::ints(&[1])), 0.5),
            (Fact::new(g, Tuple::ints(&[1, 2])), 0.5),
        ];
        let before = session.facts();
        assert!(session.update_batch(&i, &batch).is_err());
        assert_eq!(session.facts(), before, "no partial write on rejection");
        // A delete followed by a differently-sized insert of the same
        // new relation matches serial semantics: the delete is a no-op
        // and must not "declare" an arity.
        let h = i.intern("H");
        let ok_batch = vec![
            (Fact::new(h, Tuple::ints(&[1])), 0.0),
            (Fact::new(h, Tuple::ints(&[1, 2])), 0.5),
        ];
        session.update_batch(&i, &ok_batch).unwrap();
        // Construction itself validates too, instead of panicking
        // inside Database::declare.
        let mixed = vec![
            (Fact::new(g, Tuple::ints(&[1])), 0.5),
            (Fact::new(g, Tuple::ints(&[1, 2])), 0.5),
        ];
        assert!(matches!(
            ServingSession::<ProbMonoid, ColumnarRelation<f64>>::new(
                ProbMonoid,
                &i,
                mixed.into_iter()
            ),
            Err(ServingError::Annotate(AnnotateError::ArityMismatch { .. }))
        ));
    }

    #[test]
    fn relation_declared_after_caching_drops_the_stale_empty_scan() {
        // A query over an absent relation caches an empty scan at the
        // atom's width; when an update later declares the relation with
        // a *different* arity, the scan must be dropped — re-serving
        // the query then reports the same ArityMismatch a fresh
        // evaluation would, never a silently stale empty result.
        let (tid, mut i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q_g = parse_query("Q() :- G(X)").unwrap();
        let (p, _) = session.query(&i, &q_g).unwrap();
        assert_eq!(p, 0.0, "absent relation: empty scan");
        let g = i.intern("G");
        // Values 1 and 2 are already in the dictionary, so this takes
        // the scan-patch path rather than the cache-clearing one.
        session
            .update(&i, &Fact::new(g, Tuple::ints(&[1, 2])), 0.5)
            .unwrap();
        assert!(
            matches!(
                session.query(&i, &q_g),
                Err(ServingError::Annotate(AnnotateError::ArityMismatch { .. }))
            ),
            "stale empty scan must not be served"
        );
        // A width-matching query over the new relation works.
        let q_g2 = parse_query("Q() :- G(X,Y)").unwrap();
        let (p, _) = session.query(&i, &q_g2).unwrap();
        assert_eq!(p, 0.5);
    }

    #[test]
    fn map_backend_survives_novel_values_warm() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, MapRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q_e = parse_query("Q() :- E(X,Y)").unwrap();
        let q_f = parse_query("Q() :- F(Y,Z)").unwrap();
        session.query(&i, &q_e).unwrap();
        session.query(&i, &q_f).unwrap();
        let before = session.ops_performed();
        // A novel-value insert into E extends the store's dictionary,
        // but map nodes hold no codes: none is translated, and F's
        // pipeline must stay warm (no wholesale clear).
        let e = i.get("E").unwrap();
        let out = session
            .update(&i, &Fact::new(e, Tuple::ints(&[500, 600])), 0.5)
            .unwrap();
        assert!(out.refresh.dict_extended);
        assert_eq!(out.dict_extensions, 0, "map nodes hold no codes");
        assert!(session.cached_nodes() > 0, "cache survives novel values");
        session.query(&i, &q_f).unwrap();
        assert_eq!(session.ops_performed(), before, "F stayed warm");
        // And the served answer still matches fresh evaluation.
        let mut current = tid.clone();
        current.push((Fact::new(e, Tuple::ints(&[500, 600])), 0.5));
        current.sort_by(|a, b| a.0.cmp(&b.0));
        let (want, want_stats) =
            independent(&q_e, &i, &current, Backend::Map, Parallelism::default());
        let (got, stats) = session.query(&i, &q_e).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
    }

    #[test]
    fn alpha_renamed_queries_share_one_memo_entry() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let renamed = parse_query("Q() :- E(A,B), F(B,C)").unwrap();
        let (a, stats_a) = session.query(&i, &q).unwrap();
        assert_eq!(session.memoised_queries(), 1);
        // The renamed restatement hits the same memo entry: the key is
        // the query's structure, not its rendering.
        let (b, stats_b) = session.query(&i, &renamed).unwrap();
        assert_eq!(
            session.memoised_queries(),
            1,
            "one entry for both spellings"
        );
        assert_eq!(session.lower_hits(), 1, "renamed query skips re-lowering");
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(stats_a, stats_b);
        // A structurally different query still gets its own entry.
        let q_sub = parse_query("Q() :- E(U,V)").unwrap();
        session.query(&i, &q_sub).unwrap();
        assert_eq!(session.memoised_queries(), 2);
    }

    #[test]
    fn lowering_is_memoised_per_query_string() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let q_sub = parse_query("Q() :- E(X,Y)").unwrap();
        let (a, _) = session.query(&i, &q).unwrap();
        assert_eq!(session.memoised_queries(), 1);
        assert_eq!(session.lower_hits(), 0);
        let (b, _) = session.query(&i, &q).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(session.lower_hits(), 1, "repeat query skips re-lowering");
        session.query(&i, &q_sub).unwrap();
        assert_eq!(session.memoised_queries(), 2);
        // Updates never invalidate the memo (the IR is structural).
        session.update(&i, &tid[0].0, 0.9).unwrap();
        session.query(&i, &q).unwrap();
        assert_eq!(session.lower_hits(), 2);
        assert_eq!(session.memoised_queries(), 2);
    }

    #[test]
    fn cache_budget_bounds_materialised_rows() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q_e = parse_query("Q() :- E(X,Y)").unwrap();
        let q_f = parse_query("Q() :- F(Y,Z)").unwrap();
        session.query(&i, &q_e).unwrap();
        session.query(&i, &q_f).unwrap();
        let unbounded = session.cached_rows();
        assert!(unbounded > 2, "warm cache materialises real rows");
        session.set_cache_budget(Some(2));
        assert!(session.evictions() > 0, "shrinking the budget evicts");
        assert!(session.cached_rows() <= 2);
        // Evicted nodes rebuild lazily and stay correct.
        let (want, want_stats) =
            independent(&q_e, &i, &tid, Backend::Columnar, Parallelism::default());
        let (got, stats) = session.query(&i, &q_e).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(stats, want_stats);
        assert!(session.cached_rows() <= 2, "budget holds after re-serving");
        // Lifting the budget stops evictions.
        session.set_cache_budget(None);
        let before = session.evictions();
        session.query(&i, &q_f).unwrap();
        assert_eq!(session.evictions(), before);
    }

    #[test]
    fn no_op_update_keeps_cache_warm() {
        let (tid, i) = chain_tid();
        let mut session: ServingSession<ProbMonoid, ColumnarRelation<f64>> =
            ServingSession::new(ProbMonoid, &i, tid.iter().cloned()).unwrap();
        let q = parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        session.query(&i, &q).unwrap();
        let before = session.ops_performed();
        let out = session.update(&i, &tid[0].0, tid[0].1).unwrap();
        assert!(out.touched.is_empty(), "same value: nothing changed");
        session.query(&i, &q).unwrap();
        assert_eq!(session.ops_performed(), before);
    }
}
