//! Semi-naive evaluation of recursive [`PlanExpr::Fixpoint`] plans.
//!
//! A fixpoint node computes the least solution of
//! `acc = base ⊕ step(acc)` where `step` is a linear recursive rule —
//! a [`PlanExpr::Compose`] of the loop variable ([`PlanExpr::Rec`])
//! with a binary edge relation. Evaluation is **semi-naive**: round 0
//! seeds the accumulator (and the round-0 delta) with `base`; every
//! later round composes only the *previous round's delta* against the
//! edges, keeps the outputs whose key is absent from the accumulator's
//! support, ⊕-folds each novel key's derivations with
//! [`TwoMonoid::fold_assign`], and terminates on the first round whose
//! delta is empty. Outputs whose key is already in the accumulator are
//! skipped **before** any ⊗ is applied — sound exactly when `0`
//! annihilates under ⊗, which is why a fixpoint over a monoid whose
//! [`TwoMonoid::fixpoint_convergent`] is `false` (the Shapley `#Sat`
//! monoid) is a validation error rather than a hang.
//!
//! ## Round-stratified semantics
//!
//! Each tuple's annotation is frozen at its **first derivation
//! round**: `acc(t) = ⊕` over the ⊗-products of `t`'s minimal-round
//! derivations, folded in ascending join-value order. Under the
//! counting semiring this is the number of minimal-round derivations;
//! under [`hq_monoid::ProbMonoid`] it is the noisy-or of the
//! minimal-round witness products (exact reachability probability is
//! `#P`-hard and out of scope). The stratification is what makes the
//! fixpoint patchable: a pure-insert update re-enters the loop as a
//! round-0 delta and propagates forward round by round
//! ([`patch_inserts`]), never revisiting settled strata — and bails to
//! a drop-and-rebuild whenever an insert would *shorten* a tuple's
//! first-derivation round.
//!
//! The kernel works in value space (tuples of [`Value`] pairs), so a
//! run is **backend-independent by construction**: every storage
//! layout materialises the same accumulator rows, support trajectory
//! and op counts at every thread count. [`transitive_closure_on`]
//! round-trips the inputs and outputs through an explicit backend to
//! pin the layout equivalence.

use crate::engine::EngineStats;
use crate::plan_ir::{PlanExpr, PlanId};
use crate::storage::{Backend, ColumnarRelation, CompressedColumnar, MapRelation, Storage};
use hq_db::{Tuple, Value};
use hq_monoid::TwoMonoid;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A binary row in kernel vocabulary: `(source, target)`.
pub type Pair = (Value, Value);

/// Per-key ⊗-operand lists collected by [`compose_row`], keyed in
/// ascending output-pair order.
type Candidates<'a, K> = BTreeMap<Pair, Vec<(&'a K, &'a K)>>;

/// Errors rejected by fixpoint validation — each is a property of the
/// *query*, detected before any round runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixpointError {
    /// The monoid does not guarantee convergence
    /// ([`TwoMonoid::fixpoint_convergent`] is `false`): skipping
    /// already-derived keys would be unsound, so the loop might never
    /// terminate. Rejected up front instead of hanging.
    NonConvergentMonoid,
    /// A base or edge tuple is not binary; linear recursion composes
    /// binary relations only.
    NotBinary {
        /// The offending arity.
        arity: usize,
    },
    /// The recursive step is not `Compose(Rec, edges)` or
    /// `Compose(edges, Rec)` over scans (mutual recursion and general
    /// step DAGs are ROADMAP follow-ups).
    MalformedStep {
        /// The offending plan node.
        node: PlanId,
    },
    /// Two input rows share a key; inputs must be support rows with
    /// unique keys.
    DuplicateKey {
        /// The duplicated key.
        key: Tuple,
    },
}

impl fmt::Display for FixpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixpointError::NonConvergentMonoid => write!(
                f,
                "fixpoint over a non-convergent monoid (0 does not annihilate under ⊗) \
                 is rejected: the semi-naive loop would not be guaranteed to terminate"
            ),
            FixpointError::NotBinary { arity } => {
                write!(f, "fixpoint inputs must be binary, got arity {arity}")
            }
            FixpointError::MalformedStep { node } => write!(
                f,
                "recursive step (node {node}) must compose the loop variable with one \
                 binary scan"
            ),
            FixpointError::DuplicateKey { key } => {
                write!(f, "duplicate input key {key:?} in fixpoint input")
            }
        }
    }
}

impl std::error::Error for FixpointError {}

/// Which side of the recursive [`PlanExpr::Compose`] carries the loop
/// variable. The side fixes each ⊗'s operand order — part of the
/// bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepShape {
    /// `Δ'(x, z) = ⊕_y Δ(x, y) ⊗ E(y, z)` — `Compose(Rec, edges)`.
    LeftLinear,
    /// `Δ'(x, z) = ⊕_y E(x, y) ⊗ Δ(y, z)` — `Compose(edges, Rec)`.
    RightLinear,
}

/// A validated fixpoint plan: the base input, the edge input, and the
/// step shape — everything the kernel needs besides the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixSpec {
    /// The node scanned for round-0 rows.
    pub base: PlanId,
    /// The node scanned for the recursive step's edge side.
    pub edges: PlanId,
    /// Which compose side carries [`PlanExpr::Rec`].
    pub shape: StepShape,
}

/// Validates a [`PlanExpr::Fixpoint`] node's structure: the base must
/// be a binary scan and the step a [`PlanExpr::Compose`] of
/// [`PlanExpr::Rec`] with a binary scan. `node_of` resolves plan ids —
/// a [`crate::plan_ir::PlanIr`] arena or a per-query expression map.
///
/// # Errors
/// [`FixpointError::MalformedStep`] when the shape does not match.
pub fn validate_fixpoint<'a>(
    node_of: impl Fn(PlanId) -> &'a PlanExpr,
    id: PlanId,
) -> Result<FixSpec, FixpointError> {
    let &PlanExpr::Fixpoint { base, step } = node_of(id) else {
        return Err(FixpointError::MalformedStep { node: id });
    };
    let scan_arity = |n: PlanId| match node_of(n) {
        PlanExpr::Scan { positions, .. } => Some(positions.len()),
        _ => None,
    };
    if scan_arity(base) != Some(2) {
        return Err(FixpointError::MalformedStep { node: id });
    }
    let (edges, shape) = match *node_of(step) {
        PlanExpr::Compose { left, right } => match (node_of(left), node_of(right)) {
            (PlanExpr::Rec, PlanExpr::Scan { .. }) => (right, StepShape::LeftLinear),
            (PlanExpr::Scan { .. }, PlanExpr::Rec) => (left, StepShape::RightLinear),
            _ => return Err(FixpointError::MalformedStep { node: id }),
        },
        _ => return Err(FixpointError::MalformedStep { node: id }),
    };
    if scan_arity(edges) != Some(2) {
        return Err(FixpointError::MalformedStep { node: id });
    }
    Ok(FixSpec { base, edges, shape })
}

/// The materialised state of one fixpoint run — everything the serving
/// layer caches to answer reads and to patch under pure-insert updates.
#[derive(Debug, Clone)]
pub struct FixpointRun<K> {
    /// `key → (annotation, first-derivation round)`, the accumulator.
    pub acc: BTreeMap<Pair, (K, u32)>,
    /// Per-round novel rows in ascending key order. `deltas[0]` is the
    /// base (possibly empty); later rounds are non-empty by
    /// construction (an empty delta terminates the loop and is not
    /// stored).
    pub deltas: Vec<Vec<(Pair, K)>>,
    /// Exact ⊕/⊗ counts plus the support trajectory: accumulator size
    /// after every executed round, terminating round included.
    pub stats: EngineStats,
    /// ⊕-fold of every accumulator annotation in ascending key order —
    /// the "how reachable is the graph" readout. Like a nullary
    /// readout, it is not op-counted.
    pub total: K,
}

impl<K: Clone> FixpointRun<K> {
    /// The accumulator as storage rows (ascending key order).
    pub fn rows(&self) -> Vec<(Tuple, K)> {
        self.acc
            .iter()
            .map(|(&(a, b), (k, _))| (Tuple::new([a, b]), k))
            .map(|(t, k)| (t, k.clone()))
            .collect()
    }

    /// Point read of one pair (`None` when outside the support).
    pub fn get(&self, src: Value, dst: Value) -> Option<&K> {
        self.acc.get(&(src, dst)).map(|(k, _)| k)
    }

    /// The readout at the bound endpoints: both given → that pair's
    /// annotation (`0` outside the support); only `src` → the ⊕-fold
    /// over every pair leaving `src` in ascending target order; only
    /// `dst` → the ⊕-fold over every pair reaching `dst` in ascending
    /// source order; neither → the run's [`FixpointRun::total`]. Like
    /// a nullary readout, the folds are not op-counted.
    pub fn readout<M: TwoMonoid<Elem = K>>(
        &self,
        monoid: &M,
        src: Option<Value>,
        dst: Option<Value>,
    ) -> K {
        match (src, dst) {
            (Some(s), Some(d)) => self.get(s, d).cloned().unwrap_or_else(|| monoid.zero()),
            (Some(s), None) => monoid.sum(
                self.acc
                    .range((s, Value::Int(i64::MIN))..)
                    .take_while(|(&(a, _), _)| a == s)
                    .map(|(_, (k, _))| k),
            ),
            (None, Some(d)) => monoid.sum(
                self.acc
                    .iter()
                    .filter(|(&(_, b), _)| b == d)
                    .map(|(_, (k, _))| k),
            ),
            (None, None) => self.total.clone(),
        }
    }
}

fn to_pairs<K: Clone>(rows: &[(Tuple, K)]) -> Result<BTreeMap<Pair, K>, FixpointError> {
    let mut out = BTreeMap::new();
    for (t, k) in rows {
        let v = t.values();
        if v.len() != 2 {
            return Err(FixpointError::NotBinary { arity: v.len() });
        }
        if out.insert((v[0], v[1]), k.clone()).is_some() {
            return Err(FixpointError::DuplicateKey { key: t.clone() });
        }
    }
    Ok(out)
}

/// Composes one delta row against the edge map, pushing each
/// `(out, left ⊗-operand, right ⊗-operand)` candidate in ascending
/// join-value order. Keys already in `acc` are skipped *before* any ⊗.
fn compose_row<'a, K>(
    shape: StepShape,
    key: Pair,
    dv: &'a K,
    edges: &'a BTreeMap<Pair, K>,
    edges_rev: &'a BTreeMap<Pair, K>,
    acc: &BTreeMap<Pair, (K, u32)>,
    out: &mut Candidates<'a, K>,
) where
    K: Clone,
{
    match shape {
        StepShape::LeftLinear => {
            // Δ(x, y) ⊗ E(y, z): range over edges with first column y.
            let (x, y) = key;
            for (&(_, z), ev) in edges
                .range((y, Value::Int(i64::MIN))..)
                .take_while(|(&(ey, _), _)| ey == y)
            {
                if !acc.contains_key(&(x, z)) {
                    out.entry((x, z)).or_default().push((dv, ev));
                }
            }
        }
        StepShape::RightLinear => {
            // E(x, y) ⊗ Δ(y, z): range over reversed edges keyed (y, x).
            let (y, z) = key;
            for (&(_, x), ev) in edges_rev
                .range((y, Value::Int(i64::MIN))..)
                .take_while(|(&(ey, _), _)| ey == y)
            {
                if !acc.contains_key(&(x, z)) {
                    out.entry((x, z)).or_default().push((ev, dv));
                }
            }
        }
    }
}

/// The edge map keyed `(second, first)` — the probe index the
/// right-linear shape needs. `Str` symbols and `Int`s interleave under
/// [`Value`]'s derived order, which is all the range scans require.
fn reverse<K: Clone>(edges: &BTreeMap<Pair, K>) -> BTreeMap<Pair, K> {
    edges
        .iter()
        .map(|(&(a, b), k)| ((b, a), k.clone()))
        .collect()
}

fn fold_products<M: TwoMonoid>(
    monoid: &M,
    pairs: &[(&M::Elem, &M::Elem)],
    add_ops: &mut u64,
    mul_ops: &mut u64,
) -> M::Elem {
    let products: Vec<M::Elem> = pairs.iter().map(|(l, r)| monoid.mul(l, r)).collect();
    *mul_ops += products.len() as u64;
    let mut v = products[0].clone();
    monoid.fold_assign(&mut v, &products[1..]);
    *add_ops += (products.len() - 1) as u64;
    v
}

/// Runs the semi-naive fixpoint over explicit base and edge rows.
///
/// # Errors
/// Rejects non-convergent monoids, non-binary rows, and duplicate
/// input keys.
pub fn semi_naive<M: TwoMonoid>(
    monoid: &M,
    base: &[(Tuple, M::Elem)],
    edges: &[(Tuple, M::Elem)],
    shape: StepShape,
) -> Result<FixpointRun<M::Elem>, FixpointError> {
    if !monoid.fixpoint_convergent() {
        return Err(FixpointError::NonConvergentMonoid);
    }
    let base = to_pairs(base)?;
    let edges = to_pairs(edges)?;
    let edges_rev = reverse(&edges);

    let mut acc: BTreeMap<Pair, (M::Elem, u32)> = BTreeMap::new();
    let mut deltas: Vec<Vec<(Pair, M::Elem)>> = Vec::new();
    let mut support_sizes = Vec::new();
    let (mut add_ops, mut mul_ops) = (0u64, 0u64);

    // Round 0: the base *is* the first delta. Zero-annotated rows are
    // outside the support and never enter the loop.
    let round0: Vec<(Pair, M::Elem)> = base
        .into_iter()
        .filter(|(_, k)| !monoid.is_zero(k))
        .collect();
    for &(key, ref k) in &round0 {
        acc.insert(key, (k.clone(), 0));
    }
    support_sizes.push(acc.len());
    deltas.push(round0);

    let mut round: u32 = 1;
    while !deltas.last().expect("at least round 0").is_empty() {
        let mut candidates: Candidates<M::Elem> = BTreeMap::new();
        for (key, dv) in deltas.last().expect("non-empty round") {
            compose_row(shape, *key, dv, &edges, &edges_rev, &acc, &mut candidates);
        }
        let mut next: Vec<(Pair, M::Elem)> = Vec::new();
        for (key, pairs) in &candidates {
            let v = fold_products(monoid, pairs, &mut add_ops, &mut mul_ops);
            // A zero fold is priced like the fresh run prices it (the
            // ⊗/⊕ really ran) but the row never enters the support.
            if !monoid.is_zero(&v) {
                next.push((*key, v));
            }
        }
        for &(key, ref k) in &next {
            acc.insert(key, (k.clone(), round));
        }
        support_sizes.push(acc.len());
        if next.is_empty() {
            break;
        }
        deltas.push(next);
        round += 1;
    }

    let total = monoid.sum(acc.values().map(|(k, _)| k));
    Ok(FixpointRun {
        acc,
        deltas,
        stats: EngineStats {
            add_ops,
            mul_ops,
            support_sizes,
        },
        total,
    })
}

/// Work accounting for a successful [`patch_inserts`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchStats<K> {
    /// Number of keys whose derivation set was re-folded — the
    /// quantity pinned strictly below a fresh run's folded keys.
    pub refolded_rows: usize,
    /// ⊕ applications actually performed by the patch.
    pub performed_add: u64,
    /// ⊗ applications actually performed by the patch.
    pub performed_mul: u64,
    /// Every accumulator row the patch wrote (added or re-annotated),
    /// so a cached storage copy of the accumulator can be point-patched
    /// instead of rebuilt.
    pub written: Vec<(Pair, K)>,
}

/// What a [`patch_inserts`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchOutcome<K> {
    /// The run was patched in place; the payload accounts the work.
    Patched(PatchStats<K>),
    /// The update would restratify the run (an insert shortened some
    /// tuple's first-derivation round, or a re-fold left the support).
    /// The run is poisoned; drop it and rebuild fresh.
    Rebuild,
}

/// Patches a materialised [`FixpointRun`] under a **pure-insert**
/// update: `new_base` / `new_edges` rows whose keys were previously
/// absent. The dirty rows re-enter the loop as a round-0 delta and
/// propagate forward exactly one stratum per round; every touched key
/// is re-folded from its *full* derivation set in the same order as a
/// fresh run, so values, per-round deltas, support trajectory and
/// [`EngineStats`] all land bit-identical to fresh evaluation over the
/// post-update inputs — while performing work proportional to the
/// affected cone, not the whole fixpoint.
///
/// `edges` must be the complete post-update edge map and `new_edges` /
/// `new_base` the inserted subsets. Deletions and value modifications
/// must not reach this function (callers fall back to rebuild).
///
/// # Errors
/// Same validation failures as [`semi_naive`]. A needed-rebuild is the
/// `Ok(PatchOutcome::Rebuild)` value, not an error — but note the run
/// is poisoned in that case.
pub fn patch_inserts<M: TwoMonoid>(
    monoid: &M,
    run: &mut FixpointRun<M::Elem>,
    edges: &[(Tuple, M::Elem)],
    new_edges: &[(Tuple, M::Elem)],
    new_base: &[(Tuple, M::Elem)],
    shape: StepShape,
) -> Result<PatchOutcome<M::Elem>, FixpointError> {
    if !monoid.fixpoint_convergent() {
        return Err(FixpointError::NonConvergentMonoid);
    }
    let edges = to_pairs(edges)?;
    let edges_rev = reverse(&edges);
    let new_edge_keys: BTreeSet<Pair> = to_pairs(new_edges)?.into_keys().collect();
    // Inserted edges keyed by the probe column of each shape.
    let new_fwd: BTreeMap<Pair, ()> = match shape {
        StepShape::LeftLinear => new_edge_keys.iter().map(|&k| (k, ())).collect(),
        StepShape::RightLinear => new_edge_keys.iter().map(|&(a, b)| ((b, a), ())).collect(),
    };
    let new_base = to_pairs(new_base)?;

    let mut refolded = 0usize;
    let (mut performed_add, mut performed_mul) = (0u64, 0u64);
    let mut written: Vec<(Pair, M::Elem)> = Vec::new();

    // Round 0: inserted base rows are dirty. A key collision means the
    // caller's "pure insert" premise is wrong — restratify.
    let mut dirty_prev: BTreeSet<Pair> = BTreeSet::new();
    let mut added_prev: BTreeSet<Pair> = BTreeSet::new();
    let mut added_rows: Vec<(Pair, M::Elem)> = Vec::new();
    for (key, k) in &new_base {
        if monoid.is_zero(k) {
            continue;
        }
        if run.acc.contains_key(key) {
            return Ok(PatchOutcome::Rebuild);
        }
        run.acc.insert(*key, (k.clone(), 0));
        added_rows.push((*key, k.clone()));
        written.push((*key, k.clone()));
        dirty_prev.insert(*key);
        added_prev.insert(*key);
    }
    if !added_rows.is_empty() {
        if run.deltas.is_empty() {
            run.deltas.push(Vec::new());
        }
        run.deltas[0].extend(added_rows);
        run.deltas[0].sort_by_key(|a| a.0);
    }

    let mut r: usize = 1;
    while r < run.deltas.len() || !dirty_prev.is_empty() {
        // Δ'_{r-1}, post-patch, as a value-ordered map.
        let prev: BTreeMap<Pair, M::Elem> = run
            .deltas
            .get(r - 1)
            .map(|d| d.iter().cloned().collect())
            .unwrap_or_default();
        if prev.is_empty() {
            break;
        }

        // Candidate keys whose round-r derivation set gained a member:
        // (a) dirty Δ'_{r-1} rows against the full edge map, and
        // (b) every Δ'_{r-1} row against the inserted edges.
        let mut candidates: BTreeSet<Pair> = BTreeSet::new();
        let mut restratified = false;
        let mut consider = |key: Pair, acc: &BTreeMap<Pair, (M::Elem, u32)>| match acc.get(&key) {
            None => {
                candidates.insert(key);
            }
            Some((_, round)) if *round as usize == r => {
                candidates.insert(key);
            }
            Some((_, round)) if (*round as usize) > r => restratified = true,
            _ => {} // settled in an earlier stratum: fresh skips it too
        };
        for &key in &dirty_prev {
            match shape {
                StepShape::LeftLinear => {
                    let (x, y) = key;
                    for (&(_, z), _) in edges
                        .range((y, Value::Int(i64::MIN))..)
                        .take_while(|(&(ey, _), _)| ey == y)
                    {
                        consider((x, z), &run.acc);
                    }
                }
                StepShape::RightLinear => {
                    let (y, z) = key;
                    for (&(_, x), _) in edges_rev
                        .range((y, Value::Int(i64::MIN))..)
                        .take_while(|(&(ey, _), _)| ey == y)
                    {
                        consider((x, z), &run.acc);
                    }
                }
            }
        }
        for &key in prev.keys() {
            match shape {
                StepShape::LeftLinear => {
                    let (x, y) = key;
                    for (&(_, z), _) in new_fwd
                        .range((y, Value::Int(i64::MIN))..)
                        .take_while(|(&(ey, _), _)| ey == y)
                    {
                        consider((x, z), &run.acc);
                    }
                }
                StepShape::RightLinear => {
                    let (y, z) = key;
                    for (&(_, x), _) in new_fwd
                        .range((y, Value::Int(i64::MIN))..)
                        .take_while(|(&(ey, _), _)| ey == y)
                    {
                        consider((x, z), &run.acc);
                    }
                }
            }
        }
        if restratified {
            return Ok(PatchOutcome::Rebuild);
        }

        let mut dirty_next: BTreeSet<Pair> = BTreeSet::new();
        let mut added_next: BTreeSet<Pair> = BTreeSet::new();
        let mut added_rows: Vec<(Pair, M::Elem)> = Vec::new();
        let mut changed_rows: Vec<(Pair, M::Elem)> = Vec::new();
        for &key in &candidates {
            // Re-fold the key's full derivation set in ascending join
            // order — exactly the fresh run's fold for this key — and
            // count how many of those derivations already existed, to
            // keep the stored stats fresh-exact.
            let (x, z) = key;
            let mut pairs: Vec<(&M::Elem, &M::Elem)> = Vec::new();
            let mut old_derivs = 0u64;
            match shape {
                StepShape::LeftLinear => {
                    for (&(_, y), dv) in prev
                        .range((x, Value::Int(i64::MIN))..)
                        .take_while(|(&(px, _), _)| px == x)
                    {
                        if let Some(ev) = edges.get(&(y, z)) {
                            pairs.push((dv, ev));
                            if !added_prev.contains(&(x, y)) && !new_edge_keys.contains(&(y, z)) {
                                old_derivs += 1;
                            }
                        }
                    }
                }
                StepShape::RightLinear => {
                    for (&(_, y), ev) in edges
                        .range((x, Value::Int(i64::MIN))..)
                        .take_while(|(&(ex, _), _)| ex == x)
                    {
                        if let Some(dv) = prev.get(&(y, z)) {
                            pairs.push((ev, dv));
                            if !added_prev.contains(&(y, z)) && !new_edge_keys.contains(&(x, y)) {
                                old_derivs += 1;
                            }
                        }
                    }
                }
            }
            if pairs.is_empty() {
                continue;
            }
            let new_derivs = pairs.len() as u64;
            let v = fold_products(monoid, &pairs, &mut performed_add, &mut performed_mul);
            refolded += 1;
            match run.acc.get(&key) {
                Some((old, _)) => {
                    // Existing round-r row: adjust the stored counts by
                    // the derivation-count difference and propagate only
                    // if the fold genuinely changed.
                    debug_assert!(old_derivs >= 1, "round-r row had a round-r derivation");
                    run.stats.mul_ops += new_derivs - old_derivs;
                    run.stats.add_ops += new_derivs - old_derivs;
                    if monoid.is_zero(&v) {
                        return Ok(PatchOutcome::Rebuild);
                    }
                    if new_derivs != old_derivs || v != *old {
                        dirty_next.insert(key);
                        changed_rows.push((key, v.clone()));
                        written.push((key, v.clone()));
                    }
                    run.acc.insert(key, (v, r as u32));
                }
                None => {
                    run.stats.mul_ops += new_derivs;
                    run.stats.add_ops += new_derivs - 1;
                    if monoid.is_zero(&v) {
                        continue; // fresh run prices then prunes it too
                    }
                    run.acc.insert(key, (v.clone(), r as u32));
                    added_rows.push((key, v.clone()));
                    written.push((key, v));
                    dirty_next.insert(key);
                    added_next.insert(key);
                }
            }
        }

        if !added_rows.is_empty() || !changed_rows.is_empty() {
            if r == run.deltas.len() {
                run.deltas.push(Vec::new());
            }
            let round = &mut run.deltas[r];
            for (key, v) in changed_rows {
                if let Some(slot) = round.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = v;
                }
            }
            round.extend(added_rows);
            round.sort_by_key(|a| a.0);
        }
        dirty_prev = dirty_next;
        added_prev = added_next;
        r += 1;
    }

    // Rebuild the trajectory from the patched per-round deltas: the
    // cumulative support after each round, plus the terminating round's
    // repeat entry whenever the loop executed at all.
    let mut sizes = Vec::with_capacity(run.deltas.len() + 1);
    let mut cum = 0usize;
    for d in &run.deltas {
        cum += d.len();
        sizes.push(cum);
    }
    if !run.deltas[0].is_empty() {
        sizes.push(cum);
    }
    run.stats.support_sizes = sizes;
    run.total = monoid.sum(run.acc.values().map(|(k, _)| k));
    Ok(PatchOutcome::Patched(PatchStats {
        refolded_rows: refolded,
        performed_add,
        performed_mul,
        written,
    }))
}

/// Evaluates the transitive closure of a binary edge relation on the
/// value-space kernel (the oracle form): the left-linear fixpoint
/// `T = E ⊕ (T ∘ E)`.
///
/// # Errors
/// See [`semi_naive`].
pub fn transitive_closure<M: TwoMonoid>(
    monoid: &M,
    edges: &[(Tuple, M::Elem)],
) -> Result<FixpointRun<M::Elem>, FixpointError> {
    semi_naive(monoid, edges, edges, StepShape::LeftLinear)
}

/// [`transitive_closure`] with the edges and the accumulator
/// round-tripped through an explicit storage [`Backend`]: inputs are
/// built into the backend's layout and read back with
/// [`Storage::rows`] before the kernel runs, and the accumulator is
/// materialised the same way — pinning that every layout feeds the
/// kernel identical rows and stores identical results. The kernel
/// itself is layout- and thread-independent, so values, trajectories
/// and stats are bit-identical across backends by construction.
///
/// # Errors
/// See [`semi_naive`]; panics never — duplicate input keys surface as
/// [`FixpointError::DuplicateKey`].
pub fn transitive_closure_on<M: TwoMonoid>(
    backend: Backend,
    monoid: &M,
    edges: &[(Tuple, M::Elem)],
) -> Result<FixpointRun<M::Elem>, FixpointError>
where
    M::Elem: crate::storage::CompressedAnn,
{
    fn round_trip<R: Storage>(
        rows: &[(Tuple, R::Ann)],
    ) -> Result<Vec<(Tuple, R::Ann)>, FixpointError> {
        let vars = vec![hq_query::Var(0), hq_query::Var(1)];
        for (t, _) in rows {
            if t.arity() != 2 {
                return Err(FixpointError::NotBinary { arity: t.arity() });
            }
        }
        let built = R::build_slots(vec![(vars, rows.to_vec())])
            .map_err(|d| FixpointError::DuplicateKey { key: d.key })?;
        Ok(built
            .into_iter()
            .next()
            .expect("one slot in, one out")
            .rows())
    }
    let edge_rows = match backend {
        Backend::Map => round_trip::<MapRelation<M::Elem>>(edges)?,
        Backend::Columnar => round_trip::<ColumnarRelation<M::Elem>>(edges)?,
        Backend::Compressed => round_trip::<CompressedColumnar<M::Elem>>(edges)?,
    };
    let run = transitive_closure(monoid, &edge_rows)?;
    let acc_rows = run.rows();
    let round_tripped = match backend {
        Backend::Map => round_trip::<MapRelation<M::Elem>>(&acc_rows)?,
        Backend::Columnar => round_trip::<ColumnarRelation<M::Elem>>(&acc_rows)?,
        Backend::Compressed => round_trip::<CompressedColumnar<M::Elem>>(&acc_rows)?,
    };
    debug_assert_eq!(
        acc_rows.len(),
        round_tripped.len(),
        "backend round-trip must preserve the accumulator"
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_monoid::{CountMonoid, ProbMonoid};

    fn edges_u64(rows: &[(i64, i64, u64)]) -> Vec<(Tuple, u64)> {
        rows.iter()
            .map(|&(a, b, k)| (Tuple::ints(&[a, b]), k))
            .collect()
    }

    fn edges_f64(rows: &[(i64, i64, f64)]) -> Vec<(Tuple, f64)> {
        rows.iter()
            .map(|&(a, b, k)| (Tuple::ints(&[a, b]), k))
            .collect()
    }

    #[test]
    fn path_counts_on_a_chain() {
        // 1→2→3→4: closure pairs are the 6 ordered reachable pairs,
        // each with exactly one (minimal-round) path.
        let run = transitive_closure(&CountMonoid, &edges_u64(&[(1, 2, 1), (2, 3, 1), (3, 4, 1)]))
            .unwrap();
        assert_eq!(run.acc.len(), 6);
        assert!(run.acc.values().all(|(k, _)| *k == 1));
        // Rounds: 3 base rows, 2 two-hop rows, 1 three-hop row.
        assert_eq!(run.stats.support_sizes, vec![3, 5, 6, 6]);
        assert_eq!(
            run.deltas.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
        assert_eq!(run.total, 6);
    }

    #[test]
    fn diamond_counts_minimal_round_derivations() {
        // 1→2, 1→3, 2→4, 3→4: (1,4) has two 2-hop derivations.
        let run = transitive_closure(
            &CountMonoid,
            &edges_u64(&[(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)]),
        )
        .unwrap();
        assert_eq!(run.acc[&(Value::int(1), Value::int(4))].0, 2);
        // The (1,4) fold ran 2 ⊗ and 1 ⊕.
        assert_eq!(run.stats.mul_ops, 2);
        assert_eq!(run.stats.add_ops, 1);
    }

    #[test]
    fn cycles_terminate() {
        let run = transitive_closure(&CountMonoid, &edges_u64(&[(1, 2, 1), (2, 1, 1)])).unwrap();
        // Pairs: (1,2), (2,1) at round 0; (1,1), (2,2) at round 1;
        // round 2 re-derives only settled keys → terminates.
        assert_eq!(run.acc.len(), 4);
        assert_eq!(run.stats.support_sizes, vec![2, 4, 4]);
    }

    #[test]
    fn empty_edges_are_a_fixpoint_already() {
        let run = transitive_closure(&CountMonoid, &[]).unwrap();
        assert!(run.acc.is_empty());
        assert_eq!(run.stats.support_sizes, vec![0]);
        assert_eq!(run.stats.total_ops(), 0);
        assert_eq!(run.total, 0);
    }

    #[test]
    fn non_convergent_monoid_is_rejected_not_run() {
        // The Shapley #Sat monoid genuinely violates annihilation.
        let m = hq_monoid::SatCountMonoid::new(4);
        let err = semi_naive(&m, &[], &[], StepShape::LeftLinear).unwrap_err();
        assert_eq!(err, FixpointError::NonConvergentMonoid);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let bad = vec![(Tuple::ints(&[1, 2, 3]), 1u64)];
        assert_eq!(
            transitive_closure(&CountMonoid, &bad).unwrap_err(),
            FixpointError::NotBinary { arity: 3 }
        );
        let dup = edges_u64(&[(1, 2, 1), (1, 2, 3)]);
        assert!(matches!(
            transitive_closure(&CountMonoid, &dup).unwrap_err(),
            FixpointError::DuplicateKey { .. }
        ));
    }

    #[test]
    fn right_linear_matches_left_linear_on_counts() {
        let edges = edges_u64(&[(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 3, 1)]);
        let ll = semi_naive(&CountMonoid, &edges, &edges, StepShape::LeftLinear).unwrap();
        let rl = semi_naive(&CountMonoid, &edges, &edges, StepShape::RightLinear).unwrap();
        // Same support and rounds; counting ⊗ is commutative, so the
        // annotations agree too.
        assert_eq!(ll.acc, rl.acc);
    }

    #[test]
    fn patch_insert_matches_fresh_run_bit_for_bit() {
        let old = edges_f64(&[(1, 2, 0.5), (2, 3, 0.25), (3, 4, 0.5), (7, 8, 0.125)]);
        let mut all = old.clone();
        let new_edge = (Tuple::ints(&[4, 5]), 0.75f64);
        all.push(new_edge.clone());
        all.sort_by(|a, b| a.0.cmp(&b.0));

        let mut run = transitive_closure(&ProbMonoid, &old).unwrap();
        let fresh = transitive_closure(&ProbMonoid, &all).unwrap();
        let outcome = patch_inserts(
            &ProbMonoid,
            &mut run,
            &all,
            std::slice::from_ref(&new_edge),
            std::slice::from_ref(&new_edge),
            StepShape::LeftLinear,
        )
        .unwrap();
        let PatchOutcome::Patched(patch) = outcome else {
            panic!("pure-insert tail edge must patch, got {outcome:?}");
        };
        for ((ka, (va, ra)), (kb, (vb, rb))) in run.acc.iter().zip(fresh.acc.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(ra, rb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
        assert_eq!(run.deltas.len(), fresh.deltas.len());
        assert_eq!(run.stats, fresh.stats);
        assert_eq!(run.total.to_bits(), fresh.total.to_bits());
        // The patch refolded only the cone behind the new edge, and
        // every written row matches the fresh accumulator bit for bit.
        assert!(patch.performed_add + patch.performed_mul < fresh.stats.total_ops());
        for (key, v) in &patch.written {
            assert_eq!(v.to_bits(), fresh.acc[key].0.to_bits());
        }
    }

    #[test]
    fn patch_bails_when_an_insert_restratifies() {
        // 1→2→3: (1,3) settles at round 1. Inserting a direct 1→3 edge
        // would move it to round 0 — a base-key collision.
        let old = edges_u64(&[(1, 2, 1), (2, 3, 1)]);
        let mut all = old.clone();
        let new_edge = (Tuple::ints(&[1, 3]), 1u64);
        all.push(new_edge.clone());
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let mut run = transitive_closure(&CountMonoid, &old).unwrap();
        let outcome = patch_inserts(
            &CountMonoid,
            &mut run,
            &all,
            std::slice::from_ref(&new_edge),
            std::slice::from_ref(&new_edge),
            StepShape::LeftLinear,
        )
        .unwrap();
        assert_eq!(outcome, PatchOutcome::Rebuild);
    }

    #[test]
    fn patch_extends_the_frontier() {
        // Chain 1→2→3; insert 3→4 — new longest paths extend rounds.
        let old = edges_u64(&[(1, 2, 1), (2, 3, 1)]);
        let mut all = old.clone();
        let new_edge = (Tuple::ints(&[3, 4]), 1u64);
        all.push(new_edge.clone());
        all.sort_by(|a, b| a.0.cmp(&b.0));
        let mut run = transitive_closure(&CountMonoid, &old).unwrap();
        let fresh = transitive_closure(&CountMonoid, &all).unwrap();
        let outcome = patch_inserts(
            &CountMonoid,
            &mut run,
            &all,
            std::slice::from_ref(&new_edge),
            std::slice::from_ref(&new_edge),
            StepShape::LeftLinear,
        )
        .unwrap();
        assert!(matches!(outcome, PatchOutcome::Patched(_)));
        assert_eq!(run.acc, fresh.acc);
        assert_eq!(run.deltas, fresh.deltas);
        assert_eq!(run.stats, fresh.stats);
    }

    #[test]
    fn backends_round_trip_identically() {
        let edges = edges_f64(&[(1, 2, 0.5), (2, 3, 0.25), (1, 3, 0.125), (3, 1, 0.5)]);
        let map = transitive_closure_on(Backend::Map, &ProbMonoid, &edges).unwrap();
        for backend in [Backend::Columnar, Backend::Compressed] {
            let got = transitive_closure_on(backend, &ProbMonoid, &edges).unwrap();
            assert_eq!(got.stats, map.stats);
            for ((ka, (va, ra)), (kb, (vb, rb))) in got.acc.iter().zip(map.acc.iter()) {
                assert_eq!((ka, ra), (kb, rb));
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
