//! The columnar storage backend.
//!
//! One relation = one dense row-major matrix of dictionary codes
//! (`Vec<RowCode>`, `len × width`, rows sorted lexicographically and
//! unique) plus a parallel annotation column (`Vec<K>`). The
//! [`ValueDict`] is built once per problem instance and shared by all
//! slots (`Arc`), with codes assigned **in value order**, so code-wise
//! lexicographic comparison equals tuple-wise comparison — the map
//! backend's iteration order — and both backends fold ⊕ in exactly the
//! same sequence (bit-identical floats).
//!
//! * **Rule 1** (`project_out`): when the projected column is the
//!   least-significant sort key, surviving rows stay sorted and groups
//!   are contiguous — a single pass with zero allocation per row. Any
//!   other column re-sorts a scratch matrix of projected rows with a
//!   *stable* argsort (ties keep full-row order, preserving the fold
//!   sequence) before the same grouped fold.
//! * **Rule 2** (`merge`): a linear two-pointer sort-merge outer join
//!   with 0-fill, skipping one-sided rows outright for annihilating
//!   monoids.
//!
//! Both rules take the run's [`Parallelism`] degree. When it yields
//! more than one shard for the input size, they run the shard-parallel
//! kernels of the private `shard` submodule instead — the same kernels
//! per shard, recombined in fixed shard order, so every degree is
//! bit-identical to the sequential run.
//!
//! No `Tuple` is ever materialised on the hot path; decoding happens
//! only in [`Storage::rows`] and the point-access methods used by the
//! serving sessions' delta patches.

mod shard;

use super::{DuplicateRow, OwnedSlot, Parallelism, Storage};
use crate::engine::EngineStats;
use hq_db::{RowCode, Tuple, Value, ValueDict};
use hq_monoid::TwoMonoid;
use hq_query::Var;
use std::cmp::Ordering;
use std::sync::Arc;

/// A K-annotated relation stored as a sorted code matrix plus an
/// annotation column.
///
/// Fields are `pub(super)` so the compressed tier and the encoding
/// cache can convert to and from the matrices without an accessor
/// layer; outside the storage module the layout is opaque.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRelation<K> {
    pub(super) vars: Vec<Var>,
    /// Row width (`== vars.len()`), kept separately because nullary
    /// relations have `width == 0` but up to one row.
    pub(super) width: usize,
    /// Number of rows (the support size).
    pub(super) len: usize,
    /// The instance-wide value dictionary (shared across slots).
    pub(super) dict: Arc<ValueDict>,
    /// Row-major codes, `len * width` entries, rows sorted ascending.
    pub(super) keys: Vec<RowCode>,
    /// Annotations, parallel to the rows.
    pub(super) anns: Vec<K>,
}

impl<K> ColumnarRelation<K> {
    #[inline]
    pub(super) fn row(&self, i: usize) -> &[RowCode] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// The shared value dictionary (tests and diagnostics).
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Overwrites the schema labels — pure metadata; the serving
    /// layer's shared (label-free) plan nodes use this to align a
    /// cached relation with the consuming kernel's variable naming.
    pub(crate) fn set_vars(&mut self, vars: Vec<Var>) {
        debug_assert_eq!(vars.len(), self.width);
        self.vars = vars;
    }

    /// Re-expresses the matrix under an extended dictionary:
    /// `translation[old_code] == new_code` must come from
    /// [`ValueDict::extend_with`] on this relation's current
    /// dictionary, so the map is order-preserving and the remapped
    /// rows stay sorted. This is how the serving layer keeps cached
    /// plan nodes warm across a novel-domain-value insert instead of
    /// dropping them: only the code *numbering* moved, not the data.
    pub(crate) fn remap_codes(&mut self, dict: &Arc<ValueDict>, translation: &[RowCode]) {
        debug_assert_eq!(self.dict.len(), translation.len());
        for c in &mut self.keys {
            *c = translation[*c as usize];
        }
        self.dict = Arc::clone(dict);
    }
}

/// Order-preserving 65-bit encoding of a [`Value`] into a `u128`
/// (`Int` sign-flipped below, `Str` tagged above), so the dictionary
/// build sorts branchless integer keys instead of enum comparators.
#[inline]
fn value_key(v: Value) -> u128 {
    match v {
        Value::Int(i) => u128::from(i as u64 ^ (1u64 << 63)),
        Value::Str(s) => (1u128 << 64) | u128::from(s.0),
    }
}

/// Inverse of [`value_key`].
#[inline]
fn key_value(k: u128) -> Value {
    if k >> 64 == 0 {
        Value::Int((k as u64 ^ (1u64 << 63)) as i64)
    } else {
        Value::Str(hq_db::Sym(k as u32))
    }
}

/// Sorts the `(value key, destination)` instance list. Only the key
/// order matters (destinations are distinct and the code-assignment
/// scan groups by key), so a counting sort over the key range is used
/// whenever the domain is dense enough — the common case for
/// dictionary-encodable data — and the comparison sort is the fallback.
fn sort_instances(v: &mut Vec<(u128, u64)>) {
    let Some(&(first, _)) = v.first() else { return };
    let (mut min, mut max) = (first, first);
    for &(k, _) in v.iter() {
        min = min.min(k);
        max = max.max(k);
    }
    let spread = max - min;
    if spread <= (4 * v.len() as u128).max(1 << 20) {
        let mut counts = vec![0u32; spread as usize + 2];
        for &(k, _) in v.iter() {
            counts[(k - min) as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut out = vec![(0u128, 0u64); v.len()];
        for &(k, d) in v.iter() {
            let slot = &mut counts[(k - min) as usize];
            out[*slot as usize] = (k, d);
            *slot += 1;
        }
        *v = out;
    } else {
        v.sort_unstable();
    }
}

/// One slot of input to [`ColumnarRelation::build_slots_borrowed`]:
/// the sorted schema, the written-order → sorted-order column
/// permutation (`None` when they coincide), and borrowed key tuples in
/// *written* column order with owned annotations.
pub type BorrowedSlot<'a, K> = (Vec<Var>, Option<Vec<usize>>, Vec<(&'a Tuple, K)>);

impl<K: Clone + PartialEq + std::fmt::Debug + Send + Sync> ColumnarRelation<K> {
    /// Builds slots directly from borrowed tuples — the fused annotate
    /// fast path: no key tuple is cloned, re-boxed, or re-ordered in
    /// memory; the column permutation is applied while scattering codes.
    ///
    /// # Errors
    /// Returns the first duplicate key found.
    pub fn build_slots_borrowed(
        slots: Vec<BorrowedSlot<'_, K>>,
    ) -> Result<Vec<Self>, DuplicateRow> {
        // One dictionary over every value of the instance: Rule 2 merges
        // rows originating from different slots, so codes must be
        // comparable across slots. Algorithm 1 never invents new values,
        // so the dictionary is closed under the whole run.
        //
        // Scatter encoding: instead of sorting the distinct values and
        // binary-searching every occurrence, sort `(value, destination)`
        // pairs once and assign codes in a single scan — each
        // occurrence's code lands directly in its slot matrix. This is
        // the only value-ordered sort in the build; everything after
        // compares 4-byte codes.
        let mut offsets = Vec::with_capacity(slots.len() + 1);
        let mut total = 0usize;
        for (vars, _, rows) in &slots {
            offsets.push(total);
            total += vars.len() * rows.len();
        }
        offsets.push(total);
        // Sorted rows carry long per-column runs of equal values; a cell
        // equal to the one above it reuses that cell's code, so only run
        // starts become sort instances (`RowCode::MAX` marks the cells
        // to forward-fill — codes are `< len ≤ u32::MAX`, so the
        // sentinel cannot collide).
        let mut instances: Vec<(u128, u64)> = Vec::with_capacity(total);
        for (s, (vars, positions, rows)) in slots.iter().enumerate() {
            let width = vars.len();
            let mut dest = offsets[s] as u64;
            let mut prev: Option<&Tuple> = None;
            for (tuple, _) in rows {
                let vals = tuple.values();
                for j in 0..width {
                    let col = match positions {
                        None => j,
                        Some(p) => p[j],
                    };
                    let v = vals[col];
                    let repeat = prev.is_some_and(|pt| pt.values()[col] == v);
                    if !repeat {
                        instances.push((value_key(v), dest));
                    }
                    dest += 1;
                }
                prev = Some(tuple);
            }
        }
        sort_instances(&mut instances);
        let mut all_keys: Vec<RowCode> = vec![RowCode::MAX; total];
        let mut sorted_values: Vec<Value> = Vec::new();
        let mut prev_key: Option<u128> = None;
        for &(k, dest) in &instances {
            if prev_key != Some(k) {
                sorted_values.push(key_value(k));
                prev_key = Some(k);
            }
            all_keys[dest as usize] = (sorted_values.len() - 1) as RowCode;
        }
        let dict = Arc::new(ValueDict::from_sorted(sorted_values));
        drop(instances);
        // Forward-fill the repeated cells from the row above.
        for (s, (vars, _, rows)) in slots.iter().enumerate() {
            let width = vars.len();
            let start = offsets[s];
            for idx in start + width..start + width * rows.len() {
                if all_keys[idx] == RowCode::MAX {
                    all_keys[idx] = all_keys[idx - width];
                }
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(s, (vars, _, rows))| {
                let width = vars.len();
                let len = rows.len();
                let mut keys = all_keys[offsets[s]..offsets[s + 1]].to_vec();
                let mut anns: Vec<K> = rows.into_iter().map(|(_, k)| k).collect();
                // Rows usually arrive in key order (database iteration is
                // sorted); detect that with one linear scan and argsort
                // by code rows — 4-byte comparisons — only when needed.
                let sorted = (1..len)
                    .all(|i| keys[(i - 1) * width..i * width] <= keys[i * width..(i + 1) * width]);
                if !sorted {
                    let mut order: Vec<u32> = (0..len as u32).collect();
                    order.sort_by(|&a, &b| {
                        let (a, b) = (a as usize, b as usize);
                        keys[a * width..(a + 1) * width].cmp(&keys[b * width..(b + 1) * width])
                    });
                    let mut new_keys = Vec::with_capacity(keys.len());
                    let mut old_anns: Vec<Option<K>> = anns.into_iter().map(Some).collect();
                    let mut new_anns = Vec::with_capacity(old_anns.len());
                    for &i in &order {
                        let i = i as usize;
                        new_keys.extend_from_slice(&keys[i * width..(i + 1) * width]);
                        new_anns.push(old_anns[i].take().expect("each row moved once"));
                    }
                    keys = new_keys;
                    anns = new_anns;
                }
                // Equal adjacent rows = the same fact annotated twice.
                if let Some(i) = (1..len)
                    .find(|&i| keys[(i - 1) * width..i * width] == keys[i * width..(i + 1) * width])
                {
                    return Err(DuplicateRow {
                        slot: s,
                        key: dict.decode(&keys[i * width..(i + 1) * width]),
                    });
                }
                Ok(ColumnarRelation {
                    vars,
                    width,
                    len,
                    dict: Arc::clone(&dict),
                    keys,
                    anns,
                })
            })
            .collect()
    }
}

impl<K: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static> Storage
    for ColumnarRelation<K>
{
    type Ann = K;
    /// A dictionary code row (`width` codes): comparable across every
    /// relation sharing the instance dictionary, 4 bytes per column,
    /// no boxed values.
    type Key = Vec<RowCode>;

    fn build_slots(slots: Vec<OwnedSlot<K>>) -> Result<Vec<Self>, DuplicateRow> {
        // Split each slot into (owned tuples, owned annotations) so the
        // tuples can be lent to the borrowed build path while the
        // annotations move into it.
        let mut vars_list = Vec::with_capacity(slots.len());
        let mut tuple_store: Vec<Vec<Tuple>> = Vec::with_capacity(slots.len());
        let mut ann_store: Vec<Vec<K>> = Vec::with_capacity(slots.len());
        for (vars, rows) in slots {
            let (ts, ks): (Vec<Tuple>, Vec<K>) = rows.into_iter().unzip();
            vars_list.push(vars);
            tuple_store.push(ts);
            ann_store.push(ks);
        }
        let borrowed: Vec<BorrowedSlot<'_, K>> = vars_list
            .into_iter()
            .zip(tuple_store.iter())
            .zip(ann_store)
            .map(|((vars, ts), ks)| (vars, None, ts.iter().zip(ks).collect()))
            .collect();
        Self::build_slots_borrowed(borrowed)
    }

    fn vars(&self) -> &[Var] {
        &self.vars
    }

    fn support_size(&self) -> usize {
        self.len
    }

    fn project_out<M: TwoMonoid<Elem = K>>(
        self,
        monoid: &M,
        var: Var,
        par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self {
        let pos = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("projected variable must be in the relation schema");
        let shards = shard::shard_count(par, self.len);
        if shards > 1 {
            return shard::project_out(self, monoid, pos, shards, stats);
        }
        let ColumnarRelation {
            mut vars,
            width,
            len: _,
            dict,
            keys,
            anns,
        } = self;
        vars.remove(pos);
        let nw = width - 1;
        let (out_keys, out_anns) = if pos == width - 1 {
            // Dropping the least-significant sort column keeps the
            // remaining prefix sorted: groups are contiguous runs.
            fold_drop_last(monoid, &keys, width, 0, anns, stats)
        } else {
            // General column: project into a scratch matrix, stable
            // argsort (ties keep full-row order, so the per-group fold
            // sequence matches the ordered-map backend), then fold.
            let (scratch, order) = project_scratch(&keys, width, pos);
            let mut anns: Vec<Option<K>> = anns.into_iter().map(Some).collect();
            let mut take = |idx: usize| anns[idx].take().expect("each row folded once");
            fold_sorted_groups(monoid, &scratch, nw, &order, &mut take, stats)
        };
        let out_len = out_anns.len();
        ColumnarRelation {
            vars,
            width: nw,
            len: out_len,
            dict,
            keys: out_keys,
            anns: out_anns,
        }
    }

    fn merge<M: TwoMonoid<Elem = K>>(
        self,
        monoid: &M,
        right: Self,
        par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self {
        assert_eq!(
            self.vars, right.vars,
            "Rule 2 merges atoms with identical variable sets"
        );
        debug_assert_eq!(
            *self.dict, *right.dict,
            "merged relations must share one instance dictionary"
        );
        let shards = shard::shard_count(par, self.len.max(right.len));
        if shards > 1 {
            return shard::merge(self, monoid, right, shards, stats);
        }
        let (out_keys, out_anns) =
            merge_ranges(monoid, &self, &right, 0..self.len, 0..right.len, stats);
        let len = out_anns.len();
        ColumnarRelation {
            vars: self.vars,
            width: self.width,
            len,
            dict: self.dict,
            keys: out_keys,
            anns: out_anns,
        }
    }

    fn nullary_value<M: TwoMonoid<Elem = K>>(&self, monoid: &M) -> K {
        if self.width == 0 && self.len > 0 {
            debug_assert_eq!(self.len, 1, "nullary support is at most one row");
            self.anns[0].clone()
        } else {
            monoid.zero()
        }
    }

    fn rows(&self) -> Vec<(Tuple, K)> {
        (0..self.len)
            .map(|i| (self.dict.decode(self.row(i)), self.anns[i].clone()))
            .collect()
    }

    fn set(&mut self, key: &Tuple, value: Option<K>) {
        let mut codes = Vec::with_capacity(self.width);
        if !self.dict.encode_into(key, &mut codes) {
            if value.is_none() {
                return; // deleting a key that cannot exist: no-op
            }
            // A genuinely new domain value. Codes are assigned in value
            // order (load-bearing: code-wise comparison must equal
            // value-wise comparison so fold sequences match the batch
            // engine bit for bit), so admitting the value renumbers:
            // extend the dictionary and remap this relation's matrix
            // through the old→new translation. `O(len · width)`, the
            // same order as the splice below, and paid only on
            // novel-value inserts.
            let (dict, translation) = self.dict.extend_with(key.values().iter().copied());
            for c in &mut self.keys {
                *c = translation[*c as usize];
            }
            self.dict = Arc::new(dict);
            codes.clear();
            let admitted = self.dict.encode_into(key, &mut codes);
            debug_assert!(admitted, "extended dictionary must cover the key");
        }
        self.set_key(&codes, value);
    }

    fn key_of(&self, key: &Tuple) -> Option<Vec<RowCode>> {
        let mut codes = Vec::with_capacity(key.arity());
        if self.dict.encode_into(key, &mut codes) {
            Some(codes)
        } else {
            None
        }
    }

    fn project_key(key: &Vec<RowCode>, keep: &[usize]) -> Vec<RowCode> {
        keep.iter().map(|&p| key[p]).collect()
    }

    fn get_key(&self, key: &Vec<RowCode>) -> Option<K> {
        self.find(key).ok().map(|i| self.anns[i].clone())
    }

    fn set_key(&mut self, codes: &Vec<RowCode>, value: Option<K>) {
        match (self.find(codes), value) {
            (Ok(i), Some(v)) => self.anns[i] = v,
            (Ok(i), None) => {
                let w = self.width;
                self.keys.drain(i * w..(i + 1) * w);
                self.anns.remove(i);
                self.len -= 1;
            }
            (Err(i), Some(v)) => {
                let w = self.width;
                self.keys.splice(i * w..i * w, codes.iter().copied());
                self.anns.insert(i, v);
                self.len += 1;
            }
            (Err(_), None) => {}
        }
    }

    fn group_rows_key(&self, keep: &[usize], codes: &Vec<RowCode>) -> Vec<K> {
        debug_assert_eq!(keep.len(), codes.len());
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        // The leading literal run of `keep` is a sort-key prefix: its
        // row range is found by binary search (the group-offset index
        // is the sorted matrix itself), and only that range is scanned
        // for the remaining column constraints. When the projection
        // drops the last column the range *is* the group.
        let lead = keep
            .iter()
            .enumerate()
            .take_while(|&(i, &p)| i == p)
            .count();
        let (lo, hi) = self.prefix_range(&codes[..lead]);
        (lo..hi)
            .filter(|&i| {
                let row = self.row(i);
                keep[lead..]
                    .iter()
                    .zip(&codes[lead..])
                    .all(|(&p, &c)| row[p] == c)
            })
            .map(|i| self.anns[i].clone())
            .collect()
    }

    fn storage_bytes(&self) -> usize {
        self.vars.len() * std::mem::size_of::<Var>()
            + self.keys.len() * std::mem::size_of::<RowCode>()
            + self.anns.len() * std::mem::size_of::<K>()
    }
}

/// Rule 1, least-significant-column case: the grouped ⊕-fold over the
/// contiguous row range `base .. base + anns.len()` of a sorted matrix
/// (annotations arrive already sliced to that range). Zero groups are
/// pruned at flush (Lemma 6.6); one ⊕ is counted per combine into an
/// existing group.
///
/// The fold is run-structured: each group's run boundary is found
/// first by prefix comparison, then the whole contiguous annotation
/// run feeds [`TwoMonoid::fold_assign`] — whose default loops
/// `add_assign` in the same left-to-right order as a one-at-a-time
/// fold (bit-identical by construction), and whose
/// [`hq_monoid::DenseFold`] overrides (prob, count, real) execute the
/// same per-element expression as a tight auto-vectorisable slice
/// loop.
///
/// This single implementation serves both the sequential projection
/// (full range) and the shard kernels (one call per shard, with
/// shard boundaries on group boundaries so no group straddles a
/// range) — which is what makes sharded output provably identical to
/// sequential output.
fn fold_drop_last<M, K>(
    monoid: &M,
    keys: &[RowCode],
    width: usize,
    base: usize,
    mut anns: Vec<K>,
    stats: &mut EngineStats,
) -> (Vec<RowCode>, Vec<K>)
where
    M: TwoMonoid<Elem = K>,
    K: Clone + PartialEq + std::fmt::Debug,
{
    let nw = width - 1;
    let len = anns.len();
    let mut out_keys: Vec<RowCode> = Vec::with_capacity(len * nw);
    let mut out_anns: Vec<K> = Vec::with_capacity(len.min(16));
    let mut start = 0usize;
    while start < len {
        let g = base + start;
        let prefix = &keys[g * width..g * width + nw];
        let mut end = start + 1;
        while end < len {
            let i = base + end;
            if keys[i * width..i * width + nw] != *prefix {
                break;
            }
            end += 1;
        }
        // Move the group leader out (a zero placeholder is never read
        // again) and fold the rest of the run densely onto it.
        let mut acc = std::mem::replace(&mut anns[start], monoid.zero());
        monoid.fold_assign(&mut acc, &anns[start + 1..end]);
        stats.add_ops += (end - start - 1) as u64;
        if !monoid.is_zero(&acc) {
            out_keys.extend_from_slice(prefix);
            out_anns.push(acc);
        }
        start = end;
    }
    (out_keys, out_anns)
}

/// Rule 1, general-column case, step 1: project column `pos` away into
/// a scratch matrix and stable-argsort the projected rows (ties keep
/// full-row order, preserving the fold sequence of the ordered-map
/// backend). Returns `(scratch, order)`.
fn project_scratch(keys: &[RowCode], width: usize, pos: usize) -> (Vec<RowCode>, Vec<u32>) {
    let scratch = project_scratch_matrix(keys, width, pos);
    let nw = width - 1;
    let len = keys.len() / width;
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.sort_by(|&a, &b| scratch_row_cmp(&scratch, nw, a, b));
    (scratch, order)
}

/// Builds only the projected scratch matrix of [`project_scratch`],
/// leaving the argsort to the caller — the shard kernels sort it in
/// parallel over the worker pool instead.
fn project_scratch_matrix(keys: &[RowCode], width: usize, pos: usize) -> Vec<RowCode> {
    debug_assert!(width >= 2, "general column implies a non-last column");
    let len = keys.len() / width;
    let nw = width - 1;
    let keep: Vec<usize> = (0..width).filter(|&i| i != pos).collect();
    let mut scratch: Vec<RowCode> = Vec::with_capacity(len * nw);
    for i in 0..len {
        let row = &keys[i * width..(i + 1) * width];
        for &k in &keep {
            scratch.push(row[k]);
        }
    }
    scratch
}

/// The argsort comparison of [`project_scratch`]: scratch rows `a`
/// and `b` by their full `nw`-column prefix. Equal rows compare
/// `Equal`, and every sort over this comparator must be *stable* so
/// ties keep ascending original-row order — the fold sequence of the
/// ordered-map backend.
fn scratch_row_cmp(scratch: &[RowCode], nw: usize, a: u32, b: u32) -> std::cmp::Ordering {
    let (a, b) = (a as usize, b as usize);
    scratch[a * nw..(a + 1) * nw].cmp(&scratch[b * nw..(b + 1) * nw])
}

/// Rule 1, general-column case, step 2: the grouped ⊕-fold over a
/// contiguous slice of the argsorted `order` (groups are contiguous in
/// `order`, so a slice whose boundaries fall on group boundaries folds
/// exactly the groups it contains). `take(idx)` surrenders the
/// annotation of input row `idx` — a move for the sequential caller, a
/// clone from a shared slice for shard workers.
fn fold_sorted_groups<M, K>(
    monoid: &M,
    scratch: &[RowCode],
    nw: usize,
    order: &[u32],
    take: &mut dyn FnMut(usize) -> K,
    stats: &mut EngineStats,
) -> (Vec<RowCode>, Vec<K>)
where
    M: TwoMonoid<Elem = K>,
    K: Clone + PartialEq + std::fmt::Debug,
{
    let mut out_keys: Vec<RowCode> = Vec::with_capacity(order.len() * nw);
    let mut out_anns: Vec<K> = Vec::with_capacity(order.len().min(16));
    let mut current: Option<(usize, K)> = None; // (scratch row, acc)
    macro_rules! flush {
        ($group:expr, $acc:expr) => {
            if !monoid.is_zero(&$acc) {
                out_keys.extend_from_slice($group);
                out_anns.push($acc);
            }
        };
    }
    for &idx in order {
        let idx = idx as usize;
        let key = &scratch[idx * nw..(idx + 1) * nw];
        let ann = take(idx);
        match current {
            Some((g, ref mut acc)) if scratch[g * nw..g * nw + nw] == *key => {
                stats.add_ops += 1;
                monoid.add_assign(acc, &ann);
            }
            _ => {
                if let Some((g, acc)) = current.take() {
                    flush!(&scratch[g * nw..g * nw + nw], acc);
                }
                current = Some((idx, ann));
            }
        }
    }
    if let Some((g, acc)) = current.take() {
        flush!(&scratch[g * nw..g * nw + nw], acc);
    }
    (out_keys, out_anns)
}

/// Rule 2: the linear two-pointer sort-merge outer join over one
/// co-partitioned key range of both sides (0-fill for one-sided rows;
/// one-sided rows of annihilating monoids are skipped outright without
/// counting a ⊗ — the Theorem 6.7 accounting for semirings).
///
/// The sequential merge is the full-range call; the shard kernels call
/// it once per shard with both sides partitioned at the same
/// boundary keys, so equal keys always meet in the same shard and the
/// concatenated shard outputs equal the sequential output exactly.
fn merge_ranges<M, K>(
    monoid: &M,
    left: &ColumnarRelation<K>,
    right: &ColumnarRelation<K>,
    li: std::ops::Range<usize>,
    ri: std::ops::Range<usize>,
    stats: &mut EngineStats,
) -> (Vec<RowCode>, Vec<K>)
where
    M: TwoMonoid<Elem = K>,
    K: Clone + PartialEq + std::fmt::Debug,
{
    let zero = monoid.zero();
    let annihilating = monoid.annihilating();
    let rows = li.len().max(ri.len());
    let mut out_keys: Vec<RowCode> = Vec::with_capacity(rows * left.width);
    let mut out_anns: Vec<K> = Vec::with_capacity(rows);
    let (mut i, mut j) = (li.start, ri.start);
    let mut push = |row: &[RowCode], v: K| {
        if !monoid.is_zero(&v) {
            out_keys.extend_from_slice(row);
            out_anns.push(v);
        }
    };
    // Linear sort-merge outer join over the union of supports.
    while i < li.end && j < ri.end {
        let (lr, rr) = (left.row(i), right.row(j));
        match lr.cmp(rr) {
            Ordering::Equal => {
                stats.mul_ops += 1;
                push(lr, monoid.mul(&left.anns[i], &right.anns[j]));
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                if !annihilating {
                    stats.mul_ops += 1;
                    push(lr, monoid.mul(&left.anns[i], &zero));
                }
                i += 1;
            }
            Ordering::Greater => {
                if !annihilating {
                    stats.mul_ops += 1;
                    push(rr, monoid.mul(&zero, &right.anns[j]));
                }
                j += 1;
            }
        }
    }
    if !annihilating {
        while i < li.end {
            stats.mul_ops += 1;
            push(left.row(i), monoid.mul(&left.anns[i], &zero));
            i += 1;
        }
        while j < ri.end {
            stats.mul_ops += 1;
            push(right.row(j), monoid.mul(&zero, &right.anns[j]));
            j += 1;
        }
    }
    (out_keys, out_anns)
}

impl<K> ColumnarRelation<K> {
    /// The contiguous row range whose leading columns equal `prefix`
    /// (two binary searches over the sorted matrix — the group-offset
    /// lookup of the serving sessions' dirty refolds). The empty prefix spans
    /// every row.
    fn prefix_range(&self, prefix: &[RowCode]) -> (usize, usize) {
        let w = self.width;
        if prefix.is_empty() || w == 0 {
            return (0, self.len);
        }
        debug_assert!(prefix.len() <= w);
        let bound = |strict: bool| -> usize {
            let (mut lo, mut hi) = (0usize, self.len);
            while lo < hi {
                let mid = (lo + hi) / 2;
                let cell = &self.keys[mid * w..mid * w + prefix.len()];
                let below = if strict {
                    cell <= prefix
                } else {
                    cell < prefix
                };
                if below {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        (bound(false), bound(true))
    }

    /// Binary search for a code row: `Ok(row)` if present, `Err(row)`
    /// with the insertion position otherwise.
    fn find(&self, codes: &[RowCode]) -> Result<usize, usize> {
        let w = self.width;
        if w == 0 {
            return if self.len > 0 { Ok(0) } else { Err(0) };
        }
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.keys[mid * w..(mid + 1) * w].cmp(codes) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_monoid::{CountMonoid, ProbMonoid};

    fn rel(vars: &[usize], rows: &[(&[i64], u64)]) -> ColumnarRelation<u64> {
        ColumnarRelation::build_slots(vec![(
            vars.iter().map(|&v| Var(v)).collect(),
            rows.iter().map(|&(t, k)| (Tuple::ints(t), k)).collect(),
        )])
        .unwrap()
        .pop()
        .unwrap()
    }

    #[test]
    fn contiguous_projection_single_pass() {
        // Dropping the last sort column: groups are adjacent runs.
        let r = rel(&[0, 1], &[(&[1, 10], 2), (&[1, 20], 3), (&[2, 5], 7)]);
        let mut stats = EngineStats::default();
        let out = r.project_out(&CountMonoid, Var(1), Parallelism::default(), &mut stats);
        assert_eq!(
            out.rows(),
            vec![(Tuple::ints(&[1]), 5u64), (Tuple::ints(&[2]), 7u64)]
        );
        assert_eq!(stats.add_ops, 1);
        assert_eq!(out.vars(), &[Var(0)]);
    }

    #[test]
    fn reordering_projection_stays_sorted_and_stable() {
        // Dropping column 0 breaks the order: 1,10 / 1,20 / 2,5 project
        // to 10 / 20 / 5 which must re-sort to 5 / 10 / 20.
        let r = rel(&[0, 1], &[(&[1, 10], 2), (&[1, 20], 3), (&[2, 5], 7)]);
        let mut stats = EngineStats::default();
        let out = r.project_out(&CountMonoid, Var(0), Parallelism::default(), &mut stats);
        assert_eq!(
            out.rows(),
            vec![
                (Tuple::ints(&[5]), 7u64),
                (Tuple::ints(&[10]), 2),
                (Tuple::ints(&[20]), 3),
            ]
        );
        assert_eq!(stats.add_ops, 0);
    }

    #[test]
    fn projection_to_nullary_folds_everything() {
        let r = rel(&[3], &[(&[1], 2), (&[2], 3), (&[9], 4)]);
        let mut stats = EngineStats::default();
        let out = r.project_out(&CountMonoid, Var(3), Parallelism::default(), &mut stats);
        assert_eq!(out.support_size(), 1);
        assert_eq!(out.nullary_value(&CountMonoid), 9);
        assert_eq!(stats.add_ops, 2);
        // And an empty relation folds to empty support.
        let empty = rel(&[3], &[]);
        let out = empty.project_out(
            &CountMonoid,
            Var(3),
            Parallelism::default(),
            &mut EngineStats::default(),
        );
        assert_eq!(out.support_size(), 0);
        assert_eq!(out.nullary_value(&CountMonoid), 0);
    }

    #[test]
    fn point_updates_keep_rows_sorted() {
        let mut r = ColumnarRelation::build_slots(vec![(
            vec![Var(0)],
            vec![
                (Tuple::ints(&[1]), 0.5f64),
                (Tuple::ints(&[2]), 0.25),
                (Tuple::ints(&[3]), 0.75),
            ],
        )])
        .unwrap()
        .pop()
        .unwrap();
        r.set(&Tuple::ints(&[2]), None);
        assert_eq!(r.get(&Tuple::ints(&[2])), None);
        r.set(&Tuple::ints(&[2]), Some(0.9));
        assert_eq!(r.get(&Tuple::ints(&[2])), Some(0.9));
        let keys: Vec<Tuple> = r.rows().into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            keys,
            vec![Tuple::ints(&[1]), Tuple::ints(&[2]), Tuple::ints(&[3])]
        );
        // Deleting a key whose values are outside the dictionary is a
        // no-op rather than an error.
        r.set(&Tuple::ints(&[77]), None);
        assert_eq!(r.support_size(), 3);
    }

    #[test]
    fn zero_prune_uses_monoid_predicate() {
        let r = ColumnarRelation::build_slots(vec![(
            vec![Var(0), Var(1)],
            vec![
                (Tuple::ints(&[1, 1]), 0.5f64),
                (Tuple::ints(&[1, 2]), -0.5),
                (Tuple::ints(&[2, 1]), -0.0),
            ],
        )])
        .unwrap()
        .pop()
        .unwrap();
        let mut stats = EngineStats::default();
        let out = r.project_out(&ProbMonoid, Var(1), Parallelism::default(), &mut stats);
        // Group 2's fold is -0.0 → pruned; group 1 is non-zero.
        assert_eq!(out.support_size(), 1);
    }
}
