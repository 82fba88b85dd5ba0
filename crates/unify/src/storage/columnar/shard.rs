//! Shard-parallel Rule 1 / Rule 2 kernels of the columnar layout.
//!
//! [`ColumnarRelation`] switches to these kernels when the
//! [`Parallelism`] degree passed to a rule application yields more
//! than one shard ([`shard_count`]); otherwise it runs its sequential
//! kernels. Tasks are submitted to the persistent work-stealing worker
//! pool ([`crate::pool`]) as `'static` closures over `Arc`-shared
//! inputs, so a rule application spawns **zero** threads once the
//! pool is warm. The row matrices are already sorted, which makes
//! them *partition-ready*: cut them into `S` contiguous shards and
//! every rule application decomposes into `S` independent
//! sub-applications — **provided no logical unit of work straddles a
//! cut**:
//!
//! * **Rule 1** (`project_out`): the unit is a ⊕-group. In the
//!   least-significant-column case groups are runs of equal
//!   `width − 1`-column prefixes, so cuts are only placed where the
//!   prefix changes. In the general-column case the projected scratch
//!   matrix is argsorted first — a parallel merge sort over the same
//!   pool: contiguous index ranges are stable-sorted concurrently,
//!   then pairwise-merged left-preferring, which reproduces *the*
//!   unique stable permutation `std`'s sequential sort yields, at any
//!   chunk count — and the *argsort order* is cut on group boundaries.
//! * **Rule 2** (`merge`): the unit is a key. Boundary keys are drawn
//!   from the larger side at even row positions and **both** sides are
//!   partitioned at the first row ≥ each boundary key, so equal keys
//!   always meet inside one shard and the 0-filled outer join of a
//!   non-annihilating monoid stays self-contained per shard.
//!
//! Each worker runs *the same kernel* as the sequential path
//! ([`fold_drop_last`], [`fold_sorted_groups`], [`merge_ranges`]) over
//! its range, into its own output buffers and its own
//! [`EngineStats`]. Outputs are concatenated and stats summed **in
//! fixed shard order** after all workers join, so results (floats
//! included) and op counts are bit-identical to the sequential kernels
//! — the sequential engine is the oracle, and
//! `tests/differential_parallel.rs` pins the equivalence at every
//! thread count.

use super::{
    fold_drop_last, fold_sorted_groups, merge_ranges, project_scratch_matrix, scratch_row_cmp,
    ColumnarRelation,
};
use crate::engine::EngineStats;
use crate::pool::{self, BatchTask};
use crate::storage::Parallelism;
use hq_db::RowCode;
use hq_monoid::TwoMonoid;
use std::fmt;
use std::sync::Arc;

/// Number of shards for `len` rows: never more than the worker
/// budget, and never so many that a shard falls below the
/// [`Parallelism::min_shard_rows`] work-size floor (spawn/join costs
/// would dominate the kernel work). `1` means run sequentially.
pub(super) fn shard_count(par: Parallelism, len: usize) -> usize {
    par.threads.min(len / par.min_shard_rows()).max(1)
}

/// Candidate-and-adjust split points: `shards + 1` ascending bounds
/// over `0..len` (first `0`, last `len`), where each interior candidate
/// `len·s/S` is advanced past rows for which `same_group(i)` says row
/// `i` must stay in the same shard as row `i − 1`. Bounds are strictly
/// ascending (degenerate candidates are dropped, so fewer than `shards`
/// shards may result — e.g. a single giant group yields one shard).
fn split_points(len: usize, shards: usize, same_group: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0usize);
    for s in 1..shards {
        let mut i = len * s / shards;
        if i <= *bounds.last().expect("bounds non-empty") {
            continue;
        }
        while i < len && same_group(i) {
            i += 1;
        }
        if i < len && i > *bounds.last().expect("bounds non-empty") {
            bounds.push(i);
        }
    }
    bounds.push(len);
    bounds
}

/// Splits an owned column into per-shard chunks along `bounds`
/// (ascending, `bounds[0] == 0`, `bounds.last() == v.len()`).
fn split_by_bounds<K>(mut v: Vec<K>, bounds: &[usize]) -> Vec<Vec<K>> {
    let mut out = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2).rev() {
        debug_assert!(w[0] <= w[1]);
        out.push(v.split_off(w[0]));
    }
    out.reverse();
    out
}

/// First row of `rel` whose key is `≥ key` (binary search; `rel.len`
/// when all rows are smaller).
fn lower_bound<K>(rel: &ColumnarRelation<K>, key: &[RowCode]) -> usize {
    let (mut lo, mut hi) = (0usize, rel.len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if rel.row(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Co-partitions both merge sides at boundary keys drawn from the
/// larger side, returning parallel bound vectors (`S + 1` entries
/// each, possibly fewer when boundaries coincide). Shard `k` is
/// `left[lb[k]..lb[k+1]] ⋈ right[rb[k]..rb[k+1]]`; every key lands in
/// exactly one shard on each side, and equal keys land in the same
/// shard index.
fn merge_bounds<K>(
    left: &ColumnarRelation<K>,
    right: &ColumnarRelation<K>,
    shards: usize,
) -> (Vec<usize>, Vec<usize>) {
    let big = if left.len >= right.len { left } else { right };
    let mut lb = vec![0usize];
    let mut rb = vec![0usize];
    for s in 1..shards {
        let i = big.len * s / shards;
        if i == 0 || i >= big.len {
            continue;
        }
        let key = big.row(i);
        let lpos = lower_bound(left, key);
        let rpos = lower_bound(right, key);
        // lower_bound is monotone in the (ascending) boundary key, so
        // the pair sequence is non-decreasing; drop exact repeats.
        if lpos > *lb.last().expect("non-empty") || rpos > *rb.last().expect("non-empty") {
            lb.push(lpos);
            rb.push(rpos);
        }
    }
    lb.push(left.len);
    rb.push(right.len);
    (lb, rb)
}

/// Joins per-shard `(keys, anns, stats)` outputs in fixed shard order:
/// concatenated matrices, stats summed left to right.
fn concat_shards<K>(
    parts: Vec<(Vec<RowCode>, Vec<K>, EngineStats)>,
    stats: &mut EngineStats,
) -> (Vec<RowCode>, Vec<K>) {
    let mut out_keys = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
    let mut out_anns = Vec::with_capacity(parts.iter().map(|p| p.1.len()).sum());
    for (keys, anns, st) in parts {
        out_keys.extend(keys);
        out_anns.extend(anns);
        stats.add_ops += st.add_ops;
        stats.mul_ops += st.mul_ops;
    }
    (out_keys, out_anns)
}

/// One shard task's output: its slice of the result matrix plus its
/// private op counts, recombined in fixed shard order afterwards.
type ShardPart<K> = (Vec<RowCode>, Vec<K>, EngineStats);

/// Merges two argsorted index runs, preferring the **left** run on
/// ties. Runs are contiguous ascending index ranges with the left run
/// holding the smaller indices, so left-preference keeps equal rows in
/// ascending original-index order — stability, preserved bottom-up.
fn merge_sorted_runs(scratch: &[RowCode], nw: usize, left: &[u32], right: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if scratch_row_cmp(scratch, nw, right[j], left[i]) == std::cmp::Ordering::Less {
            out.push(right[j]);
            j += 1;
        } else {
            out.push(left[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Parallel stable argsort of the projected scratch matrix: `chunks`
/// contiguous index ranges are stable-sorted as pool tasks, then
/// adjacent runs are pairwise-merged (also as pool tasks) until one
/// remains. The result is *the* unique permutation ordered by scratch
/// row with ties ascending by original index — exactly what the
/// sequential `sort_by` in [`super::project_scratch`] produces — so
/// the argsort order, and everything folded from it, is independent of
/// the chunk count and thread count.
fn argsort_par(scratch: &Arc<Vec<RowCode>>, nw: usize, len: usize, chunks: usize) -> Vec<u32> {
    if chunks <= 1 || len < 2 {
        let mut order: Vec<u32> = (0..len as u32).collect();
        order.sort_by(|&a, &b| scratch_row_cmp(scratch, nw, a, b));
        return order;
    }
    let bounds: Vec<usize> = (0..=chunks).map(|c| len * c / chunks).collect();
    let sort_tasks: Vec<BatchTask<Vec<u32>>> = bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| {
            let (a, b) = (w[0] as u32, w[1] as u32);
            let scratch = Arc::clone(scratch);
            Box::new(move || {
                let mut order: Vec<u32> = (a..b).collect();
                order.sort_by(|&x, &y| scratch_row_cmp(&scratch, nw, x, y));
                order
            }) as BatchTask<Vec<u32>>
        })
        .collect();
    let mut runs = pool::run_batch(chunks, sort_tasks);
    while runs.len() > 1 {
        let mut tasks: Vec<BatchTask<Vec<u32>>> = Vec::with_capacity(runs.len() / 2);
        let mut leftover = None;
        let mut iter = runs.into_iter();
        while let Some(left) = iter.next() {
            match iter.next() {
                Some(right) => {
                    let scratch = Arc::clone(scratch);
                    tasks.push(Box::new(move || {
                        merge_sorted_runs(&scratch, nw, &left, &right)
                    }));
                }
                None => leftover = Some(left),
            }
        }
        let degree = tasks.len();
        runs = pool::run_batch(degree, tasks);
        // The odd run out is the highest index range; it stays last.
        runs.extend(leftover);
    }
    runs.pop().unwrap_or_default()
}

/// Rule 1 over `shards` shards: drops column `pos` of `rel`, folding
/// each ⊕-group inside exactly one shard.
pub(super) fn project_out<M, K>(
    rel: ColumnarRelation<K>,
    monoid: &M,
    pos: usize,
    shards: usize,
    stats: &mut EngineStats,
) -> ColumnarRelation<K>
where
    M: TwoMonoid<Elem = K>,
    K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
{
    let ColumnarRelation {
        mut vars,
        width,
        len,
        dict,
        keys,
        anns,
    } = rel;
    vars.remove(pos);
    let nw = width - 1;
    let (out_keys, out_anns) = if pos == width - 1 {
        // Contiguous-group fold: cut where the kept prefix changes.
        let bounds = split_points(len, shards, |i| {
            keys[(i - 1) * width..(i - 1) * width + nw] == keys[i * width..i * width + nw]
        });
        let chunks = split_by_bounds(anns, &bounds);
        let keys = Arc::new(keys);
        let tasks: Vec<BatchTask<ShardPart<K>>> = bounds
            .windows(2)
            .zip(chunks)
            .map(|(w, chunk)| {
                let base = w[0];
                let keys = Arc::clone(&keys);
                let monoid = monoid.clone();
                Box::new(move || {
                    let mut st = EngineStats::default();
                    let (ok, oa) = fold_drop_last(&monoid, &keys, width, base, chunk, &mut st);
                    (ok, oa, st)
                }) as BatchTask<ShardPart<K>>
            })
            .collect();
        concat_shards(pool::run_batch(shards, tasks), stats)
    } else {
        // General column: parallel merge-sort argsort over the pool,
        // then shard the sorted order on group boundaries. Workers
        // clone annotations from the shared column — exact values, so
        // results stay identical.
        let scratch = Arc::new(project_scratch_matrix(&keys, width, pos));
        let order = Arc::new(argsort_par(&scratch, nw, len, shards));
        let bounds = split_points(len, shards, |i| {
            let (a, b) = (order[i - 1] as usize, order[i] as usize);
            scratch[a * nw..(a + 1) * nw] == scratch[b * nw..(b + 1) * nw]
        });
        let anns = Arc::new(anns);
        let tasks: Vec<BatchTask<ShardPart<K>>> = bounds
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                let scratch = Arc::clone(&scratch);
                let order = Arc::clone(&order);
                let anns = Arc::clone(&anns);
                let monoid = monoid.clone();
                Box::new(move || {
                    let mut st = EngineStats::default();
                    let mut take = |idx: usize| anns[idx].clone();
                    let (ok, oa) =
                        fold_sorted_groups(&monoid, &scratch, nw, &order[a..b], &mut take, &mut st);
                    (ok, oa, st)
                }) as BatchTask<ShardPart<K>>
            })
            .collect();
        concat_shards(pool::run_batch(shards, tasks), stats)
    };
    ColumnarRelation {
        vars,
        width: nw,
        len: out_anns.len(),
        dict,
        keys: out_keys,
        anns: out_anns,
    }
}

/// Rule 2 over `shards` co-partitioned key ranges of both sides (the
/// caller has checked that the schemas and dictionaries agree).
pub(super) fn merge<M, K>(
    left: ColumnarRelation<K>,
    monoid: &M,
    right: ColumnarRelation<K>,
    shards: usize,
    stats: &mut EngineStats,
) -> ColumnarRelation<K>
where
    M: TwoMonoid<Elem = K>,
    K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
{
    let (lb, rb) = merge_bounds(&left, &right, shards);
    let (vars, width, dict) = (left.vars.clone(), left.width, Arc::clone(&left.dict));
    let (left, right) = (Arc::new(left), Arc::new(right));
    let tasks: Vec<BatchTask<ShardPart<K>>> = lb
        .windows(2)
        .zip(rb.windows(2))
        .map(|(lw, rw)| {
            let (li, ri) = (lw[0]..lw[1], rw[0]..rw[1]);
            let left = Arc::clone(&left);
            let right = Arc::clone(&right);
            let monoid = monoid.clone();
            Box::new(move || {
                let mut st = EngineStats::default();
                let (ok, oa) = merge_ranges(&monoid, &left, &right, li, ri, &mut st);
                (ok, oa, st)
            }) as BatchTask<ShardPart<K>>
        })
        .collect();
    let (out_keys, out_anns) = concat_shards(pool::run_batch(shards, tasks), stats);
    ColumnarRelation {
        vars,
        width,
        len: out_anns.len(),
        dict,
        keys: out_keys,
        anns: out_anns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{OwnedSlot, Storage};
    use hq_db::Tuple;
    use hq_monoid::{BagMaxMonoid, CountMonoid, ProbMonoid, SatCountMonoid};
    use hq_query::Var;

    fn columnar_slots<K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static>(
        slots: Vec<OwnedSlot<K>>,
    ) -> Vec<ColumnarRelation<K>> {
        ColumnarRelation::build_slots(slots).unwrap()
    }

    /// The degree a test runs `threads`-way: fine-grained, so even the
    /// small test relations take the shard kernels.
    fn sharded(threads: usize) -> Parallelism {
        Parallelism::fine_grained(threads)
    }

    const SEQ: Parallelism = Parallelism::sequential();

    /// A 2-column relation with repeated leading codes so prefix
    /// groups actually span candidate cut points.
    fn grouped_rows(n: usize) -> Vec<(Tuple, f64)> {
        (0..n)
            .map(|i| {
                let g = (i / 3) as i64;
                let y = (i % 3) as i64 * 7 + (i as i64 % 2);
                (Tuple::ints(&[g, y]), 0.05 + 0.9 * (i as f64) / n as f64)
            })
            .collect()
    }

    #[test]
    fn split_points_respect_groups() {
        // Ten rows in groups of sizes 4, 4, 2: a cut inside a group is
        // illegal and must be pushed to the next group start.
        let groups = [0usize, 0, 0, 0, 1, 1, 1, 1, 2, 2];
        for shards in 1..=10 {
            let bounds = split_points(groups.len(), shards, |i| groups[i - 1] == groups[i]);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), groups.len());
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
            for &b in &bounds[1..bounds.len() - 1] {
                assert_ne!(groups[b - 1], groups[b], "cut inside a group: {bounds:?}");
            }
        }
    }

    #[test]
    fn project_out_identical_at_every_thread_count() {
        let vars = vec![Var(0), Var(1)];
        let rel = columnar_slots(vec![(vars, grouped_rows(37))])
            .pop()
            .unwrap();
        for var in [0usize, 1] {
            let mut seq_stats = EngineStats::default();
            let seq = rel
                .clone()
                .project_out(&ProbMonoid, Var(var), SEQ, &mut seq_stats);
            for threads in [1usize, 2, 3, 5, 16] {
                let mut st = EngineStats::default();
                let got = rel
                    .clone()
                    .project_out(&ProbMonoid, Var(var), sharded(threads), &mut st);
                assert_eq!(got, seq, "var {var} threads {threads}");
                assert_eq!(st, seq_stats, "var {var} threads {threads}");
            }
        }
    }

    #[test]
    fn merge_identical_at_every_thread_count_both_kinds() {
        let vars = vec![Var(0), Var(1)];
        // Overlapping but distinct supports on the two sides.
        let left_rows: Vec<(Tuple, u64)> = (0..30)
            .map(|i| (Tuple::ints(&[i / 2, i % 5]), (i + 1) as u64))
            .collect();
        let right_rows: Vec<(Tuple, u64)> = (5..35)
            .map(|i| (Tuple::ints(&[i / 2, i % 5]), (2 * i + 1) as u64))
            .collect();
        let slots = columnar_slots(vec![(vars.clone(), left_rows), (vars.clone(), right_rows)]);
        let (l, r) = (slots[0].clone(), slots[1].clone());
        // Annihilating (counting) and non-annihilating (bag-max, which
        // 0-fills one-sided rows) monoids.
        let mut seq_stats = EngineStats::default();
        let seq = l
            .clone()
            .merge(&CountMonoid, r.clone(), SEQ, &mut seq_stats);
        let bm = BagMaxMonoid::new(3);
        let to_bm = |rel: &ColumnarRelation<u64>| -> Vec<(Tuple, _)> {
            Storage::rows(rel)
                .into_iter()
                .map(|(t, k)| (t, bm.vec_from(&[k, k + 1])))
                .collect()
        };
        // Build both sides together so they share one instance dict.
        let mut bm_slots =
            columnar_slots(vec![(vars.clone(), to_bm(&l)), (vars.clone(), to_bm(&r))]);
        let rb = bm_slots.pop().unwrap();
        let lb = bm_slots.pop().unwrap();
        let mut seq_bm_stats = EngineStats::default();
        let seq_bm = lb.clone().merge(&bm, rb.clone(), SEQ, &mut seq_bm_stats);
        for threads in [1usize, 2, 3, 4, 7, 16] {
            let mut st = EngineStats::default();
            let got = l
                .clone()
                .merge(&CountMonoid, r.clone(), sharded(threads), &mut st);
            assert_eq!(got, seq, "threads {threads}");
            assert_eq!(st, seq_stats, "threads {threads}");
            let mut st = EngineStats::default();
            let got = lb.clone().merge(&bm, rb.clone(), sharded(threads), &mut st);
            assert_eq!(got, seq_bm, "bagmax threads {threads}");
            assert_eq!(st, seq_bm_stats, "bagmax threads {threads}");
        }
    }

    #[test]
    fn non_annihilating_outer_join_stays_self_contained() {
        // Disjoint supports: every row is one-sided, the pure-0-fill
        // stress case for shard co-partitioning.
        let m = SatCountMonoid::new(2);
        let vars = vec![Var(0)];
        let left_rows: Vec<(Tuple, _)> =
            (0..12).map(|i| (Tuple::ints(&[2 * i]), m.star())).collect();
        let right_rows: Vec<(Tuple, _)> = (0..12)
            .map(|i| (Tuple::ints(&[2 * i + 1]), m.star()))
            .collect();
        let slots = columnar_slots(vec![(vars.clone(), left_rows), (vars, right_rows)]);
        let (l, r) = (slots[0].clone(), slots[1].clone());
        let mut seq_stats = EngineStats::default();
        let seq = l.clone().merge(&m, r.clone(), SEQ, &mut seq_stats);
        assert_eq!(seq.support_size(), 24, "all 0-filled rows survive");
        for threads in [2usize, 3, 8] {
            let mut st = EngineStats::default();
            let got = l.clone().merge(&m, r.clone(), sharded(threads), &mut st);
            assert_eq!(got, seq, "threads {threads}");
            assert_eq!(st, seq_stats, "threads {threads}");
        }
    }

    #[test]
    fn nullary_and_empty_relations_are_safe() {
        let rel: ColumnarRelation<u64> = columnar_slots(vec![(vec![Var(3)], Vec::new())])
            .pop()
            .unwrap();
        let mut st = EngineStats::default();
        let out = rel.project_out(&CountMonoid, Var(3), sharded(8), &mut st);
        assert_eq!(out.support_size(), 0);
        assert_eq!(out.nullary_value(&CountMonoid), 0);
        // Projecting a 1-column relation to nullary: one global group.
        let rel: ColumnarRelation<u64> = columnar_slots(vec![(
            vec![Var(0)],
            (0..9).map(|i| (Tuple::ints(&[i]), i as u64 + 1)).collect(),
        )])
        .pop()
        .unwrap();
        let mut st = EngineStats::default();
        let out = rel.project_out(&CountMonoid, Var(0), sharded(4), &mut st);
        assert_eq!(out.nullary_value(&CountMonoid), 45);
        assert_eq!(st.add_ops, 8);
    }

    #[test]
    fn parallelism_parses_and_defaults() {
        assert_eq!(Parallelism::default().threads, 1);
        assert!(!Parallelism::default().is_parallel());
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::new(4));
        assert!("max".parse::<Parallelism>().unwrap().threads >= 1);
        assert!("0".parse::<Parallelism>().is_err());
        assert!("-1".parse::<Parallelism>().is_err());
        assert_eq!(Parallelism::new(0).threads, 1);
        assert_eq!(Parallelism::new(3).to_string(), "3");
    }

    #[test]
    fn work_size_floor_keeps_small_inputs_sequential() {
        // Production parallelism never shards below the work-size
        // floor (spawn cost would dominate), while the fine-grained
        // test constructor shards anything with ≥ 2 rows.
        let prod = Parallelism::new(8);
        assert!(prod.min_shard_rows() > 1);
        assert_eq!(shard_count(prod, 100), 1);
        assert_eq!(shard_count(prod, prod.min_shard_rows() * 8), 8);
        assert_eq!(shard_count(prod, prod.min_shard_rows() * 3), 3);
        let fine = Parallelism::fine_grained(8);
        assert_eq!(fine.min_shard_rows(), 1);
        assert_eq!(shard_count(fine, 100), 8);
        assert_eq!(shard_count(fine, 3), 3);
        assert_eq!(shard_count(fine, 0), 1);
    }
}
