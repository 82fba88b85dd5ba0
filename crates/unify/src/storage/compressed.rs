//! The compressed columnar storage backend.
//!
//! One relation = a sequence of fixed-size **blocks** (up to
//! [`BLOCK_ROWS`] sorted rows each). Every block carries a small header
//! (row count plus the first and last row — the per-block min/max,
//! since rows are sorted) and stores each code column under the
//! cheapest of three lightweight encodings:
//!
//! * **RLE** — `(code, run length)` pairs; wins on low-cardinality
//!   grouped prefix columns;
//! * **FOR** — frame-of-reference bit-packing (`min` + fixed-width
//!   packed deltas from it); wins on general columns with a narrow
//!   value range;
//! * **Delta** — first value + bit-packed consecutive deltas; wins on
//!   sorted (non-decreasing) key columns.
//!
//! Annotations are dictionary-compressed per block when few distinct
//! values repeat (compared with [`CompressedAnn::exact_eq`], *not*
//! `PartialEq` — `-0.0` and `0.0` must stay distinct for bit-identity)
//! and stored dense otherwise, so an all-distinct column degrades to
//! the dense layout instead of blowing up.
//!
//! The Rule 1 fold and Rule 2 merge kernels stream block-decoded runs
//! through a small reusable scratch buffer — at no point is a full
//! decompressed column materialised. Block min/max headers let point
//! and group lookups binary-search straight to the right block, and
//! let the annihilating-monoid merge skip non-overlapping blocks
//! without decoding them. All ⊕/⊗ applications happen in exactly the
//! order of the dense columnar backend, so results (including floats)
//! and [`EngineStats`] are bit-identical — the property the
//! differential suites pin down.

use super::columnar::ColumnarRelation;
use super::{DuplicateRow, OwnedSlot, Parallelism, Storage};
use crate::engine::EngineStats;
use hq_db::{RowCode, Tuple, ValueDict};
use hq_monoid::TwoMonoid;
use hq_query::Var;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Rows per block: large enough that header and per-block dispatch
/// costs amortise away, small enough that one decoded block (keys +
/// annotations) stays cache-resident scratch.
pub(crate) const BLOCK_ROWS: usize = 4096;

/// A point edit rewrites its block; blocks that grow past twice the
/// nominal size are split back into [`BLOCK_ROWS`] chunks.
const SPLIT_ROWS: usize = 2 * BLOCK_ROWS;

/// Maximum distinct annotation values per block before the annotation
/// dictionary gives up and stores the column dense.
const DICT_ANN_MAX: usize = 16;

/// How many input blocks are decoded, projected and sorted together
/// into one run by the general (non-last-column) projection before the
/// streaming k-way merge; bounds transient scratch to
/// `RUN_BLOCKS × BLOCK_ROWS` rows.
const RUN_BLOCKS: usize = 16;

/// Annotation carriers the compressed tier can block-encode.
///
/// [`CompressedAnn::exact_eq`] must be *representation* equality: two
/// values may only be deduplicated into one dictionary slot if they
/// are interchangeable bit for bit under every monoid operation.
/// `PartialEq` is not enough — IEEE `-0.0 == 0.0`, yet folding with
/// one instead of the other changes downstream sign bits and breaks
/// the cross-backend bit-identity bar, so `f64` compares `to_bits`.
pub trait CompressedAnn: Sized {
    /// Representation equality (see the trait docs).
    fn exact_eq(&self, other: &Self) -> bool;

    /// Whether the carrier has a byte serialisation, making relations
    /// over it eligible for the serving layer's spill-on-evict path.
    const SPILLABLE: bool = false;

    /// Appends the carrier's byte serialisation (little-endian,
    /// fixed-width for the provided impls). Only called when
    /// [`CompressedAnn::SPILLABLE`] is `true`.
    fn write_bytes(&self, _out: &mut Vec<u8>) {
        unreachable!("annotation carrier is not spillable")
    }

    /// Reads one carrier back from the cursor, advancing it. Returns
    /// `None` on malformed input (and always for non-spillable
    /// carriers).
    fn read_bytes(_input: &mut &[u8]) -> Option<Self> {
        None
    }
}

impl CompressedAnn for f64 {
    fn exact_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
    const SPILLABLE: bool = true;
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        let (head, rest) = input.split_first_chunk::<8>()?;
        *input = rest;
        Some(f64::from_le_bytes(*head))
    }
}

impl CompressedAnn for u64 {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
    const SPILLABLE: bool = true;
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        let (head, rest) = input.split_first_chunk::<8>()?;
        *input = rest;
        Some(u64::from_le_bytes(*head))
    }
}

impl CompressedAnn for i64 {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
    const SPILLABLE: bool = true;
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        let (head, rest) = input.split_first_chunk::<8>()?;
        *input = rest;
        Some(i64::from_le_bytes(*head))
    }
}

impl CompressedAnn for u32 {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
    const SPILLABLE: bool = true;
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        let (head, rest) = input.split_first_chunk::<4>()?;
        *input = rest;
        Some(u32::from_le_bytes(*head))
    }
}

impl CompressedAnn for bool {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
    const SPILLABLE: bool = true;
    fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read_bytes(input: &mut &[u8]) -> Option<Self> {
        let (&b, rest) = input.split_first()?;
        *input = rest;
        match b {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

// Exact rationals: `==` is true value equality on a canonical
// representation, so it is representation equality too.
impl CompressedAnn for hq_arith::Rational {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl CompressedAnn for hq_monoid::BudgetVec {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl CompressedAnn for hq_monoid::SatVec {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl CompressedAnn for hq_monoid::WitnessVec {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
}

impl CompressedAnn for hq_monoid::Prov {
    fn exact_eq(&self, other: &Self) -> bool {
        self == other
    }
}

// ---------------------------------------------------------------------------
// Bit-packing primitives
// ---------------------------------------------------------------------------

/// Bits needed to store values in `0..=max` (0 for `max == 0`).
#[inline]
fn bits_for(max: u32) -> u8 {
    (32 - max.leading_zeros()) as u8
}

/// `u64` words needed to pack `count` values of `bits` bits each.
#[inline]
fn packed_words(count: usize, bits: u8) -> usize {
    if bits == 0 {
        0
    } else {
        (count * bits as usize).div_ceil(64)
    }
}

/// Packs `count` values (each `< 2^bits`, `bits ≤ 32`) little-endian
/// across consecutive `u64` words, values straddling word boundaries.
/// The bit offset runs incrementally — no per-value multiply/divide.
fn pack_values(values: impl Iterator<Item = u32>, count: usize, bits: u8) -> Vec<u64> {
    let mut out = vec![0u64; packed_words(count, bits)];
    if bits == 0 {
        return out;
    }
    let bits = bits as usize;
    let (mut w, mut off) = (0usize, 0usize);
    for v in values {
        out[w] |= u64::from(v) << off;
        if off + bits > 64 {
            out[w + 1] |= u64::from(v) >> (64 - off);
        }
        off += bits;
        if off >= 64 {
            off -= 64;
            w += 1;
        }
    }
    out
}

/// Streams every packed value into `f`, with the same incremental bit
/// offset as [`pack_values`] — the bulk-decode counterpart of the
/// random-access [`unpack_value`].
#[inline]
fn unpack_each(packed: &[u64], bits: u8, count: usize, mut f: impl FnMut(u32)) {
    if bits == 0 {
        for _ in 0..count {
            f(0);
        }
        return;
    }
    let bits = bits as usize;
    let mask = (1u64 << bits) - 1;
    let (mut w, mut off) = (0usize, 0usize);
    for _ in 0..count {
        let mut v = packed[w] >> off;
        if off + bits > 64 {
            v |= packed[w + 1] << (64 - off);
        }
        f((v & mask) as u32);
        off += bits;
        if off >= 64 {
            off -= 64;
            w += 1;
        }
    }
}

/// Reads value `i` back out of a [`pack_values`] buffer.
#[inline]
fn unpack_value(packed: &[u64], bits: u8, i: usize) -> u32 {
    if bits == 0 {
        return 0;
    }
    let bits = bits as usize;
    let bit = i * bits;
    let (w, off) = (bit / 64, bit % 64);
    let mut v = packed[w] >> off;
    if off + bits > 64 {
        v |= packed[w + 1] << (64 - off);
    }
    (v & ((1u64 << bits) - 1)) as u32
}

// ---------------------------------------------------------------------------
// Column and annotation encodings
// ---------------------------------------------------------------------------

/// One encoded code column of one block (see the module docs for when
/// each variant wins). The encoder picks the smallest serialised
/// footprint, breaking ties RLE < Delta < FOR (deterministic layout).
#[derive(Debug, Clone, PartialEq)]
enum ColEnc {
    /// `(code, run length)` pairs covering the block top to bottom.
    Rle(Vec<(RowCode, u32)>),
    /// Frame-of-reference: `min` plus bit-packed `code - min`.
    For {
        min: RowCode,
        bits: u8,
        packed: Vec<u64>,
    },
    /// Sorted column: `first` plus bit-packed consecutive deltas
    /// (`rows - 1` of them).
    Delta {
        first: RowCode,
        bits: u8,
        packed: Vec<u64>,
    },
}

/// Encodes one column of `col.len()` codes (non-empty).
#[cfg(test)]
fn encode_col(col: &[RowCode]) -> ColEnc {
    encode_col_iter(col.iter().copied(), col.len())
}

/// Encodes one column streamed from a (re-startable) iterator of `n`
/// codes: one stats pass picks the smallest encoding, one build pass
/// produces it. Callers pass strided slice iterators directly, so no
/// gather buffer is ever materialised.
fn encode_col_iter<I>(it: I, n: usize) -> ColEnc
where
    I: Iterator<Item = RowCode> + Clone,
{
    debug_assert!(n > 0);
    let mut stats_it = it.clone();
    let first = stats_it.next().expect("encode_col_iter: non-empty column");
    let (mut min, mut max) = (first, first);
    let mut runs = 1usize;
    let mut sorted = true;
    let mut max_delta = 0u32;
    let mut prev = first;
    for b in stats_it {
        if b != prev {
            runs += 1;
        }
        if b < prev {
            sorted = false;
        } else {
            max_delta = max_delta.max(b - prev);
        }
        min = min.min(b);
        max = max.max(b);
        prev = b;
    }
    let rle_bytes = runs * 8;
    let for_bits = bits_for(max - min);
    let for_bytes = 8 + packed_words(n, for_bits) * 8;
    let delta = sorted.then(|| {
        let bits = bits_for(max_delta);
        (bits, 8 + packed_words(n - 1, bits) * 8)
    });
    let delta_bytes = delta.map_or(usize::MAX, |(_, b)| b);
    if rle_bytes <= for_bytes && rle_bytes <= delta_bytes {
        let mut pairs = Vec::with_capacity(runs);
        let mut cur = first;
        let mut run = 0u32;
        for c in it {
            if c == cur {
                run += 1;
            } else {
                pairs.push((cur, run));
                cur = c;
                run = 1;
            }
        }
        pairs.push((cur, run));
        ColEnc::Rle(pairs)
    } else if delta_bytes <= for_bytes {
        let (bits, _) = delta.expect("delta chosen only when the column is sorted");
        let mut prev = first;
        let deltas = it.skip(1).map(move |c| {
            let d = c - prev;
            prev = c;
            d
        });
        ColEnc::Delta {
            first,
            bits,
            packed: pack_values(deltas, n - 1, bits),
        }
    } else {
        ColEnc::For {
            min,
            bits: for_bits,
            packed: pack_values(it.map(|c| c - min), n, for_bits),
        }
    }
}

/// Unpacks `out.len()` values into the slice, adding `base` to each —
/// the bulk-decode fast path: sequential writes through `iter_mut`,
/// no per-value capacity or bounds checks.
#[inline]
fn unpack_slice(packed: &[u64], bits: u8, base: u32, out: &mut [RowCode]) {
    if bits == 0 {
        out.fill(base);
        return;
    }
    let bits = bits as usize;
    let mask = (1u64 << bits) - 1;
    let (mut w, mut off) = (0usize, 0usize);
    for slot in out.iter_mut() {
        let mut v = packed[w] >> off;
        if off + bits > 64 {
            v |= packed[w + 1] << (64 - off);
        }
        *slot = base + (v & mask) as u32;
        off += bits;
        if off >= 64 {
            off -= 64;
            w += 1;
        }
    }
}

/// Decodes a column back into `out` (appending `rows` codes).
fn decode_col(enc: &ColEnc, rows: usize, out: &mut Vec<RowCode>) {
    let start = out.len();
    out.resize(start + rows, 0);
    let dst = &mut out[start..];
    match enc {
        ColEnc::Rle(pairs) => {
            let mut i = 0usize;
            for &(code, run) in pairs {
                dst[i..i + run as usize].fill(code);
                i += run as usize;
            }
        }
        ColEnc::For { min, bits, packed } => {
            unpack_slice(packed, *bits, *min, dst);
        }
        ColEnc::Delta {
            first,
            bits,
            packed,
        } => {
            dst[0] = *first;
            let mut v = *first;
            let bits_n = *bits as usize;
            if bits_n == 0 {
                dst[1..].fill(v);
            } else {
                let mask = (1u64 << bits_n) - 1;
                let (mut w, mut off) = (0usize, 0usize);
                for slot in dst[1..].iter_mut() {
                    let mut d = packed[w] >> off;
                    if off + bits_n > 64 {
                        d |= packed[w + 1] << (64 - off);
                    }
                    v += (d & mask) as u32;
                    *slot = v;
                    off += bits_n;
                    if off >= 64 {
                        off -= 64;
                        w += 1;
                    }
                }
            }
        }
    }
}

/// Decodes a set of columns row-major into `out` (replacing its
/// contents): each column streams into its own scratch vector, then
/// one sequential-write pass interleaves them — faster than strided
/// per-column scatter.
fn decode_cols_interleaved(cols: &[ColEnc], rows: usize, out: &mut Vec<RowCode>) {
    out.clear();
    let width = cols.len();
    if width == 0 {
        return;
    }
    if width == 1 {
        decode_col(&cols[0], rows, out);
        return;
    }
    let bufs: Vec<Vec<RowCode>> = cols
        .iter()
        .map(|enc| {
            let mut b = Vec::with_capacity(rows);
            decode_col(enc, rows, &mut b);
            b
        })
        .collect();
    out.resize(rows * width, 0);
    if let [a, b] = bufs.as_slice() {
        for ((o, &x), &y) in out.chunks_exact_mut(2).zip(a).zip(b) {
            o[0] = x;
            o[1] = y;
        }
    } else {
        for (i, o) in out.chunks_exact_mut(width).enumerate() {
            for (slot, b) in o.iter_mut().zip(&bufs) {
                *slot = b[i];
            }
        }
    }
}

/// Serialised payload bytes of one column encoding (the footprint the
/// encoder minimised; heap bookkeeping excluded).
fn col_bytes(enc: &ColEnc) -> usize {
    match enc {
        ColEnc::Rle(pairs) => pairs.len() * 8,
        ColEnc::For { packed, .. } | ColEnc::Delta { packed, .. } => 8 + packed.len() * 8,
    }
}

/// The per-block annotation column: dictionary-compressed when at most
/// [`DICT_ANN_MAX`] distinct values repeat (by
/// [`CompressedAnn::exact_eq`]), dense otherwise.
#[derive(Debug, Clone, PartialEq)]
enum AnnEnc<K> {
    /// One stored value per row.
    Dense(Vec<K>),
    /// Distinct values plus a bit-packed per-row index column.
    Dict {
        values: Vec<K>,
        bits: u8,
        packed: Vec<u64>,
    },
}

/// Encodes one block's annotation column.
fn encode_anns<K: CompressedAnn + Clone>(anns: Vec<K>) -> AnnEnc<K> {
    let mut values: Vec<K> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(anns.len());
    // Hot loop: try the previous row's code first (sorted blocks run),
    // then a manual break-on-hit scan of the small dictionary.
    let mut prev = u32::MAX;
    for a in &anns {
        if prev != u32::MAX && values[prev as usize].exact_eq(a) {
            codes.push(prev);
            continue;
        }
        let mut code = u32::MAX;
        for (i, v) in values.iter().enumerate() {
            if v.exact_eq(a) {
                code = i as u32;
                break;
            }
        }
        if code == u32::MAX {
            if values.len() >= DICT_ANN_MAX {
                return AnnEnc::Dense(anns);
            }
            code = values.len() as u32;
            values.push(a.clone());
        }
        codes.push(code);
        prev = code;
    }
    let bits = bits_for(values.len().saturating_sub(1) as u32);
    let n = codes.len();
    AnnEnc::Dict {
        values,
        bits,
        packed: pack_values(codes.into_iter(), n, bits),
    }
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

/// One block: up to [`SPLIT_ROWS`] sorted rows, column-encoded, with a
/// row count and the first/last row (min/max — rows are sorted) as the
/// search header.
#[derive(Debug, Clone, PartialEq)]
struct Block<K> {
    rows: usize,
    min_row: Vec<RowCode>,
    max_row: Vec<RowCode>,
    cols: Vec<ColEnc>,
    anns: AnnEnc<K>,
}

impl<K: CompressedAnn + Clone> Block<K> {
    /// Encodes `rows × width` row-major sorted codes plus their
    /// annotations into one block.
    fn encode(width: usize, keys: &[RowCode], anns: Vec<K>) -> Self {
        let rows = anns.len();
        debug_assert_eq!(keys.len(), rows * width);
        debug_assert!(rows > 0);
        let min_row = keys[..width].to_vec();
        let max_row = keys[(rows - 1) * width..rows * width].to_vec();
        let cols = (0..width)
            .map(|j| encode_col_iter(keys[j..].iter().step_by(width).copied(), rows))
            .collect();
        Block {
            rows,
            min_row,
            max_row,
            cols,
            anns: encode_anns(anns),
        }
    }

    /// Decodes the key matrix row-major into `out` (replacing its
    /// contents).
    fn decode_keys(&self, width: usize, out: &mut Vec<RowCode>) {
        debug_assert_eq!(self.cols.len(), width);
        decode_cols_interleaved(&self.cols, self.rows, out);
    }

    /// Decodes only the first `nw` key columns, `nw`-wide row-major —
    /// the drop-last fold never looks at the projected-away column, so
    /// it skips that column's unpack entirely.
    fn decode_prefix(&self, nw: usize, out: &mut Vec<RowCode>) {
        decode_cols_interleaved(&self.cols[..nw], self.rows, out);
    }

    /// Decodes the annotation column.
    fn decode_anns(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.decode_anns_into(&mut out);
        out
    }

    /// Decodes the annotation column into a reusable buffer.
    fn decode_anns_into(&self, out: &mut Vec<K>) {
        out.clear();
        match &self.anns {
            AnnEnc::Dense(v) => out.extend_from_slice(v),
            AnnEnc::Dict {
                values,
                bits,
                packed,
            } => {
                out.reserve(self.rows);
                unpack_each(packed, *bits, self.rows, |c| {
                    out.push(values[c as usize].clone());
                });
            }
        }
    }

    /// One annotation, without decoding the whole column (point reads).
    fn ann_at(&self, i: usize) -> K {
        match &self.anns {
            AnnEnc::Dense(v) => v[i].clone(),
            AnnEnc::Dict {
                values,
                bits,
                packed,
            } => values[unpack_value(packed, *bits, i) as usize].clone(),
        }
    }

    /// Re-encodes the key columns (and the min/max header) from a
    /// freshly remapped decoded matrix, leaving the annotation
    /// encoding untouched — the dictionary-translation path.
    fn reencode_keys(&mut self, width: usize, keys: &[RowCode]) {
        debug_assert_eq!(keys.len(), self.rows * width);
        self.min_row = keys[..width].to_vec();
        self.max_row = keys[(self.rows - 1) * width..self.rows * width].to_vec();
        self.cols = (0..width)
            .map(|j| encode_col_iter(keys[j..].iter().step_by(width).copied(), self.rows))
            .collect();
    }

    /// Serialised payload bytes (header + columns + annotations);
    /// vector-valued annotation carriers count at their inline size.
    fn payload_bytes(&self, width: usize) -> usize {
        let header = 2 * width * 4 + std::mem::size_of::<Self>();
        let cols: usize = self.cols.iter().map(col_bytes).sum();
        let anns = match &self.anns {
            AnnEnc::Dense(v) => v.len() * std::mem::size_of::<K>(),
            AnnEnc::Dict { values, packed, .. } => {
                values.len() * std::mem::size_of::<K>() + packed.len() * 8
            }
        };
        header + cols + anns
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streams sorted `(code row, annotation)` pairs into compressed
/// blocks without ever materialising the full dense matrix — the
/// construction path for huge inputs (and for every kernel output).
#[derive(Debug)]
pub struct CompressedBuilder<K> {
    width: usize,
    len: usize,
    blocks: Vec<Block<K>>,
    key_buf: Vec<RowCode>,
    ann_buf: Vec<K>,
}

impl<K: CompressedAnn + Clone> CompressedBuilder<K> {
    /// A builder for rows of `width` codes.
    pub fn new(width: usize) -> Self {
        CompressedBuilder {
            width,
            len: 0,
            blocks: Vec::new(),
            key_buf: Vec::with_capacity(BLOCK_ROWS * width),
            ann_buf: Vec::with_capacity(BLOCK_ROWS),
        }
    }

    /// Appends one row. Rows must arrive in non-decreasing code order
    /// (duplicates are allowed mid-stream only for the projection's
    /// internal sorted runs; finished relations have unique rows).
    pub fn push(&mut self, row: &[RowCode], ann: K) {
        debug_assert_eq!(row.len(), self.width);
        debug_assert!(
            self.ann_buf.is_empty() || self.key_buf[self.key_buf.len() - self.width..] <= *row,
            "builder rows must be non-decreasing"
        );
        self.key_buf.extend_from_slice(row);
        self.ann_buf.push(ann);
        self.len += 1;
        if self.ann_buf.len() == BLOCK_ROWS {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.ann_buf.is_empty() {
            return;
        }
        let anns = std::mem::take(&mut self.ann_buf);
        self.blocks
            .push(Block::encode(self.width, &self.key_buf, anns));
        self.key_buf.clear();
    }

    /// Whether no rows are buffered (the next push starts a block).
    fn buffer_is_empty(&self) -> bool {
        self.ann_buf.is_empty()
    }

    /// Appends a whole block reusing `blk`'s already-encoded key
    /// columns verbatim — the merge's pass-through fast path when every
    /// row of an input block survives. Only the annotations (one per
    /// row, in row order) are encoded. Callers must be block-aligned
    /// (`buffer_is_empty`) and globally sorted, as with `push`.
    fn push_passthrough(&mut self, blk: &Block<K>, anns: Vec<K>) {
        debug_assert!(self.ann_buf.is_empty());
        debug_assert_eq!(anns.len(), blk.rows);
        self.len += blk.rows;
        self.blocks.push(Block {
            rows: blk.rows,
            min_row: blk.min_row.clone(),
            max_row: blk.max_row.clone(),
            cols: blk.cols.clone(),
            anns: encode_anns(anns),
        });
    }

    fn into_blocks(mut self) -> (usize, Vec<Block<K>>) {
        self.flush();
        (self.len, self.blocks)
    }

    /// Finishes the stream into a relation over `vars` (the schema,
    /// `vars.len() == width`) sharing the instance dictionary `dict`.
    pub fn finish(self, vars: Vec<Var>, dict: Arc<ValueDict>) -> CompressedColumnar<K> {
        let width = self.width;
        debug_assert_eq!(vars.len(), width);
        let (len, blocks) = self.into_blocks();
        CompressedColumnar {
            vars,
            width,
            len,
            dict,
            blocks,
        }
    }
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

/// A streaming read cursor over a block sequence: decodes one block at
/// a time into a reusable scratch buffer. Both the Rule 2 merge and
/// the projection's k-way run merge drive their inputs through this.
struct Cursor<'a, K> {
    blocks: &'a [Block<K>],
    width: usize,
    block: usize,
    row: usize,
    keys: Vec<RowCode>,
    anns: Vec<K>,
    decoded: bool,
}

impl<'a, K: CompressedAnn + Clone> Cursor<'a, K> {
    fn new(blocks: &'a [Block<K>], width: usize) -> Self {
        Cursor {
            blocks,
            width,
            block: 0,
            row: 0,
            keys: Vec::new(),
            anns: Vec::new(),
            decoded: false,
        }
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.block >= self.blocks.len()
    }

    fn ensure_decoded(&mut self) {
        if !self.decoded {
            let blk = &self.blocks[self.block];
            blk.decode_keys(self.width, &mut self.keys);
            blk.decode_anns_into(&mut self.anns);
            self.decoded = true;
        }
    }

    /// The current row's codes (decoding the block on first touch).
    fn key(&mut self) -> &[RowCode] {
        self.ensure_decoded();
        &self.keys[self.row * self.width..(self.row + 1) * self.width]
    }

    /// The current row's annotation.
    fn ann(&mut self) -> K {
        self.ensure_decoded();
        self.anns[self.row].clone()
    }

    fn advance(&mut self) {
        self.row += 1;
        if self.row >= self.blocks[self.block].rows {
            self.block += 1;
            self.row = 0;
            self.decoded = false;
        }
    }

    /// The current block's max row — readable without decoding.
    fn block_max(&self) -> &[RowCode] {
        &self.blocks[self.block].max_row
    }

    /// Skips the rest of the current block (valid mid-block: callers
    /// use it only when every remaining row is provably one-sided
    /// under an annihilating monoid).
    fn skip_block(&mut self) {
        self.block += 1;
        self.row = 0;
        self.decoded = false;
    }
}

// ---------------------------------------------------------------------------
// The relation
// ---------------------------------------------------------------------------

/// A K-annotated relation stored as compressed sorted blocks (see the
/// module docs for the layout and kernels).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedColumnar<K> {
    vars: Vec<Var>,
    width: usize,
    len: usize,
    dict: Arc<ValueDict>,
    blocks: Vec<Block<K>>,
}

impl<K: CompressedAnn + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static>
    CompressedColumnar<K>
{
    /// Compresses a dense columnar relation block by block.
    pub fn from_columnar(rel: ColumnarRelation<K>) -> Self {
        let ColumnarRelation {
            vars,
            width,
            len,
            dict,
            keys,
            anns,
        } = rel;
        let mut builder = CompressedBuilder::new(width);
        for (i, ann) in anns.into_iter().enumerate() {
            builder.push(&keys[i * width..(i + 1) * width], ann);
        }
        let _ = len;
        builder.finish(vars, dict)
    }

    /// Decompresses back into the dense columnar layout (differential
    /// tests and the in-bench bit-identity assertion).
    pub fn to_columnar(&self) -> ColumnarRelation<K> {
        let mut keys: Vec<RowCode> = Vec::with_capacity(self.len * self.width);
        let mut anns: Vec<K> = Vec::with_capacity(self.len);
        let mut buf: Vec<RowCode> = Vec::new();
        for blk in &self.blocks {
            blk.decode_keys(self.width, &mut buf);
            keys.extend_from_slice(&buf);
            anns.extend(blk.decode_anns());
        }
        ColumnarRelation {
            vars: self.vars.clone(),
            width: self.width,
            len: self.len,
            dict: Arc::clone(&self.dict),
            keys,
            anns,
        }
    }

    /// The shared value dictionary (tests and diagnostics).
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Overwrites the schema labels — pure metadata (see
    /// [`ColumnarRelation::set_vars`]'s serving-layer use).
    pub(crate) fn set_vars(&mut self, vars: Vec<Var>) {
        debug_assert_eq!(vars.len(), self.width);
        self.vars = vars;
    }

    /// Re-expresses every block under an extended dictionary (the
    /// order-preserving `translation` of [`ValueDict::extend_with`]):
    /// key columns are decoded, translated and re-encoded one block at
    /// a time; annotation encodings are untouched.
    pub(crate) fn remap_codes(&mut self, dict: &Arc<ValueDict>, translation: &[RowCode]) {
        debug_assert_eq!(self.dict.len(), translation.len());
        let mut buf: Vec<RowCode> = Vec::new();
        for blk in &mut self.blocks {
            blk.decode_keys(self.width, &mut buf);
            for c in &mut buf {
                *c = translation[*c as usize];
            }
            if self.width > 0 {
                blk.reencode_keys(self.width, &buf);
            }
        }
        self.dict = Arc::clone(dict);
    }

    /// Locates a code row: `Ok((block, row))` if present,
    /// `Err((block, row))` with the insertion position otherwise
    /// (`block == blocks.len()` means "after everything").
    fn locate(&self, codes: &[RowCode]) -> Result<(usize, usize), (usize, usize)> {
        if self.width == 0 {
            return if self.len > 0 {
                Ok((0, 0))
            } else {
                Err((0, 0))
            };
        }
        let b = self
            .blocks
            .partition_point(|blk| blk.max_row.as_slice() < codes);
        if b == self.blocks.len() {
            return Err((b, 0));
        }
        let blk = &self.blocks[b];
        let mut keys: Vec<RowCode> = Vec::new();
        blk.decode_keys(self.width, &mut keys);
        let w = self.width;
        let (mut lo, mut hi) = (0usize, blk.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match keys[mid * w..(mid + 1) * w].cmp(codes) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok((b, mid)),
            }
        }
        Err((b, lo))
    }

    /// Rewrites block `b` through `edit` (decoded keys + annotations),
    /// re-encoding the result — dropped entirely when emptied, split
    /// into [`BLOCK_ROWS`] chunks when grown past [`SPLIT_ROWS`].
    fn edit_block(&mut self, b: usize, edit: impl FnOnce(&mut Vec<RowCode>, &mut Vec<K>)) {
        let mut keys: Vec<RowCode> = Vec::new();
        let mut anns = self.blocks[b].decode_anns();
        self.blocks[b].decode_keys(self.width, &mut keys);
        edit(&mut keys, &mut anns);
        let rows = anns.len();
        let replacement: Vec<Block<K>> = if rows == 0 {
            Vec::new()
        } else if rows > SPLIT_ROWS {
            let w = self.width;
            anns.chunks(BLOCK_ROWS)
                .enumerate()
                .map(|(c, chunk)| {
                    let start = c * BLOCK_ROWS;
                    Block::encode(
                        w,
                        &keys[start * w..(start + chunk.len()) * w],
                        chunk.to_vec(),
                    )
                })
                .collect()
        } else {
            vec![Block::encode(self.width, &keys, anns)]
        };
        self.blocks.splice(b..=b, replacement);
    }

    /// The contiguous candidate block range whose rows can match the
    /// leading sort-key `prefix` (empty prefix spans every block).
    fn prefix_blocks(&self, prefix: &[RowCode]) -> (usize, usize) {
        if prefix.is_empty() || self.width == 0 {
            return (0, self.blocks.len());
        }
        let lo = self
            .blocks
            .partition_point(|b| &b.max_row[..prefix.len()] < prefix);
        let hi = self
            .blocks
            .partition_point(|b| &b.min_row[..prefix.len()] <= prefix);
        (lo, hi)
    }

    /// Approximate resident payload bytes (see
    /// [`Storage::storage_bytes`]).
    fn payload_bytes(&self) -> usize {
        self.vars.len() * std::mem::size_of::<Var>()
            + self
                .blocks
                .iter()
                .map(|b| b.payload_bytes(self.width))
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Streaming kernels
// ---------------------------------------------------------------------------

/// Folds one maximal single-column group run `anns[start..end)` keyed
/// by `code` into the open accumulator, with exactly the dense fold's
/// ⊕ order and op counts: continue the open group if the code matches,
/// otherwise flush it (pruning zeros) and seat the run leader.
#[allow(clippy::too_many_arguments)]
#[inline]
fn fold_code_run<M, K>(
    monoid: &M,
    code: RowCode,
    start: usize,
    end: usize,
    anns: &mut [K],
    acc: &mut Option<K>,
    group: &mut Vec<RowCode>,
    stats: &mut EngineStats,
    out: &mut CompressedBuilder<K>,
) where
    M: TwoMonoid<Elem = K>,
    K: CompressedAnn + Clone + PartialEq + std::fmt::Debug,
{
    match acc {
        Some(a) if group.first() == Some(&code) => {
            stats.add_ops += (end - start) as u64;
            monoid.fold_assign(a, &anns[start..end]);
        }
        _ => {
            if let Some(a) = acc.take() {
                if !monoid.is_zero(&a) {
                    out.push(group, a);
                }
            }
            let mut a = std::mem::replace(&mut anns[start], monoid.zero());
            stats.add_ops += (end - start - 1) as u64;
            monoid.fold_assign(&mut a, &anns[start + 1..end]);
            group.clear();
            group.push(code);
            *acc = Some(a);
        }
    }
}

/// Rule 1, least-significant-column case, streamed: one pass over the
/// blocks with the open group carried across block boundaries. Applies
/// ⊕ combines in exactly the order (and with exactly the counts) of
/// the dense [`super::columnar`] `fold_drop_last`, pruning zero groups
/// at flush.
fn fold_drop_last_stream<M, K>(
    monoid: &M,
    blocks: &[Block<K>],
    width: usize,
    stats: &mut EngineStats,
    out: &mut CompressedBuilder<K>,
) where
    M: TwoMonoid<Elem = K>,
    K: CompressedAnn + Clone + PartialEq + std::fmt::Debug,
{
    let nw = width - 1;
    let mut acc: Option<K> = None;
    let mut group: Vec<RowCode> = Vec::new();
    let mut keys: Vec<RowCode> = Vec::new();
    let mut anns: Vec<K> = Vec::new();
    for blk in blocks {
        let rows = blk.rows;
        // Single-prefix-column fast paths: for RLE the runs ARE the
        // groups, and for Delta the group boundaries are exactly the
        // non-zero packed deltas — either way the annotation slices
        // fold directly with no key materialisation and no run scan.
        if nw == 1 {
            match &blk.cols[0] {
                ColEnc::Rle(pairs) => {
                    blk.decode_anns_into(&mut anns);
                    let mut start = 0usize;
                    for &(code, run) in pairs {
                        let end = start + run as usize;
                        fold_code_run(
                            monoid, code, start, end, &mut anns, &mut acc, &mut group, stats, out,
                        );
                        start = end;
                    }
                    continue;
                }
                ColEnc::Delta {
                    first,
                    bits,
                    packed,
                } => {
                    blk.decode_anns_into(&mut anns);
                    let bits_n = *bits as usize;
                    let mut code = *first;
                    if bits_n == 0 {
                        // All deltas zero: one run spanning the block.
                        fold_code_run(
                            monoid, code, 0, rows, &mut anns, &mut acc, &mut group, stats, out,
                        );
                    } else {
                        let mask = (1u64 << bits_n) - 1;
                        let (mut w, mut off) = (0usize, 0usize);
                        let mut start = 0usize;
                        for i in 1..rows {
                            let mut d = packed[w] >> off;
                            if off + bits_n > 64 {
                                d |= packed[w + 1] << (64 - off);
                            }
                            let d = (d & mask) as RowCode;
                            off += bits_n;
                            if off >= 64 {
                                off -= 64;
                                w += 1;
                            }
                            if d != 0 {
                                fold_code_run(
                                    monoid, code, start, i, &mut anns, &mut acc, &mut group, stats,
                                    out,
                                );
                                code += d;
                                start = i;
                            }
                        }
                        fold_code_run(
                            monoid, code, start, rows, &mut anns, &mut acc, &mut group, stats, out,
                        );
                    }
                    continue;
                }
                ColEnc::For { .. } => {}
            }
        }
        blk.decode_prefix(nw, &mut keys);
        blk.decode_anns_into(&mut anns);
        let mut i = 0usize;
        while i < rows {
            let prefix = &keys[i * nw..(i + 1) * nw];
            // Find the end of the run of rows sharing this prefix, then
            // fold the whole run densely — the same `fold_assign` slice
            // fast path the dense columnar fold uses.
            let mut j = i + 1;
            while j < rows && keys[j * nw..(j + 1) * nw] == *prefix {
                j += 1;
            }
            match acc {
                Some(ref mut a) if group[..] == *prefix => {
                    stats.add_ops += (j - i) as u64;
                    monoid.fold_assign(a, &anns[i..j]);
                }
                _ => {
                    if let Some(a) = acc.take() {
                        if !monoid.is_zero(&a) {
                            out.push(&group, a);
                        }
                    }
                    // Move the run leader out (the zero placeholder is
                    // never read again) and fold the rest onto it.
                    let mut a = std::mem::replace(&mut anns[i], monoid.zero());
                    stats.add_ops += (j - i - 1) as u64;
                    monoid.fold_assign(&mut a, &anns[i + 1..j]);
                    group.clear();
                    group.extend_from_slice(prefix);
                    acc = Some(a);
                }
            }
            i = j;
        }
    }
    if let Some(a) = acc.take() {
        if !monoid.is_zero(&a) {
            out.push(&group, a);
        }
    }
}

/// Rule 1, general-column case, streamed as an external sort: decode
/// [`RUN_BLOCKS`] blocks at a time, project the column away, stable
/// in-run argsort (ties keep original row order), re-encode each run
/// compressed, then k-way-merge the runs through block cursors with
/// the grouped ⊕-fold inlined. Run boundaries follow original row
/// order and heap ties break on run index, so the merged sequence is
/// exactly the global stable sort — the dense backend's fold order.
fn project_general<M, K>(
    monoid: &M,
    blocks: &[Block<K>],
    width: usize,
    pos: usize,
    stats: &mut EngineStats,
    out: &mut CompressedBuilder<K>,
) where
    M: TwoMonoid<Elem = K>,
    K: CompressedAnn + Clone + PartialEq + std::fmt::Debug,
{
    let nw = width - 1;
    let mut runs: Vec<(usize, Vec<Block<K>>)> = Vec::new();
    let mut keys: Vec<RowCode> = Vec::new();
    for chunk in blocks.chunks(RUN_BLOCKS) {
        let mut scratch: Vec<RowCode> = Vec::new();
        let mut anns: Vec<Option<K>> = Vec::new();
        for blk in chunk {
            blk.decode_keys(width, &mut keys);
            for i in 0..blk.rows {
                let row = &keys[i * width..(i + 1) * width];
                for (j, &c) in row.iter().enumerate() {
                    if j != pos {
                        scratch.push(c);
                    }
                }
            }
            anns.extend(blk.decode_anns().into_iter().map(Some));
        }
        let n = anns.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            scratch[a * nw..(a + 1) * nw].cmp(&scratch[b * nw..(b + 1) * nw])
        });
        let mut rb = CompressedBuilder::new(nw);
        for &i in &order {
            let i = i as usize;
            rb.push(
                &scratch[i * nw..(i + 1) * nw],
                anns[i].take().expect("each row moved once"),
            );
        }
        runs.push(rb.into_blocks());
    }
    let mut cursors: Vec<Cursor<'_, K>> = runs.iter().map(|(_, r)| Cursor::new(r, nw)).collect();
    let mut heap: BinaryHeap<Reverse<(Vec<RowCode>, usize)>> = BinaryHeap::new();
    for (r, c) in cursors.iter_mut().enumerate() {
        if !c.is_done() {
            heap.push(Reverse((c.key().to_vec(), r)));
        }
    }
    let mut cur: Option<(Vec<RowCode>, K)> = None;
    while let Some(Reverse((key, r))) = heap.pop() {
        let ann = cursors[r].ann();
        cursors[r].advance();
        if !cursors[r].is_done() {
            heap.push(Reverse((cursors[r].key().to_vec(), r)));
        }
        match cur {
            Some((ref g, ref mut acc)) if *g == key => {
                stats.add_ops += 1;
                monoid.add_assign(acc, &ann);
            }
            _ => {
                if let Some((g, acc)) = cur.take() {
                    if !monoid.is_zero(&acc) {
                        out.push(&g, acc);
                    }
                }
                cur = Some((key, ann));
            }
        }
    }
    if let Some((g, acc)) = cur.take() {
        if !monoid.is_zero(&acc) {
            out.push(&g, acc);
        }
    }
}

/// Rule 2, streamed: the linear two-pointer sort-merge outer join of
/// the dense backend's `merge_ranges`, driven through block cursors.
/// For annihilating monoids, a block whose max row is below the other
/// side's current row cannot contain a both-sided key, so it is
/// skipped without decoding — exactly the rows the dense merge would
/// step over one by one with no ⊗ counted and no output.
fn merge_stream<M, K>(
    monoid: &M,
    left: &[Block<K>],
    right: &[Block<K>],
    width: usize,
    stats: &mut EngineStats,
    out: &mut CompressedBuilder<K>,
) where
    M: TwoMonoid<Elem = K>,
    K: CompressedAnn + Clone + PartialEq + std::fmt::Debug,
{
    let zero = monoid.zero();
    let annihilating = monoid.annihilating();
    let mut l = Cursor::new(left, width);
    let mut r = Cursor::new(right, width);
    while !l.is_done() && !r.is_done() {
        if annihilating {
            if l.block_max() < r.key() {
                l.skip_block();
                continue;
            }
            if r.block_max() < l.key() {
                r.skip_block();
                continue;
            }
        }
        // Both current blocks overlap: decode once and run the
        // two-pointer loop over the scratch slices directly — no
        // per-row cursor dispatch on the hot path.
        l.ensure_decoded();
        r.ensure_decoded();
        let lrows = l.blocks[l.block].rows;
        let rrows = r.blocks[r.block].rows;
        let (mut li, mut ri) = (l.row, r.row);
        // Pass-through fast path: under an annihilating monoid, when a
        // whole left block survives the merge intact (every row matched
        // with a non-zero product), its already-encoded key columns are
        // reused verbatim and only the annotations are re-encoded.
        if annihilating && li == 0 && out.buffer_is_empty() {
            let mut prods: Vec<K> = Vec::with_capacity(lrows);
            let (mut fi, mut fj) = (0usize, ri);
            let mut intact = true;
            while fi < lrows && fj < rrows {
                let lk = &l.keys[fi * width..(fi + 1) * width];
                let rk = &r.keys[fj * width..(fj + 1) * width];
                match lk.cmp(rk) {
                    Ordering::Equal => {
                        stats.mul_ops += 1;
                        let v = monoid.mul(&l.anns[fi], &r.anns[fj]);
                        fi += 1;
                        fj += 1;
                        if monoid.is_zero(&v) {
                            intact = false;
                            break;
                        }
                        prods.push(v);
                    }
                    Ordering::Less => {
                        fi += 1;
                        intact = false;
                        break;
                    }
                    Ordering::Greater => fj += 1,
                }
            }
            if intact && fi >= lrows {
                out.push_passthrough(&l.blocks[l.block], prods);
                l.skip_block();
                r.row = fj;
                if fj >= rrows {
                    r.skip_block();
                }
                continue;
            }
            // Partial attempt: the first `prods.len()` left rows all
            // matched with non-zero products — replay them through the
            // row path, then resume the general loop where it stopped.
            for (k, v) in prods.into_iter().enumerate() {
                out.push(&l.keys[k * width..(k + 1) * width], v);
            }
            li = fi;
            ri = fj;
        }
        while li < lrows && ri < rrows {
            let lk = &l.keys[li * width..(li + 1) * width];
            let rk = &r.keys[ri * width..(ri + 1) * width];
            match lk.cmp(rk) {
                Ordering::Equal => {
                    stats.mul_ops += 1;
                    let v = monoid.mul(&l.anns[li], &r.anns[ri]);
                    if !monoid.is_zero(&v) {
                        out.push(lk, v);
                    }
                    li += 1;
                    ri += 1;
                }
                Ordering::Less => {
                    if !annihilating {
                        stats.mul_ops += 1;
                        let v = monoid.mul(&l.anns[li], &zero);
                        if !monoid.is_zero(&v) {
                            out.push(lk, v);
                        }
                    }
                    li += 1;
                }
                Ordering::Greater => {
                    if !annihilating {
                        stats.mul_ops += 1;
                        let v = monoid.mul(&zero, &r.anns[ri]);
                        if !monoid.is_zero(&v) {
                            out.push(rk, v);
                        }
                    }
                    ri += 1;
                }
            }
        }
        l.row = li;
        r.row = ri;
        if li >= lrows {
            l.skip_block();
        }
        if ri >= rrows {
            r.skip_block();
        }
    }
    if !annihilating {
        while !l.is_done() {
            stats.mul_ops += 1;
            let a = l.ann();
            let v = monoid.mul(&a, &zero);
            if !monoid.is_zero(&v) {
                out.push(l.key(), v);
            }
            l.advance();
        }
        while !r.is_done() {
            stats.mul_ops += 1;
            let b = r.ann();
            let v = monoid.mul(&zero, &b);
            if !monoid.is_zero(&v) {
                out.push(r.key(), v);
            }
            r.advance();
        }
    }
}

// ---------------------------------------------------------------------------
// Storage impl
// ---------------------------------------------------------------------------

impl<K> Storage for CompressedColumnar<K>
where
    K: CompressedAnn + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    type Ann = K;
    /// Same native key as the dense columnar layout: a dictionary code
    /// row, comparable across every relation sharing the instance
    /// dictionary.
    type Key = Vec<RowCode>;

    fn build_slots(slots: Vec<OwnedSlot<K>>) -> Result<Vec<Self>, DuplicateRow> {
        // Reuse the dense build (instance-wide dictionary, scatter
        // encode, duplicate detection), then compress block by block —
        // the dense matrix of each slot is transient.
        Ok(ColumnarRelation::build_slots(slots)?
            .into_iter()
            .map(Self::from_columnar)
            .collect())
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
        _par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self {
        let pos = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("projected variable must be in the relation schema");
        let CompressedColumnar {
            mut vars,
            width,
            len: _,
            dict,
            blocks,
        } = self;
        vars.remove(pos);
        let mut out = CompressedBuilder::new(width - 1);
        if pos == width - 1 {
            fold_drop_last_stream(monoid, &blocks, width, stats, &mut out);
        } else {
            project_general(monoid, &blocks, width, pos, stats, &mut out);
        }
        out.finish(vars, dict)
    }

    fn merge<M: TwoMonoid<Elem = K>>(
        self,
        monoid: &M,
        right: Self,
        _par: Parallelism,
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
        let mut out = CompressedBuilder::new(self.width);
        merge_stream(
            monoid,
            &self.blocks,
            &right.blocks,
            self.width,
            stats,
            &mut out,
        );
        out.finish(self.vars, self.dict)
    }

    fn nullary_value<M: TwoMonoid<Elem = K>>(&self, monoid: &M) -> K {
        if self.width == 0 && self.len > 0 {
            debug_assert_eq!(self.len, 1, "nullary support is at most one row");
            self.blocks[0].ann_at(0)
        } else {
            monoid.zero()
        }
    }

    fn rows(&self) -> Vec<(Tuple, K)> {
        let mut out = Vec::with_capacity(self.len);
        let mut keys: Vec<RowCode> = Vec::new();
        for blk in &self.blocks {
            blk.decode_keys(self.width, &mut keys);
            for (i, ann) in blk.decode_anns().into_iter().enumerate() {
                out.push((
                    self.dict
                        .decode(&keys[i * self.width..(i + 1) * self.width]),
                    ann,
                ));
            }
        }
        out
    }

    fn set(&mut self, key: &Tuple, value: Option<K>) {
        let mut codes = Vec::with_capacity(self.width);
        if !self.dict.encode_into(key, &mut codes) {
            if value.is_none() {
                return;
            }
            // Novel domain value: extend the shared dictionary and
            // remap every block through the order-preserving
            // translation (see the dense backend's `set`).
            let (dict, translation) = self.dict.extend_with(key.values().iter().copied());
            let dict = Arc::new(dict);
            self.remap_codes(&dict, &translation);
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
        self.locate(key).ok().map(|(b, r)| self.blocks[b].ann_at(r))
    }

    fn set_key(&mut self, codes: &Vec<RowCode>, value: Option<K>) {
        let w = self.width;
        match (self.locate(codes), value) {
            (Ok((b, r)), Some(v)) => {
                self.edit_block(b, |_, anns| anns[r] = v);
            }
            (Ok((b, r)), None) => {
                self.edit_block(b, |keys, anns| {
                    keys.drain(r * w..(r + 1) * w);
                    anns.remove(r);
                });
                self.len -= 1;
            }
            (Err((b, r)), Some(v)) => {
                if self.blocks.is_empty() {
                    self.blocks.push(Block::encode(w, codes, vec![v]));
                } else {
                    // Past-the-end insertions land at the tail of the
                    // last block instead of opening a new one.
                    let (b, r) = if b == self.blocks.len() {
                        (b - 1, self.blocks[b - 1].rows)
                    } else {
                        (b, r)
                    };
                    self.edit_block(b, |keys, anns| {
                        keys.splice(r * w..r * w, codes.iter().copied());
                        anns.insert(r, v);
                    });
                }
                self.len += 1;
            }
            (Err(_), None) => {}
        }
    }

    fn group_rows_key(&self, keep: &[usize], codes: &Vec<RowCode>) -> Vec<K> {
        debug_assert_eq!(keep.len(), codes.len());
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        // Leading literal run of `keep` = a sort-key prefix: min/max
        // headers binary-search straight to the candidate blocks, and
        // only those are decoded.
        let lead = keep
            .iter()
            .enumerate()
            .take_while(|&(i, &p)| i == p)
            .count();
        let prefix = &codes[..lead.min(self.width)];
        let (lo, hi) = self.prefix_blocks(prefix);
        let mut out = Vec::new();
        let mut keys: Vec<RowCode> = Vec::new();
        for blk in &self.blocks[lo..hi] {
            blk.decode_keys(self.width, &mut keys);
            for i in 0..blk.rows {
                let row = &keys[i * self.width..(i + 1) * self.width];
                if &row[..prefix.len()] == prefix
                    && keep[lead..]
                        .iter()
                        .zip(&codes[lead..])
                        .all(|(&p, &c)| row[p] == c)
                {
                    out.push(blk.ann_at(i));
                }
            }
        }
        out
    }

    fn storage_bytes(&self) -> usize {
        self.payload_bytes()
    }
}

// ---------------------------------------------------------------------------
// Spill serialisation
// ---------------------------------------------------------------------------

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(input: &mut &[u8]) -> Option<u32> {
    let (head, rest) = input.split_first_chunk::<4>()?;
    *input = rest;
    Some(u32::from_le_bytes(*head))
}

fn read_u64(input: &mut &[u8]) -> Option<u64> {
    let (head, rest) = input.split_first_chunk::<8>()?;
    *input = rest;
    Some(u64::from_le_bytes(*head))
}

fn write_packed(out: &mut Vec<u8>, bits: u8, packed: &[u64]) {
    out.push(bits);
    write_u32(out, packed.len() as u32);
    for &w in packed {
        write_u64(out, w);
    }
}

fn read_packed(input: &mut &[u8]) -> Option<(u8, Vec<u64>)> {
    let (&bits, rest) = input.split_first()?;
    *input = rest;
    let words = read_u32(input)? as usize;
    let mut packed = Vec::with_capacity(words);
    for _ in 0..words {
        packed.push(read_u64(input)?);
    }
    Some((bits, packed))
}

impl<K: CompressedAnn + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static>
    CompressedColumnar<K>
{
    /// Serialises the blocks (not the dictionary — it is shared and
    /// stays resident) for the serving layer's spill-on-evict segment
    /// file. Only meaningful when `K::SPILLABLE`.
    pub(crate) fn spill_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_u32(&mut out, self.width as u32);
        write_u64(&mut out, self.len as u64);
        write_u32(&mut out, self.vars.len() as u32);
        for v in &self.vars {
            write_u64(&mut out, v.0 as u64);
        }
        write_u32(&mut out, self.blocks.len() as u32);
        for blk in &self.blocks {
            write_u32(&mut out, blk.rows as u32);
            for &c in blk.min_row.iter().chain(&blk.max_row) {
                write_u32(&mut out, c);
            }
            for col in &blk.cols {
                match col {
                    ColEnc::Rle(pairs) => {
                        out.push(0);
                        write_u32(&mut out, pairs.len() as u32);
                        for &(code, run) in pairs {
                            write_u32(&mut out, code);
                            write_u32(&mut out, run);
                        }
                    }
                    ColEnc::For { min, bits, packed } => {
                        out.push(1);
                        write_u32(&mut out, *min);
                        write_packed(&mut out, *bits, packed);
                    }
                    ColEnc::Delta {
                        first,
                        bits,
                        packed,
                    } => {
                        out.push(2);
                        write_u32(&mut out, *first);
                        write_packed(&mut out, *bits, packed);
                    }
                }
            }
            match &blk.anns {
                AnnEnc::Dense(v) => {
                    out.push(0);
                    write_u32(&mut out, v.len() as u32);
                    for a in v {
                        a.write_bytes(&mut out);
                    }
                }
                AnnEnc::Dict {
                    values,
                    bits,
                    packed,
                } => {
                    out.push(1);
                    out.push(values.len() as u8);
                    for a in values {
                        a.write_bytes(&mut out);
                    }
                    write_packed(&mut out, *bits, packed);
                }
            }
        }
        out
    }

    /// Rebuilds a relation from [`CompressedColumnar::spill_bytes`]
    /// output plus the (still resident, unextended) shared dictionary.
    /// Returns `None` on malformed input.
    pub(crate) fn from_spill(mut input: &[u8], dict: Arc<ValueDict>) -> Option<Self> {
        let input = &mut input;
        let width = read_u32(input)? as usize;
        let len = read_u64(input)? as usize;
        let nvars = read_u32(input)? as usize;
        if nvars != width {
            return None;
        }
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            vars.push(Var(read_u64(input)? as usize));
        }
        let nblocks = read_u32(input)? as usize;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let rows = read_u32(input)? as usize;
            let mut min_row = Vec::with_capacity(width);
            for _ in 0..width {
                min_row.push(read_u32(input)?);
            }
            let mut max_row = Vec::with_capacity(width);
            for _ in 0..width {
                max_row.push(read_u32(input)?);
            }
            let mut cols = Vec::with_capacity(width);
            for _ in 0..width {
                let (&tag, rest) = input.split_first()?;
                *input = rest;
                cols.push(match tag {
                    0 => {
                        let runs = read_u32(input)? as usize;
                        let mut pairs = Vec::with_capacity(runs);
                        for _ in 0..runs {
                            let code = read_u32(input)?;
                            let run = read_u32(input)?;
                            pairs.push((code, run));
                        }
                        ColEnc::Rle(pairs)
                    }
                    1 => {
                        let min = read_u32(input)?;
                        let (bits, packed) = read_packed(input)?;
                        ColEnc::For { min, bits, packed }
                    }
                    2 => {
                        let first = read_u32(input)?;
                        let (bits, packed) = read_packed(input)?;
                        ColEnc::Delta {
                            first,
                            bits,
                            packed,
                        }
                    }
                    _ => return None,
                });
            }
            let (&tag, rest) = input.split_first()?;
            *input = rest;
            let anns = match tag {
                0 => {
                    let count = read_u32(input)? as usize;
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(K::read_bytes(input)?);
                    }
                    AnnEnc::Dense(v)
                }
                1 => {
                    let (&count, rest) = input.split_first()?;
                    *input = rest;
                    let mut values = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        values.push(K::read_bytes(input)?);
                    }
                    let (bits, packed) = read_packed(input)?;
                    AnnEnc::Dict {
                        values,
                        bits,
                        packed,
                    }
                }
                _ => return None,
            };
            blocks.push(Block {
                rows,
                min_row,
                max_row,
                cols,
                anns,
            });
        }
        Some(CompressedColumnar {
            vars,
            width,
            len,
            dict,
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_monoid::{CountMonoid, ProbMonoid};

    fn rel(vars: &[usize], rows: &[(&[i64], u64)]) -> CompressedColumnar<u64> {
        CompressedColumnar::build_slots(vec![(
            vars.iter().map(|&v| Var(v)).collect(),
            rows.iter().map(|&(t, k)| (Tuple::ints(t), k)).collect(),
        )])
        .unwrap()
        .pop()
        .unwrap()
    }

    fn dense(vars: &[usize], rows: &[(&[i64], u64)]) -> ColumnarRelation<u64> {
        ColumnarRelation::build_slots(vec![(
            vars.iter().map(|&v| Var(v)).collect(),
            rows.iter().map(|&(t, k)| (Tuple::ints(t), k)).collect(),
        )])
        .unwrap()
        .pop()
        .unwrap()
    }

    #[test]
    fn bitpack_roundtrips_across_word_boundaries() {
        for bits in [1u8, 3, 7, 13, 17, 31, 32] {
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let vals: Vec<u32> = (0..1000u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let packed = pack_values(vals.iter().copied(), vals.len(), bits);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(unpack_value(&packed, bits, i), v, "bits {bits} idx {i}");
            }
        }
    }

    #[test]
    fn encodings_roundtrip_and_pick_sensibly() {
        // Constant column → RLE with one run.
        let c = encode_col(&[7; 100]);
        assert!(matches!(&c, ColEnc::Rle(p) if p.len() == 1));
        // Strictly increasing by 1 → delta with 1-bit deltas.
        let inc: Vec<RowCode> = (0..100).collect();
        let d = encode_col(&inc);
        assert!(matches!(d, ColEnc::Delta { bits: 1, .. }), "{d:?}");
        // All-distinct unsorted (RLE-pathological) still roundtrips.
        let wild: Vec<RowCode> = (0..100u32)
            .map(|i| i.wrapping_mul(2654435761) >> 8)
            .collect();
        for col in [&vec![7; 100], &inc, &wild] {
            let enc = encode_col(col);
            let mut back = Vec::new();
            decode_col(&enc, col.len(), &mut back);
            assert_eq!(&back, col);
        }
    }

    #[test]
    fn ann_dict_distinguishes_negative_zero() {
        let anns: Vec<f64> = vec![0.0, -0.0, 0.0, -0.0];
        let enc = encode_anns(anns.clone());
        let AnnEnc::Dict {
            values,
            bits,
            packed,
        } = &enc
        else {
            panic!("two exact-distinct values should dictionary-encode");
        };
        assert_eq!(values.len(), 2);
        for (i, a) in anns.iter().enumerate() {
            let back = values[unpack_value(packed, *bits, i) as usize];
            assert_eq!(back.to_bits(), a.to_bits(), "idx {i}");
        }
    }

    #[test]
    fn roundtrips_through_dense_columnar() {
        let rows: Vec<(Vec<i64>, u64)> = (0..10_000i64)
            .map(|i| (vec![i / 16, i % 16], (i % 7) as u64 + 1))
            .collect();
        let rows_ref: Vec<(&[i64], u64)> = rows.iter().map(|(t, k)| (t.as_slice(), *k)).collect();
        let c = rel(&[0, 1], &rows_ref);
        let d = dense(&[0, 1], &rows_ref);
        assert_eq!(c.support_size(), d.support_size());
        assert_eq!(c.to_columnar(), d);
        assert!(c.storage_bytes() < d.storage_bytes());
    }

    #[test]
    fn projections_match_dense_exactly() {
        let rows: Vec<(Vec<i64>, u64)> = (0..5000i64)
            .map(|i| (vec![i % 40, i / 40, i % 11], (i % 5) as u64 + 1))
            .collect();
        let rows_ref: Vec<(&[i64], u64)> = rows.iter().map(|(t, k)| (t.as_slice(), *k)).collect();
        for var in [0usize, 1, 2] {
            let c = rel(&[0, 1, 2], &rows_ref);
            let d = dense(&[0, 1, 2], &rows_ref);
            let mut sc = EngineStats::default();
            let mut sd = EngineStats::default();
            let pc = c.project_out(&CountMonoid, Var(var), Parallelism::default(), &mut sc);
            let pd = d.project_out(&CountMonoid, Var(var), Parallelism::default(), &mut sd);
            assert_eq!(pc.to_columnar(), pd, "var {var}");
            assert_eq!(sc.add_ops, sd.add_ops, "var {var}");
        }
    }

    #[test]
    fn merge_matches_dense_and_skips_blocks() {
        // Disjoint key ranges big enough to span multiple blocks: the
        // annihilating merge must still agree with dense exactly.
        let build = || -> Vec<OwnedSlot<u64>> {
            vec![
                (
                    vec![Var(0)],
                    (0..9000i64).map(|i| (Tuple::ints(&[i]), 2)).collect(),
                ),
                (
                    vec![Var(0)],
                    (8000..17_000i64).map(|i| (Tuple::ints(&[i]), 3)).collect(),
                ),
            ]
        };
        let mut cs = CompressedColumnar::<u64>::build_slots(build()).unwrap();
        let mut ds = ColumnarRelation::<u64>::build_slots(build()).unwrap();
        let (cr, cl) = (cs.pop().unwrap(), cs.pop().unwrap());
        let (dr, dl) = (ds.pop().unwrap(), ds.pop().unwrap());
        let mut sc = EngineStats::default();
        let mut sd = EngineStats::default();
        let mc = cl.merge(&CountMonoid, cr, Parallelism::default(), &mut sc);
        let md = dl.merge(&CountMonoid, dr, Parallelism::default(), &mut sd);
        assert_eq!(mc.to_columnar(), md);
        assert_eq!(sc.mul_ops, sd.mul_ops);
        assert_eq!(mc.support_size(), 1000);
    }

    #[test]
    fn point_ops_and_group_rows_agree_with_dense() {
        let rows: Vec<(Vec<i64>, u64)> = (0..6000i64)
            .map(|i| (vec![i / 8, i % 8], 1 + (i % 3) as u64))
            .collect();
        let rows_ref: Vec<(&[i64], u64)> = rows.iter().map(|(t, k)| (t.as_slice(), *k)).collect();
        let mut c = rel(&[0, 1], &rows_ref);
        let mut d = dense(&[0, 1], &rows_ref);
        assert_eq!(c.get(&Tuple::ints(&[5, 3])), d.get(&Tuple::ints(&[5, 3])));
        c.set(&Tuple::ints(&[5, 3]), Some(42));
        d.set(&Tuple::ints(&[5, 3]), Some(42));
        c.set(&Tuple::ints(&[6, 2]), None);
        d.set(&Tuple::ints(&[6, 2]), None);
        c.set(&Tuple::ints(&[9999, 17]), Some(7)); // novel values
        d.set(&Tuple::ints(&[9999, 17]), Some(7));
        assert_eq!(c.to_columnar(), d);
        assert_eq!(
            c.group_rows(&[0], &Tuple::ints(&[5])),
            d.group_rows(&[0], &Tuple::ints(&[5]))
        );
        assert_eq!(
            c.group_rows(&[1], &Tuple::ints(&[3])),
            d.group_rows(&[1], &Tuple::ints(&[3]))
        );
    }

    #[test]
    fn nullary_projection_and_value() {
        let r = rel(&[3], &[(&[1], 2), (&[2], 3), (&[9], 4)]);
        let mut stats = EngineStats::default();
        let out = r.project_out(&CountMonoid, Var(3), Parallelism::default(), &mut stats);
        assert_eq!(out.support_size(), 1);
        assert_eq!(out.nullary_value(&CountMonoid), 9);
        assert_eq!(stats.add_ops, 2);
    }

    #[test]
    fn zero_prune_uses_exact_monoid_predicate() {
        let r = CompressedColumnar::build_slots(vec![(
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
        assert_eq!(out.support_size(), 1);
    }

    #[test]
    fn spill_roundtrip_is_exact() {
        let rows: Vec<(Vec<i64>, u64)> = (0..10_000i64)
            .map(|i| (vec![i / 3, i % 3], (i % 4) as u64))
            .collect();
        let rows_ref: Vec<(&[i64], u64)> = rows.iter().map(|(t, k)| (t.as_slice(), *k)).collect();
        let c = rel(&[0, 1], &rows_ref);
        let bytes = c.spill_bytes();
        let back = CompressedColumnar::<u64>::from_spill(&bytes, Arc::clone(&c.dict)).unwrap();
        assert_eq!(back, c);
        // Truncated input must fail cleanly, not panic.
        assert!(CompressedColumnar::<u64>::from_spill(
            &bytes[..bytes.len() / 2],
            Arc::clone(&c.dict)
        )
        .is_none());
    }
}
