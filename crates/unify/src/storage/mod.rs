//! Pluggable storage for K-annotated relations.
//!
//! Algorithm 1 only ever performs two relation-level operations — the
//! Rule 1 ⊕-aggregating projection and the Rule 2 ⊗-outer-join on
//! identical variable sets — plus support-size accounting and the final
//! nullary read-out. [`Storage`] captures exactly that contract, so the
//! engine, the serving sessions' delta patches, and every front-end are generic
//! over the physical layout:
//!
//! * [`MapRelation`] — the ordered-map backend (`BTreeMap<Tuple, K>`),
//!   kept as the deterministic differential oracle and for workloads
//!   dominated by point updates;
//! * [`ColumnarRelation`] — the columnar backend: one dense, sorted
//!   row-major matrix of dictionary codes plus a parallel annotation
//!   column. Rule 1 is a single-pass grouped fold, Rule 2 a linear
//!   sort-merge outer join; no per-tuple allocation on the hot path.
//!   Both rules take the run's [`Parallelism`] degree: when it yields
//!   more than one shard, the sorted matrices are cut into contiguous
//!   shards on key/group boundaries and each shard runs the sequential
//!   kernel on the persistent worker [`pool`](crate::pool),
//!   recombining in fixed shard order.
//! * [`CompressedColumnar`] — the columnar matrices block-compressed,
//!   with streaming sequential kernels.
//!
//! All backends — and every thread count — perform **the same ⊕/⊗
//! applications in the same order**, so results (including
//! floating-point ones) are bit-identical and `EngineStats` agree
//! exactly — the property the `differential_backends` and
//! `differential_parallel` suites pin down. [`Exec`] bundles the two
//! run-time choices, layout and degree, that every front end takes.
//!
//! [`BaseDb`] holds the annotated base facts of the serving layers
//! already dictionary-encoded, and [`EncodedDb`] caches a set
//! database's encoding for fresh evaluation, so repeated queries over
//! one database skip the columnar build's dominant cost.

mod columnar;
mod compressed;
mod encoded;
mod map;

pub use columnar::{BorrowedSlot, ColumnarRelation};
pub use compressed::{CompressedAnn, CompressedBuilder, CompressedColumnar};
pub use encoded::{BaseDb, EncodedDb, RefreshOutcome};
pub use map::MapRelation;

use crate::engine::EngineStats;
use hq_db::Tuple;
use hq_monoid::TwoMonoid;
use hq_query::Var;
use std::fmt;
use std::str::FromStr;

/// The physical layout of the annotated relations in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Ordered-map backend (`BTreeMap<Tuple, K>` per relation).
    Map,
    /// Columnar backend (sorted code matrix + annotation column).
    #[default]
    Columnar,
    /// Compressed columnar backend (bit-packed/RLE sorted blocks with
    /// streaming kernels — see [`CompressedColumnar`]).
    Compressed,
}

impl Backend {
    /// All backends, for exhaustive differential sweeps.
    pub const ALL: [Backend; 3] = [Backend::Map, Backend::Columnar, Backend::Compressed];
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Map => write!(f, "map"),
            Backend::Columnar => write!(f, "columnar"),
            Backend::Compressed => write!(f, "compressed"),
        }
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "map" => Ok(Backend::Map),
            "columnar" => Ok(Backend::Columnar),
            "compressed" => Ok(Backend::Compressed),
            other => Err(format!(
                "unknown backend '{other}' (expected 'map', 'columnar' or 'compressed')"
            )),
        }
    }
}

/// The degree of intra-query parallelism for one run: how many worker
/// threads each Rule 1 fold / Rule 2 merge may fan out over.
///
/// Parallelism is orthogonal to the [`Backend`] layout choice and is
/// passed to every rule application ([`Storage::project_out`],
/// [`Storage::merge`]): the columnar layout shards, the ordered-map
/// and compressed layouts ignore the knob. `threads == 1` is exactly
/// the sequential engine, and every thread count produces
/// **bit-identical results and identical [`EngineStats`]** — shard
/// boundaries are chosen on key boundaries and shard outputs (and
/// per-shard op counts) are concatenated/summed in fixed shard order,
/// so the global ⊕/⊗ application sequence never depends on scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
    /// Minimum rows a shard must carry before fanning out; relations
    /// below `2 × min_shard_rows` run sequentially, so parallel mode
    /// never pessimizes small folds/merges with scheduling overhead.
    min_shard_rows: usize,
}

/// Default work-size floor per shard: submitting, waking and joining
/// pool tasks costs microseconds while the kernels process a row in
/// well under a microsecond, so shards below a few thousand rows lose
/// more to scheduling than they gain.
const DEFAULT_MIN_SHARD_ROWS: usize = 4096;

impl Parallelism {
    /// A parallelism degree of `threads` (clamped up to 1), with the
    /// default work-size floor.
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            min_shard_rows: DEFAULT_MIN_SHARD_ROWS,
        }
    }

    /// A degree that shards any relation with at least two rows,
    /// ignoring the work-size floor. Sharding tiny inputs costs far
    /// more in thread spawns than it saves, so this exists for tests
    /// and diagnostics that must exercise the shard paths on small
    /// data — production callers want [`Parallelism::new`].
    pub fn fine_grained(threads: usize) -> Self {
        Parallelism {
            threads: threads.max(1),
            min_shard_rows: 1,
        }
    }

    /// Sequential execution (the default).
    pub const fn sequential() -> Self {
        Parallelism {
            threads: 1,
            min_shard_rows: DEFAULT_MIN_SHARD_ROWS,
        }
    }

    /// One worker per hardware thread reported by the OS (1 if the
    /// query fails).
    pub fn available() -> Self {
        Parallelism::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Whether more than one worker may be used.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// The work-size floor: minimum rows per shard.
    pub fn min_shard_rows(&self) -> usize {
        self.min_shard_rows.max(1)
    }

    /// Resolves this degree to the shared persistent worker pool,
    /// spawning any workers still missing for it (none, once warmed —
    /// after this call no rule application at this degree ever spawns
    /// a thread again). Sequential degrees are a no-op. Returns the
    /// resolved pool handle for introspection.
    pub fn warm_pool(&self) -> &'static crate::pool::WorkerPool {
        let pool = crate::pool::global();
        if self.is_parallel() {
            pool.ensure_capacity(self.threads);
        }
        pool
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.threads)
    }
}

impl FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "max" {
            return Ok(Parallelism::available());
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Parallelism::new(n)),
            _ => Err(format!(
                "invalid thread count '{s}' (expected a positive integer or 'max')"
            )),
        }
    }
}

/// How one run executes: the storage layout and the degree of
/// intra-query parallelism. The engine and the PQE, BSM and Shapley
/// front ends take it in their `*_on` entry points
/// ([`crate::engine::evaluate_on`], [`crate::pqe::probability_on`],
/// [`crate::bsm::maximize_on`], …); the fixpoint entry points take a
/// bare [`Backend`], as their kernel is sequential.
///
/// The default is the ordered-map oracle, run sequentially — what the
/// plain entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exec {
    /// The physical layout of the annotated relations.
    pub backend: Backend,
    /// The degree each rule application may fan out over.
    pub par: Parallelism,
}

impl Exec {
    /// `backend` at degree `par`.
    pub fn new(backend: Backend, par: Parallelism) -> Self {
        Exec { backend, par }
    }
}

impl Default for Exec {
    fn default() -> Self {
        Exec::new(Backend::Map, Parallelism::sequential())
    }
}

impl From<Backend> for Exec {
    /// `backend`, run sequentially.
    fn from(backend: Backend) -> Self {
        Exec::new(backend, Parallelism::sequential())
    }
}

/// A duplicate key found while building storage: the slot index and
/// the offending key (in sorted-var order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateRow {
    /// Index of the slot (query atom) holding the duplicate.
    pub slot: usize,
    /// The duplicated key, in ascending variable-id column order.
    pub key: Tuple,
}

/// One slot of input to [`Storage::build_slots`]: the sorted schema
/// plus owned rows keyed in that column order.
pub type OwnedSlot<K> = (Vec<Var>, Vec<(Tuple, K)>);

/// A K-annotated relation layout the engine can run Algorithm 1 over.
///
/// Implementations store the *support* only (annotation ≠ 0 under the
/// monoid's [`TwoMonoid::is_zero`]) with rows keyed in ascending
/// variable-id order, and must apply ⊕/⊗ in ascending key order so that
/// all backends produce bit-identical results.
///
/// Both rules take the run's [`Parallelism`] degree. The carrier is
/// `Send + 'static` and monoids clone into `'static` task closures, so
/// that a backend (the columnar layout) can fan Rule 1/Rule 2 out over
/// the persistent worker [`crate::pool`]; a backend may also ignore
/// the degree and run sequentially.
/// Every carrier and monoid in the workspace is a plain owned value
/// (no interior mutability, no borrows), so these bounds cost nothing.
pub trait Storage: Clone + fmt::Debug + Sized {
    /// The annotation carrier `K`.
    type Ann: Clone + PartialEq + fmt::Debug + Send + Sync + 'static;

    /// The backend-native row key of the serving sessions' delta
    /// patches: [`Tuple`] on the ordered-map oracle, a dictionary code
    /// row (`Vec<RowCode>`) on the columnar layouts — so the dirty walk
    /// compares/projects 4-byte codes instead of decoding and
    /// re-encoding boxed tuples at every probe.
    ///
    /// Code keys are only meaningful while every relation they flow
    /// between shares one dictionary *content*. The build paths
    /// establish this (one instance-wide dictionary), and a session
    /// extends it for novel domain values once per update batch,
    /// translating every cached relation through the same code map
    /// before encoding keys (which keeps [`Storage::set_key`]
    /// extension-free).
    type Key: Ord + Clone + fmt::Debug;

    /// Builds one relation per `(vars, rows)` slot. `rows` are keyed in
    /// `vars` order but arrive in **arbitrary order**: the backend owns
    /// sorting (in its own key representation — much cheaper than a
    /// tuple sort for the columnar layout, and adaptive-linear for
    /// presorted input everywhere) and rejects duplicate keys. Slots
    /// are built together so backends may share instance-wide
    /// structures (e.g. the value dictionary).
    ///
    /// # Errors
    /// Returns the first [`DuplicateRow`] encountered.
    fn build_slots(slots: Vec<OwnedSlot<Self::Ann>>) -> Result<Vec<Self>, DuplicateRow>;

    /// The schema: variable ids in ascending order.
    fn vars(&self) -> &[Var];

    /// Support size `|supp(R)|` (Definition 6.5).
    fn support_size(&self) -> usize;

    /// Rule 1: `R'(x̄') = ⊕_y R(x̄', y)` over the support, pruning
    /// zeros. Counts one ⊕ per combine into an existing group. `par`
    /// bounds the fan-out; the result is identical at every degree.
    ///
    /// # Panics
    /// Panics if `var` is not in the schema.
    fn project_out<M: TwoMonoid<Elem = Self::Ann>>(
        self,
        monoid: &M,
        var: Var,
        par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self;

    /// Rule 2: `R'(x̄) = R₁(x̄) ⊗ R₂(x̄)` over the union of supports with
    /// 0-fill for one-sided rows. When the monoid is
    /// [annihilating](TwoMonoid::annihilating), one-sided rows are
    /// skipped outright (result `0`, pruned) without counting a ⊗ —
    /// the Theorem 6.7 accounting for semirings. `par` bounds the
    /// fan-out; the result is identical at every degree.
    ///
    /// # Panics
    /// Panics if the two schemas differ.
    fn merge<M: TwoMonoid<Elem = Self::Ann>>(
        self,
        monoid: &M,
        right: Self,
        par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self;

    /// The annotation of the nullary tuple `()` (or `0` when the
    /// support is empty). Only meaningful on nullary relations.
    fn nullary_value<M: TwoMonoid<Elem = Self::Ann>>(&self, monoid: &M) -> Self::Ann;

    /// Materialises the rows in ascending key order (diagnostics,
    /// differential tests, and fixpoint materialisation).
    fn rows(&self) -> Vec<(Tuple, Self::Ann)>;

    /// Point read of one key (in `vars` order).
    fn get(&self, key: &Tuple) -> Option<Self::Ann> {
        self.get_key(&self.key_of(key)?)
    }

    /// Point write: `Some(v)` inserts/overwrites, `None` deletes.
    /// Backends admit keys with
    /// genuinely new domain values (the columnar layout extends its
    /// dictionary and renumbers, keeping codes value-ordered).
    fn set(&mut self, key: &Tuple, value: Option<Self::Ann>);

    /// Group-range access for the serving sessions' dirty Rule 1
    /// refolds: the annotations of every row whose projection onto the
    /// (strictly ascending) column positions `keep` equals `group`, in
    /// ascending full-key order — **exactly** the ⊕-fold sequence the
    /// batch Rule 1 applies within that group, so a refold from this
    /// iterator reproduces the batch result bit for bit.
    ///
    /// Backends resolve the *leading literal run* of `keep` (the
    /// positions `i` with `keep[i] == i`) with an `O(log n)` range
    /// lookup — a `BTreeMap` range query on the ordered-map oracle, a
    /// binary search over the sorted code matrix on the columnar
    /// layouts — and scan only inside that range. When the projected
    /// column is the least-significant sort key (`keep` is a literal
    /// prefix — the contiguous case) the cost is `O(log n + |group|)`;
    /// a dropped leading column degrades gracefully to a filtered scan
    /// of the rows sharing the remaining literal prefix.
    ///
    /// Only the annotations are returned: the group key is the
    /// caller's own input and the full keys are irrelevant to the
    /// ⊕-fold.
    fn group_rows(&self, keep: &[usize], group: &Tuple) -> Vec<Self::Ann> {
        self.key_of(group)
            .map_or_else(Vec::new, |g| self.group_rows_key(keep, &g))
    }

    /// Encodes a key tuple (in `vars` order) into the backend-native
    /// [`Storage::Key`]. Returns `None` when a value lies outside the
    /// backend's dictionary — after the session extended the shared
    /// dictionary for the batch, only a delete of a never-stored key
    /// can see `None`, and it is a no-op.
    fn key_of(&self, key: &Tuple) -> Option<Self::Key>;

    /// Projects a native key onto the (strictly ascending) column
    /// positions `keep` — the code-space equivalent of
    /// [`Tuple::project`], allocation-light on the columnar layouts.
    fn project_key(key: &Self::Key, keep: &[usize]) -> Self::Key;

    /// Point read by native key (see [`Storage::get`]).
    fn get_key(&self, key: &Self::Key) -> Option<Self::Ann>;

    /// Point write by native key (see [`Storage::set`]). Unlike `set`,
    /// this never extends the dictionary: native keys are already in
    /// code space, so the write is a pure splice.
    fn set_key(&mut self, key: &Self::Key, value: Option<Self::Ann>);

    /// Group-range access by native group key (see
    /// [`Storage::group_rows`]), skipping the per-probe tuple encode.
    fn group_rows_key(&self, keep: &[usize], group: &Self::Key) -> Vec<Self::Ann>;

    /// Approximate resident payload bytes of this relation — keys,
    /// annotations and encoding metadata, excluding the shared value
    /// dictionary. Vector-valued annotation carriers count at their
    /// inline size (heap payloads behind them are not chased), so the
    /// figure is an accounting estimate, not an allocator measurement;
    /// it feeds the serving cache budget/compression-ratio reporting
    /// and the memory-capped bench.
    fn storage_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_monoid::{CountMonoid, ProbMonoid};

    fn rows_u64(rows: &[(&[i64], u64)]) -> Vec<(Tuple, u64)> {
        rows.iter().map(|&(t, k)| (Tuple::ints(t), k)).collect()
    }

    fn both(vars: &[usize], rows: Vec<(Tuple, u64)>) -> (MapRelation<u64>, ColumnarRelation<u64>) {
        let vars: Vec<Var> = vars.iter().map(|&v| Var(v)).collect();
        let m = MapRelation::build_slots(vec![(vars.clone(), rows.clone())]).unwrap();
        let c = ColumnarRelation::build_slots(vec![(vars, rows)]).unwrap();
        (m.into_iter().next().unwrap(), c.into_iter().next().unwrap())
    }

    #[test]
    fn duplicate_rows_rejected_by_every_backend() {
        let rows = rows_u64(&[(&[7], 1), (&[3], 2), (&[7], 3)]);
        let vars = vec![Var(0)];
        let m = MapRelation::build_slots(vec![(vars.clone(), rows.clone())]);
        let c = ColumnarRelation::build_slots(vec![(vars, rows)]);
        let expect = DuplicateRow {
            slot: 0,
            key: Tuple::ints(&[7]),
        };
        assert_eq!(m.unwrap_err(), expect);
        assert_eq!(c.unwrap_err(), expect);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("map".parse::<Backend>().unwrap(), Backend::Map);
        assert_eq!("columnar".parse::<Backend>().unwrap(), Backend::Columnar);
        assert_eq!(
            "compressed".parse::<Backend>().unwrap(),
            Backend::Compressed
        );
        assert!("btree".parse::<Backend>().is_err());
        assert_eq!(Backend::Columnar.to_string(), "columnar");
        assert_eq!(Backend::Compressed.to_string(), "compressed");
        assert_eq!(Backend::default(), Backend::Columnar);
    }

    #[test]
    fn project_out_agrees_across_backends() {
        let rows = rows_u64(&[(&[1, 10], 2), (&[1, 20], 3), (&[2, 10], 5), (&[3, 30], 7)]);
        for var in [0usize, 1] {
            let (m, c) = both(&[0, 1], rows.clone());
            let mut sm = EngineStats::default();
            let mut sc = EngineStats::default();
            let pm = m.project_out(&CountMonoid, Var(var), Parallelism::default(), &mut sm);
            let pc = c.project_out(&CountMonoid, Var(var), Parallelism::default(), &mut sc);
            assert_eq!(pm.rows(), pc.rows(), "var {var}");
            assert_eq!(sm.add_ops, sc.add_ops);
        }
    }

    #[test]
    fn merge_agrees_across_backends() {
        let left = rows_u64(&[(&[1], 2), (&[2], 3)]);
        let right = rows_u64(&[(&[2], 5), (&[3], 7)]);
        let slots_m = MapRelation::build_slots(vec![
            (vec![Var(0)], left.clone()),
            (vec![Var(0)], right.clone()),
        ])
        .unwrap();
        let slots_c =
            ColumnarRelation::build_slots(vec![(vec![Var(0)], left), (vec![Var(0)], right)])
                .unwrap();
        let mut sm = EngineStats::default();
        let mut sc = EngineStats::default();
        let [lm, rm]: [MapRelation<u64>; 2] = slots_m.try_into().unwrap();
        let [lc, rc]: [ColumnarRelation<u64>; 2] = slots_c.try_into().unwrap();
        let mm = lm.merge(&CountMonoid, rm, Parallelism::default(), &mut sm);
        let mc = lc.merge(&CountMonoid, rc, Parallelism::default(), &mut sc);
        assert_eq!(mm.rows(), mc.rows());
        assert_eq!(sm.mul_ops, sc.mul_ops);
        // Counting is annihilating: only the both-sided row costs a ⊗.
        assert_eq!(sm.mul_ops, 1);
        assert_eq!(mm.rows(), vec![(Tuple::ints(&[2]), 15u64)]);
    }

    #[test]
    fn group_rows_agrees_across_backends_and_scans() {
        // Rows over (v0, v1, v2); groups taken along every projected
        // column, including the non-contiguous (dropped-leading-column)
        // cases, must match a brute-force filter on both backends.
        let rows = rows_u64(&[
            (&[1, 10, 5], 2),
            (&[1, 10, 7], 3),
            (&[1, 20, 5], 5),
            (&[2, 10, 5], 7),
            (&[2, 20, 7], 11),
            (&[3, 10, 7], 13),
        ]);
        let (m, c) = both(&[0, 1, 2], rows.clone());
        for pos in 0..3usize {
            let keep: Vec<usize> = (0..3).filter(|&i| i != pos).collect();
            let groups: std::collections::BTreeSet<Tuple> =
                rows.iter().map(|(t, _)| t.project(&keep)).collect();
            for g in groups {
                let brute: Vec<u64> = rows
                    .iter()
                    .filter(|(t, _)| t.project(&keep) == g)
                    .map(|&(_, k)| k)
                    .collect();
                assert_eq!(m.group_rows(&keep, &g), brute, "map pos {pos} group {g:?}");
                assert_eq!(
                    c.group_rows(&keep, &g),
                    brute,
                    "columnar pos {pos} group {g:?}"
                );
            }
            // A group that cannot exist (value outside the instance).
            let absent = Tuple::ints(&[99, 99]);
            assert!(m.group_rows(&keep, &absent).is_empty());
            assert!(c.group_rows(&keep, &absent).is_empty());
        }
        // Nullary grouping (projecting a unary relation away): every
        // row belongs to the single empty group.
        let (m1, c1) = both(&[4], rows_u64(&[(&[3], 1), (&[1], 2), (&[2], 4)]));
        assert_eq!(m1.group_rows(&[], &Tuple::empty()), vec![2, 4, 1]);
        assert_eq!(c1.group_rows(&[], &Tuple::empty()), vec![2, 4, 1]);
    }

    #[test]
    fn set_admits_novel_values_identically() {
        // Inserting a key whose values are outside the build-time
        // dictionary must work on every backend and leave the rows
        // (and their order) identical.
        let rows: Vec<(Tuple, u64)> = rows_u64(&[(&[2, 5], 1), (&[4, 5], 2)]);
        let (mut m, mut c) = both(&[0, 1], rows);
        for key in [
            Tuple::ints(&[3, 9]),  // one novel value between existing ones
            Tuple::ints(&[0, 5]),  // novel value below the range
            Tuple::ints(&[7, 11]), // novel values above the range
        ] {
            m.set(&key, Some(42));
            c.set(&key, Some(42));
            assert_eq!(m.rows(), c.rows(), "after inserting {key:?}");
            assert_eq!(m.get(&key), Some(42));
            assert_eq!(c.get(&key), Some(42));
        }
        assert_eq!(c.support_size(), 5);
        // group_rows still answers correctly through the extended
        // dictionary.
        assert_eq!(m.group_rows(&[0], &Tuple::ints(&[3])), vec![42]);
        assert_eq!(c.group_rows(&[0], &Tuple::ints(&[3])), vec![42]);
    }

    #[test]
    fn point_access_agrees_across_backends() {
        let rows: Vec<(Tuple, f64)> = vec![(Tuple::ints(&[1]), 0.25), (Tuple::ints(&[3]), 0.5)];
        let mut m = MapRelation::build_slots(vec![(vec![Var(0)], rows.clone())])
            .unwrap()
            .pop()
            .unwrap();
        let mut c = ColumnarRelation::build_slots(vec![(vec![Var(0)], rows)])
            .unwrap()
            .pop()
            .unwrap();
        for rel_get in [m.get(&Tuple::ints(&[3])), c.get(&Tuple::ints(&[3]))] {
            assert_eq!(rel_get, Some(0.5));
        }
        m.set(&Tuple::ints(&[3]), Some(0.75));
        c.set(&Tuple::ints(&[3]), Some(0.75));
        m.set(&Tuple::ints(&[1]), None);
        c.set(&Tuple::ints(&[1]), None);
        assert_eq!(m.rows(), c.rows());
        assert_eq!(m.support_size(), 1);
        assert_eq!(c.support_size(), 1);
        assert_eq!(c.nullary_value(&ProbMonoid), 0.0); // empty () read
    }
}
