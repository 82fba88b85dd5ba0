//! # hq-unify — the unifying algorithm for hierarchical queries
//!
//! Algorithm 1 of *A Unifying Algorithm for Hierarchical Queries*
//! (PODS 2025): a single polynomial-time engine over K-annotated
//! relations, parameterized by a 2-monoid, that solves —
//!
//! * **Probabilistic Query Evaluation** ([`pqe`], Theorem 5.8, `O(|D|)`),
//! * **Bag-Set Maximization** ([`bsm`], Theorem 5.11,
//!   `O((|D|+|D_r|)·|D_r|²)`),
//! * **Shapley value computation** ([`shapley`], Theorem 5.16,
//!   `O((|D_x|+|D_n|)·|D_n|²)`),
//!
//! plus classical semiring evaluation and the universal
//! [`provenance`] instantiation used by the generic correctness proof.
//!
//! ## The storage layer
//!
//! Theorem 6.7 bounds Algorithm 1 at *linearly many* ⊕/⊗ operations —
//! so in practice the physical layout of the annotated relations, not
//! the algorithm, decides the runtime. The engine is therefore generic
//! over a [`storage::Storage`] backend:
//!
//! * [`storage::MapRelation`] — the ordered-map layout
//!   (`BTreeMap<Tuple, K>`): the deterministic differential oracle;
//! * [`storage::ColumnarRelation`] — the columnar layout: dense sorted
//!   row-major matrices of dictionary codes
//!   ([`hq_db::ValueDict`]) with a parallel annotation column. Rule 1
//!   is a single-pass grouped fold (re-sorting a scratch matrix only
//!   when the dropped column breaks the order), Rule 2 a linear
//!   sort-merge outer join; no per-tuple allocation on the hot path.
//!
//! All backends apply the same monoid operations in the same order,
//! so results are **bit-identical** (floats included) and
//! [`EngineStats`] agree exactly; the workspace's
//! `differential_backends` suite pins this down on random hierarchical
//! instances. The block-compressed tier
//! ([`storage::CompressedColumnar`]) trades CPU for a smaller resident
//! footprint under the same contract.
//!
//! ## One execution option
//!
//! Each front-end family has two entry points: the plain one runs the
//! ordered-map oracle sequentially, and the `*_on` variant takes an
//! [`Exec`] — the storage [`Backend`] plus a [`Parallelism`] degree
//! ([`evaluate_on`], [`pqe::probability_on`], [`bsm::maximize_on`],
//! [`shapley::shapley_values_on`], …). The `hq` CLI selects with
//! `--backend map|columnar|compressed` and `--threads N|max`.
//!
//! Parallelism is an argument of the two rule kernels, not a storage
//! type: [`Storage::project_out`] and [`Storage::merge`] take the
//! run's degree, and the engine ([`run_plan`]) and both serving
//! layers ([`ServingSession::with_parallelism`],
//! [`Server::with_parallelism`]) pass it through. The columnar layout
//! is partition-ready — sorted matrices cut into contiguous shards on
//! key boundaries, so Rule 1 folds and Rule 2 merges decompose into
//! independent per-shard kernels on a persistent process-wide
//! work-stealing worker [`pool`] (warmed once, zero thread spawns per
//! rule application afterwards). Below the per-shard work-size floor,
//! and at degree 1, it runs its sequential kernels; the other layouts
//! ignore the degree. The general-column argsort runs as a parallel
//! merge sort over the same pool, and the prob/count folds take a
//! dense auto-vectorisable fast path ([`hq_monoid::DenseFold`]).
//! Shard outputs and per-shard op counts are recombined in fixed shard
//! order and per-group folds stay sequential, so **every thread count
//! returns bit-identical results and identical [`EngineStats`]** —
//! pinned by the `differential_parallel` suite.
//!
//! ## Batched multi-query serving
//!
//! [`EncodedDb`] caches a database's dictionary encoding (the
//! dominant cost of building columnar relations) so that repeated
//! queries over one database skip re-encoding entirely; see
//! [`evaluate_encoded`]. [`ServingSession`] (typed wrappers
//! [`pqe::PqeSession`], [`bsm::BsmSession`], [`shapley::SatSession`];
//! CLI `pqe --mode serve`) keeps its annotated facts once, already
//! encoded ([`storage::BaseDb`]), and is a full multi-query server:
//! queries are lowered onto a hash-consed plan IR ([`plan_ir`]) so
//! overlapping queries evaluate each common sub-plan **once per
//! backend** (a repeated query performs zero monoid ops), and
//! `update`/`update_batch` calls write the store in place (novel
//! domain values extend its dictionary once per batch) and
//! delta-patch the cached pipeline in place (dirty Rule 1 groups
//! refold, dirty Rule 2 keys re-derive) — the crate's one maintenance
//! path under updates, with every served value and [`EngineStats`]
//! bit-identical to independent fresh evaluation (pinned by
//! `tests/differential_serving.rs` and
//! `tests/differential_incremental.rs`).
//!
//! ```
//! use hq_db::{db_from_ints};
//! use hq_query::parse_query;
//! use hq_unify::bsm;
//!
//! // Figure 1 of the paper: repair D with ≤ 2 facts from D_r.
//! let q = parse_query("Q() :- R(A,B), S(A,C), T(A,C,D)").unwrap();
//! let (d, mut interner) = db_from_ints(&[
//!     ("R", &[&[1, 5]]),
//!     ("S", &[&[1, 1], &[1, 2]]),
//!     ("T", &[&[1, 2, 4]]),
//! ]);
//! let (d_r, _) = {
//!     let r = interner.intern("R");
//!     let t = interner.intern("T");
//!     let mut d_r = hq_db::Database::new();
//!     d_r.insert_tuple(r, hq_db::Tuple::ints(&[1, 6]));
//!     d_r.insert_tuple(r, hq_db::Tuple::ints(&[1, 7]));
//!     d_r.insert_tuple(t, hq_db::Tuple::ints(&[1, 1, 4]));
//!     d_r.insert_tuple(t, hq_db::Tuple::ints(&[1, 2, 9]));
//!     (d_r, ())
//! };
//! let solution = bsm::maximize(&q, &interner, &d, &d_r, 2).unwrap();
//! assert_eq!(solution.optimum(), 4); // the paper's optimal repair
//!
//! // Same instance on the columnar backend: identical answer.
//! use hq_unify::Backend;
//! let fast = bsm::maximize_on(Backend::Columnar.into(), &q, &interner, &d, &d_r, 2).unwrap();
//! assert_eq!(fast.curve, solution.curve);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotated;
pub mod bsm;
pub mod engine;
pub mod fixpoint;
pub mod plan_ir;
pub mod pool;
pub mod pqe;
pub mod provenance;
pub mod script;
pub mod server;
pub mod serving;
pub mod shapley;
pub mod storage;

pub use annotated::{
    annotate, annotate_columnar, annotate_with, AnnotateError, AnnotatedDb, AnnotatedRelation,
};
pub use bsm::{maximize, maximize_with_repair, BsmRepairSolution, BsmSolution, PsiClass};
pub use engine::{evaluate, evaluate_encoded, evaluate_on, run_plan, EngineStats, UnifyError};
pub use fixpoint::{
    patch_inserts, semi_naive, transitive_closure, transitive_closure_on, validate_fixpoint,
    FixSpec, FixpointError, FixpointRun, PatchOutcome, PatchStats, StepShape,
};
pub use plan_ir::{lower, LoweredQuery, PlanExpr, PlanId, PlanIr};
pub use pqe::{
    expected_count, probability, probability_exact, reachability, reachability_on, PqeError,
};
pub use provenance::{provenance_tree, Provenance};
pub use script::{parse_command, parse_script, render_command, ScriptCommand, UpdateAction};
pub use server::{
    CommitReceipt, CommitTicket, EpochState, Server, Session, WritePolicy, WriteStats,
};
pub use serving::{ServingBackend, ServingError, ServingSession, UpdateOutcome};
pub use shapley::{sat_counts, shapley_value, shapley_values, FactRole, ShapleyError};
pub use storage::{
    Backend, ColumnarRelation, CompressedAnn, CompressedBuilder, CompressedColumnar, EncodedDb,
    Exec, MapRelation, Parallelism, RefreshOutcome, Storage,
};

/// Maintenance under update schedules, driven through one-query
/// [`ServingSession`]s — the single delta-patch path that the typed
/// sessions, the server and the CLI's `--mode incremental` share.
#[cfg(test)]
mod incremental {
    mod tests;
}
