//! # hierarchical-queries
//!
//! A production-quality Rust implementation of
//! *A Unifying Algorithm for Hierarchical Queries*
//! (Abo Khamis, Comer, Kolaitis, Roy, Tannen — PODS 2025,
//! arXiv:2506.10238).
//!
//! One polynomial-time algorithm — Algorithm 1 over an abstract
//! **2-monoid** — solves three classically separate problems for
//! hierarchical self-join-free Boolean conjunctive queries:
//!
//! * **Probabilistic Query Evaluation** over tuple-independent
//!   databases ([`unify::pqe`]),
//! * **Bag-Set Maximization** — maximize the bag-set value of `Q` by
//!   adding at most `θ` facts from a repair database ([`unify::bsm`]),
//! * **Shapley value computation** for facts ([`unify::shapley`]).
//!
//! This facade crate re-exports the whole workspace: exact arithmetic
//! ([`arith`]), the database substrate ([`db`]), query analysis
//! ([`query`]), the 2-monoid algebra ([`monoid`]), the unifying engine
//! ([`unify`]), and the exponential baselines ([`baselines`]).
//!
//! ## Quickstart
//!
//! ```
//! use hierarchical_queries::prelude::*;
//!
//! // Parse the paper's running query (Eq. 1) and check it is
//! // hierarchical.
//! let q = parse_query("Q() :- R(A,B), S(A,C), T(A,C,D)").unwrap();
//! assert!(is_hierarchical(&q));
//!
//! // A tuple-independent database: the Fig. 1 instance, p = 1/2 each.
//! let (d, interner) = db_from_ints(&[
//!     ("R", &[&[1, 5]]),
//!     ("S", &[&[1, 1], &[1, 2]]),
//!     ("T", &[&[1, 2, 4]]),
//! ]);
//! let tid: Vec<_> = d.facts().into_iter().map(|f| (f, 0.5)).collect();
//! let p = pqe::probability(&q, &interner, &tid).unwrap();
//! assert!((p - 0.125).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hq_arith as arith;
pub use hq_baselines as baselines;
pub use hq_db as db;
pub use hq_monoid as monoid;
pub use hq_query as query;
pub use hq_unify as unify;

pub use hq_unify::{bsm, pqe, shapley};

/// The most commonly used items in one import.
pub mod prelude {
    pub use hq_arith::{Natural, Rational};
    pub use hq_db::{db_from_ints, Database, Fact, Interner, Tuple, Value};
    pub use hq_monoid::{
        BagMaxMonoid, BoolMonoid, CountMonoid, ExactProbMonoid, ProbMonoid, ProvMonoid,
        SatCountMonoid, TwoMonoid,
    };
    pub use hq_query::{
        is_hierarchical, parse_query, plan, q_hierarchical, q_non_hierarchical, Query,
    };
    pub use hq_unify::{
        bsm, evaluate, evaluate_on, pqe, provenance_tree, shapley, Backend, EngineStats, Exec,
        UnifyError,
    };
}
