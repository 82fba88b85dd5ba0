//! # hq-db — relational database substrate
//!
//! The set-database model of *A Unifying Algorithm for Hierarchical
//! Queries* (PODS 2025): interned domain values, tuples, set relations,
//! database instances, a text loader, a backtracking bag-set
//! join/count engine (ground truth for every brute-force baseline), and
//! seeded synthetic workload generators.
//!
//! This crate knows nothing about queries-as-ASTs or 2-monoids; it only
//! provides data and the generic conjunctive-[`join::Pattern`]
//! evaluator that higher layers compile into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod dict;
pub mod generate;
pub mod join;
pub mod relation;
pub mod text;
pub mod tuple;
pub mod value;

pub use database::{db_from_ints, Database, Fact};
pub use dict::{RowCode, ValueDict};
pub use join::{all_matches, count_matches, satisfiable, Pattern, PatternAtom};
pub use relation::Iter as RelationIter;
pub use relation::Relation;
pub use tuple::Tuple;
pub use value::{Interner, Sym, Value};
