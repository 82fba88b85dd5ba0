//! # hq-baselines — definitional oracles and the hardness reduction
//!
//! The exponential algorithms the paper's theorems quantify over,
//! implemented directly from the definitions:
//!
//! * [`worlds`] — exact PQE by possible-world enumeration (sequential,
//!   crossbeam-parallel, and exact-rational variants) plus a
//!   Monte-Carlo estimator, and exact reachability over probabilistic
//!   edges by the same enumeration;
//! * [`bsm_bf`] — Bag-Set Maximization by repair-subset enumeration
//!   (works for any SJF-BCQ, including non-hierarchical ones);
//! * [`shapley_bf`] — `#Sat` by subset enumeration and Shapley values
//!   by the verbatim permutation definition and by the subset-sum
//!   formula;
//! * [`bcbs`] — a brute-force Balanced-Complete-Bipartite-Subgraph
//!   solver and the generic Theorem 4.4 reduction BCBS → Bag-Set
//!   Maximization Decision.
//!
//! Every differential test in the workspace pits the unifying
//! algorithm against these oracles on random instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcbs;
pub mod bsm_bf;
pub mod shapley_bf;
pub mod worlds;

pub use bcbs::{bcbs_decision, reduce_bcbs_to_bsm, BsmDecisionInstance};
pub use bsm_bf::{decide_bruteforce, maximize_bruteforce, BruteBsm};
pub use shapley_bf::{sat_counts_bruteforce, shapley_by_permutations, shapley_by_subsets};
pub use worlds::{
    probability_exhaustive, probability_exhaustive_exact, probability_exhaustive_parallel,
    probability_monte_carlo, reachability_exhaustive,
};
