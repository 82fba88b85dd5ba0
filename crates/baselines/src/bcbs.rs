//! Balanced Complete Bipartite Subgraph (BCBS) and the Theorem 4.4
//! reduction to Bag-Set Maximization Decision.
//!
//! BCBS — given an undirected self-loop-free graph `G` and `k`, decide
//! whether `G` contains a complete bipartite subgraph with both parts
//! of size `k` — is NP-complete [Garey & Johnson, GT24] and W\[1\]-hard
//! in `k` [Lin 2018]. Theorem 4.4 reduces it to the decision version of
//! Bag-Set Maximization for *any* non-hierarchical SJF-BCQ: encode the
//! edges into the witness atom `S(A,B,·)`, let repairs buy `R(A,·)` and
//! `T(B,·)` facts, and ask for value `k²` within budget `2k`.
//!
//! This module makes the hardness side of the dichotomy executable:
//! a brute-force BCBS solver, the generic reduction, and (in the test
//! and bench suites) the answer-preservation check between the two.

use hq_db::generate::Graph;
use hq_db::{Database, Interner, Tuple, Value};
use hq_query::{non_hierarchical_witness, Query, Var};

/// Brute-force BCBS decision: does `g` contain a `K_{k,k}`?
///
/// Enumerates `k`-subsets as the first part and checks for `k` common
/// neighbours; self-loop-freeness makes the parts automatically
/// disjoint.
pub fn bcbs_decision(g: &Graph, k: usize) -> bool {
    if k == 0 {
        return true; // the empty biclique always exists
    }
    if g.n < 2 * k {
        return false;
    }
    // Adjacency sets as bitmasks (n ≤ 64 for the brute-force range).
    assert!(g.n <= 64, "brute-force BCBS beyond 64 vertices");
    let mut adj = vec![0u64; g.n];
    for &(u, v) in &g.edges {
        adj[u as usize] |= 1 << v;
        adj[v as usize] |= 1 << u;
    }
    let mut subset: Vec<usize> = Vec::with_capacity(k);
    fn rec(adj: &[u64], n: usize, k: usize, start: usize, subset: &mut Vec<usize>) -> bool {
        if subset.len() == k {
            let mut common = u64::MAX >> (64 - n);
            for &u in subset.iter() {
                common &= adj[u];
            }
            return common.count_ones() as usize >= k;
        }
        for u in start..n {
            subset.push(u);
            if rec(adj, n, k, u + 1, subset) {
                return true;
            }
            subset.pop();
        }
        false
    }
    rec(&adj, g.n, k, 0, &mut subset)
}

/// A constructed Bag-Set Maximization Decision instance.
#[derive(Debug, Clone)]
pub struct BsmDecisionInstance {
    /// The database to repair.
    pub d: Database,
    /// The repair database.
    pub d_r: Database,
    /// The repair budget `θ = 2k`.
    pub theta: usize,
    /// The decision threshold `τ = k²`.
    pub tau: u64,
    /// Interner binding relation names and values.
    pub interner: Interner,
}

/// The Theorem 4.4 reduction: builds `(D, D_r, θ, τ)` from `(G, k)`
/// for any *non-hierarchical* SJF-BCQ `q`.
///
/// Every variable other than the witness pair `A, B` is pinned to a
/// fixed vertex `a`; the edge relation is encoded into the atoms
/// containing `A` and `B` jointly (and all remaining non-`R`/`T`
/// atoms), while the repair database offers `R`-facts per vertex value
/// of `A` and `T`-facts per vertex value of `B`.
///
/// # Panics
/// Panics if `q` is hierarchical (the reduction needs the witness).
pub fn reduce_bcbs_to_bsm(q: &Query, g: &Graph, k: usize) -> BsmDecisionInstance {
    let w = non_hierarchical_witness(q).expect("reduction requires a non-hierarchical query");
    let mut interner = Interner::new();
    let mut d = Database::new();
    let mut d_r = Database::new();
    // Fixed vertex `a`: any vertex; 0 works whenever the graph is
    // non-empty. (For an empty graph both databases stay empty and the
    // instance is a trivial "no" for k ≥ 1.)
    let a_fix: i64 = 0;
    let assign = |atom_vars: &[Var], u: i64, v: i64| -> Tuple {
        atom_vars
            .iter()
            .map(|&x| {
                Value::Int(if x == w.a {
                    u
                } else if x == w.b {
                    v
                } else {
                    a_fix
                })
            })
            .collect()
    };
    for (idx, atom) in q.atoms().iter().enumerate() {
        let rel = interner.intern(&atom.rel);
        if idx == w.r_atom {
            // Repair facts: A ranges over all vertices (B does not
            // occur in this atom, by the witness shape).
            d_r.declare(rel, atom.vars.len());
            for u in 0..g.n as i64 {
                d_r.insert_tuple(rel, assign(&atom.vars, u, a_fix));
            }
        } else if idx == w.t_atom {
            d_r.declare(rel, atom.vars.len());
            for v in 0..g.n as i64 {
                d_r.insert_tuple(rel, assign(&atom.vars, a_fix, v));
            }
        } else {
            // Edge-encoding facts (both orientations of each edge).
            d.declare(rel, atom.vars.len());
            for &(u, v) in &g.edges {
                d.insert_tuple(rel, assign(&atom.vars, i64::from(u), i64::from(v)));
                d.insert_tuple(rel, assign(&atom.vars, i64::from(v), i64::from(u)));
            }
        }
    }
    BsmDecisionInstance {
        d,
        d_r,
        theta: 2 * k,
        tau: (k * k) as u64,
        interner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsm_bf::decide_bruteforce;
    use hq_db::generate::{planted_biclique, random_graph, rng};
    use hq_query::{q_non_hierarchical, Query};

    #[test]
    fn bcbs_detects_planted_biclique() {
        let g = planted_biclique(10, 3, 0.0, &mut rng(1));
        assert!(bcbs_decision(&g, 3));
        assert!(bcbs_decision(&g, 2));
        assert!(bcbs_decision(&g, 0));
    }

    #[test]
    fn bcbs_rejects_sparse_graph() {
        // A single edge has no K_{2,2}.
        let g = Graph {
            n: 4,
            edges: vec![(0, 1)],
        };
        assert!(bcbs_decision(&g, 1)); // one edge IS a K_{1,1}
        assert!(!bcbs_decision(&g, 2));
    }

    #[test]
    fn bcbs_complete_graph() {
        // K_6 contains K_{3,3}.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let g = Graph { n: 6, edges };
        assert!(bcbs_decision(&g, 3));
        assert!(!bcbs_decision(&g, 4), "needs 8 vertices");
    }

    #[test]
    fn reduction_preserves_answers_canonical_query() {
        // Theorem 4.4's equivalence, checked end-to-end on random
        // graphs for the canonical non-hierarchical query.
        let q = q_non_hierarchical();
        let mut r = rng(7);
        for trial in 0..12 {
            let n = 5 + (trial % 3);
            let g = random_graph(n, 0.5, &mut r);
            for k in 1..=2usize {
                let inst = reduce_bcbs_to_bsm(&q, &g, k);
                let bsm =
                    decide_bruteforce(&q, &inst.interner, &inst.d, &inst.d_r, inst.theta, inst.tau);
                assert_eq!(
                    bcbs_decision(&g, k),
                    bsm,
                    "trial {trial}, n={n}, k={k}, edges={:?}",
                    g.edges
                );
            }
        }
    }

    #[test]
    fn reduction_preserves_answers_padded_query() {
        // A non-hierarchical query with extra atoms (the P_i of the
        // proof) — including one carrying the witness variable A.
        let q = Query::new(&[
            ("R", &["A", "U"]),
            ("S", &["A", "B"]),
            ("T", &["B", "W"]),
            ("P", &["A", "V"]),
        ])
        .unwrap();
        assert!(hq_query::non_hierarchical_witness(&q).is_some());
        let mut r = rng(11);
        for trial in 0..6 {
            let g = random_graph(5, 0.6, &mut r);
            let k = 2;
            let inst = reduce_bcbs_to_bsm(&q, &g, k);
            let bsm =
                decide_bruteforce(&q, &inst.interner, &inst.d, &inst.d_r, inst.theta, inst.tau);
            assert_eq!(bcbs_decision(&g, k), bsm, "trial {trial}");
        }
    }

    #[test]
    fn planted_instance_is_yes_through_reduction() {
        let q = q_non_hierarchical();
        let g = planted_biclique(8, 2, 0.0, &mut rng(3));
        let inst = reduce_bcbs_to_bsm(&q, &g, 2);
        assert!(decide_bruteforce(
            &q,
            &inst.interner,
            &inst.d,
            &inst.d_r,
            inst.theta,
            inst.tau
        ));
    }

    #[test]
    fn empty_graph_is_no_for_positive_k() {
        let q = q_non_hierarchical();
        let g = Graph {
            n: 4,
            edges: vec![],
        };
        let inst = reduce_bcbs_to_bsm(&q, &g, 1);
        assert!(!decide_bruteforce(
            &q,
            &inst.interner,
            &inst.d,
            &inst.d_r,
            inst.theta,
            inst.tau
        ));
        assert!(!bcbs_decision(&g, 1));
    }
}
