//! Synthetic workload generators.
//!
//! The paper specifies no datasets (its claims are data-complexity
//! statements), so every experiment runs on controlled synthetic inputs:
//! uniform or Zipf-skewed relations, tuple-independent probability
//! assignments, repair databases, and random graphs for the BCBS
//! hardness reduction. All generators are seeded for reproducibility.

use crate::database::{Database, Fact};
use crate::tuple::Tuple;
use crate::value::{Interner, Sym, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Deterministic RNG used across the test/bench suites.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A Zipf(s) sampler over `{0, …, n-1}` via an explicit cumulative
/// table (exact inverse-CDF sampling; table build is `O(n)`).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution with exponent `s >= 0` over `n`
    /// outcomes (`s = 0` is uniform).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite/non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Samples an index in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// How column values are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnDist {
    /// Uniform over `0..domain`.
    Uniform {
        /// Domain size.
        domain: u64,
    },
    /// Zipf-skewed over `0..domain` with exponent `s`.
    Zipf {
        /// Domain size.
        domain: u64,
        /// Skew exponent (`0.0` = uniform).
        s: f64,
    },
}

impl ColumnDist {
    /// Samples one value from the distribution. For hot loops prefer
    /// [`fill_relation`], which caches the Zipf tables per column.
    pub fn sample(&self, rng: &mut impl Rng) -> i64 {
        match *self {
            ColumnDist::Uniform { domain } => rng.gen_range(0..domain) as i64,
            ColumnDist::Zipf { domain, s } => {
                // Builds the table per call; acceptable for one-off use.
                Zipf::new(domain as usize, s).sample(rng) as i64
            }
        }
    }
}

/// Fills `rel` (declared with `columns.len()` arity) with up to `count`
/// *distinct* random tuples; returns the number actually inserted
/// (collisions under heavy skew may reduce it). A draw is kept iff it
/// is neither in `rel` already nor drawn before, and the kept draws go
/// in with one batch insert.
pub fn fill_relation(
    db: &mut Database,
    rel: Sym,
    columns: &[ColumnDist],
    count: usize,
    rng: &mut impl Rng,
) -> usize {
    // Pre-build Zipf tables once per column.
    enum Sampler {
        Uniform(u64),
        Zipf(Zipf),
    }
    let samplers: Vec<Sampler> = columns
        .iter()
        .map(|c| match *c {
            ColumnDist::Uniform { domain } => Sampler::Uniform(domain),
            ColumnDist::Zipf { domain, s } => Sampler::Zipf(Zipf::new(domain as usize, s)),
        })
        .collect();
    db.declare(rel, columns.len());
    let existing = db.relation(rel).expect("declared above");
    let mut drawn = BTreeSet::new();
    // Bounded retries so pathological configurations (tiny domains)
    // terminate: expected distinct coupon-collector behaviour is fine.
    let max_attempts = count.saturating_mul(20) + 100;
    let mut attempts = 0;
    while drawn.len() < count && attempts < max_attempts {
        attempts += 1;
        let tuple: Tuple = samplers
            .iter()
            .map(|s| {
                Value::Int(match s {
                    Sampler::Uniform(domain) => rng.gen_range(0..*domain) as i64,
                    Sampler::Zipf(z) => z.sample(rng) as i64,
                })
            })
            .collect();
        if !existing.contains(&tuple) {
            drawn.insert(tuple);
        }
    }
    db.insert_batch(drawn.into_iter().map(|t| Fact::new(rel, t)))
}

/// Configuration for a whole random database over named relations.
#[derive(Debug, Clone)]
pub struct DbSpec<'a> {
    /// `(relation name, arity)` pairs.
    pub relations: &'a [(&'a str, usize)],
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Shared column distribution.
    pub column: ColumnDist,
}

/// Generates a database according to `spec`.
pub fn random_database(spec: &DbSpec<'_>, interner: &mut Interner, rng: &mut impl Rng) -> Database {
    let mut db = Database::new();
    for &(name, arity) in spec.relations {
        let rel = interner.intern(name);
        let columns = vec![spec.column; arity];
        fill_relation(&mut db, rel, &columns, spec.tuples_per_relation, rng);
    }
    db
}

/// Assigns an independent probability in `[lo, hi]` to every fact —
/// a tuple-independent probabilistic database over `db`.
pub fn random_probabilities(
    db: &Database,
    lo: f64,
    hi: f64,
    rng: &mut impl Rng,
) -> Vec<(Fact, f64)> {
    assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi);
    db.facts()
        .into_iter()
        .map(|f| {
            let p = rng.gen_range(lo..=hi);
            (f, p)
        })
        .collect()
}

/// Splits the facts of `db` into (exogenous, endogenous) with the given
/// endogenous fraction — input shape for Shapley-value computation.
pub fn random_endogenous_split(
    db: &Database,
    endogenous_fraction: f64,
    rng: &mut impl Rng,
) -> (Vec<Fact>, Vec<Fact>) {
    let mut exo = Vec::new();
    let mut endo = Vec::new();
    for f in db.facts() {
        if rng.gen::<f64>() < endogenous_fraction {
            endo.push(f);
        } else {
            exo.push(f);
        }
    }
    (exo, endo)
}

/// An undirected self-loop-free graph as an edge list over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Number of vertices.
    pub n: usize,
    /// Edges `(u, v)` with `u < v`.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&(a, b))
    }
}

/// Erdős–Rényi `G(n, p)` graph.
pub fn random_graph(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph { n, edges }
}

/// A graph containing a planted `k × k` complete bipartite subgraph plus
/// random noise edges — the "yes"-instance generator for BCBS.
pub fn planted_biclique(n: usize, k: usize, noise_p: f64, rng: &mut impl Rng) -> Graph {
    assert!(2 * k <= n, "planted biclique needs 2k <= n");
    let mut g = random_graph(n, noise_p, rng);
    // Plant K_{k,k} on vertices {0..k} x {k..2k}.
    for u in 0..k as u32 {
        for v in k as u32..2 * k as u32 {
            if !g.has_edge(u, v) {
                g.edges.push((u.min(v), u.max(v)));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_uniform_limit() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform-ish expected, got {c}");
        }
    }

    #[test]
    fn zipf_skew_prefers_small_indices() {
        let z = Zipf::new(100, 1.5);
        let mut r = rng(2);
        let mut zero = 0;
        for _ in 0..10_000 {
            if z.sample(&mut r) == 0 {
                zero += 1;
            }
        }
        // P(0) ~ 1/zeta(1.5, 100) ~ 0.39
        assert!(zero > 2500, "head should dominate under skew, got {zero}");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn fill_relation_generates_distinct() {
        let mut i = Interner::new();
        let mut db = Database::new();
        let rel = i.intern("R");
        let mut r = rng(3);
        let n = fill_relation(
            &mut db,
            rel,
            &[
                ColumnDist::Uniform { domain: 1000 },
                ColumnDist::Uniform { domain: 1000 },
            ],
            500,
            &mut r,
        );
        assert_eq!(n, 500);
        assert_eq!(db.relation(rel).unwrap().len(), 500);
    }

    #[test]
    fn fill_relation_saturates_small_domain() {
        let mut i = Interner::new();
        let mut db = Database::new();
        let rel = i.intern("R");
        let mut r = rng(4);
        let n = fill_relation(
            &mut db,
            rel,
            &[ColumnDist::Uniform { domain: 3 }],
            100,
            &mut r,
        );
        assert!(n <= 3);
    }

    #[test]
    fn fill_relation_matches_one_by_one_inserts() {
        // Reference: insert each draw as it comes, as a caller without
        // batch inserts would; the same draws must be kept.
        fn one_by_one(
            db: &mut Database,
            rel: Sym,
            domains: &[u64],
            count: usize,
            r: &mut StdRng,
        ) -> usize {
            db.declare(rel, domains.len());
            let (mut inserted, mut attempts) = (0, 0);
            while inserted < count && attempts < count * 20 + 100 {
                attempts += 1;
                let tuple: Tuple = domains
                    .iter()
                    .map(|&d| Value::Int(r.gen_range(0..d) as i64))
                    .collect();
                inserted += usize::from(db.insert_tuple(rel, tuple));
            }
            inserted
        }
        let mut i = Interner::new();
        let rel = i.intern("R");
        // 9 possible tuples, 2 present up front; 50 saturates the rest.
        for count in [0, 4, 7, 50] {
            let mut serial = Database::new();
            serial.insert_tuple(rel, Tuple::ints(&[1, 1]));
            serial.insert_tuple(rel, Tuple::ints(&[2, 0]));
            let mut batched = serial.clone();
            let (mut r1, mut r2) = (rng(12), rng(12));
            let n = one_by_one(&mut serial, rel, &[3, 3], count, &mut r1);
            let cols = [ColumnDist::Uniform { domain: 3 }; 2];
            assert_eq!(fill_relation(&mut batched, rel, &cols, count, &mut r2), n);
            assert_eq!(batched, serial);
            assert_eq!(batched.version(rel), serial.version(rel));
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "same number of draws");
        }
    }

    #[test]
    fn random_database_respects_spec() {
        let mut i = Interner::new();
        let mut r = rng(5);
        let spec = DbSpec {
            relations: &[("R", 2), ("S", 1)],
            tuples_per_relation: 50,
            column: ColumnDist::Uniform { domain: 10_000 },
        };
        let db = random_database(&spec, &mut i, &mut r);
        assert_eq!(db.fact_count(), 100);
        assert_eq!(db.relation(i.get("R").unwrap()).unwrap().arity(), 2);
    }

    #[test]
    fn probabilities_in_range_and_deterministic() {
        let mut i = Interner::new();
        let mut r = rng(6);
        let spec = DbSpec {
            relations: &[("R", 1)],
            tuples_per_relation: 20,
            column: ColumnDist::Uniform { domain: 100 },
        };
        let db = random_database(&spec, &mut i, &mut r);
        let p1 = random_probabilities(&db, 0.2, 0.8, &mut rng(7));
        let p2 = random_probabilities(&db, 0.2, 0.8, &mut rng(7));
        assert_eq!(p1.len(), 20);
        assert!(p1.iter().all(|&(_, p)| (0.2..=0.8).contains(&p)));
        assert_eq!(p1, p2, "same seed must reproduce");
    }

    #[test]
    fn endogenous_split_partitions() {
        let mut i = Interner::new();
        let mut r = rng(8);
        let spec = DbSpec {
            relations: &[("R", 1)],
            tuples_per_relation: 30,
            column: ColumnDist::Uniform { domain: 1000 },
        };
        let db = random_database(&spec, &mut i, &mut r);
        let (exo, endo) = random_endogenous_split(&db, 0.5, &mut rng(9));
        assert_eq!(exo.len() + endo.len(), 30);
    }

    #[test]
    fn random_graph_well_formed() {
        let g = random_graph(20, 0.3, &mut rng(10));
        assert_eq!(g.n, 20);
        for &(u, v) in &g.edges {
            assert!(u < v, "edges normalized");
            assert!((v as usize) < g.n);
        }
    }

    #[test]
    fn planted_biclique_contains_plant() {
        let g = planted_biclique(12, 3, 0.1, &mut rng(11));
        for u in 0..3 {
            for v in 3..6 {
                assert!(g.has_edge(u, v));
            }
        }
    }
}
