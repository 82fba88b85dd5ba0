//! Shared random-instance builders for the cross-crate test suites.
//!
//! The suites drive proptest over a `u64` seed and expand it into a
//! (query, database) instance with a seeded `StdRng` — keeping
//! shrinking meaningful (smaller seeds/sizes) while reusing the
//! library's own generators.

use hq_db::generate::{fill_relation, rng, ColumnDist};
use hq_db::{Database, Fact, Interner, Sym, Tuple};
use hq_query::gen::random_hierarchical;
use hq_query::Query;
use rand::rngs::StdRng;
use rand::Rng;

/// A random hierarchical query plus a small random database over its
/// schema.
pub struct Instance {
    pub query: Query,
    pub interner: Interner,
    pub database: Database,
    pub rng: StdRng,
}

/// Builds a random hierarchical instance. `tuples_per_relation` and
/// `domain` stay small so the exponential oracles remain feasible.
pub fn random_instance(
    seed: u64,
    max_vars: usize,
    max_atoms: usize,
    tuples_per_relation: usize,
    domain: u64,
) -> Instance {
    let mut r = rng(seed);
    let query = random_hierarchical(&mut r, max_vars, max_atoms);
    let mut interner = Interner::new();
    let mut database = Database::new();
    for atom in query.atoms() {
        let rel = interner.intern(&atom.rel);
        let cols = vec![ColumnDist::Uniform { domain }; atom.vars.len()];
        let count = r.gen_range(0..=tuples_per_relation);
        fill_relation(&mut database, rel, &cols, count, &mut r);
    }
    Instance {
        query,
        interner,
        database,
        rng: r,
    }
}

/// Caps the total fact count by dropping excess facts (keeps oracle
/// costs bounded regardless of how generous the generator was).
#[allow(dead_code)]
pub fn cap_facts(db: &Database, max: usize) -> Database {
    let mut out = Database::new();
    for (rel, r) in db.relations() {
        out.declare(rel, r.arity());
    }
    for f in db.facts().into_iter().take(max) {
        out.insert(f);
    }
    out
}

/// Borrows owned `(fact, annotation)` pairs as the engine's
/// `(relation, tuple, annotation)` rows (`hq_unify::evaluate_on`).
#[allow(dead_code)]
pub fn rows<K: Clone>(facts: &[(Fact, K)]) -> impl Iterator<Item = (Sym, &Tuple, K)> {
    facts.iter().map(|(f, k)| (f.rel, &f.tuple, k.clone()))
}
