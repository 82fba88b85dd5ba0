//! Database instances: named relations over a shared interner, plus the
//! [`Fact`] type used by the repair / endogenous-fact machinery.

use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::{Interner, Sym};
use std::collections::BTreeMap;
use std::fmt;

/// A single fact `R(x̄)`: a relation symbol plus a tuple.
///
/// Facts are the currency of all three problems: they carry
/// probabilities (PQE), repair budgets (Bag-Set Maximization), and
/// endogenous/exogenous designations (Shapley values).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// The relation symbol (interned relation name).
    pub rel: Sym,
    /// The argument tuple.
    pub tuple: Tuple,
}

impl Fact {
    /// Builds a fact.
    pub fn new(rel: Sym, tuple: Tuple) -> Self {
        Fact { rel, tuple }
    }

    /// Renders the fact as `R(v1, …)` using `interner`.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Fact, &'a Interner);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    "{}{}",
                    self.1.resolve(self.0.rel),
                    self.0.tuple.display(self.1)
                )
            }
        }
        D(self, interner)
    }
}

/// A set database instance `D`: a map from relation symbols to
/// [`Relation`]s. The paper's `|D|` (sum of relation cardinalities) is
/// [`Database::fact_count`].
///
/// Every *effective* mutation (an insert that was new, a remove that
/// was present) bumps the touched relation's **version counter**
/// ([`Database::version`]). Derived structures that snapshot a
/// relation's content — the cached dictionary encodings of
/// `hq_unify::EncodedDb` — record the version they were built at and
/// compare it on use, which detects *any* divergence, including
/// interior same-size mutations that content spot checks miss.
/// Versions are bookkeeping, not content: equality ignores them.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<Sym, Relation>,
    /// Effective-mutation counter per relation (absent = 0: never
    /// mutated since the relation was declared empty — declaring does
    /// not bump).
    versions: BTreeMap<Sym, u64>,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        // Versions record *history*, not state: two databases holding
        // the same facts are equal however they got there.
        self.relations == other.relations
    }
}

impl Eq for Database {}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a relation with the given arity (idempotent).
    ///
    /// # Panics
    /// Panics if the relation exists with a different arity.
    pub fn declare(&mut self, rel: Sym, arity: usize) {
        self.relation_mut(rel, arity);
    }

    /// The relation for `rel`, declared with `arity` if absent. Kept
    /// private so that every mutation passes through a method that
    /// bumps the version counter.
    fn relation_mut(&mut self, rel: Sym, arity: usize) -> &mut Relation {
        let r = self
            .relations
            .entry(rel)
            .or_insert_with(|| Relation::new(arity));
        assert_eq!(r.arity(), arity, "relation redeclared with different arity");
        r
    }

    /// Advances `rel`'s version by `effective` mutations.
    fn bump(&mut self, rel: Sym, effective: usize) {
        if effective > 0 {
            *self.versions.entry(rel).or_insert(0) += effective as u64;
        }
    }

    /// Inserts a fact, declaring the relation from the tuple arity if
    /// needed. Returns `true` if the fact was new. Costs a shift of the
    /// relation's larger tuples: build large relations with
    /// [`Database::insert_batch`].
    pub fn insert(&mut self, fact: Fact) -> bool {
        let new = self
            .relation_mut(fact.rel, fact.tuple.arity())
            .insert(fact.tuple);
        self.bump(fact.rel, usize::from(new));
        new
    }

    /// Inserts a tuple into `rel`. Returns `true` if new.
    pub fn insert_tuple(&mut self, rel: Sym, tuple: Tuple) -> bool {
        self.insert(Fact::new(rel, tuple))
    }

    /// Inserts a batch of facts with one merge pass per touched
    /// relation ([`Relation::insert_batch`]); returns how many were
    /// new. Equivalent to inserting them one by one — including the
    /// version accounting, which advances by the number of effective
    /// inserts per relation.
    ///
    /// # Panics
    /// Panics if a fact's arity conflicts with its (declared or
    /// batch-established) relation arity.
    pub fn insert_batch(&mut self, facts: impl IntoIterator<Item = Fact>) -> usize {
        let mut by_rel: BTreeMap<Sym, Vec<Tuple>> = BTreeMap::new();
        for f in facts {
            by_rel.entry(f.rel).or_default().push(f.tuple);
        }
        by_rel
            .into_iter()
            .map(|(rel, tuples)| self.insert_tuples(rel, tuples))
            .sum()
    }

    /// One relation's share of [`Database::insert_batch`]: the batch
    /// moves into an empty relation without being copied.
    pub(crate) fn insert_tuples(&mut self, rel: Sym, tuples: Vec<Tuple>) -> usize {
        let Some(arity) = tuples.first().map(Tuple::arity) else {
            return 0;
        };
        let added = self.relation_mut(rel, arity).insert_batch(tuples);
        self.bump(rel, added);
        added
    }

    /// Removes a fact. Returns `true` if it was present.
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let removed = self
            .relations
            .get_mut(&fact.rel)
            .is_some_and(|r| r.remove(&fact.tuple));
        self.bump(fact.rel, usize::from(removed));
        removed
    }

    /// The relation's effective-mutation counter: bumped by every
    /// insert that was new and every remove that was present (so an
    /// interior remove-then-insert of the same size bumps twice).
    /// `0` for relations never mutated. Snapshot-style caches compare
    /// this to detect staleness exactly, in `O(1)`.
    pub fn version(&self, rel: Sym) -> u64 {
        self.versions.get(&rel).copied().unwrap_or(0)
    }

    /// Whether the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relations
            .get(&fact.rel)
            .is_some_and(|r| r.contains(&fact.tuple))
    }

    /// The relation instance for `rel`, if declared.
    pub fn relation(&self, rel: Sym) -> Option<&Relation> {
        self.relations.get(&rel)
    }

    /// Iterates `(symbol, relation)` pairs in symbol order.
    pub fn relations(&self) -> impl Iterator<Item = (Sym, &Relation)> {
        self.relations.iter().map(|(&s, r)| (s, r))
    }

    /// Total number of facts, the paper's `|D|`.
    pub fn fact_count(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Whether the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.fact_count() == 0
    }

    /// Iterates all facts in deterministic (symbol, tuple) order.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out = Vec::with_capacity(self.fact_count());
        for (&rel, r) in &self.relations {
            for t in r {
                out.push(Fact::new(rel, t.clone()));
            }
        }
        out
    }

    /// The union `self ∪ other` (set semantics per relation).
    ///
    /// # Panics
    /// Panics if a shared relation symbol has conflicting arities.
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for (&rel, r) in &other.relations {
            out.declare(rel, r.arity());
            out.insert_batch(r.iter().map(|t| Fact::new(rel, t.clone())));
        }
        out
    }

    /// Facts of `self` not present in `other` (deterministic order).
    pub fn difference(&self, other: &Database) -> Vec<Fact> {
        self.facts()
            .into_iter()
            .filter(|f| !other.contains(f))
            .collect()
    }

    /// Renders the full instance using `interner` (sorted, one fact per
    /// line) — used by the CLI and golden tests.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Database, &'a Interner);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for fact in self.0.facts() {
                    writeln!(f, "{}", fact.display(self.1))?;
                }
                Ok(())
            }
        }
        D(self, interner)
    }
}

/// Convenience builder used heavily in tests and examples: constructs a
/// database and interner from `(relation name, rows)` groups of integer
/// tuples.
pub fn db_from_ints(groups: &[(&str, &[&[i64]])]) -> (Database, Interner) {
    let mut interner = Interner::new();
    let mut db = Database::new();
    for (name, rows) in groups {
        let rel = interner.intern(name);
        for row in *rows {
            db.insert_tuple(rel, Tuple::ints(row));
        }
    }
    (db, interner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut i = Interner::new();
        let r = i.intern("R");
        let mut db = Database::new();
        let f = Fact::new(r, Tuple::ints(&[1, 2]));
        assert!(db.insert(f.clone()));
        assert!(!db.insert(f.clone()));
        assert!(db.contains(&f));
        assert_eq!(db.fact_count(), 1);
        assert!(db.remove(&f));
        assert!(!db.contains(&f));
        assert!(db.is_empty());
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn arity_conflict_panics() {
        let mut i = Interner::new();
        let r = i.intern("R");
        let mut db = Database::new();
        db.insert_tuple(r, Tuple::ints(&[1]));
        db.insert_tuple(r, Tuple::ints(&[1, 2]));
    }

    #[test]
    fn versions_track_effective_mutations_only() {
        let mut i = Interner::new();
        let r = i.intern("R");
        let s = i.intern("S");
        let mut db = Database::new();
        assert_eq!(db.version(r), 0);
        let f = Fact::new(r, Tuple::ints(&[1]));
        assert!(db.insert(f.clone()));
        assert_eq!(db.version(r), 1);
        // Redundant insert and absent remove are not mutations.
        assert!(!db.insert(f.clone()));
        assert!(!db.remove(&Fact::new(r, Tuple::ints(&[9]))));
        assert_eq!(db.version(r), 1);
        assert_eq!(db.version(s), 0, "untouched relation stays at 0");
        // An interior same-size swap bumps twice — this is exactly the
        // case content spot checks can miss.
        assert!(db.remove(&f));
        assert!(db.insert(Fact::new(r, Tuple::ints(&[2]))));
        assert_eq!(db.version(r), 3);
        // Versions are history, not content: equality ignores them.
        let mut other = Database::new();
        other.insert(Fact::new(r, Tuple::ints(&[2])));
        assert_eq!(db, other);
        assert_ne!(db.version(r), other.version(r));
    }

    #[test]
    fn union_and_difference() {
        let (d1, mut i) = db_from_ints(&[("R", &[&[1], &[2]])]);
        let r = i.intern("R");
        let s = i.intern("S");
        let mut d2 = Database::new();
        d2.insert_tuple(r, Tuple::ints(&[2]));
        d2.insert_tuple(r, Tuple::ints(&[3]));
        d2.insert_tuple(s, Tuple::ints(&[9, 9]));
        let u = d1.union(&d2);
        assert_eq!(u.fact_count(), 4);
        let diff = d2.difference(&d1);
        assert_eq!(diff.len(), 2);
        assert!(diff.contains(&Fact::new(r, Tuple::ints(&[3]))));
        assert!(diff.contains(&Fact::new(s, Tuple::ints(&[9, 9]))));
    }

    #[test]
    fn facts_are_sorted_and_displayable() {
        let (db, i) = db_from_ints(&[("S", &[&[2]]), ("R", &[&[1]])]);
        let facts = db.facts();
        assert_eq!(facts.len(), 2);
        let rendered: Vec<String> = facts.iter().map(|f| f.display(&i).to_string()).collect();
        // BTreeMap orders by symbol id: R was interned second in the
        // groups list? No — groups insert S first, so S has symbol 0.
        assert!(rendered.contains(&"R(1)".to_string()));
        assert!(rendered.contains(&"S(2)".to_string()));
    }

    #[test]
    fn display_lists_every_fact() {
        let (db, i) = db_from_ints(&[("R", &[&[1, 5]]), ("S", &[&[1, 1], &[1, 2]])]);
        let text = db.display(&i).to_string();
        assert!(text.contains("R(1, 5)"));
        assert!(text.contains("S(1, 1)"));
        assert!(text.contains("S(1, 2)"));
        assert_eq!(text.lines().count(), 3);
    }
}
