//! K-annotated databases and the fact → relation annotation layer.
//!
//! The unifying algorithm operates on relations whose tuples carry
//! annotations from a 2-monoid carrier `K` (Section 2 of the paper).
//! Only the *support* — tuples with annotation ≠ `0` — is stored, since
//! `0` is the ⊕-identity and `0 ⊗ 0 = 0` guarantees absent-on-both-sides
//! tuples stay absent (Lemma 6.6). Tuples absent from exactly one side
//! of a merge are filled with `0` explicitly, because 2-monoids need
//! not annihilate (`a ⊗ 0 ≠ 0` in the Shapley monoid).
//!
//! Column order is canonicalised to ascending variable id so that two
//! atoms with equal variable *sets* (the Rule 2 precondition) have
//! directly comparable keys.
//!
//! The physical layout of each relation is a [`Storage`]
//! implementation; [`annotate_with`] builds any backend, and
//! [`annotate`] is the ordered-map convenience used by the oracle
//! paths. See [`crate::storage`] for the backend catalogue.

use crate::storage::{BorrowedSlot, ColumnarRelation, DuplicateRow, MapRelation, Storage};
use hq_db::{Fact, Interner, Sym, Tuple, Value};
use hq_query::{Query, Var};
use std::collections::BTreeMap;
use std::fmt;

pub use crate::storage::EncodedDb;

/// Back-compatible name for the ordered-map relation layout.
pub type AnnotatedRelation<K> = MapRelation<K>;

/// A K-annotated database: one relation slot per query atom, in the
/// query's atom order. Slots become `None` as Rule 2 merges consume
/// them. Generic over the storage backend `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotatedDb<R> {
    /// One slot per original atom.
    pub slots: Vec<Option<R>>,
}

impl<R: Storage> AnnotatedDb<R> {
    /// Total support size `|D|` across alive slots (Definition 6.5).
    pub fn support_size(&self) -> usize {
        self.slots.iter().flatten().map(Storage::support_size).sum()
    }
}

impl<K> AnnotatedDb<ColumnarRelation<K>>
where
    K: crate::storage::CompressedAnn + Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
{
    /// Compresses every slot into the block-encoded tier
    /// ([`crate::storage::CompressedColumnar`]); the dense matrices are
    /// transient build scratch. Results stay bit-identical — the
    /// compressed kernels replay the dense ⊕/⊗ sequence exactly.
    pub fn into_compressed(self) -> AnnotatedDb<crate::storage::CompressedColumnar<K>> {
        AnnotatedDb {
            slots: self
                .slots
                .into_iter()
                .map(|s| s.map(crate::storage::CompressedColumnar::from_columnar))
                .collect(),
        }
    }
}

/// Errors building an annotated database from facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnotateError {
    /// A fact's tuple arity disagrees with the query atom.
    ArityMismatch {
        /// Relation name.
        rel: String,
        /// Arity in the query atom.
        atom_arity: usize,
        /// Arity of the offending fact.
        fact_arity: usize,
    },
    /// The same fact was supplied twice (ambiguous annotation).
    DuplicateFact {
        /// Rendered fact.
        fact: String,
    },
}

impl fmt::Display for AnnotateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnotateError::ArityMismatch { rel, atom_arity, fact_arity } => write!(
                f,
                "fact for relation '{rel}' has arity {fact_arity}, query atom has arity {atom_arity}"
            ),
            AnnotateError::DuplicateFact { fact } => {
                write!(f, "fact {fact} annotated twice")
            }
        }
    }
}

impl std::error::Error for AnnotateError {}

/// Builds a K-annotated database over any [`Storage`] backend from
/// `(fact, annotation)` pairs. Facts over relations that do not occur
/// in the query are ignored (they cannot influence a self-join-free
/// query). Each slot's key tuples are reordered from the atom's written
/// variable order to ascending variable id.
///
/// # Errors
/// Returns [`AnnotateError`] on arity mismatches or duplicate facts.
pub fn annotate_with<R: Storage>(
    q: &Query,
    interner: &Interner,
    facts: impl IntoIterator<Item = (Fact, R::Ann)>,
) -> Result<AnnotatedDb<R>, AnnotateError> {
    // Map relation symbol → (slot index, projection positions). A
    // `None` positions entry means the written order already is the
    // sorted-var order — the common case — and the fact's own tuple can
    // be reused without re-allocation.
    let mut by_rel: BTreeMap<hq_db::Sym, (usize, Option<Vec<usize>>)> = BTreeMap::new();
    let mut slot_positions: Vec<Option<Vec<usize>>> = Vec::with_capacity(q.atom_count());
    let mut slot_vars: Vec<Vec<Var>> = Vec::with_capacity(q.atom_count());
    let mut slot_rows: Vec<Vec<(Tuple, R::Ann)>> = Vec::with_capacity(q.atom_count());
    for (i, atom) in q.atoms().iter().enumerate() {
        // The shared written→key permutation (`Atom::key_positions`):
        // all keying layers must derive it identically.
        let (sorted, positions) = atom.key_positions();
        if let Some(sym) = interner.get(&atom.rel) {
            by_rel.insert(sym, (i, positions.clone()));
        }
        slot_positions.push(positions);
        slot_vars.push(sorted);
        slot_rows.push(Vec::new());
    }
    for (fact, k) in facts {
        let Some(&(slot, ref positions)) = by_rel.get(&fact.rel) else {
            continue; // relation not mentioned by the query
        };
        let atom = &q.atoms()[slot];
        if fact.tuple.arity() != atom.vars.len() {
            return Err(AnnotateError::ArityMismatch {
                rel: atom.rel.clone(),
                atom_arity: atom.vars.len(),
                fact_arity: fact.tuple.arity(),
            });
        }
        let key = match positions {
            Some(p) => fact.tuple.project(p),
            None => fact.tuple,
        };
        slot_rows[slot].push((key, k));
    }
    match R::build_slots(slot_vars.into_iter().zip(slot_rows).collect()) {
        Ok(built) => Ok(AnnotatedDb {
            slots: built.into_iter().map(Some).collect(),
        }),
        Err(dup) => Err(duplicate_error(q, interner, &slot_positions, dup)),
    }
}

/// Builds a columnar K-annotated database **directly from borrowed
/// facts** — the fused fast path used by the solver front-ends: no key
/// tuple is cloned, boxed, or permuted in memory (the written-order →
/// sorted-order column permutation is applied while scattering
/// dictionary codes into the slot matrices).
///
/// Rows are `(relation symbol, key tuple in written order,
/// annotation)`; rows over relations the query does not mention are
/// ignored, exactly like [`annotate_with`].
///
/// # Errors
/// Returns [`AnnotateError`] on arity mismatches or duplicate facts.
pub fn annotate_columnar<'a, K, I>(
    q: &Query,
    interner: &Interner,
    rows: I,
) -> Result<AnnotatedDb<ColumnarRelation<K>>, AnnotateError>
where
    K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
    I: IntoIterator<Item = (Sym, &'a Tuple, K)>,
{
    let mut by_rel: BTreeMap<Sym, usize> = BTreeMap::new();
    let mut slot_positions: Vec<Option<Vec<usize>>> = Vec::with_capacity(q.atom_count());
    let mut slot_vars: Vec<Vec<Var>> = Vec::with_capacity(q.atom_count());
    let mut slot_rows: Vec<Vec<(&Tuple, K)>> = Vec::with_capacity(q.atom_count());
    for (i, atom) in q.atoms().iter().enumerate() {
        let (sorted, positions) = atom.key_positions();
        if let Some(sym) = interner.get(&atom.rel) {
            by_rel.insert(sym, i);
        }
        slot_positions.push(positions);
        slot_vars.push(sorted);
        slot_rows.push(Vec::new());
    }
    for (sym, tuple, k) in rows {
        let Some(&slot) = by_rel.get(&sym) else {
            continue; // relation not mentioned by the query
        };
        let atom = &q.atoms()[slot];
        if tuple.arity() != atom.vars.len() {
            return Err(AnnotateError::ArityMismatch {
                rel: atom.rel.clone(),
                atom_arity: atom.vars.len(),
                fact_arity: tuple.arity(),
            });
        }
        slot_rows[slot].push((tuple, k));
    }
    let slots: Vec<BorrowedSlot<'_, K>> = slot_vars
        .into_iter()
        .zip(slot_positions.iter().cloned())
        .zip(slot_rows)
        .map(|((vars, positions), rows)| (vars, positions, rows))
        .collect();
    match ColumnarRelation::build_slots_borrowed(slots) {
        Ok(built) => Ok(AnnotatedDb {
            slots: built.into_iter().map(Some).collect(),
        }),
        Err(dup) => Err(duplicate_error(q, interner, &slot_positions, dup)),
    }
}

/// Renders a [`DuplicateRow`] as the user-facing [`AnnotateError`],
/// restoring the written column order.
pub(crate) fn duplicate_error(
    q: &Query,
    interner: &Interner,
    slot_positions: &[Option<Vec<usize>>],
    DuplicateRow { slot, key }: DuplicateRow,
) -> AnnotateError {
    let atom = &q.atoms()[slot];
    let written = match &slot_positions[slot] {
        None => key,
        Some(positions) => {
            let mut vals = vec![Value::Int(0); key.arity()];
            for (i, &p) in positions.iter().enumerate() {
                vals[p] = key.get(i);
            }
            Tuple::from(vals)
        }
    };
    AnnotateError::DuplicateFact {
        fact: format!("{}{}", atom.rel, written.display(interner)),
    }
}

/// Builds a K-annotated database on the ordered-map backend — the
/// historical entry point, kept because the oracle paths default to it.
///
/// # Errors
/// Returns [`AnnotateError`] on arity mismatches or duplicate facts.
pub fn annotate<K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static>(
    q: &Query,
    interner: &Interner,
    facts: impl IntoIterator<Item = (Fact, K)>,
) -> Result<AnnotatedDb<MapRelation<K>>, AnnotateError> {
    annotate_with(q, interner, facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ColumnarRelation;
    use hq_db::db_from_ints;
    use hq_query::{example_query, Query};

    #[test]
    fn annotate_reorders_to_sorted_vars() {
        // A is var 0 (appears first in V), B is var 1. The atom U(B, A)
        // is written in reverse id order, so its key tuples must be
        // reordered to ascending id order (A, B).
        let q = Query::new(&[("V", &["A"]), ("U", &["B", "A"])]).unwrap();
        let (db, i) = db_from_ints(&[("U", &[&[10, 20]])]); // U(B=10, A=20)
        let annotated = annotate(&q, &i, db.facts().into_iter().map(|f| (f, 1u64))).unwrap();
        let rel = annotated.slots[1].as_ref().unwrap();
        assert_eq!(rel.vars, vec![Var(0), Var(1)]);
        // Key must be (A=20, B=10).
        let key = rel.map.keys().next().unwrap();
        assert_eq!(key, &Tuple::ints(&[20, 10]));
    }

    #[test]
    fn ignores_unrelated_relations() {
        let q = example_query();
        let (db, i) = db_from_ints(&[("R", &[&[1, 5]]), ("Unrelated", &[&[9]])]);
        let annotated = annotate(&q, &i, db.facts().into_iter().map(|f| (f, 1.0f64))).unwrap();
        assert_eq!(annotated.support_size(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let q = example_query();
        let (db, i) = db_from_ints(&[("R", &[&[1]])]); // R should be binary
        let err = annotate(&q, &i, db.facts().into_iter().map(|f| (f, 1.0f64))).unwrap_err();
        assert!(matches!(err, AnnotateError::ArityMismatch { .. }));
    }

    #[test]
    fn duplicate_fact_rejected() {
        let q = example_query();
        let (db, i) = db_from_ints(&[("R", &[&[1, 5]])]);
        let fact = db.facts().pop().unwrap();
        let err = annotate(&q, &i, vec![(fact.clone(), 1u64), (fact, 2u64)]).unwrap_err();
        match err {
            AnnotateError::DuplicateFact { ref fact } => {
                assert_eq!(fact, "R(1, 5)");
            }
            other => panic!("expected DuplicateFact, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_message_restores_written_order() {
        // U(B, A): the key is reordered, the message must not be.
        let q = Query::new(&[("V", &["A"]), ("U", &["B", "A"])]).unwrap();
        let (db, i) = db_from_ints(&[("U", &[&[10, 20]])]);
        let fact = db.facts().pop().unwrap();
        let err = annotate(&q, &i, vec![(fact.clone(), 1u64), (fact, 2u64)]).unwrap_err();
        assert!(
            matches!(err, AnnotateError::DuplicateFact { ref fact } if fact == "U(10, 20)"),
            "{err:?}"
        );
    }

    #[test]
    fn support_size_counts_all_slots() {
        let q = example_query();
        let (db, i) = db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let annotated = annotate(&q, &i, db.facts().into_iter().map(|f| (f, 1u64))).unwrap();
        assert_eq!(annotated.support_size(), 4);
    }

    #[test]
    fn columnar_and_map_annotate_identically() {
        let q = example_query();
        let (db, i) = db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ]);
        let facts: Vec<_> = db.facts().into_iter().map(|f| (f, 0.5f64)).collect();
        let m: AnnotatedDb<MapRelation<f64>> = annotate_with(&q, &i, facts.clone()).unwrap();
        let c: AnnotatedDb<ColumnarRelation<f64>> = annotate_with(&q, &i, facts).unwrap();
        assert_eq!(m.support_size(), c.support_size());
        for (ms, cs) in m.slots.iter().zip(&c.slots) {
            let (ms, cs) = (ms.as_ref().unwrap(), cs.as_ref().unwrap());
            assert_eq!(ms.rows(), cs.rows());
            assert_eq!(Storage::vars(ms), cs.vars());
        }
    }
}
