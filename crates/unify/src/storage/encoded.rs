//! Dictionary-encoded base facts: the storage every serving layer
//! reads, plus the fresh-evaluation encoding cache.
//!
//! Building a columnar annotated database is dominated by the
//! instance-wide value sort and dictionary scatter-encode. Those
//! depend only on the *facts*, not on the query — so when many queries
//! are evaluated over one database, the work can be done once. Both
//! types here keep, per relation identity ([`Sym`]), a row-major code
//! matrix (written column order, sorted tuple order) over one shared
//! [`ValueDict`], and assemble a query atom's annotated slot by
//! permuting cached `u32` codes — no value comparison, no dictionary
//! build, no tuple materialisation:
//!
//! * [`BaseDb`] **is** the annotated database of a
//!   [`crate::serving::ServingSession`] and of every
//!   [`crate::server::Server`] epoch: one `(codes, annotations)` pair
//!   per relation, written in place by [`BaseDb::write_batch`] (point
//!   inserts, overwrites and removes; novel domain values extend the
//!   shared dictionary once per batch, with one remap of every
//!   matrix).
//! * [`EncodedDb`] is a read-only encoding of a set [`Database`],
//!   built once and used by [`crate::engine::evaluate_encoded`]. It
//!   records the [`Database::version`] of every relation it encoded,
//!   so a database mutated after the encoding was built is refused
//!   exactly, in release builds too.
//!
//! Results are bit-identical to the uncached columnar path: codes are
//! order-preserving whether the dictionary covers the whole database
//! or just the query's relations, so every comparison, fold, and
//! merge runs in exactly the same sequence.

use super::columnar::ColumnarRelation;
use super::DuplicateRow;
use crate::annotated::{duplicate_error, AnnotateError, AnnotatedDb};
use hq_db::{Database, Fact, Interner, RowCode, Sym, Tuple, Value, ValueDict};
use hq_query::{Query, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One relation's cached code matrix: row-major codes in the
/// relation's *written* column order, rows in sorted tuple order.
#[derive(Debug, Clone)]
struct EncodedRel {
    width: usize,
    len: usize,
    codes: Vec<RowCode>,
    /// The [`Database::version`] of the relation when these codes were
    /// encoded — what the staleness guard compares against.
    version: u64,
}

/// What one batch of writes did to a [`BaseDb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Relations some write of the batch changed, in symbol order.
    pub changed: Vec<Sym>,
    /// Whether novel domain values forced a dictionary extension (and
    /// one remap of every stored matrix).
    pub dict_extended: bool,
    /// The old→new code map of the dictionary extension
    /// (`translation[old_code] == new_code`), present exactly when
    /// `dict_extended`. Derived caches holding code matrices over the
    /// pre-extension dictionary (the serving layer's plan-node cache)
    /// remap themselves through this instead of rebuilding: the
    /// translation is order-preserving, so remapped matrices stay
    /// sorted and comparable under the extended dictionary.
    pub translation: Option<Arc<Vec<RowCode>>>,
}

/// One stored relation: `len` rows of `width` codes each, sorted by
/// code (the dictionary preserves order, so this is sorted tuple
/// order), with one annotation per row. The width outlives the
/// relation's last fact: a relation stays declared once written.
#[derive(Debug, Clone)]
struct BaseRel<E> {
    width: usize,
    codes: Vec<RowCode>,
    anns: Vec<E>,
}

impl<E> BaseRel<E> {
    fn row(&self, i: usize) -> &[RowCode] {
        &self.codes[i * self.width..(i + 1) * self.width]
    }

    /// Binary search for the row `key`: `Ok(row)` when stored, else
    /// `Err(insertion point)`. Rows are counted by annotations, so
    /// nullary relations (width 0, at most one row) work too.
    fn find(&self, key: &[RowCode]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.anns.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }
}

/// The annotated base facts of a serving session or server epoch,
/// stored once and already encoded: per relation, a sorted code matrix
/// and a parallel annotation column over one shared [`ValueDict`].
/// Scans read it directly; listing its facts decodes it.
#[derive(Debug, Clone)]
pub struct BaseDb<E> {
    dict: Arc<ValueDict>,
    rels: BTreeMap<Sym, BaseRel<E>>,
}

impl<E> Default for BaseDb<E> {
    fn default() -> Self {
        BaseDb {
            dict: Arc::default(),
            rels: BTreeMap::new(),
        }
    }
}

impl<E: Clone + PartialEq> BaseDb<E> {
    /// The shared dictionary handle — plan nodes assembled from this
    /// store clone it so their matrices stay code-compatible.
    pub(crate) fn shared_dict(&self) -> Arc<ValueDict> {
        Arc::clone(&self.dict)
    }

    /// The declared width of `rel`: set by its first insert and kept
    /// after its last fact is deleted. `None` for a relation never
    /// written.
    pub(crate) fn width(&self, rel: Sym) -> Option<usize> {
        self.rels.get(&rel).map(|r| r.width)
    }

    /// Every declared relation with its width.
    pub(crate) fn widths(&self) -> impl Iterator<Item = (Sym, usize)> + '_ {
        self.rels.iter().map(|(&sym, r)| (sym, r.width))
    }

    /// The stored annotation of `fact`, if present.
    pub(crate) fn get(&self, fact: &Fact) -> Option<&E> {
        let rel = self.rels.get(&fact.rel)?;
        let mut key = Vec::with_capacity(fact.tuple.arity());
        if fact.tuple.arity() != rel.width || !self.dict.encode_into(&fact.tuple, &mut key) {
            return None;
        }
        rel.find(&key).ok().map(|i| &rel.anns[i])
    }

    /// The stored facts of `rel` in sorted tuple order, decoded.
    pub(crate) fn rows(&self, rel: Sym) -> impl Iterator<Item = (Tuple, &E)> + '_ {
        self.rels.get(&rel).into_iter().flat_map(move |r| {
            r.anns
                .iter()
                .enumerate()
                .map(move |(i, e)| (self.dict.decode(r.row(i)), e))
        })
    }

    /// Every stored `(fact, annotation)` pair in fact order, decoded.
    pub(crate) fn facts(&self) -> Vec<(Fact, E)> {
        self.rels
            .keys()
            .flat_map(|&sym| {
                self.rows(sym)
                    .map(move |(t, e)| (Fact::new(sym, t), e.clone()))
            })
            .collect()
    }

    /// Applies a batch of writes in order — a write whose annotation
    /// `is_zero` deletes, any other inserts or overwrites; later
    /// writes to the same fact win — and reports what changed.
    ///
    /// Each fact's final write lands as one point insert, overwrite or
    /// remove in its relation's sorted vectors. Domain values of the
    /// *post-batch* facts that the dictionary lacks extend it once,
    /// order-preserving, with one remap of every stored matrix; a
    /// value inserted and deleted within the batch extends nothing.
    ///
    /// # Errors
    /// [`AnnotateError::ArityMismatch`] when an insert disagrees with
    /// its relation's declared width, or with an earlier insert of the
    /// same batch that declares a new relation. Validation precedes
    /// every write, so a rejected batch changes nothing. Deletes are
    /// exempt: an arity-mismatched fact can never be stored, so
    /// deleting it is a no-op.
    pub(crate) fn write_batch(
        &mut self,
        interner: &Interner,
        writes: &[(Fact, E)],
        is_zero: impl Fn(&E) -> bool,
    ) -> Result<RefreshOutcome, AnnotateError> {
        let mut declared: BTreeMap<Sym, usize> = BTreeMap::new();
        for (fact, value) in writes {
            if is_zero(value) {
                continue;
            }
            let arity = fact.tuple.arity();
            match self
                .width(fact.rel)
                .or_else(|| declared.get(&fact.rel).copied())
            {
                Some(width) => check_width(interner.resolve(fact.rel), width, arity)?,
                None => {
                    declared.insert(fact.rel, arity);
                }
            }
        }
        // Replay the writes against the store plus the batch so far: a
        // relation changed when any single write moved a fact's value,
        // and each fact ends at its last write.
        let mut last: BTreeMap<&Fact, Option<&E>> = BTreeMap::new();
        let mut changed: BTreeSet<Sym> = BTreeSet::new();
        for (fact, value) in writes {
            let new = (!is_zero(value)).then_some(value);
            let current = match last.get(fact) {
                Some(&v) => v,
                None => self.get(fact),
            };
            if current != new {
                changed.insert(fact.rel);
            }
            last.insert(fact, new);
        }
        if changed.is_empty() {
            return Ok(RefreshOutcome::default());
        }
        for (rel, width) in declared {
            self.rels.insert(
                rel,
                BaseRel {
                    width,
                    codes: Vec::new(),
                    anns: Vec::new(),
                },
            );
        }
        let novel: Vec<Value> = last
            .iter()
            .filter(|(_, new)| new.is_some())
            .flat_map(|(fact, _)| fact.tuple.values().iter().copied())
            .filter(|&v| self.dict.code(v).is_none())
            .collect();
        let translation = if novel.is_empty() {
            None
        } else {
            let (dict, translation) = self.dict.extend_with(novel);
            for rel in self.rels.values_mut() {
                for c in &mut rel.codes {
                    *c = translation[*c as usize];
                }
            }
            self.dict = Arc::new(dict);
            Some(Arc::new(translation))
        };
        // `last` is in fact order, so each relation's writes arrive in
        // ascending code order: inserts into an empty relation append.
        let mut key = Vec::new();
        for (fact, new) in last {
            let Some(rel) = self.rels.get_mut(&fact.rel) else {
                continue; // a delete in a relation never written
            };
            key.clear();
            if fact.tuple.arity() != rel.width || !self.dict.encode_into(&fact.tuple, &mut key) {
                continue; // a delete of a fact that cannot be stored
            }
            let w = rel.width;
            match (rel.find(&key), new) {
                (Ok(i), Some(e)) => rel.anns[i] = e.clone(),
                (Ok(i), None) => {
                    rel.codes.drain(i * w..(i + 1) * w);
                    rel.anns.remove(i);
                }
                (Err(i), Some(e)) => {
                    rel.codes.splice(i * w..i * w, key.iter().copied());
                    rel.anns.insert(i, e.clone());
                }
                (Err(_), None) => {}
            }
        }
        Ok(RefreshOutcome {
            changed: changed.into_iter().collect(),
            dict_extended: translation.is_some(),
            translation,
        })
    }

    /// Assembles one query atom's columnar slot from the stored codes
    /// and annotations: relation `rel_name` keyed by `sorted_vars` via
    /// the written-order permutation `positions` (`None` when it is
    /// the identity). `dup` renders a duplicate key (repeated
    /// variables in the atom) into the caller's error.
    ///
    /// # Errors
    /// [`AnnotateError::ArityMismatch`] / the rendered duplicate.
    pub(crate) fn slot(
        &self,
        interner: &Interner,
        rel_name: &str,
        sorted_vars: Vec<Var>,
        positions: Option<&[usize]>,
        dup: impl FnOnce(Tuple) -> AnnotateError,
    ) -> Result<ColumnarRelation<E>, AnnotateError> {
        match interner.get(rel_name).and_then(|s| self.rels.get(&s)) {
            None => assemble_slot(&self.dict, sorted_vars, &[], Vec::new(), positions, dup),
            Some(rel) => {
                check_width(rel_name, sorted_vars.len(), rel.width)?;
                let anns = rel.anns.clone();
                assemble_slot(&self.dict, sorted_vars, &rel.codes, anns, positions, dup)
            }
        }
    }
}

/// The arity check of every write and slot assembly.
fn check_width(rel: &str, atom_arity: usize, fact_arity: usize) -> Result<(), AnnotateError> {
    if atom_arity == fact_arity {
        Ok(())
    } else {
        Err(AnnotateError::ArityMismatch {
            rel: rel.to_owned(),
            atom_arity,
            fact_arity,
        })
    }
}

/// Builds a columnar slot keyed by `vars` from a relation's code
/// matrix (row-major, written column order, rows sorted) and its
/// annotation column. A non-identity `positions` reorders each row's
/// columns, which breaks the sort: the rows are then argsorted by
/// code (4-byte comparisons), like the uncached build path. A key
/// occurring twice (an atom with repeated variables) is reported
/// through `dup`, the same `DuplicateFact` the uncached path raises.
fn assemble_slot<K>(
    dict: &Arc<ValueDict>,
    vars: Vec<Var>,
    codes: &[RowCode],
    anns: Vec<K>,
    positions: Option<&[usize]>,
    dup: impl FnOnce(Tuple) -> AnnotateError,
) -> Result<ColumnarRelation<K>, AnnotateError> {
    let width = vars.len();
    let len = anns.len();
    let (keys, anns) = match positions {
        None => (codes.to_vec(), anns),
        Some(positions) => {
            let mut keys = Vec::with_capacity(codes.len());
            for r in 0..len {
                let row = &codes[r * width..(r + 1) * width];
                for &p in positions {
                    keys.push(row[p]);
                }
            }
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                keys[a * width..(a + 1) * width].cmp(&keys[b * width..(b + 1) * width])
            });
            let mut new_keys = Vec::with_capacity(keys.len());
            let mut old: Vec<Option<K>> = anns.into_iter().map(Some).collect();
            let mut new_anns = Vec::with_capacity(len);
            for &i in &order {
                let i = i as usize;
                new_keys.extend_from_slice(&keys[i * width..(i + 1) * width]);
                new_anns.push(old[i].take().expect("each row moved once"));
            }
            (new_keys, new_anns)
        }
    };
    if let Some(i) =
        (1..len).find(|&i| keys[(i - 1) * width..i * width] == keys[i * width..(i + 1) * width])
    {
        return Err(dup(dict.decode(&keys[i * width..(i + 1) * width])));
    }
    Ok(ColumnarRelation {
        vars,
        width,
        len,
        dict: Arc::clone(dict),
        keys,
        anns,
    })
}

/// A set database's dictionary encoding, computed once and reused by
/// every query evaluated over that database (see
/// [`crate::engine::evaluate_encoded`]).
#[derive(Debug, Clone)]
pub struct EncodedDb {
    dict: Arc<ValueDict>,
    rels: BTreeMap<Sym, EncodedRel>,
}

impl EncodedDb {
    /// Encodes every relation of `db` over one shared dictionary.
    pub fn new(db: &Database) -> Self {
        let mut values: Vec<Value> = Vec::new();
        for (_, rel) in db.relations() {
            for t in rel.iter() {
                values.extend_from_slice(t.values());
            }
        }
        let dict = Arc::new(ValueDict::build(values));
        let mut rels = BTreeMap::new();
        for (sym, rel) in db.relations() {
            rels.insert(sym, encode_rel(&dict, rel, db.version(sym)));
        }
        EncodedDb { dict, rels }
    }

    /// The shared dictionary (tests and diagnostics).
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Exact staleness guard: the encoding records each relation's
    /// [`Database::version`] at encode time, so *any* effective
    /// mutation since — growth, shrinkage, or an interior same-size
    /// swap — is caught in `O(1)`, in release builds too. `Database`
    /// hands out no `&mut Relation`, so every mutation bumps a counter;
    /// the row count stays always-on anyway, as a second line of
    /// defence should a mutation path that skips the counter ever
    /// appear. Debug builds additionally re-encode every tuple as a
    /// belt-and-braces check that equal versions really do imply equal
    /// codes.
    fn check_fresh(&self, sym: Sym, enc: &EncodedRel, db: &Database) {
        assert_eq!(
            db.version(sym),
            enc.version,
            "relation {sym:?} changed since it was encoded — refresh or rebuild the encoding"
        );
        let rel = db.relation(sym).expect("encoded relation exists");
        assert_eq!(
            rel.len(),
            enc.len,
            "relation {sym:?} changed behind its version counter — refresh or rebuild the encoding"
        );
        #[cfg(debug_assertions)]
        {
            let mut codes = Vec::with_capacity(enc.width);
            for (idx, t) in rel.iter().enumerate() {
                codes.clear();
                assert!(
                    self.dict.encode_into(t, &mut codes)
                        && codes == enc.codes[idx * enc.width..(idx + 1) * enc.width],
                    "relation {sym:?} row {idx} diverged from its encoding at equal versions"
                );
            }
        }
    }

    /// Assembles the K-annotated columnar database for `q` from the
    /// cached codes. `ann` is called once per fact, in each relation's
    /// sorted tuple order, to supply its annotation. `db` must be the
    /// database this encoding was built from.
    ///
    /// # Errors
    /// [`AnnotateError::ArityMismatch`] when a query atom disagrees
    /// with the encoded relation's arity, [`AnnotateError::DuplicateFact`]
    /// when an atom with repeated variables keys two facts identically.
    ///
    /// # Panics
    /// Panics when any queried relation's [`Database::version`] moved
    /// since it was encoded: mutating the database requires a rebuild
    /// of the encoding first. The version counters make the detection
    /// exact — interior same-size mutations that content spot checks
    /// could miss are caught in release builds too.
    pub fn annotate<K, F>(
        &self,
        db: &Database,
        q: &Query,
        interner: &Interner,
        mut ann: F,
    ) -> Result<AnnotatedDb<ColumnarRelation<K>>, AnnotateError>
    where
        K: Clone + PartialEq + fmt::Debug + Send + Sync + 'static,
        F: FnMut(Sym, &Tuple) -> K,
    {
        let mut slot_vars: Vec<Vec<Var>> = Vec::with_capacity(q.atom_count());
        let mut slot_positions: Vec<Option<Vec<usize>>> = Vec::with_capacity(q.atom_count());
        for atom in q.atoms() {
            let (sorted, positions) = atom.key_positions();
            slot_vars.push(sorted);
            slot_positions.push(positions);
        }
        let mut slots = Vec::with_capacity(q.atom_count());
        for (slot, atom) in q.atoms().iter().enumerate() {
            let sym = interner.get(&atom.rel);
            let (codes, anns): (&[RowCode], Vec<K>) = match sym
                .and_then(|s| self.rels.get(&s).map(|e| (s, e)))
            {
                None => {
                    // The relation holds no facts — but if the
                    // *database* has grown one behind the
                    // encoding's back, silence would serve stale
                    // emptiness.
                    if let Some(sym) = sym {
                        assert!(
                                db.relation(sym).is_none_or(|r| r.is_empty()),
                                "relation {sym:?} appeared after the encoding was built — refresh or rebuild the encoding"
                            );
                    }
                    (&[], Vec::new())
                }
                Some((sym, enc)) => {
                    check_width(&atom.rel, slot_vars[slot].len(), enc.width)?;
                    self.check_fresh(sym, enc, db);
                    let rel = db.relation(sym).expect("encoded relation exists");
                    (&enc.codes, rel.iter().map(|t| ann(sym, t)).collect())
                }
            };
            let rel = assemble_slot(
                &self.dict,
                slot_vars[slot].clone(),
                codes,
                anns,
                slot_positions[slot].as_deref(),
                |key| duplicate_error(q, interner, &slot_positions, DuplicateRow { slot, key }),
            )?;
            slots.push(Some(rel));
        }
        Ok(AnnotatedDb { slots })
    }
}

/// Encodes one relation's sorted tuples into a row-major code matrix.
fn encode_rel(dict: &ValueDict, rel: &hq_db::Relation, version: u64) -> EncodedRel {
    let width = rel.arity();
    let mut codes = Vec::with_capacity(rel.len() * width);
    for t in rel.iter() {
        let ok = dict.encode_into(t, &mut codes);
        debug_assert!(ok, "dictionary covers the whole database");
    }
    EncodedRel {
        width,
        len: rel.len(),
        codes,
        version,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotated::annotate_columnar;
    use crate::storage::Storage;
    use hq_db::db_from_ints;
    use hq_query::{example_query, Query};

    fn fig1() -> (Database, Interner) {
        db_from_ints(&[
            ("R", &[&[1, 5]]),
            ("S", &[&[1, 1], &[1, 2]]),
            ("T", &[&[1, 2, 4]]),
        ])
    }

    #[test]
    fn cached_slots_match_direct_annotation() {
        let (db, i) = fig1();
        let q = example_query();
        let enc = EncodedDb::new(&db);
        let cached = enc
            .annotate::<f64, _>(&db, &q, &i, |_, t| 0.1 + t.arity() as f64 * 0.2)
            .unwrap();
        let facts = db.facts();
        let direct = annotate_columnar(
            &q,
            &i,
            facts
                .iter()
                .map(|f| (f.rel, &f.tuple, 0.1 + f.tuple.arity() as f64 * 0.2)),
        )
        .unwrap();
        assert_eq!(cached.support_size(), direct.support_size());
        for (c, d) in cached.slots.iter().zip(&direct.slots) {
            let (c, d) = (c.as_ref().unwrap(), d.as_ref().unwrap());
            assert_eq!(c.rows(), d.rows());
            assert_eq!(Storage::vars(c), Storage::vars(d));
        }
    }

    #[test]
    fn one_encoding_serves_many_queries() {
        let (db, i) = fig1();
        let enc = EncodedDb::new(&db);
        for q_src in ["Q() :- S(A,C)", "Q() :- R(A,B), S(A,C)"] {
            let q = hq_query::parse_query(q_src).unwrap();
            let adb = enc.annotate::<u64, _>(&db, &q, &i, |_, _| 1).unwrap();
            assert_eq!(adb.slots.len(), q.atom_count(), "{q_src}");
        }
    }

    #[test]
    fn permuted_atom_columns_resort() {
        // U(B, A): written order is reverse var order, so cached rows
        // must be re-keyed and re-sorted.
        let q = Query::new(&[("V", &["A"]), ("U", &["B", "A"])]).unwrap();
        let (db, i) = db_from_ints(&[("U", &[&[10, 20], &[11, 3]])]);
        let enc = EncodedDb::new(&db);
        let adb = enc.annotate::<u64, _>(&db, &q, &i, |_, _| 1).unwrap();
        let rows = adb.slots[1].as_ref().unwrap().rows();
        // Keys are (A, B): (3, 11) sorts before (20, 10).
        assert_eq!(rows[0].0, Tuple::ints(&[3, 11]));
        assert_eq!(rows[1].0, Tuple::ints(&[20, 10]));
    }

    #[test]
    #[should_panic(expected = "refresh or rebuild the encoding")]
    fn stale_snapshot_detected() {
        // Same row count, same first/last tuples, different interior:
        // the old spot checks missed this shape in release builds; the
        // version guard must refuse it everywhere.
        let (mut db, i) = db_from_ints(&[("R", &[&[1], &[5], &[9]])]);
        let q = Query::new(&[("R", &["X"])]).unwrap();
        let enc = EncodedDb::new(&db);
        let r = i.get("R").unwrap();
        db.remove(&hq_db::Fact::new(r, Tuple::ints(&[5])));
        db.insert_tuple(r, Tuple::ints(&[7]));
        let _ = enc.annotate::<u64, _>(&db, &q, &i, |_, _| 1);
    }

    type Writes = Vec<(hq_db::Fact, u64)>;

    fn write(base: &mut BaseDb<u64>, i: &Interner, writes: &Writes) -> RefreshOutcome {
        base.write_batch(i, writes, |&k| k == 0).unwrap()
    }

    fn fig1_base() -> (BaseDb<u64>, Database, Interner) {
        let (db, i) = fig1();
        let mut base = BaseDb::default();
        let facts: Writes = db.facts().into_iter().map(|f| (f, 1)).collect();
        write(&mut base, &i, &facts);
        (base, db, i)
    }

    /// Every slot `base` assembles for `q` equals a from-scratch
    /// encoding of the set database `db` (all annotations 1).
    fn assert_matches_rebuild(base: &BaseDb<u64>, db: &Database, i: &Interner, q: &Query) {
        let want = EncodedDb::new(db)
            .annotate::<u64, _>(db, q, i, |_, _| 1)
            .unwrap();
        for (atom, w) in q.atoms().iter().zip(&want.slots) {
            let (vars, positions) = atom.key_positions();
            let got = base
                .slot(i, &atom.rel, vars, positions.as_deref(), |_| unreachable!())
                .unwrap();
            assert_eq!(got.rows(), w.as_ref().unwrap().rows(), "{}", atom.rel);
        }
    }

    #[test]
    fn base_write_changes_only_touched_relations() {
        let (mut base, mut db, i) = fig1_base();
        assert_matches_rebuild(&base, &db, &i, &example_query());
        let (r, s) = (i.get("R").unwrap(), i.get("S").unwrap());
        let r_before: Vec<(Tuple, u64)> = base.rows(r).map(|(t, &k)| (t, k)).collect();
        let fact = hq_db::Fact::new(s, Tuple::ints(&[2, 2]));
        let out = write(&mut base, &i, &vec![(fact.clone(), 1)]);
        assert_eq!(out.changed, vec![s]);
        assert!(!out.dict_extended, "value 2 already in the dictionary");
        let r_after: Vec<(Tuple, u64)> = base.rows(r).map(|(t, &k)| (t, k)).collect();
        assert_eq!(r_after, r_before, "R untouched");
        db.insert(fact.clone());
        assert_matches_rebuild(&base, &db, &i, &example_query());
        // Rewriting the stored value changes nothing.
        let out = write(&mut base, &i, &vec![(fact, 1)]);
        assert_eq!(out, RefreshOutcome::default());
    }

    #[test]
    fn base_write_extends_dictionary_once_per_batch() {
        let (mut base, mut db, i) = fig1_base();
        let before = base.shared_dict().len();
        let (r, s) = (i.get("R").unwrap(), i.get("S").unwrap());
        // 777 and 778 are outside the original domain: one batch
        // writing both grows the shared dictionary once, and *every*
        // stored matrix stays consistent.
        let batch: Writes = vec![
            (hq_db::Fact::new(r, Tuple::ints(&[1, 777])), 1),
            (hq_db::Fact::new(s, Tuple::ints(&[1, 778])), 1),
        ];
        let out = write(&mut base, &i, &batch);
        assert!(out.dict_extended);
        assert_eq!(out.changed, vec![r, s]);
        assert_eq!(out.translation.as_ref().map(|t| t.len()), Some(before));
        assert_eq!(base.shared_dict().len(), before + 2);
        for (f, _) in &batch {
            db.insert(f.clone());
        }
        assert_matches_rebuild(&base, &db, &i, &example_query());
    }

    #[test]
    fn novel_value_inserted_and_deleted_in_one_batch_extends_nothing() {
        let (mut base, db, i) = fig1_base();
        let before = base.shared_dict();
        let r = i.get("R").unwrap();
        let fact = hq_db::Fact::new(r, Tuple::ints(&[1, 999]));
        let out = write(&mut base, &i, &vec![(fact.clone(), 1), (fact, 0)]);
        assert!(!out.dict_extended, "{out:?}");
        assert_eq!(base.shared_dict(), before);
        assert_matches_rebuild(&base, &db, &i, &example_query());
    }

    #[test]
    fn width_survives_deleting_the_last_fact() {
        let (mut base, _, i) = fig1_base();
        let r = i.get("R").unwrap();
        let only = hq_db::Fact::new(r, Tuple::ints(&[1, 5]));
        write(&mut base, &i, &vec![(only, 0)]);
        assert_eq!(base.rows(r).count(), 0);
        assert_eq!(base.width(r), Some(2));
        let wide = hq_db::Fact::new(r, Tuple::ints(&[1, 2, 3]));
        let err = base.write_batch(&i, &[(wide, 1)], |&k| k == 0);
        assert!(matches!(err, Err(AnnotateError::ArityMismatch { .. })));
        let err = base.slot(&i, "R", vec![Var(0)], None, |_| unreachable!());
        assert!(matches!(err, Err(AnnotateError::ArityMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "appeared after the encoding was built")]
    fn relation_born_after_encoding_detected() {
        let (db, mut i) = db_from_ints(&[("R", &[&[1]])]);
        let enc = EncodedDb::new(&db);
        let mut db2 = db.clone();
        let s = i.intern("S");
        db2.insert_tuple(s, Tuple::ints(&[3]));
        let q = Query::new(&[("S", &["X"])]).unwrap();
        let _ = enc.annotate::<u64, _>(&db2, &q, &i, |_, _| 1);
    }

    #[test]
    fn arity_mismatch_reported() {
        let q = example_query();
        let (db, i) = db_from_ints(&[("R", &[&[1]])]); // R should be binary
        let enc = EncodedDb::new(&db);
        let err = enc.annotate::<u64, _>(&db, &q, &i, |_, _| 1).unwrap_err();
        assert!(matches!(err, AnnotateError::ArityMismatch { .. }));
    }
}
