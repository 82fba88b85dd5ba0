//! Set relations: named collections of distinct tuples of fixed arity.

use crate::tuple::Tuple;

/// How many staged inserts accumulate before they merge into the bulk
/// vector. Small enough that the stage's binary-searched insertion
/// shifts stay cheap (a few cache lines), large enough that a burst of
/// `n` inserts costs `O(n log n + n·|bulk|/STAGE_CAP)` moved tuples
/// instead of the `O(n·|bulk|)` a direct sorted-vector insert would.
const STAGE_CAP: usize = 512;

/// A *set* relation instance (the paper's input model never allows
/// duplicate facts; bags only appear in query *outputs*).
///
/// Tuples are kept in **two sorted, deduplicated, disjoint vectors**:
/// the bulk plus a small staged buffer of recent inserts that merges
/// into the bulk when it reaches `STAGE_CAP` entries (or when a batch
/// insert flushes it). Iteration interleaves the two — always sorted,
/// which the annotated-relation storage layer exploits to build its
/// columnar code matrices without re-sorting, and which makes every
/// display/bench/test path deterministic by construction. Compared with
/// the ordered-set representation this replaces, the contiguous layout
/// reads with no pointer chasing and bulk-builds with one merge pass.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    /// The sorted bulk.
    tuples: Vec<Tuple>,
    /// Staged recent inserts: sorted, deduplicated, disjoint from
    /// `tuples`.
    stage: Vec<Tuple>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The bulk/stage split is bookkeeping, not content: two
        // relations holding the same tuples are equal however their
        // inserts were batched.
        self.arity == other.arity && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: Vec::new(),
            stage: Vec::new(),
        }
    }

    /// The arity every tuple must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation arity.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.arity(),
            self.arity
        );
        if self.tuples.binary_search(&tuple).is_ok() {
            return false;
        }
        match self.stage.binary_search(&tuple) {
            Ok(_) => false,
            Err(pos) => {
                self.stage.insert(pos, tuple);
                if self.stage.len() >= STAGE_CAP {
                    self.flush();
                }
                true
            }
        }
    }

    /// Inserts a batch of tuples in one merge pass; returns how many
    /// were new. Equivalent to (but much cheaper than) inserting them
    /// one by one.
    ///
    /// # Panics
    /// Panics if any tuple's arity does not match the relation arity.
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> usize {
        let mut batch: Vec<Tuple> = tuples
            .into_iter()
            .inspect(|t| {
                assert_eq!(
                    t.arity(),
                    self.arity,
                    "tuple arity {} does not match relation arity {}",
                    t.arity(),
                    self.arity
                );
            })
            .collect();
        batch.sort_unstable();
        batch.dedup();
        batch.retain(|t| !self.contains(t));
        if batch.is_empty() {
            return 0;
        }
        let added = batch.len();
        self.flush();
        self.tuples = merge_disjoint(std::mem::take(&mut self.tuples), batch);
        added
    }

    /// Merges the staged inserts into the bulk vector.
    fn flush(&mut self) {
        if self.stage.is_empty() {
            return;
        }
        let stage = std::mem::take(&mut self.stage);
        self.tuples = merge_disjoint(std::mem::take(&mut self.tuples), stage);
    }

    /// Removes a tuple; returns `true` if it was present.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if let Ok(pos) = self.tuples.binary_search(tuple) {
            self.tuples.remove(pos);
            true
        } else if let Ok(pos) = self.stage.binary_search(tuple) {
            self.stage.remove(pos);
            true
        } else {
            false
        }
    }

    /// Whether the tuple is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.binary_search(tuple).is_ok() || self.stage.binary_search(tuple).is_ok()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len() + self.stage.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.stage.is_empty()
    }

    /// Iterates over the tuples in ascending order (interleaving the
    /// bulk and the staged inserts).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            bulk: &self.tuples,
            stage: &self.stage,
        }
    }

    /// Returns the tuples in sorted order (kept for API compatibility;
    /// iteration is already sorted, so this is a plain collect).
    pub fn sorted(&self) -> Vec<&Tuple> {
        self.iter().collect()
    }
}

/// Merges two sorted vectors with no common elements into one.
fn merge_disjoint(a: Vec<Tuple>, b: Vec<Tuple>) -> Vec<Tuple> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if x < y {
                    out.push(a.next().expect("peeked"));
                } else {
                    out.push(b.next().expect("peeked"));
                }
            }
            (Some(_), None) => {
                out.extend(a);
                return out;
            }
            (None, _) => {
                out.extend(b);
                return out;
            }
        }
    }
}

/// Sorted iterator over a relation's tuples: a two-way interleave of
/// the bulk and staged vectors (disjoint, so no equality case).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bulk: &'a [Tuple],
    stage: &'a [Tuple],
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match (self.bulk.first(), self.stage.first()) {
            (Some(b), Some(s)) => {
                if b < s {
                    self.bulk = &self.bulk[1..];
                    Some(b)
                } else {
                    self.stage = &self.stage[1..];
                    Some(s)
                }
            }
            (Some(b), None) => {
                self.bulk = &self.bulk[1..];
                Some(b)
            }
            (None, Some(s)) => {
                self.stage = &self.stage[1..];
                Some(s)
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bulk.len() + self.stage.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::ints(&[1, 2])));
        assert!(!r.insert(Tuple::ints(&[1, 2])));
        assert!(r.insert(Tuple::ints(&[2, 1])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1]));
    }

    #[test]
    fn remove_and_contains() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[7]));
        assert!(r.contains(&Tuple::ints(&[7])));
        assert!(r.remove(&Tuple::ints(&[7])));
        assert!(!r.remove(&Tuple::ints(&[7])));
        assert!(r.is_empty());
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(1);
        for v in [5, 1, 3, 2, 4] {
            r.insert(Tuple::ints(&[v]));
        }
        let sorted: Vec<i64> = r
            .sorted()
            .iter()
            .map(|t| match t.get(0) {
                crate::value::Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn nullary_relation_holds_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert(Tuple::empty()));
        assert!(!r.insert(Tuple::empty()));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn staged_inserts_stay_sorted_across_flushes() {
        // Cross the stage capacity several times with an adversarial
        // (descending, interleaved) order and check that iteration,
        // lookups and removals all see one consistent sorted set.
        let mut r = Relation::new(1);
        let n = 3 * STAGE_CAP as i64 + 17;
        for v in (0..n).rev() {
            assert!(r.insert(Tuple::ints(&[v])));
        }
        for v in 0..n {
            assert!(!r.insert(Tuple::ints(&[v])), "duplicate {v} re-admitted");
        }
        assert_eq!(r.len(), n as usize);
        let got: Vec<i64> = r
            .iter()
            .map(|t| match t.get(0) {
                crate::value::Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert!(r.remove(&Tuple::ints(&[n - 1])));
        assert!(r.remove(&Tuple::ints(&[0])));
        assert_eq!(r.len(), n as usize - 2);
    }

    #[test]
    fn insert_batch_counts_new_tuples_only() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[2]));
        let added = r.insert_batch([4, 1, 2, 4, 3].map(|v| Tuple::ints(&[v])));
        assert_eq!(added, 3, "2 was present, 4 duplicated in the batch");
        assert_eq!(r.len(), 4);
        // A batched build equals the same set built one at a time.
        let mut serial = Relation::new(1);
        for v in [1, 2, 3, 4] {
            serial.insert(Tuple::ints(&[v]));
        }
        assert_eq!(r, serial);
        assert_eq!(r.insert_batch(std::iter::empty()), 0);
    }

    #[test]
    fn equality_ignores_the_stage_split() {
        let mut batched = Relation::new(1);
        batched.insert_batch((0..10).map(|v| Tuple::ints(&[v])));
        let mut staged = Relation::new(1);
        for v in (0..10).rev() {
            staged.insert(Tuple::ints(&[v]));
        }
        assert_eq!(batched, staged);
        staged.remove(&Tuple::ints(&[5]));
        assert_ne!(batched, staged);
    }
}
