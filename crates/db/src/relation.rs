//! Set relations: named collections of distinct tuples of fixed arity.

use crate::tuple::Tuple;

/// A *set* relation instance (the paper's input model never allows
/// duplicate facts; bags only appear in query *outputs*).
///
/// Tuples are kept in **one sorted, deduplicated vector**. Iteration is
/// therefore sorted, which the annotated-relation storage layer exploits
/// to build its columnar code matrices without re-sorting, and which
/// makes every display/bench/test path deterministic by construction.
/// Build large relations with [`Relation::insert_batch`] (one sort plus
/// one merge pass); [`Relation::insert`] and [`Relation::remove`] shift
/// the vector, which suits small databases only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: Vec::new(),
        }
    }

    /// The arity every tuple must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    fn check_arity(&self, tuple: &Tuple) {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.arity(),
            self.arity
        );
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    /// Costs a binary search plus a shift of the larger tuples.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation arity.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.check_arity(&tuple);
        match self.tuples.binary_search(&tuple) {
            Ok(_) => false,
            Err(pos) => {
                self.tuples.insert(pos, tuple);
                true
            }
        }
    }

    /// Inserts a batch of tuples in one sort plus one merge pass;
    /// returns how many were new. Equivalent to (but much cheaper than)
    /// inserting them one by one. A `Vec` batch moved into an empty
    /// relation becomes its storage without being copied.
    ///
    /// # Panics
    /// Panics if any tuple's arity does not match the relation arity.
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> usize {
        let mut batch: Vec<Tuple> = tuples.into_iter().collect();
        for t in &batch {
            self.check_arity(t);
        }
        batch.sort_unstable();
        batch.dedup();
        batch.retain(|t| !self.contains(t));
        let added = batch.len();
        self.tuples = merge_disjoint(std::mem::take(&mut self.tuples), batch);
        added
    }

    /// Removes a tuple; returns `true` if it was present. Costs a
    /// binary search plus a shift of the larger tuples.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        match self.tuples.binary_search(tuple) {
            Ok(pos) => {
                self.tuples.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the tuple is present.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.binary_search(tuple).is_ok()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the tuples in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }
}

/// Merges two sorted vectors with no common elements into one. Either
/// side being empty returns the other unchanged, without copying.
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

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(r: &Relation) -> Vec<i64> {
        r.iter()
            .map(|t| match t.get(0) {
                crate::value::Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect()
    }

    /// The same values in ascending, descending and interleaved order.
    fn orders(n: i64) -> [Vec<i64>; 3] {
        [
            (0..n).collect(),
            (0..n).rev().collect(),
            (0..n)
                .map(|v| if v % 2 == 0 { v / 2 } else { n - 1 - v / 2 })
                .collect(),
        ]
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::ints(&[1, 2])));
        assert!(!r.insert(Tuple::ints(&[1, 2])));
        assert!(r.insert(Tuple::ints(&[2, 1])));
        assert_eq!(r.len(), 2);
        // Every value re-inserted after a full build, in every order.
        for order in orders(50) {
            let mut r = Relation::new(1);
            for &v in &order {
                assert!(r.insert(Tuple::ints(&[v])));
            }
            for &v in order.iter().rev() {
                assert!(!r.insert(Tuple::ints(&[v])), "duplicate {v} re-admitted");
            }
            assert_eq!(r.len(), 50);
        }
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
        // Removals at both ends and in the middle keep the rest sorted.
        let mut r = Relation::new(1);
        r.insert_batch((0..10).map(|v| Tuple::ints(&[v])));
        for v in [9, 0, 5] {
            assert!(r.remove(&Tuple::ints(&[v])));
            assert!(!r.contains(&Tuple::ints(&[v])));
        }
        assert_eq!(ints(&r), vec![1, 2, 3, 4, 6, 7, 8]);
    }

    #[test]
    fn sorted_is_deterministic() {
        for order in orders(41) {
            let mut r = Relation::new(1);
            for &v in &order {
                r.insert(Tuple::ints(&[v]));
            }
            assert_eq!(ints(&r), (0..41).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nullary_relation_holds_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert(Tuple::empty()));
        assert!(!r.insert(Tuple::empty()));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_batch_counts_new_tuples_only() {
        let mut r = Relation::new(1);
        r.insert(Tuple::ints(&[2]));
        let added = r.insert_batch([4, 1, 2, 4, 3].map(|v| Tuple::ints(&[v])));
        assert_eq!(added, 3, "2 was present, 4 duplicated in the batch");
        assert_eq!(r.len(), 4);
        assert_eq!(r.insert_batch(std::iter::empty()), 0);
        // A batched build equals the same set built one at a time, from
        // empty and on top of existing tuples, in every input order.
        for order in orders(30) {
            let mut serial = Relation::new(1);
            for &v in &order {
                serial.insert(Tuple::ints(&[v]));
            }
            let mut batched = Relation::new(1);
            assert_eq!(
                batched.insert_batch(order.iter().map(|&v| Tuple::ints(&[v]))),
                30
            );
            assert_eq!(batched, serial);
            let mut topped = Relation::new(1);
            topped.insert_batch(order[..10].iter().map(|&v| Tuple::ints(&[v])));
            assert_eq!(
                topped.insert_batch(order.iter().map(|&v| Tuple::ints(&[v]))),
                20
            );
            assert_eq!(topped, serial);
            serial.remove(&Tuple::ints(&[5]));
            assert_ne!(batched, serial);
        }
    }
}
