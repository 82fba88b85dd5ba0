//! The ordered-map storage backend: one `BTreeMap<Tuple, K>` per
//! relation.
//!
//! This is the seed engine's original layout, kept as the
//! deterministic differential oracle and as the better layout for
//! point-update-heavy workloads (a serving session's delta patch
//! touches `O(dirty)` keys per update here). Its weakness is exactly what the
//! columnar backend fixes: every projection allocates a fresh boxed
//! key tuple and every insert pays an `O(log n)` tree walk.

use super::{DuplicateRow, OwnedSlot, Parallelism, Storage};
use crate::engine::EngineStats;
use hq_db::{Tuple, Value};
use hq_monoid::TwoMonoid;
use hq_query::Var;
use std::collections::BTreeMap;

/// A relation annotated with values from a 2-monoid carrier `K`,
/// storing its support in an ordered map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRelation<K> {
    /// The schema: variable ids in ascending order.
    pub vars: Vec<Var>,
    /// Support tuples (keyed in `vars` order) and their annotations.
    pub map: BTreeMap<Tuple, K>,
}

impl<K> MapRelation<K> {
    /// An empty relation over the given (sorted) variable list.
    pub fn empty(vars: Vec<Var>) -> Self {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        MapRelation {
            vars,
            map: BTreeMap::new(),
        }
    }

    /// Support size `|supp(R)|` (Definition 6.5).
    pub fn support_size(&self) -> usize {
        self.map.len()
    }
}

impl<K: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static> Storage for MapRelation<K> {
    type Ann = K;
    /// The ordered map keys by tuple already; the native key *is* the
    /// tuple.
    type Key = Tuple;

    fn build_slots(slots: Vec<OwnedSlot<K>>) -> Result<Vec<Self>, DuplicateRow> {
        use std::collections::btree_map::Entry;
        slots
            .into_iter()
            .enumerate()
            .map(|(slot, (vars, rows))| {
                let mut rel = MapRelation::empty(vars);
                for (key, k) in rows {
                    match rel.map.entry(key) {
                        Entry::Vacant(e) => {
                            e.insert(k);
                        }
                        Entry::Occupied(e) => {
                            return Err(DuplicateRow {
                                slot,
                                key: e.key().clone(),
                            });
                        }
                    }
                }
                Ok(rel)
            })
            .collect()
    }

    fn vars(&self) -> &[Var] {
        &self.vars
    }

    fn support_size(&self) -> usize {
        self.map.len()
    }

    fn project_out<M: TwoMonoid<Elem = K>>(
        self,
        monoid: &M,
        var: Var,
        _par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self {
        let pos = self
            .vars
            .iter()
            .position(|&v| v == var)
            .expect("projected variable must be in the relation schema");
        let keep: Vec<usize> = (0..self.vars.len()).filter(|&i| i != pos).collect();
        let new_vars: Vec<Var> = keep.iter().map(|&i| self.vars[i]).collect();
        let mut out = MapRelation::empty(new_vars);
        for (tuple, k) in self.map {
            let key = tuple.project(&keep);
            match out.map.get_mut(&key) {
                Some(acc) => {
                    stats.add_ops += 1;
                    monoid.add_assign(acc, &k);
                }
                None => {
                    out.map.insert(key, k);
                }
            }
        }
        // Prune zeros: annotation 0 is semantically "absent" (⊕-identity
        // on every future aggregation; merges fill with 0 anyway), and
        // pruning realises Lemma 6.6's support semantics. The predicate
        // is the monoid's, so all backends agree on IEEE-754 edge cases.
        out.map.retain(|_, v| !monoid.is_zero(v));
        out
    }

    fn merge<M: TwoMonoid<Elem = K>>(
        self,
        monoid: &M,
        mut right: Self,
        _par: Parallelism,
        stats: &mut EngineStats,
    ) -> Self {
        assert_eq!(
            self.vars, right.vars,
            "Rule 2 merges atoms with identical variable sets"
        );
        let zero = monoid.zero();
        let annihilating = monoid.annihilating();
        let mut out = MapRelation::empty(self.vars.clone());
        for (tuple, lk) in self.map {
            match right.map.remove(&tuple) {
                Some(rk) => {
                    stats.mul_ops += 1;
                    let v = monoid.mul(&lk, &rk);
                    if !monoid.is_zero(&v) {
                        out.map.insert(tuple, v);
                    }
                }
                // One-sided row: `lk ⊗ 0` is 0 for annihilating monoids,
                // so the ⊗ (and its op count) is skipped outright.
                None if annihilating => {}
                None => {
                    stats.mul_ops += 1;
                    let v = monoid.mul(&lk, &zero);
                    if !monoid.is_zero(&v) {
                        out.map.insert(tuple, v);
                    }
                }
            }
        }
        for (tuple, rk) in right.map {
            if annihilating {
                continue;
            }
            stats.mul_ops += 1;
            let v = monoid.mul(&zero, &rk);
            if !monoid.is_zero(&v) {
                out.map.insert(tuple, v);
            }
        }
        out
    }

    fn nullary_value<M: TwoMonoid<Elem = K>>(&self, monoid: &M) -> K {
        self.map
            .get(&Tuple::empty())
            .cloned()
            .unwrap_or_else(|| monoid.zero())
    }

    fn rows(&self) -> Vec<(Tuple, K)> {
        self.map
            .iter()
            .map(|(t, k)| (t.clone(), k.clone()))
            .collect()
    }

    fn set(&mut self, key: &Tuple, value: Option<K>) {
        match value {
            Some(v) => {
                self.map.insert(key.clone(), v);
            }
            None => {
                self.map.remove(key);
            }
        }
    }

    fn key_of(&self, key: &Tuple) -> Option<Tuple> {
        Some(key.clone())
    }

    fn project_key(key: &Tuple, keep: &[usize]) -> Tuple {
        key.project(keep)
    }

    fn get_key(&self, key: &Tuple) -> Option<K> {
        self.map.get(key).cloned()
    }

    fn set_key(&mut self, key: &Tuple, value: Option<K>) {
        self.set(key, value);
    }

    fn group_rows_key(&self, keep: &[usize], group: &Tuple) -> Vec<K> {
        debug_assert_eq!(keep.len(), group.arity());
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        // The leading literal run of `keep` is a key prefix, so the
        // ordered map serves it as a range query: a shorter tuple
        // sorts immediately before all of its extensions, making the
        // prefix itself the range's start bound.
        let lead = keep
            .iter()
            .enumerate()
            .take_while(|&(i, &p)| i == p)
            .count();
        let prefix = Tuple::from(group.values()[..lead].to_vec());
        self.map
            .range(prefix..)
            .take_while(|(t, _)| t.values()[..lead] == group.values()[..lead])
            .filter(|(t, _)| {
                keep[lead..]
                    .iter()
                    .zip(&group.values()[lead..])
                    .all(|(&p, v)| t.get(p) == *v)
            })
            .map(|(_, k)| k.clone())
            .collect()
    }

    fn storage_bytes(&self) -> usize {
        // Per entry: the boxed value row, the annotation, and the tree
        // bookkeeping approximated by the entry struct itself.
        let arity = self.vars.len();
        self.map.len()
            * (arity * std::mem::size_of::<Value>()
                + std::mem::size_of::<Tuple>()
                + std::mem::size_of::<K>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_monoid::{ProbMonoid, SatCountMonoid};

    #[test]
    fn project_prunes_negative_zero_but_keeps_nan() {
        let rows = vec![
            (Tuple::ints(&[1, 1]), 0.5f64),
            (Tuple::ints(&[1, 2]), -0.5),
            (Tuple::ints(&[2, 1]), f64::NAN),
        ];
        let rel = MapRelation::build_slots(vec![(vec![Var(0), Var(1)], rows)])
            .unwrap()
            .pop()
            .unwrap();
        let mut stats = EngineStats::default();
        // Group 1 folds to 0.5 ⊕ -0.5: 1-(1-0.5)(1+0.5) = 0.25... use
        // the raw values: this is not a probability instance, we only
        // care about the pruning predicate. Project var 1 out.
        let out = rel.project_out(&ProbMonoid, Var(1), Parallelism::default(), &mut stats);
        // NaN row survives (never equal to zero), group 1 folds to a
        // non-zero value.
        assert_eq!(out.support_size(), 2);
        assert!(out.get(&Tuple::ints(&[2])).unwrap().is_nan());
    }

    #[test]
    fn merge_zero_fills_for_non_annihilating_monoids() {
        // The #Sat monoid needs `⋆ ⊗ 0 ≠ 0`: a one-sided fact still
        // contributes subset counts.
        let m = SatCountMonoid::new(1);
        let left = vec![(Tuple::ints(&[1]), m.star())];
        let right = vec![(Tuple::ints(&[2]), m.star())];
        let mut slots =
            MapRelation::build_slots(vec![(vec![Var(0)], left), (vec![Var(0)], right)]).unwrap();
        let r = slots.pop().unwrap();
        let l = slots.pop().unwrap();
        let mut stats = EngineStats::default();
        let out = l.merge(&m, r, Parallelism::default(), &mut stats);
        assert_eq!(out.support_size(), 2, "0-filled rows must survive");
        assert_eq!(stats.mul_ops, 2);
    }
}
