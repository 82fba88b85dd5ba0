//! Self-join-free Boolean conjunctive queries (SJF-BCQ).
//!
//! A query `Q() :- R₁(X̄₁) ∧ … ∧ R_m(X̄_m)` (Eq. (12) of the paper) with
//! all existential quantifiers suppressed. Two structural constraints
//! are enforced at construction time:
//!
//! * **self-join-freeness** — no two atoms share a relation symbol;
//! * **set-shaped atoms** — an atom's arguments are a *set* of
//!   variables (no repeats), matching the paper's `R(X̄)` notation.

use hq_db::{Interner, Pattern, PatternAtom};
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, identified by its index into the query's
/// variable-name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub usize);

/// One atom `R(X̄)` of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The relation name (unique per query: self-join-free).
    pub rel: String,
    /// The argument variables, in written order, all distinct.
    pub vars: Vec<Var>,
}

impl Atom {
    /// The variable set `X̄` of the atom.
    pub fn var_set(&self) -> BTreeSet<Var> {
        self.vars.iter().copied().collect()
    }

    /// The atom's **key schema**: its variables in ascending id order
    /// plus, for each key column `j`, the written-order column
    /// `positions[j]` it comes from. Every layer that keys relation
    /// rows in ascending variable order (annotation, the encoded
    /// cache, plan-IR lowering, the incremental fact index) derives
    /// its permutation from this one definition — the structural
    /// identity of shared plan nodes depends on these copies agreeing.
    pub fn key_schema(&self) -> (Vec<Var>, Vec<usize>) {
        let mut sorted = self.vars.clone();
        sorted.sort_unstable();
        let positions = sorted
            .iter()
            .map(|v| {
                self.vars
                    .iter()
                    .position(|w| w == v)
                    .expect("sorted vars come from the atom")
            })
            .collect();
        (sorted, positions)
    }

    /// [`Atom::key_schema`]'s permutation as the layers' common
    /// `Option` convention: `None` when the written order already is
    /// the key order (the common case — callers skip re-keying).
    pub fn key_positions(&self) -> (Vec<Var>, Option<Vec<usize>>) {
        let (sorted, positions) = self.key_schema();
        let identity = positions.iter().enumerate().all(|(a, &b)| a == b);
        (sorted, if identity { None } else { Some(positions) })
    }
}

/// Errors rejected by [`Query::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Two atoms use the same relation symbol (a self-join).
    SelfJoin {
        /// The repeated relation name.
        rel: String,
    },
    /// An atom repeats a variable.
    RepeatedVariable {
        /// The relation name of the offending atom.
        rel: String,
        /// The repeated variable name.
        var: String,
    },
    /// The query has no atoms.
    Empty,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SelfJoin { rel } => {
                write!(f, "self-join: relation '{rel}' appears in two atoms")
            }
            QueryError::RepeatedVariable { rel, var } => {
                write!(f, "atom '{rel}' repeats variable '{var}'")
            }
            QueryError::Empty => write!(f, "query has no atoms"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A validated SJF-BCQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl Query {
    /// Builds and validates a query from atoms given as
    /// `(relation name, variable names)` pairs. Variable identity is by
    /// name across atoms.
    ///
    /// # Errors
    /// Returns a [`QueryError`] for self-joins, repeated variables
    /// within an atom, or an empty atom list.
    pub fn new(atoms: &[(&str, &[&str])]) -> Result<Query, QueryError> {
        if atoms.is_empty() {
            return Err(QueryError::Empty);
        }
        let mut var_names: Vec<String> = Vec::new();
        let mut rels: BTreeSet<String> = BTreeSet::new();
        let mut out_atoms = Vec::with_capacity(atoms.len());
        for (rel, vars) in atoms {
            if !rels.insert((*rel).to_owned()) {
                return Err(QueryError::SelfJoin {
                    rel: (*rel).to_owned(),
                });
            }
            let mut seen = BTreeSet::new();
            let mut atom_vars = Vec::with_capacity(vars.len());
            for v in *vars {
                if !seen.insert(*v) {
                    return Err(QueryError::RepeatedVariable {
                        rel: (*rel).to_owned(),
                        var: (*v).to_owned(),
                    });
                }
                let idx = match var_names.iter().position(|n| n == v) {
                    Some(i) => i,
                    None => {
                        var_names.push((*v).to_owned());
                        var_names.len() - 1
                    }
                };
                atom_vars.push(Var(idx));
            }
            out_atoms.push(Atom {
                rel: (*rel).to_owned(),
                vars: atom_vars,
            });
        }
        Ok(Query {
            atoms: out_atoms,
            var_names,
        })
    }

    /// The atoms in written order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of distinct variables, `|vars(Q)|`.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// All variables of the query.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.var_names.len()).map(Var)
    }

    /// The name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0]
    }

    /// `at(Y)`: the indices of atoms containing variable `v`.
    pub fn at(&self, v: Var) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.vars.contains(&v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Compiles the query body into a database-layer join
    /// [`Pattern`], interning relation names.
    pub fn to_pattern(&self, interner: &mut Interner) -> Pattern {
        Pattern {
            atoms: self
                .atoms
                .iter()
                .map(|a| PatternAtom {
                    rel: interner.intern(&a.rel),
                    vars: a.vars.iter().map(|v| v.0).collect(),
                })
                .collect(),
            var_count: self.var_names.len(),
        }
    }

    /// Connected components of the atom graph (atoms adjacent iff they
    /// share a variable). Returns atom-index groups; singleton nullary
    /// atoms each form their own component.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.atoms.len();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = count;
            count += 1;
            let mut stack = vec![start];
            comp[start] = id;
            while let Some(i) = stack.pop() {
                let vars_i = self.atoms[i].var_set();
                for (j, slot) in comp.iter_mut().enumerate() {
                    if *slot == usize::MAX && self.atoms[j].vars.iter().any(|v| vars_i.contains(v))
                    {
                        *slot = id;
                        stack.push(j);
                    }
                }
            }
        }
        let mut groups = vec![Vec::new(); count];
        for (i, &c) in comp.iter().enumerate() {
            groups[c].push(i);
        }
        groups
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q() :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.rel)?;
            for (j, v) in a.vars.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_names[v.0])?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The paper's running example (Eq. (1)):
/// `Q() :- R(A,B), S(A,C), T(A,C,D)`.
pub fn example_query() -> Query {
    Query::new(&[
        ("R", &["A", "B"]),
        ("S", &["A", "C"]),
        ("T", &["A", "C", "D"]),
    ])
    .expect("example query is well-formed")
}

/// The canonical hierarchical query `Q_h() :- E(X,Y), F(Y,Z)`.
pub fn q_hierarchical() -> Query {
    Query::new(&[("E", &["X", "Y"]), ("F", &["Y", "Z"])]).expect("well-formed")
}

/// The canonical non-hierarchical query
/// `Q_nh() :- R(X), S(X,Y), T(Y)` (hard for all three problems).
pub fn q_non_hierarchical() -> Query {
    Query::new(&[("R", &["X"]), ("S", &["X", "Y"]), ("T", &["Y"])]).expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let q = example_query();
        assert_eq!(q.atom_count(), 3);
        assert_eq!(q.var_count(), 4);
        assert_eq!(q.var_name(Var(0)), "A");
        assert_eq!(q.var_name(Var(3)), "D");
        assert_eq!(q.to_string(), "Q() :- R(A, B), S(A, C), T(A, C, D)");
    }

    #[test]
    fn at_sets_match_definition() {
        let q = example_query();
        // A occurs in all three atoms; B only in R; C in S and T; D in T.
        assert_eq!(q.at(Var(0)), vec![0, 1, 2]);
        assert_eq!(q.at(Var(1)), vec![0]);
        assert_eq!(q.at(Var(2)), vec![1, 2]);
        assert_eq!(q.at(Var(3)), vec![2]);
    }

    #[test]
    fn rejects_self_joins() {
        let e = Query::new(&[("R", &["X"]), ("R", &["Y"])]).unwrap_err();
        assert_eq!(e, QueryError::SelfJoin { rel: "R".into() });
    }

    #[test]
    fn rejects_repeated_vars_in_atom() {
        let e = Query::new(&[("R", &["X", "X"])]).unwrap_err();
        assert!(matches!(e, QueryError::RepeatedVariable { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Query::new(&[]).unwrap_err(), QueryError::Empty);
    }

    #[test]
    fn nullary_atoms_allowed() {
        let q = Query::new(&[("R", &[])]).unwrap();
        assert_eq!(q.var_count(), 0);
        assert_eq!(q.to_string(), "Q() :- R()");
    }

    #[test]
    fn to_pattern_preserves_shape() {
        let mut i = Interner::new();
        let q = q_hierarchical();
        let p = q.to_pattern(&mut i);
        assert_eq!(p.var_count, 3);
        assert_eq!(p.atoms.len(), 2);
        assert_eq!(p.atoms[0].vars, vec![0, 1]);
        assert_eq!(p.atoms[1].vars, vec![1, 2]);
    }

    #[test]
    fn connected_components_split() {
        let q = Query::new(&[("R", &["A"]), ("S", &["B"]), ("T", &["A", "C"])]).unwrap();
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![0, 2]));
        assert!(comps.contains(&vec![1]));
    }

    #[test]
    fn connected_components_connected_query() {
        let q = example_query();
        assert_eq!(q.connected_components(), vec![vec![0, 1, 2]]);
    }
}
