//! Property tests for the backtracking join engine against a naive
//! nested-loop reference: every brute-force oracle in the workspace
//! rests on this engine, so it gets its own independent check.

use hq_db::generate::{fill_relation, rng, ColumnDist};
use hq_db::{
    all_matches, count_matches, satisfiable, Database, Interner, Pattern, PatternAtom, Value,
};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

/// Naive reference: enumerate one tuple per atom (cartesian product),
/// check variable consistency, and collect distinct full assignments.
fn reference_matches(db: &Database, pattern: &Pattern) -> BTreeSet<Vec<Value>> {
    let mut out = BTreeSet::new();
    let relations: Vec<Vec<&hq_db::Tuple>> = pattern
        .atoms
        .iter()
        .map(|a| db.relation(a.rel).into_iter().flatten().collect())
        .collect();
    let mut picks = vec![0usize; pattern.atoms.len()];
    'outer: loop {
        // Evaluate the current combination.
        let mut binding: Vec<Option<Value>> = vec![None; pattern.var_count];
        let mut ok = true;
        for (ai, atom) in pattern.atoms.iter().enumerate() {
            let Some(tuple) = relations[ai].get(picks[ai]) else {
                ok = false;
                break;
            };
            for (pos, &v) in atom.vars.iter().enumerate() {
                match binding[v] {
                    None => binding[v] = Some(tuple.get(pos)),
                    Some(existing) => {
                        if existing != tuple.get(pos) {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                break;
            }
        }
        if ok && binding.iter().all(Option::is_some) {
            out.insert(binding.into_iter().map(|v| v.unwrap()).collect());
        }
        // Odometer increment.
        for ai in 0..picks.len() {
            picks[ai] += 1;
            if picks[ai] < relations[ai].len() {
                continue 'outer;
            }
            picks[ai] = 0;
            if ai == picks.len() - 1 {
                break 'outer;
            }
        }
        if picks.iter().all(|&p| p == 0) {
            // All relations empty or single wrap-around completed.
            break;
        }
    }
    out
}

/// Builds a random pattern + database from a seed.
fn random_case(seed: u64) -> (Database, Pattern) {
    let mut r = rng(seed);
    let mut interner = Interner::new();
    let var_count = r.gen_range(1..=4usize);
    let n_atoms = r.gen_range(1..=3usize);
    let mut atoms = Vec::new();
    let mut db = Database::new();
    let mut used = vec![false; var_count];
    for a in 0..n_atoms {
        let arity = r.gen_range(1..=3usize);
        let vars: Vec<usize> = (0..arity).map(|_| r.gen_range(0..var_count)).collect();
        for &v in &vars {
            used[v] = true;
        }
        let rel = interner.intern(&format!("R{a}"));
        fill_relation(
            &mut db,
            rel,
            &vec![ColumnDist::Uniform { domain: 3 }; arity],
            r.gen_range(0..=5),
            &mut r,
        );
        atoms.push(PatternAtom { rel, vars });
    }
    // Ensure every variable occurs somewhere: add a unary atom per
    // unused variable.
    for (v, u) in used.iter().enumerate() {
        if !u {
            let rel = interner.intern(&format!("U{v}"));
            fill_relation(
                &mut db,
                rel,
                &[ColumnDist::Uniform { domain: 3 }],
                r.gen_range(0..=3),
                &mut r,
            );
            atoms.push(PatternAtom { rel, vars: vec![v] });
        }
    }
    (db, Pattern { atoms, var_count })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_nested_loop_reference(seed in 0u64..1_000_000) {
        let (db, pattern) = random_case(seed);
        let reference = reference_matches(&db, &pattern);
        let engine: BTreeSet<Vec<Value>> = all_matches(&db, &pattern)
            .unwrap()
            .into_iter()
            .collect();
        prop_assert_eq!(&engine, &reference, "pattern {:?}", pattern);
        prop_assert_eq!(count_matches(&db, &pattern).unwrap(), reference.len() as u64);
        prop_assert_eq!(satisfiable(&db, &pattern).unwrap(), !reference.is_empty());
    }

    #[test]
    fn engine_output_has_no_duplicates(seed in 0u64..1_000_000) {
        let (db, pattern) = random_case(seed);
        let list = all_matches(&db, &pattern).unwrap();
        let set: BTreeSet<&Vec<Value>> = list.iter().collect();
        prop_assert_eq!(set.len(), list.len(), "duplicate assignments emitted");
    }

    #[test]
    fn inserting_facts_is_monotone(seed in 0u64..1_000_000) {
        // Adding tuples can only grow the match set.
        let (mut db, pattern) = random_case(seed);
        let before = count_matches(&db, &pattern).unwrap();
        let mut r = rng(seed ^ 0xABCD);
        // Insert one random tuple into a random pattern relation.
        let atom = &pattern.atoms[r.gen_range(0..pattern.atoms.len())];
        let arity = atom.vars.len();
        let tuple: hq_db::Tuple = (0..arity)
            .map(|_| Value::Int(r.gen_range(0..3)))
            .collect();
        db.insert_tuple(atom.rel, tuple);
        let after = count_matches(&db, &pattern).unwrap();
        prop_assert!(after >= before);
    }
}
