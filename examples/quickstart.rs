//! Quickstart: the full tour in fifty lines.
//!
//! Reproduces the paper's running example end-to-end: hierarchy check,
//! elimination trace, probabilistic evaluation, the Figure 1 bag-set
//! maximization instance, and Shapley values — all through the same
//! Algorithm 1 with three different 2-monoids.
//!
//! Run with: `cargo run --release --example quickstart`

use hierarchical_queries::prelude::*;

fn main() {
    // The paper's Eq. (1) query.
    let q = parse_query("Q() :- R(A,B), S(A,C), T(A,C,D)").unwrap();
    println!("query: {q}");
    println!("hierarchical: {}", is_hierarchical(&q));
    let p = plan(&q).unwrap();
    println!("\nelimination trace (Proposition 5.1):\n{}\n", p.trace(&q));

    // The Figure 1 database.
    let (d, mut interner) = db_from_ints(&[
        ("R", &[&[1, 5]]),
        ("S", &[&[1, 1], &[1, 2]]),
        ("T", &[&[1, 2, 4]]),
    ]);

    // 1. Probabilistic Query Evaluation: every fact present with p=0.5.
    let tid: Vec<(Fact, f64)> = d.facts().into_iter().map(|f| (f, 0.5)).collect();
    let prob = pqe::probability(&q, &interner, &tid).unwrap();
    println!("PQE: P(Q) with all facts at p=1/2 ........ {prob}");

    // 2. Bag-Set Maximization: the Figure 1 repair database, θ = 2.
    let mut d_r = Database::new();
    let r = interner.intern("R");
    let t = interner.intern("T");
    d_r.insert_tuple(r, Tuple::ints(&[1, 6]));
    d_r.insert_tuple(r, Tuple::ints(&[1, 7]));
    d_r.insert_tuple(t, Tuple::ints(&[1, 1, 4]));
    d_r.insert_tuple(t, Tuple::ints(&[1, 2, 9]));
    let sol = bsm::maximize(&q, &interner, &d, &d_r, 2).unwrap();
    println!(
        "BSM: best Q(D') within budget 2 .......... {} (paper: 4)",
        sol.optimum()
    );
    print!("     budget curve:");
    for i in 0..=2 {
        print!(" θ={i}→{}", sol.value_at(i));
    }
    println!();

    // 3. Shapley values: all facts endogenous; who "caused" Q to hold?
    let endo = d.facts();
    let values = shapley::shapley_values(&q, &interner, &[], &endo).unwrap();
    println!("Shapley values (exact rationals):");
    for (f, v) in &values {
        println!("     {:<12} {v}", f.display(&interner).to_string());
    }
    let total = values.iter().fold(Rational::zero(), |acc, (_, v)| &acc + v);
    println!("     total ...... {total} (efficiency: Q flips from false to true)");

    // 4. Storage backends: the same engine runs over the ordered-map
    // oracle layout or the columnar fast path — bit-identical answers.
    use hierarchical_queries::unify::{pqe, Backend};
    let (p_map, _) = pqe::probability_on(Backend::Map.into(), &q, &interner, &tid).unwrap();
    let (p_col, _) = pqe::probability_on(Backend::Columnar.into(), &q, &interner, &tid).unwrap();
    assert_eq!(p_map.to_bits(), p_col.to_bits());
    println!("Backends: map {p_map} == columnar {p_col} (bit-identical)");
}
