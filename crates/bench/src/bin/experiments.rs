//! The experiments harness: regenerates every table/figure of
//! `EXPERIMENTS.md` (E1–E12), each operationalising a claim of the
//! paper. Run all with `cargo run --release -p hq-bench --bin
//! experiments`, or one with `--exp e5`.

use hq_arith::Rational;
use hq_bench::{bsm_workload, chain_tid, render_table, shapley_workload, star_tid, time_ms};
use hq_db::generate::{planted_biclique, random_graph, rng};
use hq_db::{db_from_ints, Database, Interner, Tuple};
use hq_monoid::laws::{annihilation_counterexample, check_laws, distributivity_counterexample};
use hq_monoid::{
    BagMaxMonoid, BoolMonoid, CountMonoid, ExactProbMonoid, ProbMonoid, SatCountMonoid,
    TropicalMinMonoid, TwoMonoid,
};
use hq_query::gen::{random_hierarchical, random_query};
use hq_query::{example_query, is_hierarchical, plan, q_non_hierarchical, Query};
use hq_unify::{bsm, pqe, shapley, Exec};
use rand::Rng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter: Option<String> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1).cloned())
        .map(|s| s.to_lowercase());
    type Experiment = (&'static str, &'static str, fn() -> String);
    let experiments: Vec<Experiment> = vec![
        (
            "e1",
            "Figure 1 worked example (BSM optimum = 4 at θ=2)",
            e1 as fn() -> String,
        ),
        (
            "e2",
            "Elimination procedure on Examples 5.2-5.4 + random agreement",
            e2,
        ),
        ("e3", "PQE linear scaling (Theorem 5.8)", e3),
        (
            "e4",
            "PQE dichotomy: unified vs possible worlds (Theorem 5.8)",
            e4,
        ),
        ("e5", "BSM scaling O((|D|+|Dr|)·|Dr|^2) (Theorem 5.11)", e5),
        ("e6", "BSM dichotomy: unified vs subset enumeration", e6),
        (
            "e7",
            "Shapley scaling O((|Dx|+|Dn|)·|Dn|^2) (Theorem 5.16)",
            e7,
        ),
        (
            "e8",
            "Shapley agreement with permutation/subset oracles",
            e8,
        ),
        (
            "e9",
            "Hardness: BCBS reduction answer preservation (Theorem 4.4)",
            e9,
        ),
        (
            "e10",
            "Universal provenance homomorphism (Theorem 6.4)",
            e10,
        ),
        (
            "e11",
            "Linear op counts & non-growing support (Thm 6.7/Lemma 6.6)",
            e11,
        ),
        (
            "e12",
            "2-monoid laws vs (non-)distributivity (Section 5.2)",
            e12,
        ),
        (
            "e13",
            "Extensions: BSM witness extraction + expected-count semiring",
            e13,
        ),
        (
            "e14",
            "Ablation: elimination-plan order (Prop. 5.1 don't-care)",
            e14,
        ),
        (
            "e15",
            "Storage backends: ordered-map oracle vs columnar fast path",
            e15,
        ),
    ];
    for (id, title, f) in experiments {
        if let Some(ref want) = filter {
            if want != id {
                continue;
            }
        }
        println!("==== {} — {title} ====", id.to_uppercase());
        println!("{}", f());
    }
}

/// Figure 1 database and repair database.
fn fig1() -> (Database, Database, Interner) {
    let (d, mut i) = db_from_ints(&[
        ("R", &[&[1, 5]]),
        ("S", &[&[1, 1], &[1, 2]]),
        ("T", &[&[1, 2, 4]]),
    ]);
    let r = i.intern("R");
    let t = i.intern("T");
    let mut d_r = Database::new();
    d_r.insert_tuple(r, Tuple::ints(&[1, 6]));
    d_r.insert_tuple(r, Tuple::ints(&[1, 7]));
    d_r.insert_tuple(t, Tuple::ints(&[1, 1, 4]));
    d_r.insert_tuple(t, Tuple::ints(&[1, 2, 9]));
    (d, d_r, i)
}

fn e1() -> String {
    let (d, d_r, i) = fig1();
    let q = example_query();
    let mut rows = Vec::new();
    for theta in 0..=4usize {
        let unified = bsm::maximize(&q, &i, &d, &d_r, theta).unwrap().optimum();
        let brute = hq_baselines::maximize_bruteforce(&q, &i, &d, &d_r, theta).optimum;
        rows.push(vec![
            theta.to_string(),
            unified.to_string(),
            brute.to_string(),
            if unified == brute {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    let mut out = render_table(&["θ", "unified", "brute force", "agree"], &rows);
    out.push_str("paper: optimum 4 at θ=2 via repair {R(1,6), T(1,2,9)}\n");
    out
}

fn e2() -> String {
    let mut out = String::new();
    for (name, q) in [
        ("Example 5.2 (Eq. 1 query)", example_query()),
        (
            "Example 5.3 (chain)",
            Query::new(&[("R", &["A", "B"]), ("S", &["B", "C"]), ("T", &["C", "D"])]).unwrap(),
        ),
        (
            "Example 5.4 (disconnected)",
            Query::new(&[("R", &["A"]), ("S", &["B"])]).unwrap(),
        ),
    ] {
        out.push_str(&format!("-- {name}: {q}\n"));
        match plan(&q) {
            Ok(p) => {
                out.push_str(&format!(
                    "   hierarchical; {} Rule-1 + {} Rule-2 steps\n{}\n",
                    p.rule1_count(),
                    p.rule2_count(),
                    p.trace(&q)
                ));
            }
            Err(e) => out.push_str(&format!("   stuck: {e}\n")),
        }
    }
    // Agreement of the three characterisations on random queries.
    let mut r = rng(42);
    let (mut total, mut hier) = (0u32, 0u32);
    for _ in 0..2000 {
        let q = random_query(&mut r, 5, 5);
        let a = is_hierarchical(&q);
        let b = plan(&q).is_ok();
        let c = hq_query::witness_forest(&q).is_some();
        assert!(a == b && b == c, "characterisations disagree on {q}");
        total += 1;
        if a {
            hier += 1;
        }
    }
    out.push_str(&format!(
        "\nrandom queries: {total} sampled, {hier} hierarchical; all three \
         characterisations agreed on every query\n"
    ));
    out
}

fn e3() -> String {
    let mut rows = Vec::new();
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000] {
        let w = chain_tid(n, 11);
        let ((p, stats), ms) = time_ms(|| {
            pqe::probability_on(Exec::default(), &w.query, &w.interner, &w.tid).unwrap()
        });
        let facts = w.tid.len();
        rows.push(vec![
            facts.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", ms * 1000.0 / facts as f64),
            format!("{p:.4}"),
            stats.total_ops().to_string(),
        ]);
    }
    let mut out = render_table(
        &["|D| (facts)", "time (ms)", "µs per fact", "P(Q)", "⊕/⊗ ops"],
        &rows,
    );
    out.push_str("claim: time and op count grow linearly (µs/fact ~ constant)\n");
    out
}

fn e4() -> String {
    let mut rows = Vec::new();
    for n in [3usize, 5, 7, 9] {
        // n facts per relation → 2n total; exhaustive cost 2^(2n).
        let w = chain_tid(n, 13);
        let (pu, t_unified) = time_ms(|| pqe::probability(&w.query, &w.interner, &w.tid).unwrap());
        let (pb, t_brute) =
            time_ms(|| hq_baselines::probability_exhaustive(&w.query, &w.interner, &w.tid));
        let (pp, t_par) = time_ms(|| {
            hq_baselines::probability_exhaustive_parallel(&w.query, &w.interner, &w.tid, 4)
        });
        let (pm, t_mc) = time_ms(|| {
            hq_baselines::probability_monte_carlo(&w.query, &w.interner, &w.tid, 2_000, &mut rng(5))
        });
        rows.push(vec![
            (2 * n).to_string(),
            format!("{t_unified:.3}"),
            format!("{t_brute:.3}"),
            format!("{t_par:.3}"),
            format!("{t_mc:.1}"),
            format!("{:.1e}", (pu - pb).abs()),
            format!("{:.1e}", (pu - pp).abs()),
            format!("{:.2}", (pu - pm).abs()),
        ]);
    }
    let mut out = render_table(
        &[
            "|D|",
            "unified ms",
            "worlds ms",
            "worlds∥4 ms",
            "MC-2k ms",
            "|Δ worlds|",
            "|Δ worlds∥|",
            "|Δ MC|",
        ],
        &rows,
    );
    out.push_str("claim: baseline doubles per added fact; unified stays flat; values agree\n");
    out
}

fn e5() -> String {
    let mut out = String::from("(a) fixed |D_r|=40/rel, θ=10, sweep |D|:\n");
    let mut rows = Vec::new();
    for d_size in [500usize, 1_000, 2_000, 4_000] {
        let w = bsm_workload(d_size, 40, 17);
        let (sol, ms) = time_ms(|| bsm::maximize(&w.query, &w.interner, &w.d, &w.d_r, 10).unwrap());
        rows.push(vec![
            (3 * d_size).to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", ms * 1000.0 / (3 * d_size) as f64),
            sol.optimum().to_string(),
        ]);
    }
    out.push_str(&render_table(
        &["|D|", "time (ms)", "µs per fact", "optimum"],
        &rows,
    ));
    out.push_str("\n(b) fixed |D|=300/rel, sweep θ (vector length; ops are O(θ²)):\n");
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for theta in [8usize, 16, 32, 64] {
        let w = bsm_workload(300, 200, 19);
        let (_, ms) =
            time_ms(|| bsm::maximize(&w.query, &w.interner, &w.d, &w.d_r, theta).unwrap());
        let ratio = prev.map_or("-".to_owned(), |p| format!("{:.2}", ms / p));
        prev = Some(ms);
        rows.push(vec![theta.to_string(), format!("{ms:.2}"), ratio]);
    }
    out.push_str(&render_table(&["θ", "time (ms)", "ratio vs prev"], &rows));
    out.push_str("claim: (a) linear in |D|; (b) ratio → ~4 as θ doubles (quadratic)\n");
    out
}

fn e6() -> String {
    let mut rows = Vec::new();
    for m in [4usize, 8, 12, 16] {
        // m candidate repair facts per relation (3m total), θ = m.
        let w = bsm_workload(10, m, 23);
        let theta = m;
        let (uni, t_u) =
            time_ms(|| bsm::maximize(&w.query, &w.interner, &w.d, &w.d_r, theta).unwrap());
        let candidates = w.d_r.difference(&w.d).len();
        let (brute, t_b) = if candidates <= 24 {
            let (b, t) = time_ms(|| {
                hq_baselines::maximize_bruteforce(&w.query, &w.interner, &w.d, &w.d_r, theta)
            });
            (Some(b.optimum), t)
        } else {
            (None, f64::NAN)
        };
        rows.push(vec![
            candidates.to_string(),
            theta.to_string(),
            format!("{t_u:.2}"),
            if t_b.is_nan() {
                "skipped".into()
            } else {
                format!("{t_b:.2}")
            },
            uni.optimum().to_string(),
            brute.map_or("-".into(), |b| b.to_string()),
            brute.map_or("-".into(), |b| {
                if b == uni.optimum() {
                    "yes".into()
                } else {
                    "NO".into()
                }
            }),
        ]);
    }
    let mut out = render_table(
        &[
            "|Dr\\D|",
            "θ",
            "unified ms",
            "brute ms",
            "uni opt",
            "brute opt",
            "agree",
        ],
        &rows,
    );
    out.push_str("claim: brute force explodes combinatorially; unified stays polynomial\n");
    out
}

fn e7() -> String {
    let mut out = String::from("(a) #Sat vector (one Algorithm-1 run), sweep |D_n|:\n");
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for n_rel in [20usize, 40, 80, 160] {
        let w = shapley_workload(n_rel, 0.5, 29);
        let (_, ms) = time_ms(|| {
            shapley::sat_counts(&w.query, &w.interner, &w.exogenous, &w.endogenous).unwrap()
        });
        let ratio = prev.map_or("-".to_owned(), |p| format!("{:.2}", ms / p));
        prev = Some(ms);
        rows.push(vec![
            w.endogenous.len().to_string(),
            w.exogenous.len().to_string(),
            format!("{ms:.2}"),
            ratio,
        ]);
    }
    out.push_str(&render_table(
        &["|Dn|", "|Dx|", "time (ms)", "ratio"],
        &rows,
    ));
    out.push_str("\n(b) one full Shapley value (two #Sat runs + reduction):\n");
    let mut rows = Vec::new();
    for n_rel in [20usize, 40, 80] {
        // Fully endogenous: an exogenous witness would zero every value.
        let w = shapley_workload(n_rel, 1.0, 31);
        // Pick the most influential of the first few facts so the value
        // column is informative.
        let mut best = Rational::zero();
        let mut total_ms = 0.0;
        let probe = w.endogenous.len().min(4);
        for f in &w.endogenous[..probe] {
            let (v, ms) = time_ms(|| {
                shapley::shapley_value(&w.query, &w.interner, &w.exogenous, &w.endogenous, f)
                    .unwrap()
            });
            total_ms += ms;
            if v > best {
                best = v;
            }
        }
        rows.push(vec![
            w.endogenous.len().to_string(),
            format!("{:.2}", total_ms / probe as f64),
            format!("{:.3e}", best.to_f64()),
        ]);
    }
    out.push_str(&render_table(
        &["|Dn|", "ms per value", "max Shapley (4 probed)"],
        &rows,
    ));
    out.push_str(
        "claim: doubling |Dn| multiplies time by ~4-8 (the |Dn|² op cost), never exponentially\n",
    );
    out
}

fn e8() -> String {
    let mut rows = Vec::new();
    let mut r = rng(37);
    for trial in 0..5 {
        let w = shapley_workload(3 + trial, 0.9, 100 + trial as u64);
        let endo = &w.endogenous[..w.endogenous.len().min(6)];
        if endo.is_empty() {
            continue;
        }
        let f = &endo[r.gen_range(0..endo.len())];
        let unified = shapley::shapley_value(&w.query, &w.interner, &w.exogenous, endo, f).unwrap();
        let by_perm =
            hq_baselines::shapley_by_permutations(&w.query, &w.interner, &w.exogenous, endo, f);
        let by_subset =
            hq_baselines::shapley_by_subsets(&w.query, &w.interner, &w.exogenous, endo, f);
        rows.push(vec![
            trial.to_string(),
            endo.len().to_string(),
            unified.to_string(),
            by_perm.to_string(),
            by_subset.to_string(),
            if unified == by_perm && by_perm == by_subset {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    let mut out = render_table(
        &[
            "trial",
            "|Dn|",
            "unified",
            "permutations",
            "subset-sum",
            "all equal",
        ],
        &rows,
    );
    out.push_str("claim: the unified value equals Definition 5.12 verbatim (exact rationals)\n");
    out
}

fn e9() -> String {
    let q = q_non_hierarchical();
    let mut out = String::from("(a) answer preservation on random graphs (k=2):\n");
    let mut rows = Vec::new();
    let mut r = rng(41);
    for n in [5usize, 6, 7] {
        let g = random_graph(n, 0.5, &mut r);
        let inst = hq_baselines::reduce_bcbs_to_bsm(&q, &g, 2);
        let (bcbs, t_g) = time_ms(|| hq_baselines::bcbs_decision(&g, 2));
        let (bsm_ans, t_b) = time_ms(|| {
            hq_baselines::decide_bruteforce(
                &q,
                &inst.interner,
                &inst.d,
                &inst.d_r,
                inst.theta,
                inst.tau,
            )
        });
        rows.push(vec![
            n.to_string(),
            g.edges.len().to_string(),
            bcbs.to_string(),
            bsm_ans.to_string(),
            if bcbs == bsm_ans {
                "yes".into()
            } else {
                "NO".into()
            },
            format!("{t_g:.2}"),
            format!("{t_b:.2}"),
        ]);
    }
    out.push_str(&render_table(
        &[
            "n",
            "|E|",
            "BCBS",
            "BSM via reduction",
            "agree",
            "BCBS ms",
            "BSM ms",
        ],
        &rows,
    ));
    out.push_str("\n(b) planted K_{2,2} is found through the reduction:\n");
    let g = planted_biclique(8, 2, 0.1, &mut r);
    let inst = hq_baselines::reduce_bcbs_to_bsm(&q, &g, 2);
    let found = hq_baselines::decide_bruteforce(
        &q,
        &inst.interner,
        &inst.d,
        &inst.d_r,
        inst.theta,
        inst.tau,
    );
    out.push_str(&format!(
        "   planted instance answered: {found} (expected true)\n"
    ));
    out.push_str(
        "\n(c) the dichotomy, measured — same budget of work, hierarchical vs non-hierarchical:\n",
    );
    let mut rows = Vec::new();
    for m in [6usize, 10, 14, 18] {
        // Non-hierarchical: brute force over m candidates.
        let g = random_graph(m / 2, 0.5, &mut r);
        let inst = hq_baselines::reduce_bcbs_to_bsm(&q, &g, 2);
        let (_, t_nh) = time_ms(|| {
            hq_baselines::decide_bruteforce(
                &q,
                &inst.interner,
                &inst.d,
                &inst.d_r,
                inst.theta,
                inst.tau,
            )
        });
        // Hierarchical: unified algorithm on a comparable instance.
        let w = bsm_workload(m, m, 43);
        let (_, t_h) = time_ms(|| bsm::maximize(&w.query, &w.interner, &w.d, &w.d_r, 4).unwrap());
        rows.push(vec![
            m.to_string(),
            format!("{t_nh:.2}"),
            format!("{t_h:.2}"),
        ]);
    }
    out.push_str(&render_table(
        &["size", "non-hier (brute) ms", "hier (unified) ms"],
        &rows,
    ));
    out
}

fn e10() -> String {
    // Theorem 6.4, executed: run Algorithm 1 over the provenance
    // 2-monoid, then apply each problem's homomorphism φ and compare
    // with the direct run.
    let mut r = rng(47);
    let trials = 200;
    let mut checked = 0u32;
    for _ in 0..trials {
        let q = random_hierarchical(&mut r, 4, 4);
        let mut interner = Interner::new();
        let mut db = Database::new();
        for atom in q.atoms() {
            let rel = interner.intern(&atom.rel);
            let cols = vec![hq_db::generate::ColumnDist::Uniform { domain: 3 }; atom.vars.len()];
            hq_db::generate::fill_relation(&mut db, rel, &cols, 4, &mut r);
        }
        let facts = db.facts();
        let prov = hq_unify::provenance_tree(&q, &interner, &facts).unwrap();
        // φ for the counting semiring: multiplicity of the formula.
        let (direct_count, _) = hq_unify::evaluate(
            &CountMonoid,
            &q,
            &interner,
            facts.iter().map(|f| (f.clone(), 1u64)),
        )
        .unwrap();
        assert_eq!(
            prov.tree.multiplicity(&|_| 1),
            direct_count,
            "count φ failed on {q}"
        );
        // φ for probabilities: evaluate the tree bottom-up in the
        // probability monoid (valid on decomposable trees).
        let probs: Vec<f64> = facts
            .iter()
            .enumerate()
            .map(|(i, _)| 0.1 + 0.8 * ((i as f64 * 0.37) % 1.0))
            .collect();
        let phi_p = eval_prob(&prov.tree, &probs);
        let (direct_p, _) = hq_unify::evaluate(
            &ProbMonoid,
            &q,
            &interner,
            facts.iter().enumerate().map(|(i, f)| (f.clone(), probs[i])),
        )
        .unwrap();
        assert!((phi_p - direct_p).abs() < 1e-9, "prob φ failed on {q}");
        checked += 1;
    }
    format!(
        "{checked}/{trials} random (query, database) pairs: φ(provenance run) \
         matched the direct run for the counting and probability monoids\n\
         (the proptest suites additionally cover the BSM and #Sat monoids)\n"
    )
}

fn eval_prob(tree: &hq_monoid::Prov, probs: &[f64]) -> f64 {
    use hq_monoid::Prov;
    match tree {
        Prov::False => 0.0,
        Prov::True => 1.0,
        Prov::Leaf(s) => probs[*s as usize],
        Prov::Or(cs) => {
            1.0 - cs
                .iter()
                .map(|c| 1.0 - eval_prob(c, probs))
                .product::<f64>()
        }
        Prov::And(cs) => cs.iter().map(|c| eval_prob(c, probs)).product(),
    }
}

fn e11() -> String {
    let mut rows = Vec::new();
    for n in [1_000usize, 2_000, 4_000, 8_000] {
        let w = star_tid(n, 53);
        let (_, stats) =
            pqe::probability_on(Exec::default(), &w.query, &w.interner, &w.tid).unwrap();
        rows.push(vec![
            w.tid.len().to_string(),
            stats.total_ops().to_string(),
            format!("{:.3}", stats.total_ops() as f64 / w.tid.len() as f64),
            stats.support_never_grew().to_string(),
            format!("{:?}", stats.support_sizes),
        ]);
    }
    let mut out = render_table(
        &[
            "|D|",
            "⊕/⊗ ops",
            "ops per fact",
            "support never grew",
            "support trajectory",
        ],
        &rows,
    );
    out.push_str(
        "claim: ops/|D| bounded by a constant (Thm 6.7); support non-increasing (Lemma 6.6)\n",
    );
    out
}

fn e12() -> String {
    let mut rows = Vec::new();
    {
        let m = ProbMonoid;
        let sample = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        rows.push(law_row(
            "probability (Def 5.7)",
            &m,
            &sample,
            hq_monoid::prob::approx_eq,
        ));
    }
    {
        let m = ExactProbMonoid;
        let sample: Vec<Rational> = [(0u64, 1u64), (1, 4), (1, 2), (3, 4), (1, 1)]
            .iter()
            .map(|&(p, q)| Rational::ratio(p, q))
            .collect();
        rows.push(law_row("probability exact", &m, &sample, |a, b| a == b));
    }
    {
        let m = BagMaxMonoid::new(3);
        let sample = vec![
            m.zero(),
            m.one(),
            m.star(),
            m.vec_from(&[0, 2, 3, 5]),
            m.vec_from(&[1, 1, 4, 4]),
        ];
        rows.push(law_row("bag-set max (Def 5.9)", &m, &sample, |a, b| a == b));
    }
    {
        let m = SatCountMonoid::new(3);
        let sample = vec![
            m.zero(),
            m.one(),
            m.star(),
            m.add(&m.star(), &m.star()),
            m.mul(&m.star(), &m.star()),
        ];
        rows.push(law_row("#Sat / Shapley (Def 5.14)", &m, &sample, |a, b| {
            a == b
        }));
    }
    {
        let m = BoolMonoid;
        rows.push(law_row("Boolean semiring", &m, &[false, true], |a, b| {
            a == b
        }));
    }
    {
        let m = CountMonoid;
        let sample: Vec<u64> = (0..5).collect();
        rows.push(law_row("counting semiring", &m, &sample, |a, b| a == b));
    }
    {
        let m = TropicalMinMonoid;
        let sample = vec![0u64, 1, 3, 7, hq_monoid::TROPICAL_INF];
        rows.push(law_row("tropical semiring", &m, &sample, |a, b| a == b));
    }
    let mut out = render_table(
        &["structure", "2-monoid laws", "distributive", "annihilating"],
        &rows,
    );
    out.push_str(
        "claim: all three problem monoids are 2-monoids but NOT semirings \
         (no distributivity) — exactly why Algorithm 1 covers hierarchical,\n\
         not all acyclic, queries; the classical semirings pass everything\n",
    );
    out
}

fn law_row<M: TwoMonoid>(
    name: &str,
    m: &M,
    sample: &[M::Elem],
    eq: impl Fn(&M::Elem, &M::Elem) -> bool + Copy,
) -> Vec<String> {
    let laws = check_laws(m, sample, eq);
    let dist = distributivity_counterexample(m, sample, eq).is_none();
    let ann = annihilation_counterexample(m, sample, eq).is_none();
    vec![
        name.to_owned(),
        if laws.all_hold() {
            "hold".into()
        } else {
            "VIOLATED".into()
        },
        if dist {
            "yes".into()
        } else {
            "no (witness found)".into()
        },
        if ann {
            "yes".into()
        } else {
            "no (witness found)".into()
        },
    ]
}

fn e13() -> String {
    // (a) Witness extraction on Figure 1: the worklist per budget.
    let (d, d_r, i) = fig1();
    let q = example_query();
    let sol = bsm::maximize_with_repair(&q, &i, &d, &d_r, 4).unwrap();
    let mut rows = Vec::new();
    for t in 0..=4usize {
        let names: Vec<String> = sol
            .repair_at(t)
            .iter()
            .map(|f| f.display(&i).to_string())
            .collect();
        rows.push(vec![
            t.to_string(),
            sol.value_at(t).to_string(),
            if names.is_empty() {
                "—".into()
            } else {
                names.join(", ")
            },
        ]);
    }
    let mut out = String::from("(a) Figure 1 with witness extraction:\n");
    out.push_str(&render_table(
        &["θ", "optimum", "one optimal repair"],
        &rows,
    ));
    // (b) Expected bag-set value vs marginal probability on a TID workload.
    out.push_str("\n(b) E[Q(D)] (real semiring) vs P(Q) (Def. 5.7 monoid):\n");
    let mut rows = Vec::new();
    for n in [100usize, 400, 1600] {
        let w = chain_tid(n, 71);
        let (p, _) = time_ms(|| pqe::probability(&w.query, &w.interner, &w.tid).unwrap());
        let (e, ms) = time_ms(|| pqe::expected_count(&w.query, &w.interner, &w.tid).unwrap());
        rows.push(vec![
            w.tid.len().to_string(),
            format!("{p:.4}"),
            format!("{e:.2}"),
            format!("{ms:.2}"),
        ]);
    }
    out.push_str(&render_table(&["|D|", "P(Q)", "E[Q(D)]", "ms"], &rows));
    out.push_str("claim: the same engine run with a semiring recovers classical\nexpectation computation; P(Q) ≤ E[Q(D)] (Markov) on every row\n");
    out
}

fn e14() -> String {
    use hq_query::{plan_with_order, PlanOrder};
    use hq_unify::{annotate, run_plan, Parallelism};
    let w = star_tid(8_000, 61);
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, order) in [
        ("rule1-first (default)", PlanOrder::Rule1First),
        ("rule2-first (merge eagerly)", PlanOrder::Rule2First),
        ("rule1, highest var first", PlanOrder::Rule1HighVar),
    ] {
        let p = plan_with_order(&w.query, order).unwrap();
        let db = annotate(
            &w.query,
            &w.interner,
            w.tid.iter().map(|(f, pr)| (f.clone(), *pr)),
        )
        .unwrap();
        let ((value, stats), ms) =
            time_ms(|| run_plan(&hq_monoid::ProbMonoid, &p, db, Parallelism::sequential()));
        results.push(value);
        let peak = stats.support_sizes.iter().copied().max().unwrap_or(0);
        rows.push(vec![
            name.to_owned(),
            format!("{ms:.2}"),
            stats.total_ops().to_string(),
            peak.to_string(),
            format!("{value:.6}"),
        ]);
    }
    assert!(
        results.windows(2).all(|x| (x[0] - x[1]).abs() < 1e-9),
        "orders must agree: {results:?}"
    );
    let mut out = render_table(
        &["plan order", "time (ms)", "⊕/⊗ ops", "peak support", "P(Q)"],
        &rows,
    );
    out.push_str(
        "claim (Prop. 5.1): every elimination order yields the same result;\n\
         order only shifts constants (op counts / intermediate sizes)\n",
    );
    out
}

fn e15() -> String {
    use hq_unify::{bsm, Backend};
    let mut out = String::from("(a) PQE, chain query, both backends (bit-identical P(Q)):\n");
    let mut rows = Vec::new();
    for n in [2_000usize, 8_000, 32_000] {
        let w = chain_tid(n, 11);
        let (pm, t_map) = time_ms(|| pqe::probability(&w.query, &w.interner, &w.tid).unwrap());
        let (pc, t_col) = time_ms(|| {
            let columnar = Backend::Columnar.into();
            pqe::probability_on(columnar, &w.query, &w.interner, &w.tid)
                .unwrap()
                .0
        });
        assert_eq!(
            pm.to_bits(),
            pc.to_bits(),
            "backends must agree bit-for-bit"
        );
        rows.push(vec![
            w.tid.len().to_string(),
            format!("{t_map:.2}"),
            format!("{t_col:.2}"),
            format!("{:.2}x", t_map / t_col),
        ]);
    }
    out.push_str(&render_table(
        &["|D|", "map ms", "columnar ms", "speedup"],
        &rows,
    ));
    out.push_str("\n(b) BSM (θ=10), both backends (identical curves):\n");
    let mut rows = Vec::new();
    for d_size in [500usize, 2_000, 8_000] {
        let w = bsm_workload(d_size, 40, 17);
        let (sm, t_map) = time_ms(|| {
            bsm::maximize_on(Backend::Map.into(), &w.query, &w.interner, &w.d, &w.d_r, 10).unwrap()
        });
        let (sc, t_col) = time_ms(|| {
            bsm::maximize_on(
                Backend::Columnar.into(),
                &w.query,
                &w.interner,
                &w.d,
                &w.d_r,
                10,
            )
            .unwrap()
        });
        assert_eq!(sm.curve, sc.curve, "backends must agree");
        rows.push(vec![
            (3 * d_size).to_string(),
            format!("{t_map:.2}"),
            format!("{t_col:.2}"),
            format!("{:.2}x", t_map / t_col),
        ]);
    }
    out.push_str(&render_table(
        &["|D|", "map ms", "columnar ms", "speedup"],
        &rows,
    ));
    out.push_str("claim: same ops, same answers; the columnar layout only shrinks the constants\n");
    out
}
