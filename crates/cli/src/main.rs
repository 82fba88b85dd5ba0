//! `hq` — command-line interface for hierarchical-query evaluation.
//!
//! ```text
//! hq check   "Q() :- R(A,B), S(A,C)"                     # hierarchy analysis + plan trace
//! hq count   --query Q --db d.facts                      # bag-set value Q(D)
//! hq pqe     --query Q --db d.facts [--exact]            # marginal probability (weights after '@')
//! hq bsm     --query Q --db d.facts --repair r.facts --theta N
//! hq shapley --query Q --db endo.facts [--exogenous x.facts]
//! ```
//!
//! Database files use the `hq-db` text format: one fact per line
//! (`R(1, alice)`), optional probability after `@`, `#` comments.
//!
//! Solver commands accept `--backend map|columnar|compressed` (alias
//! `--storage`) to pick the annotated-relation storage layout
//! (default: columnar, the fast path; all produce bit-identical
//! answers) and `--threads N|max` to shard the columnar rules over
//! worker threads (every thread count produces bit-identical answers
//! too). The compressed tier keeps block-encoded matrices resident
//! and, in serve mode, can spill evicted plan nodes to disk
//! (`--spill`). The serving commands (`hq pqe --mode incremental|serve`
//! and `hq serve`) match `--backend` once to a storage type and run
//! one generic session or server over it, on every tier at the
//! `--threads` degree.

use hq_arith::Rational;
use hq_db::text::parse_database;
use hq_db::{Database, Fact, Interner};
use hq_query::{
    is_hierarchical, non_hierarchical_witness, parse_query, plan, witness_forest, Query,
};
use hq_unify::pqe::PqeSession;
use hq_unify::script::{
    parse_command, parse_script, render_command, strip_comment, ScriptCommand, UpdateAction,
};
use hq_unify::{
    bsm, pqe, shapley, Backend, ColumnarRelation, CompressedColumnar, Exec, MapRelation,
    Parallelism, ServingBackend,
};
use std::process::ExitCode;

mod args;
mod serve;
use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Executes a full CLI invocation, returning the text to print.
/// Split from `main` so the test suite can drive it directly.
fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "check" => cmd_check(rest),
        "count" => cmd_count(&Args::parse(rest)?),
        "pqe" => cmd_pqe(&Args::parse(rest)?),
        "bsm" => cmd_bsm(&Args::parse(rest)?),
        "expected" => cmd_expected(&Args::parse(rest)?),
        "provenance" => cmd_provenance(&Args::parse(rest)?),
        "serve" => serve::cmd_serve(&Args::parse(rest)?),
        "shapley" => cmd_shapley(&Args::parse(rest)?),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'; try 'hq help'")),
    }
}

fn usage() -> String {
    "hq — the unifying algorithm for hierarchical queries (PODS 2025)\n\
     \n\
     commands:\n\
     \x20 check   <query>                                  hierarchy analysis and elimination trace\n\
     \x20 count   --query <q> --db <file>                  bag-set value Q(D)\n\
     \x20 pqe     --query <q> --db <file> [--exact]        probabilistic query evaluation\n\
     \x20         [--mode incremental --updates <file> [--batch N]]\n\
     \x20                                                  maintain P(Q) under an update script\n\
     \x20                                                  (one `R(..) [@ p]` per line; @ 0 deletes,\n\
     \x20                                                  unseen facts insert; trajectory printed)\n\
     \x20         [--mode serve --script <file>]           multi-query serving session: a mixed\n\
     \x20                                                  script of `? <query>` lines and fact\n\
     \x20                                                  updates (`!R(..)` deletes; `@ 0` is a\n\
     \x20                                                  deprecated delete alias); overlapping\n\
     \x20                                                  queries share cached sub-plans, and\n\
     \x20                                                  updates delta-patch them in place\n\
     \x20         [--cache-rows <n>]                       bound the serve-mode plan cache to n\n\
     \x20                                                  materialised rows (LRU eviction)\n\
     \x20         [--spill]                                spill evicted plan nodes to a temp\n\
     \x20                                                  segment file and reload instead of\n\
     \x20                                                  recompute (compressed backend only)\n\
     \x20 bsm     --query <q> --db <file> --repair <file> --theta <n> [--witness]\n\
     \x20 expected --query <q> --db <file>                 expected bag-set value E[Q(D)]\n\
     \x20 provenance --query <q> --db <file>               provenance tree of Q over D\n\
     \x20 serve   --db <file> --listen <addr:port>         multi-tenant serving server: each\n\
     \x20                                                  connection is a snapshot-isolated\n\
     \x20                                                  session over one shared plan cache;\n\
     \x20                                                  the wire protocol is the script\n\
     \x20                                                  grammar, one command per line\n\
     \x20                                                  (`? <query>`, `R(..) [@ p]`,\n\
     \x20                                                  `!R(..)`, plus `pin`/`unpin`/\n\
     \x20                                                  `stats`/`quit`/`shutdown`)\n\
     \x20         [--max-sessions <n>]                     refuse connections beyond n\n\
     \x20                                                  concurrent sessions (default 64)\n\
     \x20         [--global-cache-rows <n>]                memory governor: bound the rows\n\
     \x20                                                  materialised across ALL sessions\n\
     \x20                                                  (cost-aware-LRU eviction)\n\
     \x20         [--max-live-epochs <n>]                  admission-control update bursts:\n\
     \x20                                                  a writer blocks while n epochs\n\
     \x20                                                  are still pinned by readers\n\
     \x20         [--write-queue <n>]                      bound the group-commit queue to\n\
     \x20                                                  n pending writer batches\n\
     \x20         [--write-policy block|refuse]            what a full write queue does to\n\
     \x20                                                  new submissions (default: block;\n\
     \x20                                                  requires --write-queue)\n\
     \x20 shapley --query <q> --db <file> [--exogenous <file>]\n\
     \n\
     solver options:\n\
     \x20 --backend map|columnar|compressed\n\
     \x20                           annotated-relation storage layout (default: columnar;\n\
     \x20                           `compressed` = bit-packed/RLE block-encoded matrices;\n\
     \x20                           `--storage` is an accepted alias)\n\
     \x20 --threads N|max           worker threads for the columnar backend (default: 1);\n\
     \x20                           every thread count returns bit-identical answers\n\
     \n\
     database files: one fact per line, e.g. `R(1, alice) @ 0.9`\n"
        .to_owned()
}

fn parse_query_arg(src: &str) -> Result<Query, String> {
    parse_query(src).map_err(|e| format!("query: {e}"))
}

/// The storage backend selected by `--backend` (columnar by default).
/// `--storage` is an accepted alias — the compressed tier makes the
/// flag as much about physical layout as about algorithmic backend.
pub(crate) fn backend_arg(args: &Args) -> Result<Backend, String> {
    for key in ["backend", "storage"] {
        if args.flag(key) {
            return Err(format!("--{key} expects a value (map|columnar|compressed)"));
        }
    }
    match args.get("backend").or_else(|| args.get("storage")) {
        Some(name) => name.parse(),
        None => Ok(Backend::default()),
    }
}

/// The worker-thread count selected by `--threads` (1 by default;
/// `max` = all hardware threads). Only the columnar layout shards.
/// Warms the persistent worker pool immediately, so no evaluation —
/// not even the first — spawns a thread on its own clock.
pub(crate) fn threads_arg(args: &Args) -> Result<Parallelism, String> {
    if args.flag("threads") {
        return Err("--threads expects a value (N|max)".into());
    }
    let par: Parallelism = match args.get("threads") {
        Some(n) => n.parse()?,
        None => Parallelism::default(),
    };
    par.warm_pool();
    Ok(par)
}

/// The run's [`Exec`]: `--backend` at the `--threads` degree.
fn exec_arg(args: &Args) -> Result<Exec, String> {
    Ok(Exec::new(backend_arg(args)?, threads_arg(args)?))
}

pub(crate) fn load_db(
    path: &str,
    interner: &mut Interner,
) -> Result<(Database, Vec<(Fact, f64)>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = parse_database(&text, interner).map_err(|e| format!("{path}: {e}"))?;
    Ok((parsed.database, parsed.weights))
}

/// Loads a tuple-independent database: every fact of `path` with its
/// weight, a fact written without one at probability 1.
pub(crate) fn load_tid(path: &str, interner: &mut Interner) -> Result<Vec<(Fact, f64)>, String> {
    let (db, weights) = load_db(path, interner)?;
    let mut tid: Vec<(Fact, f64)> = db.facts().into_iter().map(|f| (f, 1.0)).collect();
    // `facts()` is sorted, so each weight is found by binary search; a
    // later weight for the same fact overwrites an earlier one.
    for (f, w) in weights {
        let i = tid
            .binary_search_by(|(g, _)| g.cmp(&f))
            .expect("the loader inserts every weighted fact");
        tid[i].1 = w;
    }
    Ok(tid)
}

fn cmd_check(rest: &[String]) -> Result<String, String> {
    let Some(src) = rest.first() else {
        return Err("check: expected a query argument".into());
    };
    let q = parse_query_arg(src)?;
    let mut out = format!("query: {q}\n");
    if is_hierarchical(&q) {
        out.push_str("hierarchical: yes\n\n");
        let p = plan(&q).expect("hierarchical queries always plan");
        out.push_str("elimination trace (Prop. 5.1):\n");
        out.push_str(&p.trace(&q));
        out.push('\n');
        if let Some(forest) = witness_forest(&q) {
            out.push_str("\nwitness forest (Prop. 5.5):\n");
            for v in q.vars() {
                match forest.parent(v) {
                    Some(p) => out.push_str(&format!(
                        "  {} -> parent {}\n",
                        q.var_name(v),
                        q.var_name(p)
                    )),
                    None => out.push_str(&format!("  {} (root)\n", q.var_name(v))),
                }
            }
        }
    } else {
        out.push_str("hierarchical: no\n");
        let w = non_hierarchical_witness(&q).expect("non-hierarchical witness exists");
        out.push_str(&format!(
            "witness (Thm. 4.4 shape): vars {}, {} with atoms {}, {}, {}\n\
             all three problems are intractable for this query\n\
             (PQE #P-complete, Shapley FP#P-complete, BSM NP-complete).\n",
            q.var_name(w.a),
            q.var_name(w.b),
            q.atoms()[w.r_atom].rel,
            q.atoms()[w.s_atom].rel,
            q.atoms()[w.t_atom].rel,
        ));
    }
    Ok(out)
}

fn cmd_count(args: &Args) -> Result<String, String> {
    let q = parse_query_arg(args.require("query")?)?;
    let mut interner = Interner::new();
    let (db, _) = load_db(args.require("db")?, &mut interner)?;
    let pattern = q.to_pattern(&mut interner);
    let count = hq_db::count_matches(&db, &pattern).map_err(|e| e.to_string())?;
    Ok(format!("Q(D) = {count}\n"))
}

fn cmd_pqe(args: &Args) -> Result<String, String> {
    let backend = backend_arg(args)?;
    let par = threads_arg(args)?;
    let mut interner = Interner::new();
    let tid = load_tid(args.require("db")?, &mut interner)?;
    // The plan cache only exists in serve mode: reject the knobs
    // everywhere else rather than silently ignoring them.
    if args.get("cache-rows").is_some() && args.get("mode") != Some("serve") {
        return Err("--cache-rows requires --mode serve".into());
    }
    if args.flag("spill") && args.get("mode") != Some("serve") {
        return Err("--spill requires --mode serve".into());
    }
    match args.get("mode") {
        Some(mode @ ("incremental" | "serve")) => {
            return match backend {
                Backend::Map => {
                    cmd_pqe_mode::<MapRelation<f64>>(args, mode, &mut interner, &tid, par)
                }
                Backend::Columnar => {
                    cmd_pqe_mode::<ColumnarRelation<f64>>(args, mode, &mut interner, &tid, par)
                }
                Backend::Compressed => {
                    cmd_pqe_mode::<CompressedColumnar<f64>>(args, mode, &mut interner, &tid, par)
                }
            };
        }
        Some(other) => {
            return Err(format!(
                "unknown mode '{other}' (expected 'incremental' or 'serve')"
            ))
        }
        None => {
            if args.get("updates").is_some() {
                return Err("--updates requires --mode incremental".into());
            }
            if args.get("script").is_some() {
                return Err("--script requires --mode serve".into());
            }
        }
    }
    let q = parse_query_arg(args.require("query")?)?;
    if args.flag("exact") {
        let exact: Vec<(Fact, Rational)> = tid
            .iter()
            .map(|(f, p)| {
                let scaled = (p * 1_000_000.0).round() as u64;
                (f.clone(), Rational::ratio(scaled, 1_000_000))
            })
            .collect();
        let prob = pqe::probability_exact_on(Exec::new(backend, par), &q, &interner, &exact)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "P(Q) = {prob} ≈ {:.9}\n(probabilities rounded to 1e-6 for exact mode)\n",
            prob.to_f64()
        ))
    } else {
        let (prob, _) = pqe::probability_on(Exec::new(backend, par), &q, &interner, &tid)
            .map_err(|e| e.to_string())?;
        Ok(format!("P(Q) = {prob:.9}\n"))
    }
}

/// `hq pqe --mode incremental|serve` on the storage tier `R`: both
/// modes drive one [`PqeSession`] at the `--threads` degree.
fn cmd_pqe_mode<R: ServingBackend<Ann = f64>>(
    args: &Args,
    mode: &str,
    interner: &mut Interner,
    tid: &[(Fact, f64)],
    par: Parallelism,
) -> Result<String, String> {
    if mode == "serve" {
        // Serve mode takes its queries from the script, not --query.
        return cmd_pqe_serve::<R>(args, interner, tid, par);
    }
    let q = parse_query_arg(args.require("query")?)?;
    cmd_pqe_incremental::<R>(args, &q, interner, tid, par)
}

/// `hq pqe --mode incremental --updates FILE [--batch N]`: replays a
/// newline-delimited update script — one `R(v1, …) [@ p]` per line, a
/// missing weight meaning `1`, `@ 0` deleting, and facts the database
/// never held inserting — against a serving session with one
/// registered query, printing the probability trajectory. Each chunk of
/// `--batch N` consecutive updates (default 1) is one `update_batch`
/// repair pass followed by one query.
fn cmd_pqe_incremental<R: ServingBackend<Ann = f64>>(
    args: &Args,
    q: &Query,
    interner: &mut Interner,
    tid: &[(Fact, f64)],
    par: Parallelism,
) -> Result<String, String> {
    let path = args.require("updates")?;
    let batch_size: usize = match args.get("batch") {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "batch: expected a positive integer".to_string())?,
        None => 1,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut updates: Vec<(Fact, UpdateAction)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let Some(line) = strip_comment(raw) else {
            continue;
        };
        match parse_command(line, lineno, path, interner)? {
            ScriptCommand::Update(fact, action) => updates.push((fact, action)),
            ScriptCommand::Query(_) | ScriptCommand::Fix { .. } => {
                return Err(format!(
                    "{path}: line {}: queries (`? …`) belong to --mode serve scripts; \
                     --updates files take only fact updates",
                    lineno + 1
                ))
            }
        }
    }
    let mut session =
        PqeSession::<R>::with_parallelism(interner, tid, par).map_err(|e| e.to_string())?;
    let (p, _) = session.query(interner, q).map_err(|e| e.to_string())?;
    let mut out = format!("P(Q) = {p:.9}\n");
    for batch in updates.chunks(batch_size) {
        let writes: Vec<(Fact, f64)> = batch
            .iter()
            .map(|(f, a)| (f.clone(), a.prob_weight()))
            .collect();
        session
            .update_batch(interner, &writes)
            .map_err(|e| e.to_string())?;
        let (p, _) = session.query(interner, q).map_err(|e| e.to_string())?;
        let label: Vec<String> = batch
            .iter()
            .map(|(f, a)| render_command(&ScriptCommand::Update(f.clone(), a.clone()), interner))
            .collect();
        out.push_str(&format!("{} -> P(Q) = {p:.9}\n", label.join(", ")));
    }
    Ok(out)
}

/// `hq pqe --mode serve --script FILE`: replays a newline-delimited
/// **mixed** query/update script against one multi-query serving
/// session. Lines starting with `?` are queries (`? Q() :- E(X,Y)`),
/// anything else is a fact update (`R(v1, …) [@ p]`; a missing weight
/// means `1`, `@ 0` deletes, unseen facts insert); `#` comments and
/// blank lines are skipped. Consecutive updates coalesce into one
/// batched cache-repair pass. Queries share every common sub-plan
/// through the session's plan cache — the trailer reports how many
/// monoid operations the sharing actually executed versus the
/// independent-evaluation total the reported stats replay.
fn cmd_pqe_serve<R: ServingBackend<Ann = f64>>(
    args: &Args,
    interner: &mut Interner,
    tid: &[(Fact, f64)],
    par: Parallelism,
) -> Result<String, String> {
    let path = args.require("script")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The shared script grammar (`hq_unify::script`) — the same parser
    // the incremental mode and the `hq serve --listen` wire protocol
    // consume. The serving session is probability-monoid: a delete and
    // a zero weight coincide (`0` means absent).
    let script: Vec<ScriptCommand> = parse_script(&text, path, interner)?;
    let mut session =
        PqeSession::<R>::with_parallelism(interner, tid, par).map_err(|e| e.to_string())?;
    if let Some(n) = args.get("cache-rows") {
        let budget: usize = n
            .parse()
            .map_err(|_| "cache-rows: expected a non-negative integer".to_string())?;
        session.set_cache_budget(Some(budget));
    }
    let spilling = if args.flag("spill") {
        let effective = session.set_spill(true);
        if !effective {
            return Err(
                "spill: only the compressed backend can spill evicted nodes \
                 (use --backend compressed)"
                    .to_string(),
            );
        }
        true
    } else {
        false
    };
    let mut out = String::new();
    let mut queries = 0usize;
    let mut replayed_ops = 0u64;
    let mut pending: Vec<(Fact, f64)> = Vec::new();
    let flush = |session: &mut PqeSession<R>,
                 pending: &mut Vec<(Fact, f64)>,
                 out: &mut String,
                 interner: &Interner|
     -> Result<(), String> {
        if pending.is_empty() {
            return Ok(());
        }
        session
            .update_batch(interner, pending)
            .map_err(|e| e.to_string())?;
        out.push_str(&format!("applied {} update(s)\n", pending.len()));
        pending.clear();
        Ok(())
    };
    for line in script {
        match line {
            ScriptCommand::Update(fact, action) => pending.push((fact, action.prob_weight())),
            ScriptCommand::Query(q) => {
                flush(&mut session, &mut pending, &mut out, interner)?;
                let (p, stats) = session.query(interner, &q).map_err(|e| e.to_string())?;
                queries += 1;
                replayed_ops += stats.total_ops();
                out.push_str(&format!("{q} -> P(Q) = {p:.9}\n"));
            }
            ref fix_cmd @ ScriptCommand::Fix { ref rel, src, dst } => {
                flush(&mut session, &mut pending, &mut out, interner)?;
                let echo = hq_unify::script::render_command(fix_cmd, interner);
                let (p, stats) = session
                    .reachability(interner, rel, src, dst)
                    .map_err(|e| e.to_string())?;
                queries += 1;
                replayed_ops += stats.total_ops();
                out.push_str(&format!(
                    "{} -> P(Q) = {p:.9}\n",
                    echo.trim_start_matches("? ")
                ));
            }
        }
    }
    flush(&mut session, &mut pending, &mut out, interner)?;
    let s = session.session();
    out.push_str(&format!(
        "served {queries} quer{} from {} cached plan node(s) ({} rows, {} evicted, \
         {} memo hit(s)); {} monoid ops executed vs {} replayed (independent evaluation)\n",
        if queries == 1 { "y" } else { "ies" },
        s.cached_nodes(),
        s.cached_rows(),
        s.evictions(),
        s.lower_hits(),
        s.ops_performed(),
        replayed_ops,
    ));
    // Resident footprint and compression ratio: live cached bytes vs
    // what the same nodes would occupy as dense columnar matrices.
    let resident = s.cached_bytes();
    let dense = s.cached_dense_bytes();
    let ratio = if resident > 0 {
        dense as f64 / resident as f64
    } else {
        1.0
    };
    out.push_str(&format!(
        "cache resident: {resident} B vs {dense} B dense-equivalent ({ratio:.2}x compression)\n",
    ));
    if spilling {
        out.push_str(&format!(
            "spill: {} write(s), {} reload(s), {} B on disk\n",
            s.spill_writes(),
            s.spill_reloads(),
            s.spilled_bytes(),
        ));
    }
    Ok(out)
}

fn cmd_bsm(args: &Args) -> Result<String, String> {
    let q = parse_query_arg(args.require("query")?)?;
    let exec = exec_arg(args)?;
    let theta: usize = args
        .require("theta")?
        .parse()
        .map_err(|_| "theta: expected a non-negative integer".to_string())?;
    let mut interner = Interner::new();
    let (d, _) = load_db(args.require("db")?, &mut interner)?;
    let (d_r, _) = load_db(args.require("repair")?, &mut interner)?;
    if args.flag("witness") {
        let sol = bsm::maximize_with_repair_on(exec, &q, &interner, &d, &d_r, theta)
            .map_err(|e| e.to_string())?;
        let mut out = format!(
            "max Q(D') within budget θ={theta}: {}\n",
            sol.value_at(theta)
        );
        out.push_str("budget curve with optimal repairs:\n");
        for i in 0..=theta {
            let names: Vec<String> = sol
                .repair_at(i)
                .iter()
                .map(|f| f.display(&interner).to_string())
                .collect();
            out.push_str(&format!(
                "  θ={i}: {} via {{{}}}\n",
                sol.value_at(i),
                names.join(", ")
            ));
        }
        return Ok(out);
    }
    let sol = bsm::maximize_on(exec, &q, &interner, &d, &d_r, theta).map_err(|e| e.to_string())?;
    let mut out = format!("max Q(D') within budget θ={theta}: {}\n", sol.optimum());
    out.push_str("budget curve:\n");
    for i in 0..=theta {
        out.push_str(&format!("  θ={i}: {}\n", sol.value_at(i)));
    }
    Ok(out)
}

fn cmd_expected(args: &Args) -> Result<String, String> {
    let q = parse_query_arg(args.require("query")?)?;
    let exec = exec_arg(args)?;
    let mut interner = Interner::new();
    let tid = load_tid(args.require("db")?, &mut interner)?;
    let e = pqe::expected_count_on(exec, &q, &interner, &tid).map_err(|e| e.to_string())?;
    Ok(format!("E[Q(D)] = {e:.9}\n"))
}

fn cmd_provenance(args: &Args) -> Result<String, String> {
    let q = parse_query_arg(args.require("query")?)?;
    let mut interner = Interner::new();
    let (db, _) = load_db(args.require("db")?, &mut interner)?;
    let facts = db.facts();
    let prov = hq_unify::provenance_tree(&q, &interner, &facts).map_err(|e| e.to_string())?;
    let mut out = String::from("fact symbols:\n");
    for (i, f) in prov.symbols.iter().enumerate() {
        out.push_str(&format!("  f{i} = {}\n", f.display(&interner)));
    }
    out.push_str(&format!("provenance tree: {}\n", prov.tree));
    out.push_str(&format!(
        "decomposable: {}; support size: {}\n",
        prov.tree.is_decomposable(),
        prov.tree.support().len()
    ));
    Ok(out)
}

fn cmd_shapley(args: &Args) -> Result<String, String> {
    let q = parse_query_arg(args.require("query")?)?;
    let exec = exec_arg(args)?;
    let mut interner = Interner::new();
    let (endo_db, _) = load_db(args.require("db")?, &mut interner)?;
    let exogenous = match args.get("exogenous") {
        Some(path) => load_db(path, &mut interner)?.0.facts(),
        None => Vec::new(),
    };
    let endogenous = endo_db.facts();
    let values = shapley::shapley_values_on(exec, &q, &interner, &exogenous, &endogenous)
        .map_err(|e| e.to_string())?;
    let mut out = String::from("Shapley values (exact):\n");
    let mut total = Rational::zero();
    for (f, v) in &values {
        out.push_str(&format!(
            "  {:<30} {} ≈ {:.6}\n",
            f.display(&interner).to_string(),
            v,
            v.to_f64()
        ));
        total = &total + v;
    }
    out.push_str(&format!("  total = {total} ≈ {:.6}\n", total.to_f64()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("hq-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_strs(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        run(&owned)
    }

    #[test]
    fn check_hierarchical_query() {
        let out = run_strs(&["check", "Q() :- R(A,B), S(A,C), T(A,C,D)"]).unwrap();
        assert!(out.contains("hierarchical: yes"));
        assert!(out.contains("Rule 1"));
        assert!(out.contains("witness forest"));
    }

    #[test]
    fn check_non_hierarchical_query() {
        let out = run_strs(&["check", "Q() :- R(X), S(X,Y), T(Y)"]).unwrap();
        assert!(out.contains("hierarchical: no"));
        assert!(out.contains("NP-complete"));
    }

    #[test]
    fn count_command() {
        let db = write_temp("count.facts", "R(1,5)\nS(1,1)\nS(1,2)\nT(1,2,4)\n");
        let out = run_strs(&[
            "count",
            "--query",
            "Q() :- R(A,B), S(A,C), T(A,C,D)",
            "--db",
            &db,
        ])
        .unwrap();
        assert_eq!(out, "Q(D) = 1\n");
    }

    #[test]
    fn pqe_command() {
        let db = write_temp("pqe.facts", "E(1,2) @ 0.5\nF(2,3) @ 0.5\n");
        let out = run_strs(&["pqe", "--query", "Q() :- E(X,Y), F(Y,Z)", "--db", &db]).unwrap();
        assert!(out.contains("P(Q) = 0.25"), "{out}");
        let exact = run_strs(&[
            "pqe",
            "--query",
            "Q() :- E(X,Y), F(Y,Z)",
            "--db",
            &db,
            "--exact",
        ])
        .unwrap();
        assert!(exact.contains("1/4"), "{exact}");
    }

    #[test]
    fn bsm_command_reproduces_figure_1() {
        let d = write_temp("bsm_d.facts", "R(1,5)\nS(1,1)\nS(1,2)\nT(1,2,4)\n");
        let dr = write_temp("bsm_dr.facts", "R(1,6)\nR(1,7)\nT(1,1,4)\nT(1,2,9)\n");
        let out = run_strs(&[
            "bsm",
            "--query",
            "Q() :- R(A,B), S(A,C), T(A,C,D)",
            "--db",
            &d,
            "--repair",
            &dr,
            "--theta",
            "2",
        ])
        .unwrap();
        assert!(out.contains("budget θ=2: 4"), "{out}");
        assert!(out.contains("θ=0: 1"));
        assert!(out.contains("θ=1: 2"));
    }

    #[test]
    fn shapley_command() {
        let db = write_temp("shap.facts", "R(1)\nR(2)\n");
        let out = run_strs(&["shapley", "--query", "Q() :- R(X)", "--db", &db]).unwrap();
        assert!(out.contains("1/2"), "{out}");
        assert!(out.contains("total = 1"), "{out}");
    }

    #[test]
    fn bsm_witness_flag() {
        let d = write_temp("bsmw_d.facts", "R(1,5)\nS(1,1)\nS(1,2)\nT(1,2,4)\n");
        let dr = write_temp("bsmw_dr.facts", "R(1,6)\nR(1,7)\nT(1,1,4)\nT(1,2,9)\n");
        let out = run_strs(&[
            "bsm",
            "--query",
            "Q() :- R(A,B), S(A,C), T(A,C,D)",
            "--db",
            &d,
            "--repair",
            &dr,
            "--theta",
            "2",
            "--witness",
        ])
        .unwrap();
        assert!(out.contains("θ=2: 4 via {"), "{out}");
        assert!(out.contains("R(1, "), "{out}");
    }

    #[test]
    fn expected_command() {
        let db = write_temp("exp.facts", "R(1) @ 0.25\nR(2) @ 0.25\n");
        let out = run_strs(&["expected", "--query", "Q() :- R(X)", "--db", &db]).unwrap();
        assert!(out.contains("E[Q(D)] = 0.5"), "{out}");
    }

    #[test]
    fn provenance_command() {
        let db = write_temp("prov.facts", "E(1,2)\nF(2,3)\n");
        let out = run_strs(&[
            "provenance",
            "--query",
            "Q() :- E(X,Y), F(Y,Z)",
            "--db",
            &db,
        ])
        .unwrap();
        assert!(out.contains("f0 = E(1, 2)"), "{out}");
        assert!(out.contains("∧"), "{out}");
        assert!(out.contains("decomposable: true"), "{out}");
    }

    #[test]
    fn backend_selection_is_observably_identical() {
        let db = write_temp("backend.facts", "E(1,2) @ 0.5\nF(2,3) @ 0.5\n");
        let base = &["pqe", "--query", "Q() :- E(X,Y), F(Y,Z)", "--db", &db];
        let default_out = run_strs(base).unwrap();
        for backend in ["map", "columnar", "compressed"] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--backend", backend]);
            assert_eq!(run_strs(&args).unwrap(), default_out, "{backend}");
            // `--storage` is an alias for `--backend`.
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--storage", backend]);
            assert_eq!(run_strs(&args).unwrap(), default_out, "storage={backend}");
        }
        let err = run_strs(&[
            "pqe",
            "--query",
            "Q() :- E(X,Y), F(Y,Z)",
            "--db",
            &db,
            "--backend",
            "btree",
        ])
        .unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
    }

    #[test]
    fn threads_flag_is_observably_identical() {
        let db = write_temp(
            "threads.facts",
            "E(1,2) @ 0.5\nE(1,3) @ 0.25\nF(2,3) @ 0.5\n",
        );
        let base = &["pqe", "--query", "Q() :- E(X,Y), F(Y,Z)", "--db", &db];
        let default_out = run_strs(base).unwrap();
        for threads in ["1", "2", "4", "max"] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads]);
            assert_eq!(run_strs(&args).unwrap(), default_out, "threads={threads}");
        }
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "zero"]);
        let err = run_strs(&args).unwrap_err();
        assert!(err.contains("invalid thread count"), "{err}");
    }

    #[test]
    fn valueless_backend_is_an_error() {
        let db = write_temp("novalue_b.facts", "E(1,2) @ 0.5\n");
        let err =
            run_strs(&["pqe", "--query", "Q() :- E(X,Y)", "--db", &db, "--backend"]).unwrap_err();
        assert!(err.contains("--backend expects a value"), "{err}");
    }

    #[test]
    fn valueless_storage_is_an_error() {
        let db = write_temp("novalue_s.facts", "E(1,2) @ 0.5\n");
        // A following option is not a value either.
        let err =
            run_strs(&["pqe", "--query", "Q() :- E(X,Y)", "--storage", "--db", &db]).unwrap_err();
        assert!(err.contains("--storage expects a value"), "{err}");
    }

    #[test]
    fn valueless_threads_is_an_error() {
        let db = write_temp("novalue_t.facts", "E(1,2) @ 0.5\n");
        let err =
            run_strs(&["pqe", "--query", "Q() :- E(X,Y)", "--db", &db, "--threads"]).unwrap_err();
        assert!(err.contains("--threads expects a value"), "{err}");
    }

    #[test]
    fn bsm_backend_flag_accepted() {
        let d = write_temp("bsmb_d.facts", "R(1,5)\nS(1,1)\nS(1,2)\nT(1,2,4)\n");
        let dr = write_temp("bsmb_dr.facts", "R(1,6)\nR(1,7)\nT(1,1,4)\nT(1,2,9)\n");
        for backend in ["map", "columnar", "compressed"] {
            let out = run_strs(&[
                "bsm",
                "--query",
                "Q() :- R(A,B), S(A,C), T(A,C,D)",
                "--db",
                &d,
                "--repair",
                &dr,
                "--theta",
                "2",
                "--backend",
                backend,
            ])
            .unwrap();
            assert!(out.contains("budget θ=2: 4"), "{backend}: {out}");
        }
    }

    #[test]
    fn pqe_incremental_mode_replays_updates() {
        let db = write_temp("inc.facts", "E(1,2) @ 0.5\nF(2,3) @ 0.5\n");
        // Update the E fact, delete the F fact, re-insert it, and
        // insert a genuinely new chain (new domain values!).
        let updates = write_temp(
            "inc.updates",
            "E(1,2) @ 0.9\n\
             F(2,3) @ 0   # delete\n\
             F(2,3) @ 0.5 # re-insert\n\
             E(7,8) @ 0.5\n\
             F(8,9) @ 0.5\n",
        );
        let base = &[
            "pqe",
            "--query",
            "Q() :- E(X,Y), F(Y,Z)",
            "--db",
            &db,
            "--mode",
            "incremental",
            "--updates",
            &updates,
        ];
        let out = run_strs(base).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6, "{out}");
        assert!(lines[0].contains("P(Q) = 0.25"), "{out}");
        assert!(lines[1].contains("E(1, 2) @ 0.9 -> P(Q) = 0.45"), "{out}");
        assert!(lines[2].contains("P(Q) = 0.0"), "{out}");
        assert!(lines[3].contains("P(Q) = 0.45"), "{out}");
        // After both new facts land, the second chain adds
        // 1 − (1 − 0.45)(1 − 0.25) = 0.5875.
        assert!(lines[5].contains("P(Q) = 0.5875"), "{out}");
        // The trajectory is identical on every backend and thread count.
        for extra in [
            vec!["--backend", "map"],
            vec!["--backend", "columnar"],
            vec!["--backend", "compressed"],
            vec!["--threads", "4"],
            vec!["--backend", "map", "--threads", "4"],
        ] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(extra.iter());
            assert_eq!(run_strs(&args).unwrap(), out, "{extra:?}");
        }
        // Batched replay: same final probability, fewer trajectory rows.
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--batch", "5"]);
        let batched = run_strs(&args).unwrap();
        assert_eq!(batched.lines().count(), 2, "{batched}");
        assert!(batched.lines().last().unwrap().contains("P(Q) = 0.5875"));
        // Malformed requests fail helpfully.
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--batch", "0"]);
        assert!(run_strs(&args).unwrap_err().contains("batch"));
        let err = run_strs(&[
            "pqe",
            "--query",
            "Q() :- E(X,Y), F(Y,Z)",
            "--db",
            &db,
            "--updates",
            &updates,
        ])
        .unwrap_err();
        assert!(err.contains("--mode incremental"), "{err}");
    }

    #[test]
    fn pqe_serve_mode_mixes_queries_and_updates() {
        let db = write_temp("serve.facts", "E(1,2) @ 0.5\nF(2,3) @ 0.5\n");
        let script = write_temp(
            "serve.script",
            "? Q() :- E(X,Y), F(Y,Z)\n\
             ? Q() :- E(X,Y)          # overlaps: shares E's scan+fold\n\
             E(1,2) @ 0.9             # update\n\
             F(2,3) @ 0               # delete\n\
             ? Q() :- E(X,Y), F(Y,Z)\n\
             F(2,3) @ 0.5             # re-insert\n\
             ? Q() :- E(X,Y), F(Y,Z)\n\
             ? Q() :- E(X,Y), F(Y,Z)  # repeat: pure cache hit\n",
        );
        let base = &["pqe", "--db", &db, "--mode", "serve", "--script", &script];
        let out = run_strs(base).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 9, "{out}");
        assert!(lines[0].contains("P(Q) = 0.25"), "{out}");
        assert!(lines[1].contains("P(Q) = 0.5"), "{out}");
        assert!(lines[2].contains("applied 2 update(s)"), "{out}");
        assert!(lines[3].contains("P(Q) = 0.0"), "{out}");
        assert!(lines[4].contains("applied 1 update(s)"), "{out}");
        assert!(lines[5].contains("P(Q) = 0.45"), "{out}");
        assert!(lines[6].contains("P(Q) = 0.45"), "{out}");
        assert!(lines[7].contains("served 5 queries"), "{out}");
        assert!(lines[8].contains("compression"), "{out}");
        // Identical on every backend and thread count.
        for extra in [
            vec!["--backend", "map"],
            vec!["--backend", "columnar"],
            vec!["--backend", "compressed"],
            vec!["--threads", "4"],
            vec!["--backend", "map", "--threads", "4"],
        ] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(extra.iter());
            let got = run_strs(&args).unwrap();
            assert_eq!(
                got.lines().take(7).collect::<Vec<_>>(),
                out.lines().take(7).collect::<Vec<_>>(),
                "{extra:?}"
            );
        }
        // --script without --mode serve fails helpfully.
        let err = run_strs(&[
            "pqe",
            "--query",
            "Q() :- E(X,Y)",
            "--db",
            &db,
            "--script",
            &script,
        ])
        .unwrap_err();
        assert!(err.contains("--mode serve"), "{err}");
    }

    #[test]
    fn pqe_serve_spill_reloads_evicted_nodes() {
        // A tiny cache budget forces evictions between the alternating
        // queries; with --spill the evicted nodes come back from the
        // segment file, with answers identical to the spill-less run.
        let db = write_temp("spill.facts", "E(1,2) @ 0.5\nE(1,3) @ 0.25\nF(2,3) @ 0.5\n");
        let script = write_temp(
            "spill.script",
            "? Q() :- E(X,Y), F(Y,Z)\n\
             ? Q() :- F(Y,Z)\n\
             ? Q() :- E(X,Y), F(Y,Z)\n\
             ? Q() :- F(Y,Z)\n",
        );
        let base = &[
            "pqe",
            "--db",
            &db,
            "--mode",
            "serve",
            "--script",
            &script,
            "--backend",
            "compressed",
            "--cache-rows",
            "1",
        ];
        let plain = run_strs(base).unwrap();
        let mut args: Vec<&str> = base.to_vec();
        args.push("--spill");
        let spilled = run_strs(&args).unwrap();
        // Every served probability agrees; the spill run reports its
        // disk traffic in an extra trailer line.
        assert_eq!(
            plain.lines().take(4).collect::<Vec<_>>(),
            spilled.lines().take(4).collect::<Vec<_>>(),
        );
        assert!(spilled.contains("spill:"), "{spilled}");
        // Spilling is a compressed-tier capability.
        let mut args: Vec<&str> = base.to_vec();
        let pos = args.iter().position(|a| *a == "compressed").unwrap();
        args[pos] = "columnar";
        args.push("--spill");
        let err = run_strs(&args).unwrap_err();
        assert!(err.contains("compressed"), "{err}");
        // And a serve-mode knob.
        let err =
            run_strs(&["pqe", "--query", "Q() :- E(X,Y)", "--db", &db, "--spill"]).unwrap_err();
        assert!(err.contains("--mode serve"), "{err}");
    }

    #[test]
    fn write_policy_without_write_queue_is_an_error() {
        let db = write_temp("write_policy.facts", "E(1,2) @ 0.5\n");
        let err = run_strs(&[
            "serve",
            "--db",
            &db,
            "--listen",
            "127.0.0.1:0",
            "--write-policy",
            "refuse",
        ])
        .unwrap_err();
        assert!(
            err.contains("--write-policy requires --write-queue"),
            "{err}"
        );
    }

    #[test]
    fn explicit_delete_form_round_trips_with_deprecated_zero_weight() {
        // The same script written with `!R(..)` deletes and with the
        // deprecated `@ 0` alias must produce identical output — in
        // both script modes.
        let db = write_temp("del.facts", "E(1,2) @ 0.5\nF(2,3) @ 0.5\n");
        let serve_bang = write_temp(
            "del_bang.script",
            "? Q() :- E(X,Y), F(Y,Z)\n\
             !F(2,3)                  # explicit delete\n\
             ? Q() :- E(X,Y), F(Y,Z)\n\
             F(2,3) @ 0.5             # re-insert\n\
             ? Q() :- E(X,Y), F(Y,Z)\n",
        );
        let serve_zero = write_temp(
            "del_zero.script",
            "? Q() :- E(X,Y), F(Y,Z)\n\
             F(2,3) @ 0               # deprecated alias\n\
             ? Q() :- E(X,Y), F(Y,Z)\n\
             F(2,3) @ 0.5\n\
             ? Q() :- E(X,Y), F(Y,Z)\n",
        );
        let bang = run_strs(&[
            "pqe",
            "--db",
            &db,
            "--mode",
            "serve",
            "--script",
            &serve_bang,
        ])
        .unwrap();
        let zero = run_strs(&[
            "pqe",
            "--db",
            &db,
            "--mode",
            "serve",
            "--script",
            &serve_zero,
        ])
        .unwrap();
        assert_eq!(bang, zero, "the two delete spellings must agree");
        assert!(bang.contains("P(Q) = 0.0"), "{bang}");
        // Incremental mode honours the same grammar.
        let upd_bang = write_temp("del_bang.updates", "!F(2,3)\nF(2,3) @ 0.5\n");
        let upd_zero = write_temp("del_zero.updates", "F(2,3) @ 0\nF(2,3) @ 0.5\n");
        let base = |upd: &str| {
            vec![
                "pqe".to_owned(),
                "--query".to_owned(),
                "Q() :- E(X,Y), F(Y,Z)".to_owned(),
                "--db".to_owned(),
                db.clone(),
                "--mode".to_owned(),
                "incremental".to_owned(),
                "--updates".to_owned(),
                upd.to_owned(),
            ]
        };
        let a = run(&base(&upd_bang)).unwrap();
        let b = run(&base(&upd_zero)).unwrap();
        // The trajectories agree line for line apart from the echoed
        // update labels (`!F` renders as weight 0).
        let probs = |s: &str| {
            s.lines()
                .map(|l| l.split("P(Q) = ").last().unwrap().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(probs(&a), probs(&b));
        assert!(a.lines().nth(1).unwrap().contains("P(Q) = 0.0"), "{a}");
        // A weighted delete is rejected helpfully.
        let bad = write_temp("del_bad.updates", "!F(2,3) @ 0.5\n");
        let err = run(&base(&bad)).unwrap_err();
        assert!(err.contains("takes no `@ weight`"), "{err}");
    }

    #[test]
    fn serve_mode_cache_budget_bounds_and_reports_evictions() {
        let db = write_temp(
            "budget.facts",
            "E(1,2) @ 0.5\nE(1,3) @ 0.25\nE(4,3) @ 0.5\nF(2,3) @ 0.5\nF(3,9) @ 0.5\n",
        );
        let script = write_temp(
            "budget.script",
            "? Q() :- E(X,Y)\n\
             ? Q() :- F(Y,Z)\n\
             ? Q() :- E(X,Y)\n",
        );
        let base = &[
            "pqe",
            "--db",
            &db,
            "--mode",
            "serve",
            "--script",
            &script,
            "--cache-rows",
            "2",
        ];
        let out = run_strs(base).unwrap();
        let trailer = out
            .lines()
            .find(|l| l.contains("served"))
            .expect("serve trailer");
        assert!(trailer.contains("evicted"), "{out}");
        assert!(
            !trailer.contains("0 evicted"),
            "a 2-row budget must evict under this script: {out}"
        );
        // Served values are unaffected by eviction.
        let unbounded =
            run_strs(&["pqe", "--db", &db, "--mode", "serve", "--script", &script]).unwrap();
        assert_eq!(
            out.lines().take(3).collect::<Vec<_>>(),
            unbounded.lines().take(3).collect::<Vec<_>>(),
        );
        // --cache-rows outside serve mode fails helpfully.
        let err = run_strs(&[
            "pqe",
            "--query",
            "Q() :- E(X,Y)",
            "--db",
            &db,
            "--cache-rows",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("--mode serve"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run_strs(&["frobnicate"]).is_err());
        assert!(run_strs(&["count", "--query", "R(A), R(B)"]).is_err());
        let mixed = write_temp("mixed_arity.facts", "R(1, 2)\nR(1)\n");
        let err = run_strs(&["pqe", "--query", "Q() :- R(X,Y)", "--db", &mixed]).unwrap_err();
        assert!(err.contains(": line 2: ") && err.contains("arity"), "{err}");
        let out = run_strs(&[]).unwrap();
        assert!(out.contains("commands:"));
    }
}
