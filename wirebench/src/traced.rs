//! The traced in-process run: the same seeded request streams, replayed
//! on two threads through the library calls the wire front end makes,
//! with a span (name, start, end, parent) around each call into a
//! layer. Spans stay in memory and are written out at the end; the
//! per-layer metrics are computed from them.

use crate::gen::{Cmd, Model, Role, Workload};
use crate::Metric;
use hq_db::{Fact, Interner, Tuple, Value};
use hq_monoid::ProbMonoid;
use hq_unify::script::{parse_command, ScriptCommand};
use hq_unify::{
    evaluate_encoded, lower, patch_inserts, pool, transitive_closure, transitive_closure_on,
    Backend, ColumnarRelation, EncodedDb, Parallelism, PatchOutcome, PlanIr, Server,
    ServingSession, Session, StepShape,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::RwLock;
use std::time::{Duration, Instant};

type Srv = Server<ProbMonoid, ColumnarRelation<f64>>;
type Sess = Session<ProbMonoid, ColumnarRelation<f64>>;
type Shadow = ServingSession<ProbMonoid, ColumnarRelation<f64>>;

/// Writes the read-only mixes replay after their reads, matching the
/// wire run's write probe.
const PROBE_WRITES: usize = 20;

/// Writes of the `? fix` stream replayed straight through the fixpoint
/// kernels.
const FIX_LAYER_WRITES: usize = 80;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: Option<u64>,
}

/// One thread's span recorder.
struct Tracer {
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: Option<u64>,
}

impl Tracer {
    fn new(origin: Instant, thread: usize) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            req: None,
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: None,
            req: self.req,
        });
        let n = self.open.len();
        if n >= 2 {
            let (child, parent) = (self.open[n - 1], self.open[n - 2]);
            self.spans[child].parent = Some(parent);
        }
    }

    /// Closes the innermost span, returning its duration.
    fn exit(&mut self) -> Duration {
        let i = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[i];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }
}

/// Counters gathered where the work happens.
#[derive(Default)]
struct Counts {
    commands: u64,
    queries: u64,
    zero_op_queries: u64,
    patched_nodes: u64,
    invalidated: u64,
    publish_overhead_us: Vec<f64>,
    live_epochs_max: usize,
    mismatches: u64,
}

impl Counts {
    fn merge(&mut self, o: Counts) {
        self.commands += o.commands;
        self.queries += o.queries;
        self.zero_op_queries += o.zero_op_queries;
        self.patched_nodes += o.patched_nodes;
        self.invalidated += o.invalidated;
        self.publish_overhead_us.extend(o.publish_overhead_us);
        self.live_epochs_max = self.live_epochs_max.max(o.live_epochs_max);
        self.mismatches += o.mismatches;
    }
}

/// One replaying connection: its session, tracer and counters.
struct Replayer<'a> {
    srv: &'a Srv,
    session: Sess,
    interner: &'a RwLock<Interner>,
    tr: Tracer,
    counts: Counts,
    next_req: u64,
}

impl Replayer<'_> {
    /// Serves one command the way the wire handler does: parse under the
    /// interner write lock, then query or submit-and-wait under the read
    /// lock. A write is then applied to the shadow session, outside the
    /// request span.
    fn serve(&mut self, line: &str, shadow: Option<&mut Shadow>) -> Result<Option<f64>, String> {
        self.next_req += 1;
        self.tr.req = Some((self.tr.thread as u64) << 32 | self.next_req);
        self.tr.enter("replay.request");
        let (parsed, _) = self.tr.time("script.parse", || {
            let mut i = self.interner.write().expect("interner lock");
            parse_command(line, 0, "wire", &mut i)
        });
        self.counts.commands += 1;
        let i = self.interner.read().expect("interner lock");
        let (srv, session) = (self.srv, &self.session);
        let out = match parsed? {
            ScriptCommand::Query(q) => {
                let before = srv.ops_performed();
                let (r, _) = self.tr.time("server.query", || session.query(&i, &q));
                self.counts.queries += 1;
                self.counts.zero_op_queries += u64::from(srv.ops_performed() == before);
                Some(r.map_err(|e| e.to_string())?.0)
            }
            ScriptCommand::Fix { rel, src, dst } => {
                let (r, _) = self
                    .tr
                    .time("server.fix", || session.query_fix(&i, &rel, src, dst));
                Some(r.map_err(|e| e.to_string())?.0)
            }
            ScriptCommand::Update(fact, action) => {
                let batch = [(fact, action.prob_weight())];
                let (ticket, _) = self
                    .tr
                    .time("server.submit", || srv.submit_batch(&i, &batch));
                let ticket = ticket.map_err(|e| e.to_string())?;
                let (receipt, commit) = self.tr.time("server.commit", || ticket.wait(&i));
                receipt.map_err(|e| e.to_string())?;
                self.tr.exit();
                self.tr.req = None;
                if let Some(shadow) = shadow {
                    let (outcome, update) = self
                        .tr
                        .time("serving.update", || shadow.update_batch(&i, &batch));
                    let outcome = outcome.map_err(|e| e.to_string())?;
                    self.counts.patched_nodes += outcome.patched_nodes as u64;
                    self.counts.invalidated += outcome.invalidated as u64;
                    self.counts
                        .publish_overhead_us
                        .push(us(commit) - us(update));
                }
                self.counts.live_epochs_max = self.counts.live_epochs_max.max(srv.live_epochs());
                return Ok(None);
            }
        };
        self.tr.exit();
        self.tr.req = None;
        Ok(out)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The number just before `key` in a `stats` reply (0 when absent).
fn stat_before(stats: &str, key: &str) -> f64 {
    stats
        .split_once(key)
        .and_then(|(head, _)| head.split_whitespace().last())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

/// What the wire run already measured, for the wire-minus-in-process
/// split.
pub struct WireFigures<'a> {
    pub query_p50_ms: f64,
    pub update_p50_ms: f64,
    pub stats: &'a str,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub mismatches: u64,
    pub report: String,
}

fn tuple2(a: i64, b: i64) -> Tuple {
    Tuple::from(vec![Value::Int(a), Value::Int(b)])
}

pub fn run(
    w: &Workload,
    db_text: &str,
    wire: &WireFigures,
    spans_path: &Path,
) -> Result<Traced, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let mut interner = Interner::new();
    let (parsed, parse) = tr.time("db.parse", || {
        hq_db::text::parse_database(db_text, &mut interner)
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let weights: HashMap<Fact, f64> = parsed.weights.iter().cloned().collect();
    let tid: Vec<(Fact, f64)> = parsed
        .database
        .facts()
        .into_iter()
        .map(|f| {
            let p = weights.get(&f).copied().unwrap_or(1.0);
            (f, p)
        })
        .collect();
    let commands: Vec<ScriptCommand> = w
        .queries
        .iter()
        .map(|q| parse_command(q, 0, "wire", &mut interner))
        .collect::<Result<_, _>>()?;
    let oracle = w.model.values();
    let mut mismatches = 0u64;

    // One-shot layers at the initial state: lowering, the Rule 1/Rule 2
    // kernels, the fixpoint kernels, and the library's own map-backend
    // answers as a check on the benchmark's closed-form oracle.
    let mut lower_us = Vec::new();
    let mut eval_us = Vec::new();
    let mut ops = Vec::new();
    let mut budget = Vec::new();
    {
        let enc = EncodedDb::new(&parsed.database);
        let mut ir = PlanIr::new();
        for (id, cmd) in commands.iter().enumerate() {
            let ScriptCommand::Query(q) = cmd else {
                continue;
            };
            let plan = hq_query::plan(q).map_err(|e| e.to_string())?;
            lower_us.push(us(tr.time("plan_ir.lower", || lower(&mut ir, q, &plan)).1));
            let (r, took) = tr.time("engine.eval", || {
                evaluate_encoded(
                    Parallelism::default(),
                    &ProbMonoid,
                    q,
                    &interner,
                    &parsed.database,
                    &enc,
                    |sym, t: &Tuple| weights[&Fact::new(sym, t.clone())],
                )
            });
            let (value, stats) = r.map_err(|e| e.to_string())?;
            eval_us.push(us(took));
            ops.push(stats.total_ops() as f64);
            let steps = stats.support_sizes.len().saturating_sub(1).max(1);
            let base = stats.support_sizes.first().copied().unwrap_or(1).max(1);
            budget.push(stats.total_ops() as f64 / (steps * base) as f64);
            if id < 8 {
                let map = hq_unify::probability(q, &interner, &tid).map_err(|e| e.to_string())?;
                mismatches += u64::from((map - oracle[id]).abs() > crate::wire::TOLERANCE);
                mismatches += u64::from((value - oracle[id]).abs() > crate::wire::TOLERANCE);
            }
        }
    }
    let (build_us, patch_us, patch_ratio, refolded) =
        fixpoint_layer(w, &mut tr, &oracle, &mut mismatches)?;

    let spawns_before = pool::spawn_count();
    let (srv, build) = tr.time("server.build", || {
        Srv::with_parallelism(
            ProbMonoid,
            &interner,
            tid.iter().cloned(),
            Parallelism::default(),
        )
    });
    let srv = srv.map_err(|e| e.to_string())?;
    srv.set_global_cache_rows(w.cache_rows);
    let mut shadow =
        Shadow::new(ProbMonoid, &interner, tid.iter().cloned()).map_err(|e| e.to_string())?;
    drop(tid);
    drop(parsed);
    // Warm both the server (as the wire warm-up does) and the shadow
    // (every query once), so the replay starts from warm caches.
    for cmd in &commands {
        match cmd {
            ScriptCommand::Query(q) => {
                shadow.query(&interner, q).map_err(|e| e.to_string())?;
            }
            ScriptCommand::Fix { rel, src, dst } => {
                shadow
                    .query_fix(&interner, rel, *src, *dst)
                    .map_err(|e| e.to_string())?;
            }
            ScriptCommand::Update(..) => {}
        }
    }
    let interner = RwLock::new(interner);
    let mut replayers: Vec<Replayer> = (0..2)
        .map(|c| Replayer {
            srv: &srv,
            session: srv.session(),
            interner: &interner,
            tr: Tracer::new(origin, c + 1),
            counts: Counts::default(),
            next_req: 0,
        })
        .collect();
    // The wire run's warm-up is set-up, not measured: replay it, then
    // drop its spans and counts.
    for (c, rep) in replayers.iter_mut().enumerate() {
        for &id in &w.warmup[c] {
            rep.serve(&w.queries[id], None)?;
        }
        rep.tr.spans.clear();
        rep.counts = Counts::default();
    }
    let static_oracle = !w.roles.iter().any(|r| matches!(r, Role::Writer { .. }));
    let results: Vec<Result<Replayer, String>> = std::thread::scope(|s| {
        let mut shadow_slot = Some(&mut shadow);
        let jobs: Vec<_> = replayers
            .into_iter()
            .enumerate()
            .map(|(c, mut rep)| {
                let oracle = &oracle;
                let mut shadow = match w.roles[c] {
                    Role::Writer { .. } => shadow_slot.take(),
                    Role::Reader(_) => None,
                };
                s.spawn(move || -> Result<Replayer, String> {
                    for cmd in w.commands(c).take(w.traced_len[c]) {
                        match cmd {
                            Cmd::Query(id) => {
                                let v = rep.serve(&w.queries[id], None)?;
                                if static_oracle {
                                    let off = v.is_none_or(|v| {
                                        (v - oracle[id]).abs() > crate::wire::TOLERANCE
                                    });
                                    rep.counts.mismatches += u64::from(off);
                                }
                            }
                            Cmd::Write(_, text) => {
                                rep.serve(&text, shadow.as_deref_mut())?;
                            }
                        }
                    }
                    Ok(rep)
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("replay thread"))
            .collect()
    });
    let mut replayers = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    if w.probe {
        let mut stream = w.write_stream();
        for _ in 0..PROBE_WRITES {
            replayers[0].serve(&stream.next_write().1, Some(&mut shadow))?;
        }
    }
    let spawns = pool::spawn_count() - spawns_before;

    let mut counts = Counts::default();
    let mut tracers = vec![tr];
    for rep in replayers {
        counts.merge(rep.counts);
        tracers.push(rep.tr);
    }
    mismatches += counts.mismatches;
    let spans = dump_spans(&tracers, spans_path)?;
    let by_name = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    };
    let requests = |verb: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == "replay.request" && s.verb == Some(verb))
            .map(|s| s.dur_us)
            .collect()
    };
    let read_verb = if by_name("server.fix").is_empty() {
        "server.query"
    } else {
        "server.fix"
    };
    let inproc_query_ms = quantile(&requests(read_verb), 0.5) / 1e3;
    let inproc_update_ms = quantile(&requests("server.commit"), 0.5) / 1e3;
    let commits = stat_before(wire.stats, " commit(s)");
    let batches = stat_before(wire.stats, " batch(es)");
    let queries = counts.queries.max(1) as f64;
    let patch_base = (counts.patched_nodes + counts.invalidated).max(1) as f64;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };

    let mut metrics: Vec<Metric> = vec![
        m(
            "serve.overhead_p50_ms",
            wire.query_p50_ms - inproc_query_ms,
            "ms",
        ),
        m(
            "serve.update_overhead_p50_ms",
            wire.update_p50_ms - inproc_update_ms,
            "ms",
        ),
        m(
            "script.parse_p50_us",
            quantile(&by_name("script.parse"), 0.5),
            "us",
        ),
        m("script.commands", counts.commands as f64, "count"),
        m(
            "server.query_p50_us",
            quantile(&by_name("server.query"), 0.5),
            "us",
        ),
        m(
            "server.query_p90_us",
            quantile(&by_name("server.query"), 0.9),
            "us",
        ),
        m(
            "server.zero_op_ratio",
            counts.zero_op_queries as f64 / queries,
            "ratio",
        ),
        m("server.evictions", srv.evictions() as f64, "count"),
        m(
            "server.materialised_rows",
            srv.materialised_rows() as f64,
            "count",
        ),
        m(
            "server.fix_p50_us",
            quantile(&by_name("server.fix"), 0.5),
            "us",
        ),
        m(
            "server.submit_p50_us",
            quantile(&by_name("server.submit"), 0.5),
            "us",
        ),
        m(
            "server.commit_p50_us",
            quantile(&by_name("server.commit"), 0.5),
            "us",
        ),
        m(
            "server.commit_p90_us",
            quantile(&by_name("server.commit"), 0.9),
            "us",
        ),
        m(
            "server.publish_overhead_p50_us",
            quantile(&counts.publish_overhead_us, 0.5),
            "us",
        ),
        m("server.commits", commits, "count"),
        m(
            "server.batches_per_commit",
            if commits > 0.0 {
                batches / commits
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "server.queue_high_water",
            stat_before(wire.stats, "), rejected"),
            "count",
        ),
        m(
            "server.live_epochs_max",
            counts.live_epochs_max as f64,
            "count",
        ),
        m(
            "serving.update_p50_us",
            quantile(&by_name("serving.update"), 0.5),
            "us",
        ),
        m(
            "serving.patched_ratio",
            counts.patched_nodes as f64 / patch_base,
            "ratio",
        ),
        m("plan_ir.lower_p50_us", quantile(&lower_us, 0.5), "us"),
        m("engine.eval_p50_us", quantile(&eval_us, 0.5), "us"),
        m("engine.ops_per_query", mean(&ops), "count"),
        m("engine.ops_budget_ratio", mean(&budget), "ratio"),
        m("fixpoint.build_p50_us", quantile(&build_us, 0.5), "us"),
        m("fixpoint.patch_p50_us", quantile(&patch_us, 0.5), "us"),
        m("fixpoint.patch_ratio", patch_ratio, "ratio"),
        m("fixpoint.refolded_rows", refolded, "count"),
        m("pool.spawns", spawns as f64, "count"),
        m("db.parse_s", parse.as_secs_f64(), "s"),
        m("server.build_s", build.as_secs_f64(), "s"),
    ];
    let self_ms = self_times(&spans);
    for layer in LAYERS {
        let v = self_ms.get(layer).copied().unwrap_or(0.0);
        metrics.push(Metric {
            name: format!("{layer}.self_ms"),
            value: v,
            unit: "ms",
        });
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "traced replay: {} command(s) on 2 threads; in-process p50 {inproc_query_ms:.4} ms per read, \
         {inproc_update_ms:.4} ms per write; spans in {}",
        counts.commands,
        spans_path.display()
    );
    Ok(Traced {
        metrics,
        mismatches,
        report,
    })
}

/// The layers a span name can start with, in report order.
pub const LAYERS: [&str; 8] = [
    "replay", "script", "server", "serving", "plan_ir", "engine", "fixpoint", "db",
];

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// `fixpoint.*` on a workload with a `? fix` stream: the initial
/// closure, then the writer's stream through the kernels directly —
/// inserts patch, weight changes rebuild. Also checks the library's
/// map-backend closure against the oracle.
fn fixpoint_layer(
    w: &Workload,
    tr: &mut Tracer,
    oracle: &[f64],
    mismatches: &mut u64,
) -> Result<(Vec<f64>, Vec<f64>, f64, f64), String> {
    let Model::Forest(_) = &w.model else {
        return Ok((Vec::new(), Vec::new(), 0.0, 0.0));
    };
    let mut edges: Vec<(Tuple, f64)> = w
        .model
        .edges()
        .into_iter()
        .map(|(a, b, p)| (tuple2(a, b), p))
        .collect();
    let mut at: HashMap<(i64, i64), usize> = w
        .model
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &(a, b, _))| ((a, b), i))
        .collect();
    let map =
        transitive_closure_on(Backend::Map, &ProbMonoid, &edges).map_err(|e| e.to_string())?;
    for (id, q) in w.queries.iter().enumerate() {
        let mut ends = q.split_whitespace().skip(3).map(|t| t.parse::<i64>());
        let (Some(Ok(s)), Some(Ok(d))) = (ends.next(), ends.next()) else {
            return Err(format!("unexpected fix query {q}"));
        };
        let v = map
            .get(Value::Int(s), Value::Int(d))
            .copied()
            .unwrap_or(0.0);
        *mismatches += u64::from((v - oracle[id]).abs() > crate::wire::TOLERANCE);
    }
    let mut build_us = Vec::new();
    let mut run = None;
    for _ in 0..3 {
        let (r, took) = tr.time("fixpoint.build", || transitive_closure(&ProbMonoid, &edges));
        build_us.push(us(took));
        run = Some(r.map_err(|e| e.to_string())?);
    }
    let mut run = run.expect("built at least once");
    let (mut patch_us, mut inserts, mut patched, mut refolded) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut stream = w.write_stream();
    for _ in 0..FIX_LAYER_WRITES {
        let (write, _) = stream.next_write();
        let (a, b) = (write.key[0], write.key[1]);
        let p = write.p.expect("forest streams never delete");
        let edge = (tuple2(a, b), p);
        match at.get(&(a, b)) {
            Some(&i) => {
                edges[i].1 = p;
                let (r, took) =
                    tr.time("fixpoint.build", || transitive_closure(&ProbMonoid, &edges));
                build_us.push(us(took));
                run = r.map_err(|e| e.to_string())?;
            }
            None => {
                at.insert((a, b), edges.len());
                edges.push(edge.clone());
                inserts += 1;
                let new = [edge];
                let (r, took) = tr.time("fixpoint.patch", || {
                    patch_inserts(
                        &ProbMonoid,
                        &mut run,
                        &edges,
                        &new,
                        &new,
                        StepShape::LeftLinear,
                    )
                });
                patch_us.push(us(took));
                match r.map_err(|e| e.to_string())? {
                    PatchOutcome::Patched(stats) => {
                        patched += 1;
                        refolded += stats.refolded_rows as u64;
                    }
                    PatchOutcome::Rebuild => {
                        let (r, took) =
                            tr.time("fixpoint.build", || transitive_closure(&ProbMonoid, &edges));
                        build_us.push(us(took));
                        run = r.map_err(|e| e.to_string())?;
                    }
                }
            }
        }
    }
    Ok((
        build_us,
        patch_us,
        patched as f64 / inserts.max(1) as f64,
        refolded as f64 / patched.max(1) as f64,
    ))
}

/// A closed span as written out.
struct Flat {
    name: &'static str,
    dur_us: f64,
    self_us: f64,
    /// For a request span: the server call it made.
    verb: Option<&'static str>,
}

/// Writes every span as one JSON line and returns them flattened, with
/// each span's self time (its duration minus its children's).
fn dump_spans(tracers: &[Tracer], path: &Path) -> Result<Vec<Flat>, String> {
    let mut out = String::new();
    let mut flat = Vec::new();
    for t in tracers {
        let mut child_us = vec![0.0; t.spans.len()];
        let mut verb = vec![None; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child_us[p] += us(s.end - s.start);
                if s.name.starts_with("server.") {
                    verb[p] = Some(s.name);
                }
            }
        }
        for (i, s) in t.spans.iter().enumerate() {
            let id = (t.thread as u64) << 32 | i as u64;
            let parent = s.parent.map_or("null".to_owned(), |p| {
                ((t.thread as u64) << 32 | p as u64).to_string()
            });
            let req = s.req.map_or("null".to_owned(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"req\":{req},\"thread\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                t.thread,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            let dur_us = us(s.end - s.start);
            flat.push(Flat {
                name: s.name,
                dur_us,
                self_us: dur_us - child_us[i],
                verb: verb[i],
            });
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(flat)
}

/// Total self time per layer, in ms.
fn self_times(spans: &[Flat]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += s.self_us / 1e3;
    }
    out
}
