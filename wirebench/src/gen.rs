//! Seeded workload generator and the independent reply oracle.
//!
//! Everything a run feeds the server — the database file, the query
//! list and every write — is a pure function of the workload and the
//! seed. The oracle evaluates the same closed-form probabilities
//! directly over the generated facts (no `hq_unify` code involved), so
//! a served value is checked against arithmetic the server never ran.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// splitmix64: small, fast, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// An independent stream for one purpose of the same seed.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Rounds a probability to the 7 significant digits the database file
/// and the wire carry, so generator, server and oracle hold the same
/// `f64`.
fn quantise(p: f64) -> f64 {
    format!("{p:.6e}")
        .parse()
        .expect("a formatted float parses")
}

/// A fact key; unused trailing columns are 0.
pub type Key = [i64; 3];

/// One write of a stream. `p: None` deletes.
#[derive(Clone, Debug)]
pub struct Write {
    pub rel: usize,
    pub key: Key,
    pub p: Option<f64>,
}

/// One annotated relation with the indexes the oracle and the write
/// generator need.
#[derive(Clone)]
struct Rel {
    name: String,
    arity: usize,
    /// The column an insert rewrites (never a column the queries group on
    /// alone, so inserts land in existing groups as often as not).
    free_col: usize,
    p_lo: f64,
    p_hi: f64,
    /// key → (probability, position in `keys`).
    facts: HashMap<Key, (f64, usize)>,
    keys: Vec<Key>,
    /// Per column: value → keys holding it.
    index: Vec<HashMap<i64, Vec<Key>>>,
}

impl Rel {
    fn new(name: &str, arity: usize, free_col: usize, mean: f64, spread: f64) -> Rel {
        Rel {
            name: name.to_owned(),
            arity,
            free_col,
            p_lo: mean * (1.0 - spread),
            p_hi: (mean * (1.0 + spread)).min(0.99),
            facts: HashMap::new(),
            keys: Vec::new(),
            index: vec![HashMap::new(); arity],
        }
    }

    fn draw_p(&self, rng: &mut Rng) -> f64 {
        quantise(self.p_lo + (self.p_hi - self.p_lo) * rng.unit())
    }

    fn insert(&mut self, key: Key, p: f64) {
        if let Some(slot) = self.facts.get_mut(&key) {
            slot.0 = p;
            return;
        }
        self.facts.insert(key, (p, self.keys.len()));
        self.keys.push(key);
        for c in 0..self.arity {
            self.index[c].entry(key[c]).or_default().push(key);
        }
    }

    fn remove(&mut self, key: &Key) {
        let Some((_, pos)) = self.facts.remove(key) else {
            return;
        };
        self.keys.swap_remove(pos);
        if let Some(moved) = self.keys.get(pos) {
            self.facts.get_mut(moved).expect("moved key is stored").1 = pos;
        }
        for c in 0..self.arity {
            let bucket = self.index[c].get_mut(&key[c]).expect("indexed column");
            bucket.retain(|k| k != key);
            if bucket.is_empty() {
                self.index[c].remove(&key[c]);
            }
        }
    }

    fn p(&self, key: &Key) -> f64 {
        self.facts[key].0
    }

    /// `1 - ∏ (1 - p)` over the facts whose column `col` holds `v`.
    fn or_group(&self, col: usize, v: i64) -> f64 {
        let Some(keys) = self.index[col].get(&v) else {
            return 0.0;
        };
        1.0 - keys.iter().map(|k| 1.0 - self.p(k)).product::<f64>()
    }

    fn render_key(&self, key: &Key) -> String {
        let cols: Vec<String> = key[..self.arity].iter().map(i64::to_string).collect();
        format!("{}({})", self.name, cols.join(","))
    }
}

/// The closed forms of the hierarchical queries the workloads serve.
#[derive(Clone)]
enum Form {
    /// `Q() :- A(..), B(..)` joined on column `ca` of `a` and `cb` of
    /// `b`: `1 - ∏_y (1 - P_a(y)·P_b(y))`.
    Join {
        a: usize,
        ca: usize,
        b: usize,
        cb: usize,
    },
    /// `Q() :- R(A,B), S(A,C), T(A,C,D)`: `1 - ∏_a (1 - P_R(a)·ST(a))`.
    Star { r: usize, s: usize, t: usize },
    /// `Q() :- S(A,C), T(A,C,D)`: `1 - ∏_a (1 - ST(a))`.
    SubStar { s: usize, t: usize },
}

#[derive(Clone)]
struct PqeQuery {
    form: Form,
    /// Per group value: that group's contribution (0 is not stored).
    terms: BTreeMap<i64, f64>,
}

/// Relations plus closed-form queries, maintained incrementally.
#[derive(Clone)]
pub struct PqeModel {
    rels: Vec<Rel>,
    queries: Vec<PqeQuery>,
    next_novel: i64,
    /// Writes generated so far.
    writes: usize,
}

impl PqeModel {
    /// `ST(a) = 1 - ∏_{S(a,c)} (1 - p_S(a,c)·P_T(a,c))`.
    fn st(&self, s: usize, t: usize, a: i64) -> f64 {
        let (s, t) = (&self.rels[s], &self.rels[t]);
        let Some(s_keys) = s.index[0].get(&a) else {
            return 0.0;
        };
        let t_keys = t.index[0].get(&a);
        let miss: f64 = s_keys
            .iter()
            .map(|sk| {
                let pt = 1.0
                    - t_keys
                        .into_iter()
                        .flatten()
                        .filter(|tk| tk[1] == sk[1])
                        .map(|tk| 1.0 - t.p(tk))
                        .product::<f64>();
                1.0 - s.p(sk) * pt
            })
            .product();
        1.0 - miss
    }

    fn term(&self, form: &Form, g: i64) -> f64 {
        match *form {
            Form::Join { a, ca, b, cb } => {
                self.rels[a].or_group(ca, g) * self.rels[b].or_group(cb, g)
            }
            Form::Star { r, s, t } => self.rels[r].or_group(0, g) * self.st(s, t, g),
            Form::SubStar { s, t } => self.st(s, t, g),
        }
    }

    /// The groups of `form` a write to `rel` at `key` can change.
    fn groups_touched(form: &Form, rel: usize, key: &Key) -> Vec<i64> {
        match *form {
            Form::Join { a, ca, b, cb } => {
                let mut g = Vec::new();
                if rel == a {
                    g.push(key[ca]);
                }
                if rel == b {
                    g.push(key[cb]);
                }
                g
            }
            Form::Star { r, s, t } if rel == r || rel == s || rel == t => vec![key[0]],
            Form::SubStar { s, t } if rel == s || rel == t => vec![key[0]],
            _ => Vec::new(),
        }
    }

    fn refresh_term(&mut self, q: usize, g: i64) {
        let v = self.term(&self.queries[q].form, g);
        let terms = &mut self.queries[q].terms;
        if v == 0.0 {
            terms.remove(&g);
        } else {
            terms.insert(g, v);
        }
    }

    fn add_query(&mut self, form: Form) {
        let groups: Vec<i64> = match form {
            Form::Join { a, ca, .. } => self.rels[a].index[ca].keys().copied().collect(),
            Form::Star { r, .. } => self.rels[r].index[0].keys().copied().collect(),
            Form::SubStar { s, .. } => self.rels[s].index[0].keys().copied().collect(),
        };
        self.queries.push(PqeQuery {
            form,
            terms: BTreeMap::new(),
        });
        let q = self.queries.len() - 1;
        for g in groups {
            self.refresh_term(q, g);
        }
    }

    fn apply(&mut self, w: &Write) {
        match w.p {
            Some(p) => self.rels[w.rel].insert(w.key, p),
            None => self.rels[w.rel].remove(&w.key),
        }
        for q in 0..self.queries.len() {
            for g in Self::groups_touched(&self.queries[q].form, w.rel, &w.key) {
                self.refresh_term(q, g);
            }
        }
    }

    fn values(&self) -> Vec<f64> {
        self.queries
            .iter()
            .map(|q| 1.0 - q.terms.values().map(|t| 1.0 - t).product::<f64>())
            .collect()
    }

    /// The `k`-th write: relations take turns, and each round of one
    /// write per relation is all weight changes (92.5 % of rounds), all
    /// inserts (5 %, alternately with a value no fact has held yet) or
    /// all deletes (2.5 %). The schedule is fixed, so only the data
    /// depends on the seed. Never a no-op, so the server publishes
    /// exactly one epoch per write.
    fn next_write(&mut self, rng: &mut Rng) -> Write {
        let (ri, round) = (self.writes % self.rels.len(), self.writes / self.rels.len());
        self.writes += 1;
        let rel = &self.rels[ri];
        let pick = |rng: &mut Rng| rel.keys[rng.below(rel.keys.len())];
        let mut novel = self.next_novel;
        let w = if round % 20 != 7 && (round % 40 != 17 || rel.keys.len() < 2) {
            let key = pick(rng);
            let old = rel.p(&key);
            let mut p = rel.draw_p(rng);
            while p == old {
                p = rel.draw_p(rng);
            }
            Write {
                rel: ri,
                key,
                p: Some(p),
            }
        } else if round % 20 == 7 {
            let mut key = pick(rng);
            loop {
                key[rel.free_col] = if round % 40 == 7 {
                    novel += 1;
                    novel
                } else {
                    pick(rng)[rel.free_col]
                };
                if !rel.facts.contains_key(&key) {
                    break;
                }
            }
            Write {
                rel: ri,
                key,
                p: Some(rel.draw_p(rng)),
            }
        } else {
            Write {
                rel: ri,
                key: pick(rng),
                p: None,
            }
        };
        self.next_novel = novel;
        self.apply(&w);
        w
    }
}

/// A forest of probabilistic edges `G(parent, child)`. On a forest the
/// server's first-derivation fixpoint semantics are exact, so a
/// reachability readout is the product of the edge probabilities on
/// the unique path.
#[derive(Clone)]
pub struct Forest {
    parent: HashMap<i64, (i64, f64)>,
    nodes: Vec<i64>,
    children: Vec<i64>,
    next_node: i64,
    pairs: Vec<(i64, i64)>,
    writes: usize,
}

impl Forest {
    const P_LO: f64 = 0.55;
    const P_HI: f64 = 0.95;

    fn draw_p(rng: &mut Rng) -> f64 {
        quantise(Self::P_LO + (Self::P_HI - Self::P_LO) * rng.unit())
    }

    fn path_value(&self, s: i64, d: i64) -> f64 {
        let (mut cur, mut v) = (d, 1.0);
        while let Some(&(par, p)) = self.parent.get(&cur) {
            v *= p;
            if par == s {
                return v;
            }
            cur = par;
        }
        0.0
    }

    fn values(&self) -> Vec<f64> {
        self.pairs
            .iter()
            .map(|&(s, d)| self.path_value(s, d))
            .collect()
    }

    fn apply(&mut self, w: &Write) {
        let (par, child) = (w.key[0], w.key[1]);
        let p = w.p.expect("forest streams never delete");
        if self.parent.insert(child, (par, p)).is_none() {
            self.nodes.push(child);
            self.children.push(child);
        }
    }

    /// Four new leaf edges with never-seen node ids (the fixpoint's
    /// insert-patch path), then one weight change of an existing edge
    /// (its rebuild path), over and over.
    fn next_write(&mut self, rng: &mut Rng) -> Write {
        self.writes += 1;
        let w = if !self.writes.is_multiple_of(5) {
            let u = self.nodes[rng.below(self.nodes.len())];
            self.next_node += 1;
            Write {
                rel: 0,
                key: [u, self.next_node, 0],
                p: Some(Self::draw_p(rng)),
            }
        } else {
            let c = self.children[rng.below(self.children.len())];
            let (par, old) = self.parent[&c];
            let mut p = Self::draw_p(rng);
            while p == old {
                p = Self::draw_p(rng);
            }
            Write {
                rel: 0,
                key: [par, c, 0],
                p: Some(p),
            }
        };
        self.apply(&w);
        w
    }
}

/// The state a stream of writes evolves and the oracle replays.
#[derive(Clone)]
pub enum Model {
    Pqe(PqeModel),
    Forest(Forest),
}

impl Model {
    pub fn next_write(&mut self, rng: &mut Rng) -> Write {
        match self {
            Model::Pqe(m) => m.next_write(rng),
            Model::Forest(m) => m.next_write(rng),
        }
    }

    pub fn apply(&mut self, w: &Write) {
        match self {
            Model::Pqe(m) => m.apply(w),
            Model::Forest(m) => m.apply(w),
        }
    }

    /// The exact answer of every query id in the current state.
    pub fn values(&self) -> Vec<f64> {
        match self {
            Model::Pqe(m) => m.values(),
            Model::Forest(m) => m.values(),
        }
    }

    /// The wire/script form of one write.
    pub fn render(&self, w: &Write) -> String {
        let rel = self.rel_name_arity(w.rel);
        let cols: Vec<String> = w.key[..rel.1].iter().map(i64::to_string).collect();
        let fact = format!("{}({})", rel.0, cols.join(","));
        match w.p {
            Some(p) => format!("{fact} @ {p:e}"),
            None => format!("!{fact}"),
        }
    }

    fn rel_name_arity(&self, rel: usize) -> (&str, usize) {
        match self {
            Model::Pqe(m) => (&m.rels[rel].name, m.rels[rel].arity),
            Model::Forest(_) => ("G", 2),
        }
    }

    /// The whole state as a database file.
    pub fn db_text(&self) -> String {
        let mut out = String::new();
        match self {
            Model::Pqe(m) => {
                for rel in &m.rels {
                    for k in &rel.keys {
                        let _ = writeln!(out, "{} @ {:e}", rel.render_key(k), rel.p(k));
                    }
                }
            }
            Model::Forest(f) => {
                for c in &f.children {
                    let (par, p) = f.parent[c];
                    let _ = writeln!(out, "G({par},{c}) @ {p:e}");
                }
            }
        }
        out
    }

    /// Base edges `(parent, child, p)` of a forest model.
    pub fn edges(&self) -> Vec<(i64, i64, f64)> {
        match self {
            Model::Pqe(_) => Vec::new(),
            Model::Forest(f) => f
                .children
                .iter()
                .map(|c| {
                    let (par, p) = f.parent[c];
                    (par, *c, p)
                })
                .collect(),
        }
    }
}

/// The four traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReadHot,
    ReadEvict,
    WriteMix,
    FixMix,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "read_hot" => Kind::ReadHot,
            "read_evict" => Kind::ReadEvict,
            "write_mix" => Kind::WriteMix,
            "fix_mix" => Kind::FixMix,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadHot => "read_hot",
            Kind::ReadEvict => "read_evict",
            Kind::WriteMix => "write_mix",
            Kind::FixMix => "fix_mix",
        }
    }
}

/// What one connection sends during the measured window.
#[derive(Clone)]
pub enum Role {
    /// Cycles through these query ids, in order.
    Reader(Vec<usize>),
    /// One write of the seeded stream, then `reads` queries cycling
    /// through `order`, over and over. Reads between writes keep most
    /// reads on an unchanged epoch, so the read latency has one clear
    /// cheap mode (the median) and one paying mode (the tail).
    Writer { order: Vec<usize>, reads: usize },
}

/// One command of a connection's stream.
pub enum Cmd {
    Query(usize),
    Write(Write, String),
}

/// A connection's seeded command sequence.
pub struct Commands<'a> {
    role: &'a Role,
    /// Only a writer holds a copy of the state.
    writes: Option<WriteStream>,
    sent: usize,
    reads: usize,
}

impl Iterator for Commands<'_> {
    type Item = Cmd;

    fn next(&mut self) -> Option<Cmd> {
        let k = self.sent;
        self.sent += 1;
        let order = match self.role {
            Role::Reader(order) => order,
            Role::Writer { order, reads } => {
                if k.is_multiple_of(reads + 1) {
                    let stream = self.writes.as_mut().expect("a writer has a write stream");
                    let (w, text) = stream.next_write();
                    return Some(Cmd::Write(w, text));
                }
                order
            }
        };
        let id = order[self.reads % order.len()];
        self.reads += 1;
        Some(Cmd::Query(id))
    }
}

/// One generated workload: initial state, queries and per-connection
/// roles. Writes come from [`Workload::write_stream`].
pub struct Workload {
    pub model: Model,
    /// Distinct `?` commands, indexed by query id.
    pub queries: Vec<String>,
    /// `hq serve --global-cache-rows`, if bounded.
    pub cache_rows: Option<usize>,
    /// Query ids each connection sends once before measuring.
    pub warmup: [Vec<usize>; 2],
    pub roles: [Role; 2],
    /// Read-only mixes end with a short single-writer probe on
    /// connection 0, after the read window.
    pub probe: bool,
    /// Commands per connection in the traced in-process replay.
    pub traced_len: [usize; 2],
    writes_rng: Rng,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let root = Rng::new(seed);
        let mut rng = root.fork(1);
        let (model, queries) = match kind {
            Kind::ReadHot => chain_star(16_384, &mut rng),
            Kind::ReadEvict => pairs(4, 32_768, &mut rng),
            Kind::WriteMix => chain_star(32_768, &mut rng),
            Kind::FixMix => forest(16_384, 64, &mut rng),
        };
        let n = queries.len();
        // Every query in turn; connection 1 starts half-way round.
        let order = |start: usize| -> Vec<usize> { (0..n).map(|i| (start + i) % n).collect() };
        let (warmup, roles, probe, traced_len, cache_rows) = match kind {
            Kind::ReadHot => (
                [(0..n).collect(), (0..n).collect()],
                [Role::Reader(order(0)), Role::Reader(order(n / 2))],
                true,
                [4000, 4000],
                None,
            ),
            Kind::ReadEvict => (
                [(0..n).step_by(2).collect(), (1..n).step_by(2).collect()],
                [Role::Reader(order(0)), Role::Reader(order(n / 2))],
                true,
                [48, 48],
                // About one query's nodes: a sixth of the working set, so
                // most requests re-run the kernels.
                Some(100_000),
            ),
            Kind::WriteMix => (
                [Vec::new(), (0..n).collect()],
                [
                    Role::Writer {
                        order: order(0),
                        reads: 3,
                    },
                    Role::Reader(order(n / 2)),
                ],
                false,
                [160, 160],
                None,
            ),
            Kind::FixMix => (
                [Vec::new(), vec![0]],
                [
                    Role::Writer {
                        order: order(0),
                        reads: 3,
                    },
                    Role::Reader(order(n / 2)),
                ],
                false,
                [320, 320],
                None,
            ),
        };
        Workload {
            model,
            queries,
            cache_rows,
            warmup,
            roles,
            probe,
            traced_len,
            writes_rng: root.fork(4),
        }
    }

    /// Extra `hq serve` flags.
    pub fn server_args(&self) -> Vec<String> {
        match self.cache_rows {
            Some(n) => vec!["--global-cache-rows".into(), n.to_string()],
            None => Vec::new(),
        }
    }

    /// The seeded write stream: a private copy of the state plus the
    /// generator, so every consumer sees the same writes in order.
    pub fn write_stream(&self) -> WriteStream {
        WriteStream {
            model: self.model.clone(),
            rng: self.writes_rng.clone(),
        }
    }

    /// Connection `conn`'s command sequence.
    pub fn commands(&self, conn: usize) -> Commands<'_> {
        let role = &self.roles[conn];
        Commands {
            role,
            writes: matches!(role, Role::Writer { .. }).then(|| self.write_stream()),
            sent: 0,
            reads: 0,
        }
    }
}

pub struct WriteStream {
    model: Model,
    rng: Rng,
}

impl WriteStream {
    /// The next write and its wire text.
    pub fn next_write(&mut self) -> (Write, String) {
        let w = self.model.next_write(&mut self.rng);
        let text = self.model.render(&w);
        (w, text)
    }
}

/// Distinct random fact keys for one relation.
fn fill(rel: &mut Rel, n: usize, rng: &mut Rng, mut key: impl FnMut(&mut Rng) -> Key) {
    while rel.keys.len() < n {
        let k = key(rng);
        if !rel.facts.contains_key(&k) {
            let p = rel.draw_p(rng);
            rel.insert(k, p);
        }
    }
}

const WIDE: usize = 1 << 30;

/// `E(X,Y), F(Y,Z)` plus `R(A,B), S(A,C), T(A,C,D)`, `n` facts each,
/// four facts per join value. The probability scales keep all four
/// answers near the middle of (0, 1) at any `n`.
fn chain_star(n: usize, rng: &mut Rng) -> (Model, Vec<String>) {
    let g = n / 4;
    let (nf, gf) = (n as f64, g as f64);
    let m_chain = (0.7 * gf).sqrt() / nf;
    let mut e = Rel::new("E", 2, 0, m_chain, 0.5);
    let mut f = Rel::new("F", 2, 1, m_chain, 0.5);
    let mut r = Rel::new("R", 2, 1, gf / (2.0 * nf), 0.5);
    let mut s = Rel::new("S", 2, 1, 2.0 / nf, 0.5);
    let mut t = Rel::new("T", 3, 2, 0.6, 1.0 / 3.0);
    fill(&mut e, n, rng, |r| {
        [r.below(WIDE) as i64, r.below(g) as i64, 0]
    });
    fill(&mut f, n, rng, |r| {
        [r.below(g) as i64, r.below(WIDE) as i64, 0]
    });
    fill(&mut r, n, rng, |r| {
        [r.below(g) as i64, r.below(WIDE) as i64, 0]
    });
    fill(&mut s, n, rng, |r| {
        [r.below(g) as i64, r.below(WIDE) as i64, 0]
    });
    let s_keys = s.keys.clone();
    fill(&mut t, n, rng, |r| {
        let sk = s_keys[r.below(s_keys.len())];
        [sk[0], sk[1], r.below(WIDE) as i64]
    });
    let mut m = PqeModel {
        rels: vec![e, f, r, s, t],
        queries: Vec::new(),
        next_novel: 1 << 40,
        writes: 0,
    };
    m.add_query(Form::Join {
        a: 0,
        ca: 1,
        b: 1,
        cb: 0,
    });
    m.add_query(Form::Star { r: 2, s: 3, t: 4 });
    m.add_query(Form::SubStar { s: 3, t: 4 });
    m.add_query(Form::Join {
        a: 2,
        ca: 0,
        b: 3,
        cb: 0,
    });
    let queries = vec![
        "? Q() :- E(X,Y), F(Y,Z)".to_owned(),
        "? Q() :- R(A,B), S(A,C), T(A,C,D)".to_owned(),
        "? Q() :- S(A,C), T(A,C,D)".to_owned(),
        "? Q() :- R(A,B), S(A,C)".to_owned(),
    ];
    (Model::Pqe(m), queries)
}

/// `k` relation pairs `A_i(u,v)`, `B_j(u,v)` with both columns drawn
/// from one join domain, queried as `A_i ⋈ B_j` on two column
/// orientations of `A_i`: `2·k²` distinct plan shapes.
fn pairs(k: usize, n: usize, rng: &mut Rng) -> (Model, Vec<String>) {
    let g = n / 4;
    let base = (0.7 * g as f64).sqrt() / n as f64;
    let mut rels = Vec::new();
    for name in (0..k)
        .map(|i| format!("A{i}"))
        .chain((0..k).map(|j| format!("B{j}")))
    {
        let scale = 0.7 + 0.6 * rng.unit();
        let mut rel = Rel::new(&name, 2, 1, base * scale, 0.5);
        fill(&mut rel, n, rng, |r| {
            [r.below(g) as i64, r.below(g) as i64, 0]
        });
        rels.push(rel);
    }
    let mut m = PqeModel {
        rels,
        queries: Vec::new(),
        next_novel: 1 << 40,
        writes: 0,
    };
    let mut queries = Vec::new();
    for i in 0..k {
        for j in 0..k {
            for ca in [1, 0] {
                m.add_query(Form::Join {
                    a: i,
                    ca,
                    b: k + j,
                    cb: 0,
                });
                let a_vars = if ca == 1 { "X,Y" } else { "Y,X" };
                queries.push(format!("? Q() :- A{i}({a_vars}), B{j}(Y,Z)"));
            }
        }
    }
    (Model::Pqe(m), queries)
}

/// A random recursive forest of `edges` edges under 16 roots, and
/// `n_pairs` ancestor/descendant pairs two to four edges apart.
fn forest(edges: usize, n_pairs: usize, rng: &mut Rng) -> (Model, Vec<String>) {
    const ROOTS: usize = 16;
    let mut f = Forest {
        parent: HashMap::new(),
        nodes: (0..ROOTS as i64).collect(),
        children: Vec::new(),
        next_node: (ROOTS + edges) as i64,
        pairs: Vec::new(),
        writes: 0,
    };
    let mut depth = vec![0usize; ROOTS + edges];
    for c in ROOTS..ROOTS + edges {
        let par = rng.below(c);
        depth[c] = depth[par] + 1;
        f.parent.insert(c as i64, (par as i64, Forest::draw_p(rng)));
        f.nodes.push(c as i64);
        f.children.push(c as i64);
    }
    while f.pairs.len() < n_pairs {
        let d = ROOTS + rng.below(edges);
        if depth[d] < 2 {
            continue;
        }
        let up = (2 + rng.below(3)).min(depth[d]);
        let mut s = d as i64;
        for _ in 0..up {
            s = f.parent[&s].0;
        }
        if !f.pairs.contains(&(s, d as i64)) {
            f.pairs.push((s, d as i64));
        }
    }
    let queries = f
        .pairs
        .iter()
        .map(|(s, d)| format!("? fix G {s} {d}"))
        .collect();
    (Model::Forest(f), queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The incremental oracle must agree with a from-scratch one after
    /// any write sequence.
    #[test]
    fn incremental_oracle_matches_fresh_state() {
        for kind in [Kind::ReadHot, Kind::FixMix] {
            let w = Workload::generate(kind, 7);
            let mut stream = w.write_stream();
            let mut replay = w.model.clone();
            for _ in 0..300 {
                let (write, _) = stream.next_write();
                replay.apply(&write);
            }
            let fresh = match &replay {
                Model::Pqe(m) => {
                    let mut again = PqeModel {
                        rels: m.rels.clone(),
                        queries: Vec::new(),
                        next_novel: 0,
                        writes: 0,
                    };
                    for q in &m.queries {
                        again.add_query(q.form.clone());
                    }
                    again.values()
                }
                Model::Forest(f) => f.values(),
            };
            for (a, b) in replay.values().iter().zip(&fresh) {
                assert!((a - b).abs() < 1e-12, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn answers_stay_away_from_0_and_1() {
        for kind in [Kind::ReadHot, Kind::ReadEvict, Kind::FixMix] {
            let w = Workload::generate(kind, 3);
            for v in w.model.values() {
                assert!(v > 0.02 && v < 0.98, "{kind:?}: {v}");
            }
        }
    }
}
