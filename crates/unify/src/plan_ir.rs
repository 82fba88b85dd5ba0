//! The shared query-plan IR: Algorithm 1's Rule 1/Rule 2 step
//! sequence as first-class, **hash-consed** plan nodes.
//!
//! An [`hq_query::EliminationPlan`] is a per-query
//! recipe expressed in that query's private vocabulary (atom slots,
//! variable ids). Two different queries can nevertheless demand the
//! *same physical work* — scanning relation `R` into the same column
//! order, folding the same column away, joining the same pair of
//! intermediates. [`PlanIr`] makes that sharing explicit: lowering a
//! query rewrites its plan into [`PlanExpr`] nodes whose vocabulary is
//! purely *structural* (relation names and column positions — no
//! variable ids, which are query-local numbering accidents), and
//! interning structurally identical nodes gives them one stable
//! [`PlanId`]. A batch of queries lowered into one arena therefore
//! deduplicates common sub-plans for free: every shared intermediate
//! is evaluated **once per backend** and its annotated relation (plus
//! its exact ⊕/⊗ op counts) reused by every query that contains the
//! node — the multi-query planner of the serving layer
//! ([`crate::serving::ServingSession`]).
//!
//! Structural identity is chosen so that equal nodes are guaranteed
//! equal *evaluations*: a [`PlanExpr::Scan`] is keyed by relation name
//! and the written-order → key-order column permutation (two atoms
//! whose variables sort differently produce genuinely different
//! relations and correctly do not share); [`PlanExpr::Project`] by
//! input node and dropped column index; [`PlanExpr::Join`] by the
//! ordered input pair (order fixes the ⊗ operand sides, part of the
//! bit-identity contract).

use hq_query::{EliminationPlan, Query, Step, Var};
use std::collections::{BTreeSet, HashMap};

/// A stable structural identity: the index of a hash-consed
/// [`PlanExpr`] in its [`PlanIr`] arena. Equal ids ⇔ structurally
/// identical sub-plans ⇔ identical evaluation over one database state.
pub type PlanId = usize;

/// One node of the shared plan IR, in structural (query-independent)
/// vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlanExpr {
    /// Materialise one relation as a K-annotated slot: `positions[j]`
    /// is the written-order column that lands in key column `j`
    /// (ascending variable order). The arity is `positions.len()`.
    Scan {
        /// Relation name (interner-independent identity).
        rel: String,
        /// Written-order → key-order column permutation.
        positions: Vec<usize>,
    },
    /// Rule 1: ⊕-fold key column `col` of `input` away.
    Project {
        /// The node whose output is folded.
        input: PlanId,
        /// The dropped key-column index.
        col: usize,
    },
    /// Rule 2: ⊗-outer-join two nodes with equal key schemas. The
    /// operand order is part of the identity (it fixes each ⊗'s left
    /// and right arguments).
    Join {
        /// Left operand (the surviving slot of the step).
        left: PlanId,
        /// Right operand (the slot the step kills).
        right: PlanId,
    },
    /// The loop variable of an enclosing [`PlanExpr::Fixpoint`]: stands
    /// for "the previous round's delta" inside the recursive step plan.
    /// It has no payload (one recursion at a time; mutual recursion is
    /// a ROADMAP follow-up) and no base-relation deps of its own.
    Rec,
    /// Relational composition of two binary relations:
    /// `T(x, z) = ⊕_y L(x, y) ⊗ R(y, z)` — the one join shape a linear
    /// recursive step needs (it is *not* a Rule 2 equal-schema join,
    /// which is why it is a distinct node kind).
    Compose {
        /// Left operand `L(x, y)`.
        left: PlanId,
        /// Right operand `R(y, z)`.
        right: PlanId,
    },
    /// Datalog-style recursion: the least fixpoint of
    /// `acc = base ⊕ step(acc)`, evaluated semi-naively — each round
    /// runs `step` over the previous round's *delta* only (the
    /// [`PlanExpr::Rec`] placeholder inside `step`), ⊕-merges novel
    /// tuples into the accumulator, and terminates when a round's
    /// delta annihilates (produces no tuple absent from the
    /// accumulator's support).
    Fixpoint {
        /// The round-0 plan (also the round-0 delta).
        base: PlanId,
        /// The recursive step, containing exactly one [`PlanExpr::Rec`].
        step: PlanId,
    },
}

impl PlanExpr {
    /// The nodes this one refers to, in operand order.
    pub fn children(&self) -> Vec<PlanId> {
        match *self {
            PlanExpr::Scan { .. } | PlanExpr::Rec => Vec::new(),
            PlanExpr::Project { input, .. } => vec![input],
            PlanExpr::Join { left, right } | PlanExpr::Compose { left, right } => {
                vec![left, right]
            }
            PlanExpr::Fixpoint { base, step } => vec![base, step],
        }
    }
}

/// A hash-consing arena of [`PlanExpr`] nodes shared by every query
/// lowered into it.
#[derive(Debug, Default)]
pub struct PlanIr {
    nodes: Vec<PlanExpr>,
    /// Base relation names each node reads — the invalidation footprint
    /// used when updates dirty a relation.
    deps: Vec<BTreeSet<String>>,
    index: HashMap<PlanExpr, PlanId>,
}

impl PlanIr {
    /// An empty arena.
    pub fn new() -> Self {
        PlanIr::default()
    }

    /// Interns `expr`, returning the existing id when a structurally
    /// identical node was interned before.
    ///
    /// Ids are assigned in interning order and a node can only refer
    /// to already-interned inputs, so **every input id is smaller than
    /// its consumer's**: ascending id order is a topological order of
    /// the DAG. The serving layer's update walk patches cached nodes
    /// in exactly that order, guaranteeing each node sees its inputs'
    /// post-patch state and change sets.
    pub fn intern(&mut self, expr: PlanExpr) -> PlanId {
        if let Some(&id) = self.index.get(&expr) {
            return id;
        }
        debug_assert!(
            expr.children().iter().all(|&c| c < self.nodes.len()),
            "plan nodes must be interned after their inputs"
        );
        let deps = match &expr {
            PlanExpr::Scan { rel, .. } => BTreeSet::from([rel.clone()]),
            // Everything else reads its children's relations (the loop
            // variable has none: it is bound by the enclosing Fixpoint).
            _ => expr
                .children()
                .iter()
                .flat_map(|&c| self.deps[c].iter().cloned())
                .collect(),
        };
        let id = self.nodes.len();
        self.nodes.push(expr.clone());
        self.deps.push(deps);
        self.index.insert(expr, id);
        id
    }

    /// The node behind an id.
    pub fn node(&self, id: PlanId) -> &PlanExpr {
        &self.nodes[id]
    }

    /// The base relation names node `id` transitively reads. An update
    /// touching none of them cannot change the node's output — the
    /// cache-invalidation contract of the serving layer.
    pub fn deps(&self, id: PlanId) -> &BTreeSet<String> {
        &self.deps[id]
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One step of a lowered query: which original atom slot the step
/// rewrites, the node id holding that slot's state afterwards, and the
/// slot a merge kills (for support-trajectory replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredStep {
    /// The atom slot the step writes (`ProjectOut.atom` / `Merge.left`).
    pub touched: usize,
    /// The hash-consed node for the slot's state after this step.
    pub node: PlanId,
    /// The slot a [`Step::Merge`] consumes (`None` for Rule 1 steps).
    pub killed: Option<usize>,
}

/// A query lowered onto a [`PlanIr`]: scan nodes per atom slot, one
/// node per plan step, and the root node holding the nullary result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredQuery {
    /// The scan node of each atom slot, in atom order.
    pub scans: Vec<PlanId>,
    /// The steps in execution order.
    pub steps: Vec<LoweredStep>,
    /// The node holding the final nullary relation.
    pub root: PlanId,
}

impl LoweredQuery {
    /// Every node the query evaluates, in dependency order (scans
    /// first, then step outputs).
    pub fn nodes(&self) -> impl Iterator<Item = PlanId> + '_ {
        self.scans
            .iter()
            .copied()
            .chain(self.steps.iter().map(|s| s.node))
    }
}

/// Lowers `(q, plan)` onto the arena, interning every intermediate
/// state as a structural node. Queries lowered onto the **same** arena
/// share ids for common sub-plans — the multi-query deduplication.
pub fn lower(ir: &mut PlanIr, q: &Query, plan: &EliminationPlan) -> LoweredQuery {
    // Per-slot schema (ascending variable ids) and current node.
    let mut schemas: Vec<Vec<Var>> = Vec::with_capacity(q.atom_count());
    let mut states: Vec<PlanId> = Vec::with_capacity(q.atom_count());
    for atom in q.atoms() {
        // One shared definition of the written→key permutation
        // (`Atom::key_schema`) keeps scan identities aligned with the
        // annotation and encoded-cache layers.
        let (sorted, positions) = atom.key_schema();
        let id = ir.intern(PlanExpr::Scan {
            rel: atom.rel.clone(),
            positions,
        });
        schemas.push(sorted);
        states.push(id);
    }
    let scans = states.clone();
    let mut steps = Vec::with_capacity(plan.steps().len());
    for step in plan.steps() {
        match *step {
            Step::ProjectOut { atom, var } => {
                let col = schemas[atom]
                    .iter()
                    .position(|&v| v == var)
                    .expect("projected variable in schema");
                schemas[atom].remove(col);
                let node = ir.intern(PlanExpr::Project {
                    input: states[atom],
                    col,
                });
                states[atom] = node;
                steps.push(LoweredStep {
                    touched: atom,
                    node,
                    killed: None,
                });
            }
            Step::Merge { left, right } => {
                debug_assert_eq!(
                    schemas[left], schemas[right],
                    "Rule 2 merges equal variable sets"
                );
                let node = ir.intern(PlanExpr::Join {
                    left: states[left],
                    right: states[right],
                });
                states[left] = node;
                steps.push(LoweredStep {
                    touched: left,
                    node,
                    killed: Some(right),
                });
            }
        }
    }
    LoweredQuery {
        scans,
        steps,
        root: states[plan.root()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hq_query::{parse_query, plan};

    fn lowered(ir: &mut PlanIr, src: &str) -> LoweredQuery {
        let q = parse_query(src).unwrap();
        let p = plan(&q).unwrap();
        lower(ir, &q, &p)
    }

    #[test]
    fn identical_queries_share_every_node() {
        let mut ir = PlanIr::new();
        let a = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        let n = ir.len();
        let b = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        assert_eq!(a, b, "same query must lower to the same node ids");
        assert_eq!(ir.len(), n, "no new nodes for an identical query");
    }

    #[test]
    fn overlapping_queries_share_common_prefixes() {
        // Both queries scan E(X,Y) and fold X (the private variable
        // with the lowest id) first: the scan and the first projection
        // must be shared, the rest not.
        let mut ir = PlanIr::new();
        let full = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        let sub = lowered(&mut ir, "Q() :- E(X,Y)");
        assert_eq!(full.scans[0], sub.scans[0], "shared E scan");
        assert_eq!(
            full.steps[0].node, sub.steps[0].node,
            "shared fold of X out of E"
        );
        assert_ne!(full.root, sub.root);
    }

    #[test]
    fn different_column_orders_do_not_share() {
        // E(X,Y) with X first vs E written against reversed variable
        // numbering produce different key permutations — distinct scan
        // nodes, because their physical relations genuinely differ.
        let mut ir = PlanIr::new();
        let a = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        // Here Y is interned first, so E(X,Y)'s key order is (Y, X).
        let b = lowered(&mut ir, "Q() :- F(Y,Z), E(X,Y)");
        assert_ne!(a.scans[0], b.scans[1], "permuted scans must not share");
        // F's own key order is (Y, Z) in both queries: that scan shares.
        assert_eq!(a.scans[1], b.scans[0], "identical F scans share");
    }

    #[test]
    fn deps_track_base_relations() {
        let mut ir = PlanIr::new();
        let q = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        assert_eq!(
            ir.deps(q.root).iter().cloned().collect::<Vec<_>>(),
            vec!["E".to_owned(), "F".to_owned()]
        );
        assert_eq!(
            ir.deps(q.scans[0]).iter().cloned().collect::<Vec<_>>(),
            vec!["E".to_owned()]
        );
    }

    #[test]
    fn lowered_scans_are_initial_states() {
        let mut ir = PlanIr::new();
        let q = lowered(&mut ir, "Q() :- E(X,Y), F(Y,Z)");
        for &s in &q.scans {
            assert!(matches!(ir.node(s), PlanExpr::Scan { .. }));
        }
        assert!(matches!(ir.node(q.root), PlanExpr::Project { .. }));
    }
}
