//! Module-level call graph over the *defined* functions of a program.
//!
//! Interprocedural WCET composition (`tmg_core::module`) analyses a module
//! bottom-up: every function is bounded after its callees, so a callee's
//! bound artifact can price the caller's `call` statements.  This module
//! provides the graph that ordering and the differential re-analysis both
//! hang off:
//!
//! * nodes are the functions *defined* in the program, in program order;
//! * edges follow [`Stmt::Call`] resolution exactly as sema resolves it —
//!   a call whose callee name is defined in the same program is an edge,
//!   anything else is an external leaf routine and stays out of the graph;
//! * [`CallGraph::reverse_topological_order`] condenses the graph into
//!   strongly connected components (Tarjan) and refuses recursion — WCET
//!   composition needs an acyclic summary order, so any SCC with more than
//!   one node (or a self-loop) is reported as a typed [`CallGraphError`]
//!   naming the cycle;
//! * [`CallGraph::dirty_cone`] is the differential-invalidation primitive:
//!   the set of functions whose summary can change when a given set of
//!   functions is edited, i.e. the reverse-reachable closure of the edit.
//!
//! The graph itself is cheap (one AST walk) and carries no key of its own:
//! the pipeline's memory-tier `CallGraphArtifact` is keyed by [`module_key`]
//! over the function fingerprints, which `ModuleAnalysis` computes once per
//! analysis and also folds into every per-function summary key.  Equal keys
//! mean equal graphs, since a fingerprint covers the function's name and
//! every call it makes.

use crate::hash::combine_hashes;
use rustc_hash::FxHashMap;
use tmg_minic::ast::{Program, Stmt};

/// Recursion discovered while ordering the call graph: the functions of one
/// strongly connected component, in a deterministic order starting from the
/// lowest program index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraphError {
    /// The members of the offending cycle (one name for a self-loop).
    pub cycle: Vec<String>,
}

impl std::fmt::Display for CallGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recursive call cycle {{{}}} has no bottom-up summary order; \
             WCET composition requires an acyclic call graph",
            self.cycle.join(" -> ")
        )
    }
}

impl std::error::Error for CallGraphError {}

/// The call graph of one program's defined functions.  See the module docs.
///
/// Per-node data is stored back to back in a handful of flat vectors, not
/// one allocation per node: the pipeline memoises up to a thousand module
/// graphs in memory, where per-node `Vec`s and `String`s cost several times
/// the edges themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// Function names in program order, concatenated; name `i` is
    /// `names[name_starts[i]..name_starts[i + 1]]`.
    names: String,
    name_starts: Vec<usize>,
    /// Deduplicated, sorted defined-callee indices per function.
    callees: Rows,
    /// Reverse edges: the functions that call each function, ascending.
    callers: Rows,
    /// `call` statements per function that resolve to a defined callee
    /// (before deduplication — two call sites to one callee count twice).
    call_sites: Vec<usize>,
}

/// One index list per node, concatenated: row `i` is
/// `items[starts[i]..starts[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    starts: Vec<usize>,
    items: Vec<usize>,
}

impl Rows {
    fn new(lists: Vec<Vec<usize>>) -> Rows {
        let mut starts = Vec::with_capacity(lists.len() + 1);
        starts.push(0);
        let mut items = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            items.extend(list);
            starts.push(items.len());
        }
        Rows { starts, items }
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.starts[i]..self.starts[i + 1]]
    }
}

impl CallGraph {
    /// Builds the graph from a checked program.  Never fails: recursion is
    /// representable (and detected by [`Self::reverse_topological_order`]),
    /// calls to undefined names are external leaves and contribute no edge.
    pub fn build(program: &Program) -> CallGraph {
        let n = program.functions.len();
        let index: FxHashMap<&str, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut call_sites = vec![0usize; n];
        for (i, function) in program.functions.iter().enumerate() {
            function.for_each_stmt(&mut |stmt| {
                if let Stmt::Call { callee, .. } = stmt {
                    if let Some(&j) = index.get(callee.as_str()) {
                        call_sites[i] += 1;
                        callees[i].push(j);
                    }
                }
            });
            callees[i].sort_unstable();
            callees[i].dedup();
            for &j in &callees[i] {
                callers[j].push(i);
            }
        }
        let mut names = String::new();
        let mut name_starts = vec![0];
        for function in &program.functions {
            names.push_str(&function.name);
            name_starts.push(names.len());
        }
        CallGraph {
            names,
            name_starts,
            callees: Rows::new(callees),
            callers: Rows::new(callers),
            call_sites,
        }
    }

    /// Number of defined functions (nodes).
    pub fn len(&self) -> usize {
        self.call_sites.len()
    }

    /// Whether the program defines no functions.
    pub fn is_empty(&self) -> bool {
        self.call_sites.is_empty()
    }

    /// Function name of node `i` (program order).
    pub fn name(&self, i: usize) -> &str {
        &self.names[self.name_starts[i]..self.name_starts[i + 1]]
    }

    /// Node index of a function name, if defined.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        (0..self.len()).position(|i| self.name(i) == name)
    }

    /// Sorted, deduplicated defined callees of node `i`.
    pub fn callees(&self, i: usize) -> &[usize] {
        self.callees.row(i)
    }

    /// The nodes that call node `i` (its direct reverse edges).
    pub fn callers(&self, i: usize) -> &[usize] {
        self.callers.row(i)
    }

    /// Call statements in node `i` that resolve to defined callees
    /// (call *sites*, not distinct callees).
    pub fn call_sites(&self, i: usize) -> usize {
        self.call_sites[i]
    }

    /// Total defined-call edges (deduplicated per caller).
    pub fn edge_count(&self) -> usize {
        self.callees.items.len()
    }

    /// The nodes no defined function calls — the analysis roots.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.callers(i).is_empty())
            .collect()
    }

    /// A bottom-up summary order: every function appears after all of its
    /// callees.  Deterministic (lowest program index first among ready
    /// nodes).
    ///
    /// # Errors
    ///
    /// [`CallGraphError`] when the graph has a cycle (mutual recursion or a
    /// self-loop) — there is no bottom-up order to give.
    pub fn reverse_topological_order(&self) -> Result<Vec<usize>, CallGraphError> {
        if let Some(cycle) = self.find_cycle() {
            return Err(CallGraphError {
                cycle: cycle.into_iter().map(|i| self.name(i).to_owned()).collect(),
            });
        }
        // Kahn's algorithm on out-degree: a node is ready when all of its
        // callees are emitted.  A binary heap would be overkill — scanning
        // for the smallest ready index keeps the order deterministic and the
        // graph sizes here are module-scale, not fleet-scale.
        let n = self.len();
        let mut remaining: Vec<usize> = (0..n).map(|i| self.callees(i).len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&i| i != next);
            order.push(next);
            for &caller in self.callers(next) {
                remaining[caller] -= 1;
                if remaining[caller] == 0 {
                    ready.push(caller);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "acyclic graph must order every node");
        Ok(order)
    }

    /// Tarjan's SCC: the first component with more than one member, or a
    /// self-loop, reported in ascending program order.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut state = TarjanState {
            index: vec![usize::MAX; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            cycle: None,
        };
        for v in 0..n {
            if state.index[v] == usize::MAX {
                self.tarjan(v, &mut state);
                if state.cycle.is_some() {
                    break;
                }
            }
        }
        state.cycle
    }

    fn tarjan(&self, v: usize, s: &mut TarjanState) {
        // Explicit work-stack DFS: generated modules can chain hundreds of
        // calls deep, which would overflow a recursive walk's thread stack.
        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        let mut work = vec![Frame::Enter(v)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    s.index[v] = s.next_index;
                    s.lowlink[v] = s.next_index;
                    s.next_index += 1;
                    s.stack.push(v);
                    s.on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut edge) => {
                    let mut descended = false;
                    while edge < self.callees(v).len() {
                        let w = self.callees(v)[edge];
                        edge += 1;
                        if s.index[w] == usize::MAX {
                            work.push(Frame::Resume(v, edge));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        }
                        if s.on_stack[w] {
                            s.lowlink[v] = s.lowlink[v].min(s.index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if s.lowlink[v] == s.index[v] {
                        let mut component = Vec::new();
                        while let Some(w) = s.stack.pop() {
                            s.on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop =
                            component.len() == 1 && self.callees(v).binary_search(&v).is_ok();
                        if component.len() > 1 || self_loop {
                            component.sort_unstable();
                            s.cycle = Some(component);
                            return;
                        }
                    }
                    if let Some(Frame::Resume(parent, _)) = work.last() {
                        s.lowlink[*parent] = s.lowlink[*parent].min(s.lowlink[v]);
                    }
                }
            }
        }
    }

    /// The dirty cone of an edit: every function from which a member of
    /// `changed` is reachable along call edges — the changed functions
    /// themselves plus all transitive callers.  Sorted ascending; indices
    /// out of range are ignored.  Exactly these summaries can differ after
    /// the edit; everything outside the cone is served unchanged.
    pub fn dirty_cone(&self, changed: &[usize]) -> Vec<usize> {
        let mut dirty = vec![false; self.len()];
        let mut work: Vec<usize> = changed
            .iter()
            .copied()
            .filter(|&i| i < self.len())
            .collect();
        for &i in &work {
            dirty[i] = true;
        }
        while let Some(i) = work.pop() {
            for &caller in self.callers(i) {
                if !dirty[caller] {
                    dirty[caller] = true;
                    work.push(caller);
                }
            }
        }
        (0..self.len()).filter(|&i| dirty[i]).collect()
    }
}

struct TarjanState {
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    cycle: Option<Vec<usize>>,
}

/// Key of a whole module: its functions' source fingerprints
/// ([`crate::function_fingerprint`]) in program order.  This is the cache key
/// of the `CallGraphArtifact` — any edit to any function (or a reorder)
/// changes it.
pub fn module_key(fingerprints: &[u64]) -> u64 {
    combine_hashes(fingerprints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function_fingerprint;
    use tmg_minic::parse_program;

    fn graph(source: &str) -> CallGraph {
        CallGraph::build(&parse_program(source).expect("parse"))
    }

    #[test]
    fn resolves_defined_edges_and_ignores_leaves() {
        let g = graph(
            "void leaf_user() { external(); } \
             void mid() { leaf_user(); external(); leaf_user(); } \
             void root() { mid(); leaf_user(); }",
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.callees(0), &[] as &[usize]);
        assert_eq!(g.callees(1), &[0], "dedup two call sites to one edge");
        assert_eq!(g.call_sites(1), 2, "but count both call sites");
        assert_eq!(g.callees(2), &[0, 1]);
        assert_eq!(g.callers(0), &[1, 2]);
        assert_eq!(g.roots(), vec![2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn reverse_topological_order_puts_callees_first() {
        let g =
            graph("void a() { b(); c(); } void b() { c(); } void c() { x(); } void d() { a(); }");
        let order = g.reverse_topological_order().expect("acyclic");
        let pos = |name: &str| {
            let i = g.index_of(name).unwrap();
            order.iter().position(|&n| n == i).unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
        assert!(pos("a") < pos("d"));
    }

    #[test]
    fn mutual_recursion_is_a_typed_error() {
        let g = graph("void even() { odd(); } void odd() { even(); } void top() { even(); }");
        let err = g.reverse_topological_order().expect_err("cycle");
        assert_eq!(err.cycle, vec!["even".to_owned(), "odd".to_owned()]);
        assert!(err.to_string().contains("recursive call cycle"));
    }

    #[test]
    fn self_recursion_is_a_typed_error() {
        let g = graph("void loop_fn() { loop_fn(); }");
        let err = g.reverse_topological_order().expect_err("self-loop");
        assert_eq!(err.cycle, vec!["loop_fn".to_owned()]);
    }

    #[test]
    fn dirty_cone_is_the_reverse_reachable_closure() {
        // root -> mid -> leaf;  side -> leaf;  lone
        let g = graph(
            "void leaf() { x(); } void mid() { leaf(); } void root() { mid(); } \
             void side() { leaf(); } void lone() { y(); }",
        );
        let (leaf, mid, root, side, lone) = (0, 1, 2, 3, 4);
        assert_eq!(g.dirty_cone(&[leaf]), vec![leaf, mid, root, side]);
        assert_eq!(g.dirty_cone(&[mid]), vec![mid, root]);
        assert_eq!(g.dirty_cone(&[root]), vec![root]);
        assert_eq!(g.dirty_cone(&[lone]), vec![lone]);
        assert_eq!(g.dirty_cone(&[side, mid]), vec![mid, root, side]);
        assert_eq!(g.dirty_cone(&[]), Vec::<usize>::new());
    }

    #[test]
    fn key_tracks_bodies_and_structure() {
        let key = |source: &str| {
            let program = parse_program(source).expect("parse");
            let fingerprints: Vec<u64> =
                program.functions.iter().map(function_fingerprint).collect();
            module_key(&fingerprints)
        };
        let base = key("void a() { b(); } void b() { x(); }");
        assert_eq!(base, key("void a() { b(); } void b() { x(); }"));
        assert_ne!(
            base,
            key("void a() { b(); } void b() { y(); }"),
            "edited body"
        );
        assert_ne!(
            base,
            key("void a() { b(); b(); } void b() { x(); }"),
            "new edge"
        );
    }

    #[test]
    fn deep_call_chain_does_not_overflow_the_stack() {
        let mut source = String::from("void f0() { x(); } ");
        for i in 1..600 {
            source.push_str(&format!("void f{i}() {{ f{}(); }} ", i - 1));
        }
        let g = graph(&source);
        let order = g.reverse_topological_order().expect("acyclic chain");
        assert_eq!(order.len(), 600);
        assert_eq!(order[0], g.index_of("f0").unwrap());
        assert_eq!(g.dirty_cone(&[0]).len(), 600);
    }
}
