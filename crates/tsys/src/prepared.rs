//! A model pre-processed for checking.
//!
//! Preparation *pre-resolves* every guard and effect expression: variable
//! names become state-vector indices and the whole expression forest is
//! flattened into one contiguous node pool, so the search neither hashes a
//! string nor chases `Box` pointers.  Preparing costs a handful of `Vec`
//! growths rather than one allocation per expression node, which is why
//! [`find_test_data`](crate::ModelChecker::find_test_data) can afford to
//! prepare per query; callers that re-query one encoding repeatedly (ablations,
//! sweeps) can build a [`PreparedModel`] once and go through
//! [`check_prepared`](crate::ModelChecker::check_prepared) to skip even
//! that.

use crate::model::Model;
use rustc_hash::FxHashMap;
use tmg_minic::ast::{BinOp, Expr, StmtId, UnOp};
use tmg_minic::interp::BranchChoice;

/// Index of a node in the [`ExprPool`].
pub(crate) type NodeId = u32;

/// One flattened expression node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum INode {
    /// Integer literal.
    Int(i64),
    /// Read of the variable at this state-vector index.
    Var(u32),
    /// Read of a name that is not a state variable (evaluates to an error,
    /// mirroring the interpreter's unknown-variable fault).
    UnknownVar,
    /// Unary operation.
    Unary { op: UnOp, operand: NodeId },
    /// Binary operation.
    Binary { op: BinOp, lhs: NodeId, rhs: NodeId },
}

/// Contiguous pool holding every pre-resolved expression of a model.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExprPool {
    pub(crate) nodes: Vec<INode>,
}

impl ExprPool {
    fn add(&mut self, expr: &Expr, var_index: &FxHashMap<&str, usize>) -> NodeId {
        let node = match expr {
            Expr::Int(v) => INode::Int(*v),
            Expr::Var(name) => match var_index.get(name.as_str()) {
                Some(&idx) => INode::Var(idx as u32),
                None => INode::UnknownVar,
            },
            Expr::Unary { op, operand } => {
                let operand = self.add(operand, var_index);
                INode::Unary { op: *op, operand }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.add(lhs, var_index);
                let rhs = self.add(rhs, var_index);
                INode::Binary { op: *op, lhs, rhs }
            }
        };
        self.nodes.push(node);
        self.nodes.len() as NodeId - 1
    }

    pub(crate) fn node(&self, id: NodeId) -> INode {
        self.nodes[id as usize]
    }
}

/// A guard specialised for the overwhelmingly common shapes the encoder
/// emits — `var ⋈ const`, a bare boolean variable, and their negations — so
/// the search's enabled-set loop can decide them with one packed-state read
/// instead of a pool walk.  Anything else falls back to the generic
/// pool-evaluated [`NodeId`] path with identical semantics (comparisons
/// cannot fault, so the fast path never has to model `Eval::Error`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastGuard {
    /// No guard: always enabled.
    Always,
    /// `var ⋈ rhs` (or its negation): `negate ^ (vals[var] ⋈ rhs)`.
    Cmp {
        var: u32,
        op: BinOp,
        rhs: i64,
        negate: bool,
    },
    /// Anything else: evaluate the pre-resolved pool expression.
    Node(NodeId),
}

impl FastGuard {
    /// Classifies `expr` (already added to the pool as `node`).
    fn classify(expr: &Expr, node: NodeId, var_index: &FxHashMap<&str, usize>) -> FastGuard {
        fn atom(expr: &Expr, var_index: &FxHashMap<&str, usize>) -> Option<(u32, BinOp, i64)> {
            match expr {
                // Bare boolean read: truthy ⇔ `var != 0`.
                Expr::Var(name) => var_index
                    .get(name.as_str())
                    .map(|&v| (v as u32, BinOp::Ne, 0)),
                Expr::Binary { op, lhs, rhs } if op.is_comparison() => match (&**lhs, &**rhs) {
                    (Expr::Var(name), Expr::Int(c)) => {
                        var_index.get(name.as_str()).map(|&v| (v as u32, *op, *c))
                    }
                    _ => None,
                },
                _ => None,
            }
        }
        let (inner, negate) = match expr {
            Expr::Unary {
                op: UnOp::Not,
                operand,
            } => (&**operand, true),
            other => (other, false),
        };
        match atom(inner, var_index) {
            Some((var, op, rhs)) => FastGuard::Cmp {
                var,
                op,
                rhs,
                negate,
            },
            None => FastGuard::Node(node),
        }
    }
}

/// A transition with its guard and effects pre-resolved.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTransition {
    /// Index of the source [`Transition`] in the model.
    pub(crate) index: u32,
    /// Pre-resolved guard, specialised for the common single-comparison
    /// shapes (see [`FastGuard`]; `Always` when the transition has no
    /// guard, `Node` for anything the fast path cannot decide).
    pub(crate) fast_guard: FastGuard,
    /// Pre-resolved simultaneous assignments `(target index, expression)`.
    /// Targets that are not state variables get `u32::MAX`.
    pub(crate) effect: Vec<(u32, NodeId)>,
    /// Destination location index.
    pub(crate) to: u32,
    /// Branch decision the transition encodes, copied out of the source
    /// transition so the search loops never chase back into the model.
    pub(crate) decision: Option<(StmtId, BranchChoice)>,
}

/// The owned, model-independent half of a prepared model: the per-location
/// outgoing-transition index plus the flattened expression pool.  Holding it
/// separately from the [`Model`] borrow lets [`OwnedPreparedModel`] own both
/// halves and be cached across calls (and threads) by the artifact store.
#[derive(Debug, Clone)]
pub(crate) struct PreparedProgram {
    pub(crate) outgoing: Vec<Vec<PreparedTransition>>,
    pub(crate) pool: ExprPool,
}

impl PreparedProgram {
    pub(crate) fn new(model: &Model) -> PreparedProgram {
        let var_index: FxHashMap<&str, usize> = model
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect();
        let mut pool = ExprPool::default();
        let mut outgoing: Vec<Vec<PreparedTransition>> =
            (0..model.locations as usize).map(|_| Vec::new()).collect();
        for (index, t) in model.transitions.iter().enumerate() {
            let fast_guard = match &t.guard {
                Some(g) => {
                    let node = pool.add(g, &var_index);
                    FastGuard::classify(g, node, &var_index)
                }
                None => FastGuard::Always,
            };
            outgoing[t.from.index()].push(PreparedTransition {
                index: index as u32,
                fast_guard,
                effect: t
                    .effect
                    .iter()
                    .map(|(target, e)| {
                        let idx = var_index
                            .get(target.as_str())
                            .map(|&i| i as u32)
                            .unwrap_or(u32::MAX);
                        (idx, pool.add(e, &var_index))
                    })
                    .collect(),
                to: t.to.index() as u32,
                decision: t.decision,
            });
        }
        PreparedProgram { outgoing, pool }
    }
}

/// A [`Model`] plus everything the explicit-state search wants hoisted out of
/// the per-query loop: the per-location outgoing-transition index and the
/// flattened, index-resolved guard/effect expressions.
#[derive(Debug, Clone)]
pub struct PreparedModel<'m> {
    /// The underlying model.
    pub model: &'m Model,
    pub(crate) program: std::borrow::Cow<'m, PreparedProgram>,
}

impl<'m> PreparedModel<'m> {
    /// Prepares `model` for repeated checking.
    pub fn new(model: &'m Model) -> PreparedModel<'m> {
        PreparedModel {
            model,
            program: std::borrow::Cow::Owned(PreparedProgram::new(model)),
        }
    }
}

/// A fully owned prepared model: the encoded [`Model`] together with its
/// [`PreparedProgram`], with no outstanding borrows.  This is the cacheable
/// form the staged pipeline stores once per function and reuses across path
/// bounds, repeated analyses and [`check_many`](crate::ModelChecker::check_many)
/// batches.
#[derive(Debug, Clone)]
pub struct OwnedPreparedModel {
    model: Model,
    program: PreparedProgram,
}

impl OwnedPreparedModel {
    /// Prepares `model` and takes ownership of both halves.
    pub fn new(model: Model) -> OwnedPreparedModel {
        let program = PreparedProgram::new(&model);
        OwnedPreparedModel { model, program }
    }

    /// The underlying encoded model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// A borrowing view usable wherever a [`PreparedModel`] is expected,
    /// without re-preparing or cloning the program.
    pub fn view(&self) -> PreparedModel<'_> {
        PreparedModel {
            model: &self.model,
            program: std::borrow::Cow::Borrowed(&self.program),
        }
    }
}
