//! Program-segment regions.
//!
//! A *program segment* (PS) in the paper is a sub-graph of the CFG that can be
//! entered only through a single control edge.  Partitioning "follows the
//! abstract syntax tree": the candidate segments are the function body and the
//! bodies of branch arms (`then`/`else` branches, `switch` arms, loop bodies),
//! each of which is entered through exactly one control edge.  The builder
//! records these candidates as a [`RegionTree`] whose nodes carry their block
//! sets and acyclic path counts.

use crate::block::BlockId;
use crate::graph::Cfg;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use tmg_minic::ast::StmtId;

/// Identity of a region within one [`RegionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Raw index into the region table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// What part of the syntax a region corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// The whole function body (the root region).
    FunctionBody,
    /// The `then` branch of the given `if` statement.
    Then(StmtId),
    /// The `else` branch of the given `if` statement.
    Else(StmtId),
    /// The arm of the given `switch` statement with the given label value.
    Case(StmtId, i64),
    /// The `default` arm of the given `switch` statement.
    Default(StmtId),
    /// The body of the given bounded loop.
    LoopBody(StmtId),
}

impl RegionKind {
    /// The branching statement the region belongs to (`None` for the root).
    pub fn owner(self) -> Option<StmtId> {
        match self {
            RegionKind::FunctionBody => None,
            RegionKind::Then(s)
            | RegionKind::Else(s)
            | RegionKind::Case(s, _)
            | RegionKind::Default(s)
            | RegionKind::LoopBody(s) => Some(s),
        }
    }
}

/// One single-entry region (program-segment candidate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Region identity.
    pub id: RegionId,
    /// Syntactic role.
    pub kind: RegionKind,
    /// Enclosing region (`None` for the root).
    pub parent: Option<RegionId>,
    /// Directly nested regions in source order.
    pub children: Vec<RegionId>,
    /// Every block belonging to the region, including blocks of nested
    /// regions, in creation order.
    pub blocks: Vec<BlockId>,
    /// The block control enters the region through (target of the single
    /// entry edge).
    pub entry_block: BlockId,
    /// Number of distinct paths through the region (acyclic paths; loop
    /// bodies contribute `Σ_{k=0..bound} paths(body)^k`), saturating.
    pub path_count: u128,
}

impl Region {
    /// Whether the region contains the given block.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }

    /// Number of blocks in the region (including nested regions' blocks).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// Tree of single-entry regions for one function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionTree {
    regions: Vec<Region>,
    root: RegionId,
}

impl RegionTree {
    /// Assembles a tree from its regions; used by the builder
    /// ([`RegionTree::validate`] checks the structure).
    pub fn from_parts(regions: Vec<Region>, root: RegionId) -> RegionTree {
        RegionTree { regions, root }
    }

    /// The root (function-body) region.
    pub fn root(&self) -> &Region {
        &self.regions[self.root.index()]
    }

    /// Id of the root region.
    pub fn root_id(&self) -> RegionId {
        self.root
    }

    /// Access a region by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions in creation (pre-order) order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the tree has no regions (never true for a built function).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The blocks that belong to `id` but to none of its children — the
    /// blocks that must be instrumented individually when the region is
    /// decomposed.
    pub fn own_blocks(&self, id: RegionId) -> Vec<BlockId> {
        let region = self.region(id);
        let mut nested: HashSet<BlockId> = HashSet::new();
        for child in &region.children {
            nested.extend(self.region(*child).blocks.iter().copied());
        }
        region
            .blocks
            .iter()
            .copied()
            .filter(|b| !nested.contains(b))
            .collect()
    }

    /// Edges leaving the region: `(from, to)` pairs where `from` is inside
    /// the region and `to` is outside.  These are where the paper places the
    /// "after" instrumentation points of a program segment.
    pub fn exit_edges(&self, cfg: &Cfg, id: RegionId) -> Vec<(BlockId, BlockId)> {
        let region = self.region(id);
        let inside: HashSet<BlockId> = region.blocks.iter().copied().collect();
        let mut edges = Vec::new();
        for &b in &region.blocks {
            for succ in cfg.successors(b) {
                if !inside.contains(&succ) {
                    edges.push((b, succ));
                }
            }
        }
        edges
    }

    /// The single entry edge of the region: the unique `(pred, entry_block)`
    /// edge from outside the region, or `None` for the root region (which is
    /// entered by calling the function).
    pub fn entry_edge(&self, cfg: &Cfg, id: RegionId) -> Option<(BlockId, BlockId)> {
        let region = self.region(id);
        if region.kind == RegionKind::FunctionBody {
            return None;
        }
        let inside: HashSet<BlockId> = region.blocks.iter().copied().collect();
        let preds: Vec<BlockId> = cfg
            .predecessors(region.entry_block)
            .iter()
            .copied()
            .filter(|p| !inside.contains(p))
            .collect();
        preds.first().map(|p| (*p, region.entry_block))
    }

    /// Verifies the single-entry property of every region: no block other
    /// than the entry block may have a predecessor outside the region
    /// (ignoring loop back edges, which stay inside the region by
    /// construction).
    pub fn validate(&self, cfg: &Cfg) -> Result<(), String> {
        for region in &self.regions {
            let inside: HashSet<BlockId> = region.blocks.iter().copied().collect();
            for &b in &region.blocks {
                if b == region.entry_block {
                    continue;
                }
                for &p in cfg.predecessors(b) {
                    if !inside.contains(&p) {
                        return Err(format!(
                            "region {} ({:?}) is not single-entry: block {b} is reachable from outside block {p}",
                            region.id, region.kind
                        ));
                    }
                }
            }
            for child in &region.children {
                let child_region = self.region(*child);
                if child_region.parent != Some(region.id) {
                    return Err(format!(
                        "region {} has child {} with mismatched parent",
                        region.id, child
                    ));
                }
                for cb in &child_region.blocks {
                    if !inside.contains(cb) {
                        return Err(format!(
                            "child region {} has block {cb} outside parent {}",
                            child, region.id
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_cfg;
    use tmg_minic::parse_function;

    fn lowered(src: &str) -> crate::builder::LoweredFunction {
        build_cfg(&parse_function(src).expect("parse"))
    }

    #[test]
    fn root_region_covers_all_measurable_units() {
        let l = lowered("void f(int a) { p1(); if (a) { p2(); } else { p3(); } p4(); }");
        let mut root_blocks = l.regions.root().blocks.clone();
        root_blocks.sort_unstable();
        let mut units = l.cfg.measurable_units();
        units.sort_unstable();
        assert_eq!(root_blocks, units);
        l.regions.validate(&l.cfg).expect("single-entry");
    }

    #[test]
    fn then_and_else_become_child_regions() {
        let l = lowered("void f(int a) { if (a) { p1(); } else { p2(); } }");
        let root = l.regions.root();
        assert_eq!(root.children.len(), 2);
        let kinds: Vec<_> = root
            .children
            .iter()
            .map(|c| l.regions.region(*c).kind)
            .collect();
        assert!(matches!(kinds[0], RegionKind::Then(_)));
        assert!(matches!(kinds[1], RegionKind::Else(_)));
    }

    #[test]
    fn own_blocks_excludes_children() {
        let l = lowered("void f(int a) { if (a) { p1(); } else { p2(); } }");
        let root_id = l.regions.root_id();
        let own = l.regions.own_blocks(root_id);
        for child in &l.regions.root().children {
            for b in &l.regions.region(*child).blocks {
                assert!(!own.contains(b));
            }
        }
        // Own blocks: entry, the condition block, the join.
        assert_eq!(own.len(), 3);
    }

    #[test]
    fn branch_regions_have_a_single_entry_edge() {
        let l = lowered("void f(int a) { if (a) { p1(); p2(); } p3(); }");
        for region in l.regions.regions() {
            if region.kind == RegionKind::FunctionBody {
                assert!(l.regions.entry_edge(&l.cfg, region.id).is_none());
            } else {
                let edge = l.regions.entry_edge(&l.cfg, region.id).expect("entry edge");
                assert_eq!(edge.1, region.entry_block);
            }
        }
    }

    #[test]
    fn exit_edges_leave_the_region() {
        let l = lowered("void f(int a) { if (a) { p1(); } p2(); }");
        let root = l.regions.root();
        let then_id = root.children[0];
        let exits = l.regions.exit_edges(&l.cfg, then_id);
        assert_eq!(exits.len(), 1);
        let (from, to) = exits[0];
        assert!(l.regions.region(then_id).contains(from));
        assert!(!l.regions.region(then_id).contains(to));
    }

    #[test]
    fn nested_regions_nest_their_blocks() {
        let l = lowered("void f(int a) { if (a) { if (a > 1) { p1(); } else { p2(); } } p3(); }");
        let root = l.regions.root();
        let outer_then = l.regions.region(root.children[0]);
        assert_eq!(outer_then.children.len(), 2);
        for child in &outer_then.children {
            for b in &l.regions.region(*child).blocks {
                assert!(outer_then.contains(*b));
            }
        }
        l.regions.validate(&l.cfg).expect("valid");
    }

    #[test]
    fn switch_arms_become_regions() {
        let l = lowered(
            "void f(int s) { switch (s) { case 0: a0(); break; case 1: a1(); break; default: d(); break; } }",
        );
        let kinds: Vec<_> = l
            .regions
            .root()
            .children
            .iter()
            .map(|c| l.regions.region(*c).kind)
            .collect();
        assert_eq!(kinds.len(), 3);
        assert!(matches!(kinds[0], RegionKind::Case(_, 0)));
        assert!(matches!(kinds[1], RegionKind::Case(_, 1)));
        assert!(matches!(kinds[2], RegionKind::Default(_)));
    }

    #[test]
    fn region_kind_owner() {
        assert_eq!(RegionKind::FunctionBody.owner(), None);
        assert_eq!(RegionKind::Then(StmtId(3)).owner(), Some(StmtId(3)));
        assert_eq!(RegionKind::Case(StmtId(4), 7).owner(), Some(StmtId(4)));
    }
}
