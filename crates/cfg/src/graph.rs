//! The control-flow graph container.

use crate::block::{BasicBlock, BlockId, BlockKind, Terminator};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use tmg_minic::ast::StmtId;

/// Control-flow graph of one analysed function.
///
/// Blocks are stored densely; [`BlockId`] indexes into the block table.  The
/// graph always contains one virtual [`BlockKind::Entry`] block and one
/// virtual [`BlockKind::Exit`] block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cfg {
    /// Name of the function this CFG was built from.
    pub function: String,
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    exit: BlockId,
    preds: Vec<Vec<BlockId>>,
    loop_bounds: FxHashMap<StmtId, u32>,
}

impl Cfg {
    /// Assembles a CFG from parts; used by the builder.  Predecessor lists
    /// are computed here from the blocks' terminators.
    pub fn from_parts(
        function: String,
        blocks: Vec<BasicBlock>,
        entry: BlockId,
        exit: BlockId,
        loop_bounds: FxHashMap<StmtId, u32>,
    ) -> Cfg {
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); blocks.len()];
        for b in &blocks {
            for succ in b.terminator.successors() {
                preds[succ.index()].push(b.id);
            }
        }
        Cfg {
            function,
            blocks,
            entry,
            exit,
            preds,
            loop_bounds,
        }
    }

    /// The virtual entry block (the paper's `start` node).
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The virtual exit block (the paper's `end` node).
    pub fn exit(&self) -> BlockId {
        self.exit
    }

    /// Access a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this CFG.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All blocks in id order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Number of blocks including the virtual entry and exit.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Successors of a block.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).terminator.successors()
    }

    /// Predecessors of a block.
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// Declared bound of the loop whose condition is statement `stmt`.
    pub fn loop_bound(&self, stmt: StmtId) -> Option<u32> {
        self.loop_bounds.get(&stmt).copied()
    }

    /// All loop bounds, keyed by the loop statement.
    pub fn loop_bounds(&self) -> &FxHashMap<StmtId, u32> {
        &self.loop_bounds
    }

    /// The *measurable units* of the CFG: every block except the virtual exit
    /// node.  For path bound `b = 1` the paper instruments each of these with
    /// two instrumentation points and measures each once, which is exactly how
    /// Table 1's `ip = 22`, `m = 11` for the 11-node Figure-1 CFG arise.
    pub fn measurable_units(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|b| b.kind != BlockKind::Exit)
            .map(|b| b.id)
            .collect()
    }

    /// Blocks in reverse post-order from the entry (a topological-ish order
    /// that visits loop headers before their bodies).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        self.dfs_post(self.entry, &mut visited, &mut post);
        post.reverse();
        post
    }

    fn dfs_post(&self, id: BlockId, visited: &mut [bool], post: &mut Vec<BlockId>) {
        if visited[id.index()] {
            return;
        }
        visited[id.index()] = true;
        for succ in self.successors(id) {
            self.dfs_post(succ, visited, post);
        }
        post.push(id);
    }

    /// Blocks reachable from the entry (every well-formed CFG should have all
    /// blocks reachable, but dead code elimination in generators may leave
    /// stragglers).
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        self.dfs_post(self.entry, &mut visited, &mut post);
        post.sort_unstable();
        post
    }

    /// Number of conditional branch decisions (2-way branches count 1,
    /// `switch` terminators count `arms`, matching "conditional branches" in
    /// the paper's Section 2.3 statistics).
    pub fn conditional_branch_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match &b.terminator {
                Terminator::Branch { .. } => 1,
                Terminator::Switch { arms, .. } => arms.len(),
                _ => 0,
            })
            .sum()
    }

    /// Consistency check used by tests and debug assertions: every successor
    /// and predecessor id is valid, the entry has no predecessors and the
    /// exit has no successors.
    pub fn validate(&self) -> Result<(), String> {
        for b in &self.blocks {
            for s in b.terminator.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!("block {} has out-of-range successor {s}", b.id));
                }
            }
        }
        if !self.predecessors(self.entry).is_empty() {
            return Err("entry block has predecessors".to_owned());
        }
        if !self.successors(self.exit).is_empty() {
            return Err("exit block has successors".to_owned());
        }
        if self.block(self.entry).kind != BlockKind::Entry {
            return Err("entry block has wrong kind".to_owned());
        }
        if self.block(self.exit).kind != BlockKind::Exit {
            return Err("exit block has wrong kind".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_cfg;
    use tmg_minic::parse_function;

    fn lower(src: &str) -> Cfg {
        build_cfg(&parse_function(src).expect("parse")).cfg
    }

    #[test]
    fn straight_line_code_is_one_block_plus_entry_exit() {
        let cfg = lower("void f() { a1(); a2(); a3(); }");
        assert_eq!(cfg.block_count(), 3);
        assert_eq!(cfg.measurable_units().len(), 2);
        cfg.validate().expect("valid");
    }

    #[test]
    fn predecessors_and_successors_are_consistent() {
        let cfg = lower("void f(int a) { if (a) { x1(); } else { x2(); } x3(); }");
        cfg.validate().expect("valid");
        for b in cfg.blocks() {
            for s in cfg.successors(b.id) {
                assert!(cfg.predecessors(s).contains(&b.id));
            }
        }
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_reachable_blocks() {
        let cfg = lower("void f(int a) { if (a) { x1(); } x2(); }");
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry());
        assert_eq!(rpo.len(), cfg.reachable_blocks().len());
    }

    #[test]
    fn conditional_branch_count_counts_switch_arms() {
        let cfg = lower(
            "void f(int s) { switch (s) { case 0: a0(); break; case 1: a1(); break; default: d(); break; } }",
        );
        assert_eq!(cfg.conditional_branch_count(), 2);
        let cfg = lower("void f(int a) { if (a) { x(); } }");
        assert_eq!(cfg.conditional_branch_count(), 1);
    }

    #[test]
    fn loop_bounds_are_recorded() {
        let cfg = lower("void f(int n) { int i; i = 0; while (i < n) __bound(8) { i = i + 1; } }");
        assert_eq!(cfg.loop_bounds().len(), 1);
        let (stmt, bound) = cfg
            .loop_bounds()
            .iter()
            .next()
            .map(|(s, b)| (*s, *b))
            .expect("one loop");
        assert_eq!(bound, 8);
        assert_eq!(cfg.loop_bound(stmt), Some(8));
    }
}
