//! The [`Cfg`] data structure: basic blocks, edges and traversals.

use multiscalar_isa::{Addr, FuncId, Program};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Index of a basic block within one function's [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How an intra-function edge is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential fall-through (including a not-taken conditional branch).
    FallThrough,
    /// Taken side of a conditional branch.
    Taken,
    /// Unconditional direct jump.
    Jump,
    /// One resolved case of an indirect jump (from builder metadata).
    IndirectCase,
    /// Continuation after a call returns (the edge from a call block to the
    /// block at the return address).
    CallReturn,
}

/// A directed intra-function edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Destination block.
    pub to: BlockId,
    /// Why control flows along this edge.
    pub kind: EdgeKind,
}

/// Classification of the instruction that ends a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Conditional branch: taken target plus fall-through.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump. `resolved` is `true` if builder metadata lists its
    /// possible targets (they appear as [`EdgeKind::IndirectCase`] edges).
    IndirectJump {
        /// Whether the builder declared the jump's possible targets.
        resolved: bool,
    },
    /// Direct call (control leaves the function and returns to the next
    /// instruction).
    Call {
        /// The callee's entry address.
        target: Addr,
    },
    /// Indirect call.
    IndirectCall,
    /// Return from the function.
    Return,
    /// Program halt.
    Halt,
    /// The block ends because the next instruction is a leader (pure
    /// fall-through, no control instruction).
    FallThrough,
}

/// A maximal straight-line sequence of instructions with a single entry at
/// its first instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    pub(crate) range: Range<u32>,
    pub(crate) terminator: Terminator,
    pub(crate) succs: Vec<Edge>,
    pub(crate) preds: Vec<BlockId>,
}

impl BasicBlock {
    /// First instruction address.
    pub fn start(&self) -> Addr {
        Addr(self.range.start)
    }

    /// Address one past the last instruction.
    pub fn end(&self) -> Addr {
        Addr(self.range.end)
    }

    /// Address of the last (terminating) instruction.
    pub fn last(&self) -> Addr {
        Addr(self.range.end - 1)
    }

    /// Half-open instruction range.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// `true` if the block is empty (never happens in a built CFG).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The block's terminator classification.
    pub fn terminator(&self) -> Terminator {
        self.terminator
    }

    /// Outgoing intra-function edges.
    pub fn succs(&self) -> &[Edge] {
        &self.succs
    }

    /// Predecessor blocks.
    pub fn preds(&self) -> &[BlockId] {
        &self.preds
    }
}

/// The control-flow graph of a single function.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub(crate) func: FuncId,
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) entry: BlockId,
    pub(crate) by_start: HashMap<u32, BlockId>,
}

impl Cfg {
    /// Builds the CFG for `func` in `program`.
    ///
    /// Equivalent to [`crate::build_cfg`].
    pub fn build(program: &Program, func: FuncId) -> Cfg {
        crate::build::build_cfg(program, func)
    }

    /// The function this graph describes.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// All blocks, ordered by start address.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The entry block (function entry).
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Looks up a block by its start address.
    pub fn block_at(&self, addr: Addr) -> Option<BlockId> {
        self.by_start.get(&addr.0).copied()
    }

    /// The block *containing* `addr` (not necessarily starting there).
    pub fn block_containing(&self, addr: Addr) -> Option<BlockId> {
        // Blocks are sorted by range start.
        let idx = self
            .blocks
            .partition_point(|b| b.range.start <= addr.0)
            .checked_sub(1)?;
        self.blocks[idx]
            .range
            .contains(&addr.0)
            .then_some(BlockId(idx as u32))
    }

    /// Block ids in reverse postorder from the entry. Unreachable blocks are
    /// appended afterwards in address order.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (block, next-succ-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = &self.blocks[b.index()].succs;
            if *i < succs.len() {
                let next = succs[*i].to;
                *i += 1;
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                post.push(BlockId(i as u32));
            }
        }
        post
    }

    /// Number of blocks reachable from the entry.
    pub fn reachable_count(&self) -> usize {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        seen[self.entry.index()] = true;
        let mut n = 0;
        while let Some(b) = stack.pop() {
            n += 1;
            for e in &self.blocks[b.index()].succs {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    stack.push(e.to);
                }
            }
        }
        n
    }

    /// Computes the dominator tree (see [`crate::Dominators`]).
    pub fn dominators(&self) -> crate::Dominators {
        crate::Dominators::compute(self)
    }

    /// Finds all natural loops (see [`crate::LoopInfo`]).
    pub fn natural_loops(&self) -> Vec<crate::NaturalLoop> {
        crate::LoopInfo::compute(self).into_loops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};

    fn diamond() -> (Program, Cfg) {
        // if (r1 == 0) r2 = 1 else r2 = 2; halt
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let then_ = b.new_label();
        let join = b.new_label();
        b.branch(Cond::Eq, Reg(1), Reg(0), then_);
        b.load_imm(Reg(2), 2);
        b.jump(join);
        b.bind(then_);
        b.load_imm(Reg(2), 1);
        b.bind(join);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let cfg = Cfg::build(&p, p.entry_function());
        (p, cfg)
    }

    #[test]
    fn diamond_has_four_blocks() {
        let (_p, cfg) = diamond();
        assert_eq!(cfg.blocks().len(), 4);
        let entry = cfg.block(cfg.entry());
        assert_eq!(entry.terminator(), Terminator::CondBranch);
        assert_eq!(entry.succs().len(), 2);
        let kinds: Vec<_> = entry.succs().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Taken));
        assert!(kinds.contains(&EdgeKind::FallThrough));
    }

    #[test]
    fn preds_are_inverse_of_succs() {
        let (_p, cfg) = diamond();
        for (i, b) in cfg.blocks().iter().enumerate() {
            for e in b.succs() {
                assert!(
                    cfg.block(e.to).preds().contains(&BlockId(i as u32)),
                    "missing pred {} -> {}",
                    i,
                    e.to
                );
            }
            for &p in b.preds() {
                assert!(cfg
                    .block(p)
                    .succs()
                    .iter()
                    .any(|e| e.to == BlockId(i as u32)));
            }
        }
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all_reachable() {
        let (_p, cfg) = diamond();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], cfg.entry());
        assert_eq!(rpo.len(), cfg.blocks().len());
        // In RPO, every edge that is not a back edge goes forward.
        let pos: HashMap<BlockId, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let join = cfg.blocks().len() - 1;
        assert_eq!(
            pos[&BlockId(join as u32)],
            cfg.blocks().len() - 1,
            "join block is last"
        );
    }

    #[test]
    fn block_containing_finds_interior_addresses() {
        let (_p, cfg) = diamond();
        let entry = cfg.block(cfg.entry());
        for a in entry.range() {
            assert_eq!(cfg.block_containing(Addr(a)), Some(cfg.entry()));
        }
        assert_eq!(cfg.block_containing(Addr(1000)), None);
    }

    #[test]
    fn call_splits_block_with_call_return_edge() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("f");
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.call_label(f);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let (mid, _) = p.function_by_name("main").unwrap();
        let cfg = Cfg::build(&p, mid);
        assert_eq!(cfg.blocks().len(), 2);
        let first = cfg.block(cfg.entry());
        assert!(matches!(first.terminator(), Terminator::Call { .. }));
        assert_eq!(first.succs().len(), 1);
        assert_eq!(first.succs()[0].kind, EdgeKind::CallReturn);
    }

    #[test]
    fn resolved_indirect_jump_produces_case_edges() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let c0 = b.new_label();
        let c1 = b.new_label();
        let table = b.alloc_label_table(&[c0, c1]);
        b.load_imm(Reg(1), table as i32);
        b.load(Reg(2), Reg(1), 0);
        b.jump_indirect_with_targets(Reg(2), &[c0, c1]);
        b.bind(c0);
        b.halt();
        b.bind(c1);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let cfg = Cfg::build(&p, p.entry_function());
        let entry = cfg.block(cfg.entry());
        assert_eq!(
            entry.terminator(),
            Terminator::IndirectJump { resolved: true }
        );
        assert_eq!(entry.succs().len(), 2);
        assert!(entry
            .succs()
            .iter()
            .all(|e| e.kind == EdgeKind::IndirectCase));
        assert_eq!(cfg.reachable_count(), 3);
    }
}
