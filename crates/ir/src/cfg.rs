//! Control-flow analyses: predecessors, orderings, dominators, natural loops.

use crate::func::Function;
use crate::inst::{BlockId, Terminator};

/// Predecessor lists for every block.
pub fn predecessors(f: &Function) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); f.blocks.len()];
    for (id, b) in f.iter_blocks() {
        b.term.for_each_successor(|s| preds[s.0 as usize].push(id));
    }
    preds
}

/// Successor `i` of a terminator, in branch order.
fn successor(term: &Terminator, i: usize) -> Option<BlockId> {
    match (term, i) {
        (Terminator::Jump(b), 0) | (Terminator::Branch { t: b, .. }, 0) => Some(*b),
        (Terminator::Branch { f: b, .. }, 1) => Some(*b),
        _ => None,
    }
}

/// Reverse postorder over reachable blocks, starting at the entry.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry, 0)];
    visited[f.entry.0 as usize] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if let Some(s) = successor(&f.block(b).term, *i) {
            *i += 1;
            if !visited[s.0 as usize] {
                visited[s.0 as usize] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Reachability bitmap from the entry block.
pub fn reachable(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    for b in reverse_postorder(f) {
        seen[b.0 as usize] = true;
    }
    seen
}

/// Immediate-dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
///
/// `idom[entry] == entry`; unreachable blocks get `None`.
pub fn dominators(f: &Function) -> Vec<Option<BlockId>> {
    let rpo = reverse_postorder(f);
    let mut rpo_index = vec![usize::MAX; f.blocks.len()];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[b.0 as usize] = i;
    }
    let preds = predecessors(f);
    let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    idom[f.entry.0 as usize] = Some(f.entry);

    let intersect = |mut a: BlockId, mut b: BlockId, idom: &[Option<BlockId>]| -> BlockId {
        while a != b {
            while rpo_index[a.0 as usize] > rpo_index[b.0 as usize] {
                a = idom[a.0 as usize].expect("processed");
            }
            while rpo_index[b.0 as usize] > rpo_index[a.0 as usize] {
                b = idom[b.0 as usize].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.0 as usize] {
                if idom[p.0 as usize].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(cur, p, &idom),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.0 as usize] != Some(ni) {
                    idom[b.0 as usize] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

/// Whether `a` dominates `b` under the given idom tree.
pub fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.0 as usize] {
            Some(p) if p != cur => cur = p,
            _ => return cur == a,
        }
    }
}

/// A natural loop discovered from a back edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Loop header (dominates every block in the loop).
    pub header: BlockId,
    /// Source of the back edge (`latch -> header`).
    pub latch: BlockId,
    /// All blocks in the loop, header first.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether the loop contains `b`.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// Find all natural loops (one per back edge; loops sharing a header are
/// reported separately).
pub fn natural_loops(f: &Function) -> Vec<NaturalLoop> {
    let idom = dominators(f);
    let reach = reachable(f);
    let preds = predecessors(f);
    let mut loops = Vec::new();
    let mut in_body = vec![false; f.blocks.len()];
    for (id, b) in f.iter_blocks() {
        if !reach[id.0 as usize] {
            continue;
        }
        b.term.for_each_successor(|s| {
            // Back edge: successor dominates the source.
            if !dominates(&idom, s, id) {
                return;
            }
            // Collect the loop body by walking predecessors from the latch.
            let (header, latch) = (s, id);
            in_body.fill(false);
            in_body[header.0 as usize] = true;
            let mut body = vec![header];
            let mut stack = vec![latch];
            while let Some(x) = stack.pop() {
                if std::mem::replace(&mut in_body[x.0 as usize], true) {
                    continue;
                }
                body.push(x);
                stack.extend_from_slice(&preds[x.0 as usize]);
            }
            loops.push(NaturalLoop {
                header,
                latch,
                blocks: body,
            });
        });
    }
    // Deterministic order: by header, then latch.
    loops.sort_by_key(|l| (l.header, l.latch));
    loops
}

/// Per-block loop-nesting depth (0 = not in any loop).
pub fn loop_depth(f: &Function) -> Vec<u32> {
    let loops = natural_loops(f);
    let mut depth = vec![0u32; f.blocks.len()];
    for l in &loops {
        for b in &l.blocks {
            depth[b.0 as usize] += 1;
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Block, Function};
    use crate::inst::{Terminator, VReg, Val};

    /// Build the classic diamond-with-loop CFG:
    /// bb0 -> bb1; bb1 -> bb2 | bb4; bb2 -> bb3; bb3 -> bb1 (latch); bb4 ret.
    fn looped() -> Function {
        let mut f = Function::new("t", 0, false);
        f.num_vregs = 1;
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let b4 = f.new_block();
        f.blocks[0] = Block {
            insts: vec![],
            term: Terminator::Jump(b1),
        };
        f.block_mut(b1).term = Terminator::Branch {
            c: Val::Reg(VReg(0)),
            t: b2,
            f: b4,
        };
        f.block_mut(b2).term = Terminator::Jump(b3);
        f.block_mut(b3).term = Terminator::Jump(b1);
        f.block_mut(b4).term = Terminator::Ret(None);
        f
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = looped();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 5);
    }

    #[test]
    fn preds_computed() {
        let f = looped();
        let p = predecessors(&f);
        assert_eq!(p[1].len(), 2, "bb1 has entry and latch as preds");
        assert_eq!(p[0].len(), 0);
    }

    #[test]
    fn dominator_tree_correct() {
        let f = looped();
        let idom = dominators(&f);
        assert_eq!(idom[1], Some(BlockId(0)));
        assert_eq!(idom[2], Some(BlockId(1)));
        assert_eq!(idom[3], Some(BlockId(2)));
        assert_eq!(idom[4], Some(BlockId(1)));
        assert!(dominates(&idom, BlockId(0), BlockId(3)));
        assert!(dominates(&idom, BlockId(1), BlockId(4)));
        assert!(!dominates(&idom, BlockId(2), BlockId(4)));
    }

    #[test]
    fn loop_discovered() {
        let f = looped();
        let loops = natural_loops(&f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latch, BlockId(3));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(4)));
        assert!(!l.contains(BlockId(0)));
    }

    #[test]
    fn loop_depth_counts_nesting() {
        let f = looped();
        let d = loop_depth(&f);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[4], 0);
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let mut f = looped();
        let dead = f.new_block();
        f.block_mut(dead).term = Terminator::Ret(None);
        let idom = dominators(&f);
        assert_eq!(idom[dead.0 as usize], None);
        assert!(!reachable(&f)[dead.0 as usize]);
    }
}
