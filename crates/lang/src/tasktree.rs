//! The dynamic task tree, which doubles as the heap hierarchy of the
//! formal semantics: each task owns the objects it allocates, `par`
//! extends the tree with a child per branch (one, when the right branch
//! runs in its left sibling's heap), and a join merges the children into
//! the parent.

/// A task (equivalently, heap) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub usize);

#[derive(Clone, Debug)]
struct TNode {
    parent: usize,
    depth: u16,
    merged_into: usize,
}

/// The task tree with union-find merging (mirrors the runtime's O(1)
/// joins).
#[derive(Clone, Debug, Default)]
pub struct TaskTree {
    nodes: Vec<TNode>,
}

impl TaskTree {
    /// Creates a tree containing only the root task.
    pub fn new() -> (TaskTree, TaskId) {
        let t = TaskTree {
            nodes: vec![TNode {
                parent: 0,
                depth: 0,
                merged_into: 0,
            }],
        };
        (t, TaskId(0))
    }

    /// Adds one child task (heap) under `parent`: a fork branch, or a
    /// future, whose parent keeps running concurrently with it.
    pub fn child(&mut self, parent: TaskId) -> TaskId {
        let p = self.find(parent).0;
        let depth = self.nodes[p].depth + 1;
        let c = self.nodes.len();
        self.nodes.push(TNode {
            parent: p,
            depth,
            merged_into: c,
        });
        TaskId(c)
    }

    /// Merges a completed future's heap into its parent (no sibling — the
    /// single-child analogue of [`TaskTree::join`]).
    pub fn absorb(&mut self, child: TaskId) {
        let c = self.find(child).0;
        let p = self.find(TaskId(self.nodes[c].parent)).0;
        debug_assert_ne!(c, p, "cannot absorb the root");
        self.nodes[c].merged_into = p;
    }

    /// Merges both children into `parent` (the join). The two may be one
    /// task id: a right branch that ran in its left sibling's heap.
    pub fn join(&mut self, parent: TaskId, left: TaskId, right: TaskId) {
        let p = self.find(parent).0;
        for c in [left, right] {
            let c = self.find(c).0;
            if c == p {
                continue; // the shared heap, merged on the first pass
            }
            debug_assert_eq!(self.nodes[c].parent, p, "join of a non-child");
            self.nodes[c].merged_into = p;
        }
    }

    /// Canonicalizes a task id through completed joins (path-compressing).
    pub fn find(&mut self, t: TaskId) -> TaskId {
        let mut cur = t.0;
        while self.nodes[cur].merged_into != cur {
            cur = self.nodes[cur].merged_into;
        }
        let mut walk = t.0;
        while walk != cur {
            let next = self.nodes[walk].merged_into;
            self.nodes[walk].merged_into = cur;
            walk = next;
        }
        TaskId(cur)
    }

    /// Depth of (the canonical representative of) `t`.
    pub fn depth(&mut self, t: TaskId) -> u16 {
        let c = self.find(t).0;
        self.nodes[c].depth
    }

    /// True if (canonical) `anc` lies on the root path of (canonical) `t`.
    /// This is the disentanglement test: an access from task `t` to an
    /// object owned by `o` is **local** iff `is_on_path(o, t)`.
    pub fn is_on_path(&mut self, anc: TaskId, t: TaskId) -> bool {
        let anc = self.find(anc).0;
        let mut cur = self.find(t).0;
        loop {
            if cur == anc {
                return true;
            }
            let p = self.nodes[cur].parent;
            let p = self.find(TaskId(p)).0;
            if p == cur {
                return false;
            }
            cur = p;
        }
    }

    /// Depth of the least common ancestor of two tasks — the entanglement
    /// level assigned when one accesses the other's object.
    pub fn lca_depth(&mut self, a: TaskId, b: TaskId) -> u16 {
        let mut a = self.find(a).0;
        let mut b = self.find(b).0;
        while a != b {
            let da = self.nodes[a].depth;
            let db = self.nodes[b].depth;
            if da >= db {
                a = self.find(TaskId(self.nodes[a].parent)).0;
            } else {
                b = self.find(TaskId(self.nodes[b].parent)).0;
            }
        }
        self.nodes[a].depth
    }

    /// Number of task ids ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree is empty (never: the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork(t: &mut TaskTree, parent: TaskId) -> (TaskId, TaskId) {
        (t.child(parent), t.child(parent))
    }

    #[test]
    fn fork_join_canonicalizes() {
        let (mut t, root) = TaskTree::new();
        let (l, r) = fork(&mut t, root);
        assert_eq!(t.depth(l), 1);
        assert!(t.is_on_path(root, l));
        assert!(!t.is_on_path(l, r), "siblings are not on each other's path");
        t.join(root, l, r);
        assert_eq!(t.find(l), root);
        assert!(t.is_on_path(l, root), "merged ids alias the parent");
    }

    #[test]
    fn a_shared_branch_heap_joins_once() {
        let (mut t, root) = TaskTree::new();
        let l = t.child(root);
        t.join(root, l, l);
        assert_eq!(t.find(l), root);
        assert_eq!(t.depth(l), 0);
    }

    #[test]
    fn lca_depth_of_cousins() {
        let (mut t, root) = TaskTree::new();
        let (l, r) = fork(&mut t, root);
        let (ll, _lr) = fork(&mut t, l);
        let (rl, _rr) = fork(&mut t, r);
        assert_eq!(t.lca_depth(ll, rl), 0, "cousins meet at the root");
        assert_eq!(t.lca_depth(ll, l), 1);
        assert_eq!(t.lca_depth(ll, ll), 2);
    }

    #[test]
    fn child_and_absorb() {
        let (mut t, root) = TaskTree::new();
        let f = t.child(root);
        assert_eq!(t.depth(f), 1);
        assert!(t.is_on_path(root, f), "the future is under its creator");
        assert!(!t.is_on_path(f, root), "but not vice versa");
        t.absorb(f);
        assert_eq!(t.find(f), root, "absorbed into the creator");
        assert!(t.is_on_path(f, root), "its objects are now the creator's");
    }

    #[test]
    fn future_under_fork_absorbs_into_the_branch() {
        let (mut t, root) = TaskTree::new();
        let (l, r) = fork(&mut t, root);
        let f = t.child(l);
        assert!(!t.is_on_path(f, r), "siblings cannot see the future's heap");
        assert_eq!(t.lca_depth(f, r), 0, "they meet at the root");
        t.absorb(f);
        assert_eq!(t.find(f), t.find(l));
    }

    #[test]
    fn path_through_merged_nodes() {
        let (mut t, root) = TaskTree::new();
        let (l, r) = fork(&mut t, root);
        let (ll, lr) = fork(&mut t, l);
        t.join(l, ll, lr);
        // ll merged into l; objects owned by ll are now on the path of
        // any descendant of l.
        let (l2, _r2) = fork(&mut t, l);
        assert!(t.is_on_path(ll, l2));
        assert!(!t.is_on_path(ll, r));
    }
}
