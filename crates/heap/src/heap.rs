//! The heap hierarchy: one heap per fork-join task that may run beside
//! another, merged at joins.
//!
//! The tree of heaps mirrors the dynamic fork-join task tree. A task's heap
//! is created on first use ([`LazyHeap`]): a fork records where its
//! subtasks sit — one cell for both, unless the right one was stolen and
//! takes its own — and a join merges whichever children came to exist
//! into the parent. Merges are O(1) in the object graph: no objects are touched —
//! the child's identity is *unioned* into the parent (a concurrent
//! union-find over heap ids), and its block, remembered-set, and
//! entangled-object lists are spliced onto the parent's.
//!
//! Disentanglement, remoteness, and entanglement levels are all phrased in
//! terms of this tree:
//!
//! * a task's *path* is the root-to-leaf list of canonical heap ids;
//! * an object is **local** to a task iff its (canonical) heap is on the
//!   task's path, and **remote** otherwise;
//! * the **entanglement level** of a remote access is the depth of the
//!   least common ancestor of the task's leaf heap and the object's heap.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::block::{Block, NUM_SIZE_CLASSES};
use crate::budget::TenantBudget;
use crate::segtable::SegTable;
use crate::value::ObjRef;

/// A remembered-set entry: `src.field` holds a down-pointer into the heap
/// owning the remembered set. The local collector uses these as roots and
/// repairs them after evacuation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemsetEntry {
    /// The object containing the down-pointer (in a shallower heap).
    pub src: ObjRef,
    /// The field index within `src`.
    pub field: u32,
}

/// One node of the heap tree. Everything but `state` is fixed at creation
/// or a single atomic word, so the tree is walked without locks; a merged
/// heap is just this node — its [`HeapState`] moved into the parent.
#[derive(Debug)]
pub struct HeapInfo {
    merged_into: AtomicU32,
    parent: u32,
    depth: u16,
    /// The tenant budget this heap's live bytes are accounted against:
    /// given to a tenant's root heap and inherited by every child at fork.
    budget: Option<Arc<TenantBudget>>,
    /// `None` once the heap has been joined into its parent. The join
    /// publishes `merged_into` while holding this lock, so whoever finds
    /// `None` here re-canonicalizes and lands on a live heap.
    state: Mutex<Option<Box<HeapState>>>,
}

/// What a live heap owns, under its one lock.
#[derive(Debug, Default)]
pub struct HeapState {
    /// Ids of the blocks attributed to this heap.
    pub blocks: Vec<u32>,
    /// The current bump-allocation block of each size class.
    pub alloc_blocks: [Option<Arc<Block>>; NUM_SIZE_CLASSES],
    /// Down-pointers into this heap.
    pub remset: Vec<RemsetEntry>,
    /// Pinned objects homed here, bucketed by a level no lower than the
    /// pin's current one (pin levels only fall), so a join at depth `d`
    /// only touches buckets `>= d` — the pins that can end there.
    entangled: Vec<Vec<ObjRef>>,
}

impl HeapState {
    /// Indexes a pinned object homed in this heap under its pin level.
    pub fn add_entangled(&mut self, r: ObjRef, level: u16) {
        let idx = level as usize;
        if self.entangled.len() <= idx {
            self.entangled.resize_with(idx + 1, Vec::new);
        }
        self.entangled[idx].push(r);
    }

    /// Drains every entangled-object entry with the level it was filed
    /// under (collections rebuild the index).
    pub fn take_entangled(&mut self) -> Vec<(ObjRef, u16)> {
        let mut out = Vec::new();
        for (level, bucket) in self.entangled.iter_mut().enumerate() {
            out.extend(bucket.drain(..).map(|r| (r, level as u16)));
        }
        out
    }

    /// Drains the entries indexed at level `>= depth`: the candidates for
    /// unpinning at a join of that depth.
    fn take_entangled_from(&mut self, depth: u16) -> Vec<ObjRef> {
        let mut out = Vec::new();
        for bucket in self.entangled.iter_mut().skip(depth as usize) {
            out.append(bucket);
        }
        out
    }

    /// Drops the entries `keep` rejects, in place. Unlike a take/re-add
    /// round trip the index is never observably missing its live entries,
    /// so a concurrent local collection's registry re-take cannot come up
    /// empty mid-prune and kill the referents of still-pinned objects.
    pub fn retain_entangled(&mut self, mut keep: impl FnMut(ObjRef) -> bool) {
        for bucket in self.entangled.iter_mut() {
            bucket.retain(|r| keep(*r));
        }
    }

    /// Current number of entangled-object entries.
    pub fn entangled_len(&self) -> usize {
        self.entangled.iter().map(Vec::len).sum()
    }

    /// Splices a joined child's lists onto this heap's (the child's block
    /// list is copied, not drained: the join hands it to its caller). The
    /// child's allocation blocks are not taken over: those bump cursors
    /// belonged to the finished task.
    fn absorb(&mut self, child: &mut HeapState) {
        self.blocks.extend_from_slice(&child.blocks);
        self.remset.append(&mut child.remset);
        if self.entangled.len() < child.entangled.len() {
            self.entangled.resize_with(child.entangled.len(), Vec::new);
        }
        for (mine, theirs) in self.entangled.iter_mut().zip(&mut child.entangled) {
            mine.append(theirs);
        }
    }
}

impl HeapInfo {
    /// The heap's depth in the hierarchy (root = 0).
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// The tenant budget this heap is accounted against, if any.
    pub fn budget(&self) -> Option<&Arc<TenantBudget>> {
        self.budget.as_ref()
    }

    /// Runs `f` on the heap's state under its lock, or returns `None` if
    /// the heap has been merged. `f` must not take another heap's lock.
    pub fn try_with<R>(&self, f: impl FnOnce(&mut HeapState) -> R) -> Option<R> {
        self.state.lock().as_deref_mut().map(f)
    }

    /// [`HeapInfo::try_with`] for the task that owns the heap (its leaf,
    /// or the parent it is joining into), which knows it is live.
    ///
    /// # Panics
    ///
    /// Panics if the heap has been merged.
    pub fn with<R>(&self, f: impl FnOnce(&mut HeapState) -> R) -> R {
        self.try_with(f).expect("state of a merged heap")
    }
}

/// The tree of all heaps, with union-find merging. Append-only and
/// lock-free to read; the only locks are the per-heap state locks, and no
/// two of them are ever held at once.
#[derive(Debug, Default)]
pub struct HeapTable {
    nodes: SegTable<OnceLock<HeapInfo>>,
    next: AtomicU32,
}

impl HeapTable {
    /// Creates an empty table.
    pub fn new() -> HeapTable {
        HeapTable::default()
    }

    fn push(&self, parent: Option<u32>, depth: u16, budget: Option<Arc<TenantBudget>>) -> u32 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert_ne!(id, u32::MAX, "heap id overflow");
        let node = HeapInfo {
            merged_into: AtomicU32::new(id),
            parent: parent.unwrap_or(id),
            depth,
            budget,
            state: Mutex::new(Some(Box::default())),
        };
        let fresh = self.nodes.get_or_grow(id).set(node).is_ok();
        assert!(fresh, "heap id {id} issued twice");
        id
    }

    /// Creates a root heap (depth 0, its own parent), accounted against
    /// `budget` along with every heap later forked under it.
    pub fn new_root(&self, budget: Option<Arc<TenantBudget>>) -> u32 {
        self.push(None, 0, budget)
    }

    /// Creates one child heap of `parent`: a level deeper, accounted
    /// against the same budget.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not canonical (merged heaps cannot fork).
    pub fn child(&self, parent: u32) -> u32 {
        let (canon, info) = self.find_node(parent);
        assert_eq!(canon, parent, "fork from a merged heap");
        self.push(Some(parent), info.depth + 1, info.budget.clone())
    }

    /// Creates the two child heaps of a fork.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not canonical (merged heaps cannot fork).
    pub fn fork(&self, parent: u32) -> (u32, u32) {
        (self.child(parent), self.child(parent))
    }

    /// Returns the node for a (raw or canonical) id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn info(&self, id: u32) -> &HeapInfo {
        self.nodes
            .get(id)
            .and_then(OnceLock::get)
            .unwrap_or_else(|| panic!("unknown heap id {id}"))
    }

    /// Canonicalizes a heap id through completed merges, with path
    /// compression.
    pub fn find(&self, id: u32) -> u32 {
        self.find_node(id).0
    }

    /// [`HeapTable::find`], handing back the canonical heap's node too (the
    /// walk ends on it; callers that go on to read it skip a lookup).
    fn find_node(&self, id: u32) -> (u32, &HeapInfo) {
        let (mut root, mut node, mut hops) = (id, self.info(id), 0);
        loop {
            let next = node.merged_into.load(Ordering::Acquire);
            if next == root {
                break;
            }
            (root, node, hops) = (next, self.info(next), hops + 1);
        }
        if hops > 1 {
            self.compress(id, root);
        }
        (root, node)
    }

    /// Repoints the nodes on `id`'s chain that are more than one hop below
    /// `root`. Another thread's `find` may have seen a later root and
    /// compressed this chain past ours meanwhile, so "below" is decided by
    /// depth (fixed at creation), not by where the chain leads: a node is
    /// only ever pointed at a strictly shallower one, which is what keeps
    /// the forest acyclic.
    fn compress(&self, id: u32, root: u32) {
        let root_depth = self.info(root).depth;
        let mut cur = id;
        loop {
            let node = self.info(cur);
            let next = node.merged_into.load(Ordering::Acquire);
            if self.info(next).depth <= root_depth {
                break;
            }
            node.merged_into.store(root, Ordering::Release);
            cur = next;
        }
    }

    /// True if `id` names a heap that has not been merged away. (An id a
    /// racing fork has drawn but not yet filled in reads as absent.)
    pub fn is_canonical(&self, id: u32) -> bool {
        let node = self.nodes.get(id).and_then(OnceLock::get);
        node.is_some_and(|n| n.merged_into.load(Ordering::Acquire) == id)
    }

    /// Canonical parent of a canonical heap id (itself for a root).
    pub fn parent_of(&self, id: u32) -> u32 {
        self.find(self.info(id).parent)
    }

    /// One step up from a canonical heap that must have a parent.
    fn climb(&self, id: u32, node: &HeapInfo) -> (u32, &HeapInfo) {
        let up = self.find_node(node.parent);
        assert_ne!(up.0, id, "no common ancestor: disjoint heap forests");
        up
    }

    /// Runs `f` on the state of the canonical heap for `id`. A join that
    /// takes the state between the `find` and the lock published
    /// `merged_into` under that same lock, so the next `find` moves on:
    /// whatever `f` adds lands on a live heap, never in a merged node.
    fn with_live_state<R>(&self, id: u32, f: impl FnOnce(&mut HeapState) -> R) -> R {
        loop {
            if let Some(state) = self.info(self.find(id)).state.lock().as_deref_mut() {
                return f(state);
            }
        }
    }

    /// Indexes a pinned object on the canonical heap for `heap`.
    pub fn register_entangled(&self, heap: u32, r: ObjRef, level: u16) {
        self.with_live_state(heap, |s| s.add_entangled(r, level));
    }

    /// Records remembered-set entries on the canonical heap for `dst`.
    pub fn remember(&self, dst: u32, entries: &[RemsetEntry]) {
        self.with_live_state(dst, |s| s.remset.extend_from_slice(entries));
    }

    /// Joins the `children` a fork created into `parent`, O(1) in the
    /// object graph: each child's state is taken out under its lock and its
    /// id unioned into the parent's before the lock is released, then the
    /// lists are spliced onto the parent's. Returns the ids of the blocks
    /// that moved and the parent's index entries at level `>=` its depth —
    /// the pins this join can end. Applying the unpin rule is the caller's
    /// job (it needs object access).
    ///
    /// # Panics
    ///
    /// Panics unless every child's canonical parent is `parent`.
    pub fn join(
        &self,
        parent: u32,
        children: impl IntoIterator<Item = u32>,
    ) -> (Vec<u32>, Vec<ObjRef>) {
        let parent = self.find(parent);
        let mut merged = HeapState::default();
        for child in children {
            let child = self.find(child);
            assert!(
                child != parent && self.parent_of(child) == parent,
                "join requires a direct parent-child pair"
            );
            let node = self.info(child);
            let mut state = node.state.lock();
            merged.absorb(&mut state.take().expect("a canonical heap has state"));
            node.merged_into.store(parent, Ordering::Release);
        }
        let info = self.info(parent);
        let candidates = info.with(|p| {
            p.absorb(&mut merged);
            p.take_entangled_from(info.depth)
        });
        (merged.blocks, candidates)
    }

    /// Number of heap ids ever issued, merged heaps included.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }

    /// True if no heap has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the least common ancestor of two heaps.
    ///
    /// # Panics
    ///
    /// Panics if the heaps belong to disjoint forests.
    pub fn lca_of(&self, a: u32, b: u32) -> u16 {
        let ((mut a, mut na), (mut b, mut nb)) = (self.find_node(a), self.find_node(b));
        while a != b {
            // Climb from the deeper side (two distinct roots: `climb`
            // reports the disjoint forests).
            if na.depth >= nb.depth {
                (a, na) = self.climb(a, na);
            } else {
                (b, nb) = self.climb(b, nb);
            }
        }
        na.depth
    }

    /// Relates heap `h` to a task's `path` (its root-to-leaf canonical
    /// heap ids, indexed by depth): returns `h`'s canonical id and depth,
    /// and `None` if it lies on the path (local) or else the depth of its
    /// least common ancestor with the leaf (the entanglement level).
    pub fn path_relation(&self, path: &[u32], h: u32) -> (u32, u16, Option<u16>) {
        let (canon, canon_node) = self.find_node(h);
        let (mut cur, mut node) = (canon, canon_node);
        loop {
            let d = node.depth;
            let on_path = |&p: &u32| p == cur || self.find(p) == cur;
            if path.get(d as usize).is_some_and(on_path) {
                return (canon, canon_node.depth, (cur != canon).then_some(d));
            }
            (cur, node) = self.climb(cur, node);
        }
    }
}

/// The leaf id of a [`LazyHeap`] that has no heap yet. No heap is ever
/// issued this id, so no block is owned by it.
pub const NO_HEAP: u32 = u32::MAX;

/// A task's place in the heap tree, whose heap is created on first use.
///
/// A fork records only the child's parent cell, depth and inherited
/// budget. The task's [`HeapInfo`] is pushed the first time it needs its
/// leaf or its path ([`LazyHeap::path`]), after those of every ancestor
/// still without one, top-down: heap depth stays task depth, and the
/// heaps a task never uses are never issued. Descendants running on other
/// threads may materialise a suspended ancestor at once; the cell's
/// `OnceLock` lets exactly one of them push its node.
#[derive(Debug)]
pub struct LazyHeap<'a> {
    parent: Option<&'a LazyHeap<'a>>,
    depth: u16,
    budget: Option<&'a TenantBudget>,
    /// Once materialised, the root-to-leaf path of canonical heap ids,
    /// ending in the task's own (they stay canonical while the task runs:
    /// only joins above it, after it is done, merge them away).
    path: OnceLock<Box<[u32]>>,
}

impl<'a> LazyHeap<'a> {
    /// The cell of a task running on the existing root heap `id`.
    pub fn root(heaps: &'a HeapTable, id: u32) -> LazyHeap<'a> {
        let info = heaps.info(id);
        LazyHeap {
            parent: None,
            depth: info.depth,
            budget: info.budget().map(Arc::as_ref),
            path: OnceLock::from(Box::from([id])),
        }
    }

    /// The cell of a fork branch of `parent`'s task: no heap yet.
    #[inline]
    pub fn child(parent: &'a LazyHeap<'a>) -> LazyHeap<'a> {
        LazyHeap {
            parent: Some(parent),
            depth: parent.depth + 1,
            budget: parent.budget,
            path: OnceLock::new(),
        }
    }

    /// The task's depth in the tree (root = 0), which is its heap's.
    #[inline]
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// The tenant budget the task's heap is accounted against, if any.
    #[inline]
    pub fn budget(&self) -> Option<&'a TenantBudget> {
        self.budget
    }

    /// The task's heap id, or [`NO_HEAP`] before it has one.
    #[inline]
    pub fn leaf(&self) -> u32 {
        self.id().unwrap_or(NO_HEAP)
    }

    /// The task's heap id, if it has one.
    #[inline]
    pub fn id(&self) -> Option<u32> {
        self.path.get().and_then(|p| p.last().copied())
    }

    /// The task's root-to-leaf path of canonical heap ids, indexed by
    /// depth, pushing the heaps of this cell and its ancestors first if
    /// they have none yet.
    pub fn path(&self, heaps: &HeapTable) -> &[u32] {
        self.path.get_or_init(|| {
            let parent = self.parent.expect("a root cell starts materialised");
            let up = parent.path(heaps);
            let leaf = heaps.child(up[up.len() - 1]);
            up.iter().copied().chain([leaf]).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_fork_depths() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        assert_eq!(t.info(root).depth(), 0);
        assert_eq!(t.parent_of(root), root, "a root is its own parent");
        let (l, r) = t.fork(root);
        assert_eq!(t.info(l).depth(), 1);
        assert_eq!(t.info(r).depth(), 1);
        assert_eq!(t.parent_of(l), root);
        assert_eq!(t.parent_of(r), root);
        assert_ne!(l, r);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn join_unions_ids() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        assert!(t.is_canonical(l));
        t.join(root, [l, r]);
        assert_eq!(t.find(l), root);
        assert_eq!(t.find(r), root);
        assert!(!t.is_canonical(l) && t.is_canonical(root));
        assert!(!t.is_canonical(99), "never issued");
        let (_, depth, lca) = t.path_relation(&[root], l);
        assert_eq!((depth, lca), (0, None), "depth follows the canonical heap");
    }

    #[test]
    fn deep_merge_chain_compresses() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let mut leaf = root;
        let mut forks = Vec::new();
        for _ in 0..10 {
            let (l, r) = t.fork(leaf);
            forks.push((leaf, l, r));
            leaf = l;
        }
        for &(p, l, r) in forks.iter().rev() {
            t.join(p, [l, r]);
        }
        assert_eq!(t.find(leaf), root);
        // After compression the chain is one hop.
        assert_eq!(t.info(leaf).merged_into.load(Ordering::Relaxed), root);
    }

    /// Two `find`s race: one reads its root, stalls, and compresses only
    /// after a join and the other `find` have moved the chain past that
    /// root. Repointing whatever the chain leads to (as `find` once did)
    /// pointed the real root at a merged heap — a cycle, and every later
    /// `find` on it spun forever.
    #[test]
    fn compression_with_a_stale_root_keeps_the_forest_acyclic() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        let (lll, llr) = t.fork(ll);
        t.join(ll, [lll, llr]);
        let stale = ll; // what a stalled `find(lll)` saw as the root
        t.join(l, [ll, lr]);
        t.join(root, [l, r]);
        assert_eq!(t.find(lll), root, "the other find: lll now points at root");
        t.compress(lll, stale);
        for merged in [l, ll, lll] {
            let into = t.info(merged).merged_into.load(Ordering::Relaxed);
            assert!(
                t.info(into).depth < t.info(merged).depth,
                "{merged} -> {into}"
            );
        }
        assert!(t.is_canonical(root));
        assert_eq!(t.find(lll), root);
    }

    #[test]
    fn path_relation_tells_ancestors_from_strangers() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        let path = vec![root, l, ll];
        assert_eq!(t.path_relation(&path, root), (root, 0, None));
        assert_eq!(t.path_relation(&path, l), (l, 1, None));
        assert_eq!(t.path_relation(&path, ll), (ll, 2, None));
        assert_eq!(
            t.path_relation(&path, r),
            (r, 1, Some(0)),
            "sibling subtree meets at root"
        );
        assert_eq!(t.path_relation(&path, lr), (lr, 2, Some(1)));
        assert_eq!(t.path_relation(&[root, r], ll), (ll, 2, Some(0)));
        assert_eq!(t.lca_of(ll, lr), 1);
        assert_eq!(t.lca_of(ll, r), 0);
        assert_eq!(t.lca_of(l, ll), 1);
    }

    #[test]
    #[should_panic(expected = "disjoint heap forests")]
    fn lca_of_two_roots_panics() {
        let t = HeapTable::new();
        let (a, b) = (t.new_root(None), t.new_root(None));
        t.lca_of(a, b);
    }

    #[test]
    fn join_splices_block_lists() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        t.info(root).with(|s| s.blocks.push(0));
        t.info(l).with(|s| s.blocks.extend([1, 2]));
        t.info(r).with(|s| s.blocks.push(3));
        let (moved, candidates) = t.join(root, [l, r]);
        assert_eq!(moved, vec![1, 2, 3]);
        assert!(candidates.is_empty());
        assert_eq!(t.info(root).with(|s| s.blocks.clone()), vec![0, 1, 2, 3]);
        assert!(t.info(l).try_with(|_| ()).is_none(), "merged: no state");
    }

    #[test]
    #[should_panic(expected = "direct parent-child")]
    fn join_rejects_non_child() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, _r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        t.join(root, [ll, lr]);
    }

    #[test]
    fn remset_and_entangled_lists() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        let entry = RemsetEntry {
            src: ObjRef::new(0, 0),
            field: 1,
        };
        t.remember(l, &[entry]);
        assert_eq!(t.info(l).with(|s| s.remset.len()), 1);
        let drained = t.info(l).with(|s| std::mem::take(&mut s.remset));
        assert_eq!(drained, vec![entry]);
        t.info(l).with(|s| s.remset.extend(drained));

        t.register_entangled(l, ObjRef::new(0, 1), 0);
        t.register_entangled(l, ObjRef::new(0, 2), 3);
        t.register_entangled(r, ObjRef::new(0, 3), 1);
        t.info(l).with(|s| s.retain_entangled(|r| r.word() != 2));
        assert_eq!(t.info(l).with(|s| s.entangled_len()), 1);

        // The join carries both lists up; only entries at level >= the
        // parent's depth are handed back as unpin candidates.
        let (ll, lr) = t.fork(l);
        t.register_entangled(ll, ObjRef::new(0, 4), 1);
        let (_, candidates) = t.join(l, [ll, lr]);
        assert_eq!(candidates, vec![ObjRef::new(0, 4)], "level 0 stays indexed");
        let (_, candidates) = t.join(root, [l, r]);
        assert_eq!(candidates, vec![ObjRef::new(0, 1), ObjRef::new(0, 3)]);
        assert_eq!(t.info(root).with(|s| s.remset.clone()), vec![entry]);
        // Registering or remembering against a merged id lands on the
        // heap it was merged into.
        t.register_entangled(ll, ObjRef::new(0, 5), 0);
        t.remember(lr, &[entry]);
        let (pins, rems) = t.info(root).with(|s| (s.take_entangled(), s.remset.len()));
        assert_eq!((pins, rems), (vec![(ObjRef::new(0, 5), 0)], 2));
    }

    #[test]
    fn lazy_heaps_materialise_top_down_and_once() {
        let t = HeapTable::new();
        let b = TenantBudget::new("tenant", 4096);
        let root = t.new_root(Some(b.clone()));
        let top = LazyHeap::root(&t, root);
        let mid = LazyHeap::child(&top);
        let (leaf, idle) = (LazyHeap::child(&mid), LazyHeap::child(&mid));
        assert_eq!((leaf.depth(), leaf.leaf(), t.len()), (2, NO_HEAP, 1));
        assert!(
            std::ptr::eq(leaf.budget().unwrap(), &*b),
            "borrowed, not looked up"
        );
        let path = leaf.path(&t).to_vec();
        assert_eq!(t.len(), 3, "the parent's heap, then the leaf's");
        assert_eq!(path, [root, mid.id().unwrap(), leaf.leaf()]);
        assert_eq!(t.parent_of(path[2]), path[1]);
        assert_eq!(t.info(path[2]).depth(), 2);
        assert_eq!(leaf.path(&t), path, "a second call pushes nothing");
        assert_eq!((idle.id(), t.len()), (None, 3), "the idle sibling has none");
        // The join merges only the children that exist.
        t.join(path[1], leaf.id().into_iter().chain(idle.id()));
        assert_eq!(t.find(path[2]), path[1]);
    }

    #[test]
    fn fork_inherits_tenant_budget() {
        let t = HeapTable::new();
        let b = TenantBudget::new("tenant", 4096);
        let root = t.new_root(Some(b.clone()));
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        for h in [root, l, r, ll, lr] {
            let got = t.info(h).budget().expect("child inherits budget");
            assert!(Arc::ptr_eq(got, &b), "one shared budget per subtree");
        }
        // A different root stays unbudgeted, and so do its children.
        let other = t.new_root(None);
        assert!(t.info(other).budget().is_none());
        assert!(t.info(t.fork(other).0).budget().is_none());
    }
}
