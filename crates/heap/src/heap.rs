//! The heap hierarchy: one heap per fork-join task, merged at joins.
//!
//! The tree of heaps mirrors the dynamic fork-join task tree. A fork gives
//! the two subtasks fresh child heaps; a join merges both children into the
//! parent. Merges are O(1) in the object graph: no objects are touched —
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
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::block::{Block, NUM_SIZE_CLASSES};
use crate::budget::TenantBudget;
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

/// Per-heap bookkeeping.
#[derive(Debug)]
pub struct HeapInfo {
    id: u32,
    parent: u32,
    depth: u16,
    merged_into: AtomicU32,
    blocks: Mutex<Vec<u32>>,
    /// The current bump-allocation block of each size class.
    alloc_blocks: Mutex<[Option<Arc<Block>>; NUM_SIZE_CLASSES]>,
    remset: Mutex<Vec<RemsetEntry>>,
    /// Pinned objects homed here, bucketed by pin level so a join at
    /// depth `d` only touches entries with level `>= d` (entries whose
    /// pins could actually end there). Sealed at the join so racing
    /// registrations redirect to the parent (see
    /// [`HeapTable::register_entangled`]).
    entangled: Mutex<EntangledIndex>,
    /// The tenant budget this heap's live bytes are accounted against,
    /// if any. Set on a tenant's root heap and inherited by every child
    /// heap at fork; read only on cold paths (task setup, collections).
    budget: Mutex<Option<Arc<TenantBudget>>>,
}

/// The per-heap entangled-object index. `sealed_into` linearizes pin
/// registration against joins: once a join drains the index it seals it,
/// and concurrent registrations chase the seal to the surviving heap.
#[derive(Debug, Default)]
struct EntangledIndex {
    sealed_into: Option<u32>,
    buckets: Vec<Vec<ObjRef>>,
}

impl HeapInfo {
    /// This heap's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The heap's depth in the hierarchy (root = 0). Fixed at creation.
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// The raw id of the parent heap recorded at creation.
    pub fn parent(&self) -> u32 {
        self.parent
    }

    /// Ids of blocks currently attributed to this heap.
    pub fn block_ids(&self) -> Vec<u32> {
        self.blocks.lock().clone()
    }

    /// Appends a block id to this heap's block list.
    pub fn add_block(&self, id: u32) {
        self.blocks.lock().push(id);
    }

    /// Replaces the block list wholesale (used by the local collector after
    /// evacuation).
    pub fn set_blocks(&self, ids: Vec<u32>) {
        *self.blocks.lock() = ids;
    }

    /// The current bump-allocation block for a size class, if any.
    pub fn alloc_block(&self, class: usize) -> Option<Arc<Block>> {
        self.alloc_blocks.lock()[class].clone()
    }

    /// Installs a new bump-allocation block for a size class.
    pub fn set_alloc_block(&self, class: usize, b: Option<Arc<Block>>) {
        self.alloc_blocks.lock()[class] = b;
    }

    /// Drops every per-class allocation block (joins and collections).
    pub fn clear_alloc_blocks(&self) {
        *self.alloc_blocks.lock() = Default::default();
    }

    /// Records a down-pointer into this heap.
    pub fn remember(&self, entry: RemsetEntry) {
        self.remset.lock().push(entry);
    }

    /// Drains the remembered set (the local collector rebuilds it with the
    /// entries that remain valid).
    pub fn take_remset(&self) -> Vec<RemsetEntry> {
        std::mem::take(&mut self.remset.lock())
    }

    /// Restores remembered-set entries after a collection.
    pub fn extend_remset(&self, entries: impl IntoIterator<Item = RemsetEntry>) {
        self.remset.lock().extend(entries);
    }

    /// Current number of remembered entries.
    pub fn remset_len(&self) -> usize {
        self.remset.lock().len()
    }

    /// Registers a pinned (entangled) object homed in this heap, indexed
    /// by its pin level. Fails with the seal target if the index was
    /// sealed by a concurrent join — the caller must retry on that heap.
    pub fn try_add_entangled(&self, r: ObjRef, level: u16) -> Result<(), u32> {
        let mut index = self.entangled.lock();
        if let Some(into) = index.sealed_into {
            return Err(into);
        }
        let idx = level as usize;
        if index.buckets.len() <= idx {
            index.buckets.resize_with(idx + 1, Vec::new);
        }
        index.buckets[idx].push(r);
        Ok(())
    }

    /// Registers unconditionally (single-task contexts and tests). Chasing
    /// seals is [`HeapTable::register_entangled`]'s job.
    pub fn add_entangled(&self, r: ObjRef, level: u16) {
        self.try_add_entangled(r, level)
            .expect("add_entangled on a sealed index");
    }

    /// Drains every entangled-object entry (collections rebuild the index).
    pub fn take_entangled(&self) -> Vec<ObjRef> {
        let mut index = self.entangled.lock();
        let mut out = Vec::new();
        for b in index.buckets.iter_mut() {
            out.append(b);
        }
        out
    }

    /// Drops the entries `keep` rejects, in place. Unlike a take/re-add
    /// round trip the index is never observably missing its live entries,
    /// so a concurrent local collection's registry re-take cannot come up
    /// empty mid-prune and kill the referents of still-pinned objects.
    pub fn retain_entangled(&self, mut keep: impl FnMut(ObjRef) -> bool) {
        for b in self.entangled.lock().buckets.iter_mut() {
            b.retain(|r| keep(*r));
        }
    }

    /// Drains the whole index **and seals it**: subsequent registrations
    /// are redirected to `into`. Used exactly once, at the heap's join.
    pub fn drain_and_seal_entangled(&self, into: u32) -> Vec<ObjRef> {
        let mut index = self.entangled.lock();
        index.sealed_into = Some(into);
        let mut out = Vec::new();
        for b in index.buckets.iter_mut() {
            out.append(b);
        }
        out
    }

    /// Drains only the entries whose recorded level is `>= depth` — the
    /// candidates for unpinning at a join of that depth.
    pub fn take_entangled_at_or_below(&self, depth: u16) -> Vec<ObjRef> {
        let mut index = self.entangled.lock();
        let mut out = Vec::new();
        for b in index.buckets.iter_mut().skip(depth as usize) {
            out.append(b);
        }
        out
    }

    /// Restores entangled-object entries at level 0 (conservative: they
    /// will be revisited at every join until unpinned).
    pub fn extend_entangled(&self, entries: impl IntoIterator<Item = ObjRef>) {
        for r in entries {
            self.add_entangled(r, 0);
        }
    }

    /// Current number of entangled-object entries.
    pub fn entangled_len(&self) -> usize {
        self.entangled.lock().buckets.iter().map(|b| b.len()).sum()
    }

    /// The tenant budget this heap is accounted against, if any.
    pub fn budget(&self) -> Option<Arc<TenantBudget>> {
        self.budget.lock().clone()
    }

    /// Attaches (or clears) the tenant budget for this heap. Children
    /// created after this call inherit it; existing children are
    /// unaffected.
    pub fn set_budget(&self, budget: Option<Arc<TenantBudget>>) {
        *self.budget.lock() = budget;
    }
}

/// The table of all heaps, with union-find merging.
#[derive(Debug, Default)]
pub struct HeapTable {
    heaps: RwLock<Vec<Arc<HeapInfo>>>,
}

impl HeapTable {
    /// Creates an empty table.
    pub fn new() -> HeapTable {
        HeapTable::default()
    }

    fn push(&self, parent: u32, depth: u16, budget: Option<Arc<TenantBudget>>) -> u32 {
        let mut table = self.heaps.write();
        let id = u32::try_from(table.len()).expect("heap id overflow");
        table.push(Arc::new(HeapInfo {
            id,
            parent,
            depth,
            merged_into: AtomicU32::new(id),
            blocks: Mutex::new(Vec::new()),
            alloc_blocks: Mutex::new(Default::default()),
            remset: Mutex::new(Vec::new()),
            entangled: Mutex::new(EntangledIndex::default()),
            budget: Mutex::new(budget),
        }));
        id
    }

    /// Creates a root heap (depth 0, its own parent).
    pub fn new_root(&self) -> u32 {
        let id = { self.heaps.read().len() as u32 };
        self.push(id, 0, None)
    }

    /// Creates the two child heaps of a fork. Both children inherit the
    /// parent's tenant budget, so a whole tenant subtree is accounted
    /// against one limit.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not canonical (merged heaps cannot fork).
    pub fn fork(&self, parent: u32) -> (u32, u32) {
        assert_eq!(self.find(parent), parent, "fork from a merged heap");
        let parent_info = self.info(parent);
        let depth = parent_info.depth() + 1;
        let budget = parent_info.budget();
        let l = self.push(parent, depth, budget.clone());
        let r = self.push(parent, depth, budget);
        (l, r)
    }

    /// Returns the `HeapInfo` for a (raw or canonical) id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn info(&self, id: u32) -> Arc<HeapInfo> {
        self.heaps
            .read()
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| panic!("unknown heap id {id}"))
    }

    /// Canonicalizes a heap id through completed merges, with path
    /// compression.
    pub fn find(&self, id: u32) -> u32 {
        let table = self.heaps.read();
        let mut cur = id;
        loop {
            let next = table[cur as usize].merged_into.load(Ordering::Acquire);
            if next == cur {
                break;
            }
            cur = next;
        }
        // Path compression: repoint every node on the chain at the root.
        let mut walk = id;
        while walk != cur {
            let info = &table[walk as usize];
            let next = info.merged_into.load(Ordering::Acquire);
            info.merged_into.store(cur, Ordering::Release);
            walk = next;
        }
        cur
    }

    /// Depth of the canonical heap for `id`.
    pub fn depth(&self, id: u32) -> u16 {
        let c = self.find(id);
        self.info(c).depth()
    }

    /// Canonicalizes `id` and returns its depth with a single table
    /// acquisition (the mutators' hot-path query).
    pub fn canonical_and_depth(&self, id: u32) -> (u32, u16) {
        let table = self.heaps.read();
        let mut cur = id;
        loop {
            let next = table[cur as usize].merged_into.load(Ordering::Acquire);
            if next == cur {
                break;
            }
            cur = next;
        }
        let mut walk = id;
        while walk != cur {
            let info = &table[walk as usize];
            let next = info.merged_into.load(Ordering::Acquire);
            info.merged_into.store(cur, Ordering::Release);
            walk = next;
        }
        (cur, table[cur as usize].depth)
    }

    /// Canonical parent of a canonical heap id.
    pub fn parent_of(&self, id: u32) -> u32 {
        let info = self.info(id);
        self.find(info.parent())
    }

    /// Registers a pinned object on the canonical heap for `heap`,
    /// chasing both union-find merges and entangled-index seals, so a
    /// registration racing a join always lands on a live index.
    pub fn register_entangled(&self, heap: u32, r: ObjRef, level: u16) {
        let mut cur = heap;
        loop {
            cur = self.find(cur);
            match self.info(cur).try_add_entangled(r, level) {
                Ok(()) => return,
                Err(into) => cur = into,
            }
        }
    }

    /// Canonicalizes `dst` and records a remembered-set entry on it with a
    /// single table acquisition (the write barrier's hot path).
    pub fn remember_canonical(&self, dst: u32, entry: RemsetEntry) {
        let table = self.heaps.read();
        let mut cur = dst;
        loop {
            let next = table[cur as usize].merged_into.load(Ordering::Acquire);
            if next == cur {
                break;
            }
            cur = next;
        }
        table[cur as usize].remset.lock().push(entry);
    }

    /// Canonicalizes `dst` and records a whole batch of remembered-set
    /// entries on it under a single table acquisition and a single
    /// remset lock — the publication path for mutator-private
    /// remembered-set buffers, which amortizes the per-entry
    /// synchronization the old central-mutex design paid on every
    /// down-pointer write.
    pub fn remember_canonical_batch(&self, dst: u32, entries: &[RemsetEntry]) {
        if entries.is_empty() {
            return;
        }
        let table = self.heaps.read();
        let mut cur = dst;
        loop {
            let next = table[cur as usize].merged_into.load(Ordering::Acquire);
            if next == cur {
                break;
            }
            cur = next;
        }
        table[cur as usize].remset.lock().extend_from_slice(entries);
    }

    /// Merges `child` into `parent`: unions the ids and splices the block
    /// list. Remembered-set and entangled-list handling is done by the
    /// caller (it needs object access for the unpin-at-join rule).
    ///
    /// # Panics
    ///
    /// Panics unless `child`'s canonical parent is `parent`.
    pub fn merge_child(&self, parent: u32, child: u32) {
        let parent = self.find(parent);
        let child = self.find(child);
        assert_eq!(
            self.parent_of(child),
            parent,
            "merge_child requires a direct parent-child pair"
        );
        let child_info = self.info(child);
        let parent_info = self.info(parent);
        // Splice block lists before publishing the union so a concurrent
        // observer never sees the child emptied but not yet unioned.
        let mut moved = child_info.blocks.lock();
        parent_info.blocks.lock().append(&mut moved);
        drop(moved);
        child_info.clear_alloc_blocks();
        child_info.merged_into.store(parent, Ordering::Release);
    }

    /// Number of heaps ever created.
    pub fn len(&self) -> usize {
        self.heaps.read().len()
    }

    /// True if no heap has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `maybe_ancestor` is on the root-to-`id` path (inclusive).
    /// This walks parent links; hot paths use the task's cached path
    /// instead (`path[depth] == heap`).
    pub fn is_ancestor(&self, maybe_ancestor: u32, id: u32) -> bool {
        let anc = self.find(maybe_ancestor);
        let mut cur = self.find(id);
        loop {
            if cur == anc {
                return true;
            }
            let p = self.parent_of(cur);
            if p == cur {
                return false;
            }
            cur = p;
        }
    }

    /// Depth of the least common ancestor of two heaps.
    ///
    /// # Panics
    ///
    /// Panics if the heaps belong to disjoint forests.
    pub fn lca_of(&self, a: u32, b: u32) -> u16 {
        let table = self.heaps.read();
        let find = |start: u32| -> u32 {
            let mut c = start;
            loop {
                let n = table[c as usize].merged_into.load(Ordering::Acquire);
                if n == c {
                    return c;
                }
                c = n;
            }
        };
        let mut a = find(a);
        let mut b = find(b);
        loop {
            if a == b {
                return table[a as usize].depth;
            }
            let da = table[a as usize].depth;
            let db = table[b as usize].depth;
            if da >= db {
                let p = find(table[a as usize].parent);
                assert!(p != a || da > 0, "disjoint heap forests");
                if p == a && b != a {
                    // `a` is a root; climb `b` instead.
                    let pb = find(table[b as usize].parent);
                    assert_ne!(pb, b, "disjoint heap forests");
                    b = pb;
                } else {
                    a = p;
                }
            } else {
                let p = find(table[b as usize].parent);
                assert_ne!(p, b, "disjoint heap forests");
                b = p;
            }
        }
    }

    /// Fused hot-path query: canonicalizes `h`, determines whether it lies
    /// on `path`, and if not computes the LCA depth — all under a single
    /// table acquisition. Returns `(canonical, depth, lca_depth_if_remote)`.
    pub fn path_relation(&self, path: &[u32], h: u32) -> (u32, u16, Option<u16>) {
        let table = self.heaps.read();
        let find = |start: u32| -> u32 {
            let mut c = start;
            loop {
                let n = table[c as usize].merged_into.load(Ordering::Acquire);
                if n == c {
                    return c;
                }
                c = n;
            }
        };
        let canon = find(h);
        let depth = table[canon as usize].depth;
        // Path entries are canonical while the owning task runs.
        if (depth as usize) < path.len() && path[depth as usize] == canon {
            return (canon, depth, None);
        }
        let mut cur = canon;
        loop {
            let d = table[cur as usize].depth as usize;
            if d < path.len() && find(path[d]) == cur {
                return (canon, depth, Some(d as u16));
            }
            let p = find(table[cur as usize].parent);
            assert_ne!(p, cur, "no common ancestor: disjoint heap forests");
            cur = p;
        }
    }

    /// Like [`HeapTable::lca_depth`], but performs the entire walk under a
    /// single table acquisition — the read barrier's hot path.
    pub fn lca_depth_on_path(&self, path: &[u32], h: u32) -> u16 {
        let table = self.heaps.read();
        let find = |start: u32| -> u32 {
            let mut c = start;
            loop {
                let n = table[c as usize].merged_into.load(Ordering::Acquire);
                if n == c {
                    return c;
                }
                c = n;
            }
        };
        let mut cur = find(h);
        loop {
            let d = table[cur as usize].depth as usize;
            if d < path.len() && find(path[d]) == cur {
                return d as u16;
            }
            let p = find(table[cur as usize].parent);
            assert_ne!(p, cur, "no common ancestor: disjoint heap forests");
            cur = p;
        }
    }

    /// Depth of the least common ancestor of the heap `h` and the leaf of
    /// `path` (a root-to-leaf list of canonical heap ids).
    pub fn lca_depth(&self, path: &[u32], h: u32) -> u16 {
        let mut cur = self.find(h);
        loop {
            let d = self.info(cur).depth() as usize;
            if d < path.len() && self.find(path[d]) == cur {
                return d as u16;
            }
            let p = self.parent_of(cur);
            assert_ne!(p, cur, "no common ancestor: disjoint heap forests");
            cur = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_fork_depths() {
        let t = HeapTable::new();
        let root = t.new_root();
        assert_eq!(t.depth(root), 0);
        let (l, r) = t.fork(root);
        assert_eq!(t.depth(l), 1);
        assert_eq!(t.depth(r), 1);
        assert_eq!(t.parent_of(l), root);
        assert_eq!(t.parent_of(r), root);
        assert_ne!(l, r);
    }

    #[test]
    fn merge_unions_ids() {
        let t = HeapTable::new();
        let root = t.new_root();
        let (l, r) = t.fork(root);
        t.merge_child(root, l);
        t.merge_child(root, r);
        assert_eq!(t.find(l), root);
        assert_eq!(t.find(r), root);
        assert_eq!(t.depth(l), 0, "depth follows the canonical heap");
    }

    #[test]
    fn deep_merge_chain_compresses() {
        let t = HeapTable::new();
        let root = t.new_root();
        let mut leaf = root;
        let mut spine = vec![root];
        for _ in 0..10 {
            let (l, _r) = t.fork(leaf);
            spine.push(l);
            leaf = l;
        }
        for w in spine.windows(2).rev() {
            t.merge_child(w[0], w[1]);
        }
        assert_eq!(t.find(leaf), root);
        // After compression the chain is short; find again is O(1).
        assert_eq!(t.find(leaf), root);
    }

    #[test]
    fn ancestor_queries() {
        let t = HeapTable::new();
        let root = t.new_root();
        let (l, r) = t.fork(root);
        let (ll, _lr) = t.fork(l);
        assert!(t.is_ancestor(root, ll));
        assert!(t.is_ancestor(l, ll));
        assert!(!t.is_ancestor(r, ll));
        assert!(t.is_ancestor(ll, ll));
    }

    #[test]
    fn lca_depth_between_siblings() {
        let t = HeapTable::new();
        let root = t.new_root();
        let (l, r) = t.fork(root);
        let (ll, _) = t.fork(l);
        let path = vec![root, l, ll];
        assert_eq!(t.lca_depth(&path, r), 0, "sibling subtree meets at root");
        assert_eq!(t.lca_depth(&path, l), 1);
        assert_eq!(t.lca_depth(&path, ll), 2);
    }

    #[test]
    fn merge_splices_block_lists() {
        let t = HeapTable::new();
        let root = t.new_root();
        let (l, _r) = t.fork(root);
        t.info(root).add_block(0);
        t.info(l).add_block(1);
        t.info(l).add_block(2);
        t.merge_child(root, l);
        assert_eq!(t.info(root).block_ids(), vec![0, 1, 2]);
        assert!(t.info(l).block_ids().is_empty());
    }

    #[test]
    #[should_panic(expected = "direct parent-child")]
    fn merge_rejects_non_child() {
        let t = HeapTable::new();
        let root = t.new_root();
        let (l, _r) = t.fork(root);
        let (ll, _) = t.fork(l);
        t.merge_child(root, ll);
    }

    #[test]
    fn remset_and_entangled_lists() {
        let t = HeapTable::new();
        let root = t.new_root();
        let info = t.info(root);
        info.remember(RemsetEntry {
            src: ObjRef::new(0, 0),
            field: 1,
        });
        assert_eq!(info.remset_len(), 1);
        let drained = info.take_remset();
        assert_eq!(drained.len(), 1);
        assert_eq!(info.remset_len(), 0);
        info.extend_remset(drained);
        assert_eq!(info.remset_len(), 1);

        info.add_entangled(ObjRef::new(0, 1), 0);
        info.add_entangled(ObjRef::new(0, 2), 3);
        info.retain_entangled(|r| r.word() == 1);
        assert_eq!(info.entangled_len(), 1);
        assert_eq!(info.take_entangled(), vec![ObjRef::new(0, 1)]);
    }

    #[test]
    fn fork_inherits_tenant_budget() {
        let t = HeapTable::new();
        let root = t.new_root();
        assert!(t.info(root).budget().is_none(), "roots start unbudgeted");
        let b = TenantBudget::new("tenant", 4096);
        t.info(root).set_budget(Some(b.clone()));
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        for h in [l, r, ll, lr] {
            let got = t.info(h).budget().expect("child inherits budget");
            assert!(Arc::ptr_eq(&got, &b), "one shared budget per subtree");
        }
        // A different root stays unbudgeted.
        let other = t.new_root();
        assert!(t.info(other).budget().is_none());
    }
}
