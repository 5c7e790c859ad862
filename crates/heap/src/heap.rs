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
//! entangled-object lists are spliced onto the parent's — all but the
//! remembered-set entries whose source is the parent itself, which the
//! join makes internal and hands back to its caller.
//!
//! Disentanglement, remoteness, and entanglement levels are all phrased in
//! terms of this tree, by one rule on fork-path [`Label`]s:
//!
//! * an object is **local** to a task iff its (canonical) heap's label is a
//!   prefix of the task's, and **remote** otherwise;
//! * the **entanglement level** of a remote access is the length of the
//!   two labels' common prefix: the depth of the least common ancestor of
//!   the task's leaf heap and the object's heap.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
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

/// A heap's remembered set, in buckets by the depth of the heap each
/// entry's source was in when the pointer was written.
///
/// A source's heap is an ancestor of the heap its pointer leads into, so
/// it cannot merge away while the entry lasts: the depth stays the
/// source's. The entries in bucket `d` become internal at the join into
/// the heap at depth `d` — the source's own — and that join takes exactly
/// that bucket ([`HeapTable::join`]). Every entry a heap holds therefore
/// has a source shallower than the heap. A remembered set with no entries
/// has no buckets, so a join of heaps without down-pointers splices
/// nothing.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Remset {
    buckets: Vec<Vec<RemsetEntry>>,
}

impl Remset {
    /// Adds entries whose sources sit at depth `depth`.
    pub fn extend(&mut self, depth: u16, entries: &[RemsetEntry]) {
        let idx = depth as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        self.buckets[idx].extend_from_slice(entries);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// True if the set holds no entry.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// Keeps, in place, the entries `f` maps to `Some`, as rewritten.
    pub fn retain_map(&mut self, mut f: impl FnMut(RemsetEntry) -> Option<RemsetEntry>) {
        for bucket in &mut self.buckets {
            let mut kept = 0;
            for i in 0..bucket.len() {
                if let Some(entry) = f(bucket[i]) {
                    bucket[kept] = entry;
                    kept += 1;
                }
            }
            bucket.truncate(kept);
        }
    }

    /// Every entry with its source depth.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (u16, RemsetEntry)> + '_ {
        (0u16..)
            .zip(&self.buckets)
            .flat_map(|(d, b)| b.iter().map(move |e| (d, *e)))
    }

    /// Removes and returns bucket `depth`, and any deeper one (there is
    /// none: see the type's docs).
    fn take_from(&mut self, depth: u16) -> Vec<RemsetEntry> {
        let mut out = Vec::new();
        for bucket in self
            .buckets
            .drain((depth as usize).min(self.buckets.len())..)
        {
            if out.is_empty() {
                out = bucket;
            } else {
                out.extend(bucket);
            }
        }
        out
    }

    /// Moves `other`'s entries into this set, bucket by bucket.
    pub fn append(&mut self, other: &mut Remset) {
        if self.buckets.is_empty() {
            std::mem::swap(&mut self.buckets, &mut other.buckets);
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize_with(other.buckets.len(), Vec::new);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&mut other.buckets) {
            mine.append(theirs);
        }
        other.buckets.clear();
    }
}

/// What a join hands back for the work that needs object access.
#[derive(Debug, Default)]
pub struct Joined {
    /// The parent's pinned-object index entries at level `>=` its depth:
    /// the pins this join can end.
    pub unpin: Vec<ObjRef>,
    /// The children's remembered-set entries whose source is the parent:
    /// the down-pointers this join made internal.
    pub internal: Vec<RemsetEntry>,
}

/// A heap's collection debt: what pays for its next local collection.
///
/// A collection is due once `debt` reaches [`DebtRecord::budget`], the
/// trigger or twice `survivors`, whichever is larger, so each collection
/// is paid for by at least twice what the collections feeding the heap
/// kept. The record belongs to the heap, not to a task: every task that
/// runs in the heap continues it (it is kept in the heap's [`LazyHeap`]
/// cell), and a join folds its children's records into the parent's.
///
/// The join charges each child's `debt` and `kept` to the parent's debt:
/// what a collection kept comes due once more, at the join directly above
/// it, so garbage that survived a child's collection and died later is
/// still paid for, and collected, in the parent. It is charged once: a
/// parent that does not collect carries it up as debt, not as `kept`.
/// What the children kept also raises the parent's `survivors`, to at
/// least their sum, so the charge alone does not make the join collect
/// the data again (see `TaskCtx` in the runtime for how the tasks of a
/// heap combine them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DebtRecord {
    /// Bytes allocated into the heap, or charged to it at joins, since its
    /// last local collection.
    pub debt: usize,
    /// Bytes the heap's last local collection kept, not yet charged to an
    /// ancestor's debt.
    pub kept: usize,
    /// The budget's base: about what the heap holds live, as the
    /// collections that fed it measured it.
    pub survivors: usize,
}

impl DebtRecord {
    /// The debt at which the heap is due for a local collection under the
    /// allocation `trigger`: `max(trigger, 2 × survivors)`.
    pub fn budget(&self, trigger: usize) -> usize {
        trigger.max(self.survivors.saturating_mul(2))
    }

    /// What a join charges to the parent's debt for this child: its debt
    /// and what its last collection kept.
    pub fn due(&self) -> usize {
        self.debt.saturating_add(self.kept)
    }
}

/// Where a [`DebtRecord`] waits between the tasks that continue it: three
/// relaxed words. Only the task running in the heap writes them, when it
/// finishes; the next task to run in it (an un-stolen right branch, a
/// session's next request) and the join that merges it read them after
/// that finish, ordered by the fork's join or the session's request
/// sequence, so no lock guards them.
#[derive(Debug, Default)]
pub struct DebtCell {
    debt: AtomicUsize,
    kept: AtomicUsize,
    survivors: AtomicUsize,
}

impl DebtCell {
    /// The record as its last writer left it.
    pub fn get(&self) -> DebtRecord {
        DebtRecord {
            debt: self.debt.load(Ordering::Relaxed),
            kept: self.kept.load(Ordering::Relaxed),
            survivors: self.survivors.load(Ordering::Relaxed),
        }
    }

    /// Replaces the record.
    pub fn set(&self, record: DebtRecord) {
        self.debt.store(record.debt, Ordering::Relaxed);
        self.kept.store(record.kept, Ordering::Relaxed);
        self.survivors.store(record.survivors, Ordering::Relaxed);
    }
}

/// A heap's place in the tree, fixed by the fork that creates it: its
/// depth, an anchor heap on its path, and one bit per level below the
/// anchor (level `base + 1 + k` in bit `63 - k`): 0 for a fork's shared
/// cell, 1 for a migrated branch's own. The anchor is the root (its own)
/// up to depth 64, and past it the ancestor at the last multiple of 64.
/// Live labels are unique: a forker has at most one shared and one
/// migrated child cell, a repeat fork reuses a position only after the
/// earlier fork's join, and a session's requests never overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label {
    bits: u64,
    anchor: u32,
    depth: u16,
}

impl Label {
    /// The label of a child, on side `migrated`, of the heap `id` this one
    /// labels. A child at depth `64 k + 1` starts a run anchored at `id`.
    fn child(&self, id: u32, migrated: bool) -> Label {
        let k = self.depth % 64;
        let bits = if k == 0 { 0 } else { self.bits };
        Label {
            bits: bits | u64::from(migrated) << (63 - k),
            anchor: if k == 0 { id } else { self.anchor },
            depth: self.depth + 1,
        }
    }

    /// The anchor's depth.
    fn base(&self) -> u16 {
        self.depth.saturating_sub(1) / 64 * 64
    }
}

/// One node of the heap tree. Everything but `state` is fixed at creation
/// or a single atomic word, so the tree is walked without locks; a merged
/// heap is just this node — its [`HeapState`] moved into the parent.
#[derive(Debug)]
pub struct HeapInfo {
    merged_into: AtomicU32,
    parent: u32,
    label: Label,
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
    pub remset: Remset,
    /// A root's tenant budget, shared by every heap forked under it.
    budget: Option<Arc<TenantBudget>>,
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

    /// Splices a joined child's lists onto this heap's. The child's
    /// allocation blocks are not taken over: those bump cursors belonged
    /// to the finished task.
    fn absorb(&mut self, child: &mut HeapState) {
        self.blocks.append(&mut child.blocks);
        self.remset.append(&mut child.remset);
        if self.entangled.len() < child.entangled.len() {
            self.entangled.resize_with(child.entangled.len(), Vec::new);
        }
        for (mine, theirs) in self.entangled.iter_mut().zip(&mut child.entangled) {
            mine.append(theirs);
        }
    }
}

// Merged nodes are kept for the runtime's life: 8 more bytes a node cost
// one `serve-open` child 0.27 MB (CHANGES.md, `FOUND:` on `HeapInfo`).
const _: () = assert!(std::mem::size_of::<HeapInfo>() <= 40);

impl HeapInfo {
    /// The heap's depth in the hierarchy (root = 0).
    pub fn depth(&self) -> u16 {
        self.label.depth
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

    fn push(&self, parent: Option<(u32, Label)>, migrated: bool) -> u32 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert_ne!(id, u32::MAX, "heap id overflow");
        let root = Label {
            bits: 0,
            anchor: id,
            depth: 0,
        };
        let node = HeapInfo {
            merged_into: AtomicU32::new(id),
            parent: parent.map_or(id, |(p, _)| p),
            label: parent.map_or(root, |(p, l)| l.child(p, migrated)),
            state: Mutex::new(Some(Box::default())),
        };
        let fresh = self.nodes.get_or_grow(id).set(node).is_ok();
        assert!(fresh, "heap id {id} issued twice");
        id
    }

    /// Creates a root heap (depth 0, its own parent), accounted against
    /// `budget` along with every heap later forked under it.
    pub fn new_root(&self, budget: Option<Arc<TenantBudget>>) -> u32 {
        let id = self.push(None, false);
        self.info(id).with(|s| s.budget = budget);
        id
    }

    /// Creates one child heap of `parent`, a level deeper, on the fork's
    /// side `migrated` names (a migrated branch's own, or the shared one).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not canonical (merged heaps cannot fork).
    pub fn child(&self, parent: u32, migrated: bool) -> u32 {
        let (canon, info) = self.find_node(parent);
        assert_eq!(canon, parent, "fork from a merged heap");
        self.push(Some((parent, info.label)), migrated)
    }

    /// Creates the two child heaps of a fork, shared and migrated, as
    /// [`HeapTable::child`] does.
    pub fn fork(&self, parent: u32) -> (u32, u32) {
        (self.child(parent, false), self.child(parent, true))
    }

    /// The label of a (raw or canonical) heap id.
    pub fn label(&self, id: u32) -> Label {
        self.info(id).label
    }

    /// The tenant budget a heap is accounted against, its root's, if any.
    pub fn budget(&self, id: u32) -> Option<Arc<TenantBudget>> {
        let mut label = self.label(id);
        while label.base() > 0 {
            label = self.label(label.anchor);
        }
        self.info(label.anchor).with(|s| s.budget.clone())
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
        let root_depth = self.info(root).depth();
        let mut cur = id;
        loop {
            let node = self.info(cur);
            let next = node.merged_into.load(Ordering::Acquire);
            if self.info(next).depth() <= root_depth {
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

    /// Records remembered-set entries, whose sources sit at depth
    /// `src_depth`, on the canonical heap for `dst`.
    pub fn remember(&self, dst: u32, src_depth: u16, entries: &[RemsetEntry]) {
        self.with_live_state(dst, |s| s.remset.extend(src_depth, entries));
    }

    /// Joins the `children` a fork created into `parent`, O(1) in the
    /// object graph: each child's state is taken out under its lock and its
    /// id unioned into the parent's before the lock is released, then the
    /// lists are spliced onto the parent's. Returns the parent's index
    /// entries at level `>=` its depth — the pins this join can end — and
    /// the children's remembered-set bucket at the parent's depth, which
    /// the parent does not take over: those pointers are now internal.
    /// Applying the unpin rule and ending the sources' `down` marks is the
    /// caller's job (both need object access).
    ///
    /// # Panics
    ///
    /// Panics unless every child's canonical parent is `parent`.
    pub fn join(&self, parent: u32, children: impl IntoIterator<Item = u32>) -> Joined {
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
        let internal = merged.remset.take_from(info.depth());
        let unpin = info.with(|p| {
            p.absorb(&mut merged);
            p.take_entangled_from(info.depth())
        });
        Joined { unpin, internal }
    }

    /// Number of heap ids ever issued, merged heaps included.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }

    /// True if no heap has been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one ancestry rule: the depth of the least common ancestor of
    /// the (canonical) heaps labelled `a` and `b` — the length of the
    /// labels' common prefix — or `None` if they are in different trees.
    /// A heap is on a task's path iff this is the heap's own depth.
    pub fn common_depth(&self, mut a: Label, mut b: Label) -> Option<u16> {
        // Paths with different anchors part at or above the deeper one:
        // step up to it. Two roots share nothing.
        while a.anchor != b.anchor {
            if a.base().max(b.base()) == 0 {
                return None;
            }
            if a.base() >= b.base() {
                a = self.label(a.anchor);
            } else {
                b = self.label(b.anchor);
            }
        }
        let (base, same) = (a.base(), (a.bits ^ b.bits).leading_zeros() as u16);
        Some(base + same.min(a.depth.min(b.depth) - base))
    }

    /// Relates heap `h` to the task labelled `task`: returns `h`'s
    /// canonical id and depth, and `None` if it lies on the task's path
    /// (local) or else the depth of its least common ancestor with the
    /// task's heap (the entanglement level).
    ///
    /// # Panics
    ///
    /// Panics if the heaps belong to disjoint forests.
    pub fn relation(&self, task: &Label, h: u32) -> (u32, u16, Option<u16>) {
        let (canon, node) = self.find_node(h);
        let lca = self.common_depth(*task, node.label);
        let lca = lca.expect("no common ancestor: disjoint heap forests");
        (canon, node.depth(), (lca < node.depth()).then_some(lca))
    }
}

/// The leaf id of a [`LazyHeap`] that has no heap yet. No heap is ever
/// issued this id, so no block is owned by it.
pub const NO_HEAP: u32 = u32::MAX;

/// A task's place in the heap tree, whose heap is created on first use.
///
/// A fork records only the child's parent cell, depth, side and inherited
/// budget. The task's [`HeapInfo`] is pushed the first time it needs its
/// heap or its label ([`LazyHeap::heap`]), after those of every ancestor
/// still without one, top-down: heap depth stays task depth, and the
/// heaps a task never uses are never issued. Descendants running on other
/// threads may materialise a suspended ancestor at once; the cell's
/// `OnceLock` lets exactly one of them push its node.
#[derive(Debug)]
pub struct LazyHeap<'a> {
    parent: Option<&'a LazyHeap<'a>>,
    depth: u16,
    /// The fork's side: a migrated branch's own cell, or the shared one.
    migrated: bool,
    budget: Option<&'a TenantBudget>,
    /// Once materialised, the task's heap id and label (canonical while
    /// the task runs: only joins above it, after it is done, merge it).
    heap: OnceLock<(u32, Label)>,
    /// The heap's collection debt record, as the last task to run in it
    /// left it (empty in a fresh cell). Kept in the cell rather than the
    /// heap's node: it is needed only while the fork that made the cell
    /// lasts, and a node outlives its merge for good.
    pub debt: DebtCell,
}

impl<'a> LazyHeap<'a> {
    /// The cell of a task running on the existing root heap `id`, whose
    /// tenant budget, if any, is `budget`.
    pub fn root(heaps: &HeapTable, id: u32, budget: Option<&'a TenantBudget>) -> LazyHeap<'a> {
        let label = heaps.label(id);
        LazyHeap {
            parent: None,
            depth: label.depth,
            migrated: false,
            budget,
            heap: OnceLock::from((id, label)),
            debt: DebtCell::default(),
        }
    }

    /// The cell of a fork branch of `parent`'s task, on the fork's side
    /// `migrated` names: no heap yet.
    #[inline]
    pub fn child(parent: &'a LazyHeap<'a>, migrated: bool) -> LazyHeap<'a> {
        LazyHeap {
            parent: Some(parent),
            depth: parent.depth + 1,
            migrated,
            budget: parent.budget,
            heap: OnceLock::new(),
            debt: DebtCell::default(),
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
        self.heap.get().map(|&(id, _)| id)
    }

    /// The task's heap id and label, pushing the heaps of this cell and
    /// its ancestors first if they have none yet.
    pub fn heap(&self, heaps: &HeapTable) -> &(u32, Label) {
        self.heap.get_or_init(|| {
            let parent = self.parent.expect("a root cell starts materialised");
            let id = heaps.child(parent.heap(heaps).0, self.migrated);
            (id, heaps.label(id))
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
        let (_, depth, lca) = t.relation(&t.label(root), l);
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
                t.info(into).depth() < t.info(merged).depth(),
                "{merged} -> {into}"
            );
        }
        assert!(t.is_canonical(root));
        assert_eq!(t.find(lll), root);
    }

    #[test]
    fn relation_tells_ancestors_from_strangers() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        let task = t.label(ll);
        assert_eq!(t.relation(&task, root), (root, 0, None));
        assert_eq!(t.relation(&task, l), (l, 1, None));
        assert_eq!(t.relation(&task, ll), (ll, 2, None));
        assert_eq!(
            t.relation(&task, r),
            (r, 1, Some(0)),
            "sibling subtree meets at root"
        );
        assert_eq!(t.relation(&task, lr), (lr, 2, Some(1)));
        assert_eq!(t.relation(&t.label(r), ll), (ll, 2, Some(0)));
        assert_eq!(t.common_depth(t.label(l), t.label(ll)), Some(1));
        let other = t.new_root(None);
        assert_eq!(t.common_depth(t.label(ll), t.label(other)), None);
    }

    #[test]
    #[should_panic(expected = "disjoint heap forests")]
    fn relation_across_two_roots_panics() {
        let t = HeapTable::new();
        let (a, b) = (t.new_root(None), t.new_root(None));
        t.relation(&t.label(a), b);
    }

    #[test]
    fn join_splices_block_lists() {
        let t = HeapTable::new();
        let root = t.new_root(None);
        let (l, r) = t.fork(root);
        t.info(root).with(|s| s.blocks.push(0));
        t.info(l).with(|s| s.blocks.extend([1, 2]));
        t.info(r).with(|s| s.blocks.push(3));
        let joined = t.join(root, [l, r]);
        assert!(joined.unpin.is_empty() && joined.internal.is_empty());
        assert_eq!(t.info(root).with(|s| s.blocks.clone()), vec![0, 1, 2, 3]);
        assert!(t.info(l).try_with(|_| ()).is_none(), "merged: no state");
    }

    #[test]
    fn debt_records_set_a_budget_and_wait_in_their_cell() {
        let record = |debt, kept, survivors| DebtRecord {
            debt,
            kept,
            survivors,
        };
        assert_eq!(record(0, 0, 3).budget(4), 6);
        assert_eq!(record(0, 0, 1).budget(4), 4);
        assert_eq!(record(0, 0, usize::MAX).budget(4), usize::MAX);
        assert_eq!(record(10, 5, 7).due(), 15);
        assert_eq!(record(usize::MAX, 5, 7).due(), usize::MAX, "saturating");
        let t = HeapTable::new();
        let root = LazyHeap::root(&t, t.new_root(None), None);
        let cell = LazyHeap::child(&root, false);
        assert_eq!(cell.debt.get(), DebtRecord::default(), "a fresh cell");
        cell.debt.set(record(5, 6, 7));
        assert_eq!(
            (cell.debt.get(), root.debt.get()),
            (record(5, 6, 7), DebtRecord::default())
        );
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
        t.remember(l, 0, &[entry]);
        assert_eq!(t.info(l).with(|s| s.remset.len()), 1);
        let drained = t.info(l).with(|s| std::mem::take(&mut s.remset));
        assert_eq!(drained.iter().collect::<Vec<_>>(), vec![(0, entry)]);
        t.info(l).with(|s| s.remset = drained);

        t.register_entangled(l, ObjRef::new(0, 1), 0);
        t.register_entangled(l, ObjRef::new(0, 2), 3);
        t.register_entangled(r, ObjRef::new(0, 3), 1);
        t.info(l).with(|s| s.retain_entangled(|r| r.word() != 2));
        assert_eq!(t.info(l).with(|s| s.entangled_len()), 1);

        // The join carries both lists up; only entries at level >= the
        // parent's depth are handed back as unpin candidates, and only
        // remembered-set entries whose source is the parent as internal.
        let (ll, lr) = t.fork(l);
        t.register_entangled(ll, ObjRef::new(0, 4), 1);
        let inner = RemsetEntry {
            src: ObjRef::new(0, 6),
            field: 0,
        };
        t.remember(ll, 1, &[inner]);
        t.remember(lr, 0, &[entry]);
        let joined = t.join(l, [ll, lr]);
        assert_eq!(
            joined.unpin,
            vec![ObjRef::new(0, 4)],
            "level 0 stays indexed"
        );
        assert_eq!(joined.internal, vec![inner]);
        let joined = t.join(root, [l, r]);
        assert_eq!(joined.unpin, vec![ObjRef::new(0, 1), ObjRef::new(0, 3)]);
        assert_eq!(joined.internal, vec![entry, entry]);
        assert!(t.info(root).with(|s| s.remset.is_empty()));
        // Registering or remembering against a merged id lands on the
        // heap it was merged into.
        t.register_entangled(ll, ObjRef::new(0, 5), 0);
        t.remember(lr, 0, &[entry]);
        let (pins, rems) = t.info(root).with(|s| (s.take_entangled(), s.remset.len()));
        assert_eq!((pins, rems), (vec![(ObjRef::new(0, 5), 0)], 1));
    }

    #[test]
    fn remset_buckets_append_and_take_by_depth() {
        let e = |w| RemsetEntry {
            src: ObjRef::new(0, w),
            field: 0,
        };
        let mut a = Remset::default();
        let mut b = Remset::default();
        b.extend(2, &[e(1)]);
        b.extend(0, &[e(2)]);
        a.append(&mut b);
        assert!(
            b.is_empty() && a.len() == 2,
            "an empty set takes the buckets"
        );
        let mut c = Remset::default();
        c.extend(2, &[e(3)]);
        a.append(&mut c);
        assert_eq!(a.take_from(2), vec![e(1), e(3)]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, e(2))]);
        assert!(a.take_from(1).is_empty());
        a.extend(1, &[e(4), e(5)]);
        a.retain_map(|x| (x.src.word() != 4).then_some(e(x.src.word() + 10)));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, e(12)), (1, e(15))]);
    }

    #[test]
    fn lazy_heaps_materialise_top_down_and_once() {
        let t = HeapTable::new();
        let b = TenantBudget::new("tenant", 4096);
        let root = t.new_root(Some(b.clone()));
        let top = LazyHeap::root(&t, root, Some(&b));
        let mid = LazyHeap::child(&top, false);
        let (leaf, idle) = (LazyHeap::child(&mid, true), LazyHeap::child(&mid, false));
        assert_eq!((leaf.depth(), leaf.leaf(), t.len()), (2, NO_HEAP, 1));
        assert!(
            std::ptr::eq(leaf.budget().unwrap(), &*b),
            "borrowed, not looked up"
        );
        let &(id, label) = leaf.heap(&t);
        assert_eq!(t.len(), 3, "the parent's heap, then the leaf's");
        assert_eq!((leaf.leaf(), label), (id, t.label(id)));
        assert_eq!(t.parent_of(id), mid.id().unwrap());
        assert_eq!(label.depth, 2);
        assert_eq!(t.relation(&label, id), (id, 2, None));
        let twin = t.child(mid.id().unwrap(), false);
        assert_eq!(
            t.relation(&label, twin),
            (twin, 2, Some(1)),
            "the other side"
        );
        assert_eq!(leaf.heap(&t).0, id, "a second call pushes nothing");
        assert_eq!((idle.id(), t.len()), (None, 4), "the idle sibling has none");
        // The join merges only the children that exist.
        t.join(
            mid.leaf(),
            leaf.id().into_iter().chain(idle.id()).chain([twin]),
        );
        assert_eq!(t.find(id), mid.leaf());
    }

    #[test]
    fn fork_inherits_tenant_budget() {
        let t = HeapTable::new();
        let b = TenantBudget::new("tenant", 4096);
        let root = t.new_root(Some(b.clone()));
        let (l, r) = t.fork(root);
        let (ll, lr) = t.fork(l);
        let mut deep = ll;
        for _ in 0..130 {
            deep = t.child(deep, true);
        }
        for h in [root, l, r, ll, lr, deep] {
            let got = t.budget(h).expect("child inherits budget");
            assert!(Arc::ptr_eq(&got, &b), "one shared budget per subtree");
        }
        // A different root stays unbudgeted, and so do its children.
        let other = t.new_root(None);
        assert!(t.budget(other).is_none());
        assert!(t.budget(t.fork(other).0).is_none());
    }
}
