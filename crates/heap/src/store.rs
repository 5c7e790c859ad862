//! The store: the facade over blocks, heaps, and statistics.
//!
//! A [`Store`] owns the global block registry, the SFT classification
//! table, and the heap table, and provides the operations the runtime and
//! the collectors are built from: synchronization-free bump allocation
//! into a heap's size-class blocks, object access with forwarding
//! resolution, remoteness and LCA queries against a task's heap path, the
//! pin protocol, and the O(1) join.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crate::block::{
    size_class, Block, Region, DEFAULT_BLOCK_WORDS, NUM_SIZE_CLASSES, OBJECT_HEADER_WORDS,
};
use crate::budget::TenantBudget;
use crate::events::{self, EventKind};
use crate::header::{Header, ObjKind};
use crate::heap::{HeapTable, RemsetEntry};
use crate::object::{Object, PinOutcome, OBJECT_OVERHEAD_BYTES};
use crate::registry::BlockRegistry;
use crate::sft::SftTable;
use crate::stats::{Counter, StoreStats};
use crate::value::{ObjRef, Value, Word};

/// Words in the first allocation block a heap takes in a size class
/// ([`Store::region`]); later blocks hold `block_words`.
pub const FIRST_BLOCK_WORDS: usize = 64;

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Words per size-class block. Smaller blocks mean finer-grained
    /// reclamation but more registry traffic (ablation experiment E9).
    pub block_words: usize,
    /// Soft heap budget in bytes; `0` means unlimited. The store only
    /// *reports* pressure ([`Store::over_limit`]) — enforcement (forcing
    /// collections, surfacing a recoverable error) is the runtime's job,
    /// because only the runtime can run the collectors.
    pub heap_limit: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            block_words: DEFAULT_BLOCK_WORDS,
            heap_limit: 0,
        }
    }
}

/// A resolved handle to a live object: keeps the owning block alive while
/// the object is inspected. Most of the [`Object`] view's API is
/// re-exposed here by delegation, since the borrowed view cannot outlive
/// a `Deref` call.
#[derive(Clone, Debug)]
pub struct ObjHandle {
    block: Arc<Block>,
    word: u32,
}

impl ObjHandle {
    /// A view of the referenced object.
    pub fn obj(&self) -> Object<'_> {
        self.block.get(self.word)
    }

    /// The block holding the object.
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }

    /// The object's word offset in its block.
    pub fn word(&self) -> u32 {
        self.word
    }

    /// The object's location.
    pub fn objref(&self) -> ObjRef {
        ObjRef::new(self.block.id(), self.word)
    }

    // Delegation to the object view (see `Object` for docs).

    /// A snapshot of the object's header.
    pub fn header(&self) -> Header {
        self.obj().header()
    }

    /// The object's kind.
    pub fn kind(&self) -> ObjKind {
        self.obj().kind()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.obj().len()
    }

    /// True if the object has no fields.
    pub fn is_empty(&self) -> bool {
        self.obj().is_empty()
    }

    /// Size in bytes, for residency accounting.
    pub fn size_bytes(&self) -> usize {
        self.obj().size_bytes()
    }

    /// Loads field `i` as a raw word.
    pub fn field_word(&self, i: usize) -> Word {
        self.obj().field_word(i)
    }

    /// Loads field `i` as a decoded value.
    pub fn field(&self, i: usize) -> Value {
        self.obj().field(i)
    }

    /// Stores a raw word into field `i`.
    pub fn set_field_word(&self, i: usize, w: Word) {
        self.obj().set_field_word(i, w)
    }

    /// Stores a value into field `i`.
    pub fn set_field(&self, i: usize, v: Value) {
        self.obj().set_field(i, v)
    }

    /// Atomically replaces field `i`, returning the previous value.
    pub fn swap_field(&self, i: usize, v: Value) -> Value {
        self.obj().swap_field(i, v)
    }

    /// Atomically compares-and-swaps field `i`.
    pub fn cas_field(&self, i: usize, expected: Value, new: Value) -> Result<(), Value> {
        self.obj().cas_field(i, expected, new)
    }

    /// The forwarding destination, if the object has been evacuated.
    pub fn forward_ref(&self) -> Option<ObjRef> {
        self.obj().forward_ref()
    }

    /// Whether the object is an entanglement suspect.
    pub fn is_suspect(&self) -> bool {
        self.obj().is_suspect()
    }

    /// Attempts to pin the object at `level`, indexing nothing: a pin
    /// the heap's index lacks, as a test plants one.
    pub fn try_pin(&self, level: u16) -> PinOutcome {
        self.obj().try_pin(level, || {})
    }
}

/// What a join produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Objects unpinned by the unpin-at-join rule.
    pub unpinned: usize,
    /// Live bytes merged from the children into the parent.
    pub merged_bytes: usize,
}

/// The global store.
#[derive(Debug)]
pub struct Store {
    blocks: BlockRegistry,
    heaps: HeapTable,
    // Shared so long-lived observers (the telemetry sampler thread) can
    // hold the counters without borrowing the store.
    stats: Arc<StoreStats>,
    // Shared with every block (write-through on owner/entangled changes)
    // and with the barriers (lock-free classification).
    sft: Arc<SftTable>,
    config: StoreConfig,
    /// Tells this store's events from other stores' in the process-global
    /// event rings.
    serial: u32,
}

impl Default for Store {
    fn default() -> Self {
        Store::new(StoreConfig::default())
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Store {
        assert!(
            config.block_words >= OBJECT_HEADER_WORDS,
            "block_words must fit at least one header"
        );
        static SERIALS: AtomicU32 = AtomicU32::new(0);
        // 1 ..= 2^24 - 1: zero is `events::NO_STORE`.
        let serial =
            SERIALS.fetch_add(1, Ordering::Relaxed) % ((1 << events::STORE_SERIAL_BITS) - 1) + 1;
        let stats = Arc::new(StoreStats::new());
        Store {
            blocks: BlockRegistry::new(Arc::clone(&stats), serial),
            heaps: HeapTable::new(),
            stats,
            sft: Arc::new(SftTable::new()),
            config,
            serial,
        }
    }

    /// This store's serial: distinct among the stores a process creates
    /// (up to 2^24 - 1 of them), and what its events carry.
    pub fn serial(&self) -> u32 {
        self.serial
    }

    /// The block registry.
    pub fn blocks(&self) -> &BlockRegistry {
        &self.blocks
    }

    /// The block-classification table (the barrier fast tier's O(1)
    /// pointer → heap map).
    pub fn sft(&self) -> &Arc<SftTable> {
        &self.sft
    }

    /// The heap table.
    pub fn heaps(&self) -> &HeapTable {
        &self.heaps
    }

    /// The global counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// A shared handle to the counters, for observers (e.g. the telemetry
    /// sampler thread) that outlive any one borrow of the store.
    pub fn stats_shared(&self) -> Arc<StoreStats> {
        Arc::clone(&self.stats)
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    // ---- allocation ---------------------------------------------------

    /// Registers a fresh block of `capacity` words for `heap`/`class`.
    /// The caller attributes it to the heap.
    fn new_block(&self, heap: u32, class: usize, capacity: usize) -> Arc<Block> {
        mpl_fail::hit_hard("heap/block_map");
        let sft = Arc::clone(&self.sft);
        self.blocks
            .register(|id| Block::new(id, heap, capacity, class, sft))
    }

    /// A region of `heap` (raw or canonical id) with room for an object of
    /// `nwords` inline words: the heap's current allocation block for the
    /// object's size class if its free tail fits, else a fresh block that
    /// replaces it (the old one is retired full). An object larger than a
    /// block gets a dedicated block of its own, never an allocation block.
    ///
    /// A heap with no allocation block in the class — a fresh heap, or one
    /// whose last collection copied nothing of that class — starts it on a
    /// block of [`FIRST_BLOCK_WORDS`] (or the object, if larger), capped at
    /// `block_words`; every later block is full size. A heap that holds a
    /// few objects, as most fork branches' do, then costs about what it
    /// holds instead of a full block per class.
    ///
    /// The caller becomes the block's one allocator, so it must not hold
    /// another region of the same heap and class (a task retires its own
    /// before it refills). Takes the heap's lock once to read the current
    /// block and once more to attribute a fresh one.
    pub fn region(&self, heap: u32, nwords: usize) -> Region {
        mpl_fail::hit_hard("heap/alloc");
        let heap = self.heaps.find(heap);
        let info = self.heaps.info(heap);
        if nwords > self.config.block_words {
            let block = self.new_block(heap, NUM_SIZE_CLASSES - 1, nwords);
            info.with(|s| s.blocks.push(block.id()));
            return Region::adopt(block);
        }
        let class = size_class(nwords);
        let capacity = match info.with(|s| s.alloc_blocks[class].clone()) {
            Some(current) => {
                let region = Region::adopt(current);
                if region.room() >= nwords {
                    return region;
                }
                region.retire();
                self.config.block_words
            }
            None => FIRST_BLOCK_WORDS.max(nwords).min(self.config.block_words),
        };
        let block = self.new_block(heap, class, capacity);
        info.with(|s| {
            s.blocks.push(block.id());
            s.alloc_blocks[class] = Some(Arc::clone(&block));
        });
        Region::adopt(block)
    }

    /// Allocates an object of `kind` with `fields` into `heap` (raw or
    /// canonical id) and counts it straight into the global stats: a
    /// [`Store::region`], one reservation, one settle. Store-level callers
    /// (tests, tools) use it; a task allocates through regions it keeps.
    pub fn alloc(&self, heap: u32, kind: ObjKind, fields: &[Word]) -> ObjRef {
        let mut region = self.region(heap, OBJECT_HEADER_WORDS + fields.len());
        let r = region
            .alloc(kind, fields)
            .expect("a fresh region fits its object");
        region.settle();
        self.stats
            .on_alloc(OBJECT_OVERHEAD_BYTES + 8 * fields.len());
        r
    }

    /// True when a heap limit is configured and an allocation of `extra`
    /// bytes would push the live-bytes gauge past it. One atomic load of
    /// the gauge — this runs on every pressure check in the allocation
    /// path, so it must not snapshot every counter. Best-effort: the
    /// gauge is updated by batched mutator flushes, so enforcement
    /// granularity is a stats-flush window, not a single allocation.
    #[inline]
    pub fn over_limit(&self, extra: usize) -> bool {
        self.config.heap_limit != 0
            && self.stats.live_bytes().saturating_add(extra) > self.config.heap_limit
    }

    /// Convenience: allocates with `Value` fields.
    pub fn alloc_values(&self, heap: u32, kind: ObjKind, fields: &[Value]) -> ObjRef {
        let words: Vec<Word> = fields.iter().map(|&v| Word::encode(v)).collect();
        self.alloc(heap, kind, &words)
    }

    // ---- access -------------------------------------------------------

    /// Returns a handle to the object at `r` (without following
    /// forwarding).
    ///
    /// # Panics
    ///
    /// Panics on a dangling reference (freed block or unpublished offset).
    pub fn handle(&self, r: ObjRef) -> ObjHandle {
        let block = self.blocks.get(r.block());
        // Validate eagerly so errors point at the bad reference.
        let _ = block.get(r.word());
        ObjHandle {
            block,
            word: r.word(),
        }
    }

    /// Follows forwarding pointers to the object's current location,
    /// compressing multi-hop chains: once the final location is known,
    /// the origin's forwarding word is repointed straight at it, so the
    /// chains that build up across repeated evacuations (each hop a
    /// registry query) are paid down to one hop on first traversal.
    pub fn resolve(&self, r: ObjRef) -> ObjRef {
        let mut cur = r;
        let mut hops = 0u32;
        loop {
            let h = self.handle(cur);
            match h.obj().forward_ref() {
                Some(next) => {
                    cur = next;
                    hops += 1;
                }
                None => {
                    if hops > 1 {
                        self.handle(r).obj().compress_forward(cur);
                    }
                    return cur;
                }
            }
        }
    }

    /// Fallible resolution for references derived from *indexes* (not the
    /// object graph): returns `None` if the chain touches a reclaimed
    /// block, which for an index entry means "the object is gone". Also
    /// path-compresses surviving multi-hop chains (the origin must still
    /// be live for that, so the repoint re-checks it).
    pub fn try_resolve(&self, r: ObjRef) -> Option<ObjRef> {
        let mut cur = r;
        let mut hops = 0u32;
        loop {
            let block = self.blocks.try_get(cur.block())?;
            match block.try_get(cur.word())?.forward_ref() {
                Some(next) => {
                    cur = next;
                    hops += 1;
                }
                None => {
                    if hops > 1 {
                        if let Some(b) = self.blocks.try_get(r.block()) {
                            if let Some(o) = b.try_get(r.word()) {
                                if o.header().is_forwarded() {
                                    o.compress_forward(cur);
                                }
                            }
                        }
                    }
                    return Some(cur);
                }
            }
        }
    }

    /// A handle to the current (forwarding-resolved) location of `r`.
    pub fn resolved_handle(&self, r: ObjRef) -> ObjHandle {
        self.handle(self.resolve(r))
    }

    /// The canonical heap owning the object at `r`.
    pub fn heap_of(&self, r: ObjRef) -> u32 {
        self.heaps.find(self.blocks.get(r.block()).owner())
    }

    // ---- remoteness ---------------------------------------------------

    /// True if the object is on the task's root-to-leaf heap `path`
    /// (canonical ids, indexed by depth).
    pub fn is_local(&self, path: &[u32], r: ObjRef) -> bool {
        let owner = self.blocks.get(r.block()).owner();
        self.heaps.path_relation(path, owner).2.is_none()
    }

    /// The entanglement level of an access from `path` to the object: the
    /// depth of the least common ancestor heap.
    pub fn entanglement_level(&self, path: &[u32], r: ObjRef) -> u16 {
        let owner = self.blocks.get(r.block()).owner();
        let (_, depth, lca) = self.heaps.path_relation(path, owner);
        lca.unwrap_or(depth)
    }

    // ---- pin protocol --------------------------------------------------

    /// Pins the object at `level`, following forwarding if the local
    /// collector moved it first. Returns the resolved location and whether
    /// this call created the pin.
    pub fn pin(&self, r: ObjRef, level: u16) -> (ObjRef, bool) {
        let mut cur = r;
        loop {
            let h = self.handle(cur);
            match self.try_pin(h.obj(), cur, level) {
                PinOutcome::Forwarded(next) => cur = next,
                PinOutcome::NewlyPinned => return (cur, true),
                PinOutcome::AlreadyPinned { .. } | PinOutcome::Dead => return (cur, false),
            }
        }
    }

    /// [`Object::try_pin`] on `obj`, the object at `r`, with the
    /// bookkeeping a new pin owes: its entry in its heap's index — filed
    /// before the header shows the pin, so a task that sees the pin and
    /// passes the object on can never get it past a local collection's
    /// shield unindexed — then the gauges and the trace. (The pin counts
    /// on its block already: `try_pin` reserved it there.)
    pub fn try_pin(&self, obj: Object<'_>, r: ObjRef, level: u16) -> PinOutcome {
        let owner = obj.block().owner();
        let outcome = obj.try_pin(level, || self.heaps.register_entangled(owner, r, level));
        if outcome == PinOutcome::NewlyPinned {
            mpl_fail::hit_hard("heap/pin");
            self.stats.on_pin(obj.size_bytes());
            events::emit_obj(self.serial, EventKind::Pin, r, u32::from(level));
        }
        outcome
    }

    // ---- remembered sets ------------------------------------------------

    /// Publishes remembered-set entries — each `src[field]` holds a
    /// down-pointer into `dst_heap` — under one acquisition of that heap's
    /// lock. Mutators buffer entries privately and flush them here.
    pub fn remember(&self, dst_heap: u32, entries: &[RemsetEntry]) {
        if entries.is_empty() {
            return;
        }
        self.heaps.remember(dst_heap, entries);
        self.stats.add(Counter::remset_flushes, 1);
        self.stats
            .add(Counter::remset_inserts, entries.len() as u64);
        if events::tracing_enabled() {
            for e in entries {
                events::emit_obj(self.serial, EventKind::RemsetInsert, e.src, e.field);
            }
            events::emit(
                self.serial,
                EventKind::RemsetFlush,
                self.heaps.find(dst_heap),
                0,
                entries.len() as u32,
            );
        }
    }

    // ---- census ---------------------------------------------------------

    /// A lock-free census of the heap's side metadata: per-size-class
    /// block/line occupancy, fragmentation inputs, pinned/suspect
    /// populations, and a per-tenant live-bytes breakdown keyed off
    /// `TenantBudget` heap ownership.
    ///
    /// The walk takes one registry snapshot ([`BlockRegistry::live_blocks`])
    /// and then reads each block's counters and bitmaps with plain atomic
    /// loads — no lock is held while blocks are examined, and mutators
    /// keep allocating throughout. The snapshot is therefore *consistent
    /// per block* but only approximately consistent across blocks, the
    /// same contract every gauge in `StoreStats` already has.
    pub fn census(&self) -> mpl_obs::HeapCensus {
        let blocks = self.blocks.live_blocks();
        let mut classes: Vec<mpl_obs::ClassCensus> = (0..NUM_SIZE_CLASSES)
            .map(|class| mpl_obs::ClassCensus {
                class,
                ..Default::default()
            })
            .collect();
        let mut tenants: std::collections::BTreeMap<String, mpl_obs::TenantCensus> =
            std::collections::BTreeMap::new();
        let mut unattributed_blocks = 0u64;
        let mut unattributed_live_bytes = 0u64;
        for b in &blocks {
            let live = b.live_bytes() as u64;
            let pinned = u64::from(b.pinned_count());
            let entangled = b.is_entangled();
            let c = &mut classes[b.size_class().min(NUM_SIZE_CLASSES - 1)];
            c.blocks += 1;
            c.entangled_blocks += u64::from(entangled);
            c.full_blocks += u64::from(b.is_full());
            c.clean_blocks += u64::from(b.line_map_clean());
            c.capacity_words += b.capacity() as u64;
            c.allocated_words += b.allocated() as u64;
            c.lines_total += b.line_count() as u64;
            c.lines_in_use += b.lines_in_use() as u64;
            c.lines_marked += b.marked_lines() as u64;
            c.objects += b.object_count() as u64;
            c.pinned_objects += pinned;
            c.suspect_objects += b.suspect_count() as u64;
            c.live_bytes += live;
            // Attribution: the block's (canonicalized) owner heap either
            // sits under a tenant budget or counts as runtime-internal.
            match self.budget_of(b.owner()) {
                Some(budget) => {
                    let row = tenants.entry(budget.name().to_string()).or_insert_with(|| {
                        mpl_obs::TenantCensus {
                            name: budget.name().to_string(),
                            blocks: 0,
                            entangled_blocks: 0,
                            live_bytes: 0,
                            pinned_objects: 0,
                            budget_live_bytes: budget.live_bytes() as u64,
                            budget_limit: budget.limit() as u64,
                        }
                    });
                    row.blocks += 1;
                    row.entangled_blocks += u64::from(entangled);
                    row.live_bytes += live;
                    row.pinned_objects += pinned;
                }
                None => {
                    unattributed_blocks += 1;
                    unattributed_live_bytes += live;
                }
            }
        }
        mpl_obs::HeapCensus {
            at_ns: mpl_obs::now_ns(),
            heaps: self.heaps.len() as u64,
            blocks: blocks.len() as u64,
            blocks_issued: self.blocks.issued() as u64,
            live_bytes: classes.iter().map(|c| c.live_bytes).sum(),
            classes,
            tenants: tenants.into_values().collect(),
            unattributed_blocks,
            unattributed_live_bytes,
            provenance: mpl_obs::provenance_summary(),
        }
    }

    // ---- fork / join -----------------------------------------------------

    /// Creates an unbudgeted root heap and returns its id.
    pub fn new_root_heap(&self) -> u32 {
        self.heaps.new_root(None)
    }

    /// Creates a tenant's root heap. Heaps forked under it inherit the
    /// budget, so the tenant's whole subtree is accounted against one
    /// limit.
    pub fn new_tenant_root_heap(&self, budget: Arc<TenantBudget>) -> u32 {
        self.heaps.new_root(Some(budget))
    }

    /// The tenant budget the (canonicalized) heap is accounted against,
    /// if any.
    pub fn budget_of(&self, heap: u32) -> Option<Arc<TenantBudget>> {
        self.heaps.info(self.heaps.find(heap)).budget().cloned()
    }

    /// Creates the two child heaps of a fork from `parent`, eagerly (a
    /// running task's heaps are [`crate::LazyHeap`]s instead).
    pub fn fork_heaps(&self, parent: u32) -> (u32, u32) {
        let parent = self.heaps.find(parent);
        (self.heaps.child(parent), self.heaps.child(parent))
    }

    /// Joins the `children` a fork created into `parent`: merges block
    /// lists, remembered sets, and entangled indexes, and applies the
    /// unpin-at-join rule — every object pinned at a level `>=` the
    /// parent's depth is unpinned, because the tasks that entangled it are
    /// no longer concurrent. Index entries below that level cannot unpin
    /// here and are not visited, so the join costs in proportion to the
    /// pins it resolves.
    ///
    /// With no children the join is free and `parent` is not read (it may
    /// be [`crate::NO_HEAP`]): only a task below the parent pins one of its
    /// objects at its depth or deeper, and a task that pins has a heap, so
    /// there is nothing this join could unpin.
    ///
    /// Returns the number of objects unpinned and the live bytes merged
    /// in (so the resuming task can charge them toward its next local
    /// collection — merged garbage must not dodge the collector).
    pub fn join(&self, parent: u32, children: impl IntoIterator<Item = u32>) -> JoinOutcome {
        let mut children = children.into_iter().peekable();
        if children.peek().is_none() {
            return JoinOutcome::default();
        }
        let parent = self.heaps.find(parent);
        let info = self.heaps.info(parent);
        let join_depth = info.depth();
        let (moved, candidates) = self.heaps.join(parent, children);
        let merged_bytes = moved
            .iter()
            .filter_map(|&bid| self.blocks.try_get(bid))
            .map(|b| b.live_bytes())
            .sum();
        let mut unpinned = 0;
        for r in candidates {
            let Some(r) = self.try_resolve(r) else {
                continue; // the concurrent collector reclaimed it
            };
            let h = self.handle(r);
            if h.obj().header().is_dead() {
                continue;
            }
            if h.obj().try_unpin_at_join(join_depth) {
                h.block().add_pinned(-1);
                self.stats.on_unpin(h.obj().size_bytes());
                events::emit_obj(self.serial, EventKind::Unpin, r, u32::from(join_depth));
                unpinned += 1;
            } else if h.obj().header().is_pinned() {
                // A lowered pin: re-home it at its authoritative level.
                let level = h.obj().header().pin_level();
                info.with(|s| s.add_entangled(r, level));
            }
        }
        JoinOutcome {
            unpinned,
            merged_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        Store::new(StoreConfig {
            block_words: 12,
            ..Default::default()
        })
    }

    #[test]
    fn alloc_spills_to_new_blocks() {
        let s = store();
        let h = s.new_root_heap();
        let refs: Vec<ObjRef> = (0..10)
            .map(|i| s.alloc_values(h, ObjKind::Tuple, &[Value::Int(i)]))
            .collect();
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(s.handle(*r).field(0), Value::Int(i as i64));
            assert_eq!(s.heap_of(*r), h);
        }
        assert!(s.blocks().issued() >= 3, "12-word blocks must spill");
        assert_eq!(s.stats().snapshot().allocs, 10);
        assert!(s.stats().snapshot().blocks_allocated >= 3);
    }

    #[test]
    fn a_heaps_first_block_in_a_class_is_small() {
        let s = Store::default();
        let h = s.new_root_heap();
        // 3-word tuples (class 0): 21 fit the 64-word first block, the
        // 22nd opens a full-size one.
        let refs: Vec<ObjRef> = (0..22)
            .map(|i| s.alloc_values(h, ObjKind::Tuple, &[Value::Int(i)]))
            .collect();
        let capacity = |r: ObjRef| s.handle(r).block().capacity();
        assert_eq!(capacity(refs[0]), FIRST_BLOCK_WORDS);
        assert_eq!(refs[20].block(), refs[0].block());
        assert_ne!(refs[21].block(), refs[0].block());
        assert_eq!(capacity(refs[21]), DEFAULT_BLOCK_WORDS);
        // The first block of the overflow class fits an object larger
        // than 64 words exactly.
        let big = s.alloc_values(h, ObjKind::Tuple, &[Value::Unit; 98]);
        assert_eq!(capacity(big), 100);
        // Another heap starts small again.
        let other = s.new_root_heap();
        let r = s.alloc_values(other, ObjKind::Tuple, &[Value::Int(0)]);
        assert_eq!(capacity(r), FIRST_BLOCK_WORDS);
    }

    #[test]
    fn blocks_below_the_first_block_size_keep_their_layout() {
        // 12-word blocks: the first block is capped at 12 words, so ten
        // 3-word tuples take three blocks of four, as every block did.
        let s = store();
        let h = s.new_root_heap();
        let refs: Vec<ObjRef> = (0..10)
            .map(|i| s.alloc_values(h, ObjKind::Tuple, &[Value::Int(i)]))
            .collect();
        assert_eq!(s.blocks().issued(), 3);
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(r.block(), refs[i / 4 * 4].block());
            assert_eq!(s.handle(*r).block().capacity(), 12);
        }
    }

    #[test]
    fn size_classes_segregate_blocks() {
        let s = store();
        let h = s.new_root_heap();
        let small = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]); // 3 words: class 0
        let mid = s.alloc_values(h, ObjKind::Tuple, &[Value::Unit; 5]); // 7 words: class 1
        assert_ne!(
            small.block(),
            mid.block(),
            "different size classes bump different blocks"
        );
        let small2 = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(2)]);
        assert_eq!(small.block(), small2.block(), "same class shares a block");
    }

    #[test]
    fn oversized_objects_get_dedicated_blocks() {
        let s = store();
        let h = s.new_root_heap();
        // 34 words > block_words (12): dedicated block.
        let big = s.alloc_values(h, ObjKind::MutArr, &[Value::Unit; 32]);
        let hd = s.handle(big);
        assert_eq!(hd.len(), 32);
        assert!(hd.block().capacity() >= 34);
        assert!(
            hd.block().is_full(),
            "a dedicated block holds only its object"
        );
    }

    #[test]
    fn locality_follows_the_path() {
        let s = store();
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        let in_root = s.alloc_values(root, ObjKind::Tuple, &[]);
        let in_l = s.alloc_values(l, ObjKind::Tuple, &[]);
        let in_r = s.alloc_values(r, ObjKind::Tuple, &[]);

        let path_l = vec![root, l];
        assert!(s.is_local(&path_l, in_root));
        assert!(s.is_local(&path_l, in_l));
        assert!(!s.is_local(&path_l, in_r), "sibling allocation is remote");
        assert_eq!(s.entanglement_level(&path_l, in_r), 0);
    }

    #[test]
    fn join_merges_and_localizes() {
        let s = store();
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        let in_l = s.alloc_values(l, ObjKind::Tuple, &[]);
        let in_r = s.alloc_values(r, ObjKind::Tuple, &[]);
        s.join(root, [l, r]);
        let path = vec![root];
        assert!(s.is_local(&path, in_l));
        assert!(s.is_local(&path, in_r));
        assert_eq!(s.heap_of(in_l), root);
        assert_eq!(s.heap_of(in_r), root);
    }

    #[test]
    fn pin_and_unpin_at_join() {
        let s = store();
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        let in_r = s.alloc_values(r, ObjKind::Ref, &[Value::Unit]);
        // Task on the left path reads a pointer into the right heap:
        // entanglement at LCA depth 0.
        let path_l = vec![root, l];
        let level = s.entanglement_level(&path_l, in_r);
        let (pinned_ref, newly) = s.pin(in_r, level);
        assert!(newly);
        assert_eq!(pinned_ref, in_r);
        assert!(s.handle(in_r).header().is_pinned());
        assert_eq!(s.stats().snapshot().pins, 1);
        let (_, again) = s.pin(in_r, level);
        assert!(!again, "second pin is idempotent");

        // Join at depth 0 unpins (level 0 >= join depth 0).
        let out = s.join(root, [l, r]);
        assert_eq!(out.unpinned, 1);
        assert!(out.merged_bytes > 0, "children contributed live bytes");
        assert!(!s.handle(in_r).header().is_pinned());
        assert_eq!(s.stats().snapshot().unpins, 1);
        assert_eq!(s.stats().snapshot().pinned_bytes, 0);
    }

    #[test]
    fn deep_pin_survives_inner_join() {
        let s = store();
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        let (ll, lr) = s.fork_heaps(l);
        // Object in ll entangled with the far-right task: LCA is the root.
        let x = s.alloc_values(ll, ObjKind::Ref, &[Value::Unit]);
        let path_r = vec![root, r];
        let level = s.entanglement_level(&path_r, x);
        assert_eq!(level, 0);
        s.pin(x, level);

        // Inner join at depth 1 must NOT unpin (level 0 < 1).
        s.join(l, [ll, lr]);
        assert!(s.handle(x).header().is_pinned());

        // Outer join at depth 0 unpins.
        s.join(root, [l, r]);
        assert!(!s.handle(x).header().is_pinned());
    }

    #[test]
    fn remember_lands_on_the_canonical_heap() {
        let s = store();
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        s.join(root, [l, r]);
        // Remember against the merged id: lands on the canonical heap.
        let entry = RemsetEntry {
            src: ObjRef::new(0, 0),
            field: 0,
        };
        s.remember(l, &[entry]);
        s.remember(l, &[]);
        assert_eq!(s.heaps().info(root).with(|h| h.remset.len()), 1);
        assert_eq!(s.stats().snapshot().remset_inserts, 1);
        assert_eq!(s.stats().snapshot().remset_flushes, 1, "empty: no flush");
    }

    #[test]
    fn resolve_follows_forwarding() {
        let s = store();
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let b = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(2)]);
        s.handle(a).obj().try_forward(b).unwrap();
        assert_eq!(s.resolve(a), b);
        assert_eq!(s.resolved_handle(a).field(0), Value::Int(2));
    }

    #[test]
    fn census_counts_blocks_objects_and_tenants() {
        let s = store();
        let root = s.new_tenant_root_heap(TenantBudget::new("acme", 0));
        let other = s.new_root_heap(); // no budget: unattributed
        for i in 0..10 {
            s.alloc_values(root, ObjKind::Tuple, &[Value::Int(i)]);
        }
        s.alloc_values(other, ObjKind::Tuple, &[Value::Unit; 5]);
        let census = s.census();
        assert_eq!(census.blocks as usize, s.blocks().live());
        assert_eq!(census.live_bytes as usize, s.blocks().total_live_bytes());
        assert_eq!(census.objects(), 11);
        assert_eq!(census.classes.len(), NUM_SIZE_CLASSES);
        assert_eq!(census.classes[0].objects, 10, "3-word tuples are class 0");
        assert_eq!(census.classes[1].objects, 1, "7-word tuple is class 1");
        assert_eq!(census.tenants.len(), 1);
        let t = &census.tenants[0];
        assert_eq!(t.name, "acme");
        assert!(t.blocks >= 1);
        assert!(t.live_bytes > 0);
        assert!(census.unattributed_blocks >= 1);
        assert_eq!(
            t.live_bytes + census.unattributed_live_bytes,
            census.live_bytes
        );
        // Pin an object: the census sees it in the pinned population.
        let r = s.alloc_values(root, ObjKind::Ref, &[Value::Unit]);
        s.pin(r, 0);
        assert_eq!(s.census().pinned_objects(), 1);
    }

    #[test]
    fn resolve_compresses_multi_hop_chains() {
        let s = store();
        let h = s.new_root_heap();
        let a = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(1)]);
        let b = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(2)]);
        let c = s.alloc_values(h, ObjKind::Tuple, &[Value::Int(3)]);
        s.handle(a).obj().try_forward(b).unwrap();
        s.handle(b).obj().try_forward(c).unwrap();
        assert_eq!(s.resolve(a), c);
        // The chain was compressed: a now forwards straight to c.
        assert_eq!(s.handle(a).obj().forward_ref(), Some(c));
        assert_eq!(s.try_resolve(a), Some(c));
    }
}
