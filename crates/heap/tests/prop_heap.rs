//! Property tests for the heap substrate: value encoding, hierarchy
//! queries against naive oracles, and pin-level algebra.

use proptest::prelude::*;

use mpl_heap::{HeapTable, ObjKind, ObjRef, Store, StoreConfig, Value, Word, INT_MAX, INT_MIN};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every in-range integer survives the tagged-word roundtrip.
    #[test]
    fn int_word_roundtrip(i in INT_MIN..=INT_MAX) {
        prop_assert_eq!(Word::encode(Value::Int(i)).decode(), Value::Int(i));
    }

    /// Every (block, word) pair survives the roundtrip and registers as a
    /// pointer.
    #[test]
    fn obj_word_roundtrip(c in 0u32..=ObjRef::MAX_INDEX, s in 0u32..=ObjRef::MAX_INDEX) {
        let r = ObjRef::new(c, s);
        let w = Word::encode(Value::Obj(r));
        prop_assert!(w.is_pointer());
        prop_assert_eq!(w.decode(), Value::Obj(r));
    }
}

/// A random fork/join script over the heap table, mirrored by a naive
/// tree with explicit parent links.
#[derive(Clone, Debug)]
enum Op {
    /// Fork the leaf identified by (index into the live-leaf list mod len).
    Fork(usize),
    /// Join the most recently forked unjoined pair.
    Join,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(0usize..8).prop_map(Op::Fork), Just(Op::Join)],
        1..40,
    )
}

/// Naive oracle mirroring forks/joins with plain parent vectors.
#[derive(Default)]
struct Oracle {
    parent: Vec<usize>,
    depth: Vec<u16>,
    merged: Vec<usize>,
}

impl Oracle {
    fn find(&self, mut i: usize) -> usize {
        while self.merged[i] != i {
            i = self.merged[i];
        }
        i
    }

    fn on_path(&self, anc: usize, mut node: usize) -> bool {
        let anc = self.find(anc);
        node = self.find(node);
        loop {
            if node == anc {
                return true;
            }
            let p = self.find(self.parent[node]);
            if p == node {
                return false;
            }
            node = p;
        }
    }

    fn lca_depth(&self, a: usize, b: usize) -> u16 {
        let mut a = self.find(a);
        let mut b = self.find(b);
        while a != b {
            if self.depth[a] >= self.depth[b] {
                a = self.find(self.parent[a]);
            } else {
                b = self.find(self.parent[b]);
            }
        }
        self.depth[a]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The heap table agrees with the naive oracle on canonicalization,
    /// path membership, and LCA depth across arbitrary fork/join scripts.
    #[test]
    fn hierarchy_matches_oracle(script in ops()) {
        let table = HeapTable::new();
        let root = table.new_root(None);
        let mut oracle = Oracle {
            parent: vec![root as usize],
            depth: vec![0],
            merged: vec![root as usize],
        };
        // Live leaves + stack of unjoined forks (parent, l, r).
        let mut leaves: Vec<u32> = vec![root];
        let mut forks: Vec<(u32, u32, u32)> = Vec::new();

        for op in script {
            match op {
                Op::Fork(k) => {
                    let leaf = leaves[k % leaves.len()];
                    let (l, r) = table.fork(leaf);
                    oracle.parent.push(leaf as usize);
                    oracle.parent.push(leaf as usize);
                    let d = oracle.depth[oracle.find(leaf as usize)] + 1;
                    oracle.depth.push(d);
                    oracle.depth.push(d);
                    oracle.merged.push(l as usize);
                    oracle.merged.push(r as usize);
                    leaves.retain(|&x| x != leaf);
                    leaves.push(l);
                    leaves.push(r);
                    forks.push((leaf, l, r));
                }
                Op::Join => {
                    // Join the innermost fork whose children are leaves.
                    let pos = forks.iter().rposition(|&(_, l, r)| {
                        leaves.contains(&l) && leaves.contains(&r)
                    });
                    if let Some(pos) = pos {
                        let (p, l, r) = forks.remove(pos);
                        table.join(p, l, r);
                        oracle.merged[l as usize] = p as usize;
                        oracle.merged[r as usize] = p as usize;
                        leaves.retain(|&x| x != l && x != r);
                        leaves.push(p);
                    }
                }
            }
        }

        // Canonicalization, canonical depth, ancestry and LCA, for every
        // pair of ids ever issued (merged ones included). Ancestry is
        // asked the way the runtime asks it — is `i` on the root path of
        // `j`? — so every heap, not only the live leaves, ends a path.
        let n = oracle.parent.len();
        prop_assert_eq!(table.len(), n);
        for j in 0..n as u32 {
            let canon = oracle.find(j as usize);
            prop_assert_eq!(table.find(j) as usize, canon, "find({})", j);
            prop_assert_eq!(table.is_canonical(j), canon == j as usize);
            prop_assert_eq!(table.info(table.find(j)).depth(), oracle.depth[canon]);
            // The root path of `j`'s canonical heap, from the oracle.
            let mut path = Vec::new();
            let mut cur = canon;
            loop {
                path.push(cur as u32);
                let p = oracle.find(oracle.parent[cur]);
                if p == cur {
                    break;
                }
                cur = p;
            }
            path.reverse();
            for i in 0..n as u32 {
                let lca = oracle.lca_depth(i as usize, j as usize);
                prop_assert_eq!(table.lca_of(i, j), lca, "lca({}, {})", i, j);
                let (c, d, rel) = table.path_relation(&path, i);
                prop_assert_eq!(c as usize, oracle.find(i as usize));
                prop_assert_eq!(d, oracle.depth[oracle.find(i as usize)]);
                let on_path = oracle.on_path(i as usize, j as usize);
                prop_assert_eq!(rel.is_none(), on_path, "relation({}, path of {})", i, j);
                prop_assert_eq!(rel.unwrap_or(d), lca, "level({}, path of {})", i, j);
            }
        }
    }
}

/// Strategies for the inline-layout round-trip: every kind and a spread
/// of field shapes crossing every size class (including the overflow
/// class and the oversized dedicated-block path under a small
/// `block_words`).
fn boxed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (INT_MIN..=INT_MAX).prop_map(Value::Int),
    ]
}

fn shapes() -> impl Strategy<Value = Vec<(ObjKind, Vec<Value>)>> {
    let one = prop_oneof![
        proptest::collection::vec(boxed_value(), 0..=40).prop_map(|f| (ObjKind::Tuple, f)),
        boxed_value().prop_map(|v| (ObjKind::Ref, vec![v])),
        proptest::collection::vec(boxed_value(), 0..=40).prop_map(|f| (ObjKind::MutArr, f)),
    ];
    proptest::collection::vec(one, 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tentpole invariant: objects are laid out inline in raw block
    /// words, and every kind/field-shape combination round-trips through
    /// the bump allocator — header, kind, length, and every field —
    /// with all earlier objects still intact (no overlapping layouts).
    #[test]
    fn inline_layout_roundtrip(shapes in shapes()) {
        let s = Store::new(StoreConfig {
            block_words: 32, // small: forces overflow + oversized paths
            ..Default::default()
        });
        let h = s.new_root_heap();
        let mut allocated = Vec::new();
        for (kind, fields) in &shapes {
            let r = s.alloc_values(h, *kind, fields);
            allocated.push((r, *kind, fields.clone()));
        }
        // Read everything back only after all allocations: a layout bug
        // that overlaps a later object onto an earlier one shows up here.
        for (r, kind, fields) in &allocated {
            let block = s.blocks().get(r.block());
            let obj = block.get(r.word());
            let hdr = obj.header();
            prop_assert!(!hdr.is_dead() && !hdr.is_forwarded());
            prop_assert_eq!(obj.kind(), *kind);
            prop_assert_eq!(obj.len(), fields.len());
            prop_assert_eq!(
                obj.size_bytes(),
                mpl_heap::OBJECT_OVERHEAD_BYTES + 8 * fields.len()
            );
            let nwords = mpl_heap::OBJECT_HEADER_WORDS + fields.len();
            if nwords <= 32 {
                prop_assert_eq!(block.size_class(), mpl_heap::size_class(nwords));
            }
            for (i, want) in fields.iter().enumerate() {
                prop_assert_eq!(obj.field(i), *want, "field {} of {:?}", i, r);
            }
            // The publication bitmap knows exactly this object start.
            prop_assert!(
                block.objects().any(|(off, _)| off == r.word()),
                "obj_start bit missing for {:?}", r
            );
        }

        // Raw arrays round-trip bit-exactly through the same layout.
        let bits: Vec<Word> = (0..5u64)
            .map(|i| Word::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let r = s.alloc(h, ObjKind::RawArr, &bits);
        let block = s.blocks().get(r.block());
        let obj = block.get(r.word());
        prop_assert_eq!(obj.kind(), ObjKind::RawArr);
        for (i, w) in bits.iter().enumerate() {
            prop_assert_eq!(obj.load_raw(i), w.bits());
        }
    }
}
