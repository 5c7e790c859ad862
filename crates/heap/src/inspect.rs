//! Heap introspection: structured reports over the hierarchy for
//! debugging, examples, and operational visibility.

use std::fmt;

use crate::store::Store;

/// A per-heap snapshot.
#[derive(Clone, Debug)]
pub struct HeapReport {
    /// Canonical heap id.
    pub id: u32,
    /// Depth in the hierarchy.
    pub depth: u16,
    /// Canonical parent id (self for roots).
    pub parent: u32,
    /// Blocks currently attributed to the heap.
    pub blocks: usize,
    /// Logical live bytes across those blocks.
    pub live_bytes: usize,
    /// Pinned objects attributed to those blocks.
    pub pinned: u32,
    /// Remembered-set entries.
    pub remset: usize,
    /// Entangled-index entries.
    pub entangled_index: usize,
}

/// A whole-store snapshot: one report per *canonical* (unmerged) heap.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// Per-heap rows, ordered by id.
    pub heaps: Vec<HeapReport>,
    /// Blocks ever created.
    pub blocks_issued: usize,
    /// Blocks currently live.
    pub blocks_live: usize,
    /// Total logical live bytes.
    pub live_bytes: usize,
}

/// Takes a snapshot of the hierarchy.
pub fn report(store: &Store) -> StoreReport {
    let mut heaps = Vec::new();
    let table = store.heaps();
    for id in (0..table.len() as u32).filter(|&id| table.is_canonical(id)) {
        let info = table.info(id);
        let Some((block_ids, remset, entangled_index)) =
            info.try_with(|s| (s.blocks.clone(), s.remset.len(), s.entangled_len()))
        else {
            continue; // joined since the filter looked
        };
        let mut live = 0usize;
        let mut pinned = 0u32;
        for bid in &block_ids {
            if let Some(b) = store.blocks().try_get(*bid) {
                live += b.live_bytes();
                pinned += b.pinned_count();
            }
        }
        heaps.push(HeapReport {
            id,
            depth: info.depth(),
            parent: table.parent_of(id),
            blocks: block_ids.len(),
            live_bytes: live,
            pinned,
            remset,
            entangled_index,
        });
    }
    StoreReport {
        heaps,
        blocks_issued: store.blocks().issued(),
        blocks_live: store.blocks().live(),
        live_bytes: store.blocks().total_live_bytes(),
    }
}

impl fmt::Display for StoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "store: {} live blocks ({} issued), {} live bytes",
            self.blocks_live, self.blocks_issued, self.live_bytes
        )?;
        writeln!(
            f,
            "{:<6} {:<6} {:<7} {:<7} {:<10} {:<7} {:<7} {:<9}",
            "heap", "depth", "parent", "blocks", "live", "pinned", "remset", "entangled"
        )?;
        for h in &self.heaps {
            writeln!(
                f,
                "{:<6} {:<6} {:<7} {:<7} {:<10} {:<7} {:<7} {:<9}",
                h.id,
                h.depth,
                h.parent,
                h.blocks,
                h.live_bytes,
                h.pinned,
                h.remset,
                h.entangled_index
            )?;
        }
        Ok(())
    }
}

/// Renders the hierarchy snapshot as a Graphviz `dot` digraph: one node
/// per canonical heap (labelled with depth, live bytes, pins), one edge
/// per parent link. Paste into `dot -Tsvg` to visualize a run.
pub fn to_dot(rep: &StoreReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "digraph heaps {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for h in &rep.heaps {
        let fill = if h.pinned > 0 {
            ", style=filled, fillcolor=\"#ffd9d9\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  h{} [label=\"heap {}\\nd={} live={}B\\npins={} ent={}\"{}];",
            h.id, h.id, h.depth, h.live_bytes, h.pinned, h.entangled_index, fill
        );
    }
    for h in &rep.heaps {
        if h.parent != h.id {
            let _ = writeln!(out, "  h{} -> h{};", h.parent, h.id);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ObjKind;
    use crate::store::StoreConfig;
    use crate::value::Value;

    #[test]
    fn report_tracks_hierarchy_shape() {
        let s = Store::new(StoreConfig {
            block_words: 24,
            ..Default::default()
        });
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        s.alloc_values(root, ObjKind::Tuple, &[Value::Int(1)]);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(2)]);
        s.pin(x, 0);

        let rep = report(&s);
        assert_eq!(rep.heaps.len(), 3);
        let lrep = rep.heaps.iter().find(|h| h.id == l).unwrap();
        assert_eq!(lrep.depth, 1);
        assert_eq!(lrep.parent, root);
        assert_eq!(lrep.pinned, 1);
        assert_eq!(lrep.entangled_index, 1);
        assert!(rep.live_bytes > 0);

        // Joins collapse rows.
        s.join(root, [l, r]);
        let rep = report(&s);
        assert_eq!(rep.heaps.len(), 1, "only the root remains canonical");
        let display = rep.to_string();
        assert!(display.contains("live blocks"));
    }

    #[test]
    fn dot_export_shape() {
        let s = Store::new(StoreConfig {
            block_words: 24,
            ..Default::default()
        });
        let root = s.new_root_heap();
        let (l, r) = s.fork_heaps(root);
        let x = s.alloc_values(l, ObjKind::Ref, &[Value::Int(2)]);
        s.pin(x, 0);
        let dot = to_dot(&report(&s));
        assert!(dot.starts_with("digraph heaps {"));
        assert!(dot.contains(&format!("h{root} -> h{l};")));
        assert!(dot.contains(&format!("h{root} -> h{r};")));
        assert!(dot.contains("fillcolor"), "pinned heaps are highlighted");
        assert!(dot.ends_with("}\n"));
    }
}
