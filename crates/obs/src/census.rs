//! Heap census: structural occupancy and attribution snapshots.
//!
//! A *census* is a point-in-time walk over the heap's side metadata —
//! per-size-class block and line occupancy, fragmentation, pinned and
//! suspect populations, and a per-tenant live-bytes breakdown. `mpl-obs`
//! is a leaf crate, so this module owns only the *data model* and its
//! JSON/Prometheus renderings; the walk itself lives in `mpl-heap`
//! (`Store::census`), which reads each block's bitmaps lock-free and
//! fills these rows in.
//!
//! Two always-cheap companions live here too:
//!
//! * **Entanglement provenance** — a bounded lossy [`Ring`] of sampled
//!   `(reader depth, owner depth, size class, pinned?)` tuples recorded
//!   by the barrier slow tier (1-in-k, seeded upstream via the
//!   `mpl-fail` `decides` pattern). The census report aggregates the
//!   ring so experiments can say *which* cross-heap edges cause pins,
//!   not just how many.
//! * **GC census deltas** — one compact record per LGC reclaim / CGC
//!   sweep epilogue (they already iterate the bitmaps, so the numbers
//!   are free), kept as a last-value cell and mirrored into the flight
//!   recorder.
//!
//! Overhead discipline: recording a provenance sample or a GC delta is
//! gated on [`crate::enabled`] upstream; the ring write is one
//! [`Ring::push`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::flight;
use crate::json::JsonWriter;
use crate::prom::PromWriter;
use crate::ring::Ring;

/// Census rows track at most this many size classes (the heap currently
/// has 4; headroom keeps the aggregation arrays fixed-size).
pub const CENSUS_MAX_CLASSES: usize = 8;

/// Per-size-class occupancy rolled up over every live block of the class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCensus {
    /// The size class index (last class = overflow/dedicated blocks).
    pub class: usize,
    /// Live blocks serving this class.
    pub blocks: u64,
    /// Of those, blocks retained into the entangled space.
    pub entangled_blocks: u64,
    /// Blocks whose bump cursor reached capacity.
    pub full_blocks: u64,
    /// Blocks with a clean line map (wholesale-freeable by a sweep).
    pub clean_blocks: u64,
    /// Total capacity in words.
    pub capacity_words: u64,
    /// Words consumed by the bump cursors.
    pub allocated_words: u64,
    /// Total lines across the class's blocks.
    pub lines_total: u64,
    /// Lines overlapping the allocated region.
    pub lines_in_use: u64,
    /// Lines painted by the current/last concurrent mark.
    pub lines_marked: u64,
    /// Published objects.
    pub objects: u64,
    /// Currently pinned objects.
    pub pinned_objects: u64,
    /// Entanglement suspects: objects holding a down-pointer not yet made
    /// internal by its join, or a pointer into a heap off their path.
    pub suspect_objects: u64,
    /// Logical live bytes attributed to the class's blocks.
    pub live_bytes: u64,
}

impl ClassCensus {
    /// Allocated-words occupancy of the class's capacity, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        ratio(self.allocated_words, self.capacity_words)
    }

    /// Internal fragmentation: the share of bump-allocated bytes that is
    /// *not* logically live (dead-but-unreclaimed plus per-line waste).
    pub fn fragmentation(&self) -> f64 {
        let allocated_bytes = self.allocated_words * 8;
        if allocated_bytes == 0 {
            return 0.0;
        }
        (1.0 - ratio(self.live_bytes, allocated_bytes)).clamp(0.0, 1.0)
    }
}

/// Per-tenant attribution row, keyed by `TenantBudget` heap ownership.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantCensus {
    /// Budget name (tenant identity).
    pub name: String,
    /// Blocks owned by heaps under this tenant's budget.
    pub blocks: u64,
    /// Of those, entangled-space blocks.
    pub entangled_blocks: u64,
    /// Logical live bytes in those blocks (side-metadata truth).
    pub live_bytes: u64,
    /// Pinned objects in those blocks.
    pub pinned_objects: u64,
    /// The tenant budget's own live-bytes gauge, for cross-checking.
    pub budget_live_bytes: u64,
    /// The budget limit (0 = unlimited).
    pub budget_limit: u64,
}

/// Aggregated view of the provenance ring (see [`provenance_record`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProvenanceSummary {
    /// Samples ever recorded (including ones the ring has overwritten).
    pub recorded: u64,
    /// Samples currently retained in the ring (what the rest aggregates).
    pub retained: u64,
    /// Retained samples whose read/write pinned the target.
    pub pinned: u64,
    /// Retained samples per size class of the entangled target.
    pub by_class: [u64; CENSUS_MAX_CLASSES],
    /// Largest reader-vs-owner depth gap seen in the ring.
    pub max_depth_gap: u64,
    /// Mean depth gap over the retained samples.
    pub mean_depth_gap: f64,
}

/// One whole-heap census snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HeapCensus {
    /// Capture timestamp (ns since the telemetry epoch).
    pub at_ns: u64,
    /// Heap ids ever issued at capture — every fork adds two, and a join
    /// retires ids without reusing them, so this counts merged heaps too
    /// (it is not the number of live heaps).
    pub heaps: u64,
    /// Live blocks at capture.
    pub blocks: u64,
    /// Block ids ever issued (live + freed).
    pub blocks_issued: u64,
    /// Sum of per-block logical live bytes.
    pub live_bytes: u64,
    /// Per-size-class rollups, indexed by class.
    pub classes: Vec<ClassCensus>,
    /// Per-tenant attribution (sorted by name), for budgeted heaps.
    pub tenants: Vec<TenantCensus>,
    /// Blocks owned by heaps with no tenant budget.
    pub unattributed_blocks: u64,
    /// Live bytes in unattributed blocks.
    pub unattributed_live_bytes: u64,
    /// Aggregation of the entanglement-provenance ring at capture.
    pub provenance: ProvenanceSummary,
}

impl HeapCensus {
    /// Whole-heap weighted fragmentation (see [`ClassCensus::fragmentation`]).
    pub fn fragmentation(&self) -> f64 {
        let allocated: u64 = self.classes.iter().map(|c| c.allocated_words * 8).sum();
        if allocated == 0 {
            return 0.0;
        }
        (1.0 - ratio(self.live_bytes, allocated)).clamp(0.0, 1.0)
    }

    /// Share of live blocks whose line map is clean.
    pub fn clean_block_ratio(&self) -> f64 {
        let clean: u64 = self.classes.iter().map(|c| c.clean_blocks).sum();
        ratio(clean, self.blocks)
    }

    /// Total pinned objects across all classes.
    pub fn pinned_objects(&self) -> u64 {
        self.classes.iter().map(|c| c.pinned_objects).sum()
    }

    /// Total published objects across all classes.
    pub fn objects(&self) -> u64 {
        self.classes.iter().map(|c| c.objects).sum()
    }

    /// Renders the census as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("at_ns", self.at_ns);
        w.field_u64("heaps", self.heaps);
        w.field_u64("blocks", self.blocks);
        w.field_u64("blocks_issued", self.blocks_issued);
        w.field_u64("live_bytes", self.live_bytes);
        w.field_u64("objects", self.objects());
        w.field_u64("pinned_objects", self.pinned_objects());
        w.field_f64("fragmentation", self.fragmentation());
        w.field_f64("clean_block_ratio", self.clean_block_ratio());
        w.key("classes");
        w.begin_array();
        for c in &self.classes {
            w.begin_object();
            w.field_u64("class", c.class as u64);
            w.field_u64("blocks", c.blocks);
            w.field_u64("entangled_blocks", c.entangled_blocks);
            w.field_u64("full_blocks", c.full_blocks);
            w.field_u64("clean_blocks", c.clean_blocks);
            w.field_u64("capacity_words", c.capacity_words);
            w.field_u64("allocated_words", c.allocated_words);
            w.field_u64("lines_total", c.lines_total);
            w.field_u64("lines_in_use", c.lines_in_use);
            w.field_u64("lines_marked", c.lines_marked);
            w.field_u64("objects", c.objects);
            w.field_u64("pinned_objects", c.pinned_objects);
            w.field_u64("suspect_objects", c.suspect_objects);
            w.field_u64("live_bytes", c.live_bytes);
            w.field_f64("occupancy", c.occupancy());
            w.field_f64("fragmentation", c.fragmentation());
            w.end_object();
        }
        w.end_array();
        w.key("tenants");
        w.begin_array();
        for t in &self.tenants {
            w.begin_object();
            w.field_str("name", &t.name);
            w.field_u64("blocks", t.blocks);
            w.field_u64("entangled_blocks", t.entangled_blocks);
            w.field_u64("live_bytes", t.live_bytes);
            w.field_u64("pinned_objects", t.pinned_objects);
            w.field_u64("budget_live_bytes", t.budget_live_bytes);
            w.field_u64("budget_limit", t.budget_limit);
            w.end_object();
        }
        w.end_array();
        w.key("unattributed");
        w.begin_object();
        w.field_u64("blocks", self.unattributed_blocks);
        w.field_u64("live_bytes", self.unattributed_live_bytes);
        w.end_object();
        w.key("provenance");
        w.begin_object();
        w.field_u64("recorded", self.provenance.recorded);
        w.field_u64("retained", self.provenance.retained);
        w.field_u64("pinned", self.provenance.pinned);
        w.key("by_class");
        w.begin_array();
        for n in self.provenance.by_class {
            w.value_u64(n);
        }
        w.end_array();
        w.field_u64("max_depth_gap", self.provenance.max_depth_gap);
        w.field_f64("mean_depth_gap", self.provenance.mean_depth_gap);
        w.end_object();
        if let Some(gc) = last_gc_census() {
            w.key("last_gc");
            w.begin_object();
            w.field_str("kind", gc.kind.name());
            w.field_u64("at_ns", gc.at_ns);
            w.field_u64("live_bytes", gc.live_bytes);
            w.field_u64("blocks", gc.blocks);
            w.field_u64("reclaimed_bytes", gc.reclaimed_bytes);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// Appends the census metric families to a Prometheus document.
    pub fn write_prometheus(&self, w: &mut PromWriter) {
        w.gauge(
            "mpl_census_live_bytes",
            "Census sum of per-block logical live bytes",
            self.live_bytes as f64,
        );
        w.gauge(
            "mpl_census_blocks",
            "Live size-class blocks at census",
            self.blocks as f64,
        );
        w.gauge(
            "mpl_census_objects",
            "Published objects at census",
            self.objects() as f64,
        );
        w.gauge(
            "mpl_census_pinned_objects",
            "Pinned objects at census",
            self.pinned_objects() as f64,
        );
        w.gauge(
            "mpl_census_fragmentation_ratio",
            "Share of bump-allocated bytes not logically live",
            self.fragmentation(),
        );
        w.gauge(
            "mpl_census_clean_block_ratio",
            "Share of live blocks with a clean line map",
            self.clean_block_ratio(),
        );
        let class_labels: Vec<String> = self.classes.iter().map(|c| c.class.to_string()).collect();
        let series = |f: &dyn Fn(&ClassCensus) -> f64| -> Vec<(&str, f64)> {
            self.classes
                .iter()
                .zip(class_labels.iter())
                .map(|(c, l)| (l.as_str(), f(c)))
                .collect()
        };
        w.labeled_gauge(
            "mpl_census_class_blocks",
            "Live blocks per size class",
            "class",
            &series(&|c| c.blocks as f64),
        );
        w.labeled_gauge(
            "mpl_census_class_live_bytes",
            "Logical live bytes per size class",
            "class",
            &series(&|c| c.live_bytes as f64),
        );
        w.labeled_gauge(
            "mpl_census_class_occupancy_ratio",
            "Allocated-words occupancy per size class",
            "class",
            &series(&|c| c.occupancy()),
        );
        let tenant_rows: Vec<(&str, f64)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.live_bytes as f64))
            .collect();
        w.labeled_gauge(
            "mpl_census_tenant_live_bytes",
            "Census live bytes attributed to each tenant budget",
            "tenant",
            &tenant_rows,
        );
        let tenant_blocks: Vec<(&str, f64)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.blocks as f64))
            .collect();
        w.labeled_gauge(
            "mpl_census_tenant_blocks",
            "Census blocks attributed to each tenant budget",
            "tenant",
            &tenant_blocks,
        );
        w.counter(
            "mpl_census_entanglement_samples_total",
            "Entanglement-provenance samples recorded (sampled 1-in-k)",
            self.provenance.recorded,
        );
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------------
// Entanglement provenance ring.
// ---------------------------------------------------------------------------

/// One sampled entangled access observed by the barrier slow tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProvenanceSample {
    /// Depth of the reading/writing task's leaf heap.
    pub reader_depth: u16,
    /// Depth of the entangled object's owner heap.
    pub owner_depth: u16,
    /// Size class of the target object's block.
    pub size_class: u8,
    /// Whether this access pinned the target (a *new* pin, not a re-pin).
    pub pinned: bool,
}

/// Retained provenance samples (lossy: newer overwrite older).
const PROV_CAP: usize = 2048;

static PROV: Ring<1, PROV_CAP> = Ring::new();

fn pack(s: ProvenanceSample) -> u64 {
    (u64::from(s.reader_depth) << 32)
        | (u64::from(s.owner_depth) << 16)
        | (u64::from(s.size_class) << 8)
        | u64::from(s.pinned)
}

fn unpack(bits: u64) -> ProvenanceSample {
    ProvenanceSample {
        reader_depth: (bits >> 32) as u16,
        owner_depth: (bits >> 16) as u16,
        size_class: (bits >> 8) as u8,
        pinned: bits & 1 != 0,
    }
}

/// Record one sampled entangled access. Callers make the 1-in-k sampling
/// decision (and the [`crate::enabled`] check) upstream.
#[inline]
pub fn provenance_record(s: ProvenanceSample) {
    PROV.push([pack(s)]);
}

/// Clears the ring and its recorded count (bench-harness use).
pub fn reset_provenance() {
    PROV.clear();
}

/// Aggregates the retained provenance samples (read in arrival order).
pub fn provenance_summary() -> ProvenanceSummary {
    let samples: Vec<ProvenanceSample> = PROV
        .snapshot()
        .into_iter()
        .map(|r| unpack(r.words[0]))
        .collect();
    let mut sum = ProvenanceSummary {
        recorded: PROV.pushed(),
        retained: samples.len() as u64,
        ..ProvenanceSummary::default()
    };
    let mut gap_total = 0u64;
    for s in &samples {
        if s.pinned {
            sum.pinned += 1;
        }
        sum.by_class[(s.size_class as usize).min(CENSUS_MAX_CLASSES - 1)] += 1;
        let gap = u64::from(s.reader_depth.abs_diff(s.owner_depth));
        gap_total += gap;
        sum.max_depth_gap = sum.max_depth_gap.max(gap);
    }
    if !samples.is_empty() {
        sum.mean_depth_gap = gap_total as f64 / samples.len() as f64;
    }
    sum
}

// ---------------------------------------------------------------------------
// GC census deltas (piggybacked on LGC reclaim / CGC sweep epilogues).
// ---------------------------------------------------------------------------

/// Which collector produced a [`GcCensus`] delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcCensusKind {
    /// Local (moving) collection reclaim epilogue.
    Lgc,
    /// Concurrent collection sweep/epilogue completion.
    Cgc,
}

impl GcCensusKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            GcCensusKind::Lgc => "lgc",
            GcCensusKind::Cgc => "cgc",
        }
    }
}

/// A compact census delta recorded at a collection epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcCensus {
    /// The collector that produced it.
    pub kind: GcCensusKind,
    /// Timestamp (ns since the telemetry epoch).
    pub at_ns: u64,
    /// Whole-heap live bytes after the collection.
    pub live_bytes: u64,
    /// Live blocks after the collection.
    pub blocks: u64,
    /// Bytes reclaimed by this collection.
    pub reclaimed_bytes: u64,
}

static LAST_GC: Mutex<Option<GcCensus>> = Mutex::new(None);
static GC_CENSUSES: AtomicU64 = AtomicU64::new(0);

/// Record a collection-epilogue census delta: updates the last-value
/// cell and appends a census event to the flight recorder. Callers gate
/// on [`crate::enabled`]; epilogues are not hot paths, so a mutex is fine.
pub fn note_gc_census(kind: GcCensusKind, live_bytes: u64, blocks: u64, reclaimed_bytes: u64) {
    let at_ns = crate::now_ns();
    let rec = GcCensus {
        kind,
        at_ns,
        live_bytes,
        blocks,
        reclaimed_bytes,
    };
    *LAST_GC.lock().unwrap() = Some(rec);
    GC_CENSUSES.fetch_add(1, Ordering::Relaxed);
    let code = match kind {
        GcCensusKind::Lgc => flight::EV_LGC_CENSUS,
        GcCensusKind::Cgc => flight::EV_CGC_CENSUS,
    };
    flight::flight_record_at(
        at_ns,
        flight::FlightKind::Census,
        code,
        live_bytes,
        reclaimed_bytes,
    );
}

/// The most recent GC census delta, if any collection has completed
/// while telemetry was enabled.
pub fn last_gc_census() -> Option<GcCensus> {
    *LAST_GC.lock().unwrap()
}

/// Total GC census deltas recorded since process start.
pub fn gc_censuses() -> u64 {
    GC_CENSUSES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(reader: u16, owner: u16, class: u8, pinned: bool) -> ProvenanceSample {
        ProvenanceSample {
            reader_depth: reader,
            owner_depth: owner,
            size_class: class,
            pinned,
        }
    }

    #[test]
    fn provenance_pack_roundtrip() {
        for s in [
            sample(0, 0, 0, false),
            sample(7, 2, 3, true),
            sample(u16::MAX, 1, 255, false),
        ] {
            assert_eq!(unpack(pack(s)), s);
        }
    }

    #[test]
    fn provenance_ring_records_and_aggregates() {
        reset_provenance();
        provenance_record(sample(5, 1, 2, true));
        provenance_record(sample(3, 3, 0, false));
        let sum = provenance_summary();
        assert_eq!(sum.recorded, 2);
        assert_eq!(sum.retained, 2);
        assert_eq!(sum.pinned, 1);
        assert_eq!(sum.by_class[2], 1);
        assert_eq!(sum.by_class[0], 1);
        assert_eq!(sum.max_depth_gap, 4);
        assert!((sum.mean_depth_gap - 2.0).abs() < 1e-9);
        reset_provenance();
        assert_eq!(provenance_summary().retained, 0);
    }

    #[test]
    fn census_json_is_balanced_and_has_sections() {
        let census = HeapCensus {
            at_ns: 1,
            heaps: 2,
            blocks: 3,
            blocks_issued: 4,
            live_bytes: 640,
            classes: vec![ClassCensus {
                class: 0,
                blocks: 3,
                capacity_words: 512,
                allocated_words: 128,
                live_bytes: 640,
                objects: 20,
                ..ClassCensus::default()
            }],
            tenants: vec![TenantCensus {
                name: "t\"0".to_string(),
                blocks: 1,
                entangled_blocks: 0,
                live_bytes: 320,
                pinned_objects: 0,
                budget_live_bytes: 320,
                budget_limit: 4096,
            }],
            unattributed_blocks: 2,
            unattributed_live_bytes: 320,
            provenance: ProvenanceSummary::default(),
        };
        let json = census.to_json();
        for key in [
            "\"classes\"",
            "\"tenants\"",
            "\"provenance\"",
            "\"fragmentation\"",
            "\"clean_block_ratio\"",
            "\"unattributed\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced: {json}"
        );
    }

    #[test]
    fn census_prometheus_families_are_labeled() {
        let census = HeapCensus {
            blocks: 2,
            live_bytes: 100,
            classes: vec![
                ClassCensus {
                    class: 0,
                    blocks: 1,
                    allocated_words: 10,
                    capacity_words: 20,
                    live_bytes: 60,
                    ..ClassCensus::default()
                },
                ClassCensus {
                    class: 3,
                    blocks: 1,
                    live_bytes: 40,
                    ..ClassCensus::default()
                },
            ],
            tenants: vec![TenantCensus {
                name: "acme".to_string(),
                blocks: 1,
                entangled_blocks: 0,
                live_bytes: 40,
                pinned_objects: 0,
                budget_live_bytes: 40,
                budget_limit: 0,
            }],
            ..HeapCensus::default()
        };
        let mut w = PromWriter::new();
        census.write_prometheus(&mut w);
        let doc = w.finish();
        assert!(doc.contains("mpl_census_live_bytes 100"));
        assert!(doc.contains("mpl_census_class_blocks{class=\"0\"} 1"));
        assert!(doc.contains("mpl_census_class_blocks{class=\"3\"} 1"));
        assert!(doc.contains("mpl_census_tenant_live_bytes{tenant=\"acme\"} 40"));
        assert!(doc.contains("# TYPE mpl_census_fragmentation_ratio gauge"));
    }

    #[test]
    fn fragmentation_bounds() {
        let mut c = ClassCensus {
            allocated_words: 100,
            live_bytes: 800,
            ..ClassCensus::default()
        };
        assert!(
            c.fragmentation().abs() < 1e-9,
            "fully live: no fragmentation"
        );
        c.live_bytes = 0;
        assert!((c.fragmentation() - 1.0).abs() < 1e-9);
        c.allocated_words = 0;
        assert_eq!(c.fragmentation(), 0.0);
    }
}
