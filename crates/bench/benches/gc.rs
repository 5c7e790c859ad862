//! Criterion benchmarks for the collectors: local collection at several
//! live fractions, pin shielding, and the O(1) join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mpl_gc::collect_local;
use mpl_heap::{ObjKind, ObjRef, Store, StoreConfig, Value};

/// Builds a heap with `n` objects of which every `keep_every`-th is
/// rooted (a live-fraction knob), then measures one collection.
fn bench_lgc(c: &mut Criterion) {
    let mut g = c.benchmark_group("lgc");
    g.sample_size(20);
    for keep_every in [2usize, 4, 16] {
        g.bench_with_input(
            BenchmarkId::new("collect_4k_objects_live_1_in", keep_every),
            &keep_every,
            |b, &keep_every| {
                b.iter_with_setup(
                    || {
                        let s = Store::new(StoreConfig::default());
                        let root = s.new_root_heap();
                        let (l, _r) = s.fork_heaps(root);
                        let mut roots = Vec::new();
                        for i in 0..4096 {
                            let o = s.alloc_values(l, ObjKind::Tuple, &[Value::Int(i)]);
                            if (i as usize).is_multiple_of(keep_every) {
                                roots.push(o);
                            }
                        }
                        (s, l, roots)
                    },
                    |(s, l, mut roots)| {
                        let out = collect_local(&s, l, &mut roots);
                        for &id in &out.dead_blocks {
                            s.blocks().free(id);
                        }
                        out
                    },
                );
            },
        );
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.sample_size(30);
    g.bench_function("fork_join_with_64_pins", |b| {
        b.iter_with_setup(
            || {
                let s = Store::new(StoreConfig::default());
                let root = s.new_root_heap();
                let (l, r) = s.fork_heaps(root);
                for i in 0..64 {
                    let o = s.alloc_values(l, ObjKind::Ref, &[Value::Int(i)]);
                    s.pin(o, 0);
                }
                (s, root, l, r)
            },
            |(s, root, l, r)| s.join(root, [l, r]),
        );
    });
    g.bench_function("pin_unpinned_object", |b| {
        let s = Store::new(StoreConfig::default());
        let root = s.new_root_heap();
        let (l, _r) = s.fork_heaps(root);
        let objs: Vec<ObjRef> = (0..4096)
            .map(|i| s.alloc_values(l, ObjKind::Ref, &[Value::Int(i)]))
            .collect();
        let mut i = 0;
        b.iter(|| {
            let r = objs[i % objs.len()];
            i += 1;
            s.pin(r, 0)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_lgc, bench_join);
criterion_main!(benches);
