//! A concurrent hash set shared by parallel tasks — the paper's motivating
//! kind of workload: a lock-free data structure whose nodes are allocated
//! by many tasks and read by their concurrent siblings.
//!
//! Run with: `cargo run --release --example entangled_dedup`

use mpl_bench_suite::by_name;
use mpl_runtime::{Runtime, RuntimeConfig, Value};

fn main() {
    let bench = by_name("dedup").expect("dedup benchmark");
    let n = 50_000;

    // Tasks entangle only when they run at once: on two workers, under a
    // schedule that makes the idle worker steal (at one worker each right
    // task runs after its sibling, in its heap, and nothing entangles).
    let stealing = |config: RuntimeConfig| {
        config
            .with_threads_exact(2)
            .with_failpoints(mpl_bench_suite::steal_schedule())
    };

    // Managed entanglement: works, and reports its management costs.
    let rt = Runtime::new(stealing(RuntimeConfig::managed()));
    let unique = rt.run(|m| Value::Int(bench.run_mpl(m, n)));
    let s = rt.stats();
    println!("deduplicated {n} items -> {unique:?} unique");
    println!("  entangled reads : {}", s.entangled_reads);
    println!("  objects pinned  : {}", s.pins);
    println!("  peak pinned     : {} bytes", s.max_pinned_bytes);
    println!("  all unpinned?   : {}", s.pinned_bytes == 0);

    // Prior MPL (detect-only) rejects the same program.
    let rt = Runtime::new(stealing(RuntimeConfig::detect_only()));
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(|m| Value::Int(bench.run_mpl(m, n)))
    }))
    .is_err();
    println!("prior MPL (DetectOnly) aborts on this program: {refused}");
}
