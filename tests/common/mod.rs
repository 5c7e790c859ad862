//! Helpers shared by the integration tests.

#![allow(dead_code)] // each test binary uses a subset

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f` with panic output silenced (these panics are the point).
/// Serialized: the panic hook is process-global, and the test harness
/// runs tests in parallel.
pub fn quietly<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    out
}

/// Checks a Prometheus text document line by line: every line that is
/// not blank or a `# HELP`/`# TYPE` comment is `name[{labels}] value`,
/// with a metric-name stem and a numeric value. Returns the number of
/// sample lines, and panics on the first malformed one.
pub fn prometheus_samples(doc: &str) -> usize {
    let mut samples = 0;
    for line in doc.lines() {
        if line.is_empty() || line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("not `series value`: {line:?}"));
        let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line:?}"
        );
        assert!(labels.ends_with('}'), "unclosed labels: {line:?}");
        assert!(value.parse::<f64>().is_ok(), "bad value: {line:?}");
        samples += 1;
    }
    samples
}
