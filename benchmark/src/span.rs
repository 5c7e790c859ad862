//! Benchmark-side spans for the traced run: recorded around the calls
//! into each layer (nothing inside the program is instrumented), kept in
//! memory, written at exit as a Chrome trace, and reduced to self time
//! per layer (a span's duration minus what its child spans cover).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// The crate a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself (set-up, oracles, bookkeeping).
    Bench,
    Core,
    Gc,
    Serve,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Gc => "gc",
            Layer::Serve => "serve",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by all spans of one program run or one request.
    pub group: u64,
}

/// Open spans form a stack on the recording thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Spans beyond this are counted, not kept (a serve run makes one per
    /// request).
    cap: usize,
    pub dropped: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, layer: Layer, group: u64) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            self.open.push(usize::MAX);
            return;
        }
        let parent = self.open.iter().rev().find(|&&i| i != usize::MAX).copied();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            group,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now();
        if let Some(i) = self.open.pop() {
            if i != usize::MAX {
                self.spans[i].end_ns = now;
            }
        }
    }

    pub fn scope<T>(
        &mut self,
        name: &str,
        layer: Layer,
        group: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.enter(name, layer, group);
        let out = f(self);
        self.exit();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a closed span of `secs` seconds ending now, under the
    /// innermost open span: a child process's timed run, whose duration
    /// the child reported.
    pub fn span_ending_now(&mut self, name: &str, layer: Layer, group: u64, secs: f64) {
        self.enter(name, layer, group);
        if let Some(&i) = self.open.last().filter(|&&i| i != usize::MAX) {
            let floor = self.spans[i].parent.map_or(0, |p| self.spans[p].start_ns);
            self.spans[i].start_ns = self.spans[i]
                .start_ns
                .saturating_sub((secs * 1e9) as u64)
                .max(floor);
        }
        self.exit();
    }

    /// The spans as `[name, layer, start_ns, end_ns, parent, group]` rows,
    /// for a child process to hand to its parent.
    pub fn to_rows(&self) -> Json {
        let rows = self.spans.iter().map(|s| {
            Json::Arr(vec![
                s.name.as_str().into(),
                s.layer.name().into(),
                s.start_ns.into(),
                s.end_ns.into(),
                s.parent.map_or(Json::Null, Into::into),
                s.group.into(),
            ])
        });
        Json::Arr(rows.collect())
    }

    /// Adopts a child process's spans under the innermost open span. The
    /// child's clock started when it did, `started_ns` on this recorder's
    /// clock.
    pub fn graft(&mut self, rows: &Json, started_ns: u64) {
        let base = self.spans.len();
        let adopter = self.open.iter().rev().find(|&&i| i != usize::MAX).copied();
        for row in rows.arr() {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            let f = row.arr();
            let num = |i: usize| f.get(i).and_then(Json::num).unwrap_or(0.0) as u64;
            let layer = match f.get(1).and_then(Json::str) {
                Some("core") => Layer::Core,
                Some("gc") => Layer::Gc,
                Some("serve") => Layer::Serve,
                _ => Layer::Bench,
            };
            self.spans.push(Span {
                name: f.first().and_then(Json::str).unwrap_or("?").to_string(),
                layer,
                start_ns: started_ns + num(2),
                end_ns: started_ns + num(3),
                // Rows keep their order, so a parent index only moves by `base`.
                parent: f
                    .get(4)
                    .and_then(Json::num)
                    .map(|p| base + p as usize)
                    .or(adopter),
                group: num(5),
            });
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.now()
    }

    /// Self time per layer in ns: each span's duration minus its children's.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            *out.entry(s.layer.name()).or_insert(0) += own;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("name", s.name.as_str().into()),
                    ("cat", s.layer.name().into()),
                    ("ph", "X".into()),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    (
                        "dur",
                        (s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3).into(),
                    ),
                    ("pid", 1u64.into()),
                    ("tid", 1u64.into()),
                    (
                        "args",
                        obj([
                            ("id", i.into()),
                            ("parent", s.parent.map_or(Json::Null, Into::into)),
                            ("group", s.group.into()),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", "ms".into()),
            ("droppedSpans", self.dropped.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut r = Recorder::new(100);
        r.scope("outer", Layer::Bench, 1, |r| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            r.scope("run", Layer::Core, 1, |r| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                r.scope("lgc", Layer::Gc, 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let by_layer = r.self_time_by_layer();
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert!(by_layer["gc"] >= 2_000_000 && by_layer["core"] >= 2_000_000);
    }

    #[test]
    fn a_childs_spans_are_adopted_with_their_nesting() {
        let mut child = Recorder::new(10);
        child.scope("request", Layer::Core, 7, |r| {
            r.scope("force_lgc", Layer::Gc, 7, |_| ())
        });
        let rows = Json::parse(&child.to_rows().compact()).unwrap();
        let mut parent = Recorder::new(10);
        parent.enter("child:closed", Layer::Bench, 0);
        parent.graft(&rows, 1_000);
        parent.span_ending_now("runs", Layer::Core, 0, 3600.0);
        parent.exit();
        let spans = parent.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent, spans[1].group),
            ("request", Some(0), 7)
        );
        assert_eq!((spans[2].layer, spans[2].parent), (Layer::Gc, Some(1)));
        assert!(spans[1].start_ns >= 1_000);
        // A reported duration cannot start before the span that holds it.
        assert_eq!(
            (spans[3].parent, spans[3].start_ns),
            (Some(0), spans[0].start_ns)
        );
    }

    #[test]
    fn spans_beyond_the_cap_are_counted() {
        let mut r = Recorder::new(1);
        r.scope("kept", Layer::Bench, 0, |r| {
            r.scope("lost", Layer::Core, 0, |_| ())
        });
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.dropped, 1);
        assert!(r.spans()[0].end_ns >= r.spans()[0].start_ns);
    }
}
