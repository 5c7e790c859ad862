//! Chrome trace-event JSON exporter.
//!
//! Produces the [trace-event format] consumed by `chrome://tracing` and
//! Perfetto. [`chrome_trace`] renders the span rings — one
//! `"ph":"B"`/`"ph":"E"` duration-event pair per recorded span
//! (timestamps in microseconds, one track per worker id) plus `"ph":"C"`
//! counter events for sampler gauges and `"ph":"M"` metadata events naming
//! the tracks; [`flight_chrome_trace`] renders a decoded flight
//! recording. Both go through the one event [`Emitter`].
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use crate::flight::{event_name, FlightEvent, FlightKind};
use crate::json::JsonWriter;
use crate::metrics::Metric;
use crate::sampler::Sample;
use crate::span::SpanRecord;

/// Builder of the `{"traceEvents":[...]}` document: every event gets the
/// fields the viewer requires, then whatever `extra` appends.
struct Emitter(JsonWriter);

impl Emitter {
    fn new() -> Emitter {
        let mut w = JsonWriter::new();
        w.begin_object().key("traceEvents").begin_array();
        Emitter(w)
    }

    fn event(
        &mut self,
        (name, cat, ph): (&str, &str, &str),
        ts_ns: u64,
        tid: u32,
        extra: impl FnOnce(&mut JsonWriter),
    ) {
        let w = &mut self.0;
        w.begin_object();
        w.field_str("name", name).field_str("cat", cat);
        w.field_str("ph", ph).field_f64("ts", ts_ns as f64 / 1e3);
        w.field_u64("pid", 1).field_u64("tid", u64::from(tid));
        extra(w);
        w.end_object();
    }

    /// A span's `B` or `E` event.
    fn edge(&mut self, s: &SpanRecord, ph: &str, ts_ns: u64) {
        self.event(
            (s.kind.name(), s.kind.category(), ph),
            ts_ns,
            s.worker,
            |_| {},
        );
    }

    fn finish(mut self) -> String {
        self.0.end_array().end_object();
        self.0.finish()
    }
}

/// Render spans and sampler history as a `chrome://tracing`-loadable JSON
/// document (`{"traceEvents":[...]}`).
///
/// Spans are grouped per worker track; within a track they are emitted as
/// properly nested `B`/`E` pairs (a span closing before the next one opens
/// is closed first), which is what the viewer's per-thread stack expects.
/// Sampler gauges become counter tracks on tid 0.
pub fn chrome_trace(spans: &[SpanRecord], samples: &[Sample]) -> String {
    let mut em = Emitter::new();

    // Group spans by worker track.
    let mut tracks: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        tracks.entry(s.worker).or_default().push(s);
    }

    for (&tid, track) in &mut tracks {
        em.event(("thread_name", "__metadata", "M"), 0, tid, |w| {
            w.key("args").begin_object();
            w.field_str("name", &format!("worker-{tid}")).end_object();
        });
        // Outer-first order: by start ascending, longer span first on ties.
        track.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns.cmp(&a.end_ns))
                .then(a.seq.cmp(&b.seq))
        });
        // Sweep with an open-span stack so every B gets its E at the right
        // depth (innermost spans close first).
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for s in track.iter() {
            while let Some(open) = stack.pop_if(|open| open.end_ns <= s.start_ns) {
                em.edge(open, "E", open.end_ns);
            }
            em.edge(s, "B", s.start_ns);
            stack.push(s);
        }
        while let Some(open) = stack.pop() {
            em.edge(open, "E", open.end_ns);
        }
    }

    for s in samples {
        for (name, value) in [
            ("alloc_rate_mib_s", s.alloc_bytes_per_s / (1024.0 * 1024.0)),
            ("live_bytes", s.live_bytes as f64),
            ("pinned_bytes", s.pinned_bytes as f64),
            ("worker_utilization", s.worker_utilization),
        ] {
            // Gauges are exported to three decimals; non-finite ones as 0.
            let v = if value.is_finite() { value } else { 0.0 };
            let v = (v * 1e3).round() / 1e3;
            em.event((name, "sampler", "C"), s.t_ns, 0, |w| {
                w.key("args").begin_object();
                w.field_f64("value", v).end_object();
            });
        }
    }

    em.finish()
}

/// Render decoded flight records as `chrome://tracing`-loadable JSON:
/// spans become complete (`"X"`) events on their metric's category
/// track; anomaly events and census deltas become global instants.
pub fn flight_chrome_trace(events: &[FlightEvent]) -> String {
    let mut em = Emitter::new();
    for e in events {
        match e.kind {
            FlightKind::Span => {
                let metric = Metric::from_index(e.code as usize);
                let name = metric.map_or("span", |m| m.name());
                let cat = metric.map_or("flight", |m| m.category());
                em.event((name, cat, "X"), e.a, 0, |w| {
                    w.field_f64("dur", e.b.saturating_sub(e.a) as f64 / 1e3);
                });
            }
            FlightKind::Event | FlightKind::Census => {
                let name = event_name(e.kind, e.code);
                em.event((name, "flight", "i"), e.t_ns, 0, |w| {
                    w.field_str("s", "g").key("args").begin_object();
                    w.field_u64("a", e.a).field_u64("b", e.b).end_object();
                });
            }
        }
    }
    em.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn span(seq: u64, kind: Metric, worker: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            seq,
            kind,
            worker,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_emit_balanced_pairs_in_stack_order() {
        // pause [100, 900] containing shield [120, 300] and evacuate
        // [310, 700], plus a disjoint later span [1000, 1100].
        let spans = vec![
            span(4, Metric::LgcPause, 2, 100, 900),
            span(1, Metric::LgcShield, 2, 120, 300),
            span(2, Metric::LgcEvacuate, 2, 310, 700),
            span(5, Metric::SchedRun, 2, 1000, 1100),
        ];
        let json = chrome_trace(&spans, &[]);
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 4);
        assert_eq!(e, 4);
        // The pause must open before the shield and close after evacuate.
        let pause_b = json
            .find("\"name\":\"lgc_pause\",\"cat\":\"gc.lgc\",\"ph\":\"B\"")
            .unwrap();
        let shield_b = json
            .find("\"name\":\"lgc_shield\",\"cat\":\"gc.lgc\",\"ph\":\"B\"")
            .unwrap();
        assert!(pause_b < shield_b);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }
}
