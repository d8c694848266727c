//! Spans recorded from outside the program, around the calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A span's layer is the part of its name before the first `.`
//! (`rdf.parse` belongs to `rdf`). Its self time is its duration minus
//! the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    /// One trace per operation.
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Collects spans against one clock. A disabled tracer records nothing,
/// so the same code runs traced and untraced.
pub struct Tracer {
    clock: Instant,
    enabled: bool,
    next_id: u64,
    next_trace: u64,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            clock: Instant::now(),
            enabled: true,
            next_id: 1,
            next_trace: 1,
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// A fresh trace id (one per operation).
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace - 1
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        id
    }

    /// Starts a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, trace: u64, parent: Option<u64>, name: &str) -> u64 {
        let now = self.now_ns();
        self.record(trace, parent, name, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u64) {
        if self.enabled {
            let now = self.now_ns();
            self.span_mut(id).end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(trace, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Attaches a counter to a recorded span.
    pub fn count(&mut self, id: u64, name: &str, value: f64) {
        if self.enabled {
            self.span_mut(id).counters.push((name.to_string(), value));
        }
    }

    fn span_mut(&mut self, id: u64) -> &mut Span {
        self.spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("span ids come from this tracer")
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("trace", Json::from(s.trace)),
                        ("span", Json::from(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("name", Json::from(s.name.as_str())),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        (
                            "counters",
                            Json::Obj(
                                s.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map(Vec::as_mut_slice)
                .unwrap_or(&mut []);
            (s.id, s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Self time summed per layer, in ns.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer().to_string()).or_default() += selfs[&s.id];
    }
    out
}

/// The share of root-span time that child spans cover, over all roots
/// whose name starts with `prefix`.
pub fn attributed_frac(spans: &[Span], prefix: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut covered_ns, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with(prefix))
    {
        total += s.dur_ns();
        covered_ns += s.dur_ns() - selfs[&s.id];
    }
    if total == 0 {
        0.0
    } else {
        covered_ns as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "cli.validate", 0, 100),
            // Overlapping children cover [10, 60) once, not 30 + 40.
            span(2, Some(1), "rdf.parse", 10, 40),
            span(3, Some(1), "rdf.freeze", 20, 60),
            // A child sticking out of its parent only counts inside it.
            span(4, Some(1), "shacl.validate", 90, 130),
            // A grandchild is charged to its own parent, not the root.
            span(5, Some(2), "rdf.intern", 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&5], 10);
        let layers = self_time_by_layer(&spans);
        assert_eq!(layers["cli"], 40);
        assert_eq!(layers["rdf"], 20 + 40 + 10);
        assert_eq!(layers["shacl"], 40);
        assert!((attributed_frac(&spans, "cli.") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nested_spans_with_one_trace_id() {
        let mut t = Tracer::new();
        let trace = t.new_trace();
        let root = t.open(trace, None, "cli.validate");
        let v = t.time(trace, Some(root), "rdf.parse", || 7);
        assert_eq!(v, 7);
        t.close(root);
        t.count(root, "triples", 3.0);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.iter().all(|s| s.trace == trace));
        let (r, c) = (&t.spans[0], &t.spans[1]);
        assert_eq!(c.parent, Some(r.id));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(r.counters, vec![("triples".to_string(), 3.0)]);
        assert_eq!(t.to_json().as_arr().map(<[Json]>::len), Some(2));
        assert_ne!(t.new_trace(), trace);

        // The untraced twin runs the same code and records nothing.
        let mut off = Tracer::disabled();
        let root = off.open(1, None, "cli.validate");
        assert_eq!(off.time(1, Some(root), "rdf.parse", || 7), 7);
        off.close(root);
        off.count(root, "triples", 3.0);
        assert!(off.spans.is_empty());
    }
}
