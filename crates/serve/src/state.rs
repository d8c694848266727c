//! Shared server state: the epoch-swapped snapshot cell and the atomic
//! statistics counters.
//!
//! ## The epoch-swap protocol
//!
//! The resident dataset lives in an [`Arc<Snapshot>`] behind an `RwLock`
//! that is only ever held for the nanoseconds of an `Arc` clone (readers)
//! or pointer swap (reload). A request clones the `Arc` once on entry and
//! works against that immutable snapshot for its whole lifetime, so:
//!
//! - **readers never block**: the critical section is a refcount bump;
//! - **reloads never wait for readers**: the swap replaces the pointer and
//!   returns; in-flight requests keep the old epoch alive through their
//!   clone and it drops when the last of them finishes (the drain);
//! - **no torn reads are possible**: a snapshot is frozen before it is
//!   published, and the `Arc` it travels in is immutable.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use shapefrag_core::IncrementalValidator;
use shapefrag_rdf::{FrozenGraph, Term};
use shapefrag_shacl::validator::ValidationReport;
use shapefrag_shacl::Schema;

/// One immutable published epoch: a schema and a frozen data graph,
/// plus the results computed against it. The graph never changes, so a
/// result computed once answers every later request on the epoch. A new
/// epoch starts with no results, except that `/update` publishes its
/// epoch with the incremental engine's report of the graph.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic epoch number, starting at 1.
    pub epoch: u64,
    pub schema: Arc<Schema>,
    /// The epoch's data graph: loaded at boot or `POST /reload`, or
    /// folded by the incremental engine on `POST /update`.
    pub frozen: Arc<FrozenGraph>,
    /// The view's validation report. Set only from a run that completed:
    /// a faulted run leaves it empty.
    report: OnceLock<EpochReport>,
    /// Finished single-shape `POST /fragment` bodies, keyed by the
    /// requested shape name.
    fragments: Mutex<BTreeMap<Term, Arc<String>>>,
}

/// An epoch's validation report with its `POST /validate` JSON body,
/// rendered once with the epoch.
#[derive(Debug)]
pub struct EpochReport {
    pub report: ValidationReport,
    pub json: String,
}

impl Snapshot {
    /// An epoch over `frozen` with no results computed yet.
    pub(crate) fn new(epoch: u64, schema: Arc<Schema>, frozen: Arc<FrozenGraph>) -> Snapshot {
        Snapshot {
            epoch,
            schema,
            frozen,
            report: OnceLock::new(),
            fragments: Mutex::new(BTreeMap::new()),
        }
    }

    /// The view's report, if a completed run has stored it.
    pub fn report(&self) -> Option<&EpochReport> {
        self.report.get()
    }

    /// Stores `report` as the view's report and returns the stored one. A
    /// report already stored by a concurrent run wins; both are reports
    /// of the same view, so they are equal.
    pub(crate) fn store_report(&self, report: ValidationReport) -> &EpochReport {
        self.report.get_or_init(|| {
            let json = report_json(&report, self.epoch);
            EpochReport { report, json }
        })
    }

    /// The stored fragment body of the single shape `name`.
    pub(crate) fn fragment(&self, name: &Term) -> Option<Arc<String>> {
        self.fragments
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Stores `body` as the fragment of the single shape `name`.
    pub(crate) fn store_fragment(&self, name: Term, body: Arc<String>) {
        self.fragments
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, body);
    }
}

/// The continuous-ingest state behind `POST /update`: the
/// incrementally-maintained validator plus the epoch it last published. An epoch moved by anything else (a `POST /reload`) makes
/// the updater stale; the handlers detect the mismatch and reseed from
/// the current snapshot.
pub struct Updater {
    pub inc: IncrementalValidator,
    pub epoch: u64,
}

/// The swap cell. See the module docs for the protocol.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes reload *builders* (parse + freeze happen outside the
    /// cell lock; this mutex only prevents two reloads interleaving their
    /// epoch numbering).
    reload: Mutex<()>,
}

impl SnapshotCell {
    pub fn new(first: Snapshot) -> SnapshotCell {
        SnapshotCell {
            current: RwLock::new(Arc::new(first)),
            reload: Mutex::new(()),
        }
    }

    /// Clones the current snapshot (the only reader entry point).
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Builds and publishes the next epoch. `build` receives the epoch
    /// number to stamp; it runs outside the read lock so readers are never
    /// blocked by parsing or freezing.
    pub fn swap<E>(
        &self,
        build: impl FnOnce(u64) -> Result<Snapshot, E>,
    ) -> Result<Arc<Snapshot>, E> {
        let _serial = self.reload.lock().unwrap_or_else(|e| e.into_inner());
        let next_epoch = self.load().epoch + 1;
        let built = Arc::new(build(next_epoch)?);
        let mut slot = self.current.write().unwrap_or_else(|e| e.into_inner());
        *slot = Arc::clone(&built);
        Ok(built)
    }

    /// How many clones of the current snapshot are alive (1 = only the
    /// cell itself; anything above that is in-flight readers).
    pub fn reader_count(&self) -> usize {
        Arc::strong_count(&self.load()).saturating_sub(2)
    }
}

/// Monotonic server counters, all relaxed atomics (observability, not
/// synchronization).
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests fully parsed off a socket.
    pub received: AtomicU64,
    /// Requests admitted through the gate.
    pub admitted: AtomicU64,
    /// Requests shed by admission control (503).
    pub shed: AtomicU64,
    /// Handler panics caught and converted to 500.
    pub panics: AtomicU64,
    /// Successful reloads (epoch swaps).
    pub reloads: AtomicU64,
    /// Successful `POST /update` edit batches (epoch swaps).
    pub updates: AtomicU64,
    /// Cumulative microseconds requests spent waiting for a gate slot
    /// (including requests that were ultimately shed). Reported
    /// separately from service time so queue pressure is visible even
    /// when handlers are fast.
    pub queue_wait_us: AtomicU64,
    /// Cumulative microseconds admitted requests spent executing their
    /// handler (service time proper, gate wait excluded).
    pub service_us: AtomicU64,
    /// Single-shape `POST /fragment` requests answered from the
    /// snapshot's stored body.
    pub fragment_cache_hits: AtomicU64,
    /// Single-shape `POST /fragment` requests the snapshot had no body
    /// for (computed against the graph).
    pub fragment_cache_misses: AtomicU64,
    /// Plain `POST /validate` requests answered from the snapshot's
    /// stored report.
    pub validate_cache_hits: AtomicU64,
    /// Plain `POST /validate` requests the snapshot had no report for
    /// (validated against the graph).
    pub validate_cache_misses: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused because the connection cap was reached.
    pub conn_refused: AtomicU64,
    /// Responses by status class/code we emit.
    pub s2xx: AtomicU64,
    pub s400: AtomicU64,
    pub s404: AtomicU64,
    pub s405: AtomicU64,
    pub s429: AtomicU64,
    pub s499: AtomicU64,
    pub s500: AtomicU64,
    pub s503: AtomicU64,
    pub s504: AtomicU64,
}

impl Stats {
    /// Bumps the counter for an emitted status code.
    pub fn record_status(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.s2xx,
            400 => &self.s400,
            404 => &self.s404,
            405 => &self.s405,
            429 => &self.s429,
            499 => &self.s499,
            503 => &self.s503,
            504 => &self.s504,
            _ => &self.s500,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the counters plus live gauges (read off the gate) as a
    /// JSON object body.
    pub fn to_json(
        &self,
        epoch: u64,
        triples: usize,
        shapes: usize,
        gate: &crate::gate::Gate,
        started: Instant,
    ) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            concat!(
                "{{\"epoch\":{},\"uptime_ms\":{},\"triples\":{},\"shapes\":{},",
                "\"inflight\":{},\"queued\":{},\"concurrency_cap\":{},",
                "\"queue_wait_us\":{},\"service_us\":{},",
                "\"received\":{},\"admitted\":{},\"shed\":{},\"panics\":{},",
                "\"reloads\":{},\"updates\":{},",
                "\"fragment_cache_hits\":{},\"fragment_cache_misses\":{},",
                "\"validate_cache_hits\":{},\"validate_cache_misses\":{},",
                "\"connections\":{},\"connections_refused\":{},",
                "\"status\":{{\"2xx\":{},\"400\":{},\"404\":{},\"405\":{},",
                "\"429\":{},\"499\":{},\"500\":{},\"503\":{},\"504\":{}}}}}"
            ),
            epoch,
            started.elapsed().as_millis(),
            triples,
            shapes,
            gate.inflight(),
            gate.waiting(),
            gate.cap(),
            g(&self.queue_wait_us),
            g(&self.service_us),
            g(&self.received),
            g(&self.admitted),
            g(&self.shed),
            g(&self.panics),
            g(&self.reloads),
            g(&self.updates),
            g(&self.fragment_cache_hits),
            g(&self.fragment_cache_misses),
            g(&self.validate_cache_hits),
            g(&self.validate_cache_misses),
            g(&self.connections),
            g(&self.conn_refused),
            g(&self.s2xx),
            g(&self.s400),
            g(&self.s404),
            g(&self.s405),
            g(&self.s429),
            g(&self.s499),
            g(&self.s500),
            g(&self.s503),
            g(&self.s504),
        )
    }
}

/// The `POST /validate` JSON body of `report`, computed against `epoch`.
pub(crate) fn report_json(report: &ValidationReport, epoch: u64) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{{\"epoch\":{},\"conforms\":{},\"checked\":{},\"violations\":[",
        epoch,
        report.conforms(),
        report.checked
    );
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"shape\":\"");
        let _ = write!(JsonEscaped(&mut out), "{}", v.shape);
        out.push_str("\",\"focus\":\"");
        let _ = write!(JsonEscaped(&mut out), "{}", v.focus);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_escaped(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string.
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A sink that JSON-escapes what is written to it, so a `Display` value
/// is escaped into the output without a temporary `String`.
struct JsonEscaped<'a>(&'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_json_escaped(self.0, s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::{Graph, Literal};
    use shapefrag_shacl::validator::Violation;

    fn snap(epoch: u64) -> Snapshot {
        Snapshot::new(
            epoch,
            Arc::new(Schema::empty()),
            Arc::new(Graph::new().freeze()),
        )
    }

    #[test]
    fn swap_bumps_epoch_and_old_readers_keep_their_snapshot() {
        let cell = SnapshotCell::new(snap(1));
        let old = cell.load();
        assert_eq!(old.epoch, 1);
        let published = cell
            .swap(|e| Ok::<_, ()>(snap(e)))
            .expect("swap cannot fail here");
        assert_eq!(published.epoch, 2);
        // The old reader still sees its epoch; new loads see the new one.
        assert_eq!(old.epoch, 1);
        assert_eq!(cell.load().epoch, 2);
    }

    #[test]
    fn failed_swap_leaves_current_epoch_in_place() {
        let cell = SnapshotCell::new(snap(1));
        let r: Result<_, String> = cell.swap(|_| Err("parse failed".to_string()));
        assert!(r.is_err());
        assert_eq!(cell.load().epoch, 1);
        // And the next successful swap still numbers correctly.
        cell.swap(|e| Ok::<_, ()>(snap(e))).unwrap();
        assert_eq!(cell.load().epoch, 2);
    }

    #[test]
    fn report_json_escapes_terms_in_place() {
        let report = ValidationReport {
            violations: vec![
                Violation {
                    shape: Term::iri("http://e/S"),
                    focus: Term::iri("http://e/a"),
                },
                Violation {
                    shape: Term::iri("http://e/S"),
                    focus: Term::from(Literal::lang_string("say \"hi\"\\\n\t\u{1}", "en")),
                },
            ],
            checked: 3,
        };
        // The body as rendered through per-term temporaries.
        let items: Vec<String> = report
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"shape\":\"{}\",\"focus\":\"{}\"}}",
                    json_escape(&v.shape.to_string()),
                    json_escape(&v.focus.to_string())
                )
            })
            .collect();
        assert_eq!(
            report_json(&report, 7),
            format!(
                "{{\"epoch\":7,\"conforms\":false,\"checked\":3,\"violations\":[{}]}}",
                items.join(",")
            )
        );
        assert_eq!(
            report_json(&ValidationReport::default(), 1),
            r#"{"epoch":1,"conforms":true,"checked":0,"violations":[]}"#
        );
    }

    #[test]
    fn a_stored_report_is_rendered_once_and_never_replaced() {
        let s = snap(4);
        assert!(s.report().is_none());
        let first = ValidationReport {
            violations: Vec::new(),
            checked: 2,
        };
        let stored = s.store_report(first.clone());
        assert_eq!(stored.report, first);
        assert_eq!(stored.json, report_json(&first, 4));
        // A concurrent run's report does not replace the stored one.
        let other = ValidationReport {
            violations: Vec::new(),
            checked: 9,
        };
        assert_eq!(s.store_report(other).report, first);
        assert_eq!(s.report().map(|r| r.report.checked), Some(2));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
