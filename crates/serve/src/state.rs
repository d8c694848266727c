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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use shapefrag_core::IncrementalValidator;
use shapefrag_rdf::{DeltaGraph, FrozenGraph, Term};
use shapefrag_shacl::Schema;

/// One immutable published epoch: a schema and a frozen data graph,
/// optionally overlaid with the continuous-ingest delta.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonic epoch number, starting at 1.
    pub epoch: u64,
    pub schema: Arc<Schema>,
    pub frozen: Arc<FrozenGraph>,
    /// Delta overlay published by `POST /update`; readers evaluate the
    /// merged view. `None` after boot, `POST /reload`, or
    /// `POST /compact`.
    pub delta: Option<Arc<DeltaGraph>>,
    /// Triples in the published view (base − removed + added).
    pub triples: usize,
    /// Overlay additions (0 without a delta).
    pub delta_added: usize,
    /// Overlay tombstones (0 without a delta).
    pub delta_removed: usize,
}

/// The continuous-ingest state behind `POST /update` and `POST /compact`:
/// the incrementally-maintained validator plus the epoch it last
/// published. An epoch moved by anything else (a `POST /reload`) makes
/// the updater stale; the handlers detect the mismatch and reseed from
/// the current snapshot.
pub struct Updater {
    pub inc: IncrementalValidator,
    pub epoch: u64,
}

/// The per-epoch fragment cache behind `POST /fragment`: finished
/// N-Triples bodies of single-shape requests, keyed by the requested shape
/// name. The cache only moves forward: a request on a newer epoch clears
/// it (any edit can change fragment contents), and a request still
/// running on an older epoch bypasses it, so it can neither wipe the
/// newer entries nor insert bytes no later request could hit.
#[derive(Debug, Default)]
pub struct FragmentCache {
    /// Epoch the entries were computed against.
    epoch: u64,
    /// Shape name → finished response body.
    entries: BTreeMap<Term, Arc<String>>,
}

impl FragmentCache {
    /// The cached body of `name` for a request on `epoch`.
    pub fn get(&mut self, epoch: u64, name: &Term) -> Option<Arc<String>> {
        if !self.roll_to(epoch) {
            return None;
        }
        self.entries.get(name).cloned()
    }

    /// Caches `body` as `name`'s fragment at `epoch`; a no-op for an epoch
    /// older than the cache's.
    pub fn insert(&mut self, epoch: u64, name: Term, body: Arc<String>) {
        if self.roll_to(epoch) {
            self.entries.insert(name, body);
        }
    }

    /// Advances the cache to `epoch`, dropping the entries of the older
    /// one; `false` when `epoch` is older than the cache's own.
    fn roll_to(&mut self, epoch: u64) -> bool {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.entries.clear();
        }
        epoch == self.epoch
    }
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
    /// Successful `POST /compact` re-freezes (epoch swaps).
    pub compactions: AtomicU64,
    /// Cumulative microseconds requests spent waiting for a gate slot
    /// (including requests that were ultimately shed). Reported
    /// separately from service time so queue pressure is visible even
    /// when handlers are fast.
    pub queue_wait_us: AtomicU64,
    /// Cumulative microseconds admitted requests spent executing their
    /// handler (service time proper, gate wait excluded).
    pub service_us: AtomicU64,
    /// Single-shape `POST /fragment` requests answered from the fragment
    /// cache.
    pub fragment_cache_hits: AtomicU64,
    /// Single-shape `POST /fragment` requests the cache could not answer
    /// (computed against the graph).
    pub fragment_cache_misses: AtomicU64,
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
    #[allow(clippy::too_many_arguments)]
    pub fn to_json(
        &self,
        epoch: u64,
        triples: usize,
        shapes: usize,
        delta_added: usize,
        delta_removed: usize,
        gate: &crate::gate::Gate,
        started: Instant,
    ) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            concat!(
                "{{\"epoch\":{},\"uptime_ms\":{},\"triples\":{},\"shapes\":{},",
                "\"delta_added\":{},\"delta_removed\":{},",
                "\"inflight\":{},\"queued\":{},\"concurrency_cap\":{},",
                "\"queue_wait_us\":{},\"service_us\":{},",
                "\"received\":{},\"admitted\":{},\"shed\":{},\"panics\":{},",
                "\"reloads\":{},\"updates\":{},\"compactions\":{},",
                "\"fragment_cache_hits\":{},\"fragment_cache_misses\":{},",
                "\"connections\":{},\"connections_refused\":{},",
                "\"status\":{{\"2xx\":{},\"400\":{},\"404\":{},\"405\":{},",
                "\"429\":{},\"499\":{},\"500\":{},\"503\":{},\"504\":{}}}}}"
            ),
            epoch,
            started.elapsed().as_millis(),
            triples,
            shapes,
            delta_added,
            delta_removed,
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
            g(&self.compactions),
            g(&self.fragment_cache_hits),
            g(&self.fragment_cache_misses),
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

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::Graph;

    fn snap(epoch: u64) -> Snapshot {
        let g = Graph::new();
        Snapshot {
            epoch,
            schema: Arc::new(Schema::empty()),
            frozen: Arc::new(g.freeze()),
            delta: None,
            triples: 0,
            delta_added: 0,
            delta_removed: 0,
        }
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
    fn fragment_cache_only_moves_forward() {
        let a = Term::iri("http://e/A");
        let b = Term::iri("http://e/B");
        let body = |s: &str| Arc::new(s.to_string());
        let mut cache = FragmentCache::default();
        cache.insert(2, a.clone(), body("a@2"));
        // A request still on epoch 1 neither reads nor writes, and the
        // epoch-2 entry survives it.
        assert_eq!(cache.get(1, &a), None);
        cache.insert(1, b.clone(), body("b@1"));
        assert_eq!(cache.get(2, &a), Some(body("a@2")));
        assert_eq!(cache.get(2, &b), None);
        // A newer epoch drops everything computed against the older one.
        assert_eq!(cache.get(3, &a), None);
        cache.insert(2, a.clone(), body("a@2"));
        assert_eq!(cache.get(3, &a), None);
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
