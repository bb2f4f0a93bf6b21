//! Benchmark-side tracing: spans around each `backup`/`restore` call (the
//! root), each `Chunker::chunk` call and each `ChunkStore` method, recorded
//! by wrappers in this crate only — the program under test is untouched.
//!
//! Spans are kept in memory and drained when the traced run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover; a root's self time is everything the
//! service did outside chunking and the store (front-end queueing,
//! cluster round-trips, store-lock waits, `record_batch`, restore
//! assembly).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use shhc_chunking::{Chunk, Chunker};
use shhc_storage::{ChunkStore, StoreStats};
use shhc_types::{ChunkId, Fingerprint, Result};

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span's id (`None` for a root).
    pub parent: Option<u64>,
    /// The root call this span belongs to (a root's own id).
    pub call: u64,
    /// Payload bytes the span handled (chunked, stored or fetched).
    pub bytes: u64,
    /// Items the span produced or handled (chunks, ids).
    pub items: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    /// Root id of the restore in flight (0: none). A pipelined restore
    /// fetches on a prefetch thread the service spawns, which has no
    /// thread-local root; its store spans attach to this restore. Every
    /// workload runs at most one restore at a time, so the attribution
    /// is exact.
    restore_root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static CURRENT_ROOT: Cell<u64> = const { Cell::new(0) };
    /// Set once a thread has made a root call: a client thread's work
    /// between calls (e.g. retention deletes) belongs to no root.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        restore_root: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Drains every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Runs `f` as a root span (a `backup` or `restore` call).
    pub fn root<R>(&self, name: &'static str, restore: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        IS_CLIENT.with(|c| c.set(true));
        CURRENT_ROOT.with(|c| c.set(id));
        if restore {
            self.restore_root.store(id, Ordering::SeqCst);
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        if restore {
            self.restore_root.store(0, Ordering::SeqCst);
        }
        CURRENT_ROOT.with(|c| c.set(0));
        self.push(Span {
            name,
            start,
            end,
            id,
            parent: None,
            call: id,
            bytes: 0,
            items: 0,
        });
        out
    }

    /// Runs `f` as a child span of the current root; `f` returns its
    /// result plus the span's `(bytes, items)`. Outside a root (or with
    /// tracing off) `f` runs unrecorded.
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64, u64)) -> R {
        if !self.enabled() {
            return f().0;
        }
        let root = match CURRENT_ROOT.with(Cell::get) {
            0 if !IS_CLIENT.with(Cell::get) => self.restore_root.load(Ordering::SeqCst),
            id => id,
        };
        if root == 0 {
            return f().0;
        }
        let start = self.now();
        let (out, bytes, items) = f();
        let end = self.now();
        self.push(Span {
            name,
            start,
            end,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(root),
            call: root,
            bytes,
            items,
        });
        out
    }
}

/// A `Chunker` that records a `chunking` span per call. It collects the
/// chunks before returning, as the service does, so the span covers the
/// whole content-defined cut and SHA-1 work.
pub struct TracedChunker<C>(pub C);

impl<C: Chunker> Chunker for TracedChunker<C> {
    fn chunk<'a>(&'a self, data: &'a [u8]) -> Box<dyn Iterator<Item = Chunk> + 'a> {
        if !tracer().enabled() {
            return self.0.chunk(data);
        }
        let chunks: Vec<Chunk> = tracer().child("chunking", || {
            let v: Vec<Chunk> = self.0.chunk(data).collect();
            let n = v.len() as u64;
            (v, data.len() as u64, n)
        });
        Box::new(chunks.into_iter())
    }
}

/// A `ChunkStore` that records a `storage.<method>` span per call.
pub struct TracedStore<S>(pub S);

impl<S: ChunkStore> ChunkStore for TracedStore<S> {
    fn put(&mut self, fingerprint: Fingerprint, data: Vec<u8>) -> Result<ChunkId> {
        let len = data.len() as u64;
        tracer().child("storage.put", || (self.0.put(fingerprint, data), len, 1))
    }

    fn get(&self, id: ChunkId) -> Result<Vec<u8>> {
        tracer().child("storage.get", || {
            let r = self.0.get(id);
            let len = r.as_ref().map_or(0, |d| d.len() as u64);
            (r, len, 1)
        })
    }

    fn fingerprint_of(&self, id: ChunkId) -> Result<Fingerprint> {
        tracer().child("storage.fingerprint_of", || {
            (self.0.fingerprint_of(id), 0, 1)
        })
    }

    fn add_ref(&mut self, id: ChunkId) -> Result<()> {
        tracer().child("storage.add_ref", || (self.0.add_ref(id), 0, 1))
    }

    fn release(&mut self, id: ChunkId) -> Result<u32> {
        tracer().child("storage.release", || (self.0.release(id), 0, 1))
    }

    fn get_many(&self, ids: &[ChunkId]) -> Result<Vec<Vec<u8>>> {
        tracer().child("storage.get_many", || {
            let r = self.0.get_many(ids);
            let len = r
                .as_ref()
                .map_or(0, |v| v.iter().map(|d| d.len() as u64).sum());
            (r, len, ids.len() as u64)
        })
    }

    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    /// Wall time of the spans themselves.
    pub total_ns: u64,
    /// Wall time not covered by child spans.
    pub self_ns: u64,
    pub bytes: u64,
    pub items: u64,
}

/// Per-name totals, plus the sum of root durations the self times must
/// account for.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Breakdown {
    pub layers: BTreeMap<&'static str, LayerTotal>,
    pub root_ns: u64,
    /// Sum of every span's self time; equals `root_ns` when children nest
    /// inside their root and do not overlap one another.
    pub self_sum_ns: u64,
}

impl Breakdown {
    pub fn layer(&self, name: &str) -> LayerTotal {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span name: a span's duration minus the union of its
/// children's intervals (clipped to the span).
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = Breakdown::default();
    for s in spans {
        let dur = s.duration();
        let kids = children.remove(&s.id).unwrap_or_default();
        let self_ns = dur - covered(kids, s.start, s.end);
        let t = out.layers.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
        t.bytes += s.bytes;
        t.items += s.items;
        if s.parent.is_none() {
            out.root_ns += dur;
        }
        out.self_sum_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            call: parent.unwrap_or(id),
            bytes: 0,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("backup", 1, None, 0, 100),
            span("chunking", 2, Some(1), 0, 30),
            span("storage.put", 3, Some(1), 50, 60),
            span("restore", 4, None, 200, 250),
            span("storage.get_many", 5, Some(4), 210, 240),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.layer("backup").self_ns, 60);
        assert_eq!(b.layer("backup").total_ns, 100);
        assert_eq!(b.layer("chunking").self_ns, 30);
        assert_eq!(b.layer("storage.put").self_ns, 10);
        assert_eq!(b.layer("restore").self_ns, 20);
        assert_eq!(b.layer("storage.get_many").calls, 1);
        assert_eq!(b.root_ns, 150);
        assert_eq!(b.self_sum_ns, b.root_ns, "self times account for the roots");
    }

    #[test]
    fn overlapping_children_count_once_against_the_parent() {
        let spans = [
            span("restore", 1, None, 0, 100),
            span("storage.get_many", 2, Some(1), 10, 50),
            span("storage.get_many", 3, Some(1), 40, 70),
            // Clipped to the parent's interval.
            span("storage.get_many", 4, Some(1), 90, 120),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.layer("restore").self_ns, 100 - 60 - 10);
        assert_eq!(covered(vec![(0, 5), (5, 10)], 0, 10), 10);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn wrappers_record_spans_under_the_current_root() {
        let t = tracer();
        t.set_enabled(true);
        let store = std::cell::RefCell::new(TracedStore(shhc_storage::MemChunkStore::new(1 << 16)));
        let chunker = TracedChunker(shhc_chunking::FixedChunker::new(64));
        // Unrecorded outside a root.
        let _ = chunker.chunk(&[0u8; 8]).count();
        t.root("backup", false, || {
            for c in chunker.chunk(&[7u8; 256]) {
                let id = store.borrow_mut().put(c.fingerprint, c.data).unwrap();
                store.borrow_mut().add_ref(id).unwrap();
            }
        });
        t.set_enabled(false);
        let spans = t.take();
        let b = breakdown(&spans);
        assert_eq!(b.layer("backup").calls, 1);
        assert_eq!(b.layer("chunking").calls, 1);
        assert_eq!(b.layer("chunking").items, 4);
        assert_eq!(b.layer("chunking").bytes, 256);
        assert_eq!(b.layer("storage.put").calls, 4);
        assert_eq!(b.layer("storage.put").bytes, 256);
        assert_eq!(b.layer("storage.add_ref").calls, 4);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.parent.is_some())
            .all(|s| s.parent == Some(root.id) && s.call == root.id));
        assert_eq!(b.self_sum_ns, b.root_ns);
    }
}
