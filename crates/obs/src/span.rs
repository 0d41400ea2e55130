//! Lightweight tracing: spans recording name, trace membership,
//! monotonic start, duration, and parent, collected into a bounded
//! in-memory ring.
//!
//! A [`SpanGuard`] costs two reads of its ring's [`Clock`] (one at open,
//! one at close) and one short mutex-guarded push on drop — cheap enough
//! for request-rate events (per `Compare`, per epoch publication), not
//! meant for the inner SA loop (use the sched `TelemetrySink` there).
//!
//! Parent linkage is tracked per thread: a span opened while another is
//! live on the same thread records that span as its parent, giving a
//! hierarchy (`request` → `evaluate_mapping`) without any allocation at
//! record time.
//!
//! Trace linkage crosses *processes*: a root span minted with
//! [`mint_trace_id`] (or joined from a remote parent with
//! [`SpanRing::span_rooted`]) stamps a `trace` id into the same
//! thread-local context, and every span opened beneath it — in any ring
//! — inherits that id. [`current_trace`] exposes the live `(trace,
//! span)` pair so protocol clients can forward it on the wire.

use crate::clock::Clock;
use crate::metrics::Histogram;
use parking_lot::Mutex;
use serde::Serialize;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

thread_local! {
    /// Id of the innermost live span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Trace id the innermost rooted span joined (0 = untraced).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Draw `n` of this process's random sequence: a per-process random seed
/// through the splitmix64 finalizer — no wall-clock involved.
fn process_mix(n: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let state = std::collections::hash_map::RandomState::new();
        let mut h = state.build_hasher();
        h.write_u64(std::process::id() as u64);
        h.finish()
    });
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Next span id: unique across *all* rings of the process (a router and
/// its daemons in one process nest spans across rings), counting up from
/// draw 0 below 2^63, so no id meets another process's parent id.
fn next_span_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| AtomicU64::new((process_mix(0) >> 1).max(1)));
    next.fetch_add(1, Ordering::Relaxed)
}

/// Mint a process-unique, cross-process-unlikely-to-collide trace id
/// (never 0): draws 1, 2, … of the process sequence.
pub fn mint_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    process_mix(NEXT.fetch_add(1, Ordering::Relaxed)).max(1)
}

/// The live trace context of this thread: `(trace_id, span_id)` of the
/// innermost open span when it belongs to a trace, `None` when the
/// current work is untraced. Protocol clients stamp outgoing request
/// envelopes from this.
pub fn current_trace() -> Option<(u64, u64)> {
    let trace = CURRENT_TRACE.with(|c| c.get());
    if trace == 0 {
        None
    } else {
        Some((trace, CURRENT_SPAN.with(|c| c.get())))
    }
}

/// One finished span; it serialises as one JSONL export line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// Static span name (e.g. `"compare"`).
    pub name: &'static str,
    /// Trace this span belongs to (0 = untraced).
    pub trace: u64,
    /// Unique in the process, counting up from a random per-process base.
    pub id: u64,
    /// Id of the enclosing span on the same thread (or the remote
    /// parent for rooted spans), 0 for roots.
    pub parent: u64,
    /// Start offset in microseconds on the ring's [`Clock`] (for the
    /// default clock, since the process epoch).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

struct RingInner {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

/// A bounded ring of finished spans. When full, the oldest span is
/// evicted and counted in [`SpanRing::dropped`] — recording never blocks
/// on a slow consumer.
pub struct SpanRing {
    inner: Mutex<RingInner>,
    capacity: usize,
    clock: Clock,
}

impl SpanRing {
    /// A ring of at most `capacity` finished spans on the default clock.
    pub fn new(capacity: usize) -> Self {
        SpanRing::with_clock(capacity, Clock::default())
    }

    /// A ring whose spans read `clock` (a registry passes its own).
    pub(crate) fn with_clock(capacity: usize, clock: Clock) -> Self {
        SpanRing {
            inner: Mutex::new(RingInner {
                records: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity: capacity.max(1),
            clock,
        }
    }

    /// Open a span; it records itself into the ring when dropped. The
    /// parent link and trace id are inherited from the innermost live
    /// span on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = next_span_id();
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        let trace = CURRENT_TRACE.with(|c| c.get());
        SpanGuard {
            ring: Some(RingRef::Borrowed(self)),
            name,
            id,
            parent,
            trace,
            prev_span: parent,
            prev_trace: trace,
            start: self.clock.now(),
        }
    }

    /// Open a span that *joins a remote trace*: its parent is
    /// `parent_span` (a span id from another process, 0 for a trace
    /// root) and its trace id is `trace`. Until the guard drops, spans
    /// opened on this thread — in any ring — nest beneath it and carry
    /// the same trace id; the previous context is restored afterwards.
    pub fn span_rooted(&self, name: &'static str, trace: u64, parent_span: u64) -> SpanGuard<'_> {
        let id = next_span_id();
        let prev_span = CURRENT_SPAN.with(|c| c.replace(id));
        let prev_trace = CURRENT_TRACE.with(|c| c.replace(trace));
        SpanGuard {
            ring: Some(RingRef::Borrowed(self)),
            name,
            id,
            parent: parent_span,
            trace,
            prev_span,
            prev_trace,
            start: self.clock.now(),
        }
    }

    /// Open a span that is finished by a later event, not by the call
    /// stack that began it (an event loop relays a frame in one
    /// iteration and sees its reply in another). It joins `trace` under
    /// `parent_span` like [`Self::span_rooted`] but never touches the
    /// thread's span context, so other work on the thread does not nest
    /// beneath it and the guard may be dropped in any order. The guard
    /// shares the ring, so it outlives the borrow that opened it.
    pub fn span_detached(
        self: &Arc<Self>,
        name: &'static str,
        trace: u64,
        parent_span: u64,
    ) -> SpanGuard<'static> {
        SpanGuard {
            ring: Some(RingRef::Shared(self.clone())),
            name,
            id: next_span_id(),
            parent: parent_span,
            trace,
            prev_span: DETACHED,
            prev_trace: 0,
            start: self.clock.now(),
        }
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copy every buffered span, oldest first, *without* draining —
    /// flight-recorder dumps must not consume the ring.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.lock().records.iter().copied().collect()
    }

    /// Copy the buffered spans belonging to `trace`, oldest first,
    /// without draining (the `Trace` protocol action's data source).
    pub fn of_trace(&self, trace: u64) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .records
            .iter()
            .filter(|r| r.trace == trace && trace != 0)
            .copied()
            .collect()
    }

    fn push(&self, record: SpanRecord) {
        let mut inner = self.inner.lock();
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(record);
    }
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// `prev_span` of a guard that never entered the thread's span context
/// (span ids start below 2^63 and count up, so the value is never an id).
const DETACHED: u64 = u64::MAX;

/// The ring a guard records into: borrowed by a call-stack span, shared
/// by a detached one.
enum RingRef<'a> {
    Borrowed(&'a SpanRing),
    Shared(Arc<SpanRing>),
}

/// A live span; finishes (and records itself) on drop.
pub struct SpanGuard<'a> {
    /// `None` once recorded.
    ring: Option<RingRef<'a>>,
    name: &'static str,
    id: u64,
    parent: u64,
    trace: u64,
    prev_span: u64,
    prev_trace: u64,
    /// The ring clock's reading at open.
    start: Duration,
}

impl SpanGuard<'_> {
    /// This span's id (usable as an explicit parent reference).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to (0 = untraced).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Finish the span now and record its own duration into `hist`, so an
    /// interval that is both a span and a histogram sample is timed once.
    pub fn finish_into(mut self, hist: &Histogram) {
        hist.record(self.close());
    }

    /// Leave the thread's span context, read the clock, push the record;
    /// returns the duration in microseconds. Records once per guard: from
    /// `finish_into` or from `drop`, whichever comes first.
    fn close(&mut self) -> u64 {
        let Some(ring) = self.ring.take() else {
            return 0;
        };
        if self.prev_span != DETACHED {
            CURRENT_SPAN.with(|c| c.set(self.prev_span));
            CURRENT_TRACE.with(|c| c.set(self.prev_trace));
        }
        let ring: &SpanRing = match &ring {
            RingRef::Borrowed(ring) => ring,
            RingRef::Shared(ring) => ring,
        };
        let dur_us = ring.clock.now().saturating_sub(self.start).as_micros() as u64;
        ring.push(SpanRecord {
            name: self.name,
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            start_us: self.start.as_micros() as u64,
            dur_us,
        });
        dur_us
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_name_duration_and_order() {
        let ring = SpanRing::new(16);
        {
            let _a = ring.span("first");
        }
        {
            let _b = ring.span("second");
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "first");
        assert_eq!(spans[1].name, "second");
        assert!(spans[0].start_us <= spans[1].start_us);
    }

    #[test]
    fn finish_into_records_the_spans_own_duration_once() {
        let clock = Clock::manual();
        let ring = SpanRing::with_clock(16, clock.clone());
        let hist = Histogram::new();
        {
            let _outer = ring.span("outer");
            let inner = ring.span("inner");
            clock.advance(Duration::from_millis(2));
            inner.finish_into(&hist);
            // The thread's context is back at the outer span.
            let sibling = ring.span("sibling");
            assert_eq!(sibling.parent, _outer.id());
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3, "finish_into must not record the span twice");
        assert_eq!(spans[0].name, "inner");
        let sample = hist.snapshot();
        assert_eq!(sample.count, 1);
        assert_eq!((sample.min, sample.max), (spans[0].dur_us, spans[0].dur_us));
        assert_eq!((spans[0].start_us, spans[0].dur_us), (0, 2_000));
    }

    #[test]
    fn span_ids_count_up_from_a_random_base_that_stays_clear_of_detached() {
        let ring = SpanRing::new(4);
        let (a, b) = (ring.span("a").id(), ring.span("b").id());
        assert!(b > a, "sequential within the process");
        assert!(a > 1 && a < 1 << 63, "a random base, not 1: {a}");
        assert_ne!(a, DETACHED);
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let ring = SpanRing::new(16);
        {
            let outer = ring.span("outer");
            let outer_id = outer.id();
            {
                let inner = ring.span("inner");
                assert_eq!(inner.parent, outer_id);
            }
        }
        let spans = ring.snapshot();
        // Inner finishes (and records) first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0, "outer is a root span");
        // A span opened after both must be a root again.
        {
            let _c = ring.span("after");
        }
        assert_eq!(ring.snapshot()[2].parent, 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let ring = SpanRing::new(4);
        for _ in 0..10 {
            let _s = ring.span("x");
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn jsonl_export_is_parseable() {
        let ring = SpanRing::new(8);
        {
            let _a = ring.span("alpha");
        }
        let mut record = ring.snapshot()[0];
        (record.trace, record.id, record.start_us, record.dur_us) = (7, 9, 11, 13);
        let line = serde_json::to_string(&record).expect("a record serialises");
        let expected =
            "{\"name\":\"alpha\",\"trace\":7,\"id\":9,\"parent\":0,\"start_us\":11,\"dur_us\":13}";
        assert_eq!(line, expected);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("alpha"));
        assert!(v.get("dur_us").and_then(|d| d.as_u64()).is_some());
        assert!(v.get("trace").and_then(|t| t.as_u64()).is_some());
    }

    #[test]
    fn concurrent_spans_do_not_cross_thread_parents() {
        let ring = SpanRing::new(1024);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _outer = ring.span("t-outer");
                        let _inner = ring.span("t-inner");
                    }
                });
            }
        });
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 400);
        let by_id: std::collections::HashMap<u64, &SpanRecord> =
            spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            if s.name == "t-inner" {
                // Parent must exist and be an outer span, never an inner
                // from another thread.
                let p = by_id.get(&s.parent).expect("parent recorded");
                assert_eq!(p.name, "t-outer");
            }
        }
    }

    #[test]
    fn rooted_spans_join_the_remote_trace_and_children_inherit_it() {
        let ring = SpanRing::new(16);
        let other = SpanRing::new(16);
        assert_eq!(current_trace(), None, "untraced outside any root");
        {
            let root = ring.span_rooted("server.request", 77, 5);
            assert_eq!(root.trace(), 77);
            assert_eq!(current_trace(), Some((77, root.id())));
            {
                // A child in a *different* ring still inherits the trace.
                let child = other.span("core.evaluate");
                assert_eq!(child.trace(), 77);
                assert_eq!(child.parent, root.id());
            }
        }
        assert_eq!(current_trace(), None, "context restored after the root");
        let root = &ring.snapshot()[0];
        assert_eq!(root.trace, 77);
        assert_eq!(root.parent, 5, "remote parent preserved");
        let child = &other.snapshot()[0];
        assert_eq!(child.trace, 77);
    }

    #[test]
    fn detached_spans_join_a_trace_without_entering_the_thread_context() {
        let ring = Arc::new(SpanRing::new(16));
        let first = ring.span_detached("router.forward", 77, 5);
        let second = ring.span_detached("router.forward", 78, 0);
        assert_eq!(current_trace(), None, "the thread stays untraced");
        {
            let unrelated = ring.span("stats");
            assert_eq!((unrelated.trace(), unrelated.parent), (0, 0));
        }
        // Finished out of order, as replies arrive.
        drop(first);
        drop(second);
        assert_eq!(current_trace(), None);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].trace, spans[1].parent), (77, 5));
        assert_eq!((spans[2].trace, spans[2].parent), (78, 0));
    }

    #[test]
    fn of_trace_filters_without_draining() {
        let ring = SpanRing::new(16);
        {
            let _a = ring.span_rooted("a", 11, 0);
        }
        {
            let _b = ring.span_rooted("b", 22, 0);
        }
        {
            let _c = ring.span("untraced");
        }
        let t11 = ring.of_trace(11);
        assert_eq!(t11.len(), 1);
        assert_eq!(t11[0].name, "a");
        assert!(ring.of_trace(0).is_empty(), "trace 0 never matches");
        assert_eq!(ring.len(), 3, "of_trace must not drain");
        assert_eq!(ring.snapshot().len(), 3);
        assert_eq!(ring.len(), 3, "snapshot must not drain");
    }

    #[test]
    fn minted_trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = mint_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "trace ids must not repeat");
        }
    }
}
