//! Anomaly flight recorder: a bounded ring of recent operational
//! events that can be dumped to a JSONL snapshot — together with the
//! current span ring — when a trigger fires (shed-rate spike, health
//! transition, replication-lag jump, soak regression) or on demand via
//! the `DumpFlight` protocol action.
//!
//! The recorder is deliberately cheap: recording an event is one
//! mutex push into a `VecDeque`, and nothing is written to disk until
//! a trigger fires. Automatic dumps are debounced so a sustained
//! anomaly produces one file every few seconds, not thousands. A
//! trigger only asks for its dump ([`FlightRecorder::defer_dump`]), since
//! it may fire on the reactor; the owner's next sweep writes it.

use crate::lock::{rank, Mutex};
use crate::{Clock, SpanRing};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of events retained in the ring; older events are
/// evicted once the ring is full.
const FLIGHT_CAPACITY: usize = 1024;

/// Dump paths a recorder remembers for [`FlightRecorder::dumped`]; it
/// forgets older ones (the files stay).
const DUMPS_KEPT: usize = 16;

/// Minimum seconds between two automatic dumps from the same
/// recorder. On-demand dumps (`dump`) ignore the debounce.
const DUMP_DEBOUNCE_SECS: u64 = 5;

/// Environment variable naming the directory flight dumps are written
/// to. Falls back to the system temp directory when unset.
pub const FLIGHT_DIR_ENV: &str = "CBES_FLIGHT_DIR";

/// One recorded operational event: what happened, when, and which
/// trace (if any) it was part of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Microseconds on the recorder's clock.
    pub at_us: u64,
    /// Short machine-readable event kind, e.g. `shed` or `health`.
    pub kind: String,
    /// Human-readable detail for the dump file.
    pub detail: String,
    /// Trace id the event belongs to; 0 when untraced.
    pub trace: u64,
}

/// The recorder's locked state: recent events, where it dumped them,
/// and the reason of a dump a trigger left to the next sweep.
struct Ring {
    events: VecDeque<FlightEvent>,
    dumped: VecDeque<PathBuf>,
    deferred: Option<&'static str>,
}

/// Bounded ring of recent [`FlightEvent`]s with debounced auto-dump.
pub struct FlightRecorder {
    ring: Mutex<Ring, { rank::FLIGHT_EVENTS }>,
    recorded: AtomicU64,
    dumps: AtomicU64,
    /// First second of the clock at which an automatic dump may run.
    next_dump_sec: AtomicU64,
    clock: Clock,
}

impl FlightRecorder {
    /// Creates an empty recorder stamping events on `clock`.
    pub fn new(clock: Clock) -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(64),
                dumped: VecDeque::new(),
                deferred: None,
            }),
            recorded: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            next_dump_sec: AtomicU64::new(0),
            clock,
        }
    }

    /// Records an event, evicting the oldest when the ring is full.
    /// `trace` is the owning trace id, or 0 when untraced.
    pub fn record(&self, kind: &str, detail: String, trace: u64) {
        let event = FlightEvent {
            at_us: self.clock.now().as_micros() as u64,
            kind: kind.to_string(),
            detail,
            trace,
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let events = &mut self.ring.lock().events;
        if events.len() == FLIGHT_CAPACITY {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Total events recorded since process start (including the ones
    /// evicted since, which are `recorded` minus what `snapshot` holds).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Dump files written, triggered or on demand.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Copies the buffered events without draining them.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// The files of this recorder's most recent dumps, oldest first.
    pub fn dumped(&self) -> Vec<PathBuf> {
        self.ring.lock().dumped.iter().cloned().collect()
    }

    /// Dumps the recorder (and a snapshot of `spans`) to a JSONL file
    /// if no automatic dump happened in the last
    /// [`DUMP_DEBOUNCE_SECS`] seconds. Returns the path when a dump
    /// was written; `None` when debounced or on I/O failure (a
    /// trigger must never take the serving path down).
    pub fn auto_dump(&self, reason: &str, spans: &SpanRing) -> Option<PathBuf> {
        let now = self.clock.now().as_secs();
        let next = self.next_dump_sec.load(Ordering::Relaxed);
        if now < next {
            return None;
        }
        let after = now + DUMP_DEBOUNCE_SECS;
        if self
            .next_dump_sec
            .compare_exchange(next, after, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Another thread is dumping this second; one file is enough.
            return None;
        }
        self.dump(reason, spans).ok().map(|(path, _)| path)
    }

    /// Ask for an [`Self::auto_dump`] tagged `reason` without writing
    /// anything: the next [`Self::dump_deferred`] runs it, tagged with
    /// the first reason asked for since the last.
    pub fn defer_dump(&self, reason: &'static str) {
        self.ring.lock().deferred.get_or_insert(reason);
    }

    /// Run the automatic dump a trigger deferred, if one is waiting.
    pub fn dump_deferred(&self, spans: &SpanRing) -> Option<PathBuf> {
        let reason = self.ring.lock().deferred.take()?;
        self.auto_dump(reason, spans)
    }

    /// Unconditionally dumps the recorder (and a snapshot of `spans`)
    /// to a JSONL file, returning the path and the number of events
    /// written. Used by the on-demand `DumpFlight` protocol action.
    pub fn dump(&self, reason: &str, spans: &SpanRing) -> std::io::Result<(PathBuf, usize)> {
        let dir = std::env::var_os(FLIGHT_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        self.dump_into(&dir, reason, spans)
    }

    fn dump_into(
        &self,
        dir: &Path,
        reason: &str,
        spans: &SpanRing,
    ) -> std::io::Result<(PathBuf, usize)> {
        crate::lock::blocking("a flight-recorder dump");
        std::fs::create_dir_all(dir)?;
        let at_us = self.clock.now().as_micros() as u64;
        let events = self.snapshot();
        let span_records = spans.snapshot();
        let mut out = Vec::with_capacity(4096);
        let header = serde_json::json!({
            "flight_dump": reason,
            "at_us": at_us,
            "pid": std::process::id(),
            "events": events.len(),
            "spans": span_records.len(),
        });
        out.extend_from_slice(header.to_string().as_bytes());
        out.push(b'\n');
        let events_json = events.iter().map(serde_json::to_string);
        let spans_json = span_records.iter().map(serde_json::to_string);
        for line in events_json.chain(spans_json).flatten() {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        // Never truncate another dump of the same instant (two registries
        // of one process, or any two under a manual clock): take the next
        // free suffix.
        let stem = format!("cbes-flight-{}-{at_us}", std::process::id());
        let mut suffix = 0u32;
        let (path, mut file) = loop {
            let path = match suffix {
                0 => dir.join(format!("{stem}.jsonl")),
                n => dir.join(format!("{stem}-{n}.jsonl")),
            };
            match std::fs::File::create_new(&path) {
                Ok(file) => break (path, file),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => suffix += 1,
                Err(e) => return Err(e),
            }
        };
        file.write_all(&out)?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        let dumped = &mut self.ring.lock().dumped;
        if dumped.len() == DUMPS_KEPT {
            dumped.pop_front();
        }
        dumped.push_back(path.clone());
        Ok((path, events.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let recorder = FlightRecorder::new(Clock::default());
        for i in 0..(FLIGHT_CAPACITY + 10) {
            recorder.record("test", format!("event {i}"), 0);
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(recorder.recorded(), (FLIGHT_CAPACITY + 10) as u64);
        assert_eq!(events[0].detail, "event 10");
        // Snapshot does not drain.
        assert_eq!(recorder.snapshot().len(), FLIGHT_CAPACITY);
    }

    #[test]
    fn dump_writes_header_events_and_spans() {
        let dir = std::env::temp_dir().join(format!("cbes-flight-test-{}", std::process::id()));
        let recorder = FlightRecorder::new(Clock::default());
        recorder.record("shed", "queue full".to_string(), 7);
        let spans = SpanRing::new(8);
        drop(spans.span_rooted(&crate::names::Name("test.span"), 7, 0));
        let (path, events) = recorder
            .dump_into(&dir, "test_trigger", &spans)
            .expect("flight dump should write");
        assert_eq!(events, 1);
        let body = std::fs::read_to_string(&path).expect("dump file should be readable");
        let mut lines = body.lines();
        let header = lines.next().expect("dump should have a header line");
        assert!(header.contains("\"flight_dump\":\"test_trigger\""));
        assert!(body.contains("\"kind\":\"shed\""));
        assert!(body.contains("\"name\":\"test.span\""));
        assert!(body.contains("\"trace\":7"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_dump_debounces_repeated_triggers() {
        let clock = Clock::manual();
        let recorder = FlightRecorder::new(clock.clone());
        recorder.record("shed", "spike".to_string(), 0);
        let spans = SpanRing::new(8);
        let dump = || recorder.auto_dump("shed_spike", &spans);
        let first = dump().expect("first trigger should dump");
        assert!(dump().is_none(), "a second trigger at once is debounced");
        clock.advance(std::time::Duration::from_secs(4));
        assert!(dump().is_none(), "4 s later it still is");
        clock.advance(std::time::Duration::from_secs(1));
        let again = dump().expect("5 s after the first dump, the next one runs");
        assert_eq!(recorder.dumped(), [first, again]);
        for path in recorder.dumped() {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn a_deferred_dump_waits_for_the_sweep_and_is_debounced() {
        let clock = Clock::manual();
        let recorder = FlightRecorder::new(clock.clone());
        let spans = SpanRing::new(8);
        assert!(recorder.dump_deferred(&spans).is_none(), "nothing deferred");
        {
            // Deferring is what a reactor may do: it writes nothing.
            let _reactor = crate::lock::reactor();
            recorder.record("shed", "spike".to_string(), 0);
            recorder.defer_dump("shed_spike");
            recorder.defer_dump("shed_spike");
        }
        assert!(recorder.dumped().is_empty());
        let path = recorder.dump_deferred(&spans).expect("the sweep dumps");
        assert!(recorder.dump_deferred(&spans).is_none(), "taken once");
        recorder.defer_dump("shed_spike");
        assert!(recorder.dump_deferred(&spans).is_none(), "debounced");
        let body = std::fs::read_to_string(&path).expect("dump is readable");
        assert!(body.contains("\"flight_dump\":\"shed_spike\""), "{body}");
        std::fs::remove_file(path).ok();
    }
}
