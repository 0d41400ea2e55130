//! Anomaly flight recorder: a bounded ring of recent operational
//! events that can be dumped to a JSONL snapshot — together with the
//! current span ring — when a trigger fires (shed-rate spike, health
//! transition, replication-lag jump, soak regression) or on demand via
//! the `DumpFlight` protocol action.
//!
//! The recorder is deliberately cheap: recording an event is one
//! mutex push into a `VecDeque`, and nothing is written to disk until
//! a trigger fires. Automatic dumps are debounced so a sustained
//! anomaly produces one file every few seconds, not thousands.

use crate::span::{now_sec, now_us};
use crate::SpanRing;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of events retained in the ring; older events are
/// evicted (and counted as dropped) once the ring is full.
const FLIGHT_CAPACITY: usize = 1024;

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
    /// Microseconds since the process epoch.
    pub at_us: u64,
    /// Short machine-readable event kind, e.g. `shed` or `health`.
    pub kind: String,
    /// Human-readable detail for the dump file.
    pub detail: String,
    /// Trace id the event belongs to; 0 when untraced.
    pub trace: u64,
}

/// Bounded ring of recent [`FlightEvent`]s with debounced auto-dump.
pub struct FlightRecorder {
    events: Mutex<VecDeque<FlightEvent>>,
    dropped: AtomicU64,
    recorded: AtomicU64,
    dumps: AtomicU64,
    last_dump_sec: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder {
            events: Mutex::new(VecDeque::with_capacity(64)),
            dropped: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            // u64::MAX would wrap the debounce check; 0 means "never
            // dumped" and always permits the first dump.
            last_dump_sec: AtomicU64::new(0),
        }
    }

    /// Records an event, evicting the oldest when the ring is full.
    /// `trace` is the owning trace id, or 0 when untraced.
    pub fn record(&self, kind: &str, detail: String, trace: u64) {
        let event = FlightEvent {
            at_us: now_us(),
            kind: kind.to_string(),
            detail,
            trace,
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock();
        if events.len() == FLIGHT_CAPACITY {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Total events recorded since process start (including evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted unexported because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Dump files written, triggered or on demand.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Copies the buffered events without draining them.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Dumps the recorder (and a snapshot of `spans`) to a JSONL file
    /// if no automatic dump happened in the last
    /// [`DUMP_DEBOUNCE_SECS`] seconds. Returns the path when a dump
    /// was written; `None` when debounced or on I/O failure (a
    /// trigger must never take the serving path down).
    pub fn auto_dump(&self, reason: &str, spans: &SpanRing) -> Option<PathBuf> {
        let now = now_sec();
        let last = self.last_dump_sec.load(Ordering::Relaxed);
        if last != 0 && now < last.saturating_add(DUMP_DEBOUNCE_SECS) {
            return None;
        }
        if self
            .last_dump_sec
            .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            // Another thread is dumping this second; one file is enough.
            return None;
        }
        self.dump(reason, spans).ok().map(|(path, _)| path)
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
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "cbes-flight-{}-{}.jsonl",
            std::process::id(),
            now_us()
        ));
        let events = self.snapshot();
        let span_records = spans.snapshot();
        let mut out = Vec::with_capacity(4096);
        let header = serde_json::json!({
            "flight_dump": reason,
            "at_us": now_us(),
            "pid": std::process::id(),
            "events": events.len(),
            "spans": span_records.len(),
        });
        out.extend_from_slice(header.to_string().as_bytes());
        out.push(b'\n');
        for event in &events {
            match serde_json::to_string(event) {
                Ok(line) => {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                }
                Err(_) => continue,
            }
        }
        for record in &span_records {
            out.extend_from_slice(record.to_json_line().as_bytes());
            out.push(b'\n');
        }
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&out)?;
        self.dumps.fetch_add(1, Ordering::Relaxed);
        Ok((path, events.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let recorder = FlightRecorder::new();
        for i in 0..(FLIGHT_CAPACITY + 10) {
            recorder.record("test", format!("event {i}"), 0);
        }
        assert_eq!(recorder.len(), FLIGHT_CAPACITY);
        assert_eq!(recorder.dropped(), 10);
        assert_eq!(recorder.recorded(), (FLIGHT_CAPACITY + 10) as u64);
        let events = recorder.snapshot();
        assert_eq!(events[0].detail, "event 10");
        // Snapshot does not drain.
        assert_eq!(recorder.len(), FLIGHT_CAPACITY);
    }

    #[test]
    fn dump_writes_header_events_and_spans() {
        let dir = std::env::temp_dir().join(format!("cbes-flight-test-{}", std::process::id()));
        let recorder = FlightRecorder::new();
        recorder.record("shed", "queue full".to_string(), 7);
        let spans = SpanRing::new(8);
        drop(spans.span_rooted("test.span", 7, 0));
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
        let recorder = FlightRecorder::new();
        recorder.record("shed", "spike".to_string(), 0);
        let spans = SpanRing::new(8);
        let first = recorder.auto_dump("shed_spike", &spans);
        let second = recorder.auto_dump("shed_spike", &spans);
        assert!(
            second.is_none(),
            "second trigger within debounce should not"
        );
        let first = first.expect("first trigger should dump");
        std::fs::remove_file(first).ok();
    }
}
