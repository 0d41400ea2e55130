//! A named collection of instruments rendering one JSON snapshot.

use crate::clock::Clock;
use crate::flight::FlightRecorder;
use crate::lock::{rank, Mutex};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::names::{self, Name};
use crate::span::{SpanGuard, SpanRing};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Span-ring capacity of a registry. A daemon's one ring holds both its
/// request spans and the core spans beneath them, so it is sized at what
/// two rings of 4096 held between them.
const SPAN_CAPACITY: usize = 8192;

/// A registry of named counters, gauges, and histograms plus a span
/// ring. Instrument lookup takes a short lock and returns an `Arc`;
/// call sites cache the `Arc` and update it wait-free thereafter.
///
/// There is no process-wide instance: each daemon (`CbesService`) and
/// each router owns one, so several of them in one process never mix
/// counts, spans or flight events.
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>, { rank::OBS_COUNTERS }>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>, { rank::OBS_GAUGES }>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>, { rank::OBS_HISTOGRAMS }>,
    spans: Arc<SpanRing>,
    flight: FlightRecorder,
    clock: Clock,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry on the default clock.
    pub fn new() -> Self {
        Registry::with_clock(Clock::default())
    }

    /// An empty registry whose spans, flight events and owner read `clock`.
    pub fn with_clock(clock: Clock) -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Arc::new(SpanRing::with_clock(SPAN_CAPACITY, clock.clone())),
            flight: FlightRecorder::new(clock.clone()),
            clock,
        }
    }

    /// This registry's clock, its owner's one source of time.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static Name) -> Arc<Counter> {
        self.counters
            .lock()
            .entry(name.as_str())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static Name) -> Arc<Gauge> {
        self.gauges
            .lock()
            .entry(name.as_str())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static Name) -> Arc<Histogram> {
        self.histograms
            .lock()
            .entry(name.as_str())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// This registry's span ring.
    pub fn spans(&self) -> &Arc<SpanRing> {
        &self.spans
    }

    /// Open a span on this registry's ring.
    pub fn span(&self, name: &'static Name) -> SpanGuard<'_> {
        self.spans.span(name)
    }

    /// This registry's anomaly flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The one anomaly path every trigger takes: record `detail` as a
    /// `kind` flight event, then ask for a debounced dump of the recorder
    /// and this registry's span ring, which the owner's next sweep writes
    /// ([`Self::dump_deferred`]): a trigger may fire on the reactor, and
    /// the reactor writes no file. A sustained anomaly whose event is
    /// already in the ring passes `None` and only asks again.
    pub fn anomaly(&self, kind: &'static str, detail: Option<String>) {
        if let Some(detail) = detail {
            self.flight.record(kind, detail, 0);
        }
        self.flight.defer_dump(kind);
    }

    /// Write the dump an [`Self::anomaly`] asked for, if one is waiting
    /// and the debounce allows it. The daemon's once-per-second sweep and
    /// the router's heartbeat call it, off the reactor. Returns the dump
    /// file, if one was written.
    pub fn dump_deferred(&self) -> Option<PathBuf> {
        self.flight.dump_deferred(&self.spans)
    }

    /// Render every instrument into one serialisable snapshot: one entry
    /// per instrument, its cumulative value, so two snapshots of one
    /// registry subtract into the window between them. Three derived
    /// counters come from the span ring and the flight recorder
    /// themselves: `spans.dropped` (ring evictions), `flight.events`
    /// (events seen) and `flight.dumps` (dump files written).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), v.get()))
            .collect();
        counters.insert(names::SPANS_DROPPED.to_string(), self.spans.dropped());
        counters.insert(names::FLIGHT_EVENTS.to_string(), self.flight.recorded());
        counters.insert(names::FLIGHT_DUMPS.to_string(), self.flight.dumps());
        MetricsSnapshot {
            counters,
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
            spans_buffered: self.spans.len() as u64,
            spans_dropped: self.spans.dropped(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().len())
            .field("gauges", &self.gauges.lock().len())
            .field("histograms", &self.histograms.lock().len())
            .field("spans", &self.spans)
            .finish()
    }
}

/// One point-in-time rendering of a [`Registry`] — the payload of the
/// server's `Metrics` protocol action.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Spans currently buffered in the ring.
    pub spans_buffered: u64,
    /// Spans evicted from the ring since start.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters add, gauges last-wins,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        self.spans_buffered += other.spans_buffered;
        self.spans_dropped += other.spans_dropped;
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot always serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        r.counter(&Name("requests")).add(3);
        r.counter(&Name("requests")).add(2);
        assert_eq!(r.counter(&Name("requests")).get(), 5);
        r.gauge(&Name("depth")).set(7.0);
        r.histogram(&Name("lat")).record(10);
        r.histogram(&Name("lat")).record(20);
        let s = r.snapshot();
        assert_eq!(s.counters["requests"], 5);
        assert_eq!(s.gauges["depth"], 7.0);
        assert_eq!(s.histograms["lat"].count, 2);
    }

    #[test]
    fn snapshot_serialises_and_roundtrips() {
        let r = Registry::new();
        r.counter(&Name("a")).incr();
        r.histogram(&Name("h")).record(42);
        {
            let _s = r.span(&Name("req"));
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans_buffered, 1);
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_namespaced_registries() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter(&Name("server.served")).add(10);
        b.counter(&Name("core.compares")).add(4);
        b.counter(&Name("server.served")).add(1);
        a.histogram(&Name("lat")).record(5);
        b.histogram(&Name("lat")).record(500);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["server.served"], 11);
        assert_eq!(merged.counters["core.compares"], 4);
        assert_eq!(merged.histograms["lat"].count, 2);
        assert_eq!(merged.histograms["lat"].min, 5);
        assert_eq!(merged.histograms["lat"].max, 500);
    }

    #[test]
    fn snapshot_is_cumulative_only_and_exposes_loss_counters() {
        let r = Registry::new();
        r.counter(&Name("req")).add(4);
        r.histogram(&Name("lat")).record(100);
        let s = r.snapshot();
        assert_eq!(s.counters["req"], 4);
        assert_eq!(s.counters[names::SPANS_DROPPED.as_str()], 0);
        assert_eq!(s.counters[names::FLIGHT_EVENTS.as_str()], 0);
        assert_eq!(s.histograms.len(), 1);
        let keys = s.counters.keys().chain(s.histograms.keys());
        assert_eq!(keys.filter(|k| k.contains('#')).count(), 0, "{s:?}");
        // An anomaly is one event and (debounced) one dump, both counted
        // by the recorder itself; asking again adds neither.
        assert_eq!(s.counters[names::FLIGHT_DUMPS.as_str()], 0);
        r.anomaly("test_anomaly", Some("detail".to_string()));
        let dump = r.dump_deferred();
        r.anomaly("test_anomaly", None);
        assert!(r.dump_deferred().is_none(), "debounced");
        let s = r.snapshot();
        assert_eq!(s.counters[names::FLIGHT_EVENTS.as_str()], 1);
        assert_eq!(s.counters[names::FLIGHT_DUMPS.as_str()], 1);
        std::fs::remove_file(dump.expect("the first anomaly dumps")).ok();
    }

    #[test]
    fn two_registries_on_one_clock_dump_the_same_instant_to_two_files() {
        let clock = Clock::manual();
        let (a, b) = (
            Registry::with_clock(clock.clone()),
            Registry::with_clock(clock),
        );
        let dump = |r: &Registry, detail: &str| {
            r.anomaly("test_anomaly", Some(detail.to_string()));
            r.dump_deferred().expect("a first anomaly dumps")
        };
        let paths = [dump(&a, "from registry a"), dump(&b, "from registry b")];
        assert_ne!(paths[0], paths[1], "one instant, two files");
        let bodies = paths.map(|path| {
            let body = std::fs::read_to_string(&path).expect("the dump is readable");
            std::fs::remove_file(&path).ok();
            body
        });
        assert!(bodies[0].contains("from registry a") && !bodies[0].contains("registry b"));
        assert!(bodies[1].contains("from registry b") && !bodies[1].contains("registry a"));
    }
}
