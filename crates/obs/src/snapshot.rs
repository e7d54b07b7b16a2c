//! Point-in-time serializable views of a [`Registry`].

use crate::event::Event;
use crate::metrics::{Metric, Registry};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary of one histogram (span durations are nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (total time, for span histograms).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// A point-in-time view of every metric and recent event in a registry.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name (stage spans live here).
    pub spans: BTreeMap<String, HistogramSnapshot>,
    /// Events the ring buffer evicted to admit newer ones (loud-drop
    /// accounting: `events` below is complete iff this is 0).
    pub events_dropped: u64,
    /// Recent structured events, oldest first.
    pub events: Vec<Event>,
}

impl Registry {
    /// Capture the current state of every metric plus recent events.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut spans = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    spans.insert(
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min().unwrap_or(0),
                            max: h.max().unwrap_or(0),
                            p50: h.quantile(0.50).unwrap_or(0),
                            p90: h.quantile(0.90).unwrap_or(0),
                            p99: h.quantile(0.99).unwrap_or(0),
                        },
                    );
                }
            }
        }
        drop(metrics);
        Snapshot {
            counters,
            gauges,
            spans,
            events_dropped: self.events.dropped(),
            events: self.events.recent(),
        }
    }
}

/// Format a nanosecond quantity with a readable unit.
pub fn fmt_nanos(nanos: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1} ms", n / 1e6)
    } else {
        format!("{:.2} s", n / 1e9)
    }
}

impl Snapshot {
    /// Render the per-stage timing table plus counters as aligned text —
    /// the stderr profile `repro` prints after a run.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "total", "p50", "p99"
            );
            for (name, h) in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<34} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    fmt_nanos(h.sum),
                    fmt_nanos(h.p50),
                    fmt_nanos(h.p99)
                );
            }
        }
        if !self.counters.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "{:<34} {:>10}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<34} {value:>10}");
            }
        }
        if !self.gauges.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "{:<34} {:>10}", "gauge", "value");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<34} {value:>10}");
            }
        }
        if self.events_dropped > 0 {
            out.push('\n');
            let _ = writeln!(
                out,
                "events dropped: {} (ring evicted; raise the event-log capacity to keep them)",
                self.events_dropped
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    fn populated() -> Registry {
        let registry = Registry::new();
        registry.counter("pipeline.funnel.collected").add(100);
        registry.counter("pipeline.funnel.classified_dox").add(9);
        registry.gauge("store.dead_bytes").set(8);
        let h = registry.histogram("pipeline.classify");
        for v in [100u64, 200, 400, 800, 100_000] {
            h.observe(v);
        }
        registry
            .events()
            .emit(Level::Info, "test", "done", vec![("k".into(), "v".into())]);
        registry
    }

    #[test]
    fn snapshot_captures_all_metric_kinds() {
        let s = populated().snapshot();
        assert_eq!(s.counters["pipeline.funnel.collected"], 100);
        assert_eq!(s.gauges["store.dead_bytes"], 8);
        let h = &s.spans["pipeline.classify"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 101_500);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 100_000);
        assert!(h.p50 >= h.min && h.p50 <= h.max);
        assert!(h.p99 >= h.p50);
        assert_eq!(s.events.len(), 1);
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(999), "999 ns");
        assert_eq!(fmt_nanos(1_500), "1.5 µs");
        assert_eq!(fmt_nanos(2_500_000), "2.5 ms");
        assert_eq!(fmt_nanos(3_210_000_000), "3.21 s");
    }

    #[test]
    fn table_lists_spans_and_counters() {
        let table = populated().snapshot().render_table();
        assert!(table.contains("pipeline.classify"), "{table}");
        assert!(table.contains("pipeline.funnel.collected"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(Registry::new().snapshot().render_table(), "");
    }

    #[test]
    fn snapshot_surfaces_event_drops() {
        let registry = Registry::new();
        assert_eq!(registry.snapshot().events_dropped, 0);
        let capacity = registry.events().capacity();
        for i in 0..capacity + 3 {
            registry
                .events()
                .emit(Level::Info, "test", format!("e{i}"), vec![]);
        }
        let s = registry.snapshot();
        assert_eq!(s.events_dropped, 3);
        assert!(s.render_table().contains("events dropped: 3"));
    }
}
