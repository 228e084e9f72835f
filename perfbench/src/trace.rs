//! The benchmark's own tracer: spans around calls into each layer's public
//! functions, recorded from the benchmark's files only.
//!
//! A span is timed and folded straight into its name's totals (spans, items
//! processed, summed duration), so a span costs two clock reads and no
//! allocation, however many a run makes. A disabled tracer records
//! nothing, so untraced runs pay one branch per boundary.

use std::time::Instant;

/// Per-name aggregate of finished spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Spans finished under this name.
    pub count: usize,
    /// Items processed across those spans.
    pub items: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
}

impl SpanTotals {
    /// Mean duration per item in nanoseconds (`NaN` with no items).
    pub fn ns_per_item(&self) -> f64 {
        self.total_s * 1e9 / self.items as f64
    }

    /// Mean duration per span in milliseconds.
    pub fn ms_per_span(&self) -> f64 {
        self.total_s * 1e3 / self.count as f64
    }
}

/// Per-name span totals, in first-seen order.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    totals: Vec<(&'static str, SpanTotals)>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            totals: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` that processed `items` items.
    pub fn span<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_secs_f64();
        let t = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => &mut self.totals[i].1,
            None => {
                self.totals.push((name, SpanTotals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        t.count += 1;
        t.items += items;
        t.total_s += dur;
        out
    }

    /// Aggregate of every finished span named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    }

    /// Aggregates per span name, in first-seen order.
    pub fn summary(&self) -> &[(&'static str, SpanTotals)] {
        &self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_per_name_totals() {
        let mut tr = Tracer::new(true);
        for _ in 0..2 {
            tr.span("slow", 10, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        assert_eq!(tr.span("fast", 3, || 7), 7);
        let slow = tr.totals("slow");
        assert_eq!((slow.count, slow.items), (2, 20));
        assert!(slow.total_s >= 0.004);
        assert!(slow.ns_per_item() >= 0.004e9 / 20.0);
        let names: Vec<&str> = tr.summary().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["slow", "fast"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 1, || 7), 7);
        assert!(tr.summary().is_empty());
        assert_eq!(tr.totals("x").count, 0);
    }
}
