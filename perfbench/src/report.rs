//! Metrics, output checks and the result line.
//!
//! Every metric carries its unit and the number of samples (or the base of
//! a ratio) it was computed from. The human-readable table goes to standard
//! output first; the last line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`, where each metric is
//! `{"value": …, "unit": …}`.

use std::fmt::Write as _;

use crate::stats::{median, quartiles, short};

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared.
    pub unit: &'static str,
    /// Samples (or items) the value was computed from.
    pub samples: u64,
    /// Base of a ratio, or other context for the reader.
    pub base: String,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric computed from `samples` samples.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.with_base(name, value, unit, samples, String::new());
    }

    /// Record a metric together with its base.
    pub fn with_base(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: u64,
        base: String,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            base,
        });
    }

    /// Record the median of repeated measurements, with their quartiles as
    /// the base.
    pub fn median_of(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let base = quartiles(samples)
            .map(|[q1, _, q3]| format!("q1 {} q3 {}", short(q1), short(q3)))
            .unwrap_or_default();
        self.with_base(name, median(samples), unit, samples.len() as u64, base);
    }

    /// Count `attempted` checked operations of which `failed` failed, with
    /// the reason shown when any did.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed}/{attempted} failed: {}", what()));
        }
    }

    /// One checked operation that passes when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// The metric recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Print the table and the result line for the metrics in `wanted`;
    /// returns whether the run is correct. A wanted metric that is missing
    /// or not finite fails the run.
    pub fn finish(mut self, wanted: &[&str]) -> bool {
        for name in wanted {
            let ok = self.get(name).is_some_and(|m| m.value.is_finite());
            self.check(ok, || format!("metric {name} missing or not finite"));
        }
        println!(
            "{:<38} {:>16} {:<10} {:>10}  base",
            "metric", "value", "unit", "samples"
        );
        for name in wanted {
            if let Some(m) = self.get(name) {
                println!(
                    "{:<38} {:>16.6} {:<10} {:>10}  {}",
                    m.name, m.value, m.unit, m.samples, m.base
                );
            }
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let correct = self.failed == 0;
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for name in wanted {
            if let Some(m) = self.get(name).filter(|m| m.value.is_finite()) {
                let sep = if first { "" } else { ", " };
                first = false;
                let _ = write!(
                    json,
                    "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}
