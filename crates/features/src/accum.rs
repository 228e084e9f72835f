//! The open session's record buffer, for push-based (online) callers.
//!
//! Every Table 1 statistic is a min, median or max (the paper drops mean
//! and std-dev as redundant, §3 footnote 5), and an exact median needs
//! every value in the session, so an online form cannot hold less than the
//! session's records. [`TlsSessionAccumulator`] therefore keeps exactly
//! that: the records, in push order. [`TlsSessionAccumulator::features`]
//! runs the batch extractor over them, so there is one implementation of
//! the 38 features and the result is bitwise equal to
//! [`crate::extract_tls_features_checked`] over the same slice, whatever
//! the push order.

use dtp_telemetry::TlsTransactionRecord;

use crate::FeatureQuality;

/// One session's TLS transactions, pushed one at a time; reads the full
/// Table 1 feature vector through the batch extractor.
#[derive(Debug, Clone, Default)]
pub struct TlsSessionAccumulator {
    records: Vec<TlsTransactionRecord>,
}

impl TlsSessionAccumulator {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transactions pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Earliest transaction start; `None` when empty.
    pub fn start_s(&self) -> Option<f64> {
        self.records.iter().map(|t| t.start_s).reduce(f64::min)
    }

    /// Latest transaction end; `None` when empty.
    pub fn end_s(&self) -> Option<f64> {
        self.records.iter().map(|t| t.end_s).reduce(f64::max)
    }

    /// Buffer one transaction.
    pub fn push(&mut self, t: &TlsTransactionRecord) {
        self.records.push(t.clone());
    }

    /// The buffered records, in push order.
    pub fn into_records(self) -> Vec<TlsTransactionRecord> {
        self.records
    }

    /// The feature vector and quality report over everything pushed so far:
    /// [`crate::extract_tls_features_checked`] over the records in push
    /// order, without its span and counter.
    pub fn features(&self) -> (Vec<f64>, FeatureQuality) {
        crate::tls::checked_features(&self.records, &crate::TEMPORAL_INTERVALS_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_tls_features_checked;
    use std::sync::Arc;

    fn tx(start: f64, end: f64, up: f64, down: f64) -> TlsTransactionRecord {
        TlsTransactionRecord {
            start_s: start,
            end_s: end,
            up_bytes: up,
            down_bytes: down,
            sni: Arc::from("cdn.svc1.example"),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn accumulator_matches_batch_bitwise() {
        let sessions = [
            vec![tx(0.0, 10.0, 1000.0, 1_000_000.0)],
            vec![tx(0.0, 50.0, 5_000.0, 5_000_000.0), tx(50.0, 100.0, 5_000.0, 5_000_000.0)],
            vec![
                tx(0.0, 45.0, 1_000.0, 500_000.0),
                tx(10.0, 300.0, 9_000.0, 4_000_000.0),
                tx(200.0, 400.0, 2_000.0, 1_000_000.0),
            ],
            // Zero-duration and zero-uplink degenerates.
            vec![tx(0.0, 5.0, 0.0, 100.0), tx(10.0, 10.0, 50.0, 500.0)],
            vec![],
            // Pushed out of start order: IAT, the session start and the
            // temporal windows come from the sorted starts, as in batch.
            vec![
                tx(200.0, 400.0, 2_000.0, 1_000_000.0),
                tx(0.0, 45.0, 1_000.0, 500_000.0),
                tx(10.0, 300.0, 9_000.0, 4_000_000.0),
                tx(5.0, 5.0, 70.0, 900.0),
            ],
        ];
        for txs in &sessions {
            let (batch, bq) = extract_tls_features_checked(txs);
            let mut acc = TlsSessionAccumulator::new();
            for t in txs {
                acc.push(t);
            }
            let (streamed, sq) = acc.features();
            assert_eq!(bits(&streamed), bits(&batch), "{txs:?}");
            assert_eq!(sq, bq);
            assert_eq!(streamed.len(), 38);
        }
    }

    #[test]
    fn accumulator_live_reads_are_prefix_exact() {
        // Reading mid-session equals batch extraction over the prefix.
        let txs = [
            tx(0.0, 45.0, 1_000.0, 500_000.0),
            tx(10.0, 300.0, 9_000.0, 4_000_000.0),
            tx(200.0, 400.0, 2_000.0, 1_000_000.0),
        ];
        let mut acc = TlsSessionAccumulator::new();
        assert_eq!(acc.start_s(), None);
        assert_eq!(acc.end_s(), None);
        for (i, t) in txs.iter().enumerate() {
            acc.push(t);
            let (live, _) = acc.features();
            let (batch, _) = extract_tls_features_checked(&txs[..=i]);
            assert_eq!(bits(&live), bits(&batch), "prefix {}", i + 1);
            assert_eq!(acc.len(), i + 1);
            assert_eq!(acc.start_s(), Some(0.0));
        }
        assert_eq!(acc.end_s(), Some(400.0));
        assert_eq!(acc.into_records(), txs.to_vec());
    }

    #[test]
    fn accumulator_reports_suspect_records() {
        let mut acc = TlsSessionAccumulator::new();
        acc.push(&tx(5.0, 4.0, 10.0, 10.0)); // inverted times
        acc.push(&tx(6.0, 8.0, 100.0, 1_000.0));
        let (_, q) = acc.features();
        assert_eq!(q.suspect_records, 1);
        assert!(!q.empty_input);
    }
}
