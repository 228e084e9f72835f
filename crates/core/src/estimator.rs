//! The QoE estimation façade an ISP would deploy.
//!
//! Wraps the winning model (Random Forest over the 38 TLS features) behind
//! a train-once / predict-per-session API, plus the cross-validated
//! evaluation entry point the experiments use.

use dtp_features::extract_tls_features;
use dtp_ml::cv::{cross_validate, CvResult};
use dtp_ml::{Classifier, RandomForest, RandomForestConfig};
use dtp_telemetry::TlsTransactionRecord;

use crate::dataset::Corpus;
use crate::label::{QoeCategory, QoeMetricKind};

/// A trained per-service, per-metric QoE estimator.
///
/// `Clone` is cheap relative to training and lets one trained model be
/// deployed to several streaming engines.
#[derive(Clone)]
pub struct QoeEstimator {
    forest: RandomForest,
    metric: QoeMetricKind,
}

impl std::fmt::Debug for QoeEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QoeEstimator").field("metric", &self.metric).finish()
    }
}

impl QoeEstimator {
    /// The forest configuration used throughout the reproduction — the
    /// paper's §4.2 hyperparameters (see [`RandomForestConfig::for_paper`]).
    pub fn forest_config(seed: u64) -> RandomForestConfig {
        RandomForestConfig::for_paper(seed)
    }

    /// Train on a corpus for one QoE metric.
    pub fn train(corpus: &Corpus, metric: QoeMetricKind, seed: u64) -> Self {
        let ds = corpus.tls_dataset(metric);
        let mut forest = RandomForest::new(Self::forest_config(seed));
        forest.fit(&ds.features, &ds.labels, ds.n_classes);
        Self { forest, metric }
    }

    /// The metric this estimator predicts.
    pub fn metric(&self) -> QoeMetricKind {
        self.metric
    }

    /// Predict the class index (0 = problem class) for a session's TLS
    /// transactions.
    pub fn predict_index(&self, transactions: &[TlsTransactionRecord]) -> usize {
        let features = extract_tls_features(transactions);
        self.forest.predict(&features)
    }

    /// Predict the class index from an already-extracted 38-feature vector.
    ///
    /// This is the scoring half of [`QoeEstimator::predict_index`] — same
    /// forest, same tie-breaking — for callers that maintain feature
    /// vectors themselves (cached corpora, replayed verdicts).
    pub fn predict_index_features(&self, features: &[f64]) -> usize {
        self.forest.predict(features)
    }

    /// Averaged class probabilities for a micro-batch of feature vectors,
    /// fanned out over the `dtp-par` pool. Row `i` scores `rows[i]`, at any
    /// thread count.
    pub fn predict_proba_features_batch(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forest.predict_proba_batch(rows)
    }

    /// A stable content digest of the serialized model (FNV-1a over the
    /// JSON export), for golden fixtures and deploy-time sanity checks: two
    /// estimators with the same digest make identical predictions.
    pub fn model_digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Predict on the combined/quality scale. For the re-buffering metric,
    /// index 0 still means "high re-buffering" — interpret accordingly.
    pub fn predict_category(&self, transactions: &[TlsTransactionRecord]) -> QoeCategory {
        QoeCategory::from_index(self.predict_index(transactions))
    }

    /// True when the session is predicted to have a video performance issue
    /// (the paper's detection use case).
    pub fn predicts_low_qoe(&self, transactions: &[TlsTransactionRecord]) -> bool {
        self.predict_index(transactions) == 0
    }

    /// 5-fold cross-validated evaluation of the estimator on a corpus —
    /// the paper's protocol (§4.2).
    pub fn evaluate(corpus: &Corpus, metric: QoeMetricKind, seed: u64) -> CvResult {
        let ds = corpus.tls_dataset(metric);
        cross_validate(&ds, 5, seed, move || {
            Box::new(RandomForest::new(Self::forest_config(seed)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::ServiceId;

    #[test]
    fn train_and_predict_round_trip() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(40).seed(11).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        assert_eq!(est.metric(), QoeMetricKind::Combined);

        // Predict on a fresh simulated session's transactions.
        let cfg = crate::sim::SessionConfig {
            service: ServiceId::Svc1,
            trace: dtp_simnet::BandwidthTrace::constant(4000.0, 400.0),
            kind: dtp_simnet::TraceKind::Lte,
            watch_duration_s: 90.0,
            seed: 999,
            capture_packets: false,
        };
        let session = crate::sim::simulate_session(&cfg);
        let idx = est.predict_index(session.telemetry.tls.transactions());
        assert!(idx < 3);
        let _ = est.predict_category(session.telemetry.tls.transactions());
        let _ = est.predicts_low_qoe(session.telemetry.tls.transactions());
    }

    #[test]
    fn feature_level_prediction_matches_transaction_level() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(5).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let rows: Vec<Vec<f64>> =
            corpus.records.iter().map(|r| r.tls_features.clone()).collect();
        let probas = est.predict_proba_features_batch(&rows);
        assert_eq!(probas.len(), rows.len());
        for (row, proba) in rows.iter().zip(&probas) {
            assert_eq!(proba.len(), 3);
            assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // First-max argmax is the forest's own tie-break convention.
            let mut best = 0;
            for (i, v) in proba.iter().enumerate() {
                if *v > proba[best] {
                    best = i;
                }
            }
            assert_eq!(est.predict_index_features(row), best);
        }
        let digest = est.model_digest();
        assert_eq!(digest.len(), 16);
        assert_eq!(digest, est.model_digest(), "digest is stable");
        let restored = QoeEstimator::from_json(&est.to_json()).unwrap();
        assert_eq!(restored.model_digest(), digest, "digest survives round-trip");
    }

    #[test]
    fn evaluation_reports_all_sessions() {
        let corpus = DatasetBuilder::new(ServiceId::Svc2).sessions(60).seed(13).build();
        let res = QoeEstimator::evaluate(&corpus, QoeMetricKind::Combined, 0);
        assert_eq!(res.confusion.total(), 60);
        assert!(res.accuracy() > 1.0 / 3.0, "better than chance: {}", res.accuracy());
    }
}

/// A serializable trained model: train centrally, deploy at the proxy.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct SavedModel {
    /// The metric the model predicts.
    pub metric: QoeMetricKind,
    /// Feature column names the model expects, in order.
    pub feature_names: Vec<String>,
    /// The fitted forest.
    forest: RandomForest,
}

impl QoeEstimator {
    /// Export the trained model as JSON.
    pub fn to_json(&self) -> String {
        let saved = SavedModel {
            metric: self.metric,
            feature_names: dtp_features::tls_feature_names(),
            forest: self.forest.clone(),
        };
        serde_json::to_string(&saved).expect("model serializes")
    }

    /// Restore a trained model from JSON.
    ///
    /// # Errors
    /// Returns the underlying decode error for malformed input, and rejects
    /// models whose feature schema differs from this build's.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let saved: SavedModel = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if saved.feature_names != dtp_features::tls_feature_names() {
            return Err("model was trained with a different feature schema".to_string());
        }
        Ok(Self { forest: saved.forest, metric: saved.metric })
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::ServiceId;

    #[test]
    fn round_trips_through_json() {
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(30).seed(2).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let json = est.to_json();
        let restored = QoeEstimator::from_json(&json).expect("valid model");
        // Identical predictions on the training corpus features.
        let ds = corpus.tls_dataset(QoeMetricKind::Combined);
        for row in &ds.features {
            assert_eq!(est.forest.predict(row), restored.forest.predict(row));
        }
        assert_eq!(restored.metric(), QoeMetricKind::Combined);
    }

    #[test]
    fn rejects_garbage_and_schema_mismatch() {
        assert!(QoeEstimator::from_json("not json").is_err());
        let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(25).seed(3).build();
        let est = QoeEstimator::train(&corpus, QoeMetricKind::Combined, 0);
        let mut saved: SavedModel = serde_json::from_str(&est.to_json()).unwrap();
        saved.feature_names.pop();
        let tampered = serde_json::to_string(&saved).unwrap();
        assert!(QoeEstimator::from_json(&tampered).is_err());
    }
}
