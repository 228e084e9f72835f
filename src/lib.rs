//! # drop-the-packets
//!
//! A full-system Rust reproduction of *"Drop the Packets: Using
//! Coarse-grained Data to detect Video Performance Issues"* (Mangla,
//! Halepovic, Zegura, Ammar — ACM CoNEXT 2020).
//!
//! The paper shows that an ISP can detect video performance issues (low
//! video quality or high re-buffering) from **coarse-grained TLS transaction
//! records** — start/end time, uplink/downlink bytes, and SNI per TLS
//! connection, as exported by a transparent proxy — instead of full packet
//! traces, at a fraction of the collection and compute cost.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simnet`] — synthetic bandwidth traces + time-varying link model,
//! * [`hasplayer`] — HTTP adaptive streaming player, ABR algorithms, and
//!   ground-truth QoE, with three service profiles mirroring the paper's
//!   anonymized Svc1/Svc2/Svc3,
//! * [`transport`] — CDN, TLS connection pool and TCP packet simulation,
//! * [`telemetry`] — packet capture, proxy TLS-transaction records, flow
//!   records, and overhead accounting,
//! * [`features`] — the paper's 38 TLS features (Table 1) and the ML16
//!   packet-trace baseline features,
//! * [`ml`] — from-scratch Random Forest (plus k-NN, SVM, MLP, GBDT),
//!   stratified cross-validation and metrics,
//! * [`core`] — QoE labels, the session-identification heuristic, and the
//!   end-to-end dataset/estimation pipeline,
//! * [`stream`] — push-based streaming inference: per-client session
//!   tracking and micro-batched extraction and scoring through the batch
//!   feature extractor, bitwise-equal to the batch pipeline (see
//!   `dtp_stream` docs).
//!
//! ## Quickstart
//!
//! ```
//! use drop_the_packets::core::{DatasetBuilder, ServiceId};
//!
//! // Simulate a small corpus of Svc1 sessions and train a QoE estimator.
//! let corpus = DatasetBuilder::new(ServiceId::Svc1).sessions(40).seed(7).build();
//! let dataset = corpus.tls_dataset(dtp_core::label::QoeMetricKind::Combined);
//! assert_eq!(dataset.len(), 40);
//! ```

pub use dtp_core as core;
pub use dtp_features as features;
pub use dtp_hasplayer as hasplayer;
pub use dtp_ml as ml;
pub use dtp_simnet as simnet;
pub use dtp_stream as stream;
pub use dtp_telemetry as telemetry;
pub use dtp_transport as transport;
